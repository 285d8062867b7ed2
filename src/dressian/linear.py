"""Exact rational subspaces: symbol equation systems, dimensions, projections.

`cell_dim` is the dimension count of the census and the lower bound.  Its
rows are x(Sac) + x(Sbd) - x(Sad) - x(Sbc), one per symbol of [nu], and it
first bounds their rank from both sides on bit masks: below by the rank
over GF(2) of the rows mod 2, above by the size of their support minus a
parity lower bound on the rank of the lineality space there (see
`cell_dim` for the proof).  `_gf2_basis`, an XOR basis keyed by highest
set bit, computes both bounds; any keying admits the same rows, the
greedy independent prefix.  When the bounds meet, that is the rank and
nothing is eliminated; this is the case for every nu_N of the census.
Otherwise the rank is certified by a kernel (`_certified_rank`): only the
rows that entered the GF(2) basis, independent over Q too, are put in
reduced echelon form, one integer kernel vector is read off per free
column, and every row is checked against all of them in one comparison on
lane-packed integers (`_outside`).  Rows that fail are added and the round
repeated, so the rank grows each round; `cell_dim` never calls
`integer_matrix_rank`.

`_eliminate` is the one elimination routine.  It is fraction-free, in the
manner of Bareiss: a pivot step replaces a row by an integer combination
with the pivot row and divides out the gcd of its entries, so no rational
arithmetic happens inside the pivoting loop.  It makes one pass per
column: a single comprehension picks out the rows without a pivot that are
nonzero there, and only those rows (with `reduced`, also the earlier pivot
rows nonzero there) are touched; rows are never swapped, and the pivot
rows are put in pivot order at the end.  A pivot row is negated when its
pivot is negative; a pivot of 1, the common case on the +-1 rows of
`cell_dim`, subtracts a multiple of the pivot row over its nonzero columns
only, in place and with no gcd.  Rank (`integer_matrix_rank`), the
certificate of `cell_dim` and linear solving (`solve_linear_system`) all
run on it, the last two on the reduced form.

Every system here is held as integer rows over its coordinate order; each
equation's denominators are cleared once, where it enters, by
`rationals.integer_vector`, which also reads its values.  A
`RationalSubspace` ranks its rows, or their columns outside a block, and
`subspace_from_symbols` and `cell_dim` write +-1 rows directly, `cell_dim`
from the per-(n, r) symbol table and the valuation's integer view (see
`dressian.valuation`), where non-bases hold the INF sentinel.  A `Fraction`
is built only where a public function takes or returns rationals.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from . import valuation
from .matroid import (
    DESK_SCALE_COORDS,
    InputError,
    InvariantViolation,
    Matroid,
    _Frozen,
    _is_int,
    require_listable,
)
from .rationals import integer_vector


class CoverInputError(InputError):
    """A malformed subspace or cover, or blocks that are not an exact k-cover."""


def _coordinate(x):
    """A coordinate as a document writes it: an integer, a string, or a list
    of integers (held as a tuple).  Documents name a coordinate by its `str`."""
    if isinstance(x, list) and all(_is_int(e) for e in x):
        return tuple(x)
    if _is_int(x) or isinstance(x, str):
        return x
    raise CoverInputError("a coordinate must be an integer, a string or a list of integers")


def _collection(xs, what: str, kind=tuple):
    """kind(xs); CoverInputError unless xs is a collection that kind takes:
    anything for tuple, hashable coordinates only for set."""
    try:
        return kind(xs)
    except TypeError:
        of = " of hashable coordinates" if kind is set else ""
        raise CoverInputError(f"{what} must be a collection{of}") from None


def _namer(coords):
    """The function from a document's name for one of coords to the coordinate."""
    key_of = {str(c): c for c in coords}
    if len(key_of) != len(coords):
        raise CoverInputError("two coordinates have the same name")

    def named(x):
        key = str(_coordinate(x))
        if key not in key_of:
            raise CoverInputError(f"unknown coordinate {key[:40]!r}")
        return key_of[key]
    return named


def _eliminate(rows, reduced=False) -> list[int]:
    """Fraction-free elimination of integer rows in place, one pass per column.

    For each column one comprehension collects the rows that have no pivot
    yet and are nonzero there; the first of them becomes the pivot row,
    negated if its pivot is negative, and only the others are updated (with
    `reduced`, so are the earlier pivot rows that are nonzero in the column,
    so that every pivot is alone in its column).  When the pivot is 1, row i
    becomes row_i - q * pivot row, where q is the entry of row i in the
    pivot column; only the pivot row's nonzero columns are updated, in
    place, with no gcd.  Otherwise row i is replaced by
    (p * row_i - q * pivot row) / gcd, where p is the pivot.  Returns the
    pivot columns; rows[k] becomes the row of the k-th pivot, and every
    other row, all of them zero by then, is dropped.
    """
    pivots, done = [], []  # pivot columns, and the indices of their rows
    free = [i for i, row in enumerate(rows) if any(row)]  # rows with no pivot yet
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        hit = [i for i in free if rows[i][col]]
        if not hit:
            continue
        piv = hit.pop(0)
        free.remove(piv)
        prow = rows[piv]
        if prow[col] < 0:
            prow = rows[piv] = [-a for a in prow]
        p = prow[col]
        if reduced:
            hit += [i for i in done if rows[i][col]]
        if p == 1:
            # prow, like every row without a pivot, is zero left of col
            support = [(c, prow[c]) for c in range(col, ncols) if prow[c]]
            for i in hit:
                row = rows[i]
                q = row[col]
                for c, a in support:
                    row[c] -= q * a
        else:
            for i in hit:
                q = rows[i][col]
                row = [p * a - q * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        done.append(piv)
        pivots.append(col)
        if not free:
            break
    rows[:] = [rows[i] for i in done]
    return pivots


def _gf2_basis(masks) -> list[int]:
    """Indices of the masks that enter an XOR basis keyed by highest set bit
    (`bit_length` builds no int; x & -x builds two): as many as the rank
    over GF(2), and independent over GF(2).  Mask i enters exactly when it
    is outside the span of masks 0..i-1, so any keying admits the same."""
    basis, entered = {}, []
    for i, x in enumerate(masks):
        while x:
            top = x.bit_length()
            if top not in basis:
                basis[top] = x
                entered.append(i)
                break
            x ^= basis[top]
    return entered


def _hull_rank_bounds(quads, subsets) -> tuple[list[int], int]:
    """The rows of the quads (ac, bd, ad, bc) of column positions that are
    independent over GF(2), by position, and an upper bound on the rank
    over Q of the rows e(ac) + e(bd) - e(ad) - e(bc); subsets[p] is the
    r-subset mask at position p.  See `cell_dim`."""
    if not quads:
        return [], 0
    masks = [1 << ac | 1 << bd | 1 << ad | 1 << bc for ac, bd, ad, bc in quads]
    support = 0
    for m in masks:
        support |= m
    base = subsets[(support & -support).bit_length() - 1]
    moves = [subsets[p] ^ base for p in range(support.bit_length()) if support >> p & 1]
    return _gf2_basis(masks), support.bit_count() - 1 - len(_gf2_basis(moves))


def _certified_rank(quads, independent, ncols: int) -> int:
    """Rank over Q of the rows of the quads, grown from the rows at the
    positions `independent`, which are independent over Q; see `cell_dim`."""
    chosen = list(independent)
    while True:
        rows = []
        for i in chosen:
            row = [0] * ncols
            sac, sbd, sad, sbc = quads[i]
            row[sac] = row[sbd] = 1
            row[sad] = row[sbc] = -1
            rows.append(row)
        pivots = _eliminate(rows, reduced=True)
        if len(pivots) < len(independent):
            raise InvariantViolation("rows independent over GF(2) are dependent over Q")
        # one integer kernel vector per free column j: x_j = L, and
        # x at the pivot of row k is -row_k[j] * L / p_k, L the lcm of those p_k
        kernel = []
        for j in sorted(set(range(ncols)) - set(pivots)):
            hits = [(row[col], row[j], col) for row, col in zip(rows, pivots) if row[j]]
            scale = lcm(*(p for p, _q, _col in hits))
            kernel.append([(j, scale)] + [(col, -q * (scale // p)) for p, q, col in hits])
        failing = _outside(kernel, quads, ncols)
        if not failing:
            return len(pivots)
        chosen += failing


def _outside(kernel, quads, ncols: int) -> list[int]:
    """Positions of the quads whose rows fail to annihilate some vector of
    `kernel`, each a list of (column, integer entry): one comparison per
    row, on each column's entries packed into lanes (see `cell_dim`)."""
    top = max((abs(a) for x in kernel for _c, a in x), default=0)
    width = (4 * top).bit_length() + 2  # 4 * top < 2^(width - 2)
    packed = [0] * ncols
    for lane, x in enumerate(kernel):
        for c, a in x:
            packed[c] += a << width * lane
    return [i for i, (sac, sbd, sad, sbc) in enumerate(quads)
            if packed[sac] + packed[sbd] != packed[sad] + packed[sbc]]


def integer_matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    return len(_eliminate([list(row) for row in rows]))


class RationalSubspace:
    """Solution space of rational linear equations over an ordered coord set,
    held as one integer row per equation over the coord order."""

    __slots__ = ("coords", "rows", "_dim")

    def __init__(self, coords, equations: list):
        self.coords = _collection(coords, "coords")
        if len(_collection(self.coords, "coords", set)) != len(self.coords):
            raise CoverInputError("a coordinate is repeated")
        self.rows = [self._row(eq, "equation") for eq in _collection(equations, "equations")]
        self._dim = None

    def _row(self, entries, what) -> list[int]:
        """A map coord -> rational, absent coords read as 0, as an integer row."""
        if not isinstance(entries, Mapping):
            raise CoverInputError(f"{what} must map coordinates to rationals")
        if bad := set(entries) - set(self.coords):
            raise CoverInputError(f"{what} touches unknown coordinates {bad}")
        return integer_vector(entries.get(c, 0) for c in self.coords)[1]

    @classmethod
    def from_json_obj(cls, obj) -> "RationalSubspace":
        """Build from {"coords": [...], "equations": [{"coord": "p/q", ...}, ...]}."""
        if not (isinstance(obj, dict) and isinstance(obj.get("coords"), list)
                and isinstance(obj.get("equations"), list)):
            raise CoverInputError('a subspace document needs lists "coords" and "equations"')
        coords = tuple(map(_coordinate, obj["coords"]))
        named = _namer(coords)
        equations = []
        for eq in obj["equations"]:
            if not isinstance(eq, dict):
                raise CoverInputError("an equation must map coordinates to rationals")
            equations.append({named(k): str(v) for k, v in eq.items()})  # a float as its decimal
        return cls(coords, equations)

    def dim(self) -> int:
        if self._dim is None:
            self._dim = len(self.coords) - integer_matrix_rank(self.rows)
        return self._dim

    def zero_section_dim(self, A) -> int:
        """dim of {x in L : x_a = 0 for a in A}: the coordinates outside A
        minus the rank of the rows on their columns."""
        A = _collection(A, "projection coordinates", set)
        bad = A - set(self.coords)
        if bad:
            raise CoverInputError(f"projection coordinates {bad} not in ambient")
        keep = [j for j, c in enumerate(self.coords) if c not in A]
        return len(keep) - integer_matrix_rank([[row[j] for j in keep] for row in self.rows])

    def projection_dim(self, A) -> int:
        """dim(L_A) via dim(L) = dim(L_A) + dim(L^A)."""
        return self.dim() - self.zero_section_dim(A)

    def contains(self, vector) -> bool:
        """Membership of a coord->value map: absent coords read as 0, others are refused."""
        x = self._row(vector, "point")
        return not any(sum(a * b for a, b in zip(row, x)) for row in self.rows)


def solve_linear_system(equations, variables):
    """Solve a rational system given as [(coeff dict, rhs), ...].

    Returns a particular solution dict with free variables pinned to 0, or
    None if the system is inconsistent.  CoverInputError when an equation is
    not such a pair or names a variable not listed.
    """
    variables = _collection(variables, "variables", list)
    index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    rows = []
    for eq in _collection(equations, "equations"):
        try:
            coeffs, rhs = eq
        except (TypeError, ValueError):
            coeffs = None
        if not isinstance(coeffs, Mapping):
            raise CoverInputError("an equation must be a pair (coefficient map, right-hand side)")
        if bad := set(coeffs) - index.keys():
            raise CoverInputError(f"an equation touches unknown variables {bad}")
        ints = integer_vector([*coeffs.values(), rhs])[1]
        row = [0] * nvars + ints[-1:]  # the right-hand side is the last column
        for v, a in zip(coeffs, ints):
            row[index[v]] = a
        rows.append(row)
    pivots = _eliminate(rows, reduced=True)
    if pivots and pivots[-1] == nvars:  # a row 0 = rhs != 0
        return None
    sol = {v: Fraction(0) for v in variables}
    for row, col in zip(rows, pivots):
        sol[variables[col]] = Fraction(row[nvars], row[col])
    return sol


def subspace_from_symbols(M: Matroid, symbols) -> RationalSubspace:
    """L(Z): symbol equalities plus zero on non-bases, expressed over the
    basis coordinates (the zero-forced coordinates are eliminated up front).
    The four sets of a symbol are distinct, so each row is +-1 on its bases."""
    return RationalSubspace(M.sorted_bases(), [
        {m: coef for m, coef in zip(sym.cross_sets(), (1, 1, -1, -1)) if m in M.bases}
        for sym in symbols])


def cell_dim(nu: valuation.Valuation, ctype: valuation.CombinatorialType | None = None) -> int:
    """Dimension of the linear hull L([nu]) of the cell containing nu.

    `ctype` is the combinatorial type of nu, when the caller has it already.
    L([nu]) is cut out of the basis coordinates by x(Sac) + x(Sbd) =
    x(Sad) + x(Sbc) over the symbols of [nu]; non-basis columns stay zero,
    so the dimension is the number of bases minus rank_Q(A), A the matrix
    of those rows.  A location's three symbols are consecutive, (ab|cd),
    (ac|bd), (ad|bc); where all three are in [nu], the (ad|bc) row is the
    (ac|bd) row minus the (ab|cd) row, so it is checked but left out of A.
    Every row is checked to hold at nu: that certifies the Z0(M) rows,
    which `full_ids` adds untested, and refuses a `ctype` of another cell
    with InvariantViolation.

    rank_Q(A) is bounded from both sides before any elimination
    (`_hull_rank_bounds`):

    - below by rank_GF2(A mod 2), each row a mask of four column bits: a
      minor of A that is odd is a nonzero integer;
    - above by |Z| - 1 - rank_GF2{B ^ B0 : B in Z}, where Z is the support
      of A (the OR of the row masks) and B0 one subset in it.  Each row
      is zero off Z and orthogonal to the n lineality vectors
      (1[e in B])_B, since every element lies in as many of Sac, Sbd as of
      Sad, Sbc; so rank_Q(A) <= |Z| - dim span{1_B : B in Z}.  That
      span holds 1_B0, of coordinate sum r != 0, and the differences
      1_B - 1_B0, of sum 0, so its dimension is 1 + rank_Q{1_B - 1_B0}
      >= 1 + rank_GF2{B ^ B0}, the differences mod 2 being B ^ B0.

    Where the two bounds meet they give rank_Q(A) and nothing is
    eliminated.  Otherwise the rank is certified by a kernel
    (`_certified_rank`).  The XOR basis behind the lower bound picked `low`
    rows independent over GF(2), hence over Q; they are put in integer
    reduced echelon form (`_eliminate(reduced=True)`), and fewer than `low`
    pivots raise InvariantViolation.  Each free column j gives one integer
    kernel vector x_j, and the rows span the row space of the chosen ones
    exactly when every row annihilates every x_j, since that row space is
    the orthogonal complement of their kernel.  Then rank_Q(A) is the pivot
    count.  A row that fails lies outside that row space, so the failing
    rows are added and the round repeated; the rank grows every round.

    Every row is checked against all x_j in one comparison.  With W bits a
    lane and 4 max|x_j| < 2^(W - 2), column c packs into one integer
    P(c) = sum_j x_j(c) 2^(W j), and the row of (ac, bd, ad, bc) gives
    P(ac) + P(bd) - P(ad) - P(bc) = sum_j t_j 2^(W j), with t_j its value
    on x_j and |t_j| <= 4 max|x_j| < 2^(W - 1).  Such a sum is 0 only when
    every t_j is: if J is the highest lane with t_J != 0, the lanes below
    add up to at most (2^(W - 1) - 1) (2^(W J) - 1) / (2^W - 1) < 2^(W J)
    in absolute value, while |t_J 2^(W J)| >= 2^(W J).
    ScaleLimitError when C(n, r) exceeds DESK_SCALE_COORDS.
    """
    M = nu.matroid
    require_listable(M.n, M.r, DESK_SCALE_COORDS, "the cell dimension")
    if ctype is None:
        ctype = valuation.combinatorial_type(nu)
    table = valuation.symbol_table(M.n, M.r)
    cross, v = table.cross, nu.scaled
    ids = ctype.full_ids
    full = set(ids)
    quads = []
    for i in ids:
        sac, sbd, sad, sbc = quad = cross[i]
        if v[sac] + v[sbd] != v[sad] + v[sbc]:
            raise InvariantViolation("valuation must lie in its own cell hull")
        if i % 3 == 2 and i - 1 in full and i - 2 in full:
            continue
        quads.append(quad)
    independent, high = _hull_rank_bounds(quads, table.subsets)
    if len(independent) == high:
        return len(M.bases) - high
    return len(M.bases) - _certified_rank(quads, independent, len(v))


class ExactCover(_Frozen):
    """Multiset of blocks covering each ground element exactly k times."""

    __slots__ = ("ground", "blocks", "k")

    def __init__(self, ground, blocks, k: int):
        object.__setattr__(self, "ground", frozenset(ground))
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in blocks))
        object.__setattr__(self, "k", k)
        for b in self.blocks:
            if not b:
                raise CoverInputError("empty block")
            if not b <= self.ground:
                raise CoverInputError(f"block {set(b)} leaves the ground set")
        if not (_is_int(self.k) and self.k > 0):
            raise CoverInputError("k must be a positive integer")
        for x in self.ground:
            count = sum(1 for b in self.blocks if x in b)
            if count != self.k:
                raise CoverInputError(
                    f"element {x!r} covered {count} times, expected {self.k}"
                )

    @classmethod
    def from_json_obj(cls, obj, L: RationalSubspace) -> "ExactCover":
        """Build from {"ground": [...], "blocks": [[...], ...], "k": int} naming coords of L."""
        if not (isinstance(obj, dict) and isinstance(obj.get("ground"), list)
                and isinstance(obj.get("blocks"), list) and "k" in obj
                and all(isinstance(b, list) for b in obj["blocks"])):
            raise CoverInputError('a cover document needs lists "ground" and "blocks" and "k"')
        named = _namer(L.coords)
        return cls(frozenset(map(named, obj["ground"])),
                   tuple(frozenset(map(named, b)) for b in obj["blocks"]), obj["k"])


def exact_cover_check(L: RationalSubspace, cover: ExactCover):
    """Evaluate dim(L) <= (1/k) * sum over blocks of dim(L_A), exactly."""
    if cover.ground != frozenset(L.coords):
        raise CoverInputError("cover ground set differs from ambient coordinates")
    lhs = L.dim()
    rhs = Fraction(sum(L.projection_dim(A) for A in cover.blocks), cover.k)
    return lhs, rhs, Fraction(lhs) <= rhs
