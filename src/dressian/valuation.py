"""Valuations of matroids, combinatorial types, shifts, residues, contractions.

All values are exact rationals; the extension off the basis family to the
full r-subset lattice is by the INF sentinel and is never materialized.

A valuation holds its integer view: one positive denominator D and the
tuple of integers nu*D indexed by colex rank among all r-subsets, with the
INF sentinel on the non-bases.  D and the entries share no common factor,
so equal value maps have equal views.  `_integer_view` is the one reader of
value maps and documents, for `Valuation(matroid, values)`, the JSON loader
and both checkers, which `check` runs on one view; the other constructors
build the view in integers.  Views are scaled by `rationals.integer_vector`
and reduced by `rationals.lowest_terms`.  `Valuation._hold` checks, reduces
and stores every view; `values` is derived from it on first read, then kept.
Positive scaling changes neither validity, nor types, nor cell dimension,
so the three-term check, combinatorial types, equivalence and `cell_dim`
read only this view, through per-(n, r) index tables (`symbol_table`), and
do integer arithmetic only.  An INF entry is tested before any addition;
inside Z(M) every crossing set is a basis and no test is needed, and the
three-term check of a view with no INF (a uniform matroid) tests none.  The
brute-force checker reads the same integer view, but hands its finite
entries to `matroid._exchange_holds`, the walk that also checks (B) on
every `Matroid` build.  It checks each unordered pair of bases once, in
one order, which its docstring proves enough; it touches no location
table, so it stays an independent second check.  Outputs that
report values (JSON, spread, separating shifts) read the Fraction map
`values`; spike heights come back as Fractions over D.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .matroid import (
    DESK_SCALE_COORDS,
    InputError,
    InvariantViolation,
    Matroid,
    _colex_subsets,
    _exchange_holds,
    _Frozen,
    johnson_neighbors,
    mask_to_set,
    parse_subset_key,
    require_listable,
    set_to_mask,
    subset_key,
    subset_mask,
)
from .rationals import (INF, RationalInputError, format_rational, integer_vector, lowest_terms,
                        parse_rational)


class ValuationInputError(InputError):
    """Malformed valuation input (wrong domain, bad rational, ...)."""


class NotAValuationError(InputError):
    """A value map on a basis family violates the valuation axiom."""


# ---------------------------------------------------------------------------
# Symbols


class Symbol(namedtuple("Symbol", "s_mask a b c d")):
    """A location (S, ab|cd): an (r-2)-set S plus a pairing of four elements.

    Canonical form: a < b, c < d, a < c.  The symbol asserts the equality of
    the two crossing sums, nu(Sac) + nu(Sbd) = nu(Sad) + nu(Sbc).  Symbols
    are ordered, and hashed, as the tuple (s_mask, a, b, c, d).
    """

    __slots__ = ()

    @classmethod
    def make(cls, s_mask: int, pair1, pair2) -> "Symbol":
        (a, b), (c, d) = sorted(pair1), sorted(pair2)
        if a > c:
            a, b, c, d = c, d, a, b
        return cls(s_mask, a, b, c, d)

    def own_sets(self) -> tuple[int, int]:
        s = self.s_mask
        return s | 1 << self.a | 1 << self.b, s | 1 << self.c | 1 << self.d

    def cross_sets(self) -> tuple[int, int, int, int]:
        """(Sac, Sbd, Sad, Sbc)."""
        s = self.s_mask
        return (
            s | 1 << self.a | 1 << self.c,
            s | 1 << self.b | 1 << self.d,
            s | 1 << self.a | 1 << self.d,
            s | 1 << self.b | 1 << self.c,
        )

    def quad(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def as_key(self, s_key=subset_key) -> str:
        return f"({s_key(self.s_mask)}|{self.a}{self.b}.{self.c}{self.d})"


class SymbolTable(namedtuple("SymbolTable", "subsets position locations symbols cross")):
    """Index tables of the three-term condition on r-subsets of {0..n-1}.

    A position is the colex rank of an r-subset; it indexes the integer
    view `Valuation.scaled`.

    - subsets: every r-subset mask, in colex order
    - position: mask -> colex rank
    - locations: per location (S, abcd): (Sab, Scd, Sac, Sbd, Sad, Sbc)
    - symbols: Z(r, E), three symbols per location, in location order
    - cross: per symbol, (Sac, Sbd, Sad, Sbc)
    """

    __slots__ = ()


@lru_cache(maxsize=8)
def symbol_table(n: int, r: int) -> SymbolTable:
    """The (n, r) tables, built once per (n, r); ScaleLimitError when
    C(n, r) exceeds DESK_SCALE_SUBSETS."""
    require_listable(n, r)
    subsets = _colex_subsets(n, r)
    position = {m: i for i, m in enumerate(subsets)}
    locs, symbols, cross = [], [], []
    if r >= 2 and n - r + 2 >= 4:
        for s in combinations(range(n), r - 2):
            s_mask = set_to_mask(s)
            at = lambda x, y: position[s_mask | 1 << x | 1 << y]
            rest = [e for e in range(n) if not (s_mask >> e) & 1]
            for a, b, c, d in combinations(rest, 4):
                ab, cd, ac, bd, ad, bc = loc = (
                    at(a, b), at(c, d), at(a, c), at(b, d), at(a, d), at(b, c))
                locs.append(loc)
                # (ab|cd) equates ac+bd with ad+bc, (ac|bd) ab+cd with
                # ad+bc, and (ad|bc) ab+cd with ac+bd
                symbols += (Symbol(s_mask, a, b, c, d), Symbol(s_mask, a, c, b, d),
                            Symbol(s_mask, a, d, b, c))
                cross += ((ac, bd, ad, bc), (ab, cd, ad, bc), (ab, cd, ac, bd))
    return SymbolTable(subsets, position, tuple(locs), tuple(symbols), tuple(cross))


def all_symbols(n: int, r: int) -> list[Symbol]:
    """Z(r, E): every symbol on ground set {0..n-1}."""
    return list(symbol_table(n, r).symbols)


@lru_cache(maxsize=8)
def _z_rows(M: Matroid) -> tuple[tuple, tuple]:
    """The one split of Z(M), the symbols whose four crossing sets are
    bases: the Z1(M) rows (position, Sac, Sbd, Sad, Sbc) and the Z0(M)
    positions, ascending.  A symbol of Z0(M) has an own set Sab or Scd off
    the bases, so its third pairing sum is infinite and the three-term
    condition ties the two crossing sums: every valuation satisfies it."""
    table = symbol_table(M.n, M.r)
    basis = [m in M.bases for m in table.subsets]
    free, forced = [], []
    for i, (sym, quad) in enumerate(zip(table.symbols, table.cross)):
        if all(basis[j] for j in quad):
            sab, scd = sym.own_sets()
            if sab in M.bases and scd in M.bases:
                free.append((i, *quad))
            else:
                forced.append(i)
    return tuple(free), tuple(forced)


def symbol_sets(M: Matroid) -> tuple[frozenset, frozenset, frozenset]:
    """(Z(M), Z0(M), Z1(M)), as `_z_rows` splits them."""
    symbols = symbol_table(M.n, M.r).symbols
    free, forced = _z_rows(M)
    z0 = frozenset(symbols[i] for i in forced)
    z1 = frozenset(symbols[row[0]] for row in free)
    return z0 | z1, z0, z1


# ---------------------------------------------------------------------------
# Valuations


def parse_valuation_document(obj, matroid_loader=None) -> tuple[Matroid, int, tuple]:
    """A valuation document's matroid M and integer view (D, nu*D), by `_integer_view`.

    The document is {"matroid": matroid document or file reference,
    "values": {"i,j,...": "p/q"}}; anything else raises ValuationInputError.
    """
    if not isinstance(obj, dict) or "matroid" not in obj or "values" not in obj:
        raise ValuationInputError('a valuation document needs "matroid" and "values"')
    mat, values = obj["matroid"], obj["values"]
    if not isinstance(values, dict):
        raise ValuationInputError('"values" must map subsets "i,j,..." to rationals')
    if isinstance(mat, str):
        if matroid_loader is None:
            raise ValuationInputError("matroid file reference without a loader")
        M = matroid_loader(mat)
    else:
        M = Matroid.from_json_obj(mat)
    pairs = ((parse_subset_key(key, M.n, ValuationInputError), str(text))
             for key, text in values.items())  # str: a JSON float reads as its decimal
    return (M, *_integer_view(M, pairs))


def _integer_view(M: Matroid, pairs) -> tuple[int, tuple]:
    """The one reader of value maps and documents, from (key, value) pairs:
    (D, nu*D in colex order, INF off the bases), D > 0 the least common
    denominator.  The first bad key (read by `subset_mask`), repeat, non-basis
    or bad value (by `parse_rational`, whose reason it gives), then any
    missing basis, raises ValuationInputError."""
    n, bases = M.n, M.bases
    vals = {}
    for key, val in pairs:
        m = subset_mask(key, n, ValuationInputError)
        if m in vals:
            raise ValuationInputError(f"two values for subset {subset_key(m)}")
        if m not in bases:
            raise ValuationInputError(f"value supplied for non-basis {subset_key(m)}")
        try:
            vals[m] = parse_rational(val)
        except RationalInputError as exc:
            raise ValuationInputError(
                f"bad value {val!r:.42} for subset {subset_key(m)}: {exc}") from None
    if len(vals) < len(bases):
        raise ValuationInputError(f"missing values for {len(bases) - len(vals)} bases")
    den, ints = integer_vector(vals.values())
    at = dict(zip(vals, ints))
    require_listable(n, M.r)
    return den, tuple(at.get(m, INF) for m in _colex_subsets(n, M.r))


def _three_term_holds(M: Matroid, v) -> bool:
    """At every location the minimum of the three pairing sums of the
    integer view v of a valuation on M is infinite or attained at least
    twice.  INF's own operators absorb sums and dominate every integer."""
    for ab, cd, ac, bd, ad, bc in symbol_table(M.n, M.r).locations:
        p, q, s = v[ab] + v[cd], v[ac] + v[bd], v[ad] + v[bc]
        # attained twice: p = q <= s, or p != q and s ties the smaller
        if p == q:
            if s < p:
                return False
        elif s != (p if p < q else q):
            return False
    return True


def check_valuation(M: Matroid, values) -> bool:
    """Three-term test: at every location the minimum of the three pairing
    sums of the extension is infinite or attained at least twice."""
    return _three_term_holds(M, _integer_view(M, values.items())[1])


def check_valuation_bruteforce(M: Matroid, values) -> bool:
    """`_direct_holds` on the integer view of the value map `values`."""
    return _direct_holds(M, _integer_view(M, values.items())[1])


def _direct_holds(M: Matroid, v) -> bool:
    """Direct quantifier evaluation of the exchange inequality (V) over all
    ordered pairs of bases, with infinity arithmetic, on the integer view v:
    `_exchange_holds` on its finite entries, a non-basis being infinite, so
    a pair with an infinite side holds vacuously.  The walk checks each
    unordered pair in one order, which decides (V) for both (see its
    proof).  It shares no location table with `_three_term_holds`, so the
    two checkers stay independent.  The pairs cost up to C(n, r)^2, so
    C(n, r) is limited to DESK_SCALE_COORDS."""
    require_listable(M.n, M.r, DESK_SCALE_COORDS, "the direct checker")
    return _exchange_holds({m: x for m, x in zip(_colex_subsets(M.n, M.r), v) if x is not INF})


class Valuation(_Frozen):
    """An exact-rational valuation of a matroid; immutable, checked on build.

    `scaled` is the integer view: values * `denominator` by colex rank, INF
    off the bases.  `values` is the Fraction map, derived from the view on
    first read and kept in `_values`.
    """

    __slots__ = ("matroid", "denominator", "scaled", "_values")

    def __init__(self, matroid: Matroid, values: dict):
        self._hold(matroid, *_integer_view(matroid, values.items()))

    @classmethod
    def _from_scaled(cls, matroid: Matroid, denominator: int, scaled: tuple) -> "Valuation":
        """The valuation whose integer view is (denominator, scaled); see `_hold`."""
        nu = cls.__new__(cls)
        nu._hold(matroid, denominator, scaled)
        return nu

    def _hold(self, matroid: Matroid, denominator: int, scaled: tuple) -> None:
        """The one store of a valuation.  A malformed view is a library fault
        (InvariantViolation); a well-formed one is divided by the gcd of the
        denominator and the entries, then three-term checked."""
        subsets = symbol_table(matroid.n, matroid.r).subsets
        if type(denominator) is not int or denominator <= 0:
            raise InvariantViolation(f"integer view with denominator {denominator!r}")
        if len(scaled) != len(subsets):
            raise InvariantViolation(
                f"integer view has {len(scaled)} entries for {len(subsets)} r-subsets")
        bases = matroid.bases
        for m, x in zip(subsets, scaled):
            if type(x) is not int and x is not INF:
                raise InvariantViolation(f"integer view holds {x!r} at {subset_key(m)}")
            if (x is INF) is (m in bases):  # finite exactly on the bases
                where = "INF on basis" if x is INF else "finite on non-basis"
                raise InvariantViolation(f"integer view is {where} {subset_key(m)}")
        if denominator != 1:
            denominator, scaled = lowest_terms(denominator, scaled)
        object.__setattr__(self, "matroid", matroid)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "scaled", tuple(scaled))
        object.__setattr__(self, "_values", None)
        if not _three_term_holds(matroid, scaled):
            raise NotAValuationError("value map violates the three-term condition")

    @property
    def values(self) -> dict[int, Fraction]:
        """basis mask -> Fraction value, in colex order."""
        vals = self._values
        if vals is None:
            den, subsets = self.denominator, symbol_table(self.matroid.n, self.matroid.r).subsets
            vals = {m: Fraction(x, den) for m, x in zip(subsets, self.scaled) if x is not INF}
            object.__setattr__(self, "_values", vals)
        return vals

    def __repr__(self):
        return f"Valuation(matroid={self.matroid!r}, values={self.values!r})"

    def __eq__(self, other):
        # one view per value map, so equal views are equal values
        return (
            isinstance(other, Valuation)
            and self.matroid == other.matroid
            and self.denominator == other.denominator
            and self.scaled == other.scaled
        )

    def __hash__(self):
        return hash((self.matroid, self.denominator, self.scaled))

    def value(self, mask):
        """The extension: the stored rational on bases, INF on the other subsets of E."""
        return self.values.get(subset_mask(mask, self.matroid.n, ValuationInputError), INF)

    def spread_of_values(self) -> Fraction:
        vals = list(self.values.values())
        return max(vals) - min(vals)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "matroid": self.matroid.to_json_obj(),
            "values": {subset_key(m): format_rational(v) for m, v in self.values.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict, matroid_loader=None) -> "Valuation":
        return cls._from_scaled(*parse_valuation_document(obj, matroid_loader))

    @classmethod
    def from_json(cls, text: str, matroid_loader=None) -> "Valuation":
        return cls.from_json_obj(json.loads(text), matroid_loader)


class CombinatorialType(_Frozen):
    """The combinatorial type of a valuation: the symbols of Z1(M) it satisfies.

    Symbols are held by their positions in `symbol_table(n, r).symbols`,
    in ascending order; `free_ids` is [nu] ∩ Z1(M).  That is the whole
    type: every valuation of M satisfies every symbol of Z0(M) (see
    `_z_rows`), so [nu] = [nu-bar] ∩ Z(M) is Z0(M) ∪ `free_ids`, which
    `full_ids` derives.
    """

    __slots__ = ("matroid", "free_ids")

    def __init__(self, matroid: Matroid, free_ids: tuple):
        object.__setattr__(self, "matroid", matroid)
        object.__setattr__(self, "free_ids", free_ids)

    @property
    def full_ids(self) -> tuple:
        """[nu] in ascending positions: Z0(M) merged into `free_ids`."""
        forced = _z_rows(self.matroid)[1]
        return tuple(sorted(forced + self.free_ids)) if forced else self.free_ids

    def _symbols(self, ids) -> frozenset:
        symbols = symbol_table(self.matroid.n, self.matroid.r).symbols
        return frozenset(symbols[i] for i in ids)

    @property
    def full_type(self) -> frozenset:
        return self._symbols(self.full_ids)

    @property
    def symbols_equal(self) -> frozenset:
        return self._symbols(self.free_ids)

    @property
    def size(self) -> int:
        return len(self.full_ids)

    @property
    def z1_size(self) -> int:
        return len(self.free_ids)


def combinatorial_type(nu: Valuation) -> CombinatorialType:
    """The symbols of Z1(M) that nu satisfies; Z0(M) needs no test."""
    v = nu.scaled
    free = [i for i, sac, sbd, sad, sbc in _z_rows(nu.matroid)[0]
            if v[sac] + v[sbd] == v[sad] + v[sbc]]
    return CombinatorialType(nu.matroid, tuple(free))


def equivalent(nu: Valuation, nu2: Valuation) -> bool:
    """Combinatorial equivalence: equal types over Z1(M)."""
    if nu.matroid != nu2.matroid:
        raise ValuationInputError("valuations have different ambient matroids")
    return combinatorial_type(nu) == combinatorial_type(nu2)


# ---------------------------------------------------------------------------
# Operations


def shift(nu: Valuation, w) -> Valuation:
    """nu^w(B) = nu(B) + sum_{e in B} w(e), summed on the integer view over
    the product of nu's denominator and w's, which `_hold` then reduces."""
    dw, wd = integer_vector(w)
    if len(wd) != nu.matroid.n:
        raise ValuationInputError("shift vector has wrong length")
    den = nu.denominator
    subsets = symbol_table(nu.matroid.n, nu.matroid.r).subsets
    scaled = tuple(x if x is INF else x * dw + den * sum(wd[e] for e in mask_to_set(m))
                   for m, x in zip(subsets, nu.scaled))
    return Valuation._from_scaled(nu.matroid, den * dw, scaled)


def residue_matroid(nu: Valuation, w=None) -> Matroid:
    """M0(nu^w): the matroid of minimizers of the shifted valuation."""
    shifted = nu if w is None else shift(nu, w)
    v = shifted.scaled
    lo = min(x for x in v if x is not INF)
    subsets = symbol_table(nu.matroid.n, nu.matroid.r).subsets
    return Matroid(nu.matroid.n, nu.matroid.r, frozenset(m for m, x in zip(subsets, v) if x == lo))


def contract_valuation(nu: Valuation, S) -> tuple[Valuation, list[int]]:
    """nu/S on M/S, defined by (nu/S)(B) = nu(B ∪ S); S must be independent.

    Returns (valuation, element_map) with the minor's relabeling map.  The
    minor's view re-indexes nu's: B is a basis of M/S exactly when B ∪ S is
    one of M, so INF lands on the minor's non-bases.
    """
    sm = subset_mask(S, nu.matroid.n, ValuationInputError)
    minor, keep = nu.matroid.minor(contract_set=sm)
    position, v = symbol_table(nu.matroid.n, nu.matroid.r).position, nu.scaled
    scaled = tuple(v[position[set_to_mask(keep[e] for e in mask_to_set(b)) | sm]]
                   for b in symbol_table(minor.n, minor.r).subsets)
    return Valuation._from_scaled(minor, nu.denominator, scaled), keep


def valuation_from_matroid(N: Matroid) -> Valuation:
    """nu_N(X) = r - rank_N(X) on the uniform ambient U(r, n), as integer
    levels over denominator 1.  The rank is r on the bases and r - 1 on a
    non-basis one exchange away from a basis (every non-basis of a sparse
    paving N); `rank_of` is asked only about the other non-bases."""
    ambient = Matroid.uniform(N.r, N.n)
    n, r, bases = N.n, N.r, N.bases

    def level(m):
        if m in bases:
            return 0
        if any(y in bases for y in johnson_neighbors(n, m)):
            return 1
        return r - N.rank_of(m)

    return Valuation._from_scaled(ambient, 1, tuple(map(level, _colex_subsets(n, r))))


def separating_shift(nu: Valuation, sym: Symbol) -> list[Fraction]:
    """Witness w for a free symbol outside [nu]: in M0(nu^w), the crossing
    pair with the smaller sum is present and the other crossing pair is not.

    Construction: equalize the six window sets S+2-of-{a,b,c,d} pairwise
    within each pairing, then push everything outside the window up with a
    large constant W.  A symbol outside Z1(M), or one in [nu], raises
    ValuationInputError.
    """
    if sym not in symbol_sets(nu.matroid)[2]:
        raise ValuationInputError("separating shift needs a symbol in Z1(M)")
    sac, sbd, sad, sbc = sym.cross_sets()
    sab, scd = sym.own_sets()
    v = nu.values
    if v[sac] + v[sbd] == v[sad] + v[sbc]:
        raise ValuationInputError("symbol is in [nu]; no separating shift exists")
    d1 = v[sbd] - v[sac]
    d2 = v[sbc] - v[sad]
    d3 = v[scd] - v[sab]
    wc = (d1 - d2) / 2
    wb = (d3 - d2) / 2
    wa = d1 + wb - wc
    wd = Fraction(0)
    w_inf = max(abs(wa), abs(wb), abs(wc))
    W = 1 + nu.spread_of_values() + 6 * w_inf
    w = [Fraction(0)] * nu.matroid.n
    quad = set(sym.quad())
    for e in range(nu.matroid.n):
        if (sym.s_mask >> e) & 1:
            w[e] = -W
        elif e not in quad:
            w[e] = W
    w[sym.a], w[sym.b], w[sym.c], w[sym.d] = wa, wb, wc, wd
    return w


def smooth_decompose(nu: Valuation):
    """Greedy spike peeling on a uniform ambient matroid.

    Repeatedly subtracts the maximal positive spike lambda*1_B (bases in
    colex order) while the remainder stays a valuation; returns the smooth
    remainder and the peel list [(basis mask, lambda)].  The peeling runs on
    the integer view, whose denominator the remainder keeps.
    """
    M = nu.matroid
    if not M.is_uniform():
        raise ValuationInputError("spike peeling is defined on uniform matroids only")
    table = symbol_table(M.n, M.r)
    v = list(nu.scaled)
    peels = []
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(table.subsets):
            lam = _max_spike_height(M, table.position, v, b)
            if lam > 0:
                v[i] -= lam
                peels.append((b, Fraction(lam, nu.denominator)))
                changed = True
    return Valuation._from_scaled(M, nu.denominator, tuple(v)), peels


def _max_spike_height(M: Matroid, position: dict, v: list, b: int) -> int:
    """Largest lambda with v - lambda*1_b still a valuation (uniform M), for
    the integer view v indexed by colex position."""
    rest = [e for e in range(M.n) if not (b >> e) & 1]
    at = lambda m: v[position[m]]
    vb = at(b)
    best = None
    for x, y in combinations(mask_to_set(b), 2):
        s_mask = b ^ (1 << x) ^ (1 << y)
        for c, d in combinations(rest, 2):
            p0 = vb + at(s_mask | 1 << c | 1 << d)
            p1 = at(s_mask | 1 << x | 1 << c) + at(s_mask | 1 << y | 1 << d)
            p2 = at(s_mask | 1 << x | 1 << d) + at(s_mask | 1 << y | 1 << c)
            slack = p0 - p1 if p1 == p2 else 0
            if best is None or slack < best:
                best = slack
            if best == 0:
                return 0
    return best if best is not None else 0
