"""Matroids as basis families on ground set {0..n-1}.

Bases are stored as n-bit masks with exactly r bits set.  The canonical
ordering of bases everywhere (serialization, iteration) is colexicographic,
which for bitmask encodings is plain integer order.

The package's records are plain classes with `__slots__` and hand-written
`__init__`s; the immutable ones derive from `_Frozen` here.  Nothing in the
package generates code at import time, so a fresh process loads neither
`inspect` nor `typing` (see README, Start-up).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import comb

# Largest C(n, r) whose r-subsets a symbol table or U(r, n) may list: rank 2
# reaches 32 elements and rank 3 reaches 15, and the largest symbol table,
# (32, 2), has 35960 locations.
DESK_SCALE_SUBSETS = 500
# Largest C(n, r) for `check` (its direct checker), `dim` (cell_dim),
# `lower-bound` and the subdivision walk; `type` and `equiv` are bound by
# DESK_SCALE_SUBSETS only.
DESK_SCALE_COORDS = 70
DESK_SCALE_CENSUS = 20  # largest C(n, r) for stable-set enumeration
# Largest n for the subdivision walk, which locate_cell runs too: it keeps
# 2^n (r + 1) basis masks and its facet loop visits 2^n subsets per cell.
DESK_SCALE_WALK_N = 10
# most parallel classes whose rank-2 cells enumerate_rank2_cells lists (660032
# cells, about 475 MB, at 9); rank2_cell_dims counts them in closed form, unlimited
DESK_SCALE_RANK2_CLASSES = 9
DESK_SCALE_BOUNDS_N = 1000  # largest n for bounds: 2^n n^n then has 3302 digits, str() allows 4300


class InputError(ValueError):
    """Bad input from outside the program; the CLI exits 2 on it."""


class InvariantViolation(RuntimeError):
    """A property the library guarantees failed to hold: the CLI exits 1."""


class MatroidInputError(InputError):
    """Malformed input (wrong subset size, out-of-range element, ...)."""


class NotAMatroidError(InputError):
    """A candidate basis family violates the exchange axiom."""


class ScaleLimitError(InputError):
    """Requested computation exceeds the documented desk-scale limits."""


class _Frozen:
    """Base of the immutable records.  `__init__` sets the slots through
    `object.__setattr__`, and any later assignment raises AttributeError.
    Two records of one class are equal, and hash alike, when their slots,
    taken in order, are; the repr names each slot."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle restore the slots without going through __setattr__
    def __getstate__(self):
        return self._fields()

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def subsets_up_to(n: int, r: int, cap: int) -> int | None:
    """C(n, r) for 0 <= r <= n if it is at most cap, else None.

    The product C(n, i + 1) = C(n, i) (n - i) / (i + 1) stops as soon as it
    passes cap, so a C(n, r) with thousands of digits costs neither the
    seconds `math.comb` takes nor a `str` past Python's digit limit.
    """
    count = 1
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            return None
    return count if count <= cap else None


def require_listable(n: int, r: int, cap: int = DESK_SCALE_SUBSETS,
                     what: str = "the r-subsets listed") -> None:
    """The one C(n, r) guard, called once by each function whose cost grows
    with C(n, r): ScaleLimitError when 0 <= r <= n and C(n, r) exceeds
    DESK_SCALE_SUBSETS or `cap`, the limit on `what`."""
    count = subsets_up_to(n, r, DESK_SCALE_SUBSETS) if 0 <= r <= n else 0
    if count is None:
        raise ScaleLimitError(
            f"C({n}, {r}) exceeds {DESK_SCALE_SUBSETS}, the limit on the r-subsets listed")
    if count > cap:
        raise ScaleLimitError(f"C({n},{r}) = {count} exceeds {cap}, the limit on {what}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _shown(x) -> str:
    try:
        return repr(x)
    except ValueError:  # x holds an int past str()'s digit limit
        return f"<{type(x).__name__} too long to print>"


def subset_mask(X, n: int, error=MatroidInputError, what: str = "subset") -> int:
    """The one reader of a subset of E = {0..n-1} from outside: an int mask
    0 <= X < 2^n, or a collection of distinct int elements of 0..n-1, each
    checked before its bit is set.  Anything else raises `error`, which
    names the bad element, or the mask's bit length, never the mask."""
    if _is_int(X):
        if 0 <= X and X.bit_length() <= n:
            return X
        raise error(f"{what} mask out of range for n={n}: "
                    + ("negative" if X < 0 else f"bit length {X.bit_length()}"))
    m = 0
    try:
        for e in X:
            if not (_is_int(e) and 0 <= e < n):
                raise error(f"{what} {_shown(X)}: element {_shown(e)} is not in 0..{n - 1}")
            if m >> e & 1:
                raise error(f"{what} {_shown(X)}: repeated element {e}")
            m |= 1 << e
    except TypeError:
        raise error(f"{what} {_shown(X)} is neither a mask nor a collection of elements") from None
    return m


def parse_subset_key(key: str, n: int, error=MatroidInputError, what: str = "subset") -> int:
    """The mask of "i,j,...", the text form of a subset in documents and on
    the command line ("" is the empty set), read through `subset_mask`."""
    try:
        elems = tuple(int(tok) for tok in key.split(",")) if key else ()
    except ValueError:
        raise error(f"{what} {key[:40]!r} is not a list of elements i,j,...") from None
    return subset_mask(elems, n, error, what)


def set_to_mask(elems) -> int:
    """The mask of trusted elements; `subset_mask` reads outside input."""
    m = 0
    for e in elems:
        if m >> e & 1:  # a negative e raises ValueError here
            raise ValueError(f"repeated element {e}")
        m |= 1 << e
    return m


def mask_to_set(mask: int) -> tuple[int, ...]:
    """The elements of mask, ascending, taken lowest bit first (``m & -m``)."""
    if mask < 0:
        raise ValueError(f"negative subset mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_key(mask: int) -> str:
    """A subset as documents write it: its elements, ascending, joined by ","."""
    return ",".join(str(e) for e in mask_to_set(mask))


@lru_cache(maxsize=8)
def _colex_subsets(n: int, r: int) -> tuple[int, ...]:
    """All r-subsets of {0..n-1} as masks, in colex (= numeric) order: one
    tuple per (n, r), built on first use and shared by every reader.  Every
    lister of r-subsets comes here, so a negative n or r is refused here."""
    if r < 0 or n < 0:
        raise MatroidInputError(f"rank r={r} is negative" if r < 0 else f"n={n} is negative")
    return tuple(sorted(set_to_mask(c) for c in combinations(range(n), r)))


def r_subset_masks(n: int, r: int) -> list[int]:
    """All r-subsets of {0..n-1} as masks, in colex (= numeric) order."""
    return list(_colex_subsets(n, r))


def _nonbases_stable(n: int, r: int, bases: frozenset[int]) -> bool:
    """No two r-subsets outside `bases` are one exchange apart, pair by pair:
    the non-bases are a stable set of J(r, n)."""
    nonbases = [m for m in _colex_subsets(n, r) if m not in bases]
    return all((x ^ y).bit_count() != 2 for x, y in combinations(nonbases, 2))


def _check_exchange(n: int, r: int, bases: frozenset[int]) -> bool:
    """Exchange axiom (B): a sparse paving certificate, else all pairs.

    A family whose non-bases are stable in J(r, n) is the basis family of a
    sparse paving matroid (Piff-Welsh), so the check returns True on that
    certificate.  Counting the edges between non-bases and bases shows that
    a stable complement has at most |B| / max(r, n - r) members (a basis is
    adjacent to at most min(r, n - r) pairwise non-adjacent r-sets), so the
    r-subsets are listed only when (C(n, r) - |B|) max(r, n - r) <= |B|,
    which needs C(n, r) <= 2|B|.  Any other family goes to the exchange
    walk `_exchange_holds` at the zero valuation, where (V) is (B).
    """
    total = subsets_up_to(n, r, 2 * len(bases))
    if (total is not None and (total - len(bases)) * max(r, n - r) <= len(bases)
            and _nonbases_stable(n, r, bases)):
        return True
    return _exchange_holds(dict.fromkeys(bases, 0))


def _exchange_holds(v: dict[int, int]) -> bool:
    """The valuated exchange axiom (V) on v = {basis mask: int}, a missing
    mask being infinite: for all ordered pairs B1, B2 of keys and every e in
    B1 - B2 some f in B2 - B1 has v(B1) + v(B2) >= v(B1 - e + f) + v(B2 - f + e).
    On v = 0 this is (B).  Each unordered pair is checked once, in the order
    the walk meets it; a pair at distance 1 holds with equality (B1 - e + f
    = B2) and is skipped.  The elements e and f are taken lowest bit first
    (``x & -x``).  One order suffices, on any family K of r-sets:
    1. At distance 2, B1 = S+ab and B2 = S+cd, both orders ask the same
       thing: {Sac, Sbd} or {Sad, Sbc} lies in K with the inequality.  Over
       all such pairs this is the three-term condition.
    2. At v = 0, K satisfies (B): for x0 in X - Y some y in Y - X puts
       X - x0 + y in K.  Distances 1 and 2 (step 1) are clear; at k >= 3, by
       induction, let the walk meet the pair as (Y, X) and take any y1 in
       Y - X and its witness x1.  If x1 = x0, y = y1.  Else X1 = X - x1 + y1
       is in K at distance k - 1 from Y, so some y' in Y - X1 puts
       Z = X1 - x0 + y' in K, and step 1 on (X, Z) gives y = y1 or y'.
    3. For any v the witnesses lie in K, so K is a matroid's basis family
       as in step 2, and by step 1 v is three-term on it, which implies (V)
       (Dress-Wenzel, Valuated matroids, 1992; Murota, Discrete Convex
       Analysis, 2003).
    """
    get = v.get
    items = list(v.items())
    for i, (b1, v1) in enumerate(items):
        for b2, v2 in items[i + 1:]:
            only1 = b1 & ~b2
            if not only1 & only1 - 1:
                continue
            lhs = v1 + v2
            only2 = b2 & ~b1
            d = only1
            while d:
                ebit = d & -d
                d ^= ebit
                fd = only2
                while fd:
                    fbit = fd & -fd
                    fd ^= fbit
                    x = get(b1 ^ ebit | fbit)
                    if x is None:
                        continue
                    y = get(b2 ^ fbit | ebit)
                    if y is not None and lhs >= x + y:
                        break
                else:
                    return False
    return True


def is_matroid(n: int, r: int, candidate_bases) -> bool:
    """True iff the candidate family satisfies (B).

    Raises MatroidInputError on malformed input; a well-formed family that
    merely fails the axiom returns False.
    """
    bases = _normalize_bases(n, r, candidate_bases)
    return _check_exchange(n, r, bases)


def _normalize_bases(n: int, r: int, candidate_bases) -> frozenset[int]:
    if n < 0 or not 0 <= r <= n:
        raise MatroidInputError(f"bad parameters n={n}, r={r}")
    out = set()
    for b in candidate_bases:
        # the census builds masks by the thousand, so an in-range mask is taken here
        m = b if type(b) is int and 0 <= b and not b >> n else subset_mask(b, n, what="basis")
        if m.bit_count() != r:
            raise MatroidInputError(f"basis {b!r} does not have {r} elements")
        out.add(m)
    if not out:
        raise MatroidInputError("empty basis family")
    return frozenset(out)


class Matroid(_Frozen):
    """A matroid (E, B) with E = {0..n-1}; immutable after construction."""

    __slots__ = ("n", "r", "bases")

    def __init__(self, n: int, r: int, bases: frozenset[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "bases", bases)
        self.__post_init__()

    def __post_init__(self):
        """Normalize `bases` and check the exchange axiom."""
        bases = _normalize_bases(self.n, self.r, self.bases)
        object.__setattr__(self, "bases", bases)
        if not _check_exchange(self.n, self.r, bases):
            raise NotAMatroidError("basis family violates the exchange axiom")

    # -- queries ----------------------------------------------------------

    def sorted_bases(self) -> list[int]:
        return sorted(self.bases)

    def nonbases(self) -> list[int]:
        return [m for m in _colex_subsets(self.n, self.r) if m not in self.bases]

    def rank_of(self, X) -> int:
        """Rank of a subset: max |X ∩ B| over bases B."""
        xm = subset_mask(X, self.n)
        return max((xm & b).bit_count() for b in self.bases)

    def is_independent(self, X) -> bool:
        xm = subset_mask(X, self.n)
        return self.rank_of(xm) == xm.bit_count()

    def is_uniform(self) -> bool:
        return len(self.bases) == comb(self.n, self.r)

    # -- constructions ----------------------------------------------------

    def dual(self) -> "Matroid":
        full = (1 << self.n) - 1
        return Matroid(self.n, self.n - self.r, frozenset(full ^ b for b in self.bases))

    def minor(self, contract_set=(), delete_set=()) -> tuple["Matroid", list[int]]:
        """M / contract_set \\ delete_set, relabeled to a dense ground set.

        Returns (minor, element_map) where element_map[i] is the original
        name of new element i.
        """
        cm = subset_mask(contract_set, self.n, what="contract set")
        dm = subset_mask(delete_set, self.n, what="delete set")
        if cm & dm:
            raise MatroidInputError("contract and delete sets intersect")
        if not self.is_independent(cm):
            raise MatroidInputError("contract set is dependent")
        # contraction: bases containing cm, minus cm
        contracted = [b ^ cm for b in self.bases if b & cm == cm]
        # deletion: bases of M\D are the maximal-size sets B\D
        best = max((b & ~dm).bit_count() for b in contracted)
        new_bases = {b & ~dm for b in contracted if (b & ~dm).bit_count() == best}
        keep = [e for e in range(self.n) if not ((cm | dm) >> e) & 1]
        old_to_new = {old: new for new, old in enumerate(keep)}
        relabeled = {set_to_mask(old_to_new[e] for e in mask_to_set(b)) for b in new_bases}
        if not relabeled:
            raise MatroidInputError("minor has empty basis family")
        return Matroid(len(keep), best, frozenset(relabeled)), keep

    # -- sparse paving / Johnson graph ------------------------------------

    def is_sparse_paving(self) -> bool:
        """Non-bases form a stable set of the Johnson graph J(r, n)."""
        return _nonbases_stable(self.n, self.r, self.bases)

    def johnson_components(self) -> "JohnsonComponentReport":
        """Connected components of the subgraph of J(r,n) induced on non-bases."""
        nb = self.nonbases()
        nbset = set(nb)
        seen = set()
        comps = []
        for start in nb:
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in johnson_neighbors(self.n, v):
                    if u in nbset and u not in seen:
                        seen.add(u)
                        stack.append(u)
            comps.append(sorted(comp))
        comps.sort()
        return JohnsonComponentReport(
            nonbasis_count=len(nb), component_count=len(comps), components=comps
        )

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "bases": [list(mask_to_set(b)) for b in self.sorted_bases()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Matroid":
        """Build from {"n": int, "r": int, "bases": [[int, ...], ...]}."""
        try:
            n, r, bases = obj["n"], obj["r"], obj["bases"]
        except (KeyError, TypeError) as exc:
            raise MatroidInputError(f"bad matroid document: {exc}")
        if not (_is_int(n) and _is_int(r)):
            raise MatroidInputError('"n" and "r" must be integers')
        if not (isinstance(bases, list) and all(isinstance(b, list) for b in bases)):
            raise MatroidInputError('"bases" must be a list of lists of elements')
        return cls(n, r, bases)  # `_normalize_bases` reads each list with `subset_mask`

    @classmethod
    def from_json(cls, text: str) -> "Matroid":
        return cls.from_json_obj(json.loads(text))

    @staticmethod
    @lru_cache(maxsize=8)
    def uniform(r: int, n: int) -> "Matroid":
        """U(r, n), built (and its exchange axiom checked) once per (r, n);
        ScaleLimitError when C(n, r) exceeds DESK_SCALE_SUBSETS."""
        require_listable(n, r)
        return Matroid(n, r, frozenset(_colex_subsets(n, r)))

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r}, |bases|={len(self.bases)})"


class JohnsonComponentReport:
    __slots__ = ("nonbasis_count", "component_count", "components")

    def __init__(self, nonbasis_count: int, component_count: int, components: list):
        self.nonbasis_count = nonbasis_count
        self.component_count = component_count
        self.components = components


def johnson_neighbors(n: int, mask: int):
    """Vertices of J(r, n) at distance 1 from mask (|X \\ Y| = 1): e of mask
    and f outside it, each taken lowest bit first (``x & -x``)."""
    if mask < 0:
        raise ValueError(f"negative subset mask {mask}")
    outside = ((1 << n) - 1) & ~mask
    d = mask
    while d:
        ebit = d & -d
        d ^= ebit
        rest = mask ^ ebit
        out = outside
        while out:
            fbit = out & -out
            out ^= fbit
            yield rest | fbit


def modular_stable_matroid(n: int, r: int, k: int) -> Matroid:
    """Sparse paving matroid whose non-bases are the r-sets with sum ≡ k (mod n).

    Johnson-adjacent r-sets have different sums mod n, so the chosen class is
    a stable set and the complement family is a matroid.
    """
    if not 0 < r < n:
        raise MatroidInputError(f"need 0 < r < n, got r={r}, n={n}")
    if not 0 <= k < n:
        raise MatroidInputError(f"need 0 <= k < n, got k={k}")
    bases = [
        m for m in _colex_subsets(n, r) if sum(mask_to_set(m)) % n != k
    ]
    if not bases:
        raise MatroidInputError(f"modular class (n={n}, r={r}, k={k}) leaves no bases")
    return Matroid(n, r, frozenset(bases))
