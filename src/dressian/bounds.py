"""Closed-form bound evaluation, lower-bound certificates, and censuses.

All combinatorial quantities are exact; the two genuinely transcendental
bounds (natural-log expressions) are evaluated to 20 significant digits
with the standard library's `decimal` and reported as decimal strings.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb

from . import linear, subdivision, valuation
from .matroid import (
    DESK_SCALE_BOUNDS_N,
    DESK_SCALE_CENSUS,
    DESK_SCALE_COORDS,
    InvariantViolation,
    Matroid,
    ScaleLimitError,
    johnson_neighbors,
    modular_stable_matroid,
    r_subset_masks,
    require_listable,
)

LOG_DIGITS = 20
_WORK_DIGITS = 40  # well beyond the LOG_DIGITS reported


def _log_bounds(n: int, nr: int) -> tuple[str, str]:
    """The subspace bound u ln(C(n,r) n^4 / u) with u = C(n,r) = nr, and the
    count bound C(n,r) (55 ln n + 4 ln^2 n) / n, each to LOG_DIGITS digits.

    Both are evaluated and formatted (format rounds in the current context)
    in a fresh context, so the caller's precision, rounding and traps do not
    reach the digits."""
    u = nr  # dim U(U(r,n)): no forced symbols on the uniform matroid
    with localcontext(Context(prec=_WORK_DIGITS)):
        subspace_bound = u * (Decimal(nr * n**4) / u).ln()
        ln_n = Decimal(n).ln()
        count_upper = nr * (55 * ln_n + 4 * ln_n * ln_n) / n
        return _digits(subspace_bound), _digits(count_upper)


def _digits(x: Decimal) -> str:
    """x to LOG_DIGITS significant digits in the report's fixed form: a
    whole number of exactly LOG_DIGITS digits keeps a trailing "."."""
    text = format(x, f".{LOG_DIGITS}g")
    return text if "." in text or "e" in text else text + "."


class BoundsReport:
    """Every closed-form bound for a rank-r matroid on n elements, with the
    uniform-ambient instantiations of the quantities that need one.

    Built with keywords: n, r, t_contraction and one per entry of SOURCES,
    each read back as the attribute of that name.
    """

    SOURCES = {
        # C(n,r-2) C(n-r+2,4) 6, ordered presentations
        "symbol_count_ordered": "ordered three-term location count",
        # canonical count, 3 per (S, 4-subset)
        "symbol_count": "canonical three-term location count",
        # |Z1| for the uniform matroid = symbol_count
        "log2_count_bound": "type-subset counting bound over free symbols",
        # C(n,r) * 3 / (n-r+3), a Fraction; a cell-dimension bound for 3 <= r <= n-3 only
        "dim_upper": "rank-3 contraction dimension bound",
        # per-coordinate dim bound via rank-t minors, a Fraction
        "dim_contraction_ratio": "per-coordinate contraction dimension bound",
        # C(n-2,r-2) + n - 1
        "spreaddim_upper": "spread-plus-shift dimension bound",
        # C(n-2,r-1) + n - 1, shifted-exponent reading
        "spreaddim_upper_alt": "spread-plus-shift dimension bound, shifted exponent",
        # u ln(C(n,r) n^4 / u), u = dim U(U(r,n)) = C(n,r), a decimal string
        "subspace_count_bound": "single-container subspace counting bound",
        # C(n,r) (55 ln n + 4 ln^2 n) / n, a decimal string
        "count_upper": "recursive container counting bound",
        # n + t - 3 with t = n parallel classes
        "tree_dim_upper": "metric-tree dimension bound",
        # 2^t t^n with t = n
        "tree_count_upper": "metric-tree topology counting bound",
        # C(n,r) / n, a Fraction
        "dim_lower": "sparse paving component certificate",
        # s(r, n) when within census scale, else None
        "count_lower": "sparse paving matroid count",
    }
    __slots__ = ("n", "r", "t_contraction", *SOURCES)
    log_precision = LOG_DIGITS  # digits of every logarithmic bound

    def __init__(self, n: int, r: int, t_contraction: int, **bounds):
        if bounds.keys() != self.SOURCES.keys():
            raise TypeError(f"BoundsReport takes exactly the bounds {list(self.SOURCES)}")
        self.n, self.r, self.t_contraction = n, r, t_contraction
        for name, value in bounds.items():
            setattr(self, name, value)

    def rows(self):
        for name, source in self.SOURCES.items():
            value = getattr(self, name)
            if isinstance(value, Fraction):
                rendered = f"{value.numerator}/{value.denominator}"
            else:
                rendered = str(value)
            yield name, rendered, source

    def to_json_obj(self) -> dict:
        obj = {"n": self.n, "r": self.r, "t_contraction": self.t_contraction,
               "log_precision": self.log_precision}
        for name, rendered, source in self.rows():
            obj[name] = {"value": rendered, "source": source}
        return obj


def rank_t_dim_bound(t: int, m: int) -> Fraction:
    """Best closed-form cell-dimension bound in rank t on m elements."""
    if t == 2:
        return Fraction(2 * m - 3)
    return Fraction(comb(m - 2, t - 2) + m - 1)


def dim_upper(n: int, r: int) -> Fraction:
    """Rank-3 contraction bound on a cell's dimension: C(n, r) 3 / (n - r + 3),
    for 3 <= r <= n - 3 only.  `cell_dim` counts the n-dimensional lineality
    space, so cells of U(3, 5) (duals of binary trees on U(2, 5)) reach 7.
    ScaleLimitError outside 0 <= r <= n, where C(n, r) is not a size."""
    if not 0 <= r <= n:
        raise ScaleLimitError(f"dim_upper needs 0 <= r <= n, got r={r}, n={n}")
    return Fraction(comb(n, r) * 3, n - r + 3)


def bounds_report(n: int, r: int, t_contraction: int | None = None) -> BoundsReport:
    """Every bound at (n, r); the contraction rank defaults to min(3, r)."""
    if not 2 <= r < n <= DESK_SCALE_BOUNDS_N:
        raise ScaleLimitError(f"bounds need 2 <= r < n <= {DESK_SCALE_BOUNDS_N}, got r={r}, n={n}")
    if t_contraction is None:
        t_contraction = min(3, r)
    if not 2 <= t_contraction <= r:
        raise ScaleLimitError(
            f"contraction rank must be within [2, {r}], got {t_contraction}"
        )
    nr = comb(n, r)
    sym = comb(n, r - 2) * comb(n - r + 2, 4)
    m = n - r + t_contraction
    subspace_bound, count_upper = _log_bounds(n, nr)
    s = count_sparse_paving(r, n) if nr <= DESK_SCALE_CENSUS else None
    return BoundsReport(
        n=n,
        r=r,
        t_contraction=t_contraction,
        symbol_count_ordered=sym * 6,
        symbol_count=sym * 3,
        log2_count_bound=sym * 3,
        dim_upper=dim_upper(n, r),
        dim_contraction_ratio=rank_t_dim_bound(t_contraction, m) / comb(m, t_contraction),
        spreaddim_upper=comb(n - 2, r - 2) + n - 1,
        spreaddim_upper_alt=comb(n - 2, r - 1) + n - 1,
        subspace_count_bound=subspace_bound,
        count_upper=count_upper,
        tree_dim_upper=2 * n - 3,
        tree_count_upper=2**n * n**n,
        dim_lower=Fraction(nr, n),
        count_lower=s,
    )


# ---------------------------------------------------------------------------
# Sparse paving enumeration and certificates


def all_stable_sets(r: int, n: int):
    """All stable sets of the Johnson graph J(r, n), empty set included."""
    verts = r_subset_masks(n, r)
    nbrs = {v: set(johnson_neighbors(n, v)) for v in verts}
    out = []

    def extend(i, chosen, blocked):
        out.append(tuple(chosen))
        for j in range(i, len(verts)):
            v = verts[j]
            if v in blocked:
                continue
            chosen.append(v)
            extend(j + 1, chosen, blocked | nbrs[v] | {v})
            chosen.pop()

    extend(0, [], set())
    return out


def _census_stable_sets(r: int, n: int) -> tuple[frozenset, list]:
    """(every r-subset, the stable sets of J(r, n) that leave a basis): one
    stable set per sparse paving matroid of rank r on n elements."""
    if not 0 <= r <= n:
        raise ScaleLimitError(f"need 0 <= r <= n, got r={r}, n={n}")
    require_listable(n, r, DESK_SCALE_CENSUS, "the census")
    full = frozenset(r_subset_masks(n, r))
    return full, [stable for stable in all_stable_sets(r, n) if len(stable) < len(full)]


def all_sparse_paving_matroids(r: int, n: int) -> list[Matroid]:
    """Every sparse paving matroid of rank r on n elements, by stable set
    (`Matroid` raises if stability did not suffice)."""
    full, stable_sets = _census_stable_sets(r, n)
    return [Matroid(n, r, full - set(stable)) for stable in stable_sets]


def count_sparse_paving(r: int, n: int) -> int:
    """The number of sparse paving matroids of rank r on n elements, none built."""
    return len(_census_stable_sets(r, n)[1])


def lower_bound_certificate(n: int, r: int):
    """Best modular sparse paving witness: (N, c(N), dim of its cell)."""
    if not 0 < r < n:
        raise ScaleLimitError(f"need 0 < r < n, got r={r}, n={n}")
    require_listable(n, r, DESK_SCALE_COORDS, "the lower-bound certificate")
    best = None
    for k in range(n):
        N = modular_stable_matroid(n, r, k)
        c = N.johnson_components().component_count
        if best is None or c > best[1]:
            best = (N, c)
    N, c = best
    dim = linear.cell_dim(valuation.valuation_from_matroid(N))
    if dim < c:
        raise InvariantViolation(
            f"cell dimension {dim} is below the component count {c}"
        )
    return N, c, dim


class CensusRecord:
    __slots__ = ("n", "r", "source_size", "distinct_types", "completeness",
                 "distinct_is_injective", "max_cell_dim", "dims")

    def __init__(self, n: int, r: int, source_size: int, distinct_types: int,
                 completeness: str, distinct_is_injective: bool,
                 max_cell_dim: int | None, dims: list):
        self.n, self.r = n, r
        self.source_size = source_size
        self.distinct_types = distinct_types
        self.completeness = completeness
        self.distinct_is_injective = distinct_is_injective
        self.max_cell_dim = max_cell_dim
        self.dims = dims


def census_from_matroids(r: int, n: int, source, with_dims: bool = False,
                         completeness: str = "lower-bound census (types reachable "
                                             "from matroid valuations)") -> CensusRecord:
    """Distinct combinatorial types among {nu_N : N in source}, labelled
    `completeness`."""
    matroids = list(source)
    count = len(matroids)
    types = set()
    dims = []
    for N in matroids:
        nu = valuation.valuation_from_matroid(N)
        types.add(valuation.combinatorial_type(nu))
        if with_dims:
            dims.append(linear.cell_dim(nu))
    return CensusRecord(
        n=n,
        r=r,
        source_size=count,
        distinct_types=len(types),
        completeness=completeness,
        distinct_is_injective=len(types) == count,
        max_cell_dim=max(dims) if dims else None,
        dims=dims,
    )


def sparse_paving_census(r: int, n: int, with_dims: bool = False) -> CensusRecord:
    return census_from_matroids(r, n, all_sparse_paving_matroids(r, n), with_dims,
                                "complete over sparse paving matroids")


def perturbed_census(r: int, n: int, with_dims: bool = False) -> CensusRecord:
    """Lower-bound census over every residue matroid M0(nu_N^w) of each sparse
    paving N, w = 0 included, read off the certified subdivision walk.  Still
    a lower bound: these types need not exhaust the cells in rank >= 3."""
    nus = map(valuation.valuation_from_matroid, all_sparse_paving_matroids(r, n))
    return census_from_matroids(r, n, subdivision.residue_matroids(nus), with_dims,
                                "lower-bound census (sparse paving matroids plus every "
                                "residue matroid of their valuations)")
