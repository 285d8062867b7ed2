"""Matroid polytope subdivisions P(nu): maximal cells, spread, bound report.

The maximal cells of P(nu) are the residue matroids M0(nu^w) at generic w.
They are found by an exact breadth-first walk over the cells; no linear
program is solved.  A cell C is kept with its gaps

    f_C(B) = nu(B) + w_C(B) - lambda_C,

which are >= 0 on every basis and 0 exactly on C.  Every facet of a
matroid polytope inside sum(x) = r has the form x(S) <= rk(S)
(Feichtner-Sturmfels 2005), so the facets of a cell are found among the
subsets S of E.  Tilting the gaps by t * (|B ∩ S| - k) keeps the facet tight
and lowers the bases beyond it; the least t at which one of them ties gives
the neighbouring cell together with its gaps.  A facet with no basis beyond
it lies on the boundary of P_M.

The result is labelled exhaustive only after a certificate holds: every
facet crossed is crossed back from the neighbour reached, the cells cover
every basis, and every cell's gaps are >= 0 and agree however the cell was
reached.  A failure raises InvariantViolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .matroid import (
    DESK_SCALE_COORDS,
    DESK_SCALE_WALK_N,
    InvariantViolation,
    Matroid,
    ScaleLimitError,
    mask_to_set,
    require_listable,
)
from .valuation import Valuation, ValuationInputError


def _components(n: int, masks) -> list[int]:
    """Connected components, as element masks, of the matroid with these bases.

    They are the components of the fundamental-circuit graph of any one
    basis B, in which e in B and f outside B are joined when B - e + f is a
    basis; loops and coloops stay on their own.
    """
    b0 = min(masks)
    comp = [1 << e for e in range(n)]
    for e in mask_to_set(b0):
        for f in range(n):
            if comp[e] >> f & 1 or (b0 ^ (1 << e) | (1 << f)) not in masks:
                continue
            merged = comp[e] | comp[f]
            for g in mask_to_set(merged):
                comp[g] = merged
    return sorted(set(comp))


def affine_dim(n: int, masks) -> int:
    """Affine dimension of conv{e_B} over the bases (a set of masks) of a
    matroid on n elements: n minus the number of connected components."""
    return n - len(_components(n, masks))


def polytope_dim(M: Matroid) -> int:
    """Affine dimension of the matroid polytope conv{e_B}."""
    return affine_dim(M.n, M.bases)


def _tight(gaps: dict) -> frozenset:
    return frozenset(b for b, f in gaps.items() if f == 0)


def _tilt(gaps: dict, S: int, k: int) -> dict | None:
    """Gaps minus t * (|B ∩ S| - k) at the least t > 0 where a basis with
    |B ∩ S| > k ties; None when no basis has |B ∩ S| > k."""
    steps = [f / ((b & S).bit_count() - k) for b, f in gaps.items()
             if (b & S).bit_count() > k]
    if not steps:
        return None
    t = min(steps)
    return {b: f - t * ((b & S).bit_count() - k) for b, f in gaps.items()}


def _first_gaps(M: Matroid, nu: Valuation, full_dim: int) -> dict:
    """Gaps of one maximal cell, grown from M0(nu) by at most n tilts.

    While the tight matroid T is not full-dimensional, one of its components
    S is not a union of components of M, so |B ∩ S| is the same k on T but
    not on M.  Tilting along S (or along its complement, whichever has a
    basis beyond) adds a tight basis off x(S) = k, raising the dimension.
    """
    lo = min(nu.values.values())
    gaps = {b: nu.values[b] - lo for b in M.sorted_bases()}
    full = (1 << M.n) - 1
    while True:
        tight = _tight(gaps)
        comps = _components(M.n, tight)
        if M.n - len(comps) == full_dim:
            return gaps
        t0 = min(tight)
        for S in comps:
            k = (t0 & S).bit_count()
            tilted = _tilt(gaps, S, k) or _tilt(gaps, full ^ S, M.r - k)
            if tilted is not None:
                gaps = tilted
                break
        else:
            raise InvariantViolation("tight matroid is lower-dimensional "
                                     "but no tilt raises its dimension")


def _facets(n: int, cell: frozenset, full_dim: int) -> dict:
    """The facets of a full-dimensional cell, as {facet bases: (S, k)}:
    the facet is the face where |B ∩ S| attains its maximum k on the cell."""
    out = {}
    seen = set()
    for S in range(1, (1 << n) - 1):
        k = max((b & S).bit_count() for b in cell)
        F = frozenset(b for b in cell if (b & S).bit_count() == k)
        if F in seen:
            continue
        seen.add(F)
        if len(F) >= full_dim and affine_dim(n, F) == full_dim - 1:
            out[F] = (S, k)
    return out


class SubdivisionCensus:
    """The maximal cells (Matroids, sorted by basis family), their count as
    the spread, and the exploration status, always "exhaustive": the walk
    is certified."""

    __slots__ = ("maximal_cells", "spread", "exploration_status")

    def __init__(self, maximal_cells: list, spread: int, exploration_status: str):
        self.maximal_cells = maximal_cells
        self.spread = spread
        self.exploration_status = exploration_status

    def cell_basis_families(self) -> set:
        return {cell.bases for cell in self.maximal_cells}


def subdivision_cells(nu: Valuation) -> SubdivisionCensus:
    """Maximal cells of P(nu) by a certified walk across interior facets."""
    M = nu.matroid
    if M.n > DESK_SCALE_WALK_N:
        raise ScaleLimitError(f"subdivision walk needs n <= {DESK_SCALE_WALK_N}, got n={M.n}")
    require_listable(M.n, M.r, DESK_SCALE_COORDS, "the subdivision walk")
    full_dim = polytope_dim(M)
    first = _first_gaps(M, nu, full_dim)
    cells = {_tight(first): first}
    order = list(cells)
    crossings = {}  # (cell, facet) -> neighbour across the facet
    for cell in order:  # grows while it is walked
        gaps = cells[cell]
        for F, (S, k) in _facets(M.n, cell, full_dim).items():
            tilted = _tilt(gaps, S, k)
            if tilted is None:
                continue  # boundary facet
            nb = _tight(tilted)
            crossings[cell, F] = nb
            if nb not in cells:
                cells[nb] = tilted
                order.append(nb)
            elif cells[nb] != tilted:
                raise InvariantViolation("a cell reached twice has two gap vectors")
    for (cell, F), nb in crossings.items():
        if crossings.get((nb, F)) != cell:
            raise InvariantViolation("a crossed facet is not crossed back")
    if frozenset().union(*cells) != M.bases:
        raise InvariantViolation("the walked cells do not cover every basis")
    if any(f < 0 for gaps in cells.values() for f in gaps.values()):
        raise InvariantViolation("a cell has a negative gap")
    found = sorted((Matroid(M.n, M.r, cell) for cell in cells),
                   key=lambda m: sorted(m.bases))
    return SubdivisionCensus(found, len(found), "exhaustive")


def _contains(n: int, r: int, masks, point) -> bool:
    """Whether the point lies in conv{e_B}: x(E) = r and x(S) <= rk(S)."""
    if sum(point) != r:
        return False
    total = [Fraction(0)] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        total[S] = total[S ^ low] + point[low.bit_length() - 1]
        if total[S] > max((b & S).bit_count() for b in masks):
            return False
    return True


def locate_cell(nu: Valuation, point) -> Matroid | None:
    """The face of P(nu) holding a rational point of P_M: the intersection
    of the maximal cells whose polytope contains it.

    Returns None if the point is outside the matroid polytope.
    """
    M = nu.matroid
    p = [Fraction(point[e]) for e in range(M.n)]
    if not _contains(M.n, M.r, M.bases, p):
        return None
    face = M.bases
    for cell in subdivision_cells(nu).maximal_cells:
        if _contains(M.n, M.r, cell.bases, p):
            face &= cell.bases
    return Matroid(M.n, M.r, face)


def spread_report(nu: Valuation) -> dict:
    """Measured spread against both readings of the binomial spread bound."""
    n, r = nu.matroid.n, nu.matroid.r
    if r < 2:
        raise ValuationInputError(f"the spread bounds need rank 2 or more, got {r}")
    census = subdivision_cells(nu)
    low = comb(n - 2, r - 2)
    high = comb(n - 2, r - 1)
    return {
        "n": n,
        "r": r,
        "spread": census.spread,
        "exploration_status": census.exploration_status,
        "bound_exponent_r_minus_2": low,
        "bound_exponent_r_minus_1": high,
        "within_r_minus_2": census.spread <= low,
        "within_r_minus_1": census.spread <= high,
        "spreaddim_r_minus_2": low + n - 1,
        "spreaddim_r_minus_1": high + n - 1,
    }
