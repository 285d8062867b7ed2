"""Matroid polytope subdivisions P(nu): cells, residue matroids, spread, bound report.

The maximal cells of P(nu) are the residue matroids M0(nu^w) at generic w,
and their faces the others.  The cells are found by an exact breadth-first
walk; no linear program is solved.  A cell C is kept with its gaps

    f_C(B) = nu(B) + w_C(B) - lambda_C,

which are >= 0 on every basis and 0 exactly on C.  Every facet of a
matroid polytope inside sum(x) = r has the form x(S) <= rk(S)
(Feichtner-Sturmfels 2005), so the facets of a cell are found among the
subsets S of E.  Tilting the gaps by t * (|B ∩ S| - k) keeps the facet tight
and lowers the bases beyond it; the least t at which one of them ties gives
the neighbouring cell together with its gaps.  A facet with no basis beyond
it lies on the boundary of P_M.

The walk runs on integers.  A cell or face is a bit mask over the indices
of the sorted bases.  Gaps are (den, gs), gs[i] / den the gap of basis i,
kept in `rationals.lowest_terms`: equal gap vectors have equal pairs.
Once per matroid (`_frame`, shared by every walk on it), each S gets the
masks of the bases with |B ∩ S| = j, highest j first; the face of a cell
for S is its part of the first that meets it.
Point location reads the same level masks: rk_C(S) is the j of the first
level that meets C, and C holds x when x(E) = r and x(S) <= rk_C(S).

The result is labelled exhaustive only after a certificate holds: every
facet crossed is crossed back from the neighbour reached, the cells cover
every basis, and every cell's gaps are >= 0 and agree however the cell was
reached.  A failure raises InvariantViolation.
"""

from __future__ import annotations

from math import comb

from . import valuation
from .matroid import (
    DESK_SCALE_COORDS,
    DESK_SCALE_WALK_N,
    InvariantViolation,
    Matroid,
    ScaleLimitError,
    mask_to_set,
    require_listable,
)
from .rationals import INF, integer_vector, lowest_terms


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


def _tight(gaps: tuple) -> int:
    return sum(1 << i for i, g in enumerate(gaps[1]) if g == 0)


def _tilt(bases: list, gaps: tuple, S: int, k: int) -> tuple | None:
    """Gaps minus t * (|B ∩ S| - k) at the least t > 0 where a basis with
    |B ∩ S| > k ties; None when no basis has |B ∩ S| > k."""
    den, gs = gaps
    steps = [(b & S).bit_count() - k for b in bases]
    p = q = 0  # t = p / q (in units of 1 / den), q = 0 until a step is seen
    for g, c in zip(gs, steps):
        if c > 0 and (q == 0 or g * q < p * c):
            p, q = g, c
    if q == 0:
        return None
    return lowest_terms(den * q, [g * q - p * c for g, c in zip(gs, steps)])


def _first_gaps(M: Matroid, nu: valuation.Valuation, bases: list, full_dim: int) -> tuple:
    """Gaps of one maximal cell, grown from M0(nu) by at most n tilts.

    While the tight matroid T is not full-dimensional, one of its components
    S is not a union of components of M, so |B ∩ S| is the same k on T but
    not on M.  Tilting along S (or along its complement, whichever has a
    basis beyond) adds a tight basis off x(S) = k, raising the dimension.
    """
    nums = [v for v in nu.scaled if v is not INF]  # colex order is sorted-basis order
    lo = min(nums)
    gaps = lowest_terms(nu.denominator, [g - lo for g in nums])
    full = (1 << M.n) - 1
    while True:
        tight = [b for b, g in zip(bases, gaps[1]) if g == 0]
        comps = _components(M.n, set(tight))
        if M.n - len(comps) == full_dim:
            return gaps
        for S in comps:
            k = (tight[0] & S).bit_count()
            tilted = _tilt(bases, gaps, S, k) or _tilt(bases, gaps, full ^ S, M.r - k)
            if tilted is not None:
                gaps = tilted
                break
        else:
            raise InvariantViolation("tight matroid is lower-dimensional "
                                     "but no tilt raises its dimension")


def _levels(n: int, r: int, bases: list) -> list:
    """For each S < 2^n - 1, the pairs (j, mask of the indices i with
    |bases[i] ∩ S| = j) with a nonempty mask, highest j first.  The masks
    of S are those of S minus its lowest element e, with the bases holding
    e moved up one level."""
    holding = [sum(1 << i for i, b in enumerate(bases) if b >> e & 1) for e in range(n)]
    by_j = [[(1 << len(bases)) - 1] + [0] * r]
    for S in range(1, (1 << n) - 1):
        low = S & -S
        h = holding[low.bit_length() - 1]
        prev = by_j[S ^ low]
        by_j.append([prev[0] & ~h] + [prev[j] & ~h | prev[j - 1] & h for j in range(1, r + 1)])
    return [[(j, L) for j, L in reversed(list(enumerate(row))) if L] for row in by_j]


def _faces(levels: list, cell: int):
    """(S, k, F) per S: F is the cell's face where |B ∩ S| attains its maximum k."""
    for S in range(1, len(levels)):
        for k, level in levels[S]:
            if cell & level:
                yield S, k, cell & level
                break


def _facets(n: int, bases: list, levels: list, cell: int, full_dim: int) -> dict:
    """The facets of a full-dimensional cell, as {facet mask: (S, k)}: the
    facet is the face where |B ∩ S| attains its maximum k on the cell."""
    faces = {}
    for S, k, F in _faces(levels, cell):
        faces.setdefault(F, (S, k))
    out = {}
    # largest first, so that a face inside a facet found before it, and so of
    # lower dimension, is passed over without a dimension count
    for F in sorted(faces, key=int.bit_count, reverse=True):
        if F.bit_count() < full_dim:
            break
        if (all(F & ~G for G in out)
                and affine_dim(n, {b for i, b in enumerate(bases) if F >> i & 1}) == full_dim - 1):
            out[F] = faces[F]
    return out


class SubdivisionCensus:
    """The maximal cells (Matroids, sorted by basis family) and their count,
    the spread; "exhaustive" because the walk is certified or raises."""

    __slots__ = ("maximal_cells", "spread")
    exploration_status = "exhaustive"

    def __init__(self, maximal_cells: list):
        self.maximal_cells = maximal_cells
        self.spread = len(maximal_cells)

    def cell_basis_families(self) -> set:
        return {cell.bases for cell in self.maximal_cells}


def _frame(M: Matroid) -> tuple[list, list, int]:
    """What every walk on M shares: the sorted bases, their level masks and
    the dimension of P_M; ScaleLimitError past the walk's limits."""
    if M.n > DESK_SCALE_WALK_N:
        raise ScaleLimitError(f"subdivision walk needs n <= {DESK_SCALE_WALK_N}, got n={M.n}")
    require_listable(M.n, M.r, DESK_SCALE_COORDS, "the subdivision walk")
    bases = M.sorted_bases()
    return bases, _levels(M.n, M.r, bases), polytope_dim(M)


def _walk(nu: valuation.Valuation, frame: tuple) -> dict:
    """The certified {cell mask: gaps} of nu, on the `_frame` of its matroid."""
    M = nu.matroid
    bases, levels, full_dim = frame
    first = _first_gaps(M, nu, bases, full_dim)
    cells = {_tight(first): first}
    order = list(cells)
    crossings = {}  # (cell, facet) -> neighbour across the facet
    for cell in order:  # grows while it is walked
        gaps = cells[cell]
        for F, (S, k) in _facets(M.n, bases, levels, cell, full_dim).items():
            tilted = _tilt(bases, gaps, S, k)
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
    if set().union(*map(mask_to_set, cells)) != set(range(len(bases))):
        raise InvariantViolation("the walked cells do not cover every basis")
    if any(g < 0 for _den, gs in cells.values() for g in gs):
        raise InvariantViolation("a cell has a negative gap")
    return cells


def _matroids(M: Matroid, bases: list, masks) -> list[Matroid]:
    """The matroids on M's ground set of these basis masks, sorted by basis family."""
    found = [Matroid(M.n, M.r, frozenset(bases[i] for i in mask_to_set(F))) for F in masks]
    return sorted(found, key=lambda m: sorted(m.bases))


def subdivision_cells(nu: valuation.Valuation) -> SubdivisionCensus:
    """Maximal cells of P(nu) by a certified walk across interior facets."""
    frame = _frame(nu.matroid)
    return SubdivisionCensus(_matroids(nu.matroid, frame[0], _walk(nu, frame)))


def residue_matroids(valuations) -> list[Matroid]:
    """Every residue matroid M0(nu^w), over all shifts w, of valuations on one
    matroid: the walked cells closed under the face step, sorted by basis family."""
    valuations = list(valuations)
    matroids = {nu.matroid for nu in valuations}
    if len(matroids) > 1:
        raise valuation.ValuationInputError("the valuations lie on different matroids")
    if not matroids:
        return []
    M = matroids.pop()
    frame = _frame(M)
    faces = set()
    for nu in valuations:
        faces.update(_walk(nu, frame))
    bases, levels, _ = frame
    new = set(faces)
    while new:
        new = {F for cell in new for _S, _k, F in _faces(levels, cell)} - faces
        faces |= new
    return _matroids(M, bases, faces)


def locate_cell(nu: valuation.Valuation, point) -> Matroid | None:
    """The face of P(nu) holding a rational point of P_M: the intersection
    of the maximal cells whose polytope contains it.

    Returns None if the point is outside the matroid polytope.
    """
    M = nu.matroid
    den, xs = integer_vector(point)  # x * den
    if len(xs) != M.n:
        raise valuation.ValuationInputError(f"point has {len(xs)} coordinates, expected n={M.n}")
    frame = _frame(M)
    cells = _walk(nu, frame)
    bases, levels, _ = frame
    if sum(xs) != M.r * den:
        return None
    sums = [0] * len(levels)  # x(S) * den
    above = set()  # per S, the bases with |B ∩ S| >= x(S); a cell holds x iff it meets each
    for S in range(1, len(levels)):
        low = S & -S
        sums[S] = sums[S ^ low] + xs[low.bit_length() - 1]
        above.add(sum(L for j, L in levels[S] if j * den >= sums[S]))  # the levels are disjoint
    if 0 in above:
        return None  # x(S) > rk(S)
    face = (1 << len(bases)) - 1
    for cell in cells:
        if all(cell & reach for reach in above):
            face &= cell
    return Matroid(M.n, M.r, frozenset(bases[i] for i in mask_to_set(face)))


def spread_report(nu: valuation.Valuation) -> dict:
    """Measured spread against both readings of the binomial spread bound."""
    n, r = nu.matroid.n, nu.matroid.r
    if r < 2:
        raise valuation.ValuationInputError(f"the spread bounds need rank 2 or more, got {r}")
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
