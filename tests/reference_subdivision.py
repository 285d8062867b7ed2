"""The random LP explorer of P(nu), kept as a reference for the facet walk.

This is the cell finder that ``dressian.subdivision`` used before the walk,
unchanged apart from its imports, without ``spread_report``, and with
``polytope_dim`` taken through ``affine_dim``.

Maximal cells are full-dimensional lower faces of the lifted basis-vertex
hull.  A cell is located exactly by solving the lifted convex-combination
LP at a rational point p in the polytope: the optimal dual prices expose
the lower face above p, and for generic p that face is a maximal cell.
Exploration seeds points near every vertex and then walks segments between
discovered cells and vertices until a full pass finds nothing new.

It also keeps the facet walk as it was before it ran on integers
(``walk_cells``): gaps as a {basis: Fraction} map, cells and faces as
frozensets of bases, every face found by a scan over the bases for each
subset S, and dimensions from the rank of vertex differences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from dressian import Matroid, Valuation, integer_matrix_rank, solve_linear_system
from dressian import subdivision_cells as walked_cells


def affine_dim(n: int, masks) -> int:
    """Affine dimension of conv{e_B}: rank of the vertex difference matrix."""
    verts = [[(b >> e) & 1 for e in range(n)] for b in sorted(masks)]
    base = verts[0]
    rows = [[v[i] - base[i] for i in range(n)] for v in verts[1:]]
    return integer_matrix_rank(rows) if rows else 0


def polytope_dim(M: Matroid) -> int:
    """Affine dimension of the matroid polytope conv{e_B}."""
    return affine_dim(M.n, M.bases)


# ---------------------------------------------------------------------------
# Exact LP (dense two-phase simplex, Bland's rule)


class _Infeasible(Exception):
    pass


def _simplex(A, b, c):
    """min c.x s.t. Ax = b, x >= 0; exact rationals.

    Returns (x, basis, rows, rhs): optimal primal, final basis column ids,
    and the final canonical tableau (used only internally).
    """
    m = len(A)
    n = len(c)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # phase 1: artificial columns n..n+m-1
    for i in range(m):
        for j in range(m):
            rows[i].append(Fraction(1 if i == j else 0))
    basis = list(range(n, n + m))
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    _pivot_to_optimum(rows, rhs, basis, cost1)
    if sum(rhs[i] for i in range(m) if basis[i] >= n) != 0:
        raise _Infeasible
    # drive artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if rows[i][jj] != 0), None)
            if j is None:
                continue  # redundant constraint
            _pivot(rows, rhs, basis, i, j)
        keep.append(i)
    rows = [rows[i][:n] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = [Fraction(v) for v in c]
    _pivot_to_optimum(rows, rhs, basis, cost2)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    return x, basis


def _pivot(rows, rhs, basis, i, j):
    p = rows[i][j]
    rows[i] = [v / p for v in rows[i]]
    rhs[i] /= p
    for k in range(len(rows)):
        if k != i and rows[k][j] != 0:
            f = rows[k][j]
            rows[k] = [v - f * w for v, w in zip(rows[k], rows[i])]
            rhs[k] -= f * rhs[i]
    basis[i] = j


def _pivot_to_optimum(rows, rhs, basis, cost):
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    while True:
        cb = [cost[bi] for bi in basis]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            red = cost[j] - sum(cb[i] * rows[i][j] for i in range(m))
            if red < 0:
                entering = j
                break  # Bland: smallest index
        if entering is None:
            return
        leaving = None
        best = None
        for i in range(m):
            if rows[i][entering] > 0:
                ratio = rhs[i] / rows[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("unbounded LP in cell location")
        _pivot(rows, rhs, basis, leaving, entering)


def locate_cell(nu: Valuation, point) -> Matroid | None:
    """The lower face of the lifted hull above a rational point of P_M.

    Returns the residue matroid of that face, or None if the point is
    outside the matroid polytope.
    """
    M = nu.matroid
    bases = M.sorted_bases()
    A = [[Fraction((bm >> e) & 1) for bm in bases] for e in range(M.n)]
    A.append([Fraction(1)] * len(bases))
    b = [Fraction(point[e]) for e in range(M.n)] + [Fraction(1)]
    c = [nu.values[bm] for bm in bases]
    try:
        _x, basis = _simplex(A, b, c)
    except _Infeasible:
        return None
    # dual prices from the optimal basis: solve A_B^T y = c_B
    eqs = []
    nrows = M.n + 1
    for bi in basis:
        coeffs = {i: A[i][bi] for i in range(nrows) if A[i][bi] != 0}
        eqs.append((coeffs, c[bi]))
    y = solve_linear_system(eqs, range(nrows))
    assert y is not None
    tight = frozenset(
        bm
        for k, bm in enumerate(bases)
        if c[k] - sum(y[i] * A[i][k] for i in range(nrows)) == 0
    )
    return Matroid(M.n, M.r, tight)


# ---------------------------------------------------------------------------
# Exploration


@dataclass
class SubdivisionCensus:
    maximal_cells: list  # Matroids, sorted by basis family
    spread: int
    exploration_status: str  # "exhaustive" | "sampled"

    def cell_basis_families(self) -> set:
        return {cell.bases for cell in self.maximal_cells}


def subdivision_cells(
    nu: Valuation, seed: int = 0, samples_per_vertex: int = 3, max_passes: int = 8
) -> SubdivisionCensus:
    """Maximal cells of P(nu) via exact point location plus segment walks."""
    M = nu.matroid
    rnd = random.Random(seed)
    bases = M.sorted_bases()
    full_dim = polytope_dim(M)
    found: dict[frozenset, Matroid] = {}

    def vertex(bm):
        return [Fraction((bm >> e) & 1) for e in range(M.n)]

    def centroid(masks):
        k = len(masks)
        return [
            Fraction(sum((bm >> e) & 1 for bm in masks), k) for e in range(M.n)
        ]

    def record(point) -> bool:
        cell = locate_cell(nu, point)
        if cell is None or cell.bases in found:
            return False
        if polytope_dim(cell) < full_dim:
            return False
        found[cell.bases] = cell
        return True

    def random_weights(masks, heavy=None):
        w = {bm: Fraction(rnd.randint(1, 9973), rnd.randint(1, 97)) for bm in masks}
        if heavy is not None:
            w[heavy] *= 10000
        total = sum(w.values())
        return [
            sum(w[bm] for bm in masks if (bm >> e) & 1) / total for e in range(M.n)
        ]

    # seed: points concentrated near each vertex
    for bm in bases:
        for _ in range(samples_per_vertex):
            record(random_weights(bases, heavy=bm))
    record(centroid(bases))

    closed = False
    for _ in range(max_passes):
        new = False
        for cell in list(found.values()):
            pC = centroid(sorted(cell.bases))
            for bm in bases:
                if bm in cell.bases:
                    continue
                v = vertex(bm)
                for _ in range(2):
                    t = Fraction(rnd.randint(1, 9972), 9973)
                    p = [pc + t * (ve - pc) for pc, ve in zip(pC, v)]
                    if record(p):
                        new = True
        if not new:
            closed = True
            break

    covered = set()
    for fam in found:
        covered |= fam
    status = "exhaustive" if closed and covered == set(bases) else "sampled"
    cells = sorted(found.values(), key=lambda m: sorted(m.bases))
    return SubdivisionCensus(cells, len(cells), status)



# ---------------------------------------------------------------------------
# The facet walk on Fractions


def components(n: int, bases) -> list[int]:
    """Connected components, as element masks: e and f share one when some
    basis B holds e but not f and B - e + f is a basis."""
    comp = [1 << e for e in range(n)]
    for b in bases:
        for e in range(n):
            for f in range(n):
                if b >> e & 1 and not b >> f & 1 and (b ^ (1 << e) | (1 << f)) in bases:
                    merged = comp[e] | comp[f]
                    for g in range(n):
                        if merged >> g & 1:
                            comp[g] = merged
    return sorted(set(comp))


def tight(gaps: dict) -> frozenset:
    return frozenset(b for b, f in gaps.items() if f == 0)


def tilt(gaps: dict, S: int, k: int) -> dict | None:
    """Gaps minus t * (|B ∩ S| - k) at the least t > 0 where a basis with
    |B ∩ S| > k ties; None when no basis has |B ∩ S| > k."""
    steps = [f / ((b & S).bit_count() - k) for b, f in gaps.items()
             if (b & S).bit_count() > k]
    if not steps:
        return None
    t = min(steps)
    return {b: f - t * ((b & S).bit_count() - k) for b, f in gaps.items()}


def first_gaps(M: Matroid, nu: Valuation, full_dim: int) -> dict:
    """Gaps of one maximal cell, grown from M0(nu) by tilts along a
    component of the tight matroid or its complement."""
    lo = min(nu.values.values())
    gaps = {b: nu.values[b] - lo for b in M.sorted_bases()}
    full = (1 << M.n) - 1
    while True:
        tight_bases = tight(gaps)
        comps = components(M.n, tight_bases)
        if M.n - len(comps) == full_dim:
            return gaps
        t0 = min(tight_bases)
        for S in comps:
            k = (t0 & S).bit_count()
            tilted = tilt(gaps, S, k) or tilt(gaps, full ^ S, M.r - k)
            if tilted is not None:
                gaps = tilted
                break
        else:
            raise AssertionError("no tilt raises the tight matroid's dimension")


def facets(n: int, cell: frozenset, full_dim: int) -> dict:
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


def walk_cells(nu: Valuation) -> dict:
    """{tight bases of each maximal cell: its gaps}, by a breadth-first walk
    across the interior facets from the first cell."""
    M = nu.matroid
    full_dim = polytope_dim(M)
    first = first_gaps(M, nu, full_dim)
    cells = {tight(first): first}
    order = list(cells)
    for cell in order:
        for F, (S, k) in facets(M.n, cell, full_dim).items():
            tilted = tilt(cells[cell], S, k)
            if tilted is None:
                continue
            nb = tight(tilted)
            if nb not in cells:
                cells[nb] = tilted
                order.append(nb)
            elif cells[nb] != tilted:
                raise AssertionError("a cell reached twice has two gap vectors")
    return cells


# ---------------------------------------------------------------------------
# Point location on Fractions, over the walked cells


def contains(n: int, r: int, masks, point) -> bool:
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


def locate_face(nu: Valuation, point) -> Matroid | None:
    """The face of P(nu) holding a rational point of P_M: the intersection
    of the maximal cells whose polytope contains it.

    Returns None if the point is outside the matroid polytope.
    """
    M = nu.matroid
    p = [Fraction(point[e]) for e in range(M.n)]
    if not contains(M.n, M.r, M.bases, p):
        return None
    face = M.bases
    for cell in walked_cells(nu).maximal_cells:
        if contains(M.n, M.r, cell.bases, p):
            face &= cell.bases
    return Matroid(M.n, M.r, face)
