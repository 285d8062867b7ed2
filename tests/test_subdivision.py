import random
from fractions import Fraction

import pytest

from dressian import (
    Matroid,
    ScaleLimitError,
    Valuation,
    ValuationInputError,
    all_sparse_paving_matroids,
    decode_tree,
    integer_matrix_rank,
    locate_cell,
    mask_to_set,
    modular_stable_matroid,
    polytope_dim,
    set_to_mask,
    shift,
    spread_report,
    subdivision_cells,
    valuation_from_matroid,
)
from helpers import (
    CORPUS,
    N3,
    random_shift_vector,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
)
from reference_residue import sampled_residue_matroids
from reference_subdivision import locate_face as reference_locate_face
from reference_subdivision import subdivision_cells as reference_subdivision_cells
from reference_subdivision import walk_cells as reference_walk_cells
import dressian.subdivision as subdivision_module
from dressian.subdivision import _frame, _walk, residue_matroids


def octahedron_valuation():
    """U(2,4) lifted so the square cross-sections split into two pyramids."""
    M = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in M.bases}
    vals[set_to_mask((0, 1))] = Fraction(1)
    return Valuation(M, vals)


def face_valuation(nu, u):
    """nu on the face of P_M where sum(u[e] for e in B) is largest; the
    face matroid is often non-uniform or disconnected."""
    score = {b: sum(u[e] for e in mask_to_set(b)) for b in nu.matroid.bases}
    top = max(score.values())
    face = Matroid(nu.matroid.n, nu.matroid.r,
                   frozenset(b for b, s in score.items() if s == top))
    return Valuation(face, {b: nu.values[b] for b in face.bases})


def walk_corpus():
    """21 inputs: the octahedron, nu_N3, a modular (6,3) and four tree
    metrics, each with two faces that avoid one element or contain it (so
    deletions and contractions plus a loop or a coloop, disconnected)."""
    rnd = random.Random(41)
    corpus = [octahedron_valuation(), valuation_from_matroid(N3),
              valuation_from_matroid(modular_stable_matroid(6, 3, 1))]
    corpus += [random_tree_metric_valuation(n, rnd) for n in (4, 4, 5, 5)]
    for nu in list(corpus):
        for sign in (-1, 1):
            e = rnd.randrange(nu.matroid.n)
            corpus.append(face_valuation(nu, [sign * (f == e) for f in range(nu.matroid.n)]))
    return corpus


def sample_points(nu, rnd, count):
    """Centroids of random sets of bases, some moved off them: along
    x(E) = r, which may leave P_M, or off that hyperplane."""
    bases = nu.matroid.sorted_bases()
    n = nu.matroid.n
    for _ in range(count):
        chosen = rnd.sample(bases, rnd.choice([1, 2, 3, len(bases) // 2, len(bases)]))
        x = [Fraction(sum(b >> e & 1 for b in chosen), len(chosen)) for e in range(n)]
        move = rnd.random()
        if move < 0.4:
            e, f = rnd.sample(range(n), 2)
            step = Fraction(rnd.randint(1, 3), rnd.choice([2, 5, 8]))
            x[e] += step
            x[f] -= step
        elif move < 0.5:
            x[rnd.randrange(n)] += Fraction(1, 7)
        yield x


def test_polytope_dims():
    assert polytope_dim(Matroid.uniform(2, 4)) == 3
    assert polytope_dim(Matroid.uniform(3, 6)) == 5
    assert polytope_dim(Matroid.uniform(2, 5)) == 4
    rnd = random.Random(43)
    faces = [face_valuation(random_valuation(M, rnd),
                            [rnd.randint(-1, 1) for _ in range(M.n)]).matroid
             for M in CORPUS for _ in range(3)]  # many are disconnected
    for M in CORPUS + faces:
        verts = [[(b >> e) & 1 for e in range(M.n)] for b in M.sorted_bases()]
        rows = [[v[i] - verts[0][i] for i in range(M.n)] for v in verts[1:]]
        assert polytope_dim(M) == (integer_matrix_rank(rows) if rows else 0)


def test_trivial_subdivision():
    M = Matroid.uniform(2, 4)
    nu = Valuation(M, {b: Fraction(0) for b in M.bases})
    census = subdivision_cells(nu)
    assert census.spread == 1
    assert census.exploration_status == "exhaustive"
    assert census.maximal_cells[0] == M


def test_octahedron_splits_in_two():
    census = subdivision_cells(octahedron_valuation())
    assert census.spread == 2
    assert census.exploration_status == "exhaustive"
    sizes = sorted(len(cell.bases) for cell in census.maximal_cells)
    assert sizes == [5, 5]  # two square pyramids sharing the square
    rep = spread_report(octahedron_valuation())
    assert rep["spread"] == 2
    assert rep["bound_exponent_r_minus_2"] == 1
    assert rep["bound_exponent_r_minus_1"] == 2
    assert rep["within_r_minus_1"] and not rep["within_r_minus_2"]


def test_cells_are_matroids_and_cover():
    rnd = random.Random(7)
    for _ in range(12):
        n = rnd.choice([4, 5])
        nu = random_tree_metric_valuation(n, rnd)
        census = subdivision_cells(nu)
        assert census.exploration_status == "exhaustive"
        covered = set()
        for cell in census.maximal_cells:
            # Matroid construction already enforced axiom (B)
            assert polytope_dim(cell) == polytope_dim(nu.matroid)
            covered |= cell.bases
        assert covered == nu.matroid.bases


def test_adjacent_cells_meet_in_lower_dimensional_faces():
    census = subdivision_cells(octahedron_valuation())
    a, b = census.maximal_cells
    common = a.bases & b.bases
    assert len(common) == 4  # the shared square
    square = Matroid(4, 2, common)
    assert polytope_dim(square) == 2


def test_rank2_spread_equals_internal_vertices():
    rnd = random.Random(19)
    for _ in range(10):
        n = rnd.choice([4, 5, 6])
        nu = random_tree_metric_valuation(n, rnd)
        census = subdivision_cells(nu)
        assert census.exploration_status == "exhaustive"
        T = decode_tree(nu)
        assert census.spread == len(T.internal_vertices())


def test_sparse_paving_spread():
    nu = valuation_from_matroid(N3)
    census = subdivision_cells(nu)
    assert census.spread == 3
    assert census.exploration_status == "exhaustive"


def test_subdivision_invariant_under_shift():
    rnd = random.Random(29)
    done = 0
    while done < 50:
        n = rnd.choice([4, 5])
        nu = (random_tree_metric_valuation(n, rnd) if rnd.random() < 0.5
              else valuation_from_matroid(random_sparse_paving(2, n, rnd)))
        mu = shift(nu, random_shift_vector(n, rnd))
        ca = subdivision_cells(nu)
        cb = subdivision_cells(mu)
        assert ca.exploration_status == cb.exploration_status == "exhaustive"
        assert ca.cell_basis_families() == cb.cell_basis_families()
        done += 1


def test_locate_cell_rejects_outside_points():
    nu = octahedron_valuation()
    assert locate_cell(nu, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]) is not None
    assert locate_cell(nu, [Fraction(2), Fraction(0), Fraction(0), Fraction(0)]) is None
    assert locate_cell(nu, [Fraction(1, 2)] * 3 + [Fraction(1, 3)]) is None  # x(E) != r
    # the centre lies on the shared square; a point off it is in one pyramid
    square = locate_cell(nu, [Fraction(1, 2)] * 4)
    assert square.bases == frozenset(set_to_mask(p) for p in [(0, 2), (0, 3), (1, 2), (1, 3)])
    q = [Fraction(3, 5), Fraction(3, 5), Fraction(2, 5), Fraction(2, 5)]
    assert locate_cell(nu, q).bases == square.bases | {set_to_mask((0, 1))}


def test_locate_cell_refuses_a_point_of_the_wrong_length():
    nu = octahedron_valuation()
    with pytest.raises(ValuationInputError, match="3 coordinates"):
        locate_cell(nu, [Fraction(1), Fraction(1), Fraction(0)])
    # a fifth coordinate was dropped once, locating (1, 1, 0, 0)
    with pytest.raises(ValuationInputError, match="5 coordinates"):
        locate_cell(nu, [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(5)])


def test_walk_guards_hold_for_every_entry_point():
    # n = 11 > DESK_SCALE_WALK_N, and C(10, 3) = 120 > DESK_SCALE_COORDS = 70
    for M in (Matroid.uniform(2, 11), Matroid.uniform(3, 10)):
        nu = Valuation(M, {b: Fraction(0) for b in M.bases})
        inside = [Fraction(M.r, M.n)] * M.n
        outside = [Fraction(M.r)] + [Fraction(0)] * (M.n - 1)  # x_0 = r > rk({0}) = 1
        with pytest.raises(ScaleLimitError):
            subdivision_cells(nu)
        with pytest.raises(ScaleLimitError):
            spread_report(nu)
        for point in (inside, outside):
            with pytest.raises(ScaleLimitError):
                locate_cell(nu, point)


def test_repeated_calls_return_identical_output():
    for nu in (octahedron_valuation(), valuation_from_matroid(N3)):
        runs = [subdivision_cells(nu) for _ in range(3)]
        outs = {(c.spread, c.exploration_status,
                 tuple(tuple(cell.sorted_bases()) for cell in c.maximal_cells))
                for c in runs}
        assert len(outs) == 1


def test_walk_matches_reference_explorer():
    for nu in walk_corpus():
        reference = reference_subdivision_cells(nu)
        assert reference.exploration_status == "exhaustive"
        assert subdivision_cells(nu).cell_basis_families() == reference.cell_basis_families()


def test_integer_walk_matches_fraction_walk():
    corpus = walk_corpus()
    corpus += [valuation_from_matroid(modular_stable_matroid(6, 3, k)) for k in range(6)]
    corpus += [valuation_from_matroid(N) for N in all_sparse_paving_matroids(3, 6)]
    rnd = random.Random(53)
    corpus += [random_valuation(M, rnd) for M in (Matroid.uniform(3, 6), Matroid.uniform(2, 7))
               for _ in range(8)]
    assert len(corpus) == 21 + 6 + 271 + 16
    for nu in corpus:
        expected = reference_walk_cells(nu)
        frame = _frame(nu.matroid)
        bases, cells = frame[0], _walk(nu, frame)
        walked = {frozenset(bases[i] for i in mask_to_set(cell)):
                  {b: Fraction(g, den) for b, g in zip(bases, gs)}
                  for cell, (den, gs) in cells.items()}
        assert walked == expected  # the same tight sets with the same gaps
        assert subdivision_cells(nu).cell_basis_families() == set(expected)


def test_locate_cell_matches_fraction_reference():
    rnd = random.Random(67)
    corpus = walk_corpus()
    corpus += [random_valuation(M, rnd) for M in CORPUS]
    corpus += [random_tree_metric_valuation(n, rnd) for n in range(4, 8)]
    corpus += [valuation_from_matroid(modular_stable_matroid(6, 3, k)) for k in range(6)]
    located = outside = 0
    for nu in corpus:
        for x in sample_points(nu, rnd, 7):
            face, expected = locate_cell(nu, x), reference_locate_face(nu, x)
            assert (face is None) == (expected is None)
            if face is None:
                outside += 1
            else:
                assert face.bases == expected.bases
            located += 1
    assert located >= 250 and outside >= 30, (located, outside)


def sparse_paving_valuations(r, n):
    return [valuation_from_matroid(N) for N in all_sparse_paving_matroids(r, n)]


@pytest.mark.parametrize("r,n", [(2, 5), (2, 6), (3, 6)])
def test_residue_matroids_hold_every_sampled_residue_matroid(r, n):
    found = {M.bases for M in residue_matroids(sparse_paving_valuations(r, n))}
    for seed in range(3):
        sampled = {M.bases for M in sampled_residue_matroids(r, n, samples=60, seed=seed)}
        assert sampled <= found, (seed, len(sampled - found))
    assert len(sampled) < len(found)  # sampling misses some faces the walk finds


@pytest.mark.parametrize("r,n", [(2, 5), (3, 6)])
def test_residue_matroids_hold_every_maximal_cell_and_located_face(r, n):
    nus = sparse_paving_valuations(r, n)
    found = residue_matroids(nus)
    families = [M.bases for M in found]
    assert len(set(families)) == len(families)
    assert families == sorted(families, key=sorted)
    assert all(M.n == n and M.r == r for M in found)
    found = set(families)
    rnd = random.Random(71)
    located = 0
    for nu in nus:
        assert nu.matroid.bases in found or len(nus) == 1
        assert subdivision_cells(nu).cell_basis_families() <= found
        for x in sample_points(nu, rnd, 3):
            face = locate_cell(nu, x)
            if face is not None:
                assert face.bases in found
                located += 1
    assert located >= len(nus)


@pytest.mark.parametrize("r,n", [(1, 5), (2, 5), (2, 6)])
def test_residue_matroids_of_dual_ranks_are_dual(r, n):
    # nu_{N*}(E - B) = nu_N(B), and N runs over every sparse paving matroid
    # of rank r exactly when N* runs over those of rank n - r
    low = residue_matroids(sparse_paving_valuations(r, n))
    high = residue_matroids(sparse_paving_valuations(n - r, n))
    assert len(low) == len(high)
    assert {M.dual().bases for M in low} == {M.bases for M in high}


def test_residue_matroids_are_every_face_of_one_subdivision():
    # the octahedron splits along a square through four of its vertices
    # into two pyramids, which add no vertex, edge or triangle: 6 vertices,
    # 12 edges, 8 triangles, the square and the two pyramids
    faces = residue_matroids([octahedron_valuation()])
    assert len(faces) == 6 + 12 + 8 + 1 + 2
    assert sorted(len(M.bases) for M in faces)[-3:] == [4, 5, 5]
    assert residue_matroids([]) == []


def test_residue_matroids_refuse_valuations_on_two_matroids():
    nus = [valuation_from_matroid(N) for N in (N3, Matroid.uniform(2, 4))]
    with pytest.raises(ValuationInputError, match="different matroids"):
        residue_matroids(nus)


def test_residue_matroids_build_the_level_table_once(monkeypatch):
    # every walk of one call shares its matroid's sorted bases, level masks
    # and polytope dimension
    nus = sparse_paving_valuations(3, 6)
    expected = residue_matroids(nus)
    built = []
    real = subdivision_module._levels
    monkeypatch.setattr(subdivision_module, "_levels",
                        lambda n, r, bases: built.append((n, r)) or real(n, r, bases))
    assert residue_matroids(nus) == expected
    assert (len(nus), built) == (271, [(6, 3)])
