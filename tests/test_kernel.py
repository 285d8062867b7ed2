"""The integer kernel against the Fraction kernel it replaced.

`reference_kernel` keeps the Fraction implementations of the three-term
check, the combinatorial type and the cell dimension; the brute-force
checker, which stays on Fractions, is the independent judge of validity.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import reference_kernel as ref
from dressian import (
    INF,
    Matroid,
    Valuation,
    all_sparse_paving_matroids,
    all_symbols,
    cell_dim,
    check_valuation,
    check_valuation_bruteforce,
    combinatorial_type,
    equivalent,
    set_to_mask,
    shift,
    valuation_from_matroid,
)
from dressian.valuation import symbol_table
from helpers import (
    CORPUS,
    perturbed_values,
    random_rational,
    random_shift_vector,
    random_valuation,
)


def stiefel_valuation(r, n, rnd, holes=0):
    """Tropical maximal minors of a random r x n rational matrix.

    nu(B) is the least sum of entries over bijections from the rows to B;
    `holes` entries are INF (the tropical zero), and a subset whose every
    bijection meets one is a non-basis.  Lifting to Puiseux series with
    generic leading coefficients realizes nu, so it is a valuation of the
    transversal matroid of its finite support.
    """
    A = [[random_rational(rnd, -6, 6, den=3) for _ in range(n)] for _ in range(r)]
    cells = [(i, j) for i in range(r) for j in range(n)]
    for i, j in rnd.sample(cells, holes):
        A[i][j] = INF
    vals = {}
    for b in combinations(range(n), r):
        sums = [
            sum(A[i][b[p[i]]] for i in range(r))
            for p in permutations(range(r))
            if all(A[i][b[p[i]]] is not INF for i in range(r))
        ]
        if sums:
            vals[set_to_mask(b)] = min(sums)
    return Valuation(Matroid(n, r, frozenset(vals)), vals)


def assert_kernels_agree(nu):
    free, full = ref.combinatorial_type(nu)
    t = combinatorial_type(nu)
    assert (t.symbols_equal, t.full_type) == (free, full)
    assert (t.z1_size, t.size) == (len(free), len(full))
    assert cell_dim(nu) == ref.cell_dim(nu)
    assert check_valuation(nu.matroid, nu.values) is ref.check_valuation(nu.matroid, nu.values)


def corpus_valuations():
    rnd = random.Random(11)
    for M in CORPUS:
        for _ in range(6):
            yield random_valuation(M, rnd)


def test_symbol_table_matches_generated_symbols():
    for n, r in [(4, 2), (6, 2), (6, 3), (7, 3), (8, 4), (3, 3)]:
        table = symbol_table(n, r)
        assert list(table.symbols) == ref.all_symbols(n, r) == all_symbols(n, r)
        for sym, cross in zip(table.symbols, table.cross):
            assert cross == tuple(table.position[m] for m in sym.cross_sets())
        assert len(table.locations) * 3 == len(table.symbols)


def test_integer_view_scales_values_exactly():
    for nu in list(corpus_valuations())[::5]:
        table = symbol_table(nu.matroid.n, nu.matroid.r)
        assert nu.denominator > 0
        assert all((v * nu.denominator).denominator == 1 for v in nu.values.values())
        for m, x in zip(table.subsets, nu.scaled):
            if m in nu.matroid.bases:
                assert x == nu.values[m] * nu.denominator
            else:
                assert x is INF
    nu = shift(valuation_from_matroid(Matroid.uniform(2, 4)), [Fraction(-1, 6)] * 4)
    assert nu.denominator == 3 and set(nu.scaled) == {-1}


def test_corpus_agrees_with_reference():
    for nu in corpus_valuations():
        assert_kernels_agree(nu)


def test_all_sparse_paving_of_rank_3_on_6_agree_with_reference():
    matroids = all_sparse_paving_matroids(3, 6)
    assert len(matroids) == 271
    dims = []
    for N in matroids:
        nu = valuation_from_matroid(N)
        free, full = ref.combinatorial_type(nu)
        t = combinatorial_type(nu)
        assert (t.symbols_equal, t.full_type) == (free, full)
        dims.append(cell_dim(nu, t))
        assert dims[-1] == ref.cell_dim(nu)
    assert max(dims) == 10


def test_shifts_with_denominators_and_negative_values_agree():
    rnd = random.Random(17)
    for M in CORPUS:
        nu = random_valuation(M, rnd)
        for _ in range(3):
            w = random_shift_vector(M.n, rnd)
            mu = shift(nu, w)
            assert mu.denominator > 1 or all(x.denominator == 1 for x in w)
            assert_kernels_agree(mu)
            assert equivalent(nu, mu)
            scaled = Valuation(M, {b: Fraction(-7, 3) + v / 5 for b, v in mu.values.items()})
            assert min(scaled.values.values()) < 0
            assert_kernels_agree(scaled)


@pytest.mark.parametrize("holes", [0, 4])
def test_stiefel_valuations_on_seven_agree(holes):
    rnd = random.Random(23 + holes)
    seen = []
    for _ in range(5):
        nu = stiefel_valuation(3, 7, rnd, holes)
        assert_kernels_agree(nu)
        seen.append(nu)
    # equivalence is equality of the reference types over Z1(M)
    for nu, mu in combinations(seen, 2):
        if nu.matroid == mu.matroid:
            assert equivalent(nu, mu) == (
                ref.combinatorial_type(nu)[0] == ref.combinatorial_type(mu)[0])


def test_invalid_value_maps_agree_with_both_checkers():
    rnd = random.Random(29)
    sources = list(corpus_valuations())[::3]
    sources += [stiefel_valuation(3, 7, rnd, holes) for holes in (0, 0, 3)]
    rejected = 0
    for nu in sources:
        for _ in range(3):
            vals = perturbed_values(nu, rnd)
            fast = check_valuation(nu.matroid, vals)
            assert fast is ref.check_valuation(nu.matroid, vals)
            assert fast == check_valuation_bruteforce(nu.matroid, vals)
            rejected += not fast
    assert rejected >= 10
