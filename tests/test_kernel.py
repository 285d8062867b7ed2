"""The integer kernel against the Fraction kernel it replaced.

`reference_kernel` keeps the Fraction implementations of the three-term
check, the combinatorial type and the cell dimension, the Fraction form of
the brute-force checker and the bit-shifting exchange check; the
brute-force checker is the independent judge of validity.  The rank and the
solver are compared with a Fraction rank and with substitution.
"""

import copy
import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

import dressian.linear as linear_module
import dressian.matroid as matroid_module
import dressian.valuation as valuation_module
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
    integer_matrix_rank,
    is_matroid,
    lower_bound_certificate,
    mask_to_set,
    modular_stable_matroid,
    r_subset_masks,
    set_to_mask,
    shift,
    solve_linear_system,
    sparse_paving_census,
    valuation_from_matroid,
)
from dressian.bounds import all_stable_sets
from dressian.matroid import _check_exchange, _exchange_holds, _nonbases_stable
from dressian.rationals import integer_vector, lowest_terms
from dressian.valuation import symbol_table
from helpers import (
    CORPUS,
    perturbed_values,
    random_rational,
    random_shift_vector,
    random_sparse_paving,
    random_valuation,
    stiefel_valuation,
)
from test_valuation import forced_symbol_corpus


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
        for k, loc in enumerate(table.locations):
            ab_cd, ac_bd, ad_bc = table.symbols[3 * k:3 * k + 3]
            assert loc == tuple(table.position[m] for m in ab_cd.own_sets() + ab_cd.cross_sets())
            assert ac_bd.own_sets() + ad_bc.own_sets() == ab_cd.cross_sets()
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
    # the two helpers every view goes through, against Fraction arithmetic
    rnd = random.Random(83)
    assert integer_vector([]) == (1, []) and lowest_terms(6, ()) == (1, ())
    for _ in range(200):
        qs = [random_rational(rnd, -5, 5, rnd.randint(1, 12)) for _ in range(rnd.randint(1, 6))]
        den, ints = integer_vector(str(q) for q in qs)
        assert ints == [q * den for q in qs] and gcd(den, *ints) == 1  # so den is least
        xs = [INF if rnd.random() < 0.3 else x * 4 for x in ints]
        low, ys = lowest_terms(den * 4, xs)
        assert [y if y is INF else Fraction(y, low) for y in ys] == [
            x if x is INF else Fraction(x, den * 4) for x in xs]
        assert low == den * 4 // gcd(den * 4, *(x for x in xs if x is not INF))
    assert lowest_terms(4, (INF, INF)) == (1, (INF, INF))


def test_corpus_agrees_with_reference():
    for nu in corpus_valuations():
        assert_kernels_agree(nu)


def test_forced_symbol_corpus_agrees_with_reference():
    # valuations whose matroids have Z0(M) rows, which the type adds
    # untested and `_ties` checks at nu
    valuations = forced_symbol_corpus()
    assert len(valuations) == 42
    assert sum(len(valuation_module._z_rows(nu.matroid)[1]) for nu in valuations) >= 100
    for nu in valuations:
        assert_kernels_agree(nu)


def tie_corpus():
    """The kernel corpus, every nu_N at (3,6) and Stiefel valuations."""
    rnd = random.Random(89)
    return [*corpus_valuations(),
            *(valuation_from_matroid(N) for N in all_sparse_paving_matroids(3, 6)),
            *(stiefel_valuation(r, n, rnd, holes)
              for r, n in [(3, 6), (3, 7), (4, 8)] for holes in (0, 2))]


def test_each_z1_location_ties_one_pair_sum_or_all_three():
    # the minimum of the three pairing sums is attained twice, so a Z1(M)
    # location ties one pair or all three; the tie record gives one hull
    # row or two for it, location by location, then one row per Z0(M)
    # symbol, each with the mask of its four positions
    seen = Counter()
    for nu in tie_corpus():
        free_ids, quads, masks = valuation_module._ties(nu)
        v, free = nu.scaled, set(free_ids)
        assert free_ids == combinatorial_type(nu).free_ids == tuple(sorted(free))
        assert masks == tuple(sum(1 << p for p in quad) for quad in quads)
        z1_locations, z0_rows = valuation_module._z_rows(nu.matroid)
        rows = iter(quads)
        for i, ab, cd, ac, bd, ad, bc, *_masks in z1_locations:
            p, q, s = v[ab] + v[cd], v[ac] + v[bd], v[ad] + v[bc]
            ties = (p == q) + (q == s) + (p == s)
            assert ties in (1, 3) and len(free & {i, i + 1, i + 2}) == ties
            for sac, sbd, sad, sbc in [next(rows) for _ in range(1 if ties == 1 else 2)]:
                assert {sac, sbd, sad, sbc} <= {ab, cd, ac, bd, ad, bc}
                assert v[sac] + v[sbd] == v[sad] + v[sbc]
            seen[ties] += 1
        assert [next(rows) for _ in z0_rows] == [row[1:5] for row in z0_rows]
        assert next(rows, None) is None
    assert seen[1] > seen[3] > 0


def test_the_tie_record_is_read_once_and_kept(monkeypatch):
    fills = []
    read = valuation_module._ties
    monkeypatch.setattr(valuation_module, "_ties",
                        lambda nu: fills.append(nu._tied is None) or read(nu))
    record = sparse_paving_census(3, 6, with_dims=True)
    # the type and then cell_dim ask; only the type reads the sums
    assert (len(fills), sum(fills), record.max_cell_dim) == (542, 271, 10)
    monkeypatch.undo()
    for nu in tie_corpus():
        t, d = combinatorial_type(nu), cell_dim(nu)
        kept = nu._tied
        assert read(nu) is kept and all(type(part) is tuple for part in kept)
        fresh = Valuation._from_scaled(nu.matroid, nu.denominator, nu.scaled)
        assert fresh._tied is None and read(fresh) == kept
    for clone in (copy.copy(nu), pickle.loads(pickle.dumps(nu))):
        assert clone._tied == kept and clone == nu and hash(clone) == hash(nu)
        assert (combinatorial_type(clone), cell_dim(clone)) == (t, d)


def test_all_sparse_paving_of_rank_3_on_6_agree_with_reference():
    matroids = all_sparse_paving_matroids(3, 6)
    assert len(matroids) == 271
    dims = []
    for N in matroids:
        nu = valuation_from_matroid(N)
        free, full = ref.combinatorial_type(nu)
        t = combinatorial_type(nu)
        assert (t.symbols_equal, t.full_type) == (free, full)
        dims.append(cell_dim(nu))
        assert dims[-1] == ref.cell_dim(nu)
    assert max(dims) == 10


def force_certificate(monkeypatch):
    """Make the rank bounds of `cell_dim` never meet, so that every call
    certifies its rank by the kernel of the GF(2) basis rows."""
    real = linear_module._hull_rank_bounds
    monkeypatch.setattr(linear_module, "_hull_rank_bounds",
                        lambda masks, subsets: (real(masks, subsets)[0], len(masks) + 1))


def spied_certificate(monkeypatch):
    """Per `_certified_rank` call (rows handed in, GF(2) basis rows, rank),
    the rows each of its eliminations took, and the `integer_matrix_rank`
    calls, all in call order."""
    certified, eliminated, ranked = [], [], []
    certify, eliminate = linear_module._certified_rank, linear_module._eliminate

    def certify_spy(quads, independent, ncols):
        certified.append((len(quads), len(independent), certify(quads, independent, ncols)))
        return certified[-1][2]

    def eliminate_spy(rows, reduced=False):
        assert reduced, "the certificate takes the reduced echelon form"
        eliminated.append(len(rows))
        return eliminate(rows, reduced)

    monkeypatch.setattr(linear_module, "_certified_rank", certify_spy)
    monkeypatch.setattr(linear_module, "_eliminate", eliminate_spy)
    monkeypatch.setattr(linear_module, "integer_matrix_rank",
                        lambda rows: ranked.append(len(rows)))
    return certified, eliminated, ranked


def test_cell_dim_hands_two_rows_per_fully_tied_location_to_the_rank(monkeypatch):
    force_certificate(monkeypatch)
    certified, eliminated, ranked = spied_certificate(monkeypatch)
    dims = [cell_dim(valuation_from_matroid(N)) for N in all_sparse_paving_matroids(3, 6)]
    assert ranked == []
    # one row per symbol of [nu] would be 13050 rows; the GF(2) basis rows
    # already have the full rank, so each certificate eliminates only those,
    # once
    assert (sum(rows for rows, _low, _rank in certified), sum(dims)) == (10590, 2326)
    assert all(low == rank for _rows, low, rank in certified)
    assert eliminated == [low for _rows, low, _rank in certified]
    assert sum(eliminated) == 20 * 271 - 2326


# ---------------------------------------------------------------------------
# The rank certificate of cell_dim against elimination and the Fraction rank


def certificate_corpus():
    """Random values and shifts on CORPUS, Stiefel valuations with holes
    from (2,5) to (5,8), every nu_N at (2,5), (2,6), (3,5), (3,6) and
    (4,6), and the modular nu_N for C(n, r) <= 70."""
    rnd = random.Random(73)
    for M in CORPUS:
        for _ in range(4):
            nu = random_valuation(M, rnd)
            yield nu
            yield shift(nu, random_shift_vector(M.n, rnd))
    for r, n in [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 7), (3, 8), (4, 8), (5, 8)]:
        for holes in (0, 2, 4):
            yield stiefel_valuation(r, n, rnd, holes)
    for r, n in [(2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]:
        for N in all_sparse_paving_matroids(r, n):
            yield valuation_from_matroid(N)
    for n in range(4, 9):
        for r in range(2, n - 1):
            if comb(n, r) <= 70:
                for k in range(n):
                    yield valuation_from_matroid(modular_stable_matroid(n, r, k))


def spied_bounds(monkeypatch):
    """The (lower, upper) pairs `cell_dim` computes, in call order."""
    seen = []
    real = linear_module._hull_rank_bounds

    def spy(masks, subsets):
        independent, high = real(masks, subsets)
        seen.append((len(independent), high))
        return independent, high

    monkeypatch.setattr(linear_module, "_hull_rank_bounds", spy)
    return seen


def eliminated_dim(nu):
    """The number of bases minus the rank, by `integer_matrix_rank`, of one
    dense row per symbol of [nu]."""
    table = symbol_table(nu.matroid.n, nu.matroid.r)
    rows = []
    for sym in combinatorial_type(nu).full_type:
        row = [0] * len(table.subsets)
        sac, sbd, sad, sbc = (table.position[m] for m in sym.cross_sets())
        row[sac] = row[sbd] = 1
        row[sad] = row[sbc] = -1
        rows.append(row)
    return len(nu.matroid.bases) - (integer_matrix_rank(rows) if rows else 0)


def test_rank_certificate_matches_elimination_and_the_fraction_rank(monkeypatch):
    valuations = list(certificate_corpus())
    bounds = spied_bounds(monkeypatch)
    dims = [cell_dim(nu) for nu in valuations]
    assert dims == [eliminated_dim(nu) for nu in valuations]
    force_certificate(monkeypatch)
    assert dims == [cell_dim(nu) for nu in valuations]
    certified = 0
    for nu, d, (low, high) in zip(valuations, dims, bounds):
        rank = len(nu.matroid.bases) - d
        assert low <= rank <= high
        certified += low == high
        # the (3,6) census and larger inputs meet the Fraction oracle elsewhere
        if comb(nu.matroid.n, nu.matroid.r) <= 21 and (nu.matroid.n, nu.matroid.r) != (6, 3):
            assert d == ref.cell_dim(nu)
    assert (len(valuations), certified) == (666, 643)


def test_census_cells_are_certified_and_generic_stiefel_cells_eliminated(monkeypatch):
    bounds = spied_bounds(monkeypatch)
    certified, eliminated, ranked = spied_certificate(monkeypatch)
    sparse_paving_census(3, 6, with_dims=True)
    assert len(bounds) == 271 and all(low == high for low, high in bounds)
    assert certified == eliminated == ranked == []
    nu = stiefel_valuation(4, 8, random.Random(61))
    d = cell_dim(nu)
    # the bounds differ; only the GF(2) basis rows are eliminated, and once
    (low, high), = bounds[271:]
    (rows, basis, rank), = certified
    assert low == basis < high and eliminated == [basis] and ranked == []
    assert (rows, basis, rank, d) == (429, 54, 54, 16)
    monkeypatch.undo()
    assert d == eliminated_dim(nu)


def test_rank_bounds_on_hand_checked_rows():
    table = symbol_table(4, 2)
    # the row masks of the three symbols of the one location of U(2,4)
    ab_cd, ac_bd, ad_bc = (sum(1 << table.position[m] for m in sym.cross_sets())
                           for sym in table.symbols)
    bounds = linear_module._hull_rank_bounds
    assert bounds([], table.subsets) == ([], 0)
    # one row: six coordinates, 4 of them in the support, lineality 1 + 2
    assert bounds([ab_cd], table.subsets) == ([0], 1)
    # two rows: all six pairs, whose differences span the even sets of F_2^4
    assert bounds([ab_cd, ac_bd], table.subsets) == ([0, 1], 2)
    assert bounds([ab_cd, ac_bd, ad_bc], table.subsets) == ([0, 1], 2)


def test_the_certificate_grows_past_the_gf2_rank(monkeypatch):
    # e0 + e1 - e2 - e3 and e0 + e2 - e1 - e3 agree mod 2 and are
    # independent over Q: the one GF(2) basis row misses the second row,
    # which the next round adds
    quads = [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert linear_module._gf2_basis([0b1111, 0b1111]) == [0]
    _certified, eliminated, _ranked = spied_certificate(monkeypatch)
    assert linear_module._certified_rank(quads, [0], 4) == 2
    assert eliminated == [1, 2]  # the start row, then it and the failing row
    # from no rows at all, and with a column no row touches
    eliminated.clear()
    assert linear_module._certified_rank(quads, [], 5) == 2
    assert eliminated == [0, 2]
    # rows said to be independent that are not
    with pytest.raises(matroid_module.InvariantViolation):
        linear_module._certified_rank([quads[0], quads[0]], [0, 1], 4)


def test_packed_lanes_never_carry_into_one_another():
    # the row e0 + e1 - e2 - e3 takes 4 on the first vector and -1 on the
    # second (lanes 2 bits wide would add up to 4 - 4 = 0 and pass it); the
    # second row annihilates both, the third only the first
    kernel = [[(0, 1), (1, 1), (2, -1), (3, -1)], [(0, -1)]]
    quads = [(0, 1, 2, 3), (1, 2, 4, 5), (0, 2, 1, 3)]
    assert linear_module._outside(kernel, quads, 6) == [0, 2]
    assert linear_module._outside([[(c, 5 * a) for c, a in x] for x in kernel], quads, 6) == [0, 2]
    assert linear_module._outside([], quads, 6) == []


def test_the_certificate_matches_elimination_on_random_rows():
    rnd = random.Random(89)
    grown = 0
    for _ in range(300):
        ncols = rnd.randint(4, 12)
        quads = [tuple(rnd.sample(range(ncols), 4)) for _ in range(rnd.randint(1, 14))]
        rows = []
        for sac, sbd, sad, sbc in quads:
            row = [0] * ncols
            row[sac] = row[sbd] = 1
            row[sad] = row[sbc] = -1
            rows.append(row)
        rank = integer_matrix_rank(rows)
        basis = linear_module._gf2_basis([sum(1 << c for c in quad) for quad in quads])
        assert len(basis) <= rank
        grown += len(basis) < rank
        for start in (basis, basis[:rnd.randint(0, len(basis))]):
            assert linear_module._certified_rank(quads, start, ncols) == rank
    assert grown >= 10


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


# ---------------------------------------------------------------------------
# The direct checker and the exchange check against their old loops


def assert_checkers_agree(M, vals):
    """Both direct checkers and the three-term check give one verdict."""
    slow = ref.check_valuation_bruteforce(M, vals)
    assert check_valuation_bruteforce(M, vals) is slow
    assert check_valuation(M, vals) is slow
    return slow


def broken_copies(nu, rnd, count):
    return [perturbed_values(nu, rnd) for _ in range(count)]


def test_bruteforce_matches_reference_on_corpus():
    rnd = random.Random(31)
    verdicts = []
    for nu in list(corpus_valuations())[::2]:
        assert assert_checkers_agree(nu.matroid, nu.values)
        verdicts += [assert_checkers_agree(nu.matroid, vals)
                     for vals in broken_copies(nu, rnd, 2)]
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 1
    for M in CORPUS:
        assert _check_exchange(M.n, M.r, M.bases) is ref.check_exchange(M.n, M.r, M.bases)


def test_bruteforce_matches_reference_on_sparse_paving_of_rank_3_on_6():
    rnd = random.Random(37)
    matroids = all_sparse_paving_matroids(3, 6)
    for N in matroids[::3]:
        nu = valuation_from_matroid(N)
        assert assert_checkers_agree(nu.matroid, nu.values)
        vals = dict(nu.values)
        vals[rnd.choice(sorted(vals))] += Fraction(1, 3)
        assert_checkers_agree(nu.matroid, vals)
    for N in matroids:
        assert _check_exchange(N.n, N.r, N.bases) is ref.check_exchange(N.n, N.r, N.bases)


@pytest.mark.parametrize("r,n,holes", [(3, 7, 0), (3, 7, 8), (4, 8, 0), (4, 8, 12)])
def test_bruteforce_matches_reference_on_stiefel(r, n, holes):
    rnd = random.Random(41 + 7 * r + holes)
    rejected = 0
    for _ in range(2):
        nu = stiefel_valuation(r, n, rnd, holes)
        M = nu.matroid
        # with holes, some r-subsets are non-bases, where the value is INF
        assert (len(M.bases) < len(r_subset_masks(n, r))) == bool(holes)
        assert assert_checkers_agree(M, nu.values)
        assert _check_exchange(n, r, M.bases) is ref.check_exchange(n, r, M.bases) is True
        for vals in broken_copies(nu, rnd, 2):
            rejected += not assert_checkers_agree(M, vals)
    assert rejected >= 2


def test_exchange_check_matches_reference_on_random_families():
    rnd = random.Random(43)
    verdicts = []
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 2), (7, 3)]:
        subsets = r_subset_masks(n, r)
        for _ in range(40):
            family = frozenset(rnd.sample(subsets, rnd.randint(1, len(subsets))))
            verdict = ref.check_exchange(n, r, family)
            assert _check_exchange(n, r, family) is verdict
            assert is_matroid(n, r, family) is verdict
            verdicts.append(verdict)
        # a matroid with one basis removed is often not a matroid
        M = Matroid.uniform(r, n)
        for b in rnd.sample(subsets, 5):
            family = M.bases - {b}
            assert _check_exchange(n, r, family) is ref.check_exchange(n, r, family)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 10


def test_the_exchange_walk_is_b_at_zero_and_v_on_integer_maps():
    """`_exchange_holds` against both oracles: (B) on the keys of a zero map,
    stable complements included, and (V) on integer maps over the corpus."""
    rnd = random.Random(53)
    verdicts = Counter()
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 2), (7, 3)]:
        subsets = r_subset_masks(n, r)
        families = [frozenset(rnd.sample(subsets, rnd.randint(1, len(subsets))))
                    for _ in range(30)]
        if comb(n, r) <= 20:  # J(3, 7) alone has 5596 stable sets to list
            full = frozenset(subsets)
            families += [full - set(s) for s in rnd.sample(all_stable_sets(r, n), 10)]
        for family in families:
            verdict = ref.check_exchange(n, r, family)
            assert _exchange_holds(dict.fromkeys(family, 0)) is verdict
            verdicts["B", verdict] += 1
    for M in CORPUS:
        maps = [{b: rnd.randint(-1, 1) for b in M.bases} for _ in range(12)]
        for _ in range(3):
            values = random_valuation(M, rnd).values
            maps.append(dict(zip(values, integer_vector(values.values())[1])))
        for v in maps:
            verdict = ref.check_valuation_bruteforce(M, v)
            assert _exchange_holds(v) is check_valuation_bruteforce(M, v) is verdict
            verdicts["V", verdict] += 1
    assert set(verdicts) == {("B", True), ("B", False), ("V", True), ("V", False)}


@pytest.mark.parametrize("r,n", [(3, 6), (3, 7), (4, 8)])
def test_the_pair_walk_agrees_with_both_oracles(r, n):
    """One walk per unordered pair against the ordered oracles: Stiefel
    valuations with and without holes, copies with one value lowered, the
    zero maps of their families and of a family with one basis removed."""
    rnd = random.Random(97 + 5 * r + n)
    verdicts = Counter()
    for holes in (0, 0, r + 2):
        nu = stiefel_valuation(r, n, rnd, holes)
        M = nu.matroid
        maps = [nu.values]
        for _ in range(2):
            vals = dict(nu.values)
            vals[rnd.choice(sorted(vals))] -= Fraction(1, rnd.randint(7, 13))
            maps.append(vals)
        for vals in maps:
            verdict = ref.check_valuation_bruteforce(M, vals)
            v = dict(zip(vals, integer_vector(vals.values())[1]))
            assert _exchange_holds(v) is check_valuation_bruteforce(M, vals) is verdict
            verdicts["V", verdict] += 1
        for family in (M.bases, M.bases - {rnd.choice(sorted(M.bases))}):
            verdict = ref.check_exchange(n, r, family)
            assert _exchange_holds(dict.fromkeys(family, 0)) is verdict
            verdicts["B", verdict] += 1
    assert verdicts["V", True] >= 3 and verdicts["V", False] >= 2
    assert verdicts["B", True] >= 3


def test_the_pair_walk_checks_the_reversed_order():
    # on the first pair, B1 = 012 and B2 = 345, every e of B1 has the witness
    # f = 3, but f = 4 has no witness e: (B1, B2) holds and (B2, B1) fails,
    # and the walk, which checks that pair in its first order only, refuses
    # the map on a later pair
    b1, b2 = set_to_mask((0, 1, 2)), set_to_mask((3, 4, 5))
    v = {b1: 0, b2: 0}
    for e in (0, 1, 2):
        for f in (3, 4, 5):
            v[b1 ^ 1 << e | 1 << f] = v[b2 ^ 1 << f | 1 << e] = 0 if f == 3 else 1
    assert ref.check_valuation_bruteforce(Matroid.uniform(3, 6), v) is False
    seen = []

    class Looked(dict):
        def get(self, key, default=None):
            seen.append(key)
            return dict.get(self, key, default)

    assert _exchange_holds(Looked(v)) is False
    assert set(seen) <= set(v) - {b1, b2}


def key_orders(keys, rnd):
    """The keys sorted, reversed and shuffled: the walk meets each pair in
    the order of its keys, and its verdict must not depend on it."""
    ordered = sorted(keys)
    shuffled = ordered[:]
    rnd.shuffle(shuffled)
    return ordered, ordered[::-1], shuffled


def assert_one_order_decides(n, r, v, rnd):
    """The walk in three key orders against the ordered oracles: (V) on v
    and, on v's keys, (B), which the zero map's (V) is."""
    M = Matroid.uniform(r, n)
    want_v = ref.check_valuation_bruteforce(M, v)
    want_b = ref.check_exchange(n, r, frozenset(v))
    for keys in key_orders(v, rnd):
        assert _exchange_holds({k: v[k] for k in keys}) is want_v, (n, r, v)
        assert _exchange_holds(dict.fromkeys(keys, 0)) is want_b, (n, r, keys)
    return want_v, want_b


def test_one_order_per_pair_decides_every_small_family_and_map():
    """The lemma in `_exchange_holds`' docstring, tried exhaustively where
    that is cheap: every nonempty family at (4,2) and (5,2), and every map
    into {0, 1, hole} at (4,2); then a seeded sample of such maps at (5,2)
    and, since few random maps pass at (6,3), nu_N of random sparse paving
    N there, with one value moved or one key dropped.  Both verdicts of
    both axioms must occur."""
    rnd = random.Random(61)
    verdicts = Counter()
    for n, r in [(4, 2), (5, 2)]:
        subsets = r_subset_masks(n, r)
        for bits in range(1, 1 << len(subsets)):
            family = [m for i, m in enumerate(subsets) if bits >> i & 1]
            verdicts["B", assert_one_order_decides(n, r, dict.fromkeys(family, 0), rnd)[1]] += 1
    subsets = r_subset_masks(4, 2)
    for values in product((0, 1, None), repeat=len(subsets)):
        v = {m: x for m, x in zip(subsets, values) if x is not None}
        verdicts["V", assert_one_order_decides(4, 2, v, rnd)[0]] += 1
    subsets = r_subset_masks(5, 2)
    for _ in range(300):
        holes = rnd.random() * 0.2
        v = {m: rnd.randint(0, 1) for m in subsets if rnd.random() >= holes}
        verdicts["V", assert_one_order_decides(5, 2, v, rnd)[0]] += 1
    sampled = Counter()
    for _ in range(40):
        nu = valuation_from_matroid(random_sparse_paving(3, 6, rnd))
        v = dict(zip(r_subset_masks(6, 3), nu.scaled))
        m = rnd.choice(sorted(v))
        for w in (v, {**v, m: v[m] + rnd.choice((-1, 1))}, {k: v[k] for k in v if k != m}):
            sampled[assert_one_order_decides(6, 3, w, rnd)[0]] += 1
    assert sampled[True] >= 40 and sampled[False] >= 10
    assert set(verdicts) == {("B", True), ("B", False), ("V", True), ("V", False)}


def test_a_family_whose_first_pair_holds_in_one_order_is_refused():
    """{012, 345, 123, 023, 013, 045, 145, 245} with 012 and 345 first: every
    e of 012 has the witness f = 3 against 345, but 345 - 4 + f is in no
    key, so the first pair holds in its first order only.  The walk refuses
    the family on a later pair, as both oracles do."""
    family = [set_to_mask(s) for s in ((0, 1, 2), (3, 4, 5), (1, 2, 3), (0, 2, 3),
                                       (0, 1, 3), (0, 4, 5), (1, 4, 5), (2, 4, 5))]
    keys = set(family)
    b1, b2 = family[:2]

    def holds(x, y):
        return all(any(x ^ 1 << e | 1 << f in keys and y ^ 1 << f | 1 << e in keys
                       for f in mask_to_set(y & ~x)) for e in mask_to_set(x & ~y))

    assert holds(b1, b2) and not holds(b2, b1)
    assert ref.check_exchange(6, 3, frozenset(family)) is False
    assert ref.check_valuation_bruteforce(Matroid.uniform(3, 6), dict.fromkeys(family, 0)) is False
    assert _exchange_holds(dict.fromkeys(family, 0)) is False
    assert is_matroid(6, 3, family) is False


def test_the_direct_checker_builds_no_symbol_table(monkeypatch):
    rnd = random.Random(59)
    cases = [(nu.matroid, values) for nu in corpus_valuations()
             for values in (nu.values, perturbed_values(nu, rnd))]
    expected = [ref.check_valuation_bruteforce(M, values) for M, values in cases]

    def refuse(n, r):
        raise AssertionError("the direct checker built a symbol table")

    monkeypatch.setattr(valuation_module, "symbol_table", refuse)
    assert [check_valuation_bruteforce(M, values) for M, values in cases] == expected
    assert set(expected) == {True, False}


# ---------------------------------------------------------------------------
# The stable-set certificate in front of the exchange walk


@pytest.fixture()
def pair_loop_calls(monkeypatch):
    """The families `_check_exchange` hands to the exchange walk."""
    calls = []
    walk = matroid_module._exchange_holds

    def counted(v):
        calls.append(frozenset(v))
        return walk(v)

    monkeypatch.setattr(matroid_module, "_exchange_holds", counted)
    return calls


def within_size_gate(n, r, family):
    """A stable complement has at most |B| / max(r, n - r) members."""
    return (comb(n, r) - len(family)) * max(r, n - r) <= len(family)


@pytest.mark.parametrize("r, n, count", [(2, 6, 76), (3, 6, 271), (3, 7, 5596), (4, 7, 5596)])
def test_stable_complements_are_decided_by_the_certificate(r, n, count, pair_loop_calls):
    full = frozenset(r_subset_masks(n, r))
    stable_sets = all_stable_sets(r, n)
    assert len(stable_sets) == count
    for stable in stable_sets:
        family = full - set(stable)
        assert _check_exchange(n, r, family) is ref.check_exchange(n, r, family) is True
    assert pair_loop_calls == []


def test_near_uniform_families_match_reference(pair_loop_calls):
    """Every family missing one to three r-subsets, adjacent or not."""
    outcomes = Counter()
    for r, n in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]:
        subsets = r_subset_masks(n, r)
        full = frozenset(subsets)
        for k in (1, 2, 3):
            for removed in combinations(subsets, k):
                family = full - set(removed)
                verdict = ref.check_exchange(n, r, family)
                before = len(pair_loop_calls)
                assert _check_exchange(n, r, family) is verdict
                adjacent = not ref.is_sparse_paving(n, r, family)
                gated = within_size_gate(n, r, family)
                assert (len(pair_loop_calls) > before) is (adjacent or not gated)
                outcomes[adjacent, gated, verdict] += 1
    # a stable complement always passes the gate and is a matroid; adjacent
    # non-bases may make a matroid or not, also where the certificate was
    # tried and failed (the parallel class {0, 1, 2} in rank 2 on 6 elements)
    assert set(outcomes) == {(False, True, True),
                             (True, True, False), (True, True, True),
                             (True, False, False), (True, False, True)}
    # adjacent non-bases containing {0, 1}: a parallel pair of U(3, 6)
    family = frozenset(m for m in r_subset_masks(6, 3) if m & 0b11 != 0b11)
    before = len(pair_loop_calls)
    assert _check_exchange(6, 3, family) is ref.check_exchange(6, 3, family) is True
    assert len(pair_loop_calls) == before + 1


def test_size_gate_sends_large_complements_straight_to_the_pair_loop(monkeypatch,
                                                                      pair_loop_calls):
    def refuse(n, r, bases):
        raise AssertionError("certificate tried outside the size gate")

    uniform = lambda r, n: frozenset(r_subset_masks(n, r))
    masks = lambda *sets: {set_to_mask(s) for s in sets}
    # the tightest families the gate admits, (C(n, r) - |B|) max(r, n - r) = |B|
    for r, n, removed in [(2, 4, masks((0, 1), (2, 3))),
                          (2, 6, masks((0, 1), (2, 3), (4, 5)))]:
        family = uniform(r, n) - removed
        assert (comb(n, r) - len(family)) * max(r, n - r) == len(family)
        assert _check_exchange(n, r, family) is True
    assert pair_loop_calls == []
    monkeypatch.setattr(matroid_module, "_nonbases_stable", refuse)
    cases = [
        # one non-basis more than the gate admits at (2, 5): 3 * 3 > 7
        (2, 5, uniform(2, 5) - masks((0, 1), (0, 2), (1, 2)), True),
        (2, 5, uniform(2, 5) - masks((0, 1), (0, 2), (3, 4)), False),
        (2, 4, uniform(2, 4) - masks((0, 1), (0, 2), (1, 2)), True),
        (2, 6, uniform(2, 6) - masks((0, 1), (2, 3), (4, 5), (0, 2)), False),
        # a loop: the ten 3-subsets avoiding 0
        (3, 6, frozenset(m for m in r_subset_masks(6, 3) if not m & 1), True),
    ]
    rnd = random.Random(47)
    subsets = r_subset_masks(6, 3)
    for _ in range(60):
        family = frozenset(rnd.sample(subsets, rnd.randint(1, 14)))
        cases.append((3, 6, family, ref.check_exchange(6, 3, family)))
    for r, n, family, verdict in cases:
        assert not within_size_gate(n, r, family)
        before = len(pair_loop_calls)
        assert _check_exchange(n, r, family) is ref.check_exchange(n, r, family) is verdict
        assert len(pair_loop_calls) == before + 1
    assert {verdict for *_, verdict in cases} == {True, False}


def test_census_and_certificate_builds_skip_the_pair_loop(monkeypatch, pair_loop_calls):
    builds = []
    check = matroid_module._check_exchange

    def counted(n, r, bases):
        builds.append((n, r))
        return check(n, r, bases)

    monkeypatch.setattr(matroid_module, "_check_exchange", counted)
    assert len(all_sparse_paving_matroids(3, 6)) == 271
    assert builds == [(6, 3)] * 271
    builds.clear()
    Matroid.uniform.cache_clear()
    N, c, dim = lower_bound_certificate(8, 4)
    assert (c, dim) == (10, 18)
    assert builds == [(8, 4)] * 9  # the eight modular matroids and U(4, 8)
    assert pair_loop_calls == []


def test_two_basis_family_on_a_million_elements_lists_no_subsets(monkeypatch):
    def refuse(n, r):
        raise AssertionError("listed the r-subsets")

    monkeypatch.setattr(matroid_module, "_colex_subsets", refuse)
    n = 10**6
    started = time.perf_counter()
    for family, verdict in [({0b11, 0b101}, True), ({0b11, 0b1100}, False)]:
        family = frozenset(family)
        assert _check_exchange(n, 2, family) is ref.check_exchange(n, 2, family) is verdict
        assert is_matroid(n, 2, family) is verdict
    assert Matroid(n, 2, frozenset({0b11, 0b101})).r == 2
    assert time.perf_counter() - started < 1


def test_pairwise_stability_matches_the_neighbour_walk():
    # `_nonbases_stable` compares the non-bases pair by pair; the reference
    # walks every Johnson neighbour of each.  Each census family is stable,
    # and so is or is not the family less one more subset
    rnd = random.Random(97)
    seen = Counter()
    for r, n in [(2, 5), (3, 6), (4, 6)]:
        subsets = r_subset_masks(n, r)
        for N in all_sparse_paving_matroids(r, n):
            for family in (N.bases, N.bases - {rnd.choice(subsets)}):
                verdict = ref.is_sparse_paving(n, r, family)
                assert _nonbases_stable(n, r, family) is verdict
                seen[verdict] += 1
    for r, n in [(3, 7), (4, 8)]:
        subsets = r_subset_masks(n, r)
        for _ in range(300):
            family = frozenset(subsets) - set(rnd.sample(subsets, rnd.randint(0, 7)))
            verdict = ref.is_sparse_paving(n, r, family)
            assert _nonbases_stable(n, r, family) is verdict
            seen[verdict] += 1
    assert seen[True] >= 500 and seen[False] >= 500


def test_is_sparse_paving_matches_the_neighbour_test():
    for M in all_sparse_paving_matroids(3, 6):
        assert M.is_sparse_paving() is ref.is_sparse_paving(6, 3, M.bases) is True
    rnd = random.Random(53)
    seen = Counter()
    for n, r in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3)]:
        subsets = r_subset_masks(n, r)
        for _ in range(40):
            # mostly small complements, so that both answers occur
            family = frozenset(subsets) - set(rnd.sample(subsets, rnd.randint(0, 4)))
            verdict = ref.is_sparse_paving(n, r, family)
            assert _nonbases_stable(n, r, family) is verdict
            if ref.check_exchange(n, r, family):
                assert Matroid(n, r, family).is_sparse_paving() is verdict
                seen[verdict] += 1
    assert seen[True] >= 20 and seen[False] >= 5


# ---------------------------------------------------------------------------
# The elimination against a Fraction rank and against substitution


def random_sparse_rows(rnd, nrows, ncols, density=0.35):
    return [[rnd.choice((-2, -1, 1, 2)) if rnd.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


# first pivots -1 (negated), 2 and -2 (the general step), and a unit pivot
# whose update meets entries of 2
PIVOT_CASES = [
    [[-1, 2, 0], [2, 1, 1], [1, 0, -2]],
    [[2, 1, 0], [-2, 1, 1], [1, 1, 1]],
    [[-2, 1, 1, 0], [2, -1, -1, 0], [0, 2, 1, -1], [1, 0, 0, 2]],
    [[1, 2, -2], [2, 1, 0], [-1, -2, 2]],
]


def test_integer_rank_matches_fraction_rank_on_sparse_matrices():
    rnd = random.Random(47)
    matrices = [[list(row) for row in m] for m in PIVOT_CASES]
    for _ in range(150):
        matrices.append(random_sparse_rows(rnd, rnd.randint(1, 12), rnd.randint(1, 12)))
    for rows in matrices:
        before = [list(row) for row in rows]
        assert integer_matrix_rank(rows) == ref.fraction_rank(rows)
        assert rows == before  # the caller's rows are left alone


def test_solver_matches_substitution_on_sparse_systems():
    rnd = random.Random(53)
    systems = [(rows, [1] * len(rows)) for rows in PIVOT_CASES]
    for _ in range(150):
        rows = random_sparse_rows(rnd, rnd.randint(1, 10), rnd.randint(1, 10))
        if rnd.random() < 0.5:  # consistent by construction
            x0 = [rnd.randint(-2, 2) for _ in rows[0]]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        else:
            rhs = [rnd.randint(-2, 2) for _ in rows]
        systems.append((rows, rhs))
    solved = 0
    for rows, rhs in systems:
        variables = [f"x{j}" for j in range(len(rows[0]))]
        eqs = [({v: Fraction(a) for v, a in zip(variables, row) if a}, Fraction(b))
               for row, b in zip(rows, rhs)]
        sol = solve_linear_system(eqs, variables)
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        consistent = ref.fraction_rank(rows) == ref.fraction_rank(augmented)
        assert (sol is not None) == consistent
        if sol is not None:
            solved += 1
            for coeffs, b in eqs:
                assert sum(c * sol[v] for v, c in coeffs.items()) == b
    assert solved >= 75 and solved < len(systems)


# ---------------------------------------------------------------------------
# The per-column elimination against the swap-based routine it replaced


def assert_eliminations_agree(rows, reduced):
    new, old = [list(row) for row in rows], [list(row) for row in rows]
    pivots = linear_module._eliminate(new, reduced)
    assert pivots == ref.eliminate(old, reduced)
    assert len(new) == len(pivots)
    for row, col in zip(new, pivots):  # echelon rows with positive pivots
        assert row[col] > 0 and not any(row[:col])
    if reduced:  # the reduced echelon form is unique up to row scaling
        for a, b, col in zip(new, old, pivots):
            assert [x * b[col] for x in a] == [y * a[col] for y in b]


def captured_matrices(monkeypatch, compute):
    """The integer rows `compute()` hands to `_eliminate`, with `reduced`."""
    seen = []
    real = linear_module._eliminate

    def record(rows, reduced=False):
        seen.append(([list(row) for row in rows], reduced))
        return real(rows, reduced)

    with monkeypatch.context() as m:
        m.setattr(linear_module, "_eliminate", record)
        compute()
    return seen


def desk_edge_dims():
    """The cell dimensions of the desk_edge benchmark workload: the (8,4)
    lower-bound certificate, and generic Stiefel valuations at (3,8) and
    (4,8) with a shift of each."""
    lower_bound_certificate(8, 4)
    rnd = random.Random(61)
    for r in (3, 4):
        nu = stiefel_valuation(r, 8, rnd)
        cell_dim(nu)
        cell_dim(shift(nu, random_shift_vector(8, rnd)))


def test_elimination_matches_the_swap_oracle_on_census_and_desk_matrices(monkeypatch):
    force_certificate(monkeypatch)
    census = captured_matrices(
        monkeypatch, lambda: sparse_paving_census(3, 6, with_dims=True))
    assert len(census) == 271
    desk_edge = captured_matrices(monkeypatch, desk_edge_dims)
    assert len(desk_edge) == 5 and max(len(rows[0]) for rows, _ in desk_edge) == 70
    for rows, reduced in census + desk_edge:
        assert_eliminations_agree(rows, reduced)
        assert_eliminations_agree(rows, not reduced)


def captured_masks(monkeypatch, compute):
    """The mask lists `compute()` hands to `_gf2_basis`."""
    seen = []
    real = linear_module._gf2_basis

    def record(masks):
        seen.append(list(masks))
        return real(masks)

    with monkeypatch.context() as m:
        m.setattr(linear_module, "_gf2_basis", record)
        compute()
    return seen


def test_gf2_basis_matches_the_lowest_bit_oracle_on_census_and_desk_rows(monkeypatch):
    # keyed by highest bit, the basis admits the same masks: each is the
    # first one outside the span of those before it
    census = captured_masks(
        monkeypatch, lambda: sparse_paving_census(3, 6, with_dims=True))
    desk_edge = captured_masks(monkeypatch, desk_edge_dims)
    # two lists per cell_dim with rows, its rows and their support moves
    assert len(census) == 2 * 271 and len(desk_edge) == 2 * 5
    assert max(len(masks) for masks in desk_edge) > 400
    for masks in census + desk_edge:
        assert linear_module._gf2_basis(masks) == ref.gf2_basis(masks)


def test_gf2_basis_matches_the_lowest_bit_oracle_on_random_masks():
    rnd = random.Random(73)
    for _ in range(5000):
        bits = rnd.randint(1, 80)
        masks = []
        for _ in range(rnd.randint(1, 40)):
            kind = rnd.random()
            if kind < 0.3 and masks:  # in the span of earlier masks
                x = 0
                for m in rnd.sample(masks, rnd.randint(1, len(masks))):
                    x ^= m
            elif kind < 0.6:  # a few bits, as the rows of cell_dim have
                x = sum(1 << rnd.randrange(bits) for _ in range(rnd.randint(0, 4)))
            else:
                x = rnd.getrandbits(bits)
            masks.append(x)
        assert linear_module._gf2_basis(masks) == ref.gf2_basis(masks)


def test_elimination_matches_the_swap_oracle_on_random_systems():
    rnd = random.Random(67)
    matrices = [[list(row) for row in m] for m in PIVOT_CASES]
    for _ in range(200):  # sparse +-1 rows, as cell_dim writes them
        matrices.append(random_sparse_rows(rnd, rnd.randint(1, 14), rnd.randint(1, 14)))
        for row in matrices[-1]:
            row[:] = [(a > 0) - (a < 0) for a in row]
    for _ in range(200):  # rational equations, cleared row by row
        ncols = rnd.randint(1, 8)
        eqs = [{j: random_rational(rnd, -3, 3, den=rnd.randint(1, 5))
                for j in range(ncols) if rnd.random() < 0.6}
               for _ in range(rnd.randint(1, 8))]
        matrices.append([integer_vector(eq.get(j, 0) for j in range(ncols))[1] for eq in eqs])
    for rows in matrices:
        assert_eliminations_agree(rows, False)
        assert_eliminations_agree(rows, True)


def test_solver_results_match_the_swap_oracle(monkeypatch):
    rnd = random.Random(71)
    systems = []
    for _ in range(200):
        variables = [f"x{j}" for j in range(rnd.randint(1, 7))]
        x0 = {v: random_rational(rnd, -3, 3) for v in variables}
        eqs = []
        for _ in range(rnd.randint(1, 8)):
            coeffs = {v: random_rational(rnd, -2, 2, den=rnd.randint(1, 4))
                      for v in variables if rnd.random() < 0.5}
            rhs = sum(c * x0[v] for v, c in coeffs.items())
            eqs.append((coeffs, rhs if rnd.random() < 0.7 else rhs + 1))
        systems.append((eqs, variables))
    ours = [solve_linear_system(eqs, variables) for eqs, variables in systems]
    monkeypatch.setattr(linear_module, "_eliminate", ref.eliminate)
    theirs = [solve_linear_system(eqs, variables) for eqs, variables in systems]
    assert ours == theirs
    assert 50 <= sum(sol is None for sol in ours) < 150
