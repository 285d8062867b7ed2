import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressian import (
    INF,
    Matroid,
    NotAValuationError,
    ScaleLimitError,
    Valuation,
    ValuationInputError,
    all_sparse_paving_matroids,
    all_symbols,
    check_valuation,
    check_valuation_bruteforce,
    combinatorial_type,
    contract_valuation,
    equivalent,
    johnson_neighbors,
    mask_to_set,
    modular_stable_matroid,
    parallel_classes,
    r_subset_masks,
    residue_matroid,
    separating_shift,
    set_to_mask,
    shift,
    smooth_decompose,
    symbol_sets,
    valuation_from_matroid,
)
from dressian.valuation import Symbol, symbol_table
from helpers import (
    CORPUS,
    N1,
    N2,
    N3,
    N26,
    U25,
    perturbed_values,
    random_shift_vector,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
    rank2_nonuniform,
    stiefel_valuation,
)


def nu_of(M):
    return valuation_from_matroid(M) if M.is_uniform() else None


def test_symbol_count_formula():
    for n, r in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]:
        expected = comb(n, r - 2) * comb(n - r + 2, 4) * 3
        assert len(all_symbols(n, r)) == expected


def test_symbol_sets_single_nonbasis():
    z, z0, z1 = symbol_sets(N2)
    assert (len(z), len(z0), len(z1)) == (9, 3, 6)


def test_symbol_sets_two_nonbases():
    z, z0, z1 = symbol_sets(N3)
    assert (len(z), len(z0), len(z1)) == (5, 5, 0)


def test_type_sizes_sparse_paving_on_five():
    sizes = [combinatorial_type(valuation_from_matroid(N)).size for N in (N1, N2, N3)]
    assert sizes == [15, 9, 5]


def test_checkers_agree_on_corpus():
    rnd = random.Random(7)
    for M in CORPUS:
        accepted = rejected = 0
        for _ in range(220):
            if rnd.random() < 0.5:
                vals = random_valuation(M, rnd).values
            else:
                vals = perturbed_values(random_valuation(M, rnd), rnd)
            fast = check_valuation(M, vals)
            slow = check_valuation_bruteforce(M, vals)
            assert fast == slow
            accepted += fast
            rejected += not fast
        assert accepted > 0 and rejected > 0


@pytest.mark.parametrize("removed", [(), ((0, 1),), ((0, 1), (2, 3))])
def test_checkers_agree_on_every_small_value_map(removed):
    # every map into {0, 1, 2} on U(2, 4) and on two of its sparse paving
    # restrictions: all orders of the three pairing sums, with and without INF
    M = rank2_nonuniform(4, removed)
    bases = sorted(M.bases)
    verdicts = set()
    for values in itertools.product(range(3), repeat=len(bases)):
        vals = dict(zip(bases, values))
        fast = check_valuation(M, vals)
        assert fast == check_valuation_bruteforce(M, vals), vals
        verdicts.add(fast)
    assert verdicts == {True, False}


def test_checkers_agree_on_rank3_integer_maps():
    rnd = random.Random(29)
    N = random_sparse_paving(3, 6, random.Random(3))
    assert not N.is_uniform()
    for M in (Matroid.uniform(3, 6), N):
        verdicts = []
        for _ in range(150):
            if rnd.random() < 0.5:
                vals = random_valuation(M, rnd).values
            else:
                vals = {m: rnd.randint(0, 3) for m in M.bases}
            fast = check_valuation(M, vals)
            assert fast == check_valuation_bruteforce(M, vals)
            verdicts.append(fast)
        assert True in verdicts and False in verdicts


def test_invalid_values_rejected_on_construction():
    M = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in M.bases}
    vals[set_to_mask((0, 1))] = Fraction(-1)  # lone strict minimizer in a square
    assert not check_valuation(M, vals)
    with pytest.raises(NotAValuationError):
        Valuation(M, vals)


def test_missing_and_extra_coordinates_rejected():
    M = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in M.bases}
    with pytest.raises(ValuationInputError):
        Valuation(M, dict(list(vals.items())[:-1]))
    vals[set_to_mask((0, 1, 2))] = Fraction(0)
    with pytest.raises(ValuationInputError):
        Valuation(M, vals)


def test_out_of_range_mask_keys_are_refused_quickly():
    M = Matroid.uniform(2, 4)
    started = time.perf_counter()
    for bad in (-1, -(1 << 40), 1 << 4, 1 << 60):
        vals = {b: Fraction(0) for b in M.bases}
        vals[bad] = Fraction(0)
        with pytest.raises(ValuationInputError, match="out of range"):
            Valuation(M, vals)
    assert time.perf_counter() - started < 1


def test_negative_element_in_a_key_is_a_valuation_input_error():
    M = Matroid.uniform(2, 4)
    vals = {tuple(e for e in range(4) if b >> e & 1): 0 for b in M.bases}
    for bad, message in (((-1, 0), r"^subset \(-1, 0\): element -1 is not in 0\.\.3$"),
                         ((0, -3), r"^subset \(0, -3\): element -3 is not in 0\.\.3$")):
        with pytest.raises(ValuationInputError, match=message):
            Valuation(M, {bad: 0, **vals})


def test_extension_is_infinite_off_bases():
    nu = valuation_from_matroid(N3)
    assert nu.value((0, 2)) == 0
    assert nu.value((0, 1)) == 1  # non-basis of N3 but basis of the ambient
    nu2 = Valuation(N3, {b: Fraction(0) for b in N3.bases})
    assert nu2.value((0, 1)) is INF
    assert nu2.value((0, 1)) + Fraction(3) is INF


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_shift_preserves_type(seed):
    rnd = random.Random(seed)
    M = rnd.choice(CORPUS)
    nu = random_valuation(M, rnd)
    w = random_shift_vector(M.n, rnd)
    assert combinatorial_type(shift(nu, w)) == combinatorial_type(nu)
    assert equivalent(shift(nu, w), nu)


def test_forced_symbols_hold_for_every_valuation():
    rnd = random.Random(3)
    for M in CORPUS:
        _z, z0, _z1 = symbol_sets(M)
        for _ in range(10):
            nu = random_valuation(M, rnd)
            t = combinatorial_type(nu)
            assert z0 <= t.full_type


def class_tree_valuation(M, rnd):
    """A rank-2 valuation of M that is not a shift of 0 when M has four or
    more parallel classes: a random tree metric on the classes, pulled back
    to the elements and shifted.  Two elements of one class see the same
    values, so every location with a parallel pair ties."""
    classes = parallel_classes(M)
    cls = {e: k for k, members in enumerate(classes) for e in members}
    t = len(classes)
    if t == 2:
        tree = {set_to_mask((0, 1)): Fraction(0)}
    else:
        tree = random_tree_metric_valuation(t, rnd).values
    vals = {b: tree[set_to_mask((cls[a], cls[c]))] for b in M.bases
            for a, c in [sorted(mask_to_set(b))]}
    return shift(Valuation(M, vals), random_shift_vector(M.n, rnd))


def sparse_paving_pair_valuation(r, n, rnd):
    """A valuation of a sparse paving M that is not a shift of 0: nu_N of a
    sparse paving N whose stable set of non-bases extends M's, on the bases
    of M, scaled and shifted.  A forced symbol of M has a non-basis of M at
    distance 1 from its four crossing sets, so all four are bases of N and
    tie at 0; every other location reads nu_N where it is finite."""
    verts = r_subset_masks(n, r)
    rnd.shuffle(verts)
    stable, blocked = [], set()
    for v in verts:
        if v not in blocked and rnd.random() < 0.4:
            stable.append(v)
            blocked |= {v, *johnson_neighbors(n, v)}
    own = stable[:rnd.randint(1, len(stable))] if stable else []
    M = Matroid(n, r, frozenset(verts) - frozenset(own))
    lam = Fraction(rnd.randint(1, 6), rnd.randint(1, 3))
    vals = {b: lam if b in stable else Fraction(0) for b in M.bases}
    return shift(Valuation(M, vals), random_shift_vector(n, rnd))


def dual_valuation(nu):
    """nu*(E - B) = nu(B), a valuation of the dual matroid."""
    full = (1 << nu.matroid.n) - 1
    return Valuation(nu.matroid.dual(), {full ^ b: x for b, x in nu.values.items()})


def forced_symbol_corpus():
    rnd = random.Random(43)
    out = []
    for M in (N3, N26):
        out += [class_tree_valuation(M, rnd) for _ in range(3)]
    for _ in range(6):  # rank 2 with parallel classes of sizes 1 to 3
        sizes = [rnd.randint(1, 3) for _ in range(rnd.randint(2, 5))]
        cls = [k for k, size in enumerate(sizes) for _ in range(size)][:8]
        rnd.shuffle(cls)
        pairs = itertools.combinations(range(len(cls)), 2)
        M = Matroid(len(cls), 2, frozenset(set_to_mask(p) for p in pairs
                                           if cls[p[0]] != cls[p[1]]))
        out.append(class_tree_valuation(M, rnd))
    for r, n in [(3, 6), (3, 6), (3, 7), (2, 6), (4, 7)]:
        out.append(sparse_paving_pair_valuation(r, n, rnd))
    for r, n, holes in [(3, 6, 3), (3, 6, 5), (2, 6, 3), (3, 7, 4)]:
        out.append(stiefel_valuation(r, n, rnd, holes))
    return out + [dual_valuation(nu) for nu in out]


def test_full_type_is_forced_symbols_plus_free_ones():
    # [nu] ∩ Z(M) read directly off the crossing sets, against the type,
    # which derives it from Z0(M) and its free symbols
    forced_seen = 0
    for nu in forced_symbol_corpus():
        M, vals = nu.matroid, nu.values
        table = symbol_table(M.n, M.r)
        direct = []
        for i, sym in enumerate(table.symbols):
            sac, sbd, sad, sbc = sym.cross_sets()
            if {sac, sbd, sad, sbc} <= M.bases and vals[sac] + vals[sbd] == vals[sad] + vals[sbc]:
                direct.append(i)
        direct = tuple(direct)
        t = combinatorial_type(nu)
        assert t.full_ids == direct
        assert t.size == len(direct)
        _z, z0, z1 = symbol_sets(M)
        assert t.full_type == z0 | t.symbols_equal and t.symbols_equal <= z1
        for sym in z0:
            sac, sbd, sad, sbc = sym.cross_sets()
            assert vals[sac] + vals[sbd] == vals[sad] + vals[sbc]
        forced_seen += len(z0)
    assert forced_seen >= 100


def test_separating_shift_needs_a_free_symbol():
    # checked before any lookup: a symbol past E, a forced one, and one
    # with a non-basis crossing set are refused alike
    rnd = random.Random(47)
    nu = class_tree_valuation(N3, rnd)
    _z, z0, _z1 = symbol_sets(N3)
    triple = rank2_nonuniform(5, [(0, 1), (0, 2), (1, 2)])  # class {0, 1, 2}
    mu = class_tree_valuation(triple, rnd)
    cases = [(nu, Symbol.make(0, (0, 1), (2, 7))), (nu, min(z0)),
             # crossing sets 01 and 12 are non-bases, so both sums are INF
             (mu, Symbol.make(0, (0, 2), (1, 3)))]
    for val, sym in cases:
        with pytest.raises(ValuationInputError, match=r"needs a symbol in Z1\(M\)"):
            separating_shift(val, sym)


def test_residue_matroid_is_matroid_and_idempotent():
    rnd = random.Random(9)
    for _ in range(40):
        M = rnd.choice(CORPUS)
        nu = random_valuation(M, rnd)
        w = random_shift_vector(M.n, rnd)
        M0 = residue_matroid(nu, w)  # construction itself asserts axiom (B)
        assert M0.bases <= M.bases
        zero = Valuation(M0, {b: Fraction(0) for b in M0.bases})
        assert residue_matroid(zero) == M0


def test_residue_lemma_forward():
    # symbols of the type keep their crossing pairs together in M0(nu^w)
    rnd = random.Random(21)
    for _ in range(30):
        M = rnd.choice([U25, Matroid.uniform(2, 6), N2])
        nu = random_valuation(M, rnd)
        t = combinatorial_type(nu)
        w = random_shift_vector(M.n, rnd)
        M0 = residue_matroid(nu, w)
        for sym in t.symbols_equal:
            sac, sbd, sad, sbc = sym.cross_sets()
            first = sac in M0.bases and sbd in M0.bases
            second = sad in M0.bases and sbc in M0.bases
            assert first == second


def test_separating_shift_splits_free_symbols():
    rnd = random.Random(33)
    found = 0
    for _ in range(200):
        M = rnd.choice([U25, Matroid.uniform(2, 6), Matroid.uniform(3, 6)])
        nu = random_valuation(M, rnd)
        t = combinatorial_type(nu)
        _z, _z0, z1 = symbol_sets(M)
        free = sorted(z1 - t.symbols_equal, key=lambda s: s.as_key())
        if not free:
            continue
        sym = free[rnd.randrange(len(free))]
        w = separating_shift(nu, sym)
        M0 = residue_matroid(nu, w)
        sac, sbd, sad, sbc = sym.cross_sets()
        first = sac in M0.bases and sbd in M0.bases
        second = sad in M0.bases and sbc in M0.bases
        assert first != second  # the shift tears the two pairings apart
        found += 1
    assert found >= 50


def test_separating_shift_rejects_type_symbols():
    nu = valuation_from_matroid(U25)  # zero valuation: every symbol equal
    _z, _z0, z1 = symbol_sets(U25)
    sym = sorted(z1, key=lambda s: s.as_key())[0]
    with pytest.raises(ValuationInputError):
        separating_shift(nu, sym)


def test_valuation_from_matroid_is_valid():
    rnd = random.Random(17)
    for _ in range(30):
        N = random_sparse_paving(rnd.choice([2, 3]), rnd.choice([5, 6]), rnd)
        nu = valuation_from_matroid(N)  # validity enforced on construction
        assert set(nu.values.values()) <= {Fraction(0), Fraction(1)}
        assert {m for m, v in nu.values.items() if v == 0} == N.bases


def _sources(name):
    if name == "modular-8-4":  # the eight builds of lower_bound_certificate(8, 4)
        return [modular_stable_matroid(8, 4, k) for k in range(8)]
    r, n = {"sparse-paving-2-6": (2, 6), "sparse-paving-3-6": (3, 6)}[name]
    return all_sparse_paving_matroids(r, n)


@pytest.mark.parametrize("name", ["sparse-paving-2-6", "sparse-paving-3-6", "modular-8-4"])
def test_valuation_from_matroid_matches_the_constructor(name):
    for N in _sources(name):
        U = Matroid.uniform(N.r, N.n)
        ref = Valuation(U, {m: Fraction(N.r - N.rank_of(m)) for m in U.bases})
        nu = valuation_from_matroid(N)
        assert nu.values == ref.values
        assert all(type(v) is Fraction for v in nu.values.values())
        assert (nu.denominator, nu.scaled) == (ref.denominator, ref.scaled)
        # integer values: no rescaling, nu itself by colex position
        assert nu.denominator == 1
        assert nu.scaled == tuple(N.r - N.rank_of(m) for m in r_subset_masks(N.n, N.r))


def _vector_matroid(vectors):
    """The matroid of integer vectors in Q^r: the r-subsets with a nonzero
    determinant, by cofactor expansion."""
    def det(rows):
        return 1 if not rows else sum((-1) ** j * rows[0][j] * det([row[:j] + row[j + 1:]
                                                                   for row in rows[1:]])
                                      for j in range(len(rows)) if rows[0][j])
    r = len(vectors[0])
    return Matroid(len(vectors), r, [B for B in itertools.combinations(range(len(vectors)), r)
                                     if det([vectors[e] for e in B])])


# matroids that are not sparse paving: non-bases of rank below r - 1, whose
# Johnson neighbours are all non-bases, and Johnson-adjacent non-bases
NOT_SPARSE_PAVING = {
    "two loops": [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "parallel triple": [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "four-point line": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1)],
    "rank 2, loop and parallel pair": [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
    "rank 4, loop and parallel pair": [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0),
                                       (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
}


def test_valuation_from_matroid_levels_match_rank_of(monkeypatch):
    """The levels read off Johnson neighbours against r - rank_of on every
    r-subset; `rank_of` is asked only about the non-bases of rank below
    r - 1, so never on a sparse paving N."""
    rnd = random.Random(23)
    sparse = list(CORPUS) + [modular_stable_matroid(n, r, k) for n, r in [(6, 3), (7, 3), (7, 4)]
                             for k in range(n)]
    sparse += [random_sparse_paving(r, n, rnd) for r in (2, 3, 4) for n in range(r + 2, 8)
               for _ in range(6)]
    other = [_vector_matroid(vectors) for vectors in NOT_SPARSE_PAVING.values()]
    levels = {}
    for N in sparse + other:
        levels[N] = tuple(N.r - N.rank_of(m) for m in r_subset_masks(N.n, N.r))
    assert sum(max(levels[N]) >= 2 for N in other) == 3
    calls = []
    rank_of = Matroid.rank_of
    monkeypatch.setattr(Matroid, "rank_of", lambda N, X: calls.append(X) or rank_of(N, X))
    for N in sparse + other:
        calls.clear()
        nu = valuation_from_matroid(N)
        assert (nu.denominator, nu.scaled) == (1, levels[N]), N
        # a non-basis of rank r - 1 always has a basis among its neighbours
        assert len(calls) == sum(level >= 2 for level in levels[N]), N


def test_values_of_any_type_become_fractions():
    M = Matroid.uniform(2, 4)
    # the shift of 0 by w = (0, 1/2, 1/4, 1), in colex order 01, 02, 12, 03, 13, 23
    raw = dict(zip(sorted(M.bases), ["1/2", Fraction(1, 4), "3/4", 1, "3/2", Fraction(5, 4)]))
    nu = Valuation(M, raw)
    assert all(type(v) is Fraction for v in nu.values.values())
    assert nu.values == {m: Fraction(v) for m, v in raw.items()}
    assert nu.denominator == 4
    assert nu.scaled == (2, 1, 3, 4, 6, 5)


def test_contraction_preserves_equivalence():
    rnd = random.Random(41)
    M = Matroid.uniform(3, 6)
    for _ in range(40):
        nu = random_valuation(M, rnd)
        w = random_shift_vector(6, rnd)
        mu = shift(nu, w)
        e = rnd.randrange(6)
        ca, keep_a = contract_valuation(nu, [e])
        cb, keep_b = contract_valuation(mu, [e])
        assert keep_a == keep_b
        assert equivalent(ca, cb)


def test_contract_values_are_restrictions():
    nu = valuation_from_matroid(random_sparse_paving(3, 6, random.Random(1)))
    c, keep = contract_valuation(nu, [2])
    for b, v in c.values.items():
        old = set(keep[e] for e in range(6 - 1) if (b >> e) & 1) | {2}
        assert v == nu.values[set_to_mask(old)]


def test_smooth_decompose_sparse_paving():
    nu = valuation_from_matroid(N3)
    remainder, peels = smooth_decompose(nu)
    assert sorted(peels) == [
        (set_to_mask((0, 1)), Fraction(1)),
        (set_to_mask((2, 3)), Fraction(1)),
    ]
    assert all(v == 0 for v in remainder.values.values())


def test_smooth_decompose_reconstructs():
    rnd = random.Random(55)
    for _ in range(25):
        M = Matroid.uniform(2, rnd.choice([4, 5]))
        nu = random_valuation(M, rnd)
        remainder, peels = smooth_decompose(nu)
        rebuilt = dict(remainder.values)
        for b, lam in peels:
            assert lam > 0
            rebuilt[b] += lam
        assert rebuilt == nu.values
        again, more = smooth_decompose(remainder)
        assert more == []  # remainder is smooth: nothing left to peel


def test_json_roundtrip_and_loader():
    rnd = random.Random(23)
    for M in CORPUS[:4]:
        nu = random_valuation(M, rnd)
        assert Valuation.from_json(nu.to_json()) == nu
    obj = valuation_from_matroid(N3).to_json_obj()
    obj["matroid"] = "somewhere.json"
    loaded = Valuation.from_json_obj(obj, matroid_loader=lambda path: U25)
    assert loaded.matroid == U25


def test_equivalent_needs_same_matroid():
    with pytest.raises(ValuationInputError):
        equivalent(
            valuation_from_matroid(U25),
            valuation_from_matroid(Matroid.uniform(2, 6)),
        )


def test_type_log_bound():
    # distinct observed types never exceed 2^{|Z1|}
    for M in [U25, N2, N3]:
        rnd = random.Random(61)
        types = {combinatorial_type(random_valuation(M, rnd)) for _ in range(80)}
        _z, _z0, z1 = symbol_sets(M)
        assert len(types) <= 2 ** len(z1)


def test_direct_checker_refuses_past_its_cap():
    # its pair loop costs C(n, r)^2: U(4, 8) has 70 r-subsets, U(3, 9) has 84
    M = Matroid.uniform(4, 8)
    assert check_valuation_bruteforce(M, {b: 0 for b in M.bases}) is True
    M = Matroid.uniform(3, 9)
    with pytest.raises(ScaleLimitError, match=r"C\(9,3\) = 84 exceeds 70"):
        check_valuation_bruteforce(M, {b: 0 for b in M.bases})
