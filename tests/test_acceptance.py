"""Top-level acceptance checks, one summary line printed per criterion.

Everything here is exact rational arithmetic, so every comparison is an
equality or a hard inequality with zero tolerance; the two 20-digit log
strings are compared digit for digit against an independent Decimal
evaluation.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

from dressian import (
    ExactCover,
    Matroid,
    Valuation,
    all_sparse_paving_matroids,
    bounds_report,
    cell_dim,
    check_valuation,
    check_valuation_bruteforce,
    combinatorial_type,
    contract_valuation,
    count_sparse_paving,
    decode_tree,
    enumerate_rank2_cells,
    equivalent,
    exact_cover_check,
    lower_bound_certificate,
    set_to_mask,
    shift,
    sparse_paving_census,
    spread_report,
    subdivision_cells,
    valuation_from_matroid,
)
from helpers import (
    N1,
    N2,
    N3,
    N26,
    perturbed_values,
    random_shift_vector,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
)
from test_linear import random_subspace
from test_trees import oracle_splits, oracle_trees


def report(capsys, number, label, ok, limit, elapsed):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] acceptance {number}: {label} "
              f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"acceptance check {number} failed"
    assert elapsed < limit, f"acceptance check {number} overran {limit}s"


def test_acceptance_01_type_sizes(capsys):
    t0 = time.perf_counter()
    sizes = [combinatorial_type(valuation_from_matroid(N)).size
             for N in (N1, N2, N3)]
    ok = sizes == [15, 9, 5]
    report(capsys, 1, "rank-2 sparse paving type sizes 15/9/5",
           ok, 1, time.perf_counter() - t0)


def test_acceptance_02_dual_checkers(capsys):
    t0 = time.perf_counter()
    rnd = random.Random(20240201)
    corpus = [Matroid.uniform(2, 5), Matroid.uniform(2, 6),
              Matroid.uniform(3, 5), Matroid.uniform(3, 6), N2, N3, N26]
    instances = disagreements = 0
    while instances < 1050:
        M = corpus[instances % len(corpus)]
        nu = random_valuation(M, rnd)
        vals = nu.values if rnd.random() < 0.5 else perturbed_values(nu, rnd)
        if check_valuation(M, vals) != check_valuation_bruteforce(M, vals):
            disagreements += 1
        instances += 1
    report(capsys, 2, f"checker agreement on {instances} instances",
           disagreements == 0, 60, time.perf_counter() - t0)


def test_acceptance_03_rank2_census(capsys):
    t0 = time.perf_counter()
    counts = [len(enumerate_rank2_cells(Matroid.uniform(2, n)))
              for n in (4, 5, 6)]
    ok = counts == [4, 26, 236]
    for n, want in [(4, 4), (5, 26), (6, 236)]:
        oracle = {oracle_splits(adj, n) for adj, _ in oracle_trees(n)}
        ok = ok and len(oracle) == want
    ok = ok and count_sparse_paving(2, 5) == 26 == counts[1]
    report(capsys, 3, "rank-2 census 4/26/236 vs oracle, s(2,5)=26",
           ok, 30, time.perf_counter() - t0)


def test_acceptance_04_dimension_machinery(capsys):
    t0 = time.perf_counter()
    M = Matroid.uniform(2, 4)
    ok = cell_dim(Valuation(M, {b: Fraction(0) for b in M.bases})) == 4
    c3 = N3.johnson_components().component_count
    ok = ok and cell_dim(valuation_from_matroid(N3)) == 7 == 5 + c3
    for n in range(4, 7):
        for r in range(2, n - 1):
            for N in all_sparse_paving_matroids(r, n):
                c = N.johnson_components().component_count
                if cell_dim(valuation_from_matroid(N)) < c:
                    ok = False
    report(capsys, 4, "cell dims: anchors and dim >= c(N) for n <= 6",
           ok, 120, time.perf_counter() - t0)


def test_acceptance_05_lower_bound_certificate(capsys):
    t0 = time.perf_counter()
    N, c, dim = lower_bound_certificate(6, 3)
    ok = N.is_sparse_paving() and c >= 4 and dim >= c
    rec = sparse_paving_census(3, 6, with_dims=True)
    ok = ok and 4 <= rec.max_cell_dim <= 10
    report(capsys, 5, f"(6,3) certificate c={c}, dim={dim}, max dim <= 10",
           ok, 60, time.perf_counter() - t0)


def test_acceptance_06_exact_cover(capsys):
    t0 = time.perf_counter()
    rnd = random.Random(20240206)
    ok = True
    for _ in range(1000):
        L = random_subspace(rnd, max_coords=10)
        k = rnd.randint(1, 4)
        blocks = []
        for _ in range(k):
            parts = {}
            for x in L.coords:
                parts.setdefault(rnd.randrange(1 + len(L.coords) // 2), []).append(x)
            blocks.extend(map(frozenset, parts.values()))
        cover = ExactCover(frozenset(L.coords), tuple(blocks), k)
        _lhs, _rhs, holds = exact_cover_check(L, cover)
        ok = ok and holds
    for _ in range(1000):
        L = random_subspace(rnd, max_coords=8)
        A = {c for c in L.coords if rnd.random() < 0.5}
        Ap = {c for c in L.coords if rnd.random() < 0.5}
        if (L.projection_dim(A) + L.projection_dim(Ap)
                < L.projection_dim(A | Ap) + L.projection_dim(A & Ap)):
            ok = False
    report(capsys, 6, "exact-cover and submodular-step inequalities, 2x1000",
           ok, 60, time.perf_counter() - t0)


def test_acceptance_07_equivalence_invariance(capsys):
    t0 = time.perf_counter()
    rnd = random.Random(20240207)
    ok = True
    pool = [Matroid.uniform(2, 5), Matroid.uniform(2, 6),
            Matroid.uniform(3, 6), N2, N26]
    for _ in range(200):
        M = rnd.choice(pool)
        nu = random_valuation(M, rnd)
        w = random_shift_vector(M.n, rnd)
        if combinatorial_type(shift(nu, w)) != combinatorial_type(nu):
            ok = False
    M = Matroid.uniform(3, 6)
    for _ in range(100):
        nu = random_valuation(M, rnd)
        mu = shift(nu, random_shift_vector(6, rnd))
        e = rnd.randrange(6)
        ca, _ = contract_valuation(nu, [e])
        cb, _ = contract_valuation(mu, [e])
        if not equivalent(ca, cb):
            ok = False
    report(capsys, 7, "shift keeps [nu]; contraction keeps equivalence",
           ok, 60, time.perf_counter() - t0)


def test_acceptance_08_distinctness(capsys):
    t0 = time.perf_counter()
    ok = True
    for r, n in [(2, 5), (2, 6), (3, 6)]:
        matroids = all_sparse_paving_matroids(r, n)
        types = {combinatorial_type(valuation_from_matroid(N)) for N in matroids}
        ok = ok and len(types) == len(matroids)
    report(capsys, 8, "N -> type injective (rank 2: n=5,6; rank 3: n=6)",
           ok, 300, time.perf_counter() - t0)


def test_acceptance_09_subdivision(capsys):
    t0 = time.perf_counter()
    M = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in M.bases}
    vals[set_to_mask((0, 1))] = Fraction(1)
    rep = spread_report(Valuation(M, vals))
    ok = (rep["spread"] == 2
          and rep["bound_exponent_r_minus_2"] == 1
          and rep["bound_exponent_r_minus_1"] == 2)
    rnd = random.Random(20240209)
    for _ in range(8):
        n = rnd.choice([4, 5, 6])
        nu = random_tree_metric_valuation(n, rnd)
        census = subdivision_cells(nu)
        if census.exploration_status != "exhaustive":
            ok = False
        if census.spread != len(decode_tree(nu).internal_vertices()):
            ok = False
    done = 0
    while done < 50:
        n = rnd.choice([4, 5])
        nu = (random_tree_metric_valuation(n, rnd) if rnd.random() < 0.5
              else valuation_from_matroid(random_sparse_paving(2, n, rnd)))
        mu = shift(nu, random_shift_vector(n, rnd))
        ca, cb = subdivision_cells(nu), subdivision_cells(mu)
        if not ca.exploration_status == cb.exploration_status == "exhaustive":
            ok = False
        if ca.cell_basis_families() != cb.cell_basis_families():
            ok = False
        done += 1
    report(capsys, 9, "octahedron spread 2; tree spread; P(nu) by type, 50 pairs",
           ok, 120, time.perf_counter() - t0)


def test_acceptance_10_bounds_regression(capsys):
    t0 = time.perf_counter()
    from test_bounds import FIXTURES, decimal_oracle

    ok = True
    for (n, r), expected in FIXTURES.items():
        rep = bounds_report(n, r, 3)
        for name, want in expected.items():
            if getattr(rep, name) != want:
                ok = False
        sub, cu = decimal_oracle(n, r)
        if Decimal(rep.subspace_count_bound) != sub:
            ok = False
        if Decimal(rep.count_upper) != cu:
            ok = False
        for _q, value, source in rep.rows():
            if not source:
                ok = False
    report(capsys, 10, "bounds fixtures (6,3),(7,3),(8,4) to 20 digits",
           ok, 1, time.perf_counter() - t0)
