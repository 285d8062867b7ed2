import random
from collections import Counter
from decimal import ROUND_DOWN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from math import comb, log, log2

import pytest

from dressian import (
    Matroid,
    ScaleLimitError,
    Valuation,
    all_sparse_paving_matroids,
    bounds_report,
    cell_dim,
    census_from_matroids,
    contract_valuation,
    count_sparse_paving,
    dim_upper,
    lower_bound_certificate,
    perturbed_census,
    rank2_cell_dims,
    sparse_paving_census,
    symbol_sets,
    valuation_from_matroid,
)
from helpers import random_sparse_paving, random_tree_metric_valuation


# frozen 20-significant-digit fixtures (checked below against an independent
# Decimal evaluation); (63, 28) and (1000, 500) pin how the log bounds are
# written: a whole 20-digit number keeps a trailing ".", a large one an exponent
FIXTURES = {
    (6, 3): {
        "symbol_count_ordered": 180,
        "symbol_count": 90,
        "log2_count_bound": 90,
        "dim_upper": Fraction(10),
        "dim_contraction_ratio": Fraction(9, 20),
        "spreaddim_upper": 9,
        "spreaddim_upper_alt": 11,
        "subspace_count_bound": "143.34075753824440006",
        "count_upper": "371.29459596605543515",
        "tree_dim_upper": 9,
        "tree_count_upper": 2985984,
        "dim_lower": Fraction(10, 3),
        "count_lower": 271,
    },
    (7, 3): {
        "symbol_count_ordered": 630,
        "symbol_count": 315,
        "log2_count_bound": 315,
        "dim_upper": Fraction(15),
        "dim_contraction_ratio": Fraction(11, 35),
        "spreaddim_upper": 11,
        "spreaddim_upper_alt": 16,
        "subspace_count_bound": "272.42742086774386271",
        "count_upper": "610.85661715414059180",
        "tree_dim_upper": 11,
        "tree_count_upper": 105413504,
        "dim_lower": Fraction(5),
        "count_lower": None,
    },
    (8, 4): {
        "symbol_count_ordered": 2520,
        "symbol_count": 1260,
        "log2_count_bound": 1260,
        "dim_upper": Fraction(30),
        "dim_contraction_ratio": Fraction(11, 35),
        "spreaddim_upper": 22,
        "spreaddim_upper_alt": 27,
        "subspace_count_bound": "582.24363167035405991",
        "count_upper": "1152.0739413176544892",
        "tree_dim_upper": 13,
        "tree_count_upper": 4294967296,
        "dim_lower": Fraction(35, 4),
        "count_lower": None,
    },
    (63, 28): {
        "subspace_count_bound": "10429236116375347632.",
        "count_upper": "2962090903550039632.0",
    },
    (1000, 500): {
        "subspace_count_bound": "7.4683400929505410770e+300",
        "count_upper": "1.5427914198038298405e+299",
    },
}


def decimal_oracle(n, r):
    """Independent evaluation of the two log bounds, 20 significant digits."""
    nr = comb(n, r)
    with localcontext(Context(prec=45)):
        ln_n = Decimal(n).ln()
        sub = Decimal(nr) * (Decimal(n) ** 4).ln()  # u = C(n,r): u ln(C(n,r) n^4 / u)
        cu = Decimal(nr) * (55 * ln_n + 4 * ln_n**2) / n
    round20 = Context(prec=20)
    return sub.normalize(round20), cu.normalize(round20)


def test_bounds_report_fixtures():
    for (n, r), expected in FIXTURES.items():
        rep = bounds_report(n, r, 3)
        for name, want in expected.items():
            assert getattr(rep, name) == want, (n, r, name)
        assert rep.log_precision == 20


def test_log_fixtures_match_decimal_oracle():
    for (n, r), expected in FIXTURES.items():
        sub, cu = decimal_oracle(n, r)
        assert Decimal(expected["subspace_count_bound"]) == sub
        assert Decimal(expected["count_upper"]) == cu


def test_log_bounds_match_mpmath_reference():
    pytest.importorskip("mpmath")
    from reference_bounds import log_bounds
    cases = {(n, r) for n in range(3, 1001) for r in (2, 3, n // 2, n - 1) if 2 <= r < n}
    cases.add((63, 28))
    for n, r in sorted(cases):
        rep = bounds_report(n, r)
        want = log_bounds(n, comb(n, r))
        assert (rep.subspace_count_bound, rep.count_upper) == want, (n, r)


def test_log_bounds_ignore_the_callers_decimal_context():
    # the digits come from a fresh context, not from whatever the caller set
    ambient = Context(prec=5, rounding=ROUND_DOWN, traps=[Inexact])
    with localcontext(ambient):
        for n, r in [(8, 4), (63, 28)]:
            rep = bounds_report(n, r)
            for name in ("subspace_count_bound", "count_upper"):
                assert getattr(rep, name) == FIXTURES[n, r][name], (n, r, name)


def test_report_rows_carry_sources():
    rep = bounds_report(6, 3)
    rows = list(rep.rows())
    assert len(rows) == 13
    for quantity, value, source in rows:
        assert value != ""
        assert source != ""
    obj = rep.to_json_obj()
    assert obj["dim_upper"]["value"] == "10/1"
    assert obj["count_lower"]["value"] == "271"


def test_bounds_report_rejects_bad_shapes():
    with pytest.raises(ScaleLimitError):
        bounds_report(4, 4)
    with pytest.raises(ScaleLimitError):
        bounds_report(6, 3, t_contraction=5)
    with pytest.raises(ScaleLimitError):
        bounds_report(6, 1)  # no contraction rank 2 <= t <= r
    assert bounds_report(6, 2).t_contraction == 2
    assert bounds_report(6, 3).t_contraction == bounds_report(6, 4).t_contraction == 3


def involutions(n):
    # matchings of K_n: a(n) = a(n-1) + (n-1) a(n-2)
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def test_sparse_paving_counts_match_matching_oracle():
    # rank-2 sparse paving matroids on n elements = matchings of K_n
    for n in (4, 5, 6):
        assert count_sparse_paving(2, n) == involutions(n)
    assert count_sparse_paving(2, 5) == 26


def test_census_scale_guard():
    with pytest.raises(ScaleLimitError):
        all_sparse_paving_matroids(3, 8)
    with pytest.raises(ScaleLimitError):
        lower_bound_certificate(10, 5)


def test_lower_bound_certificate_63():
    N, c, dim = lower_bound_certificate(6, 3)
    assert N.is_sparse_paving()
    assert c >= 4  # ceil(C(6,3)/6)
    assert c <= dim <= 10
    assert dim >= -(-comb(6, 3) // 6)


def test_lower_bound_certificate_small():
    for n, r in [(5, 2), (6, 2), (6, 3)]:
        _N, c, dim = lower_bound_certificate(n, r)
        assert dim >= c >= 1
        assert dim >= -(-comb(n, r) // n)


def test_dim_upper_is_exceeded_when_n_minus_r_is_at_most_2():
    """cell_dim counts the n-dimensional lineality space, so C(n, r) 3 /
    (n - r + 3) fails for n - r <= 2: a binary-tree valuation on U(2, 5) has
    a 7-dimensional cell, and so has its dual nu*(B) = nu(E - B) on U(3, 5),
    while dim_upper(5, 3) = 6."""
    nu = random_tree_metric_valuation(5, random.Random(3))
    full = (1 << 5) - 1
    dual = Valuation(Matroid.uniform(3, 5), {full ^ b: v for b, v in nu.values.items()})
    assert cell_dim(nu) == cell_dim(dual) == 7
    assert dim_upper(5, 3) == 6


def test_dim_upper_refuses_r_outside_0_to_n():
    """n - r + 3 is 0 at (1, 4): outside 0 <= r <= n the bound is refused,
    not divided by zero; inside that range it is C(n, r) 3 / (n - r + 3)."""
    for n, r in [(1, 4), (4, 5), (4, -1), (0, 1)]:
        with pytest.raises(ScaleLimitError, match="0 <= r <= n"):
            dim_upper(n, r)
    assert [dim_upper(4, r) for r in range(5)] == [
        Fraction(3, 7), Fraction(2), Fraction(18, 5), Fraction(3), Fraction(1)]


def test_certificate_within_dim_upper_for_3_le_r_le_n_minus_3():
    pairs = [(n, r) for n in range(6, 10) for r in range(3, n - 2) if comb(n, r) <= 70]
    assert pairs == [(6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (8, 5)]
    dims = {}
    for n, r in pairs:
        _N, _c, dims[n, r] = lower_bound_certificate(n, r)
        assert dims[n, r] <= dim_upper(n, r)
    assert dims[6, 3] == dim_upper(6, 3) == 10  # tight


def test_rank2_census_dims_within_tree_bound():
    # ambient is uniform: t = n parallel classes, so dim <= n + t - 3 = 2n - 3
    for n in (5, 6):
        rec = sparse_paving_census(2, n, with_dims=True)
        assert rec.dims
        for d in rec.dims:
            assert d <= 2 * n - 3


def test_rank3_census_dims_within_corollary_bound():
    rec = sparse_paving_census(3, 6, with_dims=True)
    rep = bounds_report(6, 3)
    assert rec.max_cell_dim is not None
    assert Fraction(rec.max_cell_dim) <= rep.dim_upper
    assert rec.distinct_is_injective  # N -> type injective over sparse paving
    assert Counter(rec.dims) == {6: 1, 7: 20, 8: 100, 9: 120, 10: 30}


def test_census_count_log_bounds():
    for r, n in [(2, 5), (2, 6), (3, 6)]:
        rec = sparse_paving_census(r, n)
        _z, _z0, z1 = symbol_sets(Matroid.uniform(r, n))
        assert log2(rec.distinct_types) <= len(z1)
        rep = bounds_report(n, r, min(3, r))
        assert log(rec.distinct_types) <= float(rep.count_upper)


def test_contraction_ratio_empirical():
    # max cell dim per coordinate in rank 3 is controlled by the best
    # rank-2 contraction ratio
    rec = sparse_paving_census(3, 6, with_dims=True)
    lhs = Fraction(rec.max_cell_dim, comb(6, 3))
    best = Fraction(0)
    for N in all_sparse_paving_matroids(3, 6):
        nu = valuation_from_matroid(N)
        for e in range(6):
            c, _keep = contract_valuation(nu, [e])
            best = max(best, Fraction(cell_dim(c), comb(5, 2)))
    assert lhs <= best
    assert best <= Fraction(2 * 5 - 3, comb(5, 2))


def test_perturbed_census_refines_sparse_census():
    base = sparse_paving_census(2, 5)
    rich = perturbed_census(2, 5)
    assert rich.source_size >= base.source_size
    assert rich.distinct_types >= base.distinct_types
    assert "lower-bound" in rich.completeness
    assert "complete over sparse paving" in base.completeness


# (r, n) -> (source_size, distinct_types): every residue matroid of every
# nu_N, checked against the sampler and duality in test_subdivision.py
PERTURBED = {(2, 5): (171, 26), (2, 6): (723, 146), (4, 6): (723, 146), (3, 6): (1423, 481)}


@pytest.mark.parametrize("r,n", sorted(PERTURBED))
def test_perturbed_census_counts(r, n):
    rec = perturbed_census(r, n, with_dims=(r, n) == (3, 6))
    assert (rec.source_size, rec.distinct_types) == PERTURBED[r, n]
    assert rec.completeness == ("lower-bound census (sparse paving matroids plus every "
                                "residue matroid of their valuations)")
    if rec.dims:
        assert rec.max_cell_dim == 10 == sparse_paving_census(3, 6, with_dims=True).max_cell_dim
    dual = perturbed_census(n - r, n)
    assert (dual.source_size, dual.distinct_types) == PERTURBED[r, n]


def test_perturbed_census_at_rank_2_stays_within_the_tree_cells():
    cells = {n: sum(rank2_cell_dims(Matroid.uniform(2, n)).values()) for n in (4, 5, 6)}
    for n, count in cells.items():
        rec = perturbed_census(2, n)
        assert rec.distinct_types <= count
        assert (rec.distinct_types == count) == (n in (4, 5)), n


def test_perturbed_census_at_rank_0_and_1_and_n():
    for r, n, sources in [(0, 4, 1), (4, 4, 1), (1, 5, 31), (4, 5, 31)]:
        rec = perturbed_census(r, n)
        assert (rec.source_size, rec.distinct_types) == (sources, 1), (r, n)
    with pytest.raises(ScaleLimitError):  # C(12, 1) = 12, but the walk needs n <= 10
        perturbed_census(1, 12)
    assert sparse_paving_census(1, 12).distinct_types == 1


def test_perturbed_census_repeats_itself():
    runs = [perturbed_census(2, 6, with_dims=True) for _ in range(2)]
    assert runs[0].dims == runs[1].dims


def test_census_record_does_not_depend_on_source_order():
    matroids = all_sparse_paving_matroids(3, 6)
    a = census_from_matroids(3, 6, matroids, with_dims=True)
    b = census_from_matroids(3, 6, matroids[::-1], with_dims=True)
    assert (a.source_size, a.distinct_types, a.max_cell_dim) == (
        b.source_size, b.distinct_types, b.max_cell_dim)
    assert a.dims == b.dims[::-1]


def test_census_from_arbitrary_source():
    rnd = random.Random(3)
    ms = [random_sparse_paving(2, 5, rnd) for _ in range(10)]
    rec = census_from_matroids(2, 5, ms)
    assert rec.source_size == 10
    assert rec.distinct_types <= 10
