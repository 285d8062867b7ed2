import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dressian.linear as linear_module
import reference_kernel as ref
from dressian import (
    CoverInputError,
    ExactCover,
    Matroid,
    RationalSubspace,
    cell_dim,
    exact_cover_check,
    integer_matrix_rank,
    solve_linear_system,
    subspace_from_symbols,
    symbol_sets,
    valuation_from_matroid,
)
from helpers import (
    CORPUS, N1, N2, N3, U25, U36, random_rational, random_valuation, stiefel_valuation,
)


def fraction_rank(rows):
    """Independent oracle: plain Fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_integer_rank_matches_fraction_oracle(rows):
    assert integer_matrix_rank(rows) == fraction_rank(rows)


def test_rank_handles_rational_scaling_via_rows():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    assert integer_matrix_rank(rows) == 2


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_solver_solution_satisfies_system(seed):
    rnd = random.Random(seed)
    nvars = rnd.randint(1, 5)
    variables = [f"x{i}" for i in range(nvars)]
    xs = {v: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for v in variables}
    eqs = []
    for _ in range(rnd.randint(1, 6)):
        coeffs = {v: Fraction(rnd.randint(-3, 3)) for v in variables}
        rhs = sum(c * xs[v] for v, c in coeffs.items())
        eqs.append((coeffs, rhs))
    sol = solve_linear_system(eqs, variables)
    assert sol is not None
    for coeffs, rhs in eqs:
        assert sum(c * sol[v] for v, c in coeffs.items()) == rhs


def test_solver_detects_inconsistency():
    eqs = [({"x": Fraction(1)}, Fraction(1)), ({"x": Fraction(1)}, Fraction(2))]
    assert solve_linear_system(eqs, ["x"]) is None


def test_solver_pins_free_variables_to_zero():
    sol = solve_linear_system([({"x": Fraction(1)}, Fraction(5))], ["x", "y"])
    assert sol == {"x": Fraction(5), "y": Fraction(0)}


def random_subspace(rnd, max_coords=10):
    ncoords = rnd.randint(2, max_coords)
    coords = tuple(range(ncoords))
    eqs = []
    for _ in range(rnd.randint(0, ncoords)):
        eq = {c: Fraction(rnd.randint(-3, 3)) for c in coords if rnd.random() < 0.5}
        eq = {c: v for c, v in eq.items() if v != 0}
        if eq:
            eqs.append(eq)
    return RationalSubspace(coords, eqs)


def test_projection_dim_decomposition():
    rnd = random.Random(13)
    for _ in range(200):
        L = random_subspace(rnd)
        A = [c for c in L.coords if rnd.random() < 0.5]
        assert L.projection_dim(A) + L.zero_section_dim(A) == L.dim()
        assert 0 <= L.projection_dim(A) <= len(A)


def test_supermodular_step():
    # dim L_A + dim L_A' >= dim L_{A u A'} + dim L_{A n A'}
    rnd = random.Random(29)
    for _ in range(1000):
        L = random_subspace(rnd, max_coords=8)
        A = {c for c in L.coords if rnd.random() < 0.5}
        Ap = {c for c in L.coords if rnd.random() < 0.5}
        lhs = L.projection_dim(A) + L.projection_dim(Ap)
        rhs = L.projection_dim(A | Ap) + L.projection_dim(A & Ap)
        assert lhs >= rhs


def test_exact_cover_inequality_randomized():
    rnd = random.Random(31)
    for _ in range(1000):
        L = random_subspace(rnd)
        k = rnd.randint(1, 4)
        ground = list(L.coords)
        # build an exact k-cover: k random set partitions of the ground set
        blocks = []
        for _ in range(k):
            parts = {}
            for x in ground:
                parts.setdefault(rnd.randrange(1 + len(ground) // 2), []).append(x)
            blocks.extend(p for p in parts.values() if p)
        cover = ExactCover(frozenset(ground), tuple(map(frozenset, blocks)), k)
        lhs, rhs, holds = exact_cover_check(L, cover)
        assert holds
        assert Fraction(lhs) <= rhs


def test_cover_validation():
    with pytest.raises(CoverInputError):
        ExactCover(frozenset({0, 1}), (frozenset({0}),), 1)  # 1 uncovered
    with pytest.raises(CoverInputError):
        ExactCover(frozenset({0}), (frozenset({0, 1}),), 1)  # leaves ground
    with pytest.raises(CoverInputError):
        ExactCover(frozenset({0}), (frozenset(),), 0)  # empty block
    cover = ExactCover(frozenset({0, 1}), (frozenset({0, 1}),), 1)
    L = RationalSubspace((0, 1, 2), [])
    with pytest.raises(CoverInputError):
        exact_cover_check(L, cover)  # ground mismatch


def test_cell_dim_anchors():
    zero = valuation_from_matroid(Matroid.uniform(2, 4))
    assert cell_dim(zero) == 4
    dims = [cell_dim(valuation_from_matroid(N)) for N in (N1, N2, N3)]
    assert dims == [5, 6, 7]


def test_cell_dim_at_least_n_for_uniform():
    rnd = random.Random(37)
    for r, n in [(2, 5), (2, 6), (3, 6)]:
        M = Matroid.uniform(r, n)
        for _ in range(8):
            assert cell_dim(random_valuation(M, rnd)) >= n


def test_cell_dim_bounded_by_forced_subspace():
    # L([nu]) sits inside the space cut out by the forced symbols alone
    from dressian import Valuation

    for N in (N2, N3):
        _z, z0, _z1 = symbol_sets(N)
        forced = subspace_from_symbols(N, z0)
        nu = Valuation(N, {b: Fraction(0) for b in N.bases})
        assert cell_dim(nu) <= forced.dim()


def test_more_symbols_never_increase_dimension():
    rnd = random.Random(43)
    z, _z0, _z1 = symbol_sets(U25)
    syms = sorted(z, key=lambda s: s.as_key())
    for _ in range(20):
        a = rnd.sample(syms, rnd.randint(0, len(syms)))
        extra = rnd.sample(syms, rnd.randint(0, len(syms)))
        small = subspace_from_symbols(U25, a)
        big = subspace_from_symbols(U25, set(a) | set(extra))
        assert big.dim() <= small.dim()


def test_subspace_membership():
    L = RationalSubspace(("a", "b"), [{"a": Fraction(1), "b": Fraction(-1)}])
    assert L.contains({"a": Fraction(2), "b": Fraction(2)})
    assert not L.contains({"a": Fraction(2), "b": Fraction(1)})
    assert L.dim() == 1


# ---------------------------------------------------------------------------
# The integer rows of a subspace against Fraction rows and the Fraction rank


def rational_subspace_case(rnd):
    """Coordinates of three kinds, rational equations with denominators 1..5,
    and a point x0 that most of the equations vanish on."""
    kinds = (lambda i: i, lambda i: f"c{i}", lambda i: (i, -i))
    coords = tuple(rnd.choice(kinds)(i) for i in range(rnd.randint(1, 9)))
    x0 = {c: random_rational(rnd, -3, 3, den=rnd.randint(1, 5)) for c in coords}
    eqs = []
    for _ in range(rnd.randint(0, len(coords) + 1)):
        eq = {c: random_rational(rnd, -3, 3, den=rnd.randint(1, 5))
              for c in coords if rnd.random() < 0.6}
        pivot = next((c for c in eq if x0[c]), None)
        if pivot is not None and rnd.random() < 0.7:
            eq[pivot] -= sum(a * x0[c] for c, a in eq.items()) / x0[pivot]
        eqs.append(eq)
    return coords, eqs, x0


def test_subspace_rows_match_the_fraction_rank():
    rnd = random.Random(73)
    verdicts = set()
    for _ in range(300):
        coords, eqs, x0 = rational_subspace_case(rnd)
        L = RationalSubspace(coords, eqs)
        rows = [[eq.get(c, Fraction(0)) for c in coords] for eq in eqs]
        assert L.dim() == len(coords) - ref.fraction_rank(rows)
        A = [c for c in coords if rnd.random() < 0.5]
        units = [[Fraction(c == a) for c in coords] for a in A]
        zero = len(coords) - ref.fraction_rank(rows + units)
        assert L.zero_section_dim(A) == zero
        assert L.projection_dim(A) == L.dim() - zero
        x1 = dict(x0)
        x1[rnd.choice(coords)] += 1
        for x in (x0, x1):
            expected = all(sum(a * x[c] for c, a in eq.items()) == 0 for eq in eqs)
            # zero coordinates may be left out, and a key that is not a
            # coordinate is refused
            vector = {c: v for c, v in x.items() if v or rnd.random() < 0.5}
            assert L.contains(vector) is expected
            with pytest.raises(CoverInputError, match="unknown coordinates"):
                L.contains({**vector, "not a coordinate": Fraction(7, 3)})
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_symbol_subspaces_match_the_fraction_rank():
    for M in CORPUS:
        coords = M.sorted_bases()
        z, z0, _z1 = symbol_sets(M)
        for symbols in (z0, z):
            rows = []
            for sym in symbols:
                row = [Fraction(0)] * len(coords)
                sac, sbd, sad, sbc = sym.cross_sets()
                for m, coef in ((sac, 1), (sbd, 1), (sad, -1), (sbc, -1)):
                    if m in M.bases:
                        row[coords.index(m)] += coef
                rows.append(row)
            expected = len(coords) - ref.fraction_rank(rows)
            assert subspace_from_symbols(M, symbols).dim() == expected


def test_subspace_ranks_and_cell_dim_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built in dressian.linear")

    z, _z0, _z1 = symbol_sets(U36)
    nu = stiefel_valuation(3, 6, random.Random(83))
    expected = ref.cell_dim(nu)
    ranked, certified = [], []
    real_rank = linear_module.integer_matrix_rank
    real_certify = linear_module._certified_rank
    monkeypatch.setattr(linear_module, "integer_matrix_rank",
                        lambda rows: ranked.append(len(rows)) or real_rank(rows))
    monkeypatch.setattr(linear_module, "_certified_rank",
                        lambda quads, independent, ncols: certified.append(len(quads))
                        or real_certify(quads, independent, ncols))
    monkeypatch.setattr(linear_module, "Fraction", refuse)
    L = RationalSubspace(("a", "b", "c", "d"), [{"a": 1, "b": -1}, {"b": 2, "c": 3}])
    assert (L.dim(), L.zero_section_dim(["a"]), L.projection_dim(["a", "c"])) == (2, 1, 1)
    assert subspace_from_symbols(U36, z).dim() == 6  # the lineality space
    ranked.clear()
    assert cell_dim(nu) == expected
    # the parity bounds differ, so the kernel certificate ranked the rows
    assert ranked == [] and certified


def test_unknown_block_coordinates_are_cover_input_errors():
    L = RationalSubspace((0, 1, "a"), [{0: Fraction(1), "a": Fraction(-1)}])
    for A in ([2], ["0"], [(0, 1), 0]):
        with pytest.raises(CoverInputError, match="not in ambient"):
            L.zero_section_dim(A)
        with pytest.raises(CoverInputError, match="not in ambient"):
            L.projection_dim(A)
