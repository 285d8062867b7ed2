"""Every library constructor builds a valuation's integer view directly and
goes through `Valuation._from_scaled`, the JSON loader too; the public
`Valuation(M, values)` reads a value map, and the JSON loader a document's
values, with `_integer_view`, and every road stores through `Valuation._hold`.  Each result is checked against the
public `Valuation(M, values)` and the dataclass record of
`reference_records.py` on a value map computed here in Fractions, the way
the constructors computed it before: equal, hashed alike, printed alike, and
with the same denominator, integer view and Fraction map."""

import ast
import itertools
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import dressian.valuation as valuation_module
import reference_records as ref
from dressian import (
    INF,
    InvariantViolation,
    Matroid,
    MatroidInputError,
    MetricTree,
    NotAValuationError,
    Valuation,
    ValuationInputError,
    all_sparse_paving_matroids,
    contract_valuation,
    decode_tree,
    mask_to_set,
    set_to_mask,
    shift,
    smooth_decompose,
    sparse_paving_census,
    tree_to_valuation,
    valuation_from_matroid,
)
from dressian.valuation import symbol_table
from helpers import (
    CORPUS,
    N3,
    U24,
    U36,
    random_shift_vector,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
    stiefel_valuation,
)
from reference_trees import tree_to_valuation as reference_tree_to_valuation

# -- the value maps in Fractions ----------------------------------------------


def fraction_levels(N):
    return {m: Fraction(N.r - N.rank_of(m)) for m in Matroid.uniform(N.r, N.n).bases}


def fraction_shift(nu, w):
    return {m: v + sum(Fraction(w[e]) for e in mask_to_set(m)) for m, v in nu.values.items()}


def fraction_contraction(nu, sm, minor, keep):
    return {b: nu.values[set_to_mask(keep[e] for e in mask_to_set(b)) | sm] for b in minor.bases}


def fraction_smooth(nu):
    """The greedy spike peeling on the Fraction map: (remainder, peels)."""
    M, vals, peels = nu.matroid, dict(nu.values), []
    changed = True
    while changed:
        changed = False
        for b in sorted(vals):
            rest = [e for e in range(M.n) if not (b >> e) & 1]
            slacks = []
            for x, y in itertools.combinations(mask_to_set(b), 2):
                s = b ^ (1 << x) ^ (1 << y)
                for c, d in itertools.combinations(rest, 2):
                    p0 = vals[b] + vals[s | 1 << c | 1 << d]
                    p1 = vals[s | 1 << x | 1 << c] + vals[s | 1 << y | 1 << d]
                    p2 = vals[s | 1 << x | 1 << d] + vals[s | 1 << y | 1 << c]
                    slacks.append(p0 - p1 if p1 == p2 else Fraction(0))
            lam = min(slacks, default=Fraction(0))
            if lam > 0:
                vals[b] -= lam
                peels.append((b, lam))
                changed = True
    return vals, peels


# -- the corpus ---------------------------------------------------------------


def built_corpus():
    """(label, valuation built by the library, its value map in Fractions)."""
    rnd = random.Random(2024)
    out = []
    sources = list(CORPUS)
    sources += [random_sparse_paving(r, n, rnd) for r, n in [(2, 5), (2, 6), (3, 6), (3, 7),
                                                             (4, 7), (2, 7), (3, 6)]]
    sources += [random_sparse_paving(3, 6, rnd) for _ in range(6)]
    for N in sources:
        out.append(("from_matroid", valuation_from_matroid(N), fraction_levels(N)))
    bases = [nu for _, nu, _ in out]
    bases += [random_valuation(M, rnd) for M in CORPUS for _ in range(2)]
    bases += [stiefel_valuation(r, n, rnd, holes) for r, n, holes in
              [(2, 5, 0), (3, 6, 0), (3, 6, 3), (3, 7, 2), (4, 8, 0), (2, 6, 2)]]
    for n in range(3, 10):
        T = decode_tree(random_tree_metric_valuation(n, rnd))
        M = Matroid.uniform(2, n)
        out.append(("tree", tree_to_valuation(T, M), reference_tree_to_valuation(T, M).values))
    T = MetricTree.from_newick("((0:1/2,1:-2/3):-3/5,2:5/7,(3:1/3,4:-2/5):-1/7,5:3);")
    out.append(("tree", tree_to_valuation(T, Matroid.uniform(2, 6)),
                reference_tree_to_valuation(T, Matroid.uniform(2, 6)).values))
    # lengths over 2 whose path sums are all even: the view drops the factor
    T = MetricTree.from_newick("((0:1/2,1:1/2):-1,2:1/2,3:3/2);")
    out.append(("tree", tree_to_valuation(T, U24), reference_tree_to_valuation(T, U24).values))
    bases += [nu for label, nu, _ in out if label == "tree"]
    for nu in bases:
        w = random_shift_vector(nu.matroid.n, rnd)
        out.append(("shift", shift(nu, w), fraction_shift(nu, w)))
        # integer and string entries, and a shift that cancels every denominator
        w = [rnd.randint(-3, 3) for _ in range(nu.matroid.n)]
        out.append(("shift", shift(nu, [str(x) for x in w]), fraction_shift(nu, w)))
        for S in itertools.combinations(range(nu.matroid.n), min(2, nu.matroid.r)):
            sm = set_to_mask(S)
            if nu.matroid.is_independent(sm) and rnd.random() < 0.4:
                minor, keep = nu.matroid.minor(contract_set=sm)
                out.append(("contract", contract_valuation(nu, S)[0],
                            fraction_contraction(nu, sm, minor, keep)))
        if nu.matroid.is_uniform() and nu.matroid.n <= 6:
            out.append(("smooth", smooth_decompose(nu)[0], fraction_smooth(nu)[0]))
        out.append(("json", Valuation.from_json_obj(nu.to_json_obj()), nu.values))
    return out


CORPUS_BUILT = built_corpus()


def test_the_corpus_reaches_every_constructor():
    labels = {label for label, _, _ in CORPUS_BUILT}
    assert labels == {"from_matroid", "tree", "shift", "contract", "smooth", "json"}
    assert len(CORPUS_BUILT) > 300
    # views with a denominator, and non-uniform matroids, are both reached
    assert any(nu.denominator > 1 for _, nu, _ in CORPUS_BUILT)
    assert any(not nu.matroid.is_uniform() for _, nu, _ in CORPUS_BUILT)


def test_constructors_match_the_public_constructor_and_the_dataclass():
    for label, nu, values in CORPUS_BUILT:
        values = dict(sorted(values.items()))  # the derived map is in colex order
        public = Valuation(nu.matroid, values)
        record = ref.Valuation(ref.to_reference(nu.matroid), values)
        assert nu == public and public == nu, label
        assert hash(nu) == hash(public) == hash(record), label
        assert repr(nu) == repr(public) == repr(record), label
        assert (nu.denominator, nu.scaled) == (public.denominator, public.scaled), label
        assert (nu.denominator, nu.scaled) == (record.denominator, record.scaled), label
        assert nu.values == values, label
        assert all(type(v) is Fraction for v in nu.values.values()), label


def test_the_view_is_reduced():
    # D and the entries share no factor, so equal value maps have equal views
    for _, nu, _ in CORPUS_BUILT:
        assert gcd(nu.denominator, *(x for x in nu.scaled if x is not INF)) == 1


def test_equal_views_after_dividing_out_a_common_factor():
    nu = valuation_from_matroid(N3)
    for k in (2, 6, 35):
        scaled_up = Valuation._from_scaled(
            nu.matroid, k * nu.denominator, tuple(x if x is INF else k * x for x in nu.scaled))
        assert scaled_up == nu and hash(scaled_up) == hash(nu)
        assert (scaled_up.denominator, scaled_up.scaled) == (nu.denominator, nu.scaled)
    half = Valuation._from_scaled(U24, 2, (1, 2, 3, 4, 5, 6))
    assert half.values == {m: Fraction(k, 2) for k, m in enumerate(sorted(U24.bases), 1)}


def test_equal_valuations_hash_alike_without_deriving_values():
    nu = Valuation(N3, random_valuation(N3, random.Random(5)).values)
    view = Valuation._from_scaled(
        N3, 2 * nu.denominator, tuple(x if x is INF else 2 * x for x in nu.scaled))
    assert hash(view) == hash(nu) and view == nu
    assert view._values is None and nu._values is None


def test_values_are_derived_once_and_kept():
    nu = valuation_from_matroid(random_sparse_paving(3, 6, random.Random(3)))
    assert nu._values is None
    first = nu.values
    assert nu.values is first
    assert list(first) == list(symbol_table(6, 3).subsets)


def test_smooth_peels_match_the_fraction_peeling():
    rnd = random.Random(29)
    for M in (U24, Matroid.uniform(2, 5), U36):
        for _ in range(4):
            nu = random_valuation(M, rnd)
            remainder, peels = smooth_decompose(nu)
            values, expected = fraction_smooth(nu)
            assert peels == expected
            assert remainder.values == values


# -- refusals -----------------------------------------------------------------


def zero_view(M):
    return tuple(0 if m in M.bases else INF for m in symbol_table(M.n, M.r).subsets)


def test_integer_view_refuses_a_wrong_length():
    view = zero_view(U24)
    for bad in (view[:-1], view + (0,), ()):
        with pytest.raises(InvariantViolation, match="entries for 6 r-subsets"):
            Valuation._from_scaled(U24, 1, bad)


def test_integer_view_refuses_inf_on_a_basis():
    view = list(zero_view(U24))
    view[2] = INF
    with pytest.raises(InvariantViolation, match="INF on basis 1,2"):
        Valuation._from_scaled(U24, 1, tuple(view))


def test_integer_view_refuses_a_finite_entry_off_the_bases():
    view = list(zero_view(N3))
    hole = symbol_table(5, 2).position[0b11]
    assert view[hole] is INF
    view[hole] = 0
    with pytest.raises(InvariantViolation, match="finite on non-basis 0,1"):
        Valuation._from_scaled(N3, 1, tuple(view))


@pytest.mark.parametrize("entry", [Fraction(1), 1.0, "1", True, None])
def test_integer_view_refuses_an_entry_that_is_not_an_int(entry):
    view = list(zero_view(U24))
    view[0] = entry
    with pytest.raises(InvariantViolation, match="integer view holds"):
        Valuation._from_scaled(U24, 1, tuple(view))


@pytest.mark.parametrize("den", [0, -2, Fraction(1), 1.0, True])
def test_integer_view_refuses_a_denominator_that_is_not_a_positive_int(den):
    with pytest.raises(InvariantViolation, match="denominator"):
        Valuation._from_scaled(U24, den, zero_view(U24))


def test_integer_view_runs_the_three_term_check():
    view = list(zero_view(U24))
    view[0] = 1  # nu(01) up: the least pair sum, 0, is still attained twice
    Valuation._from_scaled(U24, 1, tuple(view))
    view[0] = -1  # nu(01) down: the least pair sum, -1, is attained once
    for den in (1, 3):
        with pytest.raises(NotAValuationError, match="three-term"):
            Valuation._from_scaled(U24, den, tuple(view))


def test_json_loader_keeps_the_public_messages():
    vals = {m: Fraction(0) for m in N3.bases}
    documents = [
        ({**vals, 0b11: Fraction(1)}, "value supplied for non-basis 0,1"),
        (dict(list(vals.items())[1:]), "missing values for 1 bases"),
    ]
    for values, message in documents:
        obj = {"matroid": N3.to_json_obj(),
               "values": {",".join(map(str, mask_to_set(m))): str(v) for m, v in values.items()}}
        with pytest.raises(ValuationInputError, match=message):
            Valuation.from_json_obj(obj)
        with pytest.raises(ValuationInputError, match=message):
            Valuation(N3, values)
    # an extension map is refused for its first non-basis, not for its INF
    extension = {m: Fraction(0) if m in N3.bases else INF for m in symbol_table(5, 2).subsets}
    with pytest.raises(ValuationInputError, match="non-basis 0,1"):
        Valuation(N3, extension)


# -- no Fraction on the census path -------------------------------------------


def test_the_census_builds_no_fraction_in_the_valuation_module(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built on the census path")

    monkeypatch.setattr(valuation_module, "Fraction", refuse)
    rec = sparse_paving_census(3, 6, with_dims=True)
    assert (rec.source_size, rec.distinct_types, rec.max_cell_dim) == (271, 271, 10)
    with pytest.raises(AssertionError, match="census path"):
        valuation_from_matroid(N3).values


# -- one road into a Valuation --------------------------------------------------


def test_every_library_constructor_is_a_known_road():
    # the roads below are every caller of `_from_scaled` in the package;
    # the JSON loader builds from the view `parse_valuation_document` reads
    src = Path(valuation_module.__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "_from_scaled"
                    for n in ast.walk(fn)):
                callers.add(fn.name)
    assert callers == {"shift", "contract_valuation", "valuation_from_matroid",
                       "smooth_decompose", "tree_to_valuation", "from_json_obj"}


def test_every_road_stores_through_one_hold(monkeypatch):
    nu = valuation_from_matroid(N3)
    nu_u = shift(valuation_from_matroid(random_sparse_paving(2, 4, random.Random(5))),
                 [0, Fraction(1, 2), 0, 0])
    T = MetricTree.from_newick("((0:1/2,1:1/2):-1,2:1/2,3:3/2);")
    roads = {
        "public": lambda: Valuation(U24, {m: Fraction(k, 3) for k, m in enumerate(U24.bases)}),
        "from_json_obj": lambda: Valuation.from_json_obj(nu.to_json_obj()),
        "valuation_from_matroid": lambda: valuation_from_matroid(N3),
        "shift": lambda: shift(nu, [1, Fraction(1, 2), 0, 0, 0]),
        "contract_valuation": lambda: contract_valuation(nu, (2,))[0],
        "smooth_decompose": lambda: smooth_decompose(nu_u)[0],
        "tree_to_valuation": lambda: tree_to_valuation(T, U24),
    }
    hold = Valuation._hold
    calls = []

    def spy(self, *args):
        calls.append(args)
        hold(self, *args)

    monkeypatch.setattr(Valuation, "_hold", spy)
    for road, build in roads.items():
        calls.clear()
        built = build()
        assert len(calls) == 1, road
        assert built._values is None, road


def test_the_public_constructor_rebuilds_every_view():
    sources = [valuation_from_matroid(M) for M in CORPUS]
    rnd = random.Random(11)
    sources += [random_valuation(M, rnd) for M in CORPUS for _ in range(3)]
    sources += [valuation_from_matroid(N) for N in all_sparse_paving_matroids(3, 6)]
    assert len(sources) == len(CORPUS) * 4 + 271
    for nu in sources:
        again = Valuation(nu.matroid, nu.values)
        assert (again.denominator, again.scaled) == (nu.denominator, nu.scaled)


def test_values_come_out_in_colex_order_whatever_the_input_order():
    values = {m: Fraction(1) if m == 0b1100 else Fraction(0) for m in sorted(U24.bases)[::-1]}
    nu = Valuation(U24, values)
    assert list(nu.values) == sorted(U24.bases)
    assert nu._values is not None and nu.values == values


U24_KEYS = {tuple(mask_to_set(m)): 0 for m in sorted(U24.bases)}
MALFORMED = [
    # (label, matroid, value map, message)
    ("string key", U24, {**U24_KEYS, "01": 0}, "subset '01': element '0' is not in 0..3"),
    ("two keys, one subset", U24, {**U24_KEYS, (1, 0): 1}, "two values for subset 0,1"),
    ("mask and tuple", U24, {**U24_KEYS, 0b11: 1}, "two values for subset 0,1"),
    # a bad value's message ends with the reason `parse_rational` gives
    ("None value", U24, {**U24_KEYS, (0, 1): None},
     "bad value None for subset 0,1: bad rational None: .+"),
    ("INF value", U24, {**U24_KEYS, (0, 1): INF}, "bad value INF for subset 0,1: bad rational INF: .+"),
    ("text value", U24, {**U24_KEYS, (0, 1): "x"},
     "bad value 'x' for subset 0,1: bad rational 'x': .+"),
    ("NaN value", U24, {**U24_KEYS, (0, 1): float("nan")},
     "bad value nan for subset 0,1: bad rational nan: .+"),
    ("repeated element", U24, {(0, 0, 1): 0, **U24_KEYS}, r"subset \(0, 0, 1\): repeated element 0"),
    ("far element", U24, {(0, 10**6): 1, **U24_KEYS},
     r"subset \(0, 1000000\): element 1000000 is not in 0..3"),
    ("farther element", U24, {(0, 10**10): 1, **U24_KEYS},
     r"subset \(0, 10000000000\): element 10000000000 is not in 0..3"),
    ("non-basis", N3, {**{m: 0 for m in N3.bases}, 0b11: 0}, "value supplied for non-basis 0,1"),
    ("missing basis", N3, dict(list({m: 0 for m in N3.bases}.items())[1:]),
     "missing values for 1 bases"),
]


@pytest.mark.parametrize("label, M, values, message", MALFORMED,
                         ids=[row[0] for row in MALFORMED])
def test_every_reader_refuses_a_malformed_map_alike(label, M, values, message):
    started = time.perf_counter()
    for read in (Valuation, valuation_module.check_valuation,
                 valuation_module.check_valuation_bruteforce):
        with pytest.raises(ValuationInputError, match=f"^{message}$"):
            read(M, values)
    assert time.perf_counter() - started < 1, label


def test_a_far_mask_is_listed_by_its_set_bits():
    started = time.perf_counter()
    assert mask_to_set(1 << 10**6 | 1 << 3 | 1) == (0, 3, 10**6)
    assert mask_to_set(1 << 10**7) == (10**7,)
    assert time.perf_counter() - started < 1


def test_a_repeated_element_is_refused():
    with pytest.raises(ValueError, match="repeated element 0"):
        set_to_mask((0, 1, 0))
    with pytest.raises(MatroidInputError, match="repeated element 0"):
        Matroid(3, 2, [(0, 0, 1), (0, 1), (0, 2), (1, 2)])
