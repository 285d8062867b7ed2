import json
import random
import re
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressian import (
    Matroid,
    MatroidInputError,
    NotAMatroidError,
    ScaleLimitError,
    all_symbols,
    is_matroid,
    johnson_neighbors,
    mask_to_set,
    modular_stable_matroid,
    r_subset_masks,
    set_to_mask,
)
import dressian.matroid as matroid_module
from dressian.matroid import DESK_SCALE_SUBSETS, require_listable, subset_key, subsets_up_to
from dressian.valuation import symbol_table
from helpers import CORPUS, random_sparse_paving


def brute_rank(bases, X):
    """Rank oracle: largest intersection of X with any basis."""
    xm = set_to_mask(X)
    return max(bin(b & xm).count("1") for b in bases)


def test_masks_roundtrip():
    for elems in [(0,), (1, 3), (0, 2, 5), ()]:
        assert mask_to_set(set_to_mask(elems)) == tuple(sorted(elems))


def test_negative_mask_is_refused_quickly():
    started = time.perf_counter()
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError):
            mask_to_set(mask)
    assert time.perf_counter() - started < 1


def test_johnson_neighbors_refuses_a_negative_mask_quickly():
    started = time.perf_counter()
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="negative subset mask"):
            next(johnson_neighbors(4, mask))
    assert time.perf_counter() - started < 1


def test_negative_element_in_a_basis_is_a_matroid_input_error():
    for bases, message in (([(-1, 0), (0, 1)], r"^basis \(-1, 0\): element -1 is not in 0\.\.3$"),
                           ([(0, 1), (2, -2)], r"^basis \(2, -2\): element -2 is not in 0\.\.3$")):
        with pytest.raises(MatroidInputError, match=message):
            Matroid(4, 2, bases)


def test_a_negative_rank_is_a_matroid_input_error():
    """Every lister of r-subsets refuses r < 0 at one check, before
    `itertools.combinations` can raise its bare ValueError."""
    for call in (lambda: Matroid.uniform(-1, 3), lambda: r_subset_masks(3, -1),
                 lambda: symbol_table(3, -1), lambda: all_symbols(3, -1)):
        with pytest.raises(MatroidInputError, match=r"^rank r=-1 is negative$"):
            call()
    assert r_subset_masks(3, 5) == [] and r_subset_masks(3, 0) == [0]


def test_a_negative_ground_set_is_a_matroid_input_error():
    """The same check refuses n < 0, where `combinations(range(n), 0)`
    would list the empty set."""
    for n, call in ((-1, lambda: r_subset_masks(-1, 0)), (-2, lambda: symbol_table(-2, 0))):
        with pytest.raises(MatroidInputError, match=rf"^n={n} is negative$"):
            call()


def test_subset_key_writes_elements_ascending():
    assert [subset_key(m) for m in (0, 0b1, 0b101100, 1 << 12)] == ["", "0", "2,3,5", "12"]


def test_johnson_neighbors_order():
    # e ascending over the mask, then f ascending outside it
    for n in range(1, 8):
        for mask in range(1 << n):
            inside = [e for e in range(n) if mask >> e & 1]
            outside = [f for f in range(n) if not mask >> f & 1]
            expected = [mask ^ 1 << e | 1 << f for e in inside for f in outside]
            assert list(johnson_neighbors(n, mask)) == expected, (n, mask)


def test_johnson_components_merge_adjacent_nonbases():
    # bases 03, 13, 23: the non-bases 01, 02, 12 are pairwise adjacent in J(2, 4)
    M = Matroid(4, 2, frozenset({0b1001, 0b1010, 0b1100}))
    assert not M.is_sparse_paving()
    rep = M.johnson_components()
    assert (rep.nonbasis_count, rep.component_count, rep.components) == (3, 1, [[3, 5, 6]])


def test_r_subset_masks_is_colex_sorted():
    masks = r_subset_masks(5, 2)
    assert masks == sorted(masks)
    assert len(masks) == 10


def test_uniform_counts():
    assert len(Matroid.uniform(2, 4).bases) == 6
    assert len(Matroid.uniform(3, 6).bases) == 20


def test_uniform_is_built_once_per_rank_and_size():
    assert Matroid.uniform(3, 6) is Matroid.uniform(3, 6)
    assert Matroid.uniform(3, 6) == Matroid(6, 3, frozenset(r_subset_masks(6, 3)))


def test_not_a_matroid_rejected():
    # two "parallel" pairs sharing an element cannot both be non-bases
    full = set(r_subset_masks(5, 2))
    bad = full - {set_to_mask((0, 1)), set_to_mask((0, 2))}
    assert not is_matroid(5, 2, [mask_to_set(b) for b in bad])
    with pytest.raises(NotAMatroidError):
        Matroid(5, 2, bad)


def test_malformed_input_distinct_from_axiom_failure():
    with pytest.raises(MatroidInputError):
        is_matroid(4, 2, [(0, 1), (0, 7)])  # element out of range
    with pytest.raises(MatroidInputError):
        is_matroid(4, 2, [(0, 1, 2)])  # wrong cardinality
    with pytest.raises(MatroidInputError):
        is_matroid(4, 2, [])


def test_rank_against_oracle():
    rnd = random.Random(5)
    for M in CORPUS:
        for _ in range(30):
            X = [e for e in range(M.n) if rnd.random() < 0.5]
            assert M.rank_of(X) == brute_rank(M.bases, X)


def test_dual_involution_corpus():
    for M in CORPUS:
        assert M.dual().dual() == M
        assert M.dual().r == M.n - M.r


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 5), (2, 6), (3, 6)]))
def test_dual_involution_random_sparse_paving(seed, rn):
    r, n = rn
    M = random_sparse_paving(r, n, random.Random(seed))
    assert M.dual().dual() == M


def test_minor_ranks():
    M = Matroid.uniform(3, 6)
    C, keep = M.minor(contract_set=[0])
    assert C.r == 2 and C.n == 5
    D, keep2 = M.minor(delete_set=[5])
    assert D.r == 3 and D.n == 5


def test_minor_commutes_with_duality_on_uniform():
    for r, n in [(2, 5), (3, 6), (3, 7)]:
        M = Matroid.uniform(r, n)
        for S in [(0,), (0, 1)]:
            if len(S) >= r:
                continue
            left, km1 = M.minor(contract_set=S)
            right, km2 = M.dual().minor(delete_set=S)
            assert km1 == km2
            assert left.dual() == right


def test_contract_delete_rank_oracle():
    rnd = random.Random(11)
    for _ in range(20):
        M = random_sparse_paving(3, 6, rnd)
        e = rnd.randrange(6)
        C, keep = M.minor(contract_set=[e])
        # rank in M/e of X equals rank_M(X + e) - rank_M(e)
        back = {new: old for new, old in enumerate(keep)}
        for X in combinations(range(C.n), 2):
            lifted = [back[x] for x in X]
            assert C.rank_of(X) == M.rank_of(lifted + [e]) - M.rank_of([e])


@settings(max_examples=80, deadline=None)
@given(st.integers(5, 8), st.integers(2, 4), st.integers(0, 9))
def test_modular_stable_is_sparse_paving(n, r, k):
    if r >= n:
        return
    try:
        N = modular_stable_matroid(n, r, k % n)
    except ValueError:
        return
    assert N.is_sparse_paving()
    rep = N.johnson_components()
    assert rep.component_count == rep.nonbasis_count  # each non-basis isolated


def test_sparse_paving_neighbors_are_bases():
    rnd = random.Random(2)
    for _ in range(25):
        M = random_sparse_paving(2, 6, rnd)
        for nb in M.nonbases():
            for m in johnson_neighbors(M.n, nb):
                assert m in M.bases


def test_uniform_refuses_more_subsets_than_the_limit():
    assert comb(500, 1) == DESK_SCALE_SUBSETS
    assert len(Matroid.uniform(1, 500).bases) == 500
    for r, n in [(1, 501), (2, 33), (3, 16), (2, 10**6), (5 * 10**5, 10**6)]:
        with pytest.raises(ScaleLimitError):
            Matroid.uniform(r, n)
        with pytest.raises(ScaleLimitError):
            symbol_table(n, r)


def test_subsets_up_to_stops_past_the_cap():
    for n in range(12):
        for r in range(n + 1):
            for cap in (0, 1, 5, 20, 462, 500):
                expected = comb(n, r) if comb(n, r) <= cap else None
                assert subsets_up_to(n, r, cap) == expected


def test_require_listable_names_the_cap_it_enforces():
    assert require_listable(8, 4, 70, "the walk") is None  # C(8, 4) = 70, the cap itself
    with pytest.raises(ScaleLimitError, match=r"^C\(9,3\) = 84 exceeds 70, the limit on the walk$"):
        require_listable(9, 3, 70, "the walk")
    # past DESK_SCALE_SUBSETS the count is neither finished nor printed
    with pytest.raises(ScaleLimitError, match=r"^C\(33, 2\) exceeds 500, the limit on the r-subsets listed$"):
        require_listable(33, 2, 70, "the walk")
    for n, r in [(3, 4), (3, -1), (-1, 0)]:  # outside 0 <= r <= n nothing is checked
        assert require_listable(n, r, 0) is None


def test_readme_states_every_limit_with_its_value():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.findall(r"`(DESK_SCALE_[A-Z0-9_]+) = (\d+)`", readme)
    for name, value in stated:
        assert getattr(matroid_module, name) == int(value), name
    defined = {name for name in vars(matroid_module) if name.startswith("DESK_SCALE_")}
    missing = defined - {name for name, _value in stated}
    assert defined and not missing, sorted(missing)


def test_json_roundtrip():
    for M in CORPUS:
        assert Matroid.from_json(M.to_json()) == M
        obj = json.loads(M.to_json())
        assert set(obj) == {"n", "r", "bases"}


def test_json_field_types_are_checked():
    good = Matroid.uniform(2, 4).to_json_obj()
    for bad in ({"n": "4"}, {"n": 4.0}, {"r": True}, {"bases": [1, 2]},
                {"bases": [[0, "1"]]}, {"bases": "0,1"}, {"bases": [[0, 1.0]]},
                {"bases": [[-1, 0]]}, {"bases": [[0, 4]]}, {"bases": [[0, 10**30]]}):
        with pytest.raises(MatroidInputError):
            Matroid.from_json_obj(good | bad)

