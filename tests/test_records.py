"""The slotted records against their former `@dataclass` definitions
(`reference_records.py`): equality, hashing, order, repr, keyword
construction and immutability on a corpus of instances."""

import copy
import pickle
import random
from dataclasses import fields

import pytest

import reference_records as ref
from dressian import (
    ExactCover,
    Matroid,
    Symbol,
    Valuation,
    all_symbols,
    combinatorial_type,
    decode_tree,
    enumerate_rank2_cells,
    mask_to_set,
    shift,
    valuation_from_matroid,
)
from helpers import (
    CORPUS,
    N3,
    N26,
    U24,
    U25,
    U36,
    random_shift_vector,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
)


def _matroids():
    rnd = random.Random(5)
    out = list(CORPUS) + [M.dual() for M in CORPUS]
    out += [random_sparse_paving(3, 6, rnd) for _ in range(6)]
    # equal to earlier ones, built anew from element tuples
    out += [Matroid(M.n, M.r, [tuple(mask_to_set(b)) for b in M.bases]) for M in CORPUS[:4]]
    return out


def _valuations():
    rnd = random.Random(11)
    out = []
    for M in (U24, U25, U36, N3, N26):
        for _ in range(3):
            nu = random_valuation(M, rnd)
            out += [nu, Valuation(M, dict(nu.values)),
                    shift(nu, random_shift_vector(M.n, rnd))]
    out += [valuation_from_matroid(random_sparse_paving(3, 6, rnd)) for _ in range(4)]
    return out


def _types():
    rnd = random.Random(13)
    out = []
    for nu in _valuations():
        # a shift keeps the type, so the second is equal to the first
        out += [combinatorial_type(nu),
                combinatorial_type(shift(nu, random_shift_vector(nu.matroid.n, rnd)))]
    return out


def _symbols():
    out = all_symbols(5, 2) + all_symbols(6, 3)
    return out + [Symbol.make(s.s_mask, (s.c, s.d), (s.a, s.b)) for s in out[::7]]


def _covers():
    ground = frozenset(range(4))
    return [ExactCover(ground, blocks, k) for blocks, k in [
        ([{0, 1}, {2, 3}], 1),
        ([{2, 3}, {0, 1}], 1),
        ([{0, 1}, {2, 3}], 1),
        ([{0, 1, 2, 3}], 1),
        ([{0, 1}, {2, 3}, {0, 2}, {1, 3}], 2),
        ([{0, 1}, {2, 3}, {0, 1}, {2, 3}], 2),
    ]]


def _topologies():
    rnd = random.Random(17)
    out = [topo for topo, _dim in enumerate_rank2_cells(U25)]
    for n in (5, 6, 5, 6):
        out.append(decode_tree(random_tree_metric_valuation(n, rnd)).topology())
    return out + [topo for topo, _dim in enumerate_rank2_cells(U25)][:5]


FAMILIES = {
    "Matroid": _matroids,
    "Symbol": _symbols,
    "Valuation": _valuations,
    "CombinatorialType": _types,
    "ExactCover": _covers,
    "TreeTopology": _topologies,
}


@pytest.mark.parametrize("name", FAMILIES)
def test_records_compare_and_hash_as_the_dataclasses(name):
    records = FAMILIES[name]()
    refs = [ref.to_reference(x) for x in records]
    assert all(type(r).__name__ == name for r in refs)
    equal_pairs = 0
    for i, (x, rx) in enumerate(zip(records, refs)):
        assert hash(x) == hash(rx)
        for y, ry in zip(records[i + 1:], refs[i + 1:]):
            assert (x == y) == (rx == ry)
            assert (x != y) == (rx != ry)
            equal_pairs += x == y
    assert equal_pairs > 0  # the corpus holds equal records that are distinct objects
    assert len(set(records)) == len(set(refs))
    # a record never equals one of another class
    for other in FAMILIES:
        if other != name:
            y = FAMILIES[other]()[0]
            for x, rx in zip(records, refs):
                assert (x == y, x != y) == (rx == ref.to_reference(y), rx != ref.to_reference(y))


def test_symbols_sort_as_the_dataclass():
    symbols = _symbols()
    random.Random(19).shuffle(symbols)
    assert [ref.to_reference(s) for s in sorted(symbols)] == sorted(map(ref.to_reference, symbols))
    for x, y in zip(symbols, symbols[1:]):
        rx, ry = ref.to_reference(x), ref.to_reference(y)
        assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)


@pytest.mark.parametrize("name", FAMILIES)
def test_repr_matches_the_dataclass(name):
    for x in FAMILIES[name]():
        assert repr(x) == repr(ref.to_reference(x))


@pytest.mark.parametrize("name", FAMILIES)
def test_records_take_keywords_and_refuse_assignment(name):
    records = FAMILIES[name]()
    for x in records[:: max(1, len(records) // 6)]:
        rx = ref.to_reference(x)
        init = {f.name: getattr(x, f.name) for f in fields(rx) if f.init}
        assert type(x)(**init) == x
        for f in fields(rx):
            for obj in (x, rx):
                with pytest.raises(AttributeError):
                    setattr(obj, f.name, getattr(obj, f.name))
                with pytest.raises(AttributeError):
                    delattr(obj, f.name)
        with pytest.raises(AttributeError):
            x.not_a_field = 0


@pytest.mark.parametrize("name", FAMILIES)
def test_records_copy_and_pickle(name):
    for x in FAMILIES[name]()[:6]:
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(clone) is type(x) and clone == x and hash(clone) == hash(x)
            assert repr(clone) == repr(x)
