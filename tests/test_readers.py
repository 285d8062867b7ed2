"""The two readers of outside input: `subset_mask` for subsets of E and
`parse_rational` for values.  Every road that takes a subset or a value
from its caller refuses a malformed one with its own InputError subclass,
quickly, and with a message that never prints a huge int."""

import json
import time
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from dressian import (
    CoverInputError,
    Matroid,
    MatroidInputError,
    RationalInputError,
    RationalSubspace,
    ScaleLimitError,
    Valuation,
    ValuationInputError,
    all_sparse_paving_matroids,
    check_valuation,
    contract_valuation,
    count_sparse_paving,
    locate_cell,
    parse_rational,
    shift,
    solve_linear_system,
)
from dressian.cli import run
from dressian.matroid import parse_subset_key, subset_mask
from dressian.valuation import parse_valuation_document

U24 = Matroid.uniform(2, 4)
NU = Valuation(U24, {b: 0 for b in U24.bases})
KEYS = {b: 0 for b in U24.bases}
L = RationalSubspace(["a", "b"], [{"a": 1, "b": -1}])
FAR = 10**10
EXP = "1e2000000"  # Fraction alone expands this in about a second


def document(values):
    return {"matroid": U24.to_json_obj(), "values": values}


PROBES = [
    # (road and input, call, the road's error)
    ("rank_of far element", lambda: U24.rank_of((0, 10**8)), MatroidInputError),
    ("rank_of farther element", lambda: U24.rank_of((0, FAR)), MatroidInputError),
    ("rank_of negative element", lambda: U24.rank_of((-1,)), MatroidInputError),
    ("rank_of mask outside E", lambda: U24.rank_of(1 << 40), MatroidInputError),
    ("rank_of None", lambda: U24.rank_of(None), MatroidInputError),
    ("is_independent far element", lambda: U24.is_independent((0, 10**8)), MatroidInputError),
    ("is_independent huge mask", lambda: U24.is_independent(1 << 20000), MatroidInputError),
    ("minor far contract element", lambda: U24.minor(contract_set=(0, FAR)), MatroidInputError),
    ("minor negative delete element", lambda: U24.minor(delete_set=(-1,)), MatroidInputError),
    ("minor delete mask outside E", lambda: U24.minor(delete_set=1 << 4), MatroidInputError),
    ("Matroid far element", lambda: Matroid(4, 2, [(0, FAR), (0, 1)]), MatroidInputError),
    ("Matroid huge mask", lambda: Matroid(4, 2, [1 << 20000]), MatroidInputError),
    ("Matroid text element", lambda: Matroid(4, 2, [(0, "1")]), MatroidInputError),
    ("matroid document far element",
     lambda: Matroid.from_json_obj({"n": 4, "r": 2, "bases": [[0, FAR]]}), MatroidInputError),
    ("Valuation huge mask", lambda: Valuation(U24, {1 << 20000: 0}), ValuationInputError),
    ("Valuation exponent", lambda: Valuation(U24, {**KEYS, 0b11: EXP}), ValuationInputError),
    ("check_valuation exponent",
     lambda: check_valuation(U24, {**KEYS, 0b11: EXP}), ValuationInputError),
    ("document empty element",
     lambda: parse_valuation_document(document({"0,,1": "0"})), ValuationInputError),
    ("document far element",
     lambda: parse_valuation_document(document({"0,100000000": "0"})), ValuationInputError),
    ("document exponent",
     lambda: parse_valuation_document(document({"0,1": EXP})), ValuationInputError),
    ("value negative element", lambda: NU.value((-1, 0)), ValuationInputError),
    ("value mask outside E", lambda: NU.value(1 << 40), ValuationInputError),
    ("value far element", lambda: NU.value((0, FAR)), ValuationInputError),
    ("contract_valuation far element", lambda: contract_valuation(NU, (0, FAR)), ValuationInputError),
    ("shift text", lambda: shift(NU, ["x", 0, 0, 0]), RationalInputError),
    ("shift None", lambda: shift(NU, [None, 0, 0, 0]), RationalInputError),
    ("shift exponent", lambda: shift(NU, [EXP, 0, 0, 0]), RationalInputError),
    ("locate_cell exponent", lambda: locate_cell(NU, [EXP, 0, 0, 0]), RationalInputError),
    ("locate_cell None", lambda: locate_cell(NU, [None, 0, 0, 0]), RationalInputError),
    ("contains unknown coordinate", lambda: L.contains({"zz": 5}), CoverInputError),
    ("contains exponent", lambda: L.contains({"a": EXP}), RationalInputError),
    ("contains a number", lambda: L.contains(5), CoverInputError),
    ("RationalSubspace text value", lambda: RationalSubspace(["a"], [{"a": "x"}]),
     RationalInputError),
    ("RationalSubspace None value", lambda: RationalSubspace(["a"], [{"a": None}]),
     RationalInputError),
    ("RationalSubspace equation a number", lambda: RationalSubspace(["a"], [5]), CoverInputError),
    ("RationalSubspace equations a number", lambda: RationalSubspace(["a"], 5), CoverInputError),
    ("RationalSubspace repeated coordinate",
     lambda: RationalSubspace(["a", "a"], [{"a": 1}]), CoverInputError),
    ("RationalSubspace coords a number", lambda: RationalSubspace(5, []), CoverInputError),
    ("RationalSubspace unhashable coordinate", lambda: RationalSubspace([[1]], []),
     CoverInputError),
    ("zero_section_dim a number", lambda: L.zero_section_dim(5), CoverInputError),
    ("projection_dim a number", lambda: L.projection_dim(5), CoverInputError),
    ("solve_linear_system unknown variable",
     lambda: solve_linear_system([({"z": 1}, 0)], ["x"]), CoverInputError),
    ("solve_linear_system equation a number", lambda: solve_linear_system([5], ["x"]),
     CoverInputError),
    ("solve_linear_system equation without right-hand side",
     lambda: solve_linear_system([({"x": 1},)], ["x"]), CoverInputError),
    ("solve_linear_system equations a number", lambda: solve_linear_system(5, ["x"]),
     CoverInputError),
    ("solve_linear_system text value",
     lambda: solve_linear_system([({"x": "q"}, 0)], ["x"]), RationalInputError),
    ("RationalSubspace Decimal exponent",
     lambda: RationalSubspace(["a"], [{"a": Decimal(EXP)}]), RationalInputError),
    ("locate_cell a number", lambda: locate_cell(NU, 5), RationalInputError),
    ("shift a number", lambda: shift(NU, 5), RationalInputError),
    ("shift Decimal exponent", lambda: shift(NU, [Decimal(EXP), 0, 0, 0]), RationalInputError),
    ("parse_rational Decimal exponent", lambda: parse_rational(Decimal("1e200000")),
     RationalInputError),
]


@pytest.mark.parametrize("label, call, error", PROBES, ids=[row[0] for row in PROBES])
def test_every_road_refuses_malformed_input_with_its_own_error(label, call, error):
    started = time.perf_counter()
    with pytest.raises(error) as caught:
        call()
    assert time.perf_counter() - started < 1, label
    assert caught.type is error, label
    assert len(str(caught.value)) < 200, label  # no huge int is printed


def test_the_subset_reader_names_the_element_or_the_bit_length():
    cases = [
        (1 << 20000, "subset mask out of range for n=4: bit length 20001"),
        (-(1 << 20000), "subset mask out of range for n=4: negative"),
        ((0, 4), "subset (0, 4): element 4 is not in 0..3"),
        ((0, 10**5000), "subset <tuple too long to print>: element <int too long to print>"
                        " is not in 0..3"),
        ([2, 1, 2], "subset [2, 1, 2]: repeated element 2"),
        ((0, True), "subset (0, True): element True is not in 0..3"),
        (1.0, "subset 1.0 is neither a mask nor a collection of elements"),
    ]
    for X, message in cases:
        with pytest.raises(MatroidInputError) as caught:
            subset_mask(X, 4)
        assert str(caught.value) == message
    assert [subset_mask(X, 4) for X in (0, 15, (), (3, 0), {1, 2}, range(4))] == [
        0, 15, 0, 0b1001, 0b110, 15]
    # an iterator is read once
    assert subset_mask((e for e in (0, 2)), 4) == 0b101
    assert U24.is_independent(e for e in (0, 1)) and not U24.is_independent(e for e in (0, 1, 2))


def test_the_text_form_of_a_subset():
    assert [parse_subset_key(key, 4) for key in ("", "0", "3,0", " 1,2 ")] == [0, 1, 0b1001, 0b110]
    for key in ("0,,1", "0,", ",", "a", "1.0"):
        with pytest.raises(MatroidInputError, match="is not a list of elements i,j,"):
            parse_subset_key(key, 4)
    with pytest.raises(ValuationInputError, match=r"^--set \(0, 0\): repeated element 0$"):
        parse_subset_key("0,0", 4, ValuationInputError, "--set")


def test_the_rational_reader_takes_fractions_text_and_numbers():
    q = Fraction(22, 7)
    assert parse_rational(q) is q
    assert parse_rational(3) == 3 and type(parse_rational(3)) is Fraction
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(Decimal("1.25")) == Fraction(5, 4)
    assert parse_rational(" 1e3 ") == 1000
    assert parse_rational(Decimal("-2.5E+3")) == -2500
    for bad in (None, [1], float("nan"), float("inf"), "1/0", "x", EXP):
        with pytest.raises(RationalInputError):
            parse_rational(bad)


def test_a_subspace_document_reads_a_float_as_its_decimal():
    doc = {"coords": ["a", "b"], "equations": [{"a": 0.1, "b": -1}]}
    assert RationalSubspace.from_json_obj(doc).contains({"a": 10, "b": 1})


@pytest.mark.parametrize("argv", [
    ["contract", "--set", "0,,1"],
    ["contract", "--set", "0,100000000"],
    ["contract", "--set", "0,"],
    ["residue", "--shift", "x,0,0,0"],
    ["residue", "--shift", f"{EXP},0,0,0"],
], ids=lambda argv: " ".join(argv))
def test_the_cli_maps_every_probe_to_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "zero.json"
    path.write_text(NU.to_json())
    started = time.perf_counter()
    assert run([argv[0], "--valuation", str(path), *argv[1:]]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err) < 200


@pytest.mark.parametrize("values", [{"0,100000000": "0"}, {"0,,1": "0"}, {"0,1": EXP}],
                         ids=["far element", "empty element", "exponent"])
def test_the_cli_refuses_a_malformed_document(tmp_path, capsys, values):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document({**{k: "0" for k in ("0,2", "0,3", "1,2")}, **values})))
    for command in ("check", "type"):
        assert run([command, "--valuation", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err) < 200


def test_count_sparse_paving_matches_the_matroids_it_counts():
    seen = 0
    for n in range(21):
        for r in range(n + 1):
            if comb(n, r) <= 20:
                assert count_sparse_paving(r, n) == len(all_sparse_paving_matroids(r, n)), (r, n)
                seen += 1
        for census in (count_sparse_paving, all_sparse_paving_matroids):
            with pytest.raises(ScaleLimitError, match="need 0 <= r <= n"):
                census(n + 1, n)
    assert seen > 60
    assert count_sparse_paving(3, 6) == 271
