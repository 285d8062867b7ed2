import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dressian.valuation as valuation_module
from dressian import (
    InputError,
    InvariantViolation,
    Matroid,
    Valuation,
    bounds_report,
    combinatorial_type,
    decode_tree,
    modular_stable_matroid,
    set_to_mask,
    symbol_sets,
    valuation_from_matroid,
)
from dressian.cli import COMMANDS, _build_parser, run
from dressian.trees import _class_splits
from helpers import (
    N3,
    N26,
    random_sparse_paving,
    random_tree_metric_valuation,
    random_valuation,
    stiefel_valuation,
)


@pytest.fixture()
def files(tmp_path):
    nu = valuation_from_matroid(N3)
    p_nu = tmp_path / "nu_N3.json"
    p_nu.write_text(nu.to_json())
    M = Matroid.uniform(2, 4)
    zero = Valuation(M, {b: Fraction(0) for b in M.bases})
    p_zero = tmp_path / "zero.json"
    p_zero.write_text(zero.to_json())
    p_mat = tmp_path / "N3.json"
    p_mat.write_text(N3.to_json())
    return {"nu": str(p_nu), "zero": str(p_zero), "mat": str(p_mat),
            "dir": tmp_path}


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_type_document(files, capsys):
    code, out = capture(capsys, ["type", "--valuation", files["nu"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["type_size"] == 5
    assert doc["z1_size"] == 5  # the ambient U(2,5) has no forced symbols


def test_type_writes_each_symbol_by_its_default_key(files, capsys):
    # `type` caches the key of each set S; the keys it prints are those
    # `Symbol.as_key` writes with the plain `subset_key`
    rnd = random.Random(83)
    sparse = random_sparse_paving(3, 7, random.Random(7))
    assert symbol_sets(sparse)[1]  # a non-uniform matroid with Z0 symbols
    for nu in (stiefel_valuation(3, 8, rnd), stiefel_valuation(4, 8, rnd),
               random_valuation(sparse, rnd)):
        path = files["dir"] / "typed.json"
        path.write_text(nu.to_json())
        code, out = capture(capsys, ["type", "--valuation", str(path)])
        keys = sorted(s.as_key() for s in combinatorial_type(nu).symbols_equal)
        assert code == 0 and json.loads(out)["symbols_equal"] == keys
        assert len(keys) > 100


def test_check_reads_the_document_once(files, capsys, monkeypatch):
    real, reads = valuation_module._integer_view, []

    def spy(M, pairs):
        reads.append(M)
        return real(M, pairs)

    monkeypatch.setattr(valuation_module, "_integer_view", spy)
    path = files["dir"] / "stiefel.json"
    path.write_text(stiefel_valuation(3, 6, random.Random(3)).to_json())
    for doc in (files["nu"], str(path)):
        reads.clear()
        code, out = capture(capsys, ["check", "--valuation", doc])
        assert code == 0 and json.loads(out) == {"valid": True}
        assert len(reads) == 1


U24_DOC = {"0,1": "0", "0,2": "0", "0,3": "0", "1,2": "0", "1,3": "0", "2,3": "0"}


@pytest.mark.parametrize("matroid, values, message", [
    (Matroid.uniform(2, 4), {**U24_DOC, "1,0": "1"}, "two values for subset 0,1"),
    (Matroid.uniform(2, 4), {**U24_DOC, "0,1": "1e2000000"},
     "bad value '1e2000000' for subset 0,1: exponent in '1e2000000' exceeds 10000"),
    (N3, {"0,1": "0", **{k: "0" for k in ("0,2", "0,3", "0,4", "1,2", "1,3", "1,4",
                                           "2,4", "3,4")}}, "value supplied for non-basis 0,1"),
    (Matroid.uniform(2, 4), {k: v for k, v in U24_DOC.items() if k != "2,3"},
     "missing values for 1 bases"),
], ids=["both orders", "bad value", "non-basis", "missing basis"])
def test_check_refuses_a_malformed_document(files, capsys, matroid, values, message):
    path = files["dir"] / "malformed.json"
    path.write_text(json.dumps({"matroid": matroid.to_json_obj(), "values": values}))
    assert run(["check", "--valuation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")


def test_dim_text(files, capsys):
    code, out = capture(capsys, ["dim", "--valuation", files["zero"],
                                 "--format", "text"])
    assert (code, out.strip()) == (0, "4")


def test_rank2_census(files, capsys):
    code, out = capture(capsys, ["rank2-census", "--n", "5"])
    assert code == 0
    assert json.loads(out)["cells"] == 26
    code, out = capture(capsys, ["rank2-census", "--n", "8"])
    assert code == 0
    assert json.loads(out) == {
        "n": 8, "cells": 39208,
        "dims": {"8": 1, "9": 119, "10": 1918, "11": 9450, "12": 17325, "13": 10395},
    }
    code, out = capture(capsys, ["rank2-census", "--n", "8", "--format", "text"])
    assert (code, out) == (0, "cells: 39208\n")
    started = time.perf_counter()  # counted, not listed: 660032 cells
    code, out = capture(capsys, ["rank2-census", "--n", "9"])
    assert time.perf_counter() - started < 2
    assert code == 0
    assert json.loads(out) == {
        "n": 9, "cells": 660032,
        "dims": {"9": 1, "10": 246, "11": 6825, "12": 56980, "13": 190575,
                 "14": 270270, "15": 135135},
    }
    # counted in closed form: more classes than enumerate_rank2_cells lists
    code, out = capture(capsys, ["rank2-census", "--n", "10"])
    assert code == 0
    assert json.loads(out)["cells"] == 12818912  # A000311
    started = time.perf_counter()
    code, out = capture(capsys, ["rank2-census", "--n", "32"])
    assert time.perf_counter() - started < 1
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], len(doc["dims"]), doc["dims"]["32"]) == (32, 30, 1)


def test_rank2_census_scale_guard(files, capsys):
    # C(33, 2) = 528 pairs exceed DESK_SCALE_SUBSETS before U(2, n) is built;
    # U(2, 100) alone once took 45 s to build and check
    for n in ("33", "100"):
        started = time.perf_counter()
        assert run(["rank2-census", "--n", n]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert f"C({n}, 2) exceeds 500" in captured.err


def assert_refused_within_a_second(capsys, argv, limit="the r-subsets listed"):
    started = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert f"the limit on {limit}" in captured.err


def test_subset_scale_guard(files, capsys):
    """A matroid with one basis on many elements is refused before its
    C(n, r) r-subsets are listed."""
    for n in (300, 10**6):
        matroid = {"n": n, "r": 2, "bases": [[0, 1]]}
        p_mat = files["dir"] / f"one_basis_{n}.json"
        p_mat.write_text(json.dumps(matroid))
        p_nu = files["dir"] / f"nu_one_basis_{n}.json"
        p_nu.write_text(json.dumps({"matroid": matroid, "values": {"0,1": "0"}}))
        assert_refused_within_a_second(capsys, ["type", "--valuation", str(p_nu)])
        assert_refused_within_a_second(capsys, ["from-matroid", "--matroid", str(p_mat)])


def test_huge_binomials_are_refused_without_computing_them(files, capsys):
    """C(10**6, 5 * 10**5) takes seconds to compute, and C(20000, 10000)
    has more digits than str() may print."""
    for n, r in [(10**6, 5 * 10**5), (20000, 10000)]:
        for sub in ("lower-bound", "sp-census"):
            assert_refused_within_a_second(capsys, [sub, "--n", str(n), "--r", str(r)])
    basis = list(range(10000))
    path = files["dir"] / "nu_one_basis_20000.json"
    path.write_text(json.dumps({"matroid": {"n": 20000, "r": 10000, "bases": [basis]},
                                "values": {",".join(map(str, basis)): "0"}}))
    assert_refused_within_a_second(capsys, ["check", "--valuation", str(path)])


def test_dim_scale_guard(files, capsys):
    """C(12, 2) = 66 coordinates are within DESK_SCALE_COORDS = 70 and
    C(13, 2) = 78 are not; without the limit `dim` on U(2, 32) ran for 22 s."""
    rnd = random.Random(7)
    paths = {}
    for n in (12, 13):
        paths[n] = files["dir"] / f"tree_{n}.json"
        paths[n].write_text(random_tree_metric_valuation(n, rnd).to_json())
    # a binary tree on 12 leaves: 12 leaf edges and 9 internal ones
    argv = ["dim", "--valuation", str(paths[12]), "--format", "text"]
    assert capture(capsys, argv) == (0, "21\n")
    assert_refused_within_a_second(capsys, ["dim", "--valuation", str(paths[13])],
                                   "the cell dimension")


def test_tree_encode_scale_guard(files, capsys):
    """C(33, 2) = 528 and C(1000, 2) are above the limit of 500."""
    for leaves in (33, 1000):
        text = "0:1"
        for leaf in range(1, leaves):
            text = f"({text},{leaf}:1):1"
        path = files["dir"] / f"caterpillar_{leaves}.nwk"
        path.write_text(text + ";")
        assert_refused_within_a_second(capsys, ["tree-encode", "--tree", str(path)])


def test_check_and_equiv(files, capsys):
    code, out = capture(capsys, ["check", "--valuation", files["nu"]])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = capture(
        capsys, ["equiv", "--valuation", files["nu"], "--other", files["nu"]]
    )
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_check_reports_invalid_without_failing(files, capsys):
    nu = valuation_from_matroid(N3)
    vals = dict(nu.values)
    vals[set_to_mask((0, 2))] -= Fraction(1)  # break a square
    obj = {"matroid": N3.to_json_obj() | {"n": 5},
           "values": {"0,2": "-1"}}
    # build the raw document by hand: full value table with the broken entry
    doc = {"matroid": Matroid.uniform(2, 5).to_json_obj(), "values": {}}
    from dressian import mask_to_set

    for m, v in vals.items():
        doc["values"][",".join(map(str, mask_to_set(m)))] = str(v)
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = capture(capsys, ["check", "--valuation", str(bad)])
    assert code == 0
    assert json.loads(out)["valid"] is False


def test_emitted_valuations_reload(files, capsys, tmp_path):
    out_path = tmp_path / "contracted.json"
    code = run(["contract", "--valuation", files["nu"], "--set", "4",
                "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    reloaded = Valuation.from_json_obj(doc["valuation"])
    assert reloaded.matroid.r == 1
    code = run(["from-matroid", "--matroid", files["mat"],
                "--out", str(tmp_path / "nu.json")])
    assert code == 0
    again = Valuation.from_json((tmp_path / "nu.json").read_text())
    assert again == valuation_from_matroid(N3)


def test_rank_zero_documents_reload(files, capsys, tmp_path):
    # a rank-0 valuation names its one basis, the empty set, by the key ""
    mat = tmp_path / "rank0.json"
    mat.write_text(json.dumps({"n": 3, "r": 0, "bases": [[]]}))
    u24 = tmp_path / "u24.json"
    u24.write_text(valuation_from_matroid(Matroid.uniform(2, 4)).to_json())
    code, out = capture(capsys, ["from-matroid", "--matroid", str(mat)])
    assert code == 0 and json.loads(out)["values"] == {"": "0"}
    emitted = {"from-matroid": out}
    code, out = capture(capsys, ["contract", "--valuation", str(u24), "--set", "0,1"])
    assert code == 0
    doc = json.loads(out)["valuation"]
    assert doc["matroid"]["r"] == 0 and doc["values"] == {"": "0"}
    emitted["contract"] = json.dumps(doc)
    for name, text in emitted.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for command, expected in (
                ("check", {"valid": True}),
                ("type", {"symbols_equal": [], "type_size": 0, "z1_size": 0}),
                ("dim", {"dim": 1})):
            code, out = capture(capsys, [command, "--valuation", str(path)])
            assert code == 0 and json.loads(out) == expected, (name, command)


def test_residue_and_smooth(files, capsys):
    code, out = capture(capsys, ["residue", "--valuation", files["nu"]])
    assert code == 0
    M0 = Matroid.from_json_obj(json.loads(out))
    assert M0 == N3  # minimizers of nu_N3 are exactly the bases of N3
    code, out = capture(capsys, ["smooth", "--valuation", files["nu"]])
    doc = json.loads(out)
    assert code == 0
    assert doc["remainder_is_zero"] is True
    assert sorted(doc["peels"]) == [["0,1", "1"], ["2,3", "1"]]


def test_tree_roundtrip_via_cli(files, capsys, tmp_path):
    code, out = capture(capsys, ["tree-decode", "--valuation", files["nu"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["internal_vertices"] == 3
    newick = tmp_path / "t.nwk"
    newick.write_text(doc["newick"] + "\n")
    code, out = capture(capsys, ["tree-encode", "--tree", str(newick),
                                 "--n", "5"])
    assert code == 0
    nu2 = Valuation.from_json_obj(json.loads(out))
    assert nu2 == valuation_from_matroid(N3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(0:1,1:1", "unclosed"),
        ("", "empty tree string"),
        ("(" * 3000 + "0:1,1:1", "3000 '(' left unclosed"),
        ("(0:1,x:1);", "not an integer"),
        ("(0:1,1:1,0:1);", "leaf 0 appears more than once"),
    ],
    ids=["unclosed", "empty", "deep-unclosed", "junk-label", "repeated-leaf"],
)
def test_malformed_newick_exits_2(files, capsys, text, message):
    path = files["dir"] / "bad.nwk"
    path.write_text(text)
    assert run(["tree-encode", "--tree", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_deeply_nested_newick_encodes(files, capsys):
    path = files["dir"] / "deep.nwk"
    path.write_text("(" * 3000 + "(0:1,1:1,2:1)" + ":1)" * 3000 + ";")
    code, out = capture(capsys, ["tree-encode", "--tree", str(path)])
    assert code == 0
    assert json.loads(out)["values"] == {"0,1": "2", "0,2": "2", "1,2": "2"}


NEWICK_NOISE = "(),:;0123456789/-. x"


@st.composite
def newick_inputs(draw):
    """A decoded tree's newick string, edited, truncated, nested deeper or
    given a junk leaf label, with or without --n."""
    rnd = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(3, 7))
    text = decode_tree(random_tree_metric_valuation(n, rnd)).to_newick()
    kind = draw(st.sampled_from(["edit", "truncate", "nest", "label"]))
    if kind == "edit":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 3)))
            text = text[:i] + draw(st.text(NEWICK_NOISE, max_size=3)) + text[j:]
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif kind == "nest":
        depth = draw(st.integers(1, 3000))
        text = "(" * depth + text.rstrip(";") + ":1)" * depth + ";"
    else:
        label = draw(st.sampled_from(list(re.finditer(r"(?<=[(,])\d+", text))))
        junk = draw(st.text(NEWICK_NOISE, max_size=6))
        text = text[: label.start()] + junk + text[label.end():]
    return text, draw(st.sampled_from([[], ["--n", str(n)]]))


@settings(max_examples=150, deadline=None)
@given(newick_inputs())
def test_tree_encode_fuzz_exits_0_or_2(tmp_path_factory, case):
    text, n_args = case
    path = tmp_path_factory.getbasetemp() / "fuzz.nwk"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["tree-encode", "--tree", str(path), *n_args])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error:")


def test_subdivision_and_spread(files, capsys):
    code, out = capture(capsys, ["subdivision", "--valuation", files["nu"]])
    doc = json.loads(out)
    assert code == 0
    assert doc["spread"] == 3
    assert doc["exploration_status"] == "exhaustive"
    code, out = capture(capsys, ["spread", "--valuation", files["zero"]])
    doc = json.loads(out)
    assert doc["spread"] == 1 and doc["within_r_minus_2"] is True


def test_bounds_csv_shape(files, capsys):
    code, out = capture(capsys, ["bounds", "--n", "6", "--r", "3",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,observed,bound,bound_source,satisfied"
    assert len(lines) == 14
    assert any("143.34075753824440006" in ln for ln in lines)


def test_lower_bound_and_sp_census(files, capsys):
    code, out = capture(capsys, ["lower-bound", "--n", "6", "--r", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["component_count"] == 4
    assert doc["cell_dim"] >= 4
    code, out = capture(capsys, ["sp-census", "--n", "5", "--r", "2"])
    doc = json.loads(out)
    assert doc["distinct_types"] == 26 and doc["distinct_is_injective"] is True


def test_bounds_contraction_rank_defaults_to_min_3_r(capsys):
    code, out = capture(capsys, ["bounds", "--n", "6", "--r", "2"])
    assert code == 0
    assert json.loads(out)["t_contraction"] == 2
    assert capture(capsys, ["bounds", "--n", "6", "--r", "2", "--t", "2"]) == (0, out)


def test_bounds_refuses_rank_below_two(capsys):
    # no contraction rank 2 <= t <= r exists for r = 1
    assert run(["bounds", "--n", "6", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bounds need 2 <= r < n <= 1000, got r=1, n=6\n"


LOWER_BOUND_DOCS = {
    (6, 3): {"cell_dim": 10, "component_count": 4, "dim_upper": "10", "n": 6,
             "nonbases": ["1,2,3", "0,2,4", "0,1,5", "3,4,5"], "r": 3},
    (8, 4): {"cell_dim": 18, "component_count": 10, "dim_upper": "30", "n": 8,
             "nonbases": ["1,2,3,4", "0,2,3,5", "0,1,4,5", "0,1,3,6", "3,4,5,6",
                          "0,1,2,7", "2,4,5,7", "2,3,6,7", "1,4,6,7", "0,5,6,7"], "r": 4},
}
LOWER_BOUND_CSV_HEADER = "quantity,observed,bound,bound_source,satisfied\n"
LOWER_BOUND_STDOUT = {
    (6, 3, "json"): json.dumps(LOWER_BOUND_DOCS[6, 3], sort_keys=True, indent=2) + "\n",
    (6, 3, "csv"): LOWER_BOUND_CSV_HEADER
    + '"cell_dim_vs_components","10","4","sparse paving component certificate","True"\n'
    + '"cell_dim_vs_dim_upper","10","10","rank-3 contraction dimension bound","True"\n',
    (6, 3, "text"): "c(N) = 4, cell_dim = 10, dim_upper = 10\n",
    (8, 4, "json"): json.dumps(LOWER_BOUND_DOCS[8, 4], sort_keys=True, indent=2) + "\n",
    (8, 4, "csv"): LOWER_BOUND_CSV_HEADER
    + '"cell_dim_vs_components","18","10","sparse paving component certificate","True"\n'
    + '"cell_dim_vs_dim_upper","18","30","rank-3 contraction dimension bound","True"\n',
    (8, 4, "text"): "c(N) = 10, cell_dim = 18, dim_upper = 30\n",
    # dim_upper bounds a cell's dimension only for 3 <= r <= n - 3
    (5, 3, "csv"): LOWER_BOUND_CSV_HEADER
    + '"cell_dim_vs_components","7","2","sparse paving component certificate","True"\n',
    (4, 3, "csv"): LOWER_BOUND_CSV_HEADER
    + '"cell_dim_vs_components","4","1","sparse paving component certificate","True"\n',
}


@pytest.mark.parametrize("n,r,fmt", sorted(LOWER_BOUND_STDOUT))
def test_lower_bound_stdout_is_pinned(capsys, n, r, fmt):
    argv = ["lower-bound", "--n", str(n), "--r", str(r), "--format", fmt]
    assert capture(capsys, argv) == (0, LOWER_BOUND_STDOUT[n, r, fmt])


def test_lower_bound_dim_upper_matches_bounds_report(capsys, monkeypatch):
    # dim_upper does not depend on the certificate; a stand-in keeps the
    # r = n - 1 cases up to n = 70 from running 70-coordinate eliminations
    monkeypatch.setattr("dressian.bounds.lower_bound_certificate",
                        lambda n, r: (Matroid.uniform(r, n), 0, 0))
    cases = [(n, r) for n in range(3, 71) for r in range(2, n) if comb(n, r) <= 70]
    assert len(cases) == 91
    for n, r in cases:
        code, out = capture(capsys, ["lower-bound", "--n", str(n), "--r", str(r)])
        assert code == 0
        assert json.loads(out)["dim_upper"] == str(bounds_report(n, r, min(3, r)).dim_upper), (n, r)


def test_lower_bound_csv_compares_with_dim_upper_only_where_it_bounds(capsys, monkeypatch):
    monkeypatch.setattr("dressian.bounds.lower_bound_certificate",
                        lambda n, r: (Matroid.uniform(r, n), 0, 0))
    for n in range(3, 12):
        for r in range(2, n):
            if comb(n, r) > 70:
                continue
            code, out = capture(capsys, ["lower-bound", "--n", str(n), "--r", str(r),
                                         "--format", "csv"])
            quantities = [line.split(",")[0] for line in out.splitlines()[1:]]
            expected = ['"cell_dim_vs_components"']
            if 3 <= r <= n - 3:
                expected.append('"cell_dim_vs_dim_upper"')
            assert (code, quantities) == (0, expected), (n, r)


def test_installed_entry_point_exits_with_the_run_code(monkeypatch, capsys):
    # [project.scripts] read with a regex: tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', section.group(1), re.M))
    module, name = scripts["dressian"].split(":")
    main = getattr(importlib.import_module(module), name)
    expected = capture(capsys, ["bounds", "--n", "6", "--r", "3"])[1]
    for argv, code, out in ((["bounds", "--n", "6", "--r", "3"], 0, expected),
                            (["bounds", "--n"], 2, "")):
        monkeypatch.setattr(sys, "argv", ["dressian", *argv])
        with pytest.raises(SystemExit) as stop:
            main()
        assert (stop.value.code, capsys.readouterr().out) == (code, out)


def test_no_command_loads_mpmath(files):
    # a fresh interpreter, since this one may have imported mpmath for an oracle
    commands = [["sp-census", "--n", "5", "--r", "2"],
                ["lower-bound", "--n", "6", "--r", "3"],
                ["subdivision", "--valuation", files["nu"]],
                ["rank2-census", "--n", "5"],
                ["bounds", "--n", "6", "--r", "3"]]
    script = (
        "import sys\n"
        "import dressian.cli\n"
        f"for argv in {commands!r}:\n"
        "    assert dressian.cli.run(argv) == 0, argv\n"
        "assert 'mpmath' not in sys.modules, 'a command loaded mpmath'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_code_generators():
    # a fresh interpreter; only what the import adds is checked, since the
    # interpreter's own start-up (site) may load typing already
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dressian.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dressian.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "mpmath"}, sorted(loaded)


LIBRARY = ("matroid", "rationals", "valuation", "linear", "subdivision", "trees", "bounds")
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(args, src=SRC, **env):
    """`python *args` in a fresh interpreter that imports dressian from `src`."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=60)


def _modules_run_after(commands):
    """In a fresh interpreter, import dressian.cli and run each command;
    the library modules whose bodies have run.  A module registered but not
    yet run is a lazy module, not a plain `types.ModuleType`; one missing
    from sys.modules fails the script."""
    script = (
        "import contextlib, io, sys, types\n"
        "import dressian.cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert dressian.cli.run(argv) == 0, argv\n"
        f"mods = [sys.modules['dressian.' + m] for m in {LIBRARY!r}]\n"
        f"print(' '.join(m for m, mod in zip({LIBRARY!r}, mods)\n"
        "               if type(mod) is types.ModuleType))\n"
    )
    proc = _fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _calls(files):
    """One valid argv per subcommand variant, with the library modules a
    fresh call of it runs (the README's Start-up table)."""
    d = files["dir"]
    (d / "tree.nwk").write_text(decode_tree(valuation_from_matroid(N3)).to_newick())
    (d / "sub.json").write_text(json.dumps({"coords": [0, 1, 2, 3],
                                            "equations": [{"0": "1", "1": "-1"}]}))
    (d / "cov.json").write_text(json.dumps({"ground": [0, 1, 2, 3], "k": 2,
                                            "blocks": [[0, 1], [2, 3], [0, 2], [1, 3]]}))
    base = {"matroid", "rationals"}
    val = base | {"valuation"}
    nu = ["--valuation", files["nu"]]
    return [
        (["check", *nu], val),
        (["type", *nu], val),
        (["equiv", *nu, "--other", files["nu"]], val),
        (["dim", "--valuation", files["zero"]], val | {"linear"}),
        (["contract", *nu, "--set", "0,1"], val),
        (["residue", *nu], val),
        (["from-matroid", "--matroid", files["mat"]], val),
        (["tree-decode", *nu], val | {"trees"}),
        (["tree-encode", "--tree", str(d / "tree.nwk"), "--n", "5"], val | {"trees"}),
        (["rank2-census", "--n", "5"], base | {"trees"}),
        (["subdivision", *nu], val | {"subdivision"}),
        (["spread", *nu], val | {"subdivision"}),
        (["bounds", "--n", "6", "--r", "3"], base | {"bounds"}),
        (["lower-bound", "--n", "6", "--r", "3"], val | {"linear", "bounds"}),
        (["sp-census", "--n", "5", "--r", "2"], val | {"bounds"}),
        (["sp-census", "--n", "5", "--r", "2", "--with-dims"], val | {"linear", "bounds"}),
        (["sp-census", "--n", "5", "--r", "2", "--perturbed"], val | {"bounds", "subdivision"}),
        (["sp-census", "--n", "5", "--r", "2", "--perturbed", "--with-dims"],
         val | {"linear", "bounds", "subdivision"}),
        (["cover-check", "--subspace", str(d / "sub.json"), "--cover", str(d / "cov.json")],
         base | {"linear"}),
        (["smooth", *nu], val),
    ]


def test_each_command_runs_only_the_modules_it_needs(files):
    # every library module is registered at import (the benchmark's tracer
    # reads them from sys.modules), but runs only when first used
    assert _modules_run_after([]) == {"matroid", "rationals"}
    calls = _calls(files)
    assert {argv[0] for argv, _ in calls} == set(COMMANDS)
    for argv, modules in calls:
        assert _modules_run_after([argv]) == modules, argv


def _stdout_of_each(argvs, src):
    """(exit code, stdout) of each argv, run in turn by one fresh interpreter."""
    script = (
        "import contextlib, io, json, dressian.cli\n"
        "outs = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = dressian.cli.run(argv)\n"
        "    outs.append([code, out.getvalue()])\n"
        "print(json.dumps(outs))\n"
    )
    proc = _fresh(["-c", script], src)
    assert proc.returncode == 0, proc.stderr
    return [tuple(x) for x in json.loads(proc.stdout)]


@pytest.mark.parametrize("module,tail,error", [
    *((m, 'raise RuntimeError("sentinel")\n', "RuntimeError: sentinel") for m in LIBRARY),
    ("valuation", "def broken(:\n", "SyntaxError"),
])
def test_an_error_in_a_module_body_reaches_every_command_that_runs_it(
        files, tmp_path, module, tail, error):
    # a copy of src/ whose one module fails as it runs: each command that
    # runs the module fails with that module's own error, the rest print
    # what they print with the module intact
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "dressian" / f"{module}.py", "a") as fh:
        fh.write(tail)
    calls = _calls(files)
    broken = [argv for argv, modules in calls if module in modules]
    intact = [argv for argv, modules in calls if module not in modules]
    assert broken
    if intact:
        expected = _stdout_of_each(intact, SRC)
        assert all(code == 0 for code, _out in expected)
        assert _stdout_of_each(intact, src) == expected
    with ThreadPoolExecutor(max_workers=4) as pool:
        procs = list(pool.map(lambda argv: _fresh(["-m", "dressian.cli", *argv], src), broken))
    for argv, proc in zip(broken, procs):
        assert proc.returncode != 0 and proc.stdout == "", argv
        assert error in proc.stderr and "cannot import name" not in proc.stderr, argv


def _parse(parser, argv):
    """(exit code or None, parsed fields or None, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, vars(parser.parse_args(argv)), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()


def test_one_subparser_parses_as_the_full_parser(files, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _build_parser()
    for argv, _ in _calls(files):
        name = argv[0]
        one = _build_parser(name)
        assert list(_subparsers(one)) == [name] and one is _build_parser(name)
        for case in (argv, [name, "-h"], [name], [name, "--bogus"], [*argv, "extra"],
                     [name, "--n", "x"], [*argv, "--format", "xml"]):
            assert _parse(one, case) == _parse(full, case), case


def test_fresh_cli_prints_what_the_full_parser_prints(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([], ["-h"], ["--help"], ["bogus"], ["rank2-cen", "--n", "5"], ["--", "check"],
                 ["--format", "json", "check"], ["check", "--bogus"], ["rank2-census", "--n", "x"],
                 ["bounds", "--n", "6", "--r", "3", "extra"]):
        code, _fields, out, err = _parse(_build_parser(), argv)
        proc = _fresh(["-m", "dressian.cli", *argv], COLUMNS="80")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


def test_cover_check(files, capsys, tmp_path):
    sub = {"coords": [0, 1, 2, 3],
           "equations": [{"0": "1", "1": "-1"}]}
    cov = {"ground": [0, 1, 2, 3], "k": 2,
           "blocks": [[0, 1], [2, 3], [0, 2], [1, 3]]}
    ps = tmp_path / "sub.json"
    pc = tmp_path / "cov.json"
    ps.write_text(json.dumps(sub))
    pc.write_text(json.dumps(cov))
    code, out = capture(capsys, ["cover-check", "--subspace", str(ps),
                                 "--cover", str(pc)])
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is True
    # list coordinates: the cover writes them as lists, an equation by their str
    coords = [[0, 1], [0, 2], [1, 2]]
    ps.write_text(json.dumps({"coords": coords, "equations": [{"(0, 1)": "1", "(1, 2)": -1}]}))
    pc.write_text(json.dumps({"ground": coords, "k": 1, "blocks": [coords[:1], coords[1:]]}))
    code, out = capture(capsys, ["cover-check", "--subspace", str(ps), "--cover", str(pc)])
    assert (code, json.loads(out)) == (0, {"holds": True, "lhs": 2, "rhs": "3"})


def test_exit_codes(files, capsys):
    assert run(["from-matroid", "--matroid", "/no/such/file.json"]) == 2
    assert run(["bounds", "--n", "3", "--r", "3"]) == 2
    assert run(["definitely-not-a-subcommand"]) == 2  # argparse usage error
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "type", "subdivision"])
def test_malformed_valuation_documents_exit_2(files, capsys, command):
    matroid = Matroid.uniform(2, 4).to_json_obj()
    docs = {
        "no-values": {"matroid": matroid},
        "list-values": {"matroid": matroid, "values": [["0,1", "0"]]},
        # every basis of U(2,4) valued, but 0,1 written with an empty element
        "empty-element": {"matroid": matroid, "values": {
            "0,,1": "0", "0,2": "0", "0,3": "0", "1,2": "0", "1,3": "0", "2,3": "0"}},
        "non-basis": {"matroid": N3.to_json_obj(), "values": {"0,1": "0"}},
    }
    for name, doc in docs.items():
        path = files["dir"] / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert run([command, "--valuation", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert "non-basis 0,1" in err  # the subset, not its bitmask


@pytest.mark.parametrize("command", ["check", "type"])
def test_mistyped_matroid_fields_exit_2(files, capsys, command):
    matroid = Matroid.uniform(2, 4).to_json_obj()
    values = {"0,1": "0", "0,2": "0", "0,3": "0", "1,2": "0", "1,3": "0", "2,3": "0"}
    for bad in ({"n": "4"}, {"r": True}, {"bases": [1, 2]}, {"bases": [[0, "1"]]}):
        path = files["dir"] / "mistyped.json"
        path.write_text(json.dumps({"matroid": matroid | bad, "values": values}))
        assert run([command, "--valuation", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_repeated_elements_exit_2(files, capsys):
    matroid = Matroid.uniform(2, 4).to_json_obj()
    values = {"0,1": "0", "0,2": "0", "0,3": "0", "1,2": "0", "1,3": "0", "2,3": "0"}
    d = files["dir"]
    (d / "repeat_matroid.json").write_text(
        json.dumps({"n": 3, "r": 2, "bases": [[0, 1], [0, 2], [1, 1, 2]]}))
    (d / "repeat_key.json").write_text(json.dumps(
        {"matroid": matroid, "values": {**values, "1,0,0": "0"}}))
    (d / "repeat_basis.json").write_text(json.dumps(
        {"matroid": matroid | {"bases": [[0, 1], [0, 2], [0, 0, 3]]}, "values": values}))
    cases = [
        (["from-matroid", "--matroid", str(d / "repeat_matroid.json")],
         "basis [1, 1, 2]: repeated element 1"),
        (["check", "--valuation", str(d / "repeat_key.json")],
         "subset (1, 0, 0): repeated element 0"),
        (["check", "--valuation", str(d / "repeat_basis.json")],
         "basis [0, 0, 3]: repeated element 0"),
        (["contract", "--valuation", files["zero"], "--set", "0,0"],
         "--set (0, 0): repeated element 0"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_subdivision_scale_guard(files, capsys):
    M = Matroid.uniform(1, 12)
    path = files["dir"] / "u1_12.json"
    path.write_text(Valuation(M, {b: Fraction(0) for b in M.bases}).to_json())
    for command in ("subdivision", "spread"):
        assert run([command, "--valuation", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_broken_subdivision_walk_exits_1(files, capsys, monkeypatch):
    # a walk that sees no facets stops at its first cell, which cannot
    # cover every basis of N3: the certificate must fail loudly
    monkeypatch.setattr("dressian.subdivision._facets", lambda *args: {})
    assert run(["subdivision", "--valuation", files["nu"]]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_point_outside_its_own_cell_hull_exits_1(files, capsys, monkeypatch):
    # the one symbol of a parallel pair {0, 1}, (01|23), is forced: every
    # valuation ties 02 + 13 with 03 + 12, so 1,3 -> 4 is no valuation, and
    # only a view let past the three-term check of `_hold` reaches `dim`
    path = files["dir"] / "broken-pair.json"
    path.write_text(json.dumps({
        "matroid": {"n": 4, "r": 2, "bases": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
        "values": {"0,2": "0", "0,3": "1", "1,2": "2", "1,3": "4", "2,3": "0"}}))
    assert run(["dim", "--valuation", str(path)]) == 2
    capsys.readouterr()
    monkeypatch.setattr("dressian.valuation._three_term_holds", lambda M, v: True)
    assert run(["dim", "--valuation", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_certificate_below_component_count_exits_1(files, capsys, monkeypatch):
    monkeypatch.setattr("dressian.linear.cell_dim", lambda nu: 0)
    assert run(["lower-bound", "--n", "6", "--r", "3"]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_inconsistent_edge_lengths_exit_1(files, capsys, monkeypatch):
    # cut values shifted by one keep every split but move the lengths off
    # the values, so the real path sums and basis-pair check must catch it
    def shifted(*a):
        splits, cut = _class_splits(*a)
        return splits, {k: x + 1 for k, x in cut.items()}

    monkeypatch.setattr("dressian.trees._class_splits", shifted)
    assert run(["tree-decode", "--valuation", files["nu"]]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")
    with pytest.raises(InvariantViolation):
        decode_tree(valuation_from_matroid(N3))


def test_determinism_across_runs(files, capsys):
    outs = set()
    for _ in range(3):
        code, out = capture(capsys, ["sp-census", "--n", "5", "--r", "2", "--perturbed"])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    a = capture(capsys, ["subdivision", "--valuation", files["nu"]])
    b = capture(capsys, ["subdivision", "--valuation", files["nu"]])
    assert a == b and a[0] == 0


def test_threads_option_and_env_are_gone(files, capsys, monkeypatch):
    # a non-integer value crashed every subcommand when the parser read it
    monkeypatch.setenv("DRESSIAN_THREADS", "x")
    code, out = capture(capsys, ["sp-census", "--n", "5", "--r", "2"])
    assert code == 0
    assert json.loads(out)["distinct_types"] == 26
    assert run(["sp-census", "--n", "5", "--r", "2", "--threads", "2"]) == 2


def test_repeated_runs_in_one_process_give_identical_output(files, capsys):
    # the parser is built once per process and reused by every run
    calls = [
        ["check", "--valuation", files["nu"]],
        ["type", "--valuation", files["nu"], "--format", "text"],
        ["dim", "--valuation", files["zero"]],
        ["check", "--valuation"],  # usage error
        ["lower-bound", "--n", "6", "--r", "3", "--format", "csv"],
        ["no-such-subcommand"],
    ]
    first = [capture(capsys, argv) for argv in calls]
    assert [code for code, _out in first] == [0, 0, 0, 2, 0, 2]
    assert all(out for code, out in first if code == 0)
    for _ in range(2):
        assert [capture(capsys, argv) for argv in calls] == first
    assert _build_parser() is _build_parser()


def test_check_scale_guard(files, capsys):
    for r, n, code in [(3, 9, 2), (4, 8, 0)]:
        M = Matroid.uniform(r, n)
        path = files["dir"] / f"u{r}_{n}.json"
        path.write_text(Valuation(M, {b: Fraction(0) for b in M.bases}).to_json())
        assert run(["check", "--valuation", str(path)]) == code
        captured = capsys.readouterr()
        if code:  # C(9, 3) = 84 coordinates
            assert captured.out == ""
            assert captured.err.startswith("error:") and "C(9,3) = 84" in captured.err
        else:  # C(8, 4) = 70, the limit itself
            assert json.loads(captured.out) == {"valid": True}


def assert_refused_past_the_cap(capsys, argv, cap):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert f"exceeds {cap}, the limit on" in captured.err


@pytest.mark.parametrize("sub,fits,past,cap", [("sp-census", (6, 3), (7, 2), 20),
                                               ("lower-bound", (8, 4), (9, 3), 70)])
def test_binomial_guard_at_its_cap_and_one_past_it(capsys, sub, fits, past, cap):
    (n, r), (n_past, r_past) = fits, past
    assert comb(n, r) == cap < comb(n_past, r_past)
    code, out = capture(capsys, [sub, "--n", str(n), "--r", str(r)])
    assert code == 0 and json.loads(out)["n"] == n
    assert_refused_past_the_cap(capsys, [sub, "--n", str(n_past), "--r", str(r_past)], cap)


def test_subdivision_guard_at_its_cap_and_one_past_it(files, capsys):
    paths = {}
    for r, n in [(4, 8), (3, 9)]:  # C(8, 4) = 70, the cap; C(9, 3) = 84
        M = Matroid.uniform(r, n)
        paths[r, n] = files["dir"] / f"u{r}_{n}.json"
        paths[r, n].write_text(Valuation(M, {b: Fraction(0) for b in M.bases}).to_json())
    for command in ("subdivision", "spread"):
        code, out = capture(capsys, [command, "--valuation", str(paths[4, 8])])
        assert code == 0 and json.loads(out)["spread"] == 1
        assert_refused_past_the_cap(capsys, [command, "--valuation", str(paths[3, 9])], 70)


def assert_rejected_quickly(capsys, argv):
    started = time.perf_counter()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:")
    # Fraction would expand 10**100000000 before any check
    assert time.perf_counter() - started < 5


HUGE_EXPONENTS = ["1e100000000", "-3.5E-100000000", "2e+0010001"]


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
def test_oversized_exponent_in_values_exits_2(files, capsys, text):
    M = Matroid.uniform(2, 4)
    values = {",".join(map(str, b)): "0" for b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))}
    path = files["dir"] / "exp.json"
    path.write_text(json.dumps({"matroid": M.to_json_obj(),
                                "values": values | {"2,3": text}}))
    for command in ("check", "type"):
        assert_rejected_quickly(capsys, [command, "--valuation", str(path)])
    path.write_text(json.dumps({"matroid": M.to_json_obj(),
                                "values": values | {"2,3": "1e3"}}))
    code, out = capture(capsys, ["check", "--valuation", str(path)])
    assert (code, json.loads(out)) == (0, {"valid": True})


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
def test_oversized_exponent_in_newick_length_exits_2(files, capsys, text):
    path = files["dir"] / "exp.nwk"
    path.write_text(f"(0:1,1:{text},2:1);")
    assert_rejected_quickly(capsys, ["tree-encode", "--tree", str(path)])
    path.write_text("(0:1,1:2e1,2:1);")
    code, out = capture(capsys, ["tree-encode", "--tree", str(path)])
    assert code == 0 and json.loads(out)["values"]["0,1"] == "21"


@pytest.mark.parametrize("text", HUGE_EXPONENTS + ["1/0"])
def test_oversized_exponent_in_shift_exits_2(files, capsys, text):
    shift_arg = ",".join(["0", text, "0", "0", "0"])
    assert_rejected_quickly(
        capsys, ["residue", "--valuation", files["nu"], "--shift", shift_arg])
    code, out = capture(capsys, ["residue", "--valuation", files["nu"],
                                 "--shift", "0,1e-2,0,0,0"])
    assert code == 0 and Matroid.from_json_obj(json.loads(out)).n == 5


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
def test_oversized_exponent_in_cover_equation_exits_2(files, capsys, tmp_path, text):
    cov = {"ground": [0, 1], "k": 1, "blocks": [[0], [1]]}
    pc = tmp_path / "cov.json"
    pc.write_text(json.dumps(cov))
    ps = tmp_path / "sub.json"
    ps.write_text(json.dumps({"coords": [0, 1], "equations": [{"0": text, "1": "-1"}]}))
    assert_rejected_quickly(capsys, ["cover-check", "--subspace", str(ps),
                                     "--cover", str(pc)])
    ps.write_text(json.dumps({"coords": [0, 1], "equations": [{"0": "1e4", "1": "-1"}]}))
    code, out = capture(capsys, ["cover-check", "--subspace", str(ps), "--cover", str(pc)])
    assert code == 0 and json.loads(out)["holds"] is True


def _typed_rejections(d):
    """(label, argv) for inputs that once escaped as tracebacks or reached
    exit 2 only because every ValueError did."""
    def write(name, data):
        path = d / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    M = Matroid.uniform(2, 4)
    values = {"0,1": "0", "0,2": "0", "0,3": "0", "1,2": "0", "1,3": "0", "2,3": "0"}
    nu = write("nu.json", {"matroid": M.to_json_obj(), "values": values})
    huge = write("huge.json", {"matroid": M.to_json_obj(), "values": values | {"0,2": "1e5000"}})
    two_keys = write("two.json", {"matroid": M.to_json_obj(), "values": values | {"1,0": "0"}})
    loop = write("loop.json", {"matroid": {"n": 3, "r": 2, "bases": [[0, 1]]},
                               "values": {"0,1": "0"}})
    rank1 = Matroid.uniform(1, 4)
    r1 = write("r1.json", {"matroid": rank1.to_json_obj(),
                           "values": {str(e): "0" for e in range(4)}})
    cov = write("cov.json", {"ground": [0, 1], "k": 1, "blocks": [[0], [1]]})
    sub = write("sub.json", {"coords": [0, 1], "equations": []})

    def cover(name, subspace=None, cover_doc=None):
        return ["cover-check", "--subspace", write(name, subspace) if subspace else sub,
                "--cover", write(name, cover_doc) if cover_doc else cov]

    return [
        ("cover-no-equations", cover("s.json", {"coords": [0, 1]})),
        ("cover-unknown-coordinate", cover("s.json", {"coords": [0, 1], "equations": [{"5": "1"}]})),
        ("cover-list-document", cover("s.json", [0, 1])),
        ("cover-repeated-coordinate", cover("s.json", {"coords": [0, "0"], "equations": []})),
        ("cover-k-zero", cover("c.json", cover_doc={"ground": [0, 1], "k": 0, "blocks": []})),
        ("cover-k-text", cover("c.json", cover_doc={"ground": [0, 1], "k": "1",
                                                    "blocks": [[0], [1]]})),
        ("lower-bound-r0", ["lower-bound", "--n", "3", "--r", "0"]),
        ("lower-bound-r1", ["lower-bound", "--n", "4", "--r", "1"]),
        ("lower-bound-n0", ["lower-bound", "--n", "0", "--r", "0"]),
        ("lower-bound-negative", ["lower-bound", "--n", "-1", "--r", "0"]),
        ("sp-census-negative", ["sp-census", "--n", "-1", "--r", "2"]),
        ("sp-census-r-above-n", ["sp-census", "--n", "5", "--r", "7"]),
        ("sp-census-perturbed-r-above-n", ["sp-census", "--n", "5", "--r", "7", "--perturbed"]),
        ("sp-census-perturbed-n-above-10", ["sp-census", "--n", "12", "--r", "1",
                                            "--perturbed"]),
        ("deep-json", ["check", "--valuation", write("deep.json", "[" * 200000 + "]" * 200000)]),
        ("non-utf8", ["check", "--valuation", write("bad.json", b'{"matroid": "\xff"}')]),
        ("non-utf8-newick", ["tree-encode", "--tree", write("bad.nwk", b"(0:1,1:\xff,2:1);")]),
        ("contract-not-integer", ["contract", "--valuation", nu, "--set", "a"]),
        ("contract-negative", ["contract", "--valuation", nu, "--set=-1"]),
        ("contract-huge-element", ["contract", "--valuation", nu, "--set", str(10**30)]),
        ("contract-1e5000", ["contract", "--valuation", huge, "--set", "2"]),
        ("contract-dependent", ["contract", "--valuation", nu, "--set", "0,1,2"]),
        ("two-values-for-subset", ["check", "--valuation", two_keys]),
        ("residue-shift-length", ["residue", "--valuation", nu, "--shift", "0,0"]),
        ("tree-decode-loop", ["tree-decode", "--valuation", loop]),
        ("smooth-1e5000", ["smooth", "--valuation", huge]),
        ("bounds-n2000", ["bounds", "--n", "2000", "--r", "3"]),
        ("spread-rank1", ["spread", "--valuation", r1]),
    ]


def test_bad_input_exits_2_through_a_typed_error(files, capsys):
    for label, argv in _typed_rejections(files["dir"]):
        assert run(argv) == 2, label
        captured = capsys.readouterr()
        assert captured.out == "", label
        assert captured.err.startswith("error:") and "Traceback" not in captured.err, label
        args = _build_parser().parse_args(argv)
        with pytest.raises(InputError):
            args.fn(args)


def test_lower_bound_refuses_rank_below_two(files, capsys):
    # refused before the certificate, with the valid range in the message
    started = time.perf_counter()
    assert run(["lower-bound", "--n", "4", "--r", "1"]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lower-bound needs 2 <= r < n, got r=1, n=4\n"


def test_internal_value_error_is_not_bad_input(files, capsys, monkeypatch):
    def broken(nu, ctype=None):
        raise ValueError("an internal bug")

    monkeypatch.setattr("dressian.linear.cell_dim", broken)
    with pytest.raises(ValueError, match="an internal bug"):
        run(["dim", "--valuation", files["nu"]])  # propagates: no exit 2


def test_the_sampler_options_are_refused(capsys):
    # sp-census --perturbed reads every residue matroid off the walk: there
    # is nothing left to seed or sample
    for option in ("--seed", "--samples"):
        assert run(["sp-census", "--n", "5", "--r", "2", "--perturbed", option, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {option} 0" in captured.err


def _subparsers(parser=None):
    action = next(a for a in (parser or _build_parser())._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_options_exist_only_where_read():
    for name, sp in _subparsers().items():
        options = {flag: a for a in sp._actions for flag in a.option_strings}
        assert not {"--seed", "--samples"} & options.keys(), name
        assert ("csv" in options["--format"].choices) == (name in ("bounds", "lower-bound")), name
    assert len(_subparsers()) == 17


# ---------------------------------------------------------------------------
# fuzzing every subcommand that reads a file

FUZZ_COMMANDS = ["check", "type", "equiv", "dim", "contract", "residue", "from-matroid",
                 "tree-decode", "subdivision", "spread", "smooth", "cover-check"]
# JSON text put in place of a node: wrong types, bad rationals, deep nesting
FUZZ_JUNK = ["null", "true", "-1", "0", "3", "2.5", '"x"', '"1/0"', '"1e100000"',
             '"1e9999"', '"-3/4"', "[]", "{}", "[[0, 1]]", '{"n": 4}', "NaN", "1e400",
             "1" * 5000, "[" * 980 + "]" * 980]
# elements out of range or negative; n and r are left to FUZZ_JUNK so that
# every document keeps C(n, r) <= 20
FUZZ_ELEMENTS = [-1, 6, 9, 10**30]
FUZZ_KEYS = ["0,9", "-1,2", "0,x", "", "0,1,2", "1,0", "1" * 5000]
HOLE = "\x00hole"


@functools.cache
def fuzz_documents():
    """Valid valuation, matroid and cover documents with C(n, r) <= 20."""
    rnd = random.Random(11)
    valuations = [
        valuation_from_matroid(N3),
        random_tree_metric_valuation(6, rnd),
        valuation_from_matroid(modular_stable_matroid(6, 3, 0)),
        random_valuation(N26, rnd),
        Valuation(Matroid.uniform(1, 4), {1 << e: Fraction(e) for e in range(4)}),
    ]
    matroids = [N3, N26, Matroid.uniform(3, 6), modular_stable_matroid(6, 3, 1)]
    coords = [[0, 1], [0, 2], [1, 2]]
    covers = [
        ({"coords": [0, 1, 2, 3], "equations": [{"0": "1", "1": "-1"}]},
         {"ground": [0, 1, 2, 3], "k": 2, "blocks": [[0, 1], [2, 3], [0, 2], [1, 3]]}),
        ({"coords": coords, "equations": [{"(0, 1)": "1/2", "(1, 2)": 3}]},
         {"ground": coords, "k": 1, "blocks": [coords[:2], coords[2:]]}),
    ]
    return ([nu.to_json_obj() for nu in valuations],
            [M.to_json_obj() for M in matroids], covers)


def _nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def fuzz_bytes(data, doc):
    """The bytes of a JSON document after one drawn edit, or unedited."""
    doc = json.loads(json.dumps(doc))
    kind = data.draw(st.sampled_from(
        ["none", "junk", "drop", "extra", "element", "key", "deep", "bytes", "truncate"]))
    nodes = list(_nodes(doc))
    dicts = [p for p in nodes if isinstance(_at(doc, p), dict) and _at(doc, p)]
    ints = [p for p in nodes if p and p[-1] not in ("n", "r", "k")
            and type(_at(doc, p)) is int]
    junk = data.draw(st.sampled_from(FUZZ_JUNK))
    if kind == "junk" or (kind == "element" and not ints):
        path = data.draw(st.sampled_from(nodes))
        if not path:
            return junk.encode()
        _at(doc, path[:-1])[path[-1]] = HOLE
    elif kind in ("drop", "extra", "key"):
        node = _at(doc, data.draw(st.sampled_from(dicts)))
        key = data.draw(st.sampled_from(sorted(node)))
        if kind == "drop":
            del node[key]
        elif kind == "extra":
            node["extra"] = HOLE
        else:
            node[data.draw(st.sampled_from(FUZZ_KEYS))] = node.pop(key)
    elif kind == "element":
        path = data.draw(st.sampled_from(ints))
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(FUZZ_ELEMENTS))
    text = json.dumps(doc).replace(json.dumps(HOLE), junk)
    if kind == "deep":
        depth = data.draw(st.sampled_from([1, 980, 200000]))
        text = "[" * depth + text + "]" * depth
    raw = text.encode()
    cut = data.draw(st.integers(0, len(raw)))
    if kind == "bytes":
        raw = raw[:cut] + data.draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])) + raw[cut:]
    elif kind == "truncate":
        raw = raw[:cut]
    return raw


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_file_inputs_fuzz_exits_0_or_2(tmp_path_factory, data):
    valuations, matroids, covers = fuzz_documents()
    d = tmp_path_factory.getbasetemp()
    command = data.draw(st.sampled_from(FUZZ_COMMANDS))
    first, second = d / "fuzz1.json", d / "fuzz2.json"
    if command == "cover-check":
        sub, cov = data.draw(st.sampled_from(covers))
        fuzz_subspace = data.draw(st.booleans())
        first.write_bytes(fuzz_bytes(data, sub) if fuzz_subspace else json.dumps(sub).encode())
        second.write_bytes(json.dumps(cov).encode() if fuzz_subspace else fuzz_bytes(data, cov))
        argv = ["cover-check", "--subspace", str(first), "--cover", str(second)]
    elif command == "from-matroid":
        first.write_bytes(fuzz_bytes(data, data.draw(st.sampled_from(matroids))))
        argv = ["from-matroid", "--matroid", str(first)]
    else:
        doc = data.draw(st.sampled_from(valuations))
        if data.draw(st.booleans()):  # the matroid as a file reference
            second.write_text(json.dumps(doc["matroid"]))
            doc = doc | {"matroid": str(second)}
        first.write_bytes(fuzz_bytes(data, doc))
        argv = [command, "--valuation", str(first)]
        if command == "equiv":
            other = d / "fuzz3.json"
            other.write_text(json.dumps(data.draw(st.sampled_from(valuations))))
            argv += ["--other", str(other)]
        elif command == "contract":
            argv.append("--set=" + data.draw(st.text("0123456789,-a ", max_size=6)))
        elif command == "residue" and data.draw(st.booleans()):
            argv.append("--shift=" + data.draw(st.one_of(
                st.sampled_from(["0,1,0,0,0", "0,1/2,0,0,0,0", "1,1,1,1"]),
                st.text("0123456789,/-.e ", max_size=14))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error:")
