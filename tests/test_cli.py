import contextlib
import io
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressian import (
    InvariantViolation,
    Matroid,
    Valuation,
    combinatorial_type,
    decode_tree,
    set_to_mask,
    valuation_from_matroid,
)
from dressian.cli import _build_parser, run
from helpers import N3, random_tree_metric_valuation


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


def test_rank2_census_scale_guard(files, capsys):
    assert run(["rank2-census", "--n", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "parallel classes" in captured.err


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
    monkeypatch.setattr("dressian.subdivision._facets", lambda n, cell, full_dim: {})
    assert run(["subdivision", "--valuation", files["nu"]]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_point_outside_its_own_cell_hull_exits_1(files, capsys, monkeypatch):
    # every symbol of the zero valuation's type is an equality, but not of nu_N3's
    M = Matroid.uniform(2, 5)
    zero_type = combinatorial_type(Valuation(M, {b: Fraction(0) for b in M.bases}))
    monkeypatch.setattr("dressian.linear.combinatorial_type", lambda nu: zero_type)
    assert run(["dim", "--valuation", files["nu"]]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_certificate_below_component_count_exits_1(files, capsys, monkeypatch):
    monkeypatch.setattr("dressian.bounds.cell_dim", lambda nu: 0)
    assert run(["lower-bound", "--n", "6", "--r", "3"]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")


def test_inconsistent_edge_lengths_exit_1(files, capsys, monkeypatch):
    monkeypatch.setattr("dressian.trees.solve_linear_system", lambda eqs, edges: None)
    assert run(["tree-decode", "--valuation", files["nu"]]) == 1
    assert capsys.readouterr().err.startswith("invariant violation:")
    with pytest.raises(InvariantViolation):
        decode_tree(valuation_from_matroid(N3))


def test_determinism_across_runs(files, capsys):
    outs = set()
    for _ in range(3):
        code, out = capture(capsys, ["sp-census", "--n", "5", "--r", "2", "--seed", "0"])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    a = capture(capsys, ["subdivision", "--valuation", files["nu"], "--seed", "7"])
    b = capture(capsys, ["subdivision", "--valuation", files["nu"], "--seed", "7"])
    assert a == b


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
