"""The four workloads: the CLI commands of one pass and their oracles.

A workload is built from the benchmark seed.  Building writes the input
files and returns the commands; the program sees only those files and the
argv.  Every oracle compares against a value fixed here or computed by the
generators in ``inputs.py``, never by dressian.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

from inputs import (
    BinaryTree,
    broken_copy,
    key,
    modular_nonbases,
    seeded_rational,
    shifted,
    sparse_paving_values,
    stiefel_values,
    type_keys,
    valuation_doc,
    write_json,
)


class OracleFailure(Exception):
    """An output that disagrees with its oracle."""


def expect(condition, message):
    if not condition:
        raise OracleFailure(message)


@dataclass
class Command:
    """One CLI call.  `oracle(doc, docs)` checks its parsed JSON output
    against fixed values and the outputs of earlier commands of the pass;
    `before(outputs)` writes an input file from those earlier outputs."""

    label: str
    argv: list
    oracle: Callable
    before: Callable | None = None


@dataclass
class Workload:
    commands: list
    headline: str  # label of the command that also runs as a fresh process

    def command(self, label) -> Command:
        return next(c for c in self.commands if c.label == label)


def judge(cmd: Command, code, out: str, err: str, docs: dict) -> str | None:
    """Failure reason for one command's result, or None.  Records the
    parsed output in `docs` for later oracles of the pass."""
    if code != 0:
        return f"{cmd.label}: exit {code}: {err.strip()[-300:]}"
    if "Traceback" in err:
        return f"{cmd.label}: traceback on stderr"
    try:
        doc = json.loads(out)
        docs[cmd.label] = doc
        cmd.oracle(doc, docs)
    except OracleFailure as exc:
        return f"{cmd.label}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{cmd.label}: malformed output ({type(exc).__name__}: {exc})"
    return None


def equals(expected):
    def oracle(doc, _docs):
        expect(doc == expected, f"expected {expected}, got {doc}")
    return oracle


# ---------------------------------------------------------------------------
# census: many small cells over one (n, r)

CENSUS = {
    "n": 6, "r": 3, "source_size": 271, "distinct_types": 271,
    "distinct_is_injective": True, "max_cell_dim": 10,
    "completeness": "complete over sparse paving matroids",
}


def census(seed: int, workdir: Path) -> Workload:
    # The command reads no input file; the seed has nothing to select.
    argv = ["sp-census", "--n", "6", "--r", "3", "--with-dims"]
    return Workload([Command("sp-census", argv, equals(CENSUS))], headline="sp-census")


# ---------------------------------------------------------------------------
# subdivision: point location in P(nu)


def _subdivision_oracle(spread, same_cells_as=None):
    def oracle(doc, docs):
        expect(doc["exploration_status"] == "exhaustive",
               f"status {doc['exploration_status']}")
        expect(doc["spread"] == spread, f"spread {doc['spread']}, expected {spread}")
        expect(len(doc["cells"]) == spread, "cell list length differs from spread")
        if same_cells_as is not None:
            ref = docs[same_cells_as]["cells"]
            expect(sorted(map(sorted, doc["cells"])) == sorted(map(sorted, ref)),
                   f"shift changed the cells of {same_cells_as}")
    return oracle


def subdivision(seed: int, workdir: Path) -> Workload:
    """nu_N of a modular sparse paving matroid on U(3,6); two tree metrics on
    5 and 6 leaves; a shift of the 6-leaf one.  k is drawn from {0, 3}, the
    two classes with 5 cells and 149 point locations, so that every seed
    makes the same amount of work."""
    rnd = random.Random(seed)
    k = rnd.choice((0, 3))
    nonbases = modular_nonbases(6, 3, k)
    path = workdir / f"modular-k{k}.json"
    write_json(path, valuation_doc(6, 3, sparse_paving_values(6, 3, nonbases)))
    # spread = c(N) + 1, and each non-basis is its own component
    commands = [Command("modular", ["subdivision", "--valuation", str(path)],
                        _subdivision_oracle(len(nonbases) + 1))]
    for n in (5, 6):
        tree = BinaryTree(n, rnd)
        path = workdir / f"tree{n}.json"
        values = tree.valuation()
        write_json(path, valuation_doc(n, 2, values))
        commands.append(Command(f"tree{n}", ["subdivision", "--valuation", str(path)],
                                _subdivision_oracle(tree.internal_count())))
    w = [seeded_rational(rnd, -4, 4) for _ in range(6)]
    path = workdir / "tree6-shift.json"
    write_json(path, valuation_doc(6, 2, shifted(values, w)))
    commands.append(Command("tree6-shift", ["subdivision", "--valuation", str(path)],
                            _subdivision_oracle(tree.internal_count(), "tree6")))
    return Workload(commands, headline="modular")


# ---------------------------------------------------------------------------
# desk_edge: one-shot eliminations at the 70-coordinate limit


def dim_upper(n: int, r: int) -> Fraction:
    return Fraction(comb(n, r) * 3, n - r + 3)


def _type_oracle(expected_keys):
    def oracle(doc, _docs):
        keys = expected_keys()
        expect(doc["symbols_equal"] == keys, "symbols_equal differs from the generator's")
        expect(doc["type_size"] == len(keys) and doc["z1_size"] == len(keys),
               f"type sizes {doc['type_size']}/{doc['z1_size']}, expected {len(keys)}")
    return oracle


def _dim_oracle(n, r, same_as=None):
    def oracle(doc, docs):
        d = doc["dim"]
        # the n shift directions always lie in the cell hull
        expect(n <= d <= dim_upper(n, r), f"dim {d} outside [{n}, {dim_upper(n, r)}]")
        if same_as is not None:
            expect(d == docs[same_as]["dim"], f"shift changed dim of {same_as}")
    return oracle


def _lower_bound_oracle(doc, _docs):
    expect((doc["n"], doc["r"]) == (8, 4), "wrong (n, r)")
    expect(doc["component_count"] == 10, f"c(N) = {doc['component_count']}")
    expect(doc["cell_dim"] == 18, f"cell_dim = {doc['cell_dim']}")
    expect(doc["dim_upper"] == "30", f"dim_upper = {doc['dim_upper']}")
    sets = [tuple(int(e) for e in nb.split(",")) for nb in doc["nonbases"]]
    expect(len(set(sets)) == 10 and all(len(s) == 4 for s in sets),
           "expected 10 distinct non-bases of size 4")
    expect(len({sum(s) % 8 for s in sets}) == 1, "non-bases not in one sum class mod 8")
    expect(all(len(set(x) & set(y)) <= 2 for x, y in combinations(sets, 2)),
           "non-bases are not a stable set")


@cache
def _bounds_expected(n: int, r: int, t: int = 3) -> dict:
    """The closed forms `bounds` reports, evaluated here; the two logarithmic
    ones with decimal arithmetic instead of mpmath."""
    nr = comb(n, r)
    sym = comb(n, r - 2) * comb(n - r + 2, 4)
    m = n - r + t
    ratio = Fraction(comb(m - 2, t - 2) + m - 1, comb(m, t))
    frac = lambda q: f"{q.numerator}/{q.denominator}"
    with localcontext() as ctx:
        ctx.prec = 40
        ln_n = Decimal(n).ln()
        logs = {"subspace_count_bound": nr * (Decimal(n) ** 4).ln(),
                "count_upper": nr * (55 * ln_n + 4 * ln_n * ln_n) / n}
    exact = {
        "symbol_count_ordered": str(sym * 6), "symbol_count": str(sym * 3),
        "log2_count_bound": str(sym * 3), "dim_upper": frac(dim_upper(n, r)),
        "dim_contraction_ratio": frac(ratio),
        "spreaddim_upper": str(comb(n - 2, r - 2) + n - 1),
        "spreaddim_upper_alt": str(comb(n - 2, r - 1) + n - 1),
        "tree_dim_upper": str(2 * n - 3), "tree_count_upper": str(2**n * n**n),
        "dim_lower": frac(Fraction(nr, n)), "count_lower": "None",
    }
    return {"exact": exact, "logs": logs}


def _bounds_oracle(doc, _docs):
    want = _bounds_expected(8, 4)
    expect((doc["n"], doc["r"], doc["t_contraction"], doc["log_precision"]) == (8, 4, 3, 20),
           "wrong header")
    for name, value in want["exact"].items():
        expect(doc[name]["value"] == value, f"{name} = {doc[name]['value']}, expected {value}")
    for name, value in want["logs"].items():
        got = Decimal(doc[name]["value"])
        expect(abs(got - value) <= value * Decimal("1e-18"), f"{name} = {got}")


def desk_edge(seed: int, workdir: Path) -> Workload:
    """check, type and dim on a seeded Stiefel valuation and a seeded shift
    of it, on U(3,8) and U(4,8); check on a broken copy; lower-bound and
    bounds at (8, 4)."""
    rnd = random.Random(seed)
    n = 8
    commands = []
    stiefel = {}
    for r in (3, 4):
        values = stiefel_values(r, n, rnd)
        stiefel[r] = values
        expected_keys = cache(lambda v=values, r=r: type_keys(v, r, n))
        w = [seeded_rational(rnd, -4, 4) for _ in range(n)]
        for tag, vals in ((f"{r}", values), (f"{r}-shift", shifted(values, w))):
            path = workdir / f"stiefel{tag}.json"
            write_json(path, valuation_doc(n, r, vals))
            arg = ["--valuation", str(path)]
            commands += [
                Command(f"check-{tag}", ["check", *arg], equals({"valid": True})),
                Command(f"type-{tag}", ["type", *arg], _type_oracle(expected_keys)),
                Command(f"dim-{tag}", ["dim", *arg],
                        _dim_oracle(n, r, None if tag == f"{r}" else f"dim-{r}")),
            ]
    r = rnd.choice((3, 4))
    path = workdir / "broken.json"
    write_json(path, valuation_doc(n, r, broken_copy(stiefel[r], r, n, rnd)))
    commands += [
        Command("check-broken", ["check", "--valuation", str(path)],
                equals({"valid": False})),
        Command("lower-bound", ["lower-bound", "--n", "8", "--r", "4"], _lower_bound_oracle),
        Command("bounds", ["bounds", "--n", "8", "--r", "4"], _bounds_oracle),
    ]
    return Workload(commands, headline="lower-bound")


# ---------------------------------------------------------------------------
# rank2_trees: the rank-2 census and tree round trips

RANK2_CENSUS = {
    "n": 8, "cells": 39208,  # A000311(8)
    "dims": {"8": 1, "9": 119, "10": 1918, "11": 9450, "12": 17325, "13": 10395},
}


def _decode_oracle(tree):
    def oracle(doc, _docs):
        expect(doc["internal_vertices"] == tree.internal_count(),
               f"{doc['internal_vertices']} internal vertices, expected {tree.internal_count()}")
        expect(doc["splits"] == tree.splits(), "splits differ from the generator's tree")
        expect(doc["newick"].endswith(";"), "newick string not terminated")
    return oracle


def _encode_oracle(n, values):
    want = {key(b): v for b, v in values.items()}
    pairs = [list(b) for b in combinations(range(n), 2)]

    def oracle(doc, _docs):
        m = doc["matroid"]
        expect((m["n"], m["r"], sorted(m["bases"])) == (n, 2, pairs),
               "round trip changed the matroid")
        got = {k: Fraction(v) for k, v in doc["values"].items()}
        expect(got == want, "round trip changed the values")
    return oracle


def _newick_writer(source_label, path):
    def before(outputs):
        try:
            text = json.loads(outputs[source_label])["newick"]
        except (ValueError, KeyError, TypeError):
            text = ""  # the encode call then fails and is counted
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return before


def rank2_trees(seed: int, workdir: Path) -> Workload:
    rnd = random.Random(seed)
    commands = [Command("rank2-census", ["rank2-census", "--n", "8"], equals(RANK2_CENSUS))]
    for n in (6, 7, 8):
        tree = BinaryTree(n, rnd)
        values = tree.valuation()
        path = workdir / f"tree{n}.json"
        write_json(path, valuation_doc(n, 2, values))
        newick = workdir / f"tree{n}.nwk"
        commands += [
            Command(f"decode-{n}", ["tree-decode", "--valuation", str(path)],
                    _decode_oracle(tree)),
            Command(f"encode-{n}", ["tree-encode", "--tree", str(newick), "--n", str(n)],
                    _encode_oracle(n, values), before=_newick_writer(f"decode-{n}", newick)),
        ]
    return Workload(commands, headline="rank2-census")


WORKLOADS = {
    "census": census,
    "subdivision": subdivision,
    "desk_edge": desk_edge,
    "rank2_trees": rank2_trees,
}
