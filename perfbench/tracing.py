"""Spans around the calls into each dressian module, for the traced run.

The tracer replaces a fixed set of functions and methods by timing
wrappers: at their defining module, at every dressian module that imported
the name (``bounds.py`` calls its own binding of ``cell_dim``), and on the
class for methods.  Spans stay in memory as tuples and are written out
once the run ends.  The timed runs must never see a wrapper;
``wrappers_installed`` is what they assert on.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

MARK = "__perfbench_span__"


def _build_counts(args, result):
    return {"pairs": len(args[0].bases) ** 2}


def _rank_counts(args, result):
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "rank": result}


def _explore_counts(args, result):
    return {"cells": len(result.maximal_cells),
            "exhaustive": int(result.exploration_status == "exhaustive")}


# (defining module, attribute or Class.attribute, span name, counters)
SPANS = (
    ("matroid", "Matroid.__post_init__", "matroid.build", _build_counts),
    ("matroid", "Matroid.rank_of", "matroid.rank_of", None),
    ("valuation", "check_valuation", "valuation.check", None),
    ("valuation", "check_valuation_bruteforce", "valuation.bruteforce", None),
    ("valuation", "symbol_sets", "valuation.symbol_sets",
     lambda args, result: {"symbols": len(result[0])}),
    ("valuation", "combinatorial_type", "valuation.type", None),
    ("valuation", "valuation_from_matroid", "valuation.from_matroid", None),
    ("linear", "cell_dim", "linear.cell_dim", None),
    ("linear", "integer_matrix_rank", "linear.rank", _rank_counts),
    ("linear", "RationalSubspace.contains", "linear.contains", None),
    ("linear", "subspace_from_symbols", "linear.subspace", None),
    ("linear", "solve_linear_system", "linear.solve", None),
    ("subdivision", "locate_cell", "subdivision.locate", None),
    ("subdivision", "subdivision_cells", "subdivision.explore", _explore_counts),
    ("subdivision", "polytope_dim", "subdivision.polytope_dim", None),
    ("trees", "enumerate_rank2_cells", "trees.enumerate",
     lambda args, result: {"cells": len(result)}),
    ("trees", "decode_tree", "trees.decode", None),
    ("trees", "tree_to_valuation", "trees.encode", None),
    ("trees", "MetricTree.to_newick", "trees.newick", None),
    ("trees", "MetricTree.from_newick", "trees.newick", None),
    ("bounds", "all_stable_sets", "bounds.stable_sets",
     lambda args, result: {"sets": len(result)}),
    ("bounds", "census_from_matroids", "bounds.census", None),
    ("bounds", "lower_bound_certificate", "bounds.certificate", None),
    ("bounds", "bounds_report", "bounds.report", None),
    # Not reported on its own; wrapped so that its loop is not counted as
    # CLI self time.
    ("bounds", "all_sparse_paving_matroids", "bounds.sparse_paving", None),
    ("cli", "run", "cli.run", None),
)


def _dressian_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dressian" or name.startswith("dressian."))]


def wrappers_installed() -> list[str]:
    """Names of every wrapper currently reachable from a dressian module."""
    found = []
    for mod in _dressian_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, None):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, MARK, None):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans = []  # (id, parent id, request id, name, start, end, counters)
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counts):
        spans, ids, tracer = self.spans, self._ids, self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            # A call on a pool thread was caused by the span open on the
            # thread that installed the tracer.
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(ids)
            stack.append(sid)
            result, done = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = counts(args, result) if counts and done else None
                spans.append((sid, parent, tracer.request, name, start, end, extra))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        mods = _dressian_modules()
        for module, attr, name, counts in SPANS:
            home = sys.modules[f"dressian.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, counts))
                else:
                    new = self._wrap(raw, name, counts)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counts)
            for mod in mods:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._restore.append((mod, binding, original))

    def uninstall(self):
        while self._restore:
            owner, binding, original = self._restore.pop()
            setattr(owner, binding, original)
        self._main_stack = None

    def write(self, path):
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end,
                                     "counters": extra}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children on pool threads can overlap one another, so coverage is the
    union of their intervals, not the sum of their durations.
    """
    children = defaultdict(list)
    for sid, parent, _req, _name, start, end, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _req, _name, start, end, _extra in spans:
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = (end - start) - covered
    return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list, 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-round(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_level(calls_per_pass: float) -> float:
    """The highest of p50, p90, p99, p99.9 with at least ten calls beyond it
    in one pass.  Fixed by the per-pass call count, so it does not change
    with the number of traced passes a run makes."""
    level = 0.5
    for q in (0.9, 0.99, 0.999):
        if calls_per_pass * (1 - q) >= 10:
            level = q
    return level


def layer_metrics(spans, passes: int) -> tuple[dict, dict]:
    """(metrics, notes) over `passes` traced passes.

    Counts and self times are per pass.  The _p50_ms and _tail_ms figures
    are per-call durations including children; notes records which
    percentile each tail is.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    def calls(name):
        return len(by_name[name]) / passes

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name[name]) / passes

    def counter(name, field):
        return sum(s[6][field] for s in by_name[name] if s[6]) / passes

    def latency(name):
        durations = sorted((s[5] - s[4]) * 1000 for s in by_name[name])
        level = tail_level(calls(name))
        return _percentile(durations, 0.5), _percentile(durations, level), level

    rank_rows = counter("linear.rank", "rows")
    locate_calls = calls("subdivision.locate")
    explore_calls = calls("subdivision.explore")
    cd_p50, cd_tail, cd_level = latency("linear.cell_dim")
    lc_p50, lc_tail, lc_level = latency("subdivision.locate")

    m = {
        "matroid.build_calls": calls("matroid.build"),
        "matroid.build_s": self_s("matroid.build"),
        "matroid.exchange_pairs": counter("matroid.build", "pairs"),
        "matroid.rank_of_calls": calls("matroid.rank_of"),
        "matroid.rank_of_s": self_s("matroid.rank_of"),
        "valuation.check_calls": calls("valuation.check"),
        "valuation.check_s": self_s("valuation.check"),
        "valuation.bruteforce_s": self_s("valuation.bruteforce"),
        "valuation.symbol_sets_calls": calls("valuation.symbol_sets"),
        "valuation.symbol_sets_s": self_s("valuation.symbol_sets"),
        "valuation.symbols_visited": counter("valuation.symbol_sets", "symbols"),
        "valuation.type_calls": calls("valuation.type"),
        "valuation.type_s": self_s("valuation.type"),
        "valuation.from_matroid_s": self_s("valuation.from_matroid"),
        "linear.cell_dim_calls": calls("linear.cell_dim"),
        "linear.cell_dim_s": self_s("linear.cell_dim"),
        "linear.cell_dim_p50_ms": cd_p50,
        "linear.cell_dim_tail_ms": cd_tail,
        "linear.rank_calls": calls("linear.rank"),
        "linear.rank_s": self_s("linear.rank"),
        "linear.rank_rows": rank_rows,
        "linear.rank_cols": counter("linear.rank", "cols"),
        "linear.rank_yield": counter("linear.rank", "rank") / rank_rows if rank_rows else 0.0,
        "linear.contains_s": self_s("linear.contains"),
        "linear.subspace_s": self_s("linear.subspace"),
        "linear.solve_calls": calls("linear.solve"),
        "linear.solve_s": self_s("linear.solve"),
        "subdivision.locate_calls": locate_calls,
        "subdivision.locate_s": self_s("subdivision.locate"),
        "subdivision.locate_p50_ms": lc_p50,
        "subdivision.locate_tail_ms": lc_tail,
        "subdivision.new_cell_yield": (counter("subdivision.explore", "cells") / locate_calls
                                       if locate_calls else 0.0),
        "subdivision.explore_s": self_s("subdivision.explore"),
        "subdivision.polytope_dim_calls": calls("subdivision.polytope_dim"),
        "subdivision.polytope_dim_s": self_s("subdivision.polytope_dim"),
        "subdivision.exhaustive_share": (counter("subdivision.explore", "exhaustive")
                                         / explore_calls if explore_calls else 0.0),
        "trees.enumerate_s": self_s("trees.enumerate"),
        "trees.cells_enumerated": counter("trees.enumerate", "cells"),
        "trees.decode_calls": calls("trees.decode"),
        "trees.decode_s": self_s("trees.decode"),
        "trees.encode_s": self_s("trees.encode"),
        "trees.newick_s": self_s("trees.newick"),
        "bounds.stable_sets_s": self_s("bounds.stable_sets"),
        "bounds.stable_sets_count": counter("bounds.stable_sets", "sets"),
        "bounds.census_s": self_s("bounds.census"),
        "bounds.certificate_s": self_s("bounds.certificate"),
        "bounds.report_s": self_s("bounds.report"),
        "cli.run_calls": calls("cli.run"),
        "cli.self_s": self_s("cli.run"),
    }
    by_layer = defaultdict(float)
    for span in spans:
        by_layer[span[3]] += selfs[span[0]] / passes
    total = sum(by_layer.values())
    notes = {
        "tail_percentile": {"linear.cell_dim_tail_ms": cd_level,
                            "subdivision.locate_tail_ms": lc_level},
        "self_share_by_span": {k: round(v / total, 4) if total else 0.0
                               for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])},
    }
    return m, notes
