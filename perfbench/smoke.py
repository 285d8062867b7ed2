"""Smoke check for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once, timed and traced, with one sample of each
measurement at full problem size.  Fails if a run is not correct, if the
emitted metric names or units differ from BENCHMARK.json, if a trace
wrapper outlives its run, or if the oracles accept a deliberately wrong
output of any command.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def mutate(doc):
    """A copy of a JSON document with its first number or boolean changed,
    in sorted-key order; the first string if it has neither."""
    def leaves(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                yield from leaves(node[k], path + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from leaves(v, path + (i,))
        else:
            yield path, node

    found = list(leaves(doc, ()))
    numbers = [(p, v) for p, v in found if isinstance(v, (bool, int))]
    path, value = (numbers or [(p, v) for p, v in found if isinstance(v, str)])[0]
    wrong = (not value) if isinstance(value, bool) else (
        value + 1 if isinstance(value, int) else value + "x")
    copy = json.loads(json.dumps(doc))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = wrong
    return copy


def failures(results) -> list:
    docs = {}
    return [f for f in (workloads.judge(cmd, code, out, err, docs)
                        for cmd, code, out, err in results) if f]


def check_oracles(name, results) -> list[str]:
    """Problems found: a wrong output of some command that the pass's oracles
    accept."""
    problems = []
    if failures(results):
        return [f"{name}: reference pass already fails"]
    for i, (cmd, code, out, err) in enumerate(results):
        wrong_outputs = {
            "changed value": (code, json.dumps(mutate(json.loads(out))), err),
            "empty output": (code, "", err),
            "exit 1": (1, out, err),
        }
        for kind, (c, o, e) in wrong_outputs.items():
            trial = list(results)
            trial[i] = (cmd, c, o, e)
            if not failures(trial):
                problems.append(f"{name}: {kind} of {cmd.label} not flagged")
    return problems


def main() -> int:
    if not run.use_checkout_sources():
        print(f"error: no dressian sources under {run.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            h, metrics, _ = run.measure(name, seed=0, seconds=0, trace=trace,
                                        min_samples=1, setup_repeats=1)
            emitted = {k: unit for k, (_value, unit) in metrics.items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                units = sorted(k for k in set(emitted) & set(declared[trace])
                               if emitted[k] != declared[trace][k])
                problems.append(f"{name} trace={trace}: missing {missing}, "
                                f"undeclared {extra}, unit differs {units}")
            if h.failures:
                problems.append(f"{name} trace={trace}: {h.failures}")
            if tracing.wrappers_installed():
                problems.append(f"{name} trace={trace}: wrappers left installed")
            if trace == 0:
                problems += check_oracles(name, h.last_results)
            print(f"{name} trace={trace}: {h.attempted} operations, "
                  f"{len(h.failures)} failed", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
