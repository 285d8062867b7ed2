"""Benchmark runner for the dressian CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the raw samples.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a separate traced run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import probe
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
MIN_SAMPLES = 3  # passes, and cold processes, per run
PROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DRESSIAN_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_process(argv, stderr_path, env=None):
    """Run argv to completion; (seconds, peak RSS in MB, exit code, stdout)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env or child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        chunks = []
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = start + PROCESS_TIMEOUT_S - perf_counter()
                if remaining <= 0 or not sel.select(remaining):
                    proc.kill()
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return seconds, usage.ru_maxrss / 1024, proc.returncode, b"".join(chunks).decode()


def import_seconds(workdir: Path) -> tuple[float, float]:
    """Time to import the CLI module in a fresh interpreter, and the mean
    of three gauge ticks timed in that interpreter right after it."""
    code = ("import time; t = time.perf_counter(); import dressian.cli; "
            "t = time.perf_counter() - t; "
            f"import sys; sys.path.append({str(BENCH)!r}); import probe; "
            "print(t, sum(probe.tick_once() for _ in range(3)) / 3)")
    _, _, rc, out = run_process([sys.executable, "-c", code], workdir / "import.err")
    if rc != 0:
        raise BenchError(f"importing dressian failed: {(workdir / 'import.err').read_text()}")
    seconds, tick = map(float, out.split())
    return seconds, tick


class Harness:
    """One workload at one seed: its inputs, passes, cold runs and the
    count of operations judged by the oracles."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.workload = None
        self.last_results = []  # (command, exit code, stdout, stderr) of the last pass
        self.requests = itertools.count()  # one id per command run, for trace spans
        self.clock = perf_counter  # for work done in this process

    def setup(self, repeats) -> list[tuple[float, float]]:
        """Import in a fresh process plus input generation, repeated; each
        repeat as (seconds, seconds at reference speed), each part scaled
        by gauge ticks timed next to it in its own process."""
        samples = []
        for i in range(repeats):
            d = self.workdir / f"inputs{i}"
            imp, imp_tick = import_seconds(self.workdir)
            before = probe.tick_once()
            start = perf_counter()
            d.mkdir()
            self.workload = workloads.WORKLOADS[self.name](self.seed, d)
            gen = perf_counter() - start
            gen_tick = (before + probe.tick_once()) / 2
            samples.append((imp + gen, (imp / imp_tick + gen / gen_tick) * probe.TICK_REF_S))
        return samples

    def run_pass(self, cli, tracer=None) -> list[float]:
        """Every command once through cli.run, in one process; the oracles
        run after the clock stops.  Returns the time of each command."""
        results = []
        times = []
        outputs = {}
        for cmd in self.workload.commands:
            start = self.clock()
            if cmd.before is not None:
                cmd.before(outputs)
            if tracer is not None:
                tracer.request = next(self.requests)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.run(cmd.argv)
                except Exception:  # a traceback is a failed operation
                    traceback.print_exc()
                    code = None
            times.append(self.clock() - start)
            outputs[cmd.label] = out.getvalue()
            results.append((cmd, code, out.getvalue(), err.getvalue()))
        docs = {}
        for cmd, code, out, err in results:
            self.record(workloads.judge(cmd, code, out, err, docs))
        self.last_results = results
        return times

    def cold_run(self) -> tuple[float, float, dict]:
        """The headline command in a fresh interpreter, run as
        `python -m dressian.cli` runs it (runpy) but under
        probe.run_module_with_ticks; (seconds, peak RSS in MB, the child's
        tick record)."""
        cmd = self.workload.command(self.workload.headline)
        tick_file = self.workdir / "cold.ticks"
        launcher = (f"import sys; sys.path.append({str(BENCH)!r}); import probe; "
                    "probe.run_module_with_ticks('dressian.cli')")
        seconds, rss, code, out = run_process(
            [sys.executable, "-c", launcher, *cmd.argv], self.workdir / "cold.err",
            child_env(**{probe.TICK_FILE_ENV: str(tick_file)}))
        err = (self.workdir / "cold.err").read_text()
        self.record(workloads.judge(cmd, code, out, err, {}))
        if not tick_file.is_file():
            raise BenchError(f"no tick record from the fresh process: {err[-300:]}")
        return seconds, rss, json.loads(tick_file.read_text())

    def record(self, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
            print(f"failed: {failure}", file=sys.stderr)


def pass_seconds(passes: list[list[float]]) -> float:
    """Time of one pass: the sum over commands of each command's median
    across passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def scaled(samples: list[tuple[float, float]]) -> float:
    """Median over (seconds, tick seconds) samples of the time scaled to
    the reference speed (see probe.py)."""
    return statistics.median(t / p for t, p in samples) * probe.TICK_REF_S


def assert_untraced():
    found = tracing.wrappers_installed()
    if found:
        raise BenchError(f"trace wrappers installed during a timed run: {found}")


def timed_run(h: Harness, seconds, min_samples, setup_repeats) -> tuple[dict, dict]:
    import dressian.cli as cli

    setup = h.setup(setup_repeats)
    with probe.Ticker() as ticker:
        h.clock = ticker.clock
        assert_untraced()
        h.run_pass(cli)  # warm-up: lazy set-up and caches, not timed
        # Each pass is followed by fresh processes until they have taken at
        # least as long, so both get about half of the run.
        passes, colds, rss = [], [], []
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            pass_s = sum(h.run_pass(cli))
            middle = perf_counter()
            passes.append((pass_s, ticker.tick_seconds(start, middle)))
            while True:
                cold_start = perf_counter()
                cold_s, peak, child = h.cold_run()
                # The child's ticks ran in its main thread: take their time
                # out and scale by them, or by ours if it had none.
                colds.append((cold_s - child["busy_s"], child["tick_s"]
                              or ticker.tick_seconds(cold_start, perf_counter())))
                rss.append(peak)
                if perf_counter() - middle >= pass_s:
                    break
            end = perf_counter()
            if len(passes) >= min_samples and end + (end - start) > deadline:
                break
        h.clock = perf_counter
    assert_untraced()
    metrics = {
        "wall_norm_s": (scaled(passes), "s"),
        "cold_norm_s": (scaled(colds), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
    }
    samples = {"passes": len(passes), "cold_runs": len(colds),
               "ticks": len(ticker.durations), "tick_ref_s": probe.TICK_REF_S,
               "wall_s_raw_median": statistics.median(t for t, _ in passes),
               "cold_s_raw_median": statistics.median(t for t, _ in colds),
               "setup_s_raw_median": statistics.median(t for t, _ in setup),
               "pass_s": passes, "cold_s": colds, "peak_rss_mb": rss, "setup_s": setup}
    return metrics, samples


UNITS = {"_calls": "count", "_count": "count", "_pairs": "count", "_rows": "count",
         "_cols": "count", "_visited": "count", "_enumerated": "count",
         "_s": "s", "_ms": "ms"}


def traced_run(h: Harness, seconds, setup_repeats) -> tuple[dict, dict]:
    """Untraced and traced passes in turn, at least one of each."""
    import dressian.cli as cli

    h.setup(setup_repeats)
    h.run_pass(cli)  # warm-up
    plain, traced = [], []
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        assert_untraced()
        plain.append(h.run_pass(cli))
        tracer.install()
        try:
            traced.append(h.run_pass(cli, tracer))
        finally:
            tracer.uninstall()
        step = perf_counter() - start
        if perf_counter() + step > deadline:
            break
    assert_untraced()
    layer, notes = tracing.layer_metrics(tracer.spans, len(traced))
    layer["trace.overhead_share"] = pass_seconds(traced) / pass_seconds(plain) - 1
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "ratio")
        metrics[name] = (value, unit)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / f"{h.name}-seed{h.seed}.jsonl"
    tracer.write(trace_path)
    samples = {"passes": len(traced), "untraced_pass_s": [sum(p) for p in plain],
               "traced_pass_s": [sum(p) for p in traced], "spans": len(tracer.spans),
               "trace_file": str(trace_path.relative_to(ROOT)), **notes}
    return metrics, samples


def measure(name, seed, seconds, trace, min_samples=MIN_SAMPLES,
            setup_repeats=SETUP_REPEATS):
    """(harness, metrics, samples) of one run, inside a scratch directory
    that is removed afterwards."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        h = Harness(name, seed, workdir)
        if trace:
            metrics, samples = traced_run(h, seconds, setup_repeats)
        else:
            metrics, samples = timed_run(h, seconds, min_samples, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return h, metrics, samples


def use_checkout_sources() -> bool:
    """Import dressian from this checkout's src/, never from elsewhere."""
    if not (SRC / "dressian" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def environment(threads_removed: bool) -> dict:
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "dressian_threads_env": "unset",
        "dressian_threads_removed_from_caller": threads_removed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    head_file = ROOT / ".git" / "HEAD"
    if not head_file.is_file():
        return "unknown"
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"error: no dressian sources under {SRC}", file=sys.stderr)
        return 2
    threads_removed = os.environ.pop("DRESSIAN_THREADS", None) is not None
    try:
        h, metrics, samples = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(h.failures)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(threads_removed), "samples": samples,
        "fail_share": failed / h.attempted, "failures": h.failures[:20],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": h.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
