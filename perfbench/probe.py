"""A speed gauge: a small fixed pure-Python computation, timed every
`TICK_INTERVAL_S` of wall time while the benchmark measures.

The 2-core virtual machine the benchmark was written on shares its host.
In phases from under a second to minutes long, all Python code on it runs
up to twice as slow, in CPU time as well as wall time; no statistic over
one run's raw times removes the long phases.  So each timed sample is
scaled by the gauge's speed during that sample: its time divided by the
mean tick time inside it, times `TICK_REF_S`, is the sample in seconds at
reference speed.

The ticks run from a SIGALRM handler in the benchmark's main thread, so
they interrupt the in-process passes and time the very core the program is
running on.  Their own time is taken out of the in-process samples (see
`Ticker.clock`).  A fresh process of the program runs under
`run_module_with_ticks`, with ticks of its own, since it may run on the
other core.

The kernel does the kinds of work dressian spends its time on: exact
Fraction elimination, fraction-free integer elimination with gcds, and
frozenset, tuple and dict churn over k-subsets.  It imports nothing from
dressian, so a change to the program never changes the gauge.
"""

from __future__ import annotations

import gc
import json
import os
import random
import runpy
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from math import gcd
from time import perf_counter, thread_time

# About the tick's time on the 2-core VM the benchmark was written on
# (Python 3.11) in its fastest phases.  A fixed constant: it sets the scale of
# the scaled times, never their ratio between two commits.
TICK_REF_S = 0.002
TICK_INTERVAL_S = 0.1
FALLBACK_TICKS = 3  # a sample shorter than the interval uses the last few
TICK_FILE_ENV = "PERFBENCH_TICK_FILE"


def _fraction_rank(rnd: random.Random, rows: int, cols: int) -> int:
    m = [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in range(cols)]
         for _ in range(rows)]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _integer_rank(rnd: random.Random, rows: int, cols: int) -> int:
    m = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, rows):
            q = m[i][c]
            if q:
                row = [p * a - q * b for a, b in zip(m[i], m[rank])]
                g = 0
                for a in row:
                    g = gcd(g, a)
                m[i] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank


def _set_churn(n: int, r: int) -> int:
    counts = {}
    for b in combinations(range(n), r):
        fb = frozenset(b)
        for x in combinations(range(n), 2):
            k = tuple(sorted(fb.symmetric_difference(x)))
            counts[k] = counts.get(k, 0) + 1
    return len(counts)


def _kernel():
    rnd = random.Random(7)
    _fraction_rank(rnd, 6, 8)
    _integer_rank(rnd, 10, 12)
    _set_churn(7, 3)


def tick_once() -> float:
    """Seconds of this thread's CPU time taken by the fixed computation.

    It runs twice and the second run is timed: the first brings its code
    and data back into the caches the program has been using.  CPU time
    leaves out the time the thread waits for the interpreter lock while a
    program thread holds it (the census runs on a thread pool), and the
    cyclic garbage collector is off so that it never collects the
    program's heap inside a tick.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = thread_time()
        _kernel()
        return thread_time() - start
    finally:
        if gc_was_on:
            gc.enable()


class Ticker:
    """Times `tick_once` every `TICK_INTERVAL_S` of wall time while active
    (a context manager).  Only one may be active, in the main thread."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.busy = 0.0  # total wall time spent in ticks so far
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.durations.append(tick_once())
        self.starts.append(start)
        self.busy += perf_counter() - start

    def __enter__(self) -> Ticker:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() without the time spent in ticks: the clock for
        work done in this thread."""
        return perf_counter() - self.busy

    def tick_seconds(self, start, end) -> float:
        """Mean tick time over the ticks begun between two perf_counter()
        readings; the last few before `end` if there were none."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        if hi == lo:
            if hi == 0:  # no tick yet: take one now
                self._tick(None, None)
                hi = 1
            lo = max(0, hi - FALLBACK_TICKS)
        window = self.durations[lo:hi]
        return sum(window) / len(window)


def run_module_with_ticks(module: str) -> None:
    """`python -m <module>` with a Ticker running: the fresh-process run.
    On the way out, writes the tick count, the wall time spent in ticks and
    their mean time (null without ticks) as JSON to the file named by
    $PERFBENCH_TICK_FILE."""
    ticker = Ticker()
    try:
        with ticker:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        n = len(ticker.durations)
        with open(os.environ[TICK_FILE_ENV], "w") as f:
            json.dump({"ticks": n, "busy_s": ticker.busy,
                       "tick_s": sum(ticker.durations) / n if n else None}, f)
