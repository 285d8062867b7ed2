"""The benchmark's tracer (`perfbench/tracing.py`) against the current
sources: every span it declares must resolve to a function or method of
dressian, and removing the wrappers must leave none behind.  A renamed
target fails here in seconds rather than in the benchmark's smoke run."""

import importlib.util
from pathlib import Path

import dressian.cli  # noqa: F401  (the tracer wraps cli.run too)
from dressian import Matroid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_and_uninstalls():
    tracing = _load_tracing()
    assert tracing.wrappers_installed() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = set(tracing.wrappers_installed())
        for module, attr, _name, _counts in tracing.SPANS:
            assert f"dressian.{module}.{attr}" in installed, (module, attr)
        # a build goes through the wrapped validating method
        Matroid(4, 2, [(0, 1), (0, 2), (1, 2)])
    finally:
        tracer.uninstall()
    assert tracing.wrappers_installed() == []
    builds = [span for span in tracer.spans if span[3] == "matroid.build"]
    assert len(builds) == 1 and builds[0][6] == {"pairs": 9}
