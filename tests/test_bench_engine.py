"""The engine benchmarks label each result with the engine that ran.

The bench script is not part of the installed package, so it is loaded
from its file path, like CI runs it.
"""

import importlib.util
import pathlib

from repro.sim import _ckern

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_engine_perf.py"

spec = importlib.util.spec_from_file_location("bench_engine_perf", BENCH)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_kernel_that_failed_to_load_is_labelled_pure(monkeypatch):
    """No ``REPRO_PURE_PYTHON``, but no kernel either: the run used the
    pure engine and must not be recorded (and gated) as ``"c"``."""
    monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
    monkeypatch.setattr(_ckern, "load_kernel", lambda: None)
    assert bench.engine_name() == "pure"


def test_loaded_kernel_is_labelled_c(ckernel):
    assert bench.engine_name() == "c"
