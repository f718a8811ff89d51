"""Benchmark harness plumbing.

Every benchmark regenerates one figure of the paper at the scale selected
by ``REPRO_SCALE`` (``default`` if unset; ``paper`` for the paper's exact
parameters -- slow in pure Python; ``quick`` for smoke runs), prints a
paper-vs-measured table, asserts the figure's *shape*, and records the
table under ``benchmarks/results/`` for EXPERIMENTS.md.  Figures run
through the experiment registry (:func:`repro.exp.run_experiment`), the
same path as ``python -m repro``, with one result cache per session.  When the caller
passes the rows, the JSON form is persisted next to the text table as
``<name>.<scale>.bench.json`` (same schema as ``python -m repro --json``,
which owns the plain ``<name>.<scale>.json`` stem) so
``benchmarks/results/`` doubles as the perf-trajectory source for
BENCH_*.json gating.
"""

from __future__ import annotations

import os
import pathlib
from typing import Mapping, Optional, Sequence

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(
    name: str,
    text: str,
    rows: Optional[Sequence[Mapping[str, object]]] = None,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Print a results table and persist it (text always, JSON when rows
    are given).  Non-serializable row fields (e.g. attached RunResults)
    are stripped by the emit layer; the rows themselves are not touched."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    scale = os.environ.get("REPRO_SCALE", "default")
    (RESULTS_DIR / f"{name}.{scale}.txt").write_text(text + "\n")
    if rows is not None:
        from repro.exp import field_union, result_payload, topology_union, write_json

        # Distinct .bench.json stem: the CLI's --json owns <name>.<scale>.json
        # (with resolved params), so the harness must not overwrite it.
        write_json(
            RESULTS_DIR / f"{name}.{scale}.bench.json",
            result_payload(name, scale, rows, columns or [],
                           workload=field_union(rows, "workload", None),
                           topology=topology_union(rows)),
        )


@pytest.fixture(scope="session")
def cells(tmp_path_factory):
    """One cell cache for the whole session: experiments that share cells
    compute each once (Figures 9 and 10 are phase views of the Figure 8
    runs, exactly as in the paper)."""
    from repro.exp import ResultCache

    return ResultCache(tmp_path_factory.mktemp("cells"))


def once(benchmark, fn):
    """Run a deterministic experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def experiment(benchmark, cells):
    """``experiment(name, **kw)``: run one registered experiment once
    under pytest-benchmark through the session cache (keyword arguments
    go to :func:`repro.exp.run_experiment`); returns the ExperimentRun."""
    from repro.exp import run_experiment

    return lambda name, **kw: once(
        benchmark, lambda: run_experiment(name, cache=cells, **kw)
    )


def paper_shapes() -> bool:
    """Whether the figure-*shape* assertions apply at the current scale.

    The paper's strategy orderings (congestion offsets, ratio growth) only
    separate once the runs are big enough; ``REPRO_SCALE=quick`` trades
    that separation for smoke-test speed, so quick runs assert basic
    sanity instead and the shape checks are reserved for ``default`` /
    ``paper``."""
    return os.environ.get("REPRO_SCALE", "default") != "quick"
