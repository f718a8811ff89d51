"""What the benchmark runs and what it reports: workloads and metric names.

This module is the one place workload configurations and metric names
are defined; ``BENCHMARK.json`` at the repository root must agree with
it (``test_perfbench.py`` checks that).  It imports nothing from the
program, so ``run.py`` can read it in any directory.

Every workload is sized in *units*: one unit is one timed piece of work
(a round of batch cells, or one ``run_loadgen`` call).  A run of
``--seconds S`` measures ``units(S)`` units, each with its own seed
derived from the run's ``--seed``, so the simulated results of a run are
a pure function of ``(workload, seed, S)`` and never of host speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: Strategy families of batch-zipf: all five, so that a change to one
#: family's replica bookkeeping shows on this workload.
FAMILIES: Tuple[str, ...] = (
    "4-ary", "fixed-home", "dynrep:threshold=2", "adaptive", "migratory",
)

#: Seed held out from tuning: a later gain claim must also hold on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "batch" or "serve"
    #: Nominal seconds per unit on the reference box (2-core x86,
    #: CPython 3.11, C kernel); sizes the unit count from --seconds.
    unit_s: float
    #: Untimed units run first (same seed as the first timed unit, so
    #: their digests must match: a determinism check for free).
    warmup: int
    config: Dict[str, Any] = field(default_factory=dict)

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def unit_seed(self, seed: int, i: int) -> int:
        return seed * 1000 + i

    @property
    def items_per_unit(self) -> int:
        """What ``attempted`` counts per unit: cells, or offered requests."""
        if self.kind == "batch":
            return len(self.config["strategies"])
        return self.config["requests"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "batch-zipf", "batch", unit_s=0.6, warmup=1,
            config=dict(topology="mesh", side=8, strategies=FAMILIES,
                        params=dict(n_vars=64, ops=128, alpha=0.8,
                                    read_frac=0.9)),
        ),
        Workload(
            # The scale-smoke cell; a unit is one 9 s cell, so no warm-up.
            "batch-scale", "batch", unit_s=9.0, warmup=0,
            config=dict(topology="mesh", nodes=1 << 14, strategies=("2-4-ary",),
                        params=dict(n_vars=256, ops=4, alpha=0.8,
                                    read_frac=0.9)),
        ),
        Workload(
            "serve-read", "serve", unit_s=1.4, warmup=1,
            config=dict(topology="mesh", side=8, strategy="4-ary",
                        params=dict(n_vars=512, alpha=0.9, read_frac=0.9,
                                    payload=256),
                        arrival="poisson", rate=9000.0, requests=100_000,
                        chunk=8192, max_queue=65536, max_inflight=8192),
        ),
        Workload(
            "serve-write", "serve", unit_s=1.8, warmup=1,
            config=dict(topology="mesh", side=8, strategy="4-ary",
                        params=dict(n_vars=512, alpha=0.9, read_frac=0.5,
                                    payload=256),
                        arrival="poisson", rate=5000.0, requests=50_000,
                        chunk=8192, max_queue=65536, max_inflight=8192),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" or "higher"
    bound: float = 0.0   # end-to-end only: allowed worsening, share of median


#: Reported with --trace 0 on every workload.  A batch "cell" is one
#: workload run; a served "cell" is one ``run_loadgen`` session.  Batch
#: "requests" are processor accesses; batch wall latency is host time per
#: cell.  sim_* and congestion_mb are simulated and deterministic: a pure
#: speed change must leave them bit-identical.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cells_per_s", "1/s", "higher", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("wall_p50_ms", "ms", "lower", 0.25),
    Metric("wall_p99_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("sim_time_s", "s", "lower", 0.25),
    Metric("congestion_mb", "MB", "lower", 0.25),
    Metric("sim_p99_ms", "ms", "lower", 0.25),
)

#: Reported with --trace 1, summed over the traced units.  A layer a
#: workload bypasses reads 0.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("serve.ingest_s", "s", "lower"),
    Metric("serve.pump_self_s", "s", "lower"),
    Metric("serve.pump_calls", "count", "lower"),
    Metric("serve.close_self_s", "s", "lower"),
    Metric("serve.loadgen_self_s", "s", "lower"),
    Metric("sim.run_self_s", "s", "lower"),
    Metric("sim.run_calls", "count", "lower"),
    Metric("sim.push_self_s", "s", "lower"),
    Metric("sim.push_calls", "count", "lower"),
    Metric("sim.msgs", "count", "lower"),
    Metric("core.read_self_s", "s", "lower"),
    Metric("core.read_calls", "count", "lower"),
    Metric("core.write_self_s", "s", "lower"),
    Metric("core.write_calls", "count", "lower"),
    Metric("core.calls_per_op", "ratio", "lower"),
    Metric("core.hit_rate", "ratio", "higher"),
    Metric("core.build_s", "s", "lower"),
    Metric("network.build_s", "s", "lower"),
    Metric("network.stats_fold_s", "s", "lower"),
    Metric("network.stats_fold_calls", "count", "lower"),
    Metric("runtime.self_s", "s", "lower"),
    Metric("workloads.run_s", "s", "lower"),
    Metric("metrics.self_s", "s", "lower"),
    Metric("metrics.sketch_adds", "count", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.unattributed_frac", "ratio", "lower"),
)
