"""Tests of the benchmark's own code (not of the program).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_and_reentrant_spans():
    # sim.run [0, 10] -> core.write [2, 8] -> sim.push [3, 5]: the sim
    # layer is re-entered from inside core, itself inside sim.run.
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    tr.enter("sim.run")
    clock.now = 2.0
    tr.enter("core.write")
    clock.now = 3.0
    tr.enter("sim.push")
    clock.now = 5.0
    tr.exit()
    clock.now = 8.0
    tr.exit()
    clock.now = 10.0
    tr.exit()
    assert tr.self_time == {"sim.run": 4.0, "core.write": 4.0, "sim.push": 2.0}
    assert tr.total == {"sim.run": 10.0, "core.write": 6.0, "sim.push": 2.0}
    assert sum(tr.self_time.values()) == 10.0


def test_same_name_nesting_folds_but_reentry_through_another_layer_does_not():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def tick(dt):
        clock.now += dt

    base_read = tr.wrap("core.read", lambda: tick(1.0))

    def leaf_read():           # a subclass's read calling super().read
        tick(2.0)
        base_read()

    read = tr.wrap("core.read", leaf_read)
    entered = []

    def run():
        tick(1.0)
        read()
        tick(1.0)
        if not entered:        # sim.run -> core.write -> sim.run
            entered.append(True)
            write()

    run = tr.wrap("sim.run", run)

    def write():
        tick(1.0)
        run()

    write = tr.wrap("core.write", write)
    tr.call("bench.unit", run)
    assert dict(tr.calls) == {"core.read": 2, "sim.run": 2, "core.write": 1,
                              "bench.unit": 1}
    assert dict(tr.self_time) == {"core.read": 6.0, "sim.run": 4.0,
                                  "core.write": 1.0, "bench.unit": 0.0}
    assert sum(tr.self_time.values()) == tr.total["bench.unit"] == 11.0


def test_install_wraps_and_restore_puts_originals_back():
    from repro import metrics
    from repro.serve import loadgen, session

    before = (session.ServeSession.__dict__["pump"],
              metrics.MetricsBundle.__dict__["from_run"],
              loadgen.run_loadgen, session.latency_percentiles)
    tr = tracing.Tracer()
    installed = tracing.install(tr)
    try:
        assert session.ServeSession.pump is not before[0]
        assert session.latency_percentiles is not before[3]
        sk = metrics.StreamingQuantiles()
        sk.add_many([1.0, 2.0, 3.0])
        bundle = metrics.MetricsBundle.from_run(1, 1, 0, 0.0, sk, 0.0)
        assert bundle.hit_rate == 0.5
    finally:
        installed.restore()
    assert tr.counts["metrics.sketch_adds"] == 3
    assert tr.calls["metrics"] == 2            # add_many, from_run (quantile folded)
    after = (session.ServeSession.__dict__["pump"],
             metrics.MetricsBundle.__dict__["from_run"],
             loadgen.run_loadgen, session.latency_percentiles)
    assert after == before


def test_every_target_resolves():
    for targets in tracing.SPANS.values():
        for target in targets:
            owner, attr = tracing._resolve(target)
            assert attr in owner.__dict__, target


def test_names_are_valid_and_agree_with_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    names = list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in spec.END_TO_END)


def test_layer_reads_cover_the_per_layer_metrics():
    import worker

    computed = set(worker.LAYER_READS) | {
        "sim.msgs", "core.calls_per_op", "core.hit_rate", "metrics.sketch_adds",
        "trace.overhead_frac", "trace.unattributed_frac"}
    assert computed == {m.name for m in spec.PER_LAYER}
    assert {span for span, _ in worker.LAYER_READS.values()} <= set(tracing.SPANS)


def good_serve_row() -> dict:
    return {
        "engine": "ckern", "requests": 1000, "accepted": 1000, "rejected": 0,
        "sim_requests_per_sec": 4990.0, "total_msgs": 5000,
        "latency_p50": 0.001, "latency_p95": 0.002, "latency_p99": 0.003,
        "wall_p50": 0.1, "wall_p95": 0.2, "wall_p99": 0.3,
    }


def test_serve_checks_pass_a_good_report():
    assert checks.check_serve(good_serve_row(), offered=1000, rate=5000.0) == []


@pytest.mark.parametrize("doctor, reason", [
    (dict(engine="pure"), "C kernel"),
    (dict(accepted=990), "offered"),
    (dict(requests=999), "completed"),
    (dict(accepted=900, rejected=100, requests=900), "rejected"),
    (dict(sim_requests_per_sec=4000.0), "backlog"),
    (dict(latency_p95=0.0005), "percentiles out of order"),
    (dict(wall_p99=0.15), "percentiles out of order"),
    (dict(total_msgs=0), "no messages"),
])
def test_serve_checks_flag_a_doctored_report(doctor, reason):
    row = {**good_serve_row(), **doctor}
    bad = checks.check_serve(row, offered=1000, rate=5000.0)
    assert any(reason in b for b in bad), bad


def test_digest_sees_every_bit():
    row = {k: 1 for k in checks.DIGEST_KEYS}
    row["sim_time"] = 0.1 + 0.2
    other = {**row, "sim_time": 0.3}
    assert checks.digest([row]) == checks.digest([dict(row)])
    assert checks.digest([row]) != checks.digest([other])


def test_refuses_to_run_without_the_program(tmp_path):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_units_depend_on_seconds_only():
    w = spec.WORKLOADS["batch-scale"]
    assert w.units(15) == 2 and w.units(1) == 1
    seeds = [w.unit_seed(3, i) for i in range(w.units(60))]
    assert len(set(seeds)) == len(seeds)
