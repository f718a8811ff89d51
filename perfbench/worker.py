"""One benchmark process: build the kernel, time set-up, or measure a run.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH`` and ``REPRO_CKERN_DIR`` inside the checkout::

    python3 perfbench/worker.py build
    python3 perfbench/worker.py setup --workload serve-read
    python3 perfbench/worker.py measure --workload serve-read --seed 1 \\
        --seconds 15 --trace 0

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before `import repro`

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402


def kernel_files() -> List[str]:
    return sorted(glob.glob(os.path.join(os.environ["REPRO_CKERN_DIR"], "ckern-*.so")))


def loaded_kernel() -> Optional[str]:
    """Path of the kernel shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if os.path.basename(path).startswith("ckern-") and path.endswith(".so"):
                    return path
    except OSError:
        pass
    return None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ------------------------------------------------------------------ build
def do_build() -> Dict[str, Any]:
    """Compile (or find) the kernel before anything is timed."""
    before = kernel_files()
    from repro.sim import _ckern

    ok = _ckern.load_kernel() is not None
    out: Dict[str, Any] = {"kernel": ok, "compiled": kernel_files() != before}
    so = loaded_kernel()
    if so:
        out["kernel_so"] = os.path.basename(so)
        out["kernel_sha"] = sha256_file(so)
    if not ok:
        # The loader swallows compiler errors; show them here.
        cc = os.environ.get("CC", "cc")
        try:
            res = subprocess.run([cc, "-fsyntax-only", "-x", "c", "-"],
                                 input=_ckern.CKERN_SOURCE, capture_output=True,
                                 text=True, timeout=120)
            out["error"] = res.stderr[:2000] or "kernel failed to load"
        except (OSError, subprocess.SubprocessError) as exc:
            out["error"] = f"cannot run {cc}: {exc}"
    return out


# ------------------------------------------------------------------ units
def make_topology(cfg: Dict[str, Any]):
    from repro.network import topology

    if "nodes" in cfg:
        return topology.make_topology_nodes(cfg["topology"], cfg["nodes"])
    return topology.make_topology(cfg["topology"], cfg["side"])


def do_setup(w: spec.Workload) -> Dict[str, Any]:
    """Import, load the kernel and build what one unit starts from."""
    from repro.core import registry
    from repro.sim import _ckern

    kernel = _ckern.load_kernel() is not None
    cfg = w.config
    topo = make_topology(cfg)
    if w.kind == "batch":
        for s in cfg["strategies"]:
            registry.get_strategy(s, topo, seed=0)
    else:
        from repro import serve
        from repro.serve.loadgen import access_sampler

        session = serve.ServeSession(topo, cfg["strategy"], seed=0,
                                     max_queue=cfg["max_queue"],
                                     max_inflight=cfg["max_inflight"])
        n_vars, payload, _ = access_sampler("zipf", cfg["params"])
        for vid in range(n_vars):
            session.create(vid % session.n_procs, payload)
    return {"setup_s": time.perf_counter() - T_START, "kernel": kernel}


def batch_unit(w: spec.Workload, seed: int) -> List[Dict[str, Any]]:
    """One round: every strategy of the workload once; a row per cell."""
    from repro.workloads.base import get_workload

    cfg = w.config
    wl = get_workload("zipf")
    rows = []
    for strat in cfg["strategies"]:
        t0 = time.perf_counter()
        topo = make_topology(cfg)
        res = wl.run(topo, strat, seed=seed, params=cfg["params"])
        wall = time.perf_counter() - t0
        row = {
            "strategy": strat,
            "wall": wall,
            "engine": "ckern" if res.extra["runtime"].sim._h is not None else "pure",
            "accesses": topo.n_nodes * cfg["params"]["ops"],
            "total_msgs": res.stats.total_msgs,
            "total_bytes": res.stats.total_bytes,
            "congestion_bytes": res.congestion_bytes,
            "congestion_msgs": res.congestion_msgs,
            "sim_time": res.time,
            "hits": res.hits,
            "misses": res.misses,
            "latency_p50": res.latency_p50,
            "latency_p95": res.latency_p95,
            "latency_p99": res.latency_p99,
        }
        row["failures"] = checks.check_cell(row)
        rows.append(row)
    return rows


def serve_unit(w: spec.Workload, seed: int) -> List[Dict[str, Any]]:
    """One served session of ``requests`` requests; one row."""
    from repro import serve

    cfg = w.config
    topo = make_topology(cfg)
    session = serve.ServeSession(topo, cfg["strategy"], seed=seed,
                                 max_queue=cfg["max_queue"],
                                 max_inflight=cfg["max_inflight"])
    t0 = time.perf_counter()
    report = serve.run_loadgen(
        session, workload="zipf", params=cfg["params"], arrival=cfg["arrival"],
        rate=cfg["rate"], requests=cfg["requests"], seed=seed, chunk=cfg["chunk"],
    )
    wall = time.perf_counter() - t0
    keys = ("engine", "requests", "accepted", "rejected", "sim_requests_per_sec",
            "latency_p50", "latency_p95", "latency_p99", "wall_p50", "wall_p95",
            "wall_p99", "total_msgs", "total_bytes", "congestion_bytes",
            "congestion_msgs", "sim_time", "hits", "misses")
    d = report.as_dict()
    row = {k: d[k] for k in keys}
    row.update(wall=wall, accesses=report.requests, offered=cfg["requests"])
    row["failures"] = checks.check_serve(row, cfg["requests"], cfg["rate"])
    return [row]


def run_unit(w: spec.Workload, seed: int) -> Dict[str, Any]:
    """Run one unit; its wall time covers everything it builds."""
    fn = batch_unit if w.kind == "batch" else serve_unit
    t0 = time.perf_counter()
    try:
        rows = fn(w, seed)
        error = None
    except Exception:  # a crashing unit is a failed unit, not a crashed run
        rows, error = [], traceback.format_exc(limit=4)
    return {"seed": seed, "wall": time.perf_counter() - t0, "rows": rows,
            "error": error, "digest": checks.digest(rows) if rows else None}


def unit_failed(u: Dict[str, Any]) -> bool:
    return u["error"] is not None or any(r["failures"] for r in u["rows"])


# ---------------------------------------------------------------- metrics
def end_to_end(w: spec.Workload, units: List[Dict[str, Any]]) -> Dict[str, float]:
    rows = [r for u in units for r in u["rows"]]
    if w.kind == "batch":
        import numpy as np

        per_unit = [(len(u["rows"]), sum(r["accesses"] for r in u["rows"]),
                     sum(r["wall"] for r in u["rows"])) for u in units]
        wall_p50, wall_p99 = (float(q) for q in np.quantile(
            [r["wall"] for r in rows], [0.5, 0.99]))
    else:
        per_unit = [(1, u["rows"][0]["requests"], u["rows"][0]["wall"])
                    for u in units]
        wall_p50 = statistics.median(r["wall_p50"] for r in rows)
        wall_p99 = statistics.median(r["wall_p99"] for r in rows)
    return {
        "cells_per_s": statistics.median(c / t for c, _, t in per_unit),
        "requests_per_s": statistics.median(a / t for _, a, t in per_unit),
        "wall_p50_ms": wall_p50 * 1e3,
        "wall_p99_ms": wall_p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_time_s": sum(r["sim_time"] for r in rows),
        "congestion_mb": sum(r["congestion_bytes"] for r in rows) / 1e6,
        "sim_p99_ms": statistics.fmean(r["latency_p99"] for r in rows) * 1e3,
    }


#: per-layer metric -> (span, aggregate) read off the tracer.
LAYER_READS = {
    "serve.ingest_s": ("serve.ingest", "self_time"),
    "serve.pump_self_s": ("serve.pump", "self_time"),
    "serve.pump_calls": ("serve.pump", "calls"),
    "serve.close_self_s": ("serve.close", "self_time"),
    "serve.loadgen_self_s": ("serve.loadgen", "self_time"),
    "sim.run_self_s": ("sim.run", "self_time"),
    "sim.run_calls": ("sim.run", "calls"),
    "sim.push_self_s": ("sim.push", "self_time"),
    "sim.push_calls": ("sim.push", "calls"),
    "core.read_self_s": ("core.read", "self_time"),
    "core.read_calls": ("core.read", "calls"),
    "core.write_self_s": ("core.write", "self_time"),
    "core.write_calls": ("core.write", "calls"),
    "core.build_s": ("core.build", "self_time"),
    "network.build_s": ("network.build", "self_time"),
    "network.stats_fold_s": ("network.stats_fold", "self_time"),
    "network.stats_fold_calls": ("network.stats_fold", "calls"),
    "runtime.self_s": ("runtime.run", "self_time"),
    "workloads.run_s": ("workloads.run", "total"),
    "metrics.self_s": ("metrics", "self_time"),
}

ROOT = "bench.unit"


def per_layer(tr: tracing.Tracer, traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    rows = [r for u in traced for r in u["rows"]]
    out: Dict[str, float] = {
        m: float(getattr(tr, agg).get(span, 0)) for m, (span, agg) in LAYER_READS.items()
    }
    ops = sum(r["accesses"] for r in rows)
    hits = sum(r["hits"] for r in rows)
    misses = sum(r["misses"] for r in rows)
    wall = sum(u["wall"] for u in traced)
    out.update({
        "sim.msgs": float(sum(r["total_msgs"] for r in rows)),
        "core.calls_per_op": (out["core.read_calls"] + out["core.write_calls"]) / ops,
        "core.hit_rate": hits / (hits + misses),
        "metrics.sketch_adds": float(tr.counts.get("metrics.sketch_adds", 0)),
        "trace.overhead_frac": wall / sum(u["wall"] for u in untraced) - 1.0,
        "trace.unattributed_frac": tr.self_time[ROOT] / wall,
    })
    return out


def time_table(tr: tracing.Tracer, wall: float) -> List[List[Any]]:
    """Rows of "where the time goes": span, calls, self s, share of wall."""
    names = sorted(tr.self_time, key=lambda n: -tr.self_time[n])
    return [[n, tr.calls[n], tr.self_time[n], tr.self_time[n] / wall] for n in names]


# ---------------------------------------------------------------- measure
def do_measure(w: spec.Workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.sim import _ckern

    before = kernel_files()
    kernel = _ckern.load_kernel() is not None
    so = loaded_kernel()
    record: Dict[str, Any] = {
        "kernel_loaded": kernel,
        "kernel_so": os.path.basename(so) if so else None,
        "kernel_sha": sha256_file(so) if so else None,
        "kernel_compiled_in_run": kernel_files() != before,
    }
    seeds = [w.unit_seed(seed, i) for i in range(w.units(seconds))]
    run_failures: List[str] = []
    warm = [run_unit(w, seeds[0]) for _ in range(w.warmup)]
    untraced = [run_unit(w, s) for s in seeds]
    units = warm + untraced
    for u in warm:
        if u["digest"] != untraced[0]["digest"]:
            run_failures.append("warm-up and first unit differ on the same seed")
    result: Dict[str, Any] = {"record": record}
    if trace:
        tr = tracing.Tracer()
        installed = tracing.install(tr)
        try:
            traced = []
            for s in seeds:
                t0 = time.perf_counter()
                u = tr.call(ROOT, run_unit, w, s)
                u["wall"] = time.perf_counter() - t0
                traced.append(u)
        finally:
            installed.restore()
        units += traced
        for a, b in zip(untraced, traced):
            if a["digest"] != b["digest"]:
                run_failures.append(f"traced digest differs on seed {a['seed']}")
        wall = sum(u["wall"] for u in traced)
        covered = sum(tr.self_time.values())
        if abs(covered - wall) > 0.01 * wall:
            run_failures.append(f"self times cover {covered:.3f} s of {wall:.3f} s")
        if not any(unit_failed(u) for u in traced):
            result["per_layer"] = per_layer(tr, traced, untraced)
        result["table"] = time_table(tr, wall)
        result["traced_wall_s"] = wall
    elif not any(unit_failed(u) for u in untraced):
        result["end_to_end"] = end_to_end(w, untraced)
    result["digest"] = checks.digest([r for u in untraced for r in u["rows"]])
    result["units"] = len(seeds)
    result["run_failures"] = run_failures
    result["unit_failures"] = [
        {"seed": u["seed"], "error": u["error"],
         "checks": [f for r in u["rows"] for f in r["failures"]]}
        for u in units if unit_failed(u)
    ]
    result["attempted"] = w.items_per_unit * len(units)
    if w.kind == "batch":
        result["failed"] = sum(
            w.items_per_unit if u["error"] else
            sum(1 for r in u["rows"] if r["failures"]) for u in units)
    else:
        result["failed"] = w.items_per_unit * sum(unit_failed(u) for u in units)
    # Samples behind each wall-latency value: every cell, or one session.
    result["latency_samples"] = w.items_per_unit * (
        len(untraced) if w.kind == "batch" else 1)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("build", "setup", "measure"))
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "build":
        out = do_build()
    elif args.mode == "setup":
        out = do_setup(spec.WORKLOADS[args.workload])
    else:
        out = do_measure(spec.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
