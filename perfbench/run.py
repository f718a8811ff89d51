#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-zipf --seed 1 --seconds 15 --trace 0

Steps, each in its own process so that set-up is timed from a cold
interpreter and peak RSS belongs to one workload:

1. build: compile the C kernel into ``.bench_build/ckern`` (untimed);
2. set-up: ``SETUP_PROBES`` fresh processes each import ``repro``, load
   the kernel and build the workload's topology and strategies (and
   session); ``setup_s`` is their median (``--trace 0`` only);
3. measure: one process runs the workload's units and checks them.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``).  A run
that fails a check, or ran without the C kernel, reports no metrics and
exits 1.  Every run is appended to ``.bench_build/results.jsonl``, keyed
by source digest, workload and full configuration; the file is never
rewritten.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

BUILD_DIR = pathlib.Path(".bench_build")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the program's sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not pathlib.Path(".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def child(args: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run ``worker.py`` with ``args``; its last stdout line is JSON."""
    res = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                         capture_output=True, text=True, env=env,
                         timeout=CHILD_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {res.returncode}: "
                           f"{res.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def print_table(table: List[List[Any]], wall: float) -> None:
    print(f"where the time goes (traced units, {wall:.3f} s wall):")
    print(f"  {'span':<20} {'calls':>10} {'self s':>10} {'share':>7}")
    for name, calls, self_s, share in table:
        print(f"  {name:<20} {calls:>10} {self_s:>10.4f} {share:>7.1%}")
    total = sum(row[2] for row in table)
    print(f"  {'sum of self times':<20} {'':>10} {total:>10.4f} {total / wall:>7.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    src = pathlib.Path("src")
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    w = spec.WORKLOADS[args.workload]
    BUILD_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src.resolve()), env.get("PYTHONPATH")) if p)
    env["REPRO_CKERN_DIR"] = str((BUILD_DIR / "ckern").resolve())
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp.resolve())

    record: Dict[str, Any] = {
        "commit": git_commit(),
        "source_sha": source_digest(src),
        "workload": w.name,
        "config": w.config,
        "seed": args.seed,
        "held_out_seed": spec.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    build = child(["build"], env)
    record["build"] = build
    if not build["kernel"]:
        # Nothing is measured on the pure-Python engine: every unit the
        # run would have measured on the C kernel counts as failed.
        print(f"perfbench: the C kernel did not build or load:\n{build.get('error')}",
              file=sys.stderr)
        attempted = w.units(args.seconds) * w.items_per_unit
        return finish(record, ["C kernel not loaded"],
                      {"correct": False, "attempted": attempted,
                       "failed": attempted, "metrics": {}})
    setups: List[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(child(["setup", "--workload", w.name], env)["setup_s"])
    out = child(["measure", "--workload", w.name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)], env)
    record.update(out["record"], digest=out["digest"], units=out["units"])

    failures = list(out["run_failures"])
    if not out["record"]["kernel_loaded"]:
        failures.append("C kernel not loaded")
    for f in out["unit_failures"]:
        failures.append(f"seed {f['seed']}: {f['error'] or '; '.join(f['checks'])}")
    correct = not failures and out["failed"] == 0
    metrics: Dict[str, Dict[str, Any]] = {}
    if correct:
        values = out["per_layer"] if args.trace else out["end_to_end"]
        if not args.trace:
            values["setup_s"] = statistics.median(setups)
        names = spec.PER_LAYER if args.trace else spec.END_TO_END
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in names}

    print(f"perfbench {w.name}: seed {args.seed}, {out['units']} units, "
          f"digest {out['digest']}, source {record['source_sha']}, "
          f"kernel {record['kernel_sha']} (compiled in run: "
          f"{record['kernel_compiled_in_run']}), nproc {record['nproc']}, "
          f"python {record['python']}")
    if args.trace and "table" in out:
        print_table(out["table"], out["traced_wall_s"])
    elif not args.trace:
        print(f"  setup probes (s): {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"  wall latency samples per value: {out['latency_samples']}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>16.6f} {m['unit']}")
    return finish(record, failures, {
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"] if correct else max(out["failed"], 1),
        "metrics": metrics})


def finish(record: Dict[str, Any], failures: List[str], result: Dict[str, Any]) -> int:
    """Print the failures and the result line; append the run to the log."""
    for f in failures:
        print(f"  FAILED: {f}")
    with open(BUILD_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**record, "failures": failures, **result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    raise SystemExit(main())
