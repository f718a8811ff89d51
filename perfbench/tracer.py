"""Spans around the program's public functions, installed from outside.

The benchmark does not change the program to trace it: :func:`install`
replaces each public function listed in :data:`SPANS` with a wrapper that
opens a span, and :meth:`Installed.restore` puts the originals back.
Spans are aggregated in memory per name (calls, inclusive time, self
time), not kept one by one: the serving workloads make millions of
calls.

Self time is a span's duration minus the time covered by the spans it
caused, so the self times of all spans under one root add up to the
root's duration exactly.  A span opened directly inside a span of the
same name is folded into it (a ``super()`` chain, or ``submit_batch``
falling back to ``try_submit``): it is one call into the layer.  A span
re-entered further down (``sim.run`` -> ``core.write`` ->
``sim.push``, itself inside ``sim.run``) is a new span as usual.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> ``module:qualname`` targets.  A bare function is replaced
#: wherever a ``repro`` module has bound it by name; a method is replaced
#: on its class.
SPANS: Dict[str, Tuple[str, ...]] = {
    "serve.ingest": ("repro.serve.session:ServeSession.submit_batch",
                     "repro.serve.session:ServeSession.try_submit"),
    "serve.pump": ("repro.serve.session:ServeSession.pump",),
    "serve.close": ("repro.serve.session:ServeSession.close",),
    "serve.loadgen": ("repro.serve.loadgen:run_loadgen",),
    "sim.run": ("repro.sim.engine:Simulator.run",),
    "sim.push": tuple(
        f"repro.sim.engine:Simulator.{m}"
        for m in ("push_chain", "push_updown", "push_path", "push_multicast",
                  "send_leg", "send_chain")
    ),
    "core.read": ("repro.core.access_tree:AccessTreeStrategy.read",
                  "repro.core.fixed_home:FixedHomeStrategy.read",
                  "repro.core.adaptive:AdaptiveStrategy.read",
                  "repro.core.migratory:MigratoryStrategy.read"),
    "core.write": ("repro.core.access_tree:AccessTreeStrategy.write",
                   "repro.core.fixed_home:FixedHomeStrategy.write",
                   "repro.core.dynrep:DynRepStrategy.write",
                   "repro.core.migratory:MigratoryStrategy.write"),
    "core.build": ("repro.core.registry:get_strategy",),
    "network.build": ("repro.network.topology:make_topology",
                      "repro.network.topology:make_topology_nodes"),
    "network.stats_fold": tuple(
        f"repro.network.stats:LinkStats.{m}"
        for m in ("absorb_kernel", "merge_from", "merge_state", "snapshot")
    ),
    "runtime.run": ("repro.runtime.launcher:Runtime.run",),
    "workloads.run": ("repro.workloads.synthetic:SyntheticWorkload.run",),
    "metrics": ("repro.metrics:StreamingQuantiles.add_many",
                "repro.metrics:StreamingQuantiles.merge",
                "repro.metrics:StreamingQuantiles.quantile",
                "repro.metrics:MetricsBundle.from_run",
                "repro.metrics:latency_percentiles"),
}

#: Counters kept at span boundaries: target -> (counter, index of the
#: argument whose ``len`` is added per call).
COUNTERS: Dict[str, Tuple[str, int]] = {
    "repro.metrics:StreamingQuantiles.add_many": ("metrics.sketch_adds", 1),
}


class Tracer:
    """Per-name span aggregates over a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []   # [name, start, child_time]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def wrap(self, name: str, fn: Callable,
             count: Optional[Tuple[str, int]] = None) -> Callable:
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                counts[count[0]] += len(args[count[1]])
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return span

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span (the benchmark's own root spans)."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()


def _resolve(target: str):
    mod_name, qual = target.split(":")
    mod = importlib.import_module(mod_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(mod, cls_name), attr
    return mod, qual


class Installed:
    """The replaced attributes, so they can be put back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Installed:
    """Wrap every target in :data:`SPANS` with ``tracer``'s spans."""
    done = Installed()
    for name, targets in SPANS.items():
        for target in targets:
            owner, attr = _resolve(target)
            count = COUNTERS.get(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, count))
                else:
                    new = tracer.wrap(name, raw, count)
                done.replace(owner, attr, new)
                continue
            # A module-level function: replace every binding of it.
            orig = getattr(owner, attr)
            new = tracer.wrap(name, orig, count)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and mod.__dict__.get(attr) is orig:
                    done.replace(mod, attr, new)
    return done
