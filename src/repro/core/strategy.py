"""Data-management strategy interface and factory.

A strategy decides, for every read and write of a global variable, which
messages flow where (and therefore what congestion arises), and it provides
the lock service for its variables.  The two families from the paper:

* the **access tree strategy** (:mod:`repro.core.access_tree`) in all its
  arity/embedding variants, and
* the **fixed home strategy** (:mod:`repro.core.fixed_home`),

plus the post-paper families (:mod:`repro.core.migratory`,
:mod:`repro.core.dynrep`).  All of them register with the strategy
registry (:mod:`repro.core.registry`), which resolves the parameterized
spec strings (``"4-ary"``, ``"tree:4-8:embed=random"``,
``"dynrep:threshold=3"``) every surface accepts through
:func:`repro.core.registry.get_strategy`; :data:`STRATEGY_NAMES` is a
live view derived from that registry.

Hand-optimized message-passing programs bypass data management entirely and
run under :class:`NullStrategy`.

Strategies are attached to a :class:`repro.runtime.launcher.Runtime` before
the run; reads/writes return *completion times* in virtual seconds, having
recorded their traffic in the simulator (atomic-at-initiation discipline,
see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, Tuple

from ..runtime.variables import GlobalVariable
from .registry import _DerivedNames
from .residency import ResidencyStore

__all__ = [
    "DataManagementStrategy",
    "NullStrategy",
    "next_live_node",
    "STRATEGY_NAMES",
]


def next_live_node(start: int, n_nodes: int, down: FrozenSet[int]) -> int:
    """First live processor scanning ``start+1, start+2, ... (mod n)``.

    The deterministic re-homing rule every repair hook shares: where a
    dead node held a directory/home/copy, responsibility moves to the
    next live node in processor order.  Raises when every node is down
    (schedules built by :mod:`repro.network.failures` always leave a
    survivor)."""
    for k in range(1, n_nodes + 1):
        cand = (start + k) % n_nodes
        if cand not in down:
            return cand
    raise RuntimeError("no live node remains in the topology")

GrantCallback = Callable[[float], None]


class DataManagementStrategy:
    """Abstract base: the runtime calls these entry points."""

    #: Human-readable name used in result tables.
    name: str = "abstract"

    #: Cache counters, guaranteed on every strategy (reads served from a
    #: local copy vs reads that needed communication); :meth:`attach`
    #: re-zeros them per run, and the launcher reads them directly.
    hits: int = 0
    misses: int = 0

    #: The replica state of every variable (:mod:`repro.core.residency`),
    #: created per run by :meth:`attach`.
    res: ResidencyStore

    def n_sites(self) -> int:
        """Sites a copy can live on (a residency-store row's width);
        0 for strategies without copies."""
        return 0

    def attach(self, runtime) -> None:
        """Bind to a runtime (simulator, registry, memory book)."""
        self.runtime = runtime
        self.sim = runtime.sim
        self.registry = runtime.registry
        self.memory = runtime.memory
        self.hits = 0
        self.misses = 0
        self.res = ResidencyStore(self.n_sites())
        #: Per-variable compiled leg cost shapes (:meth:`_compile_legs`).
        self._leg_costs: Dict[int, Tuple[float, ...]] = {}

    def _compile_legs(self, var: GlobalVariable) -> None:
        """Resolve ``var``'s leg cost shapes once, at registration, for
        the engine's inline chain events: requests are control messages,
        replies carry the value -- ``(cwire, cover, cocc, dwire, dover,
        docc)``."""
        sim = self.sim
        cwire = sim._ctrl_bytes
        dwire = var.payload_bytes + sim._header_bytes
        self._leg_costs[var.vid] = (
            cwire, sim._nic_fixed + cwire * sim._nic_byte, cwire / sim._bandwidth,
            dwire, sim._nic_fixed + dwire * sim._nic_byte, dwire / sim._bandwidth,
        )

    def register(self, var: GlobalVariable) -> None:
        """A variable was created; place its initial sole copy."""
        raise NotImplementedError

    def read(self, proc: int, var: GlobalVariable, t: float) -> Tuple[float, Any]:
        """Serve a read issued by ``proc`` at time ``t``; returns
        ``(completion_time, value)``."""
        raise NotImplementedError

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> float:
        """Serve a write; returns its completion time."""
        raise NotImplementedError

    def lock(self, proc: int, var: GlobalVariable, t: float, grant: GrantCallback) -> None:
        raise NotImplementedError

    def unlock(self, proc: int, var: GlobalVariable, t: float) -> float:
        raise NotImplementedError

    @property
    def lock_acquisitions(self) -> int:
        return 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------- storage cost
    # Replica-bytes x time accounting (schema v7's ``storage_cost``, see
    # repro.metrics).  Strategies that replicate call _storage_delta at
    # every event that adds or removes a copy *beyond the authoritative
    # one* -- +payload when a copy materializes, -payload when one is
    # dropped/invalidated/evicted -- stamped at the event's initiation
    # time, which both engines agree on.  Single-copy strategies never
    # call it and report exactly 0.0.  The accumulator is the store's
    # ``storage`` triple (integral, last, excess); the kernel's native
    # tree read miss advances the same one.

    def _storage_delta(self, delta: float, t: float) -> None:
        """Excess replica bytes changed by ``delta`` at virtual time ``t``."""
        sc = self.res.storage
        last = sc[1]
        excess = sc[2]
        if t > last:
            sc[0] += excess * (t - last)
            sc[1] = t
        sc[2] = excess + delta

    def storage_cost(self, t_end: float) -> float:
        """The integral up to ``t_end`` (replica-bytes x seconds)."""
        integral, last, excess = self.res.storage
        tail = excess * (t_end - last) if t_end > last else 0.0
        return integral + tail

    def reset_storage(self, at: float) -> None:
        """Restart the integral at time ``at`` (measurement reset: the
        copies currently held keep accruing from here)."""
        sc = self.res.storage
        sc[0] = 0.0
        sc[1] = at

    # ---------------------------------------------------------- repair
    # Failure-axis hooks (see repro.network.failures): the runtime calls
    # these right after applying a node_down / node_up topology delta.
    # A strategy repairs its metadata and copies so that subsequent
    # requests resolve to live nodes; it returns the vids it repaired
    # (the launcher counts them in `repairs` and flags the next request
    # touching each as retried).  The base implementation is a no-op:
    # strategies without per-node state (NullStrategy) need none.

    def on_node_down(
        self, proc: int, t: float, down: FrozenSet[int] = frozenset()
    ) -> Iterable[int]:
        """``proc`` fail-stopped at virtual time ``t`` (``down`` is the
        full current down set).  Returns repaired vids."""
        return ()

    def on_node_up(
        self, proc: int, t: float, down: FrozenSet[int] = frozenset()
    ) -> Iterable[int]:
        """``proc`` came back at ``t``.  State lost at death stays
        repaired (fail-stop: a revived node returns empty); returns
        repaired vids."""
        return ()


class NullStrategy(DataManagementStrategy):
    """No shared data management: for pure message-passing programs
    (the paper's hand-optimized baselines)."""

    name = "handopt"

    def register(self, var: GlobalVariable) -> None:
        raise RuntimeError("NullStrategy programs must not create global variables")

    def read(self, proc, var, t):
        raise RuntimeError("NullStrategy programs must not read global variables")

    def write(self, proc, var, value, t):
        raise RuntimeError("NullStrategy programs must not write global variables")

    def lock(self, proc, var, t, grant):
        raise RuntimeError("NullStrategy programs must not lock global variables")

    def unlock(self, proc, var, t):
        raise RuntimeError("NullStrategy programs must not unlock global variables")


#: Strategy names accepted by the spec parser (and therefore by
#: :func:`repro.core.registry.get_strategy`).  A live view **derived from
#: the registry** -- registering a strategy family extends it; there is
#: no frozen tuple to keep in sync.
STRATEGY_NAMES = _DerivedNames()
