"""The fixed home strategy (the paper's CC-NUMA-like baseline).

Each global variable is assigned a *home* processor chosen uniformly at
random; the home keeps track of the variable's copies using the classical
**ownership scheme**:

* at any time either some processor or the home ("main memory") is the
  owner;
* a **write** by a non-owner invalidates all existing copies (the home
  sends one invalidation per copy holder and collects acknowledgements)
  and makes the writer the owner holding the sole copy; writes by the
  owner are free;
* a **read** by a processor without a valid copy asks the home; if a
  processor owns the variable, the home first fetches the value (moving
  ownership back to the home, the previous owner keeping a non-owner
  copy), then answers with a data message.

If every write is preceded by a read of the same processor -- true for all
three applications -- this behaves like a P-ary access tree, which is why
the paper considers it the right baseline.

Locks are served by a FIFO queue at the variable's home.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Set, Tuple

from ..network.topology import Topology
from ..runtime.locks import HomeLock
from ..runtime.variables import GlobalVariable
from ..sim.flows import chain, multicast_acks
from .strategy import DataManagementStrategy, GrantCallback, next_live_node

__all__ = ["FixedHomeStrategy"]

#: Owner sentinel: the home/main-memory is the owner.
HOME = -1


class FixedHomeStrategy(DataManagementStrategy):
    """Fixed home + ownership scheme.

    The copy set and the owner of every variable live in the residency
    store (:attr:`res`, sites = processors); the strategy itself keeps
    only each variable's home."""

    name = "fixed-home"

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.mesh = topology  # historic alias
        self.seed = seed
        self.write_local = 0
        self.write_remote = 0

    def n_sites(self) -> int:
        return self.topology.n_nodes

    def attach(self, runtime) -> None:
        super().attach(runtime)
        self._home: List[int] = []
        self._locks = HomeLock(self.sim, self.home_of)
        # LRU bookkeeping is only needed under bounded memory.
        self._track_mem = self.memory.capacity is not None

    # ----------------------------------------------------------- inspection
    def home_of(self, vid: int) -> int:
        return self._home[vid]

    def copy_procs(self, var: GlobalVariable) -> Set[int]:
        return set(self.res.members(var.vid))

    def owner_of(self, var: GlobalVariable) -> int:
        """Current owner processor, or ``HOME`` (-1)."""
        return self.res.owner[var.vid]

    @property
    def lock_acquisitions(self) -> int:
        return self._locks.acquisitions

    # ------------------------------------------------------------- plumbing
    def _mem_insert(self, var: GlobalVariable, proc: int, t: float) -> None:
        if not self._track_mem:
            return
        mem = self.memory[proc]
        res = self.res
        homes = self._home

        def evictable(vid2) -> bool:
            owner = res.owner[vid2]
            if owner == proc:
                return False  # the owner's copy is authoritative
            if owner == HOME and proc == homes[vid2]:
                return False  # ditto for the home's copy
            return True

        def on_evict(vid2) -> None:
            if res.discard(vid2, proc):
                self._storage_delta(-self.registry.by_id(vid2).payload_bytes, t)
            # Dropping a cached copy must be announced to the home, which
            # tracks all copies for invalidation.
            self.sim.send_leg(proc, homes[vid2], 0, t, is_data=False)

        mem.insert(var.vid, var.payload_bytes, evictable, on_evict)

    # ------------------------------------------------------------------ API
    def register(self, var: GlobalVariable) -> None:
        rng = random.Random((self.seed * 1000003 + var.vid) ^ 0x5EED)
        self._home.append(rng.randrange(self.topology.n_nodes))
        # The creator initialized the variable: it holds the sole copy and
        # the ownership, exactly as after a write (matching the paper's
        # matrix-multiplication initial configuration).
        self.res.add(var.vid, var.creator, var.creator)
        self._compile_legs(var)
        if self._track_mem:
            self._mem_insert(var, var.creator, 0.0)

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Serve a read.  Returns ``(t, value)`` for a local hit; otherwise
        launches the home round-trip flow and returns ``None``."""
        if self.res.has(var.vid, proc):
            self.hits += 1
            if self._track_mem:
                mem = self.memory[proc]
                if var.vid in mem:
                    mem.touch(var.vid)
            return t, self.registry.get(var)
        self.misses += 1
        self._read_miss_flow(proc, var, t, replicate=self._read_replicates(proc, var))
        return None

    def _read_replicates(self, proc: int, var: GlobalVariable) -> bool:
        """Whether this read miss leaves a copy at the reader: always for
        the fixed home scheme; :class:`~repro.core.dynrep.DynRepStrategy`
        overrides *only* this decision, inheriting hit path and miss flow,
        so the two protocols can never drift apart."""
        return True

    def _read_miss_flow(
        self, proc: int, var: GlobalVariable, t: float, replicate: bool
    ) -> None:
        """The home round-trip of a read miss: request up ``proc -> home
        [-> owner]`` as control messages, the value back down as data
        (both read flows compile to the engine's up/down chain form).
        """
        payload = var.payload_bytes
        vid = var.vid
        res = self.res
        home = self._home[vid]
        hosts: List[int] = [proc, home]
        owner = res.owner[vid]
        if owner != HOME:
            # The home first fetches the value from the current owner,
            # moving the ownership back to the main memory.
            hosts.append(owner)
            res.owner[vid] = HOME
            if res.insert(vid, home):
                self._storage_delta(payload, t)
            self._mem_insert(var, home, t)
        if replicate:
            res.insert(vid, proc)  # proc may be the home just filled
            self._storage_delta(payload, t)
            self._mem_insert(var, proc, t)
        value = self.registry.get(var)
        cwire, cover, cocc, dwire, dover, docc = self._leg_costs[vid]
        self.sim.push_updown(
            t, hosts, cwire, cover, cocc, dwire, dover, docc,
            resume_event=self.runtime.resume_event(proc, value),
        )

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Serve a write.  Owner writes are free; otherwise the home
        invalidates all copies (serializing at its NIC -- the hotspot the
        paper attributes to this strategy), collects acknowledgements and
        grants ownership to the writer."""
        vid = var.vid
        res = self.res
        if res.owner[vid] == proc:
            self.write_local += 1
            self.registry.set(var, value)
            if self._track_mem:
                mem = self.memory[proc]
                if var.vid in mem:
                    mem.touch(var.vid)
            return t
        self.write_remote += 1
        home = self._home[vid]
        holders = res.members(vid)
        if proc in holders:
            holders.remove(proc)
        # --- state update (atomic at initiation) ---
        if self._track_mem:
            for q in holders:
                mem = self.memory[q]
                if vid in mem:
                    mem.remove(vid)
        self._storage_delta((1 - res.count[vid]) * var.payload_bytes, t)
        res.reset(vid, proc)
        res.owner[vid] = proc
        self.registry.set(var, value)
        self._mem_insert(var, proc, t)

        # --- timing flow: request; star-multicast invalidations + acks
        # through the home; ownership grant back to the writer. ---
        mc_children = {-1: list(range(len(holders)))}
        mc_hosts = {-1: home}
        for i, q in enumerate(holders):
            mc_hosts[i] = q
        sim = self.sim
        runtime = self.runtime

        def after_request(t1: float) -> None:
            multicast_acks(sim, -1, mc_children, mc_hosts, t1, after_acks)

        def after_acks(t2: float) -> None:
            chain(sim, [(home, proc, 0, False)], t2, lambda t3: runtime.resume(proc, t3, None))

        chain(sim, [(proc, home, 0, False)], t, after_request)
        return None

    # --------------------------------------------------------------- repair
    def on_node_down(self, proc, t, down=frozenset()):
        """Fail-stop repair: re-home directories whose home died (the
        next live processor takes over, announced by a control message),
        return ownership held by the dead node to main memory (the home
        re-materializes the authoritative copy), and drop dead cached
        copies from the copy sets.

        Repair messages sourced at the dead node resolve to zero-link
        routes (its links are already down), so repair costs NIC/local
        overhead but no link traffic -- deterministic and identical in
        both engines."""
        res = self.res
        homes = self._home
        repaired = []
        for vid in range(len(self.registry)):
            touched = False
            var = self.registry.by_id(vid)
            n_before = res.count[vid]
            if homes[vid] == proc:
                # The directory died with its node: the next live
                # processor becomes the new home.
                new_home = next_live_node(proc, self.topology.n_nodes, down)
                self.sim.send_leg(proc, new_home, 0, t, is_data=False)
                homes[vid] = new_home
                if res.owner[vid] == HOME and res.discard(vid, proc):
                    # Main memory's authoritative copy moves with the home.
                    if self._track_mem and vid in self.memory[proc]:
                        self.memory[proc].remove(vid)
                    res.insert(vid, new_home)
                    self._mem_insert(var, new_home, t)
                    self.sim.send_leg(proc, new_home, var.payload_bytes, t, is_data=True)
                touched = True
            if res.owner[vid] == proc:
                # The owner died holding the sole authoritative copy:
                # ownership reverts to main memory at the (live) home.
                res.owner[vid] = HOME
                res.discard(vid, proc)
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                res.insert(vid, homes[vid])
                self._mem_insert(var, homes[vid], t)
                self.sim.send_leg(proc, homes[vid], var.payload_bytes, t, is_data=True)
                touched = True
            if res.discard(vid, proc):
                # A plain cached copy needs no message: the home simply
                # forgets the dead holder.
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                touched = True
            if touched:
                delta = (res.count[vid] - n_before) * var.payload_bytes
                if delta:
                    self._storage_delta(delta, t)
                repaired.append(vid)
        return repaired

    # ---------------------------------------------------------------- locks
    def lock(self, proc: int, var: GlobalVariable, t: float, grant: GrantCallback) -> None:
        self._locks.lock(proc, var.vid, var.creator, t, grant)

    def unlock(self, proc: int, var: GlobalVariable, t: float) -> float:
        return self._locks.unlock(proc, var.vid, var.creator, t)

    def reset_counters(self) -> None:
        super().reset_counters()
        self.write_local = 0
        self.write_remote = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedHomeStrategy(seed={self.seed}, {self.topology!r})"
