"""The migratory strategy: single-copy owner migration.

The migration scheme from the data-grid replication taxonomy, adapted to
the paper's machine model: every global variable has exactly **one** copy
at all times, held by its current *owner*.

* A **write** by a non-owner *migrates* the copy: the request travels to
  the owner (via the variable's directory, below) and the copy travels
  back to the writer, who becomes the new owner.  Owner writes are free.
* A **read** by a non-owner is *forwarded*: the request travels to the
  owner and the value travels back, but the copy stays put -- the reader
  keeps nothing, so repeated reads keep paying the round trip.  Owner
  reads are local hits.

Owner lookup is served by a **directory** at the variable's creator (the
copy's birthplace): requests hop requester -> directory -> owner as
control messages and the value returns along the same path, so the
traffic shape matches the fixed-home round trip with the home pinned at
the creator.  Locks are a FIFO queue at the directory
(:class:`~repro.runtime.locks.HomeLock`), like fixed home.

Under bounded memory the sole copy is the authoritative value and is
therefore never evictable; the strategy still registers it with the
:class:`~repro.runtime.memory.MemoryBook` so capacity accounting sees it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from ..network.topology import Topology
from ..runtime.locks import HomeLock
from ..runtime.variables import GlobalVariable
from .strategy import DataManagementStrategy, GrantCallback, next_live_node

__all__ = ["MigratoryStrategy"]


def _never_evictable(key) -> bool:
    return False


class MigratoryStrategy(DataManagementStrategy):
    """Single-copy owner migration with read forwarding.

    The owner of every variable lives in the residency store (:attr:`res`,
    sites = processors; the owner's site is the one member); the strategy
    itself keeps only each variable's directory."""

    name = "migratory"

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.seed = seed
        self.migrations = 0
        self.forwards = 0
        self.write_local = 0
        self.write_remote = 0

    def n_sites(self) -> int:
        return self.topology.n_nodes

    def attach(self, runtime) -> None:
        super().attach(runtime)
        self._directory: List[int] = []
        self._locks = HomeLock(self.sim, self.directory_of)
        self._track_mem = self.memory.capacity is not None

    # ----------------------------------------------------------- inspection
    def directory_of(self, vid: int) -> int:
        return self._directory[vid]

    def owner_of(self, var: GlobalVariable) -> int:
        return self.res.owner[var.vid]

    def copy_procs(self, var: GlobalVariable) -> Set[int]:
        return {self.res.owner[var.vid]}

    @property
    def lock_acquisitions(self) -> int:
        return self._locks.acquisitions

    # ------------------------------------------------------------- plumbing
    def _mem_insert(self, var: GlobalVariable, proc: int) -> None:
        if self._track_mem:
            # The sole copy is authoritative: never evictable.
            self.memory[proc].insert(var.vid, var.payload_bytes, _never_evictable)

    def _hosts(self, proc: int, vid: int, owner: int) -> list:
        """Request path ``proc -> directory -> owner`` with consecutive
        duplicates collapsed (the directory may be the requester or the
        owner)."""
        hosts = [proc]
        directory = self._directory[vid]
        if directory != proc:
            hosts.append(directory)
        if owner != hosts[-1]:
            hosts.append(owner)
        return hosts

    def _move(self, vid: int, old: int, new: int) -> None:
        """The sole copy moves from ``old`` to ``new``."""
        res = self.res
        res.discard(vid, old)
        res.insert(vid, new)
        res.owner[vid] = new

    # ------------------------------------------------------------------ API
    def register(self, var: GlobalVariable) -> None:
        self._directory.append(var.creator)
        self.res.add(var.vid, var.creator, var.creator)
        self._compile_legs(var)
        self._mem_insert(var, var.creator)

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Owner reads are local hits; everything else is forwarded to the
        owner and back (no replication)."""
        owner = self.res.owner[var.vid]
        if proc == owner:
            self.hits += 1
            if self._track_mem and var.vid in self.memory[proc]:
                self.memory[proc].touch(var.vid)
            return t, self.registry.get(var)
        self.misses += 1
        self.forwards += 1
        value = self.registry.get(var)
        hosts = self._hosts(proc, var.vid, owner)
        cwire, cover, cocc, dwire, dover, docc = self._leg_costs[var.vid]
        self.sim.push_updown(
            t, hosts, cwire, cover, cocc, dwire, dover, docc,
            resume_event=self.runtime.resume_event(proc, value),
        )
        return None

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Owner writes are free; a non-owner write migrates the copy to
        the writer (request up to the owner, the copy back down)."""
        old_owner = self.res.owner[var.vid]
        if proc == old_owner:
            self.write_local += 1
            self.registry.set(var, value)
            if self._track_mem and var.vid in self.memory[proc]:
                self.memory[proc].touch(var.vid)
            return t
        self.write_remote += 1
        self.migrations += 1
        hosts = self._hosts(proc, var.vid, old_owner)
        # --- state update (atomic at initiation) ---
        self._move(var.vid, old_owner, proc)
        self.registry.set(var, value)
        if self._track_mem:
            old_mem = self.memory[old_owner]
            if var.vid in old_mem:
                old_mem.remove(var.vid)
            self._mem_insert(var, proc)
        # --- timing flow: control request up, the migrating copy down ---
        cwire, cover, cocc, dwire, dover, docc = self._leg_costs[var.vid]
        self.sim.push_updown(
            t, hosts, cwire, cover, cocc, dwire, dover, docc,
            resume_event=self.runtime.resume_event(proc, None),
        )
        return None

    # --------------------------------------------------------------- repair
    def on_node_down(self, proc, t, down=frozenset()):
        """Fail-stop repair: a dead directory moves to the next live
        processor (control message); a dead owner hands the sole copy
        off -- it is never dropped -- to the (repaired) directory when
        live, else to the next live processor (data message)."""
        n = self.topology.n_nodes
        dirs = self._directory
        repaired = []
        for vid in range(len(self.registry)):
            touched = False
            if dirs[vid] == proc:
                dirs[vid] = next_live_node(proc, n, down)
                self.sim.send_leg(proc, dirs[vid], 0, t, is_data=False)
                touched = True
            if self.res.owner[vid] == proc:
                var = self.registry.by_id(vid)
                target = dirs[vid] if dirs[vid] not in down else (
                    next_live_node(proc, n, down)
                )
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                self._move(vid, proc, target)
                self._mem_insert(var, target)
                self.sim.send_leg(proc, target, var.payload_bytes, t, is_data=True)
                touched = True
            if touched:
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
        # migrations tracks write_remote and forwards tracks misses; they
        # must cover the same measured window as their counterparts.
        self.migrations = 0
        self.forwards = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MigratoryStrategy(seed={self.seed}, {self.topology!r})"
