"""The residency store: every variable's replica state, in one place.

A strategy is defined by where its copies live: the access tree by its
connected copy component and that component's top node, the fixed-home
directory families by the copy set and the owner, migratory by its sole
owner.  :class:`ResidencyStore` keeps that state for all of one
strategy's variables in flat numpy arrays:

* ``member`` -- one byte per ``(variable, site)``, 1 where a copy lives;
  sites are processors, or tree nodes for the access tree, and variable
  ``vid`` owns the bytes ``vid * nsites`` to ``(vid + 1) * nsites``;
* ``count`` -- copies per variable; ``owner`` -- the owning processor,
  or ``-1`` while the home (main memory) owns; ``top`` -- the access
  tree's component top;
* ``storage`` -- the strategy's storage-cost accumulator ``(integral,
  last, excess)`` (schema v7's ``storage_cost``, see :mod:`repro.metrics`).

Python strategies read and write the arrays through memoryviews.  The C
kernel's serving fast path borrows the same arrays by pointer (see
:meth:`repro.serve.session.ServeSession._arm_fast`), so there is no
mirror to keep in step; ``on_grow`` tells the borrower when the arrays
moved.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

__all__ = ["ResidencyStore"]

#: Variables the store holds before its first growth.
INITIAL_CAPACITY = 256


class ResidencyStore:
    """Replica state of every variable of one attached strategy.

    ``member``, ``count``, ``owner``, ``top`` and ``storage`` are
    memoryviews of the numpy arrays :attr:`arrays` returns."""

    __slots__ = (
        "nsites", "member", "count", "owner", "top", "storage",
        "on_grow", "_cols", "_storage", "_zeros",
    )

    def __init__(self, nsites: int):
        self.nsites = nsites
        self._zeros = bytes(nsites)
        #: Called with no arguments after :meth:`add` reallocated the arrays.
        self.on_grow: Optional[Callable[[], None]] = None
        self._storage = np.zeros(3, dtype=np.float64)
        self.storage = memoryview(self._storage)
        self._cols: tuple = ()
        self._grow(INITIAL_CAPACITY)

    @property
    def arrays(self) -> tuple:
        """The numpy arrays behind ``(member, count, owner, top, storage)``."""
        return self._cols + (self._storage,)

    def _grow(self, cap: int) -> None:
        # np.zeros takes fresh zero pages from the OS, so the unused tail
        # of a doubled capacity stays out of the resident set until used.
        cols = (np.zeros(cap * self.nsites, dtype=np.uint8), np.zeros(cap, dtype=np.int32),
                np.zeros(cap, dtype=np.int32), np.zeros(cap, dtype=np.int32))
        for new, old in zip(cols, self._cols):
            new[: old.size] = old
        self._cols = cols
        self.member, self.count, self.owner, self.top = map(memoryview, cols)
        if self.on_grow is not None:
            self.on_grow()

    # ------------------------------------------------------------ variables
    def add(self, vid: int, site: int, owner: int) -> None:
        """Register ``vid`` with its sole copy at ``site``."""
        cap = len(self.count)
        if vid >= cap:
            while vid >= cap:
                cap *= 2
            self._grow(cap)
        self.reset(vid, site)
        self.owner[vid] = owner
        self.top[vid] = site

    def has(self, vid: int, site: int) -> int:
        """1 when ``site`` holds a copy of ``vid``, else 0."""
        return self.member[vid * self.nsites + site]

    def insert(self, vid: int, site: int) -> bool:
        """Add a copy at ``site``; ``False`` when one was already there."""
        i = vid * self.nsites + site
        if self.member[i]:
            return False
        self.member[i] = 1
        self.count[vid] += 1
        return True

    def discard(self, vid: int, site: int) -> bool:
        """Drop the copy at ``site``; ``False`` when there was none."""
        i = vid * self.nsites + site
        if not self.member[i]:
            return False
        self.member[i] = 0
        self.count[vid] -= 1
        return True

    def members(self, vid: int) -> List[int]:
        """Sites holding a copy of ``vid``, ascending."""
        lo = vid * self.nsites
        return self._cols[0][lo : lo + self.nsites].nonzero()[0].tolist()

    def reset(self, vid: int, site: int) -> None:
        """Collapse ``vid`` to one copy at ``site`` (a write's state update)."""
        lo = vid * self.nsites
        self.member[lo : lo + self.nsites] = self._zeros
        self.member[lo + site] = 1
        self.count[vid] = 1
