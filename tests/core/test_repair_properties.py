"""Repair-hook properties: the invariants every self-repairing strategy
must keep under the failure axis (see repro.network.failures).

The properties from the fault-injection design:

* no message leg ever traverses a down link;
* the last surviving copy of a variable is never dropped -- not by
  repair, not by LRU eviction under bounded memory;
* immediately after re-homing, directory/home lookups resolve to live
  nodes and the dead processor hosts nothing;
* local-memory accounting (``used_bytes == sum(entries)``) survives
  churn, bounded or unbounded.

Failure model nuance the assertions respect: node death is fail-stop for
the *data-management roles* (directory, home, copies, embedding hosts) --
the processor's program keeps computing, so a dead processor may later
re-acquire a cached copy or even ownership by issuing requests.  The
liveness invariants therefore hold *at repair time* (checked by wrapping
``on_node_down``), not necessarily at the end of the run.
"""

import pytest

from repro.core.access_tree import AccessTreeStrategy
from repro.core.fixed_home import HOME, FixedHomeStrategy
from repro.core.migratory import MigratoryStrategy
from repro.network.topology import make_topology
from repro.workloads import get_workload

#: Every self-repairing family: the ownership scheme, its dynamic-
#: replication subclass, single-copy migration, and two access trees.
STRATEGIES = ["fixed-home", "dynrep", "migratory", "4-ary", "2-4-ary"]

#: Permanent churn (no revive): 20% of a 16-node mesh dies mid-run.
CHURN = "churn:nodes=0.2:seed=5:horizon=0.01"


def run_zipf(strategy, failures, capacity_bytes=None, seed=3):
    wl = get_workload("zipf")
    res = wl.run(
        make_topology("mesh", 4), strategy, seed=seed,
        params={"n_vars": 12, "ops": 24, "alpha": 0.9, "read_frac": 0.8,
                "payload": 64},
        failures=failures, capacity_bytes=capacity_bytes,
    )
    return res, res.extra["runtime"]


def copy_sets(strategy_obj):
    """``vid -> non-empty set of copy locations`` for any family (tree
    nodes for access trees, processors for the directory families)."""
    copies = (strategy_obj.copy_nodes
              if isinstance(strategy_obj, AccessTreeStrategy)
              else strategy_obj.copy_procs)
    return {var.vid: copies(var) for var in strategy_obj.registry}


# --------------------------------------------------------------- validators
# Each returns a list of violation strings, checked right after the
# strategy's own repair ran (`proc` just died, `down` is the full set).

def _validate_fixed_home(strat, proc, down):
    errs = []
    for var in strat.registry:
        vid = var.vid
        home, owner, copies = strat.home_of(vid), strat.owner_of(var), strat.copy_procs(var)
        if home in down:
            errs.append(f"vid {vid}: home {home} is dead")
        if owner == proc:
            errs.append(f"vid {vid}: dead proc still owner")
        if proc in copies:
            errs.append(f"vid {vid}: dead proc still in copy set")
        if not copies:
            errs.append(f"vid {vid}: copy set emptied by repair")
        holder = home if owner == HOME else owner
        if holder not in copies:
            errs.append(f"vid {vid}: authoritative holder {holder} has no copy")
    if strat._track_mem and len(strat.memory[proc]) != 0:
        errs.append(f"dead p{proc} still holds memory entries")
    return errs


def _validate_migratory(strat, proc, down):
    errs = []
    for var in strat.registry:
        vid = var.vid
        directory = strat.directory_of(vid)
        if directory in down:
            errs.append(f"vid {vid}: directory {directory} is dead")
        if strat.owner_of(var) == proc:
            errs.append(f"vid {vid}: dead proc still owns the copy")
    if strat._track_mem and len(strat.memory[proc]) != 0:
        errs.append(f"dead p{proc} still holds memory entries")
    return errs


def _validate_tree(strat, proc, down):
    errs = []
    tree, emb = strat.tree, strat.embedding
    for var in strat.registry:
        vid = var.vid
        nodes = strat.copy_nodes(var)
        if not nodes:
            errs.append(f"vid {vid}: copy set emptied by repair")
        for node in nodes:
            if tree.nodes[node].size == 1:
                continue  # leaves are pinned to their processor
            host = emb.host(vid, node)
            if host in down:
                errs.append(f"vid {vid}: tree node {node} hosted on dead {host}")
    return errs


_VALIDATORS = [
    (FixedHomeStrategy, _validate_fixed_home),  # dynrep inherits
    (MigratoryStrategy, _validate_migratory),
    (AccessTreeStrategy, _validate_tree),
]


@pytest.fixture
def repair_violations(monkeypatch):
    """Wrap every family's ``on_node_down`` so the matching invariant
    validator runs immediately after each repair; yields the collected
    violations."""
    errors = []
    for cls, validate in _VALIDATORS:
        orig = cls.on_node_down

        def wrapped(self, proc, t, down=frozenset(), _orig=orig, _val=validate):
            vids = list(_orig(self, proc, t, down=down))
            errors.extend(_val(self, proc, down))
            return vids

        monkeypatch.setattr(cls, "on_node_down", wrapped)
    return errors


class TestNoTrafficOnDownLinks:
    """A leg must never traverse a down link: permanently-down links stay
    silent for the whole run, and every route the failure view serves
    avoids the current down set."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_permanently_down_link_is_silent(self, strategy):
        link = 5
        res, rt = run_zipf(strategy, f"linkdown:link={link}:at=0")
        assert res.failure_events == 1
        stats = rt.sim.stats
        assert stats.link_msgs[link] == 0
        assert stats.link_bytes[link] == 0
        # The run still made progress around the hole.
        assert stats.total_msgs > 0

    @pytest.mark.parametrize(
        "failures", [CHURN, "linkflap:rate=0.2:seed=1:horizon=0.01:down=0"]
    )
    def test_cached_routes_avoid_the_down_set(self, failures):
        """The engine routes every leg through the view's cache; after
        the run, no cached route crosses a down link (node death downs
        all incident links via ``link_usable``)."""
        _, rt = run_zipf("fixed-home", failures)
        view = rt._failview
        assert view.down_links or view.down_nodes
        assert view.route_cache  # post-epoch lookups happened
        for route in view.route_cache.values():
            for link in route:
                assert view.link_usable(link)


class TestLastCopySurvivesRepair:
    """Churn with bounded memory: repair moves copies, eviction drops
    cached ones -- but the last copy of every variable must survive
    both, and the authoritative holder keeps its copy."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("capacity_bytes", [None, 200.0])
    def test_every_variable_keeps_a_copy(self, strategy, capacity_bytes):
        res, rt = run_zipf(strategy, CHURN, capacity_bytes=capacity_bytes)
        assert res.failure_events > 0
        assert rt._failview.down_nodes  # churn actually killed nodes
        for vid, copies in copy_sets(rt.strategy).items():
            assert copies, f"vid {vid}: no copy survived under {strategy}"

    def test_bounded_run_actually_evicted(self):
        """The bounded leg of the property is vacuous unless the capacity
        really forces replacement."""
        res, _ = run_zipf("fixed-home", CHURN, capacity_bytes=200.0)
        assert res.evictions > 0

    @pytest.mark.parametrize("strategy", ["fixed-home", "dynrep"])
    def test_authoritative_holder_keeps_its_copy(self, strategy):
        """The ownership-scheme invariant survives churn end to end."""
        _, rt = run_zipf(strategy, CHURN, capacity_bytes=200.0)
        strat = rt.strategy
        for var in rt.registry:
            owner = strat.owner_of(var)
            holder = strat.home_of(var.vid) if owner == HOME else owner
            assert holder in strat.copy_procs(var), f"vid {var.vid}: holder lost its copy"


class TestLookupsResolveLiveAtRepairTime:
    """Immediately after ``on_node_down`` repaired a death, every
    directory / home lookup resolves to a live node and the dead
    processor hosts nothing (the program running there may re-acquire
    copies later -- that is the fail-stop-data-roles model, not a
    repair bug)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("capacity_bytes", [None, 200.0])
    def test_repair_leaves_consistent_state(self, repair_violations, strategy,
                                            capacity_bytes):
        res, _ = run_zipf(strategy, CHURN, capacity_bytes=capacity_bytes)
        assert res.failure_events > 0
        assert res.repairs > 0  # the hooks actually repaired variables
        assert repair_violations == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_repair_under_revived_churn(self, repair_violations, strategy):
        """Revived nodes return empty (state lost at death stays where
        repair put it); the invariants must hold at every death even
        when earlier deaths were revived in between."""
        res, _ = run_zipf(
            strategy, "churn:nodes=0.2:seed=9:horizon=0.01:revive=0.4"
        )
        assert res.failure_events > 0
        assert repair_violations == []


class TestMemoryAccountingUnderChurn:
    """``used_bytes`` must equal the sum of the entries on every
    processor after repair moved copies around -- double-remove or
    missed-insert bugs in the repair hooks show up here.  (Unbounded
    runs skip LRU bookkeeping entirely; the bounded leg carries the
    weight, the unbounded leg pins the fast path staying empty.)"""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("capacity_bytes", [None, 200.0])
    def test_used_bytes_matches_entries(self, strategy, capacity_bytes):
        res, rt = run_zipf(strategy, CHURN, capacity_bytes=capacity_bytes)
        assert res.failure_events > 0
        for proc, mem in enumerate(rt.memory.mems):
            total = sum(mem._entries.values())
            assert mem.used_bytes == total, (
                f"p{proc}: used_bytes={mem.used_bytes} != entries={total}"
            )
            assert mem.used_bytes >= 0
