"""Property tests for eviction invariants under capacity pressure.

These drive whole simulated runs (the zipf kernel under a bounded
``MemoryBook``) and then inspect the strategies' copy state, rather than
poking ``LocalMemory`` in isolation (``test_memory.py`` covers that):
the invariants under test are exactly the contracts between the LRU
layer and the strategies' ``evictable`` / ``on_evict`` callbacks --

* the **last copy** of an object is never evicted (it is the
  authoritative value);
* an access-tree **copy set stays a connected tree component** after any
  sequence of evictions;
* ``used_bytes`` always equals the byte sum of the live entries;
* eviction counts (and every other simulated quantity) are
  **deterministic** for a fixed seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.mesh import Mesh2D
from repro.workloads import get_workload

#: Small but eviction-heavy configuration space: 16 processors, more
#: variables than capacity, skewed and mixed access streams.
SEEDS = st.integers(0, 40)
ALPHAS = st.sampled_from([0.0, 0.8, 1.5])
READ_FRACS = st.sampled_from([0.5, 0.9])
CAPACITY_COPIES = st.integers(2, 6)
PAYLOAD = 128


def run_under_pressure(strategy, seed, alpha, read_frac, capacity_copies,
                       ops=24, n_vars=24):
    res = get_workload("zipf").run(
        Mesh2D(4, 4), strategy, seed=seed,
        params={"ops": ops, "n_vars": n_vars, "alpha": alpha,
                "read_frac": read_frac, "payload": PAYLOAD},
        capacity_bytes=capacity_copies * PAYLOAD,
    )
    return res, res.extra["runtime"]


def assert_component_connected(tree, nodes, top):
    """``nodes`` must be one connected component of ``tree`` containing
    ``top`` (reachable via parent/children edges inside the set)."""
    assert top in nodes
    seen = {top}
    stack = [top]
    while stack:
        n = stack.pop()
        tn = tree.nodes[n]
        for nb in ([tn.parent] if tn.parent is not None else []) + list(tn.children):
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert seen == nodes, f"copy component disconnected: reached {seen} of {nodes}"


@given(seed=SEEDS, alpha=ALPHAS, read_frac=READ_FRACS, cap=CAPACITY_COPIES)
@settings(max_examples=12, deadline=None)
def test_access_tree_eviction_invariants(seed, alpha, read_frac, cap):
    res, rt = run_under_pressure("2-ary", seed, alpha, read_frac, cap)
    strat = rt.strategy
    depth = strat.tree.depth
    for var in rt.registry:
        nodes, top = strat.copy_nodes(var), strat.copy_top(var)
        # Last copy never evicted.
        assert len(nodes) >= 1, f"var {var.vid} lost its last copy"
        # The component stays connected, and top is its shallowest node.
        assert_component_connected(strat.tree, nodes, top)
        assert depth[top] == min(depth[n] for n in nodes)
    # Byte accounting matches the live entries on every processor.
    for mem in rt.memory.mems:
        assert mem.used_bytes == sum(mem._entries.values())


@given(seed=SEEDS, alpha=ALPHAS, read_frac=READ_FRACS, cap=CAPACITY_COPIES)
@settings(max_examples=10, deadline=None)
def test_fixed_home_eviction_invariants(seed, alpha, read_frac, cap):
    res, rt = run_under_pressure("fixed-home", seed, alpha, read_frac, cap)
    strat = rt.strategy
    for var in rt.registry:
        copies, owner = strat.copy_procs(var), strat.owner_of(var)
        # Last copy never evicted; the authoritative copy (owner's, or the
        # home's when main memory owns) is always among the holders.
        assert len(copies) >= 1, f"var {var.vid} lost its last copy"
        if owner != -1:
            assert owner in copies
    for mem in rt.memory.mems:
        assert mem.used_bytes == sum(mem._entries.values())


@given(seed=SEEDS, alpha=ALPHAS, cap=CAPACITY_COPIES)
@settings(max_examples=8, deadline=None)
def test_dynrep_eviction_invariants(seed, alpha, cap):
    res, rt = run_under_pressure("dynrep", seed, alpha, 0.8, cap)
    strat = rt.strategy
    for var in rt.registry:
        copies, owner = strat.copy_procs(var), strat.owner_of(var)
        assert len(copies) >= 1
        if owner != -1:
            assert owner in copies
    for mem in rt.memory.mems:
        assert mem.used_bytes == sum(mem._entries.values())


@given(seed=st.integers(0, 20), cap=CAPACITY_COPIES)
@settings(max_examples=8, deadline=None)
def test_eviction_counts_deterministic(seed, cap):
    """Same seed, same capacity => identical eviction counts and identical
    simulated quantities (the result cache depends on this)."""
    a_res, a_rt = run_under_pressure("2-ary", seed, 0.8, 0.9, cap)
    b_res, b_rt = run_under_pressure("2-ary", seed, 0.8, 0.9, cap)
    assert a_res.evictions == b_res.evictions
    assert [m.evictions for m in a_rt.memory.mems] == [m.evictions for m in b_rt.memory.mems]
    assert a_res.as_dict() == b_res.as_dict()


def test_pressure_actually_evicts():
    """Sanity for the property configs above: the capacity range really
    forces replacement (otherwise the invariants are tested vacuously)."""
    res, rt = run_under_pressure("2-ary", seed=0, alpha=0.8, read_frac=0.9,
                                 capacity_copies=2)
    assert res.evictions > 0
