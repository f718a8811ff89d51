"""Runtime-service ablations: barrier implementation and bounded memory.

* Barrier: DIVA's combining-tree barrier vs a central coordinator -- the
  tree variant distributes synchronization traffic (the paper's barriers
  are "implementations of elegant algorithms that use access trees").
* Bounded memory: the paper's Figure 8 shows a congestion kink for the
  2-ary tree at 60,000 bodies caused by LRU copy replacement; shrinking
  per-processor capacity reproduces the effect at small scale.
"""

from conftest import emit

from repro.analysis import format_table


def test_ablation_barrier(experiment):
    rows = experiment("ablation-barrier").rows
    columns = ["barrier", "congestion_bytes", "time", "max_startups"]
    emit(
        "ablation_barrier",
        format_table(
            rows,
            columns,
            title="Barrier ablation, bitonic 8x8 (2-4-ary tree)",
        ),
        rows=rows,
        columns=columns,
    )
    d = {r["barrier"]: r for r in rows}
    # The central coordinator concentrates startups on one processor.
    assert d["tree"]["max_startups"] <= d["central"]["max_startups"]


def test_bounded_memory_replacement(experiment):
    rows = experiment("bounded-memory").rows
    columns = ["capacity_copies", "congestion_msgs", "evictions", "time"]
    emit(
        "bounded_memory",
        format_table(
            rows,
            columns,
            title="LRU replacement under bounded memory (2-ary Barnes-Hut, 4x4)",
        ),
        rows=rows,
        columns=columns,
    )
    unbounded = rows[0]
    tightest = rows[-1]
    assert unbounded["evictions"] == 0
    assert tightest["evictions"] > 0
    # Replacement raises congestion and time (the Figure 8 kink).
    assert tightest["congestion_msgs"] > unbounded["congestion_msgs"]
    assert tightest["time"] > unbounded["time"]
