"""Cross-strategy comparison: every registered family head to head.

The paper compares two data-management families (access trees vs fixed
home).  The strategy registry adds the data-grid literature's migration
and threshold-replication schemes; this benchmark runs all of them over
the paper's bitonic workload and the zipf kernel (read-heavy and mixed)
at a matched 64 nodes on every topology, and checks the structural
expectations the xstrat experiment established:

* the paper's claim survives the bigger field: access trees still beat
  fixed home on congestion for the read-heavy workloads, on every
  topology;
* **migratory wins bitonic outright** (congestion and time): bitonic's
  write-then-partner-reads pattern never rereads, so replication is pure
  overhead and the single moving copy avoids every invalidation;
* **dynrep beats fixed home on execution time** for the read-heavy zipf
  hotspot: fewer replicas mean cheaper write invalidations at the same
  directory cost -- while the access trees keep the congestion crown.
"""

from conftest import emit, paper_shapes

from repro.analysis import format_table

TOPOLOGIES = ("mesh", "torus", "hypercube")
STRATEGIES = ("fixed-home", "4-ary", "2-4-ary", "migratory", "dynrep")


def test_xstrat_strategies(experiment):
    run = experiment("xstrat")
    p = run.params
    # The bench table covers bitonic + zipf on every topology; the
    # experiment's mesh-only matmul rows are left to `python -m repro xstrat`.
    rows = [r for r in run.rows if r["workload"] != "matmul"]
    columns = ["workload", "topology", "strategy", "read_frac",
               "congestion_bytes", "total_bytes", "time", "hit_rate"]
    emit(
        "xstrat",
        format_table(
            rows, columns,
            title=(
                f"cross-strategy: {len(STRATEGIES)} families, "
                f"{p['side'] * p['side']} nodes, "
                f"bitonic {p['keys']} keys/proc + zipf {p['ops']} ops/proc"
            ),
        ),
        rows=rows,
        columns=columns,
    )

    # -- sanity at every scale ------------------------------------------
    def pick(workload, topology, strategy, read_frac=None):
        for r in rows:
            if (r["workload"] == workload and r["topology"] == topology
                    and r["strategy"] == strategy
                    and (read_frac is None or r.get("read_frac") == read_frac)):
                return r
        raise AssertionError(f"missing row {workload}/{topology}/{strategy}")

    for r in rows:
        assert r["time"] > 0
        assert 0.0 <= r["hit_rate"] <= 1.0
        assert r["strategy_family"] in ("fixed-home", "4-ary", "2-4-ary",
                                        "migratory", "dynrep")

    if not paper_shapes():
        return

    # -- structural expectations (default / paper scale) ----------------
    for topology in TOPOLOGIES:
        fh_bit = pick("bitonic", topology, "fixed-home")
        at_bit = pick("bitonic", topology, "2-4-ary")
        mig_bit = pick("bitonic", topology, "migratory")
        # The paper's claim survives the bigger field.
        assert at_bit["congestion_bytes"] < fh_bit["congestion_bytes"]
        # Migration wins the never-reread workload on both metrics.
        assert mig_bit["congestion_bytes"] < at_bit["congestion_bytes"]
        assert mig_bit["time"] < at_bit["time"]
        # Fewer replicas => cheaper invalidations: dynrep beats fixed home
        # on time for the read-heavy hotspot.
        fh_zipf = pick("zipf", topology, "fixed-home", read_frac=0.9)
        dr_zipf = pick("zipf", topology, "dynrep", read_frac=0.9)
        assert dr_zipf["time"] < fh_zipf["time"]
        # ... while the access tree keeps the congestion crown there.
        at_zipf = pick("zipf", topology, "2-4-ary", read_frac=0.9)
        assert at_zipf["congestion_bytes"] < fh_zipf["congestion_bytes"]
        assert at_zipf["congestion_bytes"] < dr_zipf["congestion_bytes"]
