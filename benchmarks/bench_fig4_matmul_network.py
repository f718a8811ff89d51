"""Figure 4: matrix multiplication, network-size sweep at fixed block size.

Paper (block 4096, meshes 4x4..32x32): fixed-home congestion ratio grows
like Theta(sqrt P) (5.56 -> 47.98), the access tree like Theta(log P)
(3.87 -> 8.10); the time advantage of the access tree grows with the
network (99% -> 28% of fixed home's time).
"""

from conftest import emit

from repro.analysis import PAPER, format_table


def test_fig4_matmul_network(experiment):
    run = experiment("fig4")
    p, rows = run.params, run.rows

    ref = PAPER["fig4"]
    for row in rows:
        if row["strategy"] in ref["congestion_ratio"] and row["side"] in ref["x"]:
            i = ref["x"].index(row["side"])
            row["paper_congestion_ratio"] = ref["congestion_ratio"][row["strategy"]][i]
            row["paper_time_ratio"] = ref["time_ratio"][row["strategy"]][i]
    columns = ["strategy", "side", "congestion_ratio", "paper_congestion_ratio",
               "time_ratio", "paper_time_ratio"]
    emit(
        "fig4",
        format_table(
            rows,
            columns,
            title=f"Figure 4: matmul, block {p['block_entries']}, ratios vs network size",
        ),
        rows=rows,
        columns=columns,
    )

    fh = {r["side"]: r for r in rows if r["strategy"] == "fixed-home"}
    at = {r["side"]: r for r in rows if r["strategy"] == "4-ary"}
    sides = list(p["sides"])
    # Fixed home degrades much faster than the access tree.
    assert fh[sides[-1]]["congestion_ratio"] > 2 * fh[sides[0]]["congestion_ratio"]
    growth_at = at[sides[-1]]["congestion_ratio"] / at[sides[0]]["congestion_ratio"]
    growth_fh = fh[sides[-1]]["congestion_ratio"] / fh[sides[0]]["congestion_ratio"]
    assert growth_at < growth_fh
    # The access tree's time advantage grows with the network size.
    adv = [at[s]["time_ratio"] / fh[s]["time_ratio"] for s in sides]
    assert adv[-1] < adv[0]
    assert at[sides[-1]]["time_ratio"] < fh[sides[-1]]["time_ratio"]
