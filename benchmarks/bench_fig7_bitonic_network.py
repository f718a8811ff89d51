"""Figure 7: bitonic sorting, network-size sweep at fixed keys/processor.

Paper (4096 keys/proc): fixed-home congestion ratio grows ~log^2 P
(2.81 -> 10.48); the 2-4-ary access tree converges towards a constant near
3 (2.08 -> 2.90) -- the locality of the merging circuits matches the tree
decomposition, so the access tree is asymptotically optimal here.
"""

from conftest import emit, paper_shapes

from repro.analysis import PAPER, format_table


def test_fig7_bitonic_network(experiment):
    run = experiment("fig7")
    p, rows = run.params, run.rows

    ref = PAPER["fig7"]
    for row in rows:
        if row["strategy"] in ref["congestion_ratio"] and row["side"] in ref["x"]:
            i = ref["x"].index(row["side"])
            row["paper_congestion_ratio"] = ref["congestion_ratio"][row["strategy"]][i]
            row["paper_time_ratio"] = ref["time_ratio"][row["strategy"]][i]
    columns = ["strategy", "side", "congestion_ratio", "paper_congestion_ratio",
               "time_ratio", "paper_time_ratio"]
    emit(
        "fig7",
        format_table(
            rows,
            columns,
            title=f"Figure 7: bitonic, {p['keys']} keys/proc, ratios vs network size",
        ),
        rows=rows,
        columns=columns,
    )

    sides = list(p["sides"])
    fh = {r["side"]: r for r in rows if r["strategy"] == "fixed-home"}
    at = {r["side"]: r for r in rows if r["strategy"] == "2-4-ary"}
    if paper_shapes():
        # Fixed home's ratio keeps growing; the access tree's stays much
        # flatter.  (The 1.5x growth needs the full side sweep: quick only
        # spans 4 -> 8, where the log^2 P growth has barely started.)
        assert fh[sides[-1]]["congestion_ratio"] > 1.5 * fh[sides[0]]["congestion_ratio"]
    growth_at = at[sides[-1]]["congestion_ratio"] / at[sides[0]]["congestion_ratio"]
    growth_fh = fh[sides[-1]]["congestion_ratio"] / fh[sides[0]]["congestion_ratio"]
    assert growth_at < growth_fh
    assert at[sides[-1]]["time_ratio"] < fh[sides[-1]]["time_ratio"]
