"""Figure 9: the tree-building phase of the Figure 8 runs.

Paper: the root cell is the bottleneck -- with the fixed home strategy one
processor (the root's home) delivers a copy of the root to every processor
one by one, giving the fixed home a large congestion offset; access trees
distribute the root through their multicast trees.
"""

from conftest import emit, paper_shapes

from repro.analysis import PAPER, format_table


def test_fig9_treebuild_phase(experiment):
    fig9 = experiment("fig9").rows  # Figure 8's cells, from the session cache

    columns = ["strategy", "bodies", "congestion_msgs", "time"]
    emit(
        "fig9",
        format_table(
            fig9,
            columns,
            title=f"Figure 9: tree-building phase ({PAPER['fig9']['note']})",
        ),
        rows=fig9,
        columns=columns,
    )

    n = max(r["bodies"] for r in fig9)
    cong = {r["strategy"]: r["congestion_msgs"] for r in fig9 if r["bodies"] == n}
    time = {r["strategy"]: r["time"] for r in fig9 if r["bodies"] == n}
    # Scale-robust sanity: every strategy built the tree and moved data.
    for name, c in cong.items():
        assert c > 0, f"{name}: no tree-building traffic recorded"
    if paper_shapes():
        # The fixed home offset (the root's home serializes distributing
        # the root cell): well above every access-tree variant.  Needs
        # enough bodies per processor to make the root hot; quick-scale
        # runs are too small to separate the strategies here.
        for name in ("2-ary", "4-ary", "4-16-ary"):
            assert cong["fixed-home"] > 1.5 * cong[name]
            assert time["fixed-home"] > time[name]
