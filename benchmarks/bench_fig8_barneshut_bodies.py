"""Figure 8: Barnes-Hut congestion and execution time vs body count.

Paper (16x16 mesh, N = 10k..60k, five strategies): congestion ordered
fixed-home > 16-ary > 4-16-ary > 4-ary > 2-ary ("the higher the access
tree is, the smaller is the congestion"); execution time is best for the
4-ary tree -- the 2-ary tree's low congestion is eaten by its startup
overhead.  (The 2-ary kink at 60k bodies from copy replacement is covered
by the bounded-memory ablation.)
"""

from conftest import emit, paper_shapes

from repro.analysis import PAPER, format_table


def test_fig8_barneshut_bodies(experiment):
    run = experiment("fig8")
    p, rows = run.params, run.rows

    columns = ["strategy", "bodies", "congestion_msgs", "time", "hit_rate"]
    emit(
        "fig8",
        format_table(
            rows,
            columns,
            title=(
                f"Figure 8: Barnes-Hut on {p['side']}x{p['side']}, "
                f"{p['steps'] - p['warm']} measured steps ({PAPER['fig8']['note']})"
            ),
        ),
        rows=rows,
        columns=columns,
    )

    n = max(r["bodies"] for r in rows)
    cong = {r["strategy"]: r["congestion_msgs"] for r in rows if r["bodies"] == n}
    time = {r["strategy"]: r["time"] for r in rows if r["bodies"] == n}
    # Scale-robust sanity: the deep trees always beat fixed home.
    assert cong["2-ary"] < cong["fixed-home"]
    assert cong["4-ary"] < cong["fixed-home"]
    if paper_shapes():
        # The paper's full congestion ordering (strict where scales
        # separate it; at quick scale the flat 16-ary tree and fixed home
        # are within noise of each other).
        assert cong["4-ary"] < cong["16-ary"] < cong["fixed-home"]
        assert cong["4-16-ary"] <= cong["16-ary"]
        assert cong["2-ary"] <= 1.1 * cong["4-ary"]
        # Execution time: every access tree beats fixed home; 4-ary is not
        # beaten by the 2-ary tree (startups).
        for name in ("2-ary", "4-ary", "4-16-ary", "16-ary"):
            assert time[name] < time["fixed-home"]
        assert time["4-ary"] <= 1.05 * time["2-ary"]
    # Congestion grows with N for every strategy.
    for name in cong:
        series = [r["congestion_msgs"] for r in rows if r["strategy"] == name]
        assert series[-1] > series[0]
