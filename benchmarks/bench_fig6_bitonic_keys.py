"""Figure 6: bitonic sorting on a fixed mesh, keys-per-processor sweep.

Paper (16x16): fixed-home congestion ratio ~7-8, 2-4-ary access tree
~2.7-3.0, both slightly decreasing with the key count (control messages
amortize); execution-time ratios track congestion, and the access tree's
time ratio sits *above* its congestion ratio for small keys (startup
overhead vs the hand-optimized exchange).
"""

from conftest import emit

from repro.analysis import PAPER, format_table


def test_fig6_bitonic_keys(experiment):
    run = experiment("fig6")
    p, rows = run.params, run.rows

    ref = PAPER["fig6"]
    for row in rows:
        if row["strategy"] in ref["congestion_ratio"] and row["keys"] in ref["x"]:
            i = ref["x"].index(row["keys"])
            row["paper_congestion_ratio"] = ref["congestion_ratio"][row["strategy"]][i]
            row["paper_time_ratio"] = ref["time_ratio"][row["strategy"]][i]
    columns = ["strategy", "keys", "congestion_ratio", "paper_congestion_ratio",
               "time_ratio", "paper_time_ratio"]
    emit(
        "fig6",
        format_table(
            rows,
            columns,
            title=f"Figure 6: bitonic on {p['side']}x{p['side']}, ratios vs keys/processor",
        ),
        rows=rows,
        columns=columns,
    )

    for m in p["keys"]:
        fh = next(r for r in rows if r["strategy"] == "fixed-home" and r["keys"] == m)
        at = next(r for r in rows if r["strategy"] == "2-4-ary" and r["keys"] == m)
        assert at["congestion_ratio"] < fh["congestion_ratio"]
        assert at["time_ratio"] < fh["time_ratio"]
    # Congestion ratios weakly decreasing with key count.
    fh_series = [
        next(r for r in rows if r["strategy"] == "fixed-home" and r["keys"] == m)["congestion_ratio"]
        for m in p["keys"]
    ]
    assert fh_series[-1] <= fh_series[0] * 1.05
