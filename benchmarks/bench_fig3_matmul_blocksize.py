"""Figure 3: matrix multiplication on a fixed mesh, block-size sweep.

Paper: congestion ratio and communication-time ratio of fixed home and the
4-ary access tree relative to the hand-optimized strategy, on a 16x16 mesh
with blocks of 64..4096 integers.  Expected shape: fixed-home congestion
ratio ~25-33 >> access tree ~6.5-9.3, both slightly decreasing with block
size; time ratios below congestion ratios; access tree about twice as fast
as fixed home.
"""

from conftest import emit

from repro.analysis import PAPER, format_table


def test_fig3_matmul_blocksize(experiment):
    run = experiment("fig3")
    p, rows = run.params, run.rows

    ref = PAPER["fig3"]
    for row in rows:
        if row["strategy"] in ref["congestion_ratio"] and row["block"] in ref["x"]:
            i = ref["x"].index(row["block"])
            row["paper_congestion_ratio"] = ref["congestion_ratio"][row["strategy"]][i]
            row["paper_time_ratio"] = ref["time_ratio"][row["strategy"]][i]
    columns = ["strategy", "block", "congestion_ratio", "paper_congestion_ratio",
               "time_ratio", "paper_time_ratio"]
    emit(
        "fig3",
        format_table(
            rows,
            columns,
            title=f"Figure 3: matmul on {p['side']}x{p['side']}, ratios vs hand-optimized",
        ),
        rows=rows,
        columns=columns,
    )

    # Shape assertions (paper's qualitative findings).
    for block in p["blocks"]:
        fh = next(r for r in rows if r["strategy"] == "fixed-home" and r["block"] == block)
        at = next(r for r in rows if r["strategy"] == "4-ary" and r["block"] == block)
        assert at["congestion_ratio"] < fh["congestion_ratio"]
        assert at["time_ratio"] < fh["time_ratio"]
        # Time ratios improve on congestion ratios (hand-opt pays startups).
        assert fh["time_ratio"] < fh["congestion_ratio"]
    fh_series = [
        next(r for r in rows if r["strategy"] == "fixed-home" and r["block"] == b)["congestion_ratio"]
        for b in p["blocks"]
    ]
    assert fh_series[-1] <= fh_series[0]  # decreasing with block size
