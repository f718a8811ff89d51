"""Figure 2 (analytic): the data flow for distributing one block.

The paper derives, for the read accesses directed to a single block (read
by its whole row and column), an expected total communication load of
Theta(m*P) for the fixed home strategy vs Theta(m*sqrtP*logP) for the
access tree -- hence congestion Theta(m*P / sqrtP) vs Theta(m*sqrtP*logP /
sqrtP).  This microbenchmark reproduces that single-variable flow.
"""

from conftest import emit

from repro.analysis import format_table


def test_fig2_single_block_flow(experiment):
    rows = experiment("fig2").rows

    columns = ["strategy", "mesh", "total_bytes", "congestion_bytes", "time"]
    emit(
        "fig2",
        format_table(
            rows,
            columns,
            title="Figure 2: one block distributed to its row+column",
        ),
        rows=rows,
        columns=columns,
    )

    fh = next(r for r in rows if r["strategy"] == "fixed-home")
    at = next(r for r in rows if r["strategy"] == "4-ary")
    assert at["total_bytes"] < fh["total_bytes"]
    assert at["congestion_bytes"] < fh["congestion_bytes"]
