"""Figure 10: the force-computation phase of the Figure 8 runs.

Paper: the dominant phase (read-only: many copies are created); access
trees win through their efficient copy distribution, and the
communication share of the phase time is smaller for the 4-ary tree
(~25%) than for fixed home (~33%) at the largest N.  The figure's extra
line -- local computation time -- is strategy-independent.
"""

from conftest import emit

from repro.analysis import PAPER, format_table


def test_fig10_force_phase(experiment):
    fig10 = experiment("fig10").rows  # Figure 8's cells, from the session cache

    columns = ["strategy", "bodies", "congestion_msgs", "time", "local_compute", "comm_share"]
    emit(
        "fig10",
        format_table(
            fig10,
            columns,
            title=f"Figure 10: force-computation phase ({PAPER['fig10']['note']})",
        ),
        rows=fig10,
        columns=columns,
    )

    n = max(r["bodies"] for r in fig10)
    at = next(r for r in fig10 if r["strategy"] == "4-ary" and r["bodies"] == n)
    fh = next(r for r in fig10 if r["strategy"] == "fixed-home" and r["bodies"] == n)
    assert at["congestion_msgs"] < fh["congestion_msgs"]
    assert at["time"] <= fh["time"]
    # Local computation is identical physics -> identical charge.
    assert abs(at["local_compute"] - fh["local_compute"]) < 1e-9 * max(1.0, fh["local_compute"])
    # Communication share smaller for the access tree.
    assert at["comm_share"] <= fh["comm_share"]
