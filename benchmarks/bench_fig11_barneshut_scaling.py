"""Figure 11: Barnes-Hut scaling, N = bodies_per_proc * P.

Paper (8x8 .. 16x32, N = 200 P, fixed home vs the 4-8-ary access tree):
the access tree's congestion and execution-time advantage grows with the
number of processors -- time ratio about 49% and communication-time ratio
about 33% at 512 processors.
"""

from conftest import emit

from repro.analysis import PAPER, format_table


def test_fig11_barneshut_scaling(experiment):
    run = experiment("fig11")
    p, rows = run.params, run.rows
    columns = ["strategy", "mesh", "procs", "bodies", "congestion_msgs", "time", "comm_time"]
    emit(
        "fig11",
        format_table(
            rows,
            columns,
            title=f"Figure 11: Barnes-Hut scaling, N = {p['bodies_per_proc']}*P "
            f"({PAPER['fig11']['note']})",
        ),
        rows=rows,
        columns=columns,
    )

    meshes = [f"{r}x{c}" for r, c in p["meshes"]]
    time_ratio = []
    comm_ratio = []
    for label in meshes:
        fh = next(r for r in rows if r["strategy"] == "fixed-home" and r["mesh"] == label)
        at = next(r for r in rows if r["strategy"] == "4-8-ary" and r["mesh"] == label)
        time_ratio.append(at["time"] / fh["time"])
        comm_ratio.append(at["comm_time"] / fh["comm_time"])
        assert at["congestion_msgs"] < fh["congestion_msgs"]
    # Access tree wins at the largest configuration, and communication time
    # improves at least as much as total time (compute is shared).
    assert time_ratio[-1] < 1.0
    assert comm_ratio[-1] <= time_ratio[-1] + 0.05
    # Advantage does not shrink with growing P.
    assert time_ratio[-1] <= time_ratio[0] + 0.05
