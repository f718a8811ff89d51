"""Protocol-level ablations: invalidation share and node remapping.

* **Invalidation** -- the paper picked the matrix *square* over general
  multiplication precisely because squaring forces copy invalidation.
  Comparing the two quantifies the consistency-maintenance share of the
  dynamic strategies' control traffic.
* **Remapping** -- the theoretical strategy occasionally re-randomizes hot
  tree nodes; the paper omits it, conjecturing "the constant overhead
  induced by this procedure will not be retained in practice".  The
  ablation lets the conjecture be checked: at these scales remapping does
  not reduce congestion but does add migration overhead.
"""

from conftest import emit

from repro.analysis import format_table


def test_ablation_invalidation(experiment):
    rows = experiment("ablation-invalidation").rows
    columns = ["strategy", "variant", "congestion_bytes", "ctrl_msgs", "time"]
    emit(
        "ablation_invalidation",
        format_table(
            rows,
            columns,
            title="Matrix square (invalidating) vs general multiply (read-only), 8x8",
        ),
        rows=rows,
        columns=columns,
    )
    d = {(r["strategy"], r["variant"]): r for r in rows}
    # Invalidation is control traffic: the square variant sends clearly
    # more control messages than the general one, for both strategies.
    for strategy in ("4-ary", "fixed-home"):
        assert d[(strategy, "square")]["ctrl_msgs"] > 1.3 * d[(strategy, "general")]["ctrl_msgs"]


def test_ablation_remapping(experiment):
    rows = experiment(
        "ablation-remapping", param_overrides={"thresholds": (None, 16, 4)}
    ).rows
    columns = ["remap_threshold", "remaps", "congestion_bytes", "time"]
    emit(
        "ablation_remapping",
        format_table(
            rows,
            columns,
            title="Access-tree node remapping on a hot broadcast variable "
            "(paper: omitted; 4-ary, 8x8)",
        ),
        rows=rows,
        columns=columns,
    )
    off = rows[0]
    aggressive = rows[-1]
    assert off["remaps"] == 0
    assert aggressive["remaps"] > 0
    # The paper's conjecture: remapping's overhead is not repaid at these
    # scales -- it must not *help* time by more than noise.
    assert aggressive["time"] > 0.9 * off["time"]
