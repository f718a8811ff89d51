"""Embedding ablation (the paper's "practical improvements", Section 2).

The modified (regular) embedding replaces the independent uniform node
placement of the theoretical analysis; "the major advantage ... is that it
decreases the expected distances between the processors simulating
neighbored access tree nodes", at the price of dependencies the theory
does not cover ("we have not recognized any bad effects").
"""

from conftest import emit

from repro.analysis import format_table


def test_ablation_embedding_matmul(experiment):
    rows = experiment("ablation-embedding", workload="matmul").rows
    columns = ["embedding", "congestion_bytes", "total_bytes", "time"]
    emit(
        "ablation_embedding_matmul",
        format_table(
            rows,
            columns,
            title="Embedding ablation, matmul 8x8 block 1024 (4-ary tree)",
        ),
        rows=rows,
        columns=columns,
    )
    d = {r["embedding"]: r for r in rows}
    # Shorter tree edges => less total traffic and time.
    assert d["modified"]["total_bytes"] < d["random"]["total_bytes"]
    assert d["modified"]["time"] < d["random"]["time"]


def test_ablation_embedding_bitonic(experiment):
    rows = experiment("ablation-embedding", workload="bitonic").rows
    columns = ["embedding", "congestion_bytes", "total_bytes", "time"]
    emit(
        "ablation_embedding_bitonic",
        format_table(
            rows,
            columns,
            title="Embedding ablation, bitonic 8x8, 1024 keys/proc (4-ary tree)",
        ),
        rows=rows,
        columns=columns,
    )
    d = {r["embedding"]: r for r in rows}
    assert d["modified"]["total_bytes"] < d["random"]["total_bytes"]
