"""Tree-degree ablation (Sections 3.1 / 3.2 of the paper).

Paper findings: "In general, the smaller the degree of the access tree,
the smaller the congestion.  However, the 4-ary access tree strategy
achieves the best communication and execution times [for matmul] because
it chooses the best compromise between minimizing the congestion and
minimizing the number of startups."  For bitonic sorting, "the 2-ary and
the 2-4-ary access tree strategy perform slightly better than the 4-ary
strategy" because the circuit's locality matches the 2-ary decomposition.
"""

from conftest import emit

from repro.analysis import format_table


def test_ablation_tree_degree_matmul(experiment):
    rows = experiment("ablation-tree-degree", workload="matmul").rows
    columns = ["strategy", "congestion_bytes", "time", "max_startups"]
    emit(
        "ablation_tree_degree_matmul",
        format_table(
            rows,
            columns,
            title="Tree-degree ablation, matmul 8x8 block 1024",
        ),
        rows=rows,
        columns=columns,
    )
    d = {r["strategy"]: r for r in rows}
    # Congestion grows with the degree...
    assert d["2-ary"]["congestion_bytes"] <= d["4-ary"]["congestion_bytes"]
    assert d["4-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
    # ... while flat trees save startups.
    assert d["16-ary"]["max_startups"] < d["2-ary"]["max_startups"]
    # 4-ary's execution time beats the 2-ary tree (the paper's compromise).
    assert d["4-ary"]["time"] <= d["2-ary"]["time"]


def test_ablation_tree_degree_bitonic(experiment):
    rows = experiment("ablation-tree-degree", workload="bitonic").rows
    columns = ["strategy", "congestion_bytes", "time", "max_startups"]
    emit(
        "ablation_tree_degree_bitonic",
        format_table(
            rows,
            columns,
            title="Tree-degree ablation, bitonic 8x8, 1024 keys/proc",
        ),
        rows=rows,
        columns=columns,
    )
    d = {r["strategy"]: r for r in rows}
    # The bitonic circuit's locality matches the binary decomposition:
    # 2-ary variants hold the congestion edge over flat trees.
    assert d["2-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
    assert d["2-4-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
    # 2-4-ary does not lose time to the plain 4-ary variant.
    assert d["2-4-ary"]["time"] <= 1.1 * d["4-ary"]["time"]
