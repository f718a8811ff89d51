"""The schema-v7 metric suite (repro.metrics).

Pins the MetricsBundle contract (one hit-rate convention, row emission
through ``to_row``/``carry_row``, no ad-hoc dict merges left), the
storage-cost invariants, and the pure-vs-C agreement of the latency
percentiles.
"""

from array import array

import pytest

from repro.analysis import experiments
from repro.metrics import LATENCY_QUANTILES, MetricsBundle, latency_percentiles
from repro.network.topology import make_topology
from repro.sim.engine import Simulator
from repro.workloads import get_workload


class TestMetricsBundle:
    def test_zero_traffic_rates_are_zero(self):
        """The one zero-request convention: no requests -> rate 0.0 (not
        NaN, not an exception).  Both the batch emitter and ServeReport
        go through this property."""
        bundle = MetricsBundle()
        assert bundle.requests == 0
        assert bundle.hit_rate == 0.0
        assert bundle.effective_network_usage == 0.0

    def test_hit_rate(self):
        assert MetricsBundle(hits=3, misses=1).hit_rate == 0.75
        assert MetricsBundle(hits=0, misses=4).hit_rate == 0.0

    def test_effective_network_usage_is_bytes_per_access(self):
        bundle = MetricsBundle(hits=2, misses=2, total_bytes=1024.0)
        assert bundle.effective_network_usage == 256.0

    def test_from_run_computes_percentiles(self):
        bundle = MetricsBundle.from_run(
            hits=1, misses=9, evictions=0, total_bytes=10.0,
            latencies=[float(i) for i in range(1, 101)], storage_cost=5.0,
        )
        assert bundle.latency_p50 == pytest.approx(50.5)
        assert bundle.latency_p50 <= bundle.latency_p95 <= bundle.latency_p99
        assert bundle.storage_cost == 5.0

    def test_to_row_emits_exactly_the_row_keys(self):
        row = MetricsBundle(hits=1, misses=1).to_row()
        assert tuple(row) == MetricsBundle.ROW_KEYS
        assert row["hit_rate"] == 0.5

    def test_carry_row_projects_the_row_keys(self):
        src = dict(MetricsBundle(hits=2, misses=0).to_row(), extra="x", time=1.0)
        carried = MetricsBundle.carry_row(src)
        assert tuple(carried) == MetricsBundle.ROW_KEYS
        assert "extra" not in carried and "time" not in carried


class TestLatencyPercentiles:
    def test_empty_is_all_zero(self):
        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert latency_percentiles(array("d")) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_array_and_list_agree(self):
        vals = [0.5, 0.1, 0.9, 0.2, 0.7]
        assert latency_percentiles(vals) == latency_percentiles(array("d", vals))

    def test_quantile_levels(self):
        assert LATENCY_QUANTILES == (0.5, 0.95, 0.99)


class TestNoAdHocMerges:
    """Schema v7 removed the duplicated metric merges: the helpers that
    used to compute hit_rate independently (with a different
    zero-request convention) must stay gone."""

    def test_old_merge_helpers_absent(self):
        assert not hasattr(experiments, "_cache_fields")
        assert not hasattr(experiments, "_carried_cache_fields")

    def test_run_result_hit_ratio_delegates_to_bundle(self):
        from repro.network.stats import StatsSnapshot
        from repro.runtime.results import RunResult

        res = RunResult(strategy="s", mesh="m", time=0.0, end_time=0.0,
                        stats=StatsSnapshot(*([0] * 9)))
        assert res.hit_ratio == 0.0  # zero traffic, bundle convention
        assert res.metrics.hit_rate == 0.0


def _zipf_result(topology, strategy):
    wl = get_workload("zipf")
    return wl.run(
        make_topology(topology, 4), strategy, seed=3,
        params={"n_vars": 32, "ops": 40, "alpha": 1.0, "read_frac": 0.85},
    )


class TestStorageCost:
    PROPERTY_CASES = [
        ("mesh", "fixed-home"), ("mesh", "4-ary"), ("mesh", "dynrep"),
        ("mesh", "adaptive"), ("hypercube", "2-4-ary"), ("torus", "fixed-home"),
    ]

    @pytest.mark.parametrize("topology,strategy", PROPERTY_CASES)
    def test_storage_cost_non_negative(self, topology, strategy):
        res = _zipf_result(topology, strategy)
        assert res.storage_cost >= 0.0

    @pytest.mark.parametrize("strategy", ["migratory", "handopt"])
    def test_single_copy_strategies_cost_zero(self, strategy):
        """Storage cost integrates EXCESS copies (beyond one
        authoritative copy per variable): schemes that never replicate
        cost exactly zero."""
        if strategy == "handopt":
            res = get_workload("matmul").run(
                make_topology("mesh", 4), strategy, params={"block_entries": 64})
        else:
            res = _zipf_result("mesh", strategy)
        assert res.storage_cost == 0.0

    def test_replication_costs_more_than_thresholding(self):
        eager = _zipf_result("mesh", "fixed-home")
        lazy = _zipf_result("mesh", "dynrep:threshold=4")
        assert eager.storage_cost > lazy.storage_cost > 0.0


class TestPureVsCDifferential:
    """Both engines must report byte-identical latency percentiles and
    storage cost: miss latencies close at the flow's exact completion
    time in either engine."""

    STRATEGIES = ("adaptive", "dynrep:threshold=2", "4-ary")
    TOPOLOGIES = ("mesh", "hypercube")

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_latency_percentiles_engine_identical(self, topology, strategy,
                                                  ckernel, monkeypatch):
        kernel = _zipf_result(topology, strategy).as_dict()
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure = _zipf_result(topology, strategy).as_dict()
        for key in ("latency_p50", "latency_p95", "latency_p99",
                    "storage_cost", "effective_network_usage"):
            assert kernel[key] == pure[key], key  # exact float equality
        kernel.pop("phases"), pure.pop("phases")
        assert kernel == pure
