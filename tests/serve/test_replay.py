"""Served-run determinism: trace replay and engine equivalence.

The serving tentpole's correctness anchor: a served run recorded through
the trace layer replays **bit-identically** in batch mode -- same end
time, same hit counters, same traffic totals -- because micro-batching
bounds engine run-ahead to the arrival horizon and idle gaps are recorded
as think-time ops.  And the C kernel serves the same stream the pure
loop does, field for field.
"""

import pytest

from repro.network.mesh import Mesh2D
from repro.network.torus import Torus2D
from repro.serve import ServeSession, run_loadgen
from repro.sim.engine import Simulator
from repro.workloads.trace import replay

PARAMS = {"n_vars": 24, "alpha": 0.8, "read_frac": 0.85}


def serve_small(topology, strategy, *, requests=300, seed=3, rate=4000.0):
    sess = ServeSession(topology, strategy, seed=0)
    report = run_loadgen(
        sess, workload="zipf", params=PARAMS, rate=rate,
        requests=requests, seed=seed, chunk=64,
    )
    return sess, report


def assert_replay_matches(sess, report):
    res = replay(sess.trace())
    assert res.time == report.sim_time            # exact, not approx
    assert res.hits == report.hits
    assert res.misses == report.misses
    assert res.stats.total_msgs == report.total_msgs
    assert res.stats.total_bytes == report.total_bytes
    assert res.stats.congestion_bytes == report.congestion_bytes
    assert res.stats.congestion_msgs == report.congestion_msgs


class TestServedTraceReplay:
    @pytest.mark.parametrize("strategy", [
        "4-ary", "fixed-home", "migratory", "dynrep:threshold=2",
    ])
    def test_served_stream_replays_bit_identically(self, strategy):
        sess, report = serve_small(Mesh2D(4, 4), strategy)
        assert report.requests == 300
        assert_replay_matches(sess, report)

    def test_replay_on_torus(self):
        sess, report = serve_small(Torus2D(4, 4), "4-ary")
        assert_replay_matches(sess, report)

    def test_trace_round_trips_through_disk(self, tmp_path):
        sess, report = serve_small(Mesh2D(4, 4), "4-ary", requests=120)
        path = tmp_path / "served.trace.json"
        sess.trace(params=report.extra).save(path)
        res = replay(path)
        assert res.time == report.sim_time
        assert res.stats.total_msgs == report.total_msgs

    def test_record_false_refuses_trace(self):
        sess = ServeSession(Mesh2D(2, 2), "4-ary", record=False)
        sess.create(0)
        sess.submit("r", 1, 0)
        sess.close()
        with pytest.raises(RuntimeError, match="record=False"):
            sess.trace()


class TestMicroBatchingInvariance:
    def test_horizon_sliced_pump_equals_single_drain(self):
        """Serving the identical stream epoch by epoch (bounded run-ahead)
        or in one unbounded drain must produce the same timeline."""

        def drive(sliced):
            sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0)
            for vid in range(8):
                sess.create(vid % 16, 128)
            for i in range(200):
                sess.submit("w" if i % 5 == 0 else "r", (3 * i) % 16,
                            i % 8, arrival=i * 2e-4)
                if sliced and i % 20 == 19:
                    sess.pump(until=i * 2e-4)
            rep = sess.close()
            return rep, sess.trace().ops

        rep_a, ops_a = drive(sliced=True)
        rep_b, ops_b = drive(sliced=False)
        assert rep_a.sim_time == rep_b.sim_time
        assert (rep_a.hits, rep_a.misses) == (rep_b.hits, rep_b.misses)
        assert rep_a.total_msgs == rep_b.total_msgs
        assert rep_a.total_bytes == rep_b.total_bytes
        assert ops_a == ops_b


class TestEngineEquivalence:
    def test_kernel_serves_identically_to_pure_python(self, ckernel, monkeypatch):
        def run():
            sess, report = serve_small(Mesh2D(4, 4), "4-ary", requests=250)
            d = report.as_dict()
            # Wall-clock fields are host noise, engine label differs by
            # construction; every simulated quantity must match exactly.
            for key in ("engine", "wall_seconds", "requests_per_sec",
                        "wall_p50", "wall_p95", "wall_p99"):
                d.pop(key)
            return d, sess.trace().ops

        kernel_fields, kernel_ops = run()
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure_fields, pure_ops = run()
        assert kernel_fields == pure_fields  # exact equality, field by field
        assert kernel_ops == pure_ops


#: Wall-clock report fields: host noise, excluded from exact comparisons.
WALL_FIELDS = ("wall_seconds", "requests_per_sec", "wall_p50", "wall_p95",
               "wall_p99")


class TestClassicOnKernelEqualsFastPath:
    """Submitting with ``on_done`` callbacks is the one way to run the
    classic dispatchers on top of the C kernel (the kernel's queues
    cannot carry Python callbacks).  That path must serve the same
    stream field-identically to the kernel fast path, for every family
    the fast path mirrors."""

    @staticmethod
    def _serve(strategy, callbacks):
        sess = ServeSession(Mesh2D(4, 4), strategy, seed=0)
        for vid in range(12):
            sess.create(vid % 16, 128)
        done = []
        on_done = (lambda it, t, v: done.append(t)) if callbacks else None
        for i in range(240):
            sess.submit("w" if i % 7 == 0 else "r", (5 * i + 3) % 16,
                        (i * i) % 12, arrival=i * 1.5e-4, on_done=on_done)
            if i % 40 == 39:
                sess.pump(until=i * 1.5e-4)
        report = sess.close().as_dict()
        for key in WALL_FIELDS:
            report.pop(key)
        return sess, report, done

    @pytest.mark.parametrize("strategy", [
        "4-ary", "tree:4:remap=4", "fixed-home", "dynrep:threshold=2",
        "adaptive", "migratory",
    ])
    def test_classic_on_kernel_matches_fast_path(self, ckernel, strategy):
        classic, classic_report, done = self._serve(strategy, callbacks=True)
        fast, fast_report, _ = self._serve(strategy, callbacks=False)
        assert (classic._mode, fast._mode) == ("classic", "fast")
        assert len(done) == 240
        assert classic_report == fast_report  # exact, field by field
        assert classic.trace().ops == fast.trace().ops

    @staticmethod
    def _serve_growing(strategy, callbacks):
        """Creates interleaved with pumps, well past 256 variables (the
        residency store's initial capacity), so the store grows while the
        kernel is armed."""
        sess = ServeSession(Mesh2D(4, 4), strategy, seed=0, record=False)
        for vid in range(8):
            sess.create(vid % 16, 128)
        done = []
        on_done = (lambda it, t, v: done.append(t)) if callbacks else None
        for i in range(640):
            if i % 2 == 0:
                sess.create((7 * i) % 16, 64 + i % 3 * 64)
            n_vars = sess.created
            vid = (i * i + 3 * i) % n_vars if i % 3 else n_vars - 1
            sess.submit("w" if i % 5 == 0 else "r", (5 * i + 3) % 16, vid,
                        arrival=i * 1.5e-4, on_done=on_done)
            if i % 40 == 39:
                sess.pump(until=i * 1.5e-4)
        report = sess.close().as_dict()
        for key in WALL_FIELDS:
            report.pop(key)
        return sess, report, done

    @pytest.mark.parametrize("strategy", [
        "4-ary", "tree:4:remap=4", "fixed-home", "adaptive", "migratory",
    ])
    def test_creates_after_first_pump_past_store_capacity(self, ckernel, strategy):
        classic, classic_report, done = self._serve_growing(strategy, callbacks=True)
        fast, fast_report, _ = self._serve_growing(strategy, callbacks=False)
        assert (classic._mode, fast._mode) == ("classic", "fast")
        assert fast.created == 328
        assert len(done) == 640
        assert classic_report == fast_report  # exact, field by field
