"""Unit and solver-integration tests for ``repro.obs.telemetry``."""

import random

import pytest

from repro.obs import telemetry as obs_telemetry
from repro.obs.telemetry import TelemetrySink
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolverStatus


def make_sink(**kwargs):
    kwargs.setdefault("min_interval_seconds", 0.0)
    return TelemetrySink(**kwargs)


class TestSinkRing:
    def test_record_stamps_seq_pid_time_and_site(self):
        sink = make_sink()
        heartbeat = sink.record("restart", conflicts=7)
        assert heartbeat["seq"] == 0
        assert heartbeat["site"] == "restart"
        assert heartbeat["conflicts"] == 7
        assert isinstance(heartbeat["pid"], int)
        assert heartbeat["t"] > 0
        assert sink.record("db_reduce")["seq"] == 1

    def test_ring_bound_drops_oldest_and_counts(self):
        sink = make_sink(max_heartbeats=3)
        for index in range(5):
            sink.record("restart", conflicts=index)
        assert len(sink.heartbeats) == 3
        assert sink.dropped == 2
        assert [hb["conflicts"] for hb in sink.snapshot()] == [2, 3, 4]

    def test_max_heartbeats_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetrySink(max_heartbeats=0)

    def test_due_throttles_by_min_interval(self):
        sink = TelemetrySink(min_interval_seconds=3600.0)
        assert sink.due()  # nothing sampled yet
        sink.record("restart")
        assert not sink.due()
        fast = make_sink()
        fast.record("restart")
        assert fast.due()

    def test_first_sample_and_flush_due_on_freshly_booted_host(
        self, monkeypatch
    ):
        # time.monotonic() counts from boot: a minute after boot it is
        # far below an hour-long throttle interval.  "Never sampled" must
        # still mean due, whatever the clock reads.
        monkeypatch.setattr(obs_telemetry.time, "monotonic", lambda: 60.0)
        flushed = []
        sink = TelemetrySink(
            min_interval_seconds=3600.0,
            flush_interval_seconds=3600.0,
            on_flush=flushed.append,
        )
        assert sink.due()
        sink.record("restart")
        assert flushed and len(flushed[0]) == 1
        assert not sink.due()

    def test_context_merges_and_none_drops(self):
        sink = make_sink()
        sink.set_context(bound=3, worker=1)
        heartbeat = sink.record("restart")
        assert heartbeat["bound"] == 3 and heartbeat["worker"] == 1
        sink.set_context(bound=None)
        assert "bound" not in sink.record("restart")
        # explicit fields win over ambient context
        sink.set_context(bound=5)
        assert sink.record("bound", bound=9)["bound"] == 9


class TestPpsWindow:
    def test_pps_derived_from_window(self):
        sink = make_sink()
        first = sink.record("restart", propagations=0)
        assert "pps" not in first  # single point, no span yet
        second = sink.record("restart", propagations=1000)
        assert second["pps"] > 0

    def test_window_resets_on_decreasing_propagations(self):
        sink = make_sink()
        sink.record("restart", propagations=5000)
        sink.record("restart", propagations=9000)
        # A fresh solver instance starts counting from scratch; the
        # window must not produce a negative or bogus rate.
        fresh = sink.record("restart", propagations=10)
        assert "pps" not in fresh
        assert sink.record("restart", propagations=500)["pps"] > 0


class TestForkShipping:
    def test_mark_and_batch_since(self):
        sink = make_sink()
        sink.record("restart", conflicts=1)
        mark = sink.mark()
        assert sink.batch_since(mark) == []
        sink.record("restart", conflicts=2)
        sink.record("db_reduce", conflicts=3)
        batch = sink.batch_since(mark)
        assert [hb["conflicts"] for hb in batch] == [2, 3]

    def test_batch_since_survives_ring_eviction(self):
        sink = make_sink(max_heartbeats=2)
        mark = sink.mark()
        for index in range(5):
            sink.record("restart", conflicts=index)
        # Only the retained tail can ship; older ones were evicted.
        assert [hb["conflicts"] for hb in sink.batch_since(mark)] == [3, 4]

    def test_absorb_merges_worker_batch(self):
        parent = make_sink()
        parent.record("restart", conflicts=1)
        worker = make_sink()
        worker.set_context(worker=3)
        worker.record("restart", conflicts=10)
        parent.absorb(worker.batch_since(0))
        assert [hb["conflicts"] for hb in parent.snapshot()] == [1, 10]
        assert parent.snapshot()[-1]["worker"] == 3


class TestFlush:
    def test_flush_ships_pending_once(self):
        batches = []
        sink = make_sink(on_flush=batches.append, flush_interval_seconds=0.0)
        sink.record("restart", conflicts=1)
        sink.record("restart", conflicts=2)
        sink.flush()
        shipped = [hb["conflicts"] for batch in batches for hb in batch]
        assert shipped == [1, 2]
        # nothing new -> flush ships nothing more
        sink.flush()
        assert sum(len(b) for b in batches) == 2

    def test_flush_interval_throttles_callback(self):
        batches = []
        sink = make_sink(
            on_flush=batches.append, flush_interval_seconds=3600.0
        )
        sink.record("restart", conflicts=1)  # first flush fires (t=0 base)
        sink.record("restart", conflicts=2)  # throttled
        total_auto = sum(len(b) for b in batches)
        assert total_auto < 2
        sink.flush()  # force ships the rest
        assert sum(len(b) for b in batches) == 2

    def test_callback_errors_are_swallowed_and_counted(self):
        def boom(batch):
            raise RuntimeError("flush failed")

        sink = make_sink(on_flush=boom, flush_interval_seconds=0.0)
        sink.record("restart")
        sink.flush()
        assert sink.flush_errors >= 1

    def test_detach_flush_stops_shipping(self):
        batches = []
        sink = make_sink(on_flush=batches.append, flush_interval_seconds=0.0)
        sink.detach_flush()
        sink.record("restart")
        sink.flush()
        assert batches == []


class TestModuleGlobals:
    def test_install_active_clear(self):
        assert obs_telemetry.active() is None
        sink = obs_telemetry.install()
        assert obs_telemetry.active() is sink
        obs_telemetry.clear()
        assert obs_telemetry.active() is None

    def test_set_enabled_masks_installed_sink(self):
        sink = obs_telemetry.install()
        obs_telemetry.set_enabled(False)
        assert not obs_telemetry.enabled()
        assert obs_telemetry.active() is None
        obs_telemetry.set_enabled(True)
        assert obs_telemetry.active() is sink


# ----------------------------------------------------------------------
def _hard_random_cnf(num_vars=120, num_clauses=516, seed=3):
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in variables)
        )
    cnf.add_clauses(clauses)
    return cnf


class TestSolverIntegration:
    def test_heartbeats_sampled_on_cold_branches(self):
        sink = obs_telemetry.install(
            TelemetrySink(min_interval_seconds=0.0)
        )
        solver = CDCLSolver(_hard_random_cnf())
        solver.solve()
        restarts = [
            hb for hb in sink.snapshot() if hb["site"] == "restart"
        ]
        assert len(restarts) >= 2
        conflicts = [hb["conflicts"] for hb in restarts]
        assert conflicts == sorted(conflicts)
        assert all(c > 0 for c in conflicts)
        latest = restarts[-1]
        for field in (
            "decisions",
            "propagations",
            "learned",
            "trail_depth",
            "decision_level",
            "learned_live",
            "arena_len",
            "restart_interval",
        ):
            assert field in latest
        # restart-site heartbeats carry the learned-DB LBD histogram
        assert isinstance(latest["lbd_hist"], dict)
        assert sum(latest["lbd_hist"].values()) <= latest["learned_live"]

    def test_results_identical_with_telemetry_on_and_off(self):
        solver_off = CDCLSolver(_hard_random_cnf())
        result_off = solver_off.solve()
        stats_off = (
            solver_off.stats.conflicts,
            solver_off.stats.decisions,
            solver_off.stats.propagations,
        )
        obs_telemetry.install(TelemetrySink(min_interval_seconds=0.0))
        solver_on = CDCLSolver(_hard_random_cnf())
        result_on = solver_on.solve()
        stats_on = (
            solver_on.stats.conflicts,
            solver_on.stats.decisions,
            solver_on.stats.propagations,
        )
        assert result_on.status is result_off.status
        assert result_on.model == result_off.model
        assert stats_on == stats_off

    def test_disabled_telemetry_samples_nothing(self):
        sink = obs_telemetry.install(
            TelemetrySink(min_interval_seconds=0.0)
        )
        obs_telemetry.set_enabled(False)
        solver = CDCLSolver(_hard_random_cnf())
        solver.solve()
        assert sink.snapshot() == []

    def test_solver_solves_without_any_sink(self):
        solver = CDCLSolver(_hard_random_cnf())
        assert solver.solve().status in (
            SolverStatus.SAT,
            SolverStatus.UNSAT,
        )
