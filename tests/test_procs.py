"""The fork-child runner: outcomes, event streaming, obs shipping, teardown."""

import asyncio
import os
import signal
import time

import pytest

from repro import procs
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs_trace.clear()
    obs_telemetry.clear()
    obs_metrics.reset_process_metrics()


RUNNERS = [procs.Child, procs.ThreadChild]


def _echo(emit, value):
    emit({"bound": 1})
    emit({"__telemetry__": [{"seq": 0}]})
    return value


def _raise(emit):
    raise ValueError("bad spec")


def _exit_hard(emit):
    emit({"bound": 1})
    os._exit(3)


def _record_obs(emit):
    """Record one span, one heartbeat and one metric; ship them home."""
    mark = procs.mark()
    with obs_trace.span("child.work"):
        obs_telemetry.active().record("child.site", conflicts=7)
        obs_metrics.process_metrics().inc("child_jobs_total")
    return procs.ship(mark)


def _ignore_sigterm(emit):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    emit("ready")
    while True:
        time.sleep(0.05)


def _ready(child, timeout=30.0):
    """Wait for the child's "ready" event (its signal setup is done)."""
    deadline = time.monotonic() + timeout
    while child.events() != ["ready"]:
        assert time.monotonic() < deadline, "child never got ready"
        child.wait(0.05)
    return child


def _wait_done(child, timeout=30.0):
    assert child.wait(timeout), "child did not finish"
    return child


class TestOutcomes:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_result_and_events_in_order(self, runner):
        child = _wait_done(runner(_echo, {"answer": 42}))
        assert child.events() == [{"bound": 1}, {"__telemetry__": [{"seq": 0}]}]
        assert child.events() == []  # each event is returned once
        assert child.outcome() == {"result": {"answer": 42}}

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_exception_is_an_error_outcome(self, runner):
        child = _wait_done(runner(_raise))
        assert child.outcome() == {"error": "ValueError: bad spec"}

    def test_dead_child_is_crashed_with_exitcode(self):
        child = _wait_done(procs.Child(_exit_hard))
        # An event sent just before the death still arrives.
        assert child.events() == [{"bound": 1}]
        assert child.outcome() == {"crashed": True, "exitcode": 3}

    def test_child_is_a_direct_child_of_the_caller(self):
        child = procs.Child(_echo, None)
        with open(f"/proc/{child.pid}/stat") as stream:
            ppid = int(stream.read().rsplit(")", 1)[1].split()[1])
        _wait_done(child)
        assert ppid == os.getpid()


class TestObsShipping:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_span_heartbeat_and_metric_arrive_after_absorb(self, runner):
        collector = obs_trace.start_trace()
        sink = obs_telemetry.install(obs_telemetry.TelemetrySink())
        child = _wait_done(runner(_record_obs))
        procs.absorb(child.outcome()["result"])
        # Exactly once each: a forked child's records arrive through the
        # payload; a thread's were recorded in place and are not doubled.
        spans = [s for s in collector.spans if s["name"] == "child.work"]
        assert len(spans) == 1 and spans[0]["end"] is not None
        beats = [h for h in sink.snapshot() if h["site"] == "child.site"]
        assert len(beats) == 1 and beats[0]["conflicts"] == 7
        assert obs_metrics.process_metrics().counter_value("child_jobs_total") == 1

    def test_payload_carries_only_what_was_recorded_since_the_mark(self):
        obs_trace.start_trace()
        sink = obs_telemetry.install(obs_telemetry.TelemetrySink())
        with obs_trace.span("before"):
            sink.record("before.site")
            obs_metrics.process_metrics().inc("before_total")
        payload = _record_obs(None)
        assert [s["name"] for s in payload["spans"]] == ["child.work"]
        assert [h["site"] for h in payload["heartbeats"]] == ["child.site"]
        assert list(payload["metrics"]["counters"]) == ["child_jobs_total"]


class TestTeardown:
    def test_kill_escalates_to_sigkill_and_reaps(self):
        child = _ready(procs.Child(_ignore_sigterm))
        started = time.monotonic()
        child.kill()
        # SIGTERM was ignored for the whole grace period, then SIGKILL.
        assert time.monotonic() - started >= procs.KILL_GRACE_SECONDS
        assert child.outcome() == {"crashed": True, "exitcode": -signal.SIGKILL}
        with pytest.raises(ProcessLookupError):
            os.kill(child.pid, 0)  # reaped: no process, not even a zombie

    def test_sigterm_reaches_the_child_of_an_asyncio_parent(self):
        # A serving parent's loop owns SIGTERM; its child must still die
        # on SIGTERM at once, and the parent's handler must not fire.
        fired = []

        async def body():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "parent")
            try:
                child = _ready(procs.Child(_sleep_forever))
                started = time.monotonic()
                child.kill()
                elapsed = time.monotonic() - started
                await asyncio.sleep(0.1)  # a stray wakeup would land here
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
            return child, elapsed

        child, elapsed = asyncio.run(body())
        assert elapsed < procs.KILL_GRACE_SECONDS
        assert child.outcome() == {"crashed": True, "exitcode": -signal.SIGTERM}
        assert fired == []


def _sleep_forever(emit):
    emit("ready")
    while True:
        time.sleep(0.05)
