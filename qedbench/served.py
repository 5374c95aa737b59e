"""The ``serve`` workload: served traffic against ``scripts/serve_qed.py serve``.

The cache starts empty.  Set-up spawns the server (``--workers 2``), waits
for ``/healthz`` and fills the hot set.  Then two phases run:

* open loop -- warm repeats of the hot set at a fixed 100 req/s, timed
  from each request's *scheduled* send time, and beside them one novel
  cold job about every 2 s, submitted twice back to back (the duplicate
  must coalesce).  A cold job is a Single-I bug with the industrial flow
  on and a seed-derived CRS seed: a real solve plus a cache write.
* closed loop -- warm hits back to back over 2 connections (saturation).

The load comes from this one process over at most 2 threads; the seed sets
the arrival jitter, the warm key sequence and the cold jobs' CRS seeds.
Served cold records must equal direct ``detect_bug`` records.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.eval.campaign import (
    CampaignConfig,
    detect_bug,
    record_comparable_dict,
    record_from_json_dict,
)
from repro.indverif.crs import CRSConfig
from repro.obs import trace as obs_trace
from repro.obs.metrics import parse_prometheus
from repro.serve import ServeClient, ServeError

from qedbench.common import (
    LATENCY_LIMIT_S,
    ROOT,
    BenchError,
    child_env,
    state_path,
)
from qedbench.layers import Work, layer_metrics, layer_seconds, share

HOT_BUGS = ("sra_zero_fill", "cmpi_carry_spec", "ror_direction", "satadd_clamp")
HOT_CONFIG = CampaignConfig(run_industrial_flow=False, run_directed_tests=False)
#: The spec bug: CRS never catches it, so every cold job runs the full
#: industrial flow and costs the same (the other Single-I bugs stop early
#: on a CRS hit, which would make cold time depend on the CRS seed).
COLD_BUG = "cmpi_carry_spec"
SERVER_WORKERS = 2
SENDERS = 2
WARM_RATE = 100.0
COLD_INTERVAL = 2.0
#: Every Nth warm request of the traced pass fetches its server trace.
WARM_TRACE_EVERY = 10
SERVER_START_TIMEOUT = 60.0


class Server:
    """One ``serve_qed.py serve`` process with its own empty cache."""

    def __init__(self, tag: str) -> None:
        self.cache_dir = state_path(f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.log_path = os.path.join(self.cache_dir, "server.log")
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> str:
        """Spawn the server and return its URL once ``/healthz`` is 200."""
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join("scripts", "serve_qed.py"),
                 "serve", "--port", "0", "--workers", str(SERVER_WORKERS),
                 "--cache-dir", self.cache_dir],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=log, start_new_session=True,
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise BenchError(f"server did not start: {line!r} ({self._log_tail()})")
        self.url = line.split()[2]
        client = ServeClient(self.url, timeout=5.0, retries=0)
        while not client.healthy():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError(f"server never became healthy ({self._log_tail()})")
            time.sleep(0.005)
        return self.url

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as stream:
                return stream.read()[-400:].decode(errors="replace")
        except OSError:
            return "no log"

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the group; wait; drop the cache."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def comparable(record: Dict[str, object]) -> Dict[str, object]:
    return record_comparable_dict(record_from_json_dict(record))


def fill_hot_set(url: str) -> List[Dict[str, object]]:
    """Solve the hot set once; returns each hot key's comparable record."""
    client = ServeClient(url, timeout=60.0)
    views = [client.submit(bug_id=bug, config=HOT_CONFIG) for bug in HOT_BUGS]
    records = []
    for bug, view in zip(HOT_BUGS, views):
        final = view if view.done else client.wait_done(view.job_id, timeout=120)
        if final.state != "done" or not final.record:
            raise BenchError(f"hot-set job {bug} ended {final.state}: {final.error}")
        if not final.record["detected_by"].get("single_i"):
            raise BenchError(f"hot-set job {bug}: Single-I missed the bug")
        records.append(comparable(final.record))
    return records


def start_server(tag: str) -> Tuple[Server, List[Dict[str, object]], float]:
    """Spawn + healthy + hot set filled; returns the set-up seconds."""
    server = Server(tag)
    start = time.perf_counter()
    try:
        url = server.start()
        hot = fill_hot_set(url)
    except BaseException:
        server.stop()
        raise
    return server, hot, time.perf_counter() - start


# ----------------------------------------------------------------------
@dataclass
class ColdJob:
    bug_id: str
    config: CampaignConfig
    #: ``perf_counter`` stamps of the first submission and of the verdict.
    submitted: float = 0.0
    settled: float = 0.0
    job_id: str = ""
    record: Optional[Dict[str, object]] = None
    verdict_seconds: float = 0.0
    spans: List[dict] = field(default_factory=list)
    #: The server evicted the job's trace before it finished (its bounded
    #: trace store keeps the newest jobs, and warm hits are jobs too).
    trace_lost: bool = False


@dataclass
class PhaseLog:
    """What one load phase observed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    slow: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Completion time (``perf_counter``) of each entry of ``latencies``.
    completed: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: ``perf_counter`` at the phase start (the windows' origin).
    started: float = 0.0
    #: (``serve.submit`` span seconds, server spans) of sampled warm requests.
    warm_traces: List[Tuple[float, List[dict]]] = field(default_factory=list)


def cold_jobs(seed: int, pass_index: int, count: int) -> List[ColdJob]:
    rng = random.Random(f"cold:{seed}:{pass_index}")
    jobs = []
    for k in range(count):
        crs = CRSConfig(seed=rng.randrange(1, 2**31))
        config = CampaignConfig(crs_config=crs)
        jobs.append(ColdJob(COLD_BUG, config))
    return jobs


def schedule(seed: int, seconds: float, cold: List[ColdJob]) -> List[Tuple[float, object]]:
    """(offset, hot key index | ColdJob) in send order."""
    rng = random.Random(f"arrivals:{seed}")
    period = 1.0 / WARM_RATE
    events: List[Tuple[float, object]] = [
        (i * period + rng.uniform(0.0, 0.4 * period), rng.randrange(len(HOT_BUGS)))
        for i in range(int(seconds * WARM_RATE))
    ]
    for k, job in enumerate(cold):
        events.append((0.5 + k * COLD_INTERVAL + rng.uniform(0.0, 0.5), job))
    events.sort(key=lambda event: event[0])
    return events


class _Load:
    """Shared state of the sender threads (guarded by ``lock``)."""

    def __init__(self, hot: List[Dict[str, object]], traced: bool) -> None:
        self.hot = hot
        self.traced = traced
        self.lock = threading.Lock()
        self.log = PhaseLog()
        self.pending: List[ColdJob] = []
        self.polling = False
        self.warm_count = 0

    def fail(self, note: str) -> None:
        with self.lock:
            self.log.failures.append(note)

    def warm(self, client: ServeClient, key: int, start: float,
             collector: Optional[obs_trace.ObsCollector]) -> None:
        """One warm request; latency counts from *start* (its schedule)."""
        span = collector.begin("serve.submit") if collector else None
        try:
            view = client.submit(bug_id=HOT_BUGS[key], config=HOT_CONFIG)
        except ServeError as exc:
            self.fail(f"warm request: {exc}")
            return
        finally:
            if span is not None:
                collector.end(span)
        done = time.perf_counter()
        with self.lock:
            self.log.latencies.append(done - start)
            self.log.completed.append(done)
            if done - start > LATENCY_LIMIT_S:
                self.log.slow += 1
            self.warm_count += 1
            sample = self.traced and self.warm_count % WARM_TRACE_EVERY == 0
        if not (view.cache_hit and view.state == "done" and view.record
                and comparable(view.record) == self.hot[key]):
            self.fail(f"warm request {view.job_id}: not the cached hot record")
        elif sample:
            spans = client.trace(view.job_id)["spans"]
            with self.lock:
                self.log.warm_traces.append((span["end"] - span["start"], spans))

    def cold(self, client: ServeClient, job: ColdJob) -> None:
        job.submitted = time.perf_counter()
        try:
            first = client.submit(bug_id=job.bug_id, config=job.config)
            second = client.submit(bug_id=job.bug_id, config=job.config)
        except ServeError as exc:
            self.fail(f"cold submission {job.bug_id}: {exc}")
            return
        job.job_id = first.job_id
        if first.cache_hit:
            self.fail(f"cold job {job.bug_id} was already cached")
        elif second.job_id != first.job_id:
            self.fail(f"cold duplicate {second.job_id} did not coalesce")
        with self.lock:
            self.pending.append(job)

    def poll(self, client: ServeClient) -> None:
        """Long-poll the oldest pending cold job until it is done.

        One sender at a time takes this duty; the other keeps the warm
        schedule.  Time-to-verdict runs from the first submission to the
        moment the done job is observed.
        """
        with self.lock:
            if not self.pending or self.polling:
                return
            self.polling = True
            job = self.pending.pop(0)
        try:
            settle(client, job, self.traced)
        except ServeError as exc:
            self.fail(f"cold job {job.bug_id}: {exc}")
        finally:
            with self.lock:
                self.polling = False


def settle(client: ServeClient, job: ColdJob, traced: bool) -> None:
    view = client.wait_done(job.job_id, timeout=120.0, poll=5.0)
    job.settled = time.perf_counter()
    job.verdict_seconds = job.settled - job.submitted
    if view.state != "done" or not view.record:
        raise ServeError(f"cold job {job.job_id} ended {view.state}: {view.error}")
    job.record = view.record
    if traced:
        try:
            job.spans = client.trace(job.job_id)["spans"]
        except ServeError as exc:
            if exc.status != 404:
                raise
            job.trace_lost = True


def _run_senders(load: _Load, target) -> None:
    def guarded(index: int) -> None:
        try:
            target(index)
        except Exception as exc:  # a sender bug must surface as a failure
            load.fail(f"sender {index}: {type(exc).__name__}: {exc}")

    # Daemons: after a SIGTERM has stopped the server, the process must not
    # wait for senders still working through the schedule.
    threads = [threading.Thread(target=guarded, args=(i,), daemon=True)
               for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(url: str, hot: List[Dict[str, object]], seed: int, seconds: float,
              cold: List[ColdJob], traced: bool) -> PhaseLog:
    """Warm repeats at WARM_RATE plus the cold jobs, on a fixed schedule."""
    load = _Load(hot, traced)
    events = schedule(seed, seconds, cold)
    cursor = [0]
    t0 = load.log.started = time.perf_counter() + 0.05

    def sender(_index: int) -> None:
        client = ServeClient(url, timeout=30.0)
        collector = obs_trace.ObsCollector() if traced else None
        while True:
            load.poll(client)
            with load.lock:
                if cursor[0] >= len(events):
                    return
                offset, item = events[cursor[0]]
                cursor[0] += 1
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with load.lock:
                load.log.lateness.append(time.perf_counter() - due)
                load.log.attempted += 2 if isinstance(item, ColdJob) else 1
            if isinstance(item, ColdJob):
                load.cold(client, item)
            else:
                load.warm(client, int(item), due, collector)

    _run_senders(load, sender)
    client = ServeClient(url, timeout=30.0)
    for job in load.pending:
        try:
            settle(client, job, traced)
        except ServeError as exc:
            load.fail(f"cold job {job.bug_id}: {exc}")
    return load.log


def closed_loop(url: str, hot: List[Dict[str, object]], seed: int,
                seconds: float, traced: bool) -> PhaseLog:
    """Warm hits back to back over SENDERS connections for *seconds*."""
    load = _Load(hot, traced)
    start = load.log.started = time.perf_counter()
    stop_at = start + seconds

    def sender(index: int) -> None:
        client = ServeClient(url, timeout=30.0)
        collector = obs_trace.ObsCollector() if traced else None
        rng = random.Random(f"closed:{seed}:{index}")
        while time.perf_counter() < stop_at:
            with load.lock:
                load.log.attempted += 1
            load.warm(client, rng.randrange(len(HOT_BUGS)), time.perf_counter(),
                      collector)

    _run_senders(load, sender)
    return load.log


def server_counters(url: str) -> Dict[str, float]:
    """Queue counters from ``/stats`` and solver counters from ``/metrics``."""
    client = ServeClient(url, timeout=30.0)
    queue = client.stats()["queue"]
    metrics = parse_prometheus(client.metrics_text())

    def total(name: str) -> float:
        return sum(v for k, v in metrics.items()
                   if k == name or k.startswith(name + "{"))

    return {
        "submitted": float(queue["jobs_submitted"]),
        "cache_hits": float(queue["cache_hits"]),
        "coalesced": float(queue["coalesced"]),
        "rejected": total("qed_admission_rejections_total"),
        "conflicts": total("qed_solver_conflicts_total"),
        "decisions": total("qed_solver_decisions_total"),
        "propagations": total("qed_solver_propagations_total"),
        "learned": total("qed_solver_learned_clauses_total"),
        "solve_seconds": metrics.get('qed_stage_seconds_total{stage="solve"}', 0.0),
    }


def verify_cold(jobs: List[ColdJob]) -> Tuple[List[str], int]:
    """Served cold records vs direct ``detect_bug``; returns (failures, misses)."""
    failures: List[str] = []
    misses = 0
    obs_trace.set_enabled(False)
    for job in jobs:
        if job.record is None:
            continue  # already reported when the job failed to settle
        if not job.record["detected_by"].get("single_i"):
            misses += 1
        direct = detect_bug(job.bug_id, job.config)
        if record_comparable_dict(direct) != comparable(job.record):
            failures.append(f"cold job {job.job_id}: served record differs from direct")
    return failures, misses


@dataclass
class ServePass:
    """One open + closed loop pass and what it cost the server."""

    open: PhaseLog
    closed: PhaseLog
    cold: List[ColdJob]
    failures: List[str]
    misses: int
    counters: Dict[str, float]

    @property
    def attempted(self) -> int:
        return self.open.attempted + self.closed.attempted

    @property
    def not_passed(self) -> int:
        return (len(self.failures) + self.misses + self.open.slow
                + self.closed.slow)

    @property
    def settled(self) -> List[ColdJob]:
        """The cold jobs that reached a verdict."""
        return [job for job in self.cold if job.record is not None]

    @property
    def verdict_times(self) -> List[float]:
        return [job.verdict_seconds for job in self.settled]


def serve_pass(url: str, hot: List[Dict[str, object]], seed: int,
               seconds: float, pass_index: int, traced: bool) -> ServePass:
    open_seconds = 0.6 * seconds
    closed_seconds = 0.08 * seconds
    count = max(1, int((open_seconds - 1.0) / COLD_INTERVAL))
    cold = cold_jobs(seed, pass_index, count)
    before = server_counters(url)
    opened = open_loop(url, hot, seed + pass_index, open_seconds, cold, traced)
    closed = closed_loop(url, hot, seed + pass_index, closed_seconds, traced)
    after = server_counters(url)
    failures, misses = verify_cold(cold)
    failures = opened.failures + closed.failures + failures
    delta = {name: after[name] - before[name] for name in after}
    return ServePass(opened, closed, cold, failures, misses, delta)


def serve_layers(run: ServePass) -> Dict[str, float]:
    """Per-layer rows of a traced serve pass (server spans + /metrics).

    Cold-path shares are over the cold jobs whose trace survived.
    """
    traced = [job for job in run.cold if job.spans]
    layers = layer_seconds(job.spans for job in traced)
    verdict = sum(job.verdict_seconds for job in traced)
    counters = run.counters
    work = Work(
        conflicts=int(counters["conflicts"]),
        decisions=int(counters["decisions"]),
        propagations=int(counters["propagations"]),
        learned=int(counters["learned"]),
        solve_seconds=counters["solve_seconds"],
    )
    rows = layer_metrics(layers, work, verdict)
    warm_samples = run.open.warm_traces + run.closed.warm_traces
    client_seconds = sum(seconds for seconds, _ in warm_samples)
    warm_layers = layer_seconds(spans for _, spans in warm_samples)
    rows.update({
        "queue.wait_share": share(layers["queue.wait"], verdict),
        "queue.attempt_share": share(layers["queue.attempt"], verdict),
        "cache.write_share": share(layers["cache.write"], verdict),
        "serve.resolve_share": share(warm_layers["serve.resolve"], client_seconds),
        "serve.lint_share": share(warm_layers["serve.lint"], client_seconds),
        "cache.read_share": share(warm_layers["cache.read"], client_seconds),
        "cache.hit_share": share(counters["cache_hits"], counters["submitted"]),
        "queue.coalesced": counters["coalesced"],
        "admission.rejected": counters["rejected"],
    })
    return rows
