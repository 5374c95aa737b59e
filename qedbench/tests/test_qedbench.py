"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:  ``python3 -m pytest qedbench/tests -q``.
The smoke runs spawn the real entry point at ``--smoke`` size (about a
minute in total); the rest are in-process and fast.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from qedbench import common  # noqa: E402

common.require_program()

from qedbench import run as bench_run  # noqa: E402

RUN = os.path.join("qedbench", "run.py")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def invoke(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = load_benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "qedbench/run.py"]
    assert spec["paths"] == ["qedbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_workload_records_why_it_was_chosen():
    for workload in load_benchmark_json()["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert why.strip() and "\n" not in why and len(why) <= 200


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_smoke_size(workload, trace):
    done = invoke("--workload", workload, "--seed", "7", "--seconds", "4",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = load_benchmark_json()
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for metric in declared:  # the human table names every metric with its unit
        assert metric["name"] in done.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "qedbench"), tmp_path / "qedbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("--workload", "detect", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
def _fake_record(bug_id, detected):
    from repro.eval.campaign import FOCUS_SETS, BugDetectionRecord
    from qedbench.direct import PLANNED_FEATURE

    feature = PLANNED_FEATURE[FOCUS_SETS[bug_id]["mode"]]
    return BugDetectionRecord(
        bug_id=bug_id, version_name="A.v1", detected_by={feature: detected},
        qed_counterexample_instructions=3 if detected else 0,
        qed_definitive=True,
    )


@pytest.mark.parametrize("verdict_ok", [True, False])
def test_an_injected_wrong_verdict_raises_fail_share(monkeypatch, tmp_path, verdict_ok):
    from qedbench import direct

    monkeypatch.setattr(common, "STATE_DIR", str(tmp_path))
    monkeypatch.setattr(
        direct, "detect_bug",
        lambda bug_id, config, on_bound=None: _fake_record(bug_id, verdict_ok),
    )
    report = bench_run.measure_direct("detect", 3, 0.1, 0, smoke=True)
    fail_share = report.metrics["fail_share"].value
    assert fail_share == (0.0 if verdict_ok else 1.0)
    assert report.metrics["pass_share"].value == 1.0 - fail_share
    assert any("miss:" in note for note in report.notes) is (not verdict_ok)


def test_a_violation_on_the_clean_design_is_a_failed_operation(monkeypatch, tmp_path):
    from repro.bmc.engine import BMCStatus
    from qedbench import direct

    class Harness:
        def __init__(self, *args, **kwargs):
            pass

        def check(self, **kwargs):
            class Result:
                status = BMCStatus.VIOLATION
                per_bound_stats = []
                frames_proven = 0
                learned_clauses_reused = 0
                bound_reached = 5
                deadline_expired = False

            class Check:
                bmc_result = Result()

            return Check()

    monkeypatch.setattr(common, "STATE_DIR", str(tmp_path))
    monkeypatch.setattr(direct, "SymbolicQED", Harness)
    report = bench_run.measure_direct("prove", 3, 0.1, 0, smoke=True)
    assert report.failed == report.attempted >= 1
    assert report.correct is False
    assert report.metrics["pass_share"].value == 0.0


# ----------------------------------------------------------------------
class _StallingClient:
    """Stands in for ServeClient: every warm hit takes SERVICE seconds,
    and requests sent in the first STALL seconds hold a shared lock for
    that long (a server stall)."""

    SERVICE = 0.002
    STALL = 0.3
    record = None
    started = None
    lock = threading.Lock()

    def __init__(self, url, **kwargs):
        pass

    def submit(self, **kwargs):
        if time.perf_counter() - type(self).started < self.STALL:
            with self.lock:
                left = self.STALL - (time.perf_counter() - type(self).started)
                time.sleep(max(0.0, left))
        time.sleep(self.SERVICE)
        from repro.serve.client import JobView

        return JobView(job_id="job-1", state="done", cache_hit=True,
                       record=dict(type(self).record))


def test_open_loop_latency_counts_from_the_scheduled_send(monkeypatch):
    from repro.eval.campaign import record_to_json_dict
    from qedbench import served

    record = record_to_json_dict(_fake_record("sra_zero_fill", True))
    _StallingClient.record = record
    _StallingClient.started = time.perf_counter()
    monkeypatch.setattr(served, "ServeClient", _StallingClient)
    hot = [served.comparable(record)] * len(served.HOT_BUGS)
    log = served.open_loop("http://stub", hot, seed=1, seconds=1.0, cold=[],
                           traced=False)
    assert log.failures == []
    assert len(log.latencies) == len(log.lateness) == 100
    # Requests due during the stall waited for it: timed from their
    # schedule they are slow, although each one's service time is 2 ms.
    assert common.percentile(log.latencies, 0.99) > 0.1
    assert common.percentile(log.lateness, 0.99) > 0.05
    assert common.median(log.latencies) < 0.1


# ----------------------------------------------------------------------
def test_mean_speed_trims_outliers_and_falls_back_to_nearest_samples():
    samples = [(float(t), 1.0, 0) for t in range(20)] + [(20.0, 9.0, 0),
                                                         (21.0, 0.1, 0)]
    # 22 samples: the top and bottom two are dropped, the outliers with them.
    assert common.mean_speed(samples, 0.0, 21.0) == 1.0
    few = [(0.0, 2.0, 0), (5.0, 4.0, 0), (9.0, 6.0, 0)]
    assert common.mean_speed(few, 4.9, 5.1) == 4.0
    assert common.mean_speed([], 0.0, 1.0) == 1.0


def test_mean_speed_leaves_out_time_stolen_from_the_cpu():
    ticks = common.CLOCK_TICKS
    # Over [2, 6] (bracketed by the samples at 2 and 6) a quarter of the
    # time was stolen: one second's worth of ticks in four seconds.
    samples = [(float(t), 2.0, 0 if t <= 2 else ticks) for t in range(10)]
    assert common.steal_share(samples, 2.0, 6.0) == 0.25
    assert common.mean_speed(samples, 2.0, 6.0) == 1.5
    assert common.steal_share(samples, 4.0, 9.0) == 0.0


def test_reference_seconds_weights_cpus_by_where_the_work_ran():
    probe = common.CpuProbe()
    probe.per_cpu = {0: [(t / 10, 2.0, 0) for t in range(100)],
                     1: [(t / 10, 1.0, 0) for t in range(100)]}
    # pid 7 ran 30 ticks on CPU 0 and 10 on CPU 1 between 1 s and 2 s.
    probe.tasks = {(7, 7): [(1.0, 0, 0), (1.5, 0, 30), (2.0, 1, 40)],
                   (8, 8): [(1.0, 1, 0), (2.0, 1, 500)]}
    assert probe.cpu_ticks(1.0, 2.0, {7}) == {0: 30, 1: 10}
    assert probe.reference_seconds(1.0, 2.0, cpu=0) == 2.0
    assert probe.reference_seconds(1.0, 2.0, pids={7}) == 1.75
    assert probe.reference_seconds(1.0, 2.0) == 1.5  # no pids: all CPUs
    assert probe.reference_seconds(1.0, 2.0, pids={9}) == 1.5  # no CPU time
    assert common.CpuProbe().reference_seconds(1.0, 2.5) == 1.5  # no samples


def test_probe_samples_every_cpu_and_stops_its_children():
    with common.CpuProbe(period=0.02, watch=True) as probe:
        children = [proc for _, proc in probe._procs]
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass  # work for the watcher to see
    assert all(proc.poll() is not None for proc in children)
    assert set(probe.per_cpu) == set(os.sched_getaffinity(0))
    assert all(len(samples) >= 3 for samples in probe.per_cpu.values())
    mine = [key for key in probe.tasks if key[0] == os.getpid()]
    assert mine
    spent = probe.cpu_ticks(0.0, time.perf_counter(), {os.getpid()})
    assert sum(spent.values()) > 0


def test_pinned_holds_one_cpu_and_forked_children_get_all_back():
    everything = os.sched_getaffinity(0)
    with common.pinned() as cpu:
        assert os.sched_getaffinity(0) == {cpu}
        read, write = os.pipe()
        child = os.fork()
        if child == 0:
            os.write(write, repr(sorted(os.sched_getaffinity(0))).encode())
            os._exit(0)
        os.waitpid(child, 0)
        assert os.read(read, 4096).decode() == repr(sorted(everything))
        os.close(read)
        os.close(write)
    assert os.sched_getaffinity(0) == everything
