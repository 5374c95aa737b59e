"""Run one benchmark workload and print its report.

    python3 qedbench/run.py --workload detect|prove|serve|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes an untraced pass and a traced pass of the same work
and reports the per-layer table (plus the tracing overhead between the
two).  ``--smoke`` shrinks every workload for the benchmark's own tests.
The last stdout line is the JSON result; the lines before it are the
human-readable table (metric, value, unit, samples) and the oracle's
notes.  ``--workload all`` runs the three workloads one after another,
each printing its table and result line.  Exit code 2 means the benchmark
could not run (no program here).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from qedbench.common import (  # noqa: E402
    BenchError,
    CpuProbe,
    Metric,
    bench_bmc_counters,
    check_counter_log,
    counter_differences,
    fresh_imports,
    host_calibration,
    median,
    peak_rss_mb,
    percentile,
    pinned,
    require_program,
    windows,
)

WORKLOADS = ("detect", "prove", "serve")

#: End-to-end metrics: (name, unit, better, bound).  Every workload
#: reports every one of them, and none of them reads 0.  ``op_ms`` is the
#: time of one user operation: the median warm hit on serve; on detect and
#: prove, whose operations are the solve jobs, the mean job time-to-verdict
#: (a median of 14 or 3 jobs swings with the host far more than their sum).
#: The times (setup_s, verdict_s, op_ms) are in reference seconds: wall
#: time scaled by the CPU speed a ``CpuProbe`` sampled meanwhile, net of
#: steal -- on detect and prove, of the CPU the pinned solver (and its
#: set-up interpreters) run on; on serve, of the CPUs the client, the
#: server and its pool workers ran on, weighted by their CPU time (set-up:
#: all CPUs).  The table also prints the wall figures.  On a shared
#: 2-vCPU VM (Xeon, 2.1 GHz) each vCPU's speed switches between states
#: ~25% apart for seconds at a time and the hypervisor at times steals
#: half of it; IQR/median over 10 runs of prove's wall verdict_s reached
#: 0.36, of its reference verdict_s 0.05.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verdict_s", "s", "lower", 0.24),
    ("op_ms", "ms", "lower", 0.24),
    ("pass_share", "share", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Per-layer metrics: (name, unit, better).  A layer that runs on every
#: workload reports seconds; the rest report a share of the traced
#: time-to-verdict (warm-path serve layers: of the warm request time).
PER_LAYER = (
    ("solver.self_s", "s", "lower"),
    ("preprocess.self_s", "s", "lower"),
    ("bmc.encode_s", "s", "lower"),
    ("bmc.coi_s", "s", "lower"),
    ("qed.compose_share", "share", "lower"),
    ("qed.cex_replay_share", "share", "lower"),
    ("qed.single_i_share", "share", "lower"),
    ("analysis.lint_share", "share", "lower"),
    ("dist.self_share", "share", "lower"),
    ("dist.cube_share", "share", "lower"),
    ("indverif.share", "share", "lower"),
    ("queue.wait_share", "share", "lower"),
    ("queue.attempt_share", "share", "lower"),
    ("cache.write_share", "share", "lower"),
    ("serve.resolve_share", "share", "lower"),
    ("serve.lint_share", "share", "lower"),
    ("cache.read_share", "share", "lower"),
    ("layers.unaccounted_share", "share", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.decisions", "count", "lower"),
    ("solver.propagations", "count", "lower"),
    ("solver.pps", "1/s", "higher"),
    ("solver.learned", "count", "lower"),
    ("solver.learned_reused", "count", "higher"),
    ("preprocess.vars_eliminated", "count", "higher"),
    ("preprocess.clauses_subsumed", "count", "higher"),
    ("preprocess.failed_literals", "count", "higher"),
    ("preprocess.slab_keep_ratio", "share", "lower"),
    ("bmc.cone_nodes", "count", "lower"),
    ("bmc.new_clauses", "count", "lower"),
    ("dist.cubes", "count", "lower"),
    ("dist.resplits", "count", "lower"),
    ("dist.clauses_shared", "count", "higher"),
    ("dist.cube_unknown_share", "share", "lower"),
    ("queue.coalesced", "count", "higher"),
    ("admission.rejected", "count", "lower"),
    ("cache.hit_share", "share", "higher"),
    ("cex_instr_max", "count", "lower"),
    ("frames_proven", "count", "higher"),
    ("fail_share", "share", "lower"),
    ("counters.mismatches", "count", "lower"),
    ("obs.overhead_share", "share", "lower"),
    ("serve.sat_rps", "1/s", "higher"),
    ("serve.warm_tail_ratio", "ratio", "lower"),
    ("loadgen.late_share", "share", "lower"),
    ("host.calib_s", "s", "lower"),
)

#: Modules a user of the direct API imports (``setup_s`` of detect/prove).
DIRECT_IMPORTS = ("repro.eval.campaign", "repro.qed", "repro.dist")
#: An open-loop send this late counts toward ``loadgen.late_share``.
LATE_SECONDS = 0.001
#: Window widths of the serve medians (open-loop latency, closed-loop rate).
WARM_WINDOW_S = 1.0
SAT_WINDOW_S = 0.5


@dataclass
class Report:
    """Everything one run prints."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def result(self, trace: int) -> Dict[str, object]:
        names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value,
                       "unit": self.metrics[name].unit}
                for name in names
            },
        }


def add_layer_rows(report: Report, rows: Dict[str, float], samples: int) -> None:
    """Fill the per-layer table; a layer this workload never runs reads 0."""
    for name, unit, _better in PER_LAYER:
        if name not in report.metrics:
            report.add(name, rows.get(name, 0.0), unit, samples)


# ----------------------------------------------------------------------
def direct_counters(passes) -> Dict[str, Dict[str, int]]:
    return {job.name: job.deterministic for job in passes[0].jobs if job.deterministic}


def check_determinism(workload: str, passes, report: Report) -> int:
    """Within-run, cross-run and ``BENCH_bmc.json`` counter checks."""
    from qedbench.direct import WORKLOADS as DIRECT

    reference = direct_counters(passes)
    differences: List[str] = []
    for later in passes[1:]:
        differences += counter_differences(
            reference, {j.name: j.deterministic for j in later.jobs}
        )
    differences += [f"vs last run: {d}" for d in check_counter_log(workload, reference)]
    committed = bench_bmc_counters()
    if committed is None:
        report.notes.append("BENCH_bmc.json not readable: cross-check skipped")
    else:
        for job, run_name in DIRECT[workload][2].items():
            if job in reference and run_name in committed:
                mine = {k: reference[job][k] for k in ("conflicts", "propagations")}
                differences += [
                    f"vs BENCH_bmc.json {run_name}: {d}"
                    for d in counter_differences({job: committed[run_name]}, {job: mine})
                ]
                if committed[run_name] == mine:
                    report.notes.append(
                        f"{job}: {mine['conflicts']} conflicts, "
                        f"{mine['propagations']} propagations match BENCH_bmc.json"
                    )
    for line in differences:
        report.notes.append(f"COUNTER MISMATCH {line}")
    return len(differences)


def score_jobs(report: Report, passes) -> None:
    for run in passes:
        for job in run.jobs:
            status = "pass" if job.passed else f"FAIL: {job.note}" if job.failed \
                else f"miss: {job.note}"
            report.notes.append(f"job {job.name}: {job.seconds:.3f} s, {status}")
            report.attempted += 1
            report.failed += int(job.failed)


def measure_direct(workload: str, seed: int, seconds: float, trace: int,
                   smoke: bool) -> Report:
    # The workload modules import the program, so they load only after
    # require_program() has put it on the path.
    from qedbench.direct import WORKLOADS as DIRECT, run_pass, run_traced
    from qedbench.layers import Work, accounted_seconds, layer_metrics, layer_seconds

    report = Report()
    jobs: Optional[List[str]] = None
    if smoke:
        jobs = DIRECT[workload][0](seed)[:2] if workload == "detect" else ["w2"]
    if trace:
        passes = list(run_traced(workload, seed, jobs))
    else:
        passes = []
        # The probe starts first, so that it samples every CPU; the set-up
        # interpreters inherit the pinned CPU.
        with CpuProbe() as probe, pinned() as cpu:
            setup = fresh_imports(DIRECT_IMPORTS, 1 if smoke else 5)
            start = time.perf_counter()
            while not passes or (
                time.perf_counter() - start + passes[-1].seconds <= seconds
            ):
                passes.append(run_pass(workload, seed + len(passes), traced=False,
                                       jobs=jobs))
    score_jobs(report, passes)
    report.correct = report.failed == 0
    # Every job once: all passes of an end-to-end run, the traced pass of
    # a traced run (its untraced pass covers only some jobs).
    scored = [job for run in (passes[1:] if trace else passes) for job in run.jobs]
    pass_share = sum(job.passed for job in scored) / len(scored)
    mismatches = check_determinism(workload, passes, report)
    if not trace:
        setup_s = [probe.reference_seconds(a, b, cpu) for a, b in setup]
        report.add("setup_s", median(setup_s), "s", len(setup_s))
        report.add("setup_wall_s", median([b - a for a, b in setup]), "s", len(setup))
        reference = [[probe.reference_seconds(job.started, job.ended, cpu)
                      for job in run.jobs] for run in passes]
        times = [seconds for run in reference for seconds in run]
        verdict = median([sum(run) for run in reference])
        wall = median([run.seconds for run in passes])
        report.add("verdict_s", verdict, "s", len(passes))
        report.add("verdict_wall_s", wall, "s", len(passes))
        report.add("cpu_speed", verdict / wall, "ratio", probe.sample_count)
        report.add("verdict_p50_s", median(times), "s", len(times))
        report.add("op_ms", 1000 * sum(times) / len(times), "ms", len(times))
        report.add("pass_share", pass_share, "share", len(scored))
        report.add("peak_rss_mb", peak_rss_mb(), "MB")
        report.add("fail_share", 1.0 - pass_share, "share", len(scored))
        report.add("host.calib_s", host_calibration(), "s", 5)
        return report

    untraced, traced = passes
    paired = {job.name for job in untraced.jobs}
    layers = layer_seconds(traced.traces)
    work = Work()
    for job in traced.jobs:
        work.merge(job.work)
    accounted = accounted_seconds(layers)
    remainder = traced.seconds - accounted
    report.notes.append(
        f"layers account for {100 * accounted / traced.seconds:.1f}% of the "
        f"traced verdict_s {traced.seconds:.3f} s; unaccounted {remainder:.3f} s"
    )
    if abs(remainder) > 0.1 * traced.seconds:
        report.notes.append("ACCOUNTING: per-layer self times miss verdict_s by >10%")
    rows = layer_metrics(layers, work, traced.seconds)
    rows.update({
        "cex_instr_max": max(job.cex_instructions for job in traced.jobs),
        "frames_proven": sum(job.frames_proven for job in traced.jobs),
        "fail_share": 1.0 - pass_share,
        "counters.mismatches": mismatches,
        "obs.overhead_share": sum(
            job.seconds for job in traced.jobs if job.name in paired
        ) / untraced.seconds - 1.0,
        "host.calib_s": host_calibration(),
    })
    add_layer_rows(report, rows, len(traced.jobs))
    return report


# ----------------------------------------------------------------------
def warm_figures(run, probe: CpuProbe, pids) -> Dict[str, float]:
    """Warm-path latency (open loop) and saturation rate (closed loop).

    p50 and p90 are medians over short windows, so a stall of the shared
    host that covers a few windows does not move them; p99 is over all
    samples.  ``ref_p50`` is the median over windows of each window's p50
    scaled to reference CPU speed by the speed *probe* saw, in that
    window, on the CPUs the threads of *pids* ran on.
    """
    warm = run.open.latencies
    start = run.open.started
    per_window = windows(run.open.completed, list(zip(run.open.completed, warm)),
                         start, WARM_WINDOW_S)
    p50s, reference = [], []
    for group in per_window:
        low = start + WARM_WINDOW_S * ((group[0][0] - start) // WARM_WINDOW_S)
        p50s.append(median([latency for _, latency in group]))
        reference.append(p50s[-1] * probe.reference_seconds(
            low, low + WARM_WINDOW_S, pids=pids) / WARM_WINDOW_S)
    closed = run.closed.completed
    rates = [(len(w) - 1) / (w[-1] - w[0])
             for w in windows(closed, closed, run.closed.started, SAT_WINDOW_S)
             if len(w) > 1]
    return {
        "p50": median(p50s),
        "ref_p50": median(reference),
        "p90": median([percentile([v for _, v in w], 0.9) for w in per_window]),
        "p99": percentile(warm, 0.99),
        "sat_rps": median(rates),
    }


def measure_serve(seed: int, seconds: float, trace: int, smoke: bool) -> Report:
    from qedbench import served
    from qedbench.layers import share

    report = Report()
    setups: List[tuple] = []
    server = None
    try:
        with CpuProbe(watch=True) as probe:
            for index in range(1 if smoke or trace else 3):
                if server is not None:
                    server.stop()
                server, hot, setup_seconds = served.start_server(f"s{index}")
                ended = time.perf_counter()
                setups.append((ended - setup_seconds, ended))
            server_pid = server.proc.pid
            runs = [served.serve_pass(server.url, hot, seed, seconds, index,
                                      bool(index))
                    for index in range(2 if trace else 1)]
    finally:
        if server is not None:
            server.stop()
    for run in runs:
        if not run.verdict_times:
            raise BenchError(f"no cold job reached a verdict: {run.failures[:3]}")
        report.attempted += run.attempted
        report.failed += len(run.failures)
        report.notes += run.failures
        report.notes.append("cold jobs (s to verdict): " + ", ".join(
            f"{t:.3f}" for t in run.verdict_times))
        if run.misses:
            report.notes.append(f"{run.misses} cold job(s) missed by Single-I")
        if run.open.slow + run.closed.slow:
            report.notes.append(
                f"{run.open.slow + run.closed.slow} warm request(s) over the "
                f"latency limit"
            )
    report.correct = report.failed == 0
    pass_share = 1.0 - sum(r.not_passed for r in runs) / report.attempted
    run = runs[0]
    warm = run.open.latencies
    late = run.open.lateness
    # Warm hits run in this process and the server's; cold jobs in its pool.
    figures = warm_figures(run, probe, {os.getpid(), server_pid})
    workers = set(probe.children_of(server_pid))
    report.notes.append(
        f"loadgen lateness p99 {1000 * percentile(late, 0.99):.3f} ms "
        f"over {len(late)} sends"
    )
    if not trace:
        verdicts = [probe.reference_seconds(job.submitted, job.settled,
                                            pids=workers)
                    for job in run.settled]
        wall = sum(run.verdict_times)
        # Set-up work runs in fresh server processes on any CPU.
        setup_s = [probe.reference_seconds(a, b) for a, b in setups]
        report.add("setup_s", median(setup_s), "s", len(setup_s))
        report.add("setup_wall_s", median([b - a for a, b in setups]), "s",
                   len(setups))
        report.add("verdict_s", sum(verdicts), "s", len(verdicts))
        report.add("verdict_wall_s", wall, "s", len(verdicts))
        report.add("cpu_speed", sum(verdicts) / wall, "ratio", probe.sample_count)
        report.add("verdict_p50_s", median(verdicts), "s", len(verdicts))
        report.add("op_ms", 1000 * figures["ref_p50"], "ms", len(warm))
        report.add("op_wall_ms", 1000 * figures["p50"], "ms", len(warm))
        report.add("warm_p90_ms", 1000 * figures["p90"], "ms", len(warm))
        report.add("warm_p99_ms", 1000 * figures["p99"], "ms", len(warm))
        report.add("sat_rps", figures["sat_rps"], "1/s", len(run.closed.completed))
        report.add("pass_share", pass_share, "share", report.attempted)
        report.add("peak_rss_mb", peak_rss_mb(), "MB")
        report.add("fail_share", 1.0 - pass_share, "share", report.attempted)
        report.add("host.calib_s", host_calibration(), "s", 5)
        return report
    traced = runs[1]
    lost = sum(job.trace_lost for job in traced.cold)
    if lost:
        report.notes.append(
            f"{lost} of {len(traced.cold)} cold job traces were evicted by the "
            f"server before the job finished; layers use the rest"
        )
    rows = served.serve_layers(traced)
    rows.update({
        "fail_share": 1.0 - pass_share,
        "obs.overhead_share": median(traced.open.latencies) / median(warm) - 1.0,
        "serve.sat_rps": figures["sat_rps"],
        "serve.warm_tail_ratio": figures["p99"] / figures["p50"],
        "loadgen.late_share": share(sum(t > LATE_SECONDS for t in late), len(late)),
        "host.calib_s": host_calibration(),
    })
    add_layer_rows(report, rows, len(traced.cold) - lost)
    return report


# ----------------------------------------------------------------------
def print_report(workload: str, trace: int, report: Report) -> None:
    print(f"qedbench {workload} ({'traced' if trace else 'end to end'})")
    for name, metric in report.metrics.items():
        print(f"  {name:28s} {metric.value:>14.6g} {metric.unit:6s} n={metric.samples}")
    print(f"  attempted {report.attempted}, failed {report.failed}, "
          f"correct {report.correct}")
    for note in report.notes:
        print(f"  - {note}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (the benchmark's own tests)")
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds finally blocks: servers stop


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            require_program()
            if workload == "serve":
                report = measure_serve(args.seed, args.seconds, args.trace,
                                       args.smoke)
            else:
                report = measure_direct(workload, args.seed, args.seconds,
                                        args.trace, args.smoke)
        except BenchError as exc:
            print(f"qedbench: {exc}", file=sys.stderr)
            return 2
        print_report(workload, args.trace, report)
        print(json.dumps(report.result(args.trace)), flush=True)
        correct = correct and report.correct
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
