"""The ``detect`` and ``prove`` workloads: direct solve jobs.

``detect`` runs every library bug through
:func:`repro.eval.campaign.detect_bug` with its ``FOCUS_SETS`` plan (the
paper's Tables 2-3 regime: SAT-heavy short queries).  ``prove`` runs the
three clean-design B.v6 jobs of ``scripts/bench_bmc.py`` through
``SymbolicQED(...).check`` (the UNSAT side, including the ``dist`` fork
pool).  The seed only permutes job order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bmc.engine import BMCStatus
from repro.dist.scheduler import SplitConfig
from repro.eval.campaign import FOCUS_SETS, CampaignConfig, detect_bug
from repro.obs import trace as obs_trace
from repro.qed import QEDMode, SymbolicQED

from qedbench.layers import Work, public_call_spans, traced_job

#: Per-query conflict budget of ``detect``.  ``beq_high_inverted`` needs
#: 2,045 conflicts, so the budget must stay at or above that.
DETECT_BUDGET = 3000
DETECT_CONFIG = CampaignConfig(
    run_industrial_flow=False,
    run_directed_tests=False,
    max_conflicts_per_query=DETECT_BUDGET,
)
PLANNED_FEATURE = {
    QEDMode.EDDIV: "eddiv",
    QEDMode.EDDIV_CF: "qed_cf",
    QEDMode.EDDIV_MEM: "qed_mem",
    "single_i": "single_i",
}
B_V6_FOCUS = ["LDI", "MOV", "INC", "ADD", "STA", "LDA"]


@dataclass(frozen=True)
class ProveJob:
    version: str
    mode: QEDMode
    focus: List[str]
    bound: int
    check: Dict[str, object]
    #: The budget may legitimately leave bounds UNKNOWN.
    budgeted: bool = False
    #: Run name in ``BENCH_bmc.json`` whose counters this job must match.
    bench_bmc_run: Optional[str] = None
    #: Parallel cube solving: work counters are not required to repeat.
    parallel: bool = False


PROVE_JOBS: Dict[str, ProveJob] = {
    "soundness": ProveJob(
        "B.v6", QEDMode.EDDIV, B_V6_FOCUS, 6, {},
        bench_bmc_run="soundness/B.v6/eddiv",
    ),
    "depth": ProveJob(
        "B.v6", QEDMode.EDDIV_CF, ["LDI", "ADD", "CMPI", "BZ"], 7,
        {
            "single_query": False,
            "max_conflicts_per_query": 3000,
            "split": SplitConfig(workers=1, cube_conflict_budget=1500),
        },
        budgeted=True,
        bench_bmc_run="depth/B.v6/eddiv_cf/budget3000",
    ),
    "w2": ProveJob(
        "B.v6", QEDMode.EDDIV, B_V6_FOCUS, 5,
        {"split": SplitConfig(workers=2, cube_conflict_budget=4000)},
        parallel=True,
    ),
}
#: ``detect`` job whose counters ``BENCH_bmc.json`` records.
DETECT_BENCH_BMC = {"wrport_collision": "detection/A.v3/eddiv"}


@dataclass
class JobOutcome:
    """One job: its time-to-verdict and what the oracle made of it."""

    name: str
    seconds: float
    #: Met its oracle: the expected, definitive verdict.
    passed: bool
    #: Errored or produced a wrong output (a verdict the design contradicts).
    failed: bool = False
    note: str = ""
    work: Work = field(default_factory=Work)
    cex_instructions: int = 0
    frames_proven: int = 0
    #: Counters that must repeat exactly across runs (empty: none required).
    deterministic: Dict[str, int] = field(default_factory=dict)
    #: ``perf_counter`` stamps around the job (for ``CpuProbe``).
    started: float = 0.0
    ended: float = 0.0


# ----------------------------------------------------------------------
def detect_order(seed: int) -> List[str]:
    order = sorted(FOCUS_SETS)
    random.Random(seed).shuffle(order)
    return order


def run_detect_job(bug_id: str) -> JobOutcome:
    work = Work()
    start = time.perf_counter()
    try:
        record = detect_bug(bug_id, DETECT_CONFIG, on_bound=work.add_bound)
    except Exception as exc:  # reported as a failed operation
        return JobOutcome(bug_id, time.perf_counter() - start, False, True,
                          f"error {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    work.learned_reused = record.qed_learned_clauses_reused
    mode = FOCUS_SETS[bug_id]["mode"]
    feature = PLANNED_FEATURE[mode]
    cex = record.qed_counterexample_instructions
    outcome = JobOutcome(bug_id, seconds, False, work=work, cex_instructions=cex)
    if record.detected_by.get(feature):
        if mode != "single_i" and cex < 1:
            outcome.failed = True
            outcome.note = f"{feature} violation without a replayed counterexample"
        else:
            outcome.passed = True
    elif not record.qed_definitive:
        outcome.note = f"{feature} UNKNOWN at the {DETECT_BUDGET}-conflict budget"
    else:
        outcome.note = f"{feature} reported no violation within the bound"
    outcome.deterministic = dict(work.deterministic(), cex_instructions=cex)
    return outcome


# ----------------------------------------------------------------------
def prove_order(seed: int) -> List[str]:
    order = sorted(PROVE_JOBS)
    random.Random(seed).shuffle(order)
    return order


def run_prove_job(name: str) -> JobOutcome:
    job = PROVE_JOBS[name]
    start = time.perf_counter()
    try:
        with obs_trace.span("qed.compose"):
            harness = SymbolicQED(
                job.version, mode=job.mode, focus_opcodes=job.focus,
                tracked_registers=(0,),
            )
        result = harness.check(max_bound=job.bound, **job.check).bmc_result
    except Exception as exc:  # reported as a failed operation
        return JobOutcome(name, time.perf_counter() - start, False, True,
                          f"error {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    work = Work(learned_reused=result.learned_clauses_reused)
    for stats in result.per_bound_stats:
        work.add_bound(stats)
    outcome = JobOutcome(name, seconds, False, work=work,
                         frames_proven=result.frames_proven)
    unknown = any(s.verdict == "unknown" for s in result.per_bound_stats)
    if result.status is BMCStatus.VIOLATION:
        outcome.failed = True
        outcome.note = "wrong verdict: violation on the clean design"
    elif result.status is not BMCStatus.NO_VIOLATION_WITHIN_BOUND:
        outcome.failed = True
        outcome.note = f"unexpected status {result.status.value!r}"
    elif result.bound_reached != job.bound or result.deadline_expired:
        outcome.note = f"stopped at bound {result.bound_reached} of {job.bound}"
    elif unknown and not job.budgeted:
        outcome.note = "UNKNOWN where a definitive verdict is expected"
    else:
        outcome.passed = True
    outcome.deterministic = {"frames_proven": result.frames_proven}
    if not job.parallel:
        outcome.deterministic.update(work.deterministic())
    return outcome


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, tuple] = {
    "detect": (detect_order, run_detect_job, DETECT_BENCH_BMC),
    "prove": (
        prove_order,
        run_prove_job,
        {n: j.bench_bmc_run for n, j in PROVE_JOBS.items() if j.bench_bmc_run},
    ),
}


@dataclass
class PassResult:
    """One pass over a workload's jobs."""

    jobs: List[JobOutcome]
    #: First submission to last verdict.
    seconds: float
    #: One span list per traced job.
    traces: List[List[dict]] = field(default_factory=list)


def run_pass(
    workload: str, seed: int, *, traced: bool,
    jobs: Optional[List[str]] = None,
) -> PassResult:
    """Run every job once, serially; *traced* records spans per job."""
    order_of, run, _ = WORKLOADS[workload]
    names = jobs if jobs is not None else order_of(seed)
    obs_trace.set_enabled(traced)
    outcomes: List[JobOutcome] = []
    traces: List[List[dict]] = []
    start = time.perf_counter()
    if traced:
        with public_call_spans():
            for name in names:
                with traced_job(name, traces):
                    outcomes.append(run(name))
    else:
        for name in names:
            began = time.perf_counter()
            outcomes.append(run(name))
            outcomes[-1].started, outcomes[-1].ended = began, time.perf_counter()
    return PassResult(outcomes, time.perf_counter() - start, traces)


def run_traced(
    workload: str, seed: int, jobs: Optional[List[str]] = None
) -> Tuple[PassResult, PassResult]:
    """A traced pass over every job, plus an untraced run of the last
    third of them (in seed order) to measure the tracing overhead.

    The first run of a design version pays the program's per-version
    memoization (elaboration, lint).  Pairing the last jobs lets earlier
    jobs warm what they share, and alternating which run of a pair goes
    first splits the rest evenly, so the ratio measures tracing, not
    warm-up.  Pass seconds are summed job times.
    """
    names = jobs if jobs is not None else WORKLOADS[workload][0](seed)
    first_paired = len(names) - -(-len(names) // 3)
    untraced, traced = PassResult([], 0.0), PassResult([], 0.0)
    for index, name in enumerate(names):
        if index < first_paired:
            order: Tuple[bool, ...] = (True,)
        elif (index - first_paired) % 2 == 0:
            order = (False, True)
        else:
            order = (True, False)
        for flag in order:
            one = run_pass(workload, seed, traced=flag, jobs=[name])
            target = traced if flag else untraced
            target.jobs += one.jobs
            target.seconds += one.seconds
            target.traces += one.traces
    return untraced, traced
