"""Shared plumbing: paths, statistics, host calibration, set-up timing and
the cross-run counter log."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``qedbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run-time scratch inside the checkout: server cache directories, logs
#: and the counter log.  Listed in ``.gitignore``.
STATE_DIR = os.path.join(ROOT, ".bench_state")
BENCH_BMC = os.path.join(ROOT, "BENCH_bmc.json")

#: Warm requests slower than this count against ``pass_share``.
LATENCY_LIMIT_S = 0.050


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, server failed)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the program on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def state_path(*parts: str) -> str:
    os.makedirs(STATE_DIR, exist_ok=True)
    return os.path.join(STATE_DIR, *parts)


# ----------------------------------------------------------------------
@dataclass
class Metric:
    """One reported number: value, unit and how many samples it summarises."""

    value: float
    unit: str
    samples: int = 1


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(max(rank - 1, 0), len(ordered) - 1)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def windows(stamps: Sequence[float], values: Sequence[float], start: float,
            width: float) -> List[List[float]]:
    """*values* grouped into consecutive *width*-second windows of *stamps*
    from *start*; the trailing partial window is dropped.  A phase shorter
    than one window is one group."""
    count = int((max(stamps) - start) // width) if stamps else 0
    if count == 0:
        return [list(values)] if values else []
    grouped: List[List[float]] = [[] for _ in range(count)]
    for stamp, value in zip(stamps, values):
        index = int((stamp - start) // width)
        if 0 <= index < count:
            grouped[index].append(value)
    return [group for group in grouped if group]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
def _calibration_kernel(rounds: int) -> int:
    # Fixed pure-Python work shaped like a solver inner loop: list
    # indexing, integer mixing and a sparse dict.  It never touches the
    # program, so it reads the same on every commit of one host.
    table = list(range(1024))
    seen: Dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        j = (i * 2654435761) & 1023
        acc ^= table[j]
        table[j] = (acc + i) & 0xFFFF
        if not i & 7:
            seen[j] = acc
    return acc + len(seen)


def host_calibration(reps: int = 5, rounds: int = 300_000) -> float:
    """Median seconds of a fixed micro-workload (``host.calib_s``)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _calibration_kernel(rounds)
        times.append(time.perf_counter() - start)
    return median(times)


#: Kernel time at reference CPU speed, for ``CpuProbe`` (rounds below).
#: A round figure close to the kernel's time on the 2-vCPU Xeon VM the
#: benchmark was tuned on, so reference seconds read close to wall seconds.
REFERENCE_KERNEL_S = 0.001
SAMPLE_ROUNDS = 3000
#: Clock ticks per second of ``/proc/stat``.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(path: str) -> List[str]:
    """Fields 3 onward of a ``stat(5)`` file (so field N is index N - 3)."""
    with open(path, "r", encoding="ascii", errors="replace") as stream:
        return stream.read().rsplit(")", 1)[1].split()


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on (Linux), or None."""
    try:
        return int(_stat_fields("/proc/thread-self/stat")[36])  # field 39
    except (OSError, IndexError, ValueError):
        return None


#: CPU set a forked child gets back while ``pinned`` holds its parent's
#: thread (None: nothing pinned).
_UNPINNED: Optional[set] = None


def _unpin_child() -> None:
    if _UNPINNED is not None:
        os.sched_setaffinity(0, _UNPINNED)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unpin_child)


@contextlib.contextmanager
def pinned() -> Iterator[Optional[int]]:
    """Pin the calling thread to the CPU it is on; yields that CPU.

    So that one CPU's speed samples describe all of a single-threaded
    job.  Processes forked from Python meanwhile (``multiprocessing``
    pools) get the full CPU set back; ``subprocess`` children keep the
    pin.  Yields None (nothing pinned) where the CPU cannot be read or
    set.
    """
    global _UNPINNED
    cpu = _current_cpu() if hasattr(os, "sched_setaffinity") else None
    if cpu is None:
        yield None
        return
    _UNPINNED = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the calling thread only
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, _UNPINNED)
        _UNPINNED = None


def mean_speed(samples: Sequence[tuple], start: float, end: float) -> float:
    """Speed a CPU delivered in [start, end], from its (stamp, speed,
    steal ticks) *samples*.

    Work done is wall time times mean speed.  The kernel's speed is the
    mean of the samples taken in the interval, the extreme tenth on each
    side dropped (a sample the host interrupted); an interval too short
    to hold three samples uses the three nearest ones.  The kernel times
    itself in CPU time, which leaves out time the hypervisor gave the
    vCPU's host core to another guest (steal), so the speed is scaled by
    the share of the interval that was not stolen.  No samples at all
    read as reference speed.
    """
    inside = sorted(s for t, s, _ in samples if start <= t <= end)
    if len(inside) < 3:
        middle = (start + end) / 2
        near = sorted(samples, key=lambda row: abs(row[0] - middle))
        inside = sorted(s for _, s, _ in near[:3])
    if not inside:
        return 1.0
    cut = len(inside) // 10
    kept = inside[cut:len(inside) - cut]
    return sum(kept) / len(kept) * (1.0 - steal_share(samples, start, end))


def steal_share(samples: Sequence[tuple], start: float, end: float) -> float:
    """Share of [start, end] stolen from the CPU, from the steal-tick
    counts of the samples bracketing the interval."""
    before = [row for row in samples if row[0] <= start] or samples[:1]
    after = [row for row in samples if row[0] >= end] or samples[-1:]
    if not before or after[0][0] <= before[-1][0]:
        return 0.0
    ticks = after[0][2] - before[-1][2]
    share = ticks / CLOCK_TICKS / (after[0][0] - before[-1][0])
    return min(max(share, 0.0), 0.95)


def _steal_ticks(cpu: int) -> int:
    """Steal time of *cpu* since boot, in clock ticks (``/proc/stat``)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return 0


def _probe_main(cpu: int, period: float) -> None:
    """Child side of ``CpuProbe``: sample one CPU until stdin closes."""
    import select

    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    out = []
    while not select.select([sys.stdin], [], [], period)[0]:
        start = time.thread_time()
        _calibration_kernel(SAMPLE_ROUNDS)
        spent = time.thread_time() - start
        if spent > 0:
            out.append(f"{time.perf_counter()!r} {REFERENCE_KERNEL_S / spent!r} "
                       f"{_steal_ticks(cpu)}")
    sys.stdout.write("\n".join(out))


def _descendants(root: int) -> List[tuple]:
    """(pid, parent pid) of *root* and every process below it."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                parents[int(name)] = int(_stat_fields(f"/proc/{name}/stat")[1])
            except (OSError, IndexError, ValueError):
                pass
    tree, frontier = [(root, parents.get(root, 0))], [root]
    while frontier:
        below = [pid for pid, ppid in parents.items() if ppid in frontier]
        tree += [(pid, parents[pid]) for pid in below]
        frontier = below
    return tree


def _watch_main(root: int, period: float) -> None:
    """Child side of ``CpuProbe(watch=True)``: every *period* seconds,
    each thread of *root*'s process tree, its CPU and its CPU ticks."""
    import select

    print("ready", flush=True)
    out = []
    tree: List[tuple] = []
    rescan = 0.0
    while not select.select([sys.stdin], [], [], period)[0]:
        now = time.perf_counter()
        if now >= rescan:  # pool workers may come and go
            tree, rescan = _descendants(root), now + 1.0
        for pid, ppid in tree:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    fields = _stat_fields(f"/proc/{pid}/task/{tid}/stat")
                    ticks = int(fields[11]) + int(fields[12])  # utime + stime
                    out.append(f"{now!r} {pid} {ppid} {tid} {fields[36]} {ticks}")
                except (OSError, IndexError, ValueError):
                    pass
    sys.stdout.write("\n".join(out))


class CpuProbe:
    """Samples the speed of every CPU, from one pinned child process each.

    On a shared host a vCPU's speed switches between states for seconds
    at a time (here ~25% apart, each vCPU on its own), so one wall-clock
    measurement of a long job reads whatever mix of states it met.  Each
    child wakes every *period* seconds, times a short fixed kernel (about
    1 ms, so about 1% of its CPU) in its own CPU time and records the
    speed: reference kernel time over measured kernel time, with the
    CPU's steal count.  The kernel never touches the program, so a change
    to the program does not move it.  ``reference_seconds`` turns a
    wall-clock interval into the seconds the same work takes at reference
    speed (see ``mean_speed``).

    With *watch*, one more (unpinned) child records, each period, the CPU
    and CPU time of every thread of this process's tree, so that work of
    processes the benchmark does not own (a server and its pool workers)
    can be scaled by the speed of the CPUs it actually ran on.  Where
    processes cannot be pinned the probe measures nothing and scales by 1.
    """

    def __init__(self, period: float = 0.1, watch: bool = False) -> None:
        self.period = period
        self.watch = watch
        self.per_cpu: Dict[int, List[tuple]] = {}
        #: (pid, tid) -> [(stamp, cpu, ticks)] of the watched threads.
        self.tasks: Dict[tuple, List[tuple]] = {}
        self.parent: Dict[int, int] = {}
        self._procs: List[tuple] = []

    def __enter__(self) -> "CpuProbe":
        if not hasattr(os, "sched_getaffinity"):
            return self
        prelude = f"import sys; sys.path.insert(0, {ROOT!r}); import qedbench.common as c; "
        children = [(cpu, f"c._probe_main({cpu}, {self.period!r})")
                    for cpu in sorted(os.sched_getaffinity(0))]
        if self.watch:
            children.append((None, f"c._watch_main({os.getpid()}, {self.period!r})"))
        try:
            for cpu, call in children:
                self._procs.append((cpu, subprocess.Popen(
                    [sys.executable, "-c", prelude + call],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )))
            # Wait until every child runs, so that starting them does not
            # slow the first work measured.
            for _, proc in self._procs:
                proc.stdout.readline()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for cpu, proc in self._procs:
            try:
                out, _ = proc.communicate(input="stop", timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            rows = [line.split() for line in out.splitlines() if line.strip()]
            if cpu is not None:
                self.per_cpu[cpu] = [(float(t), float(v), int(steal))
                                     for t, v, steal in rows]
                continue
            for t, pid, ppid, tid, on, ticks in rows:
                self.parent[int(pid)] = int(ppid)
                self.tasks.setdefault((int(pid), int(tid)), []).append(
                    (float(t), int(on), int(ticks)))
        self._procs = []

    @property
    def sample_count(self) -> int:
        return sum(len(samples) for samples in self.per_cpu.values())

    def children_of(self, pid: int) -> List[int]:
        return [child for child, parent in self.parent.items() if parent == pid]

    def cpu_ticks(self, start: float, end: float, pids) -> Dict[int, int]:
        """CPU ticks the threads of *pids* spent on each CPU in the interval
        (each period's ticks go to the CPU seen at its end)."""
        spent: Dict[int, int] = {}
        for (pid, _tid), samples in self.tasks.items():
            if pid not in pids:
                continue
            for (_, _, before), (t, cpu, ticks) in zip(samples, samples[1:]):
                if start < t <= end and ticks > before:
                    spent[cpu] = spent.get(cpu, 0) + ticks - before
        return spent

    def reference_seconds(self, start: float, end: float,
                          cpu: Optional[int] = None, pids=None) -> float:
        """``end - start`` (``perf_counter`` stamps) at reference speed.

        Scaled by the mean speed of *cpu*; or, given watched *pids*, by the
        speeds of the CPUs their threads ran on, weighted by CPU time; or
        else (or when they used no CPU time) by the mean over all CPUs.
        """
        if cpu is not None:
            weights = {cpu: 1}
        else:
            weights = self.cpu_ticks(start, end, pids) if pids else {}
            if not weights:
                weights = {c: 1 for c in self.per_cpu}
        speeds = {c: mean_speed(self.per_cpu[c], start, end)
                  for c in weights if self.per_cpu.get(c)}
        total = sum(weights[c] for c in speeds)
        if not total:
            return end - start
        return (end - start) * sum(weights[c] * v for c, v in speeds.items()) / total


def fresh_imports(modules: Sequence[str], reps: int) -> List[tuple]:
    """(start, end) ``perf_counter`` stamps of *reps* fresh interpreters,
    one after another, that import *modules*."""
    code = "; ".join(f"import {name}" for name in modules)
    env = child_env()
    stamps = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            timeout=60,
        )
        stamps.append((start, time.perf_counter()))
    return stamps


# ----------------------------------------------------------------------
def source_fingerprint() -> str:
    """Hash of the program and benchmark sources (the counter-log key)."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), os.path.dirname(__file__)):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as stream:
                        digest.update(stream.read())
    return digest.hexdigest()[:16]


def counter_differences(
    reference: Dict[str, Dict[str, int]], fresh: Dict[str, Dict[str, int]]
) -> List[str]:
    """Human-readable differences between two per-job counter maps."""
    out = []
    for job in sorted(set(reference) & set(fresh)):
        for name in sorted(set(reference[job]) | set(fresh[job])):
            old, new = reference[job].get(name), fresh[job].get(name)
            if old != new:
                out.append(f"{job}: {name} {old} -> {new}")
    return out


def check_counter_log(workload: str, counters: Dict[str, Dict[str, int]]) -> List[str]:
    """Compare *counters* with the last run of the same sources, then store.

    Deterministic work counters must repeat exactly across runs of one
    commit; the log lives in the checkout, keyed by source fingerprint.
    """
    path = state_path(f"counters-{workload}-{source_fingerprint()}.json")
    differences: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as stream:
            differences = counter_differences(json.load(stream), counters)
    except (OSError, ValueError):
        pass
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(counters, stream, sort_keys=True)
    return differences


def bench_bmc_counters() -> Optional[Dict[str, Dict[str, int]]]:
    """Conflicts/propagations per run name from the committed ``BENCH_bmc.json``."""
    try:
        with open(BENCH_BMC, "r", encoding="utf-8") as stream:
            runs = json.load(stream)["runs"]
    except (OSError, ValueError, KeyError):
        return None
    return {
        str(run["name"]): {
            "conflicts": int(run.get("total_conflicts") or 0),
            "propagations": int(run.get("propagations") or 0),
        }
        for run in runs
        if isinstance(run, dict) and "name" in run
    }
