"""The traced pass: benchmark-owned spans around public calls, the
span-to-layer map, and the work counters the program already reports.

No span is added inside the program.  The benchmark opens its own spans
around the public calls it can reach (:func:`public_call_spans`); nested
layers come from the spans the program already records (``bmc.*``,
``dist.*``, ``detect.*`` and the server's per-job spans) and from the
:class:`~repro.bmc.engine.BoundStats` each bound reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Optional

from repro.obs import trace as obs_trace

#: Public calls the benchmark wraps in its own spans during the traced
#: pass: (module whose name lookup the caller uses, attribute, span name).
#: ``detect_bug`` reaches these through its module globals, so the wrapper
#: is installed there and removed when the pass ends.
WRAPPED_CALLS = (
    ("repro.eval.campaign", "SymbolicQED", "qed.compose"),
    ("repro.eval.campaign", "check_version_design", "analysis.lint"),
    ("repro.qed.harness", "interpret_counterexample", "qed.cex_replay"),
    ("repro.qed.single_i", "SingleIChecker.check_all", "qed.single_i"),
)

#: Span name -> layer.  Spans not listed (``detect_bug``, ``detect.qed``,
#: ``bmc.bound``, the benchmark's ``bench.job`` root) are glue; their
#: self time is the unaccounted remainder.
SPAN_LAYERS = {
    "qed.compose": "qed.compose",
    "qed.cex_replay": "qed.cex_replay",
    "qed.single_i": "qed.single_i",
    "analysis.lint": "analysis.lint",
    "detect.lint": "analysis.lint",
    "bmc.encode": "bmc.encode",
    "bmc.encode_window": "bmc.encode",
    "bmc.coi": "bmc.coi",
    "bmc.preprocess": "preprocess",
    "bmc.solve": "solver",
    "dist.cube": "solver",
    "bmc.solve.distributed": "dist.self",
    "dist.solve": "dist.self",
    "portfolio.racer": "dist.self",
    "detect.industrial": "indverif",
    "detect.directed": "indverif",
    "queue.wait": "queue.wait",
    "queue.attempt": "queue.attempt",
    "cache.write": "cache.write",
    "cache.read": "cache.read",
    "serve.lint": "serve.lint",
    "serve.resolve": "serve.resolve",
}
LAYERS = tuple(sorted(set(SPAN_LAYERS.values())))


def _spanned(function, span_name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs_trace.span(span_name):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def public_call_spans() -> Iterator[None]:
    """Wrap :data:`WRAPPED_CALLS` in spans for the duration of the block."""
    restore = []
    try:
        for module_name, attr_path, span_name in WRAPPED_CALLS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the call moved: its time shows as unaccounted
            setattr(owner, attr, _spanned(original, span_name))
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@contextlib.contextmanager
def traced_job(name: str, traces: List[List[dict]]) -> Iterator[None]:
    """Run one job under its own installed collector; append its spans."""
    collector = obs_trace.install(obs_trace.ObsCollector(max_spans=16384))
    root = collector.begin("bench.job", {"job": name})
    try:
        yield
    finally:
        collector.end(root)
        obs_trace.clear()
        traces.append(collector.spans)


def layer_seconds(traces: Iterable[List[dict]]) -> Dict[str, float]:
    """Self seconds per layer over per-job span lists, via
    :func:`repro.obs.trace.sum_self_seconds`.

    Span ids are unique within one job's trace only (each collector and
    each worker process numbers its own), so every job is aggregated on
    its own.  ``bmc.solve`` in distributed mode is scheduler time (query
    building, fork, IPC), not solving, so it is renamed first.  The extra
    ``dist.cube_total`` key is the summed cube solve time, already counted
    under ``solver``.
    """
    out = {layer: 0.0 for layer in LAYERS}
    out["dist.cube_total"] = 0.0
    for spans in traces:
        renamed = []
        for span in spans:
            attrs = span.get("attrs") or {}
            if span.get("name") == "bmc.solve" and attrs.get("mode") == "distributed":
                span = dict(span, name="bmc.solve.distributed")
            renamed.append(span)
        table = obs_trace.sum_self_seconds(renamed)
        for name, (_count, total, own) in table.items():
            layer = SPAN_LAYERS.get(name)
            if layer is not None:
                out[layer] += own
            if name == "dist.cube":
                out["dist.cube_total"] += total
    return out


def accounted_seconds(layers: Dict[str, float]) -> float:
    return sum(layers[layer] for layer in LAYERS)


# ----------------------------------------------------------------------
@dataclass
class Work:
    """Work counters summed from :class:`~repro.bmc.engine.BoundStats`.

    ``learned_clauses_carried`` is deliberately absent: split mode
    hard-codes it to 0, so it is not a measurement there.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned: int = 0
    learned_reused: int = 0
    solve_seconds: float = 0.0
    vars_eliminated: int = 0
    clauses_subsumed: int = 0
    failed_literals: int = 0
    slab_before: int = 0
    slab_after: int = 0
    cone_nodes: int = 0
    new_clauses: int = 0
    cubes: int = 0
    cubes_unknown: int = 0
    resplits: int = 0
    clauses_shared: int = 0

    def add_bound(self, stats) -> None:
        self.conflicts += stats.conflicts
        self.decisions += stats.decisions
        self.propagations += stats.propagations
        self.learned += stats.learned_clauses
        self.solve_seconds += stats.solve_seconds
        self.slab_before += stats.slab_clauses_before
        self.slab_after += stats.slab_clauses_after
        self.cone_nodes += stats.cone_nodes
        self.new_clauses += stats.new_clauses
        if stats.preprocess is not None:
            self.vars_eliminated += stats.preprocess.variables_eliminated
            self.clauses_subsumed += stats.preprocess.clauses_subsumed
            self.failed_literals += stats.preprocess.failed_literals
        if stats.dist is not None:
            self.cubes += stats.dist.cubes_total
            self.cubes_unknown += stats.dist.cubes_unknown
            self.resplits += stats.dist.resplits
            self.clauses_shared += stats.dist.clauses_shared

    def merge(self, other: "Work") -> None:
        for item in fields(self):
            setattr(
                self, item.name,
                getattr(self, item.name) + getattr(other, item.name),
            )

    def deterministic(self) -> Dict[str, int]:
        """The counters that must repeat exactly across runs of a commit."""
        return {
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "new_clauses": self.new_clauses,
            "vars_eliminated": self.vars_eliminated,
            "clauses_subsumed": self.clauses_subsumed,
            "failed_literals": self.failed_literals,
            "slab_after": self.slab_after,
        }


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    layers: Dict[str, float], work: Optional[Work], verdict_seconds: float
) -> Dict[str, float]:
    """The solve-side rows of the per-layer table.

    Layers every workload runs report seconds; the others report their
    share of the traced time-to-verdict, so a workload that does not run
    a layer reads 0 as a share, never as a time.
    """
    work = work or Work()
    return {
        "solver.self_s": layers["solver"],
        "preprocess.self_s": layers["preprocess"],
        "bmc.encode_s": layers["bmc.encode"],
        "bmc.coi_s": layers["bmc.coi"],
        "qed.compose_share": share(layers["qed.compose"], verdict_seconds),
        "qed.cex_replay_share": share(layers["qed.cex_replay"], verdict_seconds),
        "qed.single_i_share": share(layers["qed.single_i"], verdict_seconds),
        "analysis.lint_share": share(layers["analysis.lint"], verdict_seconds),
        "dist.self_share": share(layers["dist.self"], verdict_seconds),
        "dist.cube_share": share(layers["dist.cube_total"], verdict_seconds),
        "indverif.share": share(layers["indverif"], verdict_seconds),
        "layers.unaccounted_share": share(
            verdict_seconds - accounted_seconds(layers), verdict_seconds
        ),
        "solver.conflicts": work.conflicts,
        "solver.decisions": work.decisions,
        "solver.propagations": work.propagations,
        "solver.pps": share(work.propagations, work.solve_seconds),
        "solver.learned": work.learned,
        "solver.learned_reused": work.learned_reused,
        "preprocess.vars_eliminated": work.vars_eliminated,
        "preprocess.clauses_subsumed": work.clauses_subsumed,
        "preprocess.failed_literals": work.failed_literals,
        "preprocess.slab_keep_ratio": share(work.slab_after, work.slab_before),
        "bmc.cone_nodes": work.cone_nodes,
        "bmc.new_clauses": work.new_clauses,
        "dist.cubes": work.cubes,
        "dist.resplits": work.resplits,
        "dist.clauses_shared": work.clauses_shared,
        "dist.cube_unknown_share": share(work.cubes_unknown, work.cubes),
    }
