"""Work scheduling for a split BMC query: pool, stealing, re-split, sharing.

The scheduler owns one *query* (a clause list plus base assumptions, e.g.
"the property-violation window of bound ``k`` is active") and a cube set
from :mod:`repro.dist.cubes` that partitions its search space.  It answers
with the merged verdict:

* **any cube SAT** -- the query is SAT; the model is returned untouched so
  the BMC engine replays the counterexample exactly as in sequential mode;
* **all cubes UNSAT** -- the query is UNSAT (the cube set covers the space,
  so the disjunction argument applies);
* otherwise (a conflict budget expired) -- UNKNOWN.

Scheduling model
================

``workers == 1`` runs every cube inline on one long-lived solver, in
deterministic order, with no processes -- learned clauses flow between cubes
through the shared database, and two runs of the same query are bit-for-bit
identical.  ``workers > 1`` forks a process pool:

* every worker builds its solver once from the query's clauses and then
  *steals* cubes from a shared task queue (idle workers drain whatever is
  left, so an unlucky cube assignment cannot idle the pool);
* a cube whose per-cube conflict budget expires is **re-split** on the next
  ranked look-ahead variable into two child cubes that go back on the queue
  (dynamic cube-and-conquer: hard regions of the space get progressively
  finer cubes); at ``max_resplit_depth`` the cube is solved to completion
  instead;
* workers broadcast short learned clauses (LBD <= ``share_max_lbd``) into
  every peer's bounded inbox queue and drain their own inbox before each
  cube.  Shared clauses are implied by the common formula alone -- never by
  cube assumptions -- so importing them is sound for every cube;
* each worker gets a different :data:`~repro.dist.portfolio.DIVERSE_CONFIGS`
  personality, adding portfolio-style diversity to the fan-out.

``strategy="portfolio"`` skips the cube machinery entirely and races the
whole query across diverse configurations via
:func:`repro.dist.portfolio.solve_portfolio`.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults
from repro.deadline import Deadline
from repro.dist.cubes import Cube, split_cube
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.dist.portfolio import (
    DIVERSE_CONFIGS,
    PortfolioConfig,
    solve_portfolio,
)
from repro.sat.cnf import Literal, var_of
from repro.sat.solver import SolverStats, SolverStatus

_STRATEGIES = ("auto", "window", "lookahead", "portfolio")

#: Crash-recovery policy of the parallel path.  Not ``SplitConfig`` knobs:
#: the config's canonical dict feeds content-addressed cache keys, and a
#: recovery policy must never change what a query *means*.
#: A cube whose worker died this many times is re-split (the cube itself
#: is suspected of tickling the crash) instead of re-enqueued verbatim.
_CRASH_RESPLIT_AFTER = 2
#: Replacement workers spawned per pool before the scheduler gives up and
#: fails safe to UNKNOWN (a crash storm must not respawn forever).
_MAX_RESPAWNS_FACTOR = 2


@dataclass
class SplitConfig:
    """How to split and schedule one hard BMC query.

    ``workers`` is the process count (1 = inline and deterministic).
    ``strategy`` picks the cube axes: ``"window"`` splits by QED
    property-window position only, ``"lookahead"`` by scored split variables
    only, ``"auto"`` combines both, ``"portfolio"`` races the unsplit query
    across diverse solver configurations.  ``cube_conflict_budget`` is the
    per-cube solver budget before a cube is re-split (``None`` disables
    re-splitting); ``max_resplit_depth`` bounds the dynamic splitting depth.
    """

    workers: int = 1
    strategy: str = "auto"
    lookahead_depth: int = 2
    max_initial_cubes: int = 32
    cube_conflict_budget: Optional[int] = 4000
    max_resplit_depth: int = 4
    share_clauses: bool = True
    share_max_lbd: int = 3
    share_queue_size: int = 1024
    configs: Tuple[PortfolioConfig, ...] = DIVERSE_CONFIGS
    #: Primary-input name prefixes preferred as split variables -- the QED
    #: harness passes the instruction-port prefix here so cubes partition by
    #: focus-set opcode choice (see
    #: :func:`repro.dist.cubes.select_split_variables`).
    prefer_input_prefixes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.lookahead_depth < 0:
            raise ValueError("lookahead_depth must be non-negative")
        if self.max_initial_cubes < 1:
            raise ValueError("max_initial_cubes must be at least 1")
        if not self.configs:
            raise ValueError("configs must not be empty")

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical, versioned JSON form.

        Every knob is explicit (defaults included), nested
        :class:`~repro.dist.portfolio.PortfolioConfig` entries serialize
        through their own canonical form, and tuple fields become lists --
        so two equal configs always produce the same dict and the dict
        round-trips through JSON (``pickle`` already worked; cache keys
        need JSON).
        """
        return {
            "format": 1,
            "workers": self.workers,
            "strategy": self.strategy,
            "lookahead_depth": self.lookahead_depth,
            "max_initial_cubes": self.max_initial_cubes,
            "cube_conflict_budget": self.cube_conflict_budget,
            "max_resplit_depth": self.max_resplit_depth,
            "share_clauses": self.share_clauses,
            "share_max_lbd": self.share_max_lbd,
            "share_queue_size": self.share_queue_size,
            "configs": [config.to_json_dict() for config in self.configs],
            "prefer_input_prefixes": list(self.prefer_input_prefixes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SplitConfig":
        """Inverse of :meth:`to_json_dict` (validates the format tag)."""
        if data.get("format", 1) != 1:
            raise ValueError(
                f"unsupported SplitConfig format {data.get('format')!r}"
            )
        budget = data.get("cube_conflict_budget", 4000)
        configs = data.get("configs")
        return cls(
            workers=int(data.get("workers", 1)),
            strategy=str(data.get("strategy", "auto")),
            lookahead_depth=int(data.get("lookahead_depth", 2)),
            max_initial_cubes=int(data.get("max_initial_cubes", 32)),
            cube_conflict_budget=None if budget is None else int(budget),
            max_resplit_depth=int(data.get("max_resplit_depth", 4)),
            share_clauses=bool(data.get("share_clauses", True)),
            share_max_lbd=int(data.get("share_max_lbd", 3)),
            share_queue_size=int(data.get("share_queue_size", 1024)),
            configs=(
                DIVERSE_CONFIGS
                if configs is None
                else tuple(
                    PortfolioConfig.from_json_dict(entry) for entry in configs
                )
            ),
            prefer_input_prefixes=tuple(
                str(prefix) for prefix in data.get("prefer_input_prefixes", ())
            ),
        )


@dataclass
class CubeStats:
    """Solver work spent on one cube (or one portfolio race)."""

    literals: Tuple[Literal, ...]
    verdict: str
    depth: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    runtime_seconds: float = 0.0
    worker: int = 0
    config: str = "baseline"
    clauses_imported: int = 0
    clauses_exported: int = 0


@dataclass
class DistStats:
    """Aggregate statistics of one scheduled query."""

    workers: int
    strategy: str
    cubes: List[CubeStats] = field(default_factory=list)
    resplits: int = 0
    clauses_shared: int = 0
    wall_seconds: float = 0.0
    #: Winning configuration of a portfolio race (``None`` otherwise).
    winner: Optional[str] = None

    @property
    def cubes_total(self) -> int:
        return len(self.cubes)

    @property
    def cubes_sat(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "sat")

    @property
    def cubes_unsat(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "unsat")

    @property
    def cubes_unknown(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "unknown")

    @property
    def conflicts(self) -> int:
        return sum(c.conflicts for c in self.cubes)

    @property
    def decisions(self) -> int:
        return sum(c.decisions for c in self.cubes)

    @property
    def propagations(self) -> int:
        return sum(c.propagations for c in self.cubes)

    @property
    def learned_clauses(self) -> int:
        return sum(c.learned_clauses for c in self.cubes)


@dataclass
class SplitQuery:
    """One SAT query prepared for distribution.

    ``clauses`` is the complete formula (a worker must be able to rebuild
    the solver from it alone); ``assumptions`` the base assumption literals
    applied to every cube (the BMC activation literal); ``cubes`` the
    partition from :mod:`repro.dist.cubes`; ``resplit_vars`` the ranked
    look-ahead variables still unused, consumed in order by dynamic
    re-splitting; ``frozen`` the variables a preprocessing worker must keep
    (inputs, window roots, assumption and cube variables).
    ``max_conflicts`` is the global budget over all cubes -- exceeded means
    the merged verdict is UNKNOWN, matching the sequential engine's
    per-query budget semantics.

    ``incremental`` declares that ``clauses`` extends the previous query's
    clause list handed to the same scheduler *by appending only* (the BMC
    engine's per-bound contract: earlier clauses are never edited, the
    formula only grows).  The inline single-worker path then reuses its
    solver across queries -- new clauses are fed through the solver's
    incremental ``add_clauses`` and learned clauses carry over between
    bounds, exactly like the sequential engine's solver reuse.  Leave it
    ``False`` (the default) for standalone queries.
    """

    clauses: List[List[Literal]]
    num_vars: int
    assumptions: List[Literal] = field(default_factory=list)
    cubes: List[Cube] = field(default_factory=lambda: [Cube(())])
    resplit_vars: List[int] = field(default_factory=list)
    frozen: FrozenSet[int] = frozenset()
    max_conflicts: Optional[int] = None
    incremental: bool = False


@dataclass
class DistResult:
    """Merged outcome of one scheduled query."""

    status: SolverStatus
    model: Optional[List[bool]] = None
    stats: DistStats = field(default_factory=lambda: DistStats(1, "auto"))

    @property
    def is_sat(self) -> bool:
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolverStatus.UNSAT

    @property
    def unknown(self) -> bool:
        return self.status is SolverStatus.UNKNOWN

    def solver_stats(self) -> SolverStats:
        """The aggregate work as a :class:`~repro.sat.solver.SolverStats`."""
        stats = self.stats
        return SolverStats(
            decisions=stats.decisions,
            propagations=stats.propagations,
            conflicts=stats.conflicts,
            learned_clauses=stats.learned_clauses,
        )


def _next_resplit_var(cube: Cube, resplit_vars: Sequence[int]) -> Optional[int]:
    """The first ranked look-ahead variable the cube does not constrain."""
    used = {var_of(lit) for lit in cube.literals}
    for variable in resplit_vars:
        if variable not in used:
            return variable
    return None


class WorkScheduler:
    """Fan one :class:`SplitQuery` out over cubes and worker processes.

    A scheduler instance may be kept across queries: when consecutive
    queries declare :attr:`SplitQuery.incremental`, the inline
    single-worker path keeps one CDCL solver alive and feeds it only the
    clauses appended since the previous query, so learned clauses, variable
    activities and saved phases carry across BMC bounds instead of being
    rebuilt from scratch per bound.
    """

    def __init__(self, config: Optional[SplitConfig] = None) -> None:
        self.config = config or SplitConfig()
        #: Inline-path solver kept across incremental queries, and how many
        #: clauses of the (growing) query clause list it has been fed.
        self._inline_solver = None
        self._inline_clauses_fed = 0

    @property
    def carried_learned_clauses(self) -> Optional[int]:
        """Learned clauses in the inline solver the next incremental query
        reuses; ``None`` when no solver persists across queries."""
        solver = self._inline_solver
        return None if solver is None else solver.num_learned_clauses

    # ------------------------------------------------------------------
    def solve(
        self,
        query: SplitQuery,
        *,
        deadline: Optional[Deadline] = None,
    ) -> DistResult:
        """Answer *query*; ``deadline`` bounds it by wall clock.

        Workers inherit the *remaining* budget per cube: the deadline is
        an absolute monotonic instant, so forked children compare against
        the same clock and stop their solve calls in place.  Expiry
        merges to UNKNOWN, never to a flipped verdict.
        """
        config = self.config
        start = time.perf_counter()
        # The dist.solve span is open while workers fork, so every cube
        # worker inherits it on its collector stack -- shipped worker
        # spans parent under it with the same trace id.
        with obs_trace.span(
            "dist.solve", strategy=config.strategy, workers=config.workers
        ) as dist_span:
            if config.strategy == "portfolio":
                result = self._solve_portfolio(query, deadline)
            elif config.workers == 1:
                result = self._solve_sequential(query, deadline)
            else:
                result = self._solve_parallel(query, deadline)
            result.stats.wall_seconds = time.perf_counter() - start
            dist_span.set(
                status=result.status.value,
                cubes=len(result.stats.cubes),
                resplits=result.stats.resplits,
            )
        registry = obs_metrics.process_metrics()
        registry.inc("qed_cubes_total", len(result.stats.cubes))
        if result.stats.resplits:
            registry.inc("qed_resplits_total", result.stats.resplits)
        return result

    # ------------------------------------------------------------------
    def _solve_portfolio(
        self, query: SplitQuery, deadline: Optional[Deadline] = None
    ) -> DistResult:
        config = self.config
        outcome = solve_portfolio(
            query.clauses,
            query.num_vars,
            query.assumptions,
            configs=config.configs,
            workers=config.workers,
            frozen=query.frozen,
            max_conflicts=query.max_conflicts,
            deadline=deadline,
        )
        stats = DistStats(
            workers=config.workers,
            strategy="portfolio",
            winner=outcome.winner,
        )
        stats.cubes.append(
            CubeStats(
                literals=(),
                verdict=outcome.status.value,
                conflicts=outcome.conflicts,
                decisions=outcome.decisions,
                propagations=outcome.propagations,
                learned_clauses=outcome.learned_clauses,
                runtime_seconds=outcome.runtime_seconds,
                config=outcome.winner or "portfolio",
            )
        )
        return DistResult(
            status=outcome.status, model=outcome.model, stats=stats
        )

    # ------------------------------------------------------------------
    def _solve_sequential(
        self, query: SplitQuery, deadline: Optional[Deadline] = None
    ) -> DistResult:
        """Inline cube loop: one solver, deterministic order, no processes.

        Clause sharing is implicit -- every learned clause (not just the
        short ones) stays in the shared database for the following cubes,
        which is strictly stronger than the parallel sharing protocol.
        Across :attr:`SplitQuery.incremental` queries the solver itself is
        reused (only the appended clause tail is fed), so the sharing also
        spans bounds.
        """
        config = self.config
        personality = config.configs[0]
        solver, reduction = self._inline_solver_for(query, personality)
        stats = DistStats(workers=1, strategy=config.strategy)
        pending = deque((cube, False) for cube in query.cubes)
        spent = 0
        unknown_final = 0
        while pending:
            if deadline is not None and deadline.expired():
                # Out of wall clock with cubes still open: the partition
                # is incomplete, so the only sound merge is UNKNOWN.
                return DistResult(SolverStatus.UNKNOWN, stats=stats)
            cube, unbudgeted = pending.popleft()
            budget = None if unbudgeted else config.cube_conflict_budget
            if query.max_conflicts is not None:
                remaining = max(0, query.max_conflicts - spent)
                budget = remaining if budget is None else min(budget, remaining)
            cube_start = time.perf_counter()
            cube_span = obs_trace.span(
                "dist.cube", depth=cube.depth, literals=len(cube.literals)
            )
            result = solver.solve(
                assumptions=query.assumptions + list(cube.literals),
                max_conflicts=budget,
                deadline=deadline,
            )
            cube_span.close(
                verdict=result.status.value,
                conflicts=result.stats.conflicts,
            )
            spent += result.stats.conflicts
            record = CubeStats(
                literals=cube.literals,
                verdict=result.status.value,
                depth=cube.depth,
                conflicts=result.stats.conflicts,
                decisions=result.stats.decisions,
                propagations=result.stats.propagations,
                learned_clauses=result.stats.learned_clauses,
                runtime_seconds=time.perf_counter() - cube_start,
                config=personality.name,
            )
            stats.cubes.append(record)
            if result.is_sat:
                model = result.model
                if model is not None and reduction is not None:
                    model = reduction.extend_model(model)
                return DistResult(SolverStatus.SAT, model=model, stats=stats)
            if result.is_unsat:
                # A proof stands even when this cube's conflicts exhausted
                # the global budget (the remaining cubes, if any, get a
                # zero-conflict attempt that can still refute trivially).
                continue
            # Budget expired on this cube.
            if query.max_conflicts is not None and spent >= query.max_conflicts:
                return DistResult(SolverStatus.UNKNOWN, stats=stats)
            variable = (
                _next_resplit_var(cube, query.resplit_vars)
                if cube.depth < config.max_resplit_depth
                else None
            )
            if variable is not None:
                left, right = split_cube(cube, variable)
                # Depth-first: children go to the front so the solver's
                # learned clauses and phases stay relevant to them.
                pending.appendleft((right, False))
                pending.appendleft((left, False))
                stats.resplits += 1
                obs_trace.event(
                    "dist.resplit", depth=cube.depth, variable=variable
                )
            elif query.max_conflicts is None:
                # No global budget to respect and no split variable left:
                # re-queue unbudgeted and solve the cube to completion.
                pending.appendleft((cube, True))
            else:
                unknown_final += 1
        if unknown_final:
            return DistResult(SolverStatus.UNKNOWN, stats=stats)
        return DistResult(SolverStatus.UNSAT, stats=stats)

    # ------------------------------------------------------------------
    def _inline_solver_for(self, query: SplitQuery, personality):
        """Build the inline-path solver, or reuse the previous query's.

        Reuse requires the query to declare the append-only clause contract
        (:attr:`SplitQuery.incremental`) and the personality to not run
        whole-formula preprocessing (a preprocessed solver's variable space
        is reduction-specific, so it cannot absorb raw appended clauses).
        The reused solver is grown with ``ensure_num_vars`` and fed the
        clause tail in one incremental ``add_clauses`` call; everything
        it learned in earlier queries is implied by the (monotonically
        growing) clause database, so carrying it over is sound.
        """
        solver = self._inline_solver
        if (
            query.incremental
            and solver is not None
            and not personality.preprocess
            and len(query.clauses) >= self._inline_clauses_fed
        ):
            solver.ensure_num_vars(query.num_vars)
            clauses = query.clauses
            solver.add_clauses(clauses[self._inline_clauses_fed :])
            self._inline_clauses_fed = len(clauses)
            return solver, None
        solver, reduction = personality.build_solver(
            query.clauses, query.num_vars, query.frozen
        )
        if query.incremental and not personality.preprocess:
            self._inline_solver = solver
            self._inline_clauses_fed = len(query.clauses)
        else:
            # Any rebuild that is not itself cacheable invalidates the
            # cache: a later incremental query's clause list extends *its
            # predecessor*, not whatever an older cached solver was built
            # from, so reusing the stale solver could mix two formulas.
            self._inline_solver = None
            self._inline_clauses_fed = 0
        return solver, reduction

    # ------------------------------------------------------------------
    def _dispatch_budget(self, query: SplitQuery, spent: int) -> Optional[int]:
        """Per-cube conflict budget for a dispatch after *spent* conflicts.

        The per-cube budget never exceeds what is left of the query's global
        budget (matching the sequential path), so a single cube cannot
        silently burn past ``max_conflicts`` even when
        ``cube_conflict_budget`` is ``None``.
        """
        budget = self.config.cube_conflict_budget
        if query.max_conflicts is not None:
            remaining = max(0, query.max_conflicts - spent)
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _solve_parallel(
        self, query: SplitQuery, deadline: Optional[Deadline] = None
    ) -> DistResult:
        config = self.config
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        tasks: "multiprocessing.Queue" = context.Queue()
        results: "multiprocessing.Queue" = context.Queue()
        stop = context.Event()
        expires_at = None if deadline is None else deadline.expires_at
        # Multiset of cubes currently owned by the pool (queued or being
        # solved), keyed by (literals, depth).  Crash recovery re-enqueues
        # a dead worker's in-flight cube, and this bookkeeping is what
        # makes the race benign: if the "lost" result was actually in the
        # queue buffer, the duplicate completion later finds its key
        # already closed and is ignored instead of double-closing
        # ``outstanding`` (which would let the loop exit with an open
        # cube and merge an unsound UNSAT).
        open_cubes: Dict[Tuple[Tuple[Literal, ...], int], int] = {}

        def put_task(
            literals: Tuple[Literal, ...],
            depth: int,
            budget: Optional[int],
            *,
            new: bool,
        ) -> None:
            if new:
                key = (literals, depth)
                open_cubes[key] = open_cubes.get(key, 0) + 1
            tasks.put((literals, depth, budget))

        for cube in query.cubes:
            put_task(
                tuple(cube.literals),
                cube.depth,
                self._dispatch_budget(query, 0),
                new=True,
            )
        # Without a cube budget the cube count is fixed, so extra workers
        # would only build solvers to idle; with re-splitting enabled the
        # cube population can outgrow the initial set, so the full requested
        # pool is started even for a single seed cube.
        if config.cube_conflict_budget is None:
            workers = min(config.workers, max(1, len(query.cubes)))
        else:
            workers = config.workers
        # One bounded inbox per worker: an exporter broadcasts a clause into
        # every *peer's* inbox (single shared queue semantics would deliver
        # each clause to exactly one consumer -- possibly the exporter).
        inboxes: Optional[List["multiprocessing.Queue"]] = (
            [context.Queue(config.share_queue_size) for _ in range(workers)]
            if config.share_clauses and workers > 1
            else None
        )

        # Per-worker in-flight announcements travel over dedicated pipes,
        # NOT the results queue: ``Connection.send`` is synchronous (no
        # feeder thread), so a worker that is SIGKILLed right after
        # announcing a cube cannot lose the announcement the way an
        # ``mp.Queue.put`` buffered in the feeder thread can be lost.
        announces: List["multiprocessing.connection.Connection"] = []
        processes: List["multiprocessing.process.BaseProcess"] = []
        inflight: List[Optional[Tuple[Tuple[Literal, ...], int, Optional[int]]]] = []

        def spawn(worker_id: int) -> None:
            recv_conn, send_conn = context.Pipe(False)
            process = context.Process(
                target=_pool_worker,
                args=(
                    worker_id,
                    config.configs[worker_id % len(config.configs)],
                    query,
                    config.share_max_lbd if config.share_clauses else None,
                    tasks,
                    results,
                    inboxes,
                    stop,
                    send_conn,
                    expires_at,
                ),
                daemon=True,
            )
            process.start()
            send_conn.close()
            if worker_id < len(processes):
                announces[worker_id].close()
                announces[worker_id] = recv_conn
                processes[worker_id] = process
                inflight[worker_id] = None
            else:
                announces.append(recv_conn)
                processes.append(process)
                inflight.append(None)

        for worker_id in range(workers):
            spawn(worker_id)

        stats = DistStats(workers=workers, strategy=config.strategy)
        outstanding = len(query.cubes)
        spent = 0
        unknown_final = 0
        respawns = 0
        max_respawns = _MAX_RESPAWNS_FACTOR * workers
        crash_counts: Dict[Tuple[Tuple[Literal, ...], int], int] = {}
        status = SolverStatus.UNSAT
        model: Optional[List[bool]] = None

        def drain_announcements() -> None:
            for worker_id, conn in enumerate(announces):
                while True:
                    try:
                        if not conn.poll():
                            break
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        break
                    if kind == "taken":
                        inflight[worker_id] = payload
                    else:  # "done"
                        inflight[worker_id] = None

        def recover_dead_workers() -> bool:
            """Re-enqueue lost cubes and respawn; False = give up."""
            nonlocal respawns, outstanding
            dead = [
                worker_id
                for worker_id, process in enumerate(processes)
                if process.exitcode is not None
            ]
            if not dead:
                return True
            drain_announcements()
            for worker_id in dead:
                lost = inflight[worker_id]
                inflight[worker_id] = None
                if lost is not None:
                    literals, depth, budget = lost
                    key = (literals, depth)
                    if open_cubes.get(key, 0) <= 0:
                        # Its result actually made it out before the
                        # crash; nothing to recover.
                        lost = None
                    else:
                        crash_counts[key] = crash_counts.get(key, 0) + 1
                if lost is not None:
                    literals, depth, budget = lost
                    key = (literals, depth)
                    cube = Cube(literals, depth)
                    variable = (
                        _next_resplit_var(cube, query.resplit_vars)
                        if crash_counts[key] >= _CRASH_RESPLIT_AFTER
                        and depth < config.max_resplit_depth
                        else None
                    )
                    if variable is not None:
                        # The cube itself is suspected of provoking the
                        # crash (two workers died on it): split it so the
                        # children present different search spaces.
                        open_cubes[key] -= 1
                        left, right = split_cube(cube, variable)
                        put_task(
                            tuple(left.literals), left.depth, budget, new=True
                        )
                        put_task(
                            tuple(right.literals), right.depth, budget, new=True
                        )
                        stats.resplits += 1
                        obs_trace.event(
                            "dist.resplit",
                            depth=cube.depth,
                            variable=variable,
                            reason="crash",
                        )
                        outstanding += 1
                    else:
                        # Same open cube instance, back on the queue:
                        # not ``new`` (its open_cubes slot is still held).
                        put_task(literals, depth, budget, new=False)
                if respawns >= max_respawns:
                    return False
                respawns += 1
                obs_trace.event("dist.worker_respawn", worker=worker_id)
                spawn(worker_id)
            return True

        try:
            while outstanding > 0:
                if deadline is not None and deadline.expired():
                    # Wall clock exhausted with cubes still open: stop
                    # dispatching and merge to UNKNOWN (workers notice
                    # the same absolute deadline inside their solve
                    # calls and drain quickly).
                    status = SolverStatus.UNKNOWN
                    break
                drain_announcements()
                try:
                    message = results.get(timeout=0.1)
                except queue_module.Empty:
                    # A worker only exits before `stop` if it crashed (OOM
                    # kill, unhandled exception).  Its in-flight cube, if
                    # any, was announced over the pipe: re-enqueue it (or
                    # re-split it when this cube keeps killing workers)
                    # and spawn a replacement, so verdicts stay
                    # worker-crash-independent.  Only a crash *storm*
                    # (respawn cap hit) fails safe to UNKNOWN.
                    if not recover_dead_workers():
                        status = SolverStatus.UNKNOWN
                        break
                    continue
                (
                    worker_id,
                    literals,
                    depth,
                    verdict,
                    cube_model,
                    work,
                    imported,
                    exported,
                    config_name,
                    runtime,
                    span_batch,
                    telemetry_batch,
                ) = message
                # Worker span batches merge into the parent collector: the
                # ids are pid-prefixed and their parents are spans this
                # collector already holds (inherited across the fork), so
                # the cube subtree lands under the open dist.solve span.
                collector = obs_trace.active()
                if collector is not None and span_batch is not None:
                    collector.absorb(span_batch)
                # Worker heartbeats merge the same way (pid-tagged); the
                # parent sink's flush callback then ships them onward.
                sink = obs_telemetry.active()
                if sink is not None and telemetry_batch:
                    sink.absorb(telemetry_batch)
                literals = tuple(literals)
                key = (literals, depth)
                if verdict != "sat" and open_cubes.get(key, 0) <= 0:
                    # Stale duplicate of a cube that was already closed
                    # (its "lost" pre-crash result survived after all and
                    # the recovery re-run also finished).  A SAT verdict
                    # is still accepted -- a model is a model.
                    continue
                if open_cubes.get(key, 0) > 0:
                    open_cubes[key] -= 1
                record = CubeStats(
                    literals=literals,
                    verdict=verdict,
                    depth=depth,
                    conflicts=work[0],
                    decisions=work[1],
                    propagations=work[2],
                    learned_clauses=work[3],
                    runtime_seconds=runtime,
                    worker=worker_id,
                    config=config_name,
                    clauses_imported=imported,
                    clauses_exported=exported,
                )
                stats.cubes.append(record)
                stats.clauses_shared += exported
                spent += work[0]
                over_budget = (
                    query.max_conflicts is not None
                    and spent >= query.max_conflicts
                )
                if verdict == "sat":
                    status = SolverStatus.SAT
                    model = cube_model
                    break
                if verdict == "unsat":
                    # Book-keeping first: a query whose *last* cube is UNSAT
                    # is proven even when that cube's conflicts exhausted the
                    # global budget (the sequential path agrees).
                    outstanding -= 1
                elif over_budget:
                    unknown_final += 1
                    outstanding -= 1
                else:
                    # UNKNOWN within budget: re-split or finish the cube.
                    cube = Cube(literals, depth)
                    variable = (
                        _next_resplit_var(cube, query.resplit_vars)
                        if depth < config.max_resplit_depth
                        else None
                    )
                    if variable is not None:
                        left, right = split_cube(cube, variable)
                        child_budget = self._dispatch_budget(query, spent)
                        put_task(
                            tuple(left.literals),
                            left.depth,
                            child_budget,
                            new=True,
                        )
                        put_task(
                            tuple(right.literals),
                            right.depth,
                            child_budget,
                            new=True,
                        )
                        stats.resplits += 1
                        obs_trace.event(
                            "dist.resplit",
                            depth=depth,
                            variable=variable,
                            reason="budget",
                        )
                        outstanding += 1
                    elif query.max_conflicts is None:
                        # Solve to completion (no budget).
                        put_task(literals, depth, None, new=True)
                    else:
                        unknown_final += 1
                        outstanding -= 1
                # When the global budget is exhausted the loop keeps
                # draining: queued cubes still run (their dispatch budgets
                # were capped at what the budget allowed at dispatch time)
                # and may refute cheaply, so a fully-refuted cube set still
                # merges to UNSAT instead of abandoning in-flight proofs as
                # UNKNOWN.  Re-splitting stops (the branch above), so the
                # queue drains and the loop terminates.
            else:
                status = (
                    SolverStatus.UNKNOWN if unknown_final else SolverStatus.UNSAT
                )
        finally:
            stop.set()
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2.0)
            # Escalate: a worker wedged in uninterruptible state (or with
            # SIGTERM masked by a C extension) must not leak past teardown.
            for process in processes:
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            for conn in announces:
                conn.close()
            for q in [tasks, results] + (inboxes or []):
                q.close()
                q.cancel_join_thread()
        # Stable ordering for reporting: completion order is racy.
        stats.cubes.sort(key=lambda c: (c.depth, c.literals))
        return DistResult(status=status, model=model, stats=stats)


def _pool_worker(  # fork-entry
    worker_id: int,
    personality: PortfolioConfig,
    query: SplitQuery,
    share_max_lbd: Optional[int],
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
    inboxes: Optional[List["multiprocessing.Queue"]],
    stop: "multiprocessing.synchronize.Event",
    announce: Optional["multiprocessing.connection.Connection"] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Worker process: build one solver, then steal cubes until stopped.

    Each task carries its own conflict budget (``None`` = solve to
    completion), assigned by the scheduler at dispatch time so it reflects
    what is left of the query's global budget.  Clause sharing is a
    broadcast: a learned clause is pushed into every *peer's* inbox, and the
    worker drains only its own inbox, so it never re-imports its own
    exports and every peer sees every shared clause (unless a full inbox
    drops it).

    ``announce`` is the crash-recovery pipe: the worker synchronously
    announces each cube before solving it ("taken") and after reporting
    it ("done"), so the scheduler knows exactly which cube died with a
    killed worker.  ``expires_at`` is the inherited absolute monotonic
    deadline (the fork shares the parent's clock), applied to every
    solve call.
    """
    deadline = None if expires_at is None else Deadline(expires_at=expires_at)
    # The collector (if any) arrived through the fork memory snapshot with
    # the parent's trace id and its open span stack -- this worker's spans
    # parent under the span that was open at fork time (dist.solve).
    collector = obs_trace.active()
    # Same for the telemetry sink: heartbeats recorded here ship home with
    # each cube result, so the fork-inherited flush callback is detached
    # to keep a heartbeat from travelling both channels.
    telemetry = obs_telemetry.active()
    if telemetry is not None:
        telemetry.detach_flush()
        telemetry.set_context(worker=worker_id)
    solver, reduction = personality.build_solver(
        query.clauses, query.num_vars, query.frozen
    )
    if share_max_lbd is not None and inboxes is not None:
        solver.enable_clause_export(max_lbd=share_max_lbd)
    while not stop.is_set():
        try:
            literals, depth, budget = tasks.get(timeout=0.05)
        except queue_module.Empty:
            continue
        obs_mark = None if collector is None else collector.mark()
        telemetry_mark = None if telemetry is None else telemetry.mark()
        if announce is not None:
            try:
                announce.send(("taken", (literals, depth, budget)))
            except (BrokenPipeError, OSError):
                pass
        # Chaos-harness injection point: a seeded "kill" here dies with
        # the cube announced but unreported -- the exact window the
        # scheduler's recovery path must cover.
        faults.crash_point("dist.scheduler.cube")
        imported = 0
        if inboxes is not None:
            shared = []
            for _ in range(256):
                try:
                    shared.append(inboxes[worker_id].get_nowait())
                except queue_module.Empty:
                    break
            solver.add_clauses(shared)
            imported = len(shared)
        cube_start = time.perf_counter()
        cube_span = obs_trace.span(
            "dist.cube", worker=worker_id, depth=depth, literals=len(literals)
        )
        result = solver.solve(
            assumptions=query.assumptions + list(literals),
            max_conflicts=budget,
            deadline=deadline,
        )
        cube_span.close(
            verdict=result.status.value, conflicts=result.stats.conflicts
        )
        exported = 0
        if inboxes is not None:
            for clause in solver.drain_exported():
                delivered = False
                for peer, inbox in enumerate(inboxes):
                    if peer == worker_id:
                        continue
                    try:
                        inbox.put_nowait(clause)
                        delivered = True
                    except queue_module.Full:
                        continue
                if delivered:
                    exported += 1
        model = result.model
        if model is not None and reduction is not None:
            model = reduction.extend_model(model)
        results.put(
            (
                worker_id,
                tuple(literals),
                depth,
                result.status.value,
                model,
                (
                    result.stats.conflicts,
                    result.stats.decisions,
                    result.stats.propagations,
                    result.stats.learned_clauses,
                ),
                imported,
                exported,
                personality.name,
                time.perf_counter() - cube_start,
                None if obs_mark is None else collector.batch_since(obs_mark),
                None
                if telemetry_mark is None
                else telemetry.batch_since(telemetry_mark),
            )
        )
        if announce is not None:
            try:
                announce.send(("done", None))
            except (BrokenPipeError, OSError):
                pass
