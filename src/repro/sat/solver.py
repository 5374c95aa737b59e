"""A CDCL SAT solver with sound incremental reuse and a flat clause arena.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation with blocker literals,
* VSIDS-style activity-based decision heuristic with phase saving,
* first-UIP conflict analysis with clause learning, recursive
  learned-clause minimisation and non-chronological backjumping,
* Luby-sequence restarts,
* Glucose-style learned-clause database reduction (LBD-ranked).

On top of the one-shot interface the solver supports the MiniSat-style
incremental contract that the bounded model checker in :mod:`repro.bmc`
relies on:

* :meth:`CDCLSolver.solve` may be called repeatedly on the same instance
  with different assumption sets.  Every call first backjumps to decision
  level 0, so no decision or assumption from a previous call leaks into the
  next one (learned clauses and level-0 facts are kept -- they are implied
  by the clause database and therefore sound to reuse).
* :meth:`CDCLSolver.add_clause` inserts new clauses between calls.  New
  clauses are simplified against the permanent level-0 assignment, watched,
  and new top-level units are propagated immediately.
* ``max_conflicts`` is a *per-call* budget.  A call that exhausts it
  returns :attr:`SolverStatus.UNKNOWN`, which is distinct from UNSAT --
  check :attr:`SolverResult.is_unsat` (or ``status``), never ``not
  result.satisfiable``, when a definitive refutation is required.

Backends
--------

:class:`CDCLSolver` runs the search in a native C core (``cdcl.c``,
built and loaded by :mod:`repro.sat.native` on first construction).
:class:`ReferenceCDCLSolver` is the same solver in pure Python: the
lockstep reference the native core is tested against, and what
``CDCLSolver(...)`` returns on a host without a C compiler.  Both make the
identical search -- the same decisions, conflicts, propagations, learned
and exported clauses and models on every call.  The layout and
algorithms below describe both; the Python-specific notes (list versus
``array``, inlining) concern the reference.

Clause arena layout
-------------------

The clause database is a single contiguous flat sequence of machine words
(a Python list of ints).  Each clause is a 5-word header followed by its
literals inline, and is addressed by the arena offset of its first header
word::

    offset  +0      +1       +2     +3          +4      +5 ... +5+size-1
            [size]  [flags]  [lbd]  [act-slot]  [scan]  [lit0] ... [litN]

    flags   bit 0: learned clause, bit 1: dead (transient mark during
            compaction; never set between public calls)
    lbd     literal-block distance at learn time (0 for originals)
    act     index into the parallel list of clause activities
            (floats cannot live in the integer arena)
    scan    saved replacement-watch scan position (relative body index in
            ``[2, size)``): the next scan for a non-false literal resumes
            where the previous one stopped and wraps around, instead of
            re-reading the recently-falsified prefix every visit
            (circular search, Gent 2013)

The backing store is a plain list rather than ``array('i')`` on purpose:
a C-typed array halves the memory but *boxes a fresh int object on every
read*, which measures ~25% slower than list indexing (list reads hand back
a cached reference) across the propagation and analysis loops -- in pure
Python the arena's win is the elimination of per-clause list objects and
their allocator traffic, not byte-level compactness.

Everything that used to be a clause *index* -- watch-list entries, the
``_reason`` of each assigned variable, the conflict reference returned by
propagation -- is an arena *offset*.  Literals are stored in the
even/odd encoding ``2*v`` (positive) / ``2*v + 1`` (negative), so negation
is ``lit ^ 1``, the variable is ``lit >> 1`` and a literal indexes its own
watch list directly; the public API (``add_clause``, assumptions, exported
clauses, models) keeps the signed DIMACS convention and converts at the
boundary.  Truth values are read from ``_litval``, a per-*literal* table
(1 true, 0 false, -1 unassigned; both phases updated on assign), which
removes the sign branch from every hot-loop value lookup.

Binary clauses never touch the arena body during propagation: they live
in dedicated per-literal implication lists of (other literal, offset)
pairs, so a falsified literal immediately yields each implied literal (or
the conflict) without loading or reordering any clause, and the binary
sweep needs none of the replacement-watch/compaction bookkeeping of the
long-clause sweep (a binary watcher can never relocate).  The arena copy
of a binary clause exists only for conflict analysis to walk.

Database reduction is an in-place mark-and-compact garbage collection:

1. rank learned clauses by (LBD desc, activity asc) and mark the worse
   half dead (glue/binary/locked clauses are exempt),
2. slide every live clause down over the dead ones in one pass over the
   arena (``arena[w:w+n] = arena[r:r+n]`` block moves), recording an
   old-offset -> new-offset map and re-slotting activities in lockstep,
3. remap watch lists (dropping pairs of dead clauses) and the ``_reason``
   offsets of the trail in a single pass each.

No Python clause objects are rebuilt, and clause order -- hence search
determinism -- is preserved.  Exported clauses (cube-and-conquer sharing)
are copied out of the arena *at learn time*, so a compaction between
learning and :meth:`drain_exported` can never leave a dangling offset in
the export buffer.

It is written for clarity first and speed second, but the hot loop
(propagation) avoids per-literal object allocation and pointer-chasing so
that the bounded model checking problems generated by :mod:`repro.bmc`
(tens of thousands of clauses) solve quickly, and the full Symbolic QED
runs in seconds -- which is the regime the paper reports for Onespin on
the industrial cores.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, cast

from repro.deadline import Deadline
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.sat import native
from repro.sat.cnf import CNF, Literal, var_of

_UNASSIGNED = -1

#: Arena header words before a clause's literals (size, flags, lbd, act,
#: saved scan position).
_HDR = 5
_F_LEARNED = 1
_F_DEAD = 2

#: Conflicts/decisions between monotonic-clock reads when a wall-clock
#: deadline is attached to a solve() call.  At ~240k props/s even very
#: conflict-heavy searches take well under 100 ms per 256 conflicts, so
#: deadline overshoot stays small while the common path pays only an
#: integer decrement.
_DEADLINE_STRIDE = 256


class SolverStatus(Enum):
    """Tri-state verdict of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters describing the work a solve call performed."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    max_decision_level: int = 0


@dataclass
class SolverResult:
    """Outcome of a SAT query.

    ``status`` is the tri-state verdict.  ``model`` maps variable index to
    boolean when satisfiable (index 0 is unused and always ``False``).
    ``stats`` counts the work of *this call only*; cumulative counters live
    on :attr:`CDCLSolver.stats`.

    The legacy ``satisfiable``/``unknown`` booleans are kept as properties;
    note that ``satisfiable`` is ``False`` for both UNSAT and UNKNOWN, so
    callers that need a definitive refutation must use :attr:`is_unsat`.
    """

    status: SolverStatus
    model: Optional[List[bool]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        """Whether a model was found."""
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        """Whether the query was definitively refuted (excludes UNKNOWN)."""
        return self.status is SolverStatus.UNSAT

    @property
    def satisfiable(self) -> bool:
        """Legacy boolean view; ``False`` also covers UNKNOWN."""
        return self.status is SolverStatus.SAT

    @property
    def unknown(self) -> bool:
        """Whether a conflict budget expired before a verdict."""
        return self.status is SolverStatus.UNKNOWN

    def value(self, variable: int) -> bool:
        """Return the model value of *variable* (only valid when SAT)."""
        if not self.is_sat or self.model is None:
            raise ValueError("no model available: formula was unsatisfiable")
        return self.model[variable]


def _luby(i: int) -> int:
    """Return the i-th element (1-based) of the Luby restart sequence.

    Uses the standard "find the enclosing complete subsequence" formulation:
    if ``i`` is of the form ``2^k - 1`` the value is ``2^(k-1)``; otherwise the
    index is reduced into the preceding complete subsequence.
    """
    if i <= 0:
        raise ValueError("Luby index must be positive")
    size = 1
    sequences = 0
    while size < i:
        size = 2 * size + 1
        sequences += 1
    while size - 1 != i - 1:
        size = (size - 1) >> 1
        sequences -= 1
        i = ((i - 1) % size) + 1
    return 1 << sequences


class ReferenceCDCLSolver:
    """Pure-Python CDCL solver over a flat clause arena.

    The lockstep reference of the native search core: :class:`CDCLSolver`
    makes the same decisions, learns the same clauses and counts the same
    work on every call.  It is what :class:`CDCLSolver` falls back to on a
    host without a C compiler.
    """

    def __init__(
        self,
        cnf: CNF,
        *,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        default_phase: bool = False,
    ) -> None:
        self._num_vars = 0
        self._restart_base = restart_base
        self._var_decay = var_decay
        self._clause_decay = clause_decay
        #: Initial saved phase of fresh variables.  ``False`` (negative
        #: first) is the MiniSat default; portfolio solving flips it on some
        #: workers so their search trees diverge from the first decision.
        self._default_phase = default_phase

        # Learned-clause export (cube-and-conquer clause sharing): when
        # enabled, short low-LBD clauses learned by this solver are copied
        # into a buffer that the owner drains and broadcasts to its peers.
        # Exported clauses are implied by the clause database alone (never
        # by the per-call assumptions), so they are sound to share between
        # workers solving different cubes of the same formula.  The copy is
        # taken at learn time (decoded back to signed literals), so database
        # compaction between learning and draining cannot invalidate it.
        self._export_max_lbd: Optional[int] = None
        self._export_max_length = 8
        self._exported: List[List[Literal]] = []

        # Clause database: one contiguous int arena (see the module
        # docstring for the header layout) plus a parallel float list of
        # clause activities indexed by the header's activity slot.  Both are
        # flat Python lists rather than ``array('i')``/``array('d')``:
        # C-typed arrays halve the memory but box a fresh object on every
        # read, which measures ~25% slower in the propagation/analysis loops
        # -- see the module docstring.
        self._arena: List[int] = []
        self._act: List[float] = []
        self._num_original = 0
        self._num_learned_live = 0
        self._clause_bump = 1.0
        #: Learned clauses allowed before the next database reduction; grows
        #: linearly with each reduction so the database stays bounded on
        #: hard instances instead of scaling with the original clause count.
        self._reduce_threshold = 4000

        # Assignment state.  ``_litval`` is indexed by *encoded literal*
        # (2v / 2v+1) and holds 1 (true), 0 (false) or -1 (unassigned) for
        # that literal; both phases are written on every assign/unassign so
        # the hot loops never branch on literal sign.  ``_level``/``_reason``
        # and the saved ``_phase`` are per-variable (index 0 unused);
        # ``_reason`` holds an arena offset or -1 for decisions/assumptions.
        self._litval: List[int] = [-1, -1]
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]
        self._trail: List[int] = []  # encoded literals, assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0

        # VSIDS.  Decisions are drawn from a lazy max-heap of (-activity, var);
        # stale entries are skipped when popped.  ``_heap_entries`` counts the
        # live heap entries per variable so unassignment (backjumping) only
        # pushes variables that are not in the heap already -- without it the
        # heap accumulates hundreds of duplicates per decision on BMC-sized
        # problems.
        self._activity: List[float] = [0.0]
        self._var_bump = 1.0
        self._phase: List[bool] = [default_phase]
        self._order_heap: List[Tuple[float, int]] = []
        self._heap_entries: List[int] = [0]
        # Reusable scratch marks for conflict analysis and clause
        # minimisation: 0 = unseen, 1 = part of the conflict/learned tail,
        # 2 = proven redundant (removable), 3 = proven non-redundant
        # (poison).  2/3 are exact per-variable verdict caches that persist
        # across the candidate walks of one conflict (see
        # :meth:`_lit_redundant`); every non-zero mark is appended to the
        # analysis ``touched`` list and cleared before the next conflict.
        self._seen: List[int] = [0]
        # Persistent DFS frame stacks of the minimisation walk (parallel
        # lists indexed by depth; see :meth:`_lit_redundant`).
        self._ccmin_vars: List[int] = []
        self._ccmin_ks: List[int] = []
        self._ccmin_ends: List[int] = []

        # Watches: encoded literal -> parallel per-literal lists of watcher
        # blockers (``_wblock``) and their clauses' arena offsets
        # (``_wref``).  The blocker is a literal of the clause; when it is
        # already true the clause is satisfied and propagation skips it
        # without touching the arena or even the offset list -- the MiniSat
        # 2.2 "blocker literal" optimisation.  The split into two parallel
        # lists (rather than interleaved pairs) lets the hot sweep iterate
        # the blockers with a C-level ``enumerate`` and read offsets only
        # for the minority of visits that get past the blocker test.
        # Binary clauses live in their own per-literal implication lists
        # (``_bin_lit``/``_bin_ref``, same parallel split): a binary
        # watcher never relocates and its "blocker" *is* the whole rest of
        # the clause, so the binary sweep runs without the
        # replacement-watch scan or any compaction bookkeeping.
        self._wblock: List[List[int]] = [[], []]
        self._wref: List[List[int]] = [[], []]
        self._bin_lit: List[List[int]] = [[], []]
        self._bin_ref: List[List[int]] = [[], []]

        self.stats = SolverStats()
        self._trivially_unsat = False

        self.ensure_num_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Variable space
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables the solver currently knows about."""
        return self._num_vars

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable space so indices ``1..num_vars`` are valid.

        New variables start unassigned with zero activity and negative
        saved phase; existing state is untouched, so this is safe to call
        between :meth:`solve` invocations.
        """
        if num_vars <= self._num_vars:
            return
        grow = num_vars - self._num_vars
        self._litval.extend([-1] * (2 * grow))
        self._level.extend([0] * grow)
        self._reason.extend([-1] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([self._default_phase] * grow)
        self._seen.extend([0] * grow)
        self._heap_entries.extend([1] * grow)
        self._wblock.extend([] for _ in range(2 * grow))
        self._wref.extend([] for _ in range(2 * grow))
        self._bin_lit.extend([] for _ in range(2 * grow))
        self._bin_ref.extend([] for _ in range(2 * grow))
        for variable in range(self._num_vars + 1, num_vars + 1):
            heapq.heappush(self._order_heap, (0.0, variable))
        self._num_vars = num_vars

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _watch(self, offset: int, literal: int, blocker: int) -> None:
        """Register clause *offset* on encoded *literal* with *blocker*.

        The blocker and offset go to parallel per-literal lists (the
        satisfied-blocker test resolves most visits without ever reading
        the offset list).  Binary clauses go to the dedicated implication
        lists instead (for them *blocker* is by construction the other
        literal of the clause), so the long-clause sweep never sees them.
        """
        if self._arena[offset] == 2:
            self._bin_lit[literal].append(blocker)
            self._bin_ref[literal].append(offset)
            return
        self._wblock[literal].append(blocker)
        self._wref[literal].append(offset)

    def add_clause(self, literals: Sequence[Literal]) -> None:
        """Add an original clause; legal between :meth:`solve` calls.

        The solver first backjumps to decision level 0 (any in-flight
        assumptions/decisions from a previous call are abandoned), then
        simplifies the clause against the permanent level-0 assignment:
        satisfied clauses are dropped, falsified literals are removed, and a
        resulting unit is enqueued and propagated immediately so follow-on
        top-level facts are available to subsequent ``add_clause`` calls.
        """
        self._backjump(0)
        if self._trivially_unsat:
            return
        clause = self._normalise(literals)
        if clause is None:
            return  # tautology
        for lit in clause:
            self.ensure_num_vars(lit if lit > 0 else -lit)
        # Simplify against the (permanent) level-0 assignment.
        litval = self._litval
        simplified: List[int] = []
        for lit in clause:
            encoded = lit + lit if lit > 0 else 1 - lit - lit
            value = litval[encoded]
            if value == 1:
                return  # already satisfied forever
            if value == -1:
                simplified.append(encoded)
        if not simplified:
            self._trivially_unsat = True
            return
        if len(simplified) == 1:
            self._enqueue(simplified[0], -1)
            if self._propagate() != -1:
                self._trivially_unsat = True
            return
        arena = self._arena
        offset = len(arena)
        self._act.append(0.0)
        arena.append(len(simplified))
        arena.append(0)
        arena.append(0)
        arena.append(len(self._act) - 1)
        arena.append(2)
        arena.extend(simplified)
        self._num_original += 1
        self._watch(offset, simplified[0], simplified[1])
        self._watch(offset, simplified[1], simplified[0])

    def add_clauses(self, clauses: Iterable[Sequence[Literal]]) -> None:
        """Add several original clauses between solve calls."""
        for clause in clauses:
            self.add_clause(clause)

    @staticmethod
    def _normalise(literals: Sequence[Literal]) -> Optional[List[Literal]]:
        """Remove duplicates; return ``None`` for tautological clauses."""
        seen = set()
        clause: List[Literal] = []
        for lit in literals:
            if -lit in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        return clause

    def enable_clause_export(
        self, max_lbd: int = 3, max_length: int = 8
    ) -> None:
        """Start buffering short, low-LBD learned clauses for sharing.

        Clauses with literal-block distance <= *max_lbd* and at most
        *max_length* literals are copied into an export buffer as they are
        learned; :meth:`drain_exported` hands them to the caller.  Unit
        clauses learned at level 0 are always exported (LBD 1, the most
        valuable shares).

        The buffered clauses are value copies in the signed public literal
        convention, taken the moment the clause is learned -- they stay
        valid even if a database compaction (:meth:`_reduce_learned`)
        deletes or relocates the arena clause before the owner drains them.
        """
        self._export_max_lbd = max_lbd
        self._export_max_length = max_length

    def drain_exported(self) -> List[List[Literal]]:
        """Return (and clear) the clauses buffered since the last drain."""
        exported = self._exported
        self._exported = []
        return exported

    def _add_learned_clause(self, clause: List[int]) -> int:
        arena = self._arena
        offset = len(arena)
        level_of = self._level
        lbd = len({level_of[lit >> 1] for lit in clause})
        if (
            self._export_max_lbd is not None
            and lbd <= self._export_max_lbd
            and len(clause) <= self._export_max_length
        ):
            # Copy-out at learn time (decoded): compaction can delete or
            # move the arena clause before the owner drains the buffer.
            self._exported.append(
                [lit >> 1 if not lit & 1 else -(lit >> 1) for lit in clause]
            )
        self._act.append(self._clause_bump)
        arena.append(len(clause))
        arena.append(_F_LEARNED)
        arena.append(lbd)
        arena.append(len(self._act) - 1)
        arena.append(2)
        arena.extend(clause)
        self._num_learned_live += 1
        self.stats.learned_clauses += 1
        if len(clause) >= 2:
            self._watch(offset, clause[0], clause[1])
            self._watch(offset, clause[1], clause[0])
        return offset

    @property
    def num_learned_clauses(self) -> int:
        """Learned clauses currently in the database (survivors of reduction)."""
        return self._num_learned_live

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, literal: int, reason: int) -> None:
        """Assign encoded *literal* with *reason* (arena offset or -1)."""
        variable = literal >> 1
        litval = self._litval
        litval[literal] = 1
        litval[literal ^ 1] = 0
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason
        self._phase[variable] = not literal & 1
        self._trail.append(literal)

    def _propagate(self) -> int:
        """Run unit propagation; return a conflicting arena offset or -1.

        This is the solver's hot loop: truth lookups are single list reads
        (no sign branch, thanks to the per-literal value table), clause
        bodies are read straight out of the integer arena, and binary
        clauses are resolved from their implication pair alone -- their
        blocker is by construction the other literal, so neither the swap
        nor the replacement-watch scan ever runs for them.

        The long-clause sweep runs in two phases.  Phase 1 iterates the
        blocker list with a C-level ``enumerate`` and performs no watcher
        removal -- the dominant visits (blocker satisfied, watched literal
        satisfied, unit) cost a couple of list reads each and at most
        refresh the blocker in place.  The first watcher that *moves away*
        (a replacement watch was found) leaves a hole; the sweep drops into
        phase 2, the classical in-place compacting loop, for the rest of
        the list.  Most sweeps never leave phase 1, so the common case
        pays no compaction bookkeeping at all.
        """
        arena = self._arena
        wblocks = self._wblock
        wrefs = self._wref
        bin_lits = self._bin_lit
        bin_refs = self._bin_ref
        litval = self._litval
        level_of = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        qhead = self._qhead
        entry_qhead = qhead
        trail_len = len(trail)
        # The decision level is constant for the whole propagation fixpoint
        # (decisions happen between _propagate calls), so hoist it.
        level = len(self._trail_lim)
        conflict = -1
        # hot-loop
        while qhead < trail_len:
            literal = trail[qhead]
            qhead += 1
            false_lit = literal ^ 1
            # Binary implications first: the implied literal is read
            # straight off the list; the arena offset (for the reason /
            # conflict reference) is read only when it is actually needed.
            blist = bin_lits[false_lit]
            if blist:
                refs = bin_refs[false_lit]
                for idx, other in enumerate(blist):
                    value = litval[other]
                    if value == -1:
                        variable = other >> 1
                        litval[other] = 1
                        litval[other ^ 1] = 0
                        level_of[variable] = level
                        reason[variable] = refs[idx]
                        phase[variable] = not other & 1
                        trail.append(other)
                        trail_len += 1
                    elif value == 0:
                        conflict = refs[idx]
                        break
                if conflict != -1:
                    break
            # Long clauses, phase 1: no watcher has left the list yet.
            blockers = wblocks[false_lit]
            refs = wrefs[false_lit]
            hole = -1
            for i, blocker in enumerate(blockers):
                # Blocker already true: clause satisfied, skip untouched.
                if litval[blocker] == 1:
                    continue
                offset = refs[i]
                base = offset + 5
                # Ensure the falsified literal is in slot 1.
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                first_value = litval[first]
                if first_value == 1:
                    # Refresh the blocker to the satisfied watched literal.
                    blockers[i] = first
                    continue
                # Look for a replacement watch.  Ternary clauses (half the
                # visits on BMC formulas) have exactly one candidate, so
                # they skip the scan-loop setup entirely; longer clauses
                # resume from the header's saved scan position and wrap,
                # so a falsified prefix is not re-read on every visit.
                size = arena[offset]
                if size == 3:
                    lit_k = arena[base + 2]
                    if litval[lit_k] != 0:
                        arena[base + 1] = lit_k
                        arena[base + 2] = false_lit
                        wblocks[lit_k].append(first)
                        wrefs[lit_k].append(offset)
                        hole = i
                        break  # watcher moved away: enter phase 2
                else:
                    end = base + size
                    start = base + arena[offset + 4]
                    k = start
                    replaced = False
                    while k < end:
                        lit_k = arena[k]
                        if litval[lit_k] != 0:
                            arena[base + 1] = lit_k
                            arena[k] = false_lit
                            arena[offset + 4] = k - base
                            wblocks[lit_k].append(first)
                            wrefs[lit_k].append(offset)
                            replaced = True
                            break
                        k += 1
                    if not replaced:
                        k = base + 2
                        while k < start:
                            lit_k = arena[k]
                            if litval[lit_k] != 0:
                                arena[base + 1] = lit_k
                                arena[k] = false_lit
                                arena[offset + 4] = k - base
                                wblocks[lit_k].append(first)
                                wrefs[lit_k].append(offset)
                                replaced = True
                                break
                            k += 1
                    if replaced:
                        hole = i
                        break  # watcher moved away: enter phase 2
                # Clause is unit or conflicting; the watcher stays put.
                blockers[i] = first
                if first_value == 0:
                    conflict = offset
                    break
                # Inlined _enqueue(first, offset).
                variable = first >> 1
                litval[first] = 1
                litval[first ^ 1] = 0
                level_of[variable] = level
                reason[variable] = offset
                phase[variable] = not first & 1
                trail.append(first)
                trail_len += 1
            if conflict != -1:
                break
            if hole < 0:
                continue
            # Long clauses, phase 2: compact in place over the hole(s).
            keep = hole
            i = hole + 1
            n = len(blockers)
            while i < n:
                blocker = blockers[i]
                if litval[blocker] == 1:
                    blockers[keep] = blocker
                    refs[keep] = refs[i]
                    keep += 1
                    i += 1
                    continue
                offset = refs[i]
                base = offset + 5
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                first_value = litval[first]
                if first_value == 1:
                    blockers[keep] = first
                    refs[keep] = offset
                    keep += 1
                    i += 1
                    continue
                size = arena[offset]
                if size == 3:
                    lit_k = arena[base + 2]
                    if litval[lit_k] != 0:
                        arena[base + 1] = lit_k
                        arena[base + 2] = false_lit
                        wblocks[lit_k].append(first)
                        wrefs[lit_k].append(offset)
                        i += 1
                        continue
                else:
                    end = base + size
                    start = base + arena[offset + 4]
                    k = start
                    replaced = False
                    while k < end:
                        lit_k = arena[k]
                        if litval[lit_k] != 0:
                            arena[base + 1] = lit_k
                            arena[k] = false_lit
                            arena[offset + 4] = k - base
                            wblocks[lit_k].append(first)
                            wrefs[lit_k].append(offset)
                            replaced = True
                            break
                        k += 1
                    if not replaced:
                        k = base + 2
                        while k < start:
                            lit_k = arena[k]
                            if litval[lit_k] != 0:
                                arena[base + 1] = lit_k
                                arena[k] = false_lit
                                arena[offset + 4] = k - base
                                wblocks[lit_k].append(first)
                                wrefs[lit_k].append(offset)
                                replaced = True
                                break
                            k += 1
                    if replaced:
                        i += 1
                        continue
                blockers[keep] = first
                refs[keep] = offset
                keep += 1
                i += 1
                if first_value == 0:
                    # Conflict: keep the remaining watchers and bail out.
                    while i < n:
                        blockers[keep] = blockers[i]
                        refs[keep] = refs[i]
                        keep += 1
                        i += 1
                    conflict = offset
                    break
                variable = first >> 1
                litval[first] = 1
                litval[first ^ 1] = 0
                level_of[variable] = level
                reason[variable] = offset
                phase[variable] = not first & 1
                trail.append(first)
                trail_len += 1
            del blockers[keep:]
            del refs[keep:]
            if conflict != -1:
                break
        self._qhead = qhead
        self.stats.propagations += qhead - entry_qhead
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _rescale_var_activity(self) -> None:
        """Scale all variable activities down and rebuild the order heap."""
        litval = self._litval
        for v in range(1, self._num_vars + 1):
            self._activity[v] *= 1e-100
        self._var_bump *= 1e-100
        self._order_heap = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if litval[v + v] == -1
        ]
        heapq.heapify(self._order_heap)
        self._heap_entries = [0] * (self._num_vars + 1)
        for _, v in self._order_heap:
            self._heap_entries[v] = 1

    def _rescale_clause_activity(self) -> None:
        """Scale all clause activities down (keeps the float slots finite)."""
        act = self._act
        for slot in range(len(act)):
            act[slot] *= 1e-20
        self._clause_bump *= 1e-20

    def _analyse(self, conflict_offset: int) -> tuple[List[int], int]:
        """First-UIP analysis.

        Returns the learned clause (encoded literals, asserting literal
        first) and the backjump level.
        """
        learned: List[int] = []
        seen = self._seen
        level_of = self._level
        trail = self._trail
        arena = self._arena
        reason_of = self._reason
        act = self._act
        var_act = self._activity
        var_bump = self._var_bump
        order_heap = self._order_heap
        heap_entries = self._heap_entries
        heappush = heapq.heappush
        clause_bump = self._clause_bump
        touched: List[int] = []
        counter = 0
        #: The implied literal of the reason clause being expanded; -1 while
        #: expanding the conflict clause (no literal to skip -- encoded
        #: literals are always >= 2).  Binary clauses keep their slot order
        #: during propagation, so the implied literal is skipped by value
        #: rather than by position.
        literal = -1
        offset = conflict_offset
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            # Inlined clause-activity bump (rescale is rare).
            slot = arena[offset + 3]
            bumped = act[slot] + clause_bump
            act[slot] = bumped
            if bumped > 1e20:
                self._rescale_clause_activity()
                clause_bump = self._clause_bump
            base = offset + 5
            # Slice-iterate the clause body: one C-level copy beats a
            # range+index loop's two Python ops per literal.
            for lit in arena[base : base + arena[offset]]:
                if lit == literal:
                    continue  # the reason clause's implied literal
                variable = lit >> 1
                if seen[variable] or level_of[variable] == 0:
                    continue
                seen[variable] = 1
                touched.append(variable)
                # Inlined _bump_var(variable).
                activity = var_act[variable] + var_bump
                var_act[variable] = activity
                if activity > 1e100:
                    self._rescale_var_activity()
                    var_bump = self._var_bump
                    order_heap = self._order_heap
                    heap_entries = self._heap_entries
                else:
                    # Always push on a bump: the new entry carries the
                    # raised priority (a lazy decrease-key).  Deferring
                    # pushes for assigned variables measures *worse* -- the
                    # decision order drifts from true VSIDS and conflict
                    # counts blow up.
                    heap_entries[variable] += 1
                    heappush(order_heap, (-activity, variable))
                if level_of[variable] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail backwards to the next marked literal.
            lit = trail[trail_index]
            while not seen[lit >> 1]:
                trail_index -= 1
                lit = trail[trail_index]
            literal = lit
            variable = lit >> 1
            seen[variable] = 0
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            offset = reason_of[variable]
        learned.insert(0, literal ^ 1)
        # Conflict-clause minimisation: drop literals whose reason chains are
        # subsumed by the rest of the clause (and level-0 facts).  ``seen`` is
        # still marked for every learned-tail variable, which the redundancy
        # walk uses as its "in clause" test.
        if len(learned) > 1:
            # Levels represented in the learned tail: a redundancy walk can
            # only be intercepted at these levels (or level 0), so any
            # antecedent at another level refutes the candidate immediately.
            levels = {level_of[lit >> 1] for lit in learned[1:]}
            kept = [learned[0]]
            for lit in learned[1:]:
                if reason_of[lit >> 1] < 0 or not self._lit_redundant(
                    lit, touched, levels
                ):
                    kept.append(lit)
            learned = kept
        for variable in touched:
            seen[variable] = 0

        if len(learned) == 1:
            backjump_level = 0
        else:
            # Move the literal with the highest level (other than slot 0)
            # into slot 1 so it is watched after backjumping.
            max_index = 1
            max_level = level_of[learned[1] >> 1]
            for k in range(2, len(learned)):
                lvl = level_of[learned[k] >> 1]
                if lvl > max_level:
                    max_index = k
                    max_level = lvl
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backjump_level = max_level
        return learned, backjump_level

    def _lit_redundant(
        self, literal: int, touched: List[int], levels: Set[int]
    ) -> bool:
        """Whether *literal* of a learned clause is implied by the others.

        Walks the implication graph from the literal's reason clause; the
        literal is redundant when every path bottoms out in a variable that
        is already part of the clause (mark 1) or assigned at level 0.

        The walk is a post-order DFS that caches an *exact* per-variable
        verdict: a fully-explored variable is marked removable (2), and on
        failure the failing variable plus every ancestor on the DFS stack
        -- whose redundancy required it -- is marked poison (3).  Both
        marks persist across the candidate walks of one conflict, so no
        subgraph is ever walked twice per conflict; this is sound because
        redundancy is a pure fixpoint over the (acyclic) implication graph
        and the fixed clause-tail/level sets, independent of walk order --
        unlike a single-bit ``seen``, which would have to roll failed walks
        back (the MiniSat 2.2 formulation) and re-explore.

        *levels* is the set of decision levels of the learned clause's tail
        literals.  An antecedent at any other non-zero level can never be
        intercepted -- following its same-level implication chain must reach
        that level's decision, and no interceptor (clause literal or cached
        redundancy) exists at a level outside the set -- so the walk fails
        immediately instead of exploring to the decision.  The filter is
        exact (same literals removed, just discovered cheaper), unlike the
        32-bit abstraction MiniSat uses for the same purpose.

        The implied literal of each reason clause needs no positional skip:
        its variable is always already marked (that is why the clause was
        expanded), so the walk filters it out by value.
        """
        seen = self._seen
        level_of = self._level
        reason_of = self._reason
        arena = self._arena
        reason = reason_of[literal >> 1]
        # DFS frames live in three persistent parallel stacks (variable,
        # next arena index, body end index) indexed by ``depth`` -- no
        # per-node allocation, entries beyond the current depth are stale
        # and always overwritten before being read.
        vars_ = self._ccmin_vars
        ks = self._ccmin_ks
        ends = self._ccmin_ends
        if vars_:
            vars_[0] = literal >> 1
            ks[0] = reason + _HDR
            ends[0] = reason + _HDR + arena[reason]
        else:
            vars_.append(literal >> 1)
            ks.append(reason + _HDR)
            ends.append(reason + _HDR + arena[reason])
        depth = 0
        # hot-loop
        while depth >= 0:
            k = ks[depth]
            end = ends[depth]
            descended = False
            while k < end:
                other = arena[k]
                k += 1
                other_var = other >> 1
                mark = seen[other_var]
                # 1 = in clause, 2 = cached removable, 4 = on this DFS
                # stack (only ever met as a reason clause's own implied
                # literal -- the graph is acyclic).
                if (
                    mark == 1
                    or mark == 2
                    or mark == 4
                    or level_of[other_var] == 0
                ):
                    continue
                if (
                    mark == 3
                    or level_of[other_var] not in levels
                    or reason_of[other_var] < 0
                ):
                    # Definitive failure: the node is poison (cached or a
                    # decision / un-interceptable level), and so is every
                    # ancestor whose redundancy required it.
                    if mark == 0:
                        seen[other_var] = 3
                        touched.append(other_var)
                    for i in range(depth + 1):
                        fr_var = vars_[i]
                        if seen[fr_var] == 4:
                            seen[fr_var] = 3
                    return False
                ks[depth] = k
                seen[other_var] = 4
                touched.append(other_var)
                fr_reason = reason_of[other_var]
                depth += 1
                if depth == len(vars_):
                    vars_.append(other_var)
                    ks.append(fr_reason + _HDR)
                    ends.append(fr_reason + _HDR + arena[fr_reason])
                else:
                    vars_[depth] = other_var
                    ks[depth] = fr_reason + _HDR
                    ends[depth] = fr_reason + _HDR + arena[fr_reason]
                descended = True
                break
            if descended:
                continue
            # Every antecedent checked out: the node is proven removable.
            fr_var = vars_[depth]
            if seen[fr_var] == 4:
                seen[fr_var] = 2
            depth -= 1
        return True

    def _backjump(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        litval = self._litval
        reason = self._reason
        heap_entries = self._heap_entries
        heap = self._order_heap
        activity = self._activity
        heappush = heapq.heappush
        trail = self._trail
        for index in range(len(trail) - 1, limit - 1, -1):
            literal = trail[index]
            variable = literal >> 1
            litval[literal] = -1
            litval[literal ^ 1] = -1
            reason[variable] = -1
            # Skip the push when a live heap entry already exists for the
            # variable; bumps always push priority-current entries.
            if heap_entries[variable] == 0:
                heap_entries[variable] = 1
                heappush(heap, (-activity[variable], variable))
        del trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[int]:
        """Pick the next decision as an encoded literal (None = all set)."""
        # Pop the most active unassigned variable; stale heap entries (already
        # assigned or with outdated activity) are discarded lazily.
        heap = self._order_heap
        heap_entries = self._heap_entries
        litval = self._litval
        phase = self._phase
        heappop = heapq.heappop
        while heap:
            _, variable = heappop(heap)
            heap_entries[variable] -= 1
            if litval[variable + variable] == -1:
                encoded = variable + variable
                return encoded if phase[variable] else encoded + 1
        # Heap exhausted: fall back to a linear scan to guarantee completeness.
        for variable in range(1, self._num_vars + 1):
            if litval[variable + variable] == -1:
                encoded = variable + variable
                return encoded if phase[variable] else encoded + 1
        return None

    def _reduce_learned(self) -> None:
        """Drop the worse half of the learned clauses (Glucose-style) and
        compact the arena in place.

        Candidates are ranked by literal-block distance first (high LBD goes
        first) and activity second; "glue" clauses (LBD <= 2), binary clauses
        and clauses currently acting as a reason for an assignment are kept.

        Removal is a mark-and-compact garbage collection: condemned clauses
        get their dead flag set, live clauses slide down over them in one
        pass of block moves (activities re-slotted in lockstep), and the
        watch lists and trail ``_reason`` offsets are remapped in one pass
        each.  Watch-list order and clause order are preserved, so the
        search after a reduction is deterministic.
        """
        arena = self._arena
        act = self._act
        top = len(arena)
        learned_offsets: List[int] = []
        offset = 0
        while offset < top:
            if arena[offset + 1] & _F_LEARNED:
                learned_offsets.append(offset)
            offset += _HDR + arena[offset]
        if not learned_offsets:
            return
        reason_of = self._reason
        locked = set()
        for lit in self._trail:
            reason = reason_of[lit >> 1]
            if reason >= 0:
                locked.add(reason)
        learned_offsets.sort(
            key=lambda off: (-arena[off + 2], act[arena[off + 3]])
        )
        to_remove = set()
        for off in learned_offsets[: len(learned_offsets) // 2]:
            if off not in locked and arena[off] > 2 and arena[off + 2] > 2:
                to_remove.add(off)
        if not to_remove:
            return
        for off in to_remove:
            arena[off + 1] |= _F_DEAD
        # Compact: live clauses slide down, activities re-slot in lockstep.
        remap: Dict[int, int] = {}
        new_act: List[float] = []
        write = 0
        read = 0
        while read < top:
            length = _HDR + arena[read]
            if arena[read + 1] & _F_DEAD:
                read += length
                continue
            if write != read:
                arena[write : write + length] = arena[read : read + length]
            remap[read] = write
            new_act.append(act[arena[write + 3]])
            arena[write + 3] = len(new_act) - 1
            write += length
            read += length
        del arena[write:]
        self._act = new_act
        self._num_learned_live -= len(to_remove)
        # Remap the watch lists in place, dropping dead clauses' watchers.
        remap_get = remap.get
        for blockers, refs in zip(self._wblock, self._wref):
            n = len(refs)
            keep = 0
            for i in range(n):
                new_offset = remap_get(refs[i], -1)
                if new_offset >= 0:
                    blockers[keep] = blockers[i]
                    refs[keep] = new_offset
                    keep += 1
            if keep != n:
                del blockers[keep:]
                del refs[keep:]
        # Binary clauses are never condemned (the size > 2 guard above), so
        # every implication-list offset has a remap entry; rewrite in place.
        for refs in self._bin_ref:
            for i in range(len(refs)):
                refs[i] = remap[refs[i]]
        # Remap the reasons of the (level-0) trail; locked clauses are never
        # condemned, so every live reason has a remap entry.
        for lit in self._trail:
            variable = lit >> 1
            reason = reason_of[variable]
            if reason >= 0:
                reason_of[variable] = remap[reason]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _snapshot(self) -> SolverStats:
        stats = self.stats
        return SolverStats(
            decisions=stats.decisions,
            propagations=stats.propagations,
            conflicts=stats.conflicts,
            restarts=stats.restarts,
            learned_clauses=stats.learned_clauses,
            max_decision_level=stats.max_decision_level,
        )

    def _lbd_histogram(self) -> Dict[int, int]:
        """LBD distribution of the live learned clauses.

        One linear arena walk -- cold-path only: sampled into telemetry
        heartbeats at restart/DB-reduce branches, which already do
        comparable linear work, never at the per-conflict poll sites.
        """
        arena = self._arena
        top = len(arena)
        histogram: Dict[int, int] = {}
        offset = 0
        while offset < top:
            if arena[offset + 1] & _F_LEARNED:
                lbd = arena[offset + 2]
                histogram[lbd] = histogram.get(lbd, 0) + 1
            offset += _HDR + arena[offset]
        return histogram

    def _sample_heartbeat(
        self,
        sink: obs_telemetry.TelemetrySink,
        site: str,
        *,
        restart_interval: Optional[int] = None,
        with_lbd: bool = False,
    ) -> None:
        """Record one telemetry heartbeat from read-only search state.

        Counters are the instance's lifetime totals (monotone across
        incremental solve calls on a reused solver); nothing here feeds
        back into the search, so the verdict/model/stats of a solve are
        byte-identical with telemetry on or off.
        """
        stats = self.stats
        fields: Dict[str, object] = {
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "learned": stats.learned_clauses,
            "trail_depth": len(self._trail),
            "decision_level": len(self._trail_lim),
            "learned_live": self._num_learned_live,
            "arena_len": len(self._arena),
        }
        if restart_interval is not None:
            fields["restart_interval"] = restart_interval
        if with_lbd:
            fields["lbd_hist"] = self._lbd_histogram()
        sink.record(site, **fields)

    def _call_stats(self, entry: SolverStats, call_max_level: int) -> SolverStats:
        stats = self.stats
        stats.max_decision_level = max(stats.max_decision_level, call_max_level)
        return SolverStats(
            decisions=stats.decisions - entry.decisions,
            propagations=stats.propagations - entry.propagations,
            conflicts=stats.conflicts - entry.conflicts,
            restarts=stats.restarts - entry.restarts,
            learned_clauses=stats.learned_clauses - entry.learned_clauses,
            max_decision_level=call_max_level,
        )

    def solve(
        self,
        assumptions: Iterable[Literal] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> SolverResult:
        """Solve the formula, optionally under *assumptions*.

        The call begins by backjumping to decision level 0, discarding any
        decisions, assumptions and partial trail left by a previous call, so
        the same instance can be reused for incremental queries with
        different assumption sets.  Assumptions are literals that must hold;
        they are applied as decisions at the start of the search.
        ``max_conflicts`` bounds the effort of *this call*; when it is
        exhausted the result status is :attr:`SolverStatus.UNKNOWN`.
        ``deadline`` bounds it by wall clock: the search polls the
        monotonic clock every few hundred conflicts/decisions (and at
        every restart) and returns :attr:`SolverStatus.UNKNOWN` once it
        has passed — the search state stays valid for incremental reuse,
        exactly as with an exhausted conflict budget.
        """
        entry = self._snapshot()
        call_max_level = 0
        # Observability: one module-global load per call.  Span events
        # (restarts, DB reductions, deadline polls) are recorded only at
        # the cold branches below -- never inside the `# hot-loop`
        # propagate/analyse regions -- and only when a collector is
        # installed, so the disabled cost is a local `is None` test.
        observer = obs_trace.active()
        # Telemetry heartbeats follow the same contract: sampled only at
        # the cold branches below, read-only, rate-limited by the sink.
        telemetry = obs_telemetry.active()

        # Reset to level 0: a previous call's assumption decisions and
        # partial trail must never leak into this query.
        self._backjump(0)
        if self._trivially_unsat:
            return SolverResult(SolverStatus.UNSAT, stats=self._call_stats(entry, 0))
        if deadline is not None and deadline.expired():
            return SolverResult(
                SolverStatus.UNKNOWN, stats=self._call_stats(entry, 0)
            )

        assumption_list = []
        for assumption in assumptions:
            self.ensure_num_vars(var_of(assumption))
            assumption_list.append(
                assumption + assumption
                if assumption > 0
                else 1 - assumption - assumption
            )

        conflict = self._propagate()
        if conflict != -1:
            self._trivially_unsat = True
            return SolverResult(SolverStatus.UNSAT, stats=self._call_stats(entry, 0))

        litval = self._litval
        conflicts_until_restart = self._restart_base * _luby(1)
        restart_count = 1
        conflicts_since_restart = 0
        # Wall-clock polling cadence: one monotonic-clock read every
        # DEADLINE_STRIDE conflicts or decisions.  The countdown keeps
        # the common path to a single decrement + compare; the checks
        # sit outside the `# hot-loop` propagate/analyse regions.
        deadline_countdown = _DEADLINE_STRIDE

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if (
                    max_conflicts is not None
                    and self.stats.conflicts - entry.conflicts > max_conflicts
                ):
                    self._backjump(0)
                    return SolverResult(
                        SolverStatus.UNKNOWN,
                        stats=self._call_stats(entry, call_max_level),
                    )
                if deadline is not None:
                    deadline_countdown -= 1
                    if deadline_countdown <= 0:
                        deadline_countdown = _DEADLINE_STRIDE
                        if observer is not None:
                            observer.event(
                                "solver.deadline_poll",
                                {"remaining": deadline.remaining()},
                            )
                        if telemetry is not None and telemetry.due():
                            self._sample_heartbeat(telemetry, "deadline_poll")
                        if deadline.expired():
                            self._backjump(0)
                            return SolverResult(
                                SolverStatus.UNKNOWN,
                                stats=self._call_stats(entry, call_max_level),
                            )
                if not self._trail_lim:
                    # Conflict independent of any decision or assumption:
                    # the clause database itself is unsatisfiable, now and
                    # for every future call.
                    self._trivially_unsat = True
                    return SolverResult(
                        SolverStatus.UNSAT,
                        stats=self._call_stats(entry, call_max_level),
                    )
                learned, backjump_level = self._analyse(conflict)
                self._backjump(backjump_level)
                if len(learned) == 1:
                    unit = learned[0]
                    if self._export_max_lbd is not None:
                        self._exported.append(
                            [unit >> 1 if not unit & 1 else -(unit >> 1)]
                        )
                    value = litval[unit]
                    if value == 0:
                        # Falsified at level 0: permanently UNSAT.
                        self._trivially_unsat = True
                        return SolverResult(
                            SolverStatus.UNSAT,
                            stats=self._call_stats(entry, call_max_level),
                        )
                    if value == -1:
                        self._enqueue(unit, -1)
                else:
                    offset = self._add_learned_clause(learned)
                    self._enqueue(learned[0], offset)
                self._var_bump /= self._var_decay
                self._clause_bump /= self._clause_decay
                continue

            # Restart?
            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self._restart_base * _luby(
                    restart_count
                )
                if observer is not None:
                    observer.event(
                        "solver.restart",
                        {
                            "conflicts": self.stats.conflicts - entry.conflicts,
                            "next_interval": conflicts_until_restart,
                        },
                    )
                obs_metrics.process_metrics().inc("qed_solver_restarts_total")
                if telemetry is not None and telemetry.due():
                    # Sampled before the backjump so trail depth and
                    # decision level describe the search being abandoned.
                    self._sample_heartbeat(
                        telemetry,
                        "restart",
                        restart_interval=conflicts_until_restart,
                        with_lbd=True,
                    )
                self._backjump(0)
                if deadline is not None and deadline.expired():
                    return SolverResult(
                        SolverStatus.UNKNOWN,
                        stats=self._call_stats(entry, call_max_level),
                    )
                continue

            # Learned clause DB reduction: triggered by the adaptive
            # threshold, which grows a little after every reduction (keeps
            # propagation fast on hard instances instead of letting the
            # database scale with the original clause count).
            if (
                self._num_learned_live > self._reduce_threshold
                and not self._trail_lim
            ):
                before_reduce = self._num_learned_live
                self._reduce_learned()
                self._reduce_threshold += 1000
                if observer is not None:
                    observer.event(
                        "solver.db_reduce",
                        {
                            "before": before_reduce,
                            "after": self._num_learned_live,
                        },
                    )
                obs_metrics.process_metrics().inc(
                    "qed_solver_db_reductions_total"
                )
                if telemetry is not None and telemetry.due():
                    self._sample_heartbeat(telemetry, "db_reduce", with_lbd=True)

            # Apply pending assumptions as decisions.
            pending_assumption = -1
            assumption_falsified = False
            for assumption in assumption_list:
                value = litval[assumption]
                if value == 0:
                    assumption_falsified = True
                    break
                if value == -1:
                    pending_assumption = assumption
                    break
            if assumption_falsified:
                # UNSAT *under these assumptions* -- the formula itself may
                # still be satisfiable, so do not poison future calls.
                self._backjump(0)
                return SolverResult(
                    SolverStatus.UNSAT,
                    stats=self._call_stats(entry, call_max_level),
                )
            if pending_assumption != -1:
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending_assumption, -1)
                continue

            decision = self._decide()
            if decision is None:
                model = [False] * (self._num_vars + 1)
                for variable in range(1, self._num_vars + 1):
                    model[variable] = litval[variable + variable] == 1
                call_max_level = max(call_max_level, len(self._trail_lim))
                return SolverResult(
                    SolverStatus.SAT,
                    model=model,
                    stats=self._call_stats(entry, call_max_level),
                )

            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            call_max_level = max(call_max_level, len(self._trail_lim))
            self._enqueue(decision, -1)
            if deadline is not None:
                # Conflict-free stretches (e.g. an easily satisfied
                # instance with a huge variable count) never reach the
                # conflict-side countdown, so poll on decisions too.
                deadline_countdown -= 1
                if deadline_countdown <= 0:
                    deadline_countdown = _DEADLINE_STRIDE
                    if observer is not None:
                        observer.event(
                            "solver.deadline_poll",
                            {"remaining": deadline.remaining()},
                        )
                    if telemetry is not None and telemetry.due():
                        self._sample_heartbeat(telemetry, "deadline_poll")
                    if deadline.expired():
                        self._backjump(0)
                        return SolverResult(
                            SolverStatus.UNKNOWN,
                            stats=self._call_stats(entry, call_max_level),
                        )


class CDCLSolver:
    """The library's CDCL solver: the native search core (``cdcl.c``).

    Same public API, same search and same observable behaviour as
    :class:`ReferenceCDCLSolver` -- identical conflicts, decisions,
    propagations, restarts, learned and exported clauses and models on
    every call -- with all search state held in C.  The C search runs
    until a cold event (verdict, conflict budget, restart, database
    reduction, deadline poll stride); :meth:`solve` handles each event
    exactly like the reference's cold branches (trace events,
    ``qed_solver_*`` metrics, telemetry heartbeats, deadline polls).

    The core is compiled and loaded on the first construction (see
    :mod:`repro.sat.native`).  When it is unavailable, construction
    returns a :class:`ReferenceCDCLSolver` instead, so ``CDCLSolver(cnf)``
    always yields a working solver.
    """

    def __new__(
        cls,
        cnf: CNF,
        *,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        default_phase: bool = False,
    ) -> "CDCLSolver":
        if native.load_library() is None:
            # Same API and search; typed as CDCLSolver for callers.
            return cast(
                CDCLSolver,
                ReferenceCDCLSolver(
                    cnf,
                    restart_base=restart_base,
                    var_decay=var_decay,
                    clause_decay=clause_decay,
                    default_phase=default_phase,
                ),
            )
        return super().__new__(cls)

    def __init__(
        self,
        cnf: CNF,
        *,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        default_phase: bool = False,
    ) -> None:
        lib = native.load_library()
        assert lib is not None  # __new__ returned the reference otherwise
        self._lib = lib
        self._handle: int = lib.qs_new(
            int(default_phase), var_decay, clause_decay, restart_base
        )
        weakref.finalize(self, lib.qs_free, self._handle)
        self._info = native.info_view(lib, self._handle)
        self.ensure_num_vars(cnf.num_vars)
        self.add_clauses(cnf.clauses)

    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables the solver currently knows about."""
        return int(self._info[native.NUM_VARS])

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable space so indices ``1..num_vars`` are valid."""
        self._lib.qs_ensure_vars(self._handle, num_vars)

    def add_clause(self, literals: Sequence[Literal]) -> None:
        """Add an original clause; legal between :meth:`solve` calls."""
        self.add_clauses((literals,))

    def add_clauses(self, clauses: Iterable[Sequence[Literal]]) -> None:
        """Add several original clauses between solve calls.

        The clauses cross into C as one flat literal buffer plus a length
        buffer; each is then added exactly as :meth:`add_clause` would.
        """
        batch = clauses if isinstance(clauses, list) else list(clauses)
        lengths = array("i", map(len, batch))
        literals = array("i", chain.from_iterable(batch))
        self._lib.qs_add_clauses(
            self._handle,
            lengths.buffer_info()[0],
            len(lengths),
            literals.buffer_info()[0],
        )

    def enable_clause_export(
        self, max_lbd: int = 3, max_length: int = 8
    ) -> None:
        """Start buffering short, low-LBD learned clauses for sharing
        (see :meth:`ReferenceCDCLSolver.enable_clause_export`)."""
        self._lib.qs_set_export(self._handle, max_lbd, max_length)

    def drain_exported(self) -> List[List[Literal]]:
        """Return (and clear) the clauses buffered since the last drain."""
        size = int(self._info[native.EXPORTED_LEN])
        if not size:
            return []
        flat = array("i", bytes(4 * size))
        self._lib.qs_drain_exported(self._handle, flat.buffer_info()[0])
        exported: List[List[Literal]] = []
        clause: List[Literal] = []
        for lit in flat:
            if lit:
                clause.append(lit)
            else:
                exported.append(clause)
                clause = []
        return exported

    @property
    def num_learned_clauses(self) -> int:
        """Learned clauses currently in the database (survivors of reduction)."""
        return int(self._info[native.LEARNED_LIVE])

    @property
    def _reduce_threshold(self) -> int:
        """Learned clauses allowed before the next database reduction."""
        return int(self._info[native.REDUCE_THRESHOLD])

    @_reduce_threshold.setter
    def _reduce_threshold(self, value: int) -> None:
        self._info[native.REDUCE_THRESHOLD] = value

    @property
    def stats(self) -> SolverStats:
        """Cumulative counters over the solver's lifetime (a snapshot)."""
        info = self._info
        return SolverStats(
            decisions=info[native.DECISIONS],
            propagations=info[native.PROPAGATIONS],
            conflicts=info[native.CONFLICTS],
            restarts=info[native.RESTARTS],
            learned_clauses=info[native.LEARNED_CLAUSES],
            max_decision_level=info[native.MAX_DECISION_LEVEL],
        )

    # ------------------------------------------------------------------
    def _lbd_histogram(self) -> Dict[int, int]:
        """LBD distribution of the live learned clauses (cold path)."""
        lbds = array("i", bytes(4 * self.num_learned_clauses))
        count = self._lib.qs_learned_lbds(self._handle, lbds.buffer_info()[0])
        histogram: Dict[int, int] = {}
        for lbd in lbds[:count]:
            histogram[lbd] = histogram.get(lbd, 0) + 1
        return histogram

    def _sample_heartbeat(
        self,
        sink: obs_telemetry.TelemetrySink,
        site: str,
        *,
        restart_interval: Optional[int] = None,
        with_lbd: bool = False,
    ) -> None:
        """Record one telemetry heartbeat from read-only search state
        (the fields of :meth:`ReferenceCDCLSolver._sample_heartbeat`)."""
        info = self._info
        fields: Dict[str, object] = {
            "conflicts": info[native.CONFLICTS],
            "decisions": info[native.DECISIONS],
            "propagations": info[native.PROPAGATIONS],
            "restarts": info[native.RESTARTS],
            "learned": info[native.LEARNED_CLAUSES],
            "trail_depth": info[native.TRAIL_LEN],
            "decision_level": info[native.DECISION_LEVEL],
            "learned_live": info[native.LEARNED_LIVE],
            "arena_len": info[native.ARENA_LEN],
        }
        if restart_interval is not None:
            fields["restart_interval"] = restart_interval
        if with_lbd:
            fields["lbd_hist"] = self._lbd_histogram()
        sink.record(site, **fields)

    def _result(
        self,
        status: SolverStatus,
        entry: SolverStats,
        model: Optional[List[bool]] = None,
    ) -> SolverResult:
        """Finish a call: fold its deepest level into the lifetime stats."""
        info = self._info
        call_max_level = info[native.CALL_MAX_LEVEL]
        if call_max_level > info[native.MAX_DECISION_LEVEL]:
            info[native.MAX_DECISION_LEVEL] = call_max_level
        stats = self.stats
        return SolverResult(
            status,
            model=model,
            stats=SolverStats(
                decisions=stats.decisions - entry.decisions,
                propagations=stats.propagations - entry.propagations,
                conflicts=stats.conflicts - entry.conflicts,
                restarts=stats.restarts - entry.restarts,
                learned_clauses=stats.learned_clauses - entry.learned_clauses,
                max_decision_level=call_max_level,
            ),
        )

    def solve(
        self,
        assumptions: Iterable[Literal] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> SolverResult:
        """Solve the formula, optionally under *assumptions*.

        Same contract as :meth:`ReferenceCDCLSolver.solve`: every call
        starts from decision level 0, ``max_conflicts`` bounds this call
        (UNKNOWN when exhausted) and ``deadline`` is polled every few
        hundred conflicts/decisions and at every restart.
        """
        lib = self._lib
        handle = self._handle
        info = self._info
        entry = self.stats
        info[native.CALL_MAX_LEVEL] = 0
        observer = obs_trace.active()
        telemetry = obs_telemetry.active()

        lib.qs_backjump0(handle)
        if info[native.TRIVIALLY_UNSAT]:
            return self._result(SolverStatus.UNSAT, entry)
        if deadline is not None and deadline.expired():
            return self._result(SolverStatus.UNKNOWN, entry)
        encoded = array("i", assumptions)
        event = lib.qs_solve_start(
            handle,
            encoded.buffer_info()[0],
            len(encoded),
            -1 if max_conflicts is None else min(max_conflicts, 1 << 62),
            deadline is not None,
        )
        # Cold events only: the C search returns at most once per
        # restart, reduction or deadline stride.
        while event == native.EV_CONTINUE:
            event = lib.qs_search(handle)
            if event == native.EV_RESTART:
                interval = info[native.RESTART_INTERVAL]
                if observer is not None:
                    observer.event(
                        "solver.restart",
                        {
                            "conflicts": info[native.CONFLICTS]
                            - entry.conflicts,
                            "next_interval": interval,
                        },
                    )
                obs_metrics.process_metrics().inc("qed_solver_restarts_total")
                if telemetry is not None and telemetry.due():
                    # Sampled before the backjump, as in the reference.
                    self._sample_heartbeat(
                        telemetry,
                        "restart",
                        restart_interval=interval,
                        with_lbd=True,
                    )
                lib.qs_backjump0(handle)
                if deadline is not None and deadline.expired():
                    return self._result(SolverStatus.UNKNOWN, entry)
                event = native.EV_CONTINUE
            elif event == native.EV_REDUCED:
                if observer is not None:
                    observer.event(
                        "solver.db_reduce",
                        {
                            "before": info[native.REDUCE_BEFORE],
                            "after": info[native.LEARNED_LIVE],
                        },
                    )
                obs_metrics.process_metrics().inc(
                    "qed_solver_db_reductions_total"
                )
                if telemetry is not None and telemetry.due():
                    self._sample_heartbeat(telemetry, "db_reduce", with_lbd=True)
                event = native.EV_CONTINUE
            elif event == native.EV_POLL:
                assert deadline is not None
                if observer is not None:
                    observer.event(
                        "solver.deadline_poll",
                        {"remaining": deadline.remaining()},
                    )
                if telemetry is not None and telemetry.due():
                    self._sample_heartbeat(telemetry, "deadline_poll")
                if deadline.expired():
                    lib.qs_backjump0(handle)
                    return self._result(SolverStatus.UNKNOWN, entry)
                event = native.EV_CONTINUE

        if event == native.EV_SAT:
            values = array("b", bytes(self.num_vars + 1))
            lib.qs_model(handle, values.buffer_info()[0])
            return self._result(
                SolverStatus.SAT, entry, model=list(map(bool, values))
            )
        if event == native.EV_BUDGET:
            return self._result(SolverStatus.UNKNOWN, entry)
        return self._result(SolverStatus.UNSAT, entry)


def solve(
    cnf: CNF, assumptions: Iterable[Literal] = ()
) -> SolverResult:
    """Solve *cnf* (optionally under *assumptions*) and return the result."""
    solver = CDCLSolver(cnf)
    return solver.solve(assumptions)
