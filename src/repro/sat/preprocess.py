"""CNF preprocessing: the single formula-reduction code path.

The heavy-duty entry point :func:`preprocess` *shrinks the formula before
the solver sees it* with the three classic SatELite techniques (plus an
optional blocked-clause pass); the gentle entry point :func:`simplify_cnf`
(absorbed from the retired ``repro.sat.simplify`` module) only cleans a
whole CNF up without touching the variable space.  :func:`preprocess`
applies:

* **bounded variable elimination** (BVE) -- a non-frozen variable is
  resolved away when the set of non-tautological resolvents is no larger
  than the clauses it replaces.  Tseitin auxiliaries introduced by the
  AIG-to-CNF translation are the prime candidates: most have a handful of
  occurrences and disappear without any growth.
* **subsumption and self-subsuming resolution** -- a clause implied by a
  shorter one is dropped; a clause that is *almost* subsumed (one literal
  flipped) is strengthened by removing that literal.
* **failed-literal probing** -- assuming a literal and running unit
  propagation; a conflict proves the complement at top level.
* **blocked-clause elimination** (optional, ``enable_blocked=True``) -- a
  clause all of whose resolvents on one literal are tautological is
  removed; sound for whole formulas only (never per-bound slabs), see
  :func:`preprocess`.

The preprocessor is designed to compose with the *incremental* BMC engine:
it operates on a clause *slab* (the clauses newly encoded for one bound) and
takes a **frozen** variable set that it must never eliminate -- activation
literals, frame-interface variables and symbolic-initial-state variables,
i.e. everything the engine may still reference from later bounds, solver
assumptions or counterexample extraction.  Derived facts (units) are always
part of the output, so the downstream solver sees them.

Because eliminating a variable removes its defining clauses, a SAT model of
the reduced slab no longer assigns eliminated variables meaningfully.  The
:class:`PreprocessResult` therefore carries the *reconstruction stack* (the
clauses removed per eliminated variable, in elimination order);
:func:`extend_model` replays it backwards to extend any model of the reduced
formula to the original variable space.

**Two backends, one result.**  :func:`preprocess` runs the pass in the
native core: ``preprocess.c``, compiled into the same shared object as the
CDCL search by :mod:`repro.sat.native` on first use, and driven by a single
C call (flat literals, clause lengths, the sorted frozen set and the
limits in; one clause table, the record blocks and the statistics out).
The Python pass (:class:`_Preprocessor`, reached through
:func:`reference_preprocess`) is its lockstep reference and the fallback
when no compiler is available.  Both produce the same output clauses
(clause and literal order), elimination stack, blocked records, unsat flag
and statistics other than ``time_seconds``.

That equality rests on one **occurrence-order contract**: every iteration
order of the pass is defined by the data, never by a hash table's layout.
Occurrence lists are insertion-ordered sets (dicts used as sets here,
append plus lazy deletion in C); since a clause id only enters a list when
its clause is created, each list iterates in ascending clause-id order.
Subsumption candidates, strengthenings, probe propagation and BCE
re-queues all follow it, and every other ordering (elimination candidates,
resolvent literals, probe ranks, output units) is an explicit sort over
variables or signed literals.  A change to the pass must be made in both
backends, or ``tests/sat/test_preprocess.py``'s lockstep tests fail.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sat import native
from repro.sat.cnf import CNF, Literal, var_of

if TYPE_CHECKING:  # ctypes loads on first native call, not at import
    import ctypes

#: Reconstruction stack entry: the variable and the clauses its elimination
#: removed (recorded *before* removal, in the original variable space).
EliminationRecord = Tuple[int, List[List[Literal]]]

#: Blocked-clause reconstruction entry: the blocking literal and the removed
#: clause (see :func:`reconstruct_blocked`).
BlockedRecord = Tuple[Literal, List[Literal]]


@dataclass
class PreprocessStats:
    """Work and reduction achieved by one :func:`preprocess` call."""

    clauses_in: int = 0
    clauses_out: int = 0
    units_derived: int = 0
    clauses_subsumed: int = 0
    literals_strengthened: int = 0
    clauses_blocked: int = 0
    variables_eliminated: int = 0
    resolvents_added: int = 0
    probes: int = 0
    failed_literals: int = 0
    rounds: int = 0
    time_seconds: float = 0.0

    def merge(self, other: "PreprocessStats") -> None:
        """Accumulate *other* into this instance (per-run totals)."""
        self.clauses_in += other.clauses_in
        self.clauses_out += other.clauses_out
        self.units_derived += other.units_derived
        self.clauses_subsumed += other.clauses_subsumed
        self.literals_strengthened += other.literals_strengthened
        self.clauses_blocked += other.clauses_blocked
        self.variables_eliminated += other.variables_eliminated
        self.resolvents_added += other.resolvents_added
        self.probes += other.probes
        self.failed_literals += other.failed_literals
        self.rounds += other.rounds
        self.time_seconds += other.time_seconds


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess`.

    ``clauses`` is the reduced slab (including one unit clause per fixed
    variable); ``eliminated`` is the reconstruction stack for
    :func:`extend_model`.  When ``unsat`` is true the input slab is
    unsatisfiable on its own and ``clauses`` contains the empty clause.
    """

    clauses: List[List[Literal]]
    stats: PreprocessStats
    eliminated: List[EliminationRecord] = field(default_factory=list)
    #: Blocked clauses removed by the (optional) BCE pass, in removal order.
    blocked: List[BlockedRecord] = field(default_factory=list)
    unsat: bool = False

    def extend_model(
        self, model: List[bool], skip: AbstractSet[int] = frozenset()
    ) -> List[bool]:
        """Extend *model* over this result's removed structure.

        Reconstruction replays removals in reverse chronological order: the
        BCE pass runs last, so blocked clauses are repaired first
        (:func:`reconstruct_blocked`), then the eliminated variables are
        re-derived (:func:`extend_model`).
        """
        model = reconstruct_blocked(model, self.blocked)
        return extend_model(model, self.eliminated, skip)


def _signature(clause: Sequence[Literal]) -> int:
    """Bloom-filter signature over variables (for fast subset rejection)."""
    sig = 0
    for lit in clause:
        sig |= 1 << ((lit if lit > 0 else -lit) % 61)
    return sig


class _Preprocessor:
    """Mutable working state of one preprocessing run."""

    def __init__(
        self,
        clauses: Iterable[Sequence[Literal]],
        frozen: AbstractSet[int],
        frozen_cutoff: int,
        bve_clause_limit: int,
        bve_occurrence_limit: int,
        bce_occurrence_limit: int = 24,
    ) -> None:
        self.frozen = frozen
        self.frozen_cutoff = frozen_cutoff
        self.bve_clause_limit = bve_clause_limit
        self.bve_occurrence_limit = bve_occurrence_limit
        self.bce_occurrence_limit = bce_occurrence_limit
        self.blocked: List[BlockedRecord] = []
        self.unsat = False
        self.fixed: Dict[int, bool] = {}
        self.clauses: List[Optional[List[Literal]]] = []
        self.sigs: List[int] = []
        # Occurrence lists are insertion-ordered sets (dicts with ``None``
        # values): clause ids only ever enter a list when the clause is
        # created, so every list iterates in ascending clause-id order.
        # The native pass (``preprocess.c``) relies on this order.
        self.occs: Dict[Literal, Dict[int, None]] = defaultdict(dict)
        self.unit_queue: List[Literal] = []
        self.touched: List[int] = []
        self.eliminated: List[EliminationRecord] = []
        self.stats = PreprocessStats()
        for clause in clauses:
            self.stats.clauses_in += 1
            self._add_clause(clause)
        self._propagate_units()

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _add_clause(self, literals: Sequence[Literal]) -> None:
        seen: Set[Literal] = set()
        out: List[Literal] = []
        for lit in literals:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = self.fixed.get(lit if lit > 0 else -lit)
            if value is not None:
                if (lit > 0) == value:
                    return  # satisfied by a fixed variable
                continue  # falsified literal dropped
            seen.add(lit)
            out.append(lit)
        if not out:
            self.unsat = True
            return
        cid = len(self.clauses)
        self.clauses.append(out)
        self.sigs.append(_signature(out))
        for lit in out:
            self.occs[lit][cid] = None
        if len(out) == 1:
            self.unit_queue.append(out[0])
        else:
            self.touched.append(cid)

    def _remove_clause(self, cid: int) -> None:
        clause = self.clauses[cid]
        if clause is None:
            return
        self.clauses[cid] = None
        occs = self.occs
        for lit in clause:
            entry = occs.get(lit)
            if entry is not None:
                entry.pop(cid, None)

    def _strengthen(self, cid: int, lit: Literal) -> None:
        """Remove *lit* from clause *cid* (it is known not to help)."""
        clause = self.clauses[cid]
        if clause is None:
            return
        clause.remove(lit)
        entry = self.occs.get(lit)
        if entry is not None:
            entry.pop(cid, None)
        if not clause:
            self.unsat = True
            return
        self.sigs[cid] = _signature(clause)
        if len(clause) == 1:
            self.unit_queue.append(clause[0])
        else:
            self.touched.append(cid)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------
    def _propagate_units(self) -> None:
        while self.unit_queue and not self.unsat:
            lit = self.unit_queue.pop()
            variable = lit if lit > 0 else -lit
            value = lit > 0
            existing = self.fixed.get(variable)
            if existing is not None:
                if existing != value:
                    self.unsat = True
                continue
            self.fixed[variable] = value
            self.stats.units_derived += 1
            for cid in list(self.occs.get(lit, ())):
                self._remove_clause(cid)
            self.occs.pop(lit, None)
            for cid in list(self.occs.get(-lit, ())):
                self._strengthen(cid, -lit)
            self.occs.pop(-lit, None)

    # ------------------------------------------------------------------
    # Subsumption / self-subsuming resolution
    # ------------------------------------------------------------------
    def _find_subsumed(
        self, lits: Sequence[Literal], sig: int, skip_cid: int
    ) -> List[int]:
        """Alive clauses (other than *skip_cid*) that contain all of *lits*."""
        best: Optional[Literal] = None
        best_count = -1
        for lit in lits:
            entry = self.occs.get(lit)
            count = len(entry) if entry else 0
            if count == 0:
                return []
            if best is None or count < best_count:
                best, best_count = lit, count
        lits_set = set(lits)
        size = len(lits)
        sigs = self.sigs
        clauses = self.clauses
        found: List[int] = []
        for cid in self.occs.get(best, ()):
            if cid == skip_cid:
                continue
            clause = clauses[cid]
            if clause is None or len(clause) < size:
                continue
            if sig & ~sigs[cid]:
                continue
            if lits_set.issubset(clause):
                found.append(cid)
        return found

    def _subsumption_pass(self, max_clause_len: int = 20) -> None:
        while self.touched and not self.unsat:
            queue, self.touched = self.touched, []
            for did in queue:
                if self.unit_queue:
                    self._propagate_units()
                if self.unsat:
                    return
                clause = self.clauses[did]
                if clause is None or len(clause) > max_clause_len:
                    continue
                sig = self.sigs[did]
                for cid in self._find_subsumed(clause, sig, did):
                    self._remove_clause(cid)
                    self.stats.clauses_subsumed += 1
                # Self-subsuming resolution: flip one literal of the clause;
                # any superset of the flipped clause can drop the flipped
                # literal (the resolvent on it subsumes the superset).  The
                # signature is sign-insensitive, so it carries over.
                for index in range(len(clause)):
                    lit = clause[index]
                    flipped = list(clause)
                    flipped[index] = -lit
                    for cid in self._find_subsumed(flipped, sig, did):
                        self._strengthen(cid, -lit)
                        self.stats.literals_strengthened += 1
                    if self.clauses[did] is not clause:
                        break  # the clause itself changed; re-queued already

    # ------------------------------------------------------------------
    # Bounded variable elimination
    # ------------------------------------------------------------------
    def _eliminate_pass(self) -> bool:
        occs = self.occs
        candidates: List[Tuple[int, int]] = []
        seen_vars: Set[int] = set()
        for lit, entry in occs.items():
            if not entry:
                continue
            variable = lit if lit > 0 else -lit
            if (
                variable in seen_vars
                or variable <= self.frozen_cutoff
                or variable in self.frozen
            ):
                continue
            seen_vars.add(variable)
            total = len(occs.get(variable, ())) + len(occs.get(-variable, ()))
            candidates.append((total, variable))
        candidates.sort()
        changed = False
        for _, variable in candidates:
            if self.unsat:
                break
            if variable in self.fixed:
                continue
            pos = list(occs.get(variable, ()))
            neg = list(occs.get(-variable, ()))
            if not pos and not neg:
                continue
            if (
                len(pos) > self.bve_occurrence_limit
                and len(neg) > self.bve_occurrence_limit
            ):
                continue
            limit = len(pos) + len(neg)
            resolvents: List[List[Literal]] = []
            within_bounds = True
            for pos_cid in pos:
                pos_clause = self.clauses[pos_cid]
                assert pos_clause is not None
                rest = [l for l in pos_clause if l != variable]
                rest_set = set(rest)
                for neg_cid in neg:
                    neg_clause = self.clauses[neg_cid]
                    assert neg_clause is not None
                    merged_set = set(rest_set)
                    tautology = False
                    for lit in neg_clause:
                        if lit == -variable:
                            continue
                        if -lit in merged_set:
                            tautology = True
                            break
                        merged_set.add(lit)
                    if tautology:
                        continue
                    if len(merged_set) > self.bve_clause_limit:
                        within_bounds = False
                        break
                    resolvents.append(sorted(merged_set))
                    if len(resolvents) > limit:
                        within_bounds = False
                        break
                if not within_bounds:
                    break
            if not within_bounds:
                continue
            removed = [list(self.clauses[cid]) for cid in pos + neg]
            for cid in pos + neg:
                self._remove_clause(cid)
            occs.pop(variable, None)
            occs.pop(-variable, None)
            self.eliminated.append((variable, removed))
            self.stats.variables_eliminated += 1
            for resolvent in resolvents:
                self._add_clause(resolvent)
                self.stats.resolvents_added += 1
            if self.unit_queue:
                self._propagate_units()
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Failed-literal probing
    # ------------------------------------------------------------------
    def _probe_pass(self, max_probes: int, visit_budget: int) -> None:
        # Rank probe literals by how much propagation assuming them can
        # trigger: the binary-clause occurrences of their complement.
        score: Dict[Literal, int] = defaultdict(int)
        for clause in self.clauses:
            if clause is not None and len(clause) == 2:
                for lit in clause:
                    score[-lit] += 1
        ranked = sorted(score.items(), key=lambda item: (-item[1], item[0]))
        visits = 0
        for lit, strength in ranked[:max_probes]:
            if self.unsat or visits > visit_budget or strength < 2:
                break
            variable = lit if lit > 0 else -lit
            if variable in self.fixed:
                continue
            failed, visits = self._probe_one(lit, visits, visit_budget)
            self.stats.probes += 1
            if failed:
                self.stats.failed_literals += 1
                self.unit_queue.append(-lit)
                self._propagate_units()

    def _probe_one(
        self, root: Literal, visits: int, budget: int
    ) -> Tuple[bool, int]:
        """Assume *root* and unit-propagate; ``True`` means it failed."""
        assign: Dict[int, bool] = {}
        queue = [root]
        head = 0
        clauses = self.clauses
        occs = self.occs
        while head < len(queue):
            lit = queue[head]
            head += 1
            variable = lit if lit > 0 else -lit
            value = lit > 0
            current = assign.get(variable)
            if current is not None:
                if current != value:
                    return True, visits
                continue
            assign[variable] = value
            for cid in occs.get(-lit, ()):
                clause = clauses[cid]
                if clause is None:
                    continue
                visits += len(clause)
                unassigned: Optional[Literal] = None
                unassigned_count = 0
                satisfied = False
                for other in clause:
                    if other == -lit:
                        continue
                    other_var = other if other > 0 else -other
                    other_value = assign.get(other_var)
                    if other_value is None:
                        unassigned_count += 1
                        unassigned = other
                        if unassigned_count > 1:
                            break
                    elif (other > 0) == other_value:
                        satisfied = True
                        break
                if satisfied or unassigned_count > 1:
                    continue
                if unassigned_count == 0:
                    return True, visits
                queue.append(unassigned)
            if visits > budget:
                break
        return False, visits

    # ------------------------------------------------------------------
    # Blocked-clause elimination
    # ------------------------------------------------------------------
    def _clause_blocked_on(self, clause: List[Literal], lit: Literal) -> bool:
        """Whether every resolvent of *clause* on *lit* is tautological."""
        rest = {l for l in clause if l != lit}
        for cid in self.occs.get(-lit, ()):
            other = self.clauses[cid]
            if other is None:
                continue
            other_set = set(other)
            if not any(-l in other_set for l in rest):
                return False
        return True

    def _bce_pass(self) -> None:
        """Remove blocked clauses (a final, optional pass).

        A clause is *blocked* on one of its literals when every resolvent on
        that literal is tautological; removing it preserves satisfiability
        (Kullmann), and a model of the remainder is repaired by flipping the
        blocking literal whenever the removed clause is unsatisfied
        (:func:`reconstruct_blocked`).  Pure literals are the degenerate
        case (no resolvents at all), so this pass generalises pure-literal
        elimination.

        Two restrictions keep the pass safe in this codebase: frozen
        variables never act as blocking literals (their value is observed
        elsewhere, e.g. by solver assumptions), and -- unlike every other
        transformation here -- blocked-clause elimination is **not** sound
        on a slab of a larger formula (an outside clause can produce a
        non-tautological resolvent), so the caller must only enable it on a
        complete formula.
        """
        queue: List[int] = [
            cid for cid, clause in enumerate(self.clauses) if clause is not None
        ]
        in_queue = set(queue)
        while queue and not self.unsat:
            cid = queue.pop()
            in_queue.discard(cid)
            clause = self.clauses[cid]
            if clause is None:
                continue
            for lit in clause:
                variable = lit if lit > 0 else -lit
                if variable <= self.frozen_cutoff or variable in self.frozen:
                    continue
                if len(self.occs.get(-lit, ())) > self.bce_occurrence_limit:
                    continue
                if self._clause_blocked_on(clause, lit):
                    self.blocked.append((lit, list(clause)))
                    self._remove_clause(cid)
                    self.stats.clauses_blocked += 1
                    # Removing a clause can newly block clauses that used to
                    # resolve against it: re-examine the resolution partners.
                    for other_lit in clause:
                        for ocid in self.occs.get(-other_lit, ()):
                            if ocid not in in_queue:
                                in_queue.add(ocid)
                                queue.append(ocid)
                    break

    # ------------------------------------------------------------------
    def output_clauses(self) -> List[List[Literal]]:
        if self.unsat:
            return [[]]
        out: List[List[Literal]] = []
        for variable in sorted(self.fixed):
            out.append([variable if self.fixed[variable] else -variable])
        for clause in self.clauses:
            if clause is not None:
                out.append(list(clause))
        return out


def preprocess(
    clauses: Iterable[Sequence[Literal]],
    *,
    frozen: AbstractSet[int] = frozenset(),
    frozen_cutoff: int = 0,
    max_rounds: int = 3,
    enable_subsumption: bool = True,
    enable_elimination: bool = True,
    enable_probing: bool = True,
    enable_blocked: bool = False,
    bve_clause_limit: int = 8,
    bve_occurrence_limit: int = 12,
    bce_occurrence_limit: int = 24,
    probe_limit: int = 2000,
    probe_visit_budget: int = 2_000_000,
) -> PreprocessResult:
    """Shrink a clause slab; never eliminates a variable in *frozen*.

    ``frozen_cutoff`` freezes every variable ``<= frozen_cutoff`` without
    materializing a set -- the incremental engine uses it for "everything
    the solver already knows", which would otherwise be an O(num_vars) set
    per bound.

    The slab may be any subset of a larger formula: every transformation
    applied here is sound with respect to the superset as long as variables
    occurring outside the slab are frozen (facts derived from a subset hold
    for the whole formula, and elimination is restricted to slab-local
    variables).

    ``enable_blocked`` (off by default) runs blocked-clause elimination as
    a final pass.  **Exception to the slab contract above:** BCE only
    preserves satisfiability when *clauses* is the complete formula --
    a clause outside the slab can produce a non-tautological resolvent on
    the blocking literal -- so only enable it for whole-formula
    preprocessing (e.g. a portfolio worker building its own solver), never
    for the incremental engine's per-bound slabs.  BCE also changes the
    model: use :meth:`PreprocessResult.extend_model` (which repairs blocked
    clauses before re-deriving eliminated variables) rather than the
    module-level :func:`extend_model`.

    The pass runs in the native core (``preprocess.c``) as one C call;
    without it, :func:`reference_preprocess` computes the identical result.
    """
    lib = native.load_library()
    if lib is None:
        return reference_preprocess(
            clauses,
            frozen=frozen,
            frozen_cutoff=frozen_cutoff,
            max_rounds=max_rounds,
            enable_subsumption=enable_subsumption,
            enable_elimination=enable_elimination,
            enable_probing=enable_probing,
            enable_blocked=enable_blocked,
            bve_clause_limit=bve_clause_limit,
            bve_occurrence_limit=bve_occurrence_limit,
            bce_occurrence_limit=bce_occurrence_limit,
            probe_limit=probe_limit,
            probe_visit_budget=probe_visit_budget,
        )
    start = time.perf_counter()
    # The parameter block, in the order of the P_* enum of preprocess.c.
    params = array(
        "q",
        (
            max_rounds,
            enable_subsumption,
            enable_elimination,
            enable_probing,
            enable_blocked,
            bve_clause_limit,
            bve_occurrence_limit,
            bce_occurrence_limit,
            probe_limit,
            probe_visit_budget,
            frozen_cutoff,
        ),
    )
    result = _run_native(lib, clauses, frozen, params)
    result.stats.time_seconds = time.perf_counter() - start
    return result


def _run_native(
    lib: ctypes.CDLL,
    clauses: Iterable[Sequence[Literal]],
    frozen: AbstractSet[int],
    params: array[int],
) -> PreprocessResult:
    """One ``pp_run`` call: the slab goes in as flat buffers, the result
    comes back as one clause table plus the record and stats blocks."""
    import ctypes

    batch = clauses if isinstance(clauses, list) else list(clauses)
    lengths = array("i", map(len, batch))
    literals = array("i", chain.from_iterable(batch))
    frozen_vars = array("i", sorted(frozen))
    address = lib.pp_run(
        lengths.buffer_info()[0],
        len(lengths),
        literals.buffer_info()[0],
        frozen_vars.buffer_info()[0],
        len(frozen_vars),
        params.buffer_info()[0],
    )
    if not address:
        raise ValueError("clause literals must be non-zero int32 values")
    try:
        fields = ctypes.c_int64 * native.PP_RESULT_FIELDS
        block = fields.from_address(address)

        def ints(buffer: int, count: int) -> array[int]:
            flat = array("i")
            if count:
                flat.frombytes(ctypes.string_at(block[buffer], 4 * count))
            return flat

        # One int object per distinct literal, shared by every occurrence.
        names = ints(native.PP_NAMES, block[native.PP_NUM_NAMES]).tolist()
        indices = ints(native.PP_LITS, block[native.PP_NUM_LITS])
        lits = list(map(names.__getitem__, indices))
        ends = ints(native.PP_ENDS, block[native.PP_NUM_CLAUSES])
        elim = ints(native.PP_ELIM, 2 * block[native.PP_NUM_ELIM])
        blocking = ints(native.PP_BLOCKED, block[native.PP_NUM_BLOCKED])
        stats = PreprocessStats(
            *block[native.PP_STATS : native.PP_STATS + native.PP_NUM_STATS]
        )
        unsat = bool(block[native.PP_UNSAT])
    finally:
        lib.pp_free(address)
    # The table holds the eliminated clauses, the blocked clauses, then the
    # output clauses; elim pairs each variable with the table index its
    # clauses end at.  Building ~10^5 acyclic lists would otherwise trigger
    # several full passes of the cyclic collector over the whole heap.
    collecting = gc.isenabled()
    gc.disable()
    try:
        table = [lits[a:b] for a, b in zip(chain((0,), ends), ends)]
        elim_vars, elim_ends = elim[0::2], elim[1::2]
        eliminated: List[EliminationRecord] = [
            (variable, table[a:b])
            for variable, a, b in zip(
                elim_vars, chain((0,), elim_ends), elim_ends
            )
        ]
        first = elim_ends[-1] if elim_ends else 0
        blocked: List[BlockedRecord] = list(
            zip(blocking, table[first : first + len(blocking)])
        )
    finally:
        if collecting:
            gc.enable()
    return PreprocessResult(
        clauses=table[len(table) - stats.clauses_out :],
        stats=stats,
        eliminated=eliminated,
        blocked=blocked,
        unsat=unsat,
    )


def reference_preprocess(
    clauses: Iterable[Sequence[Literal]],
    *,
    frozen: AbstractSet[int] = frozenset(),
    frozen_cutoff: int = 0,
    max_rounds: int = 3,
    enable_subsumption: bool = True,
    enable_elimination: bool = True,
    enable_probing: bool = True,
    enable_blocked: bool = False,
    bve_clause_limit: int = 8,
    bve_occurrence_limit: int = 12,
    bce_occurrence_limit: int = 24,
    probe_limit: int = 2000,
    probe_visit_budget: int = 2_000_000,
) -> PreprocessResult:
    """:func:`preprocess` on the pure-Python pass: the lockstep reference
    of the native core, and its fallback when the core is unavailable."""
    start = time.perf_counter()
    state = _Preprocessor(
        clauses,
        frozen,
        frozen_cutoff,
        bve_clause_limit,
        bve_occurrence_limit,
        bce_occurrence_limit,
    )
    for round_index in range(max_rounds):
        if state.unsat:
            break
        state.stats.rounds += 1
        changed = False
        if enable_subsumption:
            before = (
                state.stats.clauses_subsumed,
                state.stats.literals_strengthened,
                state.stats.units_derived,
            )
            state._subsumption_pass()
            changed |= before != (
                state.stats.clauses_subsumed,
                state.stats.literals_strengthened,
                state.stats.units_derived,
            )
        if enable_elimination and not state.unsat:
            changed |= state._eliminate_pass()
            if enable_subsumption and state.touched and not state.unsat:
                state._subsumption_pass()
        if enable_probing and round_index == 0 and not state.unsat:
            failed_before = state.stats.failed_literals
            state._probe_pass(probe_limit, probe_visit_budget)
            changed |= state.stats.failed_literals > failed_before
        if not changed:
            break
    if enable_blocked and not state.unsat:
        state._bce_pass()
    result_clauses = state.output_clauses()
    state.stats.clauses_out = len(result_clauses)
    state.stats.time_seconds = time.perf_counter() - start
    return PreprocessResult(
        clauses=result_clauses,
        stats=state.stats,
        eliminated=state.eliminated,
        blocked=state.blocked,
        unsat=state.unsat,
    )


def extend_model(
    model: List[bool],
    eliminated: Sequence[EliminationRecord],
    skip: AbstractSet[int] = frozenset(),
) -> List[bool]:
    """Extend *model* over eliminated variables (reverse elimination order).

    For each eliminated variable the removed clauses are examined under the
    model built so far: a removed clause not satisfied by its other literals
    forces the variable's value.  Unsatisfied clauses cannot disagree --
    otherwise the corresponding resolvent (which the reduced formula kept)
    would be falsified -- so the first one found decides.  Variables in
    *skip* are left at the model's value (used when a variable was later
    re-introduced and the solver assigned it directly).
    """
    extended = list(model)
    literals = chain.from_iterable(
        chain.from_iterable(removed for _, removed in eliminated)
    )
    needed = max(
        chain((variable for variable, _ in eliminated), map(abs, literals)),
        default=0,
    )
    if len(extended) < needed + 1:
        extended.extend([False] * (needed + 1 - len(extended)))
    for variable, removed in reversed(eliminated):
        if variable in skip:
            continue
        value = False
        for clause in removed:
            satisfied_by_others = False
            own_polarity = False
            for lit in clause:
                lit_var = lit if lit > 0 else -lit
                if lit_var == variable:
                    own_polarity = lit > 0
                    continue
                if extended[lit_var] == (lit > 0):
                    satisfied_by_others = True
                    break
            if not satisfied_by_others:
                value = own_polarity
                break
        extended[variable] = value
    return extended


def reconstruct_blocked(
    model: List[bool], blocked: Sequence[BlockedRecord]
) -> List[bool]:
    """Repair *model* for the clauses a BCE pass removed.

    Unlike an eliminated variable, a blocking variable still occurs in the
    remaining formula, so it already has a meaningful model value -- it is
    only *flipped* (to the blocking literal's polarity) when the removed
    clause is not otherwise satisfied.  Flipping is sound because every
    clause containing the complement of the blocking literal resolves
    tautologically with the removed clause: such a clause contains the
    complement of another literal of the removed clause, and that literal
    is false in the model (the clause was unsatisfied), so the complement
    keeps the clause satisfied.  Removals are replayed in reverse order.
    """
    extended = list(model)
    needed = 0
    for lit, clause in blocked:
        for other in clause:
            needed = max(needed, other if other > 0 else -other)
    if len(extended) < needed + 1:
        extended.extend([False] * (needed + 1 - len(extended)))
    for lit, clause in reversed(blocked):
        satisfied = False
        for other in clause:
            variable = other if other > 0 else -other
            if extended[variable] == (other > 0):
                satisfied = True
                break
        if not satisfied:
            extended[lit if lit > 0 else -lit] = lit > 0
    return extended


# ----------------------------------------------------------------------
# Legacy lightweight simplification (absorbed from repro.sat.simplify)
# ----------------------------------------------------------------------
@dataclass
class SimplificationResult:
    """Outcome of :func:`simplify_cnf`."""

    cnf: CNF
    fixed: Dict[int, bool] = field(default_factory=dict)
    unsatisfiable: bool = False

    def extend_model(self, model: List[bool]) -> List[bool]:
        """Overlay the preprocessing-fixed variables onto *model*."""
        extended = list(model)
        needed = max(self.fixed, default=0) + 1
        if len(extended) < needed:
            extended.extend([False] * (needed - len(extended)))
        for variable, value in self.fixed.items():
            extended[variable] = value
        return extended


def simplify_cnf(cnf: CNF) -> SimplificationResult:
    """Lightweight clause-level clean-up of a whole :class:`CNF`.

    The gentle sibling of :func:`preprocess`: tautology and duplicate
    removal, exhaustive top-level unit propagation, and pure-literal
    elimination -- nothing that changes the variable space, so solver
    models remain directly usable after
    :meth:`SimplificationResult.extend_model`.  (Pure-literal elimination
    is the degenerate case of the blocked-clause pass above; it is kept
    here because this entry point reports *fixed values* rather than a
    reconstruction stack.)

    Built on the same :class:`_Preprocessor` core as :func:`preprocess`
    (clause intake + unit propagation), with every reduction pass disabled;
    only the single-scan pure-literal step is specific to this entry point.
    """
    state = _Preprocessor(
        cnf.clauses,
        frozen=frozenset(),
        frozen_cutoff=0,
        bve_clause_limit=0,
        bve_occurrence_limit=0,
    )
    if state.unsat:
        return SimplificationResult(
            cnf=cnf.copy(), fixed=dict(state.fixed), unsatisfiable=True
        )
    fixed: Dict[int, bool] = dict(state.fixed)

    # Pure-literal elimination (single scan, matching the legacy entry
    # point): a variable occurring in one polarity only is fixed to it and
    # its clauses dropped.
    pure: Dict[int, bool] = {}
    for literal, occurrences in state.occs.items():
        if not occurrences:
            continue
        variable = var_of(literal)
        if variable in fixed or variable in pure:
            continue
        if not state.occs.get(-literal):
            pure[variable] = literal > 0
    for variable, value in pure.items():
        fixed.setdefault(variable, value)

    simplified = CNF(cnf.num_vars)
    for clause in state.clauses:
        if clause is None:
            continue
        if any(var_of(literal) in pure for literal in clause):
            continue
        simplified.add_clause(list(clause))
    return SimplificationResult(cnf=simplified, fixed=fixed)
