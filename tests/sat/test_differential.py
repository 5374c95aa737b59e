"""Differential testing of the flat-arena CDCL cores.

Every suite runs on both backends: :class:`CDCLSolver` (the native search
core) and :class:`ReferenceCDCLSolver` (the pure-Python core), through a
``...Reference`` subclass that swaps ``solver_class``.  Two oracles keep
each solver honest:

* a brute-force truth-table enumerator over seeded random CNFs (<= 16
  variables): the CDCL verdict must match exhaustive enumeration exactly,
  and every SAT model must actually satisfy every clause;
* the solver's own clause-export buffer: exported learned clauses must be
  implied by the clause database even when an in-place database compaction
  (``_reduce_learned``, ``reduce_learned`` in C) deletes or relocates the
  arena clause between learning and draining -- the regression guard for
  the copy-out-at-learn-time contract.

A third check runs the two backends in lockstep: on the same formula,
assumption sequence and interleaved clause additions they must return the
same per-call statistics, models and exported clauses.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.deadline import Deadline
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.sat import native
from repro.sat.solver import CDCLSolver, ReferenceCDCLSolver, SolverStatus


def _random_cnf(seed: int) -> CNF:
    """A seeded random CNF with 3..16 variables (clause ratio ~4.2)."""
    rng = random.Random(seed)
    num_vars = 3 + seed % 14  # 3..16 across the seed sweep
    num_clauses = max(2, int(4.2 * num_vars * rng.uniform(0.6, 1.2)))
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return cnf


def _brute_force_satisfiable(cnf: CNF) -> bool:
    """Exhaustive truth-table enumeration (the ground-truth oracle)."""
    num_vars = cnf.num_vars
    clauses = cnf.clauses
    for bits in range(1 << num_vars):
        ok = True
        for clause in clauses:
            satisfied = False
            for lit in clause:
                var = lit if lit > 0 else -lit
                value = (bits >> (var - 1)) & 1
                if (lit > 0) == bool(value):
                    satisfied = True
                    break
            if not satisfied:
                ok = False
                break
        if ok:
            return True
    return False


def _model_satisfies(cnf: CNF, model) -> bool:
    return all(
        any((lit > 0) == model[lit if lit > 0 else -lit] for lit in clause)
        for clause in cnf.clauses
    )


class TestTruthTableDifferential:
    solver_class = CDCLSolver

    @pytest.mark.parametrize("seed", range(72))
    def test_verdict_and_model_match_enumeration(self, seed):
        cnf = _random_cnf(seed)
        expected = _brute_force_satisfiable(cnf)
        result = self.solver_class(cnf).solve()
        assert result.status is not SolverStatus.UNKNOWN
        assert result.is_sat == expected, (
            f"seed {seed}: solver said {result.status}, enumeration said "
            f"{'SAT' if expected else 'UNSAT'}"
        )
        if result.is_sat:
            assert result.model is not None
            assert _model_satisfies(cnf, result.model), (
                f"seed {seed}: SAT model does not satisfy the formula"
            )

    @pytest.mark.parametrize("seed", range(0, 72, 6))
    def test_incremental_growth_matches_enumeration(self, seed):
        # Feed the same formula in two halves through the incremental
        # add_clause path; the verdict must still match enumeration.
        cnf = _random_cnf(seed)
        clauses = cnf.clauses
        half = len(clauses) // 2
        prefix = CNF(cnf.num_vars)
        prefix.add_clauses(clauses[:half])
        solver = self.solver_class(prefix)
        solver.solve()
        solver.add_clauses(clauses[half:])
        result = solver.solve()
        assert result.is_sat == _brute_force_satisfiable(cnf)
        if result.is_sat:
            assert _model_satisfies(cnf, result.model)


class TestTruthTableDifferentialReference(TestTruthTableDifferential):
    solver_class = ReferenceCDCLSolver


class TestExportSurvivesCompaction:
    solver_class = CDCLSolver

    def test_exported_clauses_remain_valid_after_reduction(self):
        # A hard-ish random 3-CNF makes the solver learn enough clauses to
        # cross an artificially tiny reduction threshold several times, so
        # database compactions interleave with clause learning while the
        # export buffer is filling.  Every drained clause must be implied
        # by the original formula -- a dangling arena offset (the bug this
        # guards against) would surface as a garbage clause here.
        rng = random.Random(1234)
        num_vars = 60
        cnf = CNF(num_vars)
        for _ in range(int(4.4 * num_vars)):
            variables = rng.sample(range(1, num_vars + 1), 3)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        solver = self.solver_class(cnf)
        solver.enable_clause_export(max_lbd=12, max_length=40)
        solver._reduce_threshold = 25  # force frequent compactions
        result = solver.solve(max_conflicts=4000)
        assert solver.stats.learned_clauses > 50, (
            "instance too easy to exercise reduction -- adjust the seed"
        )
        # At least one reduction must actually have removed clauses.
        assert solver.num_learned_clauses < solver.stats.learned_clauses
        exported = solver.drain_exported()
        assert exported, "no clauses were exported"
        for clause in exported:
            assert clause, "empty exported clause"
            for lit in clause:
                var = lit if lit > 0 else -lit
                assert 1 <= var <= num_vars, (
                    f"exported clause {clause} references unknown "
                    f"variable {var}"
                )
        # Implication check on a sample: formula AND NOT(clause) is UNSAT
        # for every clause implied by the formula.
        for clause in exported[:40]:
            checker = self.solver_class(cnf)
            refute = checker.solve(
                assumptions=[-lit for lit in clause]
            )
            assert refute.is_unsat, (
                f"exported clause {clause} is not implied by the clause "
                f"database (solver verdict {refute.status}; original "
                f"verdict {result.status})"
            )
        # Draining clears the buffer.
        assert solver.drain_exported() == []


class TestExportSurvivesCompactionReference(TestExportSurvivesCompaction):
    solver_class = ReferenceCDCLSolver


def _random_3cnf(rng: random.Random, num_vars: int, ratio: float) -> CNF:
    cnf = CNF(num_vars)
    for _ in range(int(ratio * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


class TestBackendLockstep:
    """The native core and the reference make the identical search."""

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if native.load_library() is None:
            pytest.skip("native core unavailable: CDCLSolver is the reference")

    @staticmethod
    def _observed_solve(solver, *args, **kwargs):
        """Solve with a trace collector and a telemetry sink installed;
        return the result plus the cold-path events and heartbeats
        (wall-clock fields dropped)."""
        collector = obs_trace.install(obs_trace.ObsCollector())
        sink = obs_telemetry.install(
            obs_telemetry.TelemetrySink(min_interval_seconds=0.0)
        )
        try:
            result = solver.solve(*args, **kwargs)
        finally:
            obs_trace.clear()
            obs_telemetry.clear()
        events = [
            (e["name"], {k: v for k, v in e["attrs"].items() if k != "remaining"})
            for e in collector.events
        ]
        clock = {"seq", "pid", "t", "pps"}
        heartbeats = [
            {k: v for k, v in hb.items() if k not in clock}
            for hb in sink.snapshot()
        ]
        return result, events, heartbeats

    @staticmethod
    def _assert_same_state(fast, slow):
        assert fast.stats == slow.stats
        assert fast.num_vars == slow.num_vars
        assert fast.num_learned_clauses == slow.num_learned_clauses
        assert fast.drain_exported() == slow.drain_exported()

    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_calls_match(self, seed):
        rng = random.Random(seed)
        num_vars = 100 + 10 * seed
        cnf = _random_3cnf(rng, num_vars, 4.1)
        options = dict(
            restart_base=(100, 16, 32)[seed % 3],
            var_decay=(0.95, 0.85)[seed % 2],
            default_phase=seed % 2 == 1,
        )
        fast = CDCLSolver(cnf, **options)
        slow = ReferenceCDCLSolver(cnf, **options)
        assert type(fast) is CDCLSolver
        for solver in (fast, slow):
            solver._reduce_threshold = 25  # force frequent compactions
            solver.enable_clause_export(max_lbd=6, max_length=12)
        for call in range(8):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 3), rng.randint(0, 5))
            ]
            budget = rng.choice((None, 60, 600))
            # A far deadline never expires but makes the search stop at
            # every poll stride and resume, mid-conflict or after a
            # decision.
            deadline = Deadline.after(3600.0) if call % 3 == 1 else None
            got, got_events, got_beats = self._observed_solve(
                fast, assumptions, max_conflicts=budget, deadline=deadline
            )
            want, want_events, want_beats = self._observed_solve(
                slow, assumptions, max_conflicts=budget, deadline=deadline
            )
            assert got.status is want.status, f"call {call}"
            assert got.stats == want.stats, f"call {call}"
            assert got.model == want.model, f"call {call}"
            assert got_events == want_events, f"call {call}"
            assert got_beats == want_beats, f"call {call}"
            self._assert_same_state(fast, slow)
            extra = _random_3cnf(rng, num_vars + 2, 0.02).clauses
            if call == 4:
                extra.append([rng.randint(1, num_vars)])  # a level-0 unit
            extra.append([1, -1])  # a tautology
            if call % 2:
                for clause in extra:
                    fast.add_clause(clause)
                    slow.add_clause(clause)
            else:
                fast.add_clauses(extra)
                slow.add_clauses(extra)
            self._assert_same_state(fast, slow)
        assert fast.stats.conflicts > 300
