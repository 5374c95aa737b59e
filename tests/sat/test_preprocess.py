"""Tests for the SatELite-style CNF preprocessor.

Every suite runs on both backends: ``preprocess`` (the native pass when
the core builds) and ``reference_preprocess`` (the Python pass), through a
``...Reference`` subclass that swaps ``run``.  ``TestPreprocessLockstep``
checks that the two produce identical results.
"""

import dataclasses
import random

import pytest

from repro.sat import native
from repro.sat.cnf import CNF
from repro.sat.preprocess import (
    extend_model,
    preprocess,
    reference_preprocess,
)
from repro.sat.solver import CDCLSolver


def _solve(clauses, num_vars):
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return CDCLSolver(cnf).solve()


def _max_var(clauses):
    return max((abs(l) for clause in clauses for l in clause), default=0)


class TestSubsumption:
    run = staticmethod(preprocess)

    def test_subsumed_clause_removed(self):
        result = self.run(
            [[1, 2], [1, 2, 3]], frozen={1, 2, 3}, enable_probing=False
        )
        assert result.stats.clauses_subsumed == 1
        assert [1, 2] in result.clauses
        assert [1, 2, 3] not in result.clauses

    def test_self_subsuming_resolution_strengthens(self):
        # (1 2) and (-1 2 3): resolving on 1 gives (2 3) which subsumes
        # the second clause, so literal -1 is removed from it.
        result = self.run(
            [[1, 2], [-1, 2, 3]], frozen={1, 2, 3}, enable_probing=False
        )
        assert result.stats.literals_strengthened == 1
        assert [2, 3] in result.clauses

    def test_duplicate_and_tautological_clauses_cleaned(self):
        result = self.run(
            [[1, -1, 2], [1, 2], [2, 1]], frozen={1, 2}, enable_probing=False
        )
        non_unit = [c for c in result.clauses if len(c) > 1]
        assert len(non_unit) == 1


class TestSubsumptionReference(TestSubsumption):
    run = staticmethod(reference_preprocess)


class TestVariableElimination:
    run = staticmethod(preprocess)

    def test_tseitin_auxiliary_disappears(self):
        # Variable 3 is a pure Tseitin definition 3 <-> (1 & 2); nothing
        # else mentions it, so BVE removes it without growth.
        clauses = [[-3, 1], [-3, 2], [3, -1, -2]]
        result = self.run(clauses, frozen={1, 2}, enable_probing=False)
        assert result.stats.variables_eliminated == 1
        assert all(3 not in map(abs, clause) for clause in result.clauses)

    def test_frozen_variables_never_eliminated(self):
        clauses = [[-3, 1], [-3, 2], [3, -1, -2], [-1, 2], [1, -2]]
        for frozen in ({1, 2, 3}, {3}):
            result = self.run(clauses, frozen=frozen, enable_probing=False)
            eliminated = {variable for variable, _ in result.eliminated}
            assert eliminated.isdisjoint(frozen)

    def test_elimination_preserves_satisfiability(self):
        clauses = [[-3, 1], [-3, 2], [3, -1, -2], [3]]
        result = self.run(clauses, frozen=set(), enable_probing=False)
        verdict = _solve(result.clauses, _max_var(clauses))
        assert verdict.is_sat
        model = extend_model(verdict.model, result.eliminated)
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


class TestVariableEliminationReference(TestVariableElimination):
    run = staticmethod(reference_preprocess)


class TestProbing:
    run = staticmethod(preprocess)

    def test_failed_literal_becomes_unit(self):
        # Assuming 1 propagates 2 (via -1 2 ... binary chains) into a
        # conflict, so -1 must hold at top level.
        clauses = [[-1, 2], [-1, 3], [-2, -3, 4], [-4, -1], [1, 5], [1, -5, 6]]
        result = self.run(
            clauses,
            frozen={1, 2, 3, 4, 5, 6},
            enable_elimination=False,
            enable_subsumption=False,
        )
        assert result.stats.failed_literals >= 1
        assert [-1] in result.clauses


class TestProbingReference(TestProbing):
    run = staticmethod(reference_preprocess)


class TestUnsatDetection:
    run = staticmethod(preprocess)

    def test_contradictory_units(self):
        result = self.run([[1], [-1]], frozen={1})
        assert result.unsat
        assert [] in result.clauses

    def test_unsat_core_via_resolution(self):
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        result = self.run(clauses, frozen=set())
        verdict = _solve(result.clauses, 2)
        assert verdict.is_unsat


class TestUnsatDetectionReference(TestUnsatDetection):
    run = staticmethod(reference_preprocess)


class TestRandomEquivalence:
    """Preprocessing must preserve satisfiability on random formulas.

    For every random CNF the original and the preprocessed formula are
    solved independently; the verdicts must agree, and on SAT the reduced
    model extended over the eliminated variables must satisfy every
    original clause.
    """

    run = staticmethod(preprocess)

    @pytest.mark.parametrize("seed", range(40))
    def test_preprocess_preserves_satisfiability(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        num_clauses = rng.randint(3, 4 * num_vars)
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, min(4, num_vars))
            variables = rng.sample(range(1, num_vars + 1), width)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        frozen = set(rng.sample(range(1, num_vars + 1), rng.randint(0, 3)))

        original = _solve(clauses, num_vars)
        result = self.run(clauses, frozen=frozen)
        eliminated = {variable for variable, _ in result.eliminated}
        assert eliminated.isdisjoint(frozen)
        reduced = _solve(result.clauses, num_vars)
        assert original.is_sat == reduced.is_sat
        assert original.is_unsat == reduced.is_unsat
        if reduced.is_sat:
            model = extend_model(reduced.model, result.eliminated)
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause), (
                    f"extended model falsifies {clause}"
                )


class TestRandomEquivalenceReference(TestRandomEquivalence):
    run = staticmethod(reference_preprocess)


class TestStatsPlumbing:
    run = staticmethod(preprocess)

    def test_stats_merge_accumulates(self):
        first = self.run([[1, 2], [1, 2, 3]], frozen={1, 2, 3}).stats
        second = self.run([[-4, 5]], frozen={4, 5}).stats
        total_in = first.clauses_in
        first.merge(second)
        assert first.clauses_in == total_in + second.clauses_in
        assert first.rounds >= second.rounds


class TestStatsPlumbingReference(TestStatsPlumbing):
    run = staticmethod(reference_preprocess)


class TestFrozenCutoff:
    run = staticmethod(preprocess)

    def test_variables_at_or_below_cutoff_survive(self):
        # Var 3 is an eliminable Tseitin auxiliary, but the cutoff freezes
        # it (the engine uses the cutoff for solver-known variables).
        clauses = [[-3, 1], [-3, 2], [3, -1, -2]]
        kept = self.run(clauses, frozen_cutoff=3, enable_probing=False)
        assert kept.stats.variables_eliminated == 0
        gone = self.run(clauses, frozen_cutoff=2, enable_probing=False)
        assert gone.stats.variables_eliminated == 1
        assert {variable for variable, _ in gone.eliminated} == {3}


class TestFrozenCutoffReference(TestFrozenCutoff):
    run = staticmethod(reference_preprocess)


class TestBlockedClauseElimination:
    """The optional BCE pass: off by default, sat-equivalent when on."""

    run = staticmethod(preprocess)

    def test_off_by_default(self):
        clauses = [[1, 2], [-1, -2, 3], [3, 4]]
        result = self.run(
            clauses,
            frozen={1, 2, 3, 4},
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
        )
        assert result.stats.clauses_blocked == 0
        assert result.blocked == []

    def test_textbook_blocked_clause_removed(self):
        # (1 2) is blocked on 1: the only clause containing -1 also
        # contains -2, so the resolvent is tautological.
        clauses = [[1, 2], [-1, -2, 3], [3, 4]]
        result = self.run(
            clauses,
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
            enable_blocked=True,
        )
        assert result.stats.clauses_blocked >= 1
        assert any(clause == [1, 2] for _, clause in result.blocked)

    def test_frozen_literal_never_blocks(self):
        clauses = [[1, 2], [-1, -2, 3], [3, 4]]
        result = self.run(
            clauses,
            frozen={1, 2, 3, 4},
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
            enable_blocked=True,
        )
        assert result.stats.clauses_blocked == 0

    def test_pure_literal_is_degenerate_blocked_case(self):
        # Variable 4 occurs only positively: no resolvents at all, so the
        # clause containing it is blocked.
        clauses = [[4, 1], [1, -2], [2, -1]]
        result = self.run(
            clauses,
            frozen={1, 2},
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
            enable_blocked=True,
        )
        assert any(abs(lit) == 4 for lit, _ in result.blocked)

    @pytest.mark.parametrize("seed", range(40))
    def test_bce_preserves_satisfiability(self, seed):
        """Sat-equivalence: same verdict, and extended models satisfy the
        original clauses (the blocked-clause repair included)."""
        rng = random.Random(7000 + seed)
        num_vars = rng.randint(4, 14)
        clauses = []
        for _ in range(rng.randint(6, 40)):
            width = rng.randint(1, 3)
            clauses.append(
                [
                    rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(width)
                ]
            )
        reference = _solve([list(c) for c in clauses], num_vars)
        # BCE alone (the other passes would hide it on formulas this small).
        result = self.run(
            [list(c) for c in clauses],
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
            enable_blocked=True,
        )
        if result.unsat:
            assert reference.is_unsat
            return
        reduced = _solve(result.clauses, num_vars)
        assert reduced.is_sat == reference.is_sat
        if reduced.is_sat:
            model = result.extend_model(reduced.model)
            for clause in clauses:
                assert any((lit > 0) == model[abs(lit)] for lit in clause), (
                    f"clause {clause} unsatisfied after blocked-clause repair"
                )


class TestBlockedClauseEliminationReference(TestBlockedClauseElimination):
    run = staticmethod(reference_preprocess)


class TestLegacySimplifyRetired:
    def test_simplify_module_is_gone(self):
        # The deprecation shim of the old ``repro.sat.simplify`` module was
        # removed after one PR cycle; ``simplify_cnf`` lives in (and is only
        # importable from) ``repro.sat.preprocess`` / the package root.
        import pytest

        with pytest.raises(ModuleNotFoundError):
            import repro.sat.simplify  # noqa: F401

    def test_simplify_cnf_exported_from_preprocess_and_package(self):
        import repro.sat
        from repro.sat.preprocess import SimplificationResult, simplify_cnf

        assert repro.sat.simplify_cnf is simplify_cnf
        assert repro.sat.SimplificationResult is SimplificationResult


def _outcome(result):
    """Everything a preprocess result carries except its wall-clock."""
    stats = dataclasses.replace(result.stats, time_seconds=0.0)
    return (
        result.clauses,
        result.eliminated,
        result.blocked,
        result.unsat,
        stats,
    )


def _random_slab(rng, num_vars, num_clauses, max_width=4):
    return [
        [
            rng.choice((1, -1)) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, max_width))
        ]
        for _ in range(num_clauses)
    ]


class TestPreprocessLockstep:
    """The native pass and the reference make the identical reduction:
    same output clauses (clause and literal order), elimination stack,
    blocked records, unsat flag and every statistic but the wall-clock."""

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if native.load_library() is None:
            pytest.skip("native core unavailable: preprocess is the reference")

    @staticmethod
    def _assert_lockstep(clauses, **options):
        got = preprocess([list(c) for c in clauses], **options)
        want = reference_preprocess([list(c) for c in clauses], **options)
        assert _outcome(got) == _outcome(want)
        return got

    @pytest.mark.parametrize("seed", range(72))
    def test_random_slabs(self, seed):
        rng = random.Random(9000 + seed)
        num_vars = rng.randint(3, 40)
        clauses = _random_slab(rng, num_vars, rng.randint(0, 5 * num_vars))
        clauses.append([1, -1])  # a tautology
        if seed % 9 == 0:
            clauses.append([])  # an empty clause
        frozen = set(
            rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars // 2))
        )
        # Variables outside the slab in the frozen set must be ignored.
        frozen.update(rng.sample(range(num_vars + 1, 3 * num_vars), 3))
        self._assert_lockstep(
            clauses,
            frozen=frozen,
            frozen_cutoff=rng.choice((0, 0, rng.randint(0, num_vars))),
            max_rounds=rng.choice((1, 3, 5)),
            enable_subsumption=seed % 5 != 1,
            enable_elimination=seed % 5 != 2,
            enable_probing=seed % 5 != 3,
            enable_blocked=seed % 4 == 0,
            bve_clause_limit=rng.choice((2, 4, 8)),
            bve_occurrence_limit=rng.choice((1, 3, 12)),
            bce_occurrence_limit=rng.choice((1, 24)),
        )

    @pytest.mark.parametrize("seed", range(24))
    def test_blocked_clause_pass(self, seed):
        rng = random.Random(9500 + seed)
        num_vars = rng.randint(4, 30)
        clauses = _random_slab(rng, num_vars, rng.randint(4, 4 * num_vars), 3)
        frozen = set(rng.sample(range(1, num_vars + 1), rng.randint(0, 3)))
        self._assert_lockstep(clauses, frozen=frozen, enable_blocked=True)
        self._assert_lockstep(
            clauses,
            frozen=frozen,
            enable_subsumption=False,
            enable_elimination=False,
            enable_probing=False,
            enable_blocked=True,
        )

    @pytest.mark.parametrize("seed", range(16))
    def test_probe_cutoffs_fire(self, seed):
        # Implication chains plus failed-literal gadgets give many probe
        # candidates; tiny probe limits and visit budgets stop the pass
        # part-way.
        rng = random.Random(9800 + seed)
        num_vars = rng.randint(20, 60)
        clauses = []
        for _ in range(3 * num_vars):
            a, b = sorted(rng.sample(range(1, num_vars + 1), 2))
            clauses.append([-a, b])
        for _ in range(num_vars // 10):
            x, y, z = rng.sample(range(1, num_vars + 1), 3)
            clauses += [[-x, y], [-x, z], [-y, -z]]
        frozen = set(range(1, num_vars + 1))  # keep every probe candidate
        unlimited = self._assert_lockstep(clauses, frozen=frozen)
        cutoffs = ((1, 2_000_000), (3, 40), (2000, 0), (2000, 25))
        probes = [
            self._assert_lockstep(
                clauses,
                frozen=frozen,
                probe_limit=probe_limit,
                probe_visit_budget=budget,
            ).stats.probes
            for probe_limit, budget in cutoffs
        ]
        if unlimited.stats.probes > 3:
            assert max(probes) < unlimited.stats.probes

    @pytest.mark.parametrize("holes", (2, 3, 4))
    def test_unsat_slabs(self, holes):
        pigeons = holes + 1

        def var(p, h):
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p in range(pigeons):
                for q in range(p + 1, pigeons):
                    clauses.append([-var(p, h), -var(q, h)])
        self._assert_lockstep(clauses)
        self._assert_lockstep(clauses, frozen={1, 2}, enable_blocked=True)
        contradiction = [[1, 2], [-1, 2], [1, -2], [-1, -2], [3, 4]]
        assert self._assert_lockstep(contradiction).unsat
        assert self._assert_lockstep([[5], [-5], [5, 6]], frozen={6}).unsat

    def test_engine_slab_from_a_small_av3_run(self, monkeypatch):
        import repro.bmc.engine as engine
        from repro.isa.arch import TINY_PROFILE
        from repro.qed import QEDMode, SymbolicQED

        recorded = []
        real = engine.preprocess

        def record(clauses, **options):
            recorded.append(([list(c) for c in clauses], options))
            return real(clauses, **options)

        monkeypatch.setattr(engine, "preprocess", record)
        SymbolicQED(
            "A.v3",
            mode=QEDMode.EDDIV,
            arch=TINY_PROFILE,
            focus_opcodes=["LDI", "MOV", "INC", "ADD"],
        ).check(max_bound=4)
        assert recorded, "the run preprocessed no slab"
        for clauses, options in recorded:
            result = self._assert_lockstep(clauses, **options)
            assert result.stats.variables_eliminated > 0

    @pytest.mark.parametrize("literal", (0, -(2**31)))
    def test_non_literals_are_rejected(self, literal):
        with pytest.raises(ValueError):
            preprocess([[1, 2], [3, literal]])

    @pytest.mark.parametrize("seed", range(24))
    def test_native_model_extends_to_the_original_slab(self, seed):
        rng = random.Random(9900 + seed)
        num_vars = rng.randint(4, 12)
        clauses = _random_slab(rng, num_vars, rng.randint(3, 3 * num_vars), 3)
        result = self._assert_lockstep(
            clauses, frozen={1}, enable_blocked=seed % 2 == 1
        )
        reduced = _solve(result.clauses, num_vars)
        assert reduced.is_sat == _solve(clauses, num_vars).is_sat
        if reduced.is_sat:
            model = result.extend_model(reduced.model)
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)
