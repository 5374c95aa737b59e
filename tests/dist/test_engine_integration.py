"""BMC engine + distributed proof engine: verdict equivalence, stats, replay."""

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker, SafetyProperty
from repro.dist import SplitConfig
from repro.expr import BVConst, BVVar, mux
from repro.qed import QEDMode, SymbolicQED
from repro.rtl import Circuit, elaborate


def _counter_design(width: int = 6):
    circuit = Circuit("dist_counter")
    enable = circuit.input("enable", 1)
    count = circuit.register("count", width, reset=0)
    count.next = mux(enable, count.q + BVConst(width, 1), count.q)
    circuit.output("value", count.q)
    return elaborate(circuit), width


def _problem(prop_value, width=6, **kwargs):
    design, _ = _counter_design(width)
    prop = SafetyProperty(
        f"never{prop_value}",
        BVVar("count", width).ne(BVConst(width, prop_value)),
    )
    return BMCProblem(design=design, prop=prop, **kwargs)


class TestVerdictEquivalence:
    @pytest.mark.parametrize("strategy", ["auto", "window", "lookahead", "portfolio"])
    def test_violating_run_matches_sequential(self, strategy):
        sequential = BoundedModelChecker(_problem(5, max_bound=8)).run()
        distributed = BoundedModelChecker(
            _problem(
                5,
                max_bound=8,
                split=SplitConfig(workers=1, strategy=strategy),
            )
        ).run()
        assert sequential.status is BMCStatus.VIOLATION
        assert distributed.status is BMCStatus.VIOLATION
        # Dense schedules agree on the first violating bound: it is a
        # semantic property of the design, not of the solver.
        assert distributed.bound_reached == sequential.bound_reached
        # Both counterexamples replayed through the simulator and violated
        # the property (the engine raises otherwise); equal length because
        # dense windows are one frame wide.
        assert (
            distributed.counterexample_length
            == sequential.counterexample_length
        )

    @pytest.mark.parametrize("strategy", ["auto", "window", "lookahead", "portfolio"])
    def test_safe_run_matches_sequential(self, strategy):
        sequential = BoundedModelChecker(_problem(63, max_bound=6)).run()
        distributed = BoundedModelChecker(
            _problem(
                63,
                max_bound=6,
                split=SplitConfig(workers=1, strategy=strategy),
            )
        ).run()
        assert sequential.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert distributed.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert distributed.frames_proven == sequential.frames_proven

    def test_two_workers_match_sequential(self):
        sequential = BoundedModelChecker(
            _problem(63, bound_schedule=[6])
        ).run()
        distributed = BoundedModelChecker(
            _problem(63, bound_schedule=[6], split=SplitConfig(workers=2))
        ).run()
        assert distributed.status is sequential.status

    def test_single_query_schedule_with_split(self):
        distributed = BoundedModelChecker(
            _problem(5, bound_schedule=[8], split=SplitConfig(workers=1))
        ).run()
        assert distributed.status is BMCStatus.VIOLATION
        assert distributed.counterexample is not None


class TestDistStatsPlumbing:
    def test_per_bound_cube_stats_recorded(self):
        result = BoundedModelChecker(
            _problem(63, max_bound=4, split=SplitConfig(workers=1))
        ).run()
        queried = [s for s in result.per_bound_stats if s.verdict != "skipped"]
        assert queried
        assert all(s.dist is not None for s in queried)
        assert result.cubes_solved == sum(
            s.dist.cubes_total for s in queried
        )
        assert result.cubes_solved > len(queried)  # actually split

    def test_sequential_runs_have_no_dist_stats(self):
        result = BoundedModelChecker(_problem(63, max_bound=4)).run()
        assert all(s.dist is None for s in result.per_bound_stats)
        assert result.cubes_solved == 0

    def test_zero_budget_still_accepts_free_proofs(self):
        # The counter property constant-folds, so every cube refutes with
        # zero conflicts: a zero conflict budget must not discard a proof
        # that cost nothing (sequential and parallel schedulers agree).
        result = BoundedModelChecker(
            _problem(
                63,
                bound_schedule=[6],
                max_conflicts_per_query=0,
                split=SplitConfig(workers=1, cube_conflict_budget=0),
            )
        ).run()
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert result.frames_proven == 6
        assert result.per_bound_stats[-1].verdict == "unsat"
        assert result.total_conflicts == 0

    def test_symbolic_initial_state_replays_through_split(self):
        # The solver-chosen symbolic start state must survive the worker
        # round-trip: the replayed counterexample seeds from the model.
        problem = _problem(
            13,
            bound_schedule=[1],
            initial_state={"count": "symbolic"},
            split=SplitConfig(workers=1),
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        assert result.counterexample is not None


class TestLearnedCarried:
    """``learned_clauses_carried`` in split mode is a measurement."""

    @staticmethod
    def _depth_run(workers):
        harness = SymbolicQED(
            "B.v6",
            mode=QEDMode.EDDIV_CF,
            focus_opcodes=["LDI", "ADD", "CMPI", "BZ"],
            tracked_registers=(0,),
        )
        return harness.check(
            max_bound=5 if workers == 1 else 4,
            single_query=False,
            max_conflicts_per_query=3000,
            split=SplitConfig(workers=workers, cube_conflict_budget=1500),
        ).bmc_result

    def test_inline_single_worker_reports_its_solver(self):
        # The inline scheduler reuses one solver across bounds, so the
        # learned clauses it carries are real and feed the reuse total.
        result = self._depth_run(workers=1)
        queried = [s for s in result.per_bound_stats if s.verdict != "skipped"]
        carried = [s.learned_clauses_carried for s in queried]
        assert all(isinstance(count, int) for count in carried)
        assert max(carried) > 0
        assert result.learned_clauses_carried == carried[-1]
        assert result.learned_clauses_reused > 0

    def test_worker_pool_reports_none(self):
        # No solver persists across bounds in a pool: nothing is carried,
        # and the field says so instead of claiming 0.
        result = self._depth_run(workers=2)
        assert all(
            s.learned_clauses_carried is None for s in result.per_bound_stats
        )
        assert result.learned_clauses_carried is None
        assert result.learned_clauses_reused == 0


class TestDeterminism:
    def test_single_worker_distributed_runs_are_identical(self):
        def run():
            result = BoundedModelChecker(
                _problem(
                    63,
                    max_bound=5,
                    split=SplitConfig(workers=1, cube_conflict_budget=20),
                )
            ).run()
            return [
                (
                    s.bound,
                    s.verdict,
                    s.conflicts,
                    s.decisions,
                    s.propagations,
                    tuple(
                        (c.literals, c.verdict, c.conflicts, c.depth)
                        for c in (s.dist.cubes if s.dist else ())
                    ),
                )
                for s in result.per_bound_stats
            ]

        assert run() == run()
