"""The native core's build, cache and fallback behaviour.

``CDCLSolver`` is the native search core when it builds and loads, and
the pure-Python ``ReferenceCDCLSolver`` otherwise.  These tests pin both
sides: a failed build must fall back to a working reference solver, and a
host with ``gcc`` must actually run the native core -- otherwise the rest
of the suite could pass on the Python core without anyone noticing.
"""

import logging
import shutil

import pytest

from repro.sat import native
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, ReferenceCDCLSolver, SolverStatus


def _php_cnf(holes: int) -> CNF:
    """Pigeonhole: holes+1 pigeons into *holes* holes (UNSAT)."""
    pigeons = holes + 1
    cnf = CNF(pigeons * holes)

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                cnf.add_clause([-var(p, h), -var(q, h)])
    return cnf


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Forget the process's loaded core and build into an empty cache."""
    monkeypatch.setattr(native, "_attempted", False)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path


class TestFallback:
    def test_missing_compiler_falls_back_to_reference(
        self, fresh_loader, monkeypatch, caplog
    ):
        monkeypatch.setattr(native, "compiler", lambda: None)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            solver = CDCLSolver(_php_cnf(4))
            second = CDCLSolver(_php_cnf(3))
        assert type(solver) is ReferenceCDCLSolver
        assert type(second) is ReferenceCDCLSolver
        assert native.load_library() is None
        assert solver.solve().status is SolverStatus.UNSAT
        assert second.solve().status is SolverStatus.UNSAT
        sat = CDCLSolver(CNF(2))
        sat.add_clause([1, 2])
        assert sat.solve([-1]).model == [False, False, True]
        warnings = [r for r in caplog.records if "unavailable" in r.message]
        assert len(warnings) == 1  # logged once, not per construction

    def test_compile_error_falls_back_to_reference(
        self, fresh_loader, monkeypatch, tmp_path
    ):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc: the build is never attempted")
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        solver = CDCLSolver(_php_cnf(3))
        assert type(solver) is ReferenceCDCLSolver
        assert solver.solve().is_unsat
        assert not list((fresh_loader / "repro-sat").glob("*.tmp"))


class TestNativeActive:
    def test_native_core_active_when_gcc_on_path(self):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the reference core is expected")
        assert native.load_library() is not None
        solver = CDCLSolver(_php_cnf(4))
        assert type(solver) is CDCLSolver
        assert solver.solve().status is SolverStatus.UNSAT

    def test_build_is_cached_per_source(self, fresh_loader):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        assert native.load_library() is not None
        built = list((fresh_loader / "repro-sat").glob("cdcl-*.so"))
        assert len(built) == 1
        stamp = built[0].stat().st_mtime_ns
        native._attempted = False  # a new process: reuse, do not rebuild
        assert native.load_library() is not None
        assert list((fresh_loader / "repro-sat").glob("cdcl-*.so")) == built
        assert built[0].stat().st_mtime_ns == stamp
