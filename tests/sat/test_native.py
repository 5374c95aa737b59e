"""The native core's build, cache and fallback behaviour.

``CDCLSolver`` is the native search core when it builds and loads, and
the pure-Python ``ReferenceCDCLSolver`` otherwise; ``preprocess`` likewise
runs ``preprocess.c`` from the same shared object, or the Python pass
``reference_preprocess``.  These tests pin both sides: a failed build must
fall back to a working reference solver and preprocessor, and a host with
``gcc`` must actually run the native core -- otherwise the rest of the
suite could pass on the Python core without anyone noticing.
"""

import dataclasses
import importlib
import logging
import shutil

import pytest

from repro.sat import native
from repro.sat.cnf import CNF
from repro.sat.preprocess import preprocess, reference_preprocess
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


def _slab():
    """A small slab with eliminable auxiliaries and subsumed clauses."""
    return [
        [-5, 1], [-5, 2], [5, -1, -2], [1, 2], [1, 2, 3],
        [1, 2], [1, 3], [-2, -3, 4], [-4, 1], [6, 4, -1], [-6, 3],
    ]


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

    def test_missing_compiler_preprocesses_with_reference(
        self, fresh_loader, monkeypatch, caplog
    ):
        monkeypatch.setattr(native, "compiler", lambda: None)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            got = preprocess(_slab(), frozen={1, 2})
            CDCLSolver(_php_cnf(3))
            again = preprocess(_slab(), frozen={1, 2}, enable_blocked=True)
        assert native.load_library() is None
        want = reference_preprocess(_slab(), frozen={1, 2})
        assert _outcome(got) == _outcome(want)
        assert got.stats.variables_eliminated >= 1
        assert _outcome(again) == _outcome(
            reference_preprocess(_slab(), frozen={1, 2}, enable_blocked=True)
        )
        warnings = [r for r in caplog.records if "unavailable" in r.message]
        assert len(warnings) == 1  # once for the whole library

    def test_compile_error_falls_back_to_reference(
        self, fresh_loader, monkeypatch, tmp_path
    ):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc: the build is never attempted")
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], broken))
        solver = CDCLSolver(_php_cnf(3))
        assert type(solver) is ReferenceCDCLSolver
        assert solver.solve().is_unsat
        assert not list((fresh_loader / "repro-sat").glob("*.tmp"))

    def test_compile_error_preprocesses_with_reference(
        self, fresh_loader, monkeypatch, tmp_path, caplog
    ):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc: the build is never attempted")
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], broken))
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            got = preprocess(_slab(), frozen={1, 2})
            assert type(CDCLSolver(_php_cnf(3))) is ReferenceCDCLSolver
            preprocess(_slab())
        assert native.load_library() is None
        assert _outcome(got) == _outcome(
            reference_preprocess(_slab(), frozen={1, 2})
        )
        warnings = [r for r in caplog.records if "unavailable" in r.message]
        assert len(warnings) == 1


class TestNativeActive:
    def test_native_core_active_when_gcc_on_path(self):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the reference core is expected")
        assert native.load_library() is not None
        solver = CDCLSolver(_php_cnf(4))
        assert type(solver) is CDCLSolver
        assert solver.solve().status is SolverStatus.UNSAT

    def test_native_preprocessor_active_when_gcc_on_path(self, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the reference pass is expected")

        def no_reference(*args, **kwargs):
            raise AssertionError("preprocess() fell back to the Python pass")

        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.sat.preprocess")
        monkeypatch.setattr(module, "reference_preprocess", no_reference)
        result = preprocess(_slab(), frozen={1, 2})
        assert result.stats.variables_eliminated >= 1

    def test_build_is_cached_per_source(self, fresh_loader):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        assert native.load_library() is not None
        built = list((fresh_loader / "repro-sat").glob("core-*.so"))
        assert len(built) == 1
        stamp = built[0].stat().st_mtime_ns
        native._attempted = False  # a new process: reuse, do not rebuild
        assert native.load_library() is not None
        assert list((fresh_loader / "repro-sat").glob("core-*.so")) == built
        assert built[0].stat().st_mtime_ns == stamp

    def test_both_sources_are_in_the_cache_key(
        self, fresh_loader, monkeypatch, tmp_path
    ):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        assert native.load_library() is not None
        edited = tmp_path / "preprocess.c"
        edited.write_text(native.SOURCES[1].read_text() + "\n/* edit */\n")
        monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], edited))
        native._attempted = False
        assert native.load_library() is not None
        assert len(list((fresh_loader / "repro-sat").glob("core-*.so"))) == 2
