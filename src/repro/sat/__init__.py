"""Boolean satisfiability substrate.

Symbolic QED is driven by a bounded model checker, which in turn is driven by
a SAT solver (the paper uses the commercial Onespin 360 DV engine; we build
the same pipeline from scratch).  This package provides:

* :mod:`repro.sat.cnf` -- a CNF container with variable allocation and DIMACS
  input/output.
* :mod:`repro.sat.solver` -- a CDCL (conflict-driven clause learning) solver
  with two-watched-literal propagation, VSIDS branching, first-UIP conflict
  analysis, Luby restarts and phase saving.  Its search runs in a native C
  core (:mod:`repro.sat.native` builds it on first use); the pure-Python
  ``ReferenceCDCLSolver`` is the bit-identical reference and fallback.
* :mod:`repro.sat.preprocess` -- the single preprocessing code path:
  SatELite-style formula reduction (bounded variable elimination,
  subsumption, self-subsuming resolution, failed-literal probing, optional
  blocked-clause elimination) with a frozen-variable contract that makes it
  sound for the incremental BMC engine's per-bound clause slabs, plus the
  lightweight whole-CNF clean-up :func:`repro.sat.preprocess.simplify_cnf`
  (which absorbed the retired ``repro.sat.simplify`` module).  The
  reduction runs in the same native library as the search; the Python pass
  (``reference_preprocess``) is its bit-identical reference and fallback.

The public entry point used by the rest of the library is
:func:`repro.sat.solve`.
"""

from repro.sat.cnf import CNF, Literal, neg, var_of, sign_of
from repro.sat.solver import (
    CDCLSolver,
    SolverResult,
    SolverStats,
    SolverStatus,
    solve,
)
from repro.sat.preprocess import (
    PreprocessResult,
    PreprocessStats,
    SimplificationResult,
    extend_model,
    preprocess,
    reconstruct_blocked,
    simplify_cnf,
)

__all__ = [
    "CNF",
    "Literal",
    "neg",
    "var_of",
    "sign_of",
    "CDCLSolver",
    "SolverResult",
    "SolverStats",
    "SolverStatus",
    "solve",
    "simplify_cnf",
    "SimplificationResult",
    "PreprocessResult",
    "PreprocessStats",
    "extend_model",
    "preprocess",
    "reconstruct_blocked",
]
