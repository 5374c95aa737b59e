"""Build and load the native SAT core: the CDCL search (``cdcl.c``) and
the slab preprocessor (``preprocess.c``).

Both C sources next to this module are compiled with the system ``gcc``
into one shared object the first time a
:class:`~repro.sat.solver.CDCLSolver` is constructed or
:func:`~repro.sat.preprocess.preprocess` is called (never at import),
loaded with :mod:`ctypes`, and cached in the user cache directory
(``$XDG_CACHE_HOME/repro-sat`` or ``~/.cache/repro-sat``).  The cache key
hashes every source, the compiler flags and the compiler version, so a
machine compiles each source revision once; concurrent first builds are
safe because each writes a private temporary file and renames it into
place.

The flags never include ``-ffast-math`` and disable floating-point
contraction: VSIDS and clause activities must round exactly like
CPython's doubles for the native search to stay bit-identical to the
Python reference.

Any failure (no compiler, a failed build, an unloadable object) is logged
once and leaves :func:`load_library` returning ``None``; the solver then
falls back to :class:`~repro.sat.solver.ReferenceCDCLSolver` and
preprocessing to the Python pass of :mod:`repro.sat.preprocess`.  The
result is memoised per process -- forked workers inherit the loaded
library.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # ctypes/hashlib load on first use, not at import
    import ctypes

SOURCES = (
    Path(__file__).with_name("cdcl.c"),
    Path(__file__).with_name("preprocess.c"),
)
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: Indices into the ``Info`` counter block (``cdcl.c``), one int64 each.
DECISIONS = 0
PROPAGATIONS = 1
CONFLICTS = 2
RESTARTS = 3
LEARNED_CLAUSES = 4
MAX_DECISION_LEVEL = 5
TRAIL_LEN = 6
DECISION_LEVEL = 7
LEARNED_LIVE = 8
ARENA_LEN = 9
NUM_VARS = 10
REDUCE_THRESHOLD = 11
TRIVIALLY_UNSAT = 12
CALL_MAX_LEVEL = 13
RESTART_INTERVAL = 14
REDUCE_BEFORE = 15
EXPORTED_LEN = 16
INFO_FIELDS = 17

#: ``qs_search``/``qs_solve_start`` event codes.
EV_CONTINUE = 0
EV_SAT = 1
EV_UNSAT = 2
EV_ASSUMP_UNSAT = 3
EV_BUDGET = 4
EV_RESTART = 5
EV_REDUCED = 6
EV_POLL = 7

#: Indices into the ``Result`` block ``pp_run`` returns (``preprocess.c``),
#: one int64 each: the unsat flag, the statistics in ``PreprocessStats``
#: field order, five buffer lengths, then the five buffer addresses.
PP_UNSAT = 0
PP_STATS = 1
PP_NUM_STATS = 11
PP_NUM_LITS = 12
PP_NUM_CLAUSES = 13
PP_NUM_ELIM = 14
PP_NUM_BLOCKED = 15
PP_NUM_NAMES = 16
PP_LITS = 17
PP_ENDS = 18
PP_ELIM = 19
PP_BLOCKED = 20
PP_NAMES = 21
PP_RESULT_FIELDS = 22

_LOG = logging.getLogger(__name__)

_library: Optional[ctypes.CDLL] = None
_attempted = False


class BuildError(Exception):
    """The native core could not be built."""


def compiler() -> Optional[str]:
    """Path of the C compiler used to build the core, or ``None``."""
    return shutil.which("gcc")


def cache_dir() -> Path:
    """Directory holding the compiled shared objects."""
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(root) / "repro-sat"


def _build() -> Path:
    """Compile the core unless a cached build of these sources exists."""
    cc = compiler()
    if cc is None:
        raise BuildError("gcc not found on PATH")
    import hashlib

    version = subprocess.run(
        [cc, "-dumpfullversion", "-dumpversion"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    digest = hashlib.sha256()
    for source in SOURCES:
        digest.update(source.read_bytes())
        digest.update(b"\0")
    digest.update("\0".join(FLAGS + (version,)).encode())
    target = cache_dir() / f"core-{digest.hexdigest()[:20]}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        built = subprocess.run(
            [cc, *FLAGS, *map(str, SOURCES), "-o", str(partial)],
            capture_output=True,
        )
        if built.returncode != 0:
            raise BuildError(built.stderr.decode(errors="replace").strip())
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
    return target


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the argument and result types of the exported functions."""
    import ctypes

    ptr, i32, i64, f64 = (
        ctypes.c_void_p,
        ctypes.c_int32,
        ctypes.c_int64,
        ctypes.c_double,
    )
    signatures: Dict[str, Tuple[Any, List[Any]]] = {
        "qs_new": (ptr, [i32, f64, f64, i32]),
        "qs_free": (None, [ptr]),
        "qs_info": (ptr, [ptr]),
        "qs_ensure_vars": (None, [ptr, i64]),
        "qs_backjump0": (None, [ptr]),
        "qs_add_clauses": (None, [ptr, ptr, i64, ptr]),
        "qs_set_export": (None, [ptr, i32, i32]),
        "qs_drain_exported": (None, [ptr, ptr]),
        "qs_learned_lbds": (i64, [ptr, ptr]),
        "qs_model": (None, [ptr, ptr]),
        "qs_solve_start": (i32, [ptr, ptr, i64, i64, i32]),
        "qs_search": (i32, [ptr]),
        "pp_run": (ptr, [ptr, i64, ptr, ptr, i64, ptr]),
        "pp_free": (None, [ptr]),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def load_library() -> Optional[ctypes.CDLL]:
    """The loaded native core, building it on first use; ``None`` if
    unavailable (logged once per process)."""
    global _library, _attempted
    if not _attempted:
        import ctypes

        _attempted = True
        try:
            _library = _bind(ctypes.CDLL(str(_build())))
        except (
            OSError,
            RuntimeError,
            subprocess.SubprocessError,
            BuildError,
        ) as exc:
            _LOG.warning(
                "native SAT core unavailable, using the Python reference: %s",
                exc,
            )
    return _library


def info_view(lib: ctypes.CDLL, handle: int) -> ctypes.Array[ctypes.c_int64]:
    """The live ``Info`` counter block of solver *handle*."""
    import ctypes

    return (ctypes.c_int64 * INFO_FIELDS).from_address(lib.qs_info(handle))
