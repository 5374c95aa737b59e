"""Run the full static verification toolchain over the repository.

Four passes, all static (no solving):

1. **Code lint** (:mod:`repro.analysis.code_lint`): determinism and
   hot-loop checks over every file in ``src/repro`` and ``scripts``.
2. **Fork-safety lint**: lock/asyncio reachability from fork-pool worker
   entry points, over ``dist``, ``serve`` and the campaign runner.
3. **Design lint** (:mod:`repro.analysis.netlist_lint`): structural checks
   over every registered design version (elaborated at the default arch)
   plus the bug-library sanity diff (each buggy version's netlist delta
   against its clean base must stay inside its declared signals).
4. **mypy --strict** over the typed core (``sat``/``bmc``/``expr``), when
   mypy is importable.  The container image does not ship mypy, so this
   pass silently skips locally and runs in CI (the ``lint`` job installs
   it); the skip is reported in the summary.
5. **Native core warnings**: compiles every native source
   (``native.SOURCES``: ``cdcl.c`` and ``preprocess.c``) with the build
   flags of :mod:`repro.sat.native` plus ``-Wall -Wextra -Werror``
   (skipped, and reported, when ``gcc`` is not on ``PATH``).

Exit status is non-zero iff any pass produced an error-severity finding
(warnings never fail the run).  This script is the CI ``lint`` job's entry
point.

Usage::

    PYTHONPATH=src python scripts/lint_repro.py            # everything
    PYTHONPATH=src python scripts/lint_repro.py --json     # machine-readable
    PYTHONPATH=src python scripts/lint_repro.py --skip-designs   # fast, AST only
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.code_lint import lint_file, lint_fork_safety  # noqa: E402
from repro.analysis.findings import LintReport  # noqa: E402
from repro.analysis.netlist_lint import (  # noqa: E402
    lint_bug_library,
    lint_version_design,
)

#: File sets, relative to the repo root.
CODE_GLOBS = ("src/repro/**/*.py", "scripts/*.py")
FORK_GLOBS = (
    "src/repro/dist/*.py",
    "src/repro/serve/*.py",
    "src/repro/eval/campaign.py",
    # The chaos-harness fault injector fires inside forked workers (its
    # crash/delay/mangle sites are called from fork entry points), so it
    # is held to the same no-locks/no-asyncio reachability rule.
    "src/repro/faults.py",
    # The observability layer's collectors/registries are inherited by
    # every forked worker (the faults._INJECTOR pattern) and record from
    # inside them, so the whole package is in scope too.
    "src/repro/obs/*.py",
    # The fork-child runner: its child side is every fork entry's caller.
    "src/repro/procs.py",
)
#: Packages held to ``mypy --strict`` (via mypy.ini per-module sections).
TYPED_CORE = ("src/repro/sat", "src/repro/bmc", "src/repro/expr")


def _expand(patterns) -> List[str]:
    paths: List[str] = []
    for pattern in patterns:
        paths.extend(
            glob.glob(os.path.join(REPO_ROOT, pattern), recursive=True)
        )
    return sorted(set(paths))


def run_code_lint() -> LintReport:
    report = LintReport(subject="code")
    for path in _expand(CODE_GLOBS):
        report.extend(lint_file(path))
    return report


def run_fork_lint() -> LintReport:
    return lint_fork_safety(_expand(FORK_GLOBS))


def run_design_lint() -> LintReport:
    from repro.uarch.versions import ALL_VERSIONS

    report = LintReport(subject="designs")
    for version in ALL_VERSIONS:
        report.extend(lint_version_design(version))
    report.extend(lint_bug_library())
    return report


def run_mypy() -> tuple:
    """(report, ran) -- ran is False when mypy is not installed."""
    report = LintReport(subject="mypy")
    try:
        from mypy import api as mypy_api
    except ImportError:
        return report, False
    stdout, stderr, status = mypy_api.run(
        ["--config-file", os.path.join(REPO_ROOT, "mypy.ini")]
        + [os.path.join(REPO_ROOT, pkg) for pkg in TYPED_CORE]
    )
    if status != 0:
        for line in stdout.splitlines():
            if ": error:" in line:
                where, _, message = line.partition(": error:")
                report.add("mypy.error", where.strip(), message.strip())
        if not report.errors:  # crashed rather than found errors
            report.add("mypy.run", "mypy", stderr.strip() or stdout.strip())
    return report, True


def run_native_warnings() -> tuple:
    """(report, ran) -- ran is False when no C compiler is available."""
    import subprocess
    import tempfile

    from repro.sat import native

    report = LintReport(subject="native")
    cc = native.compiler()
    if cc is None:
        return report, False
    with tempfile.TemporaryDirectory() as scratch:
        built = subprocess.run(
            [cc, *native.FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", os.path.join(scratch, "core.so"),
             *map(str, native.SOURCES)],
            capture_output=True,
            text=True,
        )
    if built.returncode != 0:
        for line in built.stderr.splitlines():
            if "error:" in line:
                where, _, message = line.partition(" error:")
                report.add(
                    "native.warning", where.strip().rstrip(":"), message.strip()
                )
        if not report.errors:
            sources = " ".join(str(source) for source in native.SOURCES)
            report.add("native.build", sources, built.stderr.strip())
    return report, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON object"
    )
    parser.add_argument(
        "--skip-designs",
        action="store_true",
        help="skip design elaboration passes (AST + mypy only)",
    )
    parser.add_argument(
        "--skip-mypy", action="store_true", help="skip the mypy pass"
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    reports: Dict[str, LintReport] = {"code": run_code_lint()}
    reports["fork-safety"] = run_fork_lint()
    if not args.skip_designs:
        reports["designs"] = run_design_lint()
    mypy_ran = False
    if not args.skip_mypy:
        mypy_report, mypy_ran = run_mypy()
        if mypy_ran:
            reports["mypy"] = mypy_report
    native_report, native_ran = run_native_warnings()
    if native_ran:
        reports["native"] = native_report
    elapsed = time.perf_counter() - start

    total_errors = sum(len(r.errors) for r in reports.values())
    total_warnings = sum(len(r.warnings) for r in reports.values())

    if args.json:
        print(
            json.dumps(
                {
                    "ok": total_errors == 0,
                    "errors": total_errors,
                    "warnings": total_warnings,
                    "mypy_ran": mypy_ran,
                    "native_ran": native_ran,
                    "seconds": round(elapsed, 3),
                    "passes": {
                        name: report.to_json_dict()
                        for name, report in reports.items()
                    },
                },
                indent=2,
            )
        )
    else:
        for name, report in reports.items():
            status = "ok" if report.ok else "FAIL"
            print(
                f"[{status}] {name}: {len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
            for finding in report.findings:
                print("    " + finding.render())
        if not args.skip_mypy and not mypy_ran:
            print("[skip] mypy: not installed (CI installs it)")
        if not native_ran:
            print("[skip] native: gcc not on PATH")
        print(
            f"lint: {total_errors} error(s), {total_warnings} warning(s) "
            f"in {elapsed:.1f}s"
        )
    return 1 if total_errors else 0


if __name__ == "__main__":
    sys.exit(main())
