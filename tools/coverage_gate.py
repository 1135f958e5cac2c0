"""Stdlib-only line-coverage gate, parameterized per subsystem.

Runs a subsystem's test modules in-process under a ``sys.settrace``
line tracer restricted to that subsystem's source tree and fails
(exit 1) if any file falls below the threshold.  Stdlib-only by
design: the container has no ``coverage`` package, and the gate must
run anywhere the repo's Python does.

Executable lines are derived from the compiled code objects
(``co_lines`` over the module and every nested function/class body),
the same source of truth the interpreter reports trace events from, so
the two sides of the ratio can never disagree about what counts.

Gates::

    python tools/coverage_gate.py faults            # src/repro/faults/
    python tools/coverage_gate.py service --min 90  # src/repro/service/
    python tools/coverage_gate.py suites --min 90   # src/repro/suites/
    python tools/coverage_gate.py fleet --min 90    # src/repro/service/fleet/

``make coverage``, ``make coverage-service``, ``make coverage-suites``,
``make coverage-telemetry`` and ``make coverage-fleet`` wrap these.
A gate may ``exclude`` subtrees that have their own dedicated gate (the
fleet package lives under ``service/`` but is gated by ``fleet``).
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DEFAULT_MIN_PCT = 90.0

#: Per-subsystem gate: source tree (rglob'd) + the test modules that
#: must exercise it (kept in sync with the matching Makefile target).
GATES = {
    "faults": {
        "target": ROOT / "src" / "repro" / "faults",
        "tests": (
            "tests/test_faults_properties.py",
            "tests/test_faults_determinism.py",
            "tests/test_faults_edgecases.py",
            "tests/test_fault_sweep.py",
            "tests/test_reference_equivalence.py",
        ),
    },
    "service": {
        "target": ROOT / "src" / "repro" / "service",
        "exclude": (ROOT / "src" / "repro" / "service" / "fleet",),
        "tests": (
            "tests/test_service.py",
            "tests/test_resilience.py",
            "tests/test_service_errors.py",
        ),
    },
    "fleet": {
        "target": ROOT / "src" / "repro" / "service" / "fleet",
        "tests": (
            "tests/test_fleet.py",
        ),
    },
    "suites": {
        "target": ROOT / "src" / "repro" / "suites",
        "tests": (
            "tests/test_suites.py",
            "tests/test_suites_determinism.py",
        ),
    },
    "telemetry": {
        "target": ROOT / "src" / "repro" / "telemetry",
        "tests": (
            "tests/test_telemetry.py",
            "tests/test_report.py",
        ),
    },
}


def executable_lines(path: Path) -> set:
    """Line numbers carrying bytecode, from the compiled code objects."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        # line 0 is the compiler's module preamble (RESUME), not source.
        lines.update(
            line for _, _, line in obj.co_lines() if line is not None and line > 0
        )
        stack.extend(c for c in obj.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Records line events for the target files only.

    The global trace function declines (returns ``None``) for frames
    outside the target set, so the interpreter runs everything else at
    full speed.  Installed via both ``sys.settrace`` and
    ``threading.settrace``, so daemon/router threads are counted;
    subprocesses (pool workers, member daemons) are not.
    """

    def __init__(self, targets: dict) -> None:
        self._targets = targets  # filename -> set of hit lines
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "line":
            hits = self._targets.get(frame.f_code.co_filename)
            if hits is not None:
                hits.add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename in self._targets:
            return self._local(frame, event, arg)
        return None

    def __enter__(self):
        self._previous = sys.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        threading.settrace(self._previous)
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "gate", choices=sorted(GATES),
        help="which subsystem's coverage gate to run",
    )
    parser.add_argument(
        "--min", type=float, default=DEFAULT_MIN_PCT, metavar="PCT",
        help=f"fail if any file is below PCT percent line coverage "
             f"(default {DEFAULT_MIN_PCT:g})",
    )
    args = parser.parse_args(argv)
    gate = GATES[args.gate]
    target_dir = gate["target"]

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    excluded = tuple(gate.get("exclude", ()))
    files = sorted(
        path for path in target_dir.rglob("*.py")
        if not any(exc in path.parents for exc in excluded)
    )
    if not files:
        print(f"no Python files under {target_dir}", file=sys.stderr)
        return 1
    wanted = {str(path): executable_lines(path) for path in files}
    hits = {name: set() for name in wanted}

    import pytest  # deferred: path setup above must come first

    with LineTracer(hits):
        status = pytest.main(["-q", *gate["tests"]])
    if status != 0:
        print(f"{args.gate} test suite failed; coverage not evaluated",
              file=sys.stderr)
        return int(status)

    rel = target_dir.relative_to(ROOT)
    print(f"\nline coverage of {rel}/ (gate: {args.min:g}%):")
    failed = False
    for name in sorted(wanted):
        want = wanted[name]
        got = hits[name] & want
        pct = 100.0 * len(got) / len(want) if want else 100.0
        short = Path(name).relative_to(ROOT)
        missing = sorted(want - got)
        note = f"  missing lines: {missing}" if missing else ""
        print(f"  {short}: {pct:.1f}% ({len(got)}/{len(want)}){note}")
        if pct < args.min:
            failed = True
    if failed:
        print(f"FAIL: coverage below {args.min:g}%", file=sys.stderr)
        return 1
    print(f"OK: every {rel} file is at or above {args.min:g}% line coverage.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
