"""Which functions of ``src/repro`` does no entry point ever call?

A function-level reachability census.  Every entry point in
:data:`ENTRY_POINTS` runs in a subprocess whose interpreter installs a
``sys.setprofile`` hook at start-up (a generated ``sitecustomize``
module put first on ``PYTHONPATH``), so the processes those entry points
start — the benchmark's workers and the process pool it drives — are
counted too.  Each process appends the first call of every
``src/repro`` function to one shared log.  The census then lists the
``def`` statements ``ast`` finds under ``src/repro`` that no process
called, module by module, and the total.

Run from the repository root (~5 min on two cores)::

    python -m tests.census

It is a ratchet: it exits 1 when the unreached total rises above
:data:`UNREACHED_LINES`, and when an entry point itself fails, since a
census of a crashed run means nothing.  A change that leaves fewer
lines unreached lowers the constant.  Stdlib only.  pytest does not
collect it: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``(label, arguments after the interpreter, exit codes that count as a
#: run)``; ``{output}`` becomes a fresh directory.  ``all`` exits 1 at
#: small scale because the figure claims need the paper's stream lengths.
FIGURES = tuple(f"figure{number}" for number in range(4, 13))
RUN_LEVEL = ("telemetry", "chaos", "observe", "latency")
ENTRY_POINTS = (
    *(
        (f"examples/{path.name}", [f"examples/{path.name}"], {0})
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    ("bench --smoke", ["-m", "bench", "--smoke"], {0}),
    *(
        (
            f"{command} --scale 0.05 --reps 1",
            ["-m", "repro.experiments", command, "--scale", "0.05", "--reps", "1",
             "--output", "{output}"],
            {0, 1} if command == "all" else {0},
        )
        for command in (*FIGURES, "all")
    ),
    *(
        (
            f"{command} --scale 0.02",
            ["-m", "repro.experiments", command, "--scale", "0.02", "--output", "{output}"],
            {0},
        )
        for command in RUN_LEVEL
    ),
)

#: test oracles by design, text-only reprs, the TTY-only dashboard and
#: ``--plot``'s matplotlib module
EXEMPT_MODULES = ("repro.analysis", "repro.experiments.plotting")
EXEMPT_NAMES = ("__repr__",)
EXEMPT_CLASSES = (
    "LiveDashboard",
    # the disabled recorder: its no-ops stand in for whichever
    # instrument a run does not touch
    "_NullInstrument",
    "_NullRegistry",
    "_NullTracer",
    "NullRecorder",
    # Section III's rejected alternative, which backs a CLAIM_TESTS row
    # in tests/test_public_api.py
    "ReactiveGrouping",
    "_ReportingAgent",
    # the fan-out grouping that gives the acker tuple trees of several
    # edges (tests/integration/test_storm_advanced.py)
    "AllGrouping",
)
#: qualified names, with every function nested in them
EXEMPT_FUNCTIONS = (
    # the test oracles of the Count-Min error bound
    "CountMinSketch.error_bound",
    "CountMinSketch.from_accuracy",
    # the estimate fallback for ids past ``EstimateTable.limit`` and for
    # a pair on a foreign hash family (tests/core/test_estimate_memo.py)
    "POSGScheduler._gather_columns",
)
#: the unreached total the census last read; it fails above it
UNREACHED_LINES = 675

_HOOK = '''\
import os
import sys
import threading

_fd = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = set()


def _census_hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith({root!r}):
                os.write(_fd, f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_census_hook)
threading.setprofile(_census_hook)
'''


def functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """Every ``def`` under ``src/repro``: ``(file, first line)`` — the
    first decorator's line when decorated, as in ``co_firstlineno`` —
    to ``(module, qualified name, last line)``, exemptions left out."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if module.startswith(EXEMPT_MODULES):
            continue

        def visit(node, prefix: str, exempt: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(
                        child, f"{prefix}{child.name}.",
                        exempt or child.name in EXEMPT_CLASSES,
                    )
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [line.lineno for line in child.decorator_list]
                    )
                    name = prefix + child.name
                    skipped = exempt or name in EXEMPT_FUNCTIONS
                    if not skipped and child.name not in EXEMPT_NAMES:
                        found[(str(path), first)] = (module, name, child.end_lineno)
                    visit(child, f"{name}.<locals>.", skipped)
                else:
                    visit(child, prefix, exempt)

        visit(ast.parse(path.read_text(), str(path)), "", False)
    return found


def run_entry_points(log: Path, scratch: Path) -> list[str]:
    """Run every entry point under the hook; returns the failures."""
    hooks = scratch / "hook"
    hooks.mkdir()
    (hooks / "sitecustomize.py").write_text(
        _HOOK.format(log=str(log), root=str(PACKAGE) + os.sep)
    )
    path = os.pathsep.join(
        [str(hooks), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    environment = dict(os.environ, PYTHONPATH=path)
    failures = []
    for number, (label, arguments, accepted) in enumerate(ENTRY_POINTS):
        output = scratch / f"out-{number}"
        command = [sys.executable, *(a.format(output=output) for a in arguments)]
        done = subprocess.run(
            command, cwd=ROOT, env=environment,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        print(f"# {label}: exit {done.returncode}", flush=True)
        if done.returncode not in accepted:
            failures.append(label)
            print(done.stderr[-2000:], file=sys.stderr)
    return failures


def main() -> int:
    defined = functions()
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        log = Path(scratch) / "calls.log"
        log.touch()
        failures = run_entry_points(log, Path(scratch))
        called = set()
        for line in log.read_text().splitlines():
            filename, first = line.split("\t")
            called.add((filename, int(first)))
    unreached = sorted(
        (module, first, name, last)
        for (filename, first), (module, name, last) in defined.items()
        if (filename, first) not in called
    )
    by_module = defaultdict(list)
    for module, first, name, last in unreached:
        by_module[module].append((first, name, last))
    lines = 0
    for module, entries in by_module.items():
        print(module)
        covered_to = 0
        for first, name, last in entries:
            print(f"  {first}: {name}")
            # a function nested in an unreached one is counted once
            if first > covered_to:
                lines += last - first + 1
                covered_to = last
    print(
        f"unreached: {len(unreached)} of {len(defined)} functions "
        f"({lines} lines) in {len(by_module)} modules; "
        f"{len(ENTRY_POINTS)} entry points"
    )
    if lines > UNREACHED_LINES:
        print(
            f"unreached lines rose from {UNREACHED_LINES} to {lines}",
            file=sys.stderr,
        )
    if failures:
        print(f"failed entry points: {', '.join(failures)}", file=sys.stderr)
    return 1 if failures or lines > UNREACHED_LINES else 0


if __name__ == "__main__":
    sys.exit(main())
