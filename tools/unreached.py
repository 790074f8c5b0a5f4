"""List the code under ``src/repro`` that no end-to-end run reaches.

Run from anywhere (stdlib only)::

    python tools/unreached.py          # functions no run enters (~20 s)
    python tools/unreached.py --lines  # lines no run executes (~20 s)

Each run below executes in its own interpreter, two at a time:

- ``python -m repro run all``;
- ``python -m repro serve`` for each of the four backends, plain and
  with ``--faults 0.05 --autoscale``;
- ``run e22 --faults 0.05`` (the lowest rate at which a Farview row
  injects latency spikes; a node still crashes), ``run e19 --trace
  OUT.json`` and ``run e1 --trace OUT.json`` (a traced run steps e1's
  pipelines);
- ``list``, ``list --json`` and ``info``.

The examples are not runs: code that only an example reaches counts as
unreached.

Without ``--lines``, each run is profiled with ``sys.setprofile``. The
script then walks the AST of every module under ``src/repro`` and prints
``file:line qualname`` for each function that none of the runs entered.
A nested function is printed only when its enclosing function was
entered, and bodies that hold nothing but a docstring, ``...`` or
``pass`` (protocol stubs) are skipped. ``tools/unreached_keep.txt``
lists, with a reason each, the functions that stay although only tests
reach them; CI fails when the printed functions differ from it.

With ``--lines``, each run is traced with ``sys.settrace`` line events
in frames under ``src/repro`` only, and the script prints, per file, the
executable lines (those the compiler gives a line number) that no run
executed, then the total. Every line of a ``raise`` statement is left
out: input validation stays although no run trips it. The lines of a
function nested in another count only when the enclosing function ran.

The script exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

# Runs inside each child: record what the module, run as ``__main__``,
# reaches, then write it as (file, line) pairs. In "functions" mode the
# line is each entered code object's first line; in "lines" mode it is
# each line executed in a frame under the package.
_CHILD = r"""
import runpy, sys
out, mode, package, module = sys.argv[1:5]
argv = sys.argv[5:]
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code, None))

def local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code, frame.f_lineno))
    return local

def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        return local
    return None

if mode == "lines":
    start = lambda: sys.settrace(trace)
    stop = lambda: sys.settrace(None)
else:
    start = lambda: sys.setprofile(profile)
    stop = lambda: sys.setprofile(None)

sys.argv = [module] + argv
status = 0
start()
try:
    runpy.run_module(module, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
finally:
    stop()
with open(out, "w") as fh:
    for code, line in seen:
        fh.write(f"{code.co_filename}\t{line or code.co_firstlineno}\n")
sys.exit(status)
"""


def _runs(scratch: Path) -> list[list[str]]:
    runs = [
        ["repro", "run", "all"],
        ["repro", "run", "e22", "--faults", "0.05"],
        ["repro", "run", "e19", "--trace", str(scratch / "e19.json")],
        ["repro", "run", "e1", "--trace", str(scratch / "e1.json")],
        ["repro", "list"],
        ["repro", "list", "--json"],
        ["repro", "info"],
    ]
    for backend in ("synthetic", "fanns", "microrec", "farview"):
        serve = ["repro", "serve", "--backend", backend]
        runs.append(serve)
        runs.append(serve + ["--faults", "0.05", "--autoscale"])
    return runs


def _reached(scratch: Path, mode: str) -> set[tuple[str, int]]:
    """Run every run in ``mode``; return the (file, line) pairs reached."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    package = str(PACKAGE) + os.sep

    def one(index_argv):
        index, argv = index_argv
        out = scratch / f"run{index}.tsv"
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, str(out), mode, package, *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        return " ".join(argv), result.returncode, out

    reached: set[tuple[str, int]] = set()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for label, status, out in pool.map(one, enumerate(_runs(scratch))):
            if status != 0:
                raise SystemExit(f"run failed ({status}): {label}")
            for line in out.read_text().splitlines():
                filename, lineno = line.split("\t")
                reached.add((filename, int(lineno)))
    return reached


def _is_stub(node: ast.AST) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


def unreached(entered: set[tuple[str, int]]) -> list[str]:
    """``file:line qualname`` of every function no run entered."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        rel = path.relative_to(ROOT)

        def visit(node, prefix, parent_entered):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent_entered)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first
                    # decorator.
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    hit = (filename, first) in entered
                    qualname = f"{prefix}{child.name}"
                    if not hit and parent_entered and not _is_stub(child):
                        found.append(f"{rel}:{child.lineno} {qualname}")
                    visit(child, f"{qualname}.<locals>.", hit)
                else:
                    visit(child, prefix, parent_entered)

        visit(ast.parse(path.read_text(), filename), "", True)
    return found


def line_counts(source: str, filename: str,
                hit: set[int]) -> tuple[list[int], int]:
    """The executable lines of ``source`` not in ``hit``, and how many
    executable lines it has, both without the lines of ``raise``
    statements.

    A code object's lines count when every function enclosing it ran;
    a function ran when a line of it other than its first (the ``def``
    or first decorator line, which the enclosing code executes) is hit.
    """
    raising = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Raise):
            raising.update(range(node.lineno, node.end_lineno + 1))
    counted: set[int] = set()

    def walk(code: CodeType) -> None:
        lines = {line for _, _, line in code.co_lines() if line}
        counted.update(lines)
        if code.co_flags & inspect.CO_OPTIMIZED:
            body = (lines - {code.co_firstlineno}) or lines
            if not body & hit:
                return
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const)

    walk(compile(source, filename, "exec"))
    executable = counted - raising
    return sorted(executable - hit), len(executable)


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unexecuted(executed: set[tuple[str, int]]) -> list[str]:
    """Per file, the executable lines no run executed; then the total."""
    hits: dict[str, set[int]] = {}
    for filename, line in executed:
        hits.setdefault(filename, set()).add(line)
    report = []
    missed_total = executable_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        missed, executable = line_counts(
            path.read_text(), filename, hits.get(filename, set())
        )
        missed_total += len(missed)
        executable_total += executable
        if missed:
            report.append(f"{path.relative_to(ROOT)} ({len(missed)}): "
                          f"{_ranges(missed)}")
    report.append(f"{missed_total} of {executable_total} executable lines "
                  f"under src/repro executed by no run")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true",
                        help="list unexecuted lines, not unentered functions")
    args = parser.parse_args()
    mode = "lines" if args.lines else "functions"
    with tempfile.TemporaryDirectory() as scratch:
        reached = _reached(Path(scratch), mode)
    report = unexecuted(reached) if args.lines else unreached(reached)
    for line in report:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
