"""List the code under ``src/repro`` that no end-to-end run reaches, and
the modelling defaults no output reads.

Run from anywhere (stdlib only)::

    python tools/unreached.py                # functions no run enters (~20 s)
    python tools/unreached.py --lines        # lines no run executes (~20 s)
    python tools/unreached.py --sites        # numeric defaults (no run)
    python tools/unreached.py --sensitivity  # what each moves (~10 min)

Each run below executes in its own interpreter, two at a time:

- ``python -m repro run all``;
- ``python -m repro serve`` for each of the four backends, plain and
  with ``--faults 0.05 --autoscale``;
- ``run e22 --faults 0.05`` (the lowest rate at which a Farview row
  injects latency spikes; a node still crashes), ``run e19 --trace
  OUT.json`` and ``run e1 --trace OUT.json`` (a traced run records
  e1's pipeline spans);
- ``list``, ``list --json`` and ``info``.

The examples are not runs: code that only an example reaches counts as
unreached.

By default, each run is profiled with ``sys.setprofile``. The
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

With ``--sites``, the script walks the AST and prints ``file:line
qualname`` for every modelling default: a numeric default of a
parameter (``func(param)``) or of an ``int``/``float`` class field
(``Class.field``). A default of 0 is an origin (a counter's start, a
delay, an absent resource), not a site, unless it is a seed.

With ``--sensitivity``, each site in turn takes another value (x1.5, +1
for an integer below 4, /1.5 for a fraction whose x1.5 would pass 1) in
a temporary copy of ``src/``, every run above reruns there, and the
script prints per site the outputs that moved (each experiment of ``run
all``, or the run) or the error that stopped a run. Two workers run the
sites; the checkout is never written. ``tools/sensitivity_keep.txt``
classifies every site: the outputs it moves, or why it stays although
it moves nothing.

Without ``--sensitivity``, the script exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
# Runs (or sensitivity sites) at a time.
_WORKERS = 2

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


def _runs() -> list[list[str]]:
    """The CLI runs; each runs with its scratch directory as the working
    directory, where the traced ones write their trace."""
    runs = [
        ["repro", "run", "all"],
        ["repro", "run", "e22", "--faults", "0.05"],
        ["repro", "run", "e19", "--trace", "e19.json"],
        ["repro", "run", "e1", "--trace", "e1.json"],
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
            cwd=scratch, env=env, stdout=subprocess.DEVNULL,
        )
        return " ".join(argv), result.returncode, out

    reached: set[tuple[str, int]] = set()
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        for label, status, out in pool.map(one, enumerate(_runs())):
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


def _number(node: ast.expr) -> int | float | None:
    """The number a default spells as a literal or literal arithmetic
    (``48 * 1024 * 1024``), else None."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant):
            if type(sub.value) not in (int, float):
                return None
        elif not isinstance(sub, (ast.BinOp, ast.operator)):
            return None
    value = eval(compile(ast.Expression(node), "<default>", "eval"),
                 {"__builtins__": {}})
    return value if type(value) in (int, float) else None


def sites(source: str,
          filename: str) -> list[tuple[ast.expr, str, int | float]]:
    """``(node, qualname, value)`` of every modelling default in ``source``.

    A site is a numeric default of a function parameter
    (``func(param)``, ``Class.method(param)``) or of an ``int``- or
    ``float``-annotated class field (``Class.field``). A default of 0 is
    no site unless it is a seed: zero is an origin (a counter's start, a
    delay, a root rank, an absent resource or rate), not a calibration.
    """
    found = []

    def add(node, qualname, name):
        value = _number(node)
        if value is not None and (value != 0 or name == "seed"):
            found.append((node, qualname, value))

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for stmt in child.body:
                    if (isinstance(stmt, ast.AnnAssign) and stmt.value
                            and isinstance(stmt.target, ast.Name)
                            and ast.unparse(stmt.annotation) in ("int",
                                                                 "float")):
                        name = stmt.target.id
                        add(stmt.value, f"{prefix}{child.name}.{name}", name)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaults = list(zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults))
                defaults += [(arg, default) for arg, default in
                             zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None]
                for arg, default in defaults:
                    add(default, f"{prefix}{child.name}({arg.arg})", arg.arg)
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(source, filename), "")
    return found


def changed(value: int | float) -> int | float:
    """The value a site takes in a sensitivity run: x1.5, or +1 for an
    integer below 4. A float in (0, 1] is a fraction: where x1.5 would
    leave that range, it is divided by 1.5 instead."""
    if type(value) is int:
        return value + 1 if value < 4 else value * 3 // 2
    if 0 < value <= 1 < value * 1.5:
        return value / 1.5
    return value * 1.5


def _package_sites() -> list[tuple[Path, ast.expr, str, int | float]]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node, qualname, value in sites(path.read_text(), str(path)):
            found.append((path.relative_to(ROOT), node, qualname, value))
    return found


def _outputs(src: Path, scratch: Path) -> dict[str, str]:
    """Each CLI run's output, ``run all`` split per experiment; a run
    that fails gives ``"stopped"`` and its last line of stderr."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    outputs = {}
    for argv in _runs():
        label = " ".join(argv[1:])
        result = subprocess.run(
            [sys.executable, "-m", *argv], cwd=scratch, env=env,
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            error = (result.stderr.strip().splitlines() or ["no stderr"])[-1]
            outputs[label] = f"stopped ({label}): {error}"
        elif argv[1:] == ["run", "all"]:
            # Each experiment's tables end with its "[eN] K cells" line.
            block: list[str] = []
            for line in result.stdout.splitlines():
                block.append(line)
                if line.startswith("[e") and line.endswith(" cells"):
                    outputs[line[1:line.index("]")]] = "\n".join(block)
                    block = []
        else:
            outputs[label] = result.stdout
    return outputs


def sensitivity() -> Iterator[str]:
    """Per site, the outputs that change when its value alone changes.

    Each worker copies ``src/`` once into a temporary directory; for
    each site it rewrites the default in its copy, reruns every CLI run
    there, then restores the file.
    """
    found = _package_sites()
    with tempfile.TemporaryDirectory() as scratch:
        copies: Queue[Path] = Queue()
        for worker in range(_WORKERS):
            copy = Path(scratch) / f"w{worker}"
            shutil.copytree(ROOT / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(copy)
        baseline = _outputs(copy / "src", copy)

        def probe(site):
            rel, node, qualname, value = site
            copy = copies.get()
            path = copy / rel
            original = path.read_text()
            lines = original.splitlines(keepends=True)

            def offset(lineno, col):
                # The AST's columns count UTF-8 bytes.
                line = lines[lineno - 1].encode()[:col].decode()
                return sum(map(len, lines[:lineno - 1])) + len(line)

            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            try:
                path.write_text(original[:start] + repr(changed(value))
                                + original[end:])
                outputs = _outputs(copy / "src", copy)
            finally:
                path.write_text(original)
                copies.put(copy)
            stops = [text for text in outputs.values()
                     if text.startswith("stopped (")]
            moved = [name for name, text in outputs.items()
                     if text != baseline.get(name) and text not in stops]
            result = "; ".join(stops + ([", ".join(moved)] if moved else []))
            return (f"{rel}:{node.lineno} {qualname} {value!r} -> "
                    f"{changed(value)!r}: {result or 'nothing'}")

        with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
            yield from pool.map(probe, found)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--lines", action="store_true",
                      help="list unexecuted lines, not unentered functions")
    what.add_argument("--sites", action="store_true",
                      help="list the numeric defaults (no run)")
    what.add_argument("--sensitivity", action="store_true",
                      help="per numeric default, the outputs it moves")
    args = parser.parse_args()
    if args.sites:
        report = [f"{rel}:{node.lineno} {qualname}"
                  for rel, node, qualname, _ in _package_sites()]
    elif args.sensitivity:
        report = sensitivity()
    else:
        mode = "lines" if args.lines else "functions"
        with tempfile.TemporaryDirectory() as scratch:
            reached = _reached(Path(scratch), mode)
        report = unexecuted(reached) if args.lines else unreached(reached)
    for line in report:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
