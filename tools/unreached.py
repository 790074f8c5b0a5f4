"""List every function under ``src/repro`` that no end-to-end run enters.

Run from anywhere (stdlib only; about 30 s on two cores)::

    python tools/unreached.py

Each run below executes in its own interpreter under ``sys.setprofile``,
which records every code object the run enters:

- ``python -m repro run all --no-cache``;
- ``python -m repro serve`` for each of the four backends, plain and
  with ``--faults 0.05 --autoscale``;
- ``run e22 --faults 0.01``, ``run e19 --trace OUT.json`` and
  ``run e1 --trace OUT.json`` (a traced run steps e1's pipelines);
- ``list``, ``list --json`` and ``info``;
- every ``examples/*.py``.

The script then walks the AST of every module under ``src/repro`` and
prints ``file:line qualname`` for each function that none of the runs
entered. A nested function is printed only when its enclosing function
was entered, and bodies that hold nothing but a docstring, ``...`` or
``pass`` (protocol stubs) are skipped. It exits 1 if any run fails.

Some functions stay although only tests reach them; expect them in the
output:

- what ``perfbench/layers.py`` names in ``NAMED``/``CORE_TARGETS``
  (``workloads.orders_table``, ``CartesianPlan.materialize`` and
  ``Simulator.run_until_process`` among them): ``layers.install``
  raises if one is missing;
- ``_PipelinedKernel._stalled``, the stepped kernel's blocking wait:
  the traced e1 run keeps its kernel's input full and its output
  drained, so only tests make a stepped kernel block;
- the tracer hooks (they run only under a tracer) and ``exec/cache``
  (every run here is uncached);
- store operations checked against reference implementations
  (``HashTable.delete``, ``LsmStore.get`` and ``LsmStore.delete``);
- the PQ test oracles ``decode`` and ``adc_distances``;
- ``KMeansResult.assignments`` and ``inertia`` and the final pass
  behind them, which run only when read, and only the k-means tests
  read them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

# Runs inside each child: profile every call, run the target as
# ``__main__``, then write the entered (file, first line) pairs.
_CHILD = r"""
import runpy, sys
out, target, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.argv = [target] + argv
status = 0
sys.setprofile(profile)
try:
    if target.endswith(".py"):
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
finally:
    sys.setprofile(None)
with open(out, "w") as fh:
    for code in entered:
        fh.write(f"{code.co_filename}\t{code.co_firstlineno}\n")
sys.exit(status)
"""


def _runs(scratch: Path) -> list[list[str]]:
    runs = [
        ["repro", "run", "all", "--no-cache"],
        ["repro", "run", "e22", "--faults", "0.01", "--no-cache"],
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
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append([str(example)])
    return runs


def _entered(scratch: Path) -> set[tuple[str, int]]:
    """Run every traced run; return the (file, line) pairs entered."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_FAULT_RATE", None)

    def one(index_argv):
        index, argv = index_argv
        out = scratch / f"run{index}.tsv"
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, str(out), *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        return " ".join(argv), result.returncode, out

    entered: set[tuple[str, int]] = set()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for label, status, out in pool.map(one, enumerate(_runs(scratch))):
            if status != 0:
                raise SystemExit(f"run failed ({status}): {label}")
            for line in out.read_text().splitlines():
                filename, lineno = line.split("\t")
                entered.add((filename, int(lineno)))
    return entered


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


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        entered = _entered(Path(scratch))
    for line in unreached(entered):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
