"""Reach map: the functions under ``src/repro`` that no driver enters.

A *driver* runs the library the way a reader or a CI gate does:

* ``tools/check_docs.py``, which executes the doc walkthroughs;
* each ``examples/*.py``;
* ``pytest benchmarks/e2e/test_e2e_smoke.py``, every end-to-end workload
  at 1/20 scale;
* ``pytest benchmarks/`` with every ``BENCH_C1x_QUICK=1``: the
  paper-claim benches and the quick gates.

Tier-1 tests are deliberately not drivers: a function that only its own
tests call is what the map is for.

Each driver runs in its own subprocess with ``PYTHONHASHSEED=0`` and
``tools/reach_site`` first on ``PYTHONPATH``; the ``sitecustomize`` there
records the first call of every code object in ``repro``, in the driver
and in its child processes.  Functions are keyed ``module:qualname``, not
by line, so the list does not churn when nearby code is edited.  A
function nested in an unreached one is unreached with it and is not listed
on its own.  Abstract stubs (a body that only raises
``NotImplementedError``) are declarations and are not counted.  Body lines
run from a function's first body statement to its last line.

``tools/reach.txt`` has one line per unreached function::

    <class> <module>:<qualname> <body lines> [-- <reason>]

The class says why the function stays although no driver enters it:

* ``oracle``: a reference implementation that tests compare against
  (a ``*_brute_force`` twin, ``chase``, ``freeze``);
* ``safety``: recovery and durability (WAL/snapshot recovery, fsync,
  shard dedupe);
* ``pending(N)``: ROADMAP item N adds the driver that will enter it;
* ``api``: kept on purpose; the reason says why.

Run (a few minutes: the benchmark suite dominates)::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/reach.py          # rewrite the list
    PYTHONHASHSEED=0 PYTHONPATH=src python tools/reach.py --check  # fail on drift

``--check`` fails when an unreached function is missing from the list, or
a listed function is now reached or no longer exists, so the list can only
shrink.  A rewrite keeps each surviving entry's class and reason and marks
new entries ``unclassified``, which ``tests/test_reach.py`` rejects.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO_ROOT = TOOLS.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
SITE = TOOLS / "reach_site"
LIST_PATH = TOOLS / "reach.txt"
CLASS_RE = re.compile(r"oracle|safety|api|pending\(\d+\)")
ENTRY_RE = re.compile(
    r"(?P<cls>\S+)\s+(?P<key>\S+:\S+)\s+(?P<lines>\d+)(?:\s+--\s+(?P<reason>.+))?"
)
HEADER = """\
# Functions under src/repro that no driver enters (tools/reach.py writes
# this file and --check diffs it).  One line per function:
#   <class> <module>:<qualname> <body lines> [-- <reason>]
# Classes: oracle, safety, pending(N) (ROADMAP item N), api (needs a reason).
"""


@dataclass
class Function:
    """One ``def`` under ``src/repro``; a redefinition shares its entry."""

    lines: int
    parent: str | None  # key of the enclosing function, if any


@dataclass
class Entry:
    """One line of ``tools/reach.txt``."""

    cls: str
    key: str
    lines: int
    reason: str | None = None

    def render(self) -> str:
        line = f"{self.cls:<11} {self.key} {self.lines}"
        return f"{line} -- {self.reason}" if self.reason else line


# -- the census: every function, from the source -----------------------------
def module_name(path: Path) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package ``__init__`` drops out."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def census() -> dict[str, Function]:
    """Every ``def`` under ``src/repro``, keyed ``module:qualname``."""
    functions: dict[str, Function] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(tree, module_name(path), "", None, functions)
    return functions


def _collect(node, module: str, prefix: str, enclosing, functions) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_stub(child):
                continue
            qualname = prefix + child.name
            key = f"{module}:{qualname}"
            lines = child.end_lineno - child.body[0].lineno + 1
            if key in functions:  # e.g. a property setter under its getter's name
                functions[key].lines += lines
            else:
                functions[key] = Function(lines, enclosing)
            _collect(child, module, f"{qualname}.<locals>.", key, functions)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, f"{prefix}{child.name}.", enclosing, functions)
        else:
            _collect(child, module, prefix, enclosing, functions)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


# -- the drivers: what they enter, at run time ---------------------------------
def drivers() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Name -> (command, extra environment); each runs from the repo root."""
    python = sys.executable
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    found = {"tools/check_docs.py": ([python, "tools/check_docs.py"], {})}
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        name = f"examples/{example.name}"
        found[name] = ([python, name], {})
    found["e2e smoke"] = ([*pytest, "benchmarks/e2e/test_e2e_smoke.py"], {})
    quick = {f"BENCH_C{number}_QUICK": "1" for number in range(10, 20)}
    found["benchmarks, quick"] = ([*pytest, "benchmarks/"], quick)
    return found


def run_drivers(out: Path) -> None:
    """Run every driver under the hook; the root ``BENCH_*.json`` are restored."""
    saved = {path: path.read_bytes() for path in REPO_ROOT.glob("BENCH_*.json")}
    path = os.pathsep.join(filter(None, (str(SITE), str(SRC), os.environ.get("PYTHONPATH"))))
    try:
        for name, (command, extra) in drivers().items():
            env = {
                **os.environ, **extra,
                "PYTHONHASHSEED": "0", "PYTHONPATH": path, "REACH_OUT": str(out),
            }
            started = time.perf_counter()
            done = subprocess.run(
                command, cwd=REPO_ROOT, env=env, capture_output=True, text=True
            )
            print(f"reach: {name} ({time.perf_counter() - started:.0f} s)", flush=True)
            if done.returncode:
                sys.stdout.write(done.stdout[-4000:] + done.stderr[-4000:])
                raise SystemExit(f"reach: driver {name} failed (exit {done.returncode})")
    finally:
        for written in REPO_ROOT.glob("BENCH_*.json"):
            if written not in saved:
                written.unlink()
        for original, data in saved.items():
            original.write_bytes(data)


def entered(out: Path) -> set[str]:
    """Keys of every ``repro`` function that some driver process entered."""
    modules: dict[str, str | None] = {}
    keys: set[str] = set()
    for record in out.glob("reach-*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, qualname = line.split("\t")
            if filename not in modules:
                path = Path(filename).resolve()
                inside = path.suffix == ".py" and path.is_relative_to(PACKAGE)
                modules[filename] = module_name(path) if inside else None
            if modules[filename] is not None:
                keys.add(f"{modules[filename]}:{qualname}")
    return keys


def unreached(functions: dict[str, Function], reached: set[str]) -> dict[str, int]:
    """The outermost functions no driver entered -> their body lines."""
    return {
        key: function.lines
        for key, function in functions.items()
        if key not in reached and (function.parent is None or function.parent in reached)
    }


# -- the committed list ----------------------------------------------------------
def read_list(path: Path = LIST_PATH) -> list[Entry]:
    """The entries of ``tools/reach.txt``, in file order."""
    entries = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = ENTRY_RE.fullmatch(line.strip())
        if match is None:
            raise ValueError(f"{path.name}:{number}: malformed entry {line!r}")
        entries.append(
            Entry(match["cls"], match["key"], int(match["lines"]), match["reason"])
        )
    return entries


def list_problems(entries: list[Entry], functions: dict[str, Function]) -> list[str]:
    """What is wrong with the list, found without running a driver."""
    problems = []
    seen: set[str] = set()
    for entry in entries:
        if entry.key in seen:
            problems.append(f"{entry.key}: listed twice")
        seen.add(entry.key)
        if not CLASS_RE.fullmatch(entry.cls):
            problems.append(f"{entry.key}: unknown class {entry.cls!r}")
        elif entry.cls == "api" and not entry.reason:
            problems.append(f"{entry.key}: an api entry needs a reason")
        function = functions.get(entry.key)
        if function is None:
            problems.append(f"{entry.key}: no such function in src/repro")
        elif function.lines != entry.lines:
            problems.append(
                f"{entry.key}: listed with {entry.lines} body lines, src has {function.lines}"
            )
    return problems


def summary(functions: dict[str, Function], reached: set[str], entries: list[Entry]) -> str:
    """The census totals, then unreached body lines by class and by package."""
    by_class: Counter = Counter()
    by_package: Counter = Counter()
    for entry in entries:
        by_class[entry.cls] += entry.lines
        by_package[".".join(entry.key.split(":")[0].split(".")[:2])] += entry.lines
    return "\n".join([
        f"reach: {len(functions)} functions under src/repro, "
        f"{len(reached & functions.keys())} entered by a driver",
        f"reach: {len(entries)} unreached, {sum(by_class.values())} body lines",
        "  by class:   " + ", ".join(f"{name} {n}" for name, n in by_class.most_common()),
        "  by package: " + ", ".join(f"{name} {n}" for name, n in by_package.most_common()),
    ])


def main(argv: list[str] | None = None) -> int:
    """Run the drivers, then rewrite the list or (``--check``) diff it."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail if tools/reach.txt differs from a fresh census instead of rewriting it",
    )
    args = parser.parse_args(argv)
    functions = census()
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        run_drivers(Path(out))
        reached = entered(Path(out))
    found = unreached(functions, reached)
    listed = {entry.key: entry for entry in read_list()} if LIST_PATH.exists() else {}
    entries = [
        Entry(listed[key].cls, key, lines, listed[key].reason) if key in listed
        else Entry("unclassified", key, lines)
        for key, lines in sorted(found.items())
    ]
    print(summary(functions, reached, entries))
    if not args.check:
        LIST_PATH.write_text(HEADER + "".join(f"{e.render()}\n" for e in entries), encoding="utf-8")
        print(f"reach: wrote {LIST_PATH.relative_to(REPO_ROOT)}")
        return 0
    problems = [f"{key}: unreached but not listed" for key in sorted(found.keys() - listed.keys())]
    for key in sorted(listed.keys() - found.keys()):
        if key in reached:
            problems.append(f"{key}: listed but now entered by a driver")
        elif key in functions:
            problems.append(f"{key}: listed but its enclosing function is unreached too")
        else:
            problems.append(f"{key}: listed but no longer in src/repro")
    problems += list_problems(list(listed.values()), functions)
    for problem in problems:
        print(f"reach: FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
