"""Rules for the package's source, checked on its syntax trees alone.

Run from anywhere: ``python tests/package_rules.py``. It prints the message
of every rule that fails and exits 1, else exits 0:

* no ``assert`` statement in the package (``python -O`` strips them);
* the package imports only the standard library, numpy and yaml;
* no import cycle among the package's modules, counting imports inside
  functions and under ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path("src/remlab")


def _trees():
    """(path from the repository root, syntax tree) of every module of the package."""
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text())


def no_assert() -> str | None:
    hits = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    return "assert statements in src/remlab: " + ", ".join(hits) if hits else None


def only_stdlib_numpy_yaml() -> str | None:
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    hits = [
        f"{path}:{node.lineno} {name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] not in allowed
    ]
    return "imports outside the standard library, numpy and yaml: " + ", ".join(hits) if hits else None


def no_import_cycle() -> str | None:
    modules = {path.stem for path in (ROOT / PACKAGE).glob("*.py")} - {"__init__"}
    graph = {}
    for module in sorted(modules):
        deps = set()
        for node in ast.walk(ast.parse((ROOT / PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names = [a.name.removeprefix("remlab.") for a in node.names if a.name.startswith("remlab.")]
            elif isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").partition(".")[0] == "remlab"
            ):
                head = (node.module or "").removeprefix("remlab").lstrip(".").partition(".")[0]
                names = [head] if head else [a.name for a in node.names]
            else:
                continue
            deps.update(name for name in names if name in modules)
        graph[module] = deps
    done, path = set(), []

    def find_cycle(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        cycle = next(filter(None, map(find_cycle, sorted(graph[module]))), None)
        path.pop()
        done.add(module)
        return cycle

    cycle = next(filter(None, map(find_cycle, sorted(graph))), None)
    return "import cycle in src/remlab: " + " -> ".join(cycle) if cycle else None


RULES = (no_assert, only_stdlib_numpy_yaml, no_import_cycle)


def main() -> int:
    failures = [message for message in (rule() for rule in RULES) if message]
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
