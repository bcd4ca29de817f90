"""Line-reach gate: the run fails when a line of ``src/remlab`` never executes.

A pytest plugin that uses only the standard library. Run it over the whole
suite, with hypothesis derandomized so that the lines reached do not depend
on random examples::

    PYTHONPATH=src:tests python -m pytest -q -p reach --hypothesis-profile=derandomize

The executable lines of each module are those its code objects list in
``co_lines()``. A line is reached when a ``sys.settrace`` tracer sees it run,
in any thread. The tracer is installed when the plugin loads, so that
module-level lines count, and again before each test, because a
``RecursionError`` switches tracing off.

A line that the suite cannot run carries a marker with its reason::

    import foo  # unreached: only type checkers import this
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "remlab"
MARKER = "# unreached:"

_reached: dict[str, set[int]] = {}  # resolved path -> line numbers seen
_local_tracers: dict[str, object] = {}  # co_filename -> its local tracer, or None


def _local_tracer(filename: str):
    path = Path(filename).resolve()
    if PACKAGE not in path.parents:
        return None
    lines = _reached.setdefault(str(path), set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        local = _local_tracers[filename]
    except KeyError:
        local = _local_tracers[filename] = _local_tracer(filename)
    if local is None:
        return None
    local(frame, "line", arg)  # the ``call`` line: a def's or a class's first line
    return local


def _install() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def _executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _unreached() -> tuple[dict[str, list[int]], list[str]]:
    """(unmarked unreached lines per module, the marked unreached lines)."""
    missing: dict[str, list[int]] = {}
    marked: list[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        seen = _reached.get(str(path), set())
        name = str(path.relative_to(PACKAGE.parent))
        for line in sorted(_executable_lines(path) - seen):
            _, marker, reason = source[line - 1].partition(MARKER)
            if marker and reason.strip():
                marked.append(f"{name}:{line}:{reason.rstrip()}")
            else:
                missing.setdefault(name, []).append(line)
    return missing, marked


_install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    _install()


_report: list[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missing, marked = _unreached()
    _report.append(f"line reach: {len(marked)} unreached line(s) marked")
    _report.extend(f"  {entry}" for entry in marked)
    if missing:
        total = sum(len(lines) for lines in missing.values())
        _report.append(f"line reach: {total} line(s) of src/remlab never ran:")
        _report.extend(f"  {name}: {_ranges(lines)}" for name, lines in missing.items())
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
