"""Line coverage of the warpflow package over a pytest run, standard library only.

    PYTHONPATH=src:. python -m pytest -q -p tools.line_coverage

A pytest plugin: from the moment pytest loads it, a ``sys.settrace`` hook (and
``threading.settrace`` for new threads) records every line executed in a
module of the ``warpflow`` package.  At the end of the session it prints, per
module, the executed and the executable lines and the line numbers never
executed, as ranges, and the totals.  The executable lines of a module are the
line numbers of the bytecode compiled from its source, in every code object
(``co_lines``), so the body of an ``if TYPE_CHECKING:`` block counts as
unexecuted.

Only this interpreter is traced.  Code run in another process is not: the
forked children of a ``sweep --workers N`` pool, the demo scripts and the
subprocesses that some tests start.  A traced run is slower than an untraced
one (tier-1 took about a fifth longer on a 2-vCPU host).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpflow"
_PREFIX = str(PACKAGE) + os.sep
_executed: dict[str, set[int]] = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    """Trace the lines of a frame whose code lies in the package."""
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _local
    return None


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from path's source."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0: a module's RESUME
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(numbers) -> str:
    """Sorted line numbers as comma-separated ranges: 3-5, 9."""
    out: list[list[int]] = []
    for num in sorted(numbers):
        if out and num == out[-1][1] + 1:
            out[-1][1] = num
        else:
            out.append([num, num])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report_lines() -> list[str]:
    """One line per module of the package, then the totals."""
    lines, total_run, total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        possible = executable_lines(path)
        run = _executed.get(str(path), set()) & possible
        missed = possible - run
        total_run, total = total_run + len(run), total + len(possible)
        lines.append(f"{path.name:16s} {len(run):5d} / {len(possible):5d}"
                     + (f"   unexecuted: {ranges(missed)}" if missed else ""))
    lines.append(f"{'total':16s} {total_run:5d} / {total:5d}   "
                 f"{total - total_run} unexecuted")
    return lines


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("warpflow line coverage (executed / executable)")
    for line in report_lines():
        terminalreporter.write_line(line)
