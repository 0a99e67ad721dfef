"""tools/line_coverage.py lists the executable lines of a module from its
bytecode, prints them as ranges, and, loaded into a pytest run, reports the
lines of the package that the run executed.

    python -m pytest tests/test_line_coverage.py -q
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from line_coverage import executable_lines, ranges  # noqa: E402

sys.path.pop(0)


def test_executable_lines_and_ranges(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('"""doc"""\n\n\ndef f(x):\n    # a comment\n    if x:\n'
                      '        return 1\n    return 2\n')
    assert executable_lines(source) == {1, 4, 6, 7, 8}
    assert ranges({9, 3, 5, 4}) == "3-5, 9"
    assert ranges(set()) == ""


def test_plugin_reports_the_lines_a_run_executed(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from warpflow.grid import sphere_grid\n\n\n"
        "def test_grid():\n    assert sphere_grid(16, 32).n == 2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "tools.line_coverage",
                           "-p", "no:cacheprovider", "test_one.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = {cells[0]: (int(cells[1]), int(cells[3])) for cells in map(str.split,
            done.stdout.splitlines()) if len(cells) >= 4 and cells[2] == "/"}
    assert rows["grid.py"][0] > 0 and rows["__main__.py"][0] == 0
    assert rows["total"] == tuple(map(sum, zip(*(v for k, v in rows.items() if k != "total"))))
