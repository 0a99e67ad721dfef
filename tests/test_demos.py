"""Demo output locked byte for byte against stored golden files.

Each case runs one ``demos/*.py`` script in a fresh interpreter and compares
its exit code and every byte written to stdout against
``tests/golden/demos/<name>.txt``.  A change that is meant to alter a demo's
output regenerates the files with

    PYTHONPATH=src python tests/test_demos.py

which prints, per rewritten file, how many numbers changed and by how much,
for the change to state; any other change must leave them untouched.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _run(script: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, env=env,
                          cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(script):
    assert _run(script) == (GOLDEN / f"{script.stem}.txt").read_bytes()


if __name__ == "__main__":
    from test_cli_golden import numeric_diff

    GOLDEN.mkdir(exist_ok=True)
    for script in DEMOS:
        path = GOLDEN / f"{script.stem}.txt"
        new = _run(script)
        old = path.read_bytes() if path.exists() else None
        if new == old:
            continue
        path.write_bytes(new)
        what = "new file" if old is None else numeric_diff(old.decode(), new.decode())
        print(f"{path.name}: {what}")
