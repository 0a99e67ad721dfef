"""tools/bench_pairs.py refuses to summarize a run that failed an operation.

    python -m pytest tests/test_bench_pairs.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import run_once  # noqa: E402

sys.path.pop(0)


def fake_checkout(root: Path, correct: bool, failed: int) -> Path:
    """A checkout whose perfbench/run.py prints one FAIL line and a fixed result."""
    result = {"correct": correct, "attempted": 4, "failed": failed,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"print('FAIL sweep --surface x: seed 3: sweep deficits differ')\n"
        f"print({json.dumps(json.dumps(result))})\n")
    return root


def test_run_once_keeps_a_passing_run(tmp_path):
    checkout = fake_checkout(tmp_path, correct=True, failed=0)
    assert run_once("change", checkout, "gallery", 7, 1.0) == {
        "correct": True, "failed": 0, "metrics": {"wall_s": 0.5}}


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (False, 2)])
def test_run_once_ends_on_a_failed_operation(tmp_path, correct, failed):
    checkout = fake_checkout(tmp_path, correct=correct, failed=failed)
    with pytest.raises(SystemExit) as exc:
        run_once("change", checkout, "gallery", 7919, 1.0)
    message = str(exc.value)
    assert "change run of gallery seed 7919" in message
    assert f"{failed} failed" in message and "sweep deficits differ" in message
