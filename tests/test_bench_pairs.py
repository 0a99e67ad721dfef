"""tools/bench_pairs.py refuses to summarize a run that failed an operation, and
ends with one summary line per end-to-end metric.

    python -m pytest tests/test_bench_pairs.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import run_once, summarize, summary_lines  # noqa: E402

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


def test_summary_line_per_metric_cites_medians_wins_and_spread():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "sweep_members_per_s", "unit": "1/s", "better": "higher"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    parent = [(0.20, 50.0), (0.22, 52.0), (0.21, 48.0), (0.24, 51.0)]
    change = [(0.18, 49.0), (0.17, 53.0), (0.19, 50.0), (0.25, 52.0)]
    pairs = [{"parent": {"metrics": {"wall_s": pw, "sweep_members_per_s": ps}},
              "change": {"metrics": {"wall_s": cw, "sweep_members_per_s": cs}}}
             for (pw, ps), (cw, cs) in zip(parent, change)]
    lines = summary_lines("flow_imcf", summarize(pairs, metrics))
    # a metric that no run reported gets no line
    assert len(lines) == 2
    assert lines[0] == ("flow_imcf wall_s (s, lower is better): parent median 0.215, "
                        "change median 0.185, median_rel -13.95%, change wins 3/4, "
                        "parent q1..q3 0.2075..0.225 (spread 0.0175)")
    assert lines[1] == ("flow_imcf sweep_members_per_s (1/s, higher is better): "
                        "parent median 50.5, change median 51, median_rel +0.99%, "
                        "change wins 3/4, parent q1..q3 49.5..51.25 (spread 1.75)")
