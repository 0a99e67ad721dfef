"""tools/bench_pairs.py refuses to summarize a run that failed an operation,
keeps the medians of three traced runs per side and refuses counts that do not
repeat, lists only counts of work that moved, runs an A/A control in the same
pairs, and ends with one summary line per end-to-end metric.

    python -m pytest tests/test_bench_pairs.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import (main, run_once, summarize, summary_lines,  # noqa: E402
                         traced_counts_line)

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


_SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
         "per_layer": [{"name": "grid.differentiate.calls", "unit": "count", "better": "lower"},
                       {"name": "grid.differentiate.s", "unit": "s", "better": "lower"}]}


def traced_checkout(root: Path, log: Path, traced: list[dict]) -> Path:
    """A checkout whose perfbench/run.py appends its name and --trace value to
    log, and whose i-th traced run reports the metrics traced[i]."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    (root / "perfbench" / "run.py").write_text(f"""import json, sys
trace = sys.argv[sys.argv.index("--trace") + 1]
with open({str(log)!r}, "a") as fh:
    fh.write({root.name!r} + " " + trace + "\\n")
with open({str(log)!r}) as fh:
    done = sum(line.split() == [{root.name!r}, "1"] for line in fh) - 1
metrics = {{"wall_s": 0.5}} if trace == "0" else {traced!r}[done]
print(json.dumps({{"correct": True, "failed": 0,
                  "metrics": {{k: {{"value": v}} for k, v in metrics.items()}}}}))
""")
    return root


def _traced(calls, seconds):
    return [{"grid.differentiate.calls": c, "grid.differentiate.s": t}
            for c, t in zip(calls, seconds)]


def test_traced_seed_keeps_medians_of_three_alternating_runs(tmp_path):
    log = tmp_path / "runs.log"
    parent = traced_checkout(tmp_path / "parent", log,
                             _traced([154] * 3, [0.066, 0.061, 0.064]))
    change = traced_checkout(tmp_path / "change", log,
                             _traced([154] * 3, [0.065, 0.078, 0.070]))
    out = tmp_path / "bench.json"
    assert main(["--parent", str(parent), "--change", str(change), "--workload", "flow_imcf",
                 "--seeds", "1", "7919", "--seconds", "1", "--out", str(out), "--label", "imcf",
                 "--traced-seed", "1"]) == 0
    traced = [line.split()[0] for line in log.read_text().splitlines()
              if line.endswith(" 1")]
    assert traced == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())["runs"]["imcf"]["traced"]
    assert record["parent"]["metrics"] == {"grid.differentiate.calls": 154,
                                           "grid.differentiate.s": 0.064}
    assert record["change"]["metrics"] == {"grid.differentiate.calls": 154,
                                           "grid.differentiate.s": 0.070}
    assert record["change"]["runs"] == 3


def test_one_seed_is_its_own_median_and_quartiles(tmp_path):
    log = tmp_path / "runs.log"
    parent = traced_checkout(tmp_path / "parent", log, [])
    change = traced_checkout(tmp_path / "change", log, [])
    out = tmp_path / "bench.json"
    assert main(["--parent", str(parent), "--change", str(change), "--workload", "flow_imcf",
                 "--seeds", "7919", "--seconds", "1", "--out", str(out), "--label", "imcf"]) == 0
    summary = json.loads(out.read_text())["runs"]["imcf"]["summary"]["wall_s"]
    assert summary["parent"] == summary["change"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert summary["change_wins"] == "0/1" and summary["median_rel"] == 0.0


def test_traced_seed_refuses_a_count_that_does_not_repeat(tmp_path):
    log = tmp_path / "runs.log"
    parent = traced_checkout(tmp_path / "parent", log, _traced([154] * 3, [0.06] * 3))
    change = traced_checkout(tmp_path / "change", log, _traced([154, 155, 154], [0.06] * 3))
    with pytest.raises(SystemExit) as exc:
        main(["--parent", str(parent), "--change", str(change), "--workload", "flow_imcf",
              "--seeds", "1", "7919", "--seconds", "1", "--out", str(tmp_path / "bench.json"),
              "--label", "imcf", "--traced-seed", "1"])
    message = str(exc.value)
    assert "change" in message and "grid.differentiate.calls" in message
    assert "[154, 155, 154]" in message
    assert not (tmp_path / "bench.json").exists()


def test_output_bytes_are_not_a_count_of_work():
    # cli.output_bytes sums the lengths of printed floats: a last-digit change
    # moves it by a byte while every count of work stays equal
    metrics = [{"name": "grid.differentiate.calls", "unit": "count", "better": "lower"},
               {"name": "cli.output_bytes", "unit": "B", "better": "lower"}]

    def traced(parent, change):
        return {"seed": 1, **{side: {"metrics": {"grid.differentiate.calls": calls,
                                                 "cli.output_bytes": size}}
                              for side, (calls, size) in (("parent", parent),
                                                          ("change", change))}}

    assert (traced_counts_line("imcf", traced((154, 9481), (154, 9480)), metrics)
            == "imcf traced seed 1: every count equal")
    assert (traced_counts_line("imcf", traced((154, 9481), (155, 9480)), metrics)
            == "imcf traced seed 1: grid.differentiate.calls 154 -> 155")


def test_control_runs_in_every_pair_and_reports_its_a_a_figures(tmp_path):
    # parent, change, control on even pairs and the reverse on odd ones; the
    # summary keeps the A/B figures and adds the control's against the parent
    log = tmp_path / "runs.log"
    sides = {name: traced_checkout(tmp_path / name, log, [])
             for name in ("parent", "change", "control")}
    out = tmp_path / "bench.json"
    assert main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                 "--control", str(sides["control"]), "--workload", "flow_imcf",
                 "--seeds", "1", "2", "3", "--seconds", "1", "--out", str(out),
                 "--label", "imcf"]) == 0
    order = [line.split()[0] for line in log.read_text().splitlines()]
    assert order == ["parent", "change", "control", "control", "change", "parent",
                     "parent", "change", "control"]
    summary = json.loads(out.read_text())["runs"]["imcf"]["summary"]["wall_s"]
    assert summary["control"] == summary["parent"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert summary["control_wins"] == summary["change_wins"] == "0/3"
    assert summary["control_median_rel"] == summary["median_rel"] == 0.0


def test_summary_line_cites_the_a_a_control_beside_the_change():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    pairs = [{"parent": {"metrics": {"wall_s": p}}, "change": {"metrics": {"wall_s": c}},
              "control": {"metrics": {"wall_s": a}}}
             for p, c, a in ((0.20, 0.18, 0.21), (0.22, 0.17, 0.19), (0.21, 0.19, 0.22),
                             (0.24, 0.25, 0.23))]
    summary = summarize(pairs, metrics)
    assert summary["wall_s"]["control_wins"] == "2/4"
    assert summary_lines("flow_imcf", summary) == [
        "flow_imcf wall_s (s, lower is better): parent median 0.215, change median 0.185, "
        "median_rel -13.95%, change wins 3/4, parent q1..q3 0.2075..0.225 (spread 0.0175); "
        "A/A control median 0.215, control_median_rel +0.00%, control wins 2/4"]
    # without a control the line and the summary are as before
    for pair in pairs:
        del pair["control"]
    assert "control" not in summarize(pairs, metrics)["wall_s"]
    assert "A/A" not in summary_lines("flow_imcf", summarize(pairs, metrics))[0]
