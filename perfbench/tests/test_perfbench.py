"""Tests of the benchmark's own helpers and a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from stats import count_above, nearest_rank, valid_metric_name  # noqa: E402
from tracer import covered_time, differentiate_flops, self_times  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402


def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.9) == 90
    assert count_above(values, nearest_rank(values, 0.9)) == 10
    assert nearest_rank([7.0], 0.9) == 7.0
    assert nearest_rank([3, 1, 2], 1.0) == 3
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1, 2], 0.0)


def test_self_time_from_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["d", 5.0, 6.0, 0, 1],
        ["e", 11.0, 12.0, -1, 2],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    # nested matches count once; a match below a non-match still counts
    assert covered_time(spans, ("b", "c")) == 3.0
    assert covered_time(spans, ("c", "d", "e")) == 3.0
    assert covered_time(spans, ("a",)) == 10.0


def test_metric_name_rule():
    for name in ("wall_s", "grid.differentiate.calls", "1-x", "a" * 64):
        assert valid_metric_name(name), name
    for name in ("", "_x", ".x", "a b", "x/y", "a" * 65, "wall_s\n"):
        assert not valid_metric_name(name), name


def test_calibration_window():
    from calibrate import REFERENCE_S, Calibrator

    cal = Calibrator()
    cal.mids = [0.0, 1.0, 2.0, 2.6, 10.0, 11.0, 20.0]
    cal.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # a short interval: only the probe on each side
    assert cal.local_kernel_s(2.1, 2.2) == 3.5
    # a 1 s interval: every probe within 1 s on either side
    assert cal.local_kernel_s(1.5, 2.5) == 3.0
    # a 9 s interval reaches 9 s out: here, every probe
    assert cal.local_kernel_s(3.0, 12.0) == 4.0
    assert cal.scale(3.0, 9.0) == 9.0 * REFERENCE_S / 4.0
    # before the first probe: the first one alone
    assert cal.local_kernel_s(-5.0, -4.9) == 1.0


def test_differentiate_flops_formula():
    from warpflow.grid import circle_grid, sphere_grid

    assert differentiate_flops(sphere_grid(64, 128)) == 64 * 128 * (8 * 63 + 28)
    assert differentiate_flops(circle_grid(512)) == 15 * 512


DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


TINY = Sizes(flow_grid="32x64", batch=3, imcf_t_final=0.002, sx_t_final=0.0005,
             gallery_grid="32x64", curve_grid="64", per_ambient=2, curves=2,
             min_verifies=1, min_evolves=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], sizes=TINY)
    outcomes, metrics, samples = run.timed_run(workload, seed=1, seconds=0, workers=2)
    assert [o.problems for o in outcomes if o.problems] == []
    assert sum(o.failed for o in outcomes) == 0
    assert samples["verifies"] >= 1 and samples["sweep_members"] >= 2
    assert all(value > 0 for value, _ in metrics.values())
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    timed_only = {"setup_s", "peak_rss_mb"}         # added by run.main
    assert {n: u for n, (_, u) in metrics.items()} == {
        n: u for n, u in declared.items() if n not in timed_only}

    outcomes, layers, _, problems = run.traced_run(
        workload, seed=1, seconds=0, workers=2, header={}, out_dir=tmp_path)
    assert problems == [] and sum(o.failed for o in outcomes) == 0
    assert all(valid_metric_name(n) for n in layers)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    setup_only = {"setup.import_s", "setup.build_s"}  # added by run.main
    assert {n: u for n, (_, u) in layers.items()} == {
        n: u for n, u in declared.items() if n not in setup_only}
    assert layers["cli.main.calls"][0] == len(workload.unit_ops(1, 0, 2))
    assert layers["grid.differentiate.calls"][0] >= layers["surface.geometry.calls"][0]
    flows = name.startswith("flow_")
    assert (layers["flows.geometry_calls"][0] > 0) == flows
    assert (layers["inequalities.ball_chi_inverse.calls"][0] > 0) == (name != "flow_imcf")
    assert list(tmp_path.glob("*.spans.jsonl"))
