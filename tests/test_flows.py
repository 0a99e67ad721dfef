import math

import numpy as np
import pytest

from warpflow.ambient import make_space_form
from warpflow.cli import _series_monotone_ok, _trace_columns
from warpflow.flows import (
    ConeViolation,
    FlowSpec,
    LazyReport,
    evolve,
    monotones,
    speed,
    step,
    variational_check,
)
from warpflow.grid import sphere_grid
from warpflow.inequalities import monotone_series
from warpflow.surface import geometry, make_seed_surface

EU = make_space_form(0)
HY = make_space_form(-1)
SP = make_space_form(1)


def test_spec_validation():
    with pytest.raises(ValueError, match="euclidean"):
        FlowSpec(kind="euclidean_inverse").validate(SP, 2)
    with pytest.raises(ValueError, match="hyperbolic"):
        FlowSpec(kind="hyperbolic_sx").validate(EU, 2)
    with pytest.raises(ValueError, match="sphere"):
        FlowSpec(kind="sphere_bgl", k=2).validate(EU, 2)
    with pytest.raises(ValueError, match="k = n"):
        FlowSpec(kind="sphere_bgl", k=1).validate(SP, 2)
    with pytest.raises(ValueError, match="outside"):
        FlowSpec(kind="imcf", k=3).validate(EU, 2)
    with pytest.raises(ValueError, match="unknown"):
        FlowSpec(kind="mcf").validate(EU, 2)
    FlowSpec(kind="imcf", k=2).validate(HY, 2)


def test_imcf_speed_unit_sphere():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="imcf"), EU, geometry(EU, graph))
    assert np.abs(f - 0.5).max() < 1e-12


def test_stationary_speeds_on_geodesic_spheres():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="hyperbolic_sx", k=1), HY, geometry(HY, graph))
    assert np.abs(f).max() < 1e-12
    graph = make_seed_surface(SP, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="sphere_bgl", k=2), SP, geometry(SP, graph))
    assert np.abs(f).max() < 1e-12


# kind -> (space, k, legendre seed (l, eps) off the cone, failing quantity, start class)
_OFF_CONE = {
    "imcf": (EU, 1, (4, 0.3), "H", "mean convex"),
    "euclidean_inverse": (EU, 2, (2, 0.45), "E_2", "2-convex"),
    "hyperbolic_sx": (HY, 1, (4, 0.45), "E_1", "1-convex"),
    "sphere_bgl": (SP, 2, (2, 0.45), "E_2", "strictly convex"),
}


@pytest.mark.parametrize("kind", sorted(_OFF_CONE))
def test_cone_guards_speed_and_start(kind):
    space, k, (l, eps), quantity, start_class = _OFF_CONE[kind]
    g = sphere_grid(32, 64)
    spec = FlowSpec(kind=kind, k=k, t_final=1e-3, report_dt=1e-3)
    graph = make_seed_surface(space, g, "legendre", r0=1, eps=eps, l=l)
    with pytest.raises(ConeViolation, match=f"{kind}: cone condition {quantity} > 0 fails"):
        speed(spec, space, geometry(space, graph))
    with pytest.raises(ValueError, match=f"needs a {start_class} start, min {quantity} ="):
        evolve(space, graph, spec)
    round_graph = make_seed_surface(space, g, "round", r0=1.0)
    assert np.all(np.isfinite(speed(spec, space, geometry(space, round_graph))))
    assert evolve(space, round_graph, spec).termination == ("reached_t_final",)


def test_forward_euler_step():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    out = step(EU, graph, FlowSpec(kind="imcf"), 1e-3)
    assert np.abs(out.u - (1 + 0.5e-3)).max() < 1e-15


def test_stationary_step_hyperbolic():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    out = step(HY, graph, FlowSpec(kind="hyperbolic_sx", k=1), 0.3)
    assert np.abs(out.u - 1.0).max() < 1e-12


def test_imcf_round_sphere_exponential():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=1.0, report_dt=0.25)
    trace = evolve(EU, graph, spec)
    assert trace.termination == ("reached_t_final",)
    assert np.abs(trace.samples[-1].u - math.exp(0.5)).max() < 1e-6
    area = np.array([s.report.area for s in trace.samples])
    assert np.abs(np.log(area / area[0]) - trace.times).max() < 1e-5


def test_evolve_stationary_trace():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    spec = FlowSpec(kind="hyperbolic_sx", k=1, t_final=1.0, report_dt=0.5)
    trace = evolve(HY, graph, spec)
    assert np.abs(trace.samples[-1].u - 1.0).max() < 1e-12
    areas = [s.report.area for s in trace.samples]
    assert max(areas) - min(areas) < 1e-10


def test_evolve_refuses_inadmissible_start():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.45, l=2)
    with pytest.raises(ValueError, match="2-convex|convex"):
        evolve(EU, graph, FlowSpec(kind="euclidean_inverse", k=2, t_final=0.1))
    # same seed is mean convex, so the mean curvature flow side starts fine
    spec = FlowSpec(kind="imcf", k=1, t_final=0.01, report_dt=0.01)
    trace = evolve(EU, graph, spec)
    assert trace.termination == ("reached_t_final",)


def test_sampling_grid_and_determinism():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.1, l=2)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.2, report_dt=0.05)
    t1 = evolve(EU, graph, spec)
    t2 = evolve(EU, graph, spec)
    assert np.allclose(t1.times, [0, 0.05, 0.1, 0.15, 0.2], atol=1e-12)
    assert all(np.array_equal(a.u, b.u) for a, b in zip(t1.samples, t2.samples))
    dts = [s.t for s in t1.samples]
    assert all(b > a for a, b in zip(dts, dts[1:]))


def test_euclidean_inverse_area_growth():
    # f = E_0/E_1 doubles the imcf rate: area grows like e^{2t} on spheres
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="euclidean_inverse", k=1, t_final=0.5, report_dt=0.1)
    trace = evolve(EU, graph, spec)
    area = np.array([s.report.area for s in trace.samples])
    assert np.abs(area / area[0] - np.exp(2 * trace.times)).max() < 1e-4


def test_hyperbolic_sx_converges_to_round():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "legendre", r0=1, eps=0.15, l=2)
    spec = FlowSpec(kind="hyperbolic_sx", k=1, t_final=5.0, report_dt=0.5)
    trace = evolve(HY, graph, spec)
    assert trace.termination == ("reached_t_final",)
    assert trace.samples[-1].max_speed < 1e-3
    spreads = [np.ptp(s.u) for s in trace.samples]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(spreads, spreads[1:]))
    assert spreads[-1] < 1e-3


def test_area_law_other_ambients():
    g = sphere_grid(32, 64)
    for space, r0, t_final in ((HY, 1.0, 0.4), (SP, 0.7, 0.25)):
        graph = make_seed_surface(space, g, "legendre", r0=r0, eps=0.1, l=2)
        spec = FlowSpec(kind="imcf", k=1, t_final=t_final, report_dt=t_final / 4)
        trace = evolve(space, graph, spec)
        area = np.array([s.report.area for s in trace.samples])
        assert np.abs(np.log(area / area[0]) - trace.times).max() < 1e-5


def test_variational_check_needs_samples():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.1, report_dt=0.1)
    trace = evolve(EU, graph, spec)
    with pytest.raises(ValueError, match="samples"):
        variational_check(EU, trace, spec, 1)


def test_variational_check_round_imcf():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.2, report_dt=0.01)
    trace = evolve(EU, graph, spec)
    for k in (0, 1, 2):
        assert variational_check(EU, trace, spec, k) < 1e-3


def test_accepted_steps_stay_in_cone():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.5, report_dt=0.05)
    trace = evolve(EU, graph, spec)
    assert all(s.class_report.mean_convex for s in trace.samples)
    assert not trace.findings


# Directions proved in the paper, per flow kind: name -> direction.
_PAPER_MONOTONES = {
    "imcf": (EU, 1, {"Q_imcf_1": -1}),
    "euclidean_inverse": (EU, 2, {"Qk_euclid_2": -1}),
    "hyperbolic_sx": (HY, 1, {"phiE1_plus_1W0": -1, "W_0": +1, "W_1": +1}),
    "sphere_bgl": (SP, 2, {"phiE2_plus_2W1": -1}),
}


@pytest.mark.parametrize("kind", sorted(_PAPER_MONOTONES))
def test_monotone_table_read_by_guard_series_and_cli(kind):
    space, k, expected = _PAPER_MONOTONES[kind]
    graph = make_seed_surface(space, sphere_grid(16, 32), "legendre", r0=1, eps=0.05, l=2)
    spec = FlowSpec(kind=kind, k=k, t_final=1e-3, report_dt=1e-3)
    trace = evolve(space, graph, spec)

    guard = monotones(spec, 2)
    assert {m.name: m.direction for m in guard} == expected
    series = monotone_series(space, trace, spec)
    assert list(series) == [m.name for m in guard] + ["newton_maclaurin_margin"]
    at_start = LazyReport(space, graph, geometry(space, graph))
    for m in guard:
        assert m.value(at_start) == series[m.name][0]

    ks = sorted(trace.samples[0].report.momenta)
    rows = monotones(spec, 2, ks)
    cli_rows = {m.name: m for m in rows}
    columns = dict(_trace_columns(trace, monotone_series(space, trace, spec, ks), rows))
    for m in guard:
        assert cli_rows[m.name].direction == m.direction
        assert columns[cli_rows[m.name].label or m.name] == list(series[m.name])
        against = {m.name: np.array([1.0, 1.0 - 0.01 * m.direction])}
        along = {m.name: np.array([1.0, 1.0 + 0.01 * m.direction])}
        assert _series_monotone_ok(against, spec, [m]) == [m.name]
        assert _series_monotone_ok(along, spec, [m]) == []
