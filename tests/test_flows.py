import dataclasses
import math

import numpy as np
import pytest

import warpflow.flows as flows
import warpflow.surface as surface
from warpflow.ambient import make_custom, make_space_form
from warpflow.cli import _trace_columns
from warpflow.flows import (
    REJECTIONS,
    ConeViolation,
    FlowSpec,
    evolve,
    monotones,
    speed,
    variational_check,
)
from warpflow.grid import sphere_grid
from warpflow.inequalities import STATEMENTS, check, monotone_series
from warpflow.quantities import QuantityReport, full_report
from warpflow.surface import DomainError, RadialGraph, geometry, make_seed_surface

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


@pytest.mark.parametrize("kind", sorted(flows.FLOWS))
def test_flows_run_where_the_statement_they_prove_is_stated(kind):
    # FlowSpec.validate reads the ambient from the flow's STATEMENTS row, and
    # refuses exactly the ambients that the row's check refuses
    proves = flows.FLOWS[kind].proves
    row = STATEMENTS[proves]
    for space in (EU, HY, SP, make_custom("cosh", a=0.5), make_custom("power_cubic", beta=0.5)):
        rep = QuantityReport(space, make_seed_surface(space, sphere_grid(16, 32), "round", r0=1.0))
        spec = FlowSpec(kind=kind, k=2)      # k = n: sphere-ref has no k
        try:
            check(rep, proves)
        except ValueError as exc:
            assert str(exc) == f"{row.bound} is a {row.ambient} statement"
            with pytest.raises(ValueError, match=f"^{kind} flow requires the {row.ambient} "
                                                 "ambient$"):
                spec.validate(space, 2)
        else:
            spec.validate(space, 2)
    # and k = n only where the row has no k option
    space = next(s for s in (EU, HY, SP) if row.admits(s))
    if "k" in row.options:
        FlowSpec(kind=kind, k=1).validate(space, 2)
    else:
        with pytest.raises(ValueError, match=f"^{kind} supports k = n = 2 only$"):
            FlowSpec(kind=kind, k=1).validate(space, 2)
    assert ("k" in row.options) == (kind != "sphere_bgl")


@pytest.mark.parametrize("name", ["t_final", "report_dt", "cfl", "max_rel_step", "eps_mono"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_refuses_non_finite_numbers(name, value):
    # nan compares false both ways: it once left dt unbound in evolve (t_final)
    # or switched the monotone guard off (eps_mono) instead of being refused
    spec = FlowSpec(kind="imcf", **{name: value})
    with pytest.raises(ValueError, match=name):
        spec.validate(EU, 2)
    with pytest.raises(ValueError, match=name):
        evolve(EU, make_seed_surface(EU, sphere_grid(16, 32), "round", r0=1.0), spec)


def test_spec_bounds_the_report_intervals():
    # each interval keeps a sample; 1e11 of them ran without end, and 1e298
    # ended as a step underflow
    for report_dt in (1e-300, 1e-13, 0.999e-7):
        spec = FlowSpec(kind="imcf", t_final=0.01, report_dt=report_dt)
        with pytest.raises(ValueError, match=r"^t_final / report_dt = .* above 100000$"):
            spec.validate(EU, 2)
    FlowSpec(kind="imcf", t_final=0.01, report_dt=1e-7).validate(EU, 2)


def test_imcf_speed_unit_sphere():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="imcf"), geometry(EU, graph))
    assert np.abs(f - 0.5).max() < 1e-12


def test_stationary_speeds_on_geodesic_spheres():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="hyperbolic_sx", k=1), geometry(HY, graph))
    assert np.abs(f).max() < 1e-12
    graph = make_seed_surface(SP, g, "round", r0=1.0)
    f = speed(FlowSpec(kind="sphere_bgl", k=2), geometry(SP, graph))
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
        speed(spec, geometry(space, graph))
    with pytest.raises(ValueError, match=f"needs a {start_class} start, min {quantity} ="):
        evolve(space, graph, spec)
    round_graph = make_seed_surface(space, g, "round", r0=1.0)
    assert np.all(np.isfinite(speed(spec, geometry(space, round_graph))))
    assert evolve(space, round_graph, spec).termination == ("reached_t_final",)


def test_forward_euler_step():
    # the graph tendency du/dt = f v of imcf on the unit sphere is 1/2
    g = sphere_grid(32, 64)
    fields = geometry(EU, make_seed_surface(EU, g, "round", r0=1.0))
    tendency = speed(FlowSpec(kind="imcf"), fields) * fields.v
    assert np.abs(tendency - 0.5).max() < 1e-12


def test_stationary_step_hyperbolic():
    g = sphere_grid(32, 64)
    fields = geometry(HY, make_seed_surface(HY, g, "round", r0=1.0))
    tendency = speed(FlowSpec(kind="hyperbolic_sx", k=1), fields) * fields.v
    assert np.abs(tendency).max() < 3e-12


def test_imcf_round_sphere_exponential():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=1.0, report_dt=0.25)
    trace = evolve(EU, graph, spec)
    assert trace.termination == ("reached_t_final",)
    assert np.abs(trace.samples[-1].u - math.exp(0.5)).max() < 1e-6
    area = np.array([s.report.area for s in trace.samples])
    assert np.abs(np.log(area / area[0]) - trace.times).max() < 1e-5


@pytest.mark.parametrize("kind, rate", [("imcf", 0.5), ("euclidean_inverse", 1.0)])
def test_round_sphere_is_a_fixed_point_of_the_renormalized_flow(kind, rate):
    # the stepped equation is du/dt = F(u) - r u, which a round sphere solves
    # with zero tendency: the graph stays round to the bit, the controller
    # grows dt without a rejection, and all growth is in the log scale
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    trace = evolve(EU, graph, FlowSpec(kind=kind, k=1, t_final=0.1, report_dt=0.05))
    counts = trace.step_counts()
    assert sum(counts["rejected"].values()) == 0
    assert counts["accepted"] <= 10
    for s in trace.samples:
        assert s.u.max() / s.u.min() - 1.0 == 0.0, s.t
        assert abs(math.log(s.u[0, 0]) - rate * s.t) <= 1e-12, s.t


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


def test_persistent_guard_move_is_a_finding_then_an_underflow(monkeypatch):
    # imcf's guard row made a nonincreasing area, which every step grows: the
    # first step halves 20 times on the guard, is accepted with a finding, and
    # the next one halves on the guard until dt falls below eps_t
    row = flows.Monotone("area", -1, lambda rep: rep.area)
    monkeypatch.setitem(flows.FLOWS, "imcf", dataclasses.replace(
        flows.FLOWS["imcf"], monotones=lambda k, ks: [row]))
    graph = make_seed_surface(HY, sphere_grid(16, 32), "round", r0=1.0)
    trace = evolve(HY, graph, FlowSpec(kind="imcf", k=1, t_final=1.0, report_dt=0.1,
                                       eps_mono=1e-300))
    outcomes = [outcome for _, _, outcome, _ in trace.attempts]
    first = outcomes.index("accepted")
    assert outcomes[:first] == ["guard"] * flows._MAX_GUARD_HALVINGS
    assert set(outcomes[first + 1:]) == {"guard"}
    t_step = trace.attempts[first][0] + trace.attempts[first][1]
    # the guard's finding, then the same move between the two samples
    guard_finding, sample_finding = trace.findings
    for finding in trace.findings:
        assert finding["quantity"] == "area" and finding["t"] == t_step
        assert finding["new"] > finding["old"]
    assert "after halvings" in guard_finding["note"]
    assert sample_finding["old"] == trace.samples[0].report.area
    assert trace.termination == ("step_underflow", t_step, "guard")
    assert trace.attempts[-1][1] >= 1e-12 > trace.attempts[-1][1] / 2
    _ends_with_one_sample_at(trace, t_step)


def test_sx_samples_fill_the_guard_report(monkeypatch):
    # the guard's report of an accepted step is the one its sample fills, so
    # an evolve reads one volume per accepted step plus one at the start, and
    # every sample holds the values of a fresh report of its surface
    import warpflow.quantities as quantities

    calls = []
    volume = quantities.volume

    def counted(*args):
        calls.append(args)
        return volume(*args)

    monkeypatch.setattr(quantities, "volume", counted)
    graph = make_seed_surface(HY, sphere_grid(16, 32), "bandlimited",
                              seed=7, r0=1, amp=0.03, lmax=4)
    spec = FlowSpec(kind="hyperbolic_sx", k=1, t_final=0.2, report_dt=0.05)
    trace = evolve(HY, graph, spec)
    counts = trace.step_counts()
    assert counts["rejected"]["guard"] == 0 and len(trace.samples) == 5
    assert len(calls) == counts["accepted"] + 1
    for i, sample in enumerate(trace.samples):
        fresh = full_report(HY, trace.sample_graph(i), ks=(1.0, 2.0, spec.k))
        assert sample.report.to_dict() == fresh.to_dict(), sample.t


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
        variational_check(trace, 1)


def test_variational_check_refuses_a_custom_ambient_and_k_outside_0_to_n():
    cosh = make_custom("cosh", a=0.5)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.02, report_dt=0.01)
    trace = evolve(cosh, make_seed_surface(cosh, sphere_grid(16, 32), "round", r0=1.2), spec)
    with pytest.raises(ValueError, match="^variational check needs a space-form ambient$"):
        variational_check(trace, 1)
    trace = evolve(EU, make_seed_surface(EU, sphere_grid(16, 32), "round", r0=1.0), spec)
    assert len(trace.samples) >= 3
    for k in (-1, 3):
        with pytest.raises(ValueError, match=r"^k must lie in 0\.\.2$"):
            variational_check(trace, k)


def test_variational_check_round_imcf():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.2, report_dt=0.01)
    trace = evolve(EU, graph, spec)
    for k in (0, 1, 2):
        assert variational_check(trace, k) < 1e-3


def test_variational_check_reads_the_traces_own_flow():
    # a euclidean_inverse trace is checked against its own speed E_{k-1}/E_k
    g = sphere_grid(16, 32)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.1, l=2)
    spec = FlowSpec(kind="euclidean_inverse", k=1, t_final=0.05, report_dt=0.01)
    trace = evolve(EU, graph, spec)
    assert trace.space is EU and trace.spec is spec and trace.n == 2
    for k in (0, 1, 2):
        assert variational_check(trace, k) < 1e-3


def test_accepted_steps_stay_in_cone():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.5, report_dt=0.05)
    trace = evolve(EU, graph, spec)
    assert all(s.report.class_flags["mean_convex"] for s in trace.samples)
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

    guard = monotones(spec)
    assert {m.name: m.direction for m in guard} == expected
    # the trace's rows are the flow's rows at the recorded exponents, the guard's among them
    rows = {m.name: m for m in trace.monotones}
    assert rows.keys() >= expected.keys()
    assert all(rows[m.name].direction == m.direction for m in guard)
    series = monotone_series(trace)
    assert list(series) == list(rows)
    at_start = QuantityReport(space, graph)
    for m in guard:
        assert m.value(at_start) == series[m.name][0]

    columns = dict(_trace_columns(trace, series))
    for name, m in rows.items():
        assert columns[m.label or name] == list(series[name])
    # the samples' check reads the same rows: each moves its own way
    assert not trace.findings
    assert all(not m.wrong_way(1.0, 1.0 + 0.01 * m.direction, 0.0)
               and m.wrong_way(1.0, 1.0 - 0.01 * m.direction, 0.0) for m in rows.values())


def test_evolve_files_a_wrong_way_move_between_samples(monkeypatch):
    # a nonincreasing area row that only the samples track (the guard's rows,
    # at ks = (k,), are none): every sample of imcf grows the area
    row = flows.Monotone("area", -1, lambda rep: rep.area)
    monkeypatch.setitem(flows.FLOWS, "imcf", dataclasses.replace(
        flows.FLOWS["imcf"], monotones=lambda k, ks: [row] if len(ks) > 1 else []))
    graph = make_seed_surface(EU, sphere_grid(16, 32), "round", r0=1.0)
    trace = evolve(EU, graph, FlowSpec(kind="imcf", t_final=0.02, report_dt=0.01))
    assert trace.termination == ("reached_t_final",)
    assert len(trace.samples) == 3 and len(trace.findings) == 2
    for finding, before, after in zip(trace.findings, trace.samples, trace.samples[1:]):
        assert finding == {"t": after.t, "quantity": "area", "old": before.report.area,
                           "new": after.report.area,
                           "note": "wrong-way move since the last sample"}
        assert finding["new"] > finding["old"]


@pytest.mark.parametrize("r0", [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3])
def test_newton_maclaurin_margin_is_scale_free(r0):
    # E_1^2 - E_2 of a round sphere is 0 up to rounding, which at r0 = 1e-3
    # (E_1^2 = 1e6) read -3.5e-10 and, below the -1e-10 bound, filed a finding
    graph = make_seed_surface(EU, sphere_grid(16, 32), "round", r0=r0)
    trace = evolve(EU, graph, FlowSpec(kind="imcf", t_final=0.01, report_dt=0.005))
    assert not trace.findings
    assert all(abs(s.report.newton_maclaurin_margin) <= 1e-12 for s in trace.samples)


def _imcf_bandlimited_input():
    """The benchmark's flow_imcf input at seed 1, with its report interval."""
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "bandlimited", seed=80910, r0=1, amp=0.01, lmax=4)
    return graph, FlowSpec(kind="imcf", k=1, t_final=0.04, report_dt=0.01)


@pytest.fixture(scope="module")
def imcf_bandlimited():
    graph, spec = _imcf_bandlimited_input()
    return evolve(EU, graph, spec), spec


def test_pi_control_rejects_few_steps(imcf_bandlimited):
    # doubling after every accept rejected 67 of 140 attempts on step error here
    trace, _ = imcf_bandlimited
    counts = trace.step_counts()
    attempts = counts["accepted"] + sum(counts["rejected"].values())
    assert attempts == len(trace.attempts)
    assert counts["rejected"]["step_error"] <= 0.15 * attempts
    assert set(counts["rejected"]) == set(REJECTIONS)
    assert counts["dt_min"] <= counts["dt_max"]
    assert not trace.findings


def test_pi_control_growth_bounded(monkeypatch):
    # RKC rejects no step on this input, so one domain failure is forced
    # in the middle of the run
    graph, spec = _imcf_bandlimited_input()
    _failing_geometry(monkeypatch, lambda call: call == 40)
    trace = evolve(EU, graph, spec)
    assert trace.termination == ("reached_t_final",)
    assert trace.step_counts()["rejected"]["domain"] == 1
    reports = np.arange(1, 5) * spec.report_dt
    after_rejection = 0
    for i, (t, dt, outcome, _) in enumerate(trace.attempts[:-1]):
        # a step clipped to a report time leaves the proposal alone
        if outcome != "accepted" or np.min(np.abs(reports - (t + dt))) < 1e-12:
            continue
        rejected_before = i > 0 and trace.attempts[i - 1][2] != "accepted"
        after_rejection += rejected_before
        dt_next = trace.attempts[i + 1][1]
        assert dt_next <= (1.0 if rejected_before else 2.0) * dt * (1 + 1e-12), i
    assert after_rejection > 0


def _failing_geometry(monkeypatch, fail, error=DomainError):
    """Make flows.geometry raise error on the calls that fail(count) picks."""
    calls = [0]

    def patched(space, graph):
        calls[0] += 1
        if fail(calls[0]):
            raise error("graph radius outside the ambient domain (forced)")
        return geometry(space, graph)

    monkeypatch.setattr(flows, "geometry", patched)


def test_domain_failure_counted_as_domain(monkeypatch):
    graph = make_seed_surface(HY, sphere_grid(16, 32), "legendre", r0=1, eps=0.05, l=2)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.02, report_dt=0.02)
    # call 1 is the start surface, call 2 the first stage of the first attempt
    _failing_geometry(monkeypatch, lambda call: call == 2)
    trace = evolve(HY, graph, spec)
    assert trace.termination == ("reached_t_final",)
    assert trace.attempts[0][2] == "domain"
    rejected = trace.step_counts()["rejected"]
    assert rejected["domain"] == 1 and rejected["cone"] == 0
    # a domain failure halves the step and retries; the step error of the
    # retry is small, but a step after a rejection does not grow
    (_, dt0, _, _), (_, dt1, outcome, _), (_, dt2, _, _) = trace.attempts[:3]
    assert dt1 == 0.5 * dt0 and outcome == "accepted"
    assert dt2 <= dt1

    # a failure that never goes away ends the run under its own name
    _failing_geometry(monkeypatch, lambda call: call >= 2)
    trace = evolve(HY, graph, spec)
    assert trace.termination[0] == "domain_violation"
    assert "forced" in trace.termination[2]
    assert trace.step_counts()["rejected"]["domain"] == 21

    # any other ValueError is a bug: it propagates instead of being retried
    _failing_geometry(monkeypatch, lambda call: call == 2, ValueError)
    with pytest.raises(ValueError, match="forced") as info:
        evolve(HY, graph, spec)
    assert not isinstance(info.value, DomainError)


def test_r0_evolve_makes_one_speed_call_per_geometry_call(monkeypatch):
    # a sample of an r = 0 flow reads the accepted step's speed, and a
    # candidate's cone is checked once, inside speed
    counts = {"speed": 0, "_off_cone": 0}

    def counted(name):
        inner = getattr(flows, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(flows, name, wrapper)

    counted("speed")
    counted("_off_cone")
    graph = make_seed_surface(HY, sphere_grid(16, 32), "bandlimited",
                              seed=7, r0=1, amp=0.05, lmax=4)
    trace = evolve(HY, graph, FlowSpec(kind="hyperbolic_sx", k=1, t_final=0.2,
                                       report_dt=0.05))
    assert len(trace.samples) == 5
    assert counts["speed"] == trace.geometry_calls
    assert counts["_off_cone"] == counts["speed"] + 1      # plus the start check


@pytest.mark.parametrize("space,kind", [(EU, "imcf"), (HY, "hyperbolic_sx")])
def test_principal_curvatures_once_per_sample_never_in_a_stage(monkeypatch, space, kind):
    # a stage reads E and v only; kappa is computed for a sample's convexity class
    counts = {"in_step": 0, "elsewhere": 0}
    stepping = [False]
    kappa, step = surface._principal_curvatures, flows._rkc_step

    def counted_kappa(fields):
        counts["in_step" if stepping[0] else "elsewhere"] += 1
        return kappa(fields)

    def flagged_step(*args):
        stepping[0] = True
        try:
            return step(*args)
        finally:
            stepping[0] = False

    monkeypatch.setattr(surface, "_principal_curvatures", counted_kappa)
    monkeypatch.setattr(flows, "_rkc_step", flagged_step)
    graph = make_seed_surface(space, sphere_grid(16, 32), "bandlimited",
                              seed=7, r0=1, amp=0.05, lmax=4)
    trace = evolve(space, graph, FlowSpec(kind=kind, k=1, t_final=0.2, report_dt=0.05))
    assert len(trace.samples) == 5
    assert counts == {"in_step": 0, "elsewhere": len(trace.samples)}
    assert trace.geometry_calls > 3 * len(trace.samples)


def test_non_finite_area_weight_is_a_non_finite_rejection(monkeypatch):
    # the guard's report is the first reader of a candidate's area weight, and a
    # non-finite one there rejects the step as non-finite and halves it
    calls = [0]

    def patched(space, graph):
        calls[0] += 1
        fields = geometry(space, graph)
        if calls[0] != 3:                 # call 3 is the first candidate
            return fields
        lam = fields.lam.copy()
        lam[2, 4] = np.inf
        return dataclasses.replace(fields, lam=lam)

    monkeypatch.setattr(flows, "geometry", patched)
    trace = evolve(HY, _stop_seed(), _STOP_SPEC)
    assert trace.termination == ("reached_t_final",)
    (_, dt0, outcome0, _), (_, dt1, outcome1, _) = trace.attempts[:2]
    assert (outcome0, outcome1) == ("non_finite", "accepted") and dt1 == 0.5 * dt0
    assert trace.step_counts()["rejected"]["non_finite"] == 1


def _ends_with_one_sample_at(trace, t_stop):
    """The last sample is taken at t_stop, and no two samples share a time."""
    assert trace.times[-1] == t_stop
    assert np.all(np.diff(trace.times) > 0)


_STOP_SPEC = FlowSpec(kind="imcf", k=1, t_final=0.02, report_dt=0.02)


def _stop_seed():
    return make_seed_surface(HY, sphere_grid(16, 32), "legendre", r0=1, eps=0.05, l=2)


def test_reached_t_final_ends_with_one_sample():
    trace = evolve(HY, _stop_seed(), _STOP_SPEC)
    assert trace.termination == ("reached_t_final",)
    t, dt, outcome, _ = trace.attempts[-1]
    assert outcome == "accepted"
    _ends_with_one_sample_at(trace, t + dt)
    assert len(trace.samples) == 2


def test_equator_stop_ends_with_one_sample():
    graph = make_seed_surface(SP, sphere_grid(16, 32), "round", r0=1.2)
    trace = evolve(SP, graph, FlowSpec(kind="imcf", k=1, t_final=0.5, report_dt=0.05))
    reason, t_stop = trace.termination
    assert reason == "equator_stop"
    assert np.allclose(trace.times, [0.0, 0.05, 0.1, 0.1407614], atol=1e-7)
    _ends_with_one_sample_at(trace, t_stop)


@pytest.mark.parametrize("error,reason", [(DomainError, "domain"), (ConeViolation, "cone")])
def test_violation_ends_with_one_sample(monkeypatch, error, reason):
    # two geometry calls per step here: calls 2..7 are three accepted steps,
    # and every call after them fails
    _failing_geometry(monkeypatch, lambda call: call >= 8, error)
    trace = evolve(HY, _stop_seed(), _STOP_SPEC)
    name, t_stop, detail = trace.termination
    assert name == f"{reason}_violation"
    assert detail == (f"imcf: {reason} failure after 21 halvings: "
                      "graph radius outside the ambient domain (forced)")
    counts = trace.step_counts()
    assert counts["accepted"] == 3 and counts["rejected"][reason] == 21
    assert 0 < t_stop < _STOP_SPEC.report_dt
    _ends_with_one_sample_at(trace, t_stop)
    assert len(trace.samples) == 2


def test_step_underflow_ends_with_one_sample(monkeypatch):
    # after three accepted steps every candidate is pushed off by 1e-3
    # relative, so each attempt fails on step error until dt underflows
    step = flows._rkc_step
    calls = [0]

    def spoiled(*args):
        calls[0] += 1
        u = step(*args)
        return u * (1.0 + 1e-3) if calls[0] > 3 else u

    monkeypatch.setattr(flows, "_rkc_step", spoiled)
    trace = evolve(HY, _stop_seed(), _STOP_SPEC)
    name, t_stop, last_reason = trace.termination
    assert (name, last_reason) == ("step_underflow", "step_error")
    counts = trace.step_counts()
    assert counts["accepted"] == 3 and counts["rejected"]["step_error"] > 0
    assert 0 < t_stop < _STOP_SPEC.report_dt
    _ends_with_one_sample_at(trace, t_stop)
    assert len(trace.samples) == 2


def test_rkc_stability_and_order():
    """The stage recursion on y' = z y, for s = 2..40 stages: |R(z)| <= 1 on
    [-beta(s), 0], and R(z) = 1 + z + z^2/2 + O(z^3)."""
    small = np.array([-1e-2, -5e-3, -2.5e-3])
    for s in range(2, 41):
        def amplification(z):
            return flows._rkc_step(np.ones_like(z), z, 1.0, s, lambda y: z * y)

        z = np.linspace(-flows._rkc_beta(s), 0.0, 20 * s * s + 1)
        assert np.max(np.abs(amplification(z))) <= 1.0 + 1e-12, s
        defect = np.abs(amplification(small) - (1 + small + small**2 / 2))
        # measured: |R(z) - 1 - z - z^2/2| / |z|^3 rises from 0 (s = 2) to 0.101 (s = 40)
        assert np.all(defect <= 0.2 * np.abs(small) ** 3 + 1e-15), s


def _power_iteration(space, graph, spec, iters=60, delta=1e-7):
    """|largest eigenvalue| of the linearized, band-limited right-hand side."""
    def rhs(u):
        fields = geometry(space, RadialGraph(grid=graph.grid, u=u))
        return graph.grid.band_limit(speed(spec, fields) * fields.v)

    F0 = rhs(graph.u)
    v = np.random.default_rng(0).standard_normal(graph.u.shape)
    for _ in range(iters):
        v /= np.linalg.norm(v)
        v = (rhs(graph.u + delta * v) - F0) / delta
    return float(np.linalg.norm(v))


@pytest.mark.parametrize("space, M, kind, amp", [
    (EU, 32, "imcf", 0.01), (EU, 64, "imcf", 0.01), (HY, 64, "hyperbolic_sx", 0.02)])
def test_spectral_radius_bound(space, M, kind, amp):
    """rho_est bounds the spectral radius that sets the RKC stage count."""
    grid = sphere_grid(M, 2 * M)
    graph = make_seed_surface(space, grid, "bandlimited", seed=80910, r0=1, amp=amp, lmax=4)
    spec = FlowSpec(kind=kind, k=1)
    rho = _power_iteration(space, graph, spec)
    bound = flows._spectral_radius(spec, geometry(space, graph))
    L = grid.max_degree
    assert grid.stencil_constant == L * (L + 1) * grid.spacing ** 2
    # the stiffest kept mode has degree L; the bound is tight within 25%
    assert rho <= bound <= 1.25 * rho
