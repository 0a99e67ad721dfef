import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import warpflow.inequalities as ineq
from warpflow.ambient import make_custom, make_space_form, sphere_area
from warpflow.flows import FlowSpec, evolve
from warpflow.grid import circle_grid, sphere_grid
from warpflow.inequalities import (
    ball_chi,
    ball_chi_inverse,
    ball_xi,
    curve_kwww_deficit,
    deficit_boundary_momentum,
    deficit_hyperbolic_ref,
    deficit_phi_quermass_euclidean,
    deficit_sphere_ref,
    deficit_weinstock_iso,
    kwong_miao_deficit,
    minkowski_residual,
    monotone_series,
    q_imcf,
    q_k_euclidean,
)
from warpflow.quantities import QuantityReport, full_report, surface_integral
from warpflow.surface import RadialGraph, geometry, make_seed_surface

EU = make_space_form(0)
HY = make_space_form(-1)
SP = make_space_form(1)
CUBIC = make_custom("power_cubic", beta=0.5)


@pytest.fixture(scope="module")
def fine_grid():
    return sphere_grid(128, 256)


def test_q_imcf_equality_value_and_scale_invariance(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    q = q_imcf(QuantityReport(EU, ball), 1.0)
    assert q == pytest.approx(2 / 3 * (4 * math.pi) ** -0.5, rel=1e-12)
    assert q == pytest.approx(0.18806, abs=1e-5)
    scaled = make_seed_surface(EU, fine_grid, "round", r0=3.7)
    assert q_imcf(QuantityReport(EU, scaled), 1.0) == pytest.approx(q, rel=1e-10)
    pert = make_seed_surface(EU, fine_grid, "legendre", r0=1, eps=0.2, l=2)
    assert q_imcf(QuantityReport(EU, pert), 1.0) > q * (1 + 1e-4)


def test_boundary_momentum_equality_cases(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    for k in (1.0, 1.5, 2.0, 3.0):
        rep = deficit_boundary_momentum(QuantityReport(EU, ball), k)
        assert abs(rep.relative_deficit) <= 1e-10
        assert rep.equality_expected
    rep = deficit_boundary_momentum(QuantityReport(EU, ball), 2.0)
    assert rep.lhs == pytest.approx(4 * math.pi, rel=1e-10)
    rep = deficit_boundary_momentum(QuantityReport(EU, ball), 1.0)
    assert rep.rhs == pytest.approx(8 * math.pi / 3 + 4 * math.pi / 3, rel=1e-10)


def test_boundary_momentum_custom_ambient(fine_grid):
    cu = make_custom("cosh", a=0.1)
    pert = make_seed_surface(cu, fine_grid, "legendre", r0=1, eps=0.1, l=2)
    rep = deficit_boundary_momentum(QuantityReport(cu, pert), 1.0)
    assert rep.deficit > 1e-3
    assert not rep.equality_expected
    ball = make_seed_surface(cu, fine_grid, "round", r0=1.0)
    rep = deficit_boundary_momentum(QuantityReport(cu, ball), 1.0)
    assert abs(rep.relative_deficit) <= 1e-10


def test_weinstock_chain(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    rep = deficit_weinstock_iso(QuantityReport(EU, ball))
    assert abs(rep.relative_deficit) <= 1e-12
    assert rep.lhs == pytest.approx(4 * math.pi, rel=1e-10)
    assert abs(rep.aux["hoelder"]) < 1e-8 and abs(rep.aux["young"]) < 1e-10

    # scale covariance: both sides scale like r0^{n+2}
    for r0 in (0.5, 2.0, 3.3):
        scaled = make_seed_surface(EU, fine_grid, "round", r0=r0)
        assert abs(deficit_weinstock_iso(QuantityReport(EU, scaled)).relative_deficit) <= 1e-12

    pert = make_seed_surface(EU, fine_grid, "legendre", r0=1, eps=0.2, l=2)
    rep = deficit_weinstock_iso(QuantityReport(EU, pert))
    assert rep.deficit > 1e-2
    assert rep.aux["hoelder"] >= -1e-8
    assert rep.aux["young"] >= -1e-8
    girao = deficit_boundary_momentum(QuantityReport(EU, pert), 1.0)
    assert girao.deficit >= -1e-8

    with pytest.raises(ValueError, match="euclidean"):
        deficit_weinstock_iso(
            QuantityReport(HY, make_seed_surface(HY, fine_grid, "round", r0=1.0)))


def test_phi_quermass_exact_values(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    rep1 = deficit_phi_quermass_euclidean(QuantityReport(EU, ball), 1)
    assert rep1.lhs == pytest.approx(10 * math.pi / 3, rel=1e-9)
    assert abs(rep1.relative_deficit) <= 1e-9
    rep2 = deficit_phi_quermass_euclidean(QuantityReport(EU, ball), 2)
    assert rep2.lhs == pytest.approx(6 * math.pi, rel=1e-9)
    assert abs(rep2.relative_deficit) <= 1e-9
    pert = make_seed_surface(EU, fine_grid, "legendre", r0=1, eps=0.15, l=2)
    assert deficit_phi_quermass_euclidean(QuantityReport(EU, pert), 1).deficit > 1e-3


def test_q_k_scale_invariance(fine_grid):
    for r0 in (1.0, 2.7):
        ball = make_seed_surface(EU, fine_grid, "round", r0=r0)
        val = q_k_euclidean(QuantityReport(EU, ball), 1)
        ref = (5 / 6) * 4 * math.pi * (2 / (4 * math.pi)) ** 1.5
        assert val == pytest.approx(ref, rel=1e-10)


def test_kwong_miao(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    for k, lhs in ((1, 2 * math.pi), (2, 2 * math.pi)):
        rep = kwong_miao_deficit(QuantityReport(EU, ball), k)
        assert rep.lhs == pytest.approx(lhs, rel=1e-10)
        assert abs(rep.relative_deficit) <= 1e-10
    pert = make_seed_surface(EU, fine_grid, "legendre", r0=1, eps=0.2, l=2)
    assert kwong_miao_deficit(QuantityReport(EU, pert), 1).deficit > 1e-3


def test_minkowski_residuals(fine_grid):
    ball = make_seed_surface(EU, fine_grid, "round", r0=1.0)
    assert minkowski_residual(QuantityReport(EU, ball), 1) < 1e-14
    hball = make_seed_surface(HY, fine_grid, "round", r0=1.0)
    assert minkowski_residual(QuantityReport(HY, hball), 2) < 1e-12
    pert = make_seed_surface(EU, fine_grid, "bandlimited",
                             seed=7, r0=1, amp=0.05, lmax=4)
    assert minkowski_residual(QuantityReport(EU, pert), 2) < 1e-6


def test_ball_reference_functions():
    xi1 = ball_xi(HY, 1, 1.0)
    exact = 4 * math.pi * (math.cosh(1) - 1) * math.sinh(1) * math.cosh(1)
    assert xi1 == pytest.approx(exact, rel=1e-14)
    assert xi1 == pytest.approx(12.374, abs=2e-3)
    chi0 = ball_chi(HY, 0, 1.0)
    assert chi0 == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-12)
    assert chi0 == pytest.approx(5.1109, abs=1e-4)
    # independent discrete oracle: quadrature of Phi E_1 over a round graph
    g = sphere_grid(128, 256)
    ball = make_seed_surface(HY, g, "round", r0=1.0)
    f = geometry(HY, ball)
    disc = surface_integral(f, HY.phi(ball.u) * f.E[1])
    assert abs(xi1 - disc) <= 1e-8
    disc0 = ball_chi(HY, 0, 1.0)
    from warpflow.quantities import volume
    assert abs(disc0 - volume(HY, ball)) <= 1e-8


def test_ball_chi_at_bisection_floor():
    # chi_0 at the bisection floor r = 1e-8 is the euclidean ball volume
    r = 1e-8
    for space in (HY, SP):
        chi0 = ball_chi(space, 0, r)
        assert chi0 > 0
        assert chi0 == pytest.approx(4 * math.pi * r**3 / 3, rel=1e-12)


def test_chi_inverse_roundtrip():
    for r in np.linspace(0.1, 3.0, 9):
        for ell in (0, 1, 2):
            w = ball_chi(HY, ell, r)
            assert abs(ball_chi_inverse(HY, ell, w) - r) <= 1e-10
    for r in np.linspace(0.1, 2.5, 9):
        for ell in (0, 2):
            w = ball_chi(SP, ell, r)
            assert abs(ball_chi_inverse(SP, ell, w) - r) <= 1e-10
    # the boundary-area functional chi_1 peaks at the equator; its inverse
    # lives on the monotone branch below pi/2
    for r in np.linspace(0.1, 1.5, 5):
        w = ball_chi(SP, 1, r)
        assert abs(ball_chi_inverse(SP, 1, w) - r) <= 1e-10


def test_chi_inverse_range_errors():
    top = ball_chi(SP, 1, math.pi / 2)
    with pytest.raises(ValueError, match="range"):
        ball_chi_inverse(SP, 1, top * 1.01)
    with pytest.raises(ValueError, match="below"):
        ball_chi_inverse(HY, 0, -1.0)
    with pytest.raises(ValueError, match="ell <= n"):     # chi_{n+1} is constant
        ball_chi_inverse(HY, 3, 4 * math.pi / 3)
    with pytest.raises(ValueError, match="sphere|pi"):
        ball_chi(SP, 0, 3.5)
    # a nan radius or target is refused, not carried through to a nan result
    for space in (HY, SP):
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                ball_chi(space, 0, r)
            with pytest.raises(ValueError, match="radius"):
                ball_xi(space, 1, r)
        with pytest.raises(ValueError, match="target nan"):
            ball_chi_inverse(space, 0, math.nan)
        # a target above chi_ell's range is refused before lambda^n overflows
        for w in (math.inf, 1e300):
            with pytest.raises(ValueError, match="above|outside"):
                ball_chi_inverse(space, 0, w)
    with pytest.raises(ValueError):
        ball_xi(EU, 1, 1.0)


def test_ball_chi_slope_matches_central_differences():
    # d chi_ell/dr = omega_n lambda^{n-ell} lambda'^ell, the slope Newton reads
    h = 1e-5
    for space in (HY, SP):
        for n in (1, 2):
            for ell in range(n + 1):
                for r in (0.3, 1.0, 2.0):
                    diff = (ball_chi(space, ell, r + h, n)
                            - ball_chi(space, ell, r - h, n)) / (2 * h)
                    assert ineq._ball_chi(space, ell, r, n)[1] == pytest.approx(
                        diff, rel=1e-8), (space.kind, n, ell, r)


def test_ball_chi_reads_the_volume_only_when_needed():
    # W_1 = |S_r| / n needs no radial integral; W_0 and, through the
    # recursion, W_2 do
    calls = []

    def counted(*args):
        calls.append(args)
        return HY.radial(*args)

    space = dataclasses.replace(HY, radial=counted)
    for ell, expected in ((1, 0), (0, 1), (2, 1)):
        calls.clear()
        assert ball_chi(space, ell, 0.7) == ball_chi(HY, ell, 0.7)
        assert len(calls) == expected, ell


def _chi_slope(space, ell, r, n):
    return abs(sphere_area(n) * float(space.lam(r)) ** (n - ell)
               * float(space.dlam(r)) ** ell)


@st.composite
def _ball_radii(draw):
    n = draw(st.sampled_from((1, 2)))
    ell = draw(st.integers(0, n))
    space = draw(st.sampled_from((HY, SP)))
    if space is HY:
        r = draw(st.floats(0.05, 3.0))
    elif ell == 1:              # the inverse of chi_1 lives below the equator
        r = draw(st.floats(0.05, math.pi / 2 - 0.05))
    else:
        r = draw(st.one_of(st.floats(0.05, math.pi / 2 - 0.05),
                           st.floats(math.pi / 2 + 0.05, math.pi - 0.05)))
    return space, n, ell, r


@settings(max_examples=200, deadline=None)
@given(case=_ball_radii())
def test_chi_inverse_roundtrip_generated(case):
    # 1e-14 relative, or the rounding of w carried through the inverse's
    # condition number kappa = w / (r chi_ell'(r)) where that is larger: the
    # sphere's chi_0 and chi_2 flatten towards pi and pi/2, where kappa
    # reaches about 200
    space, n, ell, r = case
    w = ball_chi(space, ell, r, n)
    kappa = w / (r * _chi_slope(space, ell, r, n))
    tol = max(1e-14, 4 * np.finfo(float).eps * kappa)
    assert abs(ball_chi_inverse(space, ell, w, n) - r) <= tol * r


def _count_chi_evaluations(monkeypatch):
    calls = []
    chi = ineq._ball_chi

    def counted(*args):
        calls.append(args)
        return chi(*args)

    monkeypatch.setattr(ineq, "_ball_chi", counted)
    return calls


def _inversion_count(calls, space, ell, r, n=2):
    w = ball_chi(space, ell, r, n)
    calls.clear()
    back = ball_chi_inverse(space, ell, w, n)
    return len(calls), back


def test_chi_inverse_evaluations_on_A10_grid(monkeypatch):
    # every chi_ell evaluation of one inversion, range checks included.
    # chi_2 in the sphere has slope omega cos^2 r, flat at the equator: its
    # radii 1.5 and 1.7 take up to 12
    calls = _count_chi_evaluations(monkeypatch)
    grid = [(HY, ell, r) for r in np.linspace(0.1, 3.0, 13) for ell in (0, 1, 2)]
    grid += [(SP, ell, r) for r in np.linspace(0.1, 2.5, 13) for ell in (0, 2)]
    grid += [(SP, 1, r) for r in np.linspace(0.1, 1.5, 8)]
    for space, ell, r in grid:
        count, _ = _inversion_count(calls, space, ell, r)
        near_equator = space is SP and ell == 2 and abs(r - math.pi / 2) < 0.15
        assert count <= (12 if near_equator else 10), (space.kind, ell, r, count)


def test_chi_inverse_far_branch_starts_from_the_antipode(monkeypatch):
    # chi_0 in the sphere is flat at the antipode (slope omega sin^2 r); the
    # euclidean inverse measured from pi - 1e-9 starts Newton near the root
    calls = _count_chi_evaluations(monkeypatch)
    for r in (3.04, 3.13, 3.14):
        count, back = _inversion_count(calls, SP, 0, r)
        assert count <= 8, (r, count)
        kappa = ball_chi(SP, 0, r) / (r * _chi_slope(SP, 0, r, 2))
        assert abs(back - r) <= 4 * np.finfo(float).eps * kappa * r, r


def test_chi_inverse_terminates_at_critical_points(monkeypatch):
    calls = _count_chi_evaluations(monkeypatch)
    # chi_1 peaks and chi_2 has a flat inflection at the equator: Newton
    # slows there and the bisection fallback bounds the work
    for ell, n in ((1, 2), (2, 2), (1, 1)):
        for r in (math.pi / 2, math.pi / 2 - 1e-6):
            count, back = _inversion_count(calls, SP, ell, r, n)
            assert count <= 32, (ell, n, r, count)
            assert abs(back - r) <= 1e-5
    # the euclidean start is exact as r -> 0
    for space in (HY, SP):
        for ell in (0, 1, 2):
            count, back = _inversion_count(calls, space, ell, 1e-6)
            assert count <= 5, (space.kind, ell, count)
            assert abs(back - 1e-6) <= 1e-14 * 1e-6


def test_hyperbolic_ref_deficits(fine_grid):
    ball = make_seed_surface(HY, fine_grid, "round", r0=1.0)
    for ell in (0, 1):
        rep = deficit_hyperbolic_ref(QuantityReport(HY, ball), 1, ell)
        assert abs(rep.relative_deficit) <= 1e-8
        assert rep.aux["ball_radius"] == pytest.approx(1.0, abs=1e-9)
    pert = make_seed_surface(HY, fine_grid, "legendre", r0=1, eps=0.1, l=2)
    rep = deficit_hyperbolic_ref(QuantityReport(HY, pert), 1, 0)
    assert rep.deficit > 1e-3
    assert rep.flags["static_convex"] is True
    with pytest.raises(ValueError, match="ell"):
        deficit_hyperbolic_ref(QuantityReport(HY, ball), 1, 2)


def test_sphere_ref_deficits(fine_grid):
    ball = make_seed_surface(SP, fine_grid, "round", r0=0.7)
    for ell in (0, 1, 2):
        rep = deficit_sphere_ref(QuantityReport(SP, ball), ell)
        assert abs(rep.relative_deficit) <= 1e-8
    pert = make_seed_surface(SP, fine_grid, "bandlimited",
                             seed=7, r0=0.7, amp=0.03, lmax=4)
    rep = deficit_sphere_ref(QuantityReport(SP, pert), 1)
    assert rep.deficit > 0
    assert rep.flags["convex"] is True


def test_curve_deficits():
    c = circle_grid(512)
    circle = make_seed_surface(EU, c, "round", r0=1.0)
    rep = curve_kwww_deficit(QuantityReport(EU, circle))
    assert rep.lhs == pytest.approx(math.pi, rel=1e-12)
    assert rep.rhs == pytest.approx(math.pi, rel=1e-10)
    circle2 = make_seed_surface(EU, c, "round", r0=2.0)
    rep2 = curve_kwww_deficit(QuantityReport(EU, circle2))
    assert rep2.lhs == pytest.approx(4 * math.pi, rel=1e-12)
    assert abs(rep2.relative_deficit) <= 1e-10

    u = 1 + 0.2 * np.cos(2 * c.theta)
    ellipse = RadialGraph(grid=c, u=u)
    assert curve_kwww_deficit(QuantityReport(EU, ellipse)).deficit > 1e-3

    u_bad = 1 + 0.45 * np.cos(2 * c.theta)
    nonconvex = RadialGraph(grid=c, u=u_bad)
    with pytest.raises(ValueError, match="convex"):
        curve_kwww_deficit(QuantityReport(EU, nonconvex))


def test_curve_deficit_hyperbolic_circle():
    c = circle_grid(512)
    circle = make_seed_surface(HY, c, "round", r0=0.8)
    rep = curve_kwww_deficit(QuantityReport(HY, circle))
    assert abs(rep.relative_deficit) <= 1e-10


def test_curve_deficit_sphere_circle():
    # hemisphere circles are the sphere-ambient equality case
    c = circle_grid(512)
    circle = make_seed_surface(SP, c, "round", r0=0.7)
    rep = curve_kwww_deficit(QuantityReport(SP, circle))
    assert abs(rep.relative_deficit) <= 1e-10


def test_equality_detection_margins(fine_grid):
    # every deficit on the perturbed seed clears 10x the grid-error scale
    pert = make_seed_surface(EU, fine_grid, "legendre", r0=1, eps=0.2, l=2)
    grid_error = 1e-6
    rep = QuantityReport(EU, pert)
    assert deficit_boundary_momentum(rep, 1.0).deficit > 10 * grid_error
    assert deficit_weinstock_iso(rep).deficit > 10 * grid_error
    assert deficit_phi_quermass_euclidean(rep, 1).deficit > 10 * grid_error
    assert kwong_miao_deficit(rep, 1).deficit > 10 * grid_error


_IMPORT_INEQUALITIES_ALONE = """
import sys, types
package = types.ModuleType("warpflow")      # the package without its __init__
package.__path__ = [sys.argv[1]]
sys.modules["warpflow"] = package
import warpflow.inequalities
print(sorted(m for m in sys.modules if m.startswith("warpflow.")))
"""


# today's refusal of a value outside an option's range, by the range's upper end
_RANGE_MESSAGES = {None: "need {key} >= {lo}, got {value}",
                   "n": "need {lo} <= {key} <= n = {n}", "k": "need {lo} <= {key} <= k = {k}",
                   "inf": "need a finite {key}, got {value}"}


@pytest.mark.parametrize("name", sorted(ineq.STATEMENTS))
def test_statement_rows_scope_their_checks(name):
    row = ineq.STATEMENTS[name]
    defaults = {key: default for key, (default, _, _) in row.options.items()}
    deficit = getattr(ineq, row.deficit)
    for n, grid in ((1, circle_grid(64)), (2, sphere_grid(16, 32))):
        reps = [QuantityReport(space, make_seed_surface(space, grid, "round", r0=0.5))
                for space in (EU, HY, SP, CUBIC)]
        for other in reps:
            # the ambient is refused first, then n
            refusal = (f"^{row.bound} is a {row.ambient} statement$"
                       if not row.admits(other.space) else
                       f"^{row.bound} needs n = {row.n}$" if row.n not in (None, n) else None)
            if refusal is not None:
                with pytest.raises(ValueError, match=refusal):
                    ineq.check(other, name)
                with pytest.raises(ValueError, match=refusal):
                    deficit(other, **defaults)
        if row.n not in (None, n):
            continue
        rep = next(other for other in reps if row.admits(other.space))
        # case-blind, with _ for -: the same deficit as the table's spelling
        blind = ineq.check(rep, name.upper().replace("-", "_")).to_dict()
        assert blind == ineq.check(rep, name).to_dict()
        for key, (default, lo, hi) in row.options.items():
            top = {None: None, "n": n, **defaults}[hi]
            # with no upper end, inf is one step outside: 1 <= inf <= inf held
            for value in (lo - 1, lo - 0.5) + ((math.inf,) if top is None else (top + 1,)):
                if type(default) is int and not float(value).is_integer():
                    continue
                value = type(default)(value)
                message = _RANGE_MESSAGES[hi if math.isfinite(value) else "inf"].format(
                    key=key, lo=lo, value=value, n=n, k=defaults.get("k"))
                with pytest.raises(ValueError, match=f"^{message}$"):
                    ineq.check(rep, f"{name}:{key}={value}")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    deficit(rep, **{**defaults, key: value})
            if type(default) is int:       # an int option refuses a fraction
                with pytest.raises(ValueError, match=f"'{key}' in .* takes integers"):
                    ineq.check(rep, f"{name}:{key}={lo}.5")
    assert ineq.STATEMENTS["girao"] is ineq.STATEMENTS["boundary-momentum"]


def test_inequalities_do_not_import_flows():
    # the dependency runs one way: flows -> inequalities -> quantities
    package = str(Path(ineq.__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_INEQUALITIES_ALONE, package],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = proc.stdout.strip()
    assert "'warpflow.inequalities'" in loaded and "'warpflow.quantities'" in loaded
    assert "warpflow.flows" not in loaded


def test_monotone_series_mismatch_guard():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    spec = FlowSpec(kind="imcf", k=1, t_final=0.1, report_dt=0.05)
    trace = evolve(EU, graph, spec)
    series = monotone_series(trace)
    assert list(series) == ["Q_imcf_1", "Q_imcf_2"]
    assert min(s.report.newton_maclaurin_margin for s in trace.samples) >= -1e-10
    assert not trace.findings


_BANDLIMITED = dict(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.0, 0.1),
                    lmax=st.integers(1, 4), n=st.sampled_from((1, 2)))


def _bandlimited(space, n, seed, r0, amp, lmax):
    grid = circle_grid(64) if n == 1 else sphere_grid(16, 32)
    return make_seed_surface(space, grid, "bandlimited", seed=seed, r0=r0, amp=amp, lmax=lmax)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.25, 4.0), r0=st.floats(0.3, 2.0), **_BANDLIMITED)
def test_euclidean_functionals_scale_invariant(scale, r0, seed, amp, lmax, n):
    graph = _bandlimited(EU, n, seed, r0, amp, lmax)
    rep = QuantityReport(EU, graph)
    scaled = QuantityReport(EU, RadialGraph(grid=graph.grid, u=scale * graph.u))
    for k in (1.0, 2.0, 2.5):
        assert q_imcf(scaled, k) == pytest.approx(q_imcf(rep, k), rel=1e-12)
    for k in range(1, n + 1):
        assert q_k_euclidean(scaled, k) == pytest.approx(q_k_euclidean(rep, k),
                                                         rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(K=st.sampled_from((-1, 0, 1)), r0=st.floats(0.3, 1.2), **_BANDLIMITED)
def test_deficit_lhs_is_the_report_value(K, r0, seed, amp, lmax, n):
    # every deficit reads its lhs from the one QuantityReport: bit for bit
    space = make_space_form(K)
    graph = _bandlimited(space, n, seed, r0, amp, lmax)
    rep = full_report(space, graph, ks=(1.0, 1.5, 2.0))
    live = QuantityReport(space, graph)

    def phi_quermass(k):
        return rep.phi_curvature(k) + k * rep.W(k - 1)

    for k in (1.0, 1.5):
        assert deficit_boundary_momentum(live, k).lhs == rep.momentum(k)
    if space.kind == "euclidean":
        assert deficit_weinstock_iso(live).lhs == rep.momentum(2)
        for k in range(1, n + 1):
            assert deficit_phi_quermass_euclidean(live, k).lhs == phi_quermass(k)
            assert kwong_miao_deficit(live, k).lhs == rep.phi_curvature(k)
    elif space.kind == "hyperbolic":
        for k in range(1, n + 1):
            assert deficit_hyperbolic_ref(live, k, 0).lhs == phi_quermass(k)
    else:
        assert deficit_sphere_ref(live, 0).lhs == phi_quermass(n)
    if n == 1 and geometry(space, graph).kappa.min() > 0:
        assert curve_kwww_deficit(live).lhs == rep.phi_curvature(1)


def _statement_items(space, n):
    """Every check item of STATEMENTS that applies to an n-surface in space,
    over the integer option values of its ranges (k = 1, 2 where k has no upper end)."""
    items = []
    for name, row in ineq.STATEMENTS.items():
        if not row.admits(space) or row.n not in (None, n):
            continue
        combos = [{}]
        for key, (_, lo, hi) in row.options.items():
            combos = [{**c, key: v} for c in combos
                      for v in range(lo, {None: 2, "n": n}.get(hi, c.get(hi)) + 1)]
        items += [name + (":" + ",".join(f"{key}={v}" for key, v in c.items()) if c else "")
                  for c in combos]
    return items


@settings(max_examples=20, deadline=None)
@given(K=st.sampled_from((-1, 0, 1)), r0=st.floats(0.3, 1.2), **_BANDLIMITED)
def test_deficit_flags_are_read_from_the_report(K, r0, seed, amp, lmax, n):
    # a deficit keeps its surface's report and reads the class flags from it
    # when asked; the rows and their dicts are those of copied flags
    space = make_space_form(K)
    graph = _bandlimited(space, n, seed, r0, amp, lmax)
    rep = QuantityReport(space, graph)
    checked = []
    for item in _statement_items(space, n):
        try:
            out = ineq.check(rep, item)
        except ValueError:         # W_k <= 0, a curve that is not convex, W_ell out of range
            continue
        checked.append(item)
        flags = {} if out.name == "minkowski" else rep.class_flags
        assert out.flags == flags, item
        assert out.to_dict() == {
            "name": out.name, "k": out.k, "ell": out.ell, "lhs": out.lhs, "rhs": out.rhs,
            "deficit": out.lhs - out.rhs, "relative_deficit": out.relative_deficit,
            "equality_expected": out.equality_expected, "aux": out.aux,
            "class_flags": flags}, item
        # the report is left out of == and repr
        other = QuantityReport(space, graph)
        for report in (None, other):
            assert dataclasses.replace(out, report=report) == out, item
        assert repr(dataclasses.replace(out, report=other)) == repr(out)
        assert "report" not in repr(out)
    assert {"girao:k=1", "minkowski:k=1"} <= set(checked)


# Measured on 9,600 draws of this test's class and grids (about 81,000 item
# evaluations): no relative deficit was negative, the smallest was +6.1e-6
# (sphere-ref:ell=2 at amp 0.023).  The relative grid error of a deficit at
# 32x64 reads up to 5.1e-5 (legendre surfaces of the same amplitudes and
# degrees against 256x512), so the bound is about twice that; one rhs
# constant scaled by 1 + 1e-3 moves a relative deficit by about -1e-3.
_STATEMENT_BOUND = 1e-4


@settings(max_examples=200, deadline=None)
@given(K=st.sampled_from((-1, 0, 1)), n=st.sampled_from((1, 2)), r0=st.floats(0.3, 1.2),
       seed=st.integers(0, 2**31 - 1), amp=st.floats(0.02, 0.1), lmax=st.integers(1, 4))
def test_every_statement_holds_in_its_class(K, n, r0, seed, amp, lmax):
    # each row of the table over every k and ell it takes, on convex surfaces
    # (static convex in the hyperbolic ambient, the hypothesis there)
    space = make_space_form(K)
    grid = circle_grid(128) if n == 1 else sphere_grid(32, 64)
    rep = QuantityReport(space, make_seed_surface(space, grid, "bandlimited", seed=seed,
                                                  r0=r0, amp=amp, lmax=lmax))
    flags = rep.class_flags
    assume(flags["convex"] and (space.kind != "hyperbolic" or flags["static_convex"]))
    items = _statement_items(space, n)
    assert {"girao:k=1", "minkowski:k=1"} <= set(items)
    assert ("curve" in items) == (n == 1)
    for item in items:
        assert ineq.check(rep, item).relative_deficit >= -_STATEMENT_BOUND, item


def test_a_quermassintegral_that_is_not_positive_is_refused():
    # no star-shaped euclidean surface tried reads W_k <= 0 (W_2 is a total
    # mean curvature), so the report is told to read W_2 = -1
    rep = QuantityReport(EU, make_seed_surface(EU, sphere_grid(16, 32), "round", r0=1.0))
    rep.W = lambda k: -1.0 if k == 2 else QuantityReport.W(rep, k)
    for refused in (q_k_euclidean, deficit_phi_quermass_euclidean, ineq.check):
        with pytest.raises(ValueError) as err:
            refused(rep, "phi-quermass:k=2" if refused is ineq.check else 2)
        assert type(err.value) is ValueError
        assert str(err.value) == "W_2 = -1.000e+00 is not positive"


def test_ball_chi_past_the_top_order_is_the_constant():
    # chi_{n+1} = W_{n+1} = omega_n / (n + 1) on every ball
    for space in (HY, SP):
        for n in (1, 2):
            for r in (0.5, 1.5):
                assert ball_chi(space, n + 1, r, n) == sphere_area(n) / (n + 1)
        for make, message in ((lambda: ball_xi(space, 3, 1.0), "need 1 <= k <= n = 2"),
                              (lambda: ball_xi(space, 0, 1.0), "need 1 <= k <= n = 2"),
                              (lambda: ball_chi(space, 4, 1.0), "need 0 <= ell <= n + 1 = 3"),
                              (lambda: ball_chi(space, -1, 1.0), "need 0 <= ell <= n + 1 = 3")):
            with pytest.raises(ValueError) as err:
                make()
            assert type(err.value) is ValueError and str(err.value) == message
