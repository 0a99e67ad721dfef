"""Acceptance gate: one test per criterion, at the stated tolerances.

The four flow runs are shared module fixtures; run with ``pytest -v -s
tests/test_acceptance.py`` to see one printed PASS line per criterion with
the measured numbers.
"""

import math

import numpy as np
import pytest

from warpflow.ambient import make_custom, make_space_form, sphere_area
from warpflow.cli import EXIT_OK, main as cli_main
from warpflow.flows import FlowSpec, evolve, variational_check
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
)
from warpflow.quantities import (
    QuantityReport,
    full_report,
    quermassintegrals,
    surface_integral,
)
from warpflow.surface import geometry, make_seed_surface

EU = make_space_form(0)
HY = make_space_form(-1)
SP = make_space_form(1)


def report(criterion: str, detail: str) -> None:
    print(f"{criterion} PASS: {detail}", flush=True)


@pytest.fixture(scope="module")
def fine():
    return sphere_grid(128, 256)


@pytest.fixture(scope="module")
def imcf_trace():
    g = sphere_grid(64, 128)
    seed = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    spec = FlowSpec(kind="imcf", k=1, t_final=3.0, report_dt=0.01)
    return evolve(EU, seed, spec), spec


@pytest.fixture(scope="module")
def einv_trace():
    g = sphere_grid(64, 128)
    seed = make_seed_surface(EU, g, "legendre", r0=1, eps=0.15, l=2)
    spec = FlowSpec(kind="euclidean_inverse", k=1, t_final=2.0, report_dt=0.01)
    return evolve(EU, seed, spec), spec


@pytest.fixture(scope="module")
def sx_trace():
    g = sphere_grid(64, 128)
    seed = make_seed_surface(HY, g, "legendre", r0=1, eps=0.1, l=2)
    spec = FlowSpec(kind="hyperbolic_sx", k=1, t_final=5.0, report_dt=0.02)
    return evolve(HY, seed, spec), spec


@pytest.fixture(scope="module")
def bgl_trace():
    g = sphere_grid(32, 64)
    seed = make_seed_surface(SP, g, "bandlimited", seed=7, r0=0.7, amp=0.03, lmax=4)
    spec = FlowSpec(kind="sphere_bgl", k=2, t_final=3.0, report_dt=0.02)
    return evolve(SP, seed, spec), spec


def per_step_increase(vals: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
    return np.diff(vals) / scale


def test_A01_equality_cases(fine):
    worst = 0.0
    balls = {
        "euclidean": make_seed_surface(EU, fine, "round", r0=1.0),
        "hyperbolic": make_seed_surface(HY, fine, "round", r0=1.0),
        "sphere": make_seed_surface(SP, fine, "round", r0=0.7),
    }
    reps = {name: QuantityReport(space, balls[name])
            for name, space in (("euclidean", EU), ("hyperbolic", HY),
                                ("sphere", SP))}
    reports = []
    for name in ("euclidean", "hyperbolic", "sphere"):
        for k in (1.0, 1.5, 2.0, 3.0):
            reports.append(deficit_boundary_momentum(reps[name], k))
    reports.append(deficit_weinstock_iso(reps["euclidean"]))
    # Girao case is the k = 1 boundary momentum, already included above
    km3_1 = deficit_phi_quermass_euclidean(reps["euclidean"], 1)
    km3_2 = deficit_phi_quermass_euclidean(reps["euclidean"], 2)
    assert km3_1.lhs == pytest.approx(10 * math.pi / 3, rel=1e-9)
    assert km3_2.lhs == pytest.approx(6 * math.pi, rel=1e-9)
    reports += [km3_1, km3_2]
    for k in (1, 2):
        reports.append(kwong_miao_deficit(reps["euclidean"], k))
    for ell in (0, 1):
        reports.append(deficit_hyperbolic_ref(reps["hyperbolic"], 1, ell))
    for ell in (0, 1, 2):
        reports.append(deficit_sphere_ref(reps["sphere"], ell))
    circle = make_seed_surface(EU, circle_grid(512), "round", r0=1.0)
    reports.append(curve_kwww_deficit(QuantityReport(EU, circle)))

    for rep in reports:
        assert abs(rep.relative_deficit) <= 1e-6, rep.name
        worst = max(worst, abs(rep.relative_deficit))
    report("A1", f"{len(reports)} equality cases, worst |relative deficit| "
                 f"= {worst:.2e} <= 1e-6")


def test_A02_imcf_monotone_and_limit(imcf_trace):
    trace, spec = imcf_trace
    assert trace.termination == ("reached_t_final",)
    series = monotone_series(trace)
    limits = {1.0: 2 / 3 * sphere_area(2) ** -0.5, 2.0: 0.5 * sphere_area(2) ** -1}
    assert limits[1.0] == pytest.approx(0.188063, abs=1e-6)
    assert limits[2.0] == pytest.approx(0.0397887, abs=1e-7)
    details = []
    for k in (1.0, 2.0):
        q = series[f"Q_imcf_{format(k, 'g')}"]
        assert np.all(per_step_increase(q) <= 1e-6)
        rel = abs(q[-1] - limits[k]) / limits[k]
        assert rel <= 0.01
        details.append(f"k={k:g}: max step {per_step_increase(q).max():.1e}, "
                       f"|Q(3)-limit|/limit = {rel:.1e}")
    report("A2", "; ".join(details))


def test_A03_exponential_laws(imcf_trace, einv_trace):
    trace, _ = imcf_trace
    area = np.array([s.report.area for s in trace.samples])
    dev = np.abs(np.log(area / area[0]) - trace.times).max()
    assert dev <= 1e-5

    devs = [("euclidean imcf", dev)]
    g = sphere_grid(32, 64)
    for space, name, r0, t_final in ((HY, "hyperbolic", 1.0, 0.4),
                                     (SP, "sphere", 0.7, 0.25)):
        seed = make_seed_surface(space, g, "legendre", r0=r0, eps=0.1, l=2)
        tr = evolve(space, seed, FlowSpec(kind="imcf", k=1, t_final=t_final,
                                          report_dt=t_final / 8))
        a = np.array([s.report.area for s in tr.samples])
        d = np.abs(np.log(a / a[0]) - tr.times).max()
        assert d <= 1e-5
        devs.append((f"{name} imcf", d))

    etrace, _ = einv_trace
    W1 = etrace.quermass_series(1)
    growth = np.exp(2.0 * etrace.times)
    wdev = np.abs(W1 / W1[0] - growth).max() / growth.max()
    wdev_rel = np.max(np.abs(W1 / W1[0] - growth) / growth)
    assert wdev_rel <= 1e-4
    report("A3", "area law dev: " + ", ".join(f"{n} {d:.1e}" for n, d in devs)
           + f" (<= 1e-5); W_1 law rel dev {wdev_rel:.1e} <= 1e-4")


def test_A04_Qk_monotone_and_limit(einv_trace):
    trace, spec = einv_trace
    assert trace.termination == ("reached_t_final",)
    series = monotone_series(trace)
    q = series["Qk_euclid_1"]
    assert np.all(per_step_increase(q) <= 1e-6)
    n, k = 2, 1
    round_value = ((n + 2 + k) / (2 * (n + 2 - k)) * sphere_area(n)
                   * ((n + 1 - k) / sphere_area(n)) ** ((n + 2 - k) / (n + 1 - k)))
    rel = abs(q[-1] - round_value) / round_value
    assert rel <= 0.01
    final = trace.sample_graph(len(trace.samples) - 1)
    km3 = deficit_phi_quermass_euclidean(QuantityReport(EU, final), 1)
    assert abs(km3.relative_deficit) <= 0.01
    report("A4", f"Q_1 max step {per_step_increase(q).max():.1e} <= 1e-6, "
                 f"|Q_1(2)-round|/round = {rel:.1e} <= 1e-2, "
                 f"final KM3 deficit {km3.relative_deficit:.1e}")


def test_A05_hyperbolic_monotone_pair(sx_trace):
    trace, spec = sx_trace
    assert trace.termination == ("reached_t_final",)
    assert trace.samples[0].report.class_flags["static_convex"], "seed must be static convex"
    series = monotone_series(trace)
    lhs = series["phiE1_plus_1W0"]
    assert np.all(per_step_increase(lhs) <= 1e-6)
    for name in ("W_0", "W_1"):
        assert np.all(per_step_increase(series[name]) >= -1e-6)
    spread = float(np.ptp(trace.samples[-1].u))
    assert spread <= 1e-3
    report("A5", f"lhs max step {per_step_increase(lhs).max():.1e}, W_0/W_1 "
                 f"nondecreasing, final max u - min u = {spread:.1e} <= 1e-3")


def test_A06_sphere_monotone(bgl_trace):
    trace, spec = bgl_trace
    assert trace.termination == ("reached_t_final",)
    assert trace.samples[0].report.class_flags["convex"]
    series = monotone_series(trace)
    lhs = series["phiE2_plus_2W1"]
    assert np.all(per_step_increase(lhs) <= 1e-6)
    report("A6", f"phi E_2 + 2 W_1 max per-step increase "
                 f"{per_step_increase(lhs).max():.1e} <= 1e-6")


def test_sphere_bgl_step_rejections(bgl_trace):
    # doubling after every accept rejected 44% of the attempts on this run;
    # the PI-controlled RKC2 step at the default cfl rejects 2 of 557
    trace, _ = bgl_trace
    counts = trace.step_counts()
    attempts = counts["accepted"] + sum(counts["rejected"].values())
    assert counts["rejected"]["step_error"] < 0.05 * attempts
    assert sum(counts["rejected"].values()) == counts["rejected"]["step_error"]


def test_A07_minkowski_formula(fine):
    coarse = sphere_grid(64, 128)
    details = []
    for space, name, r0 in ((EU, "euclidean", 1.0), (HY, "hyperbolic", 1.0),
                            (SP, "sphere", 1.0)):
        rep_fine, rep_coarse = (
            QuantityReport(space, make_seed_surface(space, g, "bandlimited",
                                                    seed=7, r0=r0, amp=0.05, lmax=4))
            for g in (fine, coarse))
        for k in (1, 2):
            r128 = minkowski_residual(rep_fine, k)
            r64 = minkowski_residual(rep_coarse, k)
            assert r128 <= 1e-6
            order = math.log2(r64 / r128)
            # empirical order of an exactly 4th-order scheme fluctuates a
            # few percent; 3.5 confirms the rate
            assert order >= 3.5
            details.append(f"{name} k={k}: {r128:.1e} (order {order:.2f})")
    report("A7", "; ".join(details))


def test_A08_variational_formula(imcf_trace):
    trace, spec = imcf_trace
    assert spec.report_dt == 0.01
    worst = {}
    for k in (0, 1, 2):
        worst[k] = variational_check(trace, k)
        assert worst[k] <= 1e-3
    report("A8", "variational residuals " +
           ", ".join(f"k={k}: {v:.1e}" for k, v in worst.items()) + " <= 1e-3")


def test_A09_gauss_bonnet_closure(fine):
    budget = 1e-6 * sphere_area(2)
    details = []
    for space, name, r0 in ((EU, "euclidean", 1.0), (HY, "hyperbolic", 1.0),
                            (SP, "sphere", 0.7)):
        for family, params in (("legendre", dict(r0=r0, eps=0.2, l=2)),
                               ("bandlimited", dict(seed=7, r0=r0, amp=0.05,
                                                    lmax=4)),
                               ("round", dict(r0=r0))):
            graph = make_seed_surface(space, fine, family, **params)
            _, res = quermassintegrals(QuantityReport(space, graph))
            assert abs(res) <= budget, (name, family)
            details.append(f"{name}/{family}: {abs(res):.1e}")
    report("A9", "max |Gauss-Bonnet residual| per case: " + ", ".join(details)
           + f" <= {budget:.2e}")


def test_A10_reference_functions(fine):
    for r in np.linspace(0.1, 3.0, 13):
        for ell in (0, 1, 2):
            w = ball_chi(HY, ell, r)
            assert abs(ball_chi_inverse(HY, ell, w) - r) <= 1e-10
    for r in np.linspace(0.1, 2.5, 13):
        for ell in (0, 2):
            w = ball_chi(SP, ell, r)
            assert abs(ball_chi_inverse(SP, ell, w) - r) <= 1e-10
    # chi_1 in the sphere is the boundary-area functional, monotone only up
    # to the equator; its inverse is exercised on that branch
    for r in np.linspace(0.1, 1.5, 8):
        w = ball_chi(SP, 1, r)
        assert abs(ball_chi_inverse(SP, 1, w) - r) <= 1e-10

    ball = make_seed_surface(HY, fine, "round", r0=1.0)
    f = geometry(HY, ball)
    xi_quad = surface_integral(f, HY.phi(ball.u) * f.E[1])
    xi_err = abs(ball_xi(HY, 1, 1.0) - xi_quad)
    assert xi_err <= 1e-8
    from warpflow.quantities import volume
    chi_err = abs(ball_chi(HY, 0, 1.0) - volume(HY, ball))
    assert chi_err <= 1e-8
    assert ball_xi(HY, 1, 1.0) == pytest.approx(12.3758, abs=1e-4)
    assert ball_chi(HY, 0, 1.0) == pytest.approx(5.11093, abs=1e-5)
    report("A10", f"chi inverses at 1e-10 on stated ranges; xi_1(1) err "
                  f"{xi_err:.1e}, chi_0(1) err {chi_err:.1e} <= 1e-8")


def test_A11_divergence_inequality(fine):
    cosh_space = make_custom("cosh", a=0.1)
    cases = [(EU, "euclidean", 1.0), (HY, "hyperbolic", 1.0),
             (SP, "sphere", 0.7), (cosh_space, "cosh a=0.1", 1.0)]
    worst_round = 0.0
    min_pert = math.inf
    for space, name, r0 in cases:
        n = 2
        for k in (1.0, 1.5, 2.0):
            rep = full_report(space, make_seed_surface(space, fine, "round",
                                                       r0=r0), ks=(k,))
            gap = rep.momentum(k) - (n + k) * rep.weighted_vol(k) - rep.gamma_term(k)
            assert gap >= -1e-8, (name, k)
            assert abs(gap) <= 1e-8 * rep.momentum(k)
            worst_round = max(worst_round, abs(gap))
            pert = full_report(space, make_seed_surface(space, fine, "legendre",
                                                        r0=r0, eps=0.2, l=2),
                               ks=(k,))
            pgap = pert.momentum(k) - (n + k) * pert.weighted_vol(k) \
                - pert.gamma_term(k)
            assert pgap > 1e-2, (name, k)
            min_pert = min(min_pert, pgap)
    gamma = full_report(cosh_space, make_seed_surface(cosh_space, fine, "round",
                                                      r0=1.0), ks=(1.0,))
    assert gamma.gamma_term(1.0) > 0
    report("A11", f"round gaps <= {worst_round:.1e} (equality), perturbed "
                  f"gaps >= {min_pert:.2e} > 0, cosh ambient Gamma term active")


def test_A12_determinism_and_convergence(tmp_path):
    args = ["evolve", "--space", "euclidean", "--flow", "imcf", "--k", "1",
            "--grid", "32x64", "--surface", "legendre:r0=1,eps=0.1,l=2",
            "--t-final", "0.1", "--report-dt", "0.05"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli_main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    vals = {}
    for M in (64, 128, 256):
        g = sphere_grid(M, 2 * M)
        f = geometry(EU, make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2))
        vals[M] = np.array([f.area,
                            surface_integral(f, f.E[1]),
                            surface_integral(f, f.E[2])])
    err64 = np.abs(vals[64] - vals[256])
    err128 = np.abs(vals[128] - vals[256])
    orders = np.log2(err64 / err128)
    # reference-at-256 Richardson: a 4th-order quantity shows ratio 16
    # against the 15/16-deflated fine error, i.e. order estimate ~ 4.09
    assert np.all(orders >= 3.5), orders
    report("A12", "byte-identical traces of two evolve runs (evolve runs in one "
           "process; worker-count identity is tested on sweep); self-convergence "
           "orders (area, int E_1, int E_2): "
           + ", ".join(f"{o:.2f}" for o in orders))
