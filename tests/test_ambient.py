import math

import numpy as np
import pytest

from warpflow.ambient import (
    ball_volume,
    make_custom,
    make_space_form,
    parse_space_spec,
    probe_assumptions,
    sphere_area,
)


def gauss_integral_of_warp(space, r, order=64):
    """Independent quadrature of int_0^r lambda(s) ds, vectorized over r."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    s = r[..., None] * x
    return r * np.sum(w * space.lam(s), axis=-1)


def test_constants():
    assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)


def test_space_form_values():
    eu = make_space_form(0)
    assert eu.lam(1.0) == 1.0 and eu.dlam(1.0) == 1.0 and eu.phi(1.0) == 0.5
    assert eu.b == math.inf and eu.a == 0.0 and not eu.has_inner_boundary

    hy = make_space_form(-1)
    assert hy.lam(1.0) == pytest.approx(1.1752012, abs=1e-7)
    assert hy.phi(1.0) == pytest.approx(0.5430806, abs=1e-7)

    sp = make_space_form(1)
    assert sp.lam(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert sp.dlam(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert sp.phi(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert sp.b == math.pi


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_potential_matches_integral_of_warp(K):
    space = make_space_form(K)
    rng = np.random.default_rng(42)
    hi = min(space.b, 10.0)
    r = rng.uniform(1e-6, hi * (1 - 1e-12), size=1_000_000)
    quad = gauss_integral_of_warp(space, r)
    phi = space.phi(r)
    assert np.all(np.abs(phi - quad) <= 1e-10 * (1.0 + np.abs(phi)))


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_space_form_wronskian(K):
    # (lambda')^2 - lambda lambda'' = 1 in all three space forms; evaluated
    # on radii where cosh^2 cancellation stays below the 1e-12 budget
    space = make_space_form(K)
    r = np.linspace(0.01, min(space.b - 0.01, 4.0), 500)
    lam, dlam, d2lam = space.warp(r)
    assert np.abs(dlam**2 - lam * d2lam - 1.0).max() <= 1e-12


def test_potential_derivative_is_warp():
    for space in (make_space_form(-1), make_custom("power_cubic", beta=0.3),
                  make_custom("cosh", a=0.1)):
        r = np.linspace(0.2, 5.0, 200)
        h = 1e-5
        dphi = (space.phi(r + h) - space.phi(r - h)) / (2 * h)
        assert np.abs(dphi - space.lam(r)).max() < 1e-7 * (1 + space.lam(r).max())


def test_power_cubic_zero_matches_euclidean():
    eu = make_space_form(0)
    cu = make_custom("power_cubic", beta=0.0)
    r = np.linspace(1e-3, 10, 1000)
    for a, b in zip(eu.warp(r), cu.warp(r)):
        assert np.abs(a - b).max() <= 1e-14
    assert np.abs(eu.phi(r) - cu.phi(r)).max() <= 1e-14


def test_cosh_family():
    cu = make_custom("cosh", a=0.1)
    assert cu.lam(1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)
    lam, dlam, d2lam = cu.warp(np.asarray(5.0))
    ratio = d2lam * lam / dlam**2
    assert ratio == pytest.approx(1.0 / math.tanh(5.0) ** 2, rel=1e-12)
    assert ratio == pytest.approx(1.000181, abs=1e-6)
    assert cu.has_inner_boundary


def test_cosh_requires_positive_inner_radius():
    with pytest.raises(ValueError, match="a > 0"):
        make_custom("cosh", a=0.0)


def test_power_cubic_rejects_negative_beta():
    with pytest.raises(ValueError, match="beta"):
        make_custom("power_cubic", beta=-0.5)


def test_power_cubic_ratio_limit():
    cu = make_custom("power_cubic", beta=1.0)
    lam, dlam, d2lam = cu.warp(np.asarray(100.0))
    ratio = d2lam * lam / dlam**2
    assert ratio == pytest.approx(2.0 / 3.0, rel=0.01)


def test_user_table_tracks_sampled_warp():
    r_tab = np.linspace(0.0, 6.0, 400)
    space = make_custom("user_table", a=0.0, table=(r_tab, np.sinh(r_tab)))
    hy = make_space_form(-1)
    r = np.linspace(0.5, 5.0, 50)
    assert np.abs(space.lam(r) - hy.lam(r)).max() < 1e-6
    assert np.abs(space.phi(r) - hy.phi(r)).max() < 1e-6
    assert space.b == 6.0


def test_probe_hyperbolic_all_hold():
    rep = probe_assumptions(make_space_form(-1), r_max=20.0, samples=100)
    assert all(ok for ok, _ in rep.verdicts.values())
    expected = np.tanh(rep.r) ** 2
    assert np.abs(rep.ratio2 - expected).max() < 1e-10
    assert 0.0 < rep.sup_ratio2 <= 1.0
    assert rep.liminf_ratio2 > 0


def test_probe_euclidean():
    rep = probe_assumptions(make_space_form(0), r_max=10.0, samples=50)
    assert np.all(rep.d2lam == 0)
    assert np.all(rep.ratio2 == 0)
    assert rep.sup_dlam == 1.0
    assert not rep.lambda_prime_unbounded


def test_probe_power_cubic_flags():
    rep = probe_assumptions(make_custom("power_cubic", beta=1.0),
                            r_max=100.0, samples=100)
    assert rep.lambda_prime_unbounded
    assert rep.liminf_ratio2 == pytest.approx(2.0 / 3.0, rel=0.01)
    assert all(ok for ok, _ in rep.verdicts.values())


def test_probe_sphere_violates_convexity():
    rep = probe_assumptions(make_space_form(1), r_max=3.0, samples=50)
    ok, at = rep.verdicts["lambda'' >= 0"]
    assert not ok and at is not None


def test_probe_validation():
    hy = make_space_form(-1)
    with pytest.raises(ValueError, match="r_max"):
        probe_assumptions(make_custom("cosh", a=1.0), r_max=0.5)
    with pytest.raises(ValueError, match="samples"):
        probe_assumptions(hy, r_max=5.0, samples=5)


def test_parse_space_spec():
    assert parse_space_spec("euclidean").K == 0
    assert parse_space_spec("hyperbolic").K == -1
    assert parse_space_spec("sphere").K == 1
    cu = parse_space_spec("custom:power_cubic,beta=0.5,a=0,c=2")
    assert cu.kind == "custom" and cu.fiber_scale == 2.0
    assert cu.lam(2.0) == pytest.approx(2 + 0.5 * 8, rel=1e-15)
    ch = parse_space_spec("custom:cosh,a=0.1,c=1")
    assert ch.a == 0.1
    for bad, named in (("flat", "'flat'"), ("custom:weird,a=1", "custom:weird"),
                       ("custom:power_cubic,beta=1,x=2", "'x'"), ("custom:cosh,a=0", "a > 0"),
                       ("custom:power_cubic,a=1", "beta"), ("euclidean,c=2", "euclidean"),
                       ("custom:cosh,a=0.5,a=1", "'a' given twice"), ("euclidean:c=2", "'c'")):
        with pytest.raises(ValueError, match=named):
            parse_space_spec(bad)


def test_fiber_area_scales():
    cu = make_custom("cosh", a=0.1, c=2.0)
    assert cu.fiber_area(2) == pytest.approx(16 * math.pi, rel=1e-15)
    assert cu.fiber_area(1) == pytest.approx(4 * math.pi, rel=1e-15)
