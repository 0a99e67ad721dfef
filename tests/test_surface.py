import dataclasses
import math
import os
import re
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import Legendre
from scipy.special import eval_legendre, lpmv

from warpflow.ambient import make_custom, make_space_form
from warpflow.grid import DEFAULT_GRID_SPECS, circle_grid, differentiate, sphere_grid
from warpflow.quantities import QuantityReport, surface_integral
from warpflow.surface import (
    DomainError,
    RadialGraph,
    _assoc_legendre_table,
    _bandlimited_profile,
    _legendre,
    dump_surface_csv,
    geometry,
    load_surface_csv,
    make_seed_surface,
    parse_grid_spec,
    parse_surface_spec,
)

EU = make_space_form(0)
HY = make_space_form(-1)
SP = make_space_form(1)


def axisym_curvatures(r0, eps, theta):
    """Surface-of-revolution principal curvatures for u = r0(1 + eps P2),
    from the classical meridian/parallel formulas; independent of the
    graph-formula pipeline."""
    du = -1.5 * eps * r0 * np.sin(2 * theta)
    d2u = -3.0 * eps * r0 * np.cos(2 * theta)
    u = r0 * (1 + eps * 0.5 * (3 * np.cos(theta) ** 2 - 1))
    rho = u * np.sin(theta)
    z = u * np.cos(theta)
    rp = du * np.sin(theta) + u * np.cos(theta)
    zp = du * np.cos(theta) - u * np.sin(theta)
    rpp = d2u * np.sin(theta) + 2 * du * np.cos(theta) - u * np.sin(theta)
    zpp = d2u * np.cos(theta) - 2 * du * np.sin(theta) - u * np.cos(theta)
    sp2 = rp**2 + zp**2
    k_meridian = (zp * rpp - rp * zpp) / sp2**1.5
    k_parallel = -zp / (rho * np.sqrt(sp2))
    return k_meridian, k_parallel


@pytest.mark.parametrize("space,r0,kref", [
    (EU, 2.0, 0.5),
    (HY, 1.0, math.cosh(1) / math.sinh(1)),
    (SP, 0.7, math.cos(0.7) / math.sin(0.7)),
])
def test_round_graph_geometry(space, r0, kref):
    g = sphere_grid(64, 128)
    graph = make_seed_surface(space, g, "round", r0=r0)
    f = geometry(space, graph)
    lam = float(space.lam(r0))
    assert np.abs(f.kappa / kref - 1).max() < 1e-10
    assert np.abs(f.v - 1).max() == 0.0
    assert np.abs(f.support - lam).max() < 1e-12 * lam
    assert f.area == pytest.approx(lam**2 * 4 * math.pi, rel=1e-10)
    assert np.all(f.E[0] == 1.0)


def test_e2_of_a_huge_round_sphere_does_not_underflow():
    # at r0 = 1e82, (lambda^-2 v^-2)^2 = 1e-328 underflows while E_2 = 1e-164
    # does not, so E_2 must be formed without that square
    r0 = 1e82
    graph = make_seed_surface(EU, sphere_grid(16, 32), "round", r0=r0)
    rep = QuantityReport(EU, graph, geometry(EU, graph))
    assert np.abs(rep.fields.E[2] * r0 * r0 - 1).max() < 1e-12
    assert rep.class_flags["2_convex"] is True


def test_round_graph_custom_ambient_with_fiber_scale():
    cu = make_custom("cosh", a=0.1, c=2.0)
    g = sphere_grid(32, 64, fiber_scale=2.0)
    graph = make_seed_surface(cu, g, "round", r0=1.0)
    f = geometry(cu, graph)
    assert np.abs(f.kappa / math.tanh(1.0) - 1).max() < 1e-10
    assert f.area == pytest.approx(math.cosh(1) ** 2 * 16 * math.pi, rel=1e-10)


def test_unit_sphere_example():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "round", r0=2.0)
    f = geometry(EU, graph)
    assert np.abs(f.kappa - 0.5).max() < 1e-11
    assert np.abs(f.H - 1.0).max() < 1e-11
    assert np.abs(f.support - 2.0).max() == 0.0
    assert f.area == pytest.approx(16 * math.pi, rel=1e-12)


def test_circle_geometry():
    c = circle_grid(512)
    graph = make_seed_surface(EU, c, "round", r0=2.0)
    f = geometry(EU, graph)
    assert np.abs(f.kappa - 0.5).max() < 1e-12
    assert f.area == pytest.approx(4 * math.pi, rel=1e-12)
    # classical polar-curve curvature for an ellipse-like graph
    u = 1 + 0.2 * np.cos(2 * c.theta)
    du = -0.4 * np.sin(2 * c.theta)
    d2u = -0.8 * np.cos(2 * c.theta)
    kappa_exact = (u**2 + 2 * du**2 - u * d2u) / (u**2 + du**2) ** 1.5
    f = geometry(EU, RadialGraph(grid=c, u=u))
    assert np.abs(f.kappa[0] - kappa_exact).max() < 1e-8


def test_axisymmetric_oracle_match():
    g = sphere_grid(128, 256)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    f = geometry(EU, graph)
    km, kp = axisym_curvatures(1, 0.2, g.theta)
    oracle = np.sort(np.stack([km, kp]), axis=0)[::-1]
    assert np.abs(f.kappa[:, :, 0] - oracle).max() < 5e-7


def test_geometry_richardson_refinement():
    # field error (against the independent axisymmetric oracle) decays at
    # 4th order; integrals of E_k match the fine grid at 4th order; nodal
    # extrema carry an extra O(dtheta^2) sampling offset on the shifted
    # grid, so they are only held to a small absolute gap
    field_err = {}
    vals = {}
    for M in (64, 128, 256):
        g = sphere_grid(M, 2 * M)
        graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
        f = geometry(EU, graph)
        km, kp = axisym_curvatures(1, 0.2, g.theta)
        oracle = np.sort(np.stack([km, kp]), axis=0)[::-1]
        field_err[M] = np.abs(f.kappa[:, :, 0] - oracle).max()
        vals[M] = np.array([f.kappa.min(), f.kappa.max(),
                            surface_integral(f, f.E[1]),
                            surface_integral(f, f.E[2])])
    assert np.log2(field_err[64] / field_err[128]) > 3.5
    ratio = np.abs(vals[64][2:] - vals[256][2:]) / np.abs(vals[128][2:] - vals[256][2:])
    assert np.all(ratio > 8.0), ratio
    assert np.abs(vals[128][:2] - vals[256][:2]).max() < 5e-4


def test_convexity_class_unit_sphere():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    rep = QuantityReport(EU, graph)
    flags = rep.class_flags
    assert flags["mean_convex"] and flags["2_convex"] and flags["convex"]
    assert rep.min_kappa == pytest.approx(1.0, rel=1e-11)
    assert rep.min_E(1) == pytest.approx(1.0, rel=1e-11)
    assert rep.min_E(2) == pytest.approx(1.0, rel=1e-11)


def test_convexity_class_static_margin():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    rep = QuantityReport(HY, graph)
    expected = math.cosh(1) / math.sinh(1) - math.tanh(1)
    assert rep.static_margin == pytest.approx(expected, abs=1e-10)
    assert rep.class_flags["static_convex"]


def test_convexity_lost_but_mean_convex():
    g = sphere_grid(128, 256)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.45, l=2)
    rep = QuantityReport(EU, graph)
    assert rep.min_kappa < 0
    assert not rep.class_flags["convex"]
    assert rep.class_flags["mean_convex"]


def test_seed_surfaces():
    g = sphere_grid(32, 64)
    r = make_seed_surface(EU, g, "round", r0=1.0)
    assert np.all(r.u == 1.0)
    leg = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    expect = 1 + 0.2 * eval_legendre(2, np.cos(g.theta))
    assert np.abs(leg.u - expect[:, None]).max() == 0.0
    assert leg.u.max() == pytest.approx(1.2, abs=1e-3)
    assert leg.u.min() == pytest.approx(0.9, abs=1e-3)
    b1 = make_seed_surface(EU, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4)
    b2 = make_seed_surface(EU, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4)
    assert np.array_equal(b1.u, b2.u)
    assert np.abs(b1.u - 1).max() == pytest.approx(0.05, rel=1e-12)
    b3 = make_seed_surface(EU, g, "bandlimited", seed=8, r0=1, amp=0.05, lmax=4)
    assert not np.array_equal(b1.u, b3.u)


@pytest.mark.parametrize("M", [16, 32, 64, 128, 256])
def test_legendre_ports_match_scipy_on_sphere_grids(M):
    # scipy.special is the oracle here only; warpflow itself does not import it.
    # _legendre has scipy's bits.  The associated Legendre table does not:
    # lpmv takes sqrt(1 - x^2), which loses relative accuracy near the poles,
    # so its normalized columns are off by up to 4.4e-14 at M = 256 and
    # 1.1e-13 at M = 512 (measured), an error that grows with M
    theta = sphere_grid(M, 32).theta
    x = np.cos(theta)
    for ell in range(9):
        assert np.array_equal(_legendre(ell, x), eval_legendre(ell, x)), ell
    table = _assoc_legendre_table(theta.tobytes(), 8)
    t = 0
    for ell in range(1, 9):
        for m in range(ell + 1):
            ref = lpmv(m, ell, x)
            ref = ref / max(1.0, np.abs(ref).max())
            assert np.abs(table[:, t] - ref).max() <= M * 1e-15, (ell, m)
            t += 1


@pytest.mark.parametrize("M", [16, 17, 32, 64, 128, 256, 512])
def test_sectoral_legendre_columns_keep_relative_accuracy_at_the_poles(M):
    # P_m^m = (-1)^m (2m - 1)!! sin^m(theta), here exact in rationals from each
    # node's sin(theta); the recurrence from sin(theta) holds every ring, the
    # polar ones too, within 1e-15 relative (3 ulp at most, measured).  The
    # column is unnormalized by the reference's max(1, max |P_m^m|)
    theta = sphere_grid(M, 32).theta
    table = _assoc_legendre_table(theta.tobytes(), 8)
    for m in range(1, 9):
        double_factorial = math.prod(range(1, 2 * m, 2))
        ref = np.array([float((-1) ** m * double_factorial * Fraction(s) ** m)
                        for s in np.sin(theta)])
        column = table[:, (m - 1) * (m + 2) // 2 + m] * max(1.0, np.abs(ref).max())
        assert (np.abs(column - ref) / np.abs(ref)).max() <= 1e-15, m


@pytest.mark.parametrize("m", [16, 64, 512])
def test_legendre_port_on_circle_grids(m):
    # for |x| < 1e-5, here the nodes theta = pi/2 and 3pi/2, scipy sums a power
    # series whose beta-function constants are an ulp off; the recurrence differs
    # from it there by at most 2.09e-16 for l <= 8 (measured), elsewhere by nothing
    x = np.cos(circle_grid(m).theta)
    near = np.abs(x) < 1e-5
    assert near.sum() == 2
    for ell in range(9):
        ours, ref = _legendre(ell, x), eval_legendre(ell, x)
        assert np.array_equal(ours[~near], ref[~near]), ell
        assert np.abs(ours[near] - ref[near]).max() <= 2.1e-16, ell


def _scipy_bandlimited(grid, seed, lmax):
    """The bandlimited profile with its Legendre columns from scipy.special.lpmv,
    summed by the two matrix products that warpflow uses."""
    rng = np.random.default_rng(seed)
    x = np.cos(grid.theta)
    columns, orders = [], []
    for ell in range(1, lmax + 1):
        for m in range(0, ell + 1):
            assoc = lpmv(m, ell, x)
            columns.append(assoc / max(1.0, np.abs(assoc).max()))
            orders.append(m)
    by_order = np.zeros((len(orders), 2 * lmax + 1))
    for t, (m, (a, b)) in enumerate(zip(orders, rng.standard_normal((len(orders), 2)))):
        by_order[t, m] = a
        if m > 0:
            by_order[t, lmax + m] = b
    mp = np.multiply.outer(np.arange(1, lmax + 1), grid.phi)
    harmonics = np.concatenate([np.ones((1, grid.phi.size)), np.cos(mp), np.sin(mp)])
    pert = (np.stack(columns, axis=1) @ by_order) @ harmonics
    return pert / np.abs(pert).max()


def _per_term_bandlimited(grid, seed, lmax):
    """The unnormalized bandlimited sum one harmonic at a time, and the sum of
    the coefficients' magnitudes: an independent oracle for the products.

    P_l^m(cos theta) is (-sin theta)^m times the m-th derivative of the
    Legendre series P_l at cos theta, with sin theta taken from the node, so
    the oracle keeps the polar rings' relative accuracy as the recurrence does
    (lpmv, from sqrt(1 - x^2), does not)."""
    rng = np.random.default_rng(seed)
    pert, size = np.zeros(grid.shape), 0.0
    if grid.n == 1:
        t = grid.theta
        for ell in range(1, lmax + 1):
            a, b = rng.standard_normal(2)
            pert += a * np.cos(ell * t) + b * np.sin(ell * t)
            size += abs(a) + abs(b)
        return pert, size
    p = grid.phi[None, :]
    theta = grid.theta[:, None]
    for ell in range(1, lmax + 1):
        for m in range(0, ell + 1):
            a, b = rng.standard_normal(2)
            assoc = (-np.sin(theta)) ** m * Legendre.basis(ell).deriv(m)(np.cos(theta))
            assoc = assoc / max(1.0, np.abs(assoc).max())
            if m == 0:
                pert += a * assoc
                size += abs(a)
            else:
                pert += assoc * (a * np.cos(m * p) + b * np.sin(m * p))
                size += abs(a) + abs(b)
    return pert, size


@pytest.mark.parametrize("M,P", [(32, 64), (64, 128), (128, 256)])
def test_bandlimited_seeds_read_one_shared_table(M, P):
    grid = sphere_grid(M, P)
    for seed, lmax in ((7, 4), (11, 6)):
        u = make_seed_surface(EU, grid, "bandlimited", seed=seed, r0=1, amp=0.05, lmax=lmax).u
        want = 1.0 * (1.0 + 0.05 * _scipy_bandlimited(grid, seed, lmax))
        assert np.abs(u - want).max() <= 1e-15
    # every grid with these colatitudes reads the same read-only (M, T) table,
    # one column per (l, m) with l = 1..4, m = 0..l
    table = _assoc_legendre_table(grid.theta.tobytes(), 4)
    assert table is _assoc_legendre_table(sphere_grid(M, 2 * P).theta.tobytes(), 4)
    assert table.shape == (M, 14)
    assert not table.flags.writeable


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([(17, 34), (33, 66), (34,)]),
       seed=st.integers(0, 2**32 - 1), lmax=st.integers(1, 8))
def test_bandlimited_products_match_the_per_term_sum(grid, seed, lmax):
    # the products round in another order than the per-term sum; each sum's
    # rounding error scales with the coefficients' magnitudes, so the profiles
    # may differ by a few eps times that sum over max |pert|, which normalizes
    # the profile to max |w| = 1.  Over 3000 draws on the two sphere grids the
    # largest difference was 1.9 such units (measured).  An lpmv oracle read
    # 4.07 at seed 461, lmax 4 on 17x34: its polar rings, not the products.
    g = sphere_grid(*grid) if len(grid) == 2 else circle_grid(*grid)
    w = _bandlimited_profile(g, seed, lmax)
    pert, size = _per_term_bandlimited(g, seed, lmax)
    scale = np.abs(pert).max()
    assert np.abs(w - pert / scale).max() <= 4 * np.finfo(float).eps * size / scale
    assert np.abs(w).max() == 1.0


def test_seed_domain_violation():
    g = sphere_grid(32, 64)
    with pytest.raises(ValueError, match="node"):
        make_seed_surface(SP, g, "legendre", r0=2.0, eps=0.8, l=2)


def test_seed_options_refused_by_name():
    # a fraction is refused, not truncated to another surface, and so is a
    # negative legendre degree or a bandlimited seed or degree out of range;
    # whole numbers pass in any spelling
    g = sphere_grid(16, 32)
    for family, params, key in (
            ("legendre", dict(r0=1, eps=0.1, l=2.5), "'l' takes integers"),
            ("bandlimited", dict(seed=7.5, r0=1, amp=0.05, lmax=4), "'seed' takes integers"),
            ("bandlimited", dict(seed=7, r0=1, amp=0.05, lmax=3.5), "'lmax' takes integers"),
            ("bandlimited", dict(seed=-1, r0=1, amp=0.05, lmax=4), "'seed' must be >= 0"),
            ("bandlimited", dict(seed=7, r0=1, amp=0.05, lmax=0), "'lmax' must be >= 1"),
            ("legendre", dict(r0=1, eps=0.1, l=-3), "'l' must be >= 0")):
        with pytest.raises(ValueError, match=key):
            make_seed_surface(EU, g, family, **params)
    assert np.array_equal(make_seed_surface(EU, g, "legendre", r0=1, eps=0.1, l=2.0).u,
                          make_seed_surface(EU, g, "legendre", r0=1, eps=0.1, l=2).u)


def test_rotational_equivariance_bitwise():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4)
    rolled = RadialGraph(grid=graph.grid, u=np.roll(graph.u, 1, axis=1))
    f = geometry(EU, graph)
    fr = geometry(EU, rolled)
    assert np.array_equal(np.roll(f.E, 1, axis=2), fr.E)
    assert np.array_equal(np.roll(f.kappa, 1, axis=2), fr.kappa)
    assert np.array_equal(np.roll(f.support, 1, axis=1), fr.support)
    assert np.array_equal(np.roll(f.area_weight, 1, axis=1), fr.area_weight)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shift=st.integers(1, 31))
def test_roll_equivariance_bitwise_any_shift(seed, shift):
    # a longitude roll of u by any shift rolls every derivative and field bit for bit
    g = sphere_grid(16, 32)
    graph = make_seed_surface(EU, g, "bandlimited", seed=seed, r0=1, amp=0.05, lmax=4)
    rolled = RadialGraph(grid=graph.grid, u=np.roll(graph.u, shift, axis=1))
    for out, out_r in zip(differentiate(g, graph.u), differentiate(g, rolled.u)):
        assert np.array_equal(np.roll(out, shift, axis=-1), out_r)
    f, fr = geometry(EU, graph), geometry(EU, rolled)
    # kappa and area_weight are computed on first read, not dataclass fields
    names = [fld.name for fld in dataclasses.fields(f) if fld.name != "grid"]
    for name in names + ["kappa", "area_weight"]:
        expected = np.roll(getattr(f, name), shift, axis=-1)
        assert np.array_equal(expected, getattr(fr, name)), name


def _pencil_curvatures(space, grid, u):
    """Descending principal curvatures from numpy's eigenvalues of g^-1 h, with
    g and h the coordinate components of the module docstring."""
    lam, dlam, _ = space.warp(u)
    (ut, up), (htt, htp, hpp) = differentiate(grid, u)
    c2 = grid.fiber_scale**2
    s2 = np.sin(grid.theta)[:, None] ** 2
    v = np.sqrt(1.0 + (ut * ut + up * up / s2) / (c2 * lam * lam))
    two = 2.0 * dlam / lam
    h = np.stack([-htt + lam * dlam * c2 + two * ut * ut, -htp + two * ut * up,
                  -htp + two * ut * up, -hpp + lam * dlam * c2 * s2 + two * up * up], -1)
    g = np.stack([ut * ut + lam * lam * c2, ut * up,
                  ut * up, up * up + lam * lam * c2 * s2], -1)
    pair = grid.shape + (2, 2)
    ev = np.linalg.eigvals(np.linalg.solve(g.reshape(pair), (h / v[..., None]).reshape(pair)))
    assert np.all(ev.imag == 0)
    return np.moveaxis(-np.sort(-ev.real, axis=-1), -1, 0)


_AMBIENTS = {"euclidean": lambda c: EU, "hyperbolic": lambda c: HY, "sphere": lambda c: SP,
             "custom:cosh": lambda c: make_custom("cosh", a=0.5, c=c)}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), amp=st.sampled_from([0.01, 0.1, 0.3]),
       ambient=st.sampled_from(sorted(_AMBIENTS)), c=st.sampled_from([1.0, 2.0, 0.75]))
def test_frame_curvatures_match_the_coordinate_pencil(seed, amp, ambient, c):
    # E_1, E_2 and kappa from the orthonormal frame against numpy's eigenvalues of
    # the coordinate pencil (h, g): at most 1.7e-15 of the field's scale over 480
    # measured cases, held to 5e-15
    space, grid = _AMBIENTS[ambient](c), sphere_grid(16, 32, c)
    graph = make_seed_surface(space, grid, "bandlimited", seed=seed, r0=1, amp=amp, lmax=4)
    f = geometry(space, graph)
    k = _pencil_curvatures(space, grid, graph.u)
    scale = np.abs(k).max()
    assert np.abs(f.kappa - k).max() <= 5e-15 * scale
    assert np.abs(f.E[1] - 0.5 * (k[0] + k[1])).max() <= 5e-15 * scale
    assert np.abs(f.E[2] - k[0] * k[1]).max() <= 5e-15 * scale**2


@pytest.mark.parametrize("space", [EU, HY, SP], ids=["euclidean", "hyperbolic", "sphere"])
@pytest.mark.parametrize("c", [1.0, 2.0, 0.75])
@pytest.mark.parametrize("r0", [0.5, 1.0, 2.5])
def test_round_spheres_have_no_curvature_gap(space, c, r0):
    # at these radii the colatitude stencil sums of a constant are exact, so
    # every derivative is 0; then w = 0 and K = lambda lambda' I bit for bit,
    # and the half-gap is exactly 0.  E_1 = lambda'/lambda to rounding
    grid = sphere_grid(16, 32, c)
    graph = make_seed_surface(space, grid, "round", r0=r0)
    assert all(not np.any(d) for d in differentiate(grid, graph.u))
    f = geometry(space, graph)
    assert np.array_equal(f.kappa[0], f.kappa[1])
    assert np.abs(f.E[1] * float(space.lam(r0) / space.dlam(r0)) - 1.0).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), j=st.integers(-4, 4), n=st.sampled_from([1, 2]),
       c=st.sampled_from([1.0, 2.0, 0.75]))
def test_euclidean_geometry_scales_bitwise(seed, j, n, c):
    # u -> 2^j u is a dilation of R^{n+1}: v is invariant, support scales as u,
    # E_k as 2^{-jk}, kappa as 2^{-j} and the area weight as 2^{jn}, and every
    # factor is a power of two, so the scaling is exact
    grid = circle_grid(64, c) if n == 1 else sphere_grid(16, 32, c)
    graph = make_seed_surface(EU, grid, "bandlimited", seed=seed, r0=1, amp=0.1, lmax=4)
    f, fs = geometry(EU, graph), geometry(EU, RadialGraph(grid=grid, u=2.0**j * graph.u))
    assert np.array_equal(fs.v, f.v)
    assert np.array_equal(fs.support, 2.0**j * f.support)
    for k in range(n + 1):
        assert np.array_equal(fs.E[k], 2.0 ** (-j * k) * f.E[k]), k
    assert np.array_equal(fs.kappa, 2.0**-j * f.kappa)
    assert np.array_equal(fs.area_weight, 2.0 ** (j * n) * f.area_weight)


def test_non_finite_fields_raise_naming_the_node():
    g = sphere_grid(16, 32)
    # v and E are checked by geometry: sinh(720) overflows, so E_1 is nan
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match=r"non-finite E_k at node \(i=0, j=0\)"):
        geometry(HY, make_seed_surface(HY, g, "round", r0=720.0))
    # kappa and the area weight are checked where they are first read
    f = geometry(EU, make_seed_surface(EU, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4))
    v = f.v.copy()
    v[3, 5] = np.nan
    node = r"node \(i=3, j=5\)"
    with pytest.raises(FloatingPointError, match=f"non-finite kappa at {node}"):
        dataclasses.replace(f, v=v).kappa
    with pytest.raises(FloatingPointError, match=f"non-finite area weight at {node}"):
        surface_integral(dataclasses.replace(f, v=v), 1.0)
    assert np.isfinite(f.kappa).all() and np.isfinite(f.area_weight).all()


_GRIDS = st.one_of(st.builds(circle_grid, st.sampled_from([16, 18, 34])),
                   st.builds(sphere_grid, st.sampled_from([16, 17]), st.sampled_from([32, 34])))


def _faults(data, grid, values):
    """Distinct flat node indices, ascending, each paired with a value drawn from values."""
    nodes = data.draw(st.lists(st.integers(0, grid.node_count - 1), min_size=1, max_size=3,
                               unique=True))
    return [(idx, data.draw(st.sampled_from(values))) for idx in sorted(nodes)]


def _label(grid, faults):
    return re.escape(grid.node_label(faults[0][0]))


@settings(max_examples=60, deadline=None)
@given(grid=_GRIDS, space=st.sampled_from([EU, SP, make_custom("cosh", a=0.5)]),
       data=st.data())
def test_radius_faults_raise_naming_the_first_node(grid, space, data):
    # the extrema clear a valid graph; a radius that is not finite or leaves
    # (a, b) is found by the node scan, which names the first such node
    faults = _faults(data, grid, [math.nan, math.inf, -math.inf, space.a, space.a - 0.25,
                                  space.b, space.b + 0.25])
    w = np.zeros(grid.shape)
    w += 0.25 * np.cos(grid.theta).reshape(-1, *[1] * (grid.n - 1))
    for idx, bad in faults:
        w.flat[idx] = bad - 1.0                   # u = 1 + w is bad exactly
    match = f"at {_label(grid, faults)} is outside the ambient domain"
    with pytest.raises(DomainError, match=match):
        geometry(space, RadialGraph(grid=grid, u=1.0 + w))
    with mock.patch("warpflow.surface._bandlimited_profile", lambda *_: w), \
            pytest.raises(DomainError, match=match):
        make_seed_surface(space, grid, "bandlimited", seed=1, r0=1, amp=1, lmax=1)


@settings(max_examples=40, deadline=None)
@given(grid=_GRIDS, data=st.data())
def test_warping_faults_raise_naming_the_first_node(grid, data):
    # lambda <= 0 anywhere is a DomainError at the first such node; a NaN lambda
    # is not nonpositive, and the finiteness check of v names its node
    faults = _faults(data, grid, [math.nan, 0.0, -0.5])
    lam = np.full(grid.shape, math.sin(1.0))
    for idx, bad in faults:
        lam.flat[idx] = bad
    space = dataclasses.replace(SP, warp=lambda r: (lam, *SP.warp(r)[1:]))
    graph = make_seed_surface(SP, grid, "round", r0=1.0)
    nonpositive = [(idx, bad) for idx, bad in faults if bad <= 0]
    with np.errstate(invalid="ignore"):
        if nonpositive:
            with pytest.raises(DomainError,
                               match=f"warping nonpositive at {_label(grid, nonpositive)}$"):
                geometry(space, graph)
        else:
            with pytest.raises(FloatingPointError, match=f"non-finite v at {_label(grid, faults)}$"):
                geometry(space, graph)


@settings(max_examples=40, deadline=None)
@given(grid=_GRIDS, sign=st.sampled_from([1.0, -1.0]), data=st.data())
def test_integrand_faults_raise_and_overflow_returns_inf(grid, sign, data):
    f = geometry(EU, make_seed_surface(EU, grid, "round", r0=1.0))
    faults = _faults(data, grid, [math.nan, math.inf, -math.inf])
    integrand = np.ones(grid.shape)
    for idx, bad in faults:
        integrand.flat[idx] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=f"non-finite integrand at {_label(grid, faults)}$"):
        surface_integral(f, integrand)
    # every value is finite but the weighted sum overflows: inf, and no error
    with np.errstate(over="ignore"):
        assert surface_integral(f, np.full(grid.shape, sign * 1e308)) == sign * math.inf


def test_parse_surface_spec():
    fam, kv = parse_surface_spec("legendre:r0=1,eps=0.2,l=2")
    assert fam == "legendre" and kv == {"r0": 1.0, "eps": 0.2, "l": 2.0}
    fam, kv = parse_surface_spec("bandlimited:seed=7,r0=1,amp=0.05,lmax=4")
    assert fam == "bandlimited"
    for bad, named in (("round", "'r0'"), ("round:r=1", "'r'"), ("legendre:r0=1", "'eps', 'l'"),
                       ("blob:r0=1", "'blob:r0=1'"), ("round:r0", "'r0'"),
                       ("round:r0=1,r0=2", "'r0' given twice"),
                       ("legendre:r0=1,eps=0.1,l=2,x=1", "'x'")):
        with pytest.raises(ValueError, match=named):
            parse_surface_spec(bad)


def test_parse_grid_spec():
    g = parse_grid_spec("64x128", 2)
    assert g.shape == (64, 128)
    c = parse_grid_spec("512", 1)
    assert c.shape == (512,)
    with pytest.raises(ValueError):
        parse_grid_spec("64", 2)
    with pytest.raises(ValueError):
        parse_grid_spec("64x128", 1)
    # a grid's spec parses back to the grid itself, with n given or taken from the spec
    for g in (circle_grid(64), circle_grid(512), sphere_grid(16, 32), sphere_grid(17, 34),
              sphere_grid(64, 128)):
        assert parse_grid_spec(g.spec, g.n) is g
        assert parse_grid_spec(g.spec) is g
    assert (circle_grid(64).spec, sphere_grid(16, 32).spec) == ("64", "16x32")
    scaled = sphere_grid(16, 32, 2.0)
    assert parse_grid_spec(scaled.spec, 2, 2.0) is scaled
    for n, spec in DEFAULT_GRID_SPECS.items():
        assert parse_grid_spec(spec, n).n == n
    with pytest.raises(ValueError, match="grid spec '16x32x4' must look like"):
        parse_grid_spec("16x32x4")


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(16 * 32)))
def test_surface_csv_roundtrip_any_row_order(order):
    graph = make_seed_surface(EU, sphere_grid(16, 32), "bandlimited",
                              seed=3, r0=1, amp=0.05, lmax=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surf.csv")
        dump_surface_csv(graph, path)
        with open(path) as fh:
            header, *rows = fh.readlines()
        with open(path, "w") as fh:
            fh.write(header + "".join(rows[i] for i in order))
        assert np.array_equal(load_surface_csv(path, EU).u, graph.u)


def test_surface_csv_roundtrip(tmp_path):
    g = sphere_grid(16, 32)
    graph = make_seed_surface(EU, g, "bandlimited", seed=3, r0=1, amp=0.05, lmax=3)
    path = tmp_path / "surf.csv"
    dump_surface_csv(graph, str(path))
    back = load_surface_csv(str(path), EU)
    assert back.grid.shape == g.shape
    assert np.array_equal(back.u, graph.u)

    header, *rows = path.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in
                                         np.random.default_rng(5).permutation(len(rows))))
    assert np.array_equal(load_surface_csv(str(shuffled), EU).u, graph.u)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text(header + "".join(rows[:-1]))
    with pytest.raises(ValueError, match=r"node \(i=15, j=31\).* is missing"):
        load_surface_csv(str(truncated), EU)
    doubled = tmp_path / "doubled.csv"
    doubled.write_text(header + "".join(rows) + rows[0])
    with pytest.raises(ValueError, match=r"node \(i=0, j=0\).* is given 2 times"):
        load_surface_csv(str(doubled), EU)
    short = tmp_path / "short.csv"
    short.write_text(header + rows[0] + "0.1,0.2\n" + "".join(rows[1:]))
    with pytest.raises(ValueError, match="line 3 has 2 fields"):
        load_surface_csv(str(short), EU)

    # a node column off the grid by more than 1e-12 absolute is refused, also
    # when the offset is far inside numpy's default relative tolerance of 1e-5
    skewed = tmp_path / "skewed.csv"
    skewed.write_text(header + "".join(
        f"{t},{repr(float(p) * (1.0 + 1e-9))},{u}\n"
        for t, p, u in (row.strip().split(",") for row in rows)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(skewed))}: phi column does not"):
        load_surface_csv(str(skewed), EU)

    c = circle_grid(64)
    graph1 = make_seed_surface(EU, c, "legendre", r0=1, eps=0.1, l=2)
    path1 = tmp_path / "curve.csv"
    dump_surface_csv(graph1, str(path1))
    back1 = load_surface_csv(str(path1), EU)
    assert np.array_equal(back1.u, graph1.u)


def test_surface_refusals_name_their_cause(tmp_path):
    g = sphere_grid(16, 32)
    for make, message in (
            (lambda: RadialGraph(grid=g, u=np.ones((16, 31))),
             "u shape (16, 31) does not match grid (16, 32)"),
            (lambda: make_seed_surface(EU, g, "spiky", r0=1.0), "unknown seed family 'spiky'")):
        with pytest.raises(ValueError) as err:
            make()
        assert type(err.value) is ValueError and str(err.value) == message
    # a file whose node columns name a grid that no constructor takes
    path = tmp_path / "short.csv"
    path.write_text("theta,u\n" + "".join(f"{t},1.0\n" for t in range(8)))
    with pytest.raises(ValueError) as err:
        load_surface_csv(str(path), EU)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{path}: n=1 grid needs even m >= 16, got 8"
