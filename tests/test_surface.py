import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre

from warpflow.ambient import make_custom, make_space_form
from warpflow.grid import circle_grid, differentiate, sphere_grid
from warpflow.quantities import surface_integral
from warpflow.surface import (
    RadialGraph,
    convexity_class,
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
    rep = convexity_class(geometry(EU, graph), EU, 2)
    assert rep.mean_convex and rep.k_convex and rep.convex
    assert rep.min_kappa == pytest.approx(1.0, rel=1e-11)
    assert rep.min_E[1] == pytest.approx(1.0, rel=1e-11)
    assert rep.min_E[2] == pytest.approx(1.0, rel=1e-11)
    assert rep.min_H == pytest.approx(2.0, rel=1e-11)


def test_convexity_class_static_margin():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    rep = convexity_class(geometry(HY, graph), HY, 1)
    expected = math.cosh(1) / math.sinh(1) - math.tanh(1)
    assert rep.static_margin == pytest.approx(expected, abs=1e-10)
    assert rep.static_convex


def test_convexity_lost_but_mean_convex():
    g = sphere_grid(128, 256)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.45, l=2)
    rep = convexity_class(geometry(EU, graph), EU, 2)
    assert rep.min_kappa < 0
    assert not rep.convex
    assert rep.mean_convex


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


def test_seed_domain_violation():
    g = sphere_grid(32, 64)
    with pytest.raises(ValueError, match="node"):
        make_seed_surface(SP, g, "legendre", r0=2.0, eps=0.8, l=2)


def test_rotational_equivariance_bitwise():
    g = sphere_grid(32, 64)
    graph = make_seed_surface(EU, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4)
    rolled = graph.with_values(np.roll(graph.u, 1, axis=1))
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
    rolled = graph.with_values(np.roll(graph.u, shift, axis=1))
    for out, out_r in zip(differentiate(g, graph.u), differentiate(g, rolled.u)):
        assert np.array_equal(np.roll(out, shift, axis=-1), out_r)
    f, fr = geometry(EU, graph), geometry(EU, rolled)
    for name in (fld.name for fld in dataclasses.fields(f) if fld.name != "grid"):
        expected = np.roll(getattr(f, name), shift, axis=-1)
        assert np.array_equal(expected, getattr(fr, name)), name


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

    c = circle_grid(64)
    graph1 = make_seed_surface(EU, c, "legendre", r0=1, eps=0.1, l=2)
    path1 = tmp_path / "curve.csv"
    dump_surface_csv(graph1, str(path1))
    back1 = load_surface_csv(str(path1), EU)
    assert np.array_equal(back1.u, graph1.u)
