import decimal
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from warpflow.ambient import (
    _ODD_SERIES_RATIOS,
    _space_form_antiderivative,
    make_custom,
    make_space_form,
    sphere_area,
)
from warpflow.grid import circle_grid, sphere_grid
from warpflow.quantities import (
    QuantityReport,
    UnsupportedAmbientError,
    full_report,
    quermassintegrals,
    surface_integral,
    volume,
    weighted_volume,
)
from warpflow.surface import GeometryFields, RadialGraph, geometry, make_seed_surface

EU = make_space_form(0)
HY = make_space_form(-1)
SP = make_space_form(1)


def test_surface_integral_unit_sphere():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    f = geometry(EU, graph)
    assert surface_integral(f, np.ones(g.shape)) == pytest.approx(4 * math.pi, rel=1e-10)
    assert surface_integral(f, f.E[1]) == pytest.approx(4 * math.pi, rel=1e-10)


def test_surface_integral_rejects_nonfinite():
    g = sphere_grid(16, 32)
    f = geometry(EU, make_seed_surface(EU, g, "round", r0=1.0))
    bad = np.ones(g.shape)
    bad[3, 5] = math.nan
    with pytest.raises(ValueError, match="node"):
        surface_integral(f, bad)


def test_potential_integral_self_convergence():
    # int Phi dmu on a perturbed surface approaches the fine-grid value at
    # 4th order under refinement
    vals = {}
    for M in (64, 128, 256):
        g = sphere_grid(M, 2 * M)
        graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
        f = geometry(EU, graph)
        vals[M] = surface_integral(f, EU.phi(graph.u))
    ratio = abs(vals[64] - vals[256]) / max(abs(vals[128] - vals[256]), 1e-16)
    assert ratio > 8.0


def test_weighted_volume_closed_forms():
    g = sphere_grid(64, 128)
    ball = make_seed_surface(EU, g, "round", r0=1.0)
    assert weighted_volume(EU, ball, 2.0) == pytest.approx(math.pi, rel=1e-12)
    assert weighted_volume(EU, ball, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    hball = make_seed_surface(HY, g, "round", r0=1.0)
    expected = 4 * math.pi / 3 * math.sinh(1) ** 3
    assert weighted_volume(HY, hball, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.7987, abs=1e-4)
    # radial-quadrature cross-check of the antiderivative shortcut
    direct = 4 * math.pi * quad(lambda s: math.cosh(s) * math.sinh(s) ** 2, 0, 1)[0]
    assert weighted_volume(HY, hball, 1.0) == pytest.approx(direct, rel=1e-10)


def test_weighted_volume_validates_exponent():
    g = sphere_grid(16, 32)
    ball = make_seed_surface(EU, g, "round", r0=1.0)
    with pytest.raises(ValueError, match="k >= 1"):
        weighted_volume(EU, ball, 0.5)


def test_volume_closed_forms():
    g = sphere_grid(64, 128)
    assert volume(EU, make_seed_surface(EU, g, "round", r0=2.0)) == pytest.approx(
        32 * math.pi / 3, rel=1e-10)
    half_sphere = make_seed_surface(SP, g, "round", r0=math.pi / 2)
    assert volume(SP, half_sphere) == pytest.approx(math.pi**2, rel=1e-10)
    hball = make_seed_surface(HY, g, "round", r0=1.0)
    assert volume(HY, hball) == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-10)
    assert math.pi * (math.sinh(2) - 2) == pytest.approx(5.1109, abs=1e-4)


_WARPS = {0: lambda s: s, -1: math.sinh, 1: math.sin}


@pytest.mark.parametrize("K", (-1, 0, 1))
@pytest.mark.parametrize("power", (1, 2))
def test_space_form_antiderivatives_match_quadrature(K, power):
    # from the bisection floor r = 1e-8 through the series/direct switch to
    # u = 3, and up to pi - 1e-6 in the sphere
    top = math.pi - 1e-6 if K == 1 else 3.0
    us = np.concatenate([np.geomspace(1e-8, top, 61), [0.49, 0.5, 0.51]])
    got = _space_form_antiderivative(K, power, us)
    lam = _WARPS[K]
    for u, val in zip(us, got):
        ref = quad(lambda s: lam(s) ** power, 0.0, u, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        assert val == pytest.approx(ref, rel=1e-14, abs=0.0), (K, power, u)


@pytest.mark.parametrize("K", (-1, 0, 1))
@pytest.mark.parametrize("power", (1, 2))
def test_radial_integral_is_bitwise_the_two_term_form(K, power):
    # without an inner boundary the F(0) term is skipped; F(0) = 0.0 exactly
    # in every closed form, so the one-term result has the same bits, for
    # arrays and for scalars
    space = make_space_form(K)
    top = math.pi - 1e-6 if K == 1 else 3.0
    us = np.concatenate([np.geomspace(1e-8, top, 61), [0.0, 0.49, 0.5, 0.51]])
    assert _space_form_antiderivative(K, power, 0.0) == 0.0
    two_term = (_space_form_antiderivative(K, power, us)
                - _space_form_antiderivative(K, power, space.a))
    assert space.radial(power, us).tobytes() == two_term.tobytes()
    for u in (1e-8, 0.5, 0.9, top):
        got = space.radial(power, u)
        ref = _space_form_antiderivative(K, power, u) - _space_form_antiderivative(K, power, 0.0)
        assert type(got) is type(ref) and np.float64(got).tobytes() == np.float64(ref).tobytes()


def _exact_radial(family: str, power: int, beta: float, a: float, r: float) -> float:
    """int_a^r lambda^p ds from the antiderivative in 50-digit decimal arithmetic,
    at the exact binary values of beta, a and r."""
    with decimal.localcontext(decimal.Context(prec=50)):
        b = decimal.Decimal(beta)

        def antiderivative(x):
            x = decimal.Decimal(x)
            if family == "power_cubic":
                return (x**2 / 2 + b * x**4 / 4 if power == 1
                        else x**3 / 3 + 2 * b * x**5 / 5 + b * b * x**7 / 7)
            sinh, cosh = (x.exp() - (-x).exp()) / 2, (x.exp() + (-x).exp()) / 2
            return sinh if power == 1 else x / 2 + sinh * cosh / 2

        return float(antiderivative(r) - antiderivative(a))


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(("cosh", "power_cubic")), power=st.sampled_from((1, 2)),
       beta=st.floats(0.0, 2.0), a=st.floats(0.0, 2.0), span=st.floats(1e-8, 5.0))
def test_custom_radial_integrals_match_exact_antiderivatives(family, power, beta, a, span):
    # closed forms with r - a as a factor keep their relative accuracy down to
    # r - a = 1e-8, where a difference F(r) - F(a) in doubles would lose half
    # its digits; the 50-digit reference keeps more than 30 there
    assume(family != "cosh" or a > 0)
    space = (make_custom("cosh", a=a) if family == "cosh"
             else make_custom("power_cubic", a=a, beta=beta))
    r = a + span
    ref = _exact_radial(family, power, beta, a, r)
    assert space.radial(power, r) == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert space.radial(power, a) == 0.0


def _both_branches(K, u):
    """The p = 2 antiderivative with the series summed at every node and then
    discarded where |2u| >= 1."""
    x = 2.0 * np.asarray(u, dtype=float)
    x2 = -K * x * x
    acc = np.ones_like(x)
    for ratio in reversed(_ODD_SERIES_RATIOS):
        acc = 1.0 + x2 * ratio * acc
    direct = np.sinh(x) - x if K == -1 else x - np.sin(x)
    return 0.25 * np.where(np.abs(x) < 1.0, x * x * x / 6.0 * acc, direct)


_SERIES_SIDE = st.floats(-0.4999999, 0.4999999)       # |2u| < 1
_DIRECT_SIDE = st.floats(0.5, 3.0)


@settings(max_examples=80, deadline=None)
@given(K=st.sampled_from((-1, 1)),
       values=st.one_of(st.lists(st.one_of(_SERIES_SIDE, _DIRECT_SIDE), min_size=1, max_size=12),
                        st.lists(_SERIES_SIDE, min_size=1, max_size=12),
                        st.lists(_DIRECT_SIDE, min_size=1, max_size=12)),
       form=st.sampled_from(("1-d", "2-d", "0-d", "float")))
def test_antiderivative_sums_the_series_only_where_it_is_used(K, values, form):
    if form == "2-d":
        u = np.array(values * 2).reshape(2, -1)
    elif form == "1-d":
        u = np.array(values)
    else:
        u = np.array(values[0]) if form == "0-d" else values[0]
    got, ref = _space_form_antiderivative(K, 2, u), _both_branches(K, u)
    assert type(got) is type(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_weighted_volume_k1_equals_volume_euclidean():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
    assert weighted_volume(EU, graph, 1.0) == pytest.approx(
        volume(EU, graph), rel=1e-8)


def test_quermass_unit_sphere():
    g = sphere_grid(64, 128)
    W, res = quermassintegrals(
        QuantityReport(EU, make_seed_surface(EU, g, "round", r0=1.0)))
    assert W[0] == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert W[1] == pytest.approx(2 * math.pi, rel=1e-12)
    assert W[2] == pytest.approx(4 * math.pi, rel=1e-10)
    assert W[3] == 4 * math.pi / 3
    assert abs(res) < 1e-8


def test_quermass_hyperbolic_geodesic_sphere():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(HY, g, "round", r0=1.0)
    W, res = quermassintegrals(QuantityReport(HY, graph))
    W2_exact = 4 * math.pi * math.sinh(1) * math.cosh(1) - math.pi * (math.sinh(2) - 2)
    assert W[2] == pytest.approx(W2_exact, rel=1e-10)
    assert abs(res) <= 1e-8


@pytest.mark.parametrize("space,r0", [(EU, 1.0), (HY, 1.0), (SP, 0.7)])
def test_gauss_bonnet_residual_legendre(space, r0):
    g = sphere_grid(128, 256)
    graph = make_seed_surface(space, g, "legendre", r0=r0, eps=0.2, l=2)
    _, res = quermassintegrals(QuantityReport(space, graph))
    assert abs(res) <= 1e-6


def test_gauss_bonnet_residual_fourth_order():
    res = {}
    for M in (64, 128):
        g = sphere_grid(M, 2 * M)
        graph = make_seed_surface(EU, g, "legendre", r0=1, eps=0.2, l=2)
        _, res[M] = quermassintegrals(QuantityReport(EU, graph))
    assert np.log2(abs(res[64]) / abs(res[128])) > 3.5


def test_quermass_refuses_custom_space():
    cu = make_custom("cosh", a=0.1)
    g = sphere_grid(32, 64)
    graph = make_seed_surface(cu, g, "round", r0=1.0)
    with pytest.raises(UnsupportedAmbientError):
        quermassintegrals(QuantityReport(cu, graph))


def test_full_report_euclidean_round():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    rep = full_report(EU, graph, ks=(1.0, 2.0))
    assert rep.momentum(1) == pytest.approx(4 * math.pi, rel=1e-12)
    assert rep.momentum(2) == pytest.approx(4 * math.pi, rel=1e-12)
    assert rep.gamma_area == 0.0
    assert rep.gamma_term(2.0) == 0.0
    assert rep.W(1) * 2 == pytest.approx(rep.area, rel=1e-14)
    assert rep.W(3) == sphere_area(2) / 3


def test_full_report_cosh_gamma():
    cu = make_custom("cosh", a=0.1)
    g = sphere_grid(32, 64)
    graph = make_seed_surface(cu, g, "round", r0=1.0)
    rep = full_report(cu, graph, ks=(1.0,))
    assert rep.gamma_area == pytest.approx(math.cosh(0.1) ** 2 * 4 * math.pi, rel=1e-14)
    assert rep.gamma_area == pytest.approx(4 * math.pi * 1.01003, rel=1e-5)
    assert rep.gamma_term(1.0) == pytest.approx(rep.gamma_area * math.cosh(0.1), rel=1e-14)
    assert rep.quermass is None and rep.gauss_bonnet_residual is None


def test_full_report_sphere_momentum():
    g = sphere_grid(64, 128)
    graph = make_seed_surface(SP, g, "round", r0=1.0)
    rep = full_report(SP, graph, ks=(1.0,))
    assert rep.momentum(1) == pytest.approx(4 * math.pi * math.sin(1) ** 3, rel=1e-12)
    assert rep.momentum(1) == pytest.approx(7.4874, abs=1e-4)


def test_report_json_schema():
    g = sphere_grid(32, 64)
    rep = full_report(EU, make_seed_surface(EU, g, "round", r0=1.0), ks=(1.0, 1.5))
    data = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert set(data) == {"n", "area", "volume", "momenta", "weighted_volumes",
                         "gamma_area", "gamma_terms", "curvature_integrals",
                         "phi_curvature_integrals", "W", "gauss_bonnet_residual",
                         "min_E", "min_kappa", "static_margin", "newton_maclaurin_margin"}
    assert set(data["momenta"]) == {"1", "1.5"}
    assert len(data["W"]) == 4
    assert data["area"] == pytest.approx(4 * math.pi, rel=1e-12)


@pytest.mark.parametrize("space,name,r0", [
    (EU, "euclidean", 1.0),
    (HY, "hyperbolic", 1.0),
    (SP, "sphere", 0.7),
    (make_custom("cosh", a=0.1), "cosh", 1.0),
])
def test_divergence_identity_gap(space, name, r0):
    # int lambda^k dmu - (n+k) wv_k - lambda^k(a)|Gamma| is zero on slices
    # and strictly positive off them
    g = sphere_grid(64, 128)
    k = 1.5
    round_rep = full_report(space, make_seed_surface(space, g, "round", r0=r0),
                            ks=(k,))
    gap = round_rep.momentum(k) - (2 + k) * round_rep.weighted_vol(k) \
        - round_rep.gamma_term(k)
    assert abs(gap) <= 1e-8 * round_rep.momentum(k)
    pert = full_report(space, make_seed_surface(space, g, "legendre",
                                                r0=r0, eps=0.2, l=2), ks=(k,))
    gap_pert = pert.momentum(k) - (2 + k) * pert.weighted_vol(k) \
        - pert.gamma_term(k)
    assert gap_pert > 1e-2


@pytest.mark.parametrize("space,r0", [(EU, 1.3), (HY, 0.9), (SP, 0.7)])
def test_round_report_closed_forms(space, r0):
    # every reported quantity of a round graph matches lambda-power closed forms
    g = sphere_grid(64, 128)
    rep = full_report(space, make_seed_surface(space, g, "round", r0=r0),
                      ks=(1.0, 2.5))
    lam = float(space.lam(r0))
    dlam = float(space.dlam(r0))
    phi = float(space.phi(r0))
    omega = sphere_area(2)
    assert rep.area == pytest.approx(lam**2 * omega, rel=1e-10)
    for k in (1.0, 2.5):
        assert rep.momentum(k) == pytest.approx(lam ** (2 + k) * omega, rel=1e-10)
        assert rep.weighted_vol(k) == pytest.approx(
            lam ** (2 + k) * omega / (2 + k), rel=1e-10)
    for k in (1, 2):
        assert rep.curvature(k) == pytest.approx(
            omega * lam ** (2 - k) * dlam**k, rel=1e-10)
        assert rep.phi_curvature(k) == pytest.approx(
            omega * phi * lam ** (2 - k) * dlam**k, rel=1e-10)


def test_circle_quermass():
    c = circle_grid(256)
    graph = make_seed_surface(EU, c, "round", r0=1.0)
    W, res = quermassintegrals(QuantityReport(EU, graph))
    assert W[0] == pytest.approx(math.pi, rel=1e-12)       # area enclosed
    assert W[1] == pytest.approx(2 * math.pi, rel=1e-12)   # length
    assert W[2] == pytest.approx(math.pi, rel=1e-15)       # omega_1 / 2
    assert abs(res) < 1e-10                                 # total curvature 2 pi


def test_full_report_validation():
    g = sphere_grid(16, 32)
    graph = make_seed_surface(EU, g, "round", r0=1.0)
    with pytest.raises(ValueError, match="k >= 1"):
        full_report(EU, graph, ks=(0.5,))


def _gauss_radial_integral(space, power, upper, order=64):
    """Reference int_a^u lambda^power ds per node by one Gauss-Legendre rule on
    [a, u]; the warpings are analytic, so 64 nodes reach roundoff on these spans."""
    x, w = np.polynomial.legendre.leggauss(order)
    span = upper - space.a
    s = space.a + span[..., None] * (0.5 * (x + 1.0))
    return span * np.sum(0.5 * w * space.lam(s) ** power, axis=-1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r0=st.floats(0.05, 2.5),
       amp=st.floats(0.0, 0.2), lmax=st.integers(1, 6),
       space=st.sampled_from((EU, HY, SP, make_custom("cosh", a=0.5),
                              make_custom("power_cubic", beta=0.5))),
       n=st.sampled_from((1, 2)))
def test_volume_closed_form_matches_quadrature(seed, r0, amp, lmax, space, n):
    grid = circle_grid(64) if n == 1 else sphere_grid(16, 32)
    # (2a + r0)(1 - amp) > a keeps every node outside the inner boundary
    graph = make_seed_surface(space, grid, "bandlimited", seed=seed, r0=2 * space.a + r0,
                              amp=amp, lmax=lmax)
    quadrature = float(np.sum(_gauss_radial_integral(space, n, graph.u) * grid.weights))
    assert volume(space, graph) == pytest.approx(quadrature, rel=1e-13, abs=0.0)


def _held(obj):
    """Every object reachable from obj through attributes, dicts, lists and tuples."""
    yield obj
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _held(key)
            yield from _held(val)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held(item)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        yield from _held(vars(obj))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r0=st.floats(0.5, 1.2), amp=st.floats(0.0, 0.1),
       lmax=st.integers(1, 4), space=st.sampled_from((EU, HY, SP, make_custom("cosh", a=0.1))),
       n=st.sampled_from((1, 2)))
def test_full_report_detached(seed, r0, amp, lmax, space, n):
    grid = circle_grid(64) if n == 1 else sphere_grid(16, 32)
    graph = make_seed_surface(space, grid, "bandlimited", seed=seed, r0=r0, amp=amp, lmax=lmax)
    rep = full_report(space, graph, ks=(1.0, 2.0))
    for obj in _held(rep):
        assert not isinstance(obj, (GeometryFields, RadialGraph))
        assert not (isinstance(obj, np.ndarray) and obj.size >= grid.node_count)
    # the values it kept are the lazy report's, read in another order
    lazy = QuantityReport(space, graph)
    for k in (2.0, 1.0):
        lazy.gamma_term(k), lazy.weighted_vol(k), lazy.momentum(k)
    assert rep.to_dict() == lazy.to_dict()
    # detaching a live report fills and returns that report
    live = QuantityReport(space, graph)
    live.area
    assert live.detach((2.0, 1.0)) is live and live.graph is None
    assert live.to_dict() == rep.to_dict()
    for read, label in ((lambda: rep.momentum(3), "momentum(3)"),
                        (lambda: rep.weighted_vol(1.5), "weighted_vol(1.5)"),
                        (lambda: rep.gamma_term(2.5), "gamma_term(2.5)"),
                        (lambda: rep.fields, "fields")):
        with pytest.raises(KeyError, match=re.escape(label)):
            read()


def test_quermassintegrals_read_the_report_they_fill(monkeypatch):
    # a volume read before W is the W_0 of the recursion: one quadrature,
    # and the curvature integrals the recursion read stay in the report
    import warpflow.quantities as quantities
    from warpflow.inequalities import (deficit_phi_quermass_euclidean,
                                       deficit_weinstock_iso)

    calls = []
    volume_fn = quantities.volume

    def counted(*args):
        calls.append(args)
        return volume_fn(*args)

    monkeypatch.setattr(quantities, "volume", counted)
    graph = make_seed_surface(EU, sphere_grid(16, 32), "bandlimited",
                              seed=3, r0=1.0, amp=0.05, lmax=4)
    rep = QuantityReport(EU, graph)
    deficit_weinstock_iso(rep)
    deficit_phi_quermass_euclidean(rep, 1)
    assert len(calls) == 1
    assert set(rep._computed("curvature")) == {1.0, 2.0}
    assert rep.W(0) == rep.volume
