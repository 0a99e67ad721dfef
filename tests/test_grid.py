import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from warpflow import grid as grid_module
from warpflow.cli import main
from warpflow.grid import _phi_derivatives, circle_grid, differentiate, sphere_grid


def nodes(grid):
    T = grid.theta[:, None] + 0 * grid.phi[None, :]
    PH = 0 * grid.theta[:, None] + grid.phi[None, :]
    return T, PH


@pytest.mark.parametrize("M,P", [(16, 32), (64, 128), (128, 256)])
def test_weights_sum_to_fiber_area(M, P):
    g = sphere_grid(M, P)
    assert abs(g.fiber_area - 4 * np.pi) <= 1e-12 * 4 * np.pi
    gc = sphere_grid(M, P, fiber_scale=2.0)
    assert abs(gc.fiber_area - 16 * np.pi) <= 1e-12 * 16 * np.pi


def test_circle_weights():
    c = circle_grid(64, fiber_scale=3.0)
    assert abs(c.fiber_area - 6 * np.pi) <= 1e-12 * 6 * np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        circle_grid(14)
    with pytest.raises(ValueError):
        circle_grid(17)
    with pytest.raises(ValueError):
        sphere_grid(8, 32)
    with pytest.raises(ValueError):
        sphere_grid(16, 16)
    with pytest.raises(ValueError):
        sphere_grid(16, 33)


def test_quadrature_is_spectral_for_smooth_integrand():
    from scipy.integrate import quad
    g = sphere_grid(32, 64)
    T, PH = nodes(g)
    f = np.exp(np.cos(T)) * (1 + 0.3 * np.sin(T) ** 2 * np.cos(2 * PH))
    ref = quad(lambda t: np.exp(np.cos(t)) * np.sin(t), 0, np.pi,
               epsabs=1e-14)[0] * 2 * np.pi
    assert (f * g.weights).sum() == pytest.approx(ref, rel=1e-13)


def test_constant_derivatives_are_exact_zero():
    g = sphere_grid(32, 64)
    Du, Hu = differentiate(g, np.ones(g.shape))
    assert np.abs(Du).max() == 0.0
    assert np.abs(Hu).max() == 0.0
    # a non-representable constant still cancels to roundoff
    Du, Hu = differentiate(g, np.full(g.shape, 2.7))
    assert np.abs(Du).max() < 1e-13
    assert np.abs(Hu).max() < 1e-12
    c = circle_grid(64)
    du, d2u = differentiate(c, np.full(64, 1.3))
    assert np.abs(du).max() < 1e-13 and np.abs(d2u).max() < 1e-12


def test_axisymmetric_hessian_identities():
    # degree-1 zonal harmonic: covariant Hessian is -u sigma
    g = sphere_grid(64, 128)
    T, PH = nodes(g)
    u = np.cos(T)
    Du, Hu = differentiate(g, u)
    sin_t, cos_t = np.sin(T), np.cos(T)
    assert np.abs(Du[0] + sin_t).max() < 1e-6
    assert np.abs(Du[1]).max() < 1e-12
    assert np.abs(Hu[0] + cos_t).max() < 1e-6
    assert np.abs(Hu[1]).max() < 1e-10
    assert np.abs(Hu[2] + cos_t * sin_t**2).max() < 1e-6
    # |Du|^2_sigma = sin^2 theta / c^2 at c = 1
    assert np.abs(Du[0] ** 2 - sin_t**2).max() < 1e-5


def test_circle_fourth_order():
    errs = []
    for m in (64, 128):
        c = circle_grid(m)
        du, d2u = differentiate(c, np.sin(c.theta))
        errs.append(max(np.abs(du - np.cos(c.theta)).max(),
                        np.abs(d2u + np.sin(c.theta)).max()))
    assert np.log2(errs[0] / errs[1]) > 3.7


def test_sphere_fourth_order_with_longitude_coupling():
    def errors(M):
        g = sphere_grid(M, 2 * M)
        T, PH = nodes(g)
        u = np.sin(T) ** 2 * np.cos(2 * PH)
        Du, Hu = differentiate(g, u)
        ut_exact = 2 * np.sin(T) * np.cos(T) * np.cos(2 * PH)
        htt_exact = 2 * np.cos(2 * T) * np.cos(2 * PH)
        htp_exact = -np.sin(2 * T) * np.sin(2 * PH)
        hpp_exact = 2 * np.sin(T) ** 2 * (np.cos(T) ** 2 - 2) * np.cos(2 * PH)
        return max(np.abs(Du[0] - ut_exact).max(),
                   np.abs(Hu[0] - htt_exact).max(),
                   np.abs(Hu[1] - htp_exact).max(),
                   np.abs(Hu[2] - hpp_exact).max())
    e32, e64 = errors(32), errors(64)
    assert np.log2(e32 / e64) > 3.7


def test_longitude_derivatives_spectrally_exact():
    g = sphere_grid(16, 64)
    T, PH = nodes(g)
    u = np.sin(3 * PH) + 0.5 * np.cos(7 * PH)
    Du, Hu = differentiate(g, u)
    up_exact = 3 * np.cos(3 * PH) - 3.5 * np.sin(7 * PH)
    assert np.abs(Du[1] - up_exact).max() < 1e-11


def test_differentiate_bitwise_roll_equivariance():
    g = sphere_grid(32, 64)
    u = np.random.default_rng(3).standard_normal(g.shape)
    Du, Hu = differentiate(g, u)
    Du_r, Hu_r = differentiate(g, np.roll(u, 1, axis=1))
    assert np.array_equal(np.roll(Du, 1, axis=2), Du_r)
    assert np.array_equal(np.roll(Hu, 1, axis=2), Hu_r)


def _classical_taps(P):
    """Circulant taps d[o], o = 0..P-1, of the first and second derivatives of
    the trigonometric interpolant on an even P-grid with spacing h (Trefethen,
    Spectral Methods in MATLAB, ch. 3): d1[o] = (-1)^o cot(o h/2) / 2,
    d2[o] = -(-1)^o / (2 sin^2(o h/2)) and d2[0] = -pi^2/(3 h^2) - 1/6."""
    h = 2.0 * np.pi / P
    o = np.arange(1, P)
    d1 = np.concatenate([[0.0], 0.5 * (-1.0) ** o / np.tan(0.5 * o * h)])
    d2 = np.concatenate([[-np.pi**2 / (3.0 * h * h) - 1.0 / 6.0],
                         -((-1.0) ** o) / (2.0 * np.sin(0.5 * o * h) ** 2)])
    return d1, d2


def _oracle_antisym(u, d):
    """sum_{o=1}^{P/2-1} d[o] (u[j - o] - u[j + o]), one offset at a time."""
    P = u.shape[-1]
    ut = np.ascontiguousarray(np.moveaxis(u, -1, 0))
    doubled = np.concatenate([ut, ut], axis=0)
    acc = np.zeros_like(ut)
    tmp = np.empty_like(ut)
    for o in range(1, P // 2):
        np.subtract(doubled[P - o:2 * P - o], doubled[o:o + P], out=tmp)
        np.multiply(tmp, d[o], out=tmp)
        np.add(acc, tmp, out=acc)
    return np.ascontiguousarray(np.moveaxis(acc, 0, -1))


def _oracle_sym_diff(u, d):
    """sum_{o != 0} d[o] (u[j - o] - u[j]), pairing o with P - o, then the Nyquist term."""
    P = u.shape[-1]
    ut = np.ascontiguousarray(np.moveaxis(u, -1, 0))
    doubled = np.concatenate([ut, ut], axis=0)
    acc = np.zeros_like(ut)
    tmp = np.empty_like(ut)
    tmp2 = np.empty_like(ut)
    for o in range(1, P // 2):
        np.subtract(doubled[P - o:2 * P - o], ut, out=tmp)
        np.subtract(doubled[o:o + P], ut, out=tmp2)
        np.add(tmp, tmp2, out=tmp)
        np.multiply(tmp, d[o], out=tmp)
        np.add(acc, tmp, out=acc)
    np.subtract(doubled[P // 2:P // 2 + P], ut, out=tmp)
    np.multiply(tmp, d[P // 2], out=tmp)
    np.add(acc, tmp, out=acc)
    return np.ascontiguousarray(np.moveaxis(acc, 0, -1))


def _gamma(n):
    """Higham's gamma_n = n eps / (1 - n eps), the relative error of an n-term dot product."""
    eps = np.finfo(float).eps
    return n * eps / (1 - n * eps)


# P = 0 and P = 2 mod 4, with even and odd numbers of taps on each side of the centre
@pytest.mark.parametrize("M,P", [(16, 32), (16, 34), (32, 66), (64, 128), (128, 256)])
def test_phi_stencil_matches_oracle_within_dot_product_bound(M, P):
    # The stencil product and the oracles' difference form sum the same taps in
    # different orders; each side is within gamma_{P+2} sum|d| max|u - ring max|
    # of the exact sum, so they differ by at most twice that.
    g = sphere_grid(M, P)
    d1, d2 = _classical_taps(P)
    rng = np.random.default_rng(P)
    for u in (rng.standard_normal((M, P)), 1.0 + 0.1 * rng.random((M, P)),
              np.full((M, P), 2.7), np.ones((M, P))):
        up, upp = _phi_derivatives(np.ascontiguousarray(u.T), g._phi_stencil).transpose(1, 2, 0)
        spread = np.abs(u - u.max(axis=1, keepdims=True)).max()
        for got, want, d in ((up, _oracle_antisym(u, d1), d1),
                             (upp, _oracle_sym_diff(u, d2), d2)):
            assert np.abs(got - want).max() <= 2 * _gamma(P + 2) * np.abs(d).sum() * spread
        if np.all(u == u[0, 0]):
            assert not up.any() and not upp.any()
        Du, Hu = differentiate(g, u)
        assert Du[1].tobytes() == up.tobytes()


# odd M starts most longitude windows off a 32-byte boundary
@settings(max_examples=20, deadline=None)
@given(grid=st.sampled_from([(16, 32), (17, 34), (19, 38), (33, 66), (64, 128)]),
       seed=st.integers(0, 2**31 - 1), scale=st.integers(-3, 3))
def test_differentiate_roll_equivariant_bitwise_every_shift(grid, seed, scale):
    M, P = grid
    g = sphere_grid(M, P)
    rng = np.random.default_rng(seed)
    u = 1.0 + 10.0**scale * rng.standard_normal((M, P))
    Du, Hu = differentiate(g, u)
    for shift in range(1, P):
        Du_r, Hu_r = differentiate(g, np.roll(u, shift, axis=1))
        assert np.array_equal(np.roll(Du, shift, axis=2), Du_r), shift
        assert np.array_equal(np.roll(Hu, shift, axis=2), Hu_r), shift


@settings(max_examples=20, deadline=None)
@given(grid=st.sampled_from([(16, 32), (17, 34), (33, 66), (64, 128)]),
       seed=st.integers(0, 2**31 - 1))
def test_ring_constant_fields_have_exactly_zero_phi_derivatives(grid, seed):
    M, P = grid
    g = sphere_grid(M, P)
    rings = np.random.default_rng(seed).uniform(0.5, 2.0, M)
    Du, Hu = differentiate(g, np.repeat(rings[:, None], P, axis=1))
    assert not Du[1].any()
    assert not Hu[1].any()
    sin_t, cos_t = np.sin(g.theta)[:, None], np.cos(g.theta)[:, None]
    assert np.array_equal(Hu[2], sin_t * cos_t * Du[0])


_DIGEST_SCRIPT = """
import contextlib, hashlib, io
import numpy as np
from warpflow.cli import main
from warpflow.grid import differentiate, sphere_grid
for M, P in ((64, 128), (256, 512)):
    u = 1.0 + 0.1 * np.random.default_rng(M).standard_normal((M, P))
    Du, Hu = differentiate(sphere_grid(M, P), u)
    print(M, P, hashlib.sha256(Du.tobytes() + Hu.tobytes()).hexdigest())
for grid in ("17x34", "32x64", "64x128"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["evolve", "--grid", grid, "--flow", "imcf", "--t-final", "0.02",
              "--surface", "bandlimited:seed=5,r0=1,amp=0.02,lmax=4"])
    print(grid, hashlib.sha256(out.getvalue().encode()).hexdigest())
g = sphere_grid(128, 256)
F = g.band_limit(np.random.default_rng(1).standard_normal(g.shape))
print("128x256", hashlib.sha256(F.tobytes()).hexdigest())
"""


def test_differentiate_bytes_independent_of_blas_threads():
    """The stencil product and the band limit's batched product run in BLAS;
    its thread count must not move a bit of a derivative, a projection or an
    evolve's output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout)
    assert len(digests[0].splitlines()) == 6
    assert digests[0] == digests[1]
    # and the projection's bytes are pinned: its table reads `legendre_rows`,
    # which the bandlimited seeds share, and no change there may move a bit
    # of the band limit (recorded with numpy 2.4 and its bundled OpenBLAS
    # 0.3.31 on x86-64; another BLAS kernel may round the products otherwise)
    assert digests[0].splitlines()[-1] == (
        "128x256 8d4a0d2183e44057d53c2eceedfac3a82a27d68258fce2d4655a978babb6dd9f")


def test_grids_are_cached_and_read_only():
    g = sphere_grid(16, 32, 2.0)
    assert sphere_grid(16, 32, 2.0) is g
    other = sphere_grid(16, 32, 3.0)
    assert other is not g and other.fiber_area != g.fiber_area
    c = circle_grid(16, 2.0)
    assert circle_grid(16, 2.0) is c and circle_grid(16, 3.0) is not c
    for arr in (g.theta, g.phi, g.weights, g._phi_stencil, c.theta, c.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_band_limit_is_the_identity_on_a_circle():
    g = circle_grid(64)
    F = np.random.default_rng(64).standard_normal(g.shape)
    assert g.band_limit(F) is F
    assert g.max_degree is None and g.stencil_constant == 16 / 3


def _real_harmonics(grid, l, m):
    """The cos and sin parts of Y_lm at the nodes, each of unit L2 norm on the unit sphere."""
    Y = sph_harm_y(l, m, *nodes(grid))
    return [np.sqrt(2) * Y.real, np.sqrt(2) * Y.imag] if m else [Y.real]


@pytest.mark.parametrize("M, P", [(16, 32), (17, 34), (64, 128)])
def test_band_limit_keeps_degrees_up_to_L_and_removes_those_up_to_M_minus_1_minus_L(M, P):
    """Every Y_lm with l <= L is kept and every one with L < l <= M - 1 - L
    removed, to 1e-14 in the quadrature's L2 norm; the first degree above
    that aliases into the band."""
    g = sphere_grid(M, P)
    L = g.max_degree
    assert L == min(M // 2 - 1, P // 2 - 1)
    assert g.stencil_constant == L * (L + 1) * g.spacing ** 2

    def norm(f):
        return np.sqrt(np.sum(g.weights * f * f))

    for l in range(M - L):
        for m in range(l + 1):
            for Y in _real_harmonics(g, l, m):
                assert norm(g.band_limit(Y) - (Y if l <= L else 0.0)) <= 1e-14, (l, m)
    # the first aliased degree: for odd M, degree M - L meets L only in odd
    # products, which the symmetric nodes integrate exactly (measured: Y_33^3
    # leaves 2.4e-4 at 64x128)
    assert norm(g.band_limit(_real_harmonics(g, M - L + M % 2, 3)[0])) > 1e-5


def test_band_limit_is_idempotent():
    for M, P in ((16, 32), (17, 34), (64, 128)):
        g = sphere_grid(M, P)
        kept = g.band_limit(np.random.default_rng(M).standard_normal(g.shape))
        assert np.max(np.abs(g.band_limit(kept) - kept)) <= 1e-14 * np.max(np.abs(kept))


@pytest.mark.parametrize("M, P", [(16, 32), (17, 34), (64, 128)])
def test_legendre_rows_are_orthonormal_under_the_colatitude_weights(M, P):
    """A_m diag(2 pi w) A_m^T = I for every m <= L: the normalization that
    the band limit's Q_m and the bandlimited seed table both rely on."""
    g = sphere_grid(M, P)
    L = g.max_degree
    w = 2.0 * np.pi * grid_module._polar_weights(M)
    orders = []
    for m, A in grid_module.legendre_rows(g.theta, L):
        assert A.shape == (L + 1 - m, M)
        assert np.abs((A * w) @ A.T - np.eye(L + 1 - m)).max() <= 1e-14, m
        orders.append(m)
    assert orders == list(range(L + 1))


def test_a_verify_builds_no_projection_table(capsys):
    """The (L + 1) M^2 table is built on a flow's first projection only."""
    grid_module._band_projectors.cache_clear()
    assert main(["verify", "--grid", "128x256", "--check", "girao"]) == 0
    assert grid_module._band_projectors.cache_info().currsize == 0
    sphere_grid(16, 32).band_limit(np.ones((16, 32)))
    assert grid_module._band_projectors.cache_info().currsize == 1


def test_shape_mismatch_rejected():
    g = sphere_grid(16, 32)
    with pytest.raises(ValueError, match="shape"):
        differentiate(g, np.zeros((16, 30)))


def _oracle_circle(u):
    """The n = 1 stencils written with np.roll: the byte-for-byte reference."""
    h = 2.0 * np.pi / u.size
    du = (np.roll(u, 2) - 8.0 * np.roll(u, 1)
          + 8.0 * np.roll(u, -1) - np.roll(u, -2)) / (12.0 * h)
    d2u = (-np.roll(u, 2) + 16.0 * np.roll(u, 1) - 30.0 * u
           + 16.0 * np.roll(u, -1) - np.roll(u, -2)) / (12.0 * h * h)
    return du, d2u


@pytest.mark.parametrize("m", [16, 18, 64, 256, 1024])
def test_circle_stencils_match_roll_oracle_bytewise(m):
    g = circle_grid(m)
    rng = np.random.default_rng(m)
    for u in (rng.standard_normal(m), 1.0 + 0.1 * np.cos(3 * g.theta) + 0.05 * np.sin(g.theta),
              np.full(m, 2.7)):
        du, d2u = differentiate(g, u)
        want_du, want_d2u = _oracle_circle(u)
        assert du.tobytes() == want_du.tobytes()
        assert d2u.tobytes() == want_d2u.tobytes()
