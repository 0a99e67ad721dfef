"""Discrete fiber grids and covariant derivatives on them.

The fiber is a round n-sphere with metric sigma = c^2 * (unit round metric),
n in {1, 2}.  For n = 1 we use m equally spaced angles; for n = 2 a shifted
equiangular grid theta_i = (i + 1/2) pi / M (poles excluded) crossed with
P uniform longitudes.

Differentiation:
  n = 1: periodic 4th-order centered differences.
  n = 2: exact trigonometric (spectral) differentiation in phi, applied as a
         circulant stencil accumulated in a fixed offset order, and 4th-order
         centered differences in theta with the antipodal ghost extension
         u(-theta, phi) = u(theta, phi + pi).  The fixed accumulation order
         makes every derivative field bitwise-equivariant under rotation of
         the nodal values by one longitude step.

Quadrature: longitude weights are uniform (trapezoid rule, exact for the
periodic direction); colatitude weights solve the moment conditions
sum_i w_i cos(l theta_i) = int_0^pi cos(l t) sin t dt for l < M, so smooth
integrands are integrated spectrally and the weights sum to |N| at roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SphereGrid", "circle_grid", "sphere_grid", "differentiate"]


def _polar_weights(M: int) -> np.ndarray:
    """Colatitude weights exact on cos(l*theta), l < M, against sin(theta) dtheta."""
    theta = (np.arange(M) + 0.5) * np.pi / M
    l = np.arange(M)
    moments = np.zeros(M)
    moments[0] = 2.0
    even = l[2::2]
    moments[2::2] = 2.0 / (1.0 - even.astype(float) ** 2)
    coeff = moments / M
    coeff[1:] *= 2.0
    w = np.cos(theta[:, None] * l[None, :]) @ coeff
    if np.any(w <= 0):
        raise ValueError(f"nonpositive colatitude weight at M = {M}")
    # pin the total mass of sin(theta) dtheta exactly
    w *= 2.0 / w.sum()
    return w


def _fourier_diff_coeffs(P: int) -> tuple[np.ndarray, np.ndarray]:
    """Circulant first/second spectral-derivative stencils for an even P-grid.

    deriv[j] = sum_o d[o] * u[j - o]; coefficients are the classical
    cot / 1+sin^-2 trigonometric interpolant formulas, with the symmetry
    d1[P-o] = -d1[o], d2[P-o] = d2[o] imposed exactly so constants map to
    (near) zero and parity is preserved.
    """
    if P % 2 != 0:
        raise ValueError("spectral stencil requires even P")
    h = 2.0 * np.pi / P
    d1 = np.zeros(P)
    d2 = np.zeros(P)
    o = np.arange(1, P // 2)
    vals1 = 0.5 * (-1.0) ** o / np.tan(0.5 * o * h)
    vals2 = -((-1.0) ** o) / (2.0 * np.sin(0.5 * o * h) ** 2)
    d1[1:P // 2] = vals1
    d1[P // 2 + 1:] = -vals1[::-1]
    d1[P // 2] = 0.0
    d2[1:P // 2] = vals2
    d2[P // 2 + 1:] = vals2[::-1]
    d2[P // 2] = -((-1.0) ** (P // 2)) / (2.0 * np.sin(0.25 * P * h) ** 2)
    d2[0] = -np.pi**2 / (3.0 * h * h) - 1.0 / 6.0
    return d1, d2


def _longitude_major(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u with the periodic (last) axis moved first, and two periods of it.

    A shift by o longitudes is then a slice of whole leading rows, one
    contiguous block, so each ufunc call of the stencils below runs one
    inner loop over every node instead of one per colatitude row.  Every
    node sees the same operations in the same order as in the natural
    layout, so the results are the same bits.
    """
    ut = np.ascontiguousarray(np.moveaxis(u, -1, 0))
    return ut, np.concatenate([ut, ut], axis=0)


def _circulant_apply_antisym(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Antisymmetric circulant stencil, offsets paired into exact differences.

    Computes sum_o d[o] u[j - o] for coefficients with d[P - o] = -d[o] as
    sum_{o=1}^{P/2-1} d[o] (u[j - o] - u[j + o]).  Constants are annihilated
    term by term, which matters at the pole rings where cot(theta) and
    1/sin^2(theta) metric factors would amplify stencil roundoff.  The offset
    loop runs in a fixed order with identical per-node operand sequences, so
    rolling the input along the axis rolls the output bitwise.
    """
    P = u.shape[-1]
    ut, doubled = _longitude_major(u)
    acc = np.zeros_like(ut)
    tmp = np.empty_like(ut)
    for o in range(1, P // 2):
        np.subtract(doubled[P - o:2 * P - o],      # u[j - o]
                    doubled[o:o + P], out=tmp)     # u[j + o]
        np.multiply(tmp, d[o], out=tmp)
        np.add(acc, tmp, out=acc)
    return np.ascontiguousarray(np.moveaxis(acc, 0, -1))


def _circulant_apply_sym_diff(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Symmetric circulant stencil in the center-difference form.

    Computes sum_{o != 0} d[o] (u[j - o] - u[j]) for coefficients with
    d[P - o] = d[o] and sum_o d[o] = 0 analytically, pairing o with P - o.
    Same exact-on-constants and bitwise-equivariance properties as the
    antisymmetric variant.
    """
    P = u.shape[-1]
    ut, doubled = _longitude_major(u)
    acc = np.zeros_like(ut)
    tmp = np.empty_like(ut)
    tmp2 = np.empty_like(ut)
    for o in range(1, P // 2):
        np.subtract(doubled[P - o:2 * P - o], ut, out=tmp)   # u[j-o] - u[j]
        np.subtract(doubled[o:o + P], ut, out=tmp2)          # u[j+o] - u[j]
        np.add(tmp, tmp2, out=tmp)
        np.multiply(tmp, d[o], out=tmp)
        np.add(acc, tmp, out=acc)
    np.subtract(doubled[P // 2:P // 2 + P], ut, out=tmp)
    np.multiply(tmp, d[P // 2], out=tmp)
    np.add(acc, tmp, out=acc)
    return np.ascontiguousarray(np.moveaxis(acc, 0, -1))


@dataclass(frozen=True)
class SphereGrid:
    """Nodal grid on the scaled round fiber, with quadrature weights.

    For n = 1 arrays are indexed by the angle j; for n = 2 by (i, j) with
    i over colatitudes and j over longitudes, row-major.
    """

    n: int
    fiber_scale: float
    theta: np.ndarray                    # (m,) or (M,)
    phi: np.ndarray | None               # None for n = 1, (P,) for n = 2
    weights: np.ndarray                  # per-node, sums to |N|
    _d1phi: np.ndarray | None = field(default=None, repr=False)
    _d2phi: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    @property
    def node_count(self) -> int:
        return self.weights.size

    @property
    def fiber_area(self) -> float:
        return float(self.weights.sum())

    def node_label(self, flat_index: int) -> str:
        if self.n == 1:
            return f"node j={flat_index} (theta={self.theta[flat_index]:.6g})"
        i, j = np.unravel_index(flat_index, self.shape)
        return f"node (i={i}, j={j}) (theta={self.theta[i]:.6g}, phi={self.phi[j]:.6g})"


def circle_grid(m: int, fiber_scale: float = 1.0) -> SphereGrid:
    """Uniform periodic grid on the scaled circle (n = 1)."""
    if m < 16 or m % 2 != 0:
        raise ValueError(f"n=1 grid needs even m >= 16, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    weights = np.full(m, fiber_scale * 2.0 * np.pi / m)
    return SphereGrid(n=1, fiber_scale=float(fiber_scale), theta=theta,
                      phi=None, weights=weights)


def sphere_grid(M: int, P: int, fiber_scale: float = 1.0) -> SphereGrid:
    """Shifted equiangular grid on the scaled 2-sphere, poles excluded."""
    if M < 16:
        raise ValueError(f"n=2 grid needs M >= 16, got {M}")
    if P < 32 or P % 2 != 0:
        raise ValueError(f"n=2 grid needs even P >= 32, got {P}")
    theta = (np.arange(M) + 0.5) * np.pi / M
    phi = 2.0 * np.pi * np.arange(P) / P
    w_theta = _polar_weights(M)
    weights = fiber_scale**2 * (2.0 * np.pi / P) * np.repeat(w_theta[:, None], P, axis=1)
    d1, d2 = _fourier_diff_coeffs(P)
    return SphereGrid(n=2, fiber_scale=float(fiber_scale), theta=theta,
                      phi=phi, weights=weights, _d1phi=d1, _d2phi=d2)


def _theta_extend(u: np.ndarray) -> np.ndarray:
    """Two antipodal ghost rows on each side: u(-t, p) = u(t, p + pi)."""
    P = u.shape[1]
    half = P // 2
    top = np.roll(u[1::-1], half, axis=1)        # rows theta_1, theta_0 -> ghosts -2, -1
    bot = np.roll(u[:-3:-1], half, axis=1)       # rows theta_{M-1}, theta_{M-2} -> ghosts M, M+1
    return np.concatenate([top, u, bot], axis=0)


def _dtheta(u: np.ndarray, h: float) -> np.ndarray:
    x = _theta_extend(u)
    M = u.shape[0]
    return (x[0:M] - 8.0 * x[1:M + 1] + 8.0 * x[3:M + 3] - x[4:M + 4]) / (12.0 * h)


def _d2theta(u: np.ndarray, h: float) -> np.ndarray:
    x = _theta_extend(u)
    M = u.shape[0]
    return (-x[0:M] + 16.0 * x[1:M + 1] - 30.0 * x[2:M + 2]
            + 16.0 * x[3:M + 3] - x[4:M + 4]) / (12.0 * h * h)


def differentiate(grid: SphereGrid, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariant gradient and Hessian of nodal values w.r.t. the fiber metric.

    Components are coordinate (lower-index) components; the constant fiber
    scale c does not change the Christoffel symbols, so it only enters when
    indices are raised.

    n = 1: returns (du/dtheta, d2u/dtheta2), each shaped (m,).
    n = 2: returns (Du, Hu) with Du = [u_theta, u_phi] shaped (2, M, P) and
           Hu = [H_tt, H_tp, H_pp] shaped (3, M, P), where
           H_tp = u_thetaphi - cot(theta) u_phi and
           H_pp = u_phiphi + sin(theta) cos(theta) u_theta.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"nodal array shape {u.shape} does not match grid {grid.shape}")
    if grid.n == 1:
        m = grid.theta.size
        h = 2.0 * np.pi / m
        du = (np.roll(u, 2) - 8.0 * np.roll(u, 1)
              + 8.0 * np.roll(u, -1) - np.roll(u, -2)) / (12.0 * h)
        d2u = (-np.roll(u, 2) + 16.0 * np.roll(u, 1) - 30.0 * u
               + 16.0 * np.roll(u, -1) - np.roll(u, -2)) / (12.0 * h * h)
        return du, d2u

    M, P = grid.shape
    h_t = np.pi / M
    sin_t = np.sin(grid.theta)[:, None]
    cos_t = np.cos(grid.theta)[:, None]

    ut = _dtheta(u, h_t)
    up = _circulant_apply_antisym(u, grid._d1phi)
    upp = _circulant_apply_sym_diff(u, grid._d2phi)
    utp = _dtheta(up, h_t)

    htt = _d2theta(u, h_t)
    htp = utp - (cos_t / sin_t) * up
    hpp = upp + sin_t * cos_t * ut

    return np.stack([ut, up]), np.stack([htt, htp, hpp])
