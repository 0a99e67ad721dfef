"""Discrete fiber grids and covariant derivatives on them.

The one module that knows the grid layouts: elsewhere n is the fiber
dimension only.  The fiber is a round n-sphere with metric
sigma = c^2 * (unit round metric), n in {1, 2}.  For n = 1 we use m equally
spaced angles (spec "m"); for n = 2 a shifted equiangular grid
theta_i = (i + 1/2) pi / M (poles excluded) crossed with P uniform
longitudes (spec "MxP").

Differentiation:
  n = 1: periodic 4th-order centered differences, the colatitude stencils
         below applied to the circle with two periodic ghost nodes per side.
  n = 2: exact trigonometric (spectral) differentiation in phi, one (2 x P)
         stencil matrix per grid applied to each longitude's window of P
         neighbours as one matrix product, after each ring's maximum is
         subtracted; and 4th-order centered differences in theta with the
         antipodal ghost extension u(-theta, phi) = u(theta, phi + pi), built
         once per field.  Every window starts at its own longitude, so each
         longitude sums the same numbers in the same order wherever it sits,
         and every derivative field is bitwise-equivariant under rotation of
         the nodal values by any number of longitude steps.  The ring
         maximum is exact and the same under rotation, and it maps a field
         constant along a ring to exact zeros.

Band limit: on the lat-lon grid the phi modes near the poles carry metric
frequencies of order (P/2)/sin(theta), far above the colatitude resolution,
and an explicit flow's stable step would shrink with them.  The standard
spectral-transform fix (Orszag, J. Atmos. Sci. 27 (1970) 890-895; Boyd,
Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 18) projects a flow's
tendency onto the spherical harmonics Y_lm of degree l <= L, with
L = min(M//2 - 1, P//2 - 1) (`SphereGrid.max_degree`).  `SphereGrid.band_limit`
takes an rfft along phi; applies to each column m <= L the real (M x M)
matrix Q_m = A_m A_m^T diag(2 pi w), where A_m holds the fully normalized
Pbar_l^m(cos theta_i), l = m..L, and w the colatitude weights below; zeroes
the columns above L; and takes the irfft.  The weights are exact on
polynomials in cos(theta) of degree < M, so on the products of two kept
harmonics exactly when 2L < M: Q_m keeps every Y_lm with l <= L and removes
every one with L < l <= M - 1 - L, both to rounding.  Above M - 1 - L the
quadrature aliases: Y_33^3 leaves 2.4e-4 of its unit L2 norm at 64x128.
Hence L < M/2: at L = M - 1 the kept products are no longer integrated
exactly, and Y_4^3 is kept only to 1e-4 (64x128) or 4e-4 (32x64).  The
table of every Q_m, (L + 1) M^2 doubles (1 MB at 64x128), is built on the
first projection and cached per (M, L), so only a flow ever builds it.  On
a circle band_limit is the identity.  The stencil constant C_grid is
dtheta^2 times a bound on the largest Laplacian eigenvalue that the
projection keeps: L(L+1) dtheta^2 on the 2-sphere, with no pole term, and
16/3 on a circle (the 4th-order second difference).

Grids are cached per size and fiber scale, whether the scale is passed or
not, and their arrays are read-only.

Quadrature: longitude weights are uniform (trapezoid rule, exact for the
periodic direction); colatitude weights solve the moment conditions
sum_i w_i cos(l theta_i) = int_0^pi cos(l t) sin t dt for l < M, so smooth
integrands are integrated spectrally and the weights sum to |N| at roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SphereGrid", "circle_grid", "sphere_grid", "AXIS_NAMES", "DEFAULT_GRID_SPECS",
           "parse_grid_spec", "differentiate"]

AXIS_NAMES = ("theta", "phi")      # a grid's array axes are the first len(shape) of these

_D2_STENCIL_MAX = 16.0 / 3.0       # dtheta^2 max |eigenvalue| of `_d2theta`


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


def _phi_stencil_matrix(P: int) -> np.ndarray:
    """The (2, P) matrix of first- and second-derivative taps in offset order.

    Tap k sits at offset k - P/2, so row r applied to u[j - P/2 : j + P/2]
    gives the r-th spectral derivative at longitude j of an even P-grid with
    spacing h.  The taps are the classical trigonometric-interpolant ones:
    row 0 holds (-1)^o cot(o h/2) / 2 at P/2 - o and its negative at P/2 + o;
    row 1 holds -(-1)^o / (2 sin^2(o h/2)) at P/2 +- o, -pi^2/(3 h^2) - 1/6
    at P/2 and the Nyquist tap -(-1)^(P/2) / 2 at 0.  Writing each tap and
    its mirror from one value keeps the antisymmetry of row 0 and the
    symmetry of row 1 exact.
    """
    half = P // 2
    h = 2.0 * np.pi / P
    o = np.arange(1, half)
    C = np.zeros((2, P))
    C[0, half - o] = 0.5 * (-1.0) ** o / np.tan(0.5 * o * h)
    C[0, half + o] = -C[0, half - o]
    C[1, half - o] = C[1, half + o] = -((-1.0) ** o) / (2.0 * np.sin(0.5 * o * h) ** 2)
    C[1, 0] = -0.5 * (-1.0) ** half
    C[1, half] = -np.pi**2 / (3.0 * h * h) - 1.0 / 6.0
    return C


def _phi_derivatives(ut: np.ndarray, C: np.ndarray) -> np.ndarray:
    """First and second circulant phi-derivatives of longitude-major values.

    ut holds the nodal values with the periodic axis first, shape (P, M), and
    may be the transposed view of (M, P) values; the result has shape
    (P, 2, M), u_phi in [:, 0] and u_phiphi in [:, 1].  Each ring's maximum
    is subtracted first: a maximum selects a value, so the shift is exact and
    the same under any longitude roll, and a field constant along a ring
    becomes exactly 0, so its phi-derivatives are exactly 0 (the pole rings'
    cot(theta) and 1/sin^2(theta) factors would amplify any residue).  The
    differences v are written straight into the periodic extension
    ext[i] = v[i - P/2], 2P rows, and longitude j reads its window
    ext[j : j + P], an ordinary row-major P x M matrix viewed in place, and
    gets both derivatives from one (2 x P)(P x M) product with the stencil
    matrix C of `_phi_stencil_matrix`.  Every window starts at its own
    longitude, so rolling the input hands each longitude the same numbers in
    the same order and rolls the outputs bitwise.
    """
    P, M = ut.shape
    half = P // 2
    ext = np.empty((2 * P, M))
    np.subtract(ut, ut.max(axis=0), out=ext[half:P + half])
    ext[:half] = ext[P:P + half]
    ext[P + half:] = ext[half:P]
    s0, s1 = ext.strides
    windows = np.lib.stride_tricks.as_strided(ext, (P, P, M), (s0, s0, s1), writeable=False)
    return np.matmul(C, windows)


@functools.lru_cache(maxsize=4)
def _band_projectors(M: int, L: int) -> np.ndarray:
    """The read-only (L + 1, M, M) stack of Q_m = A_m A_m^T diag(2 pi w), m = 0..L.

    A_m holds Pbar_l^m(cos theta_i), l = m..L, normalized so that
    Pbar_l^m(cos theta) e^{i m phi} has unit L2 norm on the unit sphere, from
    the standard recurrences: Pbar_m^m = sqrt((2m + 1)/(2m)) sin(theta)
    Pbar_{m-1}^{m-1} from Pbar_0^0 = 1/sqrt(4 pi), then up in degree by
    Pbar_l^m = a_lm (cos(theta) Pbar_{l-1}^m - b_lm Pbar_{l-2}^m), with
    a_lm = sqrt((4l^2 - 1)/(l^2 - m^2)) and b_lm = 1/a_{l-1,m}, each taken
    as one square root.  Each A_m is built and multiplied in turn, so the
    build holds one A_m beside the table.
    """
    theta = (np.arange(M) + 0.5) * np.pi / M
    x, s = np.cos(theta), np.sin(theta)
    w = 2.0 * np.pi * _polar_weights(M)
    Q = np.empty((L + 1, M, M))
    diag = np.full(M, 1.0 / np.sqrt(4.0 * np.pi))      # Pbar_m^m
    for m in range(L + 1):
        if m:
            diag = np.sqrt((2 * m + 1) / (2 * m)) * s * diag
        A = np.empty((L + 1 - m, M))                    # row l - m holds Pbar_l^m
        A[0] = diag
        for l in range(m + 1, L + 1):
            row = np.multiply(x, A[l - m - 1], out=A[l - m])
            if l > m + 1:
                row -= np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1)) * A[l - m - 2]
            row *= np.sqrt((4 * l * l - 1) / (l * l - m * m))
        np.matmul(A.T, A * w, out=Q[m])
    Q.flags.writeable = False
    return Q


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
    spacing: float                       # node spacing dtheta in the unit fiber
    stencil_constant: float              # C_grid, see the module docstring
    max_degree: int | None = None        # L of `band_limit`; None for n = 1
    _phi_stencil: np.ndarray | None = field(default=None, repr=False)   # (2, P)
    _frame_factors: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    @property
    def node_count(self) -> int:
        return self.weights.size

    @property
    def fiber_area(self) -> float:
        return float(self.weights.sum())

    @property
    def axes(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, node coordinates) of each array axis, in array order."""
        return tuple(zip(AXIS_NAMES, (self.theta, self.phi)))[:len(self.shape)]

    @property
    def spec(self) -> str:
        """The grid spec that names this grid, "512" or "64x128"."""
        return "x".join(map(str, self.shape))

    def zonal(self, profile: np.ndarray) -> np.ndarray:
        """Nodal values, a new array, of a function of theta alone given at self.theta."""
        return np.repeat(profile, self.node_count // profile.size).reshape(self.shape)

    def band_limit(self, F: np.ndarray) -> np.ndarray:
        """F projected onto the spherical harmonics of degree <= max_degree; F on a circle.

        F's midrange (max + min)/2 is subtracted first and added back last.
        The projection keeps constants, so the shift changes nothing but
        rounding, which it scales by F's range instead of its size; and a
        constant F comes back as itself to the bit, so a round sphere stays a
        fixed point of a renormalized flow.  The rfft columns m <= L go
        through Q_m as one batched product on their float view, written back
        in place; see the module docstring."""
        if self.max_degree is None:
            return F
        L = self.max_degree
        M, P = self.shape
        mid = 0.5 * (F.max() + F.min())
        X = np.fft.rfft(F - mid, axis=1)
        kept = X.view(float)[:, :2 * L + 2].reshape(M, L + 1, 2).transpose(1, 0, 2)
        kept[...] = np.matmul(_band_projectors(M, L), kept)
        X[:, L + 1:] = 0.0
        out = np.fft.irfft(X, n=P, axis=1)
        out += mid
        return out

    def node_label(self, flat_index: int) -> str:
        if self.n == 1:
            return f"node j={flat_index} (theta={self.theta[flat_index]:.6g})"
        i, j = np.unravel_index(flat_index, self.shape)
        return f"node (i={i}, j={j}) (theta={self.theta[i]:.6g}, phi={self.phi[j]:.6g})"


def _read_only(grid: SphereGrid) -> SphereGrid:
    for arr in (grid.theta, grid.phi, grid.weights, grid._phi_stencil,
                *(grid._frame_factors or ())):
        if arr is not None:
            arr.flags.writeable = False
    return grid


def circle_grid(m: int, fiber_scale: float = 1.0) -> SphereGrid:
    """Uniform periodic grid on the scaled circle (n = 1), one per (m, fiber_scale)."""
    return _circle_grid(m, float(fiber_scale))


@functools.lru_cache(maxsize=16)
def _circle_grid(m: int, fiber_scale: float) -> SphereGrid:
    if m < 16 or m % 2 != 0:
        raise ValueError(f"n=1 grid needs even m >= 16, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    weights = np.full(m, fiber_scale * 2.0 * np.pi / m)
    return _read_only(SphereGrid(n=1, fiber_scale=fiber_scale, theta=theta, phi=None,
                                 weights=weights, spacing=2.0 * np.pi / m,
                                 stencil_constant=_D2_STENCIL_MAX))


def sphere_grid(M: int, P: int, fiber_scale: float = 1.0) -> SphereGrid:
    """Shifted equiangular grid on the scaled 2-sphere, poles excluded, one
    per (M, P, fiber_scale): the colatitude weights take an M x M cosine matrix."""
    return _sphere_grid(M, P, float(fiber_scale))


@functools.lru_cache(maxsize=16)
def _sphere_grid(M: int, P: int, fiber_scale: float) -> SphereGrid:
    if M < 16:
        raise ValueError(f"n=2 grid needs M >= 16, got {M}")
    if P < 32 or P % 2 != 0:
        raise ValueError(f"n=2 grid needs even P >= 32, got {P}")
    theta = (np.arange(M) + 0.5) * np.pi / M
    phi = 2.0 * np.pi * np.arange(P) / P
    w_theta = _polar_weights(M)
    weights = fiber_scale**2 * (2.0 * np.pi / P) * np.repeat(w_theta[:, None], P, axis=1)
    h = np.pi / M
    L = min(M // 2 - 1, P // 2 - 1)
    return _read_only(SphereGrid(
        n=2, fiber_scale=fiber_scale, theta=theta, phi=phi, weights=weights, spacing=h,
        stencil_constant=L * (L + 1) * h**2, max_degree=L,
        _phi_stencil=_phi_stencil_matrix(P),
        _frame_factors=_orthonormal_frame_factors(theta, fiber_scale)))


# per n, the constructor of its layout and the spec of its default grid; a
# spec holds one count per array axis, so its count of numbers is its n
_CONSTRUCTORS = {1: circle_grid, 2: sphere_grid}
DEFAULT_GRID_SPECS = {1: "512", 2: "64x128"}


def parse_grid_spec(spec: str, n: int | None = None, fiber_scale: float = 1.0) -> SphereGrid:
    """The grid a spec names, ``m`` (a circle) or ``MxP`` (a 2-sphere): the
    count of numbers picks the constructor, and a given n must be its n."""
    try:
        counts = [int(part) for part in spec.strip().lower().split("x")]
    except ValueError:
        raise ValueError(f"grid spec {spec!r} holds a count that is not an integer") from None
    if len(counts) not in _CONSTRUCTORS or n not in (None, len(counts)):
        raise ValueError(f"grid spec {spec!r} must look like m for n=1 or MxP for n=2")
    return _CONSTRUCTORS[len(counts)](*counts, fiber_scale)


def _orthonormal_frame_factors(theta: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-ring factors that take coordinate components to the sigma-orthonormal
    frame (d_theta/c, d_phi/(c sin theta)): (1/c, 1/(c sin theta)) for a gradient,
    shape (2, M, 1), and minus (1/c^2, 1/(c^2 sin theta), 1/(c^2 sin^2 theta))
    for a Hessian, shape (3, M, 1)."""
    r = 1.0 / (c * np.sin(theta))[:, None]
    ic = np.full_like(r, 1.0 / c)
    return np.stack([ic, r]), -np.stack([ic * ic, ic * r, r * r])


def _theta_extend(u: np.ndarray) -> np.ndarray:
    """Two antipodal ghost rows on each side: u(-t, p) = u(t, p + pi)."""
    M, P = u.shape
    half = P // 2
    x = np.empty((M + 4, P))
    x[2:M + 2] = u
    # ghosts -2, -1 are rows theta_1, theta_0 and ghosts M, M+1 are rows
    # theta_{M-1}, theta_{M-2}, each turned by half a period
    for ghosts, rows in ((x[:2], u[1::-1]), (x[M + 2:], u[:-3:-1])):
        ghosts[:, :half] = rows[:, half:]
        ghosts[:, half:] = rows[:, :half]
    return x


def _dtheta(x: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order first difference along axis 0 of values with two ghost rows per side."""
    M = x.shape[0] - 4
    return np.divide(x[0:M] - 8.0 * x[1:M + 1] + 8.0 * x[3:M + 3] - x[4:M + 4],
                     12.0 * h, out=out)


def _d2theta(x: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order second difference along axis 0 of values with two ghost rows per side."""
    M = x.shape[0] - 4
    return np.divide(-x[0:M] + 16.0 * x[1:M + 1] - 30.0 * x[2:M + 2]
                     + 16.0 * x[3:M + 3] - x[4:M + 4], 12.0 * h * h, out=out)


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
    h = grid.spacing
    if grid.n == 1:
        x = np.concatenate([u[-2:], u, u[:2]])
        return _dtheta(x, h), _d2theta(x, h)

    M, P = grid.shape
    sin_t = np.sin(grid.theta)[:, None]
    cos_t = np.cos(grid.theta)[:, None]
    Du = np.empty((2, M, P))
    Hu = np.empty((3, M, P))
    ut, up = Du
    htt, htp, hpp = Hu

    x = _theta_extend(u)
    _dtheta(x, h, out=ut)
    _d2theta(x, h, out=htt)
    phi_t = _phi_derivatives(u.T, grid._phi_stencil)
    up[...] = phi_t[:, 0].T
    _dtheta(_theta_extend(up), h, out=htp)                 # u_theta phi
    np.subtract(htp, (cos_t / sin_t) * up, out=htp)
    np.add(phi_t[:, 1].T, sin_t * cos_t * ut, out=hpp)
    return Du, Hu
