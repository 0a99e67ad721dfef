"""Star-shaped hypersurfaces as radial graphs and their extrinsic geometry.

A hypersurface is stored as nodal values u over a fiber grid; the graph
{(u(x), x)} sits in a warped product with metric dr^2 + lambda(r)^2 sigma.
With Du, Hu the sigma-covariant gradient and Hessian of u, the induced
metric and second fundamental form of the graph are

    g_ij = u_i u_j + lambda^2 sigma_ij,
    v^2  = 1 + |Du|^2_sigma / lambda^2,
    h_ij = ( -Hu_ij + lambda lambda' sigma_ij + 2 (lambda'/lambda) u_i u_j ) / v,

with the outward orientation, so round graphs have principal curvatures
lambda'/lambda > 0.  Principal curvatures are the eigenvalues of g^{-1} h.

For n = 2, `geometry` works in the sigma-orthonormal frame (d_theta/c,
d_phi/(c sin theta)), where the gradient is w = (u_theta/c, u_phi/(c sin theta))
and g = lambda^2 I + w w^T has a closed-form inverse and square root.  It
computes v and the mean curvatures E_1, E_2 from the trace and determinant
of the frame second fundamental form, which is all a flow stage reads; the
principal curvatures and the area weight are computed on first read (see
`GeometryFields`).  The curvature half-gap is a square root of a sum of
squares, so kappa is real by construction.  For n = 1, kappa = h/g.

The `bandlimited` seed family sums random harmonics up to degree lmax: all
coefficients come from one draw, and the sum is two small matrix products
with a cached, read-only (M, T) table of normalized associated Legendre
columns, one per harmonic (`_bandlimited_profile`), built by the standard
recurrences from sin(theta) (`_assoc_legendre_table`).  The checks that a
graph's radii and warping are valid reduce first (extrema) and scan the
nodes, to name the first faulty one, only when the reduction fails.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .ambient import WarpedSpace, parse_options
from .grid import AXIS_NAMES, SphereGrid, differentiate, parse_grid_spec

__all__ = [
    "DomainError",
    "RadialGraph",
    "GeometryFields",
    "geometry",
    "make_seed_surface",
    "parse_surface_spec",
    "parse_grid_spec",
    "dump_surface_csv",
    "load_surface_csv",
]


@dataclass(frozen=True)
class RadialGraph:
    """Nodal radii of a star-shaped graph over a fiber grid."""

    grid: SphereGrid
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != self.grid.shape:
            raise ValueError(f"u shape {u.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "u", u)


class DomainError(ValueError):
    """A graph leaves the ambient's radial domain, or the warping is not positive on it."""


def _validate_graph_range(space: WarpedSpace, grid: SphereGrid, u: np.ndarray) -> None:
    """Raise DomainError naming the first node whose radius is not finite or
    leaves (a, b).  The two extrema clear a valid graph (a NaN fails both
    comparisons); the nodes are scanned only when they do not."""
    if u.min() > space.a and u.max() < space.b:
        return
    bad = ~np.isfinite(u) | (u <= space.a) | (u >= space.b)
    if np.any(bad):
        idx = int(np.argmax(bad.ravel()))
        raise DomainError(
            f"graph radius {float(u.ravel()[idx])!r} at {grid.node_label(idx)} is outside "
            f"the ambient domain ({space.a}, {space.b})"
        )


@dataclass(frozen=True)
class GeometryFields:
    """Pointwise extrinsic geometry of one radial graph.

    E holds the normalized mean curvatures E_0..E_n (E_0 identically 1), v
    and support = lambda / v the graph's slope factor and support function;
    lam/dlam are the warping values at u, kept here because every consumer
    needs them.  These are computed by `geometry`, which checks v and E for
    finite values.  kappa (principal curvatures sorted descending along axis
    0) and area_weight (the nodal measure lambda^n v times the grid
    quadrature weight, so plain weighted sums integrate over the surface)
    are computed on first read and kept; that read raises FloatingPointError
    naming the first non-finite node.  A flow stage reads neither.
    """

    grid: SphereGrid
    u: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    v: np.ndarray
    E: np.ndarray              # (n+1,) + grid.shape
    support: np.ndarray        # lambda / v
    # n = 2: (w_1, w_2, K_11, K_12, K_22) in the sigma-orthonormal frame, for kappa
    _frame: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Unnormalized mean curvature n * E_1."""
        return self.grid.n * self.E[1]

    @functools.cached_property
    def kappa(self) -> np.ndarray:        # (n,) + grid.shape, descending
        kappa = self.E[1:] if self.n == 1 else _principal_curvatures(self)
        _require_finite(self.grid, "kappa", kappa)
        return kappa

    @functools.cached_property
    def area_weight(self) -> np.ndarray:
        weight = self.lam**self.n * self.v * self.grid.weights
        _require_finite(self.grid, "area weight", weight)
        return weight

    @property
    def area(self) -> float:
        return float(self.area_weight.sum())


def _require_finite(grid: SphereGrid, name: str, arr: np.ndarray) -> None:
    """Raise FloatingPointError naming the first node where arr, nodal values
    or a stack of them, is not finite."""
    if np.isfinite(arr).all():
        return
    bad = ~np.isfinite(arr)
    while bad.ndim > grid.weights.ndim:
        bad = bad.any(axis=0)
    idx = int(np.argmax(bad.ravel()))
    raise FloatingPointError(f"non-finite {name} at {grid.node_label(idx)}")


def geometry(space: WarpedSpace, graph: RadialGraph) -> GeometryFields:
    """Extrinsic geometry of a radial graph in the given ambient space."""
    grid = graph.grid
    u = graph.u
    _validate_graph_range(space, grid, u)
    lam, dlam, _ = space.warp(u)
    if not lam.min() > 0 and np.any(lam <= 0):
        idx = int(np.argmax((lam <= 0).ravel()))
        raise DomainError(f"warping nonpositive at {grid.node_label(idx)}")

    Du, Hu = differentiate(grid, u)
    E = np.empty((grid.n + 1,) + grid.shape)
    E[0] = 1.0
    if grid.n == 1:
        c = grid.fiber_scale
        ut = Du
        grad2 = ut * ut / c**2                      # |Du|^2_sigma
        v = np.sqrt(1.0 + grad2 / lam**2)
        h = (-Hu + lam * dlam * c**2 + 2.0 * (dlam / lam) * ut * ut) / v
        g = ut * ut + lam * lam * c**2
        np.divide(h, g, out=E[1])
        frame = None
    else:
        v, frame = _frame_curvatures(grid, lam, dlam, Du, Hu, E)
    _require_finite(grid, "v", v)
    _require_finite(grid, "E_k", E[1:])
    return GeometryFields(grid=grid, u=u, lam=lam, dlam=dlam, v=v, E=E,
                          support=lam / v, _frame=frame)


def _frame_curvatures(grid: SphereGrid, lam, dlam, Du, Hu, E) -> tuple[np.ndarray, np.ndarray]:
    """v, and E_1, E_2 written into E, of an n = 2 graph; returns (v, frame).

    In the sigma-orthonormal frame the gradient is w and g = lambda^2 I + w w^T,
    and v h = K = -Hu + lambda lambda' I + 2 (lambda'/lambda) w w^T.  With
    g^{-1} = lambda^-2 (I - lambda^-2 v^-2 w w^T) and det g = lambda^4 v^2,

        E_1 = 1/2 lambda^-2 v^-1 (tr K - lambda^-2 v^-2 w^T K w),
        E_2 = det K (lambda^-2 v^-2)^2.

    frame stacks (w_1, w_2, K_11, K_12, K_22) for `_principal_curvatures`.
    """
    grad_f, hess_f = grid._frame_factors
    frame = np.empty((5,) + grid.shape)
    w = np.multiply(Du, grad_f, out=frame[:2])
    K = np.multiply(Hu, hess_f, out=frame[2:])        # -Hu in the frame, K below
    il = 1.0 / lam
    il2 = il * il
    ww = w * w
    v = ww[0] + ww[1]
    v *= il2
    v += 1.0
    v = np.sqrt(v, out=v)
    iv = 1.0 / v
    w12 = w[0] * w[1]
    il *= 2.0 * dlam                                   # 2 lambda'/lambda
    K[1] += il * w12
    K[::2] += il * ww
    K[::2] += lam * dlam
    s = ww[0] * K[0]                                   # w^T K w
    s += ww[1] * K[2]
    w12 *= 2.0
    w12 *= K[1]
    s += w12
    a = il2 * iv                                       # lambda^-2 v^-1
    b = a * iv                                         # lambda^-2 v^-2
    s *= b
    np.subtract(K[0] + K[2], s, out=E[1])
    a *= 0.5
    E[1] *= a
    np.multiply(K[0], K[2], out=E[2])
    E[2] -= K[1] * K[1]
    E[2] *= b                                          # by b twice: b^2 underflows first
    E[2] *= b
    return v, frame


def _principal_curvatures(fields: GeometryFields) -> np.ndarray:
    """kappa_1 >= kappa_2 of an n = 2 graph from its frame quantities.

    kappa = lambda^-2 eig(S) with S = lambda^2 g^{-1/2} h g^{-1/2} symmetric,
    g^{-1/2} = (I - beta w w^T)/lambda and beta = lambda^-2 v^-1 / (1 + v).
    So S = A K A / v with A = I - beta w w^T, and A K A = K - beta (w z^T + z w^T)
    for q = K w, z = q - (beta/2)(w^T q) w.  The mean of kappa is E_1 and its
    half-gap lambda^-2 v^-1 sqrt(d^2 + (AKA)_12^2), d = ((AKA)_11 - (AKA)_22)/2:
    a sum of squares, real by construction, and exactly 0 where w = 0 and
    K_11 = K_22, K_12 = 0, as on a round sphere.
    """
    w1, w2, k11, k12, k22 = fields._frame
    a = 1.0 / (fields.lam * fields.lam * fields.v)     # lambda^-2 v^-1
    beta = a / (1.0 + fields.v)
    q1 = k11 * w1 + k12 * w2
    q2 = k12 * w1 + k22 * w2
    t = 0.5 * beta * (w1 * q1 + w2 * q2)
    z1 = q1 - t * w1
    z2 = q2 - t * w2
    r1 = beta * w1
    r2 = beta * w2
    d = 0.5 * (k11 - k22) - (r1 * z1 - r2 * z2)
    s12 = k12 - (r1 * z2 + r2 * z1)
    d *= d
    s12 *= s12
    d += s12
    half_gap = np.sqrt(d, out=d)
    half_gap *= a
    kappa = np.empty((2,) + half_gap.shape)
    np.add(fields.E[1], half_gap, out=kappa[0])
    np.subtract(fields.E[1], half_gap, out=kappa[1])
    return kappa


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_n(x) for an integer n >= 0, by the upward recurrence.

    The operations and their order are those of ``scipy.special.eval_legendre``
    for an integer degree, so the results are the same bits, except where
    |x| < 1e-5: scipy sums a power series there whose beta-function
    constants are off by an ulp, and the two differ by at most 2.1e-16 for
    n <= 8 (the nodes theta = pi/2, 3pi/2 of a circle grid).
    """
    if n == 0:
        return np.ones_like(x)
    d = x - 1
    p = x
    for kk in range(n - 1):
        k = kk + 1.0
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p = p + d
    return p


_SPHERE_LMAX = 150     # P_151^151 = -301!! sin^151(theta) exceeds 1.8e308 near the equator


@functools.lru_cache(maxsize=16)
def _assoc_legendre_table(theta: bytes, lmax: int) -> np.ndarray:
    """P_l^m(cos theta) / max(1, max |P_l^m|) as one read-only (M, T) matrix.

    Column t holds the t-th pair (l, m) in the order l = 1..lmax, m = 0..l,
    T = lmax (lmax + 3) / 2 in all.  P_l^m carries the Condon-Shortley phase
    and comes from the standard recurrences (DLMF 14.10): P_m^m =
    -(2m - 1) sin(theta) P_{m-1}^{m-1}, started from sin(theta) itself so the
    polar rings keep full relative accuracy, then up in degree by
    (l - m) P_l^m = (2l - 1) x P_{l-1}^m - (l + m - 1) P_{l-2}^m.  Keyed on
    the bytes of the colatitude nodes: every grid with the same nodes reads
    one table, whatever the seed.
    """
    theta = np.frombuffer(theta)
    x, s = np.cos(theta), np.sin(theta)
    table = np.empty((x.size, lmax * (lmax + 3) // 2))
    diag = np.ones_like(x)
    for m in range(lmax + 1):
        if m:
            diag = -(2 * m - 1) * s * diag
        p0, p1 = np.zeros_like(x), diag
        for ell in range(max(m, 1), lmax + 1):
            if ell > m:
                p0, p1 = p1, ((2 * ell - 1) * x * p1 - (ell + m - 1) * p0) / (ell - m)
            t = (ell - 1) * (ell + 2) // 2 + m      # the column of (l, m)
            # keep coefficients O(1) despite the unnormalized P_l^m
            np.divide(p1, max(1.0, np.abs(p1).max()), out=table[:, t])
    table.flags.writeable = False
    return table


def _bandlimited_profile(grid: SphereGrid, seed: int, lmax: int) -> np.ndarray:
    """Random low-order harmonic combination, normalized to unit max amplitude.

    One draw of standard normal pairs (a, b) gives every coefficient, one pair
    per harmonic: a cos(l theta) + b sin(l theta), l = 1..lmax, for n = 1, and
    P_l^m(cos theta) (a cos(m phi) + b sin(m phi)) in the column order of
    `_assoc_legendre_table` for n = 2 (b unused at m = 0).  For n = 1 the sum
    is one (m, 2 lmax) matrix-vector product.  For n = 2 it is two matrix
    products: (M, T)(T, 2 lmax + 1) collects the coefficient of each longitude
    harmonic 1, cos(m phi), sin(m phi) per ring, then (M, 2 lmax + 1) times
    those harmonics' (2 lmax + 1, P) values.
    """
    rng = np.random.default_rng(seed)
    ell = np.arange(1, lmax + 1)
    if grid.n == 1:
        t = np.multiply.outer(grid.theta, ell)
        basis = np.stack([np.cos(t), np.sin(t)], axis=-1).reshape(t.shape[0], 2 * lmax)
        pert = basis @ rng.standard_normal((lmax, 2)).ravel()
    else:
        if lmax > _SPHERE_LMAX:
            raise ValueError(f"surface option 'lmax' must be <= {_SPHERE_LMAX} on a 2-sphere, "
                             f"got {lmax}: P_l^l overflows a double beyond it")
        m = np.concatenate([np.arange(deg + 1) for deg in ell])
        coef = rng.standard_normal((m.size, 2))
        by_order = np.zeros((m.size, 2 * lmax + 1))
        by_order[np.arange(m.size), m] = coef[:, 0]
        sine = m > 0
        by_order[sine, lmax + m[sine]] = coef[sine, 1]
        mp = np.multiply.outer(ell, grid.phi)
        harmonics = np.concatenate([np.ones((1, grid.phi.size)), np.cos(mp), np.sin(mp)])
        table = _assoc_legendre_table(grid.theta.tobytes(), lmax)
        pert = (table @ by_order) @ harmonics
    return pert / np.abs(pert).max()


def make_seed_surface(space: WarpedSpace, grid: SphereGrid, family: str,
                      **params) -> RadialGraph:
    """Construct one of the seed surface families.

    round:        u = r0
    legendre:     u = r0 (1 + eps P_l(cos theta)), axisymmetric for n = 2
    bandlimited:  u = r0 (1 + amp * w), w a seeded random combination of
                  harmonics up to degree lmax with max |w| = 1
    """
    _check_seed_options(family, params)
    if family == "round":
        u = np.full(grid.shape, float(params["r0"]))
    elif family == "legendre":
        r0, eps, ell = float(params["r0"]), float(params["eps"]), int(params["l"])
        u = r0 * (1.0 + eps * grid.zonal(_legendre(ell, np.cos(grid.theta))))
    elif family == "bandlimited":
        r0 = float(params["r0"])
        amp = float(params["amp"])
        u = r0 * (1.0 + amp * _bandlimited_profile(grid, int(params["seed"]),
                                                   int(params["lmax"])))
    else:
        raise ValueError(f"unknown seed family {family!r}")
    _validate_graph_range(space, grid, u)
    return RadialGraph(grid=grid, u=u)


_SURFACE_OPTIONS = {
    "round": {"r0": float},
    "legendre": {"r0": float, "eps": float, "l": int},
    "bandlimited": {"seed": int, "r0": float, "amp": float, "lmax": int},
}
_SURFACE_MINIMA = {"legendre": {"l": 0}, "bandlimited": {"seed": 0, "lmax": 1}}


def _check_seed_options(family: str, params: dict) -> None:
    """Refuse a fraction for an integer option, or a value below its minimum.

    Each value may be a number or a list of them (a sweep range); the error
    names the key.  An unknown family passes, for the caller to refuse.
    """
    minima = _SURFACE_MINIMA.get(family, {})
    for key, kind in _SURFACE_OPTIONS.get(family, {}).items():
        for v in np.atleast_1d(params.get(key, ())).tolist():
            if kind is int and not float(v).is_integer():
                raise ValueError(f"surface option {key!r} takes integers, got {v!r}")
            if key in minima and v < minima[key]:
                raise ValueError(f"surface option {key!r} must be >= {minima[key]}, got {v!r}")


def parse_surface_spec(spec: str, value=float) -> tuple[str, dict]:
    """Parse the CLI surface grammar into (family, params); every option is required.

    Accepted: ``round:r0=<f>``, ``legendre:r0=<f>,eps=<f>,l=<int>``,
    ``bandlimited:seed=<int>,r0=<f>,amp=<f>,lmax=<int>``.  `value` reads
    each value.
    """
    family, params = parse_options(spec, _SURFACE_OPTIONS, "surface", value)
    missing = _SURFACE_OPTIONS[family].keys() - params.keys()
    if missing:
        raise ValueError(f"surface options {sorted(missing)} missing in {spec!r}")
    _check_seed_options(family, params)
    return family, params


def dump_surface_csv(graph: RadialGraph, path: str) -> None:
    """Write nodal radii as CSV, one row per node in array order: its axes, then u."""
    axes = graph.grid.axes
    columns = [*np.meshgrid(*(x for _, x in axes), indexing="ij"), graph.u]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in axes] + ["u"])
        for row in np.stack([c.ravel() for c in columns], axis=1).tolist():
            writer.writerow(map(repr, row))


def load_surface_csv(path: str, space: WarpedSpace) -> RadialGraph:
    """Rebuild a RadialGraph from a dump on the grid with, per node column, as
    many nodes as the column has distinct values.

    Rows may come in any order: each is placed at its node, and a node that
    is missing or given twice is rejected by name.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header != [*AXIS_NAMES[:len(header) - 1], "u"]:
            raise ValueError(f"{path}: unknown surface CSV header {header or '(empty file)'}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"not {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    data = np.asarray(rows).reshape(-1, len(header))
    axes = [np.unique(data[:, c], return_inverse=True) for c in range(len(header) - 1)]
    try:
        grid = parse_grid_spec("x".join(str(got.size) for got, _ in axes),
                               fiber_scale=space.fiber_scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for (name, want), (got, _) in zip(grid.axes, axes):
        if not np.allclose(want, got, rtol=0.0, atol=1e-12):
            raise ValueError(f"{path}: {name} column does not match an equiangular grid")
    flat = np.ravel_multi_index(tuple(inv for _, inv in axes), grid.shape)
    counts = np.bincount(flat, minlength=grid.node_count)
    if np.any(counts != 1):
        idx = int(np.argmax(counts != 1))
        what = "missing" if counts[idx] == 0 else f"given {counts[idx]} times"
        raise ValueError(f"{path}: {grid.node_label(idx)} is {what}")
    u = np.empty(grid.node_count)
    u[flat] = data[:, -1]
    u = u.reshape(grid.shape)
    _validate_graph_range(space, grid, u)
    return RadialGraph(grid=grid, u=u)
