"""Star-shaped hypersurfaces as radial graphs and their extrinsic geometry.

A hypersurface is stored as nodal values u over a fiber grid; the graph
{(u(x), x)} sits in a warped product with metric dr^2 + lambda(r)^2 sigma.
With Du, Hu the sigma-covariant gradient and Hessian of u, the induced
metric and second fundamental form of the graph are

    g_ij = u_i u_j + lambda^2 sigma_ij,
    v^2  = 1 + |Du|^2_sigma / lambda^2,
    h_ij = ( -Hu_ij + lambda lambda' sigma_ij + 2 (lambda'/lambda) u_i u_j ) / v,

with the outward orientation, so round graphs have principal curvatures
lambda'/lambda > 0.  Principal curvatures are the eigenvalues of g^{-1} h;
for n = 2 the pencil (h, g) is reduced with an explicit Cholesky whitening
so the eigenvalues are real by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, lpmv

from .ambient import WarpedSpace, parse_options
from .grid import SphereGrid, circle_grid, differentiate, sphere_grid

__all__ = [
    "DomainError",
    "RadialGraph",
    "GeometryFields",
    "ClassReport",
    "geometry",
    "convexity_class",
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

    def with_values(self, u: np.ndarray) -> "RadialGraph":
        return RadialGraph(grid=self.grid, u=u)


class DomainError(ValueError):
    """A graph leaves the ambient's radial domain, or the warping is not positive on it."""


def _validate_graph_range(space: WarpedSpace, grid: SphereGrid, u: np.ndarray) -> None:
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

    kappa holds principal curvatures sorted descending along axis 0 and E the
    normalized mean curvatures E_0..E_n (E_0 identically 1).  area_weight is
    the nodal measure lambda^n v times the grid quadrature weight, so plain
    weighted sums integrate over the surface.  lam/dlam are the warping
    values at u, kept here because every consumer needs them.
    """

    grid: SphereGrid
    u: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    v: np.ndarray
    kappa: np.ndarray          # (n,) + grid.shape, descending
    E: np.ndarray              # (n+1,) + grid.shape
    support: np.ndarray        # lambda / v
    area_weight: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def H(self) -> np.ndarray:
        """Unnormalized mean curvature n * E_1."""
        return self.grid.n * self.E[1]

    @property
    def area(self) -> float:
        return float(self.area_weight.sum())


def geometry(space: WarpedSpace, graph: RadialGraph) -> GeometryFields:
    """Extrinsic geometry of a radial graph in the given ambient space."""
    grid = graph.grid
    u = graph.u
    _validate_graph_range(space, grid, u)
    lam, dlam, _ = space.warp(u)
    if np.any(lam <= 0):
        idx = int(np.argmax((lam <= 0).ravel()))
        raise DomainError(f"warping nonpositive at {grid.node_label(idx)}")

    c = grid.fiber_scale
    Du, Hu = differentiate(grid, u)

    if grid.n == 1:
        ut = Du
        grad2 = ut * ut / c**2                      # |Du|^2_sigma
        v = np.sqrt(1.0 + grad2 / lam**2)
        h = (-Hu + lam * dlam * c**2 + 2.0 * (dlam / lam) * ut * ut) / v
        g = ut * ut + lam * lam * c**2
        kappa = (h / g)[None, :]
        E = np.stack([np.ones_like(u), kappa[0]])
    else:
        sin_t = np.sin(grid.theta)[:, None]
        ut, up = Du
        htt_u, htp_u, hpp_u = Hu
        sig_tt = c**2
        sig_pp = c**2 * sin_t**2
        grad2 = (ut * ut + (up / sin_t) ** 2) / c**2
        v = np.sqrt(1.0 + grad2 / lam**2)

        two_dll = 2.0 * dlam / lam
        h_tt = (-htt_u + lam * dlam * sig_tt + two_dll * ut * ut) / v
        h_tp = (-htp_u + two_dll * ut * up) / v
        h_pp = (-hpp_u + lam * dlam * sig_pp + two_dll * up * up) / v

        g_tt = ut * ut + lam * lam * sig_tt
        g_tp = ut * up
        g_pp = up * up + lam * lam * sig_pp

        # Cholesky whitening of the pencil (h, g): kappa = eig(L^-1 h L^-T)
        l11 = np.sqrt(g_tt)
        l21 = g_tp / l11
        l22 = np.sqrt(g_pp - l21 * l21)
        a11 = h_tt / l11
        a12 = h_tp / l11
        a21 = (h_tp - l21 * a11) / l22
        a22 = (h_pp - l21 * a12) / l22
        b11 = a11 / l11
        b12 = (a12 - a11 * (l21 / l11)) / l22
        b21 = a21 / l11
        b22 = (a22 - a21 * (l21 / l11)) / l22
        off = 0.5 * (b12 + b21)
        mean = 0.5 * (b11 + b22)
        half_gap = np.sqrt((0.5 * (b11 - b22)) ** 2 + off * off)
        kappa = np.stack([mean + half_gap, mean - half_gap])
        E = np.stack([np.ones_like(u),
                      0.5 * (kappa[0] + kappa[1]),
                      kappa[0] * kappa[1]])

    support = lam / v
    area_weight = lam**grid.n * v * grid.weights

    for name, arr in (("v", v), ("kappa", kappa), ("area weight", area_weight)):
        if not np.all(np.isfinite(arr)):
            flat_bad = ~np.isfinite(arr)
            while flat_bad.ndim > grid.weights.ndim:
                flat_bad = flat_bad.any(axis=0)
            idx = int(np.argmax(flat_bad.ravel()))
            raise FloatingPointError(f"non-finite {name} at {grid.node_label(idx)}")

    return GeometryFields(
        grid=grid, u=u, lam=lam, dlam=dlam, v=v,
        kappa=kappa, E=E, support=support, area_weight=area_weight,
    )


@dataclass(frozen=True)
class ClassReport:
    """Nodal convexity margins of one surface.

    static_margin is min(kappa_min - support/lambda'), the distance to the
    static-convexity cone; it is None when lambda' vanishes somewhere.
    """

    k: int
    min_H: float
    min_E: dict[int, float]
    min_kappa: float
    static_margin: float | None
    mean_convex: bool
    k_convex: bool
    convex: bool
    static_convex: bool | None

    def flags(self) -> dict[str, bool | None]:
        return {
            "mean_convex": self.mean_convex,
            f"{self.k}_convex": self.k_convex,
            "convex": self.convex,
            "static_convex": self.static_convex,
        }


def convexity_class(fields: GeometryFields, space: WarpedSpace, k: int) -> ClassReport:
    """Classify a surface by its nodal curvature minima."""
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    min_E = {j: float(fields.E[j].min()) for j in range(1, k + 1)}
    min_H = float(n * fields.E[1].min())
    min_kappa = float(fields.kappa.min())

    dlam = fields.dlam
    if np.all(dlam > 0):
        static_margin = float((fields.kappa[-1] - fields.support / dlam).min())
    else:
        if space.kind == "hyperbolic":
            idx = int(np.argmax((dlam <= 0).ravel()))
            raise ValueError(
                f"static convexity undefined: lambda' <= 0 at {fields.grid.node_label(idx)}"
            )
        static_margin = None

    return ClassReport(
        k=k,
        min_H=min_H,
        min_E=min_E,
        min_kappa=min_kappa,
        static_margin=static_margin,
        mean_convex=min_H > 0,
        k_convex=all(m > 0 for m in min_E.values()),
        convex=min_kappa > 0,
        static_convex=None if static_margin is None else static_margin > 0,
    )


def _legendre_profile(grid: SphereGrid, ell: int) -> np.ndarray:
    if grid.n == 1:
        return eval_legendre(ell, np.cos(grid.theta))
    prof = eval_legendre(ell, np.cos(grid.theta))
    return np.repeat(prof[:, None], grid.shape[1], axis=1)


def _bandlimited_profile(grid: SphereGrid, seed: int, lmax: int) -> np.ndarray:
    """Random low-order harmonic combination, normalized to unit max amplitude."""
    rng = np.random.default_rng(seed)
    if grid.n == 1:
        t = grid.theta
        pert = np.zeros_like(t)
        for ell in range(1, lmax + 1):
            a, b = rng.standard_normal(2)
            pert += a * np.cos(ell * t) + b * np.sin(ell * t)
    else:
        t = grid.theta[:, None]
        p = grid.phi[None, :]
        x = np.cos(t)
        pert = np.zeros(grid.shape)
        for ell in range(1, lmax + 1):
            for m in range(0, ell + 1):
                a, b = rng.standard_normal(2)
                assoc = lpmv(m, ell, x)
                # keep coefficients O(1) despite the lpmv normalization
                assoc = assoc / max(1.0, np.abs(assoc).max())
                if m == 0:
                    pert += a * assoc
                else:
                    pert += assoc * (a * np.cos(m * p) + b * np.sin(m * p))
    return pert / np.abs(pert).max()


def make_seed_surface(space: WarpedSpace, grid: SphereGrid, family: str,
                      **params) -> RadialGraph:
    """Construct one of the seed surface families.

    round:        u = r0
    legendre:     u = r0 (1 + eps P_l(cos theta)), axisymmetric for n = 2
    bandlimited:  u = r0 (1 + amp * w), w a seeded random combination of
                  harmonics up to degree lmax with max |w| = 1
    """
    if family == "round":
        u = np.full(grid.shape, float(params["r0"]))
    elif family == "legendre":
        r0, eps, ell = float(params["r0"]), float(params["eps"]), int(params["l"])
        u = r0 * (1.0 + eps * _legendre_profile(grid, ell))
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
    "round": {"r0"},
    "legendre": {"r0", "eps", "l"},
    "bandlimited": {"seed", "r0", "amp", "lmax"},
}


def parse_surface_spec(spec: str, value=float) -> tuple[str, dict]:
    """Parse the CLI surface grammar into (family, params); every option is required.

    Accepted: ``round:r0=<f>``, ``legendre:r0=<f>,eps=<f>,l=<int>``,
    ``bandlimited:seed=<int>,r0=<f>,amp=<f>,lmax=<int>``.  `value` reads
    each value.
    """
    family, params = parse_options(spec, _SURFACE_OPTIONS, "surface", value)
    missing = _SURFACE_OPTIONS[family] - params.keys()
    if missing:
        raise ValueError(f"surface options {sorted(missing)} missing in {spec!r}")
    return family, params


def parse_grid_spec(spec: str, n: int, fiber_scale: float = 1.0) -> SphereGrid:
    """Parse ``MxP`` (n = 2) or ``m`` (n = 1) grid strings."""
    s = spec.strip().lower()
    if n == 1:
        if "x" in s:
            raise ValueError(f"n=1 grid spec must be a single count, got {spec!r}")
        return circle_grid(int(s), fiber_scale)
    if "x" not in s:
        raise ValueError(f"n=2 grid spec must look like MxP, got {spec!r}")
    m_str, p_str = s.split("x", 1)
    return sphere_grid(int(m_str), int(p_str), fiber_scale)


def dump_surface_csv(graph: RadialGraph, path: str) -> None:
    """Write nodal radii as CSV, row-major by (i, j)."""
    grid = graph.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if grid.n == 1:
            writer.writerow(["theta", "u"])
            for t, val in zip(grid.theta, graph.u):
                writer.writerow([repr(float(t)), repr(float(val))])
        else:
            writer.writerow(["theta", "phi", "u"])
            for i, t in enumerate(grid.theta):
                for j, p in enumerate(grid.phi):
                    writer.writerow([repr(float(t)), repr(float(p)),
                                     repr(float(graph.u[i, j]))])


def load_surface_csv(path: str, space: WarpedSpace) -> RadialGraph:
    """Rebuild a RadialGraph from a dump; grid dims are inferred from the file.

    Rows may come in any order: each is placed at its node, and a node that
    is missing or given twice is rejected by name.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, row)) for row in reader]
    if header not in (["theta", "u"], ["theta", "phi", "u"]):
        raise ValueError(f"{path}: unknown surface CSV header {header}")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, not {len(header)}")
    data = np.asarray(rows).reshape(-1, len(header))
    axes = [np.unique(data[:, c], return_inverse=True) for c in range(len(header) - 1)]
    if len(axes) == 1:
        grid = circle_grid(axes[0][0].size, space.fiber_scale)
        nodes = (grid.theta,)
    else:
        grid = sphere_grid(axes[0][0].size, axes[1][0].size, space.fiber_scale)
        nodes = (grid.theta, grid.phi)
    if not all(np.allclose(want, got, atol=1e-12) for want, (got, _) in zip(nodes, axes)):
        raise ValueError(f"{path}: node columns do not match an equiangular grid")
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
