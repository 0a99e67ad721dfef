"""Scalar integrals of one surface: areas, momenta, volumes, quermassintegrals.

Surface integrals are weighted nodal sums with the area weights from
`GeometryFields`; numpy's pairwise summation keeps the reduction
deterministic for a fixed grid shape.  Enclosed-volume integrals split into
an exact fiber quadrature and a radial integral int_a^u lambda^n ds.  In
space forms the radial integral is F(u) - F(a) with F an exact
antiderivative of lambda^n (`_space_form_antiderivative`); for custom
warpings it is evaluated by Gauss-Legendre panels whose order doubles until
the total stops moving (the warpings in the menu are analytic, so this
converges fast).  Weighted volumes use the radial antiderivative of
lambda^{n+k-1} lambda', which is exact in every ambient.

Quermassintegrals in space forms follow the curvature-integral recursion
    int E_k dmu = (n - k) W_{k+1} - k K W_{k-1},    k = 1..n-1,
with W_0 = |Omega|, W_1 = |Sigma|/n, W_{n+1} = omega_n/(n+1), and the k = n
relation int E_n dmu = omega_n - n K W_{n-1} kept aside as a Gauss-Bonnet
style residual check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambient import WarpedSpace, sphere_area
from .surface import GeometryFields, RadialGraph, geometry

__all__ = [
    "QuantityReport",
    "UnsupportedAmbientError",
    "surface_integral",
    "weighted_volume",
    "volume",
    "quermassintegrals",
    "full_report",
]


class UnsupportedAmbientError(ValueError):
    """Raised when a quantity is undefined outside space forms."""


def surface_integral(fields: GeometryFields, integrand) -> float:
    """Integrate nodal values over the surface measure."""
    integrand = np.asarray(integrand, dtype=float)
    if not np.all(np.isfinite(integrand)):
        idx = int(np.argmax(~np.isfinite(integrand).ravel()))
        raise ValueError(f"non-finite integrand at {fields.grid.node_label(idx)}")
    return float(np.sum(integrand * fields.area_weight))


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    # map to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def _radial_integral(space: WarpedSpace, power: int, a: float, upper: np.ndarray,
                     rel_tol: float = 1e-12) -> np.ndarray:
    """int_a^{upper} lambda(s)^power ds per node, Gauss order doubling."""
    upper = np.asarray(upper, dtype=float)
    span = upper - a
    prev = None
    for order in (16, 32, 64, 128, 256):
        x, w = _gauss_nodes(order)
        s = a + span[..., None] * x
        lam = space.lam(s)
        vals = span * np.sum(w * lam**power, axis=-1)
        if prev is not None:
            total, total_prev = float(np.sum(vals)), float(np.sum(prev))
            if abs(total - total_prev) <= rel_tol * max(abs(total), 1e-300):
                return vals
        prev = vals
    return vals


# 1/((2j+2)(2j+3)), j = 1..8: ratios of consecutive terms of the odd Taylor
# series sinh x - x = sum_{j >= 1} x^{2j+1}/(2j+1)!, kept through x^19
_ODD_SERIES_RATIOS = tuple(1.0 / ((2 * j + 2) * (2 * j + 3)) for j in range(1, 9))


def _space_form_antiderivative(K: int, power: int, u) -> np.ndarray:
    """F(u) = int_0^u lambda(s)^power ds for the space-form warping of curvature K.

    K = 0: u^{p+1}/(p+1).  K = -1, 1 with p = 1: 2 sinh^2(u/2), 2 sin^2(u/2);
    with p = 2: (sinh 2u - 2u)/4, (2u - sin 2u)/4.  Below |2u| = 1 the p = 2
    forms are summed as their odd Taylor series in x = 2u (truncation error
    below 1e-17 relative), because there the direct difference loses a factor
    6/x^2 to cancellation; a switch at x = 0.5 would leave 2.4e-15 relative.
    """
    u = np.asarray(u, dtype=float)
    if K == 0:
        return u ** (power + 1) / (power + 1)
    if power == 1:
        half = np.sinh(0.5 * u) if K == -1 else np.sin(0.5 * u)
        return 2.0 * half * half
    if power != 2:
        raise ValueError(f"no closed-form antiderivative of lambda^{power}")
    x = 2.0 * u
    x2 = -K * x * x
    acc = np.ones_like(x)
    for ratio in reversed(_ODD_SERIES_RATIOS):
        acc = 1.0 + x2 * ratio * acc
    direct = np.sinh(x) - x if K == -1 else x - np.sin(x)
    return 0.25 * np.where(np.abs(x) < 1.0, x * x * x / 6.0 * acc, direct)


def radial_integral(space: WarpedSpace, power: int, upper) -> np.ndarray:
    """int_a^{upper} lambda(s)^power ds per node: exact in space forms,
    Gauss-Legendre quadrature for custom warpings."""
    if space.is_space_form:
        return (_space_form_antiderivative(space.K, power, upper)
                - _space_form_antiderivative(space.K, power, space.a))
    return _radial_integral(space, power, space.a, upper)


def volume(space: WarpedSpace, graph: RadialGraph) -> float:
    """Volume enclosed between the inner boundary and the graph."""
    inner = radial_integral(space, graph.grid.n, graph.u)
    return float(np.sum(inner * graph.grid.weights))


def weighted_volume(space: WarpedSpace, graph: RadialGraph, k: float) -> float:
    """int_Omega lambda^{k-1} lambda' dv via the exact radial antiderivative.

    d/ds lambda^{n+k} = (n+k) lambda^{n+k-1} lambda' turns the radial
    integral into boundary terms, leaving one fiber quadrature.
    """
    if k < 1:
        raise ValueError(f"weighted volume needs k >= 1, got {k}")
    n = graph.grid.n
    lam_u = space.lam(graph.u)
    lam_a = float(space.lam(space.a))
    vals = (lam_u ** (n + k) - lam_a ** (n + k)) / (n + k)
    return float(np.sum(vals * graph.grid.weights))


def _gamma_term(space: WarpedSpace, n: int, k: float) -> float:
    """lambda(a)^k |Gamma| with |Gamma| = lambda(a)^n |N|; zero without an inner boundary."""
    if not space.has_inner_boundary:
        return 0.0
    lam_a = float(space.lam(space.a))
    return lam_a**k * (lam_a**n * space.fiber_area(n))


def quermassintegrals(space: WarpedSpace, graph: RadialGraph,
                      fields: GeometryFields | None = None) -> tuple[np.ndarray, float]:
    """W_0..W_{n+1} and the top curvature-integral residual (space forms only)."""
    if not space.is_space_form:
        raise UnsupportedAmbientError(
            "quermassintegrals beyond W_1 are only defined in space forms"
        )
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    K = space.K
    W = np.zeros(n + 2)
    W[0] = volume(space, graph)
    W[1] = fields.area / n
    for k in range(1, n):
        curv = surface_integral(fields, fields.E[k])
        W[k + 1] = (curv + k * K * W[k - 1]) / (n - k)
    W[n + 1] = sphere_area(n) / (n + 1)
    top = surface_integral(fields, fields.E[n])
    residual = top - (sphere_area(n) - n * K * W[n - 1])
    return W, float(residual)


@dataclass(frozen=True)
class QuantityReport:
    """Every scalar integral of one surface that the inequalities consume."""

    n: int
    area: float
    volume: float
    momenta: dict[float, float]              # k -> int lambda^k dmu
    weighted_volumes: dict[float, float]     # k -> int lambda^{k-1} lambda' dv
    gamma_area: float                        # |Gamma| = lambda(a)^n |N|
    gamma_terms: dict[float, float]          # k -> lambda(a)^k |Gamma|
    curvature_integrals: np.ndarray          # int E_k dmu, k = 0..n
    phi_curvature_integrals: np.ndarray      # int Phi E_k dmu, k = 1..n
    quermass: np.ndarray | None              # W_0..W_{n+1}, space forms only
    gauss_bonnet_residual: float | None

    def momentum(self, k: float) -> float:
        return self.momenta[float(k)]

    def weighted_vol(self, k: float) -> float:
        return self.weighted_volumes[float(k)]

    def gamma_term(self, k: float) -> float:
        return self.gamma_terms[float(k)]

    def W(self, k: int) -> float:
        if self.quermass is None:
            raise UnsupportedAmbientError("no quermassintegrals for this ambient")
        return float(self.quermass[k])

    def phi_curvature(self, k: int) -> float:
        return float(self.phi_curvature_integrals[k - 1])

    def to_dict(self) -> dict:
        def keymap(d):
            return {format(k, "g"): val for k, val in sorted(d.items())}
        return {
            "n": self.n,
            "area": self.area,
            "volume": self.volume,
            "momenta": keymap(self.momenta),
            "weighted_volumes": keymap(self.weighted_volumes),
            "gamma_area": self.gamma_area,
            "gamma_terms": keymap(self.gamma_terms),
            "curvature_integrals": list(map(float, self.curvature_integrals)),
            "phi_curvature_integrals": list(map(float, self.phi_curvature_integrals)),
            "W": None if self.quermass is None else list(map(float, self.quermass)),
            "gauss_bonnet_residual": self.gauss_bonnet_residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def full_report(space: WarpedSpace, graph: RadialGraph,
                ks=(1.0,), kcurv=None,
                fields: GeometryFields | None = None) -> QuantityReport:
    """Assemble every requested scalar integral of one surface."""
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    ks = sorted({float(k) for k in ks})
    if any(k < 1 for k in ks):
        raise ValueError("boundary momentum exponents must satisfy k >= 1")
    kcurv = list(range(n + 1)) if kcurv is None else sorted(set(int(k) for k in kcurv))
    if any(k < 0 or k > n for k in kcurv):
        raise ValueError(f"curvature integral orders must lie in 0..{n}")

    lam_u = fields.lam
    phi_u = space.phi(graph.u)
    momenta = {k: surface_integral(fields, lam_u**k) for k in ks}
    wvols = {k: weighted_volume(space, graph, k) for k in ks}

    gamma_terms = {k: _gamma_term(space, n, k) for k in ks}
    curvature = np.zeros(n + 1)
    for k in kcurv:
        curvature[k] = surface_integral(fields, fields.E[k])
    phi_curv = np.array([surface_integral(fields, phi_u * fields.E[k])
                         for k in range(1, n + 1)])

    if space.is_space_form:
        W, residual = quermassintegrals(space, graph, fields)
    else:
        W, residual = None, None

    return QuantityReport(
        n=n,
        area=fields.area,
        volume=volume(space, graph) if W is None else float(W[0]),
        momenta=momenta,
        weighted_volumes=wvols,
        gamma_area=_gamma_term(space, n, 0.0),
        gamma_terms=gamma_terms,
        curvature_integrals=curvature,
        phi_curvature_integrals=phi_curv,
        quermass=W,
        gauss_bonnet_residual=residual,
    )
