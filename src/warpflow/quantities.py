"""Scalar integrals of one surface: areas, momenta, volumes, quermassintegrals.

Surface integrals are weighted nodal sums with the area weights from
`GeometryFields`; numpy's pairwise summation keeps the reduction
deterministic for a fixed grid shape.  Enclosed-volume integrals split into
an exact fiber quadrature and a radial integral int_a^u lambda^n ds, which
every ambient evaluates in closed form (`WarpedSpace.radial`).  Weighted
volumes use the radial antiderivative of lambda^{n+k-1} lambda', which is
exact in every ambient.

Quermassintegrals in space forms follow the curvature-integral recursion
    int E_k dmu = (n - k) W_{k+1} - k K W_{k-1},    k = 1..n-1,
with W_0 = |Omega|, W_1 = |Sigma|/n, W_{n+1} = omega_n/(n+1), and the k = n
relation int E_n dmu = omega_n - n K W_{n-1} kept aside as a Gauss-Bonnet
style residual check (`quermass_recursion`, shared with the geodesic balls).

`QuantityReport` is the one report: each value is computed on first read and
kept.  Besides the integrals it keeps what several of them, or every deficit
of one surface, would otherwise compute again: Phi(u) per node for every
int Phi E_k, the round flag, and the class data: the nodal minima of E_j and
kappa, the static-convexity and Newton-MacLaurin margins, from which every
deficit's convexity flags are read; lambda(u) is read from its fields.
`QuantityReport.detach` computes what a trace sample records and then drops
the fields and Phi(u), so a sample keeps numbers and no nodal arrays; a flow
detaches the step guard's report of the accepted surface, and `full_report`
detaches a new report of a given surface.
"""

from __future__ import annotations

import math
from functools import wraps
from typing import Callable

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
    """Integrate nodal values over the surface measure.

    A non-finite integrand raises ValueError naming its first such node.  The
    weighted sum is formed first and the integrand is scanned only when the
    sum is not finite, so a finite integrand whose sum overflows returns inf.
    """
    integrand = np.asarray(integrand, dtype=float)
    total = float(np.sum(integrand * fields.area_weight))
    if not math.isfinite(total) and not np.all(np.isfinite(integrand)):
        idx = int(np.argmax(~np.isfinite(integrand).ravel()))
        raise ValueError(f"non-finite integrand at {fields.grid.node_label(idx)}")
    return total


def volume(space: WarpedSpace, graph: RadialGraph) -> float:
    """Volume enclosed between the inner boundary and the graph."""
    inner = space.radial(graph.grid.n, graph.u)
    return float(np.sum(inner * graph.grid.weights))


def weighted_volume(space: WarpedSpace, graph: RadialGraph, k: float,
                    lam_u: np.ndarray | None = None) -> float:
    """int_Omega lambda^{k-1} lambda' dv via the exact radial antiderivative.

    d/ds lambda^{n+k} = (n+k) lambda^{n+k-1} lambda' turns the radial
    integral into boundary terms, leaving one fiber quadrature.  lam_u is
    lambda(u) per node when the caller holds it.
    """
    if k < 1:
        raise ValueError(f"weighted volume needs k >= 1, got {k}")
    n = graph.grid.n
    if lam_u is None:
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


def quermass_recursion(W: np.ndarray, n: int, K: int, curvature: Callable[[int], float]) -> None:
    """Fill W[2..n] from W[0] and W[1] by the curvature-integral recursion
    W_{j+1} = (int E_j dmu + j K W_{j-1}) / (n - j), curvature(j) = int E_j dmu.
    At K = 0 the W_{j-1} term is left out, not multiplied by 0: an overflowed
    W_0 = inf would turn it into nan."""
    for j in range(1, n):
        W[j + 1] = (curvature(j) + (j * K * W[j - 1] if K else 0.0)) / (n - j)


def quermassintegrals(rep: QuantityReport) -> tuple[np.ndarray, float]:
    """W_0..W_{n+1} and the top curvature-integral residual (space forms only),
    from the volume, area and curvature integrals that rep holds or computes."""
    space = rep.space
    if not space.is_space_form:
        raise UnsupportedAmbientError(
            "quermassintegrals beyond W_1 are only defined in space forms"
        )
    n = rep.n
    K = space.K
    W = np.zeros(n + 2)
    W[0] = rep.volume
    W[1] = rep.area / n
    quermass_recursion(W, n, K, rep.curvature)
    W[n + 1] = sphere_area(n) / (n + 1)
    residual = rep.curvature(n) - (sphere_area(n) - n * K * W[n - 1])
    return W, float(residual)


def _kept(method):
    """A report value, computed on first read and kept under its name and
    arguments; a detached report raises KeyError naming a value it lacks."""
    name = method.__name__.lstrip("_")

    @wraps(method)
    def read(self, *args):
        key = (name, *map(float, args))
        if key not in self._values:
            if self.graph is None:
                label = name + "".join(f"({arg:g})" for arg in key[1:])
                raise KeyError(f"a detached report holds no {label}")
            self._values[key] = method(self, *args)
        return self._values[key]
    return read


class QuantityReport:
    """Every scalar integral of one surface that the inequalities, the flow
    monotone quantities and the trace columns read, with the flags that the
    deficits carry.

    Each value is computed on first read and kept, so a reader pays only for
    what it reads and the quermassintegrals run at most once; the geometry
    is computed on first need when `fields` is not given.
    """

    def __init__(self, space: WarpedSpace, graph: RadialGraph,
                 fields: GeometryFields | None = None):
        self.space, self.graph, self.n = space, graph, graph.grid.n
        self._values: dict[tuple, object] = {} if fields is None else {("fields",): fields}

    def _computed(self, name: str) -> dict:
        return {key[1]: val for key, val in sorted(self._values.items()) if key[0] == name}

    @property
    @_kept
    def fields(self) -> GeometryFields:
        return geometry(self.space, self.graph)

    @property
    @_kept
    def area(self) -> float:
        return self.fields.area

    @property
    @_kept
    def volume(self) -> float:
        """|Omega|, one closed-form radial integral per node; the quermassintegrals
        read it as W_0."""
        return volume(self.space, self.graph)

    @_kept
    def momentum(self, k: float) -> float:  # int lambda^k dmu
        return surface_integral(self.fields, self.fields.lam**k)

    @_kept
    def weighted_vol(self, k: float) -> float:  # int_Omega lambda^{k-1} lambda' dv
        return weighted_volume(self.space, self.graph, k, self.fields.lam)

    @_kept
    def gamma_term(self, k: float) -> float:  # lambda(a)^k |Gamma|
        return _gamma_term(self.space, self.n, k)

    @property
    @_kept
    def gamma_area(self) -> float:  # |Gamma| = lambda(a)^n |N|
        return _gamma_term(self.space, self.n, 0.0)

    @_kept
    def curvature(self, k: int) -> float:  # int E_k dmu
        return self.area if k == 0 else surface_integral(self.fields, self.fields.E[k])

    @_kept
    def phi_curvature(self, k: int) -> float:  # int Phi E_k dmu
        return surface_integral(self.fields, self._phi() * self.fields.E[k])

    @_kept
    def _phi(self) -> np.ndarray:  # Phi(u) per node, for every phi_curvature
        return self.space.phi(self.graph.u)

    @_kept
    def min_E(self, j: int) -> float:  # min E_j over the nodes
        return float(self.fields.E[j].min())

    @property
    @_kept
    def min_kappa(self) -> float:  # the least principal curvature over the nodes
        return float(self.fields.kappa.min())

    @property
    @_kept
    def static_margin(self) -> float | None:
        """min(kappa_min - u_s/lambda'), the distance to the static-convexity
        cone; None where lambda' <= 0 at some node."""
        f = self.fields
        if not np.all(f.dlam > 0):
            return None
        return float((f.kappa[-1] - f.support / f.dlam).min())

    @property
    @_kept
    def newton_maclaurin_margin(self) -> float | None:
        """min (E_j^2 - E_{j+1} E_{j-1}) / (E_j^2 + |E_{j+1} E_{j-1}|) over the
        nodes and j = 1..n-1 (0 where both terms vanish): scale-free, in [-1, 1],
        nonnegative whenever the curvature vector is real; None for n = 1."""
        if self.n < 2:
            return None
        E = self.fields.E
        squares, products = E[1:-1] ** 2, E[2:] * E[:-2]
        scale = squares + np.abs(products)
        return float(np.divide(squares - products, scale, out=np.zeros_like(scale),
                               where=scale > 0).min())

    @property
    def class_flags(self) -> dict[str, bool | None]:
        """The convexity flags at k = n, from the values above; a deficit reads them when asked."""
        margin = self.static_margin
        return {
            "mean_convex": self.min_E(1) > 0,
            f"{self.n}_convex": all(self.min_E(j) > 0 for j in range(1, self.n + 1)),
            "convex": self.min_kappa > 0,
            "static_convex": None if margin is None else margin > 0,
        }

    @property
    @_kept
    def is_round(self) -> bool:
        """Whether u is constant to 1e-10 relative: the equality case of the checks."""
        u = self.graph.u
        return float(np.ptp(u)) <= 1e-10 * abs(float(u.mean()))

    @_kept
    def _quermass(self) -> tuple[np.ndarray | None, float | None]:
        if not self.space.is_space_form:
            return None, None
        return quermassintegrals(self)

    @property
    def quermass(self) -> np.ndarray | None:  # W_0..W_{n+1}, space forms only
        return self._quermass()[0]

    @property
    def gauss_bonnet_residual(self) -> float | None:
        return self._quermass()[1]

    def W(self, k: int) -> float:
        if self.quermass is None:
            raise UnsupportedAmbientError("no quermassintegrals for this ambient")
        return float(self.quermass[k])

    @property
    def momenta(self) -> dict[float, float]:
        """k -> int lambda^k dmu over the exponents read so far."""
        return self._computed("momentum")

    def to_dict(self) -> dict:
        def keymap(name):
            return {format(k, "g"): val for k, val in self._computed(name).items()}
        n = self.n
        return {
            "n": n,
            "area": self.area,
            "volume": self.volume,
            "momenta": keymap("momentum"),
            "weighted_volumes": keymap("weighted_vol"),
            "gamma_area": self.gamma_area,
            "gamma_terms": keymap("gamma_term"),
            "curvature_integrals": [self.curvature(k) for k in range(n + 1)],
            "phi_curvature_integrals": [self.phi_curvature(k) for k in range(1, n + 1)],
            "W": None if self.quermass is None else list(map(float, self.quermass)),
            "gauss_bonnet_residual": self.gauss_bonnet_residual,
            "min_E": [self.min_E(j) for j in range(1, n + 1)],
            "min_kappa": self.min_kappa,
            "static_margin": self.static_margin,
            "newton_maclaurin_margin": self.newton_maclaurin_margin,
        }

    def detach(self, ks=(1.0,)) -> QuantityReport:
        """Fill every value `to_dict` lists, with the momenta, weighted volumes
        and Gamma terms at the exponents ks, then drop the surface, its fields
        and Phi(u), so the report keeps numbers and no nodal arrays; returns
        the report.  Values it already holds are not computed again."""
        ks = sorted({float(k) for k in ks})
        if any(k < 1 for k in ks):
            raise ValueError("boundary momentum exponents must satisfy k >= 1")
        for k in ks:
            self.momentum(k), self.weighted_vol(k), self.gamma_term(k)
        self.to_dict()                    # the rest of the recorded set
        self.space = self.graph = None    # detached: numbers only
        for nodal in (("fields",), ("phi",)):
            self._values.pop(nodal, None)
        return self


def full_report(space: WarpedSpace, graph: RadialGraph, ks=(1.0,)) -> QuantityReport:
    """A detached report of graph: `QuantityReport.detach` on a new report."""
    return QuantityReport(space, graph).detach(ks)
