"""Sharp inequalities and monotone quantities as signed deficits.

Every inequality is reported as deficit = lhs - rhs with lhs the side that
the theorems bound from below, so a valid input yields deficit >= 0 up to
grid error and the equality cases sit at deficit = 0.  Deficits can be
evaluated outside a theorem's hypothesis class on purpose (probing); the
convexity flags of the input ride along in the report.

Reference functions of geodesic balls: xi_k(r) is the weighted curvature
integral int Phi E_k over the boundary sphere, in closed umbilic form
omega_n Phi(r) lambda^{n-k} lambda'^k, and chi_l(r) = W_l(B(r)) through the
curvature-integral recursion.  Both are strictly increasing on the relevant
ranges and are inverted by bisection.  In the sphere ambient chi_1 (the
boundary area over n) decreases past the equator, so the inverse is taken
on the monotone branch [0, pi/2] for that case and values beyond its range
are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .ambient import WarpedSpace, sphere_area
from .flows import (
    FlowSpec,
    FlowTrace,
    LazyReport,
    monotones,
    phi_quermass_value,
    q_imcf_value,
    q_k_value,
)
from .quantities import (
    _gamma_term,
    quermassintegrals,
    radial_integral,
    surface_integral,
    volume,
    weighted_volume,
)
from .surface import GeometryFields, RadialGraph, convexity_class, geometry

__all__ = [
    "DeficitReport",
    "q_imcf",
    "deficit_boundary_momentum",
    "deficit_weinstock_iso",
    "q_k_euclidean",
    "deficit_phi_quermass_euclidean",
    "minkowski_residual",
    "kwong_miao_deficit",
    "ball_xi",
    "ball_chi",
    "ball_chi_inverse",
    "deficit_hyperbolic_ref",
    "deficit_sphere_ref",
    "monotone_series",
    "curve_kwww_deficit",
]


@dataclass(frozen=True)
class DeficitReport:
    """Signed gap of one inequality on one surface."""

    name: str
    lhs: float
    rhs: float
    k: float | None = None
    ell: int | None = None
    equality_expected: bool = False
    aux: dict[str, float] = dc_field(default_factory=dict)
    flags: dict[str, bool | None] = dc_field(default_factory=dict)

    @property
    def deficit(self) -> float:
        return self.lhs - self.rhs

    @property
    def relative_deficit(self) -> float:
        return self.deficit / max(abs(self.lhs), abs(self.rhs), 1e-300)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "ell": self.ell,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "relative_deficit": self.relative_deficit,
            "equality_expected": self.equality_expected,
            "aux": dict(self.aux),
            "class_flags": dict(self.flags),
        }


def _is_round(graph: RadialGraph) -> bool:
    u = graph.u
    return float(np.ptp(u)) <= 1e-10 * abs(float(u.mean()))


def _class_flags(space: WarpedSpace, graph: RadialGraph,
                 fields: GeometryFields) -> dict:
    try:
        rep = convexity_class(fields, space, graph, fields.n)
        return rep.flags()
    except ValueError:
        return {}


def q_imcf(space: WarpedSpace, graph: RadialGraph, k: float,
           fields: GeometryFields | None = None) -> float:
    """Scale-invariant momentum functional monotone under inverse mean
    curvature flow:
    |Sigma|^{-(n+k)/n} (int lambda^k dmu - k int lambda^{k-1} lambda' dv
                        - k/(n+k) lambda^k(a) |Gamma|).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if fields is None:
        fields = geometry(space, graph)
    return q_imcf_value(fields.n, k)(LazyReport(space, graph, fields))


def deficit_boundary_momentum(space: WarpedSpace, graph: RadialGraph, k: float,
                              fields: GeometryFields | None = None) -> DeficitReport:
    """Three-term bound on the k-th boundary momentum:
    int lambda^k dmu >= n/(n+k) |N|^{-k/n} |Sigma|^{(n+k)/n}
                        + k int lambda^{k-1} lambda' dv
                        + k/(n+k) lambda^k(a) |Gamma|.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    lhs = surface_integral(fields, fields.lam**k)
    fiber = space.fiber_area(n)
    rhs = (n / (n + k) * fiber ** (-k / n) * fields.area ** ((n + k) / n)
           + k * weighted_volume(space, graph, k)
           + k / (n + k) * _gamma_term(space, n, k))
    return DeficitReport(
        name="boundary_momentum", lhs=lhs, rhs=rhs, k=float(k),
        equality_expected=_is_round(graph),
        flags=_class_flags(space, graph, fields),
    )


def deficit_weinstock_iso(space: WarpedSpace, graph: RadialGraph,
                          fields: GeometryFields | None = None) -> DeficitReport:
    """Isoperimetric bound behind the Weinstock-type spectral estimates:
    int r^2 dmu >= b_{n+1}^{-2/(n+1)} |Sigma| |Omega|^{2/(n+1)}, euclidean.

    The Hoelder and Young links of its derivation ride along as auxiliary
    deficits (both nonnegative for any surface).
    """
    if space.kind != "euclidean":
        raise ValueError("the squared-momentum bound is a euclidean statement")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    omega = sphere_area(n)
    b = omega / (n + 1)
    area = fields.area
    vol = volume(space, graph)
    mom2 = surface_integral(fields, fields.lam**2)
    mom1 = surface_integral(fields, fields.lam)
    lhs = mom2
    rhs = b ** (-2 / (n + 1)) * area * vol ** (2 / (n + 1))
    aux = {
        "hoelder": area * mom2 - mom1**2,
        "young": (vol + n / (n + 1) * omega ** (-1 / n) * area ** ((n + 1) / n)
                  - ((n + 1) * vol) ** (1 / (n + 1)) * area * omega ** (-1 / (n + 1))),
    }
    return DeficitReport(
        name="weinstock_iso", lhs=lhs, rhs=rhs,
        equality_expected=_is_round(graph), aux=aux,
        flags=_class_flags(space, graph, fields),
    )


def q_k_euclidean(space: WarpedSpace, graph: RadialGraph, k: int,
                  fields: GeometryFields | None = None) -> float:
    """Scale-invariant weighted-curvature functional
    W_k^{-(n+2-k)/(n+1-k)} (int Phi E_k dmu + k W_{k-1})."""
    if space.kind != "euclidean":
        raise ValueError("this functional is defined in the euclidean ambient")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    rep = LazyReport(space, graph, fields)
    if rep.W(k) <= 0:
        raise ValueError(f"W_{k} = {rep.W(k):.3e} is not positive")
    return q_k_value(n, k)(rep)


def deficit_phi_quermass_euclidean(space: WarpedSpace, graph: RadialGraph, k: int,
                                   fields: GeometryFields | None = None) -> DeficitReport:
    """Weighted curvature integral against two quermassintegrals:
    int Phi E_k dmu + k W_{k-1}
      >= (n+2+k)/(2(n+2-k)) omega_n ((n+1-k)/omega_n)^{(n+2-k)/(n+1-k)}
         W_k^{(n+2-k)/(n+1-k)}, euclidean.
    """
    if space.kind != "euclidean":
        raise ValueError("this bound is a euclidean statement")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    rep = LazyReport(space, graph, fields)
    if rep.W(k) <= 0:
        raise ValueError(f"W_{k} = {rep.W(k):.3e} is not positive")
    lhs = phi_quermass_value(k)(rep)
    omega = sphere_area(n)
    expo = (n + 2 - k) / (n + 1 - k)
    rhs = ((n + 2 + k) / (2 * (n + 2 - k)) * omega
           * ((n + 1 - k) / omega) ** expo * rep.W(k) ** expo)
    return DeficitReport(
        name="phi_quermass_euclidean", lhs=lhs, rhs=rhs, k=k,
        equality_expected=_is_round(graph),
        flags=_class_flags(space, graph, fields),
    )


def minkowski_residual(space: WarpedSpace, fields: GeometryFields, k: int) -> float:
    """Normalized gap of the integral Minkowski identity
    int lambda' E_{k-1} dmu = int u_s E_k dmu (exact in the continuum)."""
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    lhs = surface_integral(fields, fields.dlam * fields.E[k - 1])
    rhs = surface_integral(fields, fields.support * fields.E[k])
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs))


def kwong_miao_deficit(space: WarpedSpace, graph: RadialGraph, k: int,
                       fields: GeometryFields | None = None) -> DeficitReport:
    """Weighted curvature integral against one quermassintegral:
    int Phi E_k dmu >= (n+2-k)/2 W_{k-1}, euclidean."""
    if space.kind != "euclidean":
        raise ValueError("this bound is a euclidean statement")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    W, _ = quermassintegrals(space, graph, fields)
    lhs = surface_integral(fields, space.phi(graph.u) * fields.E[k])
    rhs = (n + 2 - k) / 2 * W[k - 1]
    return DeficitReport(
        name="kwong_miao", lhs=lhs, rhs=rhs, k=k,
        equality_expected=_is_round(graph),
        flags=_class_flags(space, graph, fields),
    )


def _require_curved_reference_space(space: WarpedSpace) -> None:
    if space.kind not in ("hyperbolic", "sphere"):
        raise ValueError("reference functions are defined for the hyperbolic "
                         "and sphere ambients")


def _check_ball_radius(space: WarpedSpace, r: float) -> None:
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    if space.kind == "sphere" and r >= math.pi:
        raise ValueError(f"ball radius must be below pi in the sphere, got {r}")


def ball_xi(space: WarpedSpace, k: int, r: float, n: int = 2) -> float:
    """int Phi E_k dmu on the geodesic sphere of radius r (umbilic closed form)."""
    _require_curved_reference_space(space)
    _check_ball_radius(space, r)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    lam, dlam, _ = space.warp(np.asarray(r, dtype=float))
    return float(sphere_area(n) * space.phi(r) * lam ** (n - k) * dlam**k)


def ball_chi(space: WarpedSpace, ell: int, r: float, n: int = 2) -> float:
    """W_ell of the geodesic ball of radius r via the curvature recursion."""
    _require_curved_reference_space(space)
    _check_ball_radius(space, r)
    if not 0 <= ell <= n + 1:
        raise ValueError(f"need 0 <= ell <= n + 1 = {n + 1}")
    omega = sphere_area(n)
    if ell == n + 1:
        return omega / (n + 1)
    lam, dlam, _ = space.warp(np.asarray(r, dtype=float))
    W = np.zeros(n + 1)
    W[0] = omega * float(radial_integral(space, n, r))
    if n >= 1:
        W[1] = omega * float(lam) ** n / n
    for j in range(1, ell):
        curv = omega * float(lam) ** (n - j) * float(dlam) ** j
        W[j + 1] = (curv + j * space.K * W[j - 1]) / (n - j)
    return float(W[ell])


def ball_chi_inverse(space: WarpedSpace, ell: int, w: float, n: int = 2) -> float:
    """Radius of the geodesic ball with W_ell = w, by bisection.

    chi_ell is strictly increasing on (0, infinity) in the hyperbolic space.
    In the sphere the inverse is taken on (0, pi/2] whenever chi_ell turns
    over at the equator (as the area functional does); beyond-range values
    are rejected.
    """
    _require_curved_reference_space(space)
    tiny = 1e-8
    lo_val = ball_chi(space, ell, tiny, n)
    if w < lo_val:
        raise ValueError(f"target {w} below the range of chi_{ell}")

    if space.kind == "hyperbolic":
        hi = 1.0
        while ball_chi(space, ell, hi, n) < w:
            hi *= 2.0
            if hi > 1e4:
                raise ValueError(f"target {w} above the searchable range of chi_{ell}")
        lo = tiny
    else:
        half = math.pi / 2
        top = math.pi - 1e-9
        val_half = ball_chi(space, ell, half, n)
        if w <= val_half:
            lo, hi = tiny, half
        elif ball_chi(space, ell, top, n) >= w:
            lo, hi = half, top
        else:
            raise ValueError(f"target {w} outside the invertible range of chi_{ell}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            break
        if ball_chi(space, ell, mid, n) < w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ball_reference_deficit(name: str, space: WarpedSpace, graph: RadialGraph, k: int,
                            ell: int, fields: GeometryFields) -> DeficitReport:
    """int Phi E_k dmu + k W_{k-1} against (xi_k + k chi_{k-1})(chi_ell^{-1}(W_ell))."""
    n = fields.n
    rep = LazyReport(space, graph, fields)
    lhs = phi_quermass_value(k)(rep)
    radius = ball_chi_inverse(space, ell, rep.W(ell), n)
    rhs = ball_xi(space, k, radius, n) + k * ball_chi(space, k - 1, radius, n)
    return DeficitReport(
        name=name, lhs=lhs, rhs=rhs, k=k, ell=ell,
        equality_expected=_is_round(graph),
        aux={"ball_radius": radius},
        flags=_class_flags(space, graph, fields),
    )


def deficit_hyperbolic_ref(space: WarpedSpace, graph: RadialGraph, k: int, ell: int,
                           fields: GeometryFields | None = None) -> DeficitReport:
    """Hyperbolic weighted-curvature bound through ball reference functions:
    int Phi E_k dmu + k W_{k-1} >= (xi_k + k chi_{k-1})(chi_ell^{-1}(W_ell)).

    Proved for static convex domains; evaluating outside that class is a
    legitimate probe and the flags say which class the input is in.
    """
    if space.kind != "hyperbolic":
        raise ValueError("this bound is a hyperbolic statement")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}")
    if not 0 <= ell <= k:
        raise ValueError(f"need 0 <= ell <= k = {k}")
    return _ball_reference_deficit("hyperbolic_ref", space, graph, k, ell, fields)


def deficit_sphere_ref(space: WarpedSpace, graph: RadialGraph, ell: int,
                       fields: GeometryFields | None = None) -> DeficitReport:
    """Sphere-ambient top-order weighted-curvature bound (k = n):
    int Phi E_n dmu + n W_{n-1} >= (xi_n + n chi_{n-1})(chi_ell^{-1}(W_ell))."""
    if space.kind != "sphere":
        raise ValueError("this bound is a sphere statement")
    if fields is None:
        fields = geometry(space, graph)
    n = fields.n
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n = {n}")
    return _ball_reference_deficit("sphere_ref", space, graph, n, ell, fields)


def curve_kwww_deficit(space: WarpedSpace, graph: RadialGraph,
                       fields: GeometryFields | None = None) -> DeficitReport:
    """Convex-curve bound int Phi kappa ds >= (L^2 - 2 pi A) / (2 pi)."""
    if not space.is_space_form:
        raise ValueError("the curve bound is stated in space forms")
    if fields is None:
        fields = geometry(space, graph)
    if fields.n != 1:
        raise ValueError("the curve bound needs n = 1")
    if fields.kappa.min() <= 0:
        idx = int(np.argmax((fields.kappa[0] <= 0)))
        raise ValueError(f"curve not convex at {fields.grid.node_label(idx)}")
    L = fields.area
    A = volume(space, graph)
    lhs = surface_integral(fields, space.phi(graph.u) * fields.kappa[0])
    rhs = (L**2 - 2 * math.pi * A) / (2 * math.pi)
    return DeficitReport(
        name="curve_kwww", lhs=lhs, rhs=rhs,
        equality_expected=_is_round(graph),
        flags=_class_flags(space, graph, fields),
    )


def monotone_series(space: WarpedSpace, trace: FlowTrace, spec: FlowSpec,
                    ks=None, ells=(0, 1)) -> dict[str, np.ndarray]:
    """Per-sample values of the quantities that are monotone along the flow.

    The rows come from the flow's `flows.FLOWS` entry, which the step guard
    and the evolve trace columns read too; README lists them per flow kind.  ks
    picks the imcf exponents (default the flow's k) and ells the hyperbolic
    quermassintegrals.  Values are read from the samples' reports, so
    `space` is not used.

    Plus, for n >= 2, the pointwise Newton-MacLaurin margin
    min(E_k^2 - E_{k+1} E_{k-1}) recorded with each sample, nonnegative
    whenever the curvature vector is real.
    """
    if spec.kind != trace.spec.kind or spec.k != trace.spec.k:
        raise ValueError(
            f"trace was produced by {trace.spec.kind}(k={trace.spec.k}), "
            f"not {spec.kind}(k={spec.k})"
        )
    out = {m.name: np.array([m.value(s.report) for s in trace.samples])
           for m in monotones(spec, trace.n, ks, ells)}
    if trace.n >= 2:
        out["newton_maclaurin_margin"] = np.array(
            [s.newton_maclaurin_margin for s in trace.samples])
    return out
