"""Sharp inequalities and monotone quantities as signed deficits.

Every inequality is reported as deficit = lhs - rhs with lhs the side that
the theorems bound from below, so a valid input yields deficit >= 0 up to
grid error and the equality cases sit at deficit = 0.  Deficits can be
evaluated outside a theorem's hypothesis class on purpose (probing); a deficit
reads its input's convexity flags from its report when asked, so a caller that
writes deficits alone never computes them.  `STATEMENTS` holds each `--check`
statement's ambient (a space kind, any space form, or any), fiber dimension
and k/ell ranges, which its deficit refuses; each `flows.FLOWS` row names the
statement its flow proves and runs in that row's ambient.  The ball reference
functions keep their own refusals: they check a radius or a target given to
`warpflow reference`, which no row states.

Every deficit and functional takes one `quantities.QuantityReport` as its
surface, and a deficit reads its ambient from `rep.space`: the checks of one
surface share one report, so each integral they read is computed once.  The
flows' monotone functionals `q_imcf`, `phi_quermass` and `q_k` read no ambient
(a detached flow sample has none); `flows` imports them, not the reverse.

Reference functions of geodesic balls: xi_k(r) is the weighted curvature
integral int Phi E_k over the boundary sphere, in closed umbilic form
omega_n Phi(r) lambda^{n-k} lambda'^k, and chi_l(r) = W_l(B(r)) through the
curvature-integral recursion.  Both are strictly increasing on the relevant
ranges.  chi_l is inverted by a safeguarded Newton iteration with its
closed-form radial derivative d chi_l/dr = omega_n lambda^{n-l} lambda'^l,
the int E_l dmu of the boundary sphere (the recursion differentiates to it
because lambda'' = -K lambda).  In the sphere ambient chi_1 (the boundary
area over n) decreases past the equator, so the inverse is taken on the
monotone branch [0, pi/2] for that case and values beyond its range are
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .ambient import WarpedSpace, parse_options, sphere_area
from .quantities import (
    QuantityReport,
    quermass_recursion,
    quermassintegrals,  # noqa: F401  rebound here by perfbench/tracer.py
    surface_integral,
    volume,  # noqa: F401  rebound here by perfbench/tracer.py
)
from .surface import geometry  # noqa: F401  rebound here by perfbench/tracer.py

if TYPE_CHECKING:
    from .flows import FlowTrace

__all__ = [
    "DeficitReport",
    "STATEMENTS",
    "check",
    "q_imcf",
    "phi_quermass",
    "q_k",
    "deficit_boundary_momentum",
    "deficit_weinstock_iso",
    "q_k_euclidean",
    "deficit_phi_quermass_euclidean",
    "minkowski_residual",
    "deficit_minkowski",
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
    """Signed gap of one inequality on one surface.

    ``report`` is the surface's `QuantityReport`, left out of ``==`` and repr:
    `flags` reads its class flags on demand.  Keeping it keeps the report and
    its fields alive, and a report is not picklable (its `WarpedSpace` holds
    closures), so neither is a deficit; sweep members send plain tuples."""

    name: str
    lhs: float
    rhs: float
    k: float | None = None
    ell: int | None = None
    equality_expected: bool = False
    aux: dict[str, float] = dc_field(default_factory=dict)
    report: QuantityReport | None = dc_field(default=None, compare=False, repr=False)

    @property
    def flags(self) -> dict[str, bool | None]:
        """The surface's convexity flags; {} for a deficit built without a report."""
        return {} if self.report is None else self.report.class_flags

    @property
    def deficit(self) -> float:
        return self.lhs - self.rhs

    @property
    def tol_scale(self) -> float:
        """max(1, |lhs|, |rhs|): rounding grows with the sides, and a finding's -tol with it."""
        return max(1.0, abs(self.lhs), abs(self.rhs))

    @property
    def relative_deficit(self) -> float:
        return self.deficit / max(abs(self.lhs), abs(self.rhs), 1e-300)

    def to_dict(self) -> dict:
        """Its compared fields (a copy of aux), both deficits and the class flags."""
        return {**{f.name: getattr(self, f.name) for f in dc_fields(self) if f.compare},
                "aux": dict(self.aux), "deficit": self.deficit,
                "relative_deficit": self.relative_deficit, "class_flags": self.flags}


class Statement(NamedTuple):
    """A `--check` statement, a row of `STATEMENTS`; a row without a k option is the
    k = n one.  Its options map each name to (default, lo, hi): an int default takes
    integers only, and lo <= option <= hi, with hi "n", another option or None (no end)."""

    deficit: str                # its deficit's name here, looked up where tracers rebind it
    options: dict[str, tuple[float | int, int, str | None]] = {}
    ambient: str | None = None  # the space kind it is stated in; "space-form": any; None: any
    bound: str = "this bound"   # refused elsewhere as "<bound> is a <ambient> statement"
    n: int | None = None        # the fiber dimension it is stated for; None: any

    def admits(self, space: WarpedSpace | None) -> bool:
        """Whether this row is stated in space's ambient; a row stated in any reads
        no space (a detached flow sample has none)."""
        return self.ambient is None or self.ambient in (
            space.kind, "space-form" if space.is_space_form else None)

    def require(self, rep: QuantityReport, **values) -> None:
        """Refuse rep's ambient or n, or an option value outside this row or not finite."""
        if not self.admits(rep.space):
            raise ValueError(f"{self.bound} is a {self.ambient} statement")
        if self.n not in (None, rep.n):
            raise ValueError(f"{self.bound} needs n = {self.n}")
        limits = {None: math.inf, "n": rep.n, **values}
        for key, (_, lo, hi) in self.options.items():
            if not lo <= values[key] <= limits[hi]:
                raise ValueError(f"need {key} >= {lo}, got {values[key]}" if hi is None
                                 else f"need {lo} <= {key} <= {hi} = {limits[hi]}")
            if not math.isfinite(values[key]):
                raise ValueError(f"need a finite {key}, got {values[key]}")


# the one list of check names, their options, defaults, ranges and ambients
STATEMENTS = {
    "boundary-momentum": Statement("deficit_boundary_momentum", {"k": (1.0, 1, None)}),
    "weinstock": Statement("deficit_weinstock_iso", {}, "euclidean", "the squared-momentum bound"),
    "phi-quermass": Statement("deficit_phi_quermass_euclidean", {"k": (1, 1, "n")}, "euclidean"),
    "kwong-miao": Statement("kwong_miao_deficit", {"k": (1, 1, "n")}, "euclidean"),
    "hyperbolic-ref": Statement("deficit_hyperbolic_ref", {"k": (1, 1, "n"), "ell": (0, 0, "k")},
                                "hyperbolic"),
    "sphere-ref": Statement("deficit_sphere_ref", {"ell": (0, 0, "n")}, "sphere"),
    "minkowski": Statement("deficit_minkowski", {"k": (1, 1, "n")}),
    "curve": Statement("curve_kwww_deficit", {}, "space-form", "the curve bound", n=1),
}
STATEMENTS["girao"] = STATEMENTS["boundary-momentum"]
_OPTION_TYPES = {name: {key: type(default) for key, (default, _, _) in row.options.items()}
                 for name, row in STATEMENTS.items()}


def check(rep: QuantityReport, item: str) -> DeficitReport:
    """The deficit of check item ``name[:key=value,...]`` (name case-blind, _ as -) on rep.

    A float overflow, or an lhs or rhs that is not finite, raises ValueError
    naming the item: such a deficit is neither a pass nor a finding."""
    name, sep, body = item.partition(":")
    name, options = parse_options(name.strip().lower().replace("_", "-") + sep + body,
                                  _OPTION_TYPES, "check")
    row = STATEMENTS[name]
    try:
        out = globals()[row.deficit](rep, **{key: type(default)(options.get(key, default))
                                            for key, (default, _, _) in row.options.items()})
    except OverflowError as exc:
        raise ValueError(f"check {item} overflows: {exc.args[-1]}") from exc
    if not (math.isfinite(out.lhs) and math.isfinite(out.rhs)):
        raise ValueError(f"check {item} is not finite: lhs {out.lhs}, rhs {out.rhs}")
    return out


def _deficit(name: str, rep: QuantityReport, lhs: float, rhs: float,
             **kw) -> DeficitReport:
    """lhs >= rhs on rep's surface, with its round flag and its report."""
    return DeficitReport(name=name, lhs=lhs, rhs=rhs, equality_expected=rep.is_round,
                         report=rep, **kw)


def q_imcf(rep: QuantityReport, k: float) -> float:
    """Scale-invariant momentum functional monotone under inverse mean
    curvature flow:
    |Sigma|^{-(n+k)/n} (int lambda^k dmu - k int lambda^{k-1} lambda' dv
                        - k/(n+k) lambda^k(a) |Gamma|).
    """
    STATEMENTS["boundary-momentum"].require(rep, k=k)
    n = rep.n
    return rep.area ** (-(n + k) / n) * (
        rep.momentum(k) - k * rep.weighted_vol(k) - k / (n + k) * rep.gamma_term(k))


def phi_quermass(rep: QuantityReport, k: int) -> float:
    """Weighted curvature functional int Phi E_k dmu + k W_{k-1}."""
    return rep.phi_curvature(k) + k * rep.W(k - 1)


def q_k(rep: QuantityReport, k: int) -> float:
    """`q_k_euclidean` without its checks: W_k^{-(n+2-k)/(n+1-k)} `phi_quermass`."""
    n = rep.n
    return rep.W(k) ** (-(n + 2 - k) / (n + 1 - k)) * phi_quermass(rep, k)


def deficit_boundary_momentum(rep: QuantityReport, k: float) -> DeficitReport:
    """Three-term bound on the k-th boundary momentum:
    int lambda^k dmu >= n/(n+k) |N|^{-k/n} |Sigma|^{(n+k)/n}
                        + k int lambda^{k-1} lambda' dv
                        + k/(n+k) lambda^k(a) |Gamma|.
    """
    STATEMENTS["boundary-momentum"].require(rep, k=k)
    n = rep.n
    fiber = rep.space.fiber_area(n)
    rhs = (n / (n + k) * fiber ** (-k / n) * rep.area ** ((n + k) / n)
           + k * rep.weighted_vol(k)
           + k / (n + k) * rep.gamma_term(k))
    return _deficit("boundary_momentum", rep, rep.momentum(k), rhs, k=float(k))


def deficit_weinstock_iso(rep: QuantityReport) -> DeficitReport:
    """Isoperimetric bound behind the Weinstock-type spectral estimates:
    int r^2 dmu >= b_{n+1}^{-2/(n+1)} |Sigma| |Omega|^{2/(n+1)}, euclidean.

    The Hoelder and Young links of its derivation ride along as auxiliary
    deficits (both nonnegative for any surface).
    """
    STATEMENTS["weinstock"].require(rep)
    n = rep.n
    omega = sphere_area(n)
    b = omega / (n + 1)
    area, vol, mom2 = rep.area, rep.volume, rep.momentum(2)
    rhs = b ** (-2 / (n + 1)) * area * vol ** (2 / (n + 1))
    aux = {
        "hoelder": area * mom2 - rep.momentum(1)**2,
        "young": (vol + n / (n + 1) * omega ** (-1 / n) * area ** ((n + 1) / n)
                  - ((n + 1) * vol) ** (1 / (n + 1)) * area * omega ** (-1 / (n + 1))),
    }
    return _deficit("weinstock_iso", rep, mom2, rhs, aux=aux)


def _require_positive_W(rep: QuantityReport, k: int) -> None:
    STATEMENTS["phi-quermass"].require(rep, k=k)
    if rep.W(k) <= 0:
        raise ValueError(f"W_{k} = {rep.W(k):.3e} is not positive")


def q_k_euclidean(rep: QuantityReport, k: int) -> float:
    """`q_k` of a euclidean surface with W_k > 0."""
    _require_positive_W(rep, k)
    return q_k(rep, k)


def deficit_phi_quermass_euclidean(rep: QuantityReport, k: int) -> DeficitReport:
    """Weighted curvature integral against two quermassintegrals:
    int Phi E_k dmu + k W_{k-1}
      >= (n+2+k)/(2(n+2-k)) omega_n ((n+1-k)/omega_n)^{(n+2-k)/(n+1-k)}
         W_k^{(n+2-k)/(n+1-k)}, euclidean.
    """
    _require_positive_W(rep, k)
    n = rep.n
    omega = sphere_area(n)
    expo = (n + 2 - k) / (n + 1 - k)
    rhs = ((n + 2 + k) / (2 * (n + 2 - k)) * omega
           * ((n + 1 - k) / omega) ** expo * rep.W(k) ** expo)
    return _deficit("phi_quermass_euclidean", rep, phi_quermass(rep, k), rhs, k=k)


def minkowski_residual(rep: QuantityReport, k: int) -> float:
    """Normalized gap of the integral Minkowski identity
    int lambda' E_{k-1} dmu = int u_s E_k dmu (exact in the continuum)."""
    STATEMENTS["minkowski"].require(rep, k=k)
    fields = rep.fields
    lhs = surface_integral(fields, fields.dlam * fields.E[k - 1])
    rhs = surface_integral(fields, fields.support * fields.E[k])
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs))


def deficit_minkowski(rep: QuantityReport, k: int) -> DeficitReport:
    """`minkowski_residual` as a deficit over rhs 0: equality on every surface."""
    return DeficitReport(name="minkowski", lhs=minkowski_residual(rep, k), rhs=0.0, k=k,
                         equality_expected=True)


def kwong_miao_deficit(rep: QuantityReport, k: int) -> DeficitReport:
    """Weighted curvature integral against one quermassintegral:
    int Phi E_k dmu >= (n+2-k)/2 W_{k-1}, euclidean."""
    STATEMENTS["kwong-miao"].require(rep, k=k)
    return _deficit("kwong_miao", rep, rep.phi_curvature(k),
                    (rep.n + 2 - k) / 2 * rep.W(k - 1), k=k)


def _require_curved_reference_space(space: WarpedSpace) -> None:
    if space.kind not in ("hyperbolic", "sphere"):
        raise ValueError("reference functions are defined for the hyperbolic "
                         "and sphere ambients")


def _check_ball_radius(space: WarpedSpace, r: float) -> None:
    if not 0 < r < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {r}")
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


def _ball_chi(space: WarpedSpace, ell: int, r: float, n: int) -> tuple[float, float]:
    """chi_ell(r) and its slope d chi_ell/dr = omega_n lambda^{n-ell} lambda'^ell
    (the int E_ell dmu of the geodesic sphere), from one warp evaluation."""
    omega = sphere_area(n)
    if ell == n + 1:
        return omega / (n + 1), 0.0
    lam, dlam, _ = space.warp(np.asarray(r, dtype=float))
    lam, dlam = float(lam), float(dlam)

    def curvature(j: int) -> float:
        return omega * lam ** (n - j) * dlam**j

    W = [0.0] * (n + 1)
    if ell != 1:                    # W_1 = |S_r| / n alone does not read W_0
        W[0] = omega * float(space.radial(n, r))
    W[1] = omega * lam**n / n
    quermass_recursion(W, n, space.K, curvature)
    return W[ell], curvature(ell)


def ball_chi(space: WarpedSpace, ell: int, r: float, n: int = 2) -> float:
    """W_ell of the geodesic ball of radius r via the curvature recursion."""
    _require_curved_reference_space(space)
    _check_ball_radius(space, r)
    if not 0 <= ell <= n + 1:
        raise ValueError(f"need 0 <= ell <= n + 1 = {n + 1}")
    return _ball_chi(space, ell, r, n)[0]


def ball_chi_inverse(space: WarpedSpace, ell: int, w: float, n: int = 2) -> float:
    """Radius of the geodesic ball with W_ell = w, by safeguarded Newton.

    chi_ell is strictly increasing on (0, infinity) in the hyperbolic space.
    In the sphere the inverse is taken on (0, pi/2] whenever chi_ell turns
    over at the equator (as the area functional does); beyond-range values
    are rejected.

    Newton runs on log chi_ell with the closed-form slope
    d chi_ell/dr = omega_n lambda^{n-ell} lambda'^ell, inside the bracket of
    the range checks.  It starts from the euclidean inverse
    ((n+1-ell) w / omega_n)^{1/(n+1-ell)}, exact as r -> 0, or, when the
    bracket no longer starts at the floor 1e-8, from its end whose chi_ell
    is nearer w.  In the sphere that top end is pi - 1e-9, where chi_0 is
    flat, so the start there is the euclidean inverse measured from it,
    hi - ((n+1-ell) (chi_ell(hi) - w) / omega_n)^{1/(n+1-ell)}.  A step that
    leaves the bracket, a zero slope, or a step longer than half the one
    before it bisects instead.  The iteration stops when chi_ell(r) equals
    w to rounding or the step is at most 1e-15 r.
    """
    _require_curved_reference_space(space)
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n = {n}")
    lo = tiny = 1e-8
    at_lo = _ball_chi(space, ell, lo, n)
    if not w >= at_lo[0]:
        raise ValueError(f"target {w} below the range of chi_{ell}")

    if space.kind == "hyperbolic":
        hi = 1.0
        at_hi = _ball_chi(space, ell, hi, n)
        while at_hi[0] < w:
            lo, at_lo = hi, at_hi
            hi = 2.0 * hi
            if hi > 256.0:              # lambda^2 overflows a double at r = 512
                raise ValueError(f"target {w} above the searchable range of chi_{ell}")
            at_hi = _ball_chi(space, ell, hi, n)
    else:
        hi = math.pi / 2
        at_hi = _ball_chi(space, ell, hi, n)
        if w > at_hi[0]:
            lo, at_lo = hi, at_hi
            hi = math.pi - 1e-9
            at_hi = _ball_chi(space, ell, hi, n)
            if at_hi[0] < w:
                raise ValueError(f"target {w} outside the invertible range of chi_{ell}")

    m = n + 1 - ell
    if lo == tiny:                      # the euclidean inverse, exact as r -> 0
        r = min(max((m * w / sphere_area(n)) ** (1.0 / m), lo), hi)
    elif w / at_lo[0] < at_hi[0] / w:   # the bracket end nearer w in log chi_ell
        r = lo
    elif space.kind == "sphere":        # the euclidean inverse from the antipode
        r = min(max(hi - (m * (at_hi[0] - w) / sphere_area(n)) ** (1.0 / m), lo), hi)
    else:
        r = hi
    chi, slope = at_lo if r == lo else at_hi if r == hi else _ball_chi(space, ell, r, n)
    step = math.inf
    for _ in range(200):
        if chi < w:
            lo = r
        else:
            hi = r
        f = math.log(chi / w)
        if abs(f) <= 2.0 * math.ulp(1.0):      # chi_ell(r) is w to rounding
            return r
        newton = f * chi / slope if slope else math.inf
        if abs(newton) <= 1e-15 * r:
            return r - newton
        if lo < r - newton < hi and abs(newton) <= 0.5 * abs(step):
            step = newton
        else:
            step = r - 0.5 * (lo + hi)
        r -= step
        if abs(step) <= 1e-15 * r:
            break
        chi, slope = _ball_chi(space, ell, r, n)
    return r


def _ball_reference_deficit(name: str, rep: QuantityReport, k: int,
                            ell: int) -> DeficitReport:
    """int Phi E_k dmu + k W_{k-1} against (xi_k + k chi_{k-1})(chi_ell^{-1}(W_ell))."""
    space, n = rep.space, rep.n
    lhs = phi_quermass(rep, k)
    radius = ball_chi_inverse(space, ell, rep.W(ell), n)
    rhs = ball_xi(space, k, radius, n) + k * ball_chi(space, k - 1, radius, n)
    return _deficit(name, rep, lhs, rhs, k=k, ell=ell, aux={"ball_radius": radius})


def deficit_hyperbolic_ref(rep: QuantityReport, k: int, ell: int) -> DeficitReport:
    """Hyperbolic weighted-curvature bound through ball reference functions:
    int Phi E_k dmu + k W_{k-1} >= (xi_k + k chi_{k-1})(chi_ell^{-1}(W_ell)).

    Proved for static convex domains; evaluating outside that class is a
    legitimate probe and the flags say which class the input is in.
    """
    STATEMENTS["hyperbolic-ref"].require(rep, k=k, ell=ell)
    return _ball_reference_deficit("hyperbolic_ref", rep, k, ell)


def deficit_sphere_ref(rep: QuantityReport, ell: int) -> DeficitReport:
    """Sphere-ambient top-order weighted-curvature bound (k = n):
    int Phi E_n dmu + n W_{n-1} >= (xi_n + n chi_{n-1})(chi_ell^{-1}(W_ell))."""
    STATEMENTS["sphere-ref"].require(rep, ell=ell)
    return _ball_reference_deficit("sphere_ref", rep, rep.n, ell)


def curve_kwww_deficit(rep: QuantityReport) -> DeficitReport:
    """Convex-curve bound int Phi kappa ds >= (L^2 - 2 pi A) / (2 pi)."""
    STATEMENTS["curve"].require(rep)
    if rep.min_kappa <= 0:
        idx = int(np.argmax(rep.fields.kappa[0] <= 0))
        raise ValueError(f"curve not convex at {rep.fields.grid.node_label(idx)}")
    L, A = rep.area, rep.volume
    # E_1 = kappa for curves, so the lhs is int Phi kappa ds
    return _deficit("curve_kwww", rep, rep.phi_curvature(1),
                    (L**2 - 2 * math.pi * A) / (2 * math.pi))


def monotone_series(trace: FlowTrace) -> dict[str, np.ndarray]:
    """Per-sample values of the quantities that are monotone along the flow.

    The rows are `trace.monotones`, the flow's `flows.FLOWS` rows at the
    momentum exponents every sample records (imcf: Q_imcf at k = 1 and 2;
    hyperbolic_sx: W_0 and W_1 beside its lhs); the step guard, the sample
    check that files `trace.findings` and the evolve trace columns read the
    same table, and README lists it per flow kind.  Values are read from the
    samples' reports.
    """
    return {m.name: np.array([m.value(s.report) for s in trace.samples])
            for m in trace.monotones}
