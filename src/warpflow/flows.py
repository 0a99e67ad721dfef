"""Inverse-curvature-type flows of radial graphs.

Normal speeds on the menu, and the `inequalities.STATEMENTS` row each proves
(`Flow.proves`), whose ambient and k the flow runs in:

    imcf               f = 1/H                        boundary-momentum (any ambient)
    euclidean_inverse  f = E_{k-1}/E_k                phi-quermass (euclidean)
    hyperbolic_sx      f = E_{k-1}/E_k - u_s/lambda'  hyperbolic-ref (hyperbolic)
    sphere_bgl         f = lambda' E_{k-1}/E_k - u_s  sphere-ref (sphere, k = n)

The graph equation is du/dt = f v, the standard conversion of a normal
speed through <d_r, nu> = 1/v.  Stepping is explicit second-order
Runge-Kutta-Chebyshev (RKC2) with damping eps = 2/13 (Sommeijer, Shampine
& Verwer, J. Comput. Appl. Math. 88 (1998) 315-326; Verwer, Sommeijer &
Hundsdorfer, J. Comput. Phys. 201 (2004) 61-79).  An s-stage step is stable
for dt * rho <= beta(s) = (2/3)(s^2 - 1)(1 - 2 eps/15), rho the spectral
radius of the linearized right-hand side, so each attempt takes the fewest
s >= 2 with dt * rho_est <= cfl * beta(s): `cfl` is the safety fraction of
the stability interval, and dt itself is capped only by max_rel_step and by
the error controller.  The bound is rho_est = C_grid max(diffusion) /
(dtheta c)^2, with the grid's node spacing dtheta and stencil constant
C_grid (see `grid`).  The local error is estimated from the tendencies at
both ends of the step, 0.8 (u_n - u_{n+1}) + 0.4 dt (F_n + F_{n+1}), and
F_{n+1} is reused as the next step's F_n, so an attempt costs s geometry
calls.
Step sizes follow a PI controller (Gustafsson, ACM TOMS 17 (1991) 533-554;
Hairer & Wanner, Solving ODEs II, IV.2): with e = err/_STEP_TOL, an
accepted step proposes dt * clip(0.9 e_n^(-0.7/3) e_{n-1}^(0.4/3), 0.2, 2),
never above dt after a rejection within the step, and a step-error
rejection retries at dt * max(0.2, 0.9 e^(-1/3)).  A step is halved instead
when the flow's cone condition breaks, a tracked monotone quantity moves the
wrong way by more than eps_mono relative (the guard), the graph leaves the
ambient domain (DomainError), or a value turns non-finite; a persistent
wrong-way move is filed in FlowTrace.findings instead of being smoothed away.
Non-finite covers v and E_k of every stage and candidate surface (checked
by `geometry`), the step error, and the candidate's area weight, which the
guard's report reads first.  The principal curvatures are computed only
when read: by a sample's report (min_kappa, static_margin), and for k = 2
by rho_est of an accepted surface, never by a stage.  The cone is checked once per
evaluated surface, inside `speed`, whose ConeViolation names the first
node off the cone; an attempt files it as a cone rejection.  Every
attempt, its outcome and its stage count is kept in FlowTrace.attempts.

A sample is taken at each report time and once more when the run stops,
whatever the reason, unless the last sample lies within 1e-12 t_final of
it.  It reads the accepted state: in the r = 0 flows that state's fields,
the guard's report of it and its speed, so a sample costs no geometry or
speed call of its own.  Its report records the momenta at k = 1 and 2, every
k a flow accepts, and `FlowTrace.monotones` holds the flow's rows at both (their
functionals are in `inequalities`).  A row's wrong-way move since the last
sample, by the guard's test, and a relative Newton-MacLaurin margin below -1e-10
are findings too, in the guard's {t, quantity, old, new, note} form.

The tendency is projected onto the grid's band of spherical harmonics
(`SphereGrid.band_limit`, see `grid`), which sets C_grid.  In
the euclidean ambient the speeds above are 1-homogeneous in the graph and
expand a round sphere at the rate r (1/n for imcf, 1 for euclidean_inverse),
so the stored graph is w = u e^{-rt}, with the scale tracked in log space.
The stepped equation is the renormalized one, dw/dt = F(w) - r w, of which
every round sphere is a fixed point: the relative-step cap max |F(w)/w - r|
and the error estimate see only the departure from round growth, not the
growth itself.  The controller has no error yet before the first step, so
its first proposal is the cap with r = 0.  Physical values are
reconstructed at sample times.  Elsewhere r = 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .ambient import WarpedSpace
from .grid import SphereGrid
from .inequalities import STATEMENTS, phi_quermass, q_imcf, q_k
from .quantities import (
    QuantityReport,
    full_report,  # noqa: F401  rebound here by perfbench/tracer.py
    quermassintegrals,  # noqa: F401  rebound here by perfbench/tracer.py
    surface_integral,
)
from .surface import DomainError, GeometryFields, RadialGraph, geometry

__all__ = [
    "Flow",
    "FLOWS",
    "FlowSpec",
    "FlowTrace",
    "REJECTIONS",
    "TraceSample",
    "ConeViolation",
    "Monotone",
    "monotones",
    "speed",
    "evolve",
    "variational_check",
]

# relative local-error budget of a step
_STEP_TOL = 1e-8
# RKC2 damping eps (SSV98): away from z = 0 the stability polynomial stays
# below about 1 - eps/3 in modulus on the stability interval
_RKC_DAMPING = 2.0 / 13.0
# PI controller on e = err/_STEP_TOL: exponents over p + 1 = 3 for RKC2, the
# safety factor, the step-factor range, and the floor on e (e = 0 on a
# stationary flow)
_PI_EXPONENTS = (0.7 / 3, 0.4 / 3)
_SAFETY = 0.9
_MIN_FACTOR, _MAX_FACTOR = 0.2, 2.0
_MIN_E = 1e-4
# per step: guard halvings before a finding, cone/domain/non-finite halvings
# before the run stops, and rejections of any reason but the guard
_MAX_GUARD_HALVINGS = 20
_MAX_REJECTIONS = 40
# why a step attempt was rejected; "step_error" shrinks dt by the error,
# the others halve it
REJECTIONS = ("step_error", "cone", "guard", "domain", "non_finite")
_SPHERE_IMCF_MIN_H = 1e-3
# momentum exponents every trace sample records; they include every flow's k
_REPORT_KS = (1.0, 2.0)
# most report intervals, t_final / report_dt, in one run: each interval ends at
# least one accepted step and keeps a sample with its own copy of u (1e5 of
# them hold 6.6 GB at 64x128), and the stepper resolves no step below 1e-12 t_final
_MAX_REPORT_INTERVALS = 1e5
# least relative Newton-MacLaurin margin of a sample: rounding only
_MIN_NM_MARGIN = -1e-10


class ConeViolation(RuntimeError):
    """A flow speed was requested outside its admissible curvature cone."""


@dataclass(frozen=True)
class FlowSpec:
    """Flow selection plus stepping and monitoring parameters."""

    kind: str
    k: int = 1
    t_final: float = 1.0
    report_dt: float = 0.1
    cfl: float = 0.8              # safety fraction of the RKC stability interval
    max_rel_step: float = 1e-3
    eps_mono: float = 1e-6

    def validate(self, space: WarpedSpace, n: int) -> None:
        if self.kind not in FLOWS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if not 1 <= self.k <= n:
            raise ValueError(f"flow order k = {self.k} outside 1..{n}")
        row = STATEMENTS[FLOWS[self.kind].proves]
        if not row.admits(space):
            raise ValueError(f"{self.kind} flow requires the {row.ambient} ambient")
        if "k" not in row.options and self.k != n:
            raise ValueError(f"{self.kind} supports k = n = {n} only")
        if not (0 < self.t_final < math.inf and 0 < self.report_dt < math.inf):
            raise ValueError("t_final and report_dt must be positive and finite")
        if self.t_final / self.report_dt > _MAX_REPORT_INTERVALS:
            raise ValueError(f"t_final / report_dt = {self.t_final / self.report_dt:.3g} "
                             f"report intervals, above {_MAX_REPORT_INTERVALS:g}")
        if not (0 < self.cfl <= 1 and 0 < self.max_rel_step < math.inf
                and 0 < self.eps_mono < math.inf):
            raise ValueError("cfl must be in (0, 1], max_rel_step and eps_mono finite and > 0")


def _off_cone(spec: FlowSpec, fields: GeometryFields) -> tuple[str, np.ndarray] | None:
    """The first cone quantity of spec's flow that is not > 0 at every node,
    with its nodal values; None on the cone."""
    for quantity, values in FLOWS[spec.kind].cone(fields, spec.k):
        if not values.min() > 0:
            return quantity, values
    return None


def speed(spec: FlowSpec, fields: GeometryFields) -> np.ndarray:
    """Nodal normal speed of the chosen flow; raises ConeViolation off-cone."""
    off = _off_cone(spec, fields)
    if off is not None:
        quantity, values = off
        idx = int(np.argmax(~(values.ravel() > 0)))
        raise ConeViolation(f"{spec.kind}: cone condition {quantity} > 0 fails "
                            f"at {fields.grid.node_label(idx)}")
    return FLOWS[spec.kind].speed(fields, spec.k)


def _spectral_radius(spec: FlowSpec, fields: GeometryFields) -> float:
    """rho_est = C_grid max(diffusion) / (dtheta c)^2, a bound on the spectral
    radius of the linearized right-hand side projected onto degree <= L."""
    grid = fields.grid
    diffusion = float(np.max(FLOWS[spec.kind].diffusion(fields, spec.k)))
    return grid.stencil_constant * diffusion / (grid.spacing * grid.fiber_scale) ** 2


def _rkc_beta(s: int) -> float:
    """Length of the real stability interval of the s-stage damped RKC2 step."""
    return 2.0 / 3.0 * (s * s - 1) * (1.0 - 2.0 * _RKC_DAMPING / 15.0)


def _stage_count(dt: float, rho: float, cfl: float) -> int:
    """The fewest stages s >= 2 with dt * rho <= cfl * beta(s)."""
    need = dt * rho / cfl
    if not math.isfinite(need):
        raise FloatingPointError(f"stability bound dt * rho_est = {dt * rho}")
    # beta(s) = beta(2) (s^2 - 1) / 3; the loops settle the rounding of the root
    s = max(2, math.ceil(math.sqrt(1.0 + 3.0 * need / _rkc_beta(2))))
    while s > 2 and _rkc_beta(s - 1) >= need:
        s -= 1
    while _rkc_beta(s) < need:
        s += 1
    return s


@cache
def _rkc_coefficients(s: int) -> tuple[tuple[float, ...], ...]:
    """(mu, nu, mu~, gamma~) of the s-stage damped RKC2 step, indexed by stage
    j = 0..s (SSV98), from the Chebyshev recursions for T_j, T_j', T_j'' at w0."""
    w0 = 1.0 + _RKC_DAMPING / s**2
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for _ in range(2, s + 1):
        T.append(2.0 * w0 * T[-1] - T[-2])
        dT.append(2.0 * T[-2] + 2.0 * w0 * dT[-1] - dT[-2])
        ddT.append(4.0 * dT[-2] + 2.0 * w0 * ddT[-1] - ddT[-2])
    w1 = dT[s] / ddT[s]
    b = [ddT[j] / dT[j] ** 2 if j >= 2 else 0.0 for j in range(s + 1)]
    b[0] = b[1] = b[2]
    mu, nu, mu_t, gamma_t = [0.0] * (s + 1), [0.0] * (s + 1), [0.0] * (s + 1), [0.0] * (s + 1)
    mu_t[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = 2.0 * w0 * b[j] / b[j - 1]
        nu[j] = -b[j] / b[j - 2]
        mu_t[j] = 2.0 * w1 * b[j] / b[j - 1]
        gamma_t[j] = -(1.0 - b[j - 1] * T[j - 1]) * mu_t[j]
    return tuple(mu), tuple(nu), tuple(mu_t), tuple(gamma_t)


def _rkc_step(u: np.ndarray, F0: np.ndarray, dt: float, s: int,
              rhs: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """u advanced by one s-stage RKC2 step of du/dt = rhs(u), F0 = rhs(u);
    calls rhs s - 1 times."""
    mu, nu, mu_t, gamma_t = _rkc_coefficients(s)
    y_prev, y = u, u + mu_t[1] * dt * F0
    for j in range(2, s + 1):
        y_prev, y = y, ((1.0 - mu[j] - nu[j]) * u + mu[j] * y + nu[j] * y_prev
                        + mu_t[j] * dt * rhs(y) + gamma_t[j] * dt * F0)
    return y


def _dt_bound(spec: FlowSpec, fields: GeometryFields, f: np.ndarray, r: float) -> float:
    """The relative-step cap: no node of the graph renormalized at the rate r
    moves by more than max_rel_step of its radius."""
    rate = float(np.max(np.abs(f * fields.v / fields.u - r)))
    return spec.max_rel_step / rate if rate > 0 else math.inf


@dataclass(frozen=True)
class Monotone:
    """One quantity that a flow moves in one direction; `value` reads a
    QuantityReport, `label` names the evolve trace column."""

    name: str
    direction: int               # -1 nonincreasing along the flow, +1 nondecreasing
    value: Callable
    label: str | None = None     # None: the name

    def wrong_way(self, old, new, eps: float):
        """Whether old -> new moves against the direction by more than eps relative."""
        scale = np.maximum(np.maximum(np.abs(old), np.abs(new)), 1e-300)
        return self.direction * (new - old) < -eps * scale


def _phi_quermass_row(k: int, label: str) -> Monotone:
    return Monotone(f"phiE{k}_plus_{k}W{k - 1}", -1, lambda r: phi_quermass(r, k), label)


@dataclass(frozen=True)
class Flow:
    """What one flow kind is.  The callables take (fields, k) unless noted;
    speed, the step guard, the start check and the stage count all read it."""

    proves: str              # its STATEMENTS row: the ambient, and k = n if it has no k
    start_class: str         # the cone named for a user, formatted with k
    cone: Callable           # -> [(quantity, nodal values that must be > 0)]
    speed: Callable          # -> nodal normal speed, on the cone
    diffusion: Callable      # -> nodal |df/dkappa_i| / lambda^2, for rho_est
    monotones: Callable      # (k, ks) -> [Monotone]; ks: imcf exponents
    euclidean_growth: Callable = lambda n: 0.0   # round-sphere growth rate of u


def _ratio_cone(f: GeometryFields, k: int) -> list:
    """The cone of E_{k-1}/E_k: E_k > 0, and E_{k-1} > 0 for k >= 2."""
    return [(f"E_{k}", f.E[k])] + ([(f"E_{k - 1}", f.E[k - 1])] if k >= 2 else [])


def _ratio_diffusion(f: GeometryFields, k: int) -> np.ndarray:
    """Nodal bound on |d(E_{k-1}/E_k)/dkappa_i|."""
    if k == 1:
        return (1.0 / f.n) / f.E[1] ** 2
    # n = 2, k = 2: E_1/E_2 = (1/kappa_1 + 1/kappa_2)/2
    return 0.5 / np.min(np.abs(f.kappa), axis=0) ** 2


FLOWS = {
    "imcf": Flow(
        proves="boundary-momentum", start_class="mean convex",
        cone=lambda f, k: [("H", f.H)],
        speed=lambda f, k: 1.0 / f.H,
        diffusion=lambda f, k: 1.0 / (f.H**2 * f.lam**2 * f.v**2),
        monotones=lambda k, ks: [
            Monotone(f"Q_imcf_{j:g}", -1, lambda r, j=j: q_imcf(r, j)) for j in ks],
        euclidean_growth=lambda n: 1.0 / n),
    "euclidean_inverse": Flow(
        proves="phi-quermass", start_class="{k}-convex",
        cone=_ratio_cone,
        speed=lambda f, k: f.E[k - 1] / f.E[k],
        diffusion=lambda f, k: _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda k, ks: [
            Monotone(f"Qk_euclid_{k}", -1, lambda r: q_k(r, k))],
        euclidean_growth=lambda n: 1.0),
    "hyperbolic_sx": Flow(
        proves="hyperbolic-ref", start_class="{k}-convex",
        cone=lambda f, k: _ratio_cone(f, k) + [("lambda'", f.dlam)],
        speed=lambda f, k: f.E[k - 1] / f.E[k] - f.support / f.dlam,
        diffusion=lambda f, k: _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda k, ks: [
            _phi_quermass_row(k, "monotone_hyp_lhs"),
            *(Monotone(f"W_{ell}", +1, lambda r, ell=ell: r.W(ell), f"monotone_hyp_W_{ell}")
              for ell in (0, 1))]),
    "sphere_bgl": Flow(
        proves="sphere-ref", start_class="strictly convex",
        cone=_ratio_cone,
        speed=lambda f, k: f.dlam * (f.E[k - 1] / f.E[k]) - f.support,
        diffusion=lambda f, k: f.dlam * _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda k, ks: [_phi_quermass_row(k, "monotone_sph_lhs")]),
}


def monotones(spec: FlowSpec, ks=None) -> list[Monotone]:
    """The monotone quantities of spec's flow; imcf tracks ks (default spec.k)
    and hyperbolic_sx the quermassintegrals W_0 and W_1."""
    ks = (float(spec.k),) if ks is None else tuple(ks)
    return FLOWS[spec.kind].monotones(spec.k, ks)


@dataclass(frozen=True)
class TraceSample:
    """State and integrals recorded at one report time."""

    t: float
    u: np.ndarray                 # physical nodal radii
    report: QuantityReport        # detached: numbers only
    max_speed: float
    dt: float


@dataclass
class FlowTrace:
    """Time series of one flow run, with the space, spec and grid it ran on."""

    space: WarpedSpace
    spec: FlowSpec
    grid: SphereGrid
    samples: list[TraceSample] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)
    termination: tuple = ("reached_t_final",)
    # (t, dt, outcome, stages) per step attempt; outcome "accepted" or a
    # REJECTIONS reason, stages the RKC stage count (0: none was chosen)
    attempts: list[tuple[float, float, str, int]] = field(default_factory=list)
    geometry_calls: int = 0

    def step_counts(self) -> dict:
        """Accepted steps, rejections by reason, geometry calls, RKC stages over
        all attempts and their maximum, accepted dt range."""
        outcomes = Counter(outcome for _, _, outcome, _ in self.attempts)
        stages = [s for _, _, _, s in self.attempts]
        dts = [dt for _, dt, outcome, _ in self.attempts if outcome == "accepted"]
        return {"accepted": outcomes["accepted"],
                "rejected": {reason: outcomes[reason] for reason in REJECTIONS},
                "geometry_calls": self.geometry_calls,
                "stages_total": sum(stages), "stages_max": max(stages, default=0),
                "dt_min": min(dts, default=None), "dt_max": max(dts, default=None)}

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def monotones(self) -> list[Monotone]:
        """The flow's monotone rows at the momentum exponents every sample records."""
        return monotones(self.spec, _REPORT_KS)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def quermass_series(self, k: int) -> np.ndarray:
        return np.array([s.report.W(k) for s in self.samples])

    def sample_graph(self, i: int) -> RadialGraph:
        return RadialGraph(grid=self.grid, u=self.samples[i].u)


def evolve(space: WarpedSpace, graph0: RadialGraph, spec: FlowSpec) -> FlowTrace:
    """Run the flow with adaptive explicit stepping and monotonicity guards."""
    grid = graph0.grid
    n = grid.n
    spec.validate(space, n)
    flow = FLOWS[spec.kind]
    trace = FlowTrace(space=space, spec=spec, grid=grid)

    def geom(g: RadialGraph) -> GeometryFields:
        trace.geometry_calls += 1
        return geometry(space, g)

    fields = geom(graph0)
    off = _off_cone(spec, fields)
    if off is not None:
        quantity, values = off
        raise ValueError(f"inadmissible initial surface: {spec.kind} needs a "
                         f"{flow.start_class.format(k=spec.k)} start, "
                         f"min {quantity} = {values.min():.3e}")

    renorm_rate = flow.euclidean_growth(n) if space.kind == "euclidean" else 0.0

    def tendency(flds: GeometryFields, f: np.ndarray) -> np.ndarray:
        """The stepped right-hand side at a graph with fields flds and speed f."""
        F = grid.band_limit(f * flds.v)
        return F - renorm_rate * flds.u if renorm_rate else F

    def rhs(u_arr: np.ndarray) -> np.ndarray:
        flds = geom(RadialGraph(grid=grid, u=u_arr))
        return tendency(flds, speed(spec, flds))

    def record(dt_used: float) -> None:
        """Sample the accepted state unless the last sample lies within eps_t;
        the renormalized flows evaluate the physical-scale graph."""
        if trace.samples and t <= trace.samples[-1].t + eps_t:
            return
        if renorm_rate:
            g_phys = RadialGraph(grid=grid, u=u * math.exp(log_scale))
            flds = geom(g_phys)
            live, f_speed = QuantityReport(space, g_phys, flds), speed(spec, flds)
        else:
            flds, live, f_speed = fields, report, f_now
        sample = TraceSample(t=t, u=flds.u.copy(), report=live.detach(_REPORT_KS),
                             max_speed=float(np.max(np.abs(f_speed))), dt=dt_used)
        for m in trace.monotones if trace.samples else ():
            old, new = m.value(trace.samples[-1].report), m.value(sample.report)
            if m.wrong_way(old, new, spec.eps_mono):
                trace.findings.append({"t": t, "quantity": m.name, "old": old, "new": new,
                                       "note": "wrong-way move since the last sample"})
        margin = sample.report.newton_maclaurin_margin
        if margin is not None and margin < _MIN_NM_MARGIN:
            trace.findings.append({"t": t, "quantity": "newton_maclaurin_margin", "old": None,
                                   "new": margin, "note": f"sign check: below {_MIN_NM_MARGIN:g}"})
        trace.samples.append(sample)

    def stop(termination: tuple, dt_used: float) -> FlowTrace:
        trace.termination = termination
        record(dt_used)
        return trace

    # evaluated on the stored graph: the renormalized euclidean flows have
    # scale-invariant monotone quantities only
    guard = monotones(spec)

    def guarded(g: RadialGraph, flds: GeometryFields) -> tuple[QuantityReport, list[float]]:
        """A report of g and the guard's values read from it."""
        rep = QuantityReport(space, g, flds)
        return rep, [m.value(rep) for m in guard]

    u = graph0.u.copy()
    log_scale = 0.0
    t = 0.0
    report, monitors = guarded(graph0, fields)
    f_now = speed(spec, fields)
    eps_t = 1e-12 * spec.t_final
    record(0.0)

    F0 = tendency(fields, f_now)
    # the controller's proposal for the next step; the first is the cap with
    # r = 0, which the first step's stages and error resolve
    dt_ctrl = _dt_bound(spec, fields, f_now, 0.0)
    e_prev = 1.0             # the scaled error of the last step the controller saw
    next_report = min(spec.report_dt, spec.t_final)

    while t < spec.t_final - eps_t:
        dt_base = min(_dt_bound(spec, fields, f_now, renorm_rate), dt_ctrl)
        dt = min(dt_base, next_report - t)
        rho = _spectral_radius(spec, fields)
        rejections = 0           # step error, cone, domain and non-finite
        halvings = 0             # cone, domain and non-finite
        guard_halvings = 0
        reason = detail = None
        while True:
            if dt < eps_t or rejections > _MAX_REJECTIONS:
                return stop(("step_underflow", t, reason), dt)
            reason = None
            stages = 0
            try:
                stages = _stage_count(dt, rho, spec.cfl)
                u_cand = _rkc_step(u, F0, dt, stages, rhs)
                graph_cand = RadialGraph(grid=grid, u=u_cand)
                fields_cand = geom(graph_cand)
                f_cand = speed(spec, fields_cand)
                F_cand = tendency(fields_cand, f_cand)
                est = 0.8 * (u - u_cand) + 0.4 * dt * (F0 + F_cand)
                err = float(np.max(np.abs(est))) / max(float(np.max(np.abs(u))), 1e-300)
                if not math.isfinite(err):
                    reason, detail = "non_finite", f"step error {err}"
                elif err > _STEP_TOL:
                    reason = "step_error"
                else:
                    # the guard's report is the first reader of the area weight
                    report_cand, monitors_cand = guarded(graph_cand, fields_cand)
            except ConeViolation as exc:
                reason, detail = "cone", str(exc)
            except DomainError as exc:
                reason, detail = "domain", str(exc)
            except FloatingPointError as exc:
                reason, detail = "non_finite", str(exc)

            if reason is None:
                bad = next((i for i, m in enumerate(guard)
                            if m.wrong_way(monitors[i], monitors_cand[i], spec.eps_mono)), None)
                if bad is None or guard_halvings == _MAX_GUARD_HALVINGS:
                    break
                reason = "guard"
            trace.attempts.append((t, dt, reason, stages))
            if reason == "guard":
                guard_halvings += 1
                dt *= 0.5
                continue
            rejections += 1
            if reason == "step_error":
                dt *= max(_MIN_FACTOR, _SAFETY * (err / _STEP_TOL) ** (-1 / 3))
                continue
            halvings += 1
            if halvings > _MAX_GUARD_HALVINGS:
                return stop((f"{reason}_violation", t,
                             f"{spec.kind}: {reason} failure after {halvings} halvings: "
                             f"{detail}"), dt)
            dt *= 0.5

        if bad is not None:
            trace.findings.append({
                "t": t + dt, "quantity": guard[bad].name,
                "old": monitors[bad], "new": monitors_cand[bad],
                "note": "persistent wrong-way move after halvings",
            })
        trace.attempts.append((t, dt, "accepted", stages))
        e = max(err / _STEP_TOL, _MIN_E)
        factor = min(max(_SAFETY * e ** -_PI_EXPONENTS[0] * e_prev ** _PI_EXPONENTS[1],
                         _MIN_FACTOR), _MAX_FACTOR)
        if rejections or guard_halvings:
            dt_ctrl, e_prev = dt * min(factor, 1.0), e
        elif dt == dt_base:
            dt_ctrl, e_prev = dt * factor, e
        # else a clean step clipped to a report time: it must not throttle the next

        t += dt
        u = u_cand
        if renorm_rate:
            log_scale += renorm_rate * dt
        fields, report, monitors = fields_cand, report_cand, monitors_cand
        f_now, F0 = f_cand, F_cand

        if t >= next_report - eps_t:
            record(dt)
            next_report = min(next_report + spec.report_dt, spec.t_final)

        if (spec.kind == "imcf" and space.kind == "sphere"
                and float(fields.H.min()) <= _SPHERE_IMCF_MIN_H):
            return stop(("equator_stop", t), dt)

    return stop(("reached_t_final",), dt)


def variational_check(trace: FlowTrace, k: int) -> float:
    """Max relative residual of dW_k/dt against int f E_k dmu over the trace,
    f the speed of the trace's own flow.

    Uses centered differences across samples.  For k = n the same stencil is
    also checked against the weighted-curvature evolution identity
    d/dt (int Phi E_n + n W_{n-1}) = int (n+1) u_s E_n f dmu.
    """
    space, spec, n = trace.space, trace.spec, trace.n
    if not space.is_space_form:
        raise ValueError("variational check needs a space-form ambient")
    if len(trace.samples) < 3:
        raise ValueError("need at least 3 trace samples")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")

    times = trace.times
    Wk = trace.quermass_series(k)
    if k == n:
        lhs_series = np.array([phi_quermass(s.report, n) for s in trace.samples])

    worst = 0.0
    for i in range(1, len(times) - 1):
        flds = geometry(space, trace.sample_graph(i))
        f = speed(spec, flds)
        dt2 = times[i + 1] - times[i - 1]
        dW = (Wk[i + 1] - Wk[i - 1]) / dt2
        flux = surface_integral(flds, f * flds.E[k])
        worst = max(worst, abs(dW - flux) / max(abs(dW), abs(flux), 1e-300))
        if k == n:
            dL = (lhs_series[i + 1] - lhs_series[i - 1]) / dt2
            fluxL = surface_integral(flds, (n + 1) * flds.support * flds.E[n] * f)
            worst = max(worst, abs(dL - fluxL) / max(abs(dL), abs(fluxL), 1e-300))
    return worst
