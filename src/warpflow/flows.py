"""Inverse-curvature-type flows of radial graphs.

Normal speeds on the menu:

    imcf               f = 1/H                      (any ambient)
    euclidean_inverse  f = E_{k-1}/E_k              (euclidean)
    hyperbolic_sx      f = E_{k-1}/E_k - u_s/lambda'   (hyperbolic)
    sphere_bgl         f = lambda' E_{k-1}/E_k - u_s   (sphere, k = n)

The graph equation is du/dt = f v, the standard conversion of a normal
speed through <d_r, nu> = 1/v.  Stepping is explicit Heun with step-doubling
error control; a step is also rejected and halved when the flow's cone
condition breaks or a tracked monotone quantity moves the wrong way by more
than eps_mono relative, and a persistent wrong-way move is recorded as a
finding instead of being smoothed away.

Two stabilization details beyond the plain scheme:

* On the lat-lon grid the phi modes near the poles carry metric frequencies
  of order (P/2)/sin(theta), far above the colatitude resolution, and any
  explicit step that respects the colatitude CFL is unstable for them.  The
  tendency is therefore passed through a ring-wise longitude filter with
  cutoff (P/2) sin(theta), standard practice for global spectral grids; for
  smooth graphs the removed content is far below truncation error.

* In the euclidean ambient the speeds above are 1-homogeneous in the graph,
  so the stored graph is renormalized by the round-sphere growth factor with
  the scale tracked in log space, keeping the nodal values O(1) on long
  runs.  Physical values are reconstructed at sample times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .ambient import WarpedSpace
from .grid import SphereGrid
from .quantities import (
    QuantityReport,
    _gamma_term,
    full_report,
    quermassintegrals,
    surface_integral,
    weighted_volume,
)
from .surface import (
    ClassReport,
    GeometryFields,
    RadialGraph,
    convexity_class,
    geometry,
)

__all__ = [
    "Flow",
    "FLOWS",
    "FlowSpec",
    "FlowTrace",
    "TraceSample",
    "ConeViolation",
    "LazyReport",
    "Monotone",
    "monotones",
    "speed",
    "step",
    "evolve",
    "variational_check",
]

# relative local-error budget for the step-doubling pair
_STEP_TOL = 1e-8
_MAX_GUARD_HALVINGS = 20
_MAX_TOTAL_HALVINGS = 40
_SPHERE_IMCF_MIN_H = 1e-3


class ConeViolation(RuntimeError):
    """A flow speed was requested outside its admissible curvature cone."""


@dataclass(frozen=True)
class FlowSpec:
    """Flow selection plus stepping and monitoring parameters."""

    kind: str
    k: int = 1
    t_final: float = 1.0
    report_dt: float = 0.1
    cfl: float = 0.2
    max_rel_step: float = 1e-3
    eps_mono: float = 1e-6
    report_ks: tuple[float, ...] = (1.0, 2.0)

    def validate(self, space: WarpedSpace, n: int) -> None:
        if self.kind not in FLOWS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if not 1 <= self.k <= n:
            raise ValueError(f"flow order k = {self.k} outside 1..{n}")
        flow = FLOWS[self.kind]
        if flow.ambient not in (None, space.kind):
            raise ValueError(f"{self.kind} flow requires the {flow.ambient} ambient")
        if flow.top_order_only and self.k != n:
            raise ValueError(f"{self.kind} supports k = n = {n} only")
        if self.t_final <= 0 or self.report_dt <= 0:
            raise ValueError("t_final and report_dt must be positive")
        if not 0 < self.cfl <= 1 or self.max_rel_step <= 0 or self.eps_mono <= 0:
            raise ValueError("cfl must be in (0, 1], max_rel_step and eps_mono positive")


def _off_cone(spec: FlowSpec, fields: GeometryFields) -> tuple[str, np.ndarray] | None:
    """The first cone quantity of spec's flow that is not > 0 at every node,
    with its nodal values; None on the cone."""
    for quantity, values in FLOWS[spec.kind].cone(fields, spec.k):
        if not values.min() > 0:
            return quantity, values
    return None


def speed(spec: FlowSpec, space: WarpedSpace, fields: GeometryFields) -> np.ndarray:
    """Nodal normal speed of the chosen flow; raises ConeViolation off-cone."""
    off = _off_cone(spec, fields)
    if off is not None:
        quantity, values = off
        idx = int(np.argmax(~(values.ravel() > 0)))
        raise ConeViolation(f"{spec.kind}: cone condition {quantity} > 0 fails "
                            f"at {fields.grid.node_label(idx)}")
    return FLOWS[spec.kind].speed(fields, spec.k)


def step(space: WarpedSpace, graph: RadialGraph, spec: FlowSpec, dt: float) -> RadialGraph:
    """One forward-Euler graph update u <- u + dt f v."""
    fields = geometry(space, graph)
    f = speed(spec, space, fields)
    return graph.with_values(graph.u + dt * f * fields.v)


def _make_polar_filter(grid: SphereGrid):
    """Ring-wise longitude filter with cutoff ~ (P/2) sin(theta)."""
    if grid.n == 1:
        return lambda F: F
    M, P = grid.shape
    mcut = np.maximum(4, np.floor(0.5 * P * np.sin(grid.theta))).astype(int)
    m = np.arange(P // 2 + 1)
    mask = (m[None, :] <= mcut[:, None]).astype(float)

    def apply(F: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(F, axis=1) * mask, n=P, axis=1)

    return apply


def _dt_bound(spec: FlowSpec, space: WarpedSpace, fields: GeometryFields,
              f: np.ndarray) -> float:
    """Proposal dt = min(CFL on the metric spacing, relative-step cap)."""
    grid = fields.grid
    dtheta = (np.pi / grid.shape[0]) if grid.n == 2 else (2.0 * np.pi / grid.shape[0])
    h_geo = float(fields.lam.min()) * dtheta * grid.fiber_scale
    diffusion = float(np.max(FLOWS[spec.kind].diffusion(fields, spec.k)))
    dt_cfl = spec.cfl * h_geo**2 / diffusion
    rate = float(np.max(np.abs(f) * fields.v / fields.u))
    dt_cap = spec.max_rel_step / rate if rate > 0 else math.inf
    return min(dt_cfl, dt_cap)


class LazyReport:
    """QuantityReport's accessors over one surface, each integral computed when
    asked, so the step guard pays only for what its rows read; quermassintegrals
    run at most once."""

    def __init__(self, space: WarpedSpace, graph: RadialGraph, fields: GeometryFields):
        self.space, self.graph, self.fields = space, graph, fields
        self.area = fields.area

    def momentum(self, k: float) -> float:
        return surface_integral(self.fields, self.fields.lam**k)

    def weighted_vol(self, k: float) -> float:
        return weighted_volume(self.space, self.graph, k)

    def gamma_term(self, k: float) -> float:
        return _gamma_term(self.space, self.fields.n, k)

    @cached_property
    def quermass(self) -> np.ndarray:
        return quermassintegrals(self.space, self.graph, self.fields)[0]

    def W(self, k: int) -> float:
        return float(self.quermass[k])

    def phi_curvature(self, k: int) -> float:
        return surface_integral(self.fields, self.space.phi(self.graph.u) * self.fields.E[k])


def q_imcf_value(n: int, k: float) -> Callable:
    """|Sigma|^{-(n+k)/n} (int lambda^k dmu - k int lambda^{k-1} lambda' dv
                          - k/(n+k) lambda^k(a) |Gamma|) of a report."""
    return lambda r: r.area ** (-(n + k) / n) * (
        r.momentum(k) - k * r.weighted_vol(k) - k / (n + k) * r.gamma_term(k))


def phi_quermass_value(k: int) -> Callable:
    """int Phi E_k dmu + k W_{k-1} of a report."""
    return lambda r: r.phi_curvature(k) + k * r.W(k - 1)


def q_k_value(n: int, k: int) -> Callable:
    """W_k^{-(n+2-k)/(n+1-k)} (int Phi E_k dmu + k W_{k-1}) of a report."""
    lhs = phi_quermass_value(k)
    return lambda r: r.W(k) ** (-(n + 2 - k) / (n + 1 - k)) * lhs(r)


@dataclass(frozen=True)
class Monotone:
    """One quantity that a flow moves in one direction; `value` reads a
    QuantityReport or a LazyReport, `label` names the evolve trace column."""

    name: str
    direction: int               # -1 nonincreasing along the flow, +1 nondecreasing
    value: Callable
    label: str | None = None     # None: the name

    def wrong_way(self, old, new, eps: float):
        """Whether old -> new moves against the direction by more than eps relative."""
        scale = np.maximum(np.maximum(np.abs(old), np.abs(new)), 1e-300)
        return self.direction * (new - old) < -eps * scale


def _phi_quermass_row(k: int, label: str) -> Monotone:
    return Monotone(f"phiE{k}_plus_{k}W{k - 1}", -1, phi_quermass_value(k), label)


@dataclass(frozen=True)
class Flow:
    """What one flow kind is.  The callables take (fields, k) unless noted;
    speed, the step guard, the start check and the CFL bound all read it."""

    ambient: str | None      # the space kind the flow needs; None: any
    start_class: str         # the cone named for a user, formatted with k
    cone: Callable           # -> [(quantity, nodal values that must be > 0)]
    speed: Callable          # -> nodal normal speed, on the cone
    diffusion: Callable      # -> nodal |df/dkappa_i| / lambda^2, for the CFL bound
    monotones: Callable      # (n, k, ks, ells) -> [Monotone]; ks: imcf exponents,
                             # ells: hyperbolic quermassintegrals to track
    euclidean_growth: Callable = lambda n: 0.0   # round-sphere growth rate of u
    top_order_only: bool = False                 # k = n only


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
        ambient=None, start_class="mean convex",
        cone=lambda f, k: [("H", f.H)],
        speed=lambda f, k: 1.0 / f.H,
        diffusion=lambda f, k: 1.0 / (f.H**2 * f.lam**2 * f.v**2),
        monotones=lambda n, k, ks, ells: [
            Monotone(f"Q_imcf_{j:g}", -1, q_imcf_value(n, j)) for j in ks],
        euclidean_growth=lambda n: 1.0 / n),
    "euclidean_inverse": Flow(
        ambient="euclidean", start_class="{k}-convex",
        cone=_ratio_cone,
        speed=lambda f, k: f.E[k - 1] / f.E[k],
        diffusion=lambda f, k: _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda n, k, ks, ells: [
            Monotone(f"Qk_euclid_{k}", -1, q_k_value(n, k))],
        euclidean_growth=lambda n: 1.0),
    "hyperbolic_sx": Flow(
        ambient="hyperbolic", start_class="{k}-convex",
        cone=lambda f, k: _ratio_cone(f, k) + [("lambda'", f.dlam)],
        speed=lambda f, k: f.E[k - 1] / f.E[k] - f.support / f.dlam,
        diffusion=lambda f, k: _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda n, k, ks, ells: [
            _phi_quermass_row(k, "monotone_hyp_lhs"),
            *(Monotone(f"W_{ell}", +1, lambda r, ell=ell: r.W(ell), f"monotone_hyp_W_{ell}")
              for ell in ells)]),
    "sphere_bgl": Flow(
        ambient="sphere", start_class="strictly convex",
        cone=_ratio_cone,
        speed=lambda f, k: f.dlam * (f.E[k - 1] / f.E[k]) - f.support,
        diffusion=lambda f, k: f.dlam * _ratio_diffusion(f, k) / f.lam**2,
        monotones=lambda n, k, ks, ells: [_phi_quermass_row(k, "monotone_sph_lhs")],
        top_order_only=True),
}


def monotones(spec: FlowSpec, n: int, ks=None, ells=(0, 1)) -> list[Monotone]:
    """The monotone quantities of spec's flow; imcf tracks ks (default spec.k)."""
    ks = (float(spec.k),) if ks is None else tuple(ks)
    return FLOWS[spec.kind].monotones(n, spec.k, ks, ells)


@dataclass(frozen=True)
class TraceSample:
    """State and integrals recorded at one report time."""

    t: float
    u: np.ndarray                 # physical nodal radii
    report: QuantityReport
    class_report: ClassReport
    max_speed: float
    dt: float
    newton_maclaurin_margin: float | None   # min(E_k^2 - E_{k+1} E_{k-1}), n >= 2


@dataclass
class FlowTrace:
    """Time series of one flow run."""

    space_kind: str
    n: int
    spec: FlowSpec
    grid: SphereGrid
    samples: list[TraceSample] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)
    termination: tuple = ("reached_t_final",)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def quermass_series(self, k: int) -> np.ndarray:
        return np.array([s.report.W(k) for s in self.samples])

    def sample_graph(self, i: int) -> RadialGraph:
        return RadialGraph(grid=self.grid, u=self.samples[i].u,
                           space_kind=self.space_kind)


def evolve(space: WarpedSpace, graph0: RadialGraph, spec: FlowSpec) -> FlowTrace:
    """Run the flow with adaptive explicit stepping and monotonicity guards."""
    grid = graph0.grid
    n = grid.n
    spec.validate(space, n)
    flow = FLOWS[spec.kind]

    fields0 = geometry(space, graph0)
    off = _off_cone(spec, fields0)
    if off is not None:
        quantity, values = off
        raise ValueError(f"inadmissible initial surface: {spec.kind} needs a "
                         f"{flow.start_class.format(k=spec.k)} start, "
                         f"min {quantity} = {values.min():.3e}")

    renorm_rate = flow.euclidean_growth(n) if space.kind == "euclidean" else 0.0

    polar_filter = _make_polar_filter(grid)
    trace = FlowTrace(space_kind=space.kind, n=n, spec=spec, grid=grid)
    report_ks = tuple(sorted(set(map(float, spec.report_ks)) | {float(spec.k)}))

    def rhs(u_arr: np.ndarray) -> np.ndarray:
        g = RadialGraph(grid=grid, u=u_arr, space_kind=space.kind)
        flds = geometry(space, g)
        return polar_filter(speed(spec, space, flds) * flds.v)

    def record(t: float, u_arr: np.ndarray, log_scale: float, dt_used: float,
               flds: GeometryFields) -> None:
        """Sample the state u_arr; flds are its fields, reused unless renormalized."""
        if trace.samples and t <= trace.samples[-1].t + 1e-15 * spec.t_final:
            return
        u_phys = u_arr * math.exp(log_scale) if renorm_rate else u_arr
        g_phys = RadialGraph(grid=grid, u=u_phys, space_kind=space.kind)
        f_phys = geometry(space, g_phys) if renorm_rate else flds
        rep = full_report(space, g_phys, ks=report_ks, fields=f_phys)
        cls = convexity_class(f_phys, space, g_phys, spec.k)
        f_speed = speed(spec, space, f_phys)
        E = f_phys.E
        margin = (min(float((E[j]**2 - E[j + 1] * E[j - 1]).min()) for j in range(1, n))
                  if n >= 2 else None)
        trace.samples.append(TraceSample(
            t=t, u=u_phys.copy(), report=rep,
            class_report=cls, max_speed=float(np.max(np.abs(f_speed))),
            dt=dt_used, newton_maclaurin_margin=margin,
        ))

    # evaluated on the stored graph: the renormalized euclidean flows have
    # scale-invariant monotone quantities only
    guard = monotones(spec, n)

    def guard_values(g: RadialGraph, flds: GeometryFields) -> list[float]:
        lazy = LazyReport(space, g, flds)
        return [m.value(lazy) for m in guard]

    u = graph0.u.copy()
    log_scale = 0.0
    t = 0.0
    record(0.0, u, 0.0, 0.0, fields0)

    fields = fields0
    graph = graph0
    f_now = speed(spec, space, fields)
    F0 = polar_filter(f_now * fields.v)
    monitors = guard_values(graph, fields)
    dt_prev = math.inf
    eps_t = 1e-12 * spec.t_final
    next_report = min(spec.report_dt, spec.t_final)

    while t < spec.t_final - eps_t:
        dt_base = min(_dt_bound(spec, space, fields, f_now), 2.0 * dt_prev)
        dt = min(dt_base, next_report - t)
        halvings = 0
        guard_halvings = 0
        while True:
            if dt < 1e-12 * spec.t_final:
                trace.termination = ("step_underflow", t)
                record(t, u, log_scale, dt, fields)
                return trace
            accept = True
            reason = None
            try:
                # Heun pair: one full step against two half steps
                f1 = rhs(u + dt * F0)
                u_full = u + 0.5 * dt * (F0 + f1)
                f2 = rhs(u + 0.5 * dt * F0)
                u_half = u + 0.25 * dt * (F0 + f2)
                f3 = rhs(u_half)
                f4 = rhs(u_half + 0.5 * dt * f3)
                u_cand = u_half + 0.25 * dt * (f3 + f4)
                err = float(np.max(np.abs(u_full - u_cand))) / max(
                    float(np.max(np.abs(u))), 1e-300)
                if err > _STEP_TOL:
                    accept, reason = False, "step error"
                else:
                    if renorm_rate:
                        u_cand = u_cand * math.exp(-renorm_rate * dt)
                    graph_cand = RadialGraph(grid=grid, u=u_cand, space_kind=space.kind)
                    fields_cand = geometry(space, graph_cand)
                    if _off_cone(spec, fields_cand) is not None:
                        accept, reason = False, "cone"
            except (ConeViolation, ValueError, FloatingPointError):
                accept, reason = False, "cone"

            if not accept:
                halvings += 1
                if reason == "cone" and halvings > _MAX_GUARD_HALVINGS:
                    trace.termination = ("cone_violation", t,
                                         f"{spec.kind} cone lost after {halvings} halvings")
                    record(t, u, log_scale, dt, fields)
                    return trace
                if halvings > _MAX_TOTAL_HALVINGS:
                    trace.termination = ("step_underflow", t)
                    record(t, u, log_scale, dt, fields)
                    return trace
                dt *= 0.5
                continue

            monitors_cand = guard_values(graph_cand, fields_cand)
            bad = next((i for i, m in enumerate(guard)
                        if m.wrong_way(monitors[i], monitors_cand[i], spec.eps_mono)), None)
            if bad is not None and guard_halvings < _MAX_GUARD_HALVINGS:
                guard_halvings += 1
                dt *= 0.5
                continue
            if bad is not None:
                trace.findings.append({
                    "t": t + dt, "quantity": guard[bad].name,
                    "old": monitors[bad], "new": monitors_cand[bad],
                    "note": "persistent wrong-way move after halvings",
                })
            break

        t += dt
        u = u_cand
        if renorm_rate:
            log_scale += renorm_rate * dt
        graph, fields, monitors = graph_cand, fields_cand, monitors_cand
        f_now = speed(spec, space, fields)
        F0 = polar_filter(f_now * fields.v)
        # a report-time clip should not throttle the next step; a halving should
        dt_prev = dt if (halvings or guard_halvings) else dt_base

        if t >= next_report - eps_t:
            record(t, u, log_scale, dt, fields)
            next_report = min(next_report + spec.report_dt, spec.t_final)

        if (spec.kind == "imcf" and space.kind == "sphere"
                and float(fields.H.min()) <= _SPHERE_IMCF_MIN_H):
            trace.termination = ("equator_stop", t)
            if trace.samples[-1].t < t - eps_t:
                record(t, u, log_scale, dt, fields)
            return trace

    trace.termination = ("reached_t_final",)
    if trace.samples[-1].t < spec.t_final - eps_t:
        record(t, u, log_scale, dt_prev, fields)
    return trace


def variational_check(space: WarpedSpace, trace: FlowTrace, spec: FlowSpec,
                      k: int) -> float:
    """Max relative residual of dW_k/dt against int f E_k dmu over the trace.

    Uses centered differences across samples.  For k = n the same stencil is
    also checked against the weighted-curvature evolution identity
    d/dt (int Phi E_n + n W_{n-1}) = int (n+1) u_s E_n f dmu.
    """
    if not space.is_space_form:
        raise ValueError("variational check needs a space-form ambient")
    if len(trace.samples) < 3:
        raise ValueError("need at least 3 trace samples")
    n = trace.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")

    times = trace.times
    Wk = trace.quermass_series(k)
    if k == n:
        lhs_series = np.array([s.report.phi_curvature(n) + n * s.report.W(n - 1)
                               for s in trace.samples])

    worst = 0.0
    for i in range(1, len(times) - 1):
        flds = geometry(space, trace.sample_graph(i))
        f = speed(spec, space, flds)
        dt2 = times[i + 1] - times[i - 1]
        dW = (Wk[i + 1] - Wk[i - 1]) / dt2
        flux = surface_integral(flds, f * flds.E[k])
        worst = max(worst, abs(dW - flux) / max(abs(dW), abs(flux), 1e-300))
        if k == n:
            dL = (lhs_series[i + 1] - lhs_series[i - 1]) / dt2
            fluxL = surface_integral(flds, (n + 1) * flds.support * flds.E[n] * f)
            worst = max(worst, abs(dL - fluxL) / max(abs(dL), abs(fluxL), 1e-300))
    return worst
