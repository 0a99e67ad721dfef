"""Warped-product ambient spaces and their radial data.

An ambient space is the product [a, b) x N carrying the metric
dr^2 + lambda(r)^2 g_N.  The fiber N is a round n-sphere whose metric is
scaled by a constant factor c, so |N| = c^n |S^n|.  Everything downstream
needs only the warping function lambda with two derivatives, the radial
potential Phi(r) = int_0^r lambda(s) ds, and a few descriptor flags, so a
space is bundled as those evaluators plus domain metadata.

Space forms use the classical warpings (r, sinh r, sin r) with potentials
(r^2/2, cosh r - 1, 1 - cos r).  Custom warpings form a closed menu
(power_cubic, cosh, tabulated) so that first and second derivatives stay
exact, or spline-consistent for tabulated input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WarpedSpace",
    "AssumptionReport",
    "sphere_area",
    "ball_volume",
    "make_space_form",
    "make_custom",
    "probe_assumptions",
    "parse_options",
    "parse_space_spec",
]


def sphere_area(n: int) -> float:
    """Area of the unit round sphere S^n."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m, equal to |S^{m-1}| / m."""
    return sphere_area(m - 1) / m


WarpEvaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class WarpedSpace:
    """Descriptor of one warped-product ambient space.

    `warp` returns (lambda, lambda', lambda'') at radius r, `potential`
    returns Phi(r).  Both accept scalars or arrays and are pure, so a
    space is safe to share between any number of workers.
    """

    kind: str                 # euclidean | hyperbolic | sphere | custom
    a: float                  # inner radius, >= 0
    b: float                  # outer bound, may be inf
    K: int | None             # sectional curvature tag, None for custom
    fiber_scale: float        # c > 0; fiber metric is c^2 * round metric
    warp: WarpEvaluator
    potential: Callable[[np.ndarray], np.ndarray]

    @property
    def has_inner_boundary(self) -> bool:
        return self.a > 0.0

    @property
    def is_space_form(self) -> bool:
        return self.K is not None

    def lam(self, r):
        return self.warp(np.asarray(r, dtype=float))[0]

    def dlam(self, r):
        return self.warp(np.asarray(r, dtype=float))[1]

    def d2lam(self, r):
        return self.warp(np.asarray(r, dtype=float))[2]

    def phi(self, r):
        return self.potential(np.asarray(r, dtype=float))

    def fiber_area(self, n: int) -> float:
        """|N| for fiber dimension n: c^n times the unit-sphere area."""
        return self.fiber_scale**n * sphere_area(n)


def _space_form_evaluators(K: int):
    if K == 0:
        def warp(r):
            r = np.asarray(r, dtype=float)
            return r, np.ones_like(r), np.zeros_like(r)

        def potential(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * r * r

    elif K == -1:
        def warp(r):
            r = np.asarray(r, dtype=float)
            return np.sinh(r), np.cosh(r), np.sinh(r)

        def potential(r):
            return np.cosh(np.asarray(r, dtype=float)) - 1.0

    elif K == 1:
        def warp(r):
            r = np.asarray(r, dtype=float)
            return np.sin(r), np.cos(r), -np.sin(r)

        def potential(r):
            return 1.0 - np.cos(np.asarray(r, dtype=float))

    else:
        raise ValueError(f"curvature tag must be -1, 0 or +1, got {K}")
    return warp, potential


_SPACE_FORM_KIND = {0: "euclidean", -1: "hyperbolic", 1: "sphere"}


def make_space_form(K: int) -> WarpedSpace:
    """The simply connected space form of curvature K in {-1, 0, +1}."""
    warp, potential = _space_form_evaluators(K)
    return WarpedSpace(
        kind=_SPACE_FORM_KIND[K],
        a=0.0,
        b=math.pi if K == 1 else math.inf,
        K=K,
        fiber_scale=1.0,
        warp=warp,
        potential=potential,
    )


def make_custom(
    family: str,
    a: float = 0.0,
    c: float = 1.0,
    *,
    beta: float | None = None,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> WarpedSpace:
    """Custom warped product from the closed warping menu.

    power_cubic: lambda = r + beta r^3 with beta >= 0, increasing and convex.
    cosh:        lambda = cosh r; requires a > 0 since lambda'(0) = 0.
    user_table:  cubic-spline fit of tabulated (r, lambda) samples.
    """
    if a < 0:
        raise ValueError("inner radius a must be nonnegative")
    if c <= 0:
        raise ValueError("fiber_scale must be positive")

    if family == "power_cubic":
        if beta is None:
            raise ValueError("power_cubic requires beta")
        if beta < 0:
            raise ValueError(f"power_cubic requires beta >= 0, got {beta}")
        bb = float(beta)

        def warp(r):
            r = np.asarray(r, dtype=float)
            return r + bb * r**3, 1.0 + 3.0 * bb * r * r, 6.0 * bb * r

        def potential(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * r * r + 0.25 * bb * r**4

        b = math.inf

    elif family == "cosh":
        if a == 0:
            raise ValueError(
                "cosh warping requires a > 0: lambda'(a) = sinh(a) must be positive"
            )

        def warp(r):
            r = np.asarray(r, dtype=float)
            return np.cosh(r), np.sinh(r), np.cosh(r)

        def potential(r):
            return np.sinh(np.asarray(r, dtype=float))

        b = math.inf

    elif family == "user_table":
        if table is None:
            raise ValueError("user_table requires a (radii, values) table")
        r_tab = np.asarray(table[0], dtype=float)
        lam_tab = np.asarray(table[1], dtype=float)
        if r_tab.ndim != 1 or r_tab.shape != lam_tab.shape or r_tab.size < 4:
            raise ValueError("table must be two equal 1-d arrays of length >= 4")
        if np.any(np.diff(r_tab) <= 0):
            raise ValueError("table radii must be strictly increasing")
        # imported here: scipy.interpolate roughly doubles the import cost of
        # the package and only tabulated warpings use it
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(r_tab, lam_tab)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)
        anti = spline.antiderivative()
        # Phi is normalized at max(0, table start); the spline antiderivative
        # integrates the evaluator exactly, well inside the 1e-12 budget.
        pivot = float(anti(max(0.0, r_tab[0])) if r_tab[0] <= 0 else anti(r_tab[0]))

        def warp(r):
            r = np.asarray(r, dtype=float)
            return spline(r), d1(r), d2(r)

        def potential(r):
            return anti(np.asarray(r, dtype=float)) - pivot

        b = float(r_tab[-1])

    else:
        raise ValueError(f"unknown custom warping family {family!r}")

    space = WarpedSpace(
        kind="custom", a=float(a), b=b, K=None, fiber_scale=float(c),
        warp=warp, potential=potential,
    )
    _check_positive_warp(space)
    return space


def _check_positive_warp(space: WarpedSpace, samples: int = 64) -> None:
    hi = min(space.b, max(2.0 * (space.a + 1.0), 10.0))
    r = np.linspace(space.a, hi, samples + 1)[1:]
    lam = space.lam(r)
    if not np.all(np.isfinite(lam)):
        raise ValueError("warping function not finite on the sampled domain")
    if np.any(lam <= 0):
        bad = float(r[np.argmax(lam <= 0)])
        raise ValueError(f"warping function not positive at r = {bad}")


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled evidence for the convexity/growth conditions on the warping.

    Advisory only: limsup/liminf statements are probed on a finite geometric
    grid, never proved.  `verdicts` maps a condition name to
    (holds_on_samples, radius_of_first_violation_or_None).
    """

    kind: str
    r: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    d2lam: np.ndarray
    ratio2: np.ndarray          # lambda'' lambda / lambda'^2
    ratio3: np.ndarray          # lambda''' lambda / (lambda' lambda''), nan if lambda'' <= 0
    verdicts: dict[str, tuple[bool, float | None]]
    lambda_prime_unbounded: bool
    sup_dlam: float
    sup_ratio2: float
    liminf_ratio2: float
    sup_ratio3: float

    def summary_lines(self) -> list[str]:
        lines = [f"warping assumption probe: {self.kind}, "
                 f"{self.r.size} samples on ({self.r[0]:.6g}, {self.r[-1]:.6g}]"]
        for name, (ok, at) in self.verdicts.items():
            status = "holds on samples" if ok else f"violated at r = {at:.6g}"
            lines.append(f"  {name:28s} {status}")
        lines.append(f"  sup lambda'              = {self.sup_dlam:.6g}"
                     f" ({'unbounded trend' if self.lambda_prime_unbounded else 'bounded trend'})")
        lines.append(f"  sup ratio2 (l''l/l'^2)    = {self.sup_ratio2:.6g}")
        lines.append(f"  tail liminf ratio2       = {self.liminf_ratio2:.6g}")
        lines.append(f"  sup ratio3 (l'''l/l'l'')  = {self.sup_ratio3:.6g}")
        return lines


def probe_assumptions(space: WarpedSpace, r_max: float, samples: int = 100) -> AssumptionReport:
    """Sample the growth conditions on lambda over a geometric radius grid."""
    if r_max <= space.a:
        raise ValueError("r_max must exceed the inner radius a")
    if samples < 10:
        raise ValueError("need at least 10 samples")
    r = space.a + (r_max - space.a) * np.geomspace(1e-3, 1.0, samples)

    lam, dlam, d2lam = space.warp(r)
    for name, arr in (("lambda", lam), ("lambda'", dlam), ("lambda''", d2lam)):
        if not np.all(np.isfinite(arr)):
            bad = float(r[np.argmax(~np.isfinite(arr))])
            raise ValueError(f"evaluation of {name} failed at sample r = {bad}")

    # lambda''' by centered difference of lambda'', step 1e-4 * r
    h = 1e-4 * r
    d3lam = (space.d2lam(r + h) - space.d2lam(r - h)) / (2.0 * h)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio2 = d2lam * lam / dlam**2
        ratio3 = np.where(d2lam > 0, d3lam * lam / (dlam * d2lam), np.nan)

    def verdict(mask_ok: np.ndarray) -> tuple[bool, float | None]:
        if np.all(mask_ok):
            return True, None
        return False, float(r[np.argmax(~mask_ok)])

    tol = 1e-12 * (1.0 + np.abs(d2lam).max())
    verdicts = {
        "lambda > 0": verdict(lam > 0),
        "lambda' > 0": verdict(dlam > 0),
        "lambda'' >= 0": verdict(d2lam >= -tol),
        "ratio2 finite": verdict(np.isfinite(ratio2)),
    }

    # boundedness trend of lambda': still growing over the tail quarter?
    tail = max(samples // 4, 2)
    dl_tail = dlam[-tail:]
    unbounded = bool(dl_tail[-1] > 1.01 * dl_tail[0] and np.all(np.diff(dl_tail) >= 0))

    finite_r3 = ratio3[np.isfinite(ratio3)]
    return AssumptionReport(
        kind=space.kind,
        r=r, lam=lam, dlam=dlam, d2lam=d2lam,
        ratio2=ratio2, ratio3=ratio3,
        verdicts=verdicts,
        lambda_prime_unbounded=unbounded,
        sup_dlam=float(dlam.max()),
        sup_ratio2=float(np.nanmax(ratio2)),
        liminf_ratio2=float(np.nanmin(ratio2[-tail:])),
        sup_ratio3=float(finite_r3.max()) if finite_r3.size else math.nan,
    )


def parse_options(spec: str, table: dict, what: str, value=float) -> tuple[str, dict]:
    """Split ``name[:key=value,...]`` into the name and its options.

    `table` maps each known name to the keys it allows.  A name may hold a
    colon (``custom:cosh,a=0.5``); its options then follow a comma.  `value`
    reads each value.  An unknown name, an unknown or repeated key and an
    option without ``=`` raise ValueError naming the item.
    """
    s = spec.strip()
    name, sep, body = s.partition(":")
    if name not in table:
        name, sep, body = s.partition(",")
    if name not in table or (sep == "," and ":" not in name):
        raise ValueError(f"no known {what} named in {spec!r}; known: {', '.join(table)}")
    options = {}
    for item in body.split(",") if body else ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{what} option {item!r} in {spec!r} is not key=value")
        if key not in table[name]:
            allowed = ", ".join(sorted(table[name])) or "none"
            raise ValueError(f"unknown {what} option {key!r} in {spec!r}; {name} takes {allowed}")
        if key in options:
            raise ValueError(f"{what} option {key!r} given twice in {spec!r}")
        options[key] = value(val)
    return name, options


_SPACE_OPTIONS = {
    "euclidean": (), "hyperbolic": (), "sphere": (),
    "custom:power_cubic": ("beta", "a", "c"), "custom:cosh": ("a", "c"),
}


def parse_space_spec(spec: str) -> WarpedSpace:
    """Parse the CLI space grammar.

    Accepted: ``euclidean``, ``hyperbolic``, ``sphere``,
    ``custom:power_cubic,beta=<f>,a=<f>,c=<f>``, ``custom:cosh,a=<f>,c=<f>``.
    """
    name, options = parse_options(spec, _SPACE_OPTIONS, "space")
    if name.startswith("custom:"):
        return make_custom(name[len("custom:"):], **options)
    return make_space_form({kind: K for K, kind in _SPACE_FORM_KIND.items()}[name])
