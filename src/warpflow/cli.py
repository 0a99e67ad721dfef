"""Command line front end.

Subcommands: evolve, verify, reference, probe, sweep, dump-surface.
Exit codes follow the CI convention: 0 pass, 2 finding (an inequality or
monotonicity violated beyond tolerance), 1 runtime error, 64 usage error.
A JSON config file can seed any flags via --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import json
import math
import multiprocessing
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import inequalities as ineq
from .ambient import WarpedSpace, parse_options, parse_space_spec, probe_assumptions
from .flows import FLOWS, FlowSpec, FlowTrace, Monotone, evolve, monotones
from .quantities import QuantityReport
from .surface import (
    RadialGraph,
    dump_surface_csv,
    geometry,
    load_surface_csv,
    make_seed_surface,
    parse_grid_spec,
    parse_surface_spec,
)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2
EXIT_USAGE = 64

_FLOW_ALIASES = {"sx": "hyperbolic_sx", "bgl": "sphere_bgl"}


class UsageError(ValueError):
    """Bad flags, specs, or cross-field constraints: exit 64."""


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError raised inside as a usage error (exit 64)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# glibc's malloc serves blocks above a threshold that starts at 128 KB with
# fresh mmap pages, and raises the threshold and the heap trim threshold to
# the largest such block freed so far.  Whether the (3, M, P) stacks and
# other temporaries of a call reuse heap memory or fault in new zeroed pages
# thus depends on what earlier calls happened to allocate: a 64x128 verify
# faulted in about 480 pages per call (2560 at 128x256) and took 11 ms
# against 7, and other numpy code in the process swung between the states.
# Fixed thresholds keep every block up to 32 MB on the heap from the start.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20       # the top of glibc's own adjustment (64-bit)
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def steady_allocator() -> bool:
    """Fix glibc's malloc thresholds for this process, once; False elsewhere."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if libc.startswith("glibc") else None
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Flat record of one CLI invocation; serializes round-trip."""

    command: str
    space: str = "euclidean"
    n: int = 2
    grid: str | None = None           # 64x128 for n = 2, 512 for n = 1
    surface: str = "round:r0=1"
    surface_file: str | None = None
    flow: str | None = None
    k: int = 1
    t_final: float = 1.0
    report_dt: float | None = None
    cfl: float = 0.8
    max_rel_step: float = 1e-3
    eps_mono: float = 1e-6
    checks: list[str] = field(default_factory=list)
    ell: int = 0
    r: float | None = None
    invert: float | None = None
    r_max: float = 10.0
    samples: int = 100
    tol: float = 1e-8
    out: str | None = None
    fmt: str = "csv"
    workers: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**data)


def _positive_workers(value: str | int, name: str = "workers") -> int:
    try:
        w = int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if w < 1:
        raise UsageError(f"{name} must be >= 1, got {w}")
    return w


@functools.cache
def _config_types() -> dict:
    """RunConfig's field types; resolving them takes 0.4 ms, so once per process."""
    return typing.get_type_hints(RunConfig)


def _config_value(key: str, val, hint):
    """A config file value checked against the type of its RunConfig field."""
    allowed = typing.get_args(hint) if typing.get_origin(hint) is types.UnionType else (hint,)
    for typ in allowed:
        if typing.get_origin(typ) is list:
            ok = isinstance(val, list) and all(isinstance(item, str) for item in val)
        else:
            ok = isinstance(val, (int, float) if typ is float else typ)
        if ok and not isinstance(val, bool):
            return float(val) if typ is float else val
    name = " or ".join("null" if typ is type(None) else
                       typ.__name__ if isinstance(typ, type) else str(typ) for typ in allowed)
    raise UsageError(f"config key {key!r} must be {name}, got {val!r}")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser; built once per process, as nothing changes it after."""
    parser = _Parser(prog="warpflow",
                     description="star-shaped hypersurface flows and inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.add_argument("--space", default=argparse.SUPPRESS)
        p.add_argument("--n", type=int, choices=(1, 2), default=argparse.SUPPRESS)
        p.add_argument("--grid", default=argparse.SUPPRESS,
                       help="MxP for n=2 (default 64x128), node count for n=1 (default 512)")
        p.add_argument("--surface", default=argparse.SUPPRESS)
        p.add_argument("--surface-file", dest="surface_file",
                       default=argparse.SUPPRESS,
                       help="load the surface from a dumped CSV instead")
        p.add_argument("--out", default=argparse.SUPPRESS)

    def formats(p):
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=argparse.SUPPRESS)

    p = sub.add_parser("evolve", help="run a flow and write its trace")
    common(p)
    formats(p)
    p.add_argument("--flow", default=argparse.SUPPRESS,
                   help="imcf | euclidean-inverse | sx | bgl")
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--t-final", dest="t_final", type=float, default=argparse.SUPPRESS)
    p.add_argument("--report-dt", dest="report_dt", type=float, default=argparse.SUPPRESS)
    p.add_argument("--cfl", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-rel-step", dest="max_rel_step", type=float,
                   default=argparse.SUPPRESS)
    p.add_argument("--eps-mono", dest="eps_mono", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("verify", help="evaluate inequality deficits on one surface")
    common(p)
    formats(p)
    p.add_argument("--check", action="append", dest="checks", default=argparse.SUPPRESS,
                   help="name[:key=value,...]; repeatable")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("reference", help="geodesic-ball reference functions")
    p.add_argument("--config", default=None)
    p.add_argument("--space", default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, choices=(1, 2), default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--ell", type=int, default=argparse.SUPPRESS)
    p.add_argument("--r", type=float, default=argparse.SUPPRESS)
    p.add_argument("--invert", type=float, default=argparse.SUPPRESS,
                   help="invert chi_ell at this value instead of evaluating at --r")
    formats(p)

    p = sub.add_parser("probe", help="sample warping-function assumptions")
    p.add_argument("--config", default=None)
    p.add_argument("--space", default=argparse.SUPPRESS)
    p.add_argument("--r-max", dest="r_max", type=float, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    formats(p)

    p = sub.add_parser("sweep", help="min deficit over a surface family")
    common(p)
    formats(p)
    p.add_argument("--check", action="append", dest="checks", default=argparse.SUPPRESS)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="worker processes (default $WARPFLOW_WORKERS or 1)")

    p = sub.add_parser("dump-surface", help="write a surface as CSV")
    common(p)

    return parser


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command.replace("-", "_"))
    file_values: dict = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {ns.config}: {exc.strerror}") from exc
        except ValueError as exc:
            raise UsageError(f"{ns.config}: not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError(f"{ns.config}: config must be a JSON object")
    for key, val in file_values.items():
        if key in ("command", "config"):
            continue
        if not hasattr(cfg, key):
            raise UsageError(f"unknown config key {key!r}")
        setattr(cfg, key, _config_value(key, val, _config_types()[key]))
    for key, val in vars(ns).items():
        if key in ("command", "config"):
            continue
        setattr(cfg, key, val)
    if "workers" in vars(ns) or "workers" in file_values:
        _positive_workers(cfg.workers)
    elif cfg.command == "sweep":     # the one command with worker processes
        cfg.workers = _positive_workers(os.environ.get("WARPFLOW_WORKERS", "1"),
                                        "WARPFLOW_WORKERS")
    if cfg.grid is None:
        cfg.grid = "512" if cfg.n == 1 else "64x128"
    return cfg


def _build_space_grid(cfg: RunConfig) -> tuple[WarpedSpace, "object"]:
    with _usage_errors():
        space = parse_space_spec(cfg.space)
        return space, parse_grid_spec(cfg.grid, cfg.n, space.fiber_scale)


def _build_surface(cfg: RunConfig, space: WarpedSpace, grid) -> RadialGraph:
    with _usage_errors():
        if cfg.surface_file:
            try:
                return load_surface_csv(cfg.surface_file, space)
            except OSError as exc:
                raise UsageError(
                    f"cannot read surface file {cfg.surface_file}: {exc.strerror}") from exc
        family, params = parse_surface_spec(cfg.surface)
        return make_seed_surface(space, grid, family, **params)


def _fmt_float(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return repr(float(x))


# ---------------------------------------------------------------- evolve

def _trace_columns(trace: FlowTrace, series: dict[str, np.ndarray],
                   rows: list[Monotone]) -> list[tuple[str, list]]:
    spec = trace.spec
    n = trace.n
    first = trace.samples[0].report
    cols: list[tuple[str, list]] = [
        ("t", [s.t for s in trace.samples]),
        ("area", [s.report.area for s in trace.samples]),
        ("volume", [s.report.volume for s in trace.samples]),
    ]
    if first.quermass is not None:
        for j in range(n + 2):
            cols.append((f"W{j}", [s.report.W(j) for s in trace.samples]))
    for k in sorted(first.momenta):
        cols.append((f"momentum_{format(k, 'g')}",
                     [s.report.momentum(k) for s in trace.samples]))
    for k in range(1, n + 1):
        cols.append((f"phiE{k}", [s.report.phi_curvature(k) for s in trace.samples]))
    cols += [(m.label or m.name, list(series[m.name])) for m in rows]
    cols.append(("minH", [s.class_report.min_H for s in trace.samples]))
    for j in range(1, spec.k + 1):
        cols.append((f"minE{j}", [s.class_report.min_E[j] for s in trace.samples]))
    cols.append(("min_static_margin",
                 [s.class_report.static_margin for s in trace.samples]))
    cols.append(("dt", [s.dt for s in trace.samples]))
    return cols


def _write_table(path, columns: list[tuple[str, list]], fmt: str, meta: dict) -> None:
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        if fmt == "csv":
            writer = csv.writer(out)
            writer.writerow([name for name, _ in columns])
            rows = len(columns[0][1])
            for i in range(rows):
                writer.writerow([vals[i] if isinstance(vals[i], str)
                                 else _fmt_float(vals[i]) for _, vals in columns])
        else:
            rows = len(columns[0][1])
            samples = [
                {name: (None if vals[i] is None
                        else (float(vals[i]) if not isinstance(vals[i], str) else vals[i]))
                 for name, vals in columns}
                for i in range(rows)
            ]
            json.dump({"meta": meta, "samples": samples}, out, sort_keys=True, indent=1)
            out.write("\n")
    finally:
        if path is not None:
            out.close()


def _series_monotone_ok(series: dict[str, np.ndarray], spec: FlowSpec,
                        rows: list[Monotone]) -> list[str]:
    """Names of series that violate their expected direction beyond eps_mono."""
    bad = [m.name for m in rows
           if np.any(m.wrong_way(series[m.name][:-1], series[m.name][1:], spec.eps_mono))]
    margin = series.get("newton_maclaurin_margin")
    if margin is not None and np.min(margin) < -1e-10:
        bad.append("newton_maclaurin_margin")
    return bad


def _steps_line(steps: dict) -> str:
    """One line of FlowTrace.step_counts for stderr."""
    rejected = ", ".join(f"{reason} {count}" for reason, count in steps["rejected"].items())
    dt_range = ("" if steps["dt_min"] is None
                else f", dt {steps['dt_min']:.3g}..{steps['dt_max']:.3g}")
    return (f"steps: {steps['accepted']} accepted, {sum(steps['rejected'].values())} "
            f"rejected ({rejected}), {steps['geometry_calls']} geometry calls, "
            f"{steps['stages_total']} stages (max {steps['stages_max']}){dt_range}")


def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.flow is None:
        raise UsageError("evolve requires --flow")
    kind = cfg.flow.strip().lower().replace("-", "_")
    kind = _FLOW_ALIASES.get(kind, kind)
    if kind not in FLOWS:
        raise UsageError(f"unknown flow {cfg.flow!r}")
    space, grid = _build_space_grid(cfg)
    report_dt = cfg.report_dt if cfg.report_dt is not None else cfg.t_final / 100.0
    spec = FlowSpec(kind=kind, k=cfg.k, t_final=cfg.t_final, report_dt=report_dt,
                    cfl=cfg.cfl, max_rel_step=cfg.max_rel_step, eps_mono=cfg.eps_mono)
    with _usage_errors():
        spec.validate(space, cfg.n)
    graph = _build_surface(cfg, space, grid)

    trace = evolve(space, graph, spec)
    ks = sorted(trace.samples[0].report.momenta)
    series = ineq.monotone_series(trace, spec, ks=ks)
    rows = monotones(spec, trace.n, ks)
    columns = _trace_columns(trace, series, rows)
    steps = trace.step_counts()
    meta = {"config": cfg.to_dict(), "termination": list(trace.termination),
            "findings": trace.findings, "steps": steps}
    _write_table(cfg.out, columns, cfg.fmt, meta)
    print(_steps_line(steps), file=sys.stderr)

    bad = _series_monotone_ok(series, spec, rows)
    if trace.findings or bad:
        for name in bad:
            print(f"finding: series {name} moves the wrong way", file=sys.stderr)
        for f in trace.findings:
            print(f"finding: {f}", file=sys.stderr)
        return EXIT_FINDING
    if trace.termination[0] != "reached_t_final":
        print(f"terminated early: {trace.termination}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------- verify

# check name -> (deficit of the report and the options, options with their
# defaults); the deficits are looked up in `ineq` at call time, where tracers
# rebind them
_CHECKS = {
    "boundary-momentum": (lambda rep, k: ineq.deficit_boundary_momentum(rep, float(k)),
                          {"k": 1.0}),
    "weinstock": (lambda rep: ineq.deficit_weinstock_iso(rep), {}),
    "phi-quermass": (lambda rep, k: ineq.deficit_phi_quermass_euclidean(rep, int(k)),
                     {"k": 1}),
    "kwong-miao": (lambda rep, k: ineq.kwong_miao_deficit(rep, int(k)), {"k": 1}),
    "hyperbolic-ref": (lambda rep, k, ell: ineq.deficit_hyperbolic_ref(rep, int(k), int(ell)),
                       {"k": 1, "ell": 0}),
    "sphere-ref": (lambda rep, ell: ineq.deficit_sphere_ref(rep, int(ell)), {"ell": 0}),
    "minkowski": (lambda rep, k: ineq.DeficitReport(
        name="minkowski", lhs=ineq.minkowski_residual(rep, int(k)), rhs=0.0, k=int(k),
        equality_expected=True), {"k": 1}),
    "curve": (lambda rep: ineq.curve_kwww_deficit(rep), {}),
}
_CHECKS["girao"] = _CHECKS["boundary-momentum"]
# an option with an int default takes integers only
_CHECK_OPTIONS = {name: {key: type(default) for key, default in defaults.items()}
                  for name, (_, defaults) in _CHECKS.items()}


def _check_reports(space: WarpedSpace, graph: RadialGraph,
                   checks: list[str]) -> list[ineq.DeficitReport]:
    """Evaluate each --check item on one report of one surface; a bad item is a usage error."""
    rep = QuantityReport(space, graph, geometry(space, graph))
    reports = []
    for item in checks:
        name, sep, body = item.partition(":")
        with _usage_errors():
            name, options = parse_options(name.strip().lower().replace("_", "-") + sep + body,
                                          _CHECK_OPTIONS, "check")
            deficit, defaults = _CHECKS[name]
            reports.append(deficit(rep, **{**defaults, **options}))
    return reports


def _deficit_rows(reports: list[ineq.DeficitReport]) -> list[tuple[str, list]]:
    cols = ["name", "k", "ell", "lhs", "rhs", "deficit", "relative_deficit",
            "class_flags"]
    table: dict[str, list] = {c: [] for c in cols}
    for rep in reports:
        d = rep.to_dict()
        table["name"].append(d["name"])
        table["k"].append("" if d["k"] is None else format(d["k"], "g"))
        table["ell"].append("" if d["ell"] is None else str(d["ell"]))
        for key in ("lhs", "rhs", "deficit", "relative_deficit"):
            table[key].append(_fmt_float(d[key]))
        table["class_flags"].append(
            ";".join(f"{k}={v}" for k, v in d["class_flags"].items()))
    return [(c, table[c]) for c in cols]


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.checks:
        raise UsageError("verify requires at least one --check")
    space, grid = _build_space_grid(cfg)
    reports = _check_reports(space, _build_surface(cfg, space, grid), cfg.checks)

    if cfg.fmt == "json":
        payload = [rep.to_dict() for rep in reports]
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _write_table(cfg.out, _deficit_rows(reports), "csv", {})

    worst = min(rep.deficit for rep in reports)
    if worst < -cfg.tol:
        print(f"finding: deficit {worst} below -{cfg.tol}", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_OK


# ---------------------------------------------------------------- reference

def cmd_reference(cfg: RunConfig) -> int:
    with _usage_errors():
        space = parse_space_spec(cfg.space)
        if cfg.invert is not None:
            radius = ineq.ball_chi_inverse(space, cfg.ell, cfg.invert, cfg.n)
            values = {"chi_inverse": radius, "ell": cfg.ell, "w": cfg.invert}
        else:
            if cfg.r is None:
                raise UsageError("reference requires --r or --invert")
            values = {
                "r": cfg.r,
                "xi_k": ineq.ball_xi(space, cfg.k, cfg.r, cfg.n),
                "chi_ell": ineq.ball_chi(space, cfg.ell, cfg.r, cfg.n),
                "k": cfg.k,
                "ell": cfg.ell,
            }
    if cfg.fmt == "json":
        print(json.dumps(values, sort_keys=True))
    else:
        for key, val in values.items():
            print(f"{key} = {val}")
    return EXIT_OK


# ---------------------------------------------------------------- probe

def cmd_probe(cfg: RunConfig) -> int:
    with _usage_errors():
        space = parse_space_spec(cfg.space)
        report = probe_assumptions(space, cfg.r_max, cfg.samples)
    if cfg.fmt == "json":
        payload = {
            "kind": report.kind,
            "r": list(report.r),
            "ratio2": list(report.ratio2),
            "verdicts": {k: {"holds": v[0], "violated_at": v[1]}
                         for k, v in report.verdicts.items()},
            "lambda_prime_unbounded": report.lambda_prime_unbounded,
            "sup_dlam": report.sup_dlam,
            "sup_ratio2": report.sup_ratio2,
            "liminf_ratio2": report.liminf_ratio2,
            "sup_ratio3": report.sup_ratio3,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def _expand_range(text: str) -> list[float]:
    """A sweep value: ``v``, integer ``lo:hi``, or ``lo:hi:step`` with hi reachable."""
    try:
        nums = [float(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3 or not all(map(math.isfinite, nums)):
        raise UsageError(f"sweep value {text!r} is not v, lo:hi or lo:hi:step")
    if len(nums) == 1:
        return nums
    if len(nums) == 2 and not all(v.is_integer() for v in nums):
        raise UsageError(f"sweep range {text!r}: lo:hi takes integers, use lo:hi:step")
    lo, hi, step = nums if len(nums) == 3 else (*nums, 1.0)
    if step == 0:
        raise UsageError(f"sweep range {text!r} has step 0")
    vals = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
    if not vals:
        raise UsageError(f"sweep range {text!r} is empty")
    return vals


def _sweep_members(surface_spec: str) -> list[tuple[str, dict]]:
    with _usage_errors():
        family, ranges = parse_surface_spec(surface_spec, _expand_range)
    swept = [key for key, vals in ranges.items() if len(vals) > 1]
    if len(swept) > 1:
        raise UsageError("sweep supports one swept parameter at a time")
    key = swept[0] if swept else next(iter(ranges))
    fixed = {k: vals[0] for k, vals in ranges.items()}
    return [(family, {**fixed, key: v}) for v in ranges[key]]


def _sweep_one(args) -> tuple[dict, list[dict]]:
    space_spec, n, grid_spec, family, params, checks = args
    with _usage_errors():
        space = parse_space_spec(space_spec)
        grid = parse_grid_spec(grid_spec, n, space.fiber_scale)
        graph = make_seed_surface(space, grid, family, **params)
    return params, [rep.to_dict() for rep in _check_reports(space, graph, checks)]


def _pool_child(conn, initializer, fn, items) -> None:
    """A Pool child: run the initializer, map fn over its share, send one message."""
    try:
        if initializer is not None:
            initializer()
        message = (True, [fn(x) for x in items])
    except Exception as exc:
        message = (False, exc)
    conn.send(message)
    conn.close()


class Pool:
    """A process pool of ``processes`` workers, the calling process included.

    ``map`` cuts the items into min(processes, len(items)) contiguous shares,
    starts one child per share after the first, runs the first share in the
    caller (warm: its caches and heap are already in place) and then gathers
    the children's lists in order.  A share stops at its first exception,
    which is raised as it is, so a failure is the one a sequential map meets
    first.  A child that exits without sending its results is a
    RuntimeError naming its exit code and its members.  The initializer
    runs in each child; the caller is expected to have set itself up.
    """

    def __init__(self, processes: int, initializer=None):
        self._processes = processes
        self._initializer = initializer
        self._children: list = []        # (process, receiving end, first member, end)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for proc, *_ in self._children:
            if proc.is_alive():
                proc.terminate()
        for proc, receiver, *_ in self._children:
            proc.join()
            receiver.close()
        self._children.clear()

    def map(self, fn, items) -> list:
        items = list(items)
        k = max(1, min(self._processes, len(items)))
        # ceiling bounds, so that the caller's share is the largest: a child
        # pays for its fork and for faulting in its pages on top of its share
        bounds = [-(-i * len(items) // k) for i in range(k + 1)]
        children = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_pool_child, daemon=True,
                                           args=(sender, self._initializer, fn, items[lo:hi]))
            proc.start()
            sender.close()      # the child holds the only sending end: EOF means it died
            children.append((proc, receiver, lo, hi))
            self._children.append(children[-1])
        results = [fn(x) for x in items[:bounds[1]]]
        for proc, receiver, lo, hi in children:
            try:
                ok, payload = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"sweep worker for members {lo + 1}-{hi} of {len(items)} exited "
                    f"with code {proc.exitcode} before sending its results") from None
            if not ok:
                raise payload
            results += payload
        return results


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.checks:
        raise UsageError("sweep requires at least one --check")
    # validate in the parent, so that bad input exits 64 before any worker starts
    members = _sweep_members(cfg.surface)
    _build_space_grid(cfg)
    tasks = [(cfg.space, cfg.n, cfg.grid, family, params, cfg.checks)
             for family, params in members]
    # --workers counts processes, the calling one included: N forks N - 1
    # children (1 forks none), and a child that dies exits 1.  On a 2-vCPU
    # host one process is still as fast or faster for a small 128x256
    # family: a child pays for its fork and its page faults, and two busy
    # processes do not both run at full speed.
    with Pool(cfg.workers, initializer=steady_allocator) as pool:
        results = pool.map(_sweep_one, tasks)

    param_keys = sorted({k for _, params in members for k in params})
    check_names = [f"{rep['name']}" + (f"_k{format(rep['k'], 'g')}" if rep["k"] else "")
                   + (f"_l{rep['ell']}" if rep["ell"] is not None else "")
                   for rep in results[0][1]]
    columns: list[tuple[str, list]] = [(k, []) for k in param_keys]
    columns += [(name, []) for name in check_names]
    columns.append(("min_deficit", []))
    for params, reports in results:
        for idx, key in enumerate(param_keys):
            columns[idx][1].append(_fmt_float(params.get(key)))
        deficits = [rep["deficit"] for rep in reports]
        for j, rep in enumerate(reports):
            columns[len(param_keys) + j][1].append(_fmt_float(rep["deficit"]))
        columns[-1][1].append(_fmt_float(min(deficits)))
    _write_table(cfg.out, columns, cfg.fmt, {"config": cfg.to_dict()})

    worst = min(float(v) for v in columns[-1][1])
    return EXIT_FINDING if worst < -cfg.tol else EXIT_OK


# ---------------------------------------------------------------- dump

def cmd_dump_surface(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise UsageError("dump-surface requires --out")
    space, grid = _build_space_grid(cfg)
    graph = _build_surface(cfg, space, grid)
    dump_surface_csv(graph, cfg.out)
    return EXIT_OK


_COMMANDS = {
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "reference": cmd_reference,
    "probe": cmd_probe,
    "sweep": cmd_sweep,
    "dump_surface": cmd_dump_surface,
}


def main(argv: list[str] | None = None) -> int:
    steady_allocator()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _merge_config(ns)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
