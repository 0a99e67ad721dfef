"""Command line front end.

Subcommands: evolve, verify, reference, probe, sweep, dump-surface.
Exit codes follow the CI convention: 0 pass, 2 finding (an inequality or
monotonicity violated beyond tolerance), 1 runtime error, 64 usage error.
A JSON config file can seed any flags via --config; explicit flags win.
Each option is declared once, as a RunConfig field: the parser is built from
the fields, and a config file value is checked against the same declaration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import json
import math
import os
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import inequalities as ineq
from .ambient import WarpedSpace, parse_space_spec, probe_assumptions
from .flows import FLOWS, FlowSpec, FlowTrace, evolve
from .grid import DEFAULT_GRID_SPECS, parse_grid_spec
from .quantities import QuantityReport
from .surface import (
    RadialGraph,
    dump_surface_csv,
    geometry,
    load_surface_csv,
    make_seed_surface,
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


def _refuses_non_finite(command):
    """Run a command with numpy's overflow, invalid-value and divide warnings
    off.  Each such command refuses a non-finite value by name (a node, a
    sample or a check item) or steps around it, so a warning would only print
    numpy's source lines ahead of that refusal."""
    @functools.wraps(command)
    def run(cfg):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(cfg)
    return run


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


def _option(default=None, **metadata):
    """A RunConfig field whose flag has another name, choices or a help text."""
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Flat record of one CLI invocation; serializes round-trip.

    Each field but ``command`` is the one declaration of its option: the flag
    is ``--<field>`` (``_`` written ``-``) unless the metadata names another,
    its type is the annotation's (``X | None`` reads as X; ``list[str]``
    repeats), and the metadata holds its choices and help."""

    command: str
    space: str = "euclidean"
    n: int | None = _option(choices=(1, 2))   # None: 2, or the surface file's
    grid: str | None = _option(       # None: the default of n, or the surface file's
        help="MxP for n=2 (default 64x128), node count for n=1 (default 512)")
    surface: str | None = None        # None: round:r0=1, or the surface file's
    surface_file: str | None = _option(
        help="load the surface, and its n and grid, from a dumped CSV instead")
    flow: str | None = _option(help="imcf | euclidean-inverse | sx | bgl")
    k: int = 1
    t_final: float = FlowSpec.t_final
    report_dt: float | None = _option(    # None: t_final / 100
        help="time between trace samples; t_final / report_dt at most 1e5")
    cfl: float = FlowSpec.cfl
    max_rel_step: float = FlowSpec.max_rel_step
    eps_mono: float = FlowSpec.eps_mono
    checks: list[str] = field(default_factory=list, metadata={
        "flag": "--check", "help": "name[:key=value,...]; repeatable"})
    ell: int = 0
    r: float | None = None
    invert: float | None = _option(
        help="invert chi_ell at this value instead of evaluating at --r")
    r_max: float = 10.0
    samples: int = 100
    tol: float = _option(1e-8, help="finding: a deficit < -tol max(1, |lhs|, |rhs|); tol >= 0")
    out: str | None = None
    fmt: str = _option("csv", flag="--format", choices=("csv", "json"))
    workers: int = _option(1, help="worker processes (default $WARPFLOW_WORKERS or 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def _positive_workers(value: str | int, name: str = "workers") -> int:
    try:
        w = int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if w < 1:
        raise UsageError(f"{name} must be >= 1, got {w}")
    return w


def _finite(value) -> float:
    """The type of every float option, its flag's text or its config file number."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
    return x


@functools.cache
def _options() -> dict:
    """Each RunConfig field's types (its flag's first) and metadata; resolving
    the annotations takes 0.4 ms, so once per process."""
    hints = typing.get_type_hints(RunConfig)
    return {f.name: (typing.get_args(hints[f.name]) if typing.get_origin(hints[f.name])
                     is types.UnionType else (hints[f.name],), f.metadata)
            for f in fields(RunConfig)}


def _config_value(key: str, val):
    """A config file value checked like its flag: type, choices and finiteness."""
    if key not in _options():
        raise UsageError(f"unknown config key {key!r}")
    allowed, meta = _options()[key]
    for typ in allowed:
        if typing.get_origin(typ) is list:
            ok = isinstance(val, list) and all(isinstance(item, str) for item in val)
        else:
            ok = isinstance(val, (int, float) if typ is float else typ)
        if ok and not isinstance(val, bool):
            break
    else:
        name = " or ".join("null" if typ is type(None) else
                           typ.__name__ if isinstance(typ, type) else str(typ) for typ in allowed)
        raise UsageError(f"config key {key!r} must be {name}, got {val!r}")
    choices = meta.get("choices")
    if val is not None and choices and val not in choices:
        raise UsageError(f"config key {key!r} must be one of "
                         f"{', '.join(map(repr, choices))}, got {val!r}")
    try:
        return _finite(val) if typ is float else val
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {key!r} {exc}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, one flag per field a command takes (_COMMANDS);
    built once per process, as nothing changes it after."""
    parser = _Parser(prog="warpflow",
                     description="star-shaped hypersurface flows and inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        for name in names:
            (typ, *_), meta = _options()[name]
            p.add_argument(meta.get("flag", "--" + name.replace("_", "-")), dest=name,
                           action="append" if typing.get_origin(typ) is list else "store",
                           type={int: int, float: _finite}.get(typ),
                           choices=meta.get("choices"), help=meta.get("help"),
                           default=argparse.SUPPRESS)
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
        if key not in ("command", "config"):
            setattr(cfg, key, _config_value(key, val))
    vars(cfg).update((key, val) for key, val in vars(ns).items()
                     if key not in ("command", "config"))
    if cfg.tol < 0:         # else an exact equality, deficit 0, would be a finding
        raise UsageError(f"tol must be >= 0, got {cfg.tol}")
    if "workers" in vars(ns) or "workers" in file_values:
        _positive_workers(cfg.workers)
    elif cfg.command == "sweep":     # the one command with worker processes
        cfg.workers = _positive_workers(os.environ.get("WARPFLOW_WORKERS", "1"),
                                        "WARPFLOW_WORKERS")
    if not (cfg.surface_file and cfg.command in ("evolve", "verify", "dump_surface")):
        cfg.n = 2 if cfg.n is None else cfg.n       # else the file's: _build_surface
        cfg.grid = DEFAULT_GRID_SPECS[cfg.n] if cfg.grid is None else cfg.grid
        cfg.surface = "round:r0=1" if cfg.surface is None else cfg.surface
    return cfg


def _build_space_grid(cfg: RunConfig) -> tuple[WarpedSpace, "object"]:
    with _usage_errors():
        space = parse_space_spec(cfg.space)
        return space, parse_grid_spec(cfg.grid, cfg.n, space.fiber_scale)


def _build_surface(cfg: RunConfig) -> tuple[WarpedSpace, RadialGraph]:
    """The space and the surface of a run: the seed on cfg's grid, or the surface
    file's, whose n and grid go into cfg and must match an n or grid it sets."""
    if not cfg.surface_file:
        space, grid = _build_space_grid(cfg)
        with _usage_errors():
            family, params = parse_surface_spec(cfg.surface)
            return space, make_seed_surface(space, grid, family, **params)
    if cfg.surface is not None:
        raise UsageError(f"surface file {cfg.surface_file} replaces --surface: leave it unset")
    with _usage_errors():
        space = parse_space_spec(cfg.space)
        try:
            graph = load_surface_csv(cfg.surface_file, space)
        except OSError as exc:
            raise UsageError(
                f"cannot read surface file {cfg.surface_file}: {exc.strerror}") from exc
        grid = graph.grid
        if cfg.n not in (None, grid.n) or cfg.grid is not None and parse_grid_spec(
                cfg.grid, cfg.n, space.fiber_scale) is not grid:
            raise UsageError(f"surface file {cfg.surface_file} is on the n={grid.n} grid "
                             f"{grid.spec}: leave --n and --grid unset, or set them to it")
        cfg.n, cfg.grid = grid.n, grid.spec
        return space, graph


def _fmt_float(x) -> str:
    return "nan" if x is None else repr(float(x))       # repr(nan) is "nan" too


# ---------------------------------------------------------------- evolve

def _trace_columns(trace: FlowTrace, series: dict[str, np.ndarray]) -> list[tuple[str, list]]:
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
    cols += [(m.label or m.name, list(series[m.name])) for m in trace.monotones]
    cols.append(("minH", [n * s.report.min_E(1) for s in trace.samples]))
    for j in range(1, spec.k + 1):
        cols.append((f"minE{j}", [s.report.min_E(j) for s in trace.samples]))
    cols.append(("min_static_margin", [s.report.static_margin for s in trace.samples]))
    cols.append(("dt", [s.dt for s in trace.samples]))
    return cols


@contextlib.contextmanager
def _output(path):
    """The --out file opened for writing, or stdout when there is none."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_table(path, columns: list[tuple[str, list]], fmt: str, meta: dict) -> None:
    with _output(path) as out:
        if fmt == "csv":
            writer = csv.writer(out)
            writer.writerow([name for name, _ in columns])
            for i in range(len(columns[0][1])):
                writer.writerow([vals[i] if isinstance(vals[i], str)
                                 else _fmt_float(vals[i]) for _, vals in columns])
        else:
            samples = [{name: vals[i] if vals[i] is None or isinstance(vals[i], str)
                        else float(vals[i]) for name, vals in columns}
                       for i in range(len(columns[0][1]))]
            json.dump({"meta": meta, "samples": samples}, out, sort_keys=True, indent=1)
            out.write("\n")


def _steps_line(steps: dict) -> str:
    """One line of FlowTrace.step_counts for stderr."""
    rejected = ", ".join(f"{reason} {count}" for reason, count in steps["rejected"].items())
    dt_range = ("" if steps["dt_min"] is None
                else f", dt {steps['dt_min']:.3g}..{steps['dt_max']:.3g}")
    return (f"steps: {steps['accepted']} accepted, {sum(steps['rejected'].values())} "
            f"rejected ({rejected}), {steps['geometry_calls']} geometry calls, "
            f"{steps['stages_total']} stages (max {steps['stages_max']}){dt_range}")


@_refuses_non_finite
def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.flow is None:
        raise UsageError("evolve requires --flow")
    kind = cfg.flow.strip().lower().replace("-", "_")
    kind = _FLOW_ALIASES.get(kind, kind)
    if kind not in FLOWS:
        raise UsageError(f"unknown flow {cfg.flow!r}")
    space, graph = _build_surface(cfg)
    report_dt = cfg.report_dt if cfg.report_dt is not None else cfg.t_final / 100.0
    spec = FlowSpec(kind=kind, k=cfg.k, t_final=cfg.t_final, report_dt=report_dt,
                    cfl=cfg.cfl, max_rel_step=cfg.max_rel_step, eps_mono=cfg.eps_mono)
    with _usage_errors():
        spec.validate(space, graph.grid.n)

    trace = evolve(space, graph, spec)
    columns = _trace_columns(trace, ineq.monotone_series(trace))
    steps = trace.step_counts()
    meta = {"config": cfg.to_dict(), "termination": list(trace.termination),
            "findings": trace.findings, "steps": steps}
    _write_table(cfg.out, columns, cfg.fmt, meta)
    print(_steps_line(steps), file=sys.stderr)

    if trace.findings:
        for f in trace.findings:
            print(f"finding: {f}", file=sys.stderr)
        return EXIT_FINDING
    if trace.termination[0] != "reached_t_final":
        print(f"terminated early: {trace.termination}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _check_reports(space: WarpedSpace, graph: RadialGraph,
                   checks: list[str]) -> list[ineq.DeficitReport]:
    """Evaluate each --check item on one report of one surface; a bad item is a usage error."""
    rep = QuantityReport(space, graph, geometry(space, graph))
    with _usage_errors():
        return [ineq.check(rep, item) for item in checks]


def _check_rows(rows: list[dict]) -> list[tuple[str, list]]:
    """verify's CSV columns from its rows: a check without k or ell leaves its cell empty."""
    cells = {"name": str, "k": lambda k: format(k, "g"), "ell": str, "lhs": float, "rhs": float,
             "deficit": float, "relative_deficit": float,
             "class_flags": lambda flags: ";".join(f"{k}={v}" for k, v in flags.items())}
    return [(col, ["" if row[col] is None else cell(row[col]) for row in rows])
            for col, cell in cells.items()]


@_refuses_non_finite
def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.checks:
        raise UsageError("verify requires at least one --check")
    reports = _check_reports(*_build_surface(cfg), cfg.checks)
    # every row, and so the surface's class flags, before --out is opened:
    # a flag that fails to compute leaves no file behind
    rows = [rep.to_dict() for rep in reports]

    if cfg.fmt == "json":
        with _output(cfg.out) as out:
            json.dump(rows, out, sort_keys=True, indent=1)
            out.write("\n")
    else:
        _write_table(cfg.out, _check_rows(rows), "csv", {})

    item, worst = min(zip(cfg.checks, reports),
                      key=lambda pair: pair[1].deficit / pair[1].tol_scale)
    if worst.deficit < -cfg.tol * worst.tol_scale:
        print(f"finding: deficit {worst.deficit} < -{cfg.tol} x {worst.tol_scale} "
              f"in --check {item}", file=sys.stderr)
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

@_refuses_non_finite
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

# most members of one swept range: each member is a surface and its checks
# (1.3 ms for girao at 64x128, so 1e5 take minutes), and every member's params
# and deficits stay in memory until the table is written
_MAX_SWEEP_MEMBERS = 1e5


def _expand_range(text: str) -> list[float]:
    """A sweep value: ``v``, integer ``lo:hi``, or ``lo:hi:step`` up to its last member in hi."""
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
    # 1e-9 step of slack keeps hi when (hi - lo)/step rounds just below a whole number
    last = (hi - lo) / step + 1e-9
    if not last < _MAX_SWEEP_MEMBERS:           # inf too: sized before any list is built
        raise UsageError(f"sweep range {text!r} has {last + 1:.6g} members, "
                         f"above {_MAX_SWEEP_MEMBERS:g}")
    vals = [lo + i * step for i in range(math.floor(last) + 1)]
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


def _sweep_one(args) -> tuple[dict, list[tuple]]:
    """One member's params and (name, k, ell, deficit, tol_scale) per check: what sweep reads."""
    space_spec, n, grid_spec, family, params, checks = args
    with _usage_errors():
        space = parse_space_spec(space_spec)
        grid = parse_grid_spec(grid_spec, n, space.fiber_scale)
        graph = make_seed_surface(space, grid, family, **params)
    return params, [(rep.name, rep.k, rep.ell, rep.deficit, rep.tol_scale)
                    for rep in _check_reports(space, graph, checks)]


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


# A child pays off only once its share of members outlasts what it costs:
# its start (forking, starting and joining a child that does nothing takes
# 2.5-3 ms after a few verifies), then a copy-on-write fault on each page that
# it or the caller writes, whose count grows with a member's grid (about
# 1,000 a process at 64x128, 2,400 at 128x256), and on a 2-vCPU host two busy
# processes slow each other.  So a sweep's break-even is _FORK_S plus
# _FORK_S_PER_NODE per grid node (8.2 ms at 64x128, 25.4 ms at 128x256),
# against a child's share projected from the caller's members.
# tools/sweep_breakeven.py timed one process against two, six euclidean checks
# in a long-lived process after verifies (BENCH_sweep_policy.json, 2-vCPU
# x86_64): at 64x128, 8 members (a child's share of 4.7 ms) ran 1.6x faster
# inline and 40 (23 ms) 1.3x faster forked; at 128x256, 8 members (16 ms) 1.07x
# faster inline and 16 (33 ms) 1.25x faster forked.  Between those the sides
# are within 10%: 20 members at 64x128 (12 ms) read 6% faster inline there and
# 5-14% faster forked in two other runs of the script, and the benchmark's
# 20-member 64x128 flow sweeps (shares of 9.5-11.3 ms) read 3-10% slower
# inline (BENCH_sweep_pairs.json), so the 64x128 break-even sits below them.
# A new `warpflow sweep` process breaks even later, for a reason not known
# (inline won there up to 150 ms at 64x128 and 37 ms at 128x256): a one-shot
# sweep between the two forks and runs up to 12% slower than inline.
_FORK_S = 2.5e-3
_FORK_S_PER_NODE = 0.7e-6


class Pool:
    """A process pool of at most ``processes`` workers, the calling process included.

    ``map`` runs the first item in the caller and times it, and the second
    too when the items outnumber the processes.  It then cuts the items into
    k contiguous shares, k the most processes (up to min(processes,
    len(items))) whose smallest child share, projected as its item count
    times the faster of those times, runs longer than ``break_even_s`` (1 if
    none does), with one stderr line when that cuts the count.  It starts one
    child per share after the first, runs the rest of the first share in the
    caller (warm: its caches and heap are already in place) and then gathers
    the children's lists in order.  A share stops at its first exception,
    which is raised as it is, so a failure is the one a sequential map meets
    first.  A child that exits without sending its results is a RuntimeError
    naming its exit code and its members.  The initializer runs in each
    child; the caller is expected to have set itself up.
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

    def map(self, fn, items, break_even_s: float) -> list:
        items = list(items)
        if not items:
            return []
        # the first item runs cold in a new process (its grid, caches and heap
        # are built then), so the projection reads the faster of the first two
        # where the caller's share holds two: it does whenever items outnumber
        # the processes
        results, item_s = [], math.inf
        for x in items[:2 if len(items) > self._processes else 1]:
            start = time.perf_counter()
            results.append(fn(x))
            item_s = min(item_s, time.perf_counter() - start)
        # with k processes the smallest child share has len(items) // k items
        most = min(self._processes, len(items))
        k = next((k for k in range(most, 1, -1)
                  if len(items) // k * item_s > break_even_s), 1)
        if k < most:
            share = len(items) // (k + 1)
            print(f"sweep: {len(items)} members ran in {k} of at most {self._processes} "
                  f"processes: a child's share of {share} would take "
                  f"{share * item_s * 1e3:.1f} ms, not above the "
                  f"{break_even_s * 1e3:.1f} ms break-even of a fork", file=sys.stderr)
        # ceiling bounds, so that the caller's share is the largest: a child
        # pays for its fork and for faulting in its pages on top of its share
        bounds = [-(-i * len(items) // k) for i in range(k + 1)]
        children = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import multiprocessing      # a forking map alone pays for this import
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_pool_child, daemon=True,
                                           args=(sender, self._initializer, fn, items[lo:hi]))
            proc.start()
            sender.close()      # the child holds the only sending end: EOF means it died
            children.append((proc, receiver, lo, hi))
            self._children.append(children[-1])
        results += [fn(x) for x in items[len(results):bounds[1]]]
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


@_refuses_non_finite
def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.surface_file:
        raise UsageError("sweep members come from a --surface family; it reads no --surface-file")
    if not cfg.checks:
        raise UsageError("sweep requires at least one --check")
    # validate in the parent, so that bad input exits 64 before any worker starts
    members = _sweep_members(cfg.surface)
    _, grid = _build_space_grid(cfg)
    tasks = [(cfg.space, cfg.n, cfg.grid, family, params, cfg.checks)
             for family, params in members]
    # --workers is the most processes a sweep uses, the calling one included:
    # N forks at most N - 1 children (1 forks none), and a child that dies
    # exits 1.  Pool.map forks only where a child's share of members would
    # outlast the break-even of a fork on this grid; a smaller family runs
    # whole in this process.
    with Pool(cfg.workers, initializer=steady_allocator) as pool:
        results = pool.map(_sweep_one, tasks, _FORK_S + _FORK_S_PER_NODE * grid.node_count)

    # a member sends its deficits alone, never its surface's class flags:
    # sweep writes no flags, so no member computes principal curvatures
    param_keys = sorted({k for _, params in members for k in params})
    check_names = [name + (f"_k{format(k, 'g')}" if k else "")
                   + (f"_l{ell}" if ell is not None else "")
                   for name, k, ell, *_ in results[0][1]]
    deficits = [[deficit for *_, deficit, _ in reports] for _, reports in results]
    columns = [(key, [params.get(key) for params, _ in results]) for key in param_keys]
    columns += [(name, [row[j] for row in deficits]) for j, name in enumerate(check_names)]
    columns.append(("min_deficit", [min(row) for row in deficits]))
    _write_table(cfg.out, columns, cfg.fmt, {"config": cfg.to_dict()})
    return EXIT_FINDING if any(d < -cfg.tol * scale for _, reports in results
                               for *_, d, scale in reports) else EXIT_OK


# ---------------------------------------------------------------- dump

def cmd_dump_surface(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise UsageError("dump-surface requires --out")
    dump_surface_csv(_build_surface(cfg)[1], cfg.out)
    return EXIT_OK


_COMMON = ("space", "n", "grid", "surface", "surface_file", "out")
# command -> (its function, its help line, the RunConfig fields it takes as
# flags, in the order --help lists them)
_COMMANDS = {
    "evolve": (cmd_evolve, "run a flow and write its trace", _COMMON + (
        "fmt", "flow", "k", "t_final", "report_dt", "cfl", "max_rel_step", "eps_mono")),
    "verify": (cmd_verify, "evaluate inequality deficits on one surface",
               _COMMON + ("fmt", "checks", "tol")),
    "reference": (cmd_reference, "geodesic-ball reference functions",
                  ("space", "n", "k", "ell", "r", "invert", "fmt")),
    "probe": (cmd_probe, "sample warping-function assumptions",
              ("space", "r_max", "samples", "fmt")),
    "sweep": (cmd_sweep, "min deficit over a surface family",
              _COMMON + ("fmt", "checks", "tol", "workers")),
    "dump-surface": (cmd_dump_surface, "write a surface as CSV", _COMMON),
}


def main(argv: list[str] | None = None) -> int:
    steady_allocator()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _merge_config(ns)
        return _COMMANDS[ns.command][0](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
