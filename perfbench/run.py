"""warpflow benchmark.

    python3 perfbench/run.py --workload {flow_imcf,flow_sx,gallery} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  warpflow is imported from ``src/`` and every
operation goes through ``warpflow.cli.main`` in this process.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off, each time
scaled to a reference machine speed by the kernel in ``calibrate.py`` (the
raw figures are in the ``meta`` line).  ``--trace 1``
runs the workload's first unit (see ``Workload.unit_ops``) untraced and then
traced, repeating the pair while the time allows, and reports per-layer
spans and counts for one unit.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything imports numpy, so the timings
# measure warpflow and not the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import count_above, nearest_rank, valid_metric_name
from workloads import WORKLOADS, Outcome, check_evolve, check_sweep, check_verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5          # fresh-interpreter set-ups whose median is setup_s
WORKER_NOTE = ("sweep members run in worker processes; their spans are not "
               "recorded, the parent records only cli.sweep.pool")


# ---------------------------------------------------------------- set-up

def build_inputs(workload, seed: int) -> None:
    """Build the spaces, grids and surfaces of the first unit, as the CLI does."""
    from warpflow.ambient import parse_space_spec
    from warpflow.surface import make_seed_surface, parse_grid_spec, parse_surface_spec

    screen = workload.screen(seed, 0, workers=1)
    for group in screen.families + screen.rounds:
        space = parse_space_spec(group.space)
        grid = parse_grid_spec(group.grid, group.n, space.fiber_scale)
        for spec in group.specs():
            family, params = parse_surface_spec(spec)
            make_seed_surface(space, grid, family, **params)


def setup_once(workload, seed: int) -> tuple[float, float]:
    """(import seconds, build seconds) of one set-up in this interpreter."""
    t0 = time.perf_counter()
    import warpflow.cli  # noqa: F401
    t1 = time.perf_counter()
    build_inputs(workload, seed)
    return t1 - t0, time.perf_counter() - t1


def setup_probe(workload_name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    import_s, build_s = json.loads(proc.stdout.strip().splitlines()[-1])
    return import_s, build_s


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        "sweep_workers": workers,
    }


# ---------------------------------------------------------------- running

def call(op, tracer=None) -> Outcome:
    """One ``warpflow.cli.main`` call with its output captured."""
    import warpflow.cli as cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(list(op.argv))
        else:
            tracer.run_id += 1
            idx = tracer.begin("cli.main")
            try:
                rc = cli.main(list(op.argv))
            finally:
                tracer.end(idx)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += len(out.getvalue().encode())
    return Outcome(op, rc, seconds, out.getvalue(), err.getvalue(), start=t0)


def run_unit(ops, tracer=None, calibrator=None) -> list[Outcome]:
    """Run ops in order, then check them (sweeps against the verifies).

    With a calibrator, the kernel is probed between ops."""
    outcomes = []
    for op in ops:
        if calibrator is not None:
            calibrator.probe_between_ops()
        outcomes.append(call(op, tracer))
        if calibrator is not None and op.kind == "sweep":
            calibrator.mark_cold()
    verified = {}
    for o in outcomes:
        if o.op.kind == "verify":
            check_verify(o)
            if o.op.family is not None and not o.failed:
                verified[(o.op.family, o.op.seed)] = o.deficits
        elif o.op.kind == "evolve":
            check_evolve(o)
    for o in outcomes:
        if o.op.kind == "sweep":
            check_sweep(o, verified)
    return outcomes


def timed_run(workload, seed: int, seconds: float, workers: int, calibrator=None):
    """Units until the time is up and the sample minimums are met.

    Every time is scaled to the reference speed of the calibration kernel
    (``calibrate.py``) by the kernel probes next to it; the raw figures go
    to ``samples`` for comparison."""
    # imported here: numpy must not be loaded before this process's set-up
    from calibrate import Calibrator

    cal = calibrator or Calibrator()
    sizes = workload.sizes
    outcomes, units = [], []
    start = time.perf_counter()
    p = 0
    while True:
        unit = run_unit(workload.unit_ops(seed, p, workers), calibrator=cal)
        outcomes += unit
        units.append(unit)
        p += 1
        verifies = sum(o.op.kind == "verify" and o.op.n == 2 for o in outcomes)
        evolves = sum(o.op.kind == "evolve" for o in outcomes)
        if (time.perf_counter() - start >= seconds and verifies >= sizes.min_verifies
                and evolves >= workload.min_evolves):
            break
    cal.probe()

    def scaled(o):
        return cal.scale(o.start, o.seconds)

    def wall_s(raw: bool) -> float:
        evolves = [o for o in outcomes if o.op.kind == "evolve"]
        if evolves:
            return statistics.median(o.seconds if raw else scaled(o) for o in evolves)
        return statistics.median(sum(o.seconds if raw else scaled(o) for o in unit)
                                 for unit in units)

    # latency percentiles over the n = 2 surfaces only: the 5 ms circle
    # verifies of the gallery would put its p50 between two ambients' clusters
    verifies = [o for o in outcomes if o.op.kind == "verify" and o.op.n == 2]
    verify_ms = [1e3 * scaled(o) for o in verifies]
    raw_verify_ms = [1e3 * o.seconds for o in verifies]
    sweeps = [o for o in outcomes if o.op.kind == "sweep"]
    members = sum(o.op.members for o in sweeps)
    metrics = {
        "wall_s": (wall_s(raw=False), "s"),
        "verify_ms_p50": (nearest_rank(verify_ms, 0.5), "ms"),
        "verify_ms_p90": (nearest_rank(verify_ms, 0.9), "ms"),
        "sweep_members_per_s": (members / sum(scaled(o) for o in sweeps), "1/s"),
    }
    samples = {
        "units": p,
        "evolves": sum(o.op.kind == "evolve" for o in outcomes),
        "verifies": len(verify_ms),
        "verifies_above_p90": count_above(verify_ms, nearest_rank(verify_ms, 0.9)),
        "sweeps": len(sweeps),
        "sweep_members": members,
        "calibration": cal.summary(),
        "raw": {
            "wall_s": wall_s(raw=True),
            "verify_ms_p50": nearest_rank(raw_verify_ms, 0.5),
            "verify_ms_p90": nearest_rank(raw_verify_ms, 0.9),
            "sweep_members_per_s": members / sum(o.seconds for o in sweeps),
        },
    }
    return outcomes, metrics, samples


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced unit; ``wall`` is its operations' time."""
    from tracer import covered_time

    tot = tracer.layer_totals()
    c = tracer.counts

    def t(name, key="s"):
        return tot.get(name, {}).get(key, 0.0)

    diff_s = t("grid.differentiate")
    flops = c["grid.differentiate.flop_computed"]
    return {
        "grid.differentiate.calls": (c["grid.differentiate.calls"], "count"),
        "grid.differentiate.s": (diff_s, "s"),
        "grid.differentiate.flop_computed": (flops, "flop"),
        "grid.differentiate.gflop_per_s": (flops / diff_s / 1e9 if diff_s else 0.0,
                                           "GFLOP/s"),
        "surface.geometry.calls": (c["surface.geometry.calls"], "count"),
        "surface.geometry.self_s": (t("surface.geometry", "self_s"), "s"),
        "flows.evolve.self_s": (t("flows.evolve", "self_s"), "s"),
        "flows.geometry_calls": (c["flows.geometry_calls"], "count"),
        "flows.samples": (c["flows.samples"], "count"),
        "quantities.volume.calls": (c["quantities.volume.calls"], "count"),
        "quantities.volume.self_s": (t("quantities.volume", "self_s"), "s"),
        "ambient.warp.calls": (c["ambient.warp.calls"], "count"),
        "ambient.warp.points": (c["ambient.warp.points"], "count"),
        "ambient.warp.s": (t("ambient.warp"), "s"),
        "quantities.full_report.calls": (c["quantities.full_report.calls"], "count"),
        "quantities.full_report.self_s": (t("quantities.full_report", "self_s"), "s"),
        "quantities.quermassintegrals.calls": (c["quantities.quermassintegrals.calls"],
                                               "count"),
        "quantities.quermassintegrals.self_s": (
            t("quantities.quermassintegrals", "self_s"), "s"),
        "inequalities.check.calls": (c["inequalities.check.calls"], "count"),
        "inequalities.check.self_s": (t("inequalities.check", "self_s"), "s"),
        "inequalities.ball_chi_inverse.calls": (
            c["inequalities.ball_chi_inverse.calls"], "count"),
        "inequalities.ball_chi_inverse.s": (t("inequalities.ball_chi_inverse"), "s"),
        "inequalities.monotone_series.self_s": (
            t("inequalities.monotone_series", "self_s"), "s"),
        "cli.main.calls": (c["cli.main.calls"], "count"),
        "cli.main.self_s": (t("cli.main", "self_s"), "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "B"),
        "cli.sweep.pool_s": (t("cli.sweep.pool"), "s"),
        "trace.wall_s": (wall, "s"),
        "share.differentiate": (diff_s / wall, "frac"),
        "share.differentiate_geometry_self": (
            (diff_s + t("surface.geometry", "self_s")) / wall, "frac"),
        "share.volume": (t("quantities.volume") / wall, "frac"),
        "share.quantities_inequalities": (
            covered_time(tracer.spans, ("quantities.", "inequalities.")) / wall, "frac"),
    }


COUNT_UNITS = ("count", "flop", "B")


def traced_run(workload, seed: int, seconds: float, workers: int, header: dict,
               out_dir: Path = OUT_DIR):
    """Pairs of (untraced, traced) runs of unit 0 while they fit in the time."""
    from tracer import Tracer, write_spans

    ops = workload.unit_ops(seed, 0, workers)
    outcomes, per_unit, overheads = [], [], []
    problems = []
    start = time.perf_counter()
    out_dir.mkdir(exist_ok=True)
    while True:
        t0 = time.perf_counter()
        reference = run_unit(ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_unit(ops, tracer)
        finally:
            tracer.uninstall()
        pair_s = time.perf_counter() - t0
        outcomes += reference + traced
        wall = sum(o.seconds for o in traced)
        overheads.append(wall / sum(o.seconds for o in reference) - 1.0)
        per_unit.append(layer_metrics(tracer, wall))
        write_spans(out_dir / f"{workload.name}-seed{seed}-unit{len(per_unit)}.spans.jsonl",
                    tracer.spans, {**header, "unit": len(per_unit)})
        if time.perf_counter() - start + pair_s > seconds:
            break

    metrics = {}
    for name, (_, unit) in per_unit[0].items():
        values = [m[name][0] for m in per_unit]
        if unit in COUNT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between identical units: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "frac")
    return outcomes, metrics, {"traced_units": len(per_unit)}, problems


# ---------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "warpflow" / "cli.py").is_file():
        print(f"error: warpflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(setup_once(workload, args.seed)))
        return 0
    # --workers never above the usable cores; evolve ignores it, so it is
    # passed to sweep only
    workers = min(2, len(os.sched_getaffinity(0)))

    in_process = setup_once(workload, args.seed)
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    env = environment(workers)
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "note": WORKER_NOTE}
    print("env " + json.dumps(env, sort_keys=True))

    # untimed warm-up: the first operation, so lazy caches fill
    call(workload.unit_ops(args.seed, 0, workers)[0])

    problems = []
    if args.trace:
        outcomes, metrics, samples, problems = traced_run(
            workload, args.seed, args.seconds, workers, header)
        metrics["setup.import_s"] = (statistics.median(i for i, _ in setups), "s")
        metrics["setup.build_s"] = (statistics.median(b for _, b in setups), "s")
    else:
        from calibrate import Calibrator

        cal = Calibrator()
        outcomes, metrics, samples = timed_run(workload, args.seed, args.seconds, workers,
                                               cal)
        # the probes next to a set-up follow a process exit and read slow,
        # so set-up is scaled by the whole timed run's median kernel time
        setup_raw = statistics.median(i + b for i, b in setups)
        metrics["setup_s"] = (setup_raw * cal.overall_factor(), "s")
        samples["raw"]["setup_s"] = setup_raw
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    attempted = sum(o.op.members for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for message in o.problems:
            problems.append(f"{o.op.kind} {' '.join(o.op.argv[1:])}: {message}")
    for message in problems[:20]:
        print("FAIL " + message)
    bad_names = [name for name in metrics if not valid_metric_name(name)]
    if bad_names:
        raise ValueError(f"invalid metric names {bad_names}")

    meta = {**header, "samples": samples, "setup_samples": setups,
            "setup_in_process": in_process,
            "fail_frac": f"{failed}/{attempted}", "problems": len(problems)}
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
