"""Step counts of the four acceptance flow runs, per checkout, into one JSON file.

    python tools/flow_fixtures.py --checkout parent=DIR --checkout change=DIR \
        --out BENCH_name.json --label acceptance_fixtures

Each DIR is a checkout of the repository.  Every checkout runs, in a new
interpreter on its own ``src/``, the imcf, euclidean_inverse, hyperbolic_sx and
sphere_bgl runs that ``tests/test_acceptance.py`` shares as module fixtures,
and records each run's ``FlowTrace.step_counts()`` (accepted steps, rejections
by reason, geometry calls, RKC stages over all attempts and their maximum, dt
range) with its wall time.  The counts are exact and repeat from run to run;
the wall time is one run's.  The runs land under ``--label`` in the output
file, which keeps the labels already there, and one stderr line per run gives
geometry calls, stage maximum and wall time side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# name -> (space, grid, seed family and options, flow spec), as in tests/test_acceptance.py
FIXTURES = {
    "imcf": ("euclidean", (64, 128), ("legendre", {"r0": 1, "eps": 0.2, "l": 2}),
             {"kind": "imcf", "k": 1, "t_final": 3.0, "report_dt": 0.01}),
    "euclidean_inverse": ("euclidean", (64, 128), ("legendre", {"r0": 1, "eps": 0.15, "l": 2}),
                          {"kind": "euclidean_inverse", "k": 1, "t_final": 2.0,
                           "report_dt": 0.01}),
    "hyperbolic_sx": ("hyperbolic", (64, 128), ("legendre", {"r0": 1, "eps": 0.1, "l": 2}),
                      {"kind": "hyperbolic_sx", "k": 1, "t_final": 5.0, "report_dt": 0.02}),
    "sphere_bgl": ("sphere", (32, 64),
                   ("bandlimited", {"seed": 7, "r0": 0.7, "amp": 0.03, "lmax": 4}),
                   {"kind": "sphere_bgl", "k": 2, "t_final": 3.0, "report_dt": 0.02}),
}


def run_fixtures() -> dict:
    """Every fixture run in this interpreter: its step counts and wall time."""
    from warpflow.ambient import parse_space_spec
    from warpflow.flows import FlowSpec, evolve
    from warpflow.grid import sphere_grid
    from warpflow.surface import make_seed_surface

    out = {}
    for name, (space_spec, (M, P), (family, params), flow) in FIXTURES.items():
        space = parse_space_spec(space_spec)
        seed = make_seed_surface(space, sphere_grid(M, P), family, **params)
        start = time.perf_counter()
        trace = evolve(space, seed, FlowSpec(**flow))
        out[name] = {**trace.step_counts(), "wall_s": time.perf_counter() - start,
                     "termination": list(trace.termination)}
    return out


def run_checkout(checkout: Path) -> dict:
    """run_fixtures() in a new interpreter that imports checkout's warpflow."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the fixtures of {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", default=[], metavar="SIDE=DIR",
                   help="a named checkout; give one per side")
    p.add_argument("--out", type=Path)
    p.add_argument("--label", default="acceptance_fixtures")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(run_fixtures()))
        return 0
    if not args.checkout or args.out is None:
        p.error("give --out and at least one --checkout SIDE=DIR")

    sides = {}
    for item in args.checkout:
        side, _, checkout = item.partition("=")
        sides[side] = run_checkout(Path(checkout))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "script": "tools/flow_fixtures.py", "fixtures": FIXTURES,
        "cores": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), **sides}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name in FIXTURES:
        print(f"{args.label} {name}: " + ", ".join(
            f"{side} {runs[name]['geometry_calls']} geometry calls, stages max "
            f"{runs[name]['stages_max']}, {runs[name]['wall_s']:.2f} s"
            for side, runs in sides.items()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
