"""Time sweeps of growing families in one process against forked, to size
``warpflow.cli._FORK_S`` and ``_FORK_S_PER_NODE``, a sweep's break-even.

    PYTHONPATH=src python tools/sweep_breakeven.py [--repeats 4] \
        [--out BENCH_sweep_policy.json]

Every family is consecutive ``bandlimited`` euclidean seeds, swept with the
benchmark's six euclidean checks and ``--workers 2``, twice per repeat: with
the break-even set to infinity (the whole family runs in the caller) and set
to 0 (one child takes the second half), alternating which of the two runs
first.  Each family is timed in two modes:

- ``one_shot``: a new interpreter per run, timed from outside, so start-up,
  imports and the sweep are counted as a user's command counts them;
- ``in_process``: in this interpreter, timed around ``cli.main``, after
  verifying the family's first four members one call at a time, as the
  benchmark's screen does before its sweep.

Each row keeps both lists of times, their medians and the child's projected
share, the figure ``Pool.map`` compares with the break-even: the members of
a child times the faster of the caller's first two members, read from the
one stderr line of the inline runs.  The summary gives per mode and grid the
largest projected share where the inline run won and the smallest where the
forked run won; ``break_even_s_in_code`` gives the code's break-even per grid.
Every process runs one BLAS thread, as the benchmark's do.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import warpflow.cli as cli  # noqa: E402

CHECKS = ("girao", "boundary-momentum:k=2", "weinstock", "phi-quermass:k=1",
          "kwong-miao:k=2", "minkowski:k=1")
FAMILIES = {"64x128": (8, 20, 40, 60, 100, 200, 400), "128x256": (4, 8, 16, 32, 64, 128)}
VERIFIES = 4        # in_process: members verified before each sweep
SHARE = re.compile(r"would take ([0-9.]+) ms")
ONE_SHOT = ("import sys, warpflow.cli as cli; cli._FORK_S = float(sys.argv[1]); "
            "cli._FORK_S_PER_NODE = 0.0; sys.exit(cli.main(sys.argv[2:]))")


def surface(seeds: str) -> str:
    return f"bandlimited:seed={seeds},r0=1.0,amp=0.05,lmax=4"


def base_args(grid: str) -> list[str]:
    args = ["--space", "euclidean", "--grid", grid]
    for check in CHECKS:
        args += ["--check", check]
    return args


def sweep_argv(grid: str, members: int) -> list[str]:
    return ["sweep", *base_args(grid), "--surface", surface(f"1:{members}"), "--workers", "2"]


def run_one_shot(grid: str, members: int, break_even: float) -> tuple[float, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", ONE_SHOT, repr(break_even),
                           *sweep_argv(grid, members)], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"one-shot sweep of {members} at {grid} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return seconds, done.stderr


def run_in_process(grid: str, members: int, break_even: float) -> tuple[float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for seed in range(1, min(VERIFIES, members) + 1):
            if cli.main(["verify", *base_args(grid), "--surface", surface(seed)]) != 0:
                raise SystemExit(f"verify of seed {seed} at {grid} failed:\n{err.getvalue()}")
        saved = cli._FORK_S, cli._FORK_S_PER_NODE
        cli._FORK_S, cli._FORK_S_PER_NODE = break_even, 0.0
        try:
            t0 = time.perf_counter()
            code = cli.main(sweep_argv(grid, members))
            seconds = time.perf_counter() - t0
        finally:
            cli._FORK_S, cli._FORK_S_PER_NODE = saved
    if code != 0:
        raise SystemExit(f"in-process sweep of {members} at {grid} exited {code}:\n"
                         f"{err.getvalue()}")
    return seconds, err.getvalue()


def measure(mode: str, grid: str, members: int, repeats: int) -> dict:
    run = run_one_shot if mode == "one_shot" else run_in_process
    times = {"inline": [], "fork": []}
    shares = []
    for r in range(repeats):
        order = ("inline", "fork") if r % 2 == 0 else ("fork", "inline")
        for side in order:
            seconds, err = run(grid, members, float("inf") if side == "inline" else 0.0)
            times[side].append(seconds)
            if side == "inline":
                shares.append(float(SHARE.search(err).group(1)) / 1e3)
    inline, fork = statistics.median(times["inline"]), statistics.median(times["fork"])
    return {"mode": mode, "grid": grid, "members": members,
            "inline_s": times["inline"], "fork_s": times["fork"],
            "inline_median_s": inline, "fork_median_s": fork,
            "fork_over_inline": fork / inline,
            "projected_child_share_s": statistics.median(shares),
            "winner": "fork" if fork < inline else "inline"}


def summarize(rows: list[dict]) -> dict:
    out = {}
    for row in rows:
        entry = out.setdefault(f"{row['mode']} {row['grid']}", {
            "inline_wins_up_to_share_s": None, "fork_wins_from_share_s": None})
        share = row["projected_child_share_s"]
        if row["winner"] == "inline":
            key, better = "inline_wins_up_to_share_s", max
        else:
            key, better = "fork_wins_from_share_s", min
        entry[key] = share if entry[key] is None else better(entry[key], share)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--out", default="BENCH_sweep_policy.json")
    args = parser.parse_args()
    rows = []
    for mode in ("one_shot", "in_process"):
        for grid, sizes in FAMILIES.items():
            for members in sizes:
                rows.append(measure(mode, grid, members, args.repeats))
                row = rows[-1]
                print(f"{mode} {grid} {members:4d} members: inline {row['inline_median_s']:.4f} s, "
                      f"fork {row['fork_median_s']:.4f} s, child share "
                      f"{row['projected_child_share_s'] * 1e3:.1f} ms -> {row['winner']}",
                      file=sys.stderr)
    result = {
        "script": "tools/sweep_breakeven.py",
        "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "checks": list(CHECKS), "workers": 2, "repeats": args.repeats,
        "verifies_before_in_process_sweep": VERIFIES,
        "fork_s": cli._FORK_S, "fork_s_per_node": cli._FORK_S_PER_NODE,
        "break_even_s_in_code": {grid: cli._FORK_S + cli._FORK_S_PER_NODE * math.prod(
            map(int, grid.split("x"))) for grid in FAMILIES},
        "summary": summarize(rows),
        "runs": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["summary"], indent=1), file=sys.stderr)


if __name__ == "__main__":
    main()
