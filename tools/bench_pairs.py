"""Alternating parent/change runs of the benchmark, summarized into one JSON file.

    python tools/bench_pairs.py --parent DIR --change DIR --workload flow_sx \
        --seeds 901 902 903 --seconds 20 --out BENCH_name.json --label flow_sx \
        [--traced-seed 1]

DIR is a checkout of the repository (each needs its own perfbench/ and src/).
Each seed is one pair: both checkouts run ``perfbench/run.py --trace 0`` on that
seed, the parent first on even pairs and the change first on odd ones, so a
drift of the machine's speed does not favour either side.  The summary gives,
per end-to-end metric of BENCHMARK.json, the median and quartiles of each side
and the number of pairs the change wins.  ``--traced-seed N`` adds one
``--trace 1`` run per side on seed N and keeps its per-layer metrics (call
counts, layer times) next to the pairs, so a claim about a layer cites them.
The runs land under ``--label`` in the output file, which keeps the labels
already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


STDERR_TAIL = 20          # lines of a failed run's stderr or FAIL lines that are shown
COUNT_UNITS = ("count", "flop", "B")   # per-layer metrics that are exact counts


def run_once(side: str, checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run.

    A run that exits non-zero ends the script, naming it and its stderr, and
    so does one that reports a wrong result or a failed operation: its
    metrics must not be summarized as if it had passed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"{side} run of {workload} seed {seed} in {checkout} exited "
                         f"{out.returncode}; the last lines of its stderr:\n{tail}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        fails = "\n".join([line for line in out.stdout.splitlines()
                           if line.startswith("FAIL ")][:STDERR_TAIL])
        raise SystemExit(f"{side} run of {workload} seed {seed} in {checkout} reported "
                         f"correct {result['correct']} with {result['failed']} failed "
                         f"operations:\n{fails}")
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name = spec["name"]
        rows = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in pairs]
        rows = [(a, b) for a, b in rows if a is not None and b is not None]
        if not rows:
            continue
        lower = spec["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in rows)
        parent, change = quartiles([a for a, _ in rows]), quartiles([b for _, b in rows])
        out[name] = {"unit": spec["unit"], "better": spec["better"], "parent": parent,
                     "change": change, "change_wins": f"{wins}/{len(rows)}",
                     "median_rel": change["median"] / parent["median"] - 1.0}
    return out


def progress_line(label: str, pair: dict, metrics: list[dict]) -> str:
    """Every end-to-end metric of one pair, parent -> change."""
    def value(side, name):
        return pair[side]["metrics"].get(name, float("nan"))

    return f"{label} seed {pair['seed']} (parent -> change): " + ", ".join(
        f"{m['name']} {value('parent', m['name']):.4g} -> {value('change', m['name']):.4g}"
        for m in metrics)


def traced_counts_line(label: str, traced: dict, metrics: list[dict]) -> str:
    """The per-layer counts of the traced runs that differ, parent -> change."""
    def count(side, name):
        return traced[side]["metrics"].get(name)

    moved = [f"{m['name']} {count('parent', m['name'])} -> {count('change', m['name'])}"
             for m in metrics if m["unit"] in COUNT_UNITS
             and count("parent", m["name"]) != count("change", m["name"])]
    return (f"{label} traced seed {traced['seed']}: "
            + (", ".join(moved) if moved else "every count equal"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--traced-seed", type=int, default=None,
                   help="also run --trace 1 once per side on this seed")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(side, getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print(progress_line(args.label, pair, spec["end_to_end"]), file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    run = doc.setdefault("runs", {})[args.label] = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                    f"--seconds {args.seconds:g} --trace 0"),
        "workload": args.workload,
        "seeds": args.seeds,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "summary": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    if args.traced_seed is not None:
        traced = {"seed": args.traced_seed,
                  "command": (f"python3 perfbench/run.py --workload {args.workload} "
                              f"--seed {args.traced_seed} --seconds {args.seconds:g} "
                              f"--trace 1")}
        for side in ("parent", "change"):
            traced[side] = run_once(side, getattr(args, side), args.workload,
                                    args.traced_seed, args.seconds, trace=1)
        run["traced"] = traced
        print(traced_counts_line(args.label, traced, spec["per_layer"]), file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
