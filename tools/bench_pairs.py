"""Alternating parent/change runs of the benchmark, summarized into one JSON file.

    python tools/bench_pairs.py --parent DIR --change DIR --workload flow_sx \
        --seeds 901 902 903 --seconds 20 --out BENCH_name.json --label flow_sx \
        [--control DIR] [--traced-seed 1]

DIR is a checkout of the repository (each needs its own perfbench/ and src/).
Each seed is one pair: both checkouts run ``perfbench/run.py --trace 0`` on that
seed, the parent first on even pairs and the change first on odd ones, so a
drift of the machine's speed does not favour either side.  The summary gives,
per end-to-end metric of BENCHMARK.json, the median and quartiles of each side
and the number of pairs the change wins.  ``--control DIR`` names a second
extraction of the parent commit, run in the same pairs (parent, change,
control on even pairs, the reverse on odd ones): the summary then gives the
control's median, ``control_median_rel`` and the pairs the control wins
against the parent, an A/A difference of identical code that an A/B claim
must exceed.  Two checkouts of one commit have read 6% apart in 6 of 6
pairs, so a difference without a control can be the checkout's, not the
code's.  ``--traced-seed N`` adds three
``--trace 1`` runs per side on seed N, alternating which side goes first, and
keeps the median of each per-layer metric (call counts, layer times) next to
the pairs, so a claim about a layer cites them: one traced run's layer times
vary by about 20% between runs of one checkout.  An exact count (a per-layer
metric in count or flop) that differs between the runs of one side ends the
script, naming the metric.  Output bytes (unit B) are not such a count: they
sum the lengths of printed floats, so a last-digit change moves them.
The runs land under ``--label`` in the output file, which keeps the labels
already there.  The script ends with one stderr line per end-to-end metric:
both medians, ``median_rel``, the pairs the change wins and the parent's
quartile spread, the figures a no-regression statement cites, and with
``--control`` the same A/A figures of the control.
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
COUNT_UNITS = ("count", "flop")   # per-layer metrics that are exact counts of work
TRACED_RUNS = 3           # --trace 1 runs per side on the traced seed


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
    """q1, median and q3 of values; a single value is all three."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _against_parent(pairs: list[dict], side: str, name: str, lower: bool) -> dict:
    """side's quartiles, pairs won and median_rel against the parent on one metric;
    {} where no pair has both values."""
    rows = [(p["parent"]["metrics"].get(name), p[side]["metrics"].get(name))
            for p in pairs if side in p]
    rows = [(a, b) for a, b in rows if a is not None and b is not None]
    if not rows:
        return {}
    wins = sum((b < a) if lower else (b > a) for a, b in rows)
    parent, other = quartiles([a for a, _ in rows]), quartiles([b for _, b in rows])
    return {"parent": parent, side: other, f"{side}_wins": f"{wins}/{len(rows)}",
            "median_rel": other["median"] / parent["median"] - 1.0}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric the change against the parent, and the control's A/A figures
    (``control``, ``control_wins``, ``control_median_rel``) where pairs have one."""
    out = {}
    for spec in metrics:
        lower = spec["better"] == "lower"
        change = _against_parent(pairs, "change", spec["name"], lower)
        if not change:
            continue
        out[spec["name"]] = {"unit": spec["unit"], "better": spec["better"], **change}
        control = _against_parent(pairs, "control", spec["name"], lower)
        if control:
            out[spec["name"]].update(control=control["control"],
                                     control_wins=control["control_wins"],
                                     control_median_rel=control["median_rel"])
    return out


def progress_line(label: str, pair: dict, metrics: list[dict]) -> str:
    """Every end-to-end metric of one pair, parent -> change (control)."""
    def value(side, name):
        return pair[side]["metrics"].get(name, float("nan"))

    control = "control" in pair
    return (f"{label} seed {pair['seed']} (parent -> change{' (control)' if control else ''}): "
            + ", ".join(f"{m['name']} {value('parent', m['name']):.4g} -> "
                        f"{value('change', m['name']):.4g}"
                        + (f" ({value('control', m['name']):.4g})" if control else "")
                        for m in metrics))


def traced_medians(side: str, runs: list[dict], per_layer: list[dict]) -> dict:
    """One side's traced runs as one run with the median of each metric.

    A per-layer count that differs between the runs ends the script, naming
    the metric: the counts of one checkout must repeat exactly."""
    counts = {m["name"] for m in per_layer if m["unit"] in COUNT_UNITS}
    medians = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        if name in counts and len(set(values)) > 1:
            raise SystemExit(f"{side} traced runs disagree on the count {name}: {values}")
        medians[name] = statistics.median(values)
    return {"correct": True, "failed": 0, "runs": len(runs), "metrics": medians}


def traced_counts_line(label: str, traced: dict, metrics: list[dict]) -> str:
    """The per-layer counts of the traced runs that differ, parent -> change."""
    def count(side, name):
        return traced[side]["metrics"].get(name)

    moved = [f"{m['name']} {count('parent', m['name'])} -> {count('change', m['name'])}"
             for m in metrics if m["unit"] in COUNT_UNITS
             and count("parent", m["name"]) != count("change", m["name"])]
    return (f"{label} traced seed {traced['seed']}: "
            + (", ".join(moved) if moved else "every count equal"))


def summary_lines(label: str, summary: dict) -> list[str]:
    """One line per end-to-end metric: both medians, the relative change of the
    median, the pairs the change wins, and the parent's quartile spread; then
    the A/A control's median, median_rel and wins, where there is one."""
    lines = []
    for name, m in summary.items():
        parent, change = m["parent"], m["change"]
        lines.append(f"{label} {name} ({m['unit']}, {m['better']} is better): "
                     f"parent median {parent['median']:.4g}, change median "
                     f"{change['median']:.4g}, median_rel {m['median_rel']:+.2%}, "
                     f"change wins {m['change_wins']}, parent q1..q3 "
                     f"{parent['q1']:.4g}..{parent['q3']:.4g} "
                     f"(spread {parent['q3'] - parent['q1']:.4g})"
                     + (f"; A/A control median {m['control']['median']:.4g}, "
                        f"control_median_rel {m['control_median_rel']:+.2%}, "
                        f"control wins {m['control_wins']}" if "control" in m else ""))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--control", type=Path, default=None,
                   help="a second extraction of the parent, run in every pair as an A/A control")
    p.add_argument("--traced-seed", type=int, default=None,
                   help=f"also run --trace 1 {TRACED_RUNS} times per side on this seed "
                        "and keep the medians")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    sides = ("parent", "change") + (("control",) if args.control else ())
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
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
        runs = {"parent": [], "change": []}
        for i in range(TRACED_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(side, getattr(args, side), args.workload,
                                           args.traced_seed, args.seconds, trace=1))
        for side, side_runs in runs.items():
            traced[side] = traced_medians(side, side_runs, spec["per_layer"])
        run["traced"] = traced
        print(traced_counts_line(args.label, traced, spec["per_layer"]), file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for line in summary_lines(args.label, run["summary"]):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
