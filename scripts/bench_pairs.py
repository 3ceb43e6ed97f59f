"""Run perfbench in alternating pairs over two checkouts and summarise them.

For each workload and each of ``--pairs`` seeds (``--seed``, ``--seed`` + 1,
...), runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, ``T`` the ``run_seconds`` of ``BENCHMARK.json``, once in the
parent checkout and once in the change's, one run at a time, each in its own
checkout; the parent runs first in the first pair and the two alternate
from there.  Nothing in either checkout is changed
beyond what ``perfbench/run.py`` itself writes there.  The summary is the
``BENCH_*.json`` layout: per workload the seeds, which tree ran first, the
runs' correctness and operation counts, and per end-to-end metric of
``BENCHMARK.json`` both trees' runs, medians and quartiles, each pair's
change/parent ratio, the pairs the change improved, and the median ratio by
which tree ran first, on standard output (progress goes to standard error):

    python3 scripts/bench_pairs.py --parent ../parent --change . --seed 2801 \\
        --workloads sweep-map --claim sweep-map:run_s > BENCH_28.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_command(workload: str, seed: int, seconds: float) -> list:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def pair_order(k: int) -> tuple:
    """The trees in the order they run in pair ``k`` (from 0): the parent first in even pairs."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """``(record, result)``: the last two lines of one ``perfbench/run.py`` run, as JSON."""
    proc = subprocess.run(run_command(workload, seed, seconds), cwd=checkout, capture_output=True,
                          text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise_metric(parent: list, change: list, unit: str, better: str, bound: float, first: list) -> dict:
    """One metric's entry: both trees' runs (pair by pair), their medians and
    quartiles, each pair's change/parent ratio, and how the medians compare."""
    lower = better == "lower"
    ratios = [c / p for p, c in zip(parent, change)]
    improved = sum((r < 1.0) if lower else (r > 1.0) for r in ratios)
    quartiles, sides = {}, {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles[side] = statistics.quantiles(runs, n=4, method="inclusive")
        sides[side] = {"median": round(median, 6), "runs": [round(x, 6) for x in runs],
                       "q1": round(q1, 6), "q3": round(q3, 6)}
    (p_q1, p_median, p_q3), c_median = quartiles["parent"], quartiles["change"][1]
    over = c_median / p_median
    worse = over - 1.0 if lower else 1.0 - over
    by_first = {side: round(statistics.median([r for r, f in zip(ratios, first) if f == side]), 4)
                for side in SIDES if side in first}
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        **sides,
        "pair_ratios": [round(r, 4) for r in ratios],
        "pair_ratio_median_by_first": by_first,
        "change_better_in_pairs": f"{improved}/{len(ratios)}",
        "change_over_parent_median": round(over, 4),
        "worse_by_share": round(worse, 4),
        "within_bound": worse <= bound,
        "median_gap_over_parent_iqr": round(abs(c_median - p_median) / (p_q3 - p_q1), 2) if p_q3 > p_q1 else None,
    }


def summarise_workload(seeds: list, first: list, results: dict, end_to_end: list) -> dict:
    """A workload's entry from ``results[side]``, one ``perfbench/run.py``
    result per pair, and ``BENCHMARK.json``'s ``end_to_end`` list."""
    runs = {
        side: {
            "correct": all(r["correct"] for r in results[side]),
            "attempted": sum(r["attempted"] for r in results[side]),
            "failed": sum(r["failed"] for r in results[side]),
        }
        for side in SIDES
    }
    metrics = {
        m["name"]: summarise_metric(
            *[[r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES],
            m["unit"], m["better"], m["bound"], first,
        )
        for m in end_to_end
    }
    return {"seeds": seeds, "pairs": len(seeds), "first": first, "runs": runs, "metrics": metrics}


def machine_of(record: dict) -> dict:
    return {key: record[key] for key in ("nproc", "os_cpu_count", "cpu_model", "python", "numpy", "scipy")}


def _revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(checkout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", help="workloads to run (default: every one of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k runs seed + k")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--parent-rev", help="the parent's revision (default: git rev-parse in --parent)")
    parser.add_argument("--change-rev", help="the change's revision or description (default: git rev-parse)")
    parser.add_argument("--dry-run", action="store_true", help="print the runs in order and run none")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = args.workloads or [workload["name"] for workload in benchmark["workloads"]]
    seeds = [args.seed + k for k in range(args.pairs)]
    checkouts = {"parent": args.parent, "change": args.change}
    plan = [(name, seed, side) for name in names for k, seed in enumerate(seeds) for side in pair_order(k)]
    if args.dry_run:
        for name, seed, side in plan:
            print(f"{side} ({checkouts[side]}): {' '.join(run_command(name, seed, seconds))}")
        print(f"{len(plan)} runs")
        return 0

    results = {name: {side: [] for side in SIDES} for name in names}
    machine = None
    for name, seed, side in plan:
        record, result = run_once(checkouts[side], name, seed, seconds)
        machine = machine or machine_of(record)
        results[name][side].append(result)
        print(f"{name} seed {seed} {side}: run_s {result['metrics']['run_s']['value']:.4f}", file=sys.stderr, flush=True)
    first = [pair_order(k)[0] for k in range(args.pairs)]
    workloads = {name: summarise_workload(seeds, first, results[name], benchmark["end_to_end"]) for name in names}

    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric}
    summary = {
        "what": "End-to-end metrics of perfbench at the parent commit and at this change, in alternating "
                "pairs (the parent first in odd-numbered pairs), one run at a time.",
        "command": " ".join(run_command("W", "S", seconds)),
        "parent": args.parent_rev or _revision(args.parent),
        "change": args.change_rev or _revision(args.change),
        "claim": claim,
        "machine": machine,
        "workloads": workloads,
    }
    sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
