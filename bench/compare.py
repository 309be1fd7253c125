"""Compare two commits with alternating parent/change pairs, or summarize runs.

    python3 bench/compare.py pairs PARENT_DIR CHANGE_DIR --workload sweep \\
        --pairs 10 --out pairs-sweep.jsonl
    python3 bench/compare.py summary pairs-sweep.jsonl
    python3 bench/compare.py summary bench/baselines/seed-de4c4ac.jsonl

PARENT_DIR and CHANGE_DIR are checkouts of the two commits with identical
benchmark files. Pair i runs seed i + 1 on both sides, the parent first in
even pairs and the change first in odd ones, and appends one record per run.

``summary`` prints, per workload and end-to-end metric, each side's median
and quartiles. For pair files it adds the share of pairs the change won and
a verdict by the rules of the benchmark README: a gain needs at least nine
tenths of the pairs won and a median difference larger than the parent's
quartile spread; a regression is a median worse by more than the metric's
bound in BENCHMARK.json; a spread wider than the bound is unresolved unless
every change run beats every parent run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result\n{done.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"] and done.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def cmd_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a") as fh:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run_once(sides[side], args.workload, i + 1, args.seconds)
                rec.update(workload=args.workload, pair=i, seed=i + 1, side=side,
                           first=side == order[0])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
    return summarize([args.out])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Gain, regression, unresolved or no change, for paired runs of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return wins, "gain"
    if sign * (pm - cm) > bound * abs(pm):
        return wins, "regression"
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return wins, "unresolved"
    return wins, "no change beyond the bound"


def summarize(paths) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m for m in spec["end_to_end"]}
    records = [json.loads(line) for path in paths for line in open(path) if line.strip()]
    records = [r for r in records if not r.get("trace")]
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        sides = sorted({r.get("side", "runs") for r in rows})
        failed = sum(r["failed"] for r in rows)
        print(f"{workload}: {len(rows)} runs, {failed} failed ops")
        for metric, m in table.items():
            by_side = {}
            for side in sides:
                vals = sorted(((r.get("pair", 0), r["metrics"][metric]) for r in rows
                               if r.get("side", "runs") == side and metric in r["metrics"]))
                by_side[side] = [v for _, v in vals]
            text = []
            for side, vals in by_side.items():
                if vals:
                    q1, q2, q3 = quartiles(vals)
                    text.append(f"{side} {q2:.5g} [{q1:.5g}, {q3:.5g}]")
            line = f"  {metric:<12} " + "  ".join(text)
            if {"parent", "change"} <= set(by_side) and by_side["parent"]:
                wins, word = verdict(by_side["parent"], by_side["change"], m["better"],
                                     m["bound"])
                line += f"  change won {wins}/{len(by_side['parent'])}: {word}"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", required=True)
    s = sub.add_parser("summary", help="medians and quartiles of recorded runs")
    s.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "pairs":
        return cmd_pairs(args)
    return summarize(args.files)


if __name__ == "__main__":
    sys.exit(main())
