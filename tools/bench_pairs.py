"""Run the benchmark on two source trees in alternating pairs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \
        [--workload W2 ...] --pairs N --seconds S --out BENCH_<label>.json

Each pair runs `perfbench/run.py --trace 0` of both trees, one after the
other, at the same seed (pair i, counted from 0, runs seed SEED + i); the
tree that goes first alternates from pair to pair, so a drift of the
host's speed weighs on both alike. Every run's end-to-end metrics,
operation counts and environment go to the output file, with each metric's
median on both sides, the change's median over the parent's, and the
number of pairs in which the change did better, each side's quartiles
and whether the gain rule is met (see `summarize`). Before the pairs, each
tree's tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
with the tree's `src/` on PYTHONPATH) runs once, and its wall time, exit
code and outcome counts go to the output too. Each metric's direction
and bound come from the change tree's BENCHMARK.json; a median that moved
by more than its metric's bound is flagged. A flag does not change the
exit code, which is 0 unless a run fails to produce its result. Standard
library only; neither the package nor its tests import this script.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
SEED = 1  # pair i runs both trees at seed SEED + i
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0.0:
        parser.error("--pairs and --seconds must be positive")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    return args


def run_once(tree, workload, seed, seconds):
    """The result line and the record's environment of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2 or "metrics" not in lines[-1]:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{proc.returncode} without a result: {tail}")
    record, result = lines[-2]["record"], lines[-1]
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "op_s_p50": record["op_s_p50"],
            "environment": record["environment"]}


def run_tier1(tree):
    """Wall time, exit code and outcome counts of one tier-1 run of tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(tree, "src").resolve()), env.get("PYTHONPATH"))
        if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    # pytest's last line, e.g. "1 failed, 322 passed in 9.58s"
    counts = {word: int(n)
              for n, word in re.findall(r"(\d+) ([a-z]+)", last)}
    return {"wall_s": wall, "returncode": proc.returncode,
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("errors", counts.get("error", 0)),
            "summary": last}


def summarize(pairs, gates):
    """Per metric: both medians and quartiles, their ratio, wins of the
    change, the move flag and whether the gain rule is met.

    gates maps a metric's name to its BENCHMARK.json entry; a metric
    without one counts lower as better and is never flagged. Quartiles
    are statistics.quantiles' default (exclusive) cut points, None with
    fewer than two pairs. The gain rule: the change is better in at least
    nine tenths of the pairs (ties count for neither side), and its median
    is better than the parent's by more than the parent's interquartile
    range.
    """
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs]
                  for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        quartiles = {side: statistics.quantiles(values[side])
                     if len(pairs) > 1 else None for side in SIDES}
        ratio = medians["change"] / medians["parent"] \
            if medians["parent"] else None
        gate = gates.get(name, {})
        bound = gate.get("bound")
        sign = -1.0 if gate.get("better", "lower") == "lower" else 1.0
        wins = sum(1 for a, b in zip(values["parent"], values["change"])
                   if sign * (b - a) > 0.0)
        parent_q = quartiles["parent"]
        summary[name] = {
            "parent_median": medians["parent"],
            "change_median": medians["change"], "ratio": ratio,
            "parent_quartiles": parent_q,
            "change_quartiles": quartiles["change"],
            "change_better_pairs": wins, "pairs": len(pairs),
            "bound": bound,
            "flagged": None not in (ratio, bound)
            and abs(ratio - 1.0) > bound,
            "gain_rule_met": parent_q is not None
            and 10 * wins >= 9 * len(pairs)
            and sign * (medians["change"] - medians["parent"])
            > parent_q[2] - parent_q[0]}
    return summary


def spread(quartiles):
    """Quartiles and their distance as text, or n/a."""
    if quartiles is None:
        return "n/a"
    q1, _, q3 = quartiles
    return f"[{q1:.4g}, {q3:.4g}] IQR {q3 - q1:.3g}"


def main(argv=None):
    args = parse_args(argv)
    with open(args.change / "BENCHMARK.json") as fh:
        gates = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    out = {"pairs_per_workload": args.pairs, "seconds": args.seconds,
           "tier1": {}, "workloads": {}}
    for side in SIDES:
        run = out["tier1"][side] = run_tier1(trees[side])
        print(f"tier-1 {side}: {run['passed']} passed, {run['failed']} "
              f"failed, {run['errors']} errors in {run['wall_s']:.1f} s "
              f"(exit {run['returncode']})", flush=True)
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = SEED + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed,
                                      args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {pair['parent']['metrics'][name]:.4g} -> "
                f"{pair['change']['metrics'][name]:.4g}"
                for name in pair["parent"]["metrics"]), flush=True)
        summary = summarize(pairs, gates)
        out["workloads"][workload] = {"pairs": pairs, "summary": summary}
        for name, s in summary.items():
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
            print(f"{workload} {name}: median {s['parent_median']:.4g} -> "
                  f"{s['change_median']:.4g} (x{ratio}), change better in "
                  f"{s['change_better_pairs']}/{s['pairs']} pairs; quartiles "
                  f"parent {spread(s['parent_quartiles'])}, change "
                  f"{spread(s['change_quartiles'])}; gain rule "
                  + ("met" if s["gain_rule_met"] else "not met")
                  + ("  FLAG: moved more than its bound "
                     f"{100 * s['bound']:.0f}%" if s["flagged"] else ""))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
