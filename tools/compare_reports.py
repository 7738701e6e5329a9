"""Compare the full-report artifacts of two source trees, byte for byte.

    python3 tools/compare_reports.py TREE_A TREE_B OUTDIR

Runs `python -m weissbench.cli full-report` from each tree's `src/`, with
BLAS pinned to one thread, at twelve configurations: the defaults (seed
42), `--seed` 0 to 4, 7 and 2147483647 (the ends of the benchmark's seed
range [0, 2^31)), `--q 3`, `--q 8`, `--q 1e6` and `--q 1e9`. Artifacts go to
OUTDIR/<configuration>/{a,b}; OUTDIR must be new or empty. Prints the line
count of each tree's `src/weissbench/*.py` and the difference B - A, in
total and per module, then each configuration's two exit codes, each run's
wall time and peak RSS (from `os.wait4`, so a scheduling or memory change
shows beside the byte check), and every artifact that is missing from one
side or differs; for each CSV that differs, the number of differing cells
and the largest relative difference between them (inf where a cell is
missing or not a number). Then it runs one cycle of the benchmark's
`endpoint_op` (q = 3, 4 and 8, inputs drawn from seed 1) in each tree, in
a process with that tree's `src/` and `perfbench/` on the path, and prints
whether the SHA-256 of the pickled outputs agree. Exits 1 on any
difference, 0 when every artifact, exit code and output hash agree. The
times are one run each, for orientation; `tools/bench_pairs.py` measures.
Standard library only; neither the package nor its tests import this
script.
"""
import csv
import filecmp
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

CONFIGS = {
    "defaults": [],
    **{f"seed-{seed}": ["--seed", str(seed)]
       for seed in (0, 1, 2, 3, 4, 7, 2**31 - 1)},
    "q-3": ["--q", "3"],
    "q-8": ["--q", "8"],
    "q-1e6": ["--q", "1e6"],
    "q-1e9": ["--q", "1e9"],
}


def source_lines(tree):
    """{module file name: lines} of tree's src/weissbench/*.py, as `wc -l`
    counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in Path(tree, "src", "weissbench").glob("*.py")}


def run_report(tree, args, outdir):
    """(exit code, wall s, peak RSS in MB) of one full-report run of tree
    into outdir; os.wait4 returns when the child exits, with its usage."""
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()),
               OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "weissbench.cli", "full-report",
         "--output-dir", str(outdir), *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


ENDPOINT_SEED = 1
ENDPOINT_HASH = f"""
import hashlib, pickle
import numpy as np
import workloads
inputs = workloads.EndpointWindows().cycle(
    np.random.default_rng({ENDPOINT_SEED}))
outputs = [workloads.endpoint_op(inp) for inp in inputs]
print(hashlib.sha256(pickle.dumps(outputs)).hexdigest())
"""


def endpoint_hash(tree):
    """SHA-256 of one pickled endpoint_op cycle of tree, or its error."""
    path = os.pathsep.join(str(Path(tree, d).resolve())
                           for d in ("src", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", ENDPOINT_HASH], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-1:]
        return f"failed (exit {proc.returncode}: {' '.join(tail)})"
    return proc.stdout.strip()


def differing(dir_a, dir_b):
    """Names of artifacts missing from one directory or unequal by bytes."""
    names = sorted({p.name for p in dir_a.iterdir()}
                   | {p.name for p in dir_b.iterdir()})
    return [n for n in names
            if not ((dir_a / n).is_file() and (dir_b / n).is_file()
                    and filecmp.cmp(dir_a / n, dir_b / n, shallow=False))]


def cell_moves(path_a, path_b):
    """(cells that differ, largest relative difference) of two CSV files;
    a cell missing on one side or not a number counts as infinitely far."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows = list(itertools.zip_longest(csv.reader(fa), csv.reader(fb),
                                          fillvalue=[]))
    count, worst = 0, 0.0
    for row_a, row_b in rows:
        for a, b in itertools.zip_longest(row_a, row_b):
            if a == b:
                continue
            count += 1
            try:
                x, y = float(a), float(b)
                rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
            except (TypeError, ValueError):  # None: a missing cell
                rel = math.inf
            worst = max(worst, rel if rel == rel else math.inf)  # nan: inf
    return count, worst


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    tree_a, tree_b, out = argv[0], argv[1], Path(argv[2])
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty; give a new OUTDIR\n")
        return 2
    lines = source_lines(tree_a), source_lines(tree_b)
    total_a, total_b = (sum(side.values()) for side in lines)
    print(f"src lines: {total_a} / {total_b} ({total_b - total_a:+d})")
    for name in sorted(lines[0].keys() | lines[1].keys()):
        a, b = (side.get(name, 0) for side in lines)
        print(f"  {name}: {a} / {b} ({b - a:+d})")
    same = True
    for name, args in CONFIGS.items():
        dir_a, dir_b = out / name / "a", out / name / "b"
        (code_a, wall_a, rss_a), (code_b, wall_b, rss_b) = (
            run_report(tree_a, args, dir_a), run_report(tree_b, args, dir_b))
        diff = differing(dir_a, dir_b)
        same &= code_a == code_b and not diff
        print(f"{name}: exit {code_a} / {code_b}, wall {1e3 * wall_a:.0f} / "
              f"{1e3 * wall_b:.0f} ms, peak RSS {rss_a:.1f} / {rss_b:.1f} "
              f"MB, {len(list(dir_a.iterdir()))} artifacts, "
              + (f"differ: {' '.join(diff)}" if diff else "all identical"))
        for n in diff:
            if n.endswith(".csv") and (dir_a / n).is_file() \
                    and (dir_b / n).is_file():
                count, worst = cell_moves(dir_a / n, dir_b / n)
                print(f"  {n}: {count} cells differ, largest relative "
                      f"difference {worst:.3e}")
    hashes = endpoint_hash(tree_a), endpoint_hash(tree_b)
    agree = hashes[0] == hashes[1] and not hashes[0].startswith("failed")
    same &= agree
    print(f"endpoint_op q = 3, 4, 8 (seed {ENDPOINT_SEED}): "
          + (f"outputs hash equal, {hashes[0][:16]}" if agree else
             f"outputs DIFFER: {hashes[0][:80]} / {hashes[1][:80]}"))
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
