"""Compare the full-report artifacts of two source trees, byte for byte.

    python3 tools/compare_reports.py TREE_A TREE_B OUTDIR

Runs `python -m weissbench.cli full-report` from each tree's `src/`, with
BLAS pinned to one thread, at six configurations: the defaults, `--seed 7`,
`--q 3`, `--q 8`, `--q 1e6` and `--q 1e9`. Artifacts go to
OUTDIR/<configuration>/{a,b}; OUTDIR must be new or empty. Prints the line
count of each tree's `src/weissbench/*.py` and the difference B - A, then
each configuration's two exit codes, each run's wall time and peak RSS (from
`os.wait4`, so a scheduling or memory change shows beside the byte check),
and every artifact that is missing from one side or differs, and exits 1 on
any difference, 0 when every artifact and exit code agree. The times are one
run each, for orientation; `tools/bench_pairs.py` measures. Standard library
only; neither the package nor its tests import this script.
"""
import filecmp
import os
import subprocess
import sys
import time
from pathlib import Path

CONFIGS = {
    "defaults": [],
    "seed-7": ["--seed", "7"],
    "q-3": ["--q", "3"],
    "q-8": ["--q", "8"],
    "q-1e6": ["--q", "1e6"],
    "q-1e9": ["--q", "1e9"],
}


def source_lines(tree):
    """Lines in tree's src/weissbench/*.py, as `cat ... | wc -l` counts."""
    return sum(p.read_bytes().count(b"\n")
               for p in Path(tree, "src", "weissbench").glob("*.py"))


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


def differing(dir_a, dir_b):
    """Names of artifacts missing from one directory or unequal by bytes."""
    names = sorted({p.name for p in dir_a.iterdir()}
                   | {p.name for p in dir_b.iterdir()})
    return [n for n in names
            if not ((dir_a / n).is_file() and (dir_b / n).is_file()
                    and filecmp.cmp(dir_a / n, dir_b / n, shallow=False))]


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    tree_a, tree_b, out = argv[0], argv[1], Path(argv[2])
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty; give a new OUTDIR\n")
        return 2
    lines = source_lines(tree_a), source_lines(tree_b)
    print(f"src lines: {lines[0]} / {lines[1]} ({lines[1] - lines[0]:+d})")
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
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
