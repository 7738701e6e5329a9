"""Run one benchmark workload against the weissbench source beside it.

    python3 perfbench/run.py --workload full-report --seed 1 --seconds 30 \
        --trace 0

Load is a closed loop: one client runs operations one after another in this
process (and, for `full-report`, one child process at a time), with BLAS
pinned to one thread, so at most two threads compute. The program receives
only the inputs drawn from `--seed`. Operations start until `--seconds`
have passed, after at least one full cycle of the workload's inputs, and
each one's output is validated; `--trace 1` runs every input twice, plain
and traced. A traced run that cannot wrap every layer target fails.

A fixed reference loop, which no program change touches, is timed before
and after every operation, and `op_ref.p50` is the median over operations
of the operation's time over the mean of those two loop times. The host's
CPU speed drifts by up to 2x over minutes, in CPU time as much as in wall
time; the ratio cancels most of that drift.

The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics`, which holds every end-to-end metric of
BENCHMARK.json with `--trace 0` and every per-layer metric with `--trace
1`. The line before it is the run record: environment, per-operation wall
and reference times, the wall-time median and tail, and the domain probe.
Scratch files live under `.perfbench/` at the checkout root; traced runs
leave their spans there.
"""
import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 30
WORKLOADS = ("full-report", "endpoint-windows")
TAIL_BEYOND = 10
REF_PY_STEPS = 600_000
REF_NP_REPEATS = 18


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "weissbench" / "__init__.py").is_file():
        sys.stderr.write(f"no weissbench source under {SRC}\n")
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read BENCHMARK.json: {exc}\n")
        return 2
    # Children inherit these; this process reads them when NumPy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("WEISSBENCH_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir):
    import weissbench
    import numpy as np

    import spans
    import workloads as wl

    if Path(weissbench.__file__).resolve().parent != SRC / "weissbench":
        sys.stderr.write(f"imported weissbench from {weissbench.__file__}, "
                         f"not from {SRC}\n")
        return 2

    setup = [wl.run_child([sys.executable, "-c", "import weissbench"],
                          cwd=workdir)[1]
             for _ in range(SETUP_REPEATS + 1)][1:]  # first run warms caches
    probe = wl.domain_probe(workdir)

    workload = {
        "full-report": lambda: wl.FullReport(workdir, args.trace == 1),
        "endpoint-windows": wl.EndpointWindows,
    }[args.workload]()
    rng = np.random.default_rng(args.seed)
    reference = Reference(np)
    recorder = spans.Recorder() if args.trace else None
    ops = []

    def run_op(inp, traced):
        rec = recorder if traced else None
        problems = []
        out = None
        ref_before = reference()
        with spans.instrument(rec) if traced else nullcontext([]) as lost:
            if lost:
                problems.append(f"layer targets not found: {lost}")
            start = time.perf_counter()
            try:
                if rec is None:
                    out = workload.run(inp)
                else:
                    with rec.span(spans.ROOT_SPAN):
                        out = workload.run(inp, rec)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
            wall = time.perf_counter() - start
        ref_s = (ref_before + reference()) / 2
        peak = workload.peak_rss_mb(out)
        if out is not None:
            try:
                problems += workload.check(inp, out)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
        for p in problems:
            sys.stderr.write(f"{args.workload} {workload.describe(inp)}: "
                             f"{p}\n")
        ops.append({"input": workload.describe(inp), "traced": traced,
                    "wall_s": wall, "ref_s": ref_s, "peak_rss_mb": peak,
                    "problems": problems})

    first_cycle = None
    start = time.perf_counter()
    while first_cycle is None or time.perf_counter() - start < args.seconds:
        for inp in workload.cycle(rng):
            for traced in ((False, True) if args.trace else (False,)):
                run_op(inp, traced)
            if first_cycle is not None \
                    and time.perf_counter() - start >= args.seconds:
                break
        if first_cycle is None:
            first_cycle = list(ops)

    plain = [op["wall_s"] for op in ops if not op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    if args.trace:
        traced_walls = [op["wall_s"] for op in ops if op["traced"]]
        values = spans.layer_metrics(recorder, len(traced_walls))
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(plain))
        values["cli.domain_fail_share"] = probe["fail_share"]
        recorder.write_tsv(SCRATCH / f"spans-{args.workload}.tsv")
        wanted = spec["per_layer"]
    else:
        # Later cycles repeat the first one's allocations, and this
        # process's high-water mark would also gather what validation
        # allocated over the whole run.
        peak = max((op["peak_rss_mb"] for op in first_cycle
                    if op["peak_rss_mb"] is not None), default=None)
        values = {"op_ref.p50": statistics.median(
                      op["wall_s"] / op["ref_s"] for op in ops),
                  "peak_rss_mb": peak,
                  "setup_s": statistics.median(setup)}
        wanted = spec["end_to_end"]

    record = {
        "environment": environment(args, weissbench, np),
        "setup_s_samples": setup,
        "op_s_p50": statistics.median(plain),
        "op_s_tail": tail(plain),
        "domain_probe": probe,
        "ops": ops,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


class Reference:
    """A fixed loop, timed: interpreted Python, then NumPy transcendentals.

    Those are the two kinds of work the workloads spend their time in. The
    loop lives here, so no change to the program moves its time; it moves
    only with the host's speed.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.linspace(0.0, 1.5, 100_000)
        self()  # warm-up

    def __call__(self):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_PY_STEPS):
            acc += i * i
        for _ in range(REF_NP_REPEATS):
            self.np.cos(self.x) ** 1.5
        return time.perf_counter() - start


def tail(walls):
    """Highest percentile with at least TAIL_BEYOND operations beyond it."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return {"n": n, "percentile": None, "value_s": None}
    ordered = sorted(walls)
    k = n - TAIL_BEYOND - 1
    return {"n": n, "percentile": 100.0 * (k + 1) / n, "value_s": ordered[k]}


# ------------------------------------------------------------- environment
def environment(args, weissbench, np):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": getattr(weissbench, "BACKEND", None),
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def blas_threads(np):
    """Threads OpenBLAS reports in effect, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: source_sha256 identifies it
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
