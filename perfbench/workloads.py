"""The benchmark's workloads: inputs drawn from the seed, one operation each.

Each workload draws its inputs from the seed one cycle at a time (a cycle
steps through its exponents), runs one operation per input, and validates
the output afterwards, outside the timed part. `domain_probe` runs, untimed,
configurations at the edge of the documented domain.

- full-report: one `weissbench full-report` process at the default
  configuration, what a user runs to certify the paper. Work is spread over
  every layer, plus interpreter start, import and artifact writing.
- endpoint-windows: window norms, orbit bounds, a Weiss scan and the exact
  equimeasurability check of a sampled, tied, permuted witness orbit. The
  lorentz and semigroup layers dominate while kernels and quadrature do
  almost nothing; exact rearrangement is a path `full-report` never calls.
"""
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from weissbench import cli, lorentz, semigroup
from weissbench import counterexample as ce

import validate

REFERENCE = Path(__file__).resolve().parent / "reference"

EPS_LIST = tuple(10.0 ** -k for k in range(2, 13))
PER_DECADE = 1024
LOWER_BOUND_RANGE = (0, 24)
LOWER_BOUND_SAMPLES = 32
ORBIT_STEPS = 20_000
QUANTUM = 1.0 / 64.0  # coarse enough that sampled values tie
LEVELS = 8
ORBIT_GRID = np.logspace(math.log10(EPS_LIST[-1]), 0.0, ORBIT_STEPS + 1)

CHILD_CPU_LIMIT_S = 120


def run_child(argv, cwd, stderr=subprocess.DEVNULL):
    """Run a process to completion: (exit code, wall s, peak RSS in MB).

    os.wait4 blocks until exit, so the wall time has no polling delay, and
    returns the child's own resource usage. A CPU-time limit ends a child
    that never finishes; a negative exit code names the signal.
    """
    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU,
                           (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))

    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr,
                            preexec_fn=limit_cpu)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ------------------------------------------------------------ full-report
class FullReport:
    """One `full-report` per operation, in a child process when untraced.

    Traced runs call `cli.main` in this process so spans can be recorded;
    their plain twins do too, so the pair differs only by tracing.
    """

    def __init__(self, workdir, in_process):
        self.workdir = workdir
        self.in_process = in_process
        self.last = None  # (seed, output dir) of the previous operation

    def cycle(self, rng):
        # Each seed runs twice, so every pair is checked for byte-identical
        # artifacts; a traced run pairs the plain and the traced operation.
        seed = int(rng.integers(0, 2**31))
        return [seed] if self.in_process else [seed, seed]

    def run(self, seed, recorder=None):
        """Returns (exit code, output dir, child peak RSS in MB or None)."""
        outdir = tempfile.mkdtemp(prefix="full-report-", dir=self.workdir)
        argv = ["full-report", "--seed", str(seed), "--output-dir", outdir]
        if not self.in_process:
            with open(outdir + ".stderr", "wb") as err:
                code, _, rss = run_child(
                    [sys.executable, "-m", "weissbench.cli"] + argv,
                    cwd=self.workdir, stderr=err)
            return code, outdir, rss
        if recorder is None:
            return cli.main(argv), outdir, None
        with recorder.span("cli.full-report"):
            return cli.main(argv), outdir, None

    def check(self, seed, out):
        code, outdir, _ = out
        partner = self.last[1] if self.last and self.last[0] == seed \
            else None
        problems = validate.validate_full_report(
            outdir, code, str(REFERENCE / "full-report"), partner)
        if self.last is not None:
            shutil.rmtree(self.last[1], ignore_errors=True)
        self.last = (seed, outdir)
        return problems

    def describe(self, seed):
        return f"seed={seed}"

    def peak_rss_mb(self, out):
        return out[2] if out is not None else None


class InProcess:
    """An operation run through the library in this process."""

    def describe(self, inp):
        return f"q={inp[0]:g}"

    def peak_rss_mb(self, out):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------- endpoint-windows
class EndpointWindows(InProcess):
    def cycle(self, rng):
        return [(q, rng.permutation(ORBIT_STEPS), rng.random(LEVELS))
                for q in (3.0, 4.0, 8.0)]

    def run(self, inp, recorder=None):
        return endpoint_op(inp)

    def check(self, inp, out):
        return validate.validate_endpoint(out)


def endpoint_op(inp):
    q, perm, level_draws = inp
    params = ce.CounterexampleParams(q)
    witness = ce.witness_system(params)
    profile = ce.divergence_profile(params, EPS_LIST, witness=witness,
                                    per_decade=PER_DECADE)
    bound = ce.orbit_lower_bound_check(params, LOWER_BOUND_RANGE,
                                       LOWER_BOUND_SAMPLES, witness=witness)
    weiss_sup = max(
        semigroup.weiss_quotient(witness.system, witness.xi, witness.x_norm,
                                 lam)
        for lam in semigroup.lambda_grid(n_moduli=49, n_args=33))

    orbit = semigroup.orbit_callable(witness.system, witness.xi)
    values = np.round(orbit(ORBIT_GRID[:-1]) / QUANTUM) * QUANTUM
    lengths = np.diff(ORBIT_GRID)[perm]
    f = lorentz.StepFunction(np.concatenate(([0.0], np.cumsum(lengths))),
                             values[perm])
    rearranged = lorentz.decreasing_rearrangement(f)
    distinct = np.unique(np.concatenate((f.values, rearranged.values)))
    levels = distinct[(level_draws * distinct.size).astype(int)]
    distribution = [(float(a), lorentz.distribution_function(f, a),
                     lorentz.distribution_function(rearranged, a))
                    for a in levels]
    norms = (lorentz.lorentz_norm(f, (2.0, q)),
             lorentz.lorentz_norm(rearranged, (2.0, q)))
    return {"profile": profile, "lower_bound": bound, "weiss_sup": weiss_sup,
            "distribution": distribution, "norms": norms}


# ------------------------------------------------------------ domain probe
ONE_CELL_CSV = "breakpoint,value\n0\n1,\n"
NON_NUMERIC_CSV = "breakpoint,value\n0,abc\n1,\n"


def domain_probe(workdir):
    """Untimed configurations at the edge of the documented domain.

    In-domain configurations must exit 0 or 1 and write summary.json;
    malformed input files must exit 2 without a traceback.
    """
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    files = {}
    for name, text in (("one-cell.csv", ONE_CELL_CSV),
                       ("non-numeric.csv", NON_NUMERIC_CSV)):
        files[name] = os.path.join(probe_dir, name)
        with open(files[name], "w") as fh:
            fh.write(text)
    configs = (
        (["counterexample", "--q", "30"], True),
        (["counterexample", "--q", "1e6"], True),
        (["bessel-check", "--tol", "1e-12"], True),
        (["lorentz-norm", "--input", files["one-cell.csv"]], False),
        (["lorentz-norm", "--input", files["non-numeric.csv"]], False),
    )
    results = []
    for i, (argv, in_domain) in enumerate(configs):
        outdir = os.path.join(probe_dir, f"out{i}")
        err_path = outdir + ".stderr"
        with open(err_path, "wb") as err:
            code, _, _ = run_child(
                [sys.executable, "-m", "weissbench.cli"] + argv
                + ["--output-dir", outdir], cwd=workdir, stderr=err)
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        if in_domain:
            ok = code in (0, 1) and _summary_readable(outdir)
        else:
            ok = code == 2 and "Traceback" not in stderr
        results.append({"argv": " ".join(argv[:1] + [
            os.path.basename(a) for a in argv[1:]]), "exit": code, "ok": ok,
            "stderr_tail": stderr.strip().splitlines()[-1:]})
    failures = sum(1 for r in results if not r["ok"])
    return {"fail_share": failures / len(results), "configs": results}


def _summary_readable(outdir):
    try:
        with open(os.path.join(outdir, "summary.json")) as fh:
            return isinstance(json.load(fh).get("checks"), list)
    except (OSError, ValueError, AttributeError):
        return False
