"""Command-line verification suites.

Each subcommand runs a named battery of checks, writes plot-ready CSV data
plus one JSON summary into the output directory, and exits 0 only when
every check passes. Outputs are byte-identical across runs for identical
configuration (including the seed): no timestamps, fixed grids, fixed
formats.
"""
import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, lorentz, semigroup
from . import counterexample as ce
from .errors import (EXIT_CHECK_FAILED, EXIT_CONFIG_INVALID, EXIT_IO_ERROR,
                     EXIT_OK, DomainError, WeissbenchError)
from .quadrature import QuadratureSpec, laplace_quadrature
from .reporting import CheckResult, check, format_cell, write_csv, \
    summary_payload, write_summary

__all__ = ["main", "build_parser"]

_COMMANDS = ("lorentz-norm", "orbit", "weiss-scan", "counterexample",
             "bessel-check", "full-report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weissbench",
        description="Numerical verification suites for weak-type "
                    "admissibility of diagonal observation systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--q", type=float, default=4.0,
                        help="Lorentz secondary index (default 4)")
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="quadrature relative tolerance (default 1e-10)")
        sp.add_argument("--tau", type=float, default=1.0,
                        help="right endpoint of time windows (default 1)")
        sp.add_argument("--eps-min", type=float, default=1e-8,
                        help="smallest left endpoint (default 1e-8)")
        sp.add_argument("--output-dir", default=None,
                        help="report directory (default "
                             "$WEISSBENCH_OUTPUT_DIR or '.')")
        sp.add_argument("--seed", type=int, default=42,
                        help="seed for randomized checks (default 42)")
        if name == "lorentz-norm":
            sp.add_argument("--input", required=True,
                            help="step-function CSV (breakpoints, values)")
            sp.add_argument("--p", type=float, default=2.0,
                            help="Lorentz primary index (default 2)")
    return parser


def _resolve_output_dir(args):
    out = args.output_dir or os.environ.get("WEISSBENCH_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _validate_window(args):
    if not 0.0 < args.tau <= 1.0:
        raise DomainError("tau must lie in (0, 1]")
    if not 0.0 < args.eps_min < args.tau:
        raise DomainError("eps-min must lie in (0, tau)")


def _guarded(name, fn):
    """Run one check body; computational failures become failed checks.

    DomainError is a configuration error, not a computational failure, so
    it propagates to main and exits 2.
    """
    try:
        return fn()
    except DomainError:
        raise
    except WeissbenchError as exc:
        return [CheckResult(name, False, -1.0, f"{type(exc).__name__}: {exc}")]


def _lower_bound_check(name, params, n_hi, witness):
    """The certified orbit lower bound over n <= n_hi, as a guarded check."""
    def body():
        report = ce.orbit_lower_bound_check(params, (0, n_hi), 8,
                                            witness=witness)
        return [check(name, report.worst_slack + 1e-9,
                      f"worst slack {report.worst_slack:.3e} at "
                      f"n={report.worst_n} over {report.samples} samples")]

    return _guarded(name, body)


# --------------------------------------------------------------- suites
# each gets the run's arguments plus params, spec and witness() (see run)
def _suite_lorentz_closed_forms(args, outdir):
    rows = []
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 10.0):
        edges = np.logspace(-12.0, math.log10(40.0 / a), 1_000_001)
        steps = lorentz.sample_steps(lambda t: np.exp(-a * t), edges)
        value = lorentz.lorentz_norm(steps, (2.0, 1.0))
        closed = math.sqrt(math.pi / a)
        worst = max(worst, abs(value - closed) / closed)
        rows.append((a, value, closed))
    write_csv(os.path.join(outdir, "lorentz.csv"),
              ["a", "sampled_norm", "closed_form"], rows)
    checks = [check("exp-decay-closed-form", 1e-5 - worst,
                    f"worst relative gap {worst:.3e} against sqrt(pi/a) "
                    "on 1e6-step samplings, a in {0.5, 1, 2, 10}")]

    ind = lorentz.StepFunction([0.0, 0.7], [1.0])
    got = lorentz.lorentz_norm(ind, (2.5, 1.5))
    want = (2.5 / 1.5) ** (1.0 / 1.5) * 0.7 ** (1.0 / 2.5)
    gap = abs(got - want) / want
    checks.append(check("indicator-closed-form", 1e-12 - gap,
                        f"relative gap {gap:.3e} for the single-step norm"))

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        bps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n))))
        vals = rng.uniform(0.0, 5.0, n)
        fn = lorentz.StepFunction(bps, vals)
        p = float(rng.uniform(1.1, 6.0))
        direct = math.fsum(vals**p * np.diff(bps)) ** (1.0 / p)
        got = lorentz.lorentz_norm(fn, (p, p))
        if direct > 0.0:
            worst = max(worst, abs(got - direct) / direct)
    checks.append(check("pp-matches-lp", 1e-12 - worst,
                        f"worst relative gap {worst:.3e} over 50 seeded "
                        "random step functions"))
    return checks


def _random_finite_system(rng):
    n = int(rng.integers(1, 9))
    mu = np.cumsum(rng.uniform(0.3, 3.0, n))
    c = rng.uniform(-2.0, 2.0, n)
    xi = rng.uniform(-2.0, 2.0, n)
    pad = max(2, n)
    system = semigroup.DiagonalSystem(
        lambda k: mu[k] if k < n else mu[-1] + 1.0 + k,
        lambda k: c[k] if k < n else 0.0,
        n_active=pad)
    return system, semigroup.CoefficientVector(xi)


def _laplace_lambda_points():
    mods = np.logspace(-2.0, 2.0, 10)
    args = np.linspace(-1.2, 1.2, 5)
    return (mods[:, None] * np.exp(1j * args[None, :])).ravel()


def _suite_laplace_identity(args, outdir):
    spec = QuadratureSpec(relative_tolerance=min(args.tol, 1e-8))
    rng = np.random.default_rng(args.seed)
    lams = _laplace_lambda_points()
    rows = []
    worst = 0.0
    for index in range(20):
        system, xi = _random_finite_system(rng)
        orbit = semigroup.orbit_callable(system, xi)
        decay = semigroup.orbit_decay_bound(system, xi, 0.0)
        obs = semigroup.resolvent_observation(system, xi, lams, 1e-14)
        quads = laplace_quadrature(orbit, lams, spec,
                                   T=40.0 / (system.mu[0] + lams.real),
                                   decay=decay)
        for lam, series, quad in zip(lams, obs.value.tolist(),
                                     quads.tolist()):
            gap = abs(series - quad) / (1.0 + abs(series))
            worst = max(worst, gap)
            rows.append((index, lam.real, lam.imag, gap))
    write_csv(os.path.join(outdir, "laplace.csv"),
              ["system", "re_lambda", "im_lambda", "relative_gap"], rows)
    return [check("laplace-identity", 1e-6 - worst,
                  f"worst relative gap {worst:.3e} between resolvent series "
                  "and Laplace quadrature over 20 systems x "
                  f"{lams.size} points")]


def _suite_orthonormal_model(args, outdir):
    system = semigroup.DiagonalSystem.sqrt_observation(n_active=60)
    # The default 25 x 17 scan grid is every other point of the 49 x 33 grid
    # in both directions, so one pass over the fine grid serves both.
    fine = semigroup.lambda_grid(n_moduli=49, n_args=33)
    norms = semigroup.weiss_norm_orthonormal(system, fine, 1e-12)
    grid = fine.reshape(49, 33)[::2, ::2].ravel()
    coarse = norms.reshape(49, 33)[::2, ::2].ravel()
    write_csv(os.path.join(outdir, "weiss_orthonormal.csv"),
              ["re_lambda", "im_lambda", "weiss_norm"],
              zip(grid.real, grid.imag, coarse))
    sup = float(np.max(coarse))
    sup_fine = float(np.max(norms))
    change = abs(sup_fine - sup) / sup
    checks = [check("orthonormal-sup-stable", 0.05 - change,
                    f"sup {sup:.6f} moves {change:.2%} when the grid "
                    "density doubles")]
    t_grid = semigroup.log_grid(1e-8, 1.0)
    decay = semigroup.decay_norm_orthonormal(system, t_grid)
    write_csv(os.path.join(outdir, "decay_orthonormal.csv"),
              ["t", "decay_sample"],
              np.column_stack([t_grid, decay]))
    checks.append(check("orthonormal-decay-bounded", 10.0 - float(np.max(decay)),
                        f"sup of t^(1/2) operator decay {np.max(decay):.6f} "
                        "on t in [1e-8, 1]"))
    return checks


def _suite_weiss_scan(args, outdir):
    witness = args.witness()
    lams = semigroup.lambda_grid()
    quot = semigroup.weiss_quotient(witness.system, witness.xi,
                                    witness.x_norm, lams, tol=1e-12)
    write_csv(os.path.join(outdir, "weiss.csv"),
              ["re_lambda", "im_lambda", "weiss_quotient"],
              zip(lams.real, lams.imag, quot))
    sup = float(np.max(quot))
    checks = [check("weiss-quotient-bounded", 10.0 - sup,
                    f"sup over the half-plane grid is {sup:.6f}")]
    return checks + _suite_orthonormal_model(args, outdir)


def _suite_orbit(args, outdir):
    witness = args.witness()
    t_grid = semigroup.log_grid(args.eps_min, args.tau)
    profile = semigroup.decay_profile(witness.system, witness.xi,
                                      witness.x_norm, t_grid)
    write_csv(os.path.join(outdir, "decay.csv"), ["t", "decay_sample"],
              profile)
    sup = float(np.max(profile[:, 1]))
    checks = [check("witness-decay-bounded", 10.0 - sup,
                    f"sup of t^(1/2)|orbit|/x_norm is {sup:.6f} on "
                    f"[{args.eps_min:g}, {args.tau:g}]")]
    return checks + _lower_bound_check("orbit-lower-bound-quick", args.params,
                                       12, witness)


def _suite_counterexample(args, outdir):
    params, spec = args.params, args.spec
    table = ce.XiTable(params, 10_000, spec)
    checks = []

    low = float(np.min(table.values))
    checks.append(check("xi-nonnegative", low,
                        f"min coefficient over n <= 10^4 is {low:.6e}"))
    c2, c8 = (table[n] * n**params.gamma for n in (2000, 8000))
    drift = abs(c8 - c2) / c2
    checks.append(check("xi-power-law-drift", 0.02 - drift,
                        f"n^(1/q)-scaled drift between n=2000 and n=8000 "
                        f"is {drift:.4%}"))
    cross = table.cross_check((1, 17, 100, 999, 5000), spec)
    checks.append(check("xi-route-agreement", 1e-9 - cross,
                        f"worst relative gap {cross:.3e} between the "
                        "cumulative table and direct quadrature"))
    asym = ce.xi_asymptotic(2000, params)
    gap = abs(table[2000] - asym) / asym
    checks.append(check("xi-asymptotic-gap", 0.05 - gap,
                        f"relative gap {gap:.4%} against the leading "
                        "power law at n=2000"))

    periods = ce.xi_period_decomposition(300, params, spec)
    checks.append(check("period-terms-nonnegative", float(np.min(periods)),
                        "min per-period integral over l < 300 is "
                        f"{np.min(periods):.6e}"))
    checks.append(check("period-terms-decreasing",
                        float(np.min(periods[:-1] - periods[1:])),
                        "per-period integrals decrease monotonically"))
    worst = 0.0
    for m in (5, 25, 100):
        lhs = table[2 * m]
        rhs = (2.0 * m) ** (-params.gamma) / math.pi \
            * math.fsum(periods[:m])
        worst = max(worst, abs(lhs - rhs) / lhs)
    checks.append(check("period-reconciliation", 1e-9 - worst,
                        f"worst relative gap {worst:.3e} for the even-index "
                        "whole-period identity"))

    rows = [(0, table[0], "")]
    rows += [(n, table[n], ce.xi_asymptotic(n, params))
             for n in range(1, 2001)]
    write_csv(os.path.join(outdir, "xi.csv"),
              ["n", "xi", "xi_asymptotic"], rows)

    witness = args.witness()
    checks += _lower_bound_check("orbit-lower-bound", params, 20, witness)

    decades = max(2, int(math.floor(-math.log10(args.eps_min) / 2.0)))
    eps_list = [10.0 ** (-2 * k) for k in range(1, decades + 1)]
    profile = ce.divergence_profile(params, eps_list, tau=args.tau,
                                    witness=witness)
    write_csv(os.path.join(outdir, "divergence.csv"),
              ["eps", "envelope_l2q", "orbit_l2q", "orbit_l2inf"], profile)
    weak = profile[:, 3]
    change = abs(weak[-1] - weak[-2]) / weak[-2]
    checks.append(check("weak-norm-stabilizes", 0.05 - change,
                        f"weak norm changes {change:.4%} over the last two "
                        "left endpoints"))
    # q log(norm) orders the endpoints as norm**q does, inside the float range
    growth = float(np.min(np.diff(params.q * np.log(profile[:, 2]))))
    checks.append(check("strong-norm-monotone", growth,
                        "q-th power of the (2,q) norm grows at every "
                        "endpoint step"))
    reg = np.array([math.log(1.0 - math.log(e)) for e in eps_list])
    # the closed form, not profile[:, 1] ** q: the norm log(ratio)^(1/q)
    # rounds to 1 once q is near 1e16, and its q-th power with it
    env_q = [ce.envelope_power_q(e, args.tau) for e in eps_list]
    env_slope = float(np.polyfit(reg, env_q, 1)[0])
    with np.errstate(over="ignore"):
        strong_q = profile[:, 2] ** params.q
    orb_slope = float(np.polyfit(reg, strong_q, 1)[0]) \
        if np.all(np.isfinite(strong_q)) else math.inf
    checks.append(check("divergence-slope",
                        min(env_slope - 0.3, 3.0 - env_slope),
                        f"envelope q-power slope {env_slope:.4f} against "
                        "log(1+log(1/eps)); sampled orbit slope "
                        f"{orb_slope:.4f}"))
    return checks


def _suite_bessel(args, outdir):
    params, spec = args.params, args.spec
    sizes = (100, 200, 400, 800, 1600)
    gram = ce.GramCache(params, sizes[-1], spec)
    closed = 2.0 * math.pi ** (2.0 * params.beta + 1.0) \
        / (2.0 * params.beta + 1.0)
    diag_gap = abs(gram.diagonal - closed) / closed
    checks = [check("gram-diagonal", 1e-8 - diag_gap,
                    f"relative gap {diag_gap:.3e} against the closed-form "
                    "diagonal entry")]

    table = ce.bessel_failure_witness(params, sizes, spec, gram=gram)
    ratios = table[:, 1] / table[:, 2]
    write_csv(os.path.join(outdir, "bessel.csv"),
              ["N", "coefficient_sum_sq", "quadratic_form", "ratio"],
              np.column_stack([table, ratios]))
    growth = float(ratios[-1] / ratios[0])
    checks.append(check("bessel-ratio-growth", growth - 2.0,
                        f"coefficient/quadratic-form ratio grows by "
                        f"{growth:.3f}x from N=100 to N=1600"))
    x_sq = ce.state_norm(params) ** 2
    overshoot = float(np.max(table[:, 2])) / x_sq
    checks.append(check("quadratic-form-bounded", 2.0 - overshoot,
                        f"max quadratic form is {overshoot:.3f}x the "
                        "squared state norm"))

    est = {n: ce.hilbertian_constant_estimate(params, 12, n, seed=args.seed,
                                              gram=gram)
           for n in (400, 1600)}
    slack = min(2.0 * est[400] - est[1600], 2.0 * est[1600] - est[400])
    checks.append(check("hilbertian-bounded", slack,
                        f"estimates {est[400]:.4f} (N=400) and "
                        f"{est[1600]:.4f} (N=1600) agree within factor 2"))
    return checks


def _run_lorentz_norm(args):
    steps = lorentz.StepFunction.read_csv(args.input)
    value = lorentz.lorentz_norm(steps, (args.p, args.q))
    sys.stdout.write(format_cell(value) + "\n")
    return EXIT_OK


def run(args):
    if args.command == "lorentz-norm":  # prints its norm, writes no file
        return _run_lorentz_norm(args)
    outdir = _resolve_output_dir(args)
    _validate_window(args)
    if args.seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    spec = QuadratureSpec(relative_tolerance=args.tol)
    params = ce.CounterexampleParams(args.q)
    # the suites' shared inputs, built once; the witness on first use, in
    # the guarded suite that needs it, so a failed build is its failed check
    witness = functools.cache(lambda: ce.witness_system(params, spec=spec))
    shared = argparse.Namespace(**vars(args), params=params, spec=spec,
                                witness=witness)
    suites = (("lorentz-closed-forms", _suite_lorentz_closed_forms),
              ("laplace-identity", _suite_laplace_identity),
              ("weiss-scan", _suite_weiss_scan),
              ("orbit", _suite_orbit),
              ("counterexample", _suite_counterexample),
              ("bessel-check", _suite_bessel))
    checks = []
    for name, suite in suites:
        if args.command in (name, "full-report"):
            checks += _guarded(f"{name}-suite",
                               functools.partial(suite, shared, outdir))
    config = {"tol": args.tol, "tau": args.tau, "eps_min": args.eps_min,
              "seed": args.seed, "version": __version__}
    write_summary(os.path.join(outdir, "summary.json"),
                  summary_payload(params, config, checks))
    failed = [c for c in checks if not c.passed]
    for c in failed:
        sys.stderr.write(f"FAILED {c.name}: {c.details}\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except DomainError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_CONFIG_INVALID
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO_ERROR
    except WeissbenchError as exc:
        sys.stderr.write(f"check aborted: {type(exc).__name__}: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
