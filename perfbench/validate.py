"""Output validation for every benchmark operation.

Each validator returns a list of problems; an operation is correct when the
list is empty. Reference comparisons use tolerances derived from the
program's documented quadrature gate, never byte equality: the compiled and
NumPy kernels already differ in the last digits.

Every workload runs at the CLI's default tolerance `tol = 1e-10`. A
quadrature value passes the gate `estimate <= tol * max(|value|, 0.01 *
scale)`, so it is certified to `100 * tol` relative to itself once it is at
least one percent of its scale, and two certified results differ by at most
twice that. The artifact columns are positive combinations of such values
(nonnegative coefficients, positive observation weights, resolvent terms in
one quadrant), which carry the relative bound over: `RTOL = 2 * 100 * tol`.
The Gram quadratic form is the exception; `gram_form_tolerance` bounds it.
"""
import csv
import json
import math
import os

import numpy as np

TOL = 1e-10
RTOL = 2.0 * 100.0 * TOL

# The seed-independent artifacts of `full-report`.
REFERENCE_ARTIFACTS = ("bessel", "decay", "decay_orthonormal", "divergence",
                       "lorentz", "weiss", "weiss_orthonormal", "xi")
LOWER_BOUND_SLACK = -1e-9  # the suite's `orbit-lower-bound` gate
WEAK_NORM_CHANGE = 0.05    # the suite's `weak-norm-stabilizes` gate
WEISS_SUP = 10.0           # the suite's `weiss-quotient-bounded` gate
# lorentz_norm sums 2e4 sorted segments in floating point, so a function and
# its rearrangement agree to about n * eps = 4e-12; this leaves a margin.
NORM_GAP = 1e-9


def frequencies(n):
    """Frequencies of basis indices 0..n-1: 0, -1, 1, -2, 2, ..."""
    k = np.arange(n)
    m = (k + 1) // 2
    return np.where(k % 2 == 1, -m, m)


def gram_form_tolerance(xi_abs, q, tol=TOL):
    """How far two certified evaluations of sum_jk x_j x_k g(|nu_j - nu_k|)
    may differ, for |x_k| = xi_abs[k] on the first len(xi_abs) indices.

    g(d) = 2 * int_0^pi s^a cos(d s) ds with a = 2 beta. Integration by
    parts bounds the integral by min(scale, 2 pi^a / d), scale = pi^(a+1) /
    (a+1); each entry passes the gate tol * max(|integral|, 0.01 * scale).
    """
    beta = (q - 1.0) / (2.0 * q)
    a = 2.0 * beta
    scale = math.pi ** (a + 1.0) / (a + 1.0)
    nu = frequencies(len(xi_abs))
    lattice = np.zeros(int(nu.max() - nu.min()) + 1)
    lattice[nu - nu.min()] = np.abs(xi_abs)
    pairs = np.correlate(lattice, lattice, "full")
    d = np.abs(np.arange(pairs.size) - (lattice.size - 1))
    integral = np.minimum(scale, 2.0 * math.pi ** a / np.maximum(d, 1))
    entry_gap = 2.0 * 2.0 * tol * np.maximum(integral, 0.01 * scale)
    return float(pairs @ entry_gap)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_table(name, rows, ref_rows, atol=None):
    """Cells equal to RTOL relative (plus atol[r][c], if given)."""
    if rows[:1] != ref_rows[:1]:
        return [f"{name}: header {rows[:1]} differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows) - 1} rows, reference has "
                f"{len(ref_rows) - 1}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:])):
        if len(row) != len(ref):
            problems.append(f"{name} row {r}: {len(row)} cells")
            continue
        for c, (got, want) in enumerate(zip(row, ref)):
            if want == "" or got == "":
                if got != want:
                    problems.append(f"{name} row {r} col {c}: {got!r}")
                continue
            try:
                x, y = float(got), float(want)
            except ValueError:
                problems.append(f"{name} row {r} col {c}: {got!r}")
                continue
            limit = RTOL * abs(y) + (atol[r][c] if atol is not None else 0.0)
            if not abs(x - y) <= limit:
                problems.append(f"{name} row {r} col {c}: {x!r} vs "
                                f"reference {y!r} (limit {limit:.3e})")
    return problems[:5]


def _bessel_atol(ref_rows, xi_rows, q):
    """Per-cell absolute allowance for bessel.csv (N, sum, form, ratio)."""
    xi = np.array([float(row[1]) for row in xi_rows[1:]])
    out = []
    for row in ref_rows[1:]:
        n = int(float(row[0]))
        form_gap = gram_form_tolerance(xi[np.abs(frequencies(n))], q)
        ratio = float(row[3])
        out.append([0.0, 0.0, form_gap, ratio * form_gap / float(row[2])])
    return out


def validate_full_report(outdir, exit_code, reference_dir, partner=None,
                         q=4.0):
    """Problems with one `full-report` run at the default configuration.

    partner, if given, is the output directory of an earlier run with the
    same seed; the two must be byte-identical.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
        checks = summary["checks"]
        failing = [c["name"] for c in checks if c["pass"] is not True]
        if not checks or failing:
            problems.append(f"summary.json failing checks: {failing}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
    ref_xi = _read_csv(os.path.join(reference_dir, "xi.csv"))
    for name in REFERENCE_ARTIFACTS:
        ref = _read_csv(os.path.join(reference_dir, name + ".csv"))
        try:
            rows = _read_csv(os.path.join(outdir, name + ".csv"))
        except OSError as exc:
            problems.append(f"{name}.csv missing: {exc}")
            continue
        atol = _bessel_atol(ref, ref_xi, q) if name == "bessel" else None
        problems += compare_table(name + ".csv", rows, ref, atol)
    if partner is not None:
        problems += _byte_identical(outdir, partner)
    return problems


def _byte_identical(a, b):
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"same seed wrote {names_a} then {names_b}"]
    problems = []
    for name in names_a:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between two runs with "
                                "the same seed")
    return problems


def validate_endpoint(out):
    """Problems with one endpoint-windows operation."""
    problems = []
    mismatched = [(a, f, r) for a, f, r in out["distribution"] if f != r]
    if mismatched:
        problems.append(f"distribution mismatches {mismatched}")
    n_f, n_r = out["norms"]
    if not abs(n_f - n_r) <= NORM_GAP * n_r:
        problems.append(f"norms of f and its rearrangement: {n_f!r}, {n_r!r}")
    weak = out["profile"][:, 3]
    change = abs(weak[-1] - weak[-2]) / weak[-2]
    if not change < WEAK_NORM_CHANGE:
        problems.append(f"weak norm moves {change:.2%} over the last two "
                        "endpoints")
    if not out["lower_bound"].worst_slack >= LOWER_BOUND_SLACK:
        problems.append(f"lower-bound slack {out['lower_bound'].worst_slack}")
    if not out["weiss_sup"] <= WEISS_SUP:
        problems.append(f"Weiss quotient sup {out['weiss_sup']!r}")
    return problems
