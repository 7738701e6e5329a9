"""The endpoint witness: coefficients, orbit bounds, norms, and the basis."""
import math
import re

import numpy as np
import pytest

from oracle_values import GRAM_FORM_REF, PERIOD_REF, POWCOS_REF, XI_LIMIT
from weissbench import (BasisIndexMap, BoundViolated, CoefficientVector,
                        CounterexampleParams, DiagonalSystem, DomainError,
                        GramCache, LorentzIndex, StepFunction, XiTable,
                        bessel_failure_witness, divergence_profile,
                        hilbertian_constant_estimate, lorentz_norm,
                        orbit_lower_bound_check, state_norm, witness_system,
                        xi_asymptotic, xi_coefficient)
from weissbench import counterexample as ce
from weissbench.counterexample import (_LCG_BLOCK, WitnessSystem,
                                       _lcg_uniform, envelope_norm_q,
                                       envelope_power_q, period_table,
                                       xi_period_decomposition)
from weissbench.errors import ToleranceNotMet
from weissbench.quadrature import (DEFAULT_SPEC, QuadratureSpec,
                                   laplace_quadrature, powcos_quadrature,
                                   singular_oscillatory_integral)
from weissbench.semigroup import (lambda_grid, log_grid, orbit_callable,
                                  orbit_decay_bound, orbit_observation,
                                  resolvent_observation,
                                  weiss_norm_orthonormal, weiss_quotient)


@pytest.fixture(scope="module")
def p4():
    return CounterexampleParams(4.0)


@pytest.fixture(scope="module")
def table4(p4):
    return XiTable(p4, 400)


@pytest.fixture(scope="module")
def gram4(p4):
    return GramCache(p4, 64)


# ---------------------------------------------------------------- exponents
def test_params_derivation():
    for q in (2.001, 3.0, 4.0, 8.0, 50.0):
        params = CounterexampleParams(q)
        assert params.q_conj == pytest.approx(q / (q - 1.0), rel=1e-15)
        assert 0.25 < params.beta < 0.5
        assert params.gamma == 1.0 / q
        assert params.gamma == pytest.approx(1.0 - 2.0 * params.beta,
                                             rel=1e-15)


def test_params_domain():
    for bad in (2.0, 1.5, -3.0, math.inf):
        with pytest.raises(DomainError):
            CounterexampleParams(bad)
    # 1 - 2 beta would be 11% off gamma at q = 1e15 and 0 from 2^53; 1/q
    # is exact to rounding, and the domain ends where 1/q - 1 rounds to -1,
    # the end of the range the suites have been run on
    for q in (1e12, 1e15, 1e16, 2.0**54 - 2.0):
        assert CounterexampleParams(q).gamma == 1.0 / q
        assert CounterexampleParams(q).gamma - 1.0 > -1.0
    for bad in (2.0**54, 1e17, 1e300):
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            CounterexampleParams(bad)


def test_index_map_enumeration(p4):
    assert BasisIndexMap.frequencies(7).tolist() == [0, -1, 1, -2, 2, -3, 3]
    nu = BasisIndexMap.frequencies(500)
    assert np.unique(nu).size == 500  # one index a frequency
    assert np.all(np.abs(nu) <= (np.arange(500) + 1) // 2)


# ------------------------------------------------------------- coefficients
def test_xi_zero_closed_form(p4, table4):
    want = math.pi ** (p4.gamma - 1.0) / p4.gamma
    assert table4[0] == want  # assigned from the closed form
    assert xi_coefficient(0, p4) == pytest.approx(want, rel=1e-10)


def test_xi_table_matches_direct_route(p4, table4):
    assert table4.cross_check((1, 7, 33, 250)) <= 1e-11
    assert 0.0 < table4.estimate < 1e-9
    assert len(table4) == 401


def test_xi_table_validation(p4):
    with pytest.raises(DomainError):
        XiTable(p4, 0)
    with pytest.raises(DomainError):
        XiTable(p4, 2.5)
    assert len(XiTable(p4, 3.0)) == 4  # an integral float is a count


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda p, g, t: xi_period_decomposition(NAN, p),
    lambda p, g, t: xi_period_decomposition(INF, p),
    lambda p, g, t: XiTable(p, NAN),
    lambda p, g, t: XiTable(p, INF),
    lambda p, g, t: period_table(0.25, NAN),
    lambda p, g, t: period_table(0.25, -INF),
    lambda p, g, t: GramCache(p, NAN),
    lambda p, g, t: GramCache(p, INF),
    lambda p, g, t: xi_asymptotic(NAN, p),
    lambda p, g, t: xi_asymptotic(INF, p),
    lambda p, g, t: witness_system(p, n_modes=NAN),
    lambda p, g, t: witness_system(p, n_modes=INF),
    lambda p, g, t: witness_system(p, n_modes=2.5),
    lambda p, g, t: hilbertian_constant_estimate(p, 1, NAN, gram=g),
    lambda p, g, t: hilbertian_constant_estimate(p, 1, INF, gram=g),
    lambda p, g, t: hilbertian_constant_estimate(p, 1.5, 4, gram=g),
    lambda p, g, t: divergence_profile(p, [1e-2], per_decade=NAN,
                                       witness=witness_system(p)),
    lambda p, g, t: divergence_profile(p, [1e-2], per_decade=INF,
                                       witness=witness_system(p)),
    lambda p, g, t: orbit_lower_bound_check(p, (0, 3), 1.5,
                                            witness=witness_system(p)),
    lambda p, g, t: bessel_failure_witness(p, [10.5, 20], gram=g, table=t),
    lambda p, g, t: DiagonalSystem.default(n_active=2.5),
    lambda p, g, t: DiagonalSystem.default(n_active=NAN),
    lambda p, g, t: log_grid(0.0, 1.0),
    lambda p, g, t: log_grid(1.0, 1e-3),
    lambda p, g, t: log_grid(1e-3, INF),
    lambda p, g, t: log_grid(NAN, 1.0),
    lambda p, g, t: log_grid(1e-3, 1.0, per_decade=NAN),
    lambda p, g, t: log_grid(1e-3, 1.0, per_decade=0),
    lambda p, g, t: log_grid(1e-3, 1.0, per_decade=2.5),
], ids=["periods-nan", "periods-inf", "xi-table-nan", "xi-table-inf",
        "period-table-nan", "period-table-neg-inf", "gram-nan", "gram-inf",
        "asymptotic-nan", "asymptotic-inf", "modes-nan", "modes-inf",
        "modes-fraction", "hilbertian-N-nan", "hilbertian-N-inf",
        "trials-fraction", "per-decade-nan", "per-decade-inf",
        "samples-fraction", "bessel-sizes-fraction", "n-active-fraction",
        "n-active-nan", "log-grid-zero-lo", "log-grid-reversed",
        "log-grid-inf-hi", "log-grid-nan-lo", "log-grid-per-decade-nan",
        "log-grid-per-decade-zero", "log-grid-per-decade-fraction"])
def test_malformed_counts_raise_domain_error(p4, gram4, table4, call):
    with pytest.raises(DomainError):
        call(p4, gram4, table4)


@pytest.mark.parametrize("call", [
    lambda p, g: singular_oscillatory_integral(0.25, "3"),
    lambda p, g: singular_oscillatory_integral(0.25, None),
    lambda p, g: singular_oscillatory_integral("0.5", 3),
    lambda p, g: CounterexampleParams("x"),
    lambda p, g: CounterexampleParams(None),
    lambda p, g: LorentzIndex("a", 2),
    lambda p, g: LorentzIndex(2, None),
    lambda p, g: lambda_grid(mod_min=0),
    lambda p, g: lambda_grid(mod_max=INF),
    lambda p, g: lambda_grid(n_moduli=1.5),
    lambda p, g: hilbertian_constant_estimate(p, 2, 4, seed=1.5, gram=g),
    lambda p, g: QuadratureSpec("x"),
    lambda p, g: QuadratureSpec(None),
    lambda p, g: period_table("0.5", 4),
    lambda p, g: log_grid("a", 1.0),
    lambda p, g: envelope_power_q("a", 1.0),
    lambda p, g: orbit_lower_bound_check(p, (0, 3), 2, tail_tolerance="x",
                                         witness=witness_system(p)),
    lambda p, g: divergence_profile(p, ["a"], witness=witness_system(p)),
    lambda p, g: CoefficientVector([1.0], tail_sup="x"),
    lambda p, g: weiss_quotient(*witness_system(p)[:2], "x", 1.0),
    lambda p, g: orbit_observation(*witness_system(p)[:2], 1.0, "x"),
    lambda p, g: divergence_profile(p, [1e-2], tau="x",
                                    witness=witness_system(p)),
    lambda p, g: orbit_decay_bound(*witness_system(p)[:2], "x"),
    lambda p, g: orbit_observation(*witness_system(p)[:2], "x", 1e-9),
    lambda p, g: laplace_quadrature(np.exp, 1.0, T="x", decay=(1.0, 0.0)),
    lambda p, g: laplace_quadrature(np.exp, "x", T=1.0, decay=(1.0, 0.0)),
], ids=["n-string", "n-none", "gamma-string", "q-string", "q-none",
        "p-string", "lorentz-q-none", "mod-min-zero", "mod-max-inf",
        "moduli-fraction", "seed-fraction", "tol-string", "tol-none",
        "period-table-g-string", "log-grid-lo-string", "envelope-eps-string",
        "tail-tolerance-string", "eps-string", "tail-sup-string",
        "x-norm-string", "orbit-tol-string", "tau-string", "alpha-string",
        "orbit-t-string", "laplace-T-string", "laplace-lambda-string"])
def test_malformed_input_raises_domain_error(p4, gram4, call):
    # each raised TypeError or ValueError before
    with pytest.raises(DomainError):
        call(p4, gram4)


@pytest.mark.parametrize("call", [
    lambda w: orbit_observation(w.system, w.xi, "1e-3", 1e-9),
    lambda w: orbit_observation(w.system, w.xi, ["1e-3", 0.5], 1e-9),
    lambda w: orbit_observation(w.system, w.xi, b"1e-3", 1e-9),
    lambda w: resolvent_observation(w.system, w.xi, "2", 1e-9),
    lambda w: weiss_quotient(w.system, w.xi, w.x_norm, "2"),
    lambda w: weiss_quotient(w.system, w.xi, w.x_norm, ["2", 3.0]),
    lambda w: laplace_quadrature(np.exp, "1", T="0.5", decay=(2.0, 0.0)),
    lambda w: laplace_quadrature(np.exp, 1.0, T="0.5", decay=(2.0, 0.0)),
    lambda w: laplace_quadrature(np.exp, 1.0, T=0.5, decay=("2", 0.0)),
    lambda w: laplace_quadrature(np.exp, 1.0, T=0.5, decay=(2.0, "0")),
    # the one-point forms that the scalar check of a point sees
    lambda w: orbit_observation(w.system, w.xi, np.array("1"), 1e-9),
    lambda w: resolvent_observation(w.system, w.xi, b"1", 1e-9),
    lambda w: resolvent_observation(w.system, w.xi, np.array("1"), 1e-9),
    lambda w: weiss_quotient(w.system, w.xi, w.x_norm, b"1"),
    lambda w: weiss_quotient(w.system, w.xi, w.x_norm, np.array("1")),
    lambda w: weiss_norm_orthonormal(w.system, "1", 1e-9),
    lambda w: weiss_norm_orthonormal(w.system, b"1", 1e-9),
    lambda w: weiss_norm_orthonormal(w.system, np.array("1"), 1e-9),
], ids=["orbit-t", "orbit-t-list", "orbit-t-bytes", "resolvent-lambda",
        "weiss-lambda", "weiss-lambda-list", "laplace-lambda", "laplace-T",
        "laplace-decay-M", "laplace-decay-alpha", "orbit-t-0d",
        "resolvent-lambda-bytes", "resolvent-lambda-0d", "weiss-lambda-bytes",
        "weiss-lambda-0d", "orthonormal-lambda", "orthonormal-lambda-bytes",
        "orthonormal-lambda-0d"])
def test_numeric_strings_raise_domain_error(p4, call):
    # NumPy parses numeric strings; points are rejected as scalars are
    with pytest.raises(DomainError, match="must be"):
        call(witness_system(p4))


def test_xi_table_smallest_sizes(p4):
    for n_max in (1, 2):
        table = XiTable(p4, n_max)
        assert len(table) == n_max + 1
        for n in range(1, n_max + 1):
            assert table[n] == pytest.approx(xi_coefficient(n, p4),
                                             rel=1e-13)


def test_period_table_estimates_cover_oracle_errors(p4):
    # xi: F(n pi) = pi n^gamma xi(n) with g = gamma; the table's single
    # estimate bounds every entry's absolute error
    table = XiTable(p4, 10_000)
    for n in (1000, 10000):
        want = POWCOS_REF[(0.25, n)] / math.pi
        assert abs(table[n] - want) <= table.estimate
    # Gram: F(d pi) = d^g int_0^pi s^(g-1) cos(d s) ds
    g = 2.0 * p4.beta + 1.0
    values, est = period_table(g, 2047)
    assert np.all(np.diff(est) > 0.0)
    for d in (1000, 1599, 2047):
        want = d**g * POWCOS_REF[(1.75, d)]
        assert abs(values[d - 1] - want) <= est[d - 1]
    with pytest.raises(DomainError):
        period_table(g, 0)
    for bad in (0.0, -0.5, 2.5):
        with pytest.raises(DomainError):
            period_table(bad, 4)


def test_period_table_is_not_capped_by_the_panel_budget():
    # only the first period is graded; the 4 * 150_000 halved panels of the
    # tail lie far beyond MAX_PANELS
    values, est = period_table(0.25, 150_000)
    assert values.size == est.size == 150_000
    assert np.all(np.isfinite(values)) and np.all(np.diff(est) > 0.0)
    assert est[-1] < 1e-9


def test_xi_positive_and_dominated_by_head(p4, table4):
    assert np.all(table4.values > 0.0)
    assert np.all(table4.values[1:] < table4[0])


def test_xi_asymptotic_prefactor_matches_reference(p4):
    for q, limit in XI_LIMIT.items():
        params = CounterexampleParams(q)
        assert xi_asymptotic(1, params) == pytest.approx(limit, rel=1e-13)
    with pytest.raises(DomainError):
        xi_asymptotic(0, p4)


def test_xi_scaled_converges_to_limit():
    for q, limit in XI_LIMIT.items():
        params = CounterexampleParams(q)
        table = XiTable(params, 2000)
        got = table[2000] * 2000.0 ** params.gamma
        assert got == pytest.approx(limit, rel=1e-5)


def test_period_decomposition_against_reference(p4):
    per = xi_period_decomposition(101, p4)
    for (g, l), want in PERIOD_REF.items():
        assert g == 0.25
        assert per[l] == pytest.approx(want, rel=1e-9)
    assert np.all(per > 0.0)
    assert np.all(np.diff(per) < 0.0)


@pytest.mark.parametrize("q", [3.0, 4.0, 8.0])
def test_period_decomposition_equals_one_period_calls(q):
    # the batched pass returns each period's powcos_quadrature value exactly
    params = CounterexampleParams(q)
    want = np.array([powcos_quadrature(params.gamma, 2.0 * math.pi * l, 1.0,
                                       2.0 * math.pi)[0]
                     for l in range(1001)])
    for n in (1, 2, 300, 1001):
        got = xi_period_decomposition(n, params)
        assert got.tobytes() == want[:n].tobytes()


def test_period_reconciliation_identity(p4, table4):
    # xi(2m) = (2m)^(-gamma)/pi * sum_{l<m} I_l, exactly in real arithmetic
    per = xi_period_decomposition(100, p4)
    worst = 0.0
    for m in (1, 5, 25, 100):
        lhs = table4[2 * m]
        rhs = (2.0 * m) ** (-p4.gamma) / math.pi * math.fsum(per[:m])
        worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst <= 1e-9


# ------------------------------------------------------------------ envelope
def test_envelope_norm_closed_form(p4):
    eps = math.exp(1.0 - math.exp(4.0))
    assert envelope_norm_q(eps, 1.0, p4) == pytest.approx(math.sqrt(2.0),
                                                          rel=1e-12)
    with pytest.raises(DomainError):
        envelope_norm_q(0.5, 0.5, p4)
    with pytest.raises(DomainError):
        envelope_norm_q(0.1, 1.5, p4)
    # subnormal endpoints, whose reciprocals overflow: log(1/x) = -log(x)
    for eps, tau in ((1e-320, 1.0), (1e-320, 1e-310)):
        want = math.log((1.0 - math.log(eps)) / (1.0 - math.log(tau)))
        assert envelope_power_q(eps, tau) == want
        assert envelope_norm_q(eps, tau, p4) == pytest.approx(
            want ** 0.25, rel=1e-15)
    with pytest.raises(DomainError):
        envelope_power_q(0.1, 1.5)


def test_state_norm_closed_form_and_quadrature(p4):
    want = math.sqrt(2.0 * math.pi**p4.gamma / p4.gamma)
    assert state_norm(p4) == want
    quad = 2.0 * singular_oscillatory_integral(p4.gamma, 0)
    assert state_norm(p4) ** 2 == pytest.approx(quad, rel=1e-10)


# ------------------------------------------------------------------- witness
def test_witness_system_wiring(p4):
    wit = witness_system(p4, n_modes=40)
    assert wit.system.n_active == 40
    assert wit.x_norm == state_norm(p4)
    assert wit.xi.tail_sup == wit.table[0]
    nu = np.abs(BasisIndexMap.frequencies(40))
    assert np.array_equal(wit.xi.values, wit.table.values[nu])
    assert np.all(wit.xi.values > 0.0)
    with pytest.raises(DomainError):
        witness_system(p4, n_modes=1)


def test_laplace_identity_on_the_witness(p4):
    # the witness orbit blows up like t^(-1/2): the graded layer runs to the
    # depth its alpha = 1/2 bound sets, and the dropped head is certified.
    # Its terms are nonnegative, so the estimate, below tol max(|value|,
    # 0.01 abs sum), is below tol times the resolvent at Re(lam)
    wit = witness_system(p4)
    orbit = orbit_callable(wit.system, wit.xi)
    decay = orbit_decay_bound(wit.system, wit.xi, 0.5)
    tol = DEFAULT_SPEC.relative_tolerance
    for lam in (1.0, 10.0 + 10.0j, 0.05 - 0.1j, 300.0 + 5.0j):
        lam = complex(lam)
        series = resolvent_observation(wit.system, wit.xi, [lam, lam.real],
                                       1e-14)
        quad = laplace_quadrature(orbit, lam, T=40.0 / (1.0 + lam.real),
                                  decay=decay)
        assert abs(series.value[0] - quad) <= (
            tol * series.value[1].real + series.tail_bound[0])


def test_orbit_lower_bound_holds(p4):
    report = orbit_lower_bound_check(p4, (0, 6), 4,
                                     witness=witness_system(p4))
    assert report.worst_slack >= 0.0
    assert report.samples == 7 * 4
    assert 0 <= report.worst_n <= 6


def test_orbit_lower_bound_validation(p4):
    wit = witness_system(p4)
    with pytest.raises(DomainError):
        orbit_lower_bound_check(p4, (3, 1), 4, witness=wit)
    with pytest.raises(DomainError):
        orbit_lower_bound_check(p4, (0, 2), 0, witness=wit)
    # index 60 of the 60 default coefficients raised a raw IndexError
    with pytest.raises(DomainError, match="n_hi=70"):
        orbit_lower_bound_check(p4, (0, 70), 2, witness=wit)


def test_orbit_lower_bound_violation_detected(p4, table4):
    # a witness whose observation weights are far too small cannot clear the
    # bound built from its own coefficients
    weak = DiagonalSystem([1.0, 4.0], [0.01, 0.0])
    wit = WitnessSystem(weak, CoefficientVector([1.0, 1.0]), 1.0, table4)
    with pytest.raises(BoundViolated) as info:
        orbit_lower_bound_check(p4, (0, 0), 2, witness=wit)
    # the first violating sample in (n, t) order: t = 4^-1 at n = 0
    assert info.value.n == 0
    assert info.value.t == 0.25


def test_divergence_profile_columns(p4):
    wit = witness_system(p4)
    prof = divergence_profile(p4, [1e-2, 1e-3], witness=wit)
    assert prof.shape == (2, 4)
    assert np.array_equal(prof[:, 0], [1e-2, 1e-3])
    assert prof[0, 1] == pytest.approx(envelope_norm_q(1e-2, 1.0, p4),
                                       rel=1e-14)
    assert np.all(prof[:, 2] >= prof[:, 3])  # strong norm dominates weak
    with pytest.raises(DomainError):
        divergence_profile(p4, [1e-3, 1e-2], witness=wit)  # not decreasing
    with pytest.raises(DomainError):
        divergence_profile(p4, [1e-2], tau=2.0, witness=wit)
    with pytest.raises(DomainError):
        divergence_profile(p4, [1e-2], per_decade=32, witness=wit)
    # a q = 8 witness gave a plausible q = 4 row (orbit norm 4.361)
    with pytest.raises(DomainError, match="another q"):
        divergence_profile(p4, [1e-2], witness=witness_system(
            CounterexampleParams(8.0)))


@pytest.mark.parametrize("eps_list, per_decade, tau", [
    ([10.0 ** -k for k in range(2, 13)], 1024, 1.0),
    ([3e-2, 7e-5, 1.3e-9], 100, 1.0),
    ([3e-2, 7e-5, 1.3e-9], 100, 0.5),
], ids=["nested", "not-nested", "not-nested-tau"])
def test_divergence_profile_matches_per_window_samples(p4, eps_list,
                                                       per_decade, tau,
                                                       monkeypatch):
    # the orbit is evaluated once over the union of the windows' left ends;
    # each window's step function and norms are those of its own sample,
    # bit for bit
    seen = []

    def recording_norm(f, idx):
        seen.append(f)
        return lorentz_norm(f, idx)

    monkeypatch.setattr(ce, "lorentz_norm", recording_norm)
    wit = witness_system(p4)
    prof = divergence_profile(p4, eps_list, tau, witness=wit,
                              per_decade=per_decade)
    orbit = orbit_callable(wit.system, wit.xi)
    grids = [log_grid(eps, tau, per_decade) for eps in eps_list]
    nested = all(np.array_equal(grids[0], grid[-grids[0].size:])
                 for grid in grids)
    assert nested == (per_decade == 1024)
    for row, grid, f in zip(prof, grids, seen[::2]):
        steps = StepFunction(grid, orbit(grid[:-1]))
        assert np.array_equal(f.breakpoints, steps.breakpoints)
        assert np.array_equal(f.values, steps.values)
        assert row[2] == lorentz_norm(steps, (2.0, p4.q))
        assert row[3] == lorentz_norm(steps, (2.0, math.inf))


@pytest.mark.parametrize("call", [
    lambda p4, p8: bessel_failure_witness(p4, [16, 64],
                                          gram=GramCache(p8, 64)),
    lambda p4, p8: bessel_failure_witness(p4, [16, 64],
                                          gram=GramCache(p4, 64),
                                          table=XiTable(p8, 33)),
    lambda p4, p8: hilbertian_constant_estimate(p4, 2, 16,
                                                gram=GramCache(p8, 16)),
    lambda p4, p8: orbit_lower_bound_check(p4, (0, 3), 2,
                                           witness=witness_system(p8)),
], ids=["bessel-gram", "bessel-table", "hilbertian-gram", "lower-bound"])
def test_prebuilt_table_for_another_q_raises(p4, call):
    # as divergence_profile's witness (test_divergence_profile_columns): a
    # q = 8 Gram cache gave a q = 4 quadratic form of 18.43 instead of
    # 21.13 at N = 16, next to q = 4 coefficient sums
    with pytest.raises(DomainError, match="built for another q"):
        call(p4, CounterexampleParams(8.0))


# -------------------------------------------------------------------- basis
def gram_entry(j, k, params, spec=DEFAULT_SPEC):
    """Inner product of basis elements j and k by the direct route, the
    oracle GramCache is compared against.

    Equals 2 * integral of s^(2 beta) cos((nu_j - nu_k) s) over (0, pi):
    real by the symmetric domain, so the complex return carries zero
    imaginary part; the exponent 2 beta + 1 lies in (3/2, 2).
    """
    nu = BasisIndexMap.frequencies(max(j, k) + 1)
    delta = abs(int(nu[j]) - int(nu[k]))
    value = 2.0 * singular_oscillatory_integral(2.0 * params.beta + 1.0,
                                                delta, spec)
    return complex(value)


def test_gram_entries_reduce_to_frequency_difference(p4, gram4):
    g = 2.0 * p4.beta + 1.0
    nu = BasisIndexMap.frequencies(7)
    for j, k in ((0, 0), (1, 2), (3, 6), (0, 5)):
        delta = abs(int(nu[j]) - int(nu[k]))
        want = 2.0 * singular_oscillatory_integral(g, delta)
        got = gram_entry(j, k, p4)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, rel=1e-14)
        assert gram_entry(k, j, p4) == got


def test_gram_entry_against_reference(p4):
    # frequency difference 100 pairs index 200 with index 0; the entry is
    # tiny, so gate absolutely at the quadrature's absolute error floor
    want = 2.0 * POWCOS_REF[(1.75, 100)]
    got = gram_entry(200, 0, p4)
    assert abs(got.real - want) <= 1e-10


def test_gram_cache_matches_entries(p4, gram4):
    nu = BasisIndexMap.frequencies(8)
    for j in range(8):
        for k in range(8):
            d = abs(int(nu[j]) - int(nu[k]))
            assert gram4._by_delta[d] == pytest.approx(
                gram_entry(j, k, p4).real, rel=1e-13)
    diag_want = 2.0 * math.pi ** (2.0 * p4.beta + 1.0) / (2.0 * p4.beta + 1.0)
    assert gram4.diagonal == pytest.approx(diag_want, rel=1e-10)


def _dense_block(gram, n):
    """Test-side n x n Gram block G_jk = g(|nu_j - nu_k|)."""
    nu = BasisIndexMap.frequencies(n)
    return gram._by_delta[np.abs(nu[:, None] - nu[None, :])]


def _dense_form(gram, x):
    return float(x @ _dense_block(gram, x.size) @ x)


def test_quadratic_form_matches_dense_reference(p4):
    gram = GramCache(p4, 1600)
    table = XiTable(p4, 800)
    for n in (1, 8, 64, 1600):
        xi = table.values[np.abs(BasisIndexMap.frequencies(n))]
        signed = 2.0 * _lcg_uniform(n, n) - 1.0
        for x in (xi, signed):
            want = _dense_form(gram, x)
            assert gram.quadratic_form(x) == pytest.approx(want, rel=1e-12)


def test_quadratic_form_against_oracle(p4):
    # each entry passes its quadrature gate, so the form may move by the
    # gate summed over all pairs (perfbench's gram_form_tolerance)
    gram = GramCache(p4, max(GRAM_FORM_REF))
    g = 2.0 * p4.beta + 1.0
    tol = 1e-10
    for n, want in GRAM_FORM_REF.items():
        x = 1.0 / np.arange(1, n + 1)
        gate = 2.0 * tol * np.maximum(np.abs(_dense_block(gram, n)) / 2.0,
                                      0.01 * math.pi**g / g)
        allowed = float(np.abs(x) @ gate @ np.abs(x))
        assert abs(gram.quadratic_form(x) - want) <= allowed


def test_gram_cache_far_entries_against_reference(p4):
    # each entry must lie within its own quadrature gate of the oracle
    gram = GramCache(p4, 2048)
    g = 2.0 * p4.beta + 1.0
    floor = 0.01 * math.pi**g / g
    for d in (1000, 1599, 2047):
        want = 2.0 * POWCOS_REF[(1.75, d)]
        gate = 2.0 * 1e-10 * max(abs(want) / 2.0, floor)
        assert abs(gram._by_delta[d] - want) <= gate


def test_gram_cache_raises_instead_of_storing_uncertified(p4, monkeypatch):
    # at tol 1e-12 the roundoff floor of small-d entries exceeds the gate
    tight = QuadratureSpec(relative_tolerance=1e-12)
    with pytest.raises(ToleranceNotMet, match=r"Gram entry d=\d+$"):
        GramCache(p4, 64, tight)
    real = ce.period_table

    def inflated(a, kmax, spec):
        values, est = real(a, kmax, spec)
        est = est.copy()
        est[41] = 1.0
        return values, est

    monkeypatch.setattr(ce, "period_table", inflated)
    with pytest.raises(ToleranceNotMet, match=r"Gram entry d=42$") as exc:
        GramCache(p4, 64)
    assert exc.value.estimate == pytest.approx(2.0 * 42.0 ** -1.75)


@pytest.mark.parametrize("q", [8.0, 50.0, 1e3])
def test_tables_are_prefixes_of_larger_tables(q):
    # an entry's value does not depend on how many entries the table holds
    params = CounterexampleParams(q)
    gram, table = GramCache(params, 1600), XiTable(params, 10_000)
    for n in (2, 4, 5, 64, 801):
        assert np.array_equal(GramCache(params, n)._by_delta,
                              gram._by_delta[:n])
        assert np.array_equal(XiTable(params, n).values,
                              table.values[:n + 1])


@pytest.mark.filterwarnings("error")
def test_gram_cache_validation(p4, gram4):
    for bad in (0, 2.5):
        with pytest.raises(DomainError):
            GramCache(p4, bad)
    assert GramCache(p4, 3000).n_basis == 3000  # no size cap
    # a NaN or infinite x used to come back as a nan form, numeric strings
    # were parsed, and a complex x lost its imaginary part with only a
    # ComplexWarning
    for bad in (np.empty(0), np.ones((2, 2)), np.ones(65), [NAN] * 4,
                [1.0, INF, 0.0], [0.0, -INF], ["1", "2"],
                np.array([1.0, 2.0 + 1.0j])):
        with pytest.raises(DomainError):
            gram4.quadratic_form(bad)


def test_bessel_witness_single_element(p4, gram4, table4):
    out = bessel_failure_witness(p4, [1], gram=gram4, table=table4)
    xi0 = table4[0]
    assert out[0, 0] == 1.0
    assert out[0, 1] == pytest.approx(xi0**2, rel=1e-14)
    assert out[0, 2] == pytest.approx(xi0**2 * gram4.diagonal, rel=1e-13)


def test_bessel_witness_growth_and_qform_trend(p4, gram4, table4):
    out = bessel_failure_witness(p4, (8, 16, 32, 64), gram=gram4,
                                 table=table4)
    ratios = out[:, 1] / out[:, 2]
    assert np.all(np.diff(ratios) > 0.0)  # coefficient mass outruns the form
    x_sq = state_norm(p4) ** 2
    # partial expansions overshoot the limit and approach it from above
    assert np.all(out[:, 2] > x_sq)
    assert np.all(np.diff(out[:, 2]) < 0.0)


def test_gram_smaller_than_N_raises_before_any_work(p4, gram4, table4,
                                                    monkeypatch):
    # the XiTable was built first, then quadratic_form raised "x must be
    # 1-d, of length 1..64", naming an argument the caller never passed
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the Gram size check")

    monkeypatch.setattr(ce, "XiTable", no_work)
    monkeypatch.setattr(ce, "_lcg_uniform", no_work)
    message = "^gram covers 64 basis elements, fewer than N = 128$"
    with pytest.raises(DomainError, match=message):
        bessel_failure_witness(p4, [16, 128], gram=gram4)
    with pytest.raises(DomainError, match=message):
        hilbertian_constant_estimate(p4, 2, 128, gram=gram4)
    # a Gram of exactly N elements serves
    assert bessel_failure_witness(p4, [64], gram=gram4,
                                  table=table4).shape == (1, 3)


def test_bessel_witness_validation(p4, gram4):
    with pytest.raises(DomainError):
        bessel_failure_witness(p4, [], gram=gram4)
    with pytest.raises(DomainError):
        bessel_failure_witness(p4, [4, 4], gram=gram4)
    with pytest.raises(DomainError):
        bessel_failure_witness(p4, [0, 4], gram=gram4)
    # k < 64 reaches |frequency| 32, so a table needs 33 entries
    for n_max in (5, 31):
        with pytest.raises(DomainError, match=f"^table has {n_max + 1} "
                           "entries; N = 64 needs 33$"):
            bessel_failure_witness(p4, [16, 64], gram=gram4,
                                   table=XiTable(p4, n_max))
    assert bessel_failure_witness(p4, [16, 64], gram=gram4,
                                  table=XiTable(p4, 32)).shape == (2, 3)


def test_lcg_stream_is_the_documented_recurrence():
    # the jump-ahead against the one-step loop, either side of the doubling
    # steps and of the block boundaries
    mask = (1 << 64) - 1
    b = _LCG_BLOCK
    for seed in (0, 12345, -1, 2**64 - 1, 2**70 + 3):
        state = seed & mask
        want = []
        for _ in range(19_200):
            state = (6364136223846793005 * state + 1442695040888963407) & mask
            want.append((state >> 11) / float(1 << 53))
        want = np.array(want)
        for count in (0, 1, 2, 3, 5, b - 1, b, b + 1, 2 * b - 1, 2 * b,
                      2 * b + 1, 19_200):
            got = _lcg_uniform(seed, count)
            assert got.shape == (count,)
            assert got.tobytes() == want[:count].tobytes()
        assert np.all((got >= 0.0) & (got < 1.0))


def test_hilbertian_estimate_is_rayleigh_quotient(p4, gram4):
    # a single draw of a single coefficient reduces to sqrt(G_00)
    got = hilbertian_constant_estimate(p4, 1, 1, seed=7, gram=gram4)
    assert got == pytest.approx(math.sqrt(gram4.diagonal), rel=1e-14)
    # any estimate lies between the extreme singular values of the block
    eig = np.linalg.eigvalsh(_dense_block(gram4, 8))
    est = hilbertian_constant_estimate(p4, 6, 8, seed=11, gram=gram4)
    assert math.sqrt(eig[0]) - 1e-12 <= est <= math.sqrt(eig[-1]) + 1e-12


def test_hilbertian_estimate_deterministic_and_monotone(p4, gram4):
    a = hilbertian_constant_estimate(p4, 5, 16, seed=3, gram=gram4)
    b = hilbertian_constant_estimate(p4, 5, 16, seed=3, gram=gram4)
    assert a == b
    # more trials extend the same stream, so the max cannot decrease
    c = hilbertian_constant_estimate(p4, 12, 16, seed=3, gram=gram4)
    assert c >= a
    with pytest.raises(DomainError):
        hilbertian_constant_estimate(p4, 0, 4, gram=gram4)
    with pytest.raises(DomainError):
        hilbertian_constant_estimate(p4, 1, 0, gram=gram4)
