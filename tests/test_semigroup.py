"""Diagonal observation systems: truncated series with certified tails."""
import math

import numpy as np
import pytest

from oracle_values import ORBIT_Q4_T4POW_MINUS5, RESOLVENT_Q4_LAM_1_10J
from weissbench import (CoefficientVector, DiagonalSystem, DivergentSum,
                        DomainError, TruncationOverflow, decay_profile,
                        orbit_observation, resolvent_observation,
                        weiss_norm_orthonormal, weiss_quotient)
from weissbench.counterexample import CounterexampleParams, witness_system
from weissbench.semigroup import (ObservedValue, decay_norm_orthonormal,
                                  lambda_grid, orbit_callable)


def one_mode(mu0=1.0, c0=1.0):
    """Single observed mode padded to the minimum active range."""
    return DiagonalSystem(lambda k: mu0 * (1.0 + 2.0 * k),
                          lambda k: c0 if k == 0 else 0.0, n_active=2)


# ------------------------------------------------------------ construction
def test_system_validation():
    with pytest.raises(DomainError):
        DiagonalSystem(lambda k: 4.0**k, lambda k: 2.0**k, n_active=1)
    with pytest.raises(DomainError):
        DiagonalSystem(lambda k: -1.0 + k, lambda k: 1.0, 4)  # mu[0] <= 0
    with pytest.raises(DomainError):
        DiagonalSystem(lambda k: 1.0, lambda k: 1.0, 4)  # not increasing
    with pytest.raises(DomainError):
        DiagonalSystem(lambda k: math.inf if k else 1.0, lambda k: 1.0, 4)
    with pytest.raises(DomainError):
        # |c_k|/mu_k grows over the active range: no convergent resolvent
        DiagonalSystem(lambda k: 1.0 + k, lambda k: 3.0**k, 64)


def test_default_rules():
    sys_ = DiagonalSystem.default(n_active=8)
    assert np.array_equal(sys_.mu, 4.0 ** np.arange(8))
    assert np.array_equal(sys_.c, 2.0 ** np.arange(8))
    ortho = DiagonalSystem.sqrt_observation(n_active=8)
    assert np.array_equal(ortho.mu, 2.0 ** np.arange(8))
    assert ortho.c == pytest.approx(np.sqrt(ortho.mu), rel=1e-15)


def test_coefficient_vector_validation():
    with pytest.raises(DomainError):
        CoefficientVector([[1.0, 2.0]])
    with pytest.raises(DomainError):
        CoefficientVector([])
    with pytest.raises(DomainError):
        CoefficientVector([math.nan])
    with pytest.raises(DomainError):
        CoefficientVector([1.0], tail_sup=-0.1)
    with pytest.raises(DomainError):
        CoefficientVector([1.0], tail_sup=math.nan)
    assert CoefficientVector([1.0]).tail_sup == 0.0


# ------------------------------------------------------------ observations
def test_orbit_finite_sum_exact():
    sys_ = DiagonalSystem.default(n_active=4)
    xi = CoefficientVector([1.0, 1.0, 1.0])
    obs = orbit_observation(sys_, xi, 1.0, 1e-300)
    want = math.fsum(xi.values * sys_.c[:3] * np.exp(-sys_.mu[:3]))
    assert obs.value == want  # identical fsum over identical terms
    assert want == pytest.approx(math.exp(-1.0) + 2.0 * math.exp(-4.0)
                                 + 4.0 * math.exp(-16.0), rel=1e-15)
    assert obs.tail_bound == 0.0
    assert obs.n_terms == 3


def test_orbit_against_frozen_reference():
    params = CounterexampleParams(4.0)
    wit = witness_system(params, n_modes=200)
    obs = orbit_observation(wit.system, wit.xi, 4.0**-5, 1e-13)
    assert abs(float(obs.value) - ORBIT_Q4_T4POW_MINUS5) <= 1e-12
    assert obs.tail_bound <= 1e-13
    assert obs.n_terms <= 12  # far fewer terms than active modes


def test_resolvent_against_frozen_reference():
    params = CounterexampleParams(4.0)
    wit = witness_system(params, n_modes=200)
    obs = resolvent_observation(wit.system, wit.xi, 1.0 + 10.0j, 1e-14)
    assert abs(obs.value - RESOLVENT_Q4_LAM_1_10J) <= 5e-13
    assert obs.tail_bound <= 1e-14


def test_signed_coefficients_tail_honest():
    # alternating signs must not shrink the certified tail below the truth
    sys_ = DiagonalSystem(lambda k: 1.0 + k, lambda k: (-0.5) ** k, 8)
    xi = CoefficientVector([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    loose = resolvent_observation(sys_, xi, 0.3 + 0.7j, 1e-2)
    tight = resolvent_observation(sys_, xi, 0.3 + 0.7j, 1e-12)
    assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-12


def test_truncation_brackets_true_value():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        mu = np.cumsum(rng.uniform(0.3, 3.0, n))
        c = rng.uniform(-2.0, 2.0, n)
        v = rng.uniform(-2.0, 2.0, n)
        sys_ = DiagonalSystem(lambda k: mu[k] if k < n else mu[-1] + 1.0 + k,
                              lambda k: c[k] if k < n else 0.0,
                              n_active=max(2, n))
        xi = CoefficientVector(v)
        t = float(rng.uniform(0.01, 3.0))
        loose = orbit_observation(sys_, xi, t, 1e-3)
        exact = math.fsum(v * c * np.exp(-mu * t))
        # tail_bound certifies the dropped-term mass; the kept partial sum
        # and the reference each round once, so allow ulp-level slack.
        rounding = 4.0 * np.spacing(abs(exact))
        assert abs(float(loose.value) - exact) <= loose.tail_bound + rounding


def test_orbit_callable_matches_observation():
    sys_ = DiagonalSystem.default(n_active=16)
    xi = CoefficientVector(1.0 / (1.0 + np.arange(16)))
    orbit = orbit_callable(sys_, xi)
    for t in (0.01, 0.5, 2.0):
        obs = orbit_observation(sys_, xi, t, 1e-14)
        assert orbit(np.array([t]))[0] == pytest.approx(float(obs.value),
                                                        rel=1e-12)


def test_observation_domain_errors():
    sys_ = DiagonalSystem.default(n_active=4)
    xi = CoefficientVector([1.0])
    with pytest.raises(DomainError):
        orbit_observation(sys_, xi, 0.0, 1e-6)
    with pytest.raises(DomainError):
        orbit_observation(sys_, xi, 1.0, 0.0)
    with pytest.raises(DomainError):
        resolvent_observation(sys_, xi, -1.0, 1e-6)
    with pytest.raises(DomainError):
        resolvent_observation(sys_, xi, 1.0, -1e-6)


# ------------------------------------------------------- tail certification
def test_short_vector_with_tail_rejected():
    sys_ = DiagonalSystem.default(n_active=8)
    xi = CoefficientVector([1.0, 1.0], tail_sup=0.1)
    with pytest.raises(TruncationOverflow):
        orbit_observation(sys_, xi, 1.0, 1e-6)


def test_uncertifiable_tail_rejected():
    # |c|/mu decays like 1/k: too slow for a geometric tail certificate
    sys_ = DiagonalSystem(lambda k: 1.0 + k, lambda k: 1.0, 64)
    xi = CoefficientVector(np.ones(64), tail_sup=1.0)
    with pytest.raises(TruncationOverflow):
        resolvent_observation(sys_, xi, 1.0, 1e-6)


def test_tail_beyond_active_dominates_tolerance():
    sys_ = DiagonalSystem.default(n_active=8)
    xi = CoefficientVector(np.ones(8), tail_sup=1.0)
    with pytest.raises(TruncationOverflow):
        resolvent_observation(sys_, xi, 1.0, 1e-12)
    # the same request succeeds once the tolerance exceeds the tail bound
    obs = resolvent_observation(sys_, xi, 1.0, 1e-1)
    assert obs.tail_bound < 1e-1


def test_finite_vector_never_needs_certificate():
    # zero tail_sup must not trip the geometric-decay requirement even when
    # the active weights decay slowly
    sys_ = DiagonalSystem(lambda k: 1.0 + k, lambda k: 1.0, 64)
    xi = CoefficientVector(np.ones(64))
    obs = resolvent_observation(sys_, xi, 2.0, 1e-12)
    want = math.fsum(1.0 / (2.0 + 1.0 + np.arange(64)))
    assert obs.value == pytest.approx(want, rel=1e-14)


# ------------------------------------------------------------- weiss/decay
def test_weiss_quotient_one_mode_closed_form():
    sys_ = one_mode()
    xi = CoefficientVector([1.0])
    # quotient sqrt(lam)/(lam+1) peaks at lam = 1 with value 1/2
    assert weiss_quotient(sys_, xi, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    for lam in (0.2, 5.0, 1.0 + 3.0j):
        got = weiss_quotient(sys_, xi, 1.0, lam)
        want = math.sqrt(complex(lam).real) / abs(complex(lam) + 1.0)
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        weiss_quotient(sys_, xi, 0.0, 1.0)


def test_weiss_norm_orthonormal_one_mode():
    sys_ = one_mode()
    assert weiss_norm_orthonormal(sys_, 1.0, 1e-14) == \
        pytest.approx(0.5, rel=1e-12)


def test_weiss_norm_orthonormal_divergence_detected():
    sys_ = DiagonalSystem(lambda k: 2.0**k, lambda k: 2.0**k, 64)
    with pytest.raises(DivergentSum):
        weiss_norm_orthonormal(sys_, 1.0, 1e-10)


def test_weiss_norm_orthonormal_model_bounded():
    sys_ = DiagonalSystem.sqrt_observation(n_active=60)
    values = [weiss_norm_orthonormal(sys_, lam, 1e-12)
              for lam in (1e-4, 1.0, 1e4, 1e8, 100.0j + 1.0)]
    assert all(0.0 < v < 10.0 for v in values)


def test_decay_profile_shape_and_positivity():
    params = CounterexampleParams(4.0)
    wit = witness_system(params)
    grid = np.logspace(-4, 0, 33)
    prof = decay_profile(wit.system, wit.xi, wit.x_norm, grid)
    assert prof.shape == (33, 2)
    assert np.array_equal(prof[:, 0], grid)
    assert np.all(prof[:, 1] > 0.0)
    with pytest.raises(DomainError):
        decay_profile(wit.system, wit.xi, 0.0, grid)
    with pytest.raises(DomainError):
        decay_profile(wit.system, wit.xi, 1.0, np.array([]))
    with pytest.raises(DomainError):
        decay_profile(wit.system, wit.xi, 1.0, np.array([0.0, 1.0]))


def test_decay_profile_zero_state():
    sys_ = DiagonalSystem.default(n_active=4)
    xi = CoefficientVector([0.0, 0.0])
    prof = decay_profile(sys_, xi, 1.0, np.array([0.1, 1.0]))
    assert np.array_equal(prof[:, 1], [0.0, 0.0])


def test_decay_one_mode_peak_matches_calculus():
    # sup_t sqrt(t) e^{-mu t} = (2 e mu)^{-1/2}
    sys_ = one_mode(mu0=1.0)
    xi = CoefficientVector([1.0])
    grid = np.logspace(-4, 2, 4001)
    prof = decay_profile(sys_, xi, 1.0, grid)
    peak = float(np.max(prof[:, 1]))
    want = 1.0 / math.sqrt(2.0 * math.e)
    assert peak <= want + 1e-12
    assert peak == pytest.approx(want, abs=1e-6)


def test_decay_norm_orthonormal_one_mode():
    sys_ = one_mode()
    grid = np.array([0.25, 1.0])
    got = decay_norm_orthonormal(sys_, grid)
    want = np.sqrt(grid) * np.exp(-grid)
    assert got == pytest.approx(want, rel=1e-14)


def test_lambda_grid_geometry():
    grid = lambda_grid()
    assert grid.size == 25 * 17
    assert np.all(grid.real > 0.0)
    mods = np.abs(grid)
    assert mods.min() == pytest.approx(1e-4, rel=1e-12)
    assert mods.max() == pytest.approx(1e8, rel=1e-12)


def test_observed_value_float_coercion():
    assert float(ObservedValue(2.5 + 0.0j, 0.0, 1)) == 2.5
    assert float(ObservedValue(3.0, 0.0, 1)) == 3.0


# ---------------------------------------------------------- batch contract
@pytest.fixture(scope="module")
def witness4():
    return witness_system(CounterexampleParams(4.0))


def test_orbit_batch_matches_per_point_loop(witness4):
    sys_, xi = witness4.system, witness4.xi
    ts = np.logspace(-8.0, 1.0, 129)
    batch = orbit_observation(sys_, xi, ts, 1e-12)
    loop = [orbit_observation(sys_, xi, float(t), 1e-12) for t in ts]
    assert np.array_equal(batch.value, [obs.value for obs in loop])
    assert np.array_equal(batch.tail_bound, [obs.tail_bound for obs in loop])
    assert type(batch.n_terms) is int
    assert batch.n_terms == max(obs.n_terms for obs in loop)
    assert type(loop[0].value) is float and type(loop[0].n_terms) is int


def test_resolvent_batch_matches_per_point_loop(witness4):
    sys_, xi = witness4.system, witness4.xi
    lams = lambda_grid()
    batch = resolvent_observation(sys_, xi, lams, 1e-12)
    loop = [resolvent_observation(sys_, xi, lam, 1e-12) for lam in lams]
    assert all(complex(got) == obs.value
               for got, obs in zip(batch.value, loop))
    assert np.array_equal(batch.tail_bound, [obs.tail_bound for obs in loop])
    assert type(batch.n_terms) is int
    assert batch.n_terms == max(obs.n_terms for obs in loop)
    assert type(loop[0].value) is complex


def test_weiss_quotient_batch_matches_per_point_loop(witness4):
    lams = lambda_grid(n_moduli=49, n_args=33)
    args = (witness4.system, witness4.xi, witness4.x_norm)
    batch = weiss_quotient(*args, lams)
    loop = [weiss_quotient(*args, lam) for lam in lams]
    assert np.array_equal(batch, loop)
    assert type(loop[0]) is float
    # the modulus is Python's abs(complex), which np.abs does not match
    # in the last bit at every point
    res = [resolvent_observation(*args[:2], lam, 1e-12).value for lam in lams]
    want = [math.sqrt(lam.real) * abs(r) / args[2] for lam, r in zip(lams, res)]
    assert np.array_equal(batch, want)


def test_weiss_norm_orthonormal_batch_matches_per_point_loop():
    sys_ = DiagonalSystem.sqrt_observation(n_active=60)
    lams = lambda_grid(n_moduli=49, n_args=33)
    batch = weiss_norm_orthonormal(sys_, lams, 1e-12)
    loop = [weiss_norm_orthonormal(sys_, lam, 1e-12) for lam in lams]
    assert np.array_equal(batch, loop)
    assert type(loop[0]) is float


def test_batch_with_one_uncertifiable_point_raises():
    # at t = 1e-6 the ratios |c_k| e^{-mu_k t} of the last modes are near 2,
    # so that point has no geometric tail certificate; the others do
    sys_ = DiagonalSystem.default(n_active=8)
    xi = CoefficientVector(np.ones(8), tail_sup=1.0)
    orbit_observation(sys_, xi, np.array([1.0, 0.5]), 1e-6)
    with pytest.raises(TruncationOverflow):
        orbit_observation(sys_, xi, 1e-6, 1e-6)
    with pytest.raises(TruncationOverflow):
        orbit_observation(sys_, xi, np.array([1.0, 1e-6, 0.5]), 1e-6)


@pytest.mark.parametrize("points", [np.ones((2, 2)), np.array([])])
def test_malformed_point_arrays_are_domain_errors(points, witness4):
    sys_, xi, x_norm = witness4.system, witness4.xi, witness4.x_norm
    calls = (lambda: orbit_observation(sys_, xi, points, 1e-9),
             lambda: resolvent_observation(sys_, xi, points, 1e-9),
             lambda: weiss_quotient(sys_, xi, x_norm, points),
             lambda: weiss_norm_orthonormal(
                 DiagonalSystem.sqrt_observation(8), points, 1e-9),
             lambda: decay_norm_orthonormal(sys_, points))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_batch_point_outside_domain_is_domain_error(witness4):
    sys_, xi = witness4.system, witness4.xi
    with pytest.raises(DomainError):
        orbit_observation(sys_, xi, np.array([1.0, 0.0]), 1e-9)
    with pytest.raises(DomainError):
        resolvent_observation(sys_, xi, np.array([1.0, -1.0 + 1.0j]), 1e-9)
