"""Diagonal observation systems: truncated series with certified tails."""
import math

import numpy as np
import pytest

from oracle_values import ORBIT_Q4_T4POW_MINUS5, RESOLVENT_Q4_LAM_1_10J
from weissbench import (CoefficientVector, DiagonalSystem, DivergentSum,
                        DomainError, StepFunction, TruncationOverflow,
                        decay_profile,
                        orbit_observation, resolvent_observation,
                        weiss_norm_orthonormal, weiss_quotient)
from weissbench import semigroup
from weissbench.counterexample import (CounterexampleParams, GramCache,
                                       XiTable, witness_system)
from weissbench.semigroup import (decay_norm_orthonormal, lambda_grid,
                                  log_grid, orbit_callable, orbit_decay_bound)


def one_mode(mu0=1.0, c0=1.0):
    """Single observed mode padded to the minimum active range."""
    return DiagonalSystem([mu0, mu0 * 3.0], [c0, 0.0])


def linear(n):
    """mu_k = 1 + k and c_k = 1 over n modes."""
    return DiagonalSystem(1.0 + np.arange(n), np.ones(n))


# ------------------------------------------------------------ construction
def test_system_validation():
    k = np.arange(4.0)
    for mu, c in (([1.0], [2.0]),  # a single mode
                  (4.0**k, 2.0 ** k[:3]),  # unequal lengths
                  (np.ones((2, 2)), np.ones((2, 2))),  # 2-d
                  ("1", "1"), (4.0**k, "1"), (["1", "4"], [1.0, 2.0]),
                  (-1.0 + k, np.ones(4)),  # mu[0] <= 0
                  (np.ones(4), np.ones(4)),  # not increasing
                  ([1.0, math.inf, math.inf, math.inf], np.ones(4)),
                  ([1.0, math.nan, 3.0, 4.0], np.ones(4)),
                  (4.0**k, [1.0, -math.inf, 1.0, 1.0]),
                  (4.0**k, [1.0, math.nan, 1.0, 1.0]),
                  # |c_k|/mu_k grows over the active range: no convergent
                  # resolvent
                  (1.0 + np.arange(64), 3.0 ** np.arange(64))):
        with pytest.raises(DomainError):
            DiagonalSystem(mu, c)
    for bad in (1, 2.5, math.nan, "8"):
        for rule in (DiagonalSystem.default, DiagonalSystem.sqrt_observation):
            with pytest.raises(DomainError):
                rule(n_active=bad)


def test_default_rules():
    sys_ = DiagonalSystem.default(n_active=8)
    assert np.array_equal(sys_.mu, 4.0 ** np.arange(8))
    assert np.array_equal(sys_.c, 2.0 ** np.arange(8))
    ortho = DiagonalSystem.sqrt_observation(n_active=8)
    assert np.array_equal(ortho.mu, 2.0 ** np.arange(8))
    assert np.array_equal(ortho.c, [2.0 ** (0.5 * k) for k in range(8)])
    assert (sys_.n_active, ortho.n_active) == (8, 8)
    # 4^511 and 2^1023 are finite, 4^512 and 2^1024 overflow: the largest
    # count is accepted and the next one is a DomainError naming it
    for rule, largest in ((DiagonalSystem.default, 512),
                          (DiagonalSystem.sqrt_observation, 1024)):
        assert rule(n_active=largest).n_active == largest
        with pytest.raises(DomainError, match=f"<= {largest}, got "
                           f"{largest + 1}$"):
            rule(n_active=largest + 1)


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


def test_coefficients_are_numbers_and_copied():
    # numeric strings are rejected as DiagonalSystem rejects them, and the
    # caller's array is copied, not kept
    for bad in (["1", "2"], "1", np.array([1.0 + 2.0j, 1.0])):
        with pytest.raises(DomainError):
            CoefficientVector(bad)
    values = np.array([1.0, 2.0])
    xi = CoefficientVector(values)
    values[0] = 5.0
    assert xi.values.tolist() == [1.0, 2.0]


def test_complex_input_to_a_real_argument_is_a_domain_error():
    # complex values would be cast to their real parts; they raise instead,
    # whether or not the imaginary part is zero
    with pytest.raises(DomainError, match="t must be real"):
        orbit_observation(DiagonalSystem.default(8), CoefficientVector([1.0]),
                          np.array(0.5 + 3j), 1e-12)
    for mu, c in ((np.array([1 + 1j, 2]), [1.0, 1.0]),
                  ([1.0, 2.0], np.array([1.0, 1.0 + 0j]))):
        with pytest.raises(DomainError, match="must be real"):
            DiagonalSystem(mu, c)


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
    sys_ = DiagonalSystem(1.0 + np.arange(8), [(-0.5) ** k for k in range(8)])
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
        # n = 1 takes a second, unobserved mode
        sys_ = DiagonalSystem(np.append(mu, mu[-1] + 2.0)[:max(2, n)],
                              np.append(c, 0.0)[:max(2, n)])
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
    # mode-major: (-mu) t is exactly -(mu t), so the in-place exponential
    # changes no bit, and the weights meet the modes as rows
    t = log_grid(1e-6, 10.0)
    assert np.array_equal(orbit(t), (xi.values * sys_.c)
                          @ np.exp(-np.outer(sys_.mu, t)))
    # elementwise for any shape of t: a (modes, b) array, whose first axis
    # a row-a-mode product could mistake for the modes, and a 0-d one
    for shape in ((16, 8), (4, 2, 16)):
        grid = t[:128].reshape(shape)
        assert orbit(grid).shape == shape
        assert np.array_equal(orbit(grid), orbit(t[:128]).reshape(shape))
    assert orbit(np.float64(0.5)).shape == ()
    assert orbit(0.5) == pytest.approx(orbit(np.array([0.5]))[0], rel=1e-15)


@pytest.fixture(scope="module")
def witness4():
    return witness_system(CounterexampleParams(4.0))


def full_product(system, xi, t):
    """Every active mode's term, summed by the row-a-mode product."""
    return (xi.values * system.c) @ np.exp(-np.outer(system.mu, t))


def test_orbit_value_does_not_depend_on_its_batch(witness4):
    # unpadded, an ulp moved in over a third of such slices: BLAS sums the
    # last (points mod 4) of a batch in another order
    orbit = orbit_callable(witness4.system, witness4.xi)
    grid = log_grid(1e-12, 1.0, 1024)
    assert grid.size % 4 == 1
    whole = orbit(grid)
    rng = np.random.default_rng(22)
    for _ in range(300):
        a, b = np.sort(rng.choice(grid.size + 1, 2, replace=False))
        assert np.array_equal(orbit(grid[a:b]), whole[a:b])
    for i in (0, 1, grid.size // 2, grid.size - 1):
        assert orbit(grid[i:i + 1])[0] == whole[i]


def test_orbit_skips_underflowing_modes_bit_for_bit(witness4):
    system, xi = witness4.system, witness4.xi
    orbit = orbit_callable(system, xi)
    # 35 of the 60 modes have mu_k t > 746 on [1e-12, 1]: each exponential
    # is +0.0 at every point there, and the kept modes sum the same bits
    dead = system.mu * 1e-12 > semigroup._UNDERFLOW
    assert np.count_nonzero(dead) == 35 and not dead[:25].any()
    for lo in (1e-12, 1e-9, 1e-5, 1e-2):
        t = log_grid(lo, 1.0, 1024)[:-1]  # whole groups of 4
        assert not np.exp(-np.outer(system.mu[dead], t)).any()
        assert np.array_equal(orbit(t), full_product(system, xi, t))
    # signed weights; near the underflow point the first mode is the whole
    # sum, down to its last subnormal at t = 745.1, and past t = 746 every
    # mode is dropped
    sys16 = DiagonalSystem.default(n_active=16)
    xi16 = CoefficientVector((-1.0) ** np.arange(16) / (1.0 + np.arange(16)))
    assert orbit_callable(sys16, xi16)(np.full(4, 745.1))[0] > 0.0
    for t in (log_grid(1e-9, 1e3, 64)[:-1], np.full(4, 745.1),
              np.array([720.0, 745.0, 745.2, 800.0]),
              np.array([750.0, 800.0] * 2)):
        assert np.array_equal(orbit_callable(sys16, xi16)(t),
                              full_product(sys16, xi16, t))


def test_orbit_callable_edge_points(witness4):
    system, xi = witness4.system, witness4.xi
    orbit = orbit_callable(system, xi)
    w = xi.values * system.c
    # t = 0 and a subnormal t keep every mode (a division 746 / t would
    # overflow), t < 0 overflows as the full product does, and a NaN min
    # keeps every mode
    for t in ([0.0, 1e-3, 0.5, 1.0], [5e-324, 1e-3, 0.5, 1.0],
              [1e-300, 2e-300, 1e-12, 1.0], [-1e-3, 1e-3, 0.5, 1.0],
              [math.nan, 1e-3, 0.5, 1.0], [1.0, math.nan, 1e-12, 0.5]):
        t = np.array(t)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(orbit(t), full_product(system, xi, t),
                                  equal_nan=True)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert orbit(np.array([5e-324]))[0] == orbit(np.array([0.0]))[0]
    assert np.isnan(orbit(np.array([math.nan]))[0])
    empty = orbit(np.empty(0))
    assert empty.shape == (0,) and empty.dtype == float
    assert orbit(np.empty((0, 3))).shape == (0, 3)
    # one point: its value in any batch
    for t in (0.0, 5e-324, 1e-12, 0.5, 800.0):
        assert orbit(t) == orbit(np.array([t, 1.0, 1e-3]))[0]
        assert orbit(np.float64(t)).shape == ()


def test_orbit_decay_bound():
    sys_ = DiagonalSystem.default(n_active=16)
    xi = CoefficientVector((-1.0) ** np.arange(16) / (1.0 + np.arange(16)))
    orbit = orbit_callable(sys_, xi)
    t = log_grid(1e-12, 10.0)
    assert orbit_decay_bound(sys_, xi, 0.0)[0] >= math.fsum(
        np.abs(xi.values * sys_.c))
    for alpha in (0.0, 0.25, 0.5, 0.9):
        M, a = orbit_decay_bound(sys_, xi, alpha)
        assert a == alpha
        assert np.all(np.abs(orbit(t)) <= M * t**-alpha)
    # one mode attains the bound at t = alpha/mu
    sys1 = one_mode(mu0=3.0, c0=-2.0)
    xi1 = CoefficientVector([0.5, 0.0])
    M, _ = orbit_decay_bound(sys1, xi1, 0.5)
    peak = abs(orbit_callable(sys1, xi1)(np.array([0.5 / 3.0]))[0])
    assert peak * (0.5 / 3.0) ** 0.5 <= M <= peak * (0.5 / 3.0) ** 0.5 * (
        1.0 + 1e-14)
    assert math.isfinite(orbit_decay_bound(sys1, xi1, 2.0)[0])
    for bad in (math.nan, -0.5, math.inf):
        with pytest.raises(DomainError):
            orbit_decay_bound(sys1, xi1, bad)


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
    sys_ = linear(64)
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
    sys_ = linear(64)
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
    sys_ = DiagonalSystem(2.0 ** np.arange(64), 2.0 ** np.arange(64))
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
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            decay_profile(wit.system, wit.xi, bad, grid)
        with pytest.raises(DomainError):
            weiss_quotient(wit.system, wit.xi, bad, 1.0)
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


def test_decay_norm_orthonormal_is_certified_or_raises():
    # the 60 modes of sqrt_observation, summed without a tail bound, gave
    # 0.764 at t = 1e-18, 0.107 at 1e-20 and 1.07e-6 at 1e-30 for a decay
    # that stays near 0.849 at every scale
    sys_ = DiagonalSystem.sqrt_observation(n_active=60)
    t = 1e-16
    got = decay_norm_orthonormal(sys_, t)
    # the same model over 200 modes, summed independently; its squares
    # beyond mode 60 are the tail the 1e-12 certificate bounds
    sq = math.fsum(2.0**k * math.exp(-2.0 * 2.0**k * t) for k in range(200))
    want = math.sqrt(t) * math.sqrt(sq)
    assert abs(got - want) <= math.sqrt(t) * math.sqrt(1e-12) + 4e-16
    assert got == pytest.approx(0.849326, abs=5e-7)
    for t in (1e-20, 1e-30, np.array([1e-8, 1e-20])):
        with pytest.raises(TruncationOverflow):
            decay_norm_orthonormal(sys_, t)


def test_lambda_grid_geometry():
    grid = lambda_grid()
    assert grid.size == 25 * 17
    assert np.all(grid.real > 0.0)
    mods = np.abs(grid)
    assert mods.min() == pytest.approx(1e-4, rel=1e-12)
    assert mods.max() == pytest.approx(1e8, rel=1e-12)


def test_log_grid_spacing():
    grid = log_grid(1e-8, 1.0)
    assert grid.size == 8 * 64 + 1
    assert (grid[0], grid[-1]) == (1e-8, 1.0)
    assert np.allclose(grid[1:] / grid[:-1], 10.0 ** (1.0 / 64.0), rtol=1e-13)
    # a window that is not a whole number of decades rounds the count up
    assert log_grid(0.3, 0.5, per_decade=100).size == 24
    # a subnormal lo: hi / lo overflows, the difference of logs does not
    grid = log_grid(1e-320, 1.0)  # the subnormal 1e-320 is 10^-320.0000048
    assert grid.size == 320 * 64 + 2
    assert (grid[0], grid[-1]) == (1e-320, 1.0)
    assert np.all(np.diff(grid) > 0.0)
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


def half_plane_probe(n=20_000, seed=24):
    """Seeded points: moduli log-uniform on [1e-6, 1e10], arguments uniform
    within +-(pi/2 - 0.01)."""
    rng = np.random.default_rng(seed)
    mods = 10.0 ** rng.uniform(-6.0, 10.0, n)
    args = rng.uniform(-(math.pi / 2 - 0.01), math.pi / 2 - 0.01, n)
    return mods * np.exp(1j * args)


POINT_SETS = {"scan": lambda_grid, "grid": lambda: lambda_grid(49, 33),
              "probe": half_plane_probe}
# one point in every form a caller may pass it; a form changes no bit
ONE_POINT_FORMS = (complex, float, int, np.complex128, np.float64, np.array,
                   lambda k: np.array(complex(k)))
INTEGER_POINTS = (1, 3, 100, 10**6, 2**40)


@pytest.fixture(scope="module", params=[3.0, 4.0, 8.0],
                ids=lambda q: f"q{q:g}")
def witness(request):
    return witness_system(CounterexampleParams(request.param))


def bits(values, dtype):
    """values as the bytes of a dtype array: equal bits, not equal values."""
    return np.asarray(values, dtype).tobytes()


@pytest.mark.parametrize("points", list(POINT_SETS))
def test_resolvent_batch_matches_per_point_loop(witness, points):
    sys_, xi = witness.system, witness.xi
    lams = POINT_SETS[points]()
    batch = resolvent_observation(sys_, xi, lams, 1e-12)
    loop = [resolvent_observation(sys_, xi, lam, 1e-12) for lam in lams]
    assert bits(batch.value, complex) == bits([o.value for o in loop], complex)
    assert bits(batch.tail_bound, float) == bits([o.tail_bound for o in loop],
                                                 float)
    assert type(batch.n_terms) is int
    assert batch.n_terms == max(obs.n_terms for obs in loop)
    assert {(type(o.value), type(o.tail_bound), type(o.n_terms))
            for o in loop} == {(complex, float, int)}
    batch = resolvent_observation(sys_, xi, np.array(INTEGER_POINTS, complex),
                                  1e-12)
    for k, value, tail in zip(INTEGER_POINTS, batch.value, batch.tail_bound):
        for form in ONE_POINT_FORMS:
            obs = resolvent_observation(sys_, xi, form(k), 1e-12)
            assert bits(obs.value, complex) == bits(value, complex)
            assert bits(obs.tail_bound, float) == bits(tail, float)
            assert obs.n_terms == batch.n_terms
            assert (type(obs.value), type(obs.tail_bound),
                    type(obs.n_terms)) == (complex, float, int)


@pytest.mark.parametrize("points", list(POINT_SETS))
def test_weiss_quotient_batch_matches_per_point_loop(witness, points):
    lams = POINT_SETS[points]()
    args = (witness.system, witness.xi, witness.x_norm)
    batch = weiss_quotient(*args, lams)
    loop = [weiss_quotient(*args, lam) for lam in lams]
    assert bits(batch, float) == bits(loop, float)
    assert {type(got) for got in loop} == {float}
    # the modulus is np.abs, one array pass; Python's abs(complex) differs
    # from it in the last bit at some points
    res = [resolvent_observation(*args[:2], lam, 1e-12).value for lam in lams]
    want = [np.sqrt(lam.real) * np.abs(r) / args[2]
            for lam, r in zip(lams, res)]
    assert bits(batch, float) == bits(want, float)
    python_abs = [math.sqrt(lam.real) * abs(r) / args[2]
                  for lam, r in zip(lams, res)]
    assert np.allclose(batch, python_abs, rtol=1e-15, atol=0.0)
    batch = weiss_quotient(*args, np.array(INTEGER_POINTS, complex))
    for k, quotient in zip(INTEGER_POINTS, batch):
        for form in ONE_POINT_FORMS:
            got = weiss_quotient(*args, form(k))
            assert type(got) is float
            assert bits(got, float) == bits(quotient, float)


def test_weiss_norm_orthonormal_batch_matches_per_point_loop():
    sys_ = DiagonalSystem.sqrt_observation(n_active=60)
    lams = lambda_grid(n_moduli=49, n_args=33)
    batch = weiss_norm_orthonormal(sys_, lams, 1e-12)
    loop = [weiss_norm_orthonormal(sys_, lam, 1e-12) for lam in lams]
    assert np.array_equal(batch, loop)
    assert type(loop[0]) is float


def test_decay_norm_orthonormal_batch_matches_per_point_loop():
    sys_ = DiagonalSystem.sqrt_observation(n_active=60)
    grid = log_grid(1e-16, 1e2)
    batch = decay_norm_orthonormal(sys_, grid)
    loop = [decay_norm_orthonormal(sys_, t) for t in grid]
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


# ------------------------------------------------- resolvent certificate
def count_certifications(monkeypatch):
    calls = []
    certify = semigroup._truncate

    def counting(*args):
        calls.append(args[-1])
        return certify(*args)

    monkeypatch.setattr(semigroup, "_truncate", counting)
    return calls


def test_every_truncation_goes_through_one_routine(monkeypatch, witness4):
    sys_, xi, x_norm = witness4.system, fresh(witness4.xi), witness4.x_norm
    ortho = DiagonalSystem.sqrt_observation(n_active=60)
    calls = count_certifications(monkeypatch)
    for call, what in (
            (lambda: orbit_observation(sys_, xi, 1e-3, 1e-12),
             "orbit_observation"),
            (lambda: resolvent_observation(sys_, xi, 1.0 + 1.0j, 1e-12),
             "resolvent_observation"),
            (lambda: weiss_norm_orthonormal(ortho, 2.0, 1e-12),
             "weiss_norm_orthonormal"),
            (lambda: decay_norm_orthonormal(ortho, np.array([1e-8, 1.0])),
             "decay_norm_orthonormal")):
        call()
        assert calls == [what]
        calls.clear()
    # the kept certificate serves later resolvent and quotient calls
    resolvent_observation(sys_, xi, np.array([1.0, 2.0]), 1e-12)
    weiss_quotient(sys_, xi, x_norm, 3.0)
    assert calls == []


def fresh(xi):
    """An equal coefficient vector that holds no resolvent certificate."""
    return CoefficientVector(xi.values, xi.tail_sup)


def test_one_certification_per_system_and_tolerance(monkeypatch, witness4):
    sys_, xi, x_norm = witness4.system, fresh(witness4.xi), witness4.x_norm
    lams = lambda_grid(n_moduli=49, n_args=33)
    want = weiss_quotient(sys_, fresh(xi), x_norm, lams)
    calls = count_certifications(monkeypatch)
    loop = [weiss_quotient(sys_, xi, x_norm, lam) for lam in lams]
    assert calls == ["resolvent_observation"]
    assert np.array_equal(loop, want)
    weiss_quotient(sys_, xi, x_norm, lams)  # a batch reads the same entry
    assert len(calls) == 1


def test_new_tolerance_or_system_rebuilds_the_certificate(monkeypatch,
                                                          witness4):
    sys_, xi = witness4.system, fresh(witness4.xi)
    other = DiagonalSystem.default(n_active=sys_.n_active)  # equal, not same
    lams = lambda_grid()[::7]
    calls = count_certifications(monkeypatch)
    for system, tol in ((sys_, 1e-12), (sys_, 1e-6), (other, 1e-6),
                        (sys_, 1e-6), (sys_, 1e-12)):
        for lam in lams:
            got = resolvent_observation(system, xi, lam, tol)
            assert got == resolvent_observation(system, fresh(xi), lam, tol)
        batch = resolvent_observation(system, xi, lams, tol)
        want = resolvent_observation(system, fresh(xi), lams, tol)
        assert np.array_equal(batch.value, want.value)
        assert np.array_equal(batch.tail_bound, want.tail_bound)
        assert batch.n_terms == want.n_terms
    # each switch certifies once for xi and once for every fresh vector
    assert len(calls) == 5 + 5 * (len(lams) + 1)
    loose = resolvent_observation(sys_, xi, lams[0], 1e-6)
    tight = resolvent_observation(sys_, xi, lams[0], 1e-12)
    assert loose.n_terms < tight.n_terms


def test_failed_certification_raises_every_call_and_is_not_kept():
    sys_ = DiagonalSystem.default(n_active=8)
    xi = CoefficientVector(np.ones(8), tail_sup=1.0)
    good = resolvent_observation(sys_, xi, 1.0, 1e-1)
    entry = xi._resolvent
    for _ in range(3):
        with pytest.raises(TruncationOverflow):
            resolvent_observation(sys_, xi, 1.0, 1e-12)
        with pytest.raises(TruncationOverflow):
            weiss_quotient(sys_, xi, 1.0, np.array([1.0, 2.0]), 1e-12)
        for tol in (0.0, -1e-6, math.nan):
            with pytest.raises(DomainError):
                resolvent_observation(sys_, xi, 1.0, tol)
        assert xi._resolvent is entry
    assert resolvent_observation(sys_, xi, 1.0, 1e-1) == good
    slow = linear(64)
    xi = CoefficientVector(np.ones(64), tail_sup=1.0)
    for _ in range(3):
        with pytest.raises(TruncationOverflow):
            resolvent_observation(slow, xi, 1.0, 1e-6)
        assert xi._resolvent is None


def test_system_and_coefficients_are_immutable():
    caller = np.array([1.0, 0.5, 0.25])
    xi = CoefficientVector(caller, tail_sup=0.1)
    mu, c = 4.0 ** np.arange(4), 2.0 ** np.arange(4)
    sys_ = DiagonalSystem(mu, c)
    steps = StepFunction([0.0, 1.0, 2.0], [1.0, 0.5])
    params = CounterexampleParams(4.0)
    table, gram = XiTable(params, 10), GramCache(params, 8)
    assert np.array_equal(sys_.mu, mu) and np.array_equal(sys_.c, c)
    objects = (
        (xi, ("values", "tail_sup", "_resolvent", "other"),
         "CoefficientVector is immutable"),
        (sys_, ("mu", "c", "n_active", "other"),
         "DiagonalSystem is immutable"),
        (steps, ("breakpoints", "values", "_levels", "other"),
         "StepFunction is immutable"),
        (params, ("q", "q_conj", "beta", "gamma", "other"),
         "CounterexampleParams is immutable"),
        (table, ("params", "values", "estimate", "other"),
         "XiTable is immutable"),
        (gram, ("params", "n_basis", "_nu", "_by_delta", "other"),
         "GramCache is immutable"))
    for obj, names, message in objects:
        for name in names:
            with pytest.raises(AttributeError, match=f"^{message}$"):
                setattr(obj, name, None)
        assert not hasattr(obj, "__dict__")
    # one rule serves them all: a single __setattr__, not a copy per class
    assert len({type(obj).__setattr__ for obj, _, _ in objects}) == 1
    assert len(table) == 11
    for array in (xi.values, sys_.mu, sys_.c, steps.breakpoints,
                  steps.values, table.values, gram._nu, gram._by_delta):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0
    # the vector and the system copy the caller's arrays, which stay
    # writable and free
    for mine, kept in ((caller, xi.values), (mu, sys_.mu), (c, sys_.c)):
        assert mine.flags.writeable and not np.shares_memory(mine, kept)
        mine[0] = 7.0
    assert xi.values[0] == 1.0 and sys_.mu[0] == 1.0 and sys_.c[0] == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_domain_errors(bad, witness4):
    sys_, xi, x_norm = witness4.system, witness4.xi, witness4.x_norm
    resolvent_observation(sys_, xi, 1.0, 1e-12)  # a kept certificate
    lams = [complex(bad, 1.0), complex(1.0, bad), complex(bad, bad)]
    lams = [lam for lam in lams if not lam.real < 0.0]
    # and points off the open right half-plane, finite or not
    lams += [complex(-abs(bad), 1.0), complex(0.0, bad), 0j, -0.0, -1.0]
    for lam in lams:
        # one point is checked as a scalar, in every form it may come in
        for point in (lam, np.complex128(lam), np.array(lam),
                      np.array([1.0 + 1.0j, lam])):
            with pytest.raises(DomainError):
                resolvent_observation(sys_, xi, point, 1e-12)
            with pytest.raises(DomainError):
                weiss_quotient(sys_, xi, x_norm, point)
            with pytest.raises(DomainError):
                weiss_norm_orthonormal(sys_, point, 1e-12)
    for t in (bad, np.float64(bad), np.array(bad), -abs(bad), 0.0, -0.0,
              np.float64(-1.0), np.array(0.0), np.array([1.0, bad])):
        with pytest.raises(DomainError):
            orbit_observation(sys_, xi, t, 1e-12)
        with pytest.raises(DomainError):
            decay_profile(sys_, xi, x_norm, np.atleast_1d(t))
        with pytest.raises(DomainError):
            decay_norm_orthonormal(sys_, t)


def test_one_point_quotient_recertifies_for_another_system_or_tolerance(
        monkeypatch, witness4):
    sys_, xi, x_norm = witness4.system, fresh(witness4.xi), witness4.x_norm
    doubled = DiagonalSystem(sys_.mu, 2.0 * sys_.c)  # every term doubled
    lam = lambda_grid()[200]
    calls = count_certifications(monkeypatch)
    switches = ((sys_, 1e-12), (doubled, 1e-12), (sys_, 1e-12), (sys_, 1e-6),
                (doubled, 1e-6), (sys_, 1e-12))
    got = {}
    for system, tol in switches:
        value = weiss_quotient(system, xi, x_norm, lam, tol)
        assert xi._resolvent[0] is system and xi._resolvent[1] == tol
        want = weiss_quotient(system, fresh(xi), x_norm, lam, tol)
        assert bits(value, float) == bits(want, float)
        got[system is sys_, tol] = value
    assert len(calls) == 2 * len(switches)
    # the doubled system certifies its own, possibly longer, truncation
    assert got[False, 1e-12] == pytest.approx(2.0 * got[True, 1e-12],
                                              rel=1e-9)
    assert got[False, 1e-12] != got[True, 1e-12]
    assert resolvent_observation(sys_, xi, lam, 1e-6).n_terms \
        < resolvent_observation(sys_, xi, lam, 1e-12).n_terms


def test_one_point_lambda_is_checked_once_as_a_scalar(monkeypatch, witness4):
    sys_, xi, x_norm = witness4.system, witness4.xi, witness4.x_norm
    checks = []
    point = semigroup._point

    def counting(z, what):
        checks.append(z)
        return point(z, what)

    def array_route(*args):
        raise AssertionError("one complex point took the array route")

    monkeypatch.setattr(semigroup, "_point", counting)
    monkeypatch.setattr(semigroup, "_points", array_route)
    outside = (complex(math.nan, 1.0), complex(1.0, math.nan),
               complex(math.inf, 1.0), complex(1.0, -math.inf), 0j,
               complex(-0.0, 2.0), -1.0 + 1.0j, complex(-math.inf, 0.0))
    for form in (complex, np.complex128):
        checks.clear()
        assert type(weiss_quotient(sys_, xi, x_norm, form(2.0 + 1.0j))) \
            is float
        assert type(resolvent_observation(sys_, xi, form(2.0 + 1.0j),
                                          1e-12).value) is complex
        assert len(checks) == 2
        for lam in outside:
            for call in (lambda: weiss_quotient(sys_, xi, x_norm, form(lam)),
                         lambda: resolvent_observation(sys_, xi, form(lam),
                                                       1e-12)):
                with pytest.raises(DomainError, match="positive real part"):
                    call()
