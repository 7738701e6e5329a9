"""Quadrature for singular oscillatory integrands and Laplace transforms.

High-precision reference values in oracle_values.py come from the closed
incomplete-gamma form of the integrals, evaluated at 50 digits with an
independent tool; agreement here certifies the panel meshes rather than
one route certifying the other.
"""
import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracle_values import GAMMA_REF, POWCOS_REF
from weissbench import (CoefficientVector, CounterexampleParams,
                        DiagonalSystem, DomainError, QuadratureSpec,
                        ToleranceNotMet, gamma_function, laplace_quadrature,
                        singular_oscillatory_integral, witness_system)
from weissbench import quadrature
from weissbench.cli import _laplace_lambda_points, _random_finite_system
from weissbench.counterexample import xi_period_decomposition
from weissbench.quadrature import (MAX_PANELS, _graded_mesh,
                                   powcos_quadrature,
                                   singular_oscillatory_detail)
from weissbench.semigroup import orbit_callable, orbit_decay_bound


def test_gamma_function_against_reference():
    for x, want in GAMMA_REF.items():
        assert gamma_function(x) == pytest.approx(want, rel=1e-12)


def test_gamma_function_domain():
    for bad in (0.0, -1.0, 2.5, math.inf):
        with pytest.raises(DomainError):
            gamma_function(bad)
    with pytest.raises(DomainError):
        gamma_function("0.5")


def test_quadrature_spec_validation():
    QuadratureSpec(relative_tolerance=1e-14)
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=1e-15)
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=0.1)
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == \
        ["relative_tolerance"]


def test_singular_oscillatory_against_reference():
    # same accuracy contract as the implementation's internal gate:
    # absolute error within tol * max(|value|, 0.01 * pi^g / g)
    for (g, n), want in POWCOS_REF.items():
        got = singular_oscillatory_integral(g, n)
        floor = 0.01 * math.pi**g / g
        assert abs(got - want) <= 1e-10 * max(abs(want), floor), (g, n)


def test_singular_oscillatory_zero_frequency_closed_form():
    for g in (0.25, 0.8, 1.0, 1.3, 2.0):
        want = math.pi**g / g
        assert singular_oscillatory_integral(g, 0) == \
            pytest.approx(want, rel=1e-10)


def test_singular_oscillatory_smooth_exponents():
    # g = 2: integral of s cos(ns) over (0, pi) is ((-1)^n - 1)/n^2
    for n in (1, 2, 3, 10):
        want = ((-1.0) ** n - 1.0) / n**2
        assert singular_oscillatory_integral(2.0, n) == \
            pytest.approx(want, rel=1e-10, abs=1e-12)
    # g = 1: integral of cos(ns) over (0, pi) vanishes for n >= 1
    for n in (1, 4, 25):
        assert abs(singular_oscillatory_integral(1.0, n)) < 1e-10


def test_estimate_brackets_mesh_refinement():
    # the tighter tolerance moves the innermost graded edge, so the two
    # meshes differ; the oracle checks that each estimate covers its error
    fine_spec = QuadratureSpec(relative_tolerance=1e-12)
    for g, n in ((0.25, 7), (0.125, 100), (1.75, 33), (0.9, 1)):
        v1, e1 = singular_oscillatory_detail(g, n)
        v2, e2 = singular_oscillatory_detail(g, n, fine_spec)
        assert abs(v1 - v2) <= e1 + e2 + 1e-15
    for (g, n), want in POWCOS_REF.items():
        value, est = singular_oscillatory_detail(g, n)
        assert abs(value - want) <= est, (g, n)


def test_small_gamma_keys_certify():
    # gamma = 1/q down to q = 100 and the Gram exponent at q = 30: the
    # closed singular end certifies them at the default tolerance
    keys = [k for k in POWCOS_REF if k[0] in (1.0 / 30.0, 0.01, 59.0 / 30.0)]
    assert len(keys) == 11
    for g, n in keys:
        value, est = singular_oscillatory_detail(g, n)
        assert abs(value - POWCOS_REF[(g, n)]) <= est, (g, n)


def test_estimate_covers_tiny_exact_exponents():
    # g reaches the kernel as itself, although g - 1.0 rounds for every one
    # of these g; the closed head h^g/g, about 1/g, carries the value, and
    # its rounding joins the estimate, which still passes the default gate
    for g in (1e-4, 1e-6, 1e-9, 1e-12):
        assert math.fsum([g - 1.0, 1.0, -g]) != 0.0
        for n in (1, 7):
            value, est = singular_oscillatory_detail(g, n)
            assert abs(value - POWCOS_REF[(g, n)]) <= est, (g, n)
            assert est <= 1e-10 * max(abs(value), 0.01 * math.pi**g / g)


def test_estimate_positive_and_small():
    _, est = singular_oscillatory_detail(0.25, 17)
    assert 0.0 < est < 1e-10


def test_singular_oscillatory_domain():
    for g in (0.0, -0.5, 2.0001):
        with pytest.raises(DomainError):
            singular_oscillatory_integral(g, 1)
    for n in (-1, 1.5):
        with pytest.raises(DomainError):
            singular_oscillatory_integral(0.25, n)


def test_panel_budget_exhaustion():
    with pytest.raises(ToleranceNotMet):
        singular_oscillatory_integral(0.25, 10**6)


def test_panel_budget_checked_before_allocation():
    # building the 10^7-panel mesh before the check took about 160 MB
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceNotMet):
            singular_oscillatory_integral(0.25, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_large_meshes_evaluate_in_bounded_blocks():
    # one array pass over the whole halved mesh peaked at 157 and 220 MB; the
    # batch's meshes (about 191,000 and 127,000 panels) each pass the budget
    # but together exceed it, so they are evaluated one after the other
    one = lambda t: np.ones_like(t)
    lams = np.array([1.0 + 60000.0j, 1.0 + 40000.0j])
    calls = (lambda: singular_oscillatory_integral(0.25, 199_000),
             lambda: laplace_quadrature(one, lams[0], T=10.0,
                                        decay=(1.0, 0.0)),
             lambda: laplace_quadrature(one, lams, T=10.0, decay=(1.0, 0.0)))
    results = []
    for call in calls:
        tracemalloc.start()
        try:
            results.append(call())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6
    assert results[2].tolist() == [results[1], laplace_quadrature(
        one, lams[1], T=10.0, decay=(1.0, 0.0))]


# ---------------------------------------------------------------- laplace
def test_laplace_constant_orbit():
    # the dropped head [0, h] is widest at the loose tolerances
    for tol in (1e-2, 1e-6, 1e-10):
        spec = QuadratureSpec(relative_tolerance=tol)
        for lam in (1.0, 2.5 + 4.0j, 0.3 - 1.0j):
            lam = complex(lam)
            T = 30.0 / lam.real
            got = laplace_quadrature(lambda t: np.ones_like(t), lam, spec,
                                     T=T, decay=(1.0, 0.0))
            want = (1.0 - cmath.exp(-lam * T)) / lam
            assert abs(got - want) <= max(tol, 1e-9) * abs(want)


def test_laplace_exponential_orbit():
    lam = 0.7 + 2.0j
    T = 40.0
    got = laplace_quadrature(lambda t: np.exp(-t), lam, T=T, decay=(1.0, 0.0))
    want = (1.0 - cmath.exp(-(lam + 1.0) * T)) / (lam + 1.0)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_laplace_square_root_singularity():
    # integral of t^(-1/2) e^{-lam t} over (0, inf) is sqrt(pi/lam); the
    # head dropped at the endpoint blowup is bounded by 2 h^(1/2)
    for tol in (1e-2, 1e-6, 1e-10):
        spec = QuadratureSpec(relative_tolerance=tol)
        for lam in (1.0, 2.5 + 4.0j, 0.3 - 1.0j):
            lam = complex(lam)
            got = laplace_quadrature(lambda t: t**-0.5, lam, spec,
                                     T=40.0 / lam.real, decay=(1.0, 0.5))
            want = cmath.sqrt(math.pi / lam)
            assert abs(got - want) <= max(tol, 1e-8) * abs(want)


def test_laplace_three_mode_orbit_closed_form():
    # a seeded 3-mode orbit sum_k w_k e^{-mu_k t} has the Laplace transform
    # sum_k w_k (1 - e^{-(lam + mu_k) T}) / (lam + mu_k) over (0, T); the
    # nodes' exponentials come in pairs around each panel midpoint, so this
    # covers real lam and small |lam| on both sides of the real axis, each
    # within 1e-12 of |value|, and a high frequency
    rng = np.random.default_rng(11)
    mu = np.cumsum(rng.uniform(0.3, 3.0, 3))
    c, x = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
    system = DiagonalSystem(lambda k: mu[k], lambda k: c[k], n_active=3)
    xi = CoefficientVector(x)
    orbit, decay = orbit_callable(system, xi), orbit_decay_bound(system, xi,
                                                                  0.0)
    modes = list(zip((x * c).tolist(), mu.tolist()))
    l1 = math.fsum(abs(w) / m for w, m in modes)

    def error(lam, T):
        got = laplace_quadrature(orbit, lam, T=T, decay=decay)
        want = sum(w * (1.0 - cmath.exp(-(lam + m) * T)) / (lam + m)
                   for w, m in modes)
        return abs(got - want), abs(want)

    lams = (0.5, 3.0, 1e-2 * cmath.exp(1.2j), 1e-2 * cmath.exp(-1.2j))
    for T in (40.0 / mu[0], 2.0):
        for lam in map(complex, lams):
            err, size = error(lam, T)
            assert err <= 1e-12 * size
        # at 1 + 1e4 j the value cancels to 1e-4 of the orbit's L1 norm, so
        # the rounding of each node's phase lam s weighs 1e4 times more
        # against it: one exponential a node also missed 1e-12 of |value|
        # here (2.3e-12 and 1.0e-12 at these T, the paired form 2.9e-12 and
        # 4.7e-12). The bound is on the gate's scale, 0.01 L1, and the
        # relative error stays below 1e-11
        err, size = error(1.0 + 1e4j, T)
        assert size < 2e-4 * l1
        assert err <= 1e-12 * 0.01 * l1 and err <= 1e-11 * size


def test_laplace_linearity():
    lam = 1.5 + 1.0j
    T = 30.0
    f = lambda t: np.exp(-0.5 * t)
    g = lambda t: 1.0 / (1.0 + t)
    lhs = laplace_quadrature(lambda t: 2.0 * f(t) - 3.0 * g(t), lam, T=T,
                             decay=(5.0, 0.0))
    rhs = 2.0 * laplace_quadrature(f, lam, T=T, decay=(1.0, 0.0)) \
        - 3.0 * laplace_quadrature(g, lam, T=T, decay=(1.0, 0.0))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_laplace_domain_and_budget():
    with pytest.raises(DomainError):
        laplace_quadrature(lambda t: t, -1.0 + 2.0j, T=1.0, decay=(1.0, 0.0))
    with pytest.raises(DomainError):
        laplace_quadrature(lambda t: t, 1.0, T=0.0, decay=(1.0, 0.0))
    with pytest.raises(ToleranceNotMet):
        laplace_quadrature(lambda t: np.ones_like(t), 1.0 + 1e6j, T=100.0,
                           decay=(1.0, 0.0))
    # the dropped head's bound M h (1e12 * 1e-18 here) is gated like every
    # other error term
    with pytest.raises(ToleranceNotMet):
        laplace_quadrature(lambda t: np.ones_like(t), 1.0, T=40.0,
                           decay=(1e12, 0.0))


def test_laplace_decay_domain():
    one = lambda t: np.ones_like(t)
    for bad in ((-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, -0.1),
                (1.0, 1.0), (1.0, 1.5), (1.0, math.nan), (1.0,), None):
        with pytest.raises(DomainError):
            laplace_quadrature(one, 1.0, T=10.0, decay=bad)


def test_laplace_graded_depth_follows_the_decay_bound():
    # lam = 1: panels cap = 1/2 wide, h = 1e-8 tol min(T, 1) = 1e-18, and the
    # graded layer has ceil(log2(cap/h)) = 59 levels; the mesh and its halving
    # put 12 + 24 Gauss nodes in each level
    seen = []

    def orbit(t):
        seen.append(t[t < 0.5])
        return np.ones_like(t)

    laplace_quadrature(orbit, 1.0, T=40.0, decay=(1.0, 0.0))
    depth = math.ceil(math.log2(0.5 / 1e-18))
    assert depth == 59
    nodes = np.concatenate(seen)
    assert nodes.size == 36 * depth
    assert 0.5 * 2.0**-depth < nodes.min() < 0.5 * 2.0 ** (1 - depth)


def test_laplace_budget_counts_graded_panels():
    # the uniform panels on [pi/10, T] number MAX_PANELS - 61 and the
    # geometric layer from pi/10 down to h = 1e-18 / |lam| adds 62 levels;
    # the dropped head [0, h] is not evaluated and does not count, so the
    # mesh is one panel over the budget
    lam = 1.0 + 10.0j
    T = (MAX_PANELS - 60.5) * math.pi / 10.0
    assert math.ceil(math.log2(math.pi / 10.0 * abs(lam) / 1e-18)) == 62

    def orbit(t):
        raise AssertionError("orbit evaluated on an over-budget mesh")

    with pytest.raises(ToleranceNotMet, match=f"needs {MAX_PANELS + 1} "):
        laplace_quadrature(orbit, lam, T=T, decay=(1.0, 0.0))


def test_graded_mesh_budget_counts_evaluated_panels():
    # ungraded, [0, cap] is evaluated and counts; graded, the mesh starts at
    # its innermost edge h: the head [0, h] is the caller's and does not
    # cap = 1: L = u + 1 puts u uniform panels on [1, L]; the geometric
    # layer down to hmin = 1.5 2^-10 has 10 levels
    for hmin, u in ((None, MAX_PANELS - 1), (1.5 * 2.0**-10, MAX_PANELS - 10)):
        edges = _graded_mesh(u + 1.0, 1.0, hmin)
        assert edges.size - 1 == MAX_PANELS
        assert edges[0] == (0.0 if hmin is None else 2.0**-10)
        with pytest.raises(ToleranceNotMet, match=f"needs {MAX_PANELS + 1} "):
            _graded_mesh(u + 2.0, 1.0, hmin)


def never_called(t):
    raise AssertionError("orbit evaluated on invalid input")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: laplace_quadrature(
        never_called, complex(1.0, math.nan), T=1.0, decay=(1.0, 0.0)),
        id="lam=1+nanj"),
    pytest.param(lambda: laplace_quadrature(
        never_called, math.inf, T=1.0, decay=(1.0, 0.0)), id="lam=inf"),
    pytest.param(lambda: laplace_quadrature(
        never_called, complex(1.0, -math.inf), T=1.0, decay=(1.0, 0.0)),
        id="lam=1-infj"),
    pytest.param(lambda: laplace_quadrature(
        never_called, 1.0, T=math.inf, decay=(1.0, 0.0)), id="T=inf"),
    pytest.param(lambda: laplace_quadrature(
        never_called, 1.0, T=math.nan, decay=(1.0, 0.0)), id="T=nan"),
    pytest.param(lambda: laplace_quadrature(
        never_called, [1.0, 2.0, math.nan], T=1.0, decay=(1.0, 0.0)),
        id="batch-lam=nan"),
    pytest.param(lambda: laplace_quadrature(
        never_called, [1.0, 2.0], T=[1.0, math.inf], decay=(1.0, 0.0)),
        id="batch-T=inf"),
    pytest.param(lambda: singular_oscillatory_integral(0.5, math.nan),
                 id="n=nan"),
    pytest.param(lambda: singular_oscillatory_integral(0.5, math.inf),
                 id="n=inf"),
    pytest.param(lambda: singular_oscillatory_detail(0.5, -math.inf),
                 id="n=-inf"),
])
def test_non_finite_inputs_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def same_bits(batch, singles):
    return np.array_equal(np.asarray(batch, dtype=complex).view(np.uint64),
                          np.array(singles, dtype=complex).view(np.uint64))


def test_laplace_batch_matches_one_point_calls():
    # the laplace-identity suite's grid on three of its random finite
    # systems, then the witness, which blows up like t^(-1/2); the suite's T
    # per point, and one T for all
    lams = _laplace_lambda_points()
    spec = QuadratureSpec(relative_tolerance=1e-8)
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(3):
        system, xi = _random_finite_system(rng)
        cases.append((orbit_callable(system, xi), lams, system.mu[0],
                      orbit_decay_bound(system, xi, 0.0), spec))
    wit = witness_system(CounterexampleParams(4.0))
    cases.append((orbit_callable(wit.system, wit.xi),
                  np.array([1.0, 10.0 + 10.0j, 0.05 - 0.1j, 300.0 + 5.0j]),
                  1.0, orbit_decay_bound(wit.system, wit.xi, 0.5),
                  QuadratureSpec()))
    for orbit, points, mu0, decay, spec in cases:
        for T in (40.0 / (mu0 + points.real), 2.0):
            batch = laplace_quadrature(orbit, points, spec, T=T, decay=decay)
            singles = [laplace_quadrature(orbit, lam, spec, T=t, decay=decay)
                       for lam, t in zip(points.tolist(),
                                         np.broadcast_to(T, points.shape))]
            assert batch.shape == points.shape
            assert same_bits(batch, singles)


def test_laplace_batch_with_large_re_lambda_t_stays_finite():
    # the discarded panel joining two meshes runs from one mesh's T back to
    # the next one's h, about T/2 wide: with Re(lam) T near 2,000 the split
    # exponential exp(-lam h2 x) would overflow there, and 0 * inf give nan.
    # Overflow and invalid operations raise here, as RuntimeWarnings do
    # under the suite's filter; the batch equals one-point calls bit for bit
    rng = np.random.default_rng(5)
    system, xi = _random_finite_system(rng)
    orbit, decay = orbit_callable(system, xi), orbit_decay_bound(system, xi,
                                                                  0.0)
    points = np.array([200.0, 1.0, 150.0 + 40.0j, 0.5 - 3.0j])
    for T in (10.0, 40.0):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batch = laplace_quadrature(orbit, points, T=T, decay=decay)
            singles = [laplace_quadrature(orbit, lam, T=T, decay=decay)
                       for lam in points.tolist()]
        assert same_bits(batch, singles)


def test_runs_split_every_few_meshes_bit_for_bit(monkeypatch):
    # a budget just above the largest single mesh splits each batched call
    # into runs of a few meshes; every mesh keeps its one-mesh value,
    # wherever its run starts or ends
    sizes, passes = [], []
    graded, halving = quadrature._graded_mesh, quadrature._halving_estimate

    def recorded_mesh(*args):
        edges = graded(*args)
        sizes.append(edges.size)
        return edges

    def counted_pass(*args):
        passes.append(args)
        return halving(*args)

    monkeypatch.setattr(quadrature, "_graded_mesh", recorded_mesh)
    monkeypatch.setattr(quadrature, "_halving_estimate", counted_pass)
    g, shifts, L = 0.25, 2.0 * math.pi * np.arange(40), 2.0 * math.pi
    system, xi = _random_finite_system(np.random.default_rng(7))
    orbit = orbit_callable(system, xi)
    lams = _laplace_lambda_points()
    Ts = 40.0 / (system.mu[0] + lams.real)
    decay = orbit_decay_bound(system, xi, 0.0)
    spec = QuadratureSpec(relative_tolerance=1e-8)
    cases = (
        (lambda: powcos_quadrature(g, shifts, 5.0, L)[0],
         lambda: [powcos_quadrature(g, c, 5.0, L)[0] for c in shifts.tolist()]),
        (lambda: laplace_quadrature(orbit, lams, spec, T=Ts, decay=decay),
         lambda: [laplace_quadrature(orbit, z, spec, T=t, decay=decay)
                  for z, t in zip(lams.tolist(), Ts.tolist())]))
    for batch, singles in cases:
        sizes.clear()
        want = singles()
        monkeypatch.setattr(quadrature, "MAX_PANELS", max(sizes) + 2)
        passes.clear()
        got = batch()
        assert 5 < len(passes) < len(want)  # some runs hold several meshes
        assert same_bits(got, want)
        monkeypatch.setattr(quadrature, "MAX_PANELS", MAX_PANELS)
    # one period: shift 0 alone; no shift at all: no pass
    params = CounterexampleParams(4.0)
    assert xi_period_decomposition(1, params).tolist() == \
        [powcos_quadrature(params.gamma, 0.0, 1.0, L)[0]]
    passes.clear()
    value, est = powcos_quadrature(params.gamma, np.zeros(0), 1.0, L)
    assert value.shape == est.shape == (0,) and not passes


def test_batched_estimates_equal_one_mesh_estimates():
    # the kernel pads every pass to whole 4-row groups, so no wanted row
    # of either pass falls in BLAS's tail: the real integrand's estimates,
    # not only its values, are the one-shift ones bit for bit
    shifts = 2.0 * math.pi * np.arange(60)
    for g in (0.25, 0.75, 1.5):
        for freq in (1.0, 5.0):
            value, est = powcos_quadrature(g, shifts, freq, 2.0 * math.pi)
            singles = [powcos_quadrature(g, c, freq, 2.0 * math.pi)
                       for c in shifts.tolist()]
            assert value.tolist() == [v for v, _ in singles]
            assert est.tolist() == [e for _, e in singles]


def test_laplace_point_and_shape_checks():
    one = lambda t: np.ones_like(t)
    for lam in (np.complex128(2.0 + 1.0j), np.array(2.0), 2):
        value = laplace_quadrature(one, lam, T=np.float64(10.0),
                                   decay=(1.0, 0.0))
        assert type(value) is complex
    three = np.array([1.0, 2.0, 3.0])
    for lam, T in ((three, np.ones(2)), (three, np.ones((3, 1))),
                   (three, [10.0]), (1.0, [10.0]), (np.ones((2, 2)), 1.0),
                   ([], 1.0)):
        with pytest.raises(DomainError):
            laplace_quadrature(never_called, lam, T=T, decay=(1.0, 0.0))


def test_laplace_meshes_take_the_one_point_expressions(monkeypatch):
    # caps and h bounds are arrays; |lam| by np.hypot rounds as abs() does
    # (np.abs of a complex may not), so every mesh is the one the scalar
    # expressions give, bit for bit
    rng = np.random.default_rng(5)
    mods, args = rng.uniform(0.01, 30.0, 200), rng.uniform(-1.5, 1.5, 200)
    lams = mods * np.exp(1j * args)
    lams[::5] = lams[::5].real
    Ts = rng.uniform(0.1, 5.0, 200)
    seen, real = [], quadrature._graded_mesh
    monkeypatch.setattr(quadrature, "_graded_mesh",
                        lambda *a: seen.append(a) or real(*a))
    laplace_quadrature(np.ones_like, lams, T=Ts, decay=(1.0, 0.0))
    hscale = 1e-8 * quadrature.DEFAULT_SPEC.relative_tolerance  # alpha = 0
    assert seen == [(t, min(math.pi / max(abs(z.imag), 1e-300), 0.5 / z.real,
                            t / 4.0), hscale * min(t, 1.0 / abs(z)))
                    for z, t in zip(lams.tolist(), Ts.tolist())]


def test_laplace_batch_failure_names_its_point():
    # 12-point panels up to half a period of lam resolve cos(1e4 t) at
    # lam = 1 + 1e4 j, and not at lam = 1 and 2
    orbit = lambda t: np.cos(1e4 * t)
    lams, Ts = [1.0 + 1e4j, 1.0, 2.0], [10.0, 20.0, 30.0]
    laplace_quadrature(orbit, lams[0], T=Ts[0], decay=(1.0, 0.0))
    with pytest.raises(ToleranceNotMet) as single:
        laplace_quadrature(orbit, lams[1], T=Ts[1], decay=(1.0, 0.0))
    with pytest.raises(ToleranceNotMet, match=r"lambda=\(1\+0j\), T=20\.0$") \
            as batch:
        laplace_quadrature(orbit, lams, T=Ts, decay=(1.0, 0.0))
    assert str(batch.value) == str(single.value)
    assert batch.value.value == single.value.value
    assert batch.value.estimate == single.value.estimate


def test_singular_detail_gate_carries_the_route_numbers():
    # at tol 1e-12 the n = 8 estimate exceeds the gate well inside the
    # panel budget: the gate raises, not _graded_mesh
    tight = QuadratureSpec(relative_tolerance=1e-12)
    value, est = powcos_quadrature(1.75, 0.0, 8.0, math.pi, tight)
    with pytest.raises(ToleranceNotMet, match=r"^estimate .* exceeds "
                       r"tolerance for gamma_exp=1\.75, n=8$") as exc:
        singular_oscillatory_detail(1.75, 8, tight)
    assert exc.value.value == value and exc.value.estimate == est


def test_gate_rejects_nan():
    # a NaN estimate is no certificate: the gate fails it
    nan = lambda t: np.full_like(t, math.nan)
    with pytest.raises(ToleranceNotMet, match=r"lambda=\(1\+0j\), T=20\.0$"):
        laplace_quadrature(nan, 1.0, T=20.0, decay=(1.0, 0.0))


def test_tolerance_not_met_carries_diagnostics():
    exc = ToleranceNotMet("msg", value=1.0, estimate=2.0)
    assert exc.value == 1.0 and exc.estimate == 2.0
