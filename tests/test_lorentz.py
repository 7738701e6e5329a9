"""Step functions, rearrangement, and Lorentz quasi-norms."""
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from weissbench import (DomainError, LorentzIndex, StepFunction,
                        decreasing_rearrangement, distribution_function,
                        holder_pairing, lorentz, lorentz_norm, sample_steps)


def random_step(rng, max_segments=20, tie_grid=None):
    n = int(rng.integers(1, max_segments))
    start = float(rng.uniform(0.0, 1.0))
    bps = np.concatenate(([start], start + np.cumsum(rng.uniform(0.05, 1.0, n))))
    if tie_grid is not None:
        vals = rng.choice(tie_grid, size=n)
        if not np.any(vals > 0.0):
            vals[0] = tie_grid[-1]
    else:
        vals = rng.uniform(0.0, 4.0, n)
    return StepFunction(bps, vals)


def distribution_probes(values):
    """Probe levels covering every constancy interval of alpha -> d(alpha).

    The distribution function changes only at attained values, so checking
    each unique value, one point between consecutive values, zero, and a
    point above the maximum verifies equality everywhere.
    """
    uniq = np.unique(values)
    probes = [0.0, float(uniq[-1]) + 1.0]
    probes += [float(v) for v in uniq]
    probes += [0.5 * float(a + b) for a, b in zip(uniq[:-1], uniq[1:])]
    if uniq[0] > 0.0:
        probes.append(0.5 * float(uniq[0]))
    return probes


# ------------------------------------------------------------ construction
def test_step_function_validation():
    with pytest.raises(DomainError):
        StepFunction([0.0, 1.0], [1.0, 2.0])  # size mismatch
    with pytest.raises(DomainError):
        StepFunction([0.0], [])  # no segments
    with pytest.raises(DomainError):
        StepFunction([0.0, 1.0, 1.0], [1.0, 2.0])  # zero-length segment
    with pytest.raises(DomainError):
        StepFunction([1.0, 0.5], [1.0])  # decreasing breakpoints
    with pytest.raises(DomainError):
        StepFunction([-1.0, 1.0], [1.0])  # negative start
    with pytest.raises(DomainError):
        StepFunction([0.0, 1.0], [-0.5])  # negative magnitude
    with pytest.raises(DomainError):
        StepFunction([0.0, math.inf], [1.0])
    with pytest.raises(DomainError):
        StepFunction([0.0, 1.0], [math.nan])


@pytest.mark.filterwarnings("error")
def test_step_function_takes_real_numbers_only():
    # the conversion StepFunction shares with the other value objects:
    # numeric strings were parsed (a norm of 2.0), a complex list raised a
    # bare TypeError and a complex array lost its imaginary part with only
    # a ComplexWarning
    for b, v in ((["0", "1"], ["2"]), ([0.0, 1.0], ["2"]),
                 ([0.0, 1.0], [2.0 + 1.0j]),
                 (np.array([0.0, 1.0 + 0j]), [2.0]),
                 ([0.0, 1.0], np.array([2.0 + 1.0j]))):
        with pytest.raises(DomainError, match="must be (numeric|real)"):
            StepFunction(b, v)


def test_step_function_owns_float64_arrays_and_converts_the_rest():
    # a float64 array is kept, not copied, and frozen with the function
    b, v = np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0])
    f = StepFunction(b, v)
    assert f.breakpoints is b and f.values is v
    assert not (b.flags.writeable or v.flags.writeable)
    with pytest.raises(ValueError):
        b[0] = 0.5
    # a list or another dtype is converted; the caller's object stays as is
    b32, lst = np.array([0.0, 1.0, 3.0], dtype=np.float32), [2.0, 1.0]
    g = StepFunction(b32, lst)
    assert not np.shares_memory(g.breakpoints, b32)
    assert g.breakpoints.dtype == np.float64 and b32.flags.writeable
    b32[0] = 0.5
    lst[0] = 7.0
    assert g.breakpoints[0] == 0.0 and g.values[0] == 2.0
    assert lorentz_norm(g, (2.0, math.inf)) == lorentz_norm(f, (2.0, math.inf))


def test_step_function_immutable():
    f = StepFunction([0.0, 1.0], [2.0])
    with pytest.raises(AttributeError):
        f.values = np.array([3.0])
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    assert f.values[0] == 2.0
    with pytest.raises(AttributeError):
        f._levels = None  # the level table is set only by the module


def test_lorentz_index_validation():
    with pytest.raises(DomainError):
        LorentzIndex(1.0, 2.0)
    with pytest.raises(DomainError):
        LorentzIndex(math.inf, 2.0)
    with pytest.raises(DomainError):
        LorentzIndex(2.0, 0.5)
    idx = LorentzIndex(2.0, math.inf)
    assert idx.q == math.inf


# -------------------------------------------------------- rearrangement
def test_distribution_function_hand_case():
    f = StepFunction([0.0, 1.0, 3.0], [2.0, 1.0])
    assert distribution_function(f, 0.0) == 3.0
    assert distribution_function(f, 0.5) == 3.0
    assert distribution_function(f, 1.0) == 1.0
    assert distribution_function(f, 1.5) == 1.0
    assert distribution_function(f, 2.0) == 0.0
    assert distribution_function(f, math.inf) == 0.0
    for alpha in (-0.1, math.nan, -math.inf, np.array([1.0]),
                  np.array([0.5, 1.5]), np.ones((1, 1))):
        with pytest.raises(DomainError):
            distribution_function(f, alpha)
    # one number of any numeric type, huge Python ints included
    for alpha in (1, np.float64(1.0), np.float32(1.0), np.array(1.0)):
        assert distribution_function(f, alpha) == 1.0
    assert distribution_function(f, 10**400) == 0.0


def test_rearrangement_hand_case_with_tie():
    f = StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0])
    g = decreasing_rearrangement(f)
    assert np.array_equal(g.breakpoints, [0.0, 1.0, 3.0])
    assert np.array_equal(g.values, [2.0, 1.0])


def test_rearrangement_strictly_decreasing_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        vals = np.sort(rng.uniform(0.1, 5.0, n))[::-1]
        bps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n))))
        f = StepFunction(bps, vals)
        g = decreasing_rearrangement(f)
        assert np.array_equal(g.breakpoints, f.breakpoints)
        assert np.array_equal(g.values, f.values)


def test_rearrangement_merges_equal_plateaus():
    f = StepFunction([0.0, 1.0, 2.5], [3.0, 3.0])
    g = decreasing_rearrangement(f)
    assert np.array_equal(g.breakpoints, [0.0, 2.5])
    assert np.array_equal(g.values, [3.0])


def test_rearrangement_drops_zero_segments():
    f = StepFunction([1.0, 2.0, 4.0, 5.0], [0.0, 3.0, 0.0])
    g = decreasing_rearrangement(f)
    assert np.array_equal(g.breakpoints, [0.0, 2.0])
    assert np.array_equal(g.values, [3.0])


def test_rearrangement_zero_function():
    f = StepFunction([2.0, 3.0, 7.0], [0.0, 0.0])
    g = decreasing_rearrangement(f)
    assert np.array_equal(g.breakpoints, [0.0, 1.0])
    assert np.array_equal(g.values, [0.0])
    assert lorentz_norm(g, (2.0, 1.0)) == 0.0


def test_rearrangement_names_a_level_without_float_representation():
    # the 1e-16 level sorts behind one of measure 100 - 1e-16, and their
    # exact sum 100 rounds onto the end of that level
    f = StepFunction([0.0, 1e-16, 100.0], [1.0, 2.0])
    with pytest.raises(DomainError, match=r"^rearranged level of length "
                       r"1e-16 has no float representation: its end rounds "
                       r"onto the preceding measure 100$"):
        decreasing_rearrangement(f)


def test_equimeasurability_exact_including_ties():
    rng = np.random.default_rng(11)
    grid = np.array([0.0, 0.5, 1.25, 2.0, 3.5])
    for i in range(80):
        f = random_step(rng, tie_grid=grid if i % 2 == 0 else None)
        g = decreasing_rearrangement(f)
        for alpha in distribution_probes(f.values):
            assert distribution_function(f, alpha) == \
                distribution_function(g, alpha)


def test_rearrangement_nonincreasing_and_left_aligned():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = decreasing_rearrangement(random_step(rng))
        assert g.breakpoints[0] == 0.0
        assert np.all(np.diff(g.values) < 0.0)  # ties merged, so strict


def fraction_oracle(f):
    """Distribution function and rearrangement in Fraction arithmetic.

    Returns (d, breakpoints, values): d(alpha) is the exact measure of
    {f > alpha} rounded once, and the rearrangement's breakpoints are the
    exact measures of the level sets above each distinct positive value,
    rounded once, in non-increasing order of value.
    """
    b = [Fraction(x) for x in f.breakpoints.tolist()]
    measure = {}
    for v, lo, hi in zip(f.values.tolist(), b, b[1:]):
        if v > 0.0:
            measure[v] = measure.get(v, Fraction(0)) + (hi - lo)
    levels = sorted(measure, reverse=True)
    acc = list(itertools.accumulate(measure[v] for v in levels))

    def d(alpha):
        above = sum(1 for v in levels if v > alpha)
        return float(acc[above - 1]) if above else 0.0

    if not levels:
        return d, [0.0, float(b[1] - b[0])], [0.0]
    return d, [0.0] + [float(a) for a in acc], levels


def assert_matches_fraction_oracle(f):
    """Bit-identity with the oracle; a collapsed rearrangement must raise."""
    d, breakpoints, values = fraction_oracle(f)
    for alpha in distribution_probes(f.values):
        assert distribution_function(f, alpha) == d(alpha)
    if not all(a < b for a, b in zip(breakpoints, breakpoints[1:])):
        # two exact prefix sums round to the same float: no step function
        with pytest.raises(DomainError, match="no float representation"):
            decreasing_rearrangement(f)
        return False
    g = decreasing_rearrangement(f)
    assert np.array_equal(g.breakpoints, breakpoints)
    assert np.array_equal(g.values, values)
    for alpha in distribution_probes(f.values):
        assert distribution_function(g, alpha) == d(alpha)
    return True


def test_matches_fraction_oracle_over_sixteen_decades():
    rng = np.random.default_rng(20)
    grid = np.array([0.0, 0.5, 1.25, 2.0, 3.5])
    compared = 0
    for i in range(120):
        n = int(rng.integers(1, 30))
        b = np.unique(10.0 ** rng.uniform(-16.0, 2.0, n + 1))
        if i % 2 == 0:
            b[0] = 0.0
        vals = rng.choice(grid, b.size - 1) if i % 3 else \
            rng.uniform(0.0, 4.0, b.size - 1)
        compared += assert_matches_fraction_oracle(StepFunction(b, vals))
    # the rest sort a short segment behind a long one and must raise
    assert compared >= 100, compared


@pytest.mark.parametrize("breakpoints, values", [
    ([0.25, 1.0, 2.5, 2.75, 7.0], [1.0, 3.0, 1.0, 2.0]),
    ([0.0, 5e-324, 1e-310, 3.0], [2.0, 3.0, 1.0]),
    ([5e-324, 1e-323, 2.5e-323], [1.0, 1.0]),
    # math.fsum of the float ends overflows here; the exact measure does not
    ([1.6e308, 1.7e308, 1.75e308], [1.0, 1.0]),
    ([0.0, 1e308, 1.5e308, 1.75e308], [1.0, 2.0, 1.0]),
    ([3.0, 4.0, 5.0], [0.0, 0.0]),
], ids=["positive-start", "subnormal", "all-subnormal", "near-overflow",
        "near-overflow-from-zero", "zero-function"])
def test_matches_fraction_oracle_edge_cases(breakpoints, values):
    assert assert_matches_fraction_oracle(StepFunction(breakpoints, values))


def test_matches_fraction_oracle_tied_permuted_orbit():
    # log2(1 + t^(-1/2)) on a 2e4-cell log grid over (1e-12, 1), quantised
    # so values tie, cells permuted: the shape of perfbench's endpoint check
    rng = np.random.default_rng(21)
    grid = np.logspace(-12.0, 0.0, 20_001)
    values = np.round(np.log2(1.0 + grid[:-1] ** -0.5) * 2.0) / 2.0
    perm = rng.permutation(values.size)
    f = StepFunction(np.concatenate(([0.0], np.cumsum(np.diff(grid)[perm]))),
                     values[perm])
    assert assert_matches_fraction_oracle(f)


@pytest.mark.parametrize("breakpoints, values", [
    ([2.0**60, 2.0**60 + 2**9, 2.0**62], [1.0, 1.0]),
    # the 3.0 level's exact measure 2^60 - 2^53 - 66 is rounded
    ([2.0**53, 2.0**53 + 66, 2.0**60], [1.0, 3.0]),
    ([2.0**53, 2.0**53 + 66, 2.0**58, 2.0**60, 2.0**62], [1.0, 3.0, 1.0, 3.0]),
], ids=["tied", "rounded", "tied-rounded"])
def test_matches_fraction_oracle_above_two_to_the_52(breakpoints, values):
    # integral breakpoints: the common shift is >= 0, so levels are rounded
    # by int-to-float conversion rather than by int true division
    f = StepFunction(breakpoints, values)
    assert lorentz._level_table(f)[2] >= 0
    assert assert_matches_fraction_oracle(f)


@pytest.mark.parametrize("breakpoints", [
    [0.0, 1.0, 2.5, 3.0],  # shift < 0
    [2.0**60, 2.0**60 + 2**9, 2.0**61, 2.0**62],  # shift >= 0
])
def test_exact_results_keep_their_types(breakpoints):
    f = StepFunction(breakpoints, [2.0, 1.0, 2.0])
    g = decreasing_rearrangement(f)
    assert g.breakpoints.dtype == np.float64
    for h in (f, g):
        neg, m, shift = lorentz._level_table(h)
        assert all(type(x) is int for x in m) and type(shift) is int
        for alpha in (0.0, 1.0, 1.5, 2.0):
            assert type(distribution_function(h, alpha)) is float


def test_repeat_queries_match_fraction_oracle():
    # the first exact call builds the function's level table and later
    # calls search it: every query is asked twice, in shuffled order, and
    # checked bit for bit, the sign of a zero measure included
    rng = np.random.default_rng(22)
    grid = np.array([0.0, 0.5, 1.25, 2.0, 3.5])
    cases = [StepFunction([0.5, 1.0, 3.0], [0.0, 0.0])]
    for i in range(60):  # a single segment every sixth case
        cases.append(random_step(rng, max_segments=2 if i % 6 == 0 else 20,
                                 tie_grid=grid if i % 2 == 0 else None))
    for f in cases:
        d = fraction_oracle(f)[0]
        uniq = np.unique(f.values)
        alphas = [0.0, math.inf, np.nextafter(0.0, 1.0)] + uniq.tolist()
        alphas += [0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])]
        for v in uniq[uniq > 0.0]:
            alphas += [np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
        alphas = [float(a) for a in alphas] * 2
        rng.shuffle(alphas)
        for alpha in alphas:
            got, want = distribution_function(f, alpha), d(alpha)
            assert got == want, (f.values, alpha)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_one_level_table_per_function(monkeypatch):
    calls = []
    numerators = lorentz._dyadic_numerators

    def counting(b):
        calls.append(b.size)
        return numerators(b)

    monkeypatch.setattr(lorentz, "_dyadic_numerators", counting)
    rng = np.random.default_rng(23)
    f = random_step(rng, tie_grid=np.array([0.0, 0.5, 1.25, 2.0]))
    g = decreasing_rearrangement(f)
    for alpha in rng.uniform(0.0, 2.5, 8):
        distribution_function(f, alpha)
        distribution_function(g, alpha)
    # the rearrangement builds f's table and seeds g's from g's breakpoints
    assert calls == [f.breakpoints.size, g.breakpoints.size]


def test_rearrangement_seeds_the_general_table():
    rng = np.random.default_rng(29)
    cases = [random_step(rng, max_segments=60) for _ in range(40)]
    cases += [random_step(rng, max_segments=60,
                          tie_grid=np.array([0.0, 0.5, 1.25, 2.0]))
              for _ in range(40)]
    cases.append(StepFunction([5e-324, 1e-300, 1.0, 1e300], [3.0, 2.0, 1.0]))
    for f in cases:
        g = decreasing_rearrangement(f)
        neg, m, shift = g._levels
        want_neg, want_m, want_shift = lorentz._level_table(
            StepFunction(g.breakpoints, g.values))
        assert np.array_equal(neg, want_neg)
        assert list(m) == list(want_m) and shift == want_shift
    # the zero function keeps the general path: its table is built on use
    g = decreasing_rearrangement(StepFunction([0.0, 2.0], [0.0]))
    assert g._levels is None
    assert distribution_function(g, 0.0) == 0.0


def test_import_does_not_load_fractions():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import weissbench, sys; print('fractions' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ norms
def test_indicator_closed_form():
    for p, q, length in ((2.5, 1.5, 0.7), (2.0, 1.0, 1.0), (3.0, 4.0, 2.25),
                         (1.5, 1.0, 0.3)):
        f = StepFunction([0.0, length], [1.0])
        want = (p / q) ** (1.0 / q) * length ** (1.0 / p)
        assert lorentz_norm(f, (p, q)) == pytest.approx(want, rel=1e-12)


def test_indicator_weak_norm():
    f = StepFunction([0.0, 0.7], [1.0])
    assert lorentz_norm(f, (2.5, math.inf)) == \
        pytest.approx(0.7 ** (1.0 / 2.5), rel=1e-12)


def test_norm_invariant_under_rearrangement():
    rng = np.random.default_rng(13)
    for _ in range(40):
        f = random_step(rng)
        g = decreasing_rearrangement(f)
        for idx in ((2.0, 4.0), (2.0, math.inf), (3.0, 1.0)):
            assert lorentz_norm(f, idx) == \
                pytest.approx(lorentz_norm(g, idx), rel=1e-13, abs=1e-300)


def always_sorting_norm(f, p, q):
    """lorentz_norm with a stable sort of every input, the reference that
    the sort-skipping path for non-increasing values must equal bit for bit.
    """
    v = f.values
    m = float(np.max(v))
    if m == 0.0:
        return 0.0
    order = np.argsort(-v, kind="stable")
    w = f.lengths[order]
    peak = np.cumsum(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w /= peak
        peak **= 1.0 / p
        peak *= v[order] / m
        top = float(np.max(peak))
        if q != math.inf:
            np.log1p(np.negative(w, out=w), out=w)
            np.expm1(np.multiply(w, q / p, out=w), out=w)
            np.power(np.divide(peak, top, out=peak), q, out=peak)
            peak *= w
            top *= (-(p / q) * float(np.sum(peak))) ** (1.0 / q)
    return m * top


def test_norm_equals_always_sorting_reference():
    rng = np.random.default_rng(15)
    grid = [0.0, 0.25, 1.0, 3.0]
    edges = np.logspace(-12.0, math.log10(4.0), 1_000_001)  # the suite's
    fns = [StepFunction([0.0, 0.5, 1.25, 2.0, 3.5, 4.0, 4.5],
                        [3.0, 3.0, 2.0, 2.0, 2.0, 0.0]),  # ties, zero tail
           StepFunction([0.3, 1.1], [2.5]),  # a single segment
           sample_steps(lambda t: np.exp(-10.0 * t), edges)]
    for _ in range(20):
        f = random_step(rng)
        tied = random_step(rng, tie_grid=grid)
        fns += [f, tied,  # unsorted in general
                decreasing_rearrangement(f),  # strictly decreasing
                StepFunction(tied.breakpoints, np.sort(tied.values)[::-1])]
    for f in fns:
        for p in (1.5, 2.0, 3.0):
            for q in (1.0, 2.5, 4.0, math.inf):
                assert lorentz_norm(f, (p, q)) == always_sorting_norm(f, p, q)


def test_sliced_product_equals_full_length_formula(monkeypatch):
    # peak is scaled by v / m in slices; the same bits as the one
    # full-length product of the reference, at and across slice ends,
    # on sorted and unsorted random step functions
    rng = np.random.default_rng(16)
    cases = [(lorentz._SLICE, n) for n in (lorentz._SLICE - 1,
                                           lorentz._SLICE + 1,
                                           3 * lorentz._SLICE + 5)]
    cases += [(3, n) for n in (1, 2, 3, 4, 7, 50)]
    for size, n in cases:
        monkeypatch.setattr(lorentz, "_SLICE", size)
        bps = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, n))))
        vals = rng.uniform(0.0, 4.0, n)
        for f in (StepFunction(bps, vals),
                  StepFunction(bps, np.sort(vals)[::-1])):
            for p, q in ((2.0, 1.0), (1.5, 4.0), (3.0, math.inf)):
                assert lorentz_norm(f, (p, q)) == always_sorting_norm(f, p, q)


def test_power_of_two_scaling_exact():
    rng = np.random.default_rng(14)
    f = random_step(rng)
    for idx in ((2.0, 4.0), (2.0, math.inf), (1.5, 1.0)):
        base = lorentz_norm(f, idx)
        for k in (-3, 1, 5):
            scaled = StepFunction(f.breakpoints, math.ldexp(1.0, k) * f.values)
            assert lorentz_norm(scaled, idx) == math.ldexp(base, k)


def test_general_scaling_close():
    rng = np.random.default_rng(15)
    f = random_step(rng)
    for c in (0.3, 2.7, 117.0):
        got = lorentz_norm(StepFunction(f.breakpoints, c * f.values),
                           (2.0, 3.0))
        assert got == pytest.approx(c * lorentz_norm(f, (2.0, 3.0)),
                                    rel=1e-13)


def test_pq_equal_matches_lp():
    rng = np.random.default_rng(16)
    for _ in range(30):
        f = random_step(rng, max_segments=40)
        p = float(rng.uniform(1.1, 6.0))
        direct = math.fsum(f.values**p * f.lengths) ** (1.0 / p)
        assert lorentz_norm(f, (p, p)) == pytest.approx(direct, rel=1e-12)


def test_weak_norm_dominated_by_strong():
    # sup t^{1/p} f*(t) <= (q/p)^{1/q} ||f||_{p,q} for every q < inf
    rng = np.random.default_rng(17)
    for _ in range(30):
        f = random_step(rng)
        for p, q in ((2.0, 1.0), (2.0, 4.0), (3.0, 2.0)):
            weak = lorentz_norm(f, (p, math.inf))
            strong = lorentz_norm(f, (p, q))
            assert weak <= (q / p) ** (1.0 / q) * strong * (1.0 + 1e-12)


def test_norm_accepts_index_object_and_tuple():
    f = StepFunction([0.0, 1.0], [1.0])
    assert lorentz_norm(f, LorentzIndex(2.0, 1.0)) == \
        lorentz_norm(f, (2.0, 1.0))


# --------------------------------------------------------------- pairing
def test_holder_pairing_self_is_l2_square():
    rng = np.random.default_rng(18)
    for _ in range(20):
        f = random_step(rng)
        want = lorentz_norm(f, (2.0, 2.0)) ** 2
        assert holder_pairing(f, f) == pytest.approx(want, rel=1e-12)


def test_holder_pairing_disjoint_supports():
    f = StepFunction([0.0, 1.0], [2.0])
    g = StepFunction([5.0, 6.0], [3.0])
    assert holder_pairing(f, g) == 0.0


def test_holder_pairing_mixed_grids():
    f = StepFunction([0.0, 2.0], [1.0])            # 1 on [0, 2)
    g = StepFunction([1.0, 3.0], [4.0])            # 4 on [1, 3)
    assert holder_pairing(f, g) == pytest.approx(4.0, rel=1e-14)


# ------------------------------------------------------------- sampling/io
def test_sample_steps_rules():
    edges = np.array([0.0, 1.0, 2.0])
    mid = sample_steps(lambda t: t, edges)
    assert np.array_equal(mid.values, [0.5, 1.5])


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(19)
    f = random_step(rng)
    path = tmp_path / "steps.csv"
    f.write_csv(path)
    g = StepFunction.read_csv(path)
    assert np.array_equal(f.breakpoints, g.breakpoints)
    assert np.array_equal(f.values, g.values)
    raw = path.read_bytes()
    assert raw.startswith(b"breakpoint,value\n")
    assert b"\r" not in raw


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n0,1\n")
    with pytest.raises(DomainError):
        StepFunction.read_csv(path)
    path.write_text("breakpoint,value\n0.0,1.0\n")  # missing final row
    with pytest.raises(DomainError):
        StepFunction.read_csv(path)
    for rows in ("0\n1,\n",           # one cell
                 "0,abc\n1,\n",       # non-numeric cell
                 "0,1,2\n1,\n",       # three cells
                 "0,\n1,1\n2,\n"):   # empty value before the final row
        path.write_text("breakpoint,value\n" + rows)
        with pytest.raises(DomainError):
            StepFunction.read_csv(path)


def test_norm_overflow_raises_domain_error():
    # end^(q/p) of 1.7e308 would overflow for q/p = 2; the norm itself is
    # (p/q)^(1/q) * 1.7e308^(1/2), an ordinary float
    f = StepFunction([0.0, 1e308, 1.7e308], [1.0, 1.0])
    assert lorentz_norm(f, (2.0, 4.0)) == \
        pytest.approx(0.5**0.25 * 1.7e308**0.5, rel=1e-15)
    assert lorentz_norm(f, (2.0, math.inf)) == \
        pytest.approx(1.7e308 ** 0.5, rel=1e-15)
    # 1e308 * (1e10)^(1/2) really exceeds the float range
    huge = StepFunction([0.0, 1e10], [1e308])
    for q in (4.0, math.inf):
        with pytest.raises(DomainError, match=r"norm overflows the float"):
            lorentz_norm(huge, (2.0, q))


def test_large_q_top_value_does_not_overflow():
    # 1.5^2000 overflows; values divided by their maximum never exceed 1
    f = StepFunction([0.0, 1.0], [1.5])
    base = lorentz_norm(f, (2.0, 2000.0))
    assert base == pytest.approx(1.5 * (2.0 / 2000.0) ** (1.0 / 2000.0),
                                 rel=1e-14)
    for k in (-3, 5):
        scaled = StepFunction(f.breakpoints, [math.ldexp(1.5, k)])
        assert lorentz_norm(scaled, (2.0, 2000.0)) == math.ldexp(base, k)


@pytest.mark.parametrize("breakpoints, values, q, want", [
    ([0.0, 0.1], [1.0], 2000.0, 0.1**0.5 * 1e-3**(1.0 / 2000.0)),
    # 0.5^q dominates 0.1^(q/p) by a factor 10^398: only the second step
    ([0.0, 0.1, 1.0], [1.0, 0.5], 2000.0, 0.5 * 1e-3**(1.0 / 2000.0)),
    ([0.0, 1e-3], [3.0], 1200.0, 3.0 * 1e-3**0.5 * (1.0 / 600.0)**(1 / 1200)),
], ids=["one-step", "two-steps", "short-step"])
def test_large_q_short_top_segment(breakpoints, values, q, want):
    # end^(q/p) of the short top segment underflows to 0; scaled by the
    # weak-type peak, the step sum keeps the norm (about 0.315 for the first)
    f = StepFunction(breakpoints, values)
    assert lorentz_norm(f, (2.0, q)) == pytest.approx(want, rel=1e-14)
