"""Step functions, rearrangement, and Lorentz quasi-norms."""
import math

import numpy as np
import pytest

from weissbench import (DomainError, LorentzIndex, StepFunction,
                        decreasing_rearrangement, distribution_function,
                        holder_pairing, lorentz_norm, sample_steps)


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


def test_step_function_immutable():
    f = StepFunction([0.0, 1.0], [2.0])
    with pytest.raises(AttributeError):
        f.values = np.array([3.0])
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    assert f.values[0] == 2.0


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
    with pytest.raises(DomainError):
        distribution_function(f, -0.1)


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
    mid = sample_steps(lambda t: t, edges, rule="midpoint")
    assert np.array_equal(mid.values, [0.5, 1.5])
    left = sample_steps(lambda t: t + 1.0, edges, rule="left")
    assert np.array_equal(left.values, [1.0, 2.0])
    with pytest.raises(DomainError):
        sample_steps(lambda t: t, edges, rule="right")


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
    # the total length stays finite; end^(q/p) overflows for q/p = 2
    f = StepFunction([0.0, 1e308, 1.7e308], [1.0, 1.0])
    with pytest.raises(DomainError, match="overflows the float range"):
        lorentz_norm(f, (2.0, 4.0))
    assert lorentz_norm(f, (2.0, math.inf)) == \
        pytest.approx(1.7e308 ** 0.5, rel=1e-15)
