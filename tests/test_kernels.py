"""The panel quadrature kernel against a per-node reference loop, and the
one reducer, quadrature._halving_estimate, that sums its panels."""
import math

import numpy as np

from weissbench import _kernels
from weissbench._kernels import (_BLOCK, gauss_contributions, pad_groups,
                                powcos_panels)
from weissbench.quadrature import (_EPS, _graded_mesh, _halving_estimate,
                                   singular_end)

NODES, WEIGHTS = (np.ascontiguousarray(a)
                  for a in np.polynomial.legendre.leggauss(12))


def meshes(rng):
    yield np.linspace(0.0, math.pi, 65)
    yield np.concatenate(([0.0], math.pi * 0.5 ** np.arange(40, 0, -1),
                          np.linspace(math.pi / 2, math.pi, 9)[1:]))
    yield np.concatenate(([0.0], np.sort(rng.uniform(0.1, 10.0, 30))))


def reference_contributions(g, shift, freq, edges):
    """Per panel: (contribution, its absolute integrand sum), by a plain
    per-node loop with math.fsum, independent of any array kernel; the
    cases' g - 1 is exact, so the power takes that exponent directly."""
    out = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        h2, c = 0.5 * (hi - lo), 0.5 * (hi + lo)
        terms = [w * (shift + (c + h2 * x)) ** (g - 1.0)
                 * math.cos(freq * (c + h2 * x))
                 for x, w in zip(NODES.tolist(), WEIGHTS.tolist())]
        out.append((h2 * math.fsum(terms),
                    h2 * math.fsum(abs(t) for t in terms)))
    return out


def test_kernels_match_per_node_reference():
    rng = np.random.default_rng(31)
    cases = [(g, shift, freq)
             for g in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
             for shift in (0.0, 2.0 * math.pi)
             for freq in (0.0, 1.0, 5.0)]
    for edges in meshes(rng):
        for g, shift, freq in cases:
            ref = reference_contributions(g, shift, freq, edges)
            contrib = powcos_panels(g, shift, freq, edges)
            assert contrib.shape == (edges.size - 1,)
            for got, (want, scale) in zip(contrib.tolist(), ref):
                assert abs(got - want) <= 1e-14 * scale


def test_panel_sums_do_not_depend_on_their_place_in_a_call():
    # a panel's Gauss sum, real or complex, with a per-panel argument or
    # not, is the same bit for bit in any sub-mesh holding it: at every
    # offset mod 4, across the pass boundary, for 1 to 9 panels
    rng = np.random.default_rng(5)
    edges = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1e-2,
                                                         _BLOCK + 16))))
    lam = rng.uniform(0.5, 2.0, edges.size - 1) * (1.0 + 30.0j)

    def cplx(e, lam):
        return gauss_contributions(
            lambda s, m, h2, z: np.exp(-z * s) / np.sqrt(1.0 + s), e, lam)

    real = (lambda e, shift: powcos_panels(0.25, shift, 3.0, e),
            np.linspace(0.0, 1.0, edges.size - 1))
    for contributions, arg in (real, (cplx, lam)):
        full = contributions(edges, arg)
        for start in (*range(8), *range(_BLOCK - 12, _BLOCK + 4)):
            for n in range(1, 10):
                part = contributions(edges[start:start + n + 1],
                                     arg[start:start + n])
                assert np.array_equal(part, full[start:start + n])
        assert contributions(edges[:1], arg[:0]).shape == (0,)
    # the padding: the last entry repeated to whole groups of n rows, and
    # whole groups returned as they are, not copied
    for n in range(9):
        head = edges[:n + 1]
        padded = pad_groups(head, n)
        assert np.array_equal(padded, np.r_[head, [edges[n]] * (-n % 4)])
        assert (padded is head) == (n % 4 == 0)


def test_panel_sums_do_not_depend_on_the_pass_size(monkeypatch):
    # the same per-panel sums, bit for bit, whatever the pass size: meshes
    # over several passes of the largest size, ending in a partial group
    rng = np.random.default_rng(17)
    for n in (3 * 8192 + 3, 2048 + 1):
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-4, 1e-3, n))))
        lam = rng.uniform(0.5, 2.0, n) * (1.0 + 30.0j)
        shift = np.linspace(0.0, 1.0, n)
        sums = {}
        for block in (4, 2048, 8192):
            monkeypatch.setattr(_kernels, "_BLOCK", block)
            sums[block] = (
                powcos_panels(0.25, 0.0, 3.0, edges),
                powcos_panels(1.5, shift, 7.0, edges),
                gauss_contributions(
                    lambda s, m, h2, z: np.exp(-z * s) / np.sqrt(1.0 + s),
                    edges, lam))
        for block in (4, 2048):
            for got, want in zip(sums[block], sums[8192]):
                assert got.shape == (n,)
                assert np.array_equal(got, want)


def fine_panels(contributions, edges):
    """_halving_estimate's result and the fine panels it summed."""
    seen = []

    def record(e):
        seen.append(contributions(e))
        return seen[-1]

    return _halving_estimate(record, edges), seen[-1]


def test_grouped_estimate_equals_separate_groups():
    g = 0.25
    first, _, _ = singular_end(g, 1.0, math.pi, 0.5 * math.pi)
    edges = np.append(first, 0.5 * math.pi * np.arange(3, 41))
    starts = np.r_[0, first.size - 1:edges.size - 1:2]
    ends = np.r_[starts[1:], edges.size - 1]

    def kernel(e):
        return powcos_panels(g, 0.0, 1.0, e)

    fine, est, abssum = _halving_estimate(kernel, edges, starts)
    assert fine.shape == est.shape == abssum.shape == (starts.size,)
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        (f,), (e,), (s,) = _halving_estimate(kernel, edges[lo:hi + 1])
        assert (fine[i], est[i], abssum[i]) == (f, e, s)


def test_pairwise_sum_stays_under_the_roundoff_floor():
    # the halving of a mesh just inside MAX_PANELS, and a complex
    # Laplace-style integrand that cancels over thousands of oscillations
    n = 199_000
    real = (lambda e: powcos_panels(0.25, 0.0, float(n), e),
            singular_end(0.25, float(n), math.pi, math.pi / n)[0])
    lam = 1.0 + 60000.0j
    cplx = (lambda e: gauss_contributions(
        lambda s, m, h2: np.exp(-lam * s) / np.sqrt(1.0 + s), e),
            _graded_mesh(10.0, math.pi / lam.imag, 1e-12))
    for contributions, edges in (real, cplx):
        ((fine,), _, (abssum,)), c = fine_panels(contributions, edges)
        assert c.size > 300_000
        exact = complex(math.fsum(c.real), math.fsum(c.imag))
        assert abs(abssum - math.fsum(np.abs(c))) <= 64.0 * _EPS * abssum
        assert abs(fine - exact) <= 64.0 * _EPS * abssum
