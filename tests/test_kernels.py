"""The panel quadrature kernel against a per-node reference loop and its
former row-major formula, and the one reducer,
quadrature._halving_estimate, that sums its panels."""
import math

import numpy as np
import pytest

from weissbench import _kernels, laplace_quadrature, quadrature
from weissbench._kernels import (_BLOCK, gauss_contributions, pad_groups,
                                powcos_panels)
from weissbench.cli import _random_finite_system
from weissbench.quadrature import (_EPS, _graded_meshes, _halving_estimate,
                                   singular_end)
from weissbench.semigroup import orbit_callable

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


def row_major_contributions(f, edges, *panel_args):
    """The kernel's former row-major formula, kept as an oracle: a pass's
    nodes are a (panels, GAUSS_ORDER) array, a row a panel, and m, h2 and
    each panel argument reach f as columns."""
    out = None
    for i in range(0, max(edges.size - 1, 1), _kernels._BLOCK):
        n = max(min(edges.size - 1 - i, _kernels._BLOCK), 0)
        e, *args = (pad_groups(a, n) for a in (
            edges[i:i + _kernels._BLOCK + 1],
            *(a[i:i + _kernels._BLOCK] for a in panel_args)))
        m, h2 = 0.5 * (e[1:] + e[:-1])[:, None], 0.5 * np.diff(e)[:, None]
        part = h2[:, 0] * (f(m + h2 * NODES, m, h2,
                             *(a[:, None] for a in args)) @ WEIGHTS)
        if out is None:
            out = np.empty(max(edges.size - 1, 0), dtype=part.dtype)
        out[i:i + _kernels._BLOCK] = part[:n]
    return out


def row_major_powcos(g, freq):
    return lambda s, m, h2, c: \
        np.power(c + s, g) / (c + s) * np.cos(freq * s)


def row_major_laplace(orbit):
    """laplace_quadrature's split-exponential integrand, row-major."""
    def integrand(s, m, h2, neg_lam):
        neg_lam = np.where(h2 < 0.0, 0.0, neg_lam)
        z = np.empty(s.shape, dtype=complex)
        pair = z[:, 6:]
        np.multiply(neg_lam * h2, NODES[6:], out=pair)
        np.exp(pair, out=pair)
        mid = np.exp(neg_lam * m)
        np.divide(mid, pair[:, ::-1], out=z[:, :6])
        pair *= mid
        z *= np.asarray(orbit(s.ravel())).reshape(s.shape)
        return z

    return integrand


def laplace_integrand(orbit):
    """The integrand laplace_quadrature hands the kernel, caught on its
    way there in a one-point call."""
    caught = []

    def catch(f, edges, *args):
        caught.append(f)
        return gauss_contributions(f, edges, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "gauss_contributions", catch)
        laplace_quadrature(orbit, 1.0 + 2.0j, T=5.0, decay=(10.0, 0.0))
    return caught[0]


def test_node_major_passes_equal_the_row_major_formula():
    # powcos_panels at one shift and at one a panel, and the Laplace
    # integrand on an orbit (with a discarded join of negative width),
    # equal the row-major oracle bit for bit, on sub-meshes that start at
    # every offset mod 4 and end on either side of a pass boundary
    rng = np.random.default_rng(11)
    n = 2 * _BLOCK + 24
    edges = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1e-2, n))))
    edges[_BLOCK + 5:] -= 0.5 * edges[_BLOCK + 5]  # a join panel, h2 < 0
    shift = np.linspace(0.0, 3.0, n)
    neg_lam = -rng.uniform(0.5, 40.0, n) * np.exp(1j * rng.uniform(-1.4,
                                                                     1.4, n))
    system, xi = _random_finite_system(np.random.default_rng(3))
    orbit = orbit_callable(system, xi)
    cases = ((lambda e, c: powcos_panels(0.25, 0.0, 3.0, e),
              lambda e, c: row_major_contributions(
                  row_major_powcos(0.25, 3.0), e, np.zeros(e.size - 1)),
              shift),
             (lambda e, c: powcos_panels(1.5, c, 7.0, e),
              lambda e, c: row_major_contributions(
                  row_major_powcos(1.5, 7.0), e, c), shift),
             (lambda e, z: gauss_contributions(laplace_integrand(orbit), e, z),
              lambda e, z: row_major_contributions(row_major_laplace(orbit),
                                                   e, z), neg_lam))
    for node_major, row_major, arg in cases:
        for start in range(4):
            for stop in (_BLOCK - 3, _BLOCK + 1, _BLOCK + 6, n):
                e, a = edges[start:stop + 1], arg[start:stop]
                got, want = node_major(e, a), row_major(e, a)
                assert got.dtype == want.dtype and got.shape == (e.size - 1,)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


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
            _graded_meshes([10.0], [math.pi / lam.imag], [1e-12])[0])
    for contributions, edges in (real, cplx):
        ((fine,), _, (abssum,)), c = fine_panels(contributions, edges)
        assert c.size > 300_000
        exact = complex(math.fsum(c.real), math.fsum(c.imag))
        assert abs(abssum - math.fsum(np.abs(c))) <= 64.0 * _EPS * abssum
        assert abs(fine - exact) <= 64.0 * _EPS * abssum
