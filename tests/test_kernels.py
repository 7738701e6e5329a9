"""The panel quadrature kernel against a per-node reference loop."""
import math

import numpy as np

from weissbench._kernels import powcos_contributions, powcos_panels

NODES, WEIGHTS = (np.ascontiguousarray(a)
                  for a in np.polynomial.legendre.leggauss(12))


def meshes(rng):
    yield np.linspace(0.0, math.pi, 65)
    yield np.concatenate(([0.0], math.pi * 0.5 ** np.arange(40, 0, -1),
                          np.linspace(math.pi / 2, math.pi, 9)[1:]))
    yield np.concatenate(([0.0], np.sort(rng.uniform(0.1, 10.0, 30))))


def reference_contributions(a, shift, freq, edges):
    """Per panel: (contribution, its absolute integrand sum), by a plain
    per-node loop with math.fsum, independent of any array kernel."""
    out = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        h2, c = 0.5 * (hi - lo), 0.5 * (hi + lo)
        terms = [w * (shift + (c + h2 * x)) ** a * math.cos(freq * (c + h2 * x))
                 for x, w in zip(NODES.tolist(), WEIGHTS.tolist())]
        out.append((h2 * math.fsum(terms),
                    h2 * math.fsum(abs(t) for t in terms)))
    return out


def test_kernels_match_per_node_reference():
    rng = np.random.default_rng(31)
    cases = [(a, shift, freq)
             for a in (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0)
             for shift in (0.0, 2.0 * math.pi)
             for freq in (0.0, 1.0, 5.0)]
    for edges in meshes(rng):
        for a, shift, freq in cases:
            ref = reference_contributions(a, shift, freq, edges)
            contrib = powcos_contributions(a, shift, freq, edges,
                                           NODES, WEIGHTS)
            assert contrib.shape == (edges.size - 1,)
            for got, (want, scale) in zip(contrib.tolist(), ref):
                assert abs(got - want) <= 1e-14 * scale
            value = math.fsum(want for want, _ in ref)
            abs_sum = math.fsum(abs(want) for want, _ in ref)
            floor = 1e-14 * math.fsum(scale for _, scale in ref)
            v, s = powcos_panels(a, shift, freq, edges, NODES, WEIGHTS)
            assert abs(v - value) <= floor
            assert abs(s - abs_sum) <= floor


def test_abs_sum_dominates_value():
    rng = np.random.default_rng(32)
    for edges in meshes(rng):
        v, s = powcos_panels(0.5, 0.0, 3.0, edges, NODES, WEIGHTS)
        assert s >= abs(v)
