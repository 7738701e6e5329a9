"""Compiled and NumPy quadrature kernels satisfy one contract."""
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weissbench._kernels import (BACKEND, powcos_contributions,
                                 powcos_panels, powcos_panels_np)

NODES, WEIGHTS = (np.ascontiguousarray(a)
                  for a in np.polynomial.legendre.leggauss(12))


def meshes(rng):
    yield np.linspace(0.0, math.pi, 65)
    yield np.concatenate(([0.0], math.pi * 0.5 ** np.arange(40, 0, -1),
                          np.linspace(math.pi / 2, math.pi, 9)[1:]))
    yield np.concatenate(([0.0], np.sort(rng.uniform(0.1, 10.0, 30))))


def test_backend_selection_matches_environment():
    # The compiled kernel is optional: it is used exactly when its extension
    # has been built and WEISSBENCH_PURE_PYTHON is unset. find_spec locates
    # a built extension without importing it, so one that exists but fails
    # to import fails here; silently falling back would hide a packaging
    # failure.
    built = importlib.util.find_spec("weissbench._kernels._powcos") is not None
    if os.environ.get("WEISSBENCH_PURE_PYTHON"):
        assert BACKEND == "python"
    else:
        assert BACKEND == ("compiled" if built else "python")
    assert (powcos_panels is powcos_panels_np) == (BACKEND == "python")


def test_backends_agree_to_roundoff():
    # Gauss nodes are interior, so the integrand is never evaluated at the
    # panel edges and negative exponents stay finite on [0, L] meshes
    rng = np.random.default_rng(31)
    cases = [(a, shift, freq)
             for a in (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0)
             for shift in (0.0, 2.0 * math.pi)
             for freq in (0.0, 1.0, 5.0)]
    for edges in meshes(rng):
        for a, shift, freq in cases:
            v1, s1 = powcos_panels(a, shift, freq, edges, NODES, WEIGHTS)
            v2, s2 = powcos_panels_np(a, shift, freq, edges, NODES, WEIGHTS)
            scale = max(abs(v1), abs(v2), 1e-30)
            assert abs(v1 - v2) <= 1e-13 * max(scale, s1)
            assert abs(s1 - s2) <= 1e-13 * max(s1, 1e-30)


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
            for kernel in (powcos_panels, powcos_panels_np):
                v, s = kernel(a, shift, freq, edges, NODES, WEIGHTS)
                assert abs(v - value) <= floor
                assert abs(s - abs_sum) <= floor


def test_abs_sum_dominates_value():
    rng = np.random.default_rng(32)
    for edges in meshes(rng):
        v, s = powcos_panels(0.5, 0.0, 3.0, edges, NODES, WEIGHTS)
        assert s >= abs(v)


def test_forced_fallback_changes_backend_only():
    code = ("import weissbench as wb\n"
            "from weissbench.quadrature import singular_oscillatory_integral\n"
            "print(wb.BACKEND)\n"
            "print(repr(singular_oscillatory_integral(0.25, 17)))\n")
    env = dict(os.environ, WEISSBENCH_PURE_PYTHON="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    backend, value = out.stdout.split()
    assert backend == "python"
    from weissbench.quadrature import singular_oscillatory_integral
    here = singular_oscillatory_integral(0.25, 17)
    assert float(value) == pytest.approx(here, rel=1e-12)
