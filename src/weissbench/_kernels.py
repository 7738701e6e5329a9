"""Panel quadrature kernel: Gauss sums of an integrand over panel meshes.

gauss_contributions evaluates, per panel, (h/2) * sum_i w_i * f(s_i) on the
Gauss nodes s_i, for an elementwise integrand f; powcos_contributions does
so for (shift + s)^a * cos(freq * s). powcos_panels returns the total and
the sum of absolute panel contributions (used for roundoff floors in error
estimates), both accumulated with math.fsum so results are deterministic
and correctly rounded regardless of panel count.
"""
import math

import numpy as np

__all__ = ["gauss_contributions", "powcos_contributions", "powcos_panels"]


def gauss_contributions(f, edges, nodes, weights):
    h2 = 0.5 * np.diff(edges)
    c = 0.5 * (edges[1:] + edges[:-1])
    s = c[:, None] + h2[:, None] * nodes[None, :]
    return h2 * (f(s) @ weights)


def powcos_contributions(a, shift, freq, edges, nodes, weights):
    return gauss_contributions(
        lambda s: np.power(shift + s, a) * np.cos(freq * s),
        edges, nodes, weights)


def powcos_panels(a, shift, freq, edges, nodes, weights):
    contrib = powcos_contributions(a, shift, freq, edges, nodes, weights)
    return math.fsum(contrib), math.fsum(np.abs(contrib))
