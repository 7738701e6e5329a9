"""Panel quadrature kernel: Gauss sums of an integrand over panel meshes.

gauss_contributions evaluates, per panel, (h/2) * sum_i w_i * f(s_i) on the
Gauss nodes s_i, for an elementwise integrand f, in passes of at most
_BLOCK panels so temporaries stay bounded on any mesh; powcos_contributions
does so for (shift + s)^a * cos(freq * s). powcos_panels returns the total and
the sum of absolute panel contributions (used for roundoff floors in error
estimates), both accumulated with math.fsum so results are deterministic
and correctly rounded regardless of panel count.
"""
import math

import numpy as np

__all__ = ["gauss_contributions", "powcos_contributions", "powcos_panels"]

_BLOCK = 32768  # panels per array pass


def gauss_contributions(f, edges, nodes, weights):
    parts = []
    for i in range(0, max(edges.size - 1, 1), _BLOCK):
        e = edges[i:i + _BLOCK + 1]
        h2 = 0.5 * np.diff(e)
        s = 0.5 * (e[1:] + e[:-1])[:, None] + h2[:, None] * nodes[None, :]
        parts.append(h2 * (f(s) @ weights))
    return np.concatenate(parts)


def powcos_contributions(a, shift, freq, edges, nodes, weights):
    return gauss_contributions(
        lambda s: np.power(shift + s, a) * np.cos(freq * s),
        edges, nodes, weights)


def powcos_panels(a, shift, freq, edges, nodes, weights):
    contrib = powcos_contributions(a, shift, freq, edges, nodes, weights)
    return math.fsum(contrib), math.fsum(np.abs(contrib))
