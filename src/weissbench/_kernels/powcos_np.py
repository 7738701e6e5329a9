"""NumPy implementation of the panel quadrature kernel.

powcos_contributions evaluates, per panel, (h/2) * sum_i w_i *
(shift + s)^a * cos(freq * s) on Gauss nodes. powcos_panels returns the
total and the sum of absolute panel contributions (used for roundoff floors
in error estimates), both accumulated with math.fsum so results are
deterministic and correctly rounded regardless of panel count.
"""
import math

import numpy as np


def powcos_contributions(a, shift, freq, edges, nodes, weights):
    h2 = 0.5 * np.diff(edges)
    c = 0.5 * (edges[1:] + edges[:-1])
    s = c[:, None] + h2[:, None] * nodes[None, :]
    f = np.power(shift + s, a) * np.cos(freq * s)
    return h2 * (f @ weights)


def powcos_panels(a, shift, freq, edges, nodes, weights):
    contrib = powcos_contributions(a, shift, freq, edges, nodes, weights)
    return math.fsum(contrib), math.fsum(np.abs(contrib))
