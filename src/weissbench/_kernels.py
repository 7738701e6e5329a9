"""Panel quadrature kernel: Gauss sums of an integrand over panel meshes.

gauss_contributions evaluates, per panel, (h/2) * sum_i w_i * f(s_i) on the
Gauss nodes s_i = m + (h/2) x_i of a panel with midpoint m, for an
elementwise integrand f, in passes of at most _BLOCK panels so temporaries
stay bounded on any mesh; powcos_panels does so for x^g / x * cos(freq s),
x = shift + s, with one shift or one per panel: x^(g-1) without rounding
the exponent g - 1. Both return the per-panel array and sum nothing:
quadrature._halving_estimate is the one reducer of every route.
"""
import numpy as np

__all__ = ["gauss_contributions", "powcos_panels"]

_BLOCK = 8192  # panels per array pass, a multiple of BLAS's 4-row groups


def gauss_contributions(f, edges, nodes, weights, *panel_args):
    """Per-panel Gauss sums of f over the mesh edges.

    f(s, m, h2, *args) gets the nodes of one pass, a row per panel, the
    panels' midpoints m and half-widths h2 as columns, and each array of
    panel_args (one value per panel) sliced to that pass as a column.
    """
    out = None
    for i in range(0, max(edges.size - 1, 1), _BLOCK):
        e = edges[i:i + _BLOCK + 1]
        m, h2 = 0.5 * (e[1:] + e[:-1])[:, None], 0.5 * np.diff(e)[:, None]
        s = m + h2 * nodes[None, :]
        part = h2[:, 0] * (f(s, m, h2, *(a[i:i + _BLOCK, None]
                                         for a in panel_args)) @ weights)
        if out is None:
            out = np.empty(max(edges.size - 1, 0), dtype=part.dtype)
        out[i:i + _BLOCK] = part
    return out


def powcos_panels(g, shift, freq, edges, nodes, weights):
    return gauss_contributions(
        lambda s, m, h2, c: np.power(c + s, g) / (c + s) * np.cos(freq * s),
        edges, nodes, weights,
        np.broadcast_to(shift, max(edges.size - 1, 0)))
