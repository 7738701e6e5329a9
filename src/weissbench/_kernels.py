"""Panel quadrature kernel: Gauss sums of an integrand over panel meshes.

gauss_contributions evaluates, per panel, (h/2) * sum_i w_i * f(s_i) on the
Gauss nodes s_i, for an elementwise integrand f, in passes of at most
_BLOCK panels so temporaries stay bounded on any mesh; powcos_panels does so
for (shift + s)^a * cos(freq * s), with one shift or one per panel. Both
return the per-panel array and sum nothing: quadrature._halving_estimate is
the one reducer of every route.
"""
import numpy as np

__all__ = ["gauss_contributions", "powcos_panels"]

_BLOCK = 32768  # panels per array pass


def gauss_contributions(f, edges, nodes, weights, *panel_args):
    """Per-panel Gauss sums of f over the mesh edges.

    f(s, *args) gets the nodes of one pass, a row per panel, and each array
    of panel_args (one value per panel) sliced to that pass as a column.
    """
    out = None
    for i in range(0, max(edges.size - 1, 1), _BLOCK):
        e = edges[i:i + _BLOCK + 1]
        h2 = 0.5 * np.diff(e)
        s = 0.5 * (e[1:] + e[:-1])[:, None] + h2[:, None] * nodes[None, :]
        part = h2 * (f(s, *(a[i:i + _BLOCK, None] for a in panel_args))
                     @ weights)
        if out is None:
            out = np.empty(max(edges.size - 1, 0), dtype=part.dtype)
        out[i:i + _BLOCK] = part
    return out


def powcos_panels(a, shift, freq, edges, nodes, weights):
    return gauss_contributions(
        lambda s, c: np.power(c + s, a) * np.cos(freq * s),
        edges, nodes, weights,
        np.broadcast_to(shift, max(edges.size - 1, 0)))
