"""Panel quadrature kernel: Gauss sums of an integrand over panel meshes.

gauss_contributions evaluates, per panel, (h/2) * sum_i w_i * f(s_i) on the
GAUSS_ORDER Gauss nodes s_i = m + (h/2) x_i of a panel with midpoint m,
for an elementwise integrand f, in passes of at most _BLOCK panels so
temporaries stay bounded; powcos_panels does so for x^g / x * cos(freq s),
x = shift + s, one shift or one per panel: x^(g-1) without rounding g - 1.
Both return the per-panel array; quadrature._halving_estimate sums it.
A pass is node-major: its nodes are a (GAUSS_ORDER, panels) array, a row a
node, and every per-panel quantity reaches f as a row, so each elementwise
pass of f runs along contiguous rows of panels. Its weighted sums are one
BLAS matrix-vector product on one C-contiguous transposed copy, a row a
panel: elementwise results do not depend on the layout, so that product
sees the same rows, and sums them the same way, as one on a panel-major
pass. OpenBLAS sums the last (rows mod 4) rows of a call, and every row of
a call with fewer than 4, in another order. So each pass repeats its last
edge, and each panel argument its last value, to whole 4-row groups
(pad_groups, which semigroup.orbit_callable applies to its points too): a
panel's sum is the same, bit for bit, wherever it sits in a call.
"""
import numpy as np

__all__ = ["GAUSS_ORDER", "gauss_contributions", "pad_groups", "powcos_panels"]

GAUSS_ORDER = 12
_NODES, _WEIGHTS = (np.ascontiguousarray(a)
                    for a in np.polynomial.legendre.leggauss(GAUSS_ORDER))
_BLOCK = 1024  # panels per array pass


def pad_groups(a, n):
    """a with its last entry repeated -n mod 4 times, so that n rows make
    whole 4-row groups; a itself, not a copy, when they already do."""
    return np.pad(a, (0, -n % 4), "edge") if n % 4 else a


def gauss_contributions(f, edges, *panel_args):
    """Per-panel Gauss sums of f over the mesh edges.

    f(s, m, h2, *args) gets the nodes of one pass, a row a node and a
    column a panel, and the panels' midpoints m, half-widths h2 and each
    array of panel_args (one value per panel) sliced to that pass, as rows;
    it returns its values in s's layout. Columns past the pass's panels are
    zero-width copies of its last, and dropped.
    """
    out = None
    for i in range(0, max(edges.size - 1, 1), _BLOCK):
        n = max(min(edges.size - 1 - i, _BLOCK), 0)
        e, *args = (pad_groups(a, n) for a in (
            edges[i:i + _BLOCK + 1], *(a[i:i + _BLOCK] for a in panel_args)))
        m, h2 = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
        values = f(_NODES[:, None] * h2 + m, m, h2, *args)
        part = h2 * (np.ascontiguousarray(values.T) @ _WEIGHTS)
        if out is None:
            out = np.empty(max(edges.size - 1, 0), dtype=part.dtype)
        out[i:i + _BLOCK] = part[:n]
    return out


def powcos_panels(g, shift, freq, edges):
    return gauss_contributions(
        lambda s, m, h2, c: np.power(c + s, g) / (c + s) * np.cos(freq * s),
        edges, np.broadcast_to(shift, max(edges.size - 1, 0)))
