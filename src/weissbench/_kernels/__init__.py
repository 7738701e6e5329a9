"""Quadrature kernel backends.

The compiled Cython kernel is used when its module imported successfully and
the environment variable WEISSBENCH_PURE_PYTHON is unset or empty; otherwise
the NumPy implementation takes over. Both satisfy the same contract and agree
to roundoff, so backend choice never changes reported results beyond the
documented error estimates. powcos_contributions, the per-panel form used
by the vectorized period table, exists only in NumPy.
"""
import os

from .powcos_np import powcos_contributions
from .powcos_np import powcos_panels as powcos_panels_np

BACKEND = "python"
_ext = None
if not os.environ.get("WEISSBENCH_PURE_PYTHON"):
    try:
        from . import _powcos as _ext
        BACKEND = "compiled"
    except ImportError:
        _ext = None

if _ext is not None:
    powcos_panels = _ext.powcos_panels
else:
    powcos_panels = powcos_panels_np

__all__ = ["BACKEND", "powcos_contributions", "powcos_panels",
           "powcos_panels_np"]
