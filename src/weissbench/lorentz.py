"""Step functions, exact rearrangement, and Lorentz quasi-norms.

A StepFunction stores a magnitude profile: nonnegative values on half-open
intervals [b_i, b_i+1), zero outside. Every float is a dyadic rational, so
distribution functions and rearranged breakpoints are computed exactly as
integer numerators over one common power of two, each result rounded once;
a function and its decreasing rearrangement therefore have bit-identical
distribution functions. The numerators are Python ints held in NumPy object
arrays, so each step (shift, difference, prefix sum, rounding) is one pass
over the array. Both read one table of exact levels per function:
the first exact call builds it in O(n log n) and keeps it on the function,
each later distribution_function call is one O(log n) search, and results
are unchanged by the caching, bit for bit. Norms use a separate vectorized
float path that divides the values by their maximum, which keeps every
power of a value at most 1 and makes dyadic rescalings exactly equivariant.
"""
import csv
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _Immutable, _array, _real

__all__ = [
    "LorentzIndex",
    "StepFunction",
    "distribution_function",
    "decreasing_rearrangement",
    "lorentz_norm",
    "holder_pairing",
    "sample_steps",
]

_SLICE = 1 << 16  # entries per pass of lorentz_norm's elementwise product
_TINY = 2.0**-1021  # above the subnormals, with a binade to spare


@dataclass(frozen=True)
class LorentzIndex:
    """Primary index p > 1 and secondary index q in [1, inf]."""

    p: float
    q: float

    def __post_init__(self):
        p, q = _real(self.p, "p"), _real(self.q, "q")
        if not (p > 1.0 and math.isfinite(p)):
            raise DomainError(f"p must be a finite real > 1, got {self.p}")
        if not (q == math.inf or q >= 1.0):
            raise DomainError(f"q must be >= 1 or inf, got {self.q}")


class StepFunction(_Immutable):
    """Nonnegative step function on [b_0, b_n) with strictly increasing b.

    Immutable, like DiagonalSystem, but it does not copy: a float64 NumPy
    array is kept as given and made read-only, so the caller's own array
    is frozen with it (a copy would double a million-point grid). Lists and
    arrays of other dtypes are converted, which leaves the caller's object
    alone. Strings and complex values raise DomainError.
    """

    __slots__ = ("breakpoints", "values", "_levels")

    def __init__(self, breakpoints, values):
        b, v = _array(breakpoints, "breakpoints"), _array(values, "values")
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1 or v.size == 0:
            raise DomainError("need n+1 breakpoints for n >= 1 values")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
            raise DomainError("breakpoints and values must be finite")
        if b[0] < 0.0:
            raise DomainError("breakpoints must be nonnegative")
        if not np.all(b[1:] > b[:-1]):
            raise DomainError("breakpoints must be strictly increasing "
                              "(zero-length segments are rejected)")
        if np.any(v < 0.0):
            raise DomainError("values are magnitudes and must be >= 0")
        # _levels is built by _level_table
        self._freeze(breakpoints=b, values=v, _levels=None)

    @property
    def lengths(self):
        return np.diff(self.breakpoints)

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("breakpoint,value\n")
            for b, v in zip(self.breakpoints[:-1], self.values):
                fh.write(f"{b:.17g},{v:.17g}\n")
            fh.write(f"{self.breakpoints[-1]:.17g},\n")

    @classmethod
    def read_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["breakpoint", "value"]:
                raise DomainError(f"expected header 'breakpoint,value' in {path}")
            rows = [row for row in reader if row]
        if any(len(row) != 2 for row in rows):
            raise DomainError(f"malformed step data in {path}: every row "
                              "needs exactly two cells")
        if not rows or any(row[1] == "" for row in rows[:-1]) \
                or rows[-1][1] != "":
            raise DomainError(f"malformed step data in {path}: the final row "
                              "must carry an empty value cell")
        try:
            bs = [float(row[0]) for row in rows]
            vs = [float(row[1]) for row in rows[:-1]]
        except ValueError as exc:
            raise DomainError(f"malformed step data in {path}: {exc}") \
                from None
        return cls(bs, vs)


def _dyadic_numerators(b):
    """Exact integers n and one shift with b[i] == n[i] * 2**shift."""
    mant, exp = np.frexp(b)
    mant = np.ldexp(mant, 53).astype(np.int64)  # exact: 53-bit significands
    low = int(exp[mant != 0].min())
    n = mant.astype(object)
    n <<= np.maximum(exp - low, 0)  # frexp(0.0) has exponent 0
    return n, low - 53


def _round_dyadic(n, shift):
    """n * 2**shift rounded once, n an int or an object array of ints (int
    true division and int-to-float are correctly rounded), as float(s).

    An array is converted to float, correctly rounded, and scaled by
    2**shift, which is exact where the result is normal; the exact int
    route stays for a numerator beyond the float range and for a nonzero
    result below _TINY, whose scaling could round a second time.
    """
    if isinstance(n, np.ndarray):
        with suppress(OverflowError), np.errstate(over="ignore"):
            x = n.astype(float)  # raises OverflowError beyond the float range
            y = np.ldexp(x, shift)
            size = np.abs(y)
            if np.all((_TINY <= size) & (size < math.inf) | (x == 0.0)):
                return y
    x = n / (1 << -shift) if shift < 0 else n * (1 << shift)
    return x.astype(float) if isinstance(x, np.ndarray) else float(x)


def _level_table(f):
    """(neg, m, shift): f's exact levels, built on first use and kept on f.

    neg holds the distinct positive values negated, so increasing; m[j] *
    2**shift is the exact measure of {f > -neg[j]}, with m[0] = 0 and m[-1]
    the measure of {f > 0}.
    """
    if f._levels is None:
        order = np.argsort(-f.values, kind="stable")
        order = order[f.values[order] > 0.0]  # the zero tail adds nothing
        values = f.values[order]
        ends = np.flatnonzero(values != np.append(values[1:], 0.0))
        n, shift = _dyadic_numerators(f.breakpoints)
        d = np.diff(n)[order]
        np.cumsum(d, out=d)  # in place: no second array of big ints
        object.__setattr__(f, "_levels", (
            -values[ends], np.concatenate(([0], d[ends])), shift))
    return f._levels


def distribution_function(f, alpha):
    """Exact measure of { t : f(t) > alpha } for alpha in [0, inf], rounded.

    alpha is one number; an array, even of one entry, raises DomainError.
    """
    if np.ndim(alpha) != 0 or not alpha >= 0.0:
        raise DomainError(f"alpha must be a number >= 0, got {alpha}")
    neg, m, shift = _level_table(f)
    return _round_dyadic(m[np.searchsorted(neg, -alpha)], shift)


def decreasing_rearrangement(f):
    """Equimeasurable non-increasing step function starting at 0.

    Segments are stably sorted by value in non-increasing order and equal
    values are merged. Breakpoints are exact prefix sums of the segment
    lengths, held as integer numerators over one common power of two and
    each rounded once, which is what makes equimeasurability with the input
    hold exactly rather than to roundoff. Domain: a level far shorter than
    the measure sorted ahead of it (1e-16 behind 100) ends on a float equal
    to the preceding breakpoint; it has no float representation, and the
    call raises DomainError giving its length and the preceding measure.
    The result comes with its level table, so its first exact query is a
    search too.
    """
    neg, levels, shift = _level_table(f)
    if neg.size == 0:  # identically zero input: keep a zero segment
        return StepFunction(f.breakpoints[:2] - f.breakpoints[0], [0.0])
    breakpoints = _round_dyadic(levels, shift)
    i = int(np.argmin(breakpoints[1:] > breakpoints[:-1]))  # first collapse
    if breakpoints[i + 1] <= breakpoints[i]:
        length = _round_dyadic(levels[i + 1] - levels[i], shift)
        raise DomainError(f"rearranged level of length {length:.6g} has no "
                          "float representation: its end rounds onto the "
                          f"preceding measure {breakpoints[i]:.17g}")
    g = StepFunction(breakpoints, -neg)
    # g's values are distinct, positive and decreasing from 0, so its levels
    # are its own breakpoints: the table the first query would build
    object.__setattr__(g, "_levels", (neg, *_dyadic_numerators(g.breakpoints)))
    return g


def lorentz_norm(f, idx):
    """Lorentz L^{p,q} quasi-norm of a step function.

    Over the non-increasingly sorted segments with ends e_i and lengths w_i,
    the weak-type peaks v_i e_i^{1/p} have maximum top (the q = inf result);
    for q < inf this is the exact step integral
        top ( sum_i (peak_i/top)^q (p/q) (1 - (1 - w_i/e_i)^{q/p}) )^{1/q},
    whose terms are at most p/q and sum to at least p/q, so no power under-
    or overflows. Values are divided by their maximum first, so power-of-two
    rescalings are exact. Values already non-increasing skip the sort: its
    stable order is then the identity, ties included, so the result is the
    same bit for bit. Raises DomainError only when the norm overflows.
    """
    if not isinstance(idx, LorentzIndex):
        idx = LorentzIndex(*idx)
    p, q = idx.p, idx.q
    v = f.values
    m = float(np.max(v))
    if m == 0.0:
        return 0.0
    w = f.lengths
    if not np.all(v[1:] <= v[:-1]):
        order = np.argsort(-v, kind="stable")
        w, v = w[order], v[order]
    peak = np.cumsum(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w /= peak  # w_i / e_i
        peak **= 1.0 / p
        for i in range(0, peak.size, _SLICE):  # no full-length v / m
            peak[i:i + _SLICE] *= v[i:i + _SLICE] / m
        top = float(np.max(peak))
        if q != math.inf:
            np.log1p(np.negative(w, out=w), out=w)
            np.expm1(np.multiply(w, q / p, out=w), out=w)
            np.power(np.divide(peak, top, out=peak), q, out=peak)
            peak *= w
            top *= (-(p / q) * float(np.sum(peak))) ** (1.0 / q)
        norm = m * top
    if not math.isfinite(norm):
        raise DomainError(f"L^({p},{q}) norm overflows the float range")
    return norm


def holder_pairing(f, g):
    """Integral of f*g over the common refinement of both breakpoint sets."""
    cuts = np.union1d(f.breakpoints, g.breakpoints)
    if cuts.size < 2:
        return 0.0
    mid = 0.5 * (cuts[1:] + cuts[:-1])

    def on_cells(h):
        idx = np.searchsorted(h.breakpoints, mid, side="right") - 1
        inside = (idx >= 0) & (idx < h.values.size)
        out = np.zeros_like(mid)
        out[inside] = h.values[idx[inside]]
        return out

    return float(np.dot(on_cells(f) * on_cells(g), np.diff(cuts)))


def sample_steps(fn, edges):
    """StepFunction sampling a callable at the cell centers of a grid
    (second-order for smooth fn)."""
    edges = _array(edges, "edges")
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("edges must be a 1-d array of at least 2 points")
    return StepFunction(edges, fn(0.5 * (edges[1:] + edges[:-1])))
