"""Step functions, exact rearrangement, and Lorentz quasi-norms.

A StepFunction stores a magnitude profile: nonnegative values on half-open
intervals [b_i, b_i+1), zero outside. Distribution functions and rearranged
breakpoints are computed in exact rational arithmetic and rounded once, so
a function and its decreasing rearrangement have bit-identical distribution
functions. Norms use a separate vectorized float path normalized by a
power of two, which makes dyadic rescalings exactly equivariant.
"""
import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "LorentzIndex",
    "StepFunction",
    "distribution_function",
    "decreasing_rearrangement",
    "lorentz_norm",
    "holder_pairing",
    "sample_steps",
]


@dataclass(frozen=True)
class LorentzIndex:
    """Primary index p > 1 and secondary index q in [1, inf]."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise DomainError(f"p must be a finite real > 1, got {self.p}")
        if not (self.q == math.inf or self.q >= 1.0):
            raise DomainError(f"q must be >= 1 or inf, got {self.q}")


class StepFunction:
    """Nonnegative step function on [b_0, b_n) with strictly increasing b."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1 or v.size == 0:
            raise DomainError("need n+1 breakpoints for n >= 1 values")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
            raise DomainError("breakpoints and values must be finite")
        if b[0] < 0.0:
            raise DomainError("breakpoints must be nonnegative")
        if not np.all(np.diff(b) > 0.0):
            raise DomainError("breakpoints must be strictly increasing "
                              "(zero-length segments are rejected)")
        if np.any(v < 0.0):
            raise DomainError("values are magnitudes and must be >= 0")
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

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


def _exact_lengths(f):
    """Segment lengths as exact rationals of the stored breakpoints."""
    b = f.breakpoints
    fb = [Fraction(x) for x in b]
    return [fb[i + 1] - fb[i] for i in range(len(b) - 1)]


def distribution_function(f, alpha):
    """Exact measure of { t : f(t) > alpha }, rounded once to float."""
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    total = Fraction(0)
    for v, ln in zip(f.values, _exact_lengths(f)):
        if v > alpha:
            total += ln
    return float(total)


def decreasing_rearrangement(f):
    """Equimeasurable non-increasing step function starting at 0.

    Segments are stably sorted by value in non-increasing order and equal
    values are merged. Breakpoints are exact rational prefix sums of exact
    segment lengths, each rounded once, which is what makes equimeasurability
    with the input hold exactly rather than to roundoff.
    """
    order = np.argsort(-f.values, kind="stable")
    lengths = _exact_lengths(f)
    breakpoints = [0.0]
    values = []
    acc = Fraction(0)
    prev = None
    for idx in order:
        v = f.values[idx]
        if v == 0.0:
            break  # zero tail adds nothing: the function is 0 off-domain
        if prev is not None and v != prev:
            breakpoints.append(float(acc))
            values.append(prev)
        acc += lengths[idx]
        prev = v
    if prev is None:  # identically zero input: keep a zero segment
        return StepFunction(f.breakpoints[:2] - f.breakpoints[0], [0.0])
    breakpoints.append(float(acc))
    values.append(prev)
    return StepFunction(breakpoints, values)


def lorentz_norm(f, idx):
    """Lorentz L^{p,q} quasi-norm of a step function.

    For q < inf this evaluates the exact step integral
        ( sum_i v_i^q * (p/q) * (end_i^{q/p} - start_i^{q/p}) )^{1/q}
    over the non-increasingly sorted segments; for q = inf it returns
    max_i v_i * end_i^{1/p}, the supremum of t^{1/p} f*(t). Values are
    normalized by a power of two before exponentiation so that rescaling
    the input by any power of two rescales the result exactly. Raises
    DomainError when the evaluation overflows the float range: a total
    length whose cumulative sum is not finite, or powers of the ends or
    values that are not.
    """
    if not isinstance(idx, LorentzIndex):
        idx = LorentzIndex(*idx)
    p, q = idx.p, idx.q
    v = f.values
    m = float(np.max(v))
    if m == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(m)[1] - 1)  # 2^k with 2^k <= max < 2^(k+1)
    order = np.argsort(-v, kind="stable")
    u = v[order] / scale
    w = f.lengths[order]
    ends = np.cumsum(w)
    with np.errstate(over="ignore", invalid="ignore"):
        if q == math.inf:
            norm = scale * float(np.max(u * ends ** (1.0 / p)))
        else:
            starts = ends - w
            e = q / p
            s = float(np.sum(u**q * ((p / q) * (ends**e - starts**e))))
            norm = scale * s ** (1.0 / q)
    if not math.isfinite(norm):
        raise DomainError(f"L^({p},{q}) evaluation overflows the float range "
                          f"(total length {ends[-1]:.6g})")
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


def sample_steps(fn, edges, rule="midpoint"):
    """StepFunction sampling a callable on the cells of a grid.

    rule 'midpoint' evaluates at cell centers (second-order for smooth fn);
    rule 'left' evaluates at left endpoints (exact cell suprema for
    non-increasing fn).
    """
    edges = np.asarray(edges, dtype=float)
    if rule == "midpoint":
        pts = 0.5 * (edges[1:] + edges[:-1])
    elif rule == "left":
        pts = edges[:-1]
    else:
        raise DomainError(f"unknown sampling rule {rule!r}")
    return StepFunction(edges, np.asarray(fn(pts), dtype=float))
