"""Diagonal semigroup observation systems.

A DiagonalSystem holds eigenvalue and observation rules (mu_k, c_k) for a
diagonal generator with exponentially stable semigroup e^{-mu_k t} and a
scalar observation functional. Orbits, resolvents, and Weiss quotients are
truncated series whose returned values always come with a certified tail
bound: terms inside the active range are summed exactly (fsum) and the part
beyond the smallest admissible index is bounded by measured geometric decay.
Observations take one point or a 1-d array of points; each point keeps its
own truncation, bit for bit the one a single-point call makes.
"""
import math
from typing import NamedTuple

import numpy as np

from .errors import DivergentSum, DomainError, TruncationOverflow

__all__ = [
    "DiagonalSystem",
    "CoefficientVector",
    "ObservedValue",
    "orbit_observation",
    "resolvent_observation",
    "orbit_callable",
    "weiss_quotient",
    "weiss_norm_orthonormal",
    "decay_profile",
    "decay_norm_orthonormal",
    "lambda_grid",
]

_RATIO_CAP = 0.9  # certified geometric decay needs ratios at most this
_EPS = float(np.finfo(float).eps)


def _upper_half_ratio(terms):
    """Largest finite ratio of consecutive terms in the upper half, or 0."""
    half = terms[terms.size // 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = half[1:] / half[:-1]
    ratios = ratios[np.isfinite(ratios) & (half[:-1] > 0.0)]
    return float(np.max(ratios)) if ratios.size else 0.0


class DiagonalSystem:
    """Diagonal generator with eigenvalues mu_k and observation weights c_k."""

    __slots__ = ("mu", "c", "n_active")

    def __init__(self, mu_rule, c_rule, n_active=64):
        if n_active < 2:
            raise DomainError("n_active must be at least 2")
        k = np.arange(n_active)
        mu = np.asarray([float(mu_rule(int(i))) for i in k])
        c = np.asarray([float(c_rule(int(i))) for i in k])
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(c))):
            raise DomainError("mu/c rules overflow float range inside n_active")
        if not (mu[0] > 0.0 and np.all(np.diff(mu) > 0.0)):
            raise DomainError("mu must be positive and strictly increasing")
        terms = np.abs(c) / mu
        if not math.isfinite(math.fsum(terms)):
            raise DomainError("sum |c_k|/mu_k overflows over active modes")
        if n_active >= 32 and _upper_half_ratio(terms) > 1.0:
            raise DomainError(
                "terms |c_k|/mu_k grow over the active modes; the "
                "resolvent series shows no sign of convergence")
        self.mu = mu
        self.c = c
        self.n_active = n_active

    @classmethod
    def default(cls, n_active=64):
        """mu_k = 4^k, c_k = 2^k."""
        return cls(lambda k: 4.0**k, lambda k: 2.0**k, n_active)

    @classmethod
    def sqrt_observation(cls, n_active=64):
        """mu_k = 2^k, c_k = mu_k^(1/2)."""
        return cls(lambda k: 2.0**k, lambda k: 2.0 ** (0.5 * k), n_active)


class CoefficientVector:
    """State expansion coefficients, finite or truncated from a rule.

    tail_sup is a caller-certified bound on |xi_k| for every k at and beyond
    len(values); 0.0 (the default) declares the vector finite. Square
    summability is deliberately not required.
    """

    __slots__ = ("values", "tail_sup")

    def __init__(self, values, tail_sup=0.0):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise DomainError("coefficients must be a finite 1-d float array")
        if not tail_sup >= 0.0:
            raise DomainError("tail_sup must be >= 0")
        self.values = v
        self.tail_sup = float(tail_sup)


class ObservedValue(NamedTuple):
    # over an array of points: arrays of values and tails, the largest count
    value: complex
    tail_bound: float
    n_terms: int

    def __float__(self):
        return float(self.value.real if isinstance(self.value, complex)
                     else self.value)


def _truncated_sum(terms, abs_terms, weights, tail_sup, tol, one, what):
    """Smallest-N truncation of each row of terms, tail certified below tol.

    Beyond the active range the tail is at most tail_sup times the sum of
    the per-mode factors in weights (c_k e^{-mu_k t} or c_k/mu_k); their
    measured decay must be geometric with non-increasing ratios at the end,
    which extends rigorously to log-convex growth rules like the default
    powers-of-two/four systems. Row i then keeps the smallest count N_i
    whose tail sum_{k>=N_i} |term_ik| + beyond_i is below tol, and sums
    those terms exactly (fsum). abs_terms and weights hold a row for every
    row of terms, or one shared by all; one returns the first row alone.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    beyond = np.zeros(len(weights))
    if tail_sup > 0.0:
        w = weights[:, -4:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = w[:, 1:] / w[:, :-1]
            steps = ratios[:, 1:] - ratios[:, :-1]
            r = ratios[:, -1]
            bound = tail_sup * w[:, -1] * r / (1.0 - r)
        live = w[:, -1:] != 0.0  # a row whose last weight underflowed: no tail
        uncertified = ~(ratios <= _RATIO_CAP)
        uncertified[:, 1:] |= steps > 1e-12
        if (live & uncertified).any():
            raise TruncationOverflow(
                f"{what}: cannot certify the tail beyond the "
                f"{weights.shape[1]} active modes (no certified geometric "
                "decay)")
        beyond = np.fmax(bound, 0.0)  # 0 or nan on rows without a tail: 0
    if beyond.max() >= tol:
        raise TruncationOverflow(
            f"{what}: tail beyond the active range is certified only to "
            f"{beyond.max():.3e}, above tolerance {tol:.3e}")
    suffix = np.zeros(abs_terms.shape)
    suffix[:, :-1] = abs_terms[:, :0:-1].cumsum(1)[:, ::-1]
    suffix *= 1.0 + 256.0 * _EPS  # cumsum roundoff must not undercut the bound
    bounds = suffix + beyond[:, None]
    first = (bounds < tol).argmax(1)  # the last column always passes
    share = len(terms) // len(bounds)  # a shared row serves every point
    counts = (first + 1).repeat(share)
    tails = bounds[np.arange(len(bounds)), first].repeat(share)
    if np.iscomplexobj(terms):
        sums = [complex(math.fsum(row[:n].real.tolist()),
                        math.fsum(row[:n].imag.tolist()))
                for row, n in zip(terms, counts)]
    else:
        sums = [math.fsum(row[:n].tolist()) for row, n in zip(terms, counts)]
    if one:
        return ObservedValue(sums[0], float(tails[0]), int(counts[0]))
    return ObservedValue(np.array(sums), tails, int(counts.max()))


def _points(x, dtype, what):
    """x as a 1-d array of points in the domain, and whether x was one."""
    points = np.asarray(x, dtype=dtype)
    if points.ndim > 1 or points.size == 0:
        raise DomainError(f"{what} must be one point or a nonempty 1-d array")
    if not points.real.min() > 0.0:
        raise DomainError(f"{what} must have a positive real part")
    return points.reshape(-1), points.ndim == 0


def _active_slice(sys, xi):
    n = min(sys.n_active, xi.values.size)
    if xi.values.size < sys.n_active and xi.tail_sup > 0.0:
        raise TruncationOverflow(
            "coefficient vector is shorter than the active range but "
            "declares a nonzero tail")
    return xi.values[:n], sys.mu[:n], sys.c[:n]


def orbit_observation(sys, xi, t, tol):
    """Observed orbit sum_k xi_k c_k exp(-mu_k t) with certified tail < tol."""
    t, one = _points(t, float, "t")
    v, mu, c = _active_slice(sys, xi)
    decay = np.exp(-mu * t[:, None])
    terms = v * c * decay
    return _truncated_sum(terms, np.abs(terms), np.abs(c) * decay,
                          xi.tail_sup, tol, one, "orbit_observation")


def resolvent_observation(sys, xi, lam, tol):
    """Observed resolvent sum_k xi_k c_k/(lam + mu_k), certified tail < tol."""
    lam, one = _points(lam, complex, "lambda")
    v, mu, c = _active_slice(sys, xi)
    weights = np.abs(c) / mu  # |c/(lam+mu)| <= |c|/mu on the right half-plane
    terms = (v * c).astype(complex) / (lam[:, None] + mu)
    return _truncated_sum(terms, (np.abs(v) * weights)[None], weights[None],
                          xi.tail_sup, tol, one, "resolvent_observation")


def orbit_callable(sys, xi):
    """Vectorized t -> orbit observation over every active mode.

    Used as the integrand factory for Laplace quadrature: keeping all active
    modes makes the callable exact for finite vectors and accurate to the
    beyond-active tail otherwise.
    """
    v, mu, c = _active_slice(sys, xi)
    w = v * c

    def orbit(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.outer(t, mu)) @ w

    return orbit


def weiss_quotient(sys, xi, x_norm, lam, tol=1e-12):
    """Re(lam)^(1/2) |resolvent observation| / x_norm, at lam or over it."""
    if not x_norm > 0.0:
        raise DomainError("x_norm must be positive")
    values = np.atleast_1d(resolvent_observation(sys, xi, lam, tol).value)
    lam = np.asarray(lam, dtype=complex)  # validated by the call above
    # Python's complex modulus: np.abs differs from it in the last bit
    quotient = [math.sqrt(point.real) * abs(value) / x_norm
                for point, value in zip(lam.reshape(-1).tolist(),
                                        values.tolist())]
    return quotient[0] if lam.ndim == 0 else np.array(quotient)


def weiss_norm_orthonormal(sys, lam, tol):
    """Re(lam)^(1/2) * l2 norm of (c_k / (lam + mu_k)), orthonormal basis.

    The caller asserts the underlying basis is orthonormal; only then is the
    l2 formula the operator norm of the observed resolvent.
    """
    lam, one = _points(lam, complex, "lambda")
    limit = (sys.c / sys.mu) ** 2
    if _upper_half_ratio(limit) >= 1.0:
        raise DivergentSum(
            "sum c_k^2/mu_k^2 diverges over the active modes")
    terms = sys.c**2 / np.abs(lam[:, None] + sys.mu) ** 2
    sums = _truncated_sum(terms, terms, limit[None], 1.0, tol, False,
                          "weiss_norm_orthonormal").value
    norms = np.sqrt(lam.real) * np.sqrt(sums)
    return float(norms[0]) if one else norms


def decay_profile(sys, xi, x_norm, t_grid, tol=1e-12):
    """Samples (t, t^(1/2) |orbit(t)| / x_norm) over a positive grid."""
    if not x_norm > 0.0:
        raise DomainError("x_norm must be positive")
    orbit = orbit_observation(sys, xi, t_grid, tol).value
    return np.column_stack([t_grid, np.sqrt(t_grid) * np.abs(orbit) / x_norm])


def decay_norm_orthonormal(sys, t_grid):
    """t^(1/2) * l2 norm of (c_k exp(-mu_k t)): operator decay samples."""
    t_grid, _ = _points(t_grid, float, "t_grid")
    sq = np.exp(-2.0 * np.outer(t_grid, sys.mu)) @ sys.c**2
    return np.sqrt(t_grid) * np.sqrt(sq)


def lambda_grid(n_moduli=25, n_args=17, mod_min=1e-4, mod_max=1e8):
    """Scan grid for the open right half-plane.

    Log-spaced moduli, arguments uniform on (-pi/2 + 0.01, pi/2 - 0.01), so
    every point has positive real part; returned flattened, moduli-major.
    """
    mods = np.logspace(math.log10(mod_min), math.log10(mod_max), n_moduli)
    args = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_args)
    grid = mods[:, None] * np.exp(1j * args[None, :])
    return grid.ravel()
