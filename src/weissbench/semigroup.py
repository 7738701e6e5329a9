"""Diagonal semigroup observation systems.

A DiagonalSystem holds eigenvalue and observation rules (mu_k, c_k) for a
diagonal generator with exponentially stable semigroup e^{-mu_k t} and a
scalar observation functional. Orbits, resolvents, and Weiss quotients are
truncated series whose returned values always come with a certified tail
bound: terms inside the active range are summed exactly (fsum) and the part
beyond the smallest admissible index is bounded by measured geometric decay.
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
        if tail_sup < 0.0:
            raise DomainError("tail_sup must be >= 0")
        self.values = v
        self.tail_sup = float(tail_sup)


class ObservedValue(NamedTuple):
    value: complex
    tail_bound: float
    n_terms: int

    def __float__(self):
        return float(self.value.real if isinstance(self.value, complex)
                     else self.value)


def _beyond_active_bound(weights, tail_sup, what):
    """Bound tail_sup * sum of weights beyond the active range.

    weights holds the per-mode factors (c_k e^{-mu_k t} or c_k/mu_k) inside
    the active range; their measured decay must be geometric with
    non-increasing ratios at the end, which extends rigorously to log-convex
    growth rules like the default powers-of-two/four systems.
    """
    if tail_sup == 0.0:
        return 0.0
    w = weights[-4:]
    if w[-1] == 0.0:
        return 0.0
    ratios = w[1:] / w[:-1]
    if np.any(~np.isfinite(ratios)) or np.any(ratios > _RATIO_CAP) \
            or np.any(np.diff(ratios) > 1e-12):
        raise TruncationOverflow(
            f"{what}: cannot certify the tail beyond the {len(weights)} "
            "active modes (no certified geometric decay)")
    r = float(ratios[-1])
    return tail_sup * w[-1] * r / (1.0 - r)


def _truncated_sum(terms, abs_terms, beyond, tol, what):
    """Smallest-N truncation with certified tail below tol.

    Returns (sum of terms up to N, tail bound, N+1) where tail(N) =
    sum_{k>N} |term_k| + beyond is the smallest certified value below tol.
    """
    if beyond >= tol:
        raise TruncationOverflow(
            f"{what}: tail beyond the active range is certified only to "
            f"{beyond:.3e}, above tolerance {tol:.3e}")
    suffix = np.concatenate((np.cumsum(abs_terms[::-1])[::-1][1:], [0.0]))
    suffix *= 1.0 + 256.0 * _EPS  # cumsum roundoff must not undercut the bound
    admissible = np.nonzero(suffix + beyond < tol)[0]
    n_last = int(admissible[0])
    tail = float(suffix[n_last] + beyond)
    if np.iscomplexobj(terms):
        value = complex(math.fsum(terms[: n_last + 1].real),
                        math.fsum(terms[: n_last + 1].imag))
    else:
        value = math.fsum(terms[: n_last + 1])
    return value, tail, n_last + 1


def _active_slice(sys, xi):
    n = min(sys.n_active, xi.values.size)
    if xi.values.size < sys.n_active and xi.tail_sup > 0.0:
        raise TruncationOverflow(
            "coefficient vector is shorter than the active range but "
            "declares a nonzero tail")
    return xi.values[:n], sys.mu[:n], sys.c[:n]


def orbit_observation(sys, xi, t, tol):
    """Observed orbit sum_k xi_k c_k exp(-mu_k t) with certified tail < tol."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    v, mu, c = _active_slice(sys, xi)
    decay = np.abs(c) * np.exp(-mu * t)
    beyond = _beyond_active_bound(decay, xi.tail_sup, "orbit_observation")
    terms = v * c * np.exp(-mu * t)
    value, tail, n = _truncated_sum(terms, np.abs(terms), beyond, tol,
                                    "orbit_observation")
    return ObservedValue(value, tail, n)


def resolvent_observation(sys, xi, lam, tol):
    """Observed resolvent sum_k xi_k c_k/(lam + mu_k), certified tail < tol."""
    lam = complex(lam)
    if not lam.real > 0.0:
        raise DomainError("resolvent_observation needs Re(lambda) > 0")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    v, mu, c = _active_slice(sys, xi)
    weights = np.abs(c) / mu  # |c/(lam+mu)| <= |c|/mu on the right half-plane
    beyond = _beyond_active_bound(weights, xi.tail_sup, "resolvent_observation")
    terms = (v * c).astype(complex) / (lam + mu)
    value, tail, n = _truncated_sum(terms, np.abs(v) * weights, beyond, tol,
                                    "resolvent_observation")
    return ObservedValue(value, tail, n)


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
    """Re(lam)^(1/2) |resolvent observation| / x_norm."""
    if not x_norm > 0.0:
        raise DomainError("x_norm must be positive")
    res = resolvent_observation(sys, xi, lam, tol)
    return math.sqrt(complex(lam).real) * abs(res.value) / x_norm


def weiss_norm_orthonormal(sys, lam, tol):
    """Re(lam)^(1/2) * l2 norm of (c_k / (lam + mu_k)), orthonormal basis.

    The caller asserts the underlying basis is orthonormal; only then is the
    l2 formula the operator norm of the observed resolvent.
    """
    lam = complex(lam)
    if not lam.real > 0.0:
        raise DomainError("weiss_norm_orthonormal needs Re(lambda) > 0")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    limit = (sys.c / sys.mu) ** 2
    if _upper_half_ratio(limit) >= 1.0:
        raise DivergentSum(
            "sum c_k^2/mu_k^2 diverges over the active modes")
    terms = sys.c**2 / np.abs(lam + sys.mu) ** 2
    beyond = _beyond_active_bound(limit, 1.0, "weiss_norm_orthonormal") \
        if limit[-1] > 0.0 else 0.0
    value, _, _ = _truncated_sum(terms, terms, beyond, tol,
                                 "weiss_norm_orthonormal")
    return math.sqrt(lam.real) * math.sqrt(value)


def decay_profile(sys, xi, x_norm, t_grid, tol=1e-12):
    """Samples (t, t^(1/2) |orbit(t)| / x_norm) over a positive grid."""
    if not x_norm > 0.0:
        raise DomainError("x_norm must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all(t_grid > 0.0):
        raise DomainError("t_grid must be positive and nonempty")
    out = np.empty((t_grid.size, 2))
    for i, t in enumerate(t_grid):
        obs = orbit_observation(sys, xi, float(t), tol)
        out[i] = (t, math.sqrt(t) * abs(obs.value) / x_norm)
    return out


def decay_norm_orthonormal(sys, t_grid):
    """t^(1/2) * l2 norm of (c_k exp(-mu_k t)): operator decay samples."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all(t_grid > 0.0):
        raise DomainError("t_grid must be positive and nonempty")
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
