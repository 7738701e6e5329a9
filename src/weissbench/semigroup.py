"""Diagonal semigroup observation systems.

A DiagonalSystem holds eigenvalue and observation arrays (mu_k, c_k) for a
diagonal generator with exponentially stable semigroup e^{-mu_k t} and a
scalar observation functional. Orbits, resolvents, Weiss quotients and the
orthonormal model's norms are truncated series whose returned values always
come with a certified tail bound: terms inside the active range are summed
exactly (fsum) and the part beyond the smallest admissible index is bounded
by measured geometric decay, both by _truncate, the one routine that sums
and certifies a truncation.
Observations take one point or a 1-d array of finite points; each point
keeps its own truncation and value, bit for bit the same either way; one
point is checked as Python scalars and skips the batch's array overhead.
Systems and coefficient vectors are immutable, so the resolvent's
truncation, which does not depend on the point, is certified once per
(system, coefficients, tolerance) and kept on the coefficient vector.
"""
import math
from typing import NamedTuple

import numpy as np

from ._kernels import pad_groups
from .errors import (DivergentSum, DomainError, TruncationOverflow,
                     _Immutable, _array, _integer, _point, _points, _real)

__all__ = [
    "DiagonalSystem",
    "CoefficientVector",
    "ObservedValue",
    "orbit_observation",
    "resolvent_observation",
    "orbit_callable",
    "orbit_decay_bound",
    "weiss_quotient",
    "weiss_norm_orthonormal",
    "decay_profile",
    "decay_norm_orthonormal",
    "lambda_grid",
    "log_grid",
]

_RATIO_CAP = 0.9  # certified geometric decay needs ratios at most this
_TOL = 1e-12  # the default tail tolerance, and decay_norm_orthonormal's
_EPS = float(np.finfo(float).eps)
# exp(-x) rounds to +0.0 for every x above 1075 ln 2 = 745.133..., where
# e^(-x) is below half the smallest subnormal; a margin above that
_UNDERFLOW = 746.0


def _upper_half_ratio(terms):
    """Largest finite ratio of consecutive terms in the upper half, or 0."""
    half = terms[terms.size // 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = half[1:] / half[:-1]
    ratios = ratios[np.isfinite(ratios) & (half[:-1] > 0.0)]
    return float(np.max(ratios)) if ratios.size else 0.0


class DiagonalSystem(_Immutable):
    """Diagonal generator with eigenvalues mu_k and observation weights c_k.

    mu and c are 1-d arrays of one length n_active >= 2, copied. Immutable:
    read-only arrays, and setting an attribute raises.
    """

    __slots__ = ("mu", "c", "n_active")

    def __init__(self, mu, c):
        mu, c = (_array(a, name).copy() for a, name in ((mu, "mu"), (c, "c")))
        if mu.ndim != 1 or mu.shape != c.shape or mu.size < 2:
            raise DomainError("mu and c must be 1-d arrays of one length >= 2")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(c))):
            raise DomainError("mu and c must be finite")
        if not (mu[0] > 0.0 and np.all(np.diff(mu) > 0.0)):
            raise DomainError("mu must be positive and strictly increasing")
        terms = np.abs(c) / mu
        if not math.isfinite(math.fsum(terms)):
            raise DomainError("sum |c_k|/mu_k overflows over active modes")
        if mu.size >= 32 and _upper_half_ratio(terms) > 1.0:
            raise DomainError(
                "terms |c_k|/mu_k grow over the active modes; the "
                "resolvent series shows no sign of convergence")
        self._freeze(mu=mu, c=c, n_active=mu.size)

    @classmethod
    def default(cls, n_active=64):
        """mu_k = 4^k, c_k = 2^k."""
        k = range(_integer(n_active, "n_active", 2))
        return cls([4.0**i for i in k], [2.0**i for i in k])

    @classmethod
    def sqrt_observation(cls, n_active=64):
        """mu_k = 2^k, c_k = mu_k^(1/2)."""
        k = range(_integer(n_active, "n_active", 2))
        return cls([2.0**i for i in k], [2.0 ** (0.5 * i) for i in k])


class CoefficientVector(_Immutable):
    """State expansion coefficients, finite or truncated from a rule.

    tail_sup is a caller-certified bound on |xi_k| for every k at and beyond
    len(values); 0.0 (the default) declares the vector finite. Square
    summability is deliberately not required. The vector copies the
    caller's values and is immutable like DiagonalSystem; _resolvent holds
    the last certificate resolvent_observation made for it.
    """

    __slots__ = ("values", "tail_sup", "_resolvent")

    def __init__(self, values, tail_sup=0.0):
        v = _array(values, "coefficients").copy()
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise DomainError("coefficients must be a finite 1-d float array")
        if not _real(tail_sup, "tail_sup") >= 0.0:
            raise DomainError("tail_sup must be >= 0")
        self._freeze(values=v, tail_sup=float(tail_sup), _resolvent=None)


class ObservedValue(NamedTuple):
    # over an array of points: arrays of values and tails, the largest count
    value: complex
    tail_bound: float
    n_terms: int


def _truncate(terms, weights, tail_sup, tol, what):
    """Each row of terms truncated where its tail is certified below tol, and
    its kept head summed exactly (fsum): (sums, tails, counts).

    Beyond the active range the tail is at most tail_sup times the sum of
    the per-mode factors in weights (c_k e^{-mu_k t} or c_k/mu_k); their
    measured decay must be geometric with non-increasing ratios at the end,
    which extends rigorously to log-convex growth rules like the default
    powers-of-two/four systems. Row i then keeps the smallest count N_i
    whose tail sum_{k>=N_i} |terms[i, k]| + beyond_i is below tol. sums is
    a list of floats, tails and counts are arrays, one entry a row. weights
    holds a row for every row of terms, or one shared by all.
    """
    if not _real(tol, "tol") > 0.0:
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
    suffix = np.zeros(terms.shape)
    suffix[:, :-1] = np.abs(terms[:, :0:-1]).cumsum(1)[:, ::-1]
    suffix *= 1.0 + 256.0 * _EPS  # cumsum roundoff must not undercut the bound
    bounds = suffix + beyond[:, None]
    first = (bounds < tol).argmax(1)  # the last column always passes
    counts = first + 1
    sums = [math.fsum(row[:n].tolist()) for row, n in zip(terms, counts)]
    return sums, bounds[np.arange(len(bounds)), first], counts


def _active_slice(sys, xi):
    n = min(sys.n_active, xi.values.size)
    if xi.values.size < sys.n_active and xi.tail_sup > 0.0:
        raise TruncationOverflow(
            "coefficient vector is shorter than the active range but "
            "declares a nonzero tail")
    return xi.values[:n], sys.mu[:n], sys.c[:n]


def orbit_observation(sys, xi, t, tol):
    """Observed orbit sum_k xi_k c_k exp(-mu_k t) with certified tail < tol."""
    t = _points(t, float, "t")
    v, mu, c = _active_slice(sys, xi)
    decay = np.exp(-mu * t.reshape(-1, 1))
    sums, tails, counts = _truncate(v * c * decay, np.abs(c) * decay,
                                    xi.tail_sup, tol, "orbit_observation")
    if t.ndim == 0:
        return ObservedValue(sums[0], float(tails[0]), int(counts[0]))
    return ObservedValue(np.array(sums), tails, int(counts.max()))


def resolvent_observation(sys, xi, lam, tol):
    """Observed resolvent sum_k xi_k c_k/(lam + mu_k), certified tail < tol.

    |c/(lam+mu)| <= |c|/mu on the right half-plane, so the truncation and
    its tail depend on (sys, xi, tol) alone. xi keeps the last certified
    one with the terms' numerators, and mu complex as the division adds
    it; a call for the same sys and tol only divides and sums. A failed
    certification is not kept. A complex lam (np.complex128 is one) is
    checked as it is, with no array conversion.
    """
    if isinstance(lam, complex):
        _point(lam, "lambda")
    else:
        lam = _points(lam, complex, "lambda")
        lam = lam.item() if lam.ndim == 0 else lam
    entry = xi._resolvent
    if entry is None or entry[0] is not sys or entry[1] != tol:
        v, mu, c = _active_slice(sys, xi)
        weights = np.abs(c) / mu  # |v w| is |v| w, bit for bit: w >= 0
        _, tails, counts = _truncate((v * weights)[None], weights[None],
                                     xi.tail_sup, tol, "resolvent_observation")
        n = int(counts[0])
        entry = (sys, tol, n, float(tails[0]), (v * c)[:n].astype(complex),
                 mu[:n].astype(complex))
        object.__setattr__(xi, "_resolvent", entry)
    _, _, n, tail, vc, mu = entry
    if isinstance(lam, complex):  # the batch's division and sums of a row
        parts = (vc / (mu + lam)).view(float).tolist()
        return ObservedValue(complex(math.fsum(parts[::2]),
                                     math.fsum(parts[1::2])), tail, n)
    rows = vc / (lam[:, None] + mu)
    sums = [complex(math.fsum(re), math.fsum(im))
            for re, im in zip(rows.real.tolist(), rows.imag.tolist())]
    return ObservedValue(np.array(sums), np.full(lam.size, tail), n)


def orbit_callable(sys, xi):
    """Vectorized t -> orbit observation over every active mode.

    Used as the integrand factory for Laplace quadrature: keeping all active
    modes makes the callable exact for finite vectors and accurate to the
    beyond-active tail otherwise. Any t is evaluated flattened, padded by
    its last point to whole 4-row BLAS groups by _kernels.pad_groups, as
    panels are, so a point's value is the same, bit for bit, in any batch. The trailing
    modes with mu_k min(t) above _UNDERFLOW are skipped: their exponentials
    are +0.0 at every point, and so are their terms of the sum.
    """
    v, mu, c = _active_slice(sys, xi)
    w = v * c
    neg_mu = -mu

    def orbit(t):
        t = np.asarray(t, dtype=float)
        if t.ndim != 1:  # elementwise: the same values as t flattened
            return orbit(t.reshape(-1)).reshape(t.shape)
        n = t.size
        t = pad_groups(t, n)
        # mu t, not a division by t, which overflows for a subnormal t; the
        # dead modes are a suffix, a NaN min keeps every mode, an empty t none
        k = np.count_nonzero(~(mu * t.min(initial=math.inf) > _UNDERFLOW))
        # (-mu) t is exactly -(mu t): one array, a row a mode, exponentiated
        # in place; each mode is one long row for NumPy's inner loops
        z = np.multiply.outer(neg_mu[:k], t)
        return (w[:k] @ np.exp(z, out=z))[:n]

    return orbit


def orbit_decay_bound(sys, xi, alpha):
    """(M, alpha) with |orbit_callable(sys, xi)(t)| <= M t^(-alpha), t > 0.

    sup_t t^alpha e^(-mu t) = (alpha/(e mu))^alpha (0^0 = 1), so M is the
    sum of |xi_k c_k| (alpha/(e mu_k))^alpha over the active modes, raised
    by a few eps against its own roundoff. This is the decay argument of
    laplace_quadrature. alpha must be finite and nonnegative.
    """
    if not 0.0 <= _real(alpha, "alpha") < math.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    v, mu, c = _active_slice(sys, xi)
    terms = np.abs(v * c) * (alpha / (math.e * mu)) ** alpha
    return math.fsum(terms.tolist()) * (1.0 + 8.0 * _EPS), alpha


def weiss_quotient(sys, xi, x_norm, lam, tol=_TOL):
    """Re(lam)^(1/2) |resolvent observation| / x_norm, at lam or over it."""
    if not 0.0 < _real(x_norm, "x_norm") < math.inf:
        raise DomainError(f"x_norm must be positive and finite, got {x_norm}")
    if not isinstance(lam, complex):  # a complex is checked as it is
        lam = _array(lam, "lambda", complex)  # validated by the call below
        lam = lam.item() if lam.ndim == 0 else lam
    value = resolvent_observation(sys, xi, lam, tol).value
    if isinstance(lam, complex):  # math.sqrt is np.sqrt, correctly rounded
        return float(math.sqrt(lam.real) * np.abs(value) / x_norm)
    return np.sqrt(lam.real) * np.abs(value) / x_norm


def _orthonormal_norm(points, terms, weights, tol, what):
    """Re(point)^(1/2) times the root of each row of terms summed by
    _truncate, at tail_sup 1.0 over the weights; a float for one point,
    else an array."""
    sums, _, _ = _truncate(terms, weights, 1.0, tol, what)
    norms = np.sqrt(points.real) * np.sqrt(np.array(sums))
    return float(norms[0]) if points.ndim == 0 else norms


def weiss_norm_orthonormal(sys, lam, tol):
    """Re(lam)^(1/2) * l2 norm of (c_k / (lam + mu_k)), orthonormal basis.

    The caller asserts the underlying basis is orthonormal; only then is the
    l2 formula the operator norm of the observed resolvent. The squares are
    at most c_k^2/mu_k^2, whose tail bounds the sum beyond the active modes.
    """
    lam = _points(lam, complex, "lambda")
    limit = (sys.c / sys.mu) ** 2
    if _upper_half_ratio(limit) >= 1.0:
        raise DivergentSum(
            "sum c_k^2/mu_k^2 diverges over the active modes")
    terms = sys.c**2 / np.abs(lam.reshape(-1, 1) + sys.mu) ** 2
    return _orthonormal_norm(lam, terms, limit[None], tol,
                             "weiss_norm_orthonormal")


def decay_profile(sys, xi, x_norm, t_grid, tol=_TOL):
    """Samples (t, t^(1/2) |orbit(t)| / x_norm) over a positive grid."""
    if not 0.0 < _real(x_norm, "x_norm") < math.inf:
        raise DomainError(f"x_norm must be positive and finite, got {x_norm}")
    orbit = orbit_observation(sys, xi, t_grid, tol).value
    return np.column_stack([t_grid, np.sqrt(t_grid) * np.abs(orbit) / x_norm])


def decay_norm_orthonormal(sys, t_grid):
    """t^(1/2) * l2 norm of (c_k exp(-mu_k t)), orthonormal basis: operator
    decay at one point t_grid or over a 1-d array of them.

    The squares c_k^2 e^(-2 mu_k t) are summed with their tail, extended
    beyond the active modes from their own decay, certified below _TOL
    (1e-12); where it cannot be, the call raises TruncationOverflow: on
    sqrt_observation(60) at every t below 4.0e-17.
    """
    t = _points(t_grid, float, "t_grid")
    terms = sys.c**2 * np.exp(-2.0 * np.outer(t, sys.mu))
    return _orthonormal_norm(t, terms, terms, _TOL, "decay_norm_orthonormal")


def lambda_grid(n_moduli=25, n_args=17, mod_min=1e-4, mod_max=1e8):
    """Scan grid for the open right half-plane.

    Log-spaced moduli, arguments uniform on (-pi/2 + 0.01, pi/2 - 0.01), so
    every point has positive real part; returned flattened, moduli-major.
    The moduli must be finite and positive, the counts integers >= 1.
    """
    n_moduli = _integer(n_moduli, "n_moduli", 1)
    n_args = _integer(n_args, "n_args", 1)
    if not all(0.0 < _real(m, "modulus") < math.inf
               for m in (mod_min, mod_max)):
        raise DomainError("lambda_grid needs finite positive moduli, got "
                          f"{mod_min}, {mod_max}")
    mods = np.logspace(math.log10(mod_min), math.log10(mod_max), n_moduli)
    args = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_args)
    grid = mods[:, None] * np.exp(1j * args[None, :])
    return grid.ravel()


def log_grid(lo, hi, per_decade=64):
    """Log-spaced points from lo to hi, at least per_decade to a decade."""
    if not 0.0 < _real(lo, "lo") < _real(hi, "hi") < math.inf:
        raise DomainError(f"log_grid needs 0 < lo < hi finite, got {lo}, {hi}")
    per_decade = _integer(per_decade, "per_decade", 1)
    # hi / lo overflows for a subnormal lo; the difference of logs does not
    count = int(math.ceil((math.log10(hi) - math.log10(lo)) * per_decade)) + 1
    return np.logspace(math.log10(lo), math.log10(hi), count)
