"""Diagonal semigroup observation systems.

A DiagonalSystem holds eigenvalue and observation rules (mu_k, c_k) for a
diagonal generator with exponentially stable semigroup e^{-mu_k t} and a
scalar observation functional. Orbits, resolvents, and Weiss quotients are
truncated series whose returned values always come with a certified tail
bound: terms inside the active range are summed exactly (fsum) and the part
beyond the smallest admissible index is bounded by measured geometric decay.
Observations take one point or a 1-d array of finite points; each point
keeps its own truncation, bit for bit the one a single-point call makes.
Systems and coefficient vectors are immutable, so the resolvent's
truncation, which does not depend on the point, is certified once per
(system, coefficients, tolerance) and kept on the coefficient vector.
"""
import math
import numbers
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
    "orbit_decay_bound",
    "weiss_quotient",
    "weiss_norm_orthonormal",
    "decay_profile",
    "decay_norm_orthonormal",
    "lambda_grid",
    "log_grid",
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


def _integer(value, name, low=None):
    """value as an int: an integer, or an integral float, of at least low;
    anything else (NaN, infinities and fractions included) raises
    DomainError."""
    try:
        ok = value == int(value) and (low is None or value >= low)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _freeze(obj, **slots):
    """Set the slots of an immutable object, arrays made read-only."""
    for name, value in slots.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


class DiagonalSystem:
    """Diagonal generator with eigenvalues mu_k and observation weights c_k.

    Immutable: read-only arrays, and setting an attribute raises.
    """

    __slots__ = ("mu", "c", "n_active")

    def __init__(self, mu_rule, c_rule, n_active=64):
        n_active = _integer(n_active, "n_active", 2)
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
        _freeze(self, mu=mu, c=c, n_active=n_active)

    def __setattr__(self, name, value):
        raise AttributeError("DiagonalSystem is immutable")

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
    summability is deliberately not required. The vector copies the
    caller's values and is immutable like DiagonalSystem; _resolvent holds
    the last certificate resolvent_observation made for it.
    """

    __slots__ = ("values", "tail_sup", "_resolvent")

    def __init__(self, values, tail_sup=0.0):
        v = np.array(values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise DomainError("coefficients must be a finite 1-d float array")
        if not tail_sup >= 0.0:
            raise DomainError("tail_sup must be >= 0")
        _freeze(self, values=v, tail_sup=float(tail_sup), _resolvent=None)

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientVector is immutable")


class ObservedValue(NamedTuple):
    # over an array of points: arrays of values and tails, the largest count
    value: complex
    tail_bound: float
    n_terms: int


def _certified_counts(abs_terms, weights, tail_sup, tol, what):
    """Smallest-N truncation of each row, its tail certified below tol.

    Beyond the active range the tail is at most tail_sup times the sum of
    the per-mode factors in weights (c_k e^{-mu_k t} or c_k/mu_k); their
    measured decay must be geometric with non-increasing ratios at the end,
    which extends rigorously to log-convex growth rules like the default
    powers-of-two/four systems. Row i then keeps the smallest count N_i
    whose tail sum_{k>=N_i} abs_terms[i, k] + beyond_i is below tol; the
    counts and those tails are returned. weights holds a row for every row
    of abs_terms, or one shared by all.
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
    return first + 1, bounds[np.arange(len(bounds)), first]


def _fsums(terms, counts):
    """The first counts[i] terms of each row i, summed exactly (fsum)."""
    if np.iscomplexobj(terms):
        return [complex(math.fsum(row[:n].real.tolist()),
                        math.fsum(row[:n].imag.tolist()))
                for row, n in zip(terms, counts)]
    return [math.fsum(row[:n].tolist()) for row, n in zip(terms, counts)]


def _points(x, dtype, what):
    """x as a 1-d array of points in the domain, and whether x was one."""
    points = np.asarray(x, dtype=dtype)
    if points.ndim > 1 or points.size == 0:
        raise DomainError(f"{what} must be one point or a nonempty 1-d array")
    if not (points.real.min() > 0.0 and np.isfinite(points).all()):
        raise DomainError(f"{what} must be finite with a positive real part")
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
    counts, tails = _certified_counts(np.abs(terms), np.abs(c) * decay,
                                      xi.tail_sup, tol, "orbit_observation")
    sums = _fsums(terms, counts)
    if one:
        return ObservedValue(sums[0], float(tails[0]), int(counts[0]))
    return ObservedValue(np.array(sums), tails, int(counts.max()))


def resolvent_observation(sys, xi, lam, tol):
    """Observed resolvent sum_k xi_k c_k/(lam + mu_k), certified tail < tol.

    |c/(lam+mu)| <= |c|/mu on the right half-plane, so the truncation and
    its tail depend on (sys, xi, tol) alone. xi keeps the last certified
    one with the terms' numerators; a call for the same sys and tol only
    divides and sums. A failed certification is not kept.
    """
    lam, one = _points(lam, complex, "lambda")
    entry = xi._resolvent
    if entry is None or entry[0] is not sys or entry[1] != tol:
        v, mu, c = _active_slice(sys, xi)
        weights = np.abs(c) / mu
        counts, tails = _certified_counts(
            (np.abs(v) * weights)[None], weights[None], xi.tail_sup, tol,
            "resolvent_observation")
        n = int(counts[0])
        entry = (sys, tol, n, float(tails[0]),
                 (v * c)[:n].astype(complex), mu[:n])
        object.__setattr__(xi, "_resolvent", entry)
    _, _, n, tail, vc, mu = entry
    sums = _fsums(vc / (lam[:, None] + mu), [n] * lam.size)
    if one:
        return ObservedValue(sums[0], tail, n)
    return ObservedValue(np.array(sums), np.full(lam.size, tail), n)


def orbit_callable(sys, xi):
    """Vectorized t -> orbit observation over every active mode.

    Used as the integrand factory for Laplace quadrature: keeping all active
    modes makes the callable exact for finite vectors and accurate to the
    beyond-active tail otherwise.
    """
    v, mu, c = _active_slice(sys, xi)
    w = v * c
    neg_mu = -mu

    def orbit(t):
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:  # elementwise: the same values as t flattened
            return orbit(t.reshape(-1)).reshape(t.shape)
        # (-mu) t is exactly -(mu t): one array, a row a mode, exponentiated
        # in place; each mode is one long row for NumPy's inner loops
        z = np.multiply.outer(neg_mu, t)
        return w @ np.exp(z, out=z)

    return orbit


def orbit_decay_bound(sys, xi, alpha):
    """(M, alpha) with |orbit_callable(sys, xi)(t)| <= M t^(-alpha), t > 0.

    sup_t t^alpha e^(-mu t) = (alpha/(e mu))^alpha (0^0 = 1), so M is the
    sum of |xi_k c_k| (alpha/(e mu_k))^alpha over the active modes, raised
    by a few eps against its own roundoff. This is the decay argument of
    laplace_quadrature. alpha must be finite and nonnegative.
    """
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    v, mu, c = _active_slice(sys, xi)
    terms = np.abs(v * c) * (alpha / (math.e * mu)) ** alpha
    return math.fsum(terms.tolist()) * (1.0 + 8.0 * _EPS), alpha


def weiss_quotient(sys, xi, x_norm, lam, tol=1e-12):
    """Re(lam)^(1/2) |resolvent observation| / x_norm, at lam or over it."""
    if not 0.0 < x_norm < math.inf:
        raise DomainError(f"x_norm must be positive and finite, got {x_norm}")
    value = resolvent_observation(sys, xi, lam, tol).value
    lam = np.asarray(lam, dtype=complex)  # validated by the call above
    quotient = np.sqrt(lam.real) * np.abs(value) / x_norm
    return float(quotient) if lam.ndim == 0 else quotient


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
    counts, _ = _certified_counts(terms, limit[None], 1.0, tol,
                                  "weiss_norm_orthonormal")
    sums = np.array(_fsums(terms, counts))
    norms = np.sqrt(lam.real) * np.sqrt(sums)
    return float(norms[0]) if one else norms


def decay_profile(sys, xi, x_norm, t_grid, tol=1e-12):
    """Samples (t, t^(1/2) |orbit(t)| / x_norm) over a positive grid."""
    if not 0.0 < x_norm < math.inf:
        raise DomainError(f"x_norm must be positive and finite, got {x_norm}")
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
    The moduli must be finite and positive, the counts integers >= 1.
    """
    n_moduli = _integer(n_moduli, "n_moduli", 1)
    n_args = _integer(n_args, "n_args", 1)
    if not all(isinstance(m, numbers.Real) and 0.0 < m < math.inf
               for m in (mod_min, mod_max)):
        raise DomainError("lambda_grid needs finite positive moduli, got "
                          f"{mod_min}, {mod_max}")
    mods = np.logspace(math.log10(mod_min), math.log10(mod_max), n_moduli)
    args = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_args)
    grid = mods[:, None] * np.exp(1j * args[None, :])
    return grid.ravel()


def log_grid(lo, hi, per_decade=64):
    """Log-spaced points from lo to hi, at least per_decade to a decade."""
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"log_grid needs 0 < lo < hi finite, got {lo}, {hi}")
    per_decade = _integer(per_decade, "per_decade", 1)
    # hi / lo overflows for a subnormal lo; the difference of logs does not
    count = int(math.ceil((math.log10(hi) - math.log10(lo)) * per_decade)) + 1
    return np.logspace(math.log10(lo), math.log10(hi), count)
