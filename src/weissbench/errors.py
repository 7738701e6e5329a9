"""Exception types shared across the package, the checks raising them, and
the immutability rule of the value objects."""
import math
import numbers

import numpy as np


class WeissbenchError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WeissbenchError):
    """An argument lies outside the documented domain of an operation."""


class ToleranceNotMet(WeissbenchError):
    """A quadrature error estimate exceeded the requested tolerance."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class TruncationOverflow(WeissbenchError):
    """A series needs more modes than the system keeps active."""


class DivergentSum(WeissbenchError):
    """Series terms do not decay; the sum has no finite value."""


class BoundViolated(WeissbenchError):
    """A certified lower bound failed, indicating an implementation bug."""

    def __init__(self, message, n=None, t=None):
        super().__init__(message)
        self.n = n
        self.t = t


def _integer(value, name, low=None):
    """value as an int: an integer or an integral float of at least low;
    anything else (NaN, infinities, fractions) raises DomainError."""
    try:
        ok = value == int(value) and (low is None or value >= low)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(value, name):
    """value as a float if it is a real number, else DomainError."""
    if type(value) is float:  # before the ABC check, which is slower
        return value
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _array(value, name, dtype=float):
    """value as a NumPy array of dtype, else DomainError; strings, which
    NumPy would parse, are rejected as _real rejects them, and complex
    values for a real dtype, which NumPy would cast to their real parts."""
    try:
        points = np.asarray(value)
        if points.dtype == dtype:
            return points
        if points.dtype.kind in "SU":
            raise TypeError
        if points.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            raise DomainError(f"{name} must be real, got {value!r}")
        return np.asarray(value, dtype)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be numeric, got {value!r}") from None


class _Immutable:
    """Base of the value objects: setting an attribute raises, and the
    constructor sets its slots once through _freeze, arrays made read-only.
    Caches the module fills later are written with object.__setattr__."""

    __slots__ = ()

    def _freeze(self, **slots):
        for name, value in slots.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _point(z, what):
    """z, one point as a Python (or NumPy) scalar, if it is in the domain:
    finite, with a positive real part; else DomainError."""
    if not (0.0 < z.real < math.inf and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite with a positive real part")
    return z


def _points(x, dtype, what):
    """x as a 0-d (one point) or 1-d array of points in the domain (see
    _point); else DomainError."""
    points = _array(x, what, dtype)
    if points.ndim == 0:  # checked as a Python scalar, not by array passes
        _point(points.item(), what)
    elif points.ndim != 1 or not points.size:
        raise DomainError(f"{what} must be one point or a nonempty 1-d array")
    elif not (points.real.min() > 0.0 and np.isfinite(points).all()):
        raise DomainError(f"{what} must be finite with a positive real part")
    return points


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_INVALID = 2
EXIT_IO_ERROR = 3
