"""Endpoint witness for weak-type admissibility.

Builds the explicit diagonal system whose observed orbit decays like
t^(-1/2) up to a slowly varying logarithmic factor: the basis coefficients
xi_n come from oscillatory fractional-power integrals, the orbit is bounded
below on dyadic-4 intervals, its weak-L2 norm stabilizes while every
stronger Lorentz norm diverges logarithmically, and the basis is Hilbertian
but not Besselian. Everything reduces to the quadrature and semigroup
primitives; random draws use a documented 64-bit linear generator.
"""
import math
from typing import NamedTuple

import numpy as np

from ._kernels import powcos_panels
from .errors import (BoundViolated, DomainError, _Immutable, _array,
                     _integer, _items, _real)
from .lorentz import StepFunction, lorentz_norm
from .quadrature import (_EPS, DEFAULT_SPEC, _gate, _halving_estimate,
                         powcos_quadrature, singular_end,
                         singular_oscillatory_integral)
from .semigroup import (CoefficientVector, DiagonalSystem, log_grid,
                        orbit_callable, orbit_observation)

__all__ = [
    "CounterexampleParams",
    "BasisIndexMap",
    "xi_coefficient",
    "period_table",
    "XiTable",
    "xi_asymptotic",
    "xi_period_decomposition",
    "envelope_power_q",
    "envelope_norm_q",
    "state_norm",
    "WitnessSystem",
    "witness_system",
    "divergence_profile",
    "LowerBoundReport",
    "orbit_lower_bound_check",
    "GramCache",
    "bessel_failure_witness",
    "hilbertian_constant_estimate",
]


class CounterexampleParams(_Immutable):
    """Exponents of the witness, all derived from the Lorentz index q."""

    __slots__ = ("q", "q_conj", "beta", "gamma")

    def __init__(self, q):
        q = _real(q, "q")
        if not 2.0 < q < math.inf:
            raise DomainError(f"q must lie in (2, inf), got {q}")
        gamma = 1.0 / q  # equals 1 - 2 beta, without its cancellation
        if gamma - 1.0 == -1.0:  # every q >= 2^54
            raise DomainError(f"q must lie below 2^54, got {q!r}: the range "
                              "the suites are run on; the witness values "
                              "grow like q and overflow far above it")
        q_conj = q / (q - 1.0)
        self._freeze(q=q, q_conj=q_conj, beta=1.0 / (2.0 * q_conj),
                     gamma=gamma)

    def __repr__(self):
        return (f"CounterexampleParams(q={self.q!r}, beta={self.beta!r}, "
                f"gamma={self.gamma!r})")


def _built_for(params, built, name):
    """Raise DomainError unless built (an XiTable or a GramCache) was built
    for params.q."""
    if built.params.q != params.q:
        raise DomainError(f"{name} was built for another q")


class BasisIndexMap:
    """Enumeration of integer frequencies: 0, -1, +1, -2, +2, ...

    Collapsing the two length-biased copies of the zero frequency into a
    single index keeps the family a genuine basis; coefficient, eigenvalue,
    and observation laws stay functions of the plain index k.
    """

    @staticmethod
    def frequencies(n):
        """First n frequencies as an int array."""
        k = np.arange(n)
        m = (k + 1) // 2
        return np.where(k % 2 == 1, -m, m)


def xi_coefficient(n, params, spec=DEFAULT_SPEC):
    """(1/pi) * integral of s^(gamma-1) cos(n s) over (0, pi).

    Even and odd basis indices share the value at |frequency|; the symmetric
    half-line form absorbs both sine and cosine pairings.
    """
    return singular_oscillatory_integral(params.gamma, n, spec) / math.pi


def xi_asymptotic(n, params):
    """Leading term (1/pi) n^(-gamma) cos(gamma pi/2) Gamma(gamma)."""
    n = _integer(n, "n", 1)
    g = params.gamma
    return n ** (-g) * math.cos(0.5 * math.pi * g) * math.gamma(g) / math.pi


def period_table(g, kmax, spec=DEFAULT_SPEC):
    """(F, estimate) with F[k-1] = integral of u^(g-1) cos u over (0, k pi).

    For k = 1..kmax and g in (0, 2], from one mesh: singular_end's graded
    first period (cap pi/2; its head and bound join period 0), then two
    half-period panels a period, each period checked against the halving.
    F is the cumulative sum; estimate[k-1] bounds |F[k-1] - F(k pi)| by the
    estimates of the periods below k pi plus 64 eps times the running sum of
    |increments| and eps times the running sum of |F|, which cover the
    cancellation of increments growing like k^(g-1) into F(k pi) ~ k^(g-2).
    """
    kmax = _integer(kmax, "kmax", 1)
    if not 0.0 < _real(g, "g") <= 2.0:
        raise DomainError(f"need g in (0, 2], got {g}")
    first, head, bound = singular_end(g, 1.0, math.pi, 0.5 * math.pi, spec)
    edges = np.append(first, 0.5 * math.pi * np.arange(3, 2 * kmax + 1))
    increments, local, _ = _halving_estimate(
        lambda e: powcos_panels(g, 0.0, 1.0, e), edges,
        np.r_[0, first.size - 1:edges.size - 1:2])  # a group per period
    # the head's rounding: 64 eps |head| <= 64 eps (|increments[0]| + abs sum)
    increments[0] += head
    local[0] += bound
    values = np.cumsum(increments)
    estimate = (np.cumsum(local)
                + 64.0 * _EPS * np.cumsum(np.abs(increments))
                + _EPS * np.cumsum(np.abs(values)))
    return values, estimate


class XiTable(_Immutable):
    """Coefficients xi(0..n_max) from one period table.

    With u = n s the coefficient becomes (1/pi) n^(-gamma) F(n pi) where
    F(X) integrates u^(gamma-1) cos u from 0, so period_table serves the
    whole table at once. estimate bounds the error of every entry with
    n >= 1 (values[0] is the closed form). cross_check compares selected
    entries against the direct one-integral route.
    """

    __slots__ = ("params", "values", "estimate")

    def __init__(self, params, n_max, spec=DEFAULT_SPEC):
        n_max = _integer(n_max, "n_max", 1)
        g = params.gamma
        partial, est = period_table(g, n_max, spec)
        n = np.arange(1, n_max + 1, dtype=float)
        values = np.empty(n_max + 1)
        values[0] = math.pi ** (g - 1.0) / g
        values[1:] = n ** (-g) * partial / math.pi
        self._freeze(params=params, values=values,
                     estimate=float(est[-1]) / math.pi)

    def __len__(self):
        return self.values.size

    def __getitem__(self, n):
        return float(self.values[n])

    def cross_check(self, indices, spec=DEFAULT_SPEC):
        """Worst relative gap against the direct quadrature route."""
        worst = 0.0
        for n in indices:
            direct = xi_coefficient(n, self.params, spec)
            worst = max(worst, abs(direct - self.values[n]) / abs(direct))
        return worst


def xi_period_decomposition(n, params, spec=DEFAULT_SPEC):
    """Per-period integrals I_l of (2 pi l + x)^(gamma-1) cos x, l < n.

    Each I_l is nonnegative and the sequence decreases: the even-index
    reconciliation xi(2m) = (2m)^(-gamma)/pi * sum_{l<m} I_l ties the
    decomposition back to xi_coefficient exactly (substitute u = 2m s and
    split (0, 2 pi m) into whole periods). One powcos_quadrature call over
    the shifts 2 pi l gives every I_l its one-period value bit for bit; I_0
    has the closed singular end.
    """
    n = _integer(n, "n", 1)
    return powcos_quadrature(params.gamma, 2.0 * math.pi * np.arange(n), 1.0,
                             2.0 * math.pi, spec)[0]


def envelope_power_q(eps, tau):
    """Closed-form q-th power of the envelope's Lorentz (2, q) norm.

    It telescopes to log((1+log(1/eps))/(1+log(1/tau))) for every q: the
    integrand (t^(1/2) f(t))^q dt/t is exactly d log(1+log(1/t)). Divergence
    as eps shrinks is this expression's affine growth in log(1+log(1/eps)).
    """
    if not 0.0 < _real(eps, "eps") < _real(tau, "tau") <= 1.0:
        raise DomainError("need 0 < eps < tau <= 1")
    # -log(x), not log(1/x): 1/x overflows for a subnormal x
    return math.log((1.0 - math.log(eps)) / (1.0 - math.log(tau)))


def envelope_norm_q(eps, tau, params):
    """Closed-form Lorentz (2, q) norm of the envelope over (eps, tau)."""
    return envelope_power_q(eps, tau) ** (1.0 / params.q)


def state_norm(params):
    """Closed-form state norm (2 pi^gamma / gamma)^(1/2)."""
    g = params.gamma
    return math.sqrt(2.0 * math.pi**g / g)


class WitnessSystem(NamedTuple):
    system: DiagonalSystem
    xi: CoefficientVector
    x_norm: float
    table: XiTable


def witness_system(params, n_modes=60, spec=DEFAULT_SPEC):
    """Default diagonal system carrying the witness coefficients.

    xi_k is the coefficient at |frequency(k)|; every value is nonnegative
    and bounded by the n = 0 coefficient (the integrand loses its
    oscillation), which certifies the tail for truncation bounds.
    """
    n_modes = _integer(n_modes, "n_modes", 2, 512)  # DiagonalSystem.default's
    table = XiTable(params, (n_modes + 1) // 2 + 1, spec)
    nu = np.abs(BasisIndexMap.frequencies(n_modes))
    xi = CoefficientVector(table.values[nu], tail_sup=table.values[0])
    system = DiagonalSystem.default(n_active=n_modes)
    return WitnessSystem(system, xi, state_norm(params), table)


def divergence_profile(params, eps_list, tau=1.0, *, witness, per_decade=64):
    """Norm growth table over shrinking left endpoints.

    Columns: eps, closed-form envelope Lorentz (2,q) norm, sampled-orbit
    Lorentz (2,q) norm, sampled-orbit weak-L2 norm, all over (eps, tau).
    The weak column stabilizes while both (2,q) columns diverge like
    log(1+log(1/eps))^(1/q): the quantitative endpoint separation. The
    witness must be built for params.q. The orbit is evaluated once, at
    the widest window's left cell ends; a window whose grid is a suffix of
    the widest one, as for eps = 10^-k, takes its values from there, and
    any other is evaluated on its own. An orbit value does not depend on
    its batch, so each window gets the values of a call of its own.
    """
    eps_arr = np.array([_real(e, "eps") for e in _items(eps_list, "eps_list")])
    tau = _real(tau, "tau")
    if eps_arr.size == 0 or not np.all(np.diff(eps_arr) < 0.0):
        raise DomainError("eps_list must be strictly decreasing")
    if not (np.all(eps_arr > 0.0) and np.all(eps_arr < tau) and tau <= 1.0):
        raise DomainError("need 0 < eps < tau <= 1 for every eps")
    per_decade = _integer(per_decade, "per_decade", 64)
    _built_for(params, witness.table, "witness")
    grids = [log_grid(eps, tau, per_decade) for eps in eps_arr]
    orbit = orbit_callable(witness.system, witness.xi)
    widest = grids[-1][:-1]
    wide = orbit(widest)
    out = np.empty((eps_arr.size, 4))
    for i, (eps, grid) in enumerate(zip(eps_arr, grids)):
        left = grid[:-1]
        tail = widest[widest.size - left.size:]
        steps = StepFunction(grid, wide[wide.size - left.size:]
                             if np.array_equal(tail, left) else orbit(left))
        out[i] = (eps,
                  envelope_norm_q(float(eps), tau, params),
                  lorentz_norm(steps, (2.0, params.q)),
                  lorentz_norm(steps, (2.0, math.inf)))
    return out


class LowerBoundReport(NamedTuple):
    worst_slack: float
    worst_n: int
    worst_t: float
    samples: int


def orbit_lower_bound_check(params, n_range, samples_per_interval,
                            tail_tolerance=1e-9, *, witness):
    """Certify orbit(t) >= xi_n 2^n e^{-1} on each interval [4^{-n-1}, 4^{-n}).

    The bound keeps only the k = n mode, whose exponent stays above e^{-1}
    there; nonnegativity of every other term makes it a lower bound. Slack
    below -tail_tolerance raises BoundViolated naming the offending (n, t).
    The witness must be built for params.q, with more than n_hi active
    modes.
    """
    n_lo, n_hi = (_integer(n, "n_range", 0)
                  for n in _items(n_range, "n_range", 2))
    if not n_lo <= n_hi:
        raise DomainError("n_range must be 0 <= lo <= hi")
    per = _integer(samples_per_interval, "samples_per_interval", 1)
    _built_for(params, witness.table, "witness")
    if n_hi >= witness.system.n_active:
        raise DomainError(f"n_hi={n_hi} needs a witness with more than "
                          f"{witness.system.n_active} active modes")
    if np.any(witness.xi.values < 0.0):
        raise DomainError("lower bound needs nonnegative coefficients")
    ns = np.repeat(np.arange(n_lo, n_hi + 1), per)
    ts = 4.0 ** (-ns - 1.0) \
        * (1.0 + 3.0 * np.tile(np.arange(per) / per, n_hi - n_lo + 1))
    bound = witness.xi.values[ns] * 2.0**ns / math.e
    slack = orbit_observation(witness.system, witness.xi, ts,
                              tail_tolerance).value - bound
    violated = np.flatnonzero(slack < -tail_tolerance)
    if violated.size:  # the first violation in (n, t) order
        i = violated[0]
        raise BoundViolated(
            f"orbit fell below its certified bound at n={ns[i]}, "
            f"t={ts[i]:.6e} (slack {slack[i]:.3e})", n=int(ns[i]),
            t=float(ts[i]))
    i = np.argmin(slack)
    return LowerBoundReport(float(slack[i]), int(ns[i]), float(ts[i]),
                            ts.size)


class GramCache(_Immutable):
    """Gram entries g(d) by frequency difference, from one period table.

    Entries depend only on the frequency difference d, and for d >= 1
    g(d) = 2 d^(-g) F(d pi) with F the period table of u^(g-1) cos u,
    g = 2 beta + 1; g(0) = 2 pi^g/g is closed.
    Every other entry passes the gate singular_oscillatory_detail applies,
    or the constructor raises ToleranceNotMet naming d.
    """

    __slots__ = ("params", "n_basis", "_nu", "_by_delta")

    def __init__(self, params, n_basis, spec=DEFAULT_SPEC):
        n_basis = _integer(n_basis, "n_basis", 1)
        dmax = n_basis - 1  # n frequencies span n lattice points
        g = 2.0 * params.beta + 1.0
        partial, est = period_table(g, max(dmax, 1), spec)
        scale = np.arange(1, dmax + 1, dtype=float) ** (-g)
        value = 2.0 * (scale * partial[:dmax])
        _gate(value, 2.0 * (scale * est[:dmax]), 0.02 * math.pi**g / g, spec,
              lambda i: f"Gram entry d={i + 1}")
        self._freeze(params=params, n_basis=n_basis,
                     _nu=BasisIndexMap.frequencies(n_basis),
                     _by_delta=np.concatenate(([2.0 * math.pi**g / g], value)))

    @property
    def diagonal(self):
        return float(self._by_delta[0])

    def quadratic_form(self, x):
        """x* G x over the first len(x) basis elements, in O(n log n).

        The first n frequencies fill the lattice -(n//2)..(n-1)//2, so x
        permuted onto it has the lag autocorrelation r_d of one zero-padded
        real FFT pair, and x* G x = g(0) r_0 + 2 sum_{d>=1} g(d) r_d.
        """
        x = _array(x, "x")
        n = x.size
        if x.ndim != 1 or not 1 <= n <= self.n_basis:
            raise DomainError(f"x must be 1-d, of length 1..{self.n_basis}")
        if not np.isfinite(x).all():
            raise DomainError("x must be finite")
        lattice = np.empty(n)
        lattice[self._nu[:n] + n // 2] = x
        size = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1
        spectrum = np.fft.rfft(lattice, size)  # numpy.fft loads on first use
        r = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[:n]
        g = self._by_delta[:n]
        return float(g[0] * r[0] + 2.0 * (g[1:] @ r[1:]))


def _gram_covers(params, gram, N):
    """Raise DomainError unless gram is built for params.q, N elements."""
    _built_for(params, gram, "gram")
    if gram.n_basis < N:
        raise DomainError(f"gram covers {gram.n_basis} basis elements, "
                          f"fewer than N = {N}")


def bessel_failure_witness(params, N_list, spec=DEFAULT_SPEC, *, gram,
                           table=None):
    """Table (N, sum of xi_k^2, quadratic form xi* G xi) over k < N.

    The coefficient column grows like N^(1 - 2/q) while the quadratic form
    converges to the squared state norm: their ratio diverges, refuting any
    lower frame constant. gram and a given table must be built for params.q.
    """
    sizes = [_integer(N, "N", 1) for N in _items(N_list, "N_list")]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("N_list must be strictly increasing positive ints")
    n_max = sizes[-1]
    _gram_covers(params, gram, n_max)
    need = (n_max + 1) // 2 + 1  # entries of a table covering k < n_max
    if table is None:
        table = XiTable(params, need, spec)
    _built_for(params, table, "table")
    if len(table) < need:
        raise DomainError(f"table has {len(table)} entries; N = {n_max} "
                          f"needs {need}")
    nu = np.abs(BasisIndexMap.frequencies(n_max))
    xi = table.values[nu]
    out = np.empty((len(sizes), 3))
    for i, n in enumerate(sizes):
        head = xi[:n]
        out[i] = (n, math.fsum(head**2), gram.quadratic_form(head))
    return out


_LCG_MUL, _LCG_ADD = 6364136223846793005, 1442695040888963407
_LCG_BLOCK = 4096  # states per block of the jump-ahead


def _lcg_uniform(seed, count):
    """Deterministic uniforms on [0, 1): 64-bit LCG, multiplier
    6364136223846793005, increment 1442695040888963407, top 53 bits.

    The k-step maps x -> mul[k-1] x + add[k-1] mod 2^64, k up to the block
    size, come from doubling in wrapping uint64 arithmetic, which is exact
    mod 2^64; block starts advance by the block map in Python ints, and each
    block's states are the k-step maps applied to its start.
    """
    mul = np.array([_LCG_MUL], dtype=np.uint64)
    add = np.array([_LCG_ADD], dtype=np.uint64)
    while mul.size < min(count, _LCG_BLOCK):  # the first 2k maps from k
        mul, add = (np.concatenate((mul, mul * mul[-1])),
                    np.concatenate((add, add * mul[-1] + add[-1])))
    mask = (1 << 64) - 1
    starts = [seed & mask]
    for _ in range(1, -(-count // mul.size)):
        starts.append((int(mul[-1]) * starts[-1] + int(add[-1])) & mask)
    states = np.array(starts, dtype=np.uint64)[:, None] * mul + add
    return (states.reshape(-1)[:count] >> 11) / float(1 << 53)


def hilbertian_constant_estimate(params, trials, N, seed=20259, *, gram):
    """Max over random draws of (a* G a)^(1/2) / (sum a_k^2)^(1/2).

    Coefficients are uniform on [-1, 1] from the documented linear
    generator; the statistic lower-bounds the upper frame constant and
    stays bounded as N grows because the basis is Hilbertian. gram must be
    built for params.q.
    """
    trials = _integer(trials, "trials", 1)
    N = _integer(N, "N", 1)
    _gram_covers(params, gram, N)
    seed = _integer(seed, "seed")
    draws = 2.0 * _lcg_uniform(seed, trials * N).reshape(trials, N) - 1.0
    return max(math.sqrt(gram.quadratic_form(a) / (a @ a)) for a in draws)
