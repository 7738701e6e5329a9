"""Controlled-accuracy quadrature for singular and oscillatory integrands.

Meshes combine uniform panels no wider than half an oscillation period with
a geometric grading toward an endpoint power singularity; each panel uses a
fixed-order Gauss-Legendre rule, and the error estimate is the gap between
the mesh and its halving plus a roundoff floor (and the bound of the
closed-form or dropped panel at the singular end): a heuristic, not a
bound, as a mesh whose halving changes little may still miss the integral.
"""
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _NODES, GAUSS_ORDER, gauss_contributions, powcos_panels
from .errors import (DomainError, ToleranceNotMet, _integer, _items,
                     _points, _real)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "GAUSS_ORDER",
    "MAX_PANELS",
    "singular_oscillatory_integral",
    "singular_oscillatory_detail",
    "laplace_quadrature",
]

# leggauss symmetrizes its nodes: _NODES[:_HALF] is -_NODES[_HALF:] reversed
_HALF = GAUSS_ORDER // 2
_EPS = float(np.finfo(float).eps)
MAX_PANELS = 200_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance shared by all quadrature routines."""

    relative_tolerance: float = 1e-10

    def __post_init__(self):
        tol = _real(self.relative_tolerance, "relative_tolerance")
        if not 1e-14 <= tol <= 1e-2:
            raise DomainError("relative_tolerance must lie in [1e-14, 1e-2]")


DEFAULT_SPEC = QuadratureSpec()


def _graded_meshes(Ls, caps, hmins):
    """(edges, sizes): the meshes of the points of the lists laid end to
    end in one array built in one pass, and each mesh's edge count. A mesh
    has edges on [0, L]: uniform panels no wider than cap on [cap, L], and,
    when hmin is not None, a geometric layer from cap down to an edge
    h <= hmin where the mesh starts: the head [0, h] is the caller's to
    bound. Every point's panel count is checked against MAX_PANELS, in
    order, before any array is built. cap <= L/2, as every caller's is.
    Level k of a geometric layer is ldexp(cap, -k), which equals cap
    0.5^k: both round cap 2^-k once, as 0.5^k is exact down to 2^-1074.
    The m uniform panels' edges are np.linspace's: j (L - cap)/m + cap,
    then L at j = m (its zero-step branch is never taken: the step is at
    least about cap/2).
    """
    plans = []
    for L, cap, hmin in zip(Ls, caps, hmins):
        m_uni = int(math.ceil((L - cap) / cap - 1e-12))
        depth = 0 if hmin is None else max(int(math.ceil(
            math.log(cap / hmin) / math.log(2.0))), 1)
        panels = depth + m_uni + (hmin is None)  # [0, cap] is a panel ungraded
        if panels > MAX_PANELS:
            raise ToleranceNotMet(f"mesh needs {panels} panels, exceeding "
                                  f"MAX_PANELS={MAX_PANELS}")
        plans.append((hmin is None, depth, m_uni))
    lead, depths, unis = np.array(plans, dtype=int).T  # lead: the edge 0
    sizes = lead + depths + unis + 1
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # j: an edge's place after its mesh's cap, negative in the graded layer
    j = np.arange(ends[-1]) - (starts + lead + depths).repeat(sizes)
    cap = np.repeat(caps, sizes)
    step = np.repeat((np.array(Ls) - caps) / unis, sizes)
    edges = np.where(j < 0, np.ldexp(cap, np.minimum(j, 0)), j * step + cap)
    edges[ends - 1] = Ls
    edges[starts[lead > 0]] = 0.0
    return edges, sizes


def _halving_estimate(contributions, edges, starts=(0,), panel_args=()):
    """(fine value, estimate, fine abs sum) per group of panels, as arrays.

    contributions(edges, *panel_args) returns the per-panel Gauss sums of a
    mesh, each of panel_args one value a panel (each twice on the halving);
    group i starts at coarse panel starts[i], and at fine panel 2 starts[i].
    The estimate is the coarse/fine gap plus 64 eps times the fine abs sum.
    That floor bounds the roundoff of np.add.reduceat, the one sum every
    route takes: numpy adds a group's first term to a pairwise sum of the
    rest, which sums blocks of at most 128 terms in 8 running sums plus a
    remainder (at most 25 additions a term) and halves longer runs, at most
    13 times below 2 MAX_PANELS terms, complex ones too. A term meets at
    most 39 additions, so the error is below 39 (eps/2) times abs sum.
    """
    halved = np.empty(2 * edges.size - 1)
    halved[0::2] = edges
    halved[1::2] = 0.5 * (edges[1:] + edges[:-1])
    starts = np.asarray(starts)
    coarse = np.add.reduceat(contributions(edges, *panel_args), starts)
    c = contributions(halved, *(v.repeat(2) for v in panel_args))
    fine = np.add.reduceat(c, 2 * starts)
    abssum = np.add.reduceat(np.abs(c), 2 * starts)
    return fine, np.abs(fine - coarse) + 64.0 * _EPS * abssum, abssum


def _mesh_estimates(contributions, edges, sizes, values):
    """(fine value, estimate, fine abs sum, first edge) per mesh, as arrays,
    for meshes of sizes[i] edges laid end to end in the array edges; mesh
    i's panels take values[i], passed as contributions(edges, per-panel
    values). One halving pass: the panel joining a mesh to the next takes
    its value and is a discarded group of its own; the kernel sums a panel
    the same wherever it sits, so a mesh's fine value and estimate are the
    ones it has alone, bit for bit. No mesh, no pass.
    """
    if not sizes.size:
        return [np.empty(0)] * 4
    ends = np.cumsum(sizes)  # a mesh's joining panel is its end - 1
    starts = np.c_[ends - sizes, ends - 1].ravel()[:-1]  # last: no join
    fine, est, abssum = (v[::2].copy() for v in _halving_estimate(
        contributions, edges, starts, (values.repeat(sizes)[:-1],)))
    return fine, est, abssum, edges[ends - sizes]


def _gate(value, estimate, floor, spec, name):
    """The one tolerance gate: each estimate must be at most tol * max(|value|,
    floor), for value and estimate one number or arrays of one shape and
    floor one number or one an entry; else ToleranceNotMet names name(i) of
    the first failing entry i and carries its value and estimate. A NaN
    fails. |value| is np.hypot, which rounds as abs(complex) does.
    """
    value, estimate = np.asarray(value), np.asarray(estimate)
    gate = spec.relative_tolerance * np.maximum(
        np.hypot(value.real, value.imag), floor)
    failed = np.flatnonzero(~(estimate <= gate))
    if failed.size:
        i = int(failed[0])
        v, e = value.flat[i].item(), estimate.flat[i].item()
        raise ToleranceNotMet(f"estimate {e:.3e} exceeds tolerance for "
                              f"{name(i)}", value=v, estimate=e)


def singular_end(g, freq, L, cap, spec=DEFAULT_SPEC):
    """(edges, head, bound): the graded mesh of [h, L]; over [0, h] the
    integral of s^(g-1) cos(freq s) is head = h^g/g within bound = freq^2
    h^(g+2)/(2 (g+2)), as cos x = 1 - 2 sin^2(x/2); bound <= 1e-4 tol cap^g/g.
    """
    target = 2e-4 * (g + 2.0) * spec.relative_tolerance * cap**g / g
    hmin = min(cap, (target / freq**2) ** (1.0 / (g + 2.0))) if freq else cap
    edges, _ = _graded_meshes([L], [cap], [hmin])
    h = float(edges[0])
    return edges, h**g / g, freq**2 * h ** (g + 2.0) / (2.0 * (g + 2.0))


def powcos_quadrature(g, shift, freq, L, spec=DEFAULT_SPEC):
    """(value, error estimate) for integral of (shift+s)^(g-1) cos(freq s)
    on [0, L], at one shift or, as two arrays, over a 1-d array of them.

    Uniform panels are capped at half a period pi/freq; shift 0 takes
    singular_end's mesh, whose head joins the value and its bound the
    estimate, with 4 eps |head| for the rounding of h^g/g and of its
    addition: at small g the head, about 1/g, dwarfs the panels' abs sum.
    No tolerance gate is applied; callers pass it to _gate with their floor.
    """
    shifts = np.asarray(shift, dtype=float)
    zero = shifts.reshape(-1) == 0.0
    cap = min(L / 2.0, math.pi / freq) if freq > 0.0 else L / 2.0
    end, head, bound = (singular_end(g, freq, L, cap, spec) if zero.any()
                        else (None, 0.0, 0.0))
    plain = None if zero.all() else _graded_meshes([L], [cap], [None])[0]
    meshes = [end if z else plain for z in zero.tolist()]
    fine, est, _, _ = _mesh_estimates(
        lambda e, c: powcos_panels(g, c, freq, e),
        np.concatenate(meshes or [np.empty(0)]),
        np.array([m.size for m in meshes], dtype=int), shifts.reshape(-1))
    value = fine + head * zero
    est = est + (bound + 4.0 * _EPS * head) * zero
    return (value.item(), est.item()) if shifts.ndim == 0 else (value, est)


def singular_oscillatory_integral(gamma_exp, n, spec=DEFAULT_SPEC):
    """Integral of s^(gamma_exp - 1) cos(n s) over (0, pi).

    gamma_exp in (0, 2]: exponents in (0, 1) give an integrable singularity;
    (1, 2] gives continuous integrands with singular derivatives; both go
    through the same closed singular end and graded mesh.
    """
    value, _ = singular_oscillatory_detail(gamma_exp, n, spec)
    return value


def singular_oscillatory_detail(gamma_exp, n, spec=DEFAULT_SPEC):
    """Same as singular_oscillatory_integral but returns (value, estimate)."""
    gamma_exp = _real(gamma_exp, "gamma_exp")
    if not 0.0 < gamma_exp <= 2.0:
        raise DomainError(f"gamma_exp must lie in (0, 2], got {gamma_exp}")
    n = _integer(n, "n", 0)
    value, est = powcos_quadrature(gamma_exp, 0.0, float(n), math.pi, spec)
    _gate(value, est, 0.01 * (math.pi**gamma_exp / gamma_exp), spec,
          lambda i: f"gamma_exp={gamma_exp}, n={n}")
    return value, est


def laplace_quadrature(orbit, lam, spec=DEFAULT_SPEC, *, T, decay):
    """Integral of exp(-lam t) * orbit(t) over (0, T), at one lam or over a
    1-d array of them (T one value, or one per point).

    orbit must accept a float array and return values elementwise. decay =
    (M, alpha) is the caller's certified bound |orbit(t)| <= M t^(-alpha) on
    (0, T], with M >= 0 finite and 0 <= alpha < 1. Each point's mesh grades
    toward 0 down to an edge h <= (1e-8 tol)^(1/(1-alpha)) min(T, 1/|lam|)
    and drops the head [0, h], whose integral is at most M h^(1-alpha)/(1-
    alpha); that bound joins the point's estimate; the factor 1e-8 leaves
    room for orbits that cancel far below M. At lam = 1, alpha = 0 and the
    default tolerance the graded layer has 59 levels. Every point keeps the
    mesh, value and gate of a one-point call, bit for bit, and its mesh is
    checked against MAX_PANELS on its own; the meshes are built as one
    array (_graded_meshes), and _mesh_estimates halves it in one pass.
    Non-finite lam or T raise DomainError before orbit is called, and a
    point whose h is 0 or cap/h not finite, as for alpha above about 0.94
    at lam = 1, T = 1 and the default tolerance, ToleranceNotMet. The
    caller chooses T so the discarded tail is below tolerance. One lam
    returns a complex, an array of them a complex array.
    """
    lams, Ts = _points(lam, complex, "lambda"), _points(T, float, "T")
    if Ts.shape not in ((), lams.shape):
        raise DomainError("T must be one value or one per point")
    one = lams.ndim == 0
    lams = lams.reshape(-1)
    Ts = np.broadcast_to(Ts, lams.shape)
    M, alpha = (_real(v, "decay") for v in _items(decay, "decay", 2))
    if not (0.0 <= M < math.inf and 0.0 <= alpha < 1.0):
        raise DomainError(
            f"decay needs finite M >= 0 and alpha in [0, 1), got {decay}")
    g = 1.0 - alpha
    hscale = (1e-8 * spec.relative_tolerance) ** (1.0 / g)
    caps = np.min((math.pi / np.maximum(np.abs(lams.imag), 1e-300),
                   0.5 / lams.real, Ts / 4.0), axis=0)
    # |lam| by hypot, which rounds as abs() does; np.abs may not
    hmins = hscale * np.minimum(Ts, 1.0 / np.hypot(lams.real, lams.imag))
    with np.errstate(divide="ignore", over="ignore"):
        unreachable = np.flatnonzero(~(caps / hmins < math.inf))
    if unreachable.size:  # h underflowed: no depth reaches it
        i = unreachable[0]
        raise ToleranceNotMet(
            f"graded mesh cannot reach h = {hmins[i]:.3e} from cap "
            f"{caps[i]:.3e} for lambda={lams[i].item()}, T={Ts[i].item()}, "
            f"alpha={alpha}")

    def integrand(s, m, h2, neg_lam):
        # exp(-lam s) at the nodes m -/+ h2 x of a panel, x > 0, is
        # exp(-lam m) divided or multiplied by exp(-lam h2 x): the nodes
        # are antisymmetric, so 7 complex exponentials a panel, not 12.
        # The positive nodes' rows of z hold exp(-lam h2 x) until the
        # division has read them. A wanted panel has Re(lam) h2 <= 1/4 or
        # so; a panel of negative width is a discarded join from one mesh's
        # end back to the next one's start, where -lam h2 x may overflow,
        # so it takes lam = 0. The orbit gets the nodes in node order: its
        # value at a point does not depend on the batch.
        neg_lam = np.where(h2 < 0.0, 0.0, neg_lam)
        z = np.empty(s.shape, dtype=complex)
        pair = z[_HALF:]
        np.multiply(neg_lam * h2, _NODES[_HALF:, None], out=pair)
        np.exp(pair, out=pair)
        mid = np.exp(neg_lam * m)
        np.divide(mid, pair[::-1], out=z[:_HALF])
        pair *= mid
        z *= np.asarray(orbit(s.ravel())).reshape(s.shape)
        return z

    values, est, abssum, heads = _mesh_estimates(
        lambda e, neg_lam: gauss_contributions(integrand, e, neg_lam),
        *_graded_meshes(Ts.tolist(), caps.tolist(), hmins.tolist()), -lams)
    est += [M * h ** g / g for h in heads.tolist()]  # a mesh starts at its h
    _gate(values, est, 0.01 * abssum, spec,
          lambda i: f"lambda={lams[i].item()}, T={Ts[i].item()}")
    return values[0].item() if one else values
