"""Spectral measures in their four concrete shapes, plus quadrature rules.

Densities, weights and integrands always arrive as closures from the
caller; this module only integrates them. Every closure takes an array of
nodes and returns an array of the same shape; there is no scalar fallback,
and a closure that returns anything else raises TypeError.

Every measure has a rule n -> (nodes, weights), and one ladder refines it
by node doublings, starting at ``_NODES`` nodes and doubling at most
``_MAX_REFINEMENTS`` times. The stopping test is per entry: the integral
of f g dα is accepted at the first doubling that moves it by
|Δ| <= ``_TOL`` * A, with A the integral of |f g| d|α| at that level, a
test relative to the entry's own scale whatever its size, so a reported
value carries its own stability check. A non-finite sum raises
ConvergenceError at once.
There are two rule builders. ``_gauss_legendre_rule`` takes an interval
weight w(x), on 16-point panels. ``_rule`` takes the rest: a discrete
measure is its points, summed once in one level, and every other shape is
the midpoint rule in one variable v: the angle on the circle, the angle of
x = cos v for a [-1, 1] angle density, and Im t = sinh((pi/2) sinh v),
|v| < ``_LINE_WINDOW``, on the vertical line. That double-exponential map
turns the line density's algebraic tails into doubly exponential ones, so
every midpoint rule converges geometrically in n. These are module
constants, so every caller integrates the same way. Reductions run in a
fixed index order, which keeps results bit-stable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SupportProximityError

__all__ = [
    "CIRCLE",
    "INTERVAL",
    "LINE",
    "DISCRETE",
    "Measure",
    "circle_contour",
    "interval",
    "vertical_line",
    "discrete",
    "integrate",
    "stieltjes",
    "normalization",
    "weighted_gram",
]

CIRCLE = "circle_contour"
INTERVAL = "interval"
LINE = "vertical_line"
DISCRETE = "discrete"

_NODES = 64
_TOL = 1e-10
_MAX_REFINEMENTS = 10
_LINE_WINDOW = 4.2

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class Measure:
    """One of four support shapes; see the constructor helpers below.

    An interval carries exactly one of ``weight``, the density w(x) in x,
    or ``theta_density``, the angle density w(cos t) sin t on [0, pi]. The
    angle density is accepted only on [-1, 1], where x = cos t.
    """

    variant: str
    radius: float = None
    density: object = None
    lo: float = None
    hi: float = None
    weight: object = None
    theta_density: object = None
    re: float = None
    points: tuple = None

    def __post_init__(self):
        if self.variant == CIRCLE:
            if self.radius is None or not 0 < self.radius < math.inf:
                raise DomainError(
                    "circle contour needs a positive finite radius")
            if self.density is None:
                raise DomainError("circle contour needs a density")
        elif self.variant == INTERVAL:
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise DomainError("interval needs lo < hi")
            if math.isinf(self.hi) or (math.isinf(self.lo) and self.lo > 0):
                raise DomainError("only a left-infinite interval is supported")
            if (self.weight is None) == (self.theta_density is None):
                raise DomainError("interval needs exactly one of a weight "
                                  "and an angle density")
            if (self.theta_density is not None
                    and (self.lo, self.hi) != (-1.0, 1.0)):
                raise DomainError("an angle density lives on [-1, 1]")
        elif self.variant == LINE:
            if self.re is None or self.density is None:
                raise DomainError("vertical line needs re and a density")
            if not math.isfinite(self.re):
                raise DomainError("vertical line needs a finite re")
        elif self.variant == DISCRETE:
            if not self.points:
                raise DomainError("discrete measure needs mass points")
            if not np.isfinite(np.array(self.points, dtype=complex)).all():
                raise DomainError("discrete measure needs finite mass points")
        else:
            raise DomainError(f"unknown measure variant {self.variant!r}")


def circle_contour(radius, density):
    """Contour |t| = radius; density(theta) is the t-plane density at
    t = radius*exp(i theta), and dt = i*t*dtheta is supplied internally."""
    return Measure(variant=CIRCLE, radius=float(radius), density=density)


def interval(lo, hi, weight=None, theta_density=None):
    """Interval [lo, hi], finite or left-infinite; see Measure for the
    weight and the angle density."""
    return Measure(variant=INTERVAL, lo=float(lo), hi=float(hi), weight=weight,
                   theta_density=theta_density)


def vertical_line(re, density):
    """Line Re t = re; density(y) is the linear density in y = Im t."""
    return Measure(variant=LINE, re=float(re), density=density)


def discrete(points):
    return Measure(variant=DISCRETE, points=tuple(points))


# -- node evaluation and the refinement ladder -----------------------------


def _eval_nodes(f, pts):
    """f at every node, from one call on the node array."""
    v = np.asarray(f(pts), dtype=complex)
    if v.shape != pts.shape:
        raise TypeError(
            f"a closure returned shape {v.shape} for {pts.shape} nodes; "
            "closures take and return node arrays")
    return v


def _eval_rows(fs, pts):
    """Row k holds fs[k] at every node."""
    out = np.empty((len(fs), len(pts)), dtype=complex)
    for k, f in enumerate(fs):
        out[k] = _eval_nodes(f, pts)
    return out


def _level_gram(rule, n, left, right):
    """G = (L * w) @ R.T and its scale A = (|L| |w|) @ |R|.T at the n-node
    level of a rule; a non-finite G raises ConvergenceError.

    The node arrays live only in this frame, so an exception the ladder
    raises later does not keep them alive through its traceback.
    """
    t, w = rule(n)
    L = _eval_rows(left, t)
    R = _eval_rows(right, t)
    with np.errstate(all="ignore"):   # a non-finite sum raises below
        G = (L * w) @ R.T
        A = (np.abs(L) * np.abs(w)) @ np.abs(R).T
    if not np.isfinite(G).all():
        raise ConvergenceError(f"the quadrature sum is not finite at {n} nodes")
    return G, A


def _ladder(m, left, right):
    """G[i, j] = integral of left[i](t) right[j](t) dα(t), by one ladder.

    Every level evaluates each member once and forms G = (L * w) @ R.T
    from the rule's nodes and weights. Once an entry passes the stopping
    test it is frozen; later levels evaluate only the rows and columns
    that still hold an open entry. A discrete measure's fixed rule is
    summed once, with no refinement.
    """
    rule = _rule(m)
    if m.variant == DISCRETE:
        return _level_gram(rule, len(m.points), left, right)[0]
    G = np.zeros((len(left), len(right)), dtype=complex)
    open_ = np.ones(G.shape, dtype=bool)
    rows, cols = np.arange(len(left)), np.arange(len(right))
    n = _NODES
    for level in range(_MAX_REFINEMENTS + 1):
        cur, scale = _level_gram(rule, n, [left[i] for i in rows],
                                 [right[j] for j in cols])
        block = np.ix_(rows, cols)
        prev, live = G[block], open_[block]
        G[block] = np.where(live, cur, prev)
        if level:
            open_[block] = live & ~(np.abs(cur - prev) <= _TOL * scale)
            if not open_.any():
                return G
            rows = np.flatnonzero(open_.any(axis=1))
            cols = np.flatnonzero(open_.any(axis=0))
        n *= 2
    entries = [tuple(int(k) for k in ij) for ij in np.argwhere(open_)]
    raise ConvergenceError(
        f"{m.variant} quadrature did not stabilize within "
        f"{_MAX_REFINEMENTS} doublings; open entries (i, j): {entries}")


# -- the two rule builders: n -> (nodes, weights) ----------------------------
#
# The weights carry the density, the Jacobian of any map and the rule
# weights, so every rule integrates f as sum(f(nodes) * weights).


def _gauss_legendre_rule(m):
    # 16-point panels; a left-infinite interval is mapped by
    # x = hi - (s/(1-s))^2, s in (0, 1), which pulls the left tail onto a
    # finite panel while keeping sqrt(hi - x) smooth at the near end
    infinite = math.isinf(m.lo)
    seg_lo, seg_hi = (0.0, 1.0) if infinite else (m.lo, m.hi)

    def rule(n):
        edges = np.linspace(seg_lo, seg_hi, max(1, n // _GL_ORDER) + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        s = (mid + half * _GL_NODES).ravel()
        w = (half * _GL_WEIGHTS).ravel()
        if not infinite:
            return s, w * _eval_nodes(m.weight, s)
        x = m.hi - (s / (1.0 - s)) ** 2
        return x, w * _eval_nodes(m.weight, x) * (2.0 * s / (1.0 - s) ** 3)
    return rule


def _rule(m):
    """n -> (nodes, weights); the midpoint rule maps v -> (t, density dt/dv)."""
    if m.variant == DISCRETE:
        t = np.array([p[0] for p in m.points], dtype=complex)
        w = np.array([p[1] for p in m.points], dtype=complex)
        return lambda n: (t, w)
    if m.variant == CIRCLE:
        lo, hi = 0.0, 2.0 * math.pi

        def mapped(v):
            t = m.radius * np.exp(1j * v)
            return t, _eval_nodes(m.density, v) * 1j * t
    elif m.variant == LINE:
        lo, hi = -_LINE_WINDOW, _LINE_WINDOW

        def mapped(v):
            s = 0.5 * math.pi * np.sinh(v)
            y = np.sinh(s)
            jac = 0.5 * math.pi * np.cosh(v) * np.cosh(s)
            return m.re + 1j * y, _eval_nodes(m.density, y) * jac
    elif m.theta_density is not None:
        lo, hi = 0.0, math.pi

        def mapped(v):
            return np.cos(v), _eval_nodes(m.theta_density, v)
    else:
        return _gauss_legendre_rule(m)

    def rule(n):
        h = (hi - lo) / n
        t, dt = mapped(lo + (np.arange(n) + 0.5) * h)
        return t, dt * h
    return rule


def _one(t):
    return np.ones_like(t)


def integrate(m, f):
    """Integral of f against the measure, refined to the stopping test."""
    return complex(_ladder(m, [f], [_one])[0, 0])


def _support_distance(m, z):
    z = complex(z)
    if m.variant == CIRCLE:
        return abs(abs(z) - m.radius)
    if m.variant == INTERVAL:
        x, y = z.real, z.imag
        if math.isinf(m.lo):
            dx = max(x - m.hi, 0.0)
        else:
            dx = max(m.lo - x, 0.0, x - m.hi)
        return math.hypot(dx, y)
    if m.variant == LINE:
        return abs(z.real - m.re)
    return min(abs(z - complex(p[0])) for p in m.points)


def stieltjes(m, z):
    """The transform z -> integral of dα(t)/(z - t)."""
    if _support_distance(m, z) <= _TOL:
        raise SupportProximityError(
            f"z = {z} sits on or too close to the support")
    return integrate(m, lambda t: 1.0 / (z - t))


def normalization(m):
    """Total mass of the measure."""
    return integrate(m, _one)


def weighted_gram(m, left, right, N):
    """G[i][j] = integral of left(i)(t) right(j)(t) dα(t), 0 <= i, j < N.

    left and right map an index to a member closure, as BiorthFamily.left
    and right do. One refinement ladder serves the whole matrix.
    """
    return _ladder(m, [left(i) for i in range(N)],
                   [right(j) for j in range(N)])
