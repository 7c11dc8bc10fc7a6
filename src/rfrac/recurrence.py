"""Three-term recurrence engine for the two coefficient-family kinds.

Both kinds share the shape

    P_n(z) = (z - c_n) P_{n-1}(z) - w_n(z) P_{n-2}(z)

where the partial numerator w_n is lambda_n (z - a_n) for kind R_I and
lambda_n (z - a_n)(z - b_n) for kind R_II. First kind starts (P_-1, P_0) =
(0, 1), second kind (Q_0, Q_1) = (0, 1). Everything downstream (convergents,
rationalized sequences, backward minimal-solution estimates, Pincherle
residuals) is built from that single shape.

The backward sweeps start from the limit-periodic tail root, and a tie
of the tail roots (z on the support) raises ConvergenceError; see
_backward_pass.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import CollisionError, ConvergenceError, DomainError

R_I = "R_I"
R_II = "R_II"

# z counts as sitting on an interpolation point within this relative distance
_COLLISION_RTOL = 1e-13
# minimal_solution_backward's stopping tolerance (see its docstring)
_BACKWARD_TOL = 1e-11

__all__ = [
    "R_I",
    "R_II",
    "RecurrenceSpec",
    "PQPair",
    "MinimalSolutionEstimate",
    "forward",
    "rationalize",
    "convergents",
    "minimal_solution_backward",
    "pincherle_residual",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficient maps n -> c_n, lambda_n, a_n (and b_n for kind R_II).

    Maps are callables defined for n >= 1. lambda_1 may vanish (some models
    start that way); lambda_n for n >= 2 must not, and is checked at query
    time.
    """

    kind: str
    c: object
    lam: object
    a: object
    b: object = None

    def __post_init__(self):
        if self.kind not in (R_I, R_II):
            raise DomainError(f"unknown recurrence kind {self.kind!r}")
        if self.kind == R_II and self.b is None:
            raise DomainError("kind R_II needs the second interpolation map b")
        if self.kind == R_I and self.b is not None:
            raise DomainError("kind R_I carries no second interpolation map")

    def lam_checked(self, n):
        v = complex(self.lam(n))
        if n >= 2 and v == 0.0:
            raise DomainError(f"lambda_{n} = 0 breaks the recurrence")
        return v

    def partial_numerator(self, n, z):
        """w_n(z), the n-th partial numerator of the fraction."""
        w = self.lam_checked(n) * (z - self.a(n))
        if self.kind == R_II:
            w *= z - self.b(n)
        return w

    def interpolation_points(self, n):
        """Divisor roots a_{n+1} (and b_{n+1} for R_II) of the n-th level."""
        if self.kind == R_I:
            return (complex(self.a(n + 1)),)
        return (complex(self.a(n + 1)), complex(self.b(n + 1)))


@dataclass(frozen=True)
class PQPair:
    """First and second kind values at a point.

    P holds P_{-1}..P_N (so P[0] is P_{-1}), Q holds Q_0..Q_N.
    """

    P: list
    Q: list
    z: complex

    def p(self, n):
        return self.P[n + 1]

    def q(self, n):
        return self.Q[n]

    @property
    def order(self):
        return len(self.P) - 2


@dataclass(frozen=True)
class MinimalSolutionEstimate:
    """Backward-recurrence estimate of the minimal solution.

    values holds X_0..X_window scaled so X_0 = 1. ratio_at_0 is
    X_0 / (lambda_1 (z - a_1) [(z - b_1)] X_{-1}), evaluated through the
    recurrence identity lambda_1 (...) X_{-1} = (z - c_1) X_0 - X_1 so a
    vanishing lambda_1 never has to be divided by. residual is the largest
    relative recurrence defect over the window. rate is |rho_small /
    rho_big| of the tail roots at the returned start: the factor by which
    the sweep damps the dominant solution per step. It is small far from
    the support, and near 1 where z approaches it and the sweep needs
    long starts.
    """

    values: list
    ratio_at_0: complex
    residual: float
    start: int
    rate: float


def forward(spec, z, N):
    """P_{-1}..P_N and Q_0..Q_N at z by the forward recurrence."""
    if N < 0:
        raise DomainError("forward needs N >= 0")
    zc = complex(z)
    P = [0.0 + 0.0j, 1.0 + 0.0j]
    Q = [0.0 + 0.0j]
    if N >= 1:
        Q.append(1.0 + 0.0j)
    for n in range(1, N + 1):
        w = spec.partial_numerator(n, zc)
        P.append((zc - spec.c(n)) * P[n] - w * P[n - 1])
        if n >= 2:
            Q.append((zc - spec.c(n)) * Q[n - 1] - w * Q[n - 2])
    return PQPair(P=P, Q=Q, z=zc)


def rationalize(spec, pq):
    """Divide P_n by its interpolation factors, level by level.

    Returns the list for n = 0..N: P_n(z) / prod_{k=1..n} (z - a_{k+1})
    for kind R_I, with the (z - b_{k+1}) factors included for kind R_II.
    """
    zc = pq.z
    tol = _COLLISION_RTOL * max(1.0, abs(zc))
    out = [pq.p(0)]
    denom = 1.0 + 0.0j
    for k in range(1, pq.order + 1):
        for pt in spec.interpolation_points(k):
            if abs(zc - pt) <= tol:
                raise CollisionError(
                    f"z = {zc} collides with interpolation point at level {k}")
            denom *= zc - pt
        out.append(pq.p(k) / denom)
    return out


def convergents(spec, z, N):
    """Q_n(z)/P_n(z) for n = 1..N.

    The forward recurrence is rescaled jointly by powers of two whenever the
    values leave a safe magnitude band, which leaves every ratio intact.
    Entries with a vanishing denominator come back as NaN.
    """
    if N < 1:
        raise DomainError("convergents needs N >= 1")
    zc = complex(z)
    nan = complex(math.nan, math.nan)
    p_prev, p_cur = 1.0 + 0.0j, zc - spec.c(1)   # P_0, P_1
    q_prev, q_cur = 0.0 + 0.0j, 1.0 + 0.0j       # Q_0, Q_1
    out = [q_cur / p_cur if p_cur != 0.0 else nan]
    for n in range(2, N + 1):
        w = spec.partial_numerator(n, zc)
        s = zc - spec.c(n)
        p_cur, p_prev = s * p_cur - w * p_prev, p_cur
        q_cur, q_prev = s * q_cur - w * q_prev, q_cur
        big = max(abs(p_cur), abs(p_prev), abs(q_cur), abs(q_prev))
        if big > 2.0**500:
            p_cur *= 2.0**-500
            p_prev *= 2.0**-500
            q_cur *= 2.0**-500
            q_prev *= 2.0**-500
        elif 0.0 < big < 2.0**-500:
            p_cur *= 2.0**500
            p_prev *= 2.0**500
            q_cur *= 2.0**500
            q_prev *= 2.0**500
        out.append(q_cur / p_cur if p_cur != 0.0 else nan)
    return out


def _sweep_numerator(spec, n, z):
    """w_n(z) for the backward sweep, which divides by it."""
    w = spec.partial_numerator(n, z)
    if w == 0.0:
        raise CollisionError(
            f"partial numerator vanishes at level {n}; z sits on an "
            "interpolation point")
    if not cmath.isfinite(w):
        raise ConvergenceError(
            f"coefficient overflow at level {n}; lower the start index")
    return w


def _tail_root(spec, z, n):
    """(rho, rate) for the frozen tail t^2 - (z - c_n) t + w_n(z) = 0.

    rho is the smaller-modulus root, the minimal ratio X_n / X_{n-1} of the
    recurrence with its coefficients frozen at level n, and rate is
    |rho_small / rho_big|. The quadratic is scaled so that (z - c_n)^2
    cannot overflow, and the smaller root is w_n / big, so it does not
    cancel. Roots tied in modulus (relative gap <= _BACKWARD_TOL) put z on
    the support, where no solution is minimal: ConvergenceError.
    """
    w = _sweep_numerator(spec, n, z)
    s = z - spec.c(n)
    m = max(abs(s), 2.0 * math.sqrt(abs(w)))
    s1, w1 = s / m, w / m / m
    d = cmath.sqrt(s1 * s1 - 4.0 * w1)
    big = (s1 + d if abs(s1 + d) >= abs(s1 - d) else s1 - d) / 2.0
    rate = abs(w1 / big) / abs(big)
    if 1.0 - rate <= _BACKWARD_TOL:
        raise ConvergenceError(
            f"the tail roots at level {n} tie in modulus; z is on the support")
    return w / (big * m), rate


def _backward_pass(spec, z, window, start):
    """One Miller sweep from (X_{start+1}, X_start) = (rho, 1) down to n = 0.

    rho is _tail_root at level start + 1: the sweep starts on the minimal
    solution of the recurrence frozen there, which every model's
    limit-periodic coefficients approach. Returns (values X_0..X_window
    scaled to X_0 = 1, ratio_at_0, rate). The sweep rescales by powers of
    two when it leaves a safe magnitude band; stored window values are
    rescaled along with it, so ratios are untouched.
    """
    if start <= window:
        raise DomainError("start must exceed the reporting window")
    zc = complex(z)
    hi, rate = _tail_root(spec, zc, start + 1)   # X_{n}
    lo = 1.0 + 0.0j                              # X_{n-1}
    store = {}
    for n in range(start + 1, 1, -1):
        w = _sweep_numerator(spec, n, zc)
        nxt = ((zc - spec.c(n)) * lo - hi) / w   # X_{n-2}
        hi, lo = lo, nxt
        mag = max(abs(hi), abs(lo))
        if mag > 2.0**500 or (mag != 0.0 and mag < 2.0**-500):
            s = 2.0 ** -round(math.log2(mag))
            hi *= s
            lo *= s
            for k in store:
                store[k] *= s
        if n - 2 <= window:
            store[n - 2] = lo
    x0, x1 = store[0], store[1]
    if x0 == 0.0:
        raise ConvergenceError("backward sweep hit X_0 = 0; z is a pole "
                               "candidate, move the start index")
    denom = (zc - spec.c(1)) * x0 - x1
    ratio = x0 / denom if denom != 0.0 else complex(math.inf, 0.0)
    vals = [store[m] / x0 for m in range(window + 1)]
    return vals, ratio, rate


def minimal_solution_backward(spec, z, window, start=40, max_start=1280):
    """Minimal-solution estimate by backward recurrence with start doubling.

    Each sweep is seeded with the tail root of its start level (see
    _backward_pass). The start index doubles (start, 2 start, ...) until
    ratio_at_0 agrees between two successive sweeps within
    _BACKWARD_TOL * max(1, |newer|). A z where the tail roots tie in
    modulus lies on the support and raises ConvergenceError, as does a
    sweep that has not settled by max_start, or one whose coefficient maps
    overflow (inf, or a builtin OverflowError or ZeroDivisionError).
    """
    if window < 1:
        raise DomainError("window must be at least 1")
    zc = complex(z)
    prev_ratio = None
    s = start
    while s <= max_start:
        try:
            vals, ratio, rate = _backward_pass(spec, zc, window, s)
        except (OverflowError, ZeroDivisionError):
            # a coefficient map left the float range in plain Python
            # arithmetic, which raises instead of giving inf
            raise ConvergenceError(
                f"coefficient overflow in the sweep from level {s + 1}; "
                "lower the start index") from None
        if prev_ratio is not None:
            if abs(ratio - prev_ratio) <= _BACKWARD_TOL * max(1.0, abs(ratio)):
                res = _window_residual(spec, zc, vals)
                return MinimalSolutionEstimate(
                    values=vals, ratio_at_0=ratio, residual=res, start=s,
                    rate=rate)
        prev_ratio = ratio
        s *= 2
    raise ConvergenceError(
        f"backward recurrence did not stabilize by start = {max_start}")


def _window_residual(spec, z, vals):
    """Largest relative recurrence defect over the stored window."""
    worst = 0.0
    for n in range(2, len(vals)):
        w = spec.partial_numerator(n, z)
        lhs = vals[n]
        rhs = (z - spec.c(n)) * vals[n - 1] - w * vals[n - 2]
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def pincherle_residual(spec, z, cf_value, est):
    """|cf_value - est.ratio_at_0|.

    ratio_at_0 is already built on the identity
    lambda_1 (z - a_1) [(z - b_1)] X_{-1} = (z - c_1) X_0 - X_1, so the
    lambda_1 = 0 case needs no special handling here.
    """
    return abs(complex(cf_value) - complex(est.ratio_at_0))
