"""Three-term recurrence engine for the two coefficient-family kinds.

Both kinds share the shape

    P_n(z) = (z - c_n) P_{n-1}(z) - w_n(z) P_{n-2}(z)

where the partial numerator w_n is lambda_n (z - a_n) for kind R_I and
lambda_n (z - a_n)(z - b_n) for kind R_II. First kind starts (P_-1, P_0) =
(0, 1), second kind (Q_0, Q_1) = (0, 1). Everything downstream (convergents,
rationalized sequences, backward minimal-solution estimates, Pincherle
residuals) is built from that single shape.

The kind follows from the coefficient maps: R_II exactly when the second
interpolation map b is given. The backward sweeps start from the
limit-periodic tail root, and a tie of the tail roots (z on the support)
raises ConvergenceError; see _backward_pass.
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
    "MinimalSolutionEstimate",
    "forward",
    "rationalize",
    "convergents",
    "minimal_solution_backward",
    "pincherle_residual",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficient maps n -> c_n, lambda_n, a_n, and b_n for kind R_II.

    Maps are callables defined for n >= 1. lambda_1 may vanish (some models
    start that way); lambda_n for n >= 2 must not, and is checked at query
    time. The kind is R_II exactly when b is given.
    """

    c: object
    lam: object
    a: object
    b: object = None

    @property
    def kind(self):
        return R_I if self.b is None else R_II

    def lam_checked(self, n):
        v = complex(self.lam(n))
        if n >= 2 and v == 0.0:
            raise DomainError(f"lambda_{n} = 0 breaks the recurrence")
        return v

    def partial_numerator(self, n, z):
        """w_n(z), the n-th partial numerator of the fraction."""
        w = self.lam_checked(n) * (z - self.a(n))
        if self.b is not None:
            w *= z - self.b(n)
        return w

    def interpolation_points(self, n):
        """Divisor roots a_{n+1} (and b_{n+1} for R_II) of the n-th level."""
        if self.b is None:
            return (complex(self.a(n + 1)),)
        return (complex(self.a(n + 1)), complex(self.b(n + 1)))


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
    """The lists (P_0..P_N, Q_0..Q_N) at z by the forward recurrence."""
    if N < 0:
        raise DomainError("forward needs N >= 0")
    zc = complex(z)
    P = [0.0 + 0.0j, 1.0 + 0.0j]   # P_-1, P_0
    Q = [0.0 + 0.0j, 1.0 + 0.0j]   # Q_0, Q_1
    for n in range(1, N + 1):
        w = spec.partial_numerator(n, zc)
        P.append((zc - spec.c(n)) * P[n] - w * P[n - 1])
        if n >= 2:
            Q.append((zc - spec.c(n)) * Q[n - 1] - w * Q[n - 2])
    return P[1:], Q[:N + 1]


def rationalize(spec, z, P):
    """Divide P_n by its interpolation factors, level by level.

    P holds P_0..P_N at z, as forward returns it. Returns the list for
    n = 0..N: P_n(z) / prod_{k=1..n} (z - a_{k+1}) for kind R_I, with the
    (z - b_{k+1}) factors included for kind R_II.
    """
    zc = complex(z)
    tol = _COLLISION_RTOL * max(1.0, abs(zc))
    out = [P[0]]
    denom = 1.0 + 0.0j
    for k in range(1, len(P)):
        for pt in spec.interpolation_points(k):
            if abs(zc - pt) <= tol:
                raise CollisionError(
                    f"z = {zc} collides with interpolation point at level {k}")
            denom *= zc - pt
        out.append(P[k] / denom)
    return out


def _rescale(mag):
    """2^-round(log2 mag) once mag leaves [2^-500, 2^500], else 1: an exact
    factor, so a rescaled sweep keeps every ratio. inf raises
    ConvergenceError."""
    if mag == math.inf:
        raise ConvergenceError("coefficient overflow in the recurrence")
    if mag > 2.0**500 or 0.0 < mag < 2.0**-500:
        return 2.0 ** -round(math.log2(mag))
    return 1.0


def convergents(spec, z, N):
    """Q_n(z)/P_n(z) for n = 1..N.

    The forward recurrence is rescaled jointly by _rescale whenever the
    values leave a safe magnitude band, which leaves every ratio intact.
    Entries with a vanishing denominator come back as NaN, and values that
    overflow raise ConvergenceError.
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
        r = _rescale(max(abs(p_cur), abs(p_prev), abs(q_cur), abs(q_prev)))
        if r != 1.0:
            p_cur, p_prev, q_cur, q_prev = (
                r * p_cur, r * p_prev, r * q_cur, r * q_prev)
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


def _tail_root(s, w):
    """(rho, rate) for the frozen tail t^2 - s t + w = 0, w != 0.

    With s = z - c_n and w = w_n(z) frozen at level n, rho is the
    smaller-modulus root, the minimal ratio X_n / X_{n-1} of the frozen
    recurrence, and rate is |rho_small / rho_big|. The quadratic is scaled
    so that s^2 cannot overflow, and the smaller root is w / big, so it
    does not cancel. Roots tied in modulus (rate near 1) leave no solution
    minimal; each caller decides what that means and says so.
    """
    m = max(abs(s), 2.0 * math.sqrt(abs(w)))
    s1, w1 = s / m, w / m / m
    d = cmath.sqrt(s1 * s1 - 4.0 * w1)
    big = (s1 + d if abs(s1 + d) >= abs(s1 - d) else s1 - d) / 2.0
    return w / (big * m), abs(w1 / big) / abs(big)


def _backward_pass(spec, z, window, start):
    """One Miller sweep from (X_{start+1}, X_start) = (rho, 1) down to n = 0.

    rho is _tail_root at level start + 1: the sweep starts on the minimal
    solution of the recurrence frozen there, which every model's
    limit-periodic coefficients approach. Tail roots tied in modulus
    (relative gap <= _BACKWARD_TOL) put z on the support, where no
    solution is minimal: ConvergenceError. Returns (values X_0..X_window
    scaled to X_0 = 1, ratio_at_0, rate). The sweep rescales by _rescale
    when it leaves a safe magnitude band; stored window values are
    rescaled along with it, so ratios are untouched.
    """
    if start <= window:
        raise DomainError("start must exceed the reporting window")
    zc = complex(z)
    n = start + 1
    w = _sweep_numerator(spec, n, zc)
    hi, rate = _tail_root(zc - spec.c(n), w)     # X_{n}
    if 1.0 - rate <= _BACKWARD_TOL:
        raise ConvergenceError(
            f"the tail roots at level {n} tie in modulus; z is on the support")
    lo = 1.0 + 0.0j                              # X_{n-1}
    store = {}
    for n in range(start + 1, 1, -1):
        w = _sweep_numerator(spec, n, zc)
        nxt = ((zc - spec.c(n)) * lo - hi) / w   # X_{n-2}
        hi, lo = lo, nxt
        r = _rescale(max(abs(hi), abs(lo)))
        if r != 1.0:
            hi *= r
            lo *= r
            for k in store:
                store[k] *= r
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
