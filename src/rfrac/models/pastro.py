"""First-kind model with a two-parameter basic weight on a circle.

The coefficient family keeps all interpolation points at the origin, so the
numerator polynomials are ordinary Laurent-type polynomials.  The spectral
measure is absolutely continuous on the circle of radius sqrt(q), and the
polynomial family pairs against a second family with the two weight
parameters swapped, the pairing living on the unit circle.
"""

import math

import numpy as np

from ..measures import circle_contour, stieltjes
from ..qseries import (QContext, TerminatingPhi, basic_phi, circle_node, mono,
                       multi_q_pochhammer, q_pochhammer)
from ..recurrence import R_I, RecurrenceSpec
from .base import (BiorthFamily, ModelSpec, branch_guard, q_product_weight,
                   real_base, require)

NAME = "Pastro21"


def _checked(params):
    q = real_base(params["q"])
    a = complex(params["a"])
    b = complex(params["b"])
    require(a != 0.0, "a != 0")
    require(b != 0.0, "b != 0")
    require(abs(a * q) < 1.0, "|a q| < 1")
    require(abs(b) < 1.0, "|b| < 1")
    return q, a, b


def _circle_weight(ctx, rq, a, b, const):
    """t -> const (rq t, rq/t; q)_inf / (a rq t, b rq/t; q)_inf, rq = sqrt(q)."""
    return q_product_weight(ctx, const, num=((rq, 1), (rq, -1)),
                            den=((a * rq, 1), (b * rq, -1)))


def _inner_series(ctx, a, b, n, z, k):
    # z**k times the closed series of the minimal solution, which is k = n;
    # valid for |z| < sqrt(q)
    q = ctx.q
    pref = (z ** k
            * multi_q_pochhammer(ctx, (a * q ** (n + 1), b * q ** (n + 1)))
            / multi_q_pochhammer(ctx, (q ** (n + 1), a * b * q ** (n + 1))))
    s = basic_phi(ctx, (1.0 / a, q ** (n + 1)), (b * q ** (n + 1),),
                  a * z * math.sqrt(q))
    return pref * s.value


def _solution_outer(ctx, a, b, n, z):
    # valid for |z| > sqrt(q)
    q = ctx.q
    pref = (q ** (0.5 * n)
            * multi_q_pochhammer(ctx, (a * q ** (n + 2), a * q ** (n + 1)))
            / multi_q_pochhammer(ctx, (q ** (n + 1), a * b * q ** (n + 1))))
    s = basic_phi(ctx, (q / b, q ** (n + 1)), (a * q ** (n + 2),),
                  b * math.sqrt(q) / z)
    return pref * s.value


def _poly_first(ctx, a, b, m, s):
    """The degree-m polynomial in z = t**s, as a closure on node arrays:
    q^(m/2) (b; q)_m / (a q; q)_m 2phi1(q^-m, a q; q^(1-m)/b; q, z sqrt(q)/b)."""
    q = ctx.q
    pref = (q ** (0.5 * m) * q_pochhammer(ctx, b, m)
            / q_pochhammer(ctx, a * q, m))
    series = TerminatingPhi(q, (mono((q, -m)), mono(a, q)),
                            (mono((q, 1 - m), (b, -1)),),
                            mono((q, 0.5), (b, -1), e=s), circle_node)
    return lambda t: pref * series(t)


def build(params):
    q, a, b = _checked(params)
    ctx = QContext(q)
    rq = math.sqrt(q)

    def c(n):
        return -rq * (1.0 - b * q ** (n - 1)) / (1.0 - a * q ** n)

    def lam(n):
        if n == 1:
            return 0.0
        return (rq * (1.0 - q ** (n - 1)) * (1.0 - a * b * q ** (n - 1))
                / ((1.0 - a * q ** n) * (1.0 - a * q ** (n - 1))))

    spec = RecurrenceSpec(kind=R_I, c=c, lam=lam, a=lambda n: 0.0)

    def minimal(n, z):
        zc = complex(z)
        branch_guard(abs(zc) - rq, rq, "|z| = sqrt(q)", zc)
        if abs(zc) < rq:
            return _inner_series(ctx, a, b, n, zc, n)
        return _solution_outer(ctx, a, b, n, zc)

    def cf_value(z):
        zc = complex(z)
        branch_guard(abs(zc) - rq, rq, "|z| = sqrt(q)", zc)
        if abs(zc) < rq:
            s = basic_phi(ctx, (1.0 / a, q), (q * b,), a * zc * rq)
            return (1.0 - a * q) / ((1.0 - b) * rq) * s.value
        s = basic_phi(ctx, (q / b, q), (a * q * q,), b * rq / zc)
        return s.value / zc

    # density of the spectral measure on |t| = sqrt(q), normalized to mass 1
    dconst = (q_pochhammer(ctx, q) * q_pochhammer(ctx, a * b * q)
              / (q_pochhammer(ctx, a * q * q) * q_pochhammer(ctx, b)))
    spectral_weight = _circle_weight(
        ctx, rq, a, b, (1j / (2.0 * math.pi * rq)) * dconst)

    def density(theta):
        return spectral_weight(rq * np.exp(1j * np.asarray(theta, dtype=float)))

    measure = circle_contour(rq, density)

    # weight of the swapped-parameter pairing on the unit circle, in theta
    fconst = (q_pochhammer(ctx, q) * q_pochhammer(ctx, q * a * b)
              / (q_pochhammer(ctx, q * a) * q_pochhammer(ctx, q * b)))
    pairing_weight = _circle_weight(ctx, rq, a, b, fconst / (2.0 * math.pi))

    def pairing_density(theta):
        t = np.exp(1j * np.asarray(theta, dtype=float))
        return pairing_weight(t) / (1j * t)

    pairing = circle_contour(1.0, pairing_density)

    def family():
        require(abs(a) < 1.0, "|a| < 1 for the unit-circle pairing")

        def left(m):
            return _poly_first(ctx, a, b, m, 1)

        def right(n):
            # the first family with the weight parameters swapped, at 1/t
            return _poly_first(ctx, b, a, n, -1)

        def norm(n):
            return (q_pochhammer(ctx, q, n) * q_pochhammer(ctx, a * b * q, n)
                    / (q_pochhammer(ctx, a * q, n)
                       * q_pochhammer(ctx, b * q, n)))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=pairing)

    extras = {"poly": lambda m, z: _poly_first(ctx, a, b, m, 1)(z)}
    return ModelSpec(name=NAME, params={"q": q, "a": a, "b": b}, spec=spec,
                     measure=measure, minimal=minimal, cf_value=cf_value,
                     family=family, extras=extras)


def transform_241(params, n, k, z):
    """Moment-type circle integral of t^(k-n) against the n-th polynomial.

    Returns (lhs, rhs): the contour integral computed by quadrature and its
    closed-form value, which switches branch across |z| = sqrt(q).  Inside,
    it is the minimal solution's series times z^k; outside, a multiple of
    the minimal solution.
    """
    q, a, b = _checked(params)
    require(isinstance(n, int) and isinstance(k, int) and 0 <= k <= n,
            "integers 0 <= k <= n")
    ctx = QContext(q)
    rq = math.sqrt(q)
    zc = complex(z)
    branch_guard(abs(zc) - rq, rq, "|z| = sqrt(q)", zc)
    weight = _circle_weight(ctx, rq, a, b, 1j / (2.0 * math.pi))
    poly = _poly_first(ctx, a, b, n, 1)

    def kernel_density(theta):
        t = rq * np.exp(1j * np.asarray(theta, dtype=float))
        return t ** (k - n) * poly(t) * weight(t)

    m = circle_contour(rq, kernel_density)
    lhs = stieltjes(m, zc)

    if abs(zc) < rq:
        rhs = _inner_series(ctx, a, b, n, zc, k)
    else:
        rhs = (rq * zc ** (k - n - 1) * q_pochhammer(ctx, b)
               / q_pochhammer(ctx, a * q) * _solution_outer(ctx, a, b, n, zc))
    return lhs, rhs
