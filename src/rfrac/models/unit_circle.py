"""Four-parameter second-kind model with a basic weight on a circle.

The interpolation points march geometrically inward and outward, the
minimal solution branches are very-well-poised series on either side of
the circle |z| = sqrt(q), and the spectral density is a ratio of infinite
products.  The paired rational families swap (a, t1) with (b, t2) and pair
on the unit circle.
"""

import math

import numpy as np

from ..measures import circle_contour
from ..qseries import (QContext, TerminatingPhi, circle_node, mono,
                       multi_q_pochhammer, q_pochhammer, w87)
from ..recurrence import R_II, RecurrenceSpec
from .base import (BiorthFamily, ModelSpec, PrefixProduct, branch_guard,
                   closed_denominator, q_product_weight, real_base, require)

NAME = "UnitCircle41"


def _checked(params):
    q = real_base(params["q"])
    a = complex(params["a"])
    b = complex(params["b"])
    t1 = complex(params["t1"])
    t2 = complex(params["t2"])
    rq = math.sqrt(q)
    for sym, val in (("a", a), ("b", b), ("t1", t1), ("t2", t2)):
        require(val != 0.0, f"{sym} != 0")
    require(abs(a) < 1.0, "|a| < 1")
    require(abs(b) < 1.0, "|b| < 1")
    require(abs(t1) < rq, "|t1| < sqrt(q)")
    require(abs(t2) < rq, "|t2| < sqrt(q)")
    return q, a, b, t1, t2


def _coeff_maps(q, a, b, t1, t2):
    p = a * b * t1 * t2
    rq = math.sqrt(q)

    def middle(m, z):
        # sqrt(z) times the middle recurrence coefficient; exactly linear in z
        xm = 0.5 * (1.0 - t2) * q ** -0.25 * (z - rq / t2)
        am = (q ** 0.25 * (1.0 - p * q ** (m - 2))
              * (1.0 - a * t2 * z * q ** (m - 0.5))
              * (1.0 - b * t2 * q ** (m - 1)) * (1.0 - t1 * t2 * q ** (m - 2))
              / (2.0 * t2 * (1.0 - p * q ** (2 * m - 3))
                 * (1.0 - p * q ** (2 * m - 2))))
        bm = (q ** -0.25 * t2 * (1.0 - q ** (m - 1))
              * (1.0 - a * b * q ** (m - 1)) * (1.0 - a * t1 * q ** (m - 2))
              * (z - b * t1 * q ** (m - 2.5))
              / (2.0 * (1.0 - p * q ** (2 * m - 4))
                 * (1.0 - p * q ** (2 * m - 3))))
        return xm + am + bm

    def u(m):
        return middle(m, 3.0) - middle(m, 2.0)

    def v(m):
        return middle(m, 2.0) - 2.0 * u(m)

    def c(m):
        return -v(m) / u(m)

    def lam(m):
        if m == 1:
            return 0.0
        return (a * t2 * q ** (m - 1) * (q ** (m - 1) - 1.0)
                * (1.0 - p * q ** (m - 3)) * (1.0 - b * t2 * q ** (m - 2))
                * (1.0 - t1 * t2 * q ** (m - 3)) * (1.0 - a * b * q ** (m - 1))
                * (1.0 - a * t1 * q ** (m - 2))
                / (4.0 * math.sqrt(q) * (1.0 - p * q ** (2 * m - 5))
                   * (1.0 - p * q ** (2 * m - 4)) ** 2
                   * (1.0 - p * q ** (2 * m - 3)) * u(m - 1) * u(m)))

    def amap(m):
        return b * t1 * q ** (m - 2.5)

    def bmap(m):
        return q ** (1.5 - m) / (a * t2)

    return u, v, c, lam, amap, bmap


def _solution_outer(ctx, a, b, t1, t2, uprod, n, z):
    # valid for |z| > sqrt(q)
    q = ctx.q
    p = a * b * t1 * t2
    rq = math.sqrt(q)
    num = multi_q_pochhammer(ctx, (
        p * q ** (2 * n - 1), t2 * q ** (n + 1), a * q ** (n + 2),
        b * q ** n * rq * q / z, t1 * q ** n * rq / z))
    den = closed_denominator(ctx, (
        q ** (n + 1), q ** (n + 2) * rq / z, a * t2 * q ** n * rq * z,
        b * t2 * q ** n, t1 * t2 * q ** (n - 1), a * b * q ** (n + 1),
        a * t1 * q ** n, b * t1 * q ** (n - 1) * rq / z))
    w = w87(ctx, q ** (n + 1) * rq / z, q ** (n + 1), q * rq / (t2 * z),
            rq / (a * z), q / b, q * q / t1, p * q ** (n - 1))
    return (0.25 ** n * q ** (0.25 * n) * 2.0 ** n) * num / den * w.value \
        / uprod(n)


def _solution_inner(ctx, a, b, t1, t2, uprod, n, z):
    # valid for |z| < sqrt(q)
    q = ctx.q
    p = a * b * t1 * t2
    rq = math.sqrt(q)
    num = multi_q_pochhammer(ctx, (
        p * q ** (2 * n - 1), t2 * z * q ** n * rq, a * z * q ** (n + 1) * rq,
        b * q ** (n + 1), t1 * q ** n))
    den = closed_denominator(ctx, (
        q ** (n + 1), z * q ** (n + 1) * rq, a * t2 * z * q ** n * rq,
        b * t2 * q ** n, t1 * t2 * q ** (n - 1), a * b * q ** (n + 1),
        a * t1 * q ** n, b * t1 * q ** (n - 1) * rq / z))
    w = w87(ctx, q ** n * rq * z, q ** (n + 1), q / t2, 1.0 / a,
            rq * z / b, q * rq * z / t1, p * q ** (n - 1))
    return (0.5 * z * q ** -0.25) ** n * num / den * w.value / uprod(n)


def _poly(ctx, a, b, t1, t2, uprod, n, z):
    q = ctx.q
    p = a * b * t1 * t2
    rq = math.sqrt(q)
    pref = (q ** (0.25 * n)
            * multi_q_pochhammer(ctx, (a * t2 * z * rq, b * t2, t1 * t2 / q,
                                       p / q), n)
            / ((2.0 * t2) ** n * q_pochhammer(ctx, p / q, 2 * n) * uprod(n)))
    return pref * first_member(q, a, b, t1, t2, n, 1)(z)


def build(params):
    q, a, b, t1, t2 = _checked(params)
    ctx = QContext(q)
    rq = math.sqrt(q)
    p = a * b * t1 * t2
    u, v, c, lam, amap, bmap = _coeff_maps(q, a, b, t1, t2)
    uprod = PrefixProduct(u)

    spec = RecurrenceSpec(kind=R_II, c=c, lam=lam, a=amap, b=bmap)

    def minimal(n, z):
        zc = complex(z)
        branch_guard(abs(zc) - rq, rq, "|z| = sqrt(q)", zc)
        if abs(zc) < rq:
            return _solution_inner(ctx, a, b, t1, t2, uprod, n, zc)
        return _solution_outer(ctx, a, b, t1, t2, uprod, n, zc)

    def cf_value(z):
        zc = complex(z)
        branch_guard(abs(zc) - rq, rq, "|z| = sqrt(q)", zc)
        if abs(zc) < rq:
            pref = (2.0 * u(1) * q ** -0.25 * (1.0 - p / q)
                    * (1.0 - rq * zc)
                    / ((1.0 - b) * (1.0 - t1 / q) * (1.0 - t2 * zc / rq)
                       * (1.0 - a * zc * rq)))
            w = w87(ctx, zc * rq, q, q / t2, 1.0 / a, rq * zc / b,
                    q * rq * zc / t1, p / q)
        else:
            pref = (2.0 * u(1) * q ** 0.25 * (1.0 - p / q)
                    * (1.0 - q * rq / zc)
                    / (zc * (1.0 - t2) * (1.0 - a * q) * (1.0 - b * rq / zc)
                       * (1.0 - t1 / (rq * zc))))
            w = w87(ctx, q * rq / zc, q, q * rq / (t2 * zc), rq / (a * zc),
                    q / b, q * q / t1, p / q)
        return pref * w.value

    # base weight shared by the spectral density and the pairing
    fconst = multi_q_pochhammer(ctx, (b * t2, a * t1, a * b * q,
                                      t1 * t2 / q, q)) \
        / multi_q_pochhammer(ctx, (a * q, b * q, t1, t2, p))

    base_weight = q_product_weight(
        ctx, fconst,
        num=((rq, 1), (rq, -1), (a * t2 * rq, 1), (b * t1 * rq, -1)),
        den=((a * rq, 1), (b * rq, -1), (t2 / rq, 1), (t1 / rq, -1)))

    dconst = 1j * u(1) / (math.pi * q ** 0.25 * (1.0 - t1 / q) * (1.0 - b))

    def density(theta):
        t = rq * np.exp(1j * np.asarray(theta, dtype=float))
        return dconst * (1.0 - b * t1 / (rq * t)) * base_weight(t)

    measure = circle_contour(rq, density)

    def pairing_density(theta):
        t = np.exp(1j * np.asarray(theta, dtype=float))
        return 1j * base_weight(t) / (2.0 * math.pi * t)

    pairing = circle_contour(1.0, pairing_density)

    def family():
        def left(m):
            return first_member(q, a, b, t1, t2, m, 1)

        def right(n):
            # the first family with (a, t1) and (b, t2) interchanged, at 1/t
            return first_member(q, b, a, t2, t1, n, -1)

        def norm(n):
            return (-(t1 * t2 / q) ** n
                    * (q_pochhammer(ctx, q, n) * q_pochhammer(ctx, a * b * q, n)
                       * q_pochhammer(ctx, p * q ** (n - 1), n))
                    / (q_pochhammer(ctx, t1 * t2 / q, n)
                       * q_pochhammer(ctx, p, 2 * n)))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=pairing)

    extras = {
        "poly": lambda n, z: _poly(ctx, a, b, t1, t2, uprod, n, complex(z)),
        "base_weight": base_weight,
    }
    return ModelSpec(name=NAME,
                     params={"q": q, "a": a, "b": b, "t1": t1, "t2": t2},
                     spec=spec, measure=measure, minimal=minimal,
                     cf_value=cf_value, family=family, extras=extras)


def first_member(q, a, b, t1, t2, n, s):
    """The terminating series member in z = t**s, with p = a b t1 t2:
    4phi3(q^-n, p q^(n-1), t2 z/sqrt(q), t2; a t2 z sqrt(q), b t2, t1 t2/q; q, q)."""
    return TerminatingPhi(
        q, (mono((q, -n)), mono(a, b, t1, t2, (q, n - 1)),
            mono(t2, (q, -0.5), e=s), mono(t2)),
        (mono(a, t2, (q, 0.5), e=s), mono(b, t2), mono(t1, t2, (q, -1))),
        mono(q), circle_node)
