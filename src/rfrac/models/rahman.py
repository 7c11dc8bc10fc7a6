"""Nonsymmetric three-parameter model on [-1, 1].

Collapsing the two middle parameters of the four-parameter scheme onto the
spectral variable leaves a weight with doubled poles inside the unit circle
and a second-kind recurrence whose interpolation points ride two geometric
ladders.  The biorthogonal pair here is genuinely nonsymmetric: one side is
a plain terminating series, the other carries an extra quadratic balancing
pair, and they talk to each other through a triangle of connection weights.

The coefficient maps are assembled from the two ladder slopes rather than
from the expanded displays, so they stay consistent with the closed
solutions at every index.
"""

import math

import numpy as np

from ..measures import normalization
from ..qseries import (QContext, TerminatingPhi, basic_phi, mono,
                       multi_q_pochhammer, q_pochhammer, segment_node, w87)
from ..recurrence import RecurrenceSpec
from .base import (BiorthFamily, ModelSpec, PrefixProduct, closed_denominator,
                   fraction_from_minimal, joukowski_outer_root,
                   q_product_weight, require, real_base, theta_interval)

NAME = "Rahman52"


def checked_triple(params):
    q = real_base(params["q"])
    al = complex(params["alpha"])
    be = complex(params["beta"])
    de = complex(params["delta"])
    return q, al, be, de


def _checked(params):
    q, al, be, de = checked_triple(params)
    p = al * be * be * de
    require(be != 0.0, "beta != 0")
    require(max(abs(al), abs(be), abs(de)) < 1.0,
            "max(|alpha|, |beta|, |delta|) < 1")
    require(abs(p / q) < 1.0, "|alpha beta^2 delta| < q")
    return q, al, be, de


def recurrence_maps(q, al, be, de):
    """R_II coefficient callables for the collapsed scheme.

    Degenerate corners (alpha = 0, or a vanishing ladder product) fail
    lazily, on the first call of the affected map; construction itself
    never evaluates them.
    """
    p = al * be * be * de

    def slope_a(n):
        return (-be * q ** n * (1.0 - p * q ** (n - 1))
                * (1.0 - al * de * q ** n)
                / ((1.0 - p * q ** (2 * n - 1)) * (1.0 - p * q ** (2 * n))))

    def slope_b(n):
        return (-al * be * de * q ** (n - 1) * (1.0 - q ** n)
                * (1.0 - be * be * q ** (n - 1))
                / ((1.0 - p * q ** (2 * n - 2))
                   * (1.0 - p * q ** (2 * n - 1))))

    def root_a(n):
        return 0.5 * (be * de * q ** (n - 1) + q ** (1 - n) / (be * de))

    def root_b(n):
        return 0.5 * (al * be * q ** n + q ** -n / (al * be))

    def u(m):
        return 1.0 + slope_a(m - 1) + slope_b(m - 1)

    def c(m):
        const = (-0.5 * (al + 1.0 / al)
                 - slope_a(m - 1) * root_b(m - 1)
                 - slope_b(m - 1) * root_a(m - 1))
        return -const / u(m)

    def lam(m):
        if m == 1:
            return 0.0
        return slope_a(m - 2) * slope_b(m - 1) / (u(m - 1) * u(m))

    def amap(m):
        return root_a(m - 1)

    def bmap(m):
        return root_b(m - 2)

    return u, c, lam, amap, bmap


def solution_ladder(ctx, al, be, de, uprod, n, z):
    """Closed form of the subdominant solution at degree index n.

    Very well poised series in the outer root u of z = (u + 1/u)/2; both
    u-roots give the same value, so the split is only a convention.
    """
    q = ctx.q
    p = al * be * be * de
    u = joukowski_outer_root(z)
    num = multi_q_pochhammer(ctx, (
        p * q ** (2 * n - 1), al * q ** (n + 1) / u,
        be * q ** (n + 1) / (u * u), be * q ** (n + 1),
        de * q ** (n + 1) / u))
    den = closed_denominator(ctx, (
        q ** (n + 1), q ** (n + 2) / (u * u), al * be * q ** n * u,
        al * be * q ** n / u, al * de * q ** n, be * be * q ** n,
        be * de * q ** n * u, be * de * q ** n / u))
    w = w87(ctx, q ** (n + 1) / (u * u), q ** (n + 1), q / (al * u),
            q / be, q / (be * u * u), q / (de * u), p * q ** (n - 1))
    return (2.0 * u) ** -n * num / den * w.value / uprod(n)


def _angle_density(ctx, al, be, de, top, const):
    """theta -> const * w(e^{i theta}) for the weights of this model.

    ``top`` is the coefficient of the e^{+-i theta} pair in the numerator:
    alpha beta for the spectral measure, q alpha beta for the pairing and
    the beta integral, alpha gamma for its extension.
    """
    w = q_product_weight(
        ctx, const,
        num=((1.0, 2), (1.0, -2), (top, 1), (top, -1),
             (be * de, 1), (be * de, -1)),
        den=((al, 1), (al, -1), (be, 2), (be, -2), (de, 1), (de, -1)))

    def theta_density(theta):
        return w(np.exp(1j * np.asarray(theta, dtype=float)))

    return theta_density


def _spectral_theta(ctx, al, be, de):
    """Angle density of the model's own measure; its integral over [0, pi]
    is the total mass."""
    p = al * be * be * de
    fconst = (multi_q_pochhammer(ctx, (al * de, be * be, ctx.q))
              / (multi_q_pochhammer(ctx, (be, be, p)) * 2.0 * math.pi))
    return _angle_density(ctx, al, be, de, al * be, fconst)


def build(params):
    q, al, be, de = _checked(params)
    p = al * be * be * de
    ctx = QContext(q)
    u, c, lam, amap, bmap = recurrence_maps(q, al, be, de)
    uprod = PrefixProduct(u)

    spec = RecurrenceSpec(c=c, lam=lam, a=amap, b=bmap)

    def minimal(n, z):
        require(al != 0.0 and de != 0.0,
                "alpha != 0 and delta != 0 for the closed solution")
        return solution_ladder(ctx, al, be, de, uprod, n, z)

    # the fraction is the transform times kappa_1 / mass; the ladder
    # combination carries that scale itself
    cf_value = fraction_from_minimal(minimal, c)

    def transform_value(z):
        """Closed evaluation of the transform integral of the weight."""
        uu = joukowski_outer_root(z)
        pref = (2.0 / uu * (1.0 - q / (uu * uu)) * (1.0 - p / q)
                / ((1.0 - al / uu) * (1.0 - be / (uu * uu))
                   * (1.0 - be) * (1.0 - de / uu)))
        w = w87(ctx, q / (uu * uu), q, q / (al * uu), q / be,
                q / (be * uu * uu), q / (de * uu), p / q)
        return pref * w.value

    measure = theta_interval(_spectral_theta(ctx, al, be, de))
    pairing = theta_interval(
        _angle_density(ctx, al, be, de, q * al * be, 1.0 / (2.0 * math.pi)))

    def family():
        def left(m):
            return balanced_member(q, al, be, de, m)

        def right(n):
            return plain_member(q, al, be, de, n)

        mass_head = (multi_q_pochhammer(ctx, (be, q * be))
                     / ((1.0 - al * al * be)
                        * multi_q_pochhammer(ctx, (al * de, be * be, q))))

        def norm(n):
            return (mass_head * q_pochhammer(ctx, p * q ** n)
                    * multi_q_pochhammer(ctx, (be * be, q), n) * (al * de) ** n
                    * (1.0 - p * q ** (n - 1))
                    / (q_pochhammer(ctx, al * de, n)
                       * (1.0 - p * q ** (2 * n - 1))))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=pairing)

    extras = {
        "transform": transform_value,
        "pairing_mass": (multi_q_pochhammer(ctx, (be, q * be, p))
                         / ((1.0 - al * al * be)
                            * multi_q_pochhammer(ctx, (al * de, be * be, q)))),
    }
    return ModelSpec(name=NAME,
                     params={"q": q, "alpha": al, "beta": be, "delta": de},
                     spec=spec, measure=measure, minimal=minimal,
                     cf_value=cf_value, family=family, extras=extras)


def plain_member(q, al, be, de, n):
    """The terminating-series side of the pair, with e + 1/e = 2x:
    4phi3(q^-n, p q^(n-1), de e, de/e; al de, be de e, be de/e; q, q),
    p = al be^2 de."""
    return TerminatingPhi(
        q, (mono((q, -n)), mono(al, be, be, de, (q, n - 1)), mono(de, e=1),
            mono(de, e=-1)),
        (mono(al, de), mono(be, de, e=1), mono(be, de, e=-1)), mono(q),
        segment_node)


def balanced_member(q, al, be, de, n):
    """The companion side, carrying the quadratic balancing pair +-al sqrt(be)."""
    return TerminatingPhi(
        q, (mono((q, -n)), mono(al, be, be, de, (q, n - 1)), mono(al, e=1),
            mono(al, e=-1), mono(q, al, (be, 0.5)), mono(-q, al, (be, 0.5))),
        (mono(al, de), mono(q, al, be, e=1), mono(q, al, be, e=-1),
         mono(al, (be, 0.5)), mono(-al, (be, 0.5))), mono(q),
        segment_node)


def herglotz_511(params):
    """Total mass of the spectral weight against its closed evaluation.

    Returns (lhs, rhs): the angle integral computed by quadrature, and the
    closed value through a single basic series.
    """
    q, al, be, de = checked_triple(params)
    p = al * be * be * de
    require(be != 0.0, "beta != 0")
    require(max(abs(al), abs(be), abs(de), abs(p / q)) < 1.0,
            "max(|alpha|, |beta|, |delta|, |alpha beta^2 delta / q|) < 1")
    ctx = QContext(q)
    m = theta_interval(_spectral_theta(ctx, al, be, de))
    lhs = normalization(m)
    rhs = ((1.0 - p / q) / (1.0 - be)
           * basic_phi(ctx, (q, q / be), (q * be,), p / q).value)
    return lhs, rhs


def _beta_measure(ctx, al, be, de, top):
    """[-1, 1] measure of the beta-integral evaluations; ``top`` as in
    _angle_density."""
    p = al * be * be * de
    fconst = (multi_q_pochhammer(ctx, (al * de, be * be, ctx.q))
              / (multi_q_pochhammer(ctx, (be, ctx.q * be, p)) * 2.0 * math.pi))
    return theta_interval(_angle_density(ctx, al, be, de, top, fconst))


def qbeta_519(params):
    """Unit-mass beta integral; returns (lhs, rhs) with rhs the rational
    closed form."""
    q, al, be, de = checked_triple(params)
    require(max(abs(al), abs(be), abs(de)) < 1.0,
            "max(|alpha|, |beta|, |delta|) < 1")
    ctx = QContext(q)
    m = _beta_measure(ctx, al, be, de, q * al * be)
    lhs = normalization(m)
    rhs = 1.0 / (1.0 - al * al * be)
    return lhs, rhs


def qbeta_gamma(params):
    """One-parameter extension of the beta integral; gamma = q*beta
    collapses to the unit-mass case."""
    q, al, be, de = checked_triple(params)
    ga = complex(params["gamma"])
    require(max(abs(al), abs(be), abs(de), abs(ga)) < 1.0,
            "max(|alpha|, |beta|, |gamma|, |delta|) < 1")
    ctx = QContext(q)
    m = _beta_measure(ctx, al, be, de, al * ga)
    lhs = normalization(m)
    rhs = (multi_q_pochhammer(ctx, (ga, al * al * ga))
           / multi_q_pochhammer(ctx, (q * be, al * al * be))
           * basic_phi(ctx, (al * al * be, al * de, q * be / ga),
                       (al * al * ga, be * be * al * de), ga).value)
    return lhs, rhs
