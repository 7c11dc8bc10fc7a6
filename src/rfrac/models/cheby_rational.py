"""Rational deformation of the second-kind Chebyshev weight.

Dividing the Chebyshev weight by a real quadratic under each of two
parameters puts one geometric ladder of poles under each parameter.  The
recurrence is the base-point specialization (middle parameter equal to q)
of the nonsymmetric model next door, and all closed forms collapse to
plain infinite products and one-line rationals.

Both parameters at zero is an allowed corner: the model constructs, the
weight reduces to the undeformed Chebyshev one, and the family collapses:
every member past the constant vanishes identically, so its series
cancels completely and raises PrecisionError.  The recurrence
coefficient maps are undefined there and fail on first call, taking the
ladder-backed closed solution and the fraction value with them.
"""

import math

import numpy as np

from ..measures import normalization
from ..qseries import (QContext, TerminatingPhi, mono, q_pochhammer,
                       segment_node)
from ..recurrence import RecurrenceSpec
from .base import (BiorthFamily, ModelSpec, PrefixProduct, closed_denominator,
                   fraction_from_minimal, joukowski_outer_root, require,
                   real_base, theta_interval)
from .rahman import recurrence_maps

NAME = "ChebyRational51"


def _checked(params):
    q = real_base(params["q"])
    al = complex(params["alpha"])
    de = complex(params["delta"])
    require(max(abs(al), abs(de)) < 1.0, "max(|alpha|, |delta|) < 1")
    return q, al, de


def _measure(al, de):
    """The weight by its angle density (2/pi) sin^2 t / ((1 - 2 alpha cos t
    + alpha^2)(1 - 2 delta cos t + delta^2)), x = cos t."""
    def theta_density(theta):
        x = np.cos(theta)
        s = np.sin(theta)
        return (2.0 / math.pi) * s * s / (
            (1.0 - 2.0 * al * x + al * al)
            * (1.0 - 2.0 * de * x + de * de))

    return theta_interval(theta_density)


def build(params):
    q, al, de = _checked(params)
    ctx = QContext(q)
    u, c, lam, amap, bmap = recurrence_maps(q, al, q, de)
    uprod = PrefixProduct(u)
    spec = RecurrenceSpec(c=c, lam=lam, a=amap, b=bmap)

    def minimal(n, z):
        require(al != 0.0 and de != 0.0,
                "alpha != 0 and delta != 0 for the closed solution")
        uu = joukowski_outer_root(z)
        num = q_pochhammer(ctx, al * de * q ** (2 * n + 1))
        den = closed_denominator(ctx, (
            q ** (n + 1), al * q ** (n + 1) * uu, al * de * q ** n,
            de * q ** (n + 1) * uu))
        return (2.0 * uu) ** -n * num / (den * uprod(n))

    # normalized to the moment functional's scale, like every model
    cf_value = fraction_from_minimal(minimal, c)

    def transform_value(z):
        """Closed transform of the weight, scaled by transform_scale."""
        uu = joukowski_outer_root(z)
        return (2.0 / uu * (1.0 - al * de * q)
                / ((1.0 - al / uu) * (1.0 - q) * (1.0 - de / uu)))

    measure = _measure(al, de)

    def family():
        def left(m):
            return ladder_member(q, de, al, m)

        def right(n):
            return ladder_member(q, al, de, n)

        def norm(n):
            qn = q_pochhammer(ctx, q, n)
            an = q_pochhammer(ctx, al * de, n)
            return ((al * de) ** n * qn * qn
                    / (an * an * (1.0 - al * de * q ** (2 * n))))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=measure)

    extras = {
        "mass": 1.0 / (1.0 - al * de),
        "transform": transform_value,
        # transform_value(z) = transform_scale * integral of w/(z - x)
        "transform_scale": ((1.0 - al * de * q) * (1.0 - al * de)
                            / (1.0 - q)),
    }
    return ModelSpec(name=NAME, params={"q": q, "alpha": al, "delta": de},
                     spec=spec, measure=measure, minimal=minimal,
                     cf_value=cf_value, family=family, extras=extras)


def ladder_member(q, al, de, n):
    """The terminating series member with poles down the first ladder,
    4phi3(q^-n, al de q^n, al e, al/e; al de, q al e, q al/e; q, q) with
    e + 1/e = 2x."""
    return TerminatingPhi(
        q, (mono((q, -n)), mono(al, de, (q, n)), mono(al, e=1), mono(al, e=-1)),
        (mono(al, de), mono(q, al, e=1), mono(q, al, e=-1)), mono(q),
        segment_node)


def elementary_mass(params):
    """Total mass of the weight against its rational closed form.

    Returns (lhs, rhs): the quadrature value and 1/(1 - alpha*delta).
    """
    q, al, de = _checked(params)
    lhs = normalization(_measure(al, de))
    rhs = 1.0 / (1.0 - al * de)
    return lhs, rhs
