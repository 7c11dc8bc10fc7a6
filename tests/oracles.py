"""Independent forms of library quantities, kept as test references.

None of these is on a library path: each restates a member, weight or
measure by a different formula, so that a test can compare the two.
"""

import math

import numpy as np

from rfrac.models.base import q_product_weight, real_base, require, theta_interval
from rfrac.qseries import QContext, multi_q_pochhammer, q_pochhammer


def partial_fractions(ctx, al, de, n, x):
    """ChebyRational51's ladder member over its head pole factor, as an
    explicit sum of simple poles down the ladder.  Agrees with the member
    divided by (1 - 2*al*x + al^2)."""
    q = ctx.q
    total = 0.0 + 0.0j
    binom = 1.0 + 0.0j
    shift = 1.0 + 0.0j
    sign = 1.0
    for k in range(n + 1):
        total += (binom * shift * sign
                  / (1.0 - 2.0 * al * q ** k * x + al * al * q ** (2 * k)))
        binom *= (1.0 - q ** (n - k)) / (1.0 - q ** (k + 1))
        shift *= (1.0 - al * de * q ** (n + k)) / (1.0 - al * de * q ** k)
        # the exponent k(k+1)/2 - nk makes the coefficient exactly
        # (q^{-n};q)_k q^k / (q;q)_k over the gaussian binomial
        sign *= -q ** (k + 1 - n)
    return total


def connection_weights(ctx, al, be, de, n):
    """Triangle coefficients expanding Rahman52's balanced side over the
    plain pole ladder; index j runs 0..n."""
    q = ctx.q
    p = al * be * be * de
    a2b = al * al * be
    return [(1.0 - a2b * q ** (2 * j))
            * q_pochhammer(ctx, p * q ** (n - 1), j)
            / ((1.0 - a2b) * q_pochhammer(ctx, al * de, j))
            for j in range(n + 1)]


def rational_balanced_sum(ctx, al, be, de, n, x):
    """Triangle-sum form of Rahman52's balanced side at a real x in
    [-1, 1]; agrees with the closed series termwise."""
    q = ctx.q
    e = complex(x, math.sqrt(max(0.0, 1.0 - x * x)))
    ei = e.conjugate()
    bw = connection_weights(ctx, al, be, de, n)
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(n + 1):
        total += term * bw[j]
        term *= (q * (1.0 - q ** (j - n)) * (1.0 - al * e * q ** j)
                 * (1.0 - al * ei * q ** j)
                 / ((1.0 - q ** (j + 1)) * (1.0 - q * al * be * e * q ** j)
                    * (1.0 - q * al * be * ei * q ** j)))
    return total


def trig_weight_density(q, p1, p2, p3, p4):
    """Angle-variable density of the classical four-parameter trig weight.

    Returns a theta closure (vectorized) whose integral over [0, pi] is 1
    when all parameter moduli are below 1; useful as an independent
    quadrature reference.
    """
    qv = real_base(q)
    ctx = QContext(qv)
    pr = (p1, p2, p3, p4)
    for val in pr:
        require(abs(complex(val)) < 1.0, "all four parameters inside the unit disk")
    pairs = [pr[i] * pr[j] for i in range(4) for j in range(i + 1, 4)]
    const = (multi_q_pochhammer(ctx, tuple(pairs) + (qv,))
             / (2.0 * math.pi * q_pochhammer(ctx, p1 * p2 * p3 * p4)))
    w = q_product_weight(ctx, const, num=((1.0, 2), (1.0, -2)),
                         den=[(val, k) for val in pr for k in (1, -1)])

    def theta_density(theta):
        return w(np.exp(1j * np.asarray(theta, dtype=float)))

    return theta_density


def trig_weight_measure(q, p1, p2, p3, p4):
    return theta_interval(trig_weight_density(q, p1, p2, p3, p4))
