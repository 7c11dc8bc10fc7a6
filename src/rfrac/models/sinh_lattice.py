"""Four-parameter second-kind model with a discrete spectrum on a sinh grid.

The variable enters through z = sinh(xi) and the mass points march
geometrically to infinity along the real axis.  No closed solution ladder
is available here; the continued-fraction limit has a very-well-poised
closed form with a matching Mittag-Leffler expansion over the grid, and
that expansion doubles as the model's measure.
"""

import cmath

from ..errors import CollisionError, ConvergenceError, DomainError
from ..measures import discrete
from ..qseries import (QContext, TerminatingPhi, mono, multi_q_pochhammer,
                       q_pochhammer, sinh_node, w87)
from ..recurrence import RecurrenceSpec
from .base import (BiorthFamily, ModelSpec, PrefixProduct, closed_denominator,
                   exp_sinh_inverse, fraction_from_minimal, real_base, require)

NAME = "SinhLattice42"

# The grid takes at least _GRID_POINTS points, and more until the bound on
# its truncated tail is below _GRID_TAIL of its mass, the double-double
# unit: the Gram's high-degree norms sit far below its low-degree ones
# (h_7 / h_0 = 1e-17 at q = 0.98). Past _GRID_CAP points it raises.
_GRID_POINTS = 80
_GRID_TAIL = 2.0 ** -106
_GRID_CAP = 640


def _checked(params):
    q = real_base(params["q"])
    ts = tuple(complex(params[k]) for k in ("t1", "t2", "t3", "t4"))
    for sym, val in zip(("t1", "t2", "t3", "t4"), ts):
        require(val != 0.0, f"{sym} != 0")
    prod = ts[0] * ts[1] * ts[2] * ts[3]
    require(abs(prod) < q ** 3, "|t1 t2 t3 t4| < q^3")
    return (q,) + ts


def _coeff_maps(q, t1, t2, t3, t4):
    tp = t1 * t2 * t3 * t4
    rst = cmath.sqrt(t3 * t4)
    rho = t3 / rst  # sqrt(t3/t4) on the branch consistent with rst
    alpha = rst * t1 / q
    xconst = -0.5 * (rho + 1.0 / rho)
    halfsum = 0.5 * (alpha + 1.0 / alpha)

    def aa(n, z):
        return ((1.0 + t1 * t2 * q ** (n - 2))
                * ((1.0 - t1 * t1 * q ** (2 * n)) + 2.0 * t1 * q ** n * z)
                * (1.0 - tp * q ** (n - 3)) * q
                / (2.0 * rst * t1 * (1.0 + t1 * t2 * q ** (2 * n - 2))
                   * (1.0 + t1 * t2 * q ** (2 * n - 1))))

    def bb(n, z):
        return (alpha * (1.0 - q ** n) * (1.0 + q ** (n + 1) / (t3 * t4))
                * ((1.0 - t2 * t2 * q ** (2 * n - 4))
                   + 2.0 * t2 * q ** (n - 2) * z)
                / (2.0 * (1.0 + t1 * t2 * q ** (2 * n - 3))
                   * (1.0 + t1 * t2 * q ** (2 * n - 2))))

    def middle(m, z):
        return xconst - halfsum + aa(m - 1, z) + bb(m - 1, z)

    def u_reduced(m):
        # z-slope of middle(m, .) divided by q^m; the reduced form stays
        # well scaled at any depth, where both raw slope factors would
        # underflow to zero
        sa = ((1.0 + t1 * t2 * q ** (m - 3)) * (1.0 - tp * q ** (m - 4))
              / (rst * (1.0 + t1 * t2 * q ** (2 * m - 4))
                 * (1.0 + t1 * t2 * q ** (2 * m - 3))))
        sb = (rst * t1 * t2 * q ** -4 * (1.0 - q ** (m - 1))
              * (1.0 + q ** m / (t3 * t4))
              / ((1.0 + t1 * t2 * q ** (2 * m - 5))
                 * (1.0 + t1 * t2 * q ** (2 * m - 4))))
        return sa + sb

    def u(m):
        return q ** m * u_reduced(m)

    def c(m):
        return -middle(m, 0.0) / u(m)

    def lam(m):
        if m == 1:
            return 0.0
        # the q^{2m-5} scale cancels against u(m-1) u(m) = q^{2m-1} * reduced
        return (t1 * t2 * q ** -4 * (1.0 - q ** (m - 1))
                * (1.0 + t1 * t2 * q ** (m - 4))
                * (1.0 + q ** m / (t3 * t4)) * (1.0 - tp * q ** (m - 5))
                / ((1.0 + t1 * t2 * q ** (2 * m - 6))
                   * (1.0 + t1 * t2 * q ** (2 * m - 5)) ** 2
                   * (1.0 + t1 * t2 * q ** (2 * m - 4))
                   * u_reduced(m - 1) * u_reduced(m)))

    def amap(m):
        return 0.5 * (t2 * q ** (m - 3) - q ** (3 - m) / t2)

    def bmap(m):
        return 0.5 * (t1 * q ** (m - 2) - q ** (2 - m) / t1)

    return u, c, lam, amap, bmap


def grid_member(q, t1, t2, t3, t4, n):
    """Terminating series member vanishing against the grid weights, with
    e - 1/e = 2z: 4phi3(q^-n, -t1 t2 q^(n-2), -t1 t3/q, -t1 t4/q;
    -t1 e, t1/e, t1 t2 t3 t4/q^3; q, q)."""
    return TerminatingPhi(
        q, (mono((q, -n)), mono(-t1, t2, (q, n - 2)), mono(-t1, t3, (q, -1)),
            mono(-t1, t4, (q, -1))),
        (mono(-t1, e=1), mono(t1, e=-1), mono(t1, t2, t3, t4, (q, -3))),
        mono(q), sinh_node)


def _poly(ctx, t1, t2, t3, t4, uprod, n, z):
    q = ctx.q
    rst = cmath.sqrt(t3 * t4)
    e = exp_sinh_inverse(complex(z))
    pref = (multi_q_pochhammer(ctx, (-t1 * e, t1 / e,
                                     t1 * t2 * t3 * t4 / q ** 3,
                                     -t1 * t2 / q ** 2), n)
            / ((2.0 * t1 * rst / q) ** n
               * q_pochhammer(ctx, -t1 * t2 / q ** 2, 2 * n) * uprod(n)))
    return pref * grid_member(q, t1, t2, t3, t4, n)(z)


def _solution(ctx, t1, t2, t3, t4, uprod, uv, n, z):
    """Closed form of the subdominant solution, degree index n.

    Very well poised series with argument -t1 t2 q^{n-2}; the value is
    invariant under swapping the two roots of e - 1/e = 2z, so a single
    branch covers the cut plane.
    """
    q = ctx.q
    e = exp_sinh_inverse(complex(z))
    num = multi_q_pochhammer(ctx, (
        -t1 * t2 * q ** (2 * n - 2), -t1 * t4 * q ** n,
        e * q ** (n + 2) / t3, -q ** (n + 2) / (e * t3),
        -t2 * t4 * q ** (n - 1)))
    den = closed_denominator(ctx, (
        q ** (n + 1), q ** (n + 2) * t4 / t3, -t1 * e * q ** n,
        t1 * q ** n / e, t1 * t2 * t3 * t4 * q ** (n - 3),
        -q ** (n + 2) / (t3 * t4), -t2 * e * q ** (n - 1),
        t2 * q ** (n - 1) / e))
    w = w87(ctx, q ** (n + 1) * t4 / t3, q ** (n + 1), -q * q / (t1 * t3),
            t4 / e, -t4 * e, -q ** 3 / (t2 * t3), -t1 * t2 * q ** (n - 2))
    return (2.0 * uv) ** -n * num / den * w.value / uprod(n)


def build(params):
    q, t1, t2, t3, t4 = _checked(params)
    ctx = QContext(q)
    tp = t1 * t2 * t3 * t4
    rst = cmath.sqrt(t3 * t4)
    rho = t3 / rst
    u, c, lam, amap, bmap = _coeff_maps(q, t1, t2, t3, t4)
    uprod = PrefixProduct(u)

    spec = RecurrenceSpec(c=c, lam=lam, a=amap, b=bmap)

    uv = -rho

    def minimal(n, z):
        return _solution(ctx, t1, t2, t3, t4, uprod, uv, n, z)

    cf_value = fraction_from_minimal(minimal, c)

    # grid points and masses of the Mittag-Leffler expansion
    wconst = (u(1) * rst / q
              * multi_q_pochhammer(ctx, (tp / q ** 3, q * t1 / t3, t2 / t3,
                                         q * t4 / t3))
              / multi_q_pochhammer(ctx, (-t1 * t2 / q, -t1 * t4 / q,
                                         -t2 * t4 / q ** 2,
                                         -q * q / (t3 * t3))))
    # mass k is wconst (tp/q^4)^k c_k (1 + q^(2k+2)/t3^2), and c_k alone
    # overflows as q -> 1, so each mass comes from the last by its ratio.
    # The ratios settle towards tp/q^4, so the tail past a point is bounded
    # by r/(1 - r) |w_k| with r the next ratio
    points = []
    wk = wconst * (1.0 + q * q / (t3 * t3))
    if wk == 0.0:
        raise DomainError("the grid masses underflow to 0 at this q")
    mass = 0.0
    for k in range(_GRID_CAP):
        zk = 0.5 * (t3 * q ** (-k - 1) - q ** (k + 1) / t3)
        points.append((zk, wk))
        mass += abs(wk)
        ratio = (tp / q ** 4
                 * (1.0 + q ** (k + 2) / (t1 * t3))
                 * (1.0 + q ** (k + 3) / (t2 * t3))
                 * (1.0 + q ** (k + 2) / (t3 * t4))
                 * (1.0 + q ** (k + 2) / (t3 * t3))
                 * (1.0 + q ** (2 * k + 4) / (t3 * t3))
                 / ((1.0 - q ** (k + 1) * t1 / t3) * (1.0 - q ** k * t2 / t3)
                    * (1.0 - q ** (k + 1) * t4 / t3) * (1.0 - q ** (k + 1))
                    * (1.0 + q ** (2 * k + 2) / (t3 * t3))))
        r = abs(ratio)
        if (k + 1 >= _GRID_POINTS and r < 1.0
                and r / (1.0 - r) * abs(wk) <= _GRID_TAIL * mass):
            break
        wk *= ratio
    else:
        raise ConvergenceError(
            f"the grid's truncated tail still exceeds {_GRID_TAIL:.3g} of "
            f"its mass at {_GRID_CAP} points")
    measure = discrete(points)

    a2 = amap(2)
    pairing_points = []
    r0 = None
    for zk, wk in points:
        gap = zk - a2
        if gap == 0.0:
            raise CollisionError(
                "grid point coincides with the second interpolation point")
        rk = wk / gap
        if r0 is None:
            r0 = rk
        pairing_points.append((zk, rk / r0))
    pairing = discrete(pairing_points)

    def closure_ratio(n):
        # P_n(z) / prod_{j=1..n} (z - b_{j+1}), a z-free constant multiple
        # of the terminating series member; the root of t3 t4 is taken
        # positive, which fixes the sign for odd n
        return (q ** (n * (n + 1) / 2.0) * rst ** -n
                * multi_q_pochhammer(ctx, (-t1 * t2 / q ** 2, tp / q ** 3), n)
                / (q_pochhammer(ctx, -t1 * t2 / q ** 2, 2 * n) * uprod(n)))

    def family():
        def left(m):
            return grid_member(q, t1, t2, t3, t4, m)

        def right(n):
            return grid_member(q, t2, t1, t3, t4, n)

        hconst = (multi_q_pochhammer(ctx, (-t1 * t2 / q, -t1 * t4 / q,
                                           -t2 * t4 / q, -q ** 3 / (t3 * t3)))
                  / multi_q_pochhammer(ctx, (q * t1 / t3, q * t2 / t3,
                                             q * t4 / t3, tp / q ** 3)))

        def norm(n):
            return (hconst * (tp / q ** 3) ** n
                    * (1.0 + t1 * t2 / q ** 2)
                    / (1.0 + t1 * t2 * q ** (2 * n - 2))
                    * q_pochhammer(ctx, -q * q / (t3 * t4), n)
                    * q_pochhammer(ctx, q, n)
                    / (q_pochhammer(ctx, -t1 * t2 / q ** 2, n)
                       * q_pochhammer(ctx, tp / q ** 3, n)))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=pairing)

    extras = {
        "poly": lambda n, z: _poly(ctx, t1, t2, t3, t4, uprod, n, z),
        "closure_ratio": closure_ratio,
    }
    return ModelSpec(name=NAME,
                     params={"q": q, "t1": t1, "t2": t2, "t3": t3, "t4": t4},
                     spec=spec, measure=measure, minimal=minimal,
                     cf_value=cf_value, family=family, extras=extras)
