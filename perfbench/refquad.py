"""Reference quadrature for the moments workload, independent of rfrac.measures.

It reads a measure's shape and density closures and integrates many
integrands on one node set per level: trapezoid rules in an angle for the
circle and the segment, an exponential map for the left-infinite interval,
a sinh map for the vertical line, and the full sum for a discrete measure.
Every one of them converges geometrically for the smooth integrands used
here, and each level doubles the nodes until all entries agree.
"""

import math

import numpy as np

# trapezoid windows in the mapped variable; the integrands decay at least
# like exp(-|s|/2) (half line, x = hi - e^s) and exp(-1.7 |u|) (line,
# y = sinh u) at the parameter box's edge, so these ends are below 1e-17
_HALFLINE_WINDOW = (-30.0, 80.0)
_LINE_WINDOW = 25.0


def nodes(m, n):
    """Nodes t and complex weights w with sum(w * f(t)) ~ integral of f dalpha."""
    if m.variant == "discrete":
        t = np.array([complex(p[0]) for p in m.points])
        w = np.array([complex(p[1]) for p in m.points])
        return t, w
    if m.variant == "circle_contour":
        theta = 2.0 * math.pi * np.arange(n) / n
        t = m.radius * np.exp(1j * theta)
        return t, np.asarray(m.density(theta)) * 1j * t * (2.0 * math.pi / n)
    if m.variant == "vertical_line":
        u = np.linspace(-_LINE_WINDOW, _LINE_WINDOW, n + 1)
        h = u[1] - u[0]
        y = np.sinh(u)
        return m.re + 1j * y, np.asarray(m.density(y)) * np.cosh(u) * h
    if m.variant == "interval":
        if math.isinf(m.lo):
            s = np.linspace(*_HALFLINE_WINDOW, n + 1)
            h = s[1] - s[0]
            x = m.hi - np.exp(s)
            return x.astype(complex), np.asarray(m.weight(x)) * np.exp(s) * h
        # midpoint rule in the angle of x = mid + half cos(theta)
        theta = (np.arange(n) + 0.5) * math.pi / n
        mid, half = 0.5 * (m.lo + m.hi), 0.5 * (m.hi - m.lo)
        x = mid + half * np.cos(theta)
        if m.theta_density is not None:
            w = np.asarray(m.theta_density(theta)) * (math.pi / n)
        else:
            w = np.asarray(m.weight(x)) * half * np.sin(theta) * (math.pi / n)
        return x.astype(complex), w
    raise ValueError(f"unknown measure variant {m.variant!r}")


def bilinear(m, rows, tol=1e-13, start=64, max_nodes=1 << 17):
    """I[j, k] = integral of L_j R_k dalpha and J[j, k] of |L_j R_k| |dalpha|.

    ``rows(t)`` returns the arrays (L, R) of shape (rows, len(t)). Levels
    double from ``start`` nodes until every entry of I moves by at most
    tol * J between two levels.
    """
    prev = None
    n = start
    while n <= max_nodes:
        t, w = nodes(m, n)
        left, right = rows(t)
        I = (left * w) @ right.T
        J = (np.abs(left) * np.abs(w)) @ np.abs(right).T
        if not (np.all(np.isfinite(I)) and np.all(np.isfinite(J))):
            raise ArithmeticError("reference integrand is not finite on the nodes")
        if m.variant == "discrete":
            return I, J
        if prev is not None and np.all(np.abs(I - prev) <= tol * J):
            return I, J
        prev = I
        n *= 2
    raise ArithmeticError(f"reference quadrature did not settle by {max_nodes} nodes")
