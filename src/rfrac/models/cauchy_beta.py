"""Second-kind model with Gauss hypergeometric solutions on a vertical line.

The interpolation points sit at 0 and 1, the recurrence coefficients are
rational in n, and the spectral measure is a beta-like density on the line
Re t = 1/2.  The two closed-form solution branches live on the half planes
either side of that line.
"""

import math

import numpy as np

from ..measures import vertical_line
from ..qseries import gamma_fn, hyper_2f1, shifted_factorial
from ..recurrence import R_II, RecurrenceSpec
from .base import BiorthFamily, ModelSpec, branch_guard, require

NAME = "Cauchy2F1_32"


def _checked(params):
    a = complex(params["a"])
    b = complex(params["b"])
    require(a != 0.0, "a != 0")
    require(b != 0.0, "b != 0")
    require(a != -1.0, "a != -1")
    require(b != 1.0, "b != 1")
    require((a - b).real > 0.0, "Re(a - b) > 0")
    return a, b


def _solution_left(a, b, n, z):
    # converges for |z| < 1; the branch half plane is Re z < 1/2
    pref = ((0.5 * z) ** n * gamma_fn(n + 1.0) * gamma_fn(n + 1.0 + a - b)
            / (gamma_fn(n + a + 1.0) * gamma_fn(n + 0.5 * (1.0 + a - b))))
    return pref * hyper_2f1(a, b, n + 1.0 + a, z).value


def _solution_right(a, b, n, z):
    # converges for |1 - z| < 1; the branch half plane is Re z > 1/2
    pref = ((0.5 * (z - 1.0)) ** n * gamma_fn(n + 1.0)
            * gamma_fn(n + 1.0 + a - b)
            / (gamma_fn(n + 2.0 - b) * gamma_fn(n + 0.5 * (1.0 + a - b))))
    return pref * hyper_2f1(1.0 - a, 1.0 - b, n + 2.0 - b, 1.0 - z).value


def _poly_coeffs(a, b, n):
    """Coefficients of the degree-n solution as a polynomial in (1 - z)."""
    pref = (2.0 ** -n * shifted_factorial(1.0 - b, n)
            / shifted_factorial(0.5 * (1.0 + a - b), n))
    coeffs = []
    term = 1.0 + 0.0j
    for k in range(n + 1):
        coeffs.append(pref * term)
        term *= ((-n + k) * (b - a - n + k)
                 / ((b - n + k) * (k + 1.0)))
    return coeffs


def _poly_eval(coeffs, z):
    w = 1.0 - np.asarray(z, dtype=complex)
    out = np.zeros_like(w)
    for c in reversed(coeffs):
        out = out * w + c
    return out


def build(params):
    a, b = _checked(params)

    def c(n):
        return (n + a - 1.0) / (2.0 * n + a - 1.0 - b)

    def lam(n):
        if n == 1:
            return 0.0
        return ((n - 1.0) * (n + a - 1.0 - b)
                / ((2.0 * n + a - 1.0 - b) * (2.0 * n + a - 3.0 - b)))

    spec = RecurrenceSpec(kind=R_II, c=c, lam=lam,
                          a=lambda n: 0.0, b=lambda n: 1.0)

    def minimal(n, z):
        zc = complex(z)
        branch_guard(zc.real - 0.5, 0.5, "Re z = 1/2", zc)
        if zc.real < 0.5:
            return _solution_left(a, b, n, zc)
        return _solution_right(a, b, n, zc)

    def cf_value(z):
        zc = complex(z)
        branch_guard(zc.real - 0.5, 0.5, "Re z = 1/2", zc)
        if zc.real < 0.5:
            return (-(1.0 + a - b) * (1.0 - zc) ** (b - 1.0) / a
                    * hyper_2f1(a, b, 1.0 + a, zc).value)
        return (-(1.0 + a - b) / (b - 1.0) * zc ** (-a)
                * hyper_2f1(1.0 - a, 1.0 - b, 2.0 - b, 1.0 - zc).value)

    dconst = ((1.0 + a - b) * gamma_fn(a) * gamma_fn(1.0 - b)
              / (2.0 * math.pi * gamma_fn(1.0 + a - b)))

    def density(y):
        t = 0.5 + 1j * np.asarray(y, dtype=float)
        return dconst * np.power(t, -a) * np.power(np.conj(t), b - 1.0)

    measure = vertical_line(0.5, density)

    def pairing_density(y):
        t = 0.5 + 1j * np.asarray(y, dtype=float)
        return (np.power(t, -a - 1.0) * np.power(np.conj(t), b - 1.0)
                / (2.0 * math.pi))

    pairing = vertical_line(0.5, pairing_density)

    def family():
        def left(m):
            coeffs = _poly_coeffs(a, b, m)

            def f(t):
                t = np.asarray(t, dtype=complex)
                return _poly_eval(coeffs, t) / (t - 1.0) ** m
            return f

        def right(n):
            # the left family at 1 - t with both parameters negated and swapped
            coeffs = _poly_coeffs(-b, -a, n)

            def f(t):
                t = np.asarray(t, dtype=complex)
                return _poly_eval(coeffs, 1.0 - t) / (-t) ** n
            return f

        def norm(n):
            return (gamma_fn(1.0 + a - b) * math.factorial(n)
                    * shifted_factorial(1.0 + a - b, n)
                    / (gamma_fn(1.0 + a) * gamma_fn(1.0 - b) * 4.0 ** n
                       * shifted_factorial(0.5 * (a - b + 1.0), n) ** 2))

        return BiorthFamily(left=left, right=right, norm=norm, pairing=pairing)

    extras = {
        "poly": lambda n, z: complex(_poly_eval(_poly_coeffs(a, b, n), z)),
        "mass": (a - b + 1.0) / (a - b),
    }
    return ModelSpec(name=NAME, params={"a": a, "b": b}, spec=spec,
                     measure=measure, minimal=minimal, cf_value=cf_value,
                     family=family, extras=extras)
