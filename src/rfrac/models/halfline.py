"""Constant-coefficient second-kind model on the negative half line.

All recurrence data is level-independent: two fixed interpolation points
a and b, partial numerators 1/4, and a constant diagonal shift.  The
minimal solution is an explicit n-th power, the spectral measure has an
algebraic density on (-inf, 0], and the associated rational family is
self-paired.
"""

import cmath
import math

import numpy as np

from ..errors import BranchBoundaryError
from ..measures import interval
from ..recurrence import R_II, RecurrenceSpec
from .base import BiorthFamily, ModelSpec, require

NAME = "ChebyshevR2_31"


def _checked(params):
    a = complex(params["a"])
    b = complex(params["b"])
    require(a.imag == 0.0 and a.real > 0.0, "a > 0")
    require(b.imag == 0.0 and b.real > 0.0, "b > 0")
    return a.real, b.real


def _branch_root(z, ra, rb):
    """sqrt(z) on the branch that makes (s - ra)(s - rb) subdominant.

    The tie case is exactly the support cut, where neither branch wins.
    """
    zc = complex(z)
    s = cmath.sqrt(zc)
    w = zc + ra * rb
    d = (ra + rb) * s
    if abs(w - d) == abs(w + d):
        raise BranchBoundaryError(
            f"both square-root branches tie at z = {zc} (the support cut)")
    if abs(w - d) > abs(w + d):
        s = -s
    return s


def _poly(ra, rb, n, x):
    """Degree-n numerator polynomial, branch-independent in sqrt(x)."""
    s = np.sqrt(np.asarray(x, dtype=complex))
    plus = ((s + ra) * (s + rb)) ** (n + 1)
    minus = ((s - ra) * (s - rb)) ** (n + 1)
    return (plus - minus) / (2.0 ** (n + 1) * (ra + rb) * s)


def _rational(a, b, ra, rb, n, x):
    x = np.asarray(x, dtype=complex)
    return _poly(ra, rb, n, x) / ((a - x) ** (n // 2) * (b - x) ** ((n + 1) // 2))


def build(params):
    a, b = _checked(params)
    ra = math.sqrt(a)
    rb = math.sqrt(b)
    rab = math.sqrt(a * b)

    spec = RecurrenceSpec(kind=R_II, c=lambda n: -rab, lam=lambda n: 0.25,
                          a=lambda n: a, b=lambda n: b)

    def minimal(n, z):
        s = _branch_root(z, ra, rb)
        return (0.5 * (s - ra) * (s - rb)) ** n

    def cf_value(z):
        s = _branch_root(z, ra, rb)
        return 2.0 / ((s + ra) * (s + rb))

    def weight(x):
        return (2.0 / math.pi) * (ra + rb) * np.sqrt(-x) / ((a - x) * (b - x))

    measure = interval(-math.inf, 0.0, weight)

    def pairing_weight(x):
        return (2.0 / math.pi) * (ra + rb) * np.sqrt(-x) \
            / ((a - x) ** 2 * (b - x))

    pairing = interval(-math.inf, 0.0, pairing_weight)

    def family():
        def member(n):
            return lambda x: _rational(a, b, ra, rb, n, x)

        def norm(n):
            # the diagonal alternates between the two pole anchors
            root = ra if n % 2 == 0 else rb
            return 0.25 ** n / (root * (ra + rb))

        return BiorthFamily(left=member, right=member, norm=norm,
                            pairing=pairing)

    extras = {"poly": lambda n, x: _poly(ra, rb, n, x)}
    return ModelSpec(name=NAME, params={"a": a, "b": b}, spec=spec,
                     measure=measure, minimal=minimal, cf_value=cf_value,
                     family=family, extras=extras)
