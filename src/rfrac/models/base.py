"""Shared wiring for the concrete model catalog.

A model bundles a recurrence coefficient family with its closed-form
minimal solution, the continued fraction value, a spectral measure and
its biorthogonal rational pair.
Everything is carried as plain closures so the numerical layers
(recurrence, measures) can consume a model without knowing which one it
is.

The model modules build those closures from the shared pieces here:

- ``q_product_weight``: the weights const * prod (c x^k; q)_inf /
  prod (c x^k; q)_inf, k in {-2, -1, 1, 2}, that every q-model measure is;
- ``theta_interval``: a [-1, 1] measure given by its angle density;
- ``PrefixProduct``: cached prefix products of a coefficient map;
- ``closed_denominator`` and ``fraction_from_minimal``: the closed minimal
  solution's denominator, and the fraction value from that solution;
- ``branch_guard``: the check that z is off the curve separating two
  closed-form branches;
- ``joukowski_split``, ``joukowski_outer_root`` and ``exp_sinh_inverse``:
  the branch choices the closed forms are written on.

The biorthogonal members are terminating basic series. A model declares
each member as a ``qseries.TerminatingPhi``: its parameters as monomials
in the model's own doubles and the node variable e (``qseries.mono``), and
the map from node to e. The kernel forms the parameters and sums the
series in double-double over a whole node array, so every member closure
takes and returns node arrays.
"""

import cmath
from dataclasses import dataclass, field

from ..errors import (BranchBoundaryError, DomainError, PoleError,
                      SupportProximityError)
from ..measures import interval
from ..qseries import multi_q_pochhammer, q_pochhammer

__all__ = [
    "BiorthFamily",
    "ModelSpec",
    "PrefixProduct",
    "branch_guard",
    "closed_denominator",
    "exp_sinh_inverse",
    "fraction_from_minimal",
    "joukowski_outer_root",
    "joukowski_split",
    "q_product_weight",
    "real_base",
    "require",
    "theta_interval",
]

_UNIT_RTOL = 1e-12
_BRANCH_RTOL = 1e-12


def require(cond, condition):
    """Raise DomainError naming the violated parameter condition."""
    if not cond:
        raise DomainError(f"parameter domain violation: need {condition}")


def real_base(value):
    """The base q as a float, rejecting anything off the open interval (0, 1)."""
    qc = complex(value)
    require(qc.imag == 0.0, "q real")
    require(0.0 < qc.real < 1.0, "0 < q < 1")
    return qc.real


@dataclass(frozen=True)
class ModelSpec:
    """A concrete recurrence model with all of its closed-form attachments.

    ``minimal`` is (n, z) -> value of the subdominant solution, ``cf_value``
    is z -> value of the associated continued fraction.  ``family`` is a
    zero-argument closure over the model's own build state that returns
    its ``BiorthFamily``; it runs only when called, so a family-only
    parameter check or constant costs nothing until the pair is asked for.
    ``extras`` holds only the closed identities a test reads that the
    generic interface has no slot for: closed polynomials, weights,
    transforms and masses.
    """

    name: str
    params: dict
    spec: object
    measure: object
    minimal: object
    cf_value: object
    family: object
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BiorthFamily:
    """Two indexed function families paired against a fixed measure.

    ``left`` and ``right`` map an index n to a member closure, which takes
    a node array and returns the member's values with the nodes' shape;
    ``norm`` maps n to the closed-form value of the diagonal pairing.
    ``pairing`` is the measure the Gram matrix is taken against, which
    need not coincide with the model's spectral measure.
    """

    left: object
    right: object
    norm: object
    pairing: object


def joukowski_split(z):
    """The root u of z = (u + 1/u)/2 with |u| >= 1.

    The two roots multiply to 1; the split square root keeps the selection
    stable up to the cut [-1, 1] where both roots hit the unit circle.
    """
    zc = complex(z)
    w = cmath.sqrt(zc - 1.0) * cmath.sqrt(zc + 1.0)
    u = zc + w
    if abs(u) < 1.0:
        u = zc - w
    return u


def joukowski_outer_root(z):
    """joukowski_split(z), refused on the segment [-1, 1] carrying the measure."""
    u = joukowski_split(z)
    if abs(abs(u) - 1.0) <= _UNIT_RTOL:
        raise SupportProximityError(
            f"z = {complex(z)} lies on the segment [-1, 1] carrying the measure")
    return u


def exp_sinh_inverse(z):
    """exp(xi) for z = sinh(xi), on the branch with modulus >= 1.

    The two candidates multiply to -1, so the small root is recovered from
    the large one without cancellation.
    """
    zc = complex(z)
    w = cmath.sqrt(zc * zc + 1.0)
    s = zc + w
    if abs(s) < 1.0:
        s = -1.0 / s
    return s


def branch_guard(gap, scale, boundary, z):
    """Refuse z on the curve that separates two closed-form branches.

    ``gap`` is z's signed distance from that curve, named ``boundary`` in
    the message; |gap| <= 1e-12 max(1, scale) counts as on it.
    """
    if abs(gap) <= _BRANCH_RTOL * max(1.0, scale):
        raise BranchBoundaryError(
            f"{boundary} separates the two closed-form branches, got z = {z}")


class PrefixProduct:
    """Cached prefix products f(1) f(2) ... f(n), empty product at n = 0."""

    def __init__(self, f):
        self.f = f
        self.vals = [1.0 + 0.0j]

    def __call__(self, n):
        while len(self.vals) <= n:
            self.vals.append(self.vals[-1] * self.f(len(self.vals)))
        return self.vals[n]


def closed_denominator(ctx, avals):
    """The q-product denominator of a closed minimal solution.

    At an interpolation point a factor can vanish exactly; the fraction
    there is its finite approximant, but the closed form has no value, so
    an exact 0 raises PoleError. There is no tolerance: every nonzero
    denominator keeps its value.
    """
    den = multi_q_pochhammer(ctx, avals)
    if den == 0:
        raise PoleError("a denominator factor of the closed minimal "
                        "solution vanishes at this point")
    return den


def fraction_from_minimal(minimal, c):
    """The fraction value z -> x_0 / ((z - c(1)) x_0 - x_1).

    x_n = minimal(n, z) is the closed minimal solution; a vanishing
    denominator raises PoleError.
    """
    def cf_value(z):
        x0 = minimal(0, z)
        x1 = minimal(1, z)
        den = (z - c(1)) * x0 - x1
        if den == 0.0:
            raise PoleError("the fraction has a pole at this point")
        return x0 / den

    return cf_value


def _power(x, k):
    return x ** k if k > 0 else (1.0 / x) ** -k


def q_product_weight(ctx, const, num, den):
    """x -> const * prod_num (c x^k; q)_inf / prod_den (c x^k; q)_inf.

    ``num`` and ``den`` hold (c, k) pairs with k in {-2, -1, 1, 2}; x is a
    scalar or a node array.  Each factor is its own ``q_pochhammer`` call,
    so it truncates at the depth its own |c x^k| needs, and its argument
    array lives only for that call.
    """
    def weight(x):
        top = const
        for c, k in num:
            top = top * q_pochhammer(ctx, c * _power(x, k))
        bottom = 1.0
        for c, k in den:
            bottom = bottom * q_pochhammer(ctx, c * _power(x, k))
        return top / bottom

    return weight


def theta_interval(theta_density):
    """The [-1, 1] measure whose angle density is w(cos t) sin t."""
    return interval(-1.0, 1.0, theta_density=theta_density)
