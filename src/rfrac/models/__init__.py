"""Registry binding the seven explicit models to one interface.

Each model module exposes ``NAME`` and ``build(params)``, besides its
integral identities; ``build`` returns the whole model, its biorthogonal
family included.  This package maps the public names onto the builders
and re-exports the identities that live next to individual models.
"""

from ..errors import DomainError, OutOfSpanError
from .base import BiorthFamily, ModelSpec
from . import (cauchy_beta, cheby_rational, halfline, pastro, rahman,
               sinh_lattice, unit_circle)
from .cheby_rational import elementary_mass
from .pastro import transform_241
from .rahman import herglotz_511, qbeta_519

_MODULES = (pastro, halfline, cauchy_beta, unit_circle, sinh_lattice,
            cheby_rational, rahman)
_BUILDERS = {m.NAME: m.build for m in _MODULES}
MODEL_NAMES = tuple(m.NAME for m in _MODULES)

__all__ = [
    "MODEL_NAMES",
    "ModelSpec",
    "BiorthFamily",
    "instantiate",
    "minimal_closed_form",
    "biorth",
    "transform_241",
    "herglotz_511",
    "qbeta_519",
    "elementary_mass",
]


def instantiate(name, params):
    """Build the named model from its parameter mapping."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        known = ", ".join(MODEL_NAMES)
        raise OutOfSpanError(
            f"unknown model {name!r}; known models: {known}") from None
    return build(dict(params))


def minimal_closed_form(model, n, z):
    """Closed-form subdominant solution of the model's recurrence."""
    if n < 0:
        raise DomainError("the solution index starts at 0")
    return model.minimal(n, z)


def biorth(model):
    """The model's biorthogonal pair with its closed norms."""
    return model.family()
