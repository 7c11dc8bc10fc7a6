"""The five q-models as q -> 1, past the benchmark's box (q <= 0.8).

At q = 0.95 and 0.98, with the other parameters at their tier-1 values,
the order-8 Gram matches the closed norms and the fraction's three
evaluations agree, within the relative bounds below.
"""

import numpy as np
import pytest

from rfrac.measures import weighted_gram
from rfrac.models import biorth, instantiate
from rfrac.recurrence import convergents, minimal_solution_backward

PARAMS = {
    "Pastro21": {"a": 0.3, "b": 0.4},
    "UnitCircle41": {"a": 0.3, "b": 0.2, "t1": 0.3, "t2": 0.3},
    "SinhLattice42": {"t1": 0.2, "t2": 0.3, "t3": 0.4, "t4": 0.1},
    "ChebyRational51": {"alpha": 0.3, "delta": 0.2},
    "Rahman52": {"alpha": 0.2, "beta": 0.3, "delta": 0.1},
}
QS = (0.95, 0.98)

# |G_ij - h_i δ_ij| <= GRAM_TOL sqrt|h_i h_j|; the worst measured is 4.7e-14
GRAM_TOL = 1e-12
# cf_value, the 320th convergent and the backward sweep's ratio_at_0 agree
# relative to |cf_value|; the worst measured is 7.7e-15
FRACTION_TOL = 1e-13


def build(name, q):
    return instantiate(name, dict(PARAMS[name], q=q))


def gram_error(name, q):
    fam = biorth(build(name, q))
    G = weighted_gram(fam.pairing, fam.left, fam.right, 8)
    h = np.array([fam.norm(i) for i in range(8)])
    assert np.all(np.isfinite(G)) and np.all(np.isfinite(h))
    return np.max(np.abs(G - np.diag(h)) / np.sqrt(np.abs(np.outer(h, h))))


GRAM_CASES = [
    pytest.param(name, q, id=f"{name}-{q}",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="ROADMAP item 21: 80 grid points truncate "
                            "SinhLattice42's measure at q = 0.98")
                 if (name, q) == ("SinhLattice42", 0.98) else ())
    for name in PARAMS for q in QS]


@pytest.mark.parametrize("name,q", GRAM_CASES)
def test_gram_matches_closed_norms(name, q):
    # Rahman52's off-diagonal entries cancel to 1e-10..1e-8 against norms
    # up to 2e8: they settle relative to their own scale, not to 1
    assert gram_error(name, q) <= GRAM_TOL


def test_sinh_lattice_gram_is_finite_at_q_098():
    # the grid masses come from their O(1) ratios, so none overflows where
    # the running product of the ratios' numerators reaches 1e306 (k = 77)
    m = build("SinhLattice42", 0.98)
    assert all(np.isfinite(complex(w)) for _, w in m.measure.points)
    gram_error("SinhLattice42", 0.98)


@pytest.mark.parametrize("name", PARAMS)
@pytest.mark.parametrize("q", QS)
def test_fraction_evaluations_agree(name, q):
    m = build(name, q)
    z = 0.3 + 2.0j if name == "SinhLattice42" else 2.5 + 0.5j
    cf = m.cf_value(z)
    for got in (convergents(m.spec, z, 320)[-1],
                minimal_solution_backward(m.spec, z, window=10).ratio_at_0):
        assert abs(got - cf) <= FRACTION_TOL * abs(cf), (got, cf)
