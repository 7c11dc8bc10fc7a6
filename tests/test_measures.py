"""Quadrature engines checked against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfrac import measures
from rfrac.errors import ConvergenceError, DomainError, SupportProximityError
from rfrac.measures import (
    Measure,
    circle_contour,
    discrete,
    integrate,
    interval,
    normalization,
    stieltjes,
    vertical_line,
    weighted_gram,
)


def unit_circle_cauchy():
    return circle_contour(
        1.0,
        lambda th: 1.0 / (2j * math.pi * np.exp(1j * th)),
    )


def chebyshev_unit_mass():
    # the second-kind Chebyshev weight by its angle density, x = cos t
    return interval(
        -1.0, 1.0,
        theta_density=lambda th: (2.0 / math.pi) * np.sin(th) ** 2,
    )


def halfline_measure(a=1.0, b=4.0):
    c = 2.0 * (math.sqrt(a) + math.sqrt(b)) / math.pi
    return interval(
        -math.inf, 0.0,
        lambda x: c * np.sqrt(-x) / ((a - x) * (b - x)),
    )


def test_circle_cauchy_kernel_has_unit_mass():
    val = normalization(unit_circle_cauchy())
    assert abs(val - 1.0) < 1e-12


def test_circle_contour_deformation_invariance():
    # analytic density in an annulus: the radius must not matter
    def density_at(r):
        return lambda th: (
            lambda t: (1.0 + t / 2.0 + t * t / 3.0) / (2j * math.pi * t)
        )(r * np.exp(1j * th))

    inner = normalization(circle_contour(0.6, density_at(0.6)))
    outer = normalization(circle_contour(1.0, density_at(1.0)))
    assert abs(inner - outer) < 1e-9
    assert abs(inner - 1.0) < 1e-9


def test_second_kind_weight_poisson_product(monkeypatch):
    m = chebyshev_unit_mass()
    al, de = 0.5, 0.25

    def f(x):
        return 1.0 / ((1.0 - 2.0 * al * x + al * al)
                      * (1.0 - 2.0 * de * x + de * de))

    val = integrate(m, f)
    assert abs(val - 1.0 / (1.0 - al * de)) < 1e-10
    # doubling stability: a different starting resolution lands on the
    # same answer
    monkeypatch.setattr(measures, "_NODES", 96)
    again = integrate(m, f)
    assert abs(val - again) < 2e-10


@given(
    st.floats(min_value=-0.8, max_value=0.8),
    st.floats(min_value=-0.8, max_value=0.8),
)
def test_poisson_product_property(al, de):
    m = chebyshev_unit_mass()

    def f(x):
        return 1.0 / ((1.0 - 2.0 * al * x + al * al)
                      * (1.0 - 2.0 * de * x + de * de))

    assert abs(integrate(m, f) - 1.0 / (1.0 - al * de)) < 1e-9


def test_gram_of_second_kind_chebyshev_family():
    m = chebyshev_unit_mass()

    def u(n):
        def val(x):
            p_prev, p = x * 0 + 1.0, 2.0 * x
            if n == 0:
                return p_prev
            for _ in range(n - 1):
                p_prev, p = p, 2.0 * x * p - p_prev
            return p
        return val

    fam = [u(n) for n in range(3)]
    G = weighted_gram(m, fam.__getitem__, fam.__getitem__, 3)
    assert np.max(np.abs(G - np.eye(3))) < 1e-11


def test_legendre_panels_on_plain_weight():
    m = interval(0.0, 1.0, lambda x: x * 0 + 1.0)
    val = integrate(m, np.exp)
    assert abs(val - (math.e - 1.0)) < 1e-12


def test_halfline_total_mass():
    assert abs(normalization(halfline_measure()) - 2.0) < 1e-9


def test_halfline_transform_closed_form():
    # partial fractions give exactly 1/3 for this parameter pair
    val = stieltjes(halfline_measure(a=1.0, b=4.0), 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-8


def test_discrete_geometric_masses_sum_to_one():
    # a fixed rule sums all 200 points, so only rounding is left
    pts = [(0.5 ** k, 0.5 ** (k + 1)) for k in range(200)]
    val = normalization(discrete(pts))
    assert abs(val - 1.0) < 1e-15


def test_discrete_single_mass_transform():
    m = discrete([(0.0, 1.0)])
    assert stieltjes(m, 2.0) == 0.5


def test_discrete_rule_sums_every_point():
    # no tail test: slowly decaying masses are summed to the last point
    pts = [(float(k), 1.0 / (k + 1)) for k in range(100)]
    val = integrate(discrete(pts), np.ones_like)
    expected = sum(1.0 / (k + 1) for k in range(100))
    assert abs(val - expected) < 1e-14


def test_line_cauchy_density_mass_and_transform():
    m = vertical_line(0.5, lambda y: 1.0 / (math.pi * (1.0 + y * y)))
    assert abs(normalization(m) - 1.0) < 1e-10
    # residue calculus: 1/pi * integral dy/((1+y^2)(2.5-iy)) = 2/7
    val = stieltjes(m, 3.0)
    assert abs(val - 2.0 / 7.0) < 1e-9


def test_line_nonintegrable_density_fails_loudly(monkeypatch):
    m = vertical_line(0.0, lambda y: 1.0 / (1.0 + np.abs(y)))
    monkeypatch.setattr(measures, "_MAX_REFINEMENTS", 3)
    with pytest.raises(ConvergenceError):
        normalization(m)


def coarse_ladder(monkeypatch):
    """Two levels, from 8 nodes."""
    monkeypatch.setattr(measures, "_NODES", 8)
    monkeypatch.setattr(measures, "_MAX_REFINEMENTS", 1)


def test_unresolvable_oscillation_fails_loudly(monkeypatch):
    m = unit_circle_cauchy()
    coarse_ladder(monkeypatch)
    with pytest.raises(ConvergenceError):
        integrate(m, lambda t: np.exp(40.0 / t))


def test_transform_decay_recovers_total_mass():
    m = chebyshev_unit_mass()
    for z, bound in ((1e3, 1e-2), (1e4, 1e-3)):
        assert abs(z * stieltjes(m, z) - 1.0) < bound


def test_transform_conjugate_symmetry():
    z = 0.7 + 0.4j
    for m in (chebyshev_unit_mass(), halfline_measure()):
        assert abs(stieltjes(m, z.conjugate())
                   - stieltjes(m, z).conjugate()) < 1e-14


def test_support_proximity_guard():
    cases = [
        (chebyshev_unit_mass(), 0.5),
        (halfline_measure(), -3.0),
        (halfline_measure(), 1e-14),
        (unit_circle_cauchy(), 1.0j),
        (vertical_line(0.5, lambda y: 0.0), 0.5 + 7.0j),
        (discrete([(0.0, 1.0)]), 0.0),
    ]
    for m, z in cases:
        with pytest.raises(SupportProximityError):
            stieltjes(m, z)


def test_measure_validation():
    with pytest.raises(DomainError):
        interval(1.0, -1.0, lambda x: 1.0)
    with pytest.raises(DomainError):
        interval(0.0, math.inf, lambda x: 1.0)
    with pytest.raises(DomainError):
        circle_contour(0.0, lambda th: 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            circle_contour(bad, lambda th: 1.0)
    with pytest.raises(DomainError):
        vertical_line(math.nan, lambda y: 1.0)
    # an angle density lives on [-1, 1] only, and an interval needs
    # exactly one of a weight and an angle density
    with pytest.raises(DomainError):
        interval(0.0, 2.0, theta_density=np.sin)
    with pytest.raises(DomainError):
        interval(-1.0, 1.0)
    with pytest.raises(DomainError):
        interval(-1.0, 1.0, lambda x: 1.0, theta_density=np.sin)
    with pytest.raises(DomainError):
        discrete([])
    with pytest.raises(DomainError):
        Measure(variant="nonsense")


def test_scalar_only_closure_is_refused():
    # closures take and return node arrays; float(x) rejects an array, and
    # a closure that returns a scalar has the wrong shape
    c = 1.3
    m = chebyshev_unit_mass()
    with pytest.raises(TypeError):
        integrate(m, lambda x: 1.0 / (c - float(x)))
    with pytest.raises(TypeError, match="node arrays"):
        integrate(m, lambda x: 1.0)
    with pytest.raises(TypeError, match="node arrays"):
        integrate(discrete([(0.0, 1.0), (1.0, 0.5)]), lambda z: 2.0)


def test_discrete_sum_evaluates_each_point_once():
    # one array call on every point, zero masses included, summed in order
    pts = [(float(k), 0.5 ** k * (1.0 + 0.1j) ** k) for k in range(100)]
    pts[70] = (70.0, 0.0)

    def f(z):
        return 1.0 / (1.0 + 0.3j * z)

    calls = []

    def counted(z):
        calls.append(np.array(z))
        return f(z)

    val = integrate(discrete(pts), counted)
    assert len(calls) == 1
    assert np.array_equal(calls[0], [z for z, _ in pts])
    want = sum(f(z) * w for z, w in pts)
    assert abs(val - want) < 1e-15 * abs(want)


def _poisson_rows(alphas):
    # 1 / (1 - 2 a x + a^2): a pole nearer [-1, 1] needs more doublings
    return [lambda x, a=a: 1.0 / (1.0 - 2.0 * a * x + a * a) for a in alphas]


def _counted(fam, calls):
    def wrap(k, f):
        def member(x):
            calls[k].append(np.size(x))
            return f(x)
        return member
    return [wrap(k, f) for k, f in enumerate(fam)]


def test_gram_ladder_matches_per_entry_integrals():
    m = chebyshev_unit_mass()
    # |x|^3 converges algebraically, so it keeps moving after it is frozen
    left = [lambda x: np.abs(x) ** 3] + _poisson_rows((0.5, 0.8, 0.9, 0.95))
    right = [lambda x, k=k: x ** k for k in range(5)]
    calls = {k: [] for k in range(5)}
    counted = _counted(left, calls)
    G = weighted_gram(m, counted.__getitem__, right.__getitem__, 5)
    ref = np.array([[integrate(m, lambda x: li(x) * rj(x)) for rj in right]
                    for li in left])
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(G))
    # the rows stop at different levels, so the ladder really is shared
    assert len({len(c) for c in calls.values()}) > 1


def test_gram_ladder_evaluates_each_member_once_per_level():
    m = chebyshev_unit_mass()
    lcalls = {k: [] for k in range(4)}
    rcalls = {k: [] for k in range(4)}
    left = _counted(_poisson_rows((0.2, 0.6, 0.9, 0.95)), lcalls)
    right = _counted([lambda x, k=k: x ** k for k in range(4)], rcalls)
    weighted_gram(m, left.__getitem__, right.__getitem__, 4)
    for calls in (*lcalls.values(), *rcalls.values()):
        # one call a level, and the levels double the node count
        assert calls == [64 * 2 ** k for k in range(len(calls))]


def test_gram_ladder_fails_loudly_and_names_open_entries(monkeypatch):
    m = unit_circle_cauchy()
    left = [lambda t: np.ones_like(t), lambda t: np.exp(40.0 / t)]
    right = [lambda t: np.ones_like(t), lambda t: t]
    coarse_ladder(monkeypatch)
    with pytest.raises(ConvergenceError, match=r"\(1, 0\)") as info:
        weighted_gram(m, left.__getitem__, right.__getitem__, 2)
    # a kept exception must not pin the node arrays through its traceback
    tb = info.value.__traceback__
    while tb is not None:
        for v in tb.tb_frame.f_locals.values():
            assert not isinstance(v, np.ndarray) or v.size <= 4
        tb = tb.tb_next
