"""Recurrence engine: forward families, convergents, backward minimal solutions."""

import math

import numpy as np
import pytest

from rfrac import recurrence
from rfrac.errors import CollisionError, ConvergenceError, DomainError
from rfrac.recurrence import (
    R_I,
    R_II,
    MinimalSolutionEstimate,
    RecurrenceSpec,
    convergents,
    forward,
    minimal_solution_backward,
    pincherle_residual,
    rationalize,
)


def cheb_spec(a, b):
    # constant-coefficient R_II family with closed-form solutions
    # x^n-type: both fundamental solutions are powers of
    # (sqrt(z) +- sqrt(a))(sqrt(z) +- sqrt(b)) / 2
    return RecurrenceSpec(
        c=lambda n: -math.sqrt(a * b),
        lam=lambda n: 0.25,
        a=lambda n: float(a),
        b=lambda n: float(b),
    )


def geometric_ri_spec(q, a, b):
    # the q-geometric R_I family with lambda_1 = 0
    sq = math.sqrt(q)
    return RecurrenceSpec(
        c=lambda n: -sq * (1 - b * q ** (n - 1)) / (1 - a * q**n),
        lam=lambda n: sq
        * (1 - q ** (n - 1))
        * (1 - a * b * q ** (n - 1))
        / ((1 - a * q**n) * (1 - a * q ** (n - 1))),
        a=lambda n: 0.0,
    )


def test_spec_validation():
    # the kind follows from the second interpolation map
    ri = RecurrenceSpec(c=lambda n: 0, lam=lambda n: 1, a=lambda n: 0)
    assert ri.kind == R_I
    assert cheb_spec(1.0, 4.0).kind == R_II
    # vanishing lambda_n for n >= 2 is rejected at query time
    bad = RecurrenceSpec(c=lambda n: 0, lam=lambda n: 0.0, a=lambda n: 0)
    with pytest.raises(DomainError):
        forward(bad, 0.3, 3)


def test_forward_initial_conditions():
    spec = cheb_spec(1.0, 4.0)
    assert forward(spec, 0.7, 0) == ([1.0], [0.0])
    P, Q = forward(spec, 0.7, 1)
    assert P == [1.0, 0.7 + 2.0] and Q == [0.0, 1.0]


def test_forward_matches_closed_form():
    # closed form: P_n = (A^(n+1) - B^(n+1)) / (A - B) with
    # A, B = (sqrt(z) +- sqrt(a))(sqrt(z) +- sqrt(b)) / 2
    a, b = 1.0, 4.0
    spec = cheb_spec(a, b)
    for z in (1.0, 2.5, 9.0, 0.5 + 1.2j):
        sz = complex(z) ** 0.5
        A = (sz + 1.0) * (sz + 2.0) / 2.0
        B = (sz - 1.0) * (sz - 2.0) / 2.0
        P, _ = forward(spec, z, 6)
        for n in range(7):
            want = sum(A ** (n - j) * B**j for j in range(n + 1))
            assert P[n] == pytest.approx(want, rel=1e-13)
    assert forward(spec, 1.0, 1)[0][1] == pytest.approx(3.0, rel=1e-15)


def test_forward_recurrence_defect_and_determinant():
    rng = np.random.default_rng(7)
    cs = rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)
    ls = rng.uniform(0.2, 1.0, 25)
    as_ = rng.uniform(-2, 2, 25)
    bs = rng.uniform(-2, 2, 25) + 2.5
    for kind in (R_I, R_II):
        spec = RecurrenceSpec(
            c=lambda n: cs[n],
            lam=lambda n: ls[n],
            a=lambda n: as_[n],
            b=(lambda n: bs[n]) if kind == R_II else None,
        )
        z = 0.37 + 0.21j
        P, Q = forward(spec, z, 20)
        assert spec.kind == kind
        det = 1.0 + 0.0j
        for n in range(2, 21):
            w = spec.partial_numerator(n, z)
            # direct substitution into the defining recurrence
            for fam in (P, Q):
                lhs = fam[n]
                rhs = (z - spec.c(n)) * fam[n - 1] - w * fam[n - 2]
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            # determinant identity ties the two families together; the
            # subtraction cancels large products, so scale the tolerance
            # by the products rather than by the small result
            det *= w
            got = Q[n] * P[n - 1] - P[n] * Q[n - 1]
            scale = max(abs(Q[n] * P[n - 1]), abs(det), 1.0)
            assert abs(got - det) <= 1e-13 * scale


def test_rationalize_level_zero_is_one():
    spec = cheb_spec(1.0, 4.0)
    P, _ = forward(spec, 2.5, 0)
    assert rationalize(spec, 2.5, P) == [1.0 + 0.0j]


def test_rationalize_zero_interpolation_points_divide_by_powers():
    spec = geometric_ri_spec(0.5, 0.2, 0.3)
    z = 0.4 + 0.1j
    P, _ = forward(spec, z, 5)
    rat = rationalize(spec, z, P)
    for n in range(6):
        assert rat[n] == pytest.approx(P[n] / z**n, rel=1e-14)


def test_rationalize_direct_division():
    spec = cheb_spec(1.0, 4.0)
    z = 2.5
    P, _ = forward(spec, z, 3)
    rat = rationalize(spec, z, P)
    den = 1.0
    for k in range(1, 4):
        den *= (z - 1.0) * (z - 4.0)
        assert rat[k] == pytest.approx(P[k] / den, rel=1e-14)


def test_rationalize_collision():
    spec = cheb_spec(1.0, 4.0)
    # z = 1 sits on the first interpolation point
    P, _ = forward(spec, 1.0, 2)
    with pytest.raises(CollisionError):
        rationalize(spec, 1.0, P)


def test_convergents_first_entry():
    spec = cheb_spec(1.0, 4.0)
    z = 2.5
    got = convergents(spec, z, 1)
    assert got[0] == pytest.approx(1.0 / (z + 2.0), rel=1e-15)


def test_convergents_limit_interior_point():
    spec = cheb_spec(1.0, 4.0)
    for z in (1.0, 2.5, 9.0):
        sz = math.sqrt(z)
        want = 2.0 / ((sz + 1.0) * (sz + 2.0))
        got = convergents(spec, z, 60)
        assert abs(got[-1] - want) < 1e-10


def test_convergents_zero_denominator_flagged():
    # P_1(z) = z - c_1 vanishes at z = c_1
    spec = RecurrenceSpec(
        c=lambda n: 0.7, lam=lambda n: 0.3, a=lambda n: 5.0
    )
    got = convergents(spec, 0.7, 3)
    assert math.isnan(got[0].real)
    assert not math.isnan(got[1].real)


def test_convergents_overflow_is_typed():
    # a coefficient map that overflows ends the sweep with a typed error,
    # not with NaN convergents
    spec = RecurrenceSpec(
        c=lambda n: math.inf if n >= 3 else 0.5, lam=lambda n: 0.3,
        a=lambda n: 5.0)
    with pytest.raises(ConvergenceError, match="overflow"):
        convergents(spec, 0.7, 5)


def test_convergents_rescaling_survives_large_order():
    # coefficients of size ~3 push |P_n| past any fixed overflow point
    spec = cheb_spec(1.0, 4.0)
    got = convergents(spec, 9.0, 4000)
    want = 2.0 / ((3.0 + 1.0) * (3.0 + 2.0))
    assert got[-1] == pytest.approx(want, rel=1e-12)


def test_terminating_fraction_ri():
    as_ = [0.0, 0.9, -1.1, 0.25, 1.7, -0.6, 2.2, 0.4, -1.9, 3.0, 1.3]
    spec = RecurrenceSpec(
        c=lambda n: 0.3 + 0.1 * n,
        lam=lambda n: 0.8 - 0.05 * n,
        a=lambda n: as_[n],
    )
    k = 3
    z = as_[k]
    got = convergents(spec, z, 10)
    frozen = got[k - 2]  # list index of the (k-1)-th convergent
    for n in range(k - 1, 11):
        assert abs(got[n - 1] - frozen) <= 1e-12 * max(1.0, abs(frozen))


def test_terminating_fraction_rii():
    as_ = [0.0, 0.9, -1.1, 0.25, 1.7, -0.6, 2.2, 0.4, -1.9, 3.0, 1.3]
    bs = [0.0, 2.9, 3.1, 2.25, 3.7, 2.6, 4.2, 2.4, 3.9, 5.0, 3.3]
    spec = RecurrenceSpec(
        c=lambda n: 0.3 + 0.1 * n,
        lam=lambda n: 0.8 - 0.05 * n,
        a=lambda n: as_[n],
        b=lambda n: bs[n],
    )
    for k, pts in ((4, as_), (5, bs)):
        z = pts[k]
        got = convergents(spec, z, 10)
        frozen = got[k - 2]
        for n in range(k - 1, 11):
            assert abs(got[n - 1] - frozen) <= 1e-12 * max(1.0, abs(frozen))


def test_minimal_solution_backward_constant_family():
    # constant coefficients: the tail root is the minimal ratio itself, so
    # the first two sweeps agree and the first comparison (start 80) returns
    a, b = 1.0, 4.0
    spec = cheb_spec(a, b)
    z = 2.5
    est = minimal_solution_backward(spec, z, window=12)
    assert est.values[0] == 1.0
    assert est.start == 80
    sz = math.sqrt(z)
    minimal_ratio = (sz - 1.0) * (sz - 2.0) / 2.0
    dominant_ratio = (sz + 1.0) * (sz + 2.0) / 2.0
    for n in range(1, 13):
        assert est.values[n] / est.values[n - 1] == pytest.approx(
            minimal_ratio, rel=1e-13
        )
    assert est.rate == pytest.approx(abs(minimal_ratio / dominant_ratio),
                                     rel=1e-13)
    want_cf = 2.0 / ((sz + 1.0) * (sz + 2.0))
    assert est.ratio_at_0 == pytest.approx(want_cf, rel=1e-10)
    assert est.residual < 1e-12


def test_tail_root_does_not_overflow_or_cancel():
    # s^2 overflows long before s does; the small root is w / s to first
    # order and must not cancel to 0 (s = z - c_n at z = 0.5, c_n = -1e200)
    rho, rate = recurrence._tail_root(0.5 + 1e200 + 0.0j, 0.5 + 0.0j)
    assert rho == pytest.approx(0.5 / 1e200, rel=1e-15)
    assert rate == 0.0


def test_minimal_solution_backward_tie_on_the_support():
    # z = -0.5 lies on the support (-inf, 0] of the constant family: the
    # tail roots are complex conjugates up to rounding and no solution is
    # minimal
    spec = cheb_spec(1.0, 4.0)
    with pytest.raises(ConvergenceError, match="tie in modulus"):
        minimal_solution_backward(spec, -0.5, window=5)


def test_minimal_solution_backward_geometric_family():
    # dominant/minimal ratio ~ 1/z vs z; at |z| < sqrt(q) the minimal
    # solution ratio approaches z itself
    spec = geometric_ri_spec(0.5, 0.2, 0.3)
    z = 0.4
    est = minimal_solution_backward(spec, z, window=22)
    ratio = est.values[21] / est.values[20]
    assert ratio == pytest.approx(z, rel=1e-5, abs=1e-5)


def test_minimal_solution_backward_collision():
    spec = cheb_spec(1.0, 4.0)
    with pytest.raises(CollisionError):
        minimal_solution_backward(spec, 1.0, window=5)


def test_minimal_solution_backward_nonconvergence(monkeypatch):
    # on the boundary circle between the two solution growth rates the
    # backward sweep has no reason to stabilize
    spec = cheb_spec(1.0, 4.0)
    monkeypatch.setattr(recurrence, "_BACKWARD_TOL", 1e-13)
    with pytest.raises((ConvergenceError, CollisionError)):
        minimal_solution_backward(spec, -0.5, window=5, max_start=160)


def test_pincherle_residual():
    spec = cheb_spec(1.0, 4.0)
    z = 2.5
    est = minimal_solution_backward(spec, z, window=8)
    cf = convergents(spec, z, 80)[-1]
    assert pincherle_residual(spec, z, cf, est) < 1e-10
    assert pincherle_residual(spec, z, est.ratio_at_0, est) == 0.0


def test_pincherle_residual_geometric_family():
    # lambda_1 = 0 family: ratio_at_0 must still agree with the convergents
    spec = geometric_ri_spec(0.5, 0.2, 0.3)
    z = 0.4
    est = minimal_solution_backward(spec, z, window=8)
    cf = convergents(spec, z, 120)[-1]
    assert pincherle_residual(spec, z, cf, est) < 1e-9
