"""The seven explicit models: construction, closed minimal solutions, branches."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import rfrac.models.base as base
from rfrac.errors import (BranchBoundaryError, ConvergenceError, DomainError,
                          OutOfSpanError, PrecisionError)
from rfrac.favard import kappa_tails
from rfrac.models import (
    MODEL_NAMES,
    biorth,
    instantiate,
    minimal_closed_form,
)
from rfrac.qseries import QContext, multi_q_pochhammer, q_pochhammer
from rfrac.recurrence import (R_II, forward, minimal_solution_backward,
                              pincherle_residual)

# one interior parameter set per model, away from every degenerate corner
PARAMS = {
    "Pastro21": {"q": 0.5, "a": 0.3, "b": 0.4},
    "ChebyshevR2_31": {"a": 1.0, "b": 4.0},
    "Cauchy2F1_32": {"a": 1.5, "b": -0.5},
    "UnitCircle41": {"q": 0.5, "a": 0.3, "b": 0.2, "t1": 0.3, "t2": 0.3},
    "SinhLattice42": {"q": 0.5, "t1": 0.2, "t2": 0.3, "t3": 0.4, "t4": 0.1},
    "ChebyRational51": {"q": 0.5, "alpha": 0.3, "delta": 0.2},
    "Rahman52": {"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1},
}

# evaluation points off the support and off the branch boundaries; for the
# split-plane models the list covers both branches
POINTS = {
    "Pastro21": (0.2 + 0.1j, -0.25 + 0.2j, 1.5 + 0.5j, -2.0 + 1.0j),
    "ChebyshevR2_31": (9.0, 2.0 + 3.0j, -1.0 + 2.0j),
    "Cauchy2F1_32": (-0.5 + 0.3j, 0.2 - 0.6j, 0.8 + 0.5j, 1.2 - 0.4j),
    "UnitCircle41": (0.2 + 0.1j, 0.3 - 0.2j, 1.4 - 0.6j, 2.0 + 0.4j),
    "SinhLattice42": (1.1 + 0.7j, -0.8 + 0.5j, 2.3 - 0.9j),
    "ChebyRational51": (2.5 + 0.3j, -1.7 + 0.8j, 0.3 + 1.2j),
    "Rahman52": (2.5 + 0.3j, -1.7 + 0.8j, 0.3 + 1.2j),
}


def build(name):
    return instantiate(name, PARAMS[name])


def test_registry_order_and_unknown_name():
    assert MODEL_NAMES == (
        "Pastro21",
        "ChebyshevR2_31",
        "Cauchy2F1_32",
        "UnitCircle41",
        "SinhLattice42",
        "ChebyRational51",
        "Rahman52",
    )
    with pytest.raises(OutOfSpanError, match="Rahman52"):
        instantiate("NoSuchModel", {})


@pytest.mark.parametrize(
    "name,params,fragment",
    [
        ("Pastro21", {"q": 0.5, "a": 0.3, "b": 1.5}, "|b| < 1"),
        ("Pastro21", {"q": 0.5, "a": 2.5, "b": 0.3}, "|a q| < 1"),
        ("ChebyshevR2_31", {"a": -1.0, "b": 4.0}, "a > 0"),
        ("Cauchy2F1_32", {"a": 0.5, "b": 0.5}, "Re(a - b) > 0"),
        ("Cauchy2F1_32", {"a": 1.5, "b": 1.0}, "b != 1"),
        ("UnitCircle41",
         {"q": 0.5, "a": 0.3, "b": 0.2, "t1": 0.8, "t2": 0.3},
         "|t1| < sqrt(q)"),
        ("UnitCircle41",
         {"q": 0.5, "a": 1.2, "b": 0.2, "t1": 0.3, "t2": 0.3},
         "|a| < 1"),
        ("SinhLattice42",
         {"q": 0.5, "t1": 0.9, "t2": 0.9, "t3": 0.9, "t4": 0.9},
         "|t1 t2 t3 t4| < q^3"),
        ("ChebyRational51", {"q": 0.5, "alpha": 1.2, "delta": 0.2},
         "max(|alpha|, |delta|) < 1"),
        ("Rahman52", {"q": 0.5, "alpha": 0.2, "beta": 0.0, "delta": 0.1},
         "beta != 0"),
        ("Rahman52", {"q": 0.5, "alpha": 0.99, "beta": 0.99, "delta": 0.99},
         "|alpha beta^2 delta| < q"),
    ],
)
def test_domain_violations_name_the_condition(name, params, fragment):
    with pytest.raises(DomainError) as err:
        instantiate(name, params)
    assert fragment in str(err.value)


def test_pastro_first_coefficient():
    m = instantiate("Pastro21", {"q": 0.5, "a": 0.2, "b": 0.3})
    want = -math.sqrt(0.5) * (1 - 0.3) / (1 - 0.2 * 0.5)
    assert abs(m.spec.c(1) - want) < 1e-15


def test_chebyshev_constant_middle_coefficient():
    m = build("ChebyshevR2_31")
    for n in range(1, 7):
        assert abs(m.spec.c(n) - (-2.0)) < 1e-15


def test_cheby_rational_zero_parameter_corner():
    m = instantiate("ChebyRational51", {"q": 0.5, "alpha": 0.0, "delta": 0.0})
    fam = biorth(m)
    assert abs(fam.norm(0) - 1.0) < 1e-15
    # the members past the constant vanish identically: no digit is left
    x = np.linspace(-1.0, 1.0, 5)
    assert np.all(fam.left(0)(x) == 1.0)
    with pytest.raises(PrecisionError):
        fam.left(2)(x)
    # the coefficient maps divide by alpha*delta, so the ladder solution is
    # unavailable there and says so
    with pytest.raises(DomainError):
        m.minimal(1, 2.0 + 1.0j)


def test_pastro_pairing_guard_raises_at_biorth():
    # |a q| = 0.75 < 1 admits the model; the unit-circle pairing needs |a| < 1
    m = instantiate("Pastro21", {"q": 0.5, "a": 1.5, "b": 0.3})
    with pytest.raises(DomainError, match=r"\|a\| < 1"):
        biorth(m)


def test_pastro_kappa_tails_name_the_tie():
    # lambda_n -> 1/sqrt(2) > 1/4: the lambda tails tie in modulus, which
    # is a fact about the lambda fraction, not about a point z
    spec = build("Pastro21").spec
    with pytest.raises(ConvergenceError, match="tie") as err:
        kappa_tails(spec, 2)
    assert "z is on the support" not in str(err.value)


def test_rahman_minimal_needs_nonzero_endpoints():
    m = instantiate("Rahman52",
                    {"q": 0.5, "alpha": 0.0, "beta": 0.3, "delta": 0.1})
    with pytest.raises(DomainError):
        m.minimal(0, 2.0 + 1.0j)


def test_minimal_closed_form_chebyshev_point():
    m = build("ChebyshevR2_31")
    # at z = 9 the decaying solution is ((3-1)(3-2)/2)^n
    assert abs(minimal_closed_form(m, 3, 9.0) - 1.0) < 1e-12


def test_minimal_closed_form_pastro_origin():
    m = build("Pastro21")
    q, a, b = 0.5, 0.3, 0.4
    ctx = QContext(q)
    want = (multi_q_pochhammer(ctx, (a * q, b * q))
            / multi_q_pochhammer(ctx, (q, a * b * q)))
    got = minimal_closed_form(m, 0, 0.0)
    assert abs(got - want) < 1e-12 * abs(want)


def test_minimal_closed_form_rejects_negative_index():
    m = build("ChebyshevR2_31")
    with pytest.raises(DomainError):
        minimal_closed_form(m, -1, 9.0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_recurrence_defect_of_closed_solutions(name):
    m = build(name)
    spec = m.spec
    for z in POINTS[name]:
        xs = [minimal_closed_form(m, n, z) for n in range(21)]
        for n in range(2, 21):
            w = spec.lam(n) * (z - spec.a(n))
            if spec.kind == R_II:
                w = w * (z - spec.b(n))
            rhs = (z - spec.c(n)) * xs[n - 1] - w * xs[n - 2]
            scale = max(abs(xs[n]), abs(xs[n - 1]), abs(xs[n - 2]), 1e-280)
            assert abs(xs[n] - rhs) / scale < 1e-10, (name, n, z)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_backward_estimate_agrees_with_closed_branch(name):
    m = build(name)
    for z in POINTS[name]:
        est = minimal_solution_backward(m.spec, z, window=6)
        cf = m.cf_value(z)
        assert abs(est.ratio_at_0 - cf) < 1e-8 * abs(cf), (name, z)


# points NEAR_DIST from the support or the branch line at the PARAMS above:
# the circle |z| = sqrt(q), the half-line (-inf, 0], the line Re z = 1/2,
# the segment [-1, 1], and for SinhLattice42 its first grid points
NEAR_DIST = 1e-2


def _near_points(name):
    d = NEAR_DIST
    if name in ("Pastro21", "UnitCircle41"):
        r = math.sqrt(PARAMS[name]["q"])
        return [(r + s * d) * cmath.exp(1j * t)
                for s in (1, -1) for t in (0.0, 2.0, -2.9)]
    if name == "ChebyshevR2_31":
        return [complex(x, s * d) for x in (-0.3, -2.7) for s in (1, -1)]
    if name == "Cauchy2F1_32":
        return [complex(0.5 + s * d, y) for s in (1, -1) for y in (0.1, -0.4)]
    if name == "SinhLattice42":
        grid = build(name).measure.points[:3]
        return [complex(p[0]) + d * cmath.exp(0.4j) for p in grid]
    return [complex(x, s * d) for x in (-0.6, 0.8) for s in (1, -1)]


NEAR = [pytest.param(name, z, id=f"{name}-{k}") for name in MODEL_NAMES
        for k, z in enumerate(_near_points(name))]
# Cauchy2F1_32 is limit-parabolic (lambda_n -> 1/4): the tail roots meet as
# n grows, and higher on the line the sweep does not settle by start 1280
NEAR += [pytest.param("Cauchy2F1_32", complex(0.5 + s * NEAR_DIST, 1.0),
                      id=f"Cauchy2F1_32-high-{k}",
                      marks=pytest.mark.xfail(
                          strict=True, raises=ConvergenceError,
                          reason="ROADMAP item 11: Cauchy2F1_32's near band"))
         for k, s in enumerate((1, -1))]


@pytest.mark.parametrize("name,z", NEAR)
def test_backward_sweep_settles_near_the_support(name, z):
    # near the support the contraction rate is close to 1; seeded with the
    # tail root the sweep still settles by start 1280, before lambda_n
    # underflows, and it lands on the closed branch
    m = build(name)
    est = minimal_solution_backward(m.spec, z, window=10)
    cf = m.cf_value(z)
    assert abs(est.ratio_at_0 - cf) <= 1e-10 * abs(cf)
    xs = [m.minimal(n, z) for n in range(11)]
    for got, x in zip(est.values, xs):
        want = x / xs[0]
        assert abs(got - want) <= 1e-10 * abs(want)
    # a grid point of SinhLattice42 is an isolated mass, not a band: its
    # rate stays as small as far from the grid
    assert 0.0 < est.rate < 1.0
    if name != "SinhLattice42":
        assert est.rate > 0.9


def test_backward_sweep_coefficient_overflow_is_typed():
    # at small q SinhLattice42's maps leave the float range past level
    # ~1000 in plain Python arithmetic: partial_numerator(1281) raises a
    # builtin OverflowError, and c(1281) a ZeroDivisionError
    m = instantiate("SinhLattice42",
                    {"q": 0.4, "t1": 0.2, "t2": 0.3, "t3": 0.4, "t4": 0.1})
    with pytest.raises(ConvergenceError, match="coefficient overflow"):
        minimal_solution_backward(m.spec, 0.3 + 0.2j, window=10, start=1280,
                                  max_start=2560)


def test_sinh_lattice_pincherle_residual():
    m = build("SinhLattice42")
    z = 1.1 + 0.7j
    est = minimal_solution_backward(m.spec, z, window=6)
    assert pincherle_residual(m.spec, z, m.cf_value(z), est) < 1e-8


@pytest.mark.parametrize(
    "name,z",
    [
        ("Pastro21", cmath.sqrt(0.5)),
        ("Pastro21", cmath.sqrt(0.5) * cmath.exp(0.7j)),
        ("UnitCircle41", cmath.sqrt(0.5) * cmath.exp(-1.3j)),
        ("Cauchy2F1_32", 0.5 + 0.3j),
        ("ChebyshevR2_31", -2.0),
    ],
)
def test_branch_boundary_is_rejected(name, z):
    m = build(name)
    with pytest.raises(BranchBoundaryError):
        minimal_closed_form(m, 0, z)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_family_norms_nonzero_and_same_on_model_copy(name):
    m = build(name)
    fam = biorth(m)
    # the copy a tracer makes when it rebinds a model's closures
    copied = biorth(dataclasses.replace(m, minimal=m.minimal))
    for n in range(7):
        assert fam.norm(n) != 0
        assert copied.norm(n) == fam.norm(n)


# the models that publish a closed numerator polynomial as extras["poly"],
# with the degree the check runs to: the series models' polynomials are
# summed in double-double and hold to degree 8
POLY_TOP = {"Pastro21": 3, "ChebyshevR2_31": 3, "Cauchy2F1_32": 3,
            "UnitCircle41": 8, "SinhLattice42": 8}


@pytest.mark.parametrize("name", POLY_TOP)
def test_closed_polynomial_matches_forward(name):
    top = POLY_TOP[name]
    m = build(name)
    poly = m.extras["poly"]
    for z in POINTS[name]:
        P, _ = forward(m.spec, z, top)
        for n in range(top + 1):
            want = P[n]
            assert abs(poly(n, z) - want) < 1e-10 * abs(want), (n, z)


def test_sinh_lattice_closure_ratio():
    # P_n(z) / prod_{j=1..n} (z - b_{j+1}) is closure_ratio(n) times the
    # grid member, to degree 8
    m = build("SinhLattice42")
    fam = biorth(m)
    for z in POINTS["SinhLattice42"]:
        P, _ = forward(m.spec, z, 8)
        head = 1.0
        for n in range(1, 9):
            head *= z - m.spec.b(n + 1)
            want = m.extras["closure_ratio"](n) * fam.left(n)(z)
            assert abs(P[n] / head - want) < 1e-10 * abs(want), (n, z)


@pytest.mark.parametrize("c,k", [(1.0, 1), (0.3 - 0.2j, -2), (0.3 - 0.2j, -1),
                                 (0.3 - 0.2j, 2)])
def test_q_product_weight_telescopes(c, k):
    # (c x^k; q)_inf / (q c x^k; q)_inf = 1 - c x^k, on nodes and a scalar
    q = 0.6
    w = base.q_product_weight(QContext(q), 2.0, num=((c, k),),
                              den=((q * c, k),))
    nodes = 0.9 * np.exp(1j * np.linspace(-3.0, 3.0, 33))
    for x in (nodes, complex(nodes[5])):
        want = 2.0 * (1.0 - c * x ** k)
        assert np.all(np.abs(w(x) - want) <= 1e-13 * np.abs(want))
    assert isinstance(w(complex(nodes[5])), complex)


def test_q_product_weight_calls_the_product_per_factor(monkeypatch):
    # one call per factor, found at call time, so a rebound q_pochhammer
    # (a tracer's, say) sees every product the weight takes
    w = base.q_product_weight(QContext(0.5), 1.0, num=((0.2, 1), (0.3, -2)),
                              den=((0.1, -1),))
    calls = []

    def counting(ctx, a, n=math.inf):
        calls.append(a)
        return q_pochhammer(ctx, a, n)

    monkeypatch.setattr(base, "q_pochhammer", counting)
    w(np.exp(1j * np.linspace(0.0, 1.0, 5)))
    assert len(calls) == 3


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_closed_forms_at_interpolation_points(name):
    # at a_k and b_k a factor of the closed minimal solution's denominator
    # can vanish exactly; the closed forms then raise an rfrac.errors type,
    # never a builtin exception
    model = build(name)
    for k in range(2, 12):
        for z in model.spec.interpolation_points(k - 1):
            calls = [lambda: model.cf_value(z)] + [
                lambda n=n: minimal_closed_form(model, n, z) for n in range(3)]
            for call in calls:
                try:
                    value = complex(call())
                except Exception as exc:
                    assert type(exc).__module__ == "rfrac.errors", (k, z, exc)
                else:
                    assert cmath.isfinite(value), (k, z)
