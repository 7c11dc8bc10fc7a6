"""Biorthogonal families against quadrature, and the closed integral identities."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from rfrac.errors import BranchBoundaryError, DomainError
from rfrac.favard import build_RI, build_RII, functional_apply, kappa_tails
from rfrac.measures import (
    integrate,
    normalization,
    stieltjes,
    weighted_gram,
)
from rfrac.measures import _rule as quadrature_rule
from rfrac.models import (
    MODEL_NAMES,
    biorth,
    elementary_mass,
    herglotz_511,
    instantiate,
    qbeta_519,
    transform_241,
)
from rfrac.models.rahman import qbeta_gamma
from rfrac.qseries import QContext, q_pochhammer
from rfrac.recurrence import R_I
from oracles import (
    connection_weights,
    partial_fractions,
    rational_balanced_sum,
    trig_weight_measure,
)
from test_favard import poly_desc

PARAMS = {
    "Pastro21": {"q": 0.5, "a": 0.3, "b": 0.4},
    "ChebyshevR2_31": {"a": 1.0, "b": 4.0},
    "Cauchy2F1_32": {"a": 1.5, "b": -0.5},
    "UnitCircle41": {"q": 0.5, "a": 0.3, "b": 0.2, "t1": 0.3, "t2": 0.3},
    "SinhLattice42": {"q": 0.5, "t1": 0.2, "t2": 0.3, "t3": 0.4, "t4": 0.1},
    "ChebyRational51": {"q": 0.5, "alpha": 0.3, "delta": 0.2},
    "Rahman52": {"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1},
}

# Gram cases: the tier-1 parameter set of every model, and a generic
# Rahman52 set with q alpha != delta, whose two sides have distinct poles
GRAM_CASES = {name: (name, PARAMS[name]) for name in MODEL_NAMES}
GRAM_CASES["Rahman52_generic"] = (
    "Rahman52", {"q": 0.6, "alpha": 0.3, "beta": 0.4, "delta": 0.2})

# (diagonal, off-diagonal), both relative as the gram benchmark scores
# them: |G_ii - h_i| <= d |h_i| and |G_ij| <= o sqrt|h_i h_j|
GRAM_TOL = {
    "Pastro21": (1e-8, 1e-8),
    "ChebyshevR2_31": (1e-8, 1e-8),
    "Cauchy2F1_32": (1e-11, 1e-11),
    "UnitCircle41": (1e-12, 1e-12),
    "SinhLattice42": (1e-12, 1e-12),
    "ChebyRational51": (1e-12, 1e-12),
    "Rahman52": (1e-12, 1e-12),
}


@pytest.mark.parametrize("case", GRAM_CASES)
def test_gram_matches_closed_norms(case):
    name, params = GRAM_CASES[case]
    fam = biorth(instantiate(name, params))
    N = 8
    G = weighted_gram(fam.pairing, fam.left, fam.right, N)
    h = [fam.norm(i) for i in range(N)]
    dtol, otol = GRAM_TOL[name]
    for i in range(N):
        for j in range(N):
            if i == j:
                assert abs(G[i][i] - h[i]) < dtol * abs(h[i]), (case, i)
            else:
                bound = otol * abs(h[i] * h[j]) ** 0.5
                assert abs(G[i][j]) < bound, (case, i, j)


def test_line_gram_settles_by_512_nodes():
    # the double-exponential line rule settles Cauchy2F1_32's order-8 Gram
    # at its centre parameters by 512 nodes; the sqrt(n)-window trapezoid
    # it replaced climbed to 2048
    fam = biorth(instantiate("Cauchy2F1_32", PARAMS["Cauchy2F1_32"]))
    sizes = []

    def counted(member):
        def at(i):
            f = member(i)

            def g(t):
                sizes.append(np.size(t))
                return f(t)
            return g
        return at

    weighted_gram(fam.pairing, counted(fam.left), counted(fam.right), 8)
    assert max(sizes) <= 512, sorted(set(sizes))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_functional_values_match_quadrature(name):
    # the moment functional recovered from the coefficient maps alone must
    # reproduce the measure's integrals once the two normalizations are
    # matched through the total mass
    model = instantiate(name, PARAMS[name])
    spec = model.spec
    mass = normalization(model.measure)
    if spec.kind == R_I:
        fn = build_RI(spec)   # lambda_1 = 0 here, so L[1] = 1
        scale = 1.0 / mass
        tag = "power_times_R"
    else:
        k1 = kappa_tails(spec, 1)[0]
        fn = build_RII(spec, k1, k1 - 1.0)
        scale = k1 / mass
        tag = "power_times_S"
    for n in range(7):
        coeffs = poly_desc(spec, n)
        apts = [spec.a(j) for j in range(2, n + 2)]
        bpts = ([spec.b(j) for j in range(2, n + 2)]
                if tag == "power_times_S" else [])

        def rational(t, coeffs=coeffs, apts=apts, bpts=bpts):
            t = np.asarray(t, dtype=complex)
            num = np.polyval(coeffs, t)
            den = np.ones_like(t)
            for a in apts:
                den = den * (t - a)
            for b in bpts:
                den = den * (t - b)
            return num / den

        for k in range(n + 1):
            quad = integrate(model.measure,
                             lambda t, k=k: t ** k * rational(t)) * scale
            want = functional_apply(fn, (tag, k, n))
            assert abs(quad - want) < 1e-8, (name, n, k)


def prefix_rows(t, points):
    """Rows 1 / prod_{i < j} (t - points[i]) for j = 0..len(points)."""
    rows = [np.ones_like(t)]
    for p in points:
        rows.append(rows[-1] / (t - p))
    return np.array(rows)


@pytest.mark.parametrize(
    "name", ["UnitCircle41", "SinhLattice42", "ChebyRational51", "Rahman52"])
def test_inverse_prefix_table_matches_quadrature(name):
    # every L[prod_{i=2}^{j+1} (x-a_i)^{-1} prod_{i=2}^{k+1} (x-b_i)^{-1}],
    # j, k <= 12, against the measure; the error of entry f is
    # |L[f] - L[1] I_f / I_1| / (|L[1]| J_f / |I_1|), where I is the
    # integral against dα and J the integral of |f| against |dα|
    depth = 12
    model = instantiate(name, PARAMS[name])
    spec, m = model.spec, model.measure
    k1 = kappa_tails(spec, 1)[0]
    fn = build_RII(spec, k1, k1 - 1.0)
    apts = [complex(spec.a(i)) for i in range(2, depth + 2)]
    bpts = [complex(spec.b(i)) for i in range(2, depth + 2)]

    def member(points):
        return lambda j: lambda t: prefix_rows(np.asarray(t), points[:j])[-1]

    I = weighted_gram(m, member(apts), member(bpts), depth + 1)
    # J is a scale, not a value: one fine node set of the same engine
    if m.variant == "discrete":
        t, w = (np.array(col, dtype=complex) for col in zip(*m.points))
    else:
        t, w = quadrature_rule(m)(4096)
    J = (np.abs(prefix_rows(t, apts)) * np.abs(w)) @ np.abs(
        prefix_rows(t, bpts)).T
    n0 = functional_apply(fn, ("inverse_prefix", 0, 0))
    for j in range(depth + 1):
        for k in range(depth + 1):
            got = functional_apply(fn, ("inverse_prefix", j, k))
            err = abs(got - n0 * I[j, k] / I[0, 0]) / (
                abs(n0) * J[j, k] / abs(I[0, 0]))
            assert err < 1e-8, (name, j, k, err)


# points on both sides of the branch circle |z| = sqrt(q) for the circle
# models, and off the segment [-1, 1] for Rahman52
TRANSFORM_POINTS = {
    "Pastro21": (0.2 + 0.1j, -0.25 + 0.2j, 1.5 + 0.5j, -2.0 + 1.0j),
    "UnitCircle41": (0.2 + 0.1j, 0.3 - 0.2j, 1.4 - 0.6j, 2.0 + 0.4j),
    "Rahman52": (2.5 + 0.3j, -1.7 + 0.8j, 0.3 + 1.2j),
}


@pytest.mark.parametrize("name", ["Pastro21", "UnitCircle41"])
def test_circle_measure_transform_is_the_fraction(name):
    # pins the measure's absolute constant, which the functional test above
    # divides out through the mass
    model = instantiate(name, PARAMS[name])
    for z in TRANSFORM_POINTS[name]:
        cf = model.cf_value(z)
        assert abs(stieltjes(model.measure, z) - cf) < 1e-10 * abs(cf), z


def test_rahman_measure_and_pairing_constants():
    model = instantiate("Rahman52", PARAMS["Rahman52"])
    for z in TRANSFORM_POINTS["Rahman52"]:
        want = model.extras["transform"](z)
        assert abs(stieltjes(model.measure, z) - want) < 1e-10 * abs(want), z
    want = model.extras["pairing_mass"]
    mass = normalization(biorth(model).pairing)
    assert abs(mass - want) < 1e-10 * abs(want)


def test_cheby_rational_transform_constant():
    model = instantiate("ChebyRational51", PARAMS["ChebyRational51"])
    scale = model.extras["transform_scale"]
    for z in (2.5 + 0.3j, -1.7 + 0.8j, 0.3 + 1.2j):
        want = model.extras["transform"](z)
        got = scale * stieltjes(model.measure, z)
        assert abs(got - want) < 1e-12 * abs(want), z


@pytest.mark.parametrize("name,rtol", [("ChebyRational51", 1e-12),
                                       ("Cauchy2F1_32", 1e-9)])
def test_measure_mass_closed_form(name, rtol):
    model = instantiate(name, PARAMS[name])
    want = model.extras["mass"]
    assert abs(normalization(model.measure) - want) < rtol * abs(want)


def test_elementary_mass_closed_form():
    lhs, rhs = elementary_mass({"q": 0.5, "alpha": 0.5, "delta": 0.25})
    assert abs(rhs - 1.0 / (1.0 - 0.125)) < 1e-15
    assert abs(lhs - rhs) < 1e-10


def test_herglotz_interior_point():
    lhs, rhs = herglotz_511({"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1})
    assert abs(lhs - rhs) < 1e-9


def test_herglotz_zero_endpoint_corner():
    lhs, rhs = herglotz_511({"q": 0.5, "alpha": 0.0, "beta": 0.3, "delta": 0.0})
    assert abs(rhs - 1.0 / 0.7) < 1e-14
    assert abs(lhs - rhs) < 1e-9


def test_herglotz_base_beta_reduces_to_elementary():
    # at beta = q the series side collapses to its first term
    q, al, de = 0.5, 0.3, 0.2
    lhs, rhs = herglotz_511({"q": q, "alpha": al, "beta": q, "delta": de})
    assert abs(rhs - (1.0 - al * de * q) / (1.0 - q)) < 1e-14
    assert abs(lhs - rhs) < 1e-9


def test_herglotz_domain_guard():
    with pytest.raises(DomainError):
        herglotz_511({"q": 0.5, "alpha": 0.9, "beta": 0.95, "delta": 0.9})


def test_qbeta_interior_point():
    lhs, rhs = qbeta_519({"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1})
    assert abs(rhs - 1.0 / (1.0 - 0.2 * 0.2 * 0.3)) < 1e-14
    assert abs(lhs - rhs) < 1e-9


def test_qbeta_alpha_zero():
    lhs, rhs = qbeta_519({"q": 0.5, "alpha": 0.0, "beta": 0.3, "delta": 0.1})
    assert rhs == 1.0
    assert abs(lhs - rhs) < 1e-9


def test_qbeta_gamma_extension_collapses():
    params = {"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1}
    lhs, rhs = qbeta_gamma(dict(params, gamma=0.5 * 0.3))
    assert abs(rhs - 1.0 / (1.0 - 0.2 * 0.2 * 0.3)) < 1e-12
    assert abs(lhs - rhs) < 1e-9


def test_qbeta_gamma_generic_point():
    params = {"q": 0.5, "alpha": 0.2, "beta": 0.3, "delta": 0.1, "gamma": 0.4}
    lhs, rhs = qbeta_gamma(params)
    assert abs(lhs - rhs) < 1e-9


def test_transform_qbeta_corner():
    lhs, rhs = transform_241({"q": 0.5, "a": 0.2, "b": 0.3}, 0, 0, 0.0)
    assert abs(lhs - rhs) < 1e-9
    # k < n at and near the origin: the closed side is z^k times a series,
    # never z^(k-n) times a solution that carries z^n
    for n, k, z in [(2, 1, 0.0), (2, 1, 1e-80), (6, 2, 1e-80)]:
        lhs, rhs = transform_241({"q": 0.5, "a": 0.2, "b": 0.3}, n, k, z)
        assert abs(lhs - rhs) < 1e-12, (n, k, z)


@pytest.mark.parametrize("z", [0.3, 3.0])
def test_transform_both_branches(z):
    lhs, rhs = transform_241({"q": 0.5, "a": 0.2, "b": 0.3}, 2, 1, z)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("n,k", [(0, 0), (3, 1), (4, 4), (6, 2)])
def test_transform_closed_side_matches_quadrature(n, k):
    for z in TRANSFORM_POINTS["Pastro21"]:
        lhs, rhs = transform_241(PARAMS["Pastro21"], n, k, z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs), z


def test_transform_branch_boundary():
    with pytest.raises(BranchBoundaryError):
        transform_241({"q": 0.5, "a": 0.2, "b": 0.3}, 2, 1, cmath.sqrt(0.5))


def test_transform_rejects_bad_indices():
    with pytest.raises(DomainError):
        transform_241({"q": 0.5, "a": 0.2, "b": 0.3}, 1, 2, 0.3)


def test_circle_weight_swap_symmetry():
    m1 = instantiate("UnitCircle41",
                     {"q": 0.5, "a": 0.3, "b": 0.2, "t1": 0.3, "t2": 0.25})
    m2 = instantiate("UnitCircle41",
                     {"q": 0.5, "a": 0.2, "b": 0.3, "t1": 0.25, "t2": 0.3})
    w1 = m1.extras["base_weight"]
    w2 = m2.extras["base_weight"]
    for th in (0.3, 1.1, 2.0, 2.9, -0.7):
        t = cmath.exp(1j * th)
        assert abs(w1(t) - w2(1.0 / t)) < 1e-12 * abs(w1(t))


def test_unit_circle_second_family_is_swapped_first():
    m1 = instantiate("UnitCircle41", PARAMS["UnitCircle41"])
    swapped = {"q": 0.5, "a": 0.2, "b": 0.3, "t1": 0.3, "t2": 0.3}
    m2 = instantiate("UnitCircle41", swapped)
    fam1 = biorth(m1)
    fam2 = biorth(m2)
    for n in range(4):
        for th in (0.4, 1.7, -2.1):
            t = cmath.exp(1j * th)
            a = fam1.right(n)(t)
            b = fam2.left(n)(1.0 / t)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_pastro_second_family_base_case():
    fam = biorth(instantiate("Pastro21", PARAMS["Pastro21"]))
    for z in (0.2 + 0.1j, 1.5, -0.4 + 0.8j):
        assert abs(fam.right(0)(z) - 1.0) < 1e-15


def test_trig_weight_normalization():
    m = trig_weight_measure(0.5, 0.3, -0.2, 0.25, 0.1)
    assert abs(normalization(m) - 1.0) < 1e-10


def test_sinh_grid_expansion_matches_fraction():
    model = instantiate("SinhLattice42", PARAMS["SinhLattice42"])
    for z in (1.1 + 0.7j, -0.8 + 0.5j, 2.3 - 0.9j):
        cf = model.cf_value(z)
        assert abs(stieltjes(model.measure, z) - cf) < 1e-12 * abs(cf)


def test_rahman_connection_weights():
    ctx = QContext(0.5)
    al, be, de = 0.2, 0.3, 0.1
    p = al * be * be * de
    for n in (2, 5):
        bw = connection_weights(ctx, al, be, de, n)
        for j in range(n + 1):
            want = ((1.0 - al * al * be * 0.5 ** (2 * j))
                    * q_pochhammer(ctx, p * 0.5 ** (n - 1), j)
                    / ((1.0 - al * al * be) * q_pochhammer(ctx, al * de, j)))
            assert abs(bw[j] - want) < 1e-14


def test_rahman_weighted_sum_matches_series_form():
    ctx = QContext(0.5)
    al, be, de = 0.2, 0.3, 0.1
    fam = biorth(instantiate("Rahman52", {"q": 0.5, "alpha": al, "beta": be,
                                          "delta": de}))
    for n in range(6):
        for x in (0.3, -0.45, 0.7):
            a = fam.left(n)(x)
            b = rational_balanced_sum(ctx, al, be, de, n, x)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


# --- exact-arithmetic oracle for the ladder series identities ---
#
# Both finite sums are rational functions of (q, alpha, delta, x) once each
# conjugate factor pair is folded into 1 - 2 alpha q^j x + alpha^2 q^{2j},
# so Fraction arithmetic decides their equality with no tolerance at all.


def _exact_qpoch(a, q, k):
    out = Fraction(1)
    cur = a
    for _ in range(k):
        out *= 1 - cur
        cur *= q
    return out


def _exact_pole(al, q, x, k):
    return 1 - 2 * al * q ** k * x + al * al * q ** (2 * k)


def _exact_series(q, al, de, n, x):
    total = Fraction(0)
    head = _exact_pole(al, q, x, 0)
    for k in range(n + 1):
        coef = (_exact_qpoch(Fraction(q) ** -n, q, k)
                * _exact_qpoch(al * de * q ** n, q, k) * q ** k
                / (_exact_qpoch(q, q, k) * _exact_qpoch(al * de, q, k)))
        total += coef * head / _exact_pole(al, q, x, k)
    return total


def _exact_pole_sum(q, al, de, n, x):
    total = Fraction(0)
    binom = Fraction(1)
    shift = Fraction(1)
    sign = Fraction(1)
    for k in range(n + 1):
        total += binom * shift * sign / _exact_pole(al, q, x, k)
        binom *= (1 - q ** (n - k)) / (1 - q ** (k + 1))
        shift *= (1 - al * de * q ** (n + k)) / (1 - al * de * q ** k)
        sign *= -(q ** (k + 1 - n))
    return total


EXACT_Q = Fraction(1, 2)
EXACT_AL = Fraction(3, 10)
EXACT_DE = Fraction(1, 5)
EXACT_XS = (Fraction(7, 16), Fraction(-3, 8), Fraction(1, 2))


def test_series_equals_pole_sum_exactly():
    for x in EXACT_XS:
        for n in range(7):
            lhs = _exact_series(EXACT_Q, EXACT_AL, EXACT_DE, n, x)
            rhs = (_exact_pole_sum(EXACT_Q, EXACT_AL, EXACT_DE, n, x)
                   * _exact_pole(EXACT_AL, EXACT_Q, x, 0))
            assert lhs == rhs, (n, x)


def test_module_doubles_track_exact_values():
    # the alternating q^{-n} coefficients cost ~1e3 of cancellation at
    # n = 6: the double-double member keeps every digit, the pole sum in
    # double loses three
    ctx = QContext(0.5)
    # the right member of ChebyRational51 is the ladder series in (alpha, delta)
    fam = biorth(instantiate("ChebyRational51",
                             {"q": 0.5, "alpha": 0.3, "delta": 0.2}))
    for x in EXACT_XS:
        xd = float(x)
        head = 1.0 - 2.0 * 0.3 * xd + 0.09
        for n in range(7):
            exact = float(_exact_series(EXACT_Q, EXACT_AL, EXACT_DE, n, x))
            g = fam.right(n)(xd)
            p = partial_fractions(ctx, 0.3, 0.2, n, xd) * head
            assert abs(g - exact) < 1e-15
            assert abs(p - exact) < 5e-10
