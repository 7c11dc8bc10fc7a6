import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfrac.errors import ConvergenceError, DomainError, OutOfSpanError
from rfrac.favard import build_RI, build_RII, functional_apply, kappa_tails
from rfrac.recurrence import R_I, R_II, RecurrenceSpec


def cheb_like_spec(a=1.0, b=4.0):
    root = np.sqrt(a * b)
    return RecurrenceSpec(
        c=lambda n: -root,
        lam=lambda n: 0.25,
        a=lambda n: a,
        b=lambda n: b,
    )


def cauchy_like_spec(a, b):
    return RecurrenceSpec(
        c=lambda n: (n + a - 1) / (2 * n + a - 1 - b),
        lam=lambda n: (n - 1) * (n + a - 1 - b)
        / ((2 * n + a - 1 - b) * (2 * n + a - 3 - b)),
        a=lambda n: 0.0,
        b=lambda n: 1.0,
    )


def geometric_ri_spec(q=0.5, a=0.3, b=0.4):
    # lambda_1 = 0; the associated functional picks the unit normalization
    rq = np.sqrt(q)
    return RecurrenceSpec(
        c=lambda n: -rq * (1 - b * q ** (n - 1)) / (1 - a * q**n),
        lam=lambda n: rq * (1 - q ** (n - 1)) * (1 - a * b * q ** (n - 1))
        / ((1 - a * q**n) * (1 - a * q ** (n - 1))),
        a=lambda n: 0.0,
    )


def synthetic_ri_spec():
    # nonzero lambda_1 and pairwise distinct interpolation points
    return RecurrenceSpec(
        c=lambda n: 0.3 + 0.1 * n,
        lam=lambda n: 0.2 + 1.0 / (n + 2),
        a=lambda n: n / 3.0 - 0.8,
    )


def synthetic_rii_spec():
    return RecurrenceSpec(
        c=lambda n: 0.1 * n - 0.3,
        lam=lambda n: 0.15 + 1.0 / (n + 3),
        a=lambda n: 1.5 + n / 4.0,
        b=lambda n: -2.0 - n / 5.0,
    )


def poly_desc(spec, n):
    """Denominator polynomial coefficients, descending, via numpy only."""
    prev2 = np.array([0.0 + 0.0j])
    prev = np.array([1.0 + 0.0j])
    for m in range(1, n + 1):
        term = np.polymul([1.0, -spec.c(m)], prev)
        sub = np.polymul([1.0, -spec.a(m)], prev2)
        if spec.kind == R_II:
            sub = np.polymul([1.0, -spec.b(m)], sub)
        cur = np.polyadd(term, -spec.lam(m) * sub)
        prev2, prev = prev, cur
    return prev


# -- normalization and span boundaries ------------------------------------


def test_build_ri_normalization_and_first_values():
    fn = build_RI(synthetic_ri_spec())
    spec = fn.spec
    lam1 = spec.lam(1)
    assert functional_apply(fn, ("power", 0)) == lam1
    got = functional_apply(fn, ("power", 1))
    assert got == pytest.approx((spec.c(1) + spec.lam(2)) * lam1, rel=1e-14)
    inv = functional_apply(fn, ("inverse_prefix", 1))
    assert inv == pytest.approx(-lam1 / (spec.a(2) - spec.c(1)), rel=1e-14)


def test_build_ri_zero_lambda1_picks_unit_mass():
    fn = build_RI(geometric_ri_spec())
    assert functional_apply(fn, ("power_times_R", 0, 0)) == 1.0
    spec = fn.spec
    got = functional_apply(fn, ("power", 1))
    assert got == pytest.approx(spec.c(1) + spec.lam(2), rel=1e-14)


def test_norm_products_are_running_products():
    fn = build_RI(synthetic_ri_spec())
    spec = fn.spec
    for n in range(1, 9):
        assert fn.norm(n) == fn.norm(n - 1) * spec.lam(n + 1)
        assert functional_apply(fn, ("power_times_R", n, n)) == fn.norm(n)
        for k in range(n):
            assert functional_apply(fn, ("power_times_R", k, n)) == 0.0


def test_rii_norm_recurrence_defect_is_zero():
    fn = build_RII(cheb_like_spec(), N0=2.0, N1=1.0)
    for n in range(2, 13):
        defect = fn.norm(n) - fn.norm(n - 1) + fn.spec.lam(n) * fn.norm(n - 2)
        assert defect == 0.0
    # constant-quarter family collapses to N_n = 2^(1-n)
    for n in range(13):
        assert fn.norm(n) == pytest.approx(2.0 ** (1 - n), rel=1e-13)


def test_out_of_span_requests():
    ri = build_RI(synthetic_ri_spec())
    rii = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    with pytest.raises(OutOfSpanError):
        functional_apply(ri, ("power_times_R", 3, 2))
    with pytest.raises(OutOfSpanError):
        functional_apply(rii, ("power_times_S", 5, 1))
    with pytest.raises(OutOfSpanError):
        functional_apply(rii, ("power", 1))
    with pytest.raises(OutOfSpanError):
        functional_apply(ri, ("power_times_S", 1, 1))
    with pytest.raises(OutOfSpanError):
        functional_apply(ri, ("inverse_prefix", 1, 1))
    with pytest.raises(OutOfSpanError):
        functional_apply(rii, ("inverse_prefix", 2))
    with pytest.raises(OutOfSpanError):
        functional_apply(ri, ("mystery", 1))
    # malformed descriptors: non-int indices and wrong arity
    for fn, bad in ((ri, ("power", 1.0)), (ri, ("inverse_prefix", 2.5)),
                    (ri, ("power",)), (ri, ("power_times_R", 1.5, 2)),
                    (ri, ("power", True)), (ri, ("power", 1, 2)), (ri, ()),
                    (rii, ("inverse_prefix", 1, 1.0)),
                    (rii, ("power_times_S", 2))):
        with pytest.raises(OutOfSpanError):
            functional_apply(fn, bad)
    # a float index is refused even where the int one is cached
    assert functional_apply(ri, ("power", 1)) != 0.0
    with pytest.raises(OutOfSpanError):
        functional_apply(ri, ("power", 1.0))


def test_build_kind_mismatch_and_degenerate_points():
    with pytest.raises(DomainError):
        build_RI(synthetic_rii_spec())
    with pytest.raises(DomainError):
        build_RII(synthetic_ri_spec(), N0=1.0, N1=0.5)
    bad = RecurrenceSpec(
        c=lambda n: 1.0,
        lam=lambda n: 0.3,
        a=lambda n: 1.0,   # a_2 = c_1
        b=lambda n: 2.0,
    )
    with pytest.raises(DomainError):
        build_RII(bad, N0=1.0, N1=0.5)


def test_singular_rule_and_node_on_pole_raise():
    # lambda_n = 1 gives lead(P_2) = 1 - lambda_2 = 0, so K_2 is singular
    flat = RecurrenceSpec(
        c=lambda n: 0.5,
        lam=lambda n: 1.0,
        a=lambda n: 2.0 + n,
        b=lambda n: -1.0 - n,
    )
    fn = build_RII(flat, N0=1.0, N1=0.5)
    with pytest.raises(OutOfSpanError, match="singular"):
        functional_apply(fn, ("inverse_prefix", 1, 0))
    # a_2 = c_1 makes a_2 a zero of every P_n, so a node sits on the pole
    hit = RecurrenceSpec(
        c=lambda n: 0.25 * n,
        lam=lambda n: 0.3,
        a=lambda n: 0.25 if n == 2 else 1.0 + n,
    )
    fn = build_RI(hit)
    for depth in (1, 3):
        with pytest.raises(OutOfSpanError, match="pole"):
            functional_apply(fn, ("inverse_prefix", depth))


# -- first rational moments of the two-point kind --------------------------


def test_rii_first_moments_match_closed_forms():
    fn = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    spec = fn.spec
    c1, a2, b2 = spec.c(1), spec.a(2), spec.b(2)
    assert functional_apply(fn, ("inverse_prefix", 1, 0)) == pytest.approx(
        (0.4 - 1.0) / (a2 - c1), rel=1e-13)
    assert functional_apply(fn, ("inverse_prefix", 0, 1)) == pytest.approx(
        (0.4 - 1.0) / (b2 - c1), rel=1e-13)


def test_rii_coincident_pair_double_pole():
    spec = RecurrenceSpec(
        c=lambda n: 0.2 * n,
        lam=lambda n: 0.1 + 0.02 * n,
        a=lambda n: 3.0,
        b=lambda n: 3.0,
    )
    fn = build_RII(spec, N0=1.0, N1=0.7)
    c1 = spec.c(1)
    assert functional_apply(fn, ("inverse_prefix", 1, 1)) == pytest.approx(
        (1.0 - 0.7) / (3.0 - c1) ** 2, rel=1e-13)
    assert functional_apply(fn, ("inverse_prefix", 1, 0)) == pytest.approx(
        (0.7 - 1.0) / (3.0 - c1), rel=1e-13)
    mu = coincident_moments(spec, 3.0, N0=1.0, N1=0.7)
    for j, k in ((1, 0), (1, 1), (2, 1), (2, 2)):
        got = functional_apply(fn, ("inverse_prefix", j, k))
        assert got == pytest.approx(mu[j + k], rel=1e-13), (j, k)


def coincident_moments(spec, pole, N0, N1):
    """mu_m = L[(x - pole)^(-m)], m = 0..4, when every a_k = b_k = pole.

    Then S_n = P_n (x - pole)^(-2n), so each relation L[x^k S_n] = value is
    linear in the mu_m: written in powers of u = x - pole, x^k P_n becomes
    sum_i c_i u^i and L[x^k S_n] = sum_i c_i mu_{2n-i}. The five relations
    L[1] = N_0, L[S_1] = 0, L[x S_1] = N_1, L[S_2] = L[x S_2] = 0 fix
    mu_0..mu_4 without the rule.
    """
    x = np.polynomial.Polynomial([pole, 1.0])
    relations = ((0, 0, N0), (1, 0, 0.0), (1, 1, N1), (2, 0, 0.0), (2, 1, 0.0))
    mat = np.zeros((5, 5), dtype=complex)
    rhs = np.zeros(5, dtype=complex)
    for row, (n, k, value) in enumerate(relations):
        pn = np.polynomial.Polynomial(poly_desc(spec, n)[::-1])
        for i, c in enumerate((x ** k * pn(x)).coef):
            mat[row, 2 * n - i] += c
        rhs[row] = value
    return np.linalg.solve(mat, rhs)


def test_depth_past_the_cap_is_refused_at_once():
    ri = build_RI(synthetic_ri_spec())
    rii = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    for fn, key in ((ri, ("power", 2**70)), (ri, ("inverse_prefix", 21)),
                    (rii, ("inverse_prefix", 3, 21))):
        with pytest.raises(OutOfSpanError, match="cap of 20"):
            functional_apply(fn, key)
        assert not fn._rules
    assert np.isfinite(functional_apply(rii, ("inverse_prefix", 20, 3)))


def test_norm_descriptor_past_the_cap_is_refused_at_once():
    # the norm recursion behind L[x^n R_n] and L[x^n S_n] would otherwise
    # run up to n
    ri = build_RI(synthetic_ri_spec())
    rii = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    for fn, key in ((ri, ("power_times_R", 2**70, 2**70)),
                    (rii, ("power_times_S", 2**70, 2**70)),
                    (rii, ("power_times_S", 0, 21))):
        with pytest.raises(OutOfSpanError, match="cap of 20"):
            functional_apply(fn, key)
    assert len(ri.norms) == 1 and len(rii.norms) == 2
    assert functional_apply(rii, ("power_times_S", 20, 20)) == rii.norm(20)


def _span(kind, depth):
    if kind == R_I:
        return ([("power", k) for k in range(depth + 1)]
                + [("inverse_prefix", j) for j in range(depth + 1)])
    return [("inverse_prefix", j, k)
            for j in range(depth + 1) for k in range(depth + 1)]


@given(data=st.data(), kind=st.sampled_from([R_I, R_II]))
def test_values_do_not_depend_on_request_order(data, kind):
    # every value comes from its own depth + 1 point rule, so a functional
    # asked in any order repeats, bit for bit, one asked in table order
    def fresh():
        if kind == R_I:
            return build_RI(synthetic_ri_spec())
        return build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)

    descs = _span(kind, 8)
    order = data.draw(st.permutations(descs))
    ref, fn = fresh(), fresh()
    want = {d: functional_apply(ref, d) for d in descs}
    got = {d: functional_apply(fn, d) for d in order}
    assert got == want


# -- consistency against orthogonality relations never used to build -------


def ri_single_poles(fn, depth):
    """L[1/(x - a_{j+1})], j = 1..depth, from the prefix values."""
    pts = [fn.spec.a(j) for j in range(2, depth + 2)]
    mat = np.zeros((depth, depth), dtype=complex)
    rhs = np.zeros(depth, dtype=complex)
    for m in range(1, depth + 1):
        for j in range(m):
            mat[m - 1, j] = 1.0 / np.prod(
                [pts[j] - pts[i] for i in range(m) if i != j])
        rhs[m - 1] = functional_apply(fn, ("inverse_prefix", m))
    return np.linalg.solve(mat, rhs), np.array(pts)


def test_ri_moment_table_satisfies_unused_relations():
    fn = build_RI(synthetic_ri_spec())
    spec = fn.spec
    nmax = 6
    spoles, pts = ri_single_poles(fn, nmax)
    moments = [functional_apply(fn, ("power", i)) for i in range(nmax)]
    for n in range(2, nmax + 1):
        pn = poly_desc(spec, n)
        den = np.poly(pts[:n])
        dden = np.polyder(den)
        for k in range(1, n):
            num = np.polymul(np.concatenate(([1.0], np.zeros(k))), pn)
            quot, rem = np.polydiv(num, den)
            val = sum(
                quot[::-1][i] * moments[i] for i in range(len(quot))
                if abs(quot[::-1][i]) > 0)
            scale = 1.0
            for j in range(n):
                res = np.polyval(num, pts[j]) / np.polyval(dden, pts[j])
                val += res * spoles[j]
                scale = max(scale, abs(res * spoles[j]))
            assert abs(val) <= 1e-11 * scale


def test_rii_moment_table_satisfies_unused_relations():
    fn = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    spec = fn.spec
    nmax = 5
    apts = np.array([spec.a(j) for j in range(2, nmax + 2)], dtype=complex)
    bpts = np.array([spec.b(j) for j in range(2, nmax + 2)], dtype=complex)

    def poles_from_prefixes(which, pts):
        mat = np.zeros((nmax, nmax), dtype=complex)
        rhs = np.zeros(nmax, dtype=complex)
        for m in range(1, nmax + 1):
            for j in range(m):
                mat[m - 1, j] = 1.0 / np.prod(
                    [pts[j] - pts[i] for i in range(m) if i != j])
            key = ("inverse_prefix", m, 0) if which == "a" else (
                "inverse_prefix", 0, m)
            rhs[m - 1] = functional_apply(fn, key)
        return np.linalg.solve(mat, rhs)

    sa = poles_from_prefixes("a", apts)
    sb = poles_from_prefixes("b", bpts)
    for n in range(2, nmax + 1):
        pn = poly_desc(spec, n)
        roots = np.concatenate((apts[:n], bpts[:n]))
        den = np.poly(roots)
        dden = np.polyder(den)
        for k in range(0, n - 1):
            num = np.polymul(np.concatenate(([1.0], np.zeros(k))), pn)
            val = 0.0 + 0.0j
            scale = 1.0
            for j, r in enumerate(roots):
                res = np.polyval(num, r) / np.polyval(dden, r)
                pole_val = sa[j] if j < n else sb[j - n]
                val += res * pole_val
                scale = max(scale, abs(res * pole_val))
            assert abs(val) <= 1e-11 * scale


# -- tail values of the lambda fraction ------------------------------------


def test_kappa_constant_quarter_family():
    # the second-order seed 1/2 is the exact tail of lambda == 1/4
    kap = kappa_tails(cheb_like_spec(), jmax=6)
    assert abs(kap[0] - 2.0) <= 1e-14
    for v in kap[1:]:
        assert abs(v - 0.5) <= 1e-14


def closed_cauchy_kappa(a, b, jmax):
    # kappa_1 = (s + 1)/s and kappa_n = (n - 1)/(2n + s - 3), s = a - b
    s = a - b
    return [(s + 1) / s] + [(n - 1) / (2 * n + s - 3) for n in range(2, jmax + 1)]


@pytest.mark.parametrize("a,b", [(1.2, -0.3), (0.7, -0.1), (2.5, 0.4),
                                 (1 + 0.3j, -0.2)])
def test_kappa_limit_parabolic_family_matches_closed_tails(a, b):
    # lambda_n -> 1/4 like 1/4 - mu/n^2: non-integer and complex s = a - b,
    # where the sweep error decays like depth^-(s+1)
    kap = kappa_tails(cauchy_like_spec(a, b), jmax=20)
    for got, want in zip(kap, closed_cauchy_kappa(a, b, 20), strict=True):
        assert abs(got - want) <= 1e-10 * abs(want)


def test_kappa_small_gap_gives_a_value_or_a_typed_error():
    # at s = 0.6 rounding, amplified like depth^(1-s), is near the tolerance
    a, b = 0.3, -0.3
    try:
        kap = kappa_tails(cauchy_like_spec(a, b), jmax=20)
    except ConvergenceError:
        return
    for got, want in zip(kap, closed_cauchy_kappa(a, b, 20), strict=True):
        assert abs(got - want) <= 1e-10 * abs(want)


def test_kappa_vanishing_tail():
    spec = RecurrenceSpec(
        c=lambda n: 1.0,
        lam=lambda n: 0.25 if n == 1 else 0.0,
        a=lambda n: 2.0,
        b=lambda n: 3.0,
    )
    kap = kappa_tails(spec, jmax=4)
    assert kap[0] == pytest.approx(1.0, abs=1e-14)
    for v in kap[1:]:
        assert abs(v) <= 1e-14


def test_kappa_two_unit_gap_family():
    # a - b = 2 pins the head of the tail sequence at 3/2
    kap = kappa_tails(cauchy_like_spec(1.5, -0.5), jmax=3)
    assert abs(kap[0] - 1.5) <= 1e-10


def test_kappa_products_reproduce_norms():
    spec = cauchy_like_spec(1.5, -0.5)
    kap = kappa_tails(spec, jmax=14)
    fn = build_RII(spec, N0=kap[0], N1=kap[0] - 1.0)
    prod = kap[0]
    for n in range(13):
        if n >= 1:
            prod *= kap[n]
        assert abs(prod - fn.norm(n)) <= 1e-11 * max(1.0, abs(prod))


def geometric_tail_spec():
    return RecurrenceSpec(
        c=lambda n: 1.0,
        lam=lambda n: 0.3 * 0.5**n,
        a=lambda n: 5.0,
        b=lambda n: 7.0,
    )


def test_kappa_geometric_tail_matches_direct_evaluation():
    spec = geometric_tail_spec()
    kap = kappa_tails(spec, jmax=2)
    t = 0.0
    for n in range(240, 1, -1):
        t = spec.lam(n) / (1.0 - t)
    assert abs(kap[1] - t) <= 1e-13


def test_kappa_geometric_tail_reads_few_coefficients():
    # the tail-root seed settles in two short sweeps; zero-seeded sweeps at
    # depths 400 and 800 read lambda about 1200 times
    spec = geometric_tail_spec()
    calls = []

    def lam(n):
        calls.append(n)
        return spec.lam(n)

    kappa_tails(dataclasses.replace(spec, lam=lam), jmax=2)
    assert len(calls) < 400


def test_kappa_divergent_family_raises():
    spec = RecurrenceSpec(
        c=lambda n: 1.0,
        lam=lambda n: 1.0,
        a=lambda n: 2.0,
        b=lambda n: 3.0,
    )
    with pytest.raises(ConvergenceError):
        kappa_tails(spec, jmax=2)


def test_kappa_non_finite_lambda_raises_at_once():
    lam = geometric_tail_spec().lam
    spec = dataclasses.replace(
        geometric_tail_spec(), lam=lambda n: np.inf if n >= 40 else lam(n))
    with pytest.raises(ConvergenceError, match="overflow"):
        kappa_tails(spec, jmax=2)


def test_kappa_rejects_bad_jmax():
    with pytest.raises(DomainError):
        kappa_tails(cheb_like_spec(), jmax=0)


# -- linearity --------------------------------------------------------------


@given(
    c1=st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                          allow_infinity=False),
    c2=st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                          allow_infinity=False),
)
def test_functional_linearity(c1, c2):
    fn = build_RII(synthetic_rii_spec(), N0=1.0, N1=0.4)
    d1 = ("power_times_S", 2, 2)
    d2 = ("inverse_prefix", 1, 0)
    combo = functional_apply(fn, [(c1, d1), (c2, d2)])
    direct = c1 * functional_apply(fn, d1) + c2 * functional_apply(fn, d2)
    assert combo == direct
