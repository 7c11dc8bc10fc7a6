"""q-series layer: products, hypergeometric sums, gamma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfrac import qseries
from rfrac.errors import DivergenceError, DomainError, PoleError, PrecisionError
from rfrac.qseries import (
    _SERIES_EPS,
    _TERMINATION_RTOL,
    INF,
    _termination_index,
    QContext,
    basic_phi,
    gamma_fn,
    hyper_2f1,
    multi_q_pochhammer,
    q_pochhammer,
    shifted_factorial,
    w87,
)

CTX = QContext(q=0.5)


def test_qcontext_rejects_base_outside_unit_disk():
    for q in (1.0, -1.0, 1.2, 0.8 + 0.7j, math.nan):
        with pytest.raises(DomainError):
            QContext(q=q)
    QContext(q=0.99)
    QContext(q=0.3 + 0.4j)


def test_shifted_factorial_small_cases():
    assert shifted_factorial(2.0, 0) == 1.0
    assert shifted_factorial(1.0, 4) == 24.0
    assert shifted_factorial(0.5, 3) == pytest.approx(1.875, rel=1e-15)
    assert shifted_factorial(1.0 + 1.0j, 2) == (1 + 1j) * (2 + 1j)


def test_q_pochhammer_finite_cases():
    assert q_pochhammer(CTX, 0.7, 0) == 1.0
    # second factor is 1 - 2*0.5 = 0
    assert q_pochhammer(CTX, 2.0, 3) == 0.0
    want = (1 - 0.3) * (1 - 0.15) * (1 - 0.075)
    assert q_pochhammer(CTX, 0.3, 3) == pytest.approx(want, rel=1e-15)


def test_q_pochhammer_infinite_reference_value():
    # high precision 200-factor product
    want = 0.5101178266339875718322722
    assert q_pochhammer(CTX, 0.3, INF) == pytest.approx(want, rel=1e-13)
    # default n is the infinite product
    assert q_pochhammer(CTX, 0.3) == pytest.approx(want, rel=1e-13)


@given(
    re=st.floats(-1.4, 1.4),
    im=st.floats(-1.4, 1.4),
    m=st.integers(0, 18),
    n=st.integers(0, 18),
)
def test_q_pochhammer_splitting(re, im, m, n):
    a = complex(re, im)
    whole = q_pochhammer(CTX, a, m + n)
    split = q_pochhammer(CTX, a, m) * q_pochhammer(CTX, a * CTX.q**m, n)
    assert whole == pytest.approx(split, rel=1e-13, abs=1e-13)


def test_q_pochhammer_array_matches_scalar():
    a = np.array([0.3, -0.2 + 0.1j, 0.95, 0.0])
    got = q_pochhammer(CTX, a, INF)
    want = np.array([q_pochhammer(CTX, v, INF) for v in a])
    np.testing.assert_allclose(got, want, rtol=1e-13)
    got3 = q_pochhammer(CTX, a, 3)
    want3 = np.array([q_pochhammer(CTX, v, 3) for v in a])
    np.testing.assert_allclose(got3, want3, rtol=1e-15)


def test_multi_q_pochhammer():
    assert multi_q_pochhammer(CTX, [], 5) == 1.0
    assert multi_q_pochhammer(CTX, [0.0, 0.0], INF) == 1.0
    want = (1 - 0.3) * (1 - 0.15) * (1 - 0.4) * (1 - 0.2)
    assert multi_q_pochhammer(CTX, [0.3, 0.4], 2) == pytest.approx(want, rel=1e-15)


def _termination_index_walk(ctx, params, max_terms):
    """Reference: walk m = 0, 1, ... for every parameter."""
    best = None
    for u in params:
        w = complex(u)
        limit = max_terms if best is None else best
        for m in range(limit + 1):
            if abs(w - 1.0) <= _TERMINATION_RTOL * max(1.0, abs(w)):
                best = m
                break
            w = w * ctx.q
            if abs(w) < 0.5:
                break
    return best


# relative offsets from q**(-m): inside the tolerance, or clearly outside it
_INSIDE = st.floats(0.0, 0.5 * _TERMINATION_RTOL)
_OUTSIDE = st.floats(2.0 * _TERMINATION_RTOL, 0.3)


@settings(max_examples=max(300, settings.default.max_examples))
@given(
    r=st.floats(0.05, 0.995),
    phase=st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi),
    max_terms=st.integers(1, 120),
    draws=st.lists(
        st.tuples(st.integers(0, 121), st.one_of(_INSIDE, _OUTSIDE),
                  st.floats(-math.pi, math.pi)),
        min_size=1, max_size=4),
    small=st.floats(0.0, 0.49),
)
def test_termination_index_matches_walk(r, phase, max_terms, draws, small):
    q = r * complex(math.cos(phase), math.sin(phase))
    ctx = QContext(q=q)
    params = [small * q]
    for m, delta, arg in draws:
        if m * -math.log(r) > 600.0:
            continue
        spin = complex(math.cos(arg), math.sin(arg))
        params.append(q ** (-m) * (1.0 + delta * spin))
    want = _termination_index_walk(ctx, params, max_terms)
    assert _termination_index(ctx, params, max_terms) == want


def test_termination_index_edge_parameters():
    ctx = QContext(q=0.5)
    assert _termination_index(ctx, [0.0, 0.3], 30) is None
    assert _termination_index(ctx, [1.0], 30) == 0
    assert _termination_index(ctx, [2.0 ** 30], 30) == 30
    assert _termination_index(ctx, [2.0 ** 31], 30) is None
    assert _termination_index(ctx, [2.0 ** 7, 2.0 ** 3], 30) == 3
    assert _termination_index(QContext(q=0.0), [1.0, 2.0], 30) == 0


def test_hyper_2f1_binomial_case():
    # 2F1(a, b; b; z) = (1 - z)^(-a)
    res = hyper_2f1(1.0, 0.7, 0.7, 0.5)
    assert res.value == pytest.approx(2.0, rel=1e-13)


def test_hyper_2f1_terminating_cases():
    res = hyper_2f1(-2.0, 1.0, 1.0, 1.0)
    assert res.tail_bound == 0.0
    assert abs(res.value) < 1e-14
    # terminating series are summed exactly even outside the unit disk
    for n in range(1, 7):
        z = 2.5
        res = hyper_2f1(-float(n), 0.37, 1.21, z)
        direct = sum(
            shifted_factorial(-float(n), k)
            * shifted_factorial(0.37, k)
            / (shifted_factorial(1.21, k) * math.factorial(k))
            * z**k
            for k in range(n + 1)
        )
        assert res.value == pytest.approx(direct, rel=1e-13)


def test_hyper_2f1_reference_point():
    res = hyper_2f1(0.5, 0.25, 1.5, 0.3)
    # 500-term high precision summation
    assert res.value == pytest.approx(1.02837326799187824616666, rel=1e-12)


def test_hyper_2f1_pole_and_divergence(monkeypatch):
    with pytest.raises(PoleError):
        hyper_2f1(0.5, 0.7, -2.0, 0.3)
    monkeypatch.setattr(qseries, "_HYPER_2F1_MAX_TERMS", 300)
    with pytest.raises(DivergenceError):
        hyper_2f1(0.5, 0.7, 1.3, 1.5)


def test_basic_phi_zero_argument():
    res = basic_phi(CTX, [0.3, 0.7], [0.2], 0.0)
    assert res.value == 1.0


def test_basic_phi_two_term_terminating():
    # upper parameter q^(-1) stops the sum after two terms
    q, b, c = 0.5, 0.3, 0.7
    res = basic_phi(CTX, [1.0 / q, b], [c], q)
    assert res.terms_used == 2
    assert res.tail_bound == 0.0
    want = 1.0 + (1 - 1 / q) * (1 - b) * q / ((1 - c) * (1 - q))
    assert res.value == pytest.approx(want, rel=1e-14)


def test_basic_phi_q_gauss_sum():
    # 2phi1(a, b; c; q, c/(ab)) = (c/a, c/b; q)_inf / (c, c/(ab); q)_inf,
    # parameters chosen with |c/(ab)| < 1 so the series converges
    a, b, c = 2.0, 3.0, 0.4
    z = c / (a * b)
    res = basic_phi(CTX, [a, b], [c], z)
    want = (
        q_pochhammer(CTX, c / a)
        * q_pochhammer(CTX, c / b)
        / (q_pochhammer(CTX, c) * q_pochhammer(CTX, z))
    )
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.tail_bound <= _SERIES_EPS * max(1.0, abs(res.value))


def test_basic_phi_pole_and_divergence(monkeypatch):
    with pytest.raises(PoleError):
        basic_phi(CTX, [0.3, 0.4], [2.0], 0.5)
    monkeypatch.setattr(qseries, "_MAX_TERMS", 200)
    with pytest.raises(DivergenceError):
        basic_phi(CTX, [0.3, 0.4], [0.5], 1.3)


def test_w87_zero_argument():
    res = w87(CTX, 0.1, 0.2, 0.3, 0.25, 0.15, 0.4, 0.0)
    assert res.value == 1.0


def test_w87_six_five_degeneration():
    # pairing f = aq/e cancels one parameter pair, and at argument aq/(bcd)
    # the remaining very well poised series has a closed product value
    ctx = QContext(q=0.1)
    a, b, c, d, e = 0.1, 0.2, 0.3, 0.25, 0.15
    f = a * ctx.q / e
    z = a * ctx.q / (b * c * d)
    res = w87(ctx, a, b, c, d, e, f, z)
    aq = a * ctx.q
    want = multi_q_pochhammer(
        ctx, [aq, aq / (b * c), aq / (b * d), aq / (c * d)]
    ) / multi_q_pochhammer(ctx, [aq / b, aq / c, aq / d, aq / (b * c * d)])
    assert res.value == pytest.approx(want, rel=1e-12)


def test_w87_very_well_poised_factor():
    # the square root parameter pairs collapse to (1 - a q^(2n)) / (1 - a);
    # checked against the telescoping ratio of base q^2 products
    q = 0.5
    a = 0.3 + 0.2j
    ctx2 = QContext(q=q * q)
    for n in range(51):
        lhs = q_pochhammer(ctx2, a * q * q, n) / q_pochhammer(ctx2, a, n)
        rhs = (1 - a * q ** (2 * n)) / (1 - a)
        assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_w87_nonterminating_summation(n):
    # Bailey-type nonterminating sum: with a balanced parameter slate the
    # series collapses to a ratio of infinite products
    q = 0.5
    t1, t2, t3, t4 = 0.2, 0.3, 0.4, 0.1
    ex = t2 * q ** (n - 1)
    res = w87(
        CTX,
        q ** (n + 1) * t4 / t3,
        q ** (n + 1),
        -(q**2) / (t1 * t3),
        t4 / ex,
        -t4 * ex,
        -(q**3) / (t2 * t3),
        -t1 * t2 * q ** (n - 2),
    )
    want = multi_q_pochhammer(
        CTX,
        [q ** (n + 2) * t4 / t3, -t1 * t4 / q, q**n * t2 / t3, -(q ** (2 * n - 1)) * t1 * t2],
    ) / multi_q_pochhammer(
        CTX,
        [q ** (2 * n + 1) * t2 / t3, -(q**n) * t1 * t4, q * t4 / t3, -t1 * t2 * q ** (n - 2)],
    )
    assert res.value == pytest.approx(want, rel=1e-10)


def test_gamma_fn_real_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(7.3) == pytest.approx(1271.423633663909273057994, rel=1e-12)
    x = 0.1
    while x < 10.0:
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)
        x += 0.3


def test_gamma_fn_reflection_and_complex():
    assert gamma_fn(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-12)
    want = 1.172395828484856313709171 - 0.4365070851847560857426005j
    assert gamma_fn(2.5 - 0.5j) == pytest.approx(want, rel=1e-12)


def test_gamma_fn_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_fn(z)


def _disk_draw(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(phi), math.sin(phi))


def test_heine_transformation_random_draws():
    # 2phi1(a,b;c;q,z) = (b, az; q)_inf / (c, z; q)_inf * 2phi1(c/b, z; az; q, b)
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        q = rng.uniform(0.1, 0.8)
        ctx = QContext(q=q)
        a = _disk_draw(rng, 0.05, 0.85)
        b = _disk_draw(rng, 0.05, 0.85)
        c = _disk_draw(rng, 0.05, 0.85)
        z = _disk_draw(rng, 0.05, 0.85)
        lhs = basic_phi(ctx, [a, b], [c], z).value
        pref = (
            q_pochhammer(ctx, b)
            * q_pochhammer(ctx, a * z)
            / (q_pochhammer(ctx, c) * q_pochhammer(ctx, z))
        )
        rhs = pref * basic_phi(ctx, [c / b, z], [a * z], b).value
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_q_pfaff_saalschutz_random_draws():
    # terminating balanced 3phi2 equals (c/a, c/b; q)_n / (c, c/(ab); q)_n
    rng = np.random.default_rng(20240812)
    q = 0.5
    ctx = QContext(q=q)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = _disk_draw(rng, 0.1, 0.85)
        b = _disk_draw(rng, 0.1, 0.85)
        c = _disk_draw(rng, 0.2, 0.85)
        lhs = basic_phi(ctx, [q**-n, a, b], [c, a * b * q ** (1 - n) / c], q)
        assert lhs.terms_used == n + 1
        rhs = (
            q_pochhammer(ctx, c / a, n)
            * q_pochhammer(ctx, c / b, n)
            / (q_pochhammer(ctx, c, n) * q_pochhammer(ctx, c / (a * b), n))
        )
        assert lhs.value == pytest.approx(rhs, rel=1e-11)


# -- the double-double member kernel ---------------------------------------

THETA_NODES = np.cos(np.linspace(0.0, math.pi, 41))   # x = 1 and x = -1 included


def _mp_phi(mp, q, upper, lower, z, stop):
    total = term = mp.mpc(1)
    for k in range(stop):
        num = mp.mpc(1)
        for u in upper:
            num *= 1 - u * q ** k
        den = 1 - q ** (k + 1)
        for l in lower:
            den *= 1 - l * q ** k
        term *= num / den * z
        total += term
    return total


def _member_cases(mp, q):
    """(kernel member, nodes, mpmath parameters at e) per model, degree n."""
    from rfrac.models.cheby_rational import ladder_member
    from rfrac.models.rahman import balanced_member, plain_member
    from rfrac.models.sinh_lattice import grid_member
    from rfrac.models.unit_circle import first_member

    Q = mp.mpf(q)
    al, be, de = 0.33, 0.31, 0.17
    A, B, D = mp.mpf(al), mp.mpf(be), mp.mpf(de)
    P, RB = A * B * B * D, mp.sqrt(B)
    t1, t2, t3, t4, a, b = 0.19, 0.27, 0.42, 0.11, 0.3, 0.22
    T1, T2, T3, T4, Aa, Bb = (mp.mpf(v) for v in (t1, t2, t3, t4, a, b))
    Pc = Aa * Bb * T1 * T2
    circle = np.exp(1j * np.linspace(-math.pi, math.pi, 33))
    grid = np.concatenate([[-1.0, 1.0], 0.5 * (t3 * q ** -np.arange(1.0, 12.0)
                                              - q ** np.arange(1.0, 12.0) / t3)])

    def segment(x):
        x = mp.mpf(x)
        return x + mp.sqrt(x - 1) * mp.sqrt(x + 1)

    def sinh(z):
        z = mp.mpf(z)
        return z + mp.sqrt(z * z + 1)

    return [
        ("ladder", lambda n: ladder_member(q, al, de, n), THETA_NODES, segment,
         lambda n, e: ([Q ** -n, A * D * Q ** n, A * e, A / e],
                       [A * D, Q * A * e, Q * A / e])),
        ("plain", lambda n: plain_member(q, al, be, de, n), THETA_NODES, segment,
         lambda n, e: ([Q ** -n, P * Q ** (n - 1), D * e, D / e],
                       [A * D, B * D * e, B * D / e])),
        ("balanced", lambda n: balanced_member(q, al, be, de, n), THETA_NODES,
         segment,
         lambda n, e: ([Q ** -n, P * Q ** (n - 1), A * e, A / e, Q * A * RB,
                        -Q * A * RB],
                       [A * D, Q * A * B * e, Q * A * B / e, A * RB, -A * RB])),
        ("circle", lambda n: first_member(q, a, b, t1, t2, n, -1), circle,
         lambda t: 1 / mp.mpc(t),
         lambda n, z: ([Q ** -n, Pc * Q ** (n - 1), T2 * z / mp.sqrt(Q), T2],
                       [Aa * T2 * z * mp.sqrt(Q), Bb * T2, T1 * T2 / Q])),
        ("grid", lambda n: grid_member(q, t1, t2, t3, t4, n), grid, sinh,
         lambda n, e: ([Q ** -n, -T1 * T2 * Q ** (n - 2), -T1 * T3 / Q,
                        -T1 * T4 / Q],
                       [-T1 * e, T1 / e, T1 * T2 * T3 * T4 / Q ** 3])),
    ]


@pytest.mark.parametrize("q", [0.41, 0.6])
def test_member_kernel_matches_mpmath(q):
    # error relative to the member's largest value over the nodes; the
    # bound is the double rounding of the result plus the cancellation
    # the kernel itself reports. Degrees <= 7 (the gram workload's) must
    # return; degrees 8 and 9 return or raise PrecisionError.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for name, member, nodes, node_map, params in _member_cases(mp, q):
        for n in range(10):
            try:
                res = member(n).sum(nodes)
            except PrecisionError:
                assert n >= 8, (name, n)
                continue
            ref = []
            for x in nodes:
                upper, lower = params(n, node_map(x))
                ref.append(complex(_mp_phi(mp, mp.mpf(q), upper, lower,
                                           mp.mpf(q), n)))
            ref = np.array(ref)
            err = np.max(np.abs(res.value - ref)) / np.max(np.abs(ref))
            bound = 2.0 ** -52 + 32.0 * res.condition * 2.0 ** -104
            assert np.all(np.isfinite(res.value)), (name, n)
            assert err <= bound, (name, q, n, err, res.condition)


def test_member_kernel_raises_past_its_reach():
    # Rahman52 at q = 0.44, degree 11: its double-double error is about
    # 2.5e-2 of the member's size, so the member refuses
    from rfrac.models import biorth, instantiate

    fam = biorth(instantiate("Rahman52", {"q": 0.44, "alpha": 0.2,
                                          "beta": 0.3, "delta": 0.1}))
    with pytest.raises(PrecisionError, match="condition"):
        fam.right(11)(THETA_NODES)
    assert np.all(np.isfinite(fam.right(7)(THETA_NODES)))


def test_member_kernel_poles_and_form():
    from rfrac.qseries import TerminatingPhi, circle_node, mono

    q = 0.5
    # 1 - (q t) q^0 vanishes at t = 2: one array test over the nodes
    series = TerminatingPhi(q, (mono((q, -3)), mono(0.3)), (mono(q, e=1),),
                            mono(q), circle_node)
    assert np.all(np.isfinite(series(np.array([1.0, 3.0]))))
    with pytest.raises(PoleError):
        series(np.array([1.0, 2.0, 4.0]))
    # a node-free lower factor 1 - q^0 vanishes at once
    with pytest.raises(PoleError):
        TerminatingPhi(q, (mono((q, -3)), mono(0.3)), (mono(1.0),), mono(q),
                       circle_node)
    # only terminating r+1 phi r series
    with pytest.raises(DomainError):
        TerminatingPhi(q, (mono(0.3), mono(0.2)), (mono(0.1),), mono(q),
                       circle_node)
    with pytest.raises(DomainError):
        TerminatingPhi(q, (mono((q, -3)),), (mono(0.1),), mono(q), circle_node)
    # a scalar node gives a scalar
    value = series(3.0)
    assert np.ndim(value) == 0 and np.isfinite(value)
