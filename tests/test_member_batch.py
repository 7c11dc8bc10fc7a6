"""The series members summed as a batch against the same members one by one.

``qseries.sum_batch`` sums consecutive members that share a layout
together; ``measures._eval_rows`` hands it every run of members it gets.
A batch must give each member's values bit for bit, and the errors the
members raise one by one, in order.
"""

import numpy as np
import pytest

from rfrac.errors import PoleError, PrecisionError
from rfrac.measures import _eval_rows, weighted_gram
from rfrac.models import biorth, instantiate
from rfrac.qseries import TerminatingPhi, circle_node, mono, sum_batch
from test_biorth import GRAM_CASES

SERIES_CASES = ["Pastro21", "UnitCircle41", "SinhLattice42",
                "ChebyRational51", "Rahman52", "Rahman52_generic"]
DEGREES = [range(9), (1, 4, 6)]


def family(case):
    model = instantiate(*GRAM_CASES[case])
    return model, biorth(model)


def ladder_nodes(fam):
    """Every node array the Gram ladder evaluates the members on."""
    seen = {}

    def recorded(side):
        def at(i):
            f = side(i)

            def g(t):
                seen.setdefault(t.size, t.copy())
                return f(t)
            return g
        return at

    weighted_gram(fam.pairing, recorded(fam.left), recorded(fam.right), 8)
    return list(seen.values())


def outcome(fn):
    """('ok', bytes of the values) or (error type, message)."""
    try:
        values = fn()
    except (PoleError, PrecisionError) as exc:
        return type(exc), str(exc)
    return "ok", [np.asarray(v, dtype=complex).tobytes() for v in values]


@pytest.mark.parametrize("degrees", DEGREES, ids=["0-8", "1-4-6"])
@pytest.mark.parametrize("case", SERIES_CASES)
def test_batch_equals_members_one_by_one(case, degrees):
    # one batch per side, its constants formed at the first level and kept,
    # against fresh members summed alone, at every ladder level and at a
    # scalar point
    model, fam = family(case)
    nodes = ladder_nodes(fam)
    for side in (fam.left, fam.right):
        batch = [side(n) for n in degrees]
        for t in [*nodes, complex(nodes[0][3])]:
            got = outcome(lambda: [r.value for r in sum_batch(batch, t)])
            want = outcome(lambda: [side(n)(t) for n in degrees])
            assert got == want, (case, np.size(t))
            assert got[0] == "ok" or got[0] is PrecisionError
            if np.ndim(t) == 0 and got[0] == "ok":
                assert all(np.ndim(r.value) == 0
                           for r in sum_batch(batch, t))
    if case == "Pastro21":
        # the closed polynomial is the member itself, prefactor included
        z = complex(nodes[0][5])
        for n in degrees:
            want = sum_batch([fam.left(n)], z)[0].value
            assert model.extras["poly"](n, z) == want


@pytest.mark.parametrize("case", SERIES_CASES)
def test_gram_over_plain_closures_is_bit_identical(case):
    # closures that only call a member, as a tracing wrapper does, are
    # evaluated one by one; the batched Gram must not differ in any bit
    _, fam = family(case)

    def wrapped(side):
        return lambda i: (lambda t, f=side(i): f(t))

    batched = weighted_gram(fam.pairing, fam.left, fam.right, 8)
    single = weighted_gram(fam.pairing, wrapped(fam.left),
                           wrapped(fam.right), 8)
    assert batched.tobytes() == single.tobytes()


def test_batch_raises_for_a_member_past_its_reach():
    # Rahman52 at q = 0.44: degree 11 cancels past double-double
    fam = biorth(instantiate("Rahman52", {"q": 0.44, "alpha": 0.2,
                                          "beta": 0.3, "delta": 0.1}))
    x = np.cos(np.linspace(0.0, np.pi, 41))
    with pytest.raises(PrecisionError) as alone:
        fam.right(11)(x)
    with pytest.raises(PrecisionError) as batch:
        sum_batch([fam.right(n) for n in (3, 11, 5)], x)
    assert str(batch.value) == str(alone.value)
    with pytest.raises(PrecisionError):
        _eval_rows([fam.right(n) for n in (3, 11, 5)], x)
    rows = _eval_rows([fam.right(n) for n in (3, 5)], x)
    assert np.all(np.isfinite(rows))


def test_batch_errors_come_in_member_order():
    # two members of one layout, 2phi1(q^-4, a; c t; q, q) at t = 1: with
    # c = a/q the sum is (c/a; q)_4 a^4 / (c; q)_4 = 0, which cancels past
    # any reach; with c = 1/q the lower factor 1 - c t q vanishes
    q, a = 0.5, 0.3

    def member(c):
        return TerminatingPhi(q, (mono((q, -4)), mono(a)), (mono(c, e=1),),
                              mono(q), circle_node)

    t = np.array([1.0])
    cancels, pole = member(a / q), member(1.0 / q)
    with pytest.raises(PrecisionError):
        cancels(t)
    with pytest.raises(PoleError):
        pole(t)
    with pytest.raises(PrecisionError):
        sum_batch([member(a / q), member(1.0 / q)], t)
    with pytest.raises(PoleError):
        sum_batch([member(1.0 / q), member(a / q)], t)
    assert np.isfinite(sum_batch([member(0.2), member(0.4)], t)[1].value)


def test_mixed_rows_keep_their_order():
    # kernel members, plain closures and members of another layout,
    # interleaved: each row is its own member's values
    _, fam = family("UnitCircle41")
    t = np.exp(1j * np.linspace(0.0, 6.0, 64))
    fs = [fam.left(2), lambda x: x ** 2, fam.right(3), fam.left(5),
          fam.right(1), lambda x: np.ones_like(x), fam.left(0)]
    rows = _eval_rows(fs, t)
    for k, f in enumerate(fs):
        want = np.asarray(f(t), dtype=complex)
        assert rows[k].tobytes() == want.tobytes(), k
