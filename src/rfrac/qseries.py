"""q-series building blocks.

Shifted factorials, q-shifted factorials, classical and basic hypergeometric
sums, the very well poised series, and a Lanczos gamma. Infinite products
stop once the running factor is within ``_PRODUCT_EPS`` of 1; basic series
stop once a geometric tail estimate falls below ``_SERIES_EPS`` relative to
the partial sum, and raise DivergenceError after ``_MAX_TERMS`` terms;
hyper_2f1 uses ``_HYPER_2F1_EPS`` and ``_HYPER_2F1_MAX_TERMS`` instead.
These are module constants, so every caller truncates the same way; a
QContext carries only the base q.

``TerminatingPhi`` is the array kernel for the biorthogonal members: a
terminating r+1 phi r series whose parameters and argument are each a
constant times q^(jn) times e^(+-1) (``mono``), with e the node variable a
model maps its nodes to (``circle_node``, ``segment_node``, ``sinh_node``).
It forms the parameters and sums over a whole node array in double-double,
finds the stop once, checks the lower factors for poles in one array test,
and reports the cancellation condition, raising PrecisionError past
``_DD_REACH``.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, PoleError, PrecisionError

INF = math.inf

# An upper parameter counts as q**(-m) when u * q**m is this close to 1.
_TERMINATION_RTOL = 1e-10
# A denominator factor this close to zero is treated as an exact pole.
_POLE_ATOL = 1e-13
# Truncation thresholds and term caps (see the module docstring).
_PRODUCT_EPS = 1e-16
_SERIES_EPS = 1e-14
_MAX_TERMS = 4000
_HYPER_2F1_EPS = 1e-15
_HYPER_2F1_MAX_TERMS = 10_000

__all__ = [
    "INF",
    "QContext",
    "SeriesResult",
    "shifted_factorial",
    "q_pochhammer",
    "multi_q_pochhammer",
    "hyper_2f1",
    "basic_phi",
    "w87",
    "gamma_fn",
    "mono",
    "TerminatingPhi",
    "circle_node",
    "segment_node",
    "sinh_node",
]


@dataclass(frozen=True)
class QContext:
    """The base q of the products and basic series, checked |q| < 1."""

    q: complex

    def __post_init__(self):
        if not abs(self.q) < 1.0:
            raise DomainError(f"need |q| < 1, got q = {self.q!r}")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated sum plus the bookkeeping behind the truncation.

    ``condition`` is the cancellation condition sum |term| / |sum term|
    where the summing routine computes it (``TerminatingPhi``), else None.
    """

    value: complex
    terms_used: int
    tail_bound: float
    condition: float = None


def shifted_factorial(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), empty product for n=0."""
    if n < 0:
        raise DomainError("shifted_factorial needs n >= 0")
    out = 1.0 if not isinstance(a, complex) else 1.0 + 0.0j
    for j in range(int(n)):
        out = out * (a + j)
    return out


def q_pochhammer(ctx, a, n=INF):
    """(a; q)_n, with n = math.inf for the infinite product.

    ``a`` may be a numpy array, in which case the product runs elementwise
    with a shared truncation depth driven by the largest entry.
    """
    arr = isinstance(a, np.ndarray)
    if arr:
        out = np.ones(a.shape, dtype=complex)
        aq = a.astype(complex)
    else:
        out = 1.0 + 0.0j
        aq = complex(a)
    if math.isinf(n):
        top = float(np.max(np.abs(aq))) if arr and aq.size else abs(aq) if not arr else 0.0
        k = 0
        while top >= _PRODUCT_EPS:
            if k >= 100_000:
                raise DivergenceError("infinite q-product failed to settle")
            out = out * (1.0 - aq)
            aq = aq * ctx.q
            top *= abs(ctx.q)
            k += 1
        return out
    m = int(n)
    if m < 0 or m != n:
        raise DomainError("n must be a nonnegative integer or math.inf")
    for _ in range(m):
        out = out * (1.0 - aq)
        aq = aq * ctx.q
    return out


def multi_q_pochhammer(ctx, avals, n=INF):
    """Product of (a; q)_n over every a in ``avals``."""
    out = 1.0 + 0.0j
    for a in avals:
        out = out * q_pochhammer(ctx, a, n)
    return out


def _sum_terms(step, stop, eps, max_terms):
    """Sum term_0 = 1 with term_{n+1} = term_n * step(n).

    ``stop`` not None means the series terminates and exactly stop+1 terms
    are summed. Otherwise the geometric tail estimate |term| / (1 - ratio)
    is tested against eps * max(1, |partial|) each step, with ratio the last
    observed |term_{n+1} / term_n|.
    """
    partial = 1.0 + 0.0j
    term = 1.0 + 0.0j
    if stop is not None:
        for n in range(stop):
            term = term * step(n)
            partial += term
        return SeriesResult(partial, stop + 1, 0.0)
    prev = 1.0
    for n in range(max_terms):
        term = term * step(n)
        partial += term
        t = abs(term)
        if t == 0.0:
            # a numerator factor vanished exactly, so every later term does too
            return SeriesResult(partial, n + 2, 0.0)
        if prev > 0.0:
            ratio = t / prev
            if ratio < 1.0:
                tail = t / (1.0 - ratio)
                if tail <= eps * max(1.0, abs(partial)):
                    return SeriesResult(partial, n + 2, tail)
        prev = t
    raise DivergenceError(
        f"series did not meet the tail criterion within {max_terms} terms")


def _termination_index(ctx, params, max_terms):
    """Smallest m <= max_terms with some parameter equal to q**(-m), else None.

    u q^m can only come near 1 where |u| |q|^m = 1, so each parameter has
    one candidate, m = round(log|u| / -log|q|).
    """
    q = complex(ctx.q)
    neg_log_q = -math.log(abs(q)) if q != 0.0 else INF
    best = None
    for u in params:
        w = complex(u)
        r = abs(w)
        if r < 0.5:
            # |u q^m| <= |u| < 0.5 for every m, so it never reaches 1
            continue
        m = max(0, round(math.log(r) / neg_log_q)) if math.isfinite(r) else 0
        if m > (max_terms if best is None else best):
            continue
        w = w * q**m
        if abs(w - 1.0) <= _TERMINATION_RTOL * max(1.0, abs(w)):
            best = m
    return best


def _check_denominator(f, what):
    if abs(f) < _POLE_ATOL:
        raise PoleError(f"zero denominator factor in {what}")
    return f


def hyper_2f1(a, b, c, z):
    """Gauss 2F1 by direct summation; terminating cases are summed exactly."""
    stop = None
    for p in (a, b):
        m = _nonpositive_integer(p)
        if m is not None:
            stop = m if stop is None else min(stop, m)
    zc = complex(z)

    def step(n):
        den = _check_denominator((c + n) * (n + 1.0), "hyper_2f1")
        return (a + n) * (b + n) / den * zc

    return _sum_terms(step, stop, _HYPER_2F1_EPS, _HYPER_2F1_MAX_TERMS)


def _nonpositive_integer(p):
    """p as the nonnegative integer -p if p is a nonpositive integer, else None."""
    pc = complex(p)
    r = round(pc.real)
    if r <= 0 and abs(pc - r) <= 1e-12 * max(1.0, abs(pc)):
        return -int(r)
    return None


def basic_phi(ctx, upper, lower, z):
    """Basic hypergeometric series with r upper and s lower parameters.

    The sum carries the extra [(-1)^n q^(n(n-1)/2)]^(1+s-r) factor, so the
    r = s+1 case needs |z| < 1 while r <= s converges for every z. A series
    with an upper parameter of the form q^(-m) is summed exactly.
    """
    q = ctx.q
    extra = 1 + len(lower) - len(upper)
    stop = _termination_index(ctx, upper, _MAX_TERMS)
    zc = complex(z)

    def step(n):
        num = 1.0 + 0.0j
        for u in upper:
            num *= 1.0 - u * q**n
        den = 1.0 - q ** (n + 1)
        for l in lower:
            den *= _check_denominator(1.0 - l * q**n, "basic_phi")
        fac = num / den * zc
        if extra:
            fac *= (-(q**n)) ** extra
        return fac

    return _sum_terms(step, stop, _SERIES_EPS, _MAX_TERMS)


def w87(ctx, a, b, c, d, e, f, z):
    """Very well poised series W(a; b, c, d, e, f; q, z) on six parameters.

    The two square root parameters of the underlying 8-phi-7 are never
    materialized; their net contribution per term is the closed factor
    (1 - a q^(2n)) / (1 - a), which dodges the branch choice for complex a.
    """
    q = ctx.q
    if abs(1.0 - a) < _POLE_ATOL:
        raise DomainError("w87 is indeterminate at a = 1")
    params = (a, b, c, d, e, f)
    denoms = (a * q / b, a * q / c, a * q / d, a * q / e, a * q / f)
    stop = _termination_index(ctx, params, _MAX_TERMS)
    zc = complex(z)

    def step(n):
        num = (1.0 - a * q ** (2 * n + 2)) / (1.0 - a * q ** (2 * n))
        for p in params:
            num *= 1.0 - p * q**n
        den = 1.0 - q ** (n + 1)
        for dn in denoms:
            den *= _check_denominator(1.0 - dn * q**n, "w87")
        return num / den * zc

    return _sum_terms(step, stop, _SERIES_EPS, _MAX_TERMS)


_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(z):
    """Classical gamma function, Lanczos form with reflection for Re z < 1/2."""
    zc = complex(z)
    if zc.imag == 0.0 and zc.real == math.floor(zc.real) and zc.real <= 0.0:
        raise PoleError(f"gamma pole at {z}")
    if zc.real < 0.5:
        return math.pi / (cmath.sin(math.pi * zc) * gamma_fn(1.0 - zc))
    w = zc - 1.0
    x = _LANCZOS[0]
    for i, ci in enumerate(_LANCZOS[1:], start=1):
        x += ci / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * x


# -- terminating basic series over node arrays, in double-double -----------
#
# A double-double number is the unevaluated sum hi + lo of two doubles,
# |lo| <= ulp(hi) / 2. ``_DD`` holds complex arrays hi and lo; Knuth's
# two-sum and Dekker's split act on the real and imaginary parts at once.
# numpy has no fused multiply-add, so products split their factors
# (Dekker, Numer. Math. 18, 1971; Hida, Li & Bailey, ARITH 15, 2001).

_SPLIT = 134217729.0  # 2**27 + 1
_UNIT_DD = 2.0 ** -104
# the largest condition * _UNIT_DD a member may carry; see PrecisionError
_DD_REACH = 1e-11


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


class _DD:
    """Complex double-double arrays."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    @classmethod
    def of(cls, z):
        """Doubles, exactly. A Python complex stays a scalar: the node-free
        constants are formed one by one, where numpy's per-call cost would
        dominate."""
        if isinstance(z, complex):
            return cls(z, 0j)
        z = np.asarray(z, dtype=complex)
        return cls(z, np.zeros_like(z))

    def __getitem__(self, index):
        return _DD(self.hi[index], self.lo[index])

    def __neg__(self):
        return _DD(-self.hi, -self.lo)

    def __add__(self, other):
        s, e = _two_sum(self.hi, other.hi)
        return _DD(*_fast_two_sum(s, e + (self.lo + other.lo)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.hi, other.hi
        (ah, al), (bh, bl) = _split(a), _split(b)
        # a times the real and the imaginary part of b, exactly: u + eu, v + ev
        u, v = a * b.real, a * b.imag
        eu = ((ah * bh.real - u) + ah * bl.real + al * bh.real) + al * bl.real
        ev = ((ah * bh.imag - v) + ah * bl.imag + al * bh.imag) + al * bl.imag
        s, f = _two_sum(u, 1j * v)
        f = f + (eu + 1j * ev) + (a * other.lo + self.lo * b)
        return _DD(*_fast_two_sum(s, f))

    def __truediv__(self, other):
        # the quotient in double, corrected once by its residual
        q = self.hi / other.hi
        r = self - other * _DD.of(q)
        return _DD(*_fast_two_sum(q, r.hi / other.hi))

    def sqrt(self):
        """The root next to the principal root of hi; exactly 0 at 0."""
        s = np.sqrt(self.hi)
        r = self - _DD.of(s) * _DD.of(s)
        zero = s == 0
        step = np.where(zero, 0.0, r.hi / (2.0 * np.where(zero, 1.0, s)))
        return _DD(*_fast_two_sum(s, step))


_ONE = _DD.of(1.0)


def circle_node(t):
    """The node itself as the series variable e, for a contour in t."""
    return _DD.of(t)


def segment_node(x):
    """e = x + sqrt(x - 1) sqrt(x + 1), so that e + 1/e = 2x.

    On [-1, 1] this is x + i sqrt(1 - x^2), and at x = +-1 the root of 0 is
    exactly 0. Off the segment it is the root of modulus above 1.
    """
    X = _DD.of(x)
    return X + (X - _ONE).sqrt() * (X + _ONE).sqrt()


def sinh_node(z):
    """e = exp(asinh z) = z + sqrt(z^2 + 1), so that e - 1/e = 2z.

    The sign of the root is taken per node so that the sum does not
    cancel; the two choices are e and -1/e.
    """
    Z = _DD.of(z)
    w = (Z * Z + _ONE).sqrt()
    sign = np.where((Z.hi * w.hi.conj()).real < 0.0, -1.0, 1.0)
    return Z + _DD(sign * w.hi, sign * w.lo)


def mono(*factors, e=0):
    """A series parameter prod(v ** k) * node ** e.

    Each factor is a model double v (exponent 1) or a pair (v, k) with k a
    multiple of 1/2, such as (q, n - 1) or (q, 0.5); e is -1, 0 or 1.
    """
    return tuple(f if isinstance(f, tuple) else (f, 1) for f in factors), e


@functools.lru_cache(maxsize=1024)
def _monomial(factors):
    """prod(v ** k) over a parameter's factors, formed in double-double.

    Members of one family share most of their constants, so each is formed
    once.
    """
    out = _DD.of(1 + 0j)
    for v, k in factors:
        base = _DD.of(complex(v))
        if k < 0:
            base = _DD.of(1 + 0j) / base
        m, b = int(abs(k)), base
        while m:
            if m & 1:
                out = out * b
            m >>= 1
            if m:
                b = b * b
        if abs(k) % 1:
            out = out * base.sqrt()
    return out


def _monomials(params):
    """The constants of ``params`` as one double-double array."""
    ds = [_monomial(factors) for factors, _ in params]
    return _DD(np.array([d.hi for d in ds]), np.array([d.lo for d in ds]))


def _tree(x, combine, pad):
    """x combined along axis 0 pairwise, as a tree; an odd row count is
    padded with a row of ``pad``."""
    while x.hi.shape[0] > 1:
        if x.hi.shape[0] % 2:
            x = _DD(np.concatenate([x.hi, np.full_like(x.hi[:1], pad)]),
                    np.concatenate([x.lo, np.zeros_like(x.lo[:1])]))
        x = combine(x[0::2], x[1::2])
    return x[0]


def _product(factors):
    """The product along axis 0; 1 for no factors."""
    return _tree(factors, _DD.__mul__, 1.0) if len(factors.hi) else _ONE


@functools.lru_cache(maxsize=4)
def _mapped(node, dtype, data, inverse):
    """e at the nodes held in ``data``, with 1/e and e +- 1/e if asked.

    Every member of a Gram matrix is evaluated on the same node arrays, so
    the map runs once per array; the arrays are returned read-only.
    """
    e = node(np.frombuffer(data, dtype=dtype))
    out = {1: e}
    if inverse:
        out[-1] = _ONE / e
        out["+"], out["-"] = e + out[-1], e - out[-1]
    for d in out.values():
        d.hi.flags.writeable = d.lo.flags.writeable = False
    return out


def _pole_free(factor):
    """A lower factor 1 - l q^k, refused where it vanishes."""
    if np.any(np.abs(factor.hi) < _POLE_ATOL):
        raise PoleError("zero denominator factor in TerminatingPhi")
    return factor


class TerminatingPhi:
    """A terminating r+1 phi r series, summed over node arrays in double-double.

    The series is sum_k prod (u; q)_k / ((q; q)_k prod (l; q)_k) z^k. Every
    upper parameter u, lower parameter l and the argument z is given by
    ``mono`` as a constant times a power of q and of the node variable e;
    ``node`` maps a node array to e in double-double (``circle_node``,
    ``segment_node`` or ``sinh_node``). The kernel forms every parameter in
    double-double from the model's own doubles, so that the exact relations
    between them (q^-n against q^n, conjugate pairs, shared factors)
    survive rounding. The stop, the smallest m with an upper parameter free
    of e equal to q^-m, is found once, and the factors free of e are formed
    once, here; a call sums over its whole node array at once.

    Calling the object returns the sums as doubles, in the nodes' shape.
    ``sum`` returns them in a SeriesResult whose ``condition`` is the max
    over the nodes of sum |term| divided by the max over the nodes of
    |sum term|. A call raises PrecisionError when condition * 2^-104
    exceeds ``_DD_REACH``, and PoleError when a lower factor vanishes at a
    node.
    """

    def __init__(self, q, upper, lower, arg, node):
        if len(upper) != len(lower) + 1:
            raise DomainError("TerminatingPhi sums r+1 phi r series only")
        free = [math.prod(complex(v) ** k for v, k in factors)
                for factors, e in upper if e == 0]
        stop = _termination_index(QContext(q), free, _MAX_TERMS)
        if stop is None:
            raise DomainError("TerminatingPhi needs an upper parameter q^-m")
        # (q; q)_k counts as one more lower parameter, q
        params = [*upper, *lower, mono(q)]
        n = len(params)
        c = _monomials([*params, arg] + [mono((q, k)) for k in range(stop)])
        coef = c[:n, None] * c[None, n + 1:]   # each parameter times q^k
        up = np.arange(n) < len(upper)
        e = np.array([p[1] for p in params])
        # the factors free of e make rho_k, with the argument if it is free
        free, top = _ONE - coef[e == 0], up[e == 0]
        self.rho = (_product(free[top])
                    / _product(_pole_free(free[~top])))[:, None]
        if arg[1] == 0:
            self.rho = self.rho * c[n]
        # the e-dependent factors 1 - c e^s, formed per call, as
        # (head, c, key, upper) with factor head - c * pick[key]; a pair
        # c e, +-c/e on one side folds into 1 +- c^2 - c (e +- 1/e)
        self.dep, rows = [], [i for i in range(n) if e[i]]
        while rows:
            i = rows.pop(0)
            entry = (_ONE, coef[i, :, None], e[i], up[i])
            for j in rows:
                same = c.hi[j] == c.hi[i] and c.lo[j] == c.lo[i]
                opposite = c.hi[j] == -c.hi[i] and c.lo[j] == -c.lo[i]
                if e[j] == -e[i] and up[j] == up[i] and (same or opposite):
                    rows.remove(j)
                    plus = coef[i if e[i] > 0 else j]
                    square = plus * plus
                    head = _ONE + (square if same else -square)
                    entry = (head[:, None], plus[:, None], "+" if same else "-",
                             up[i])
                    break
            self.dep.append(entry)
        self.stop, self.node, self.arg = stop, node, (c[n], arg[1])
        self.inverse = bool((e < 0).any()) or arg[1] < 0

    def sum(self, x):
        x = np.asarray(x)
        flat = np.ascontiguousarray(x.reshape(-1))
        pick = _mapped(self.node, flat.dtype.str, flat.tobytes(), self.inverse)
        # R[k] = term k+1 / term k at every node, a fresh array
        num, den = self.rho, _ONE
        for head, coef, key, upper in self.dep:
            f = head - coef * pick[key]
            if upper:
                num = num * f
            else:
                den = den * _pole_free(f)
        R = num / den
        if self.arg[1]:
            R = R * (self.arg[0] * pick[self.arg[1]])
        # term k+1 is R[0] ... R[k]: a doubling scan, then a tree sum
        d = 1
        while d < self.stop:
            step = R[d:] * R[:-d]
            R.hi[d:], R.lo[d:] = step.hi, step.lo
            d *= 2
        S = _DD.of(np.ones(x.size))
        if self.stop:
            S = S + _tree(R, _DD.__add__, 0.0)
        value = S.hi + S.lo
        total = 1.0 + np.abs(R.hi).sum(axis=0)
        top = np.abs(value).max()
        condition = float(total.max() / top) if top > 0.0 else INF
        if condition * _UNIT_DD > _DD_REACH:
            raise PrecisionError(
                f"the series cancels past double-double: condition "
                f"{condition:.3g} at stop {self.stop}")
        return SeriesResult(value.reshape(x.shape)[()], self.stop + 1, 0.0,
                            condition)

    def __call__(self, x):
        return self.sum(x).value
