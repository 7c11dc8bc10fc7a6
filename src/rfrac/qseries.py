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
``sum_batch`` sums a list of members over a whole node array in
double-double, in one pass for each run of members that share a layout,
and gives each member the values it would get alone, bit for bit. The
checks stay per member: each finds its own stop, tests its own lower
factors for poles and reports its own cancellation condition, raising
PrecisionError past ``_DD_REACH``; a batch raises the first member's
error, in order.
"""

import cmath
import functools
import itertools
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
    "sum_batch",
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
    once. It stays one factor tuple at a time, in Python scalars: numpy's
    complex multiply fuses multiply and add where the CPU can, Python's
    never does, so an array form over many tuples would move bits.
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


class TerminatingPhi:
    """A terminating r+1 phi r series, summed over node arrays in double-double.

    The series is sum_k prod (u; q)_k / ((q; q)_k prod (l; q)_k) z^k, times
    ``scale`` when one is given. Every upper parameter u, lower parameter l
    and the argument z is given by ``mono`` as a constant times a power of
    q and of the node variable e; ``node`` maps a node array to e in
    double-double (``circle_node``, ``segment_node`` or ``sinh_node``). The
    kernel forms every parameter in double-double from the model's own
    doubles, so that the exact relations between them (q^-n against q^n,
    conjugate pairs, shared factors) survive rounding.

    The constructor does the scalar work: the stop, the smallest m with an
    upper parameter free of e equal to q^-m; a PoleError when a lower
    factor free of e vanishes (a test in doubles); and the layout, which
    parameters hold e and which pairs c e, +-c/e on one side fold into one
    factor 1 +- c^2 - c (e +- 1/e). The array constants are formed by the
    first ``sum_batch`` that holds the member and kept on it. ``sum`` is
    the batch of one, and calling the object returns ``sum(x).value``.
    """

    def __init__(self, q, upper, lower, arg, node, scale=None):
        if len(upper) != len(lower) + 1:
            raise DomainError("TerminatingPhi sums r+1 phi r series only")
        free = [math.prod(complex(v) ** k for v, k in factors)
                for factors, e in upper if e == 0]
        stop = _termination_index(QContext(q), free, _MAX_TERMS)
        if stop is None:
            raise DomainError("TerminatingPhi needs an upper parameter q^-m")
        # (q; q)_k counts as one more lower parameter, q
        params = [*upper, *lower, mono(q)]
        e = tuple(p[1] for p in params)
        up = tuple(i < len(upper) for i in range(len(params)))
        self.consts = c = [_monomial(f) for f, _ in (*params, arg)]
        self.powers = [_monomial(((q, k),)) for k in range(stop)]
        for i in range(len(upper), len(params)):
            if not e[i] and any(abs(1.0 - c[i].hi * p.hi) < _POLE_ATOL
                                for p in self.powers):
                raise PoleError("zero denominator factor in TerminatingPhi")
        # each factor holding e as (i, key, upper): 1 - c_i q^k pick[key],
        # or for a folded pair, with c_i the one on e, 1 +- c_i^2 q^2k -
        # c_i q^k pick[key] with key "+" or "-"
        dep, rows = [], [i for i in range(len(params)) if e[i]]
        while rows:
            i = rows.pop(0)
            entry = (i, e[i], up[i])
            for j in rows:
                same = c[j].hi == c[i].hi and c[j].lo == c[i].lo
                opposite = c[j].hi == -c[i].hi and c[j].lo == -c[i].lo
                if e[j] == -e[i] and up[j] == up[i] and (same or opposite):
                    rows.remove(j)
                    entry = (i if e[i] > 0 else j, "+" if same else "-", up[i])
                    break
            dep.append(entry)
        self.stop, self.node, self.scale = stop, node, scale
        self.layout = (node, e, up, tuple(dep), arg[1])
        self.table = None

    def sum(self, x):
        return sum_batch([self], x)[0]

    def __call__(self, x):
        return self.sum(x).value


def sum_batch(members, x):
    """The SeriesResults of TerminatingPhi ``members`` at the nodes x.

    Each run of consecutive members that share a layout is summed in one
    pass, and every member gets the values it gets alone, bit for bit. The
    checks are per member, in order, as one by one: the first member whose
    lower factor vanishes at a node raises PoleError, and the first whose
    condition (the max over the nodes of sum |term| over the max over the
    nodes of |sum term|) times 2^-104 exceeds ``_DD_REACH`` raises
    PrecisionError.
    """
    x = np.asarray(x)
    flat = np.ascontiguousarray(x.reshape(-1))
    out = []
    for _, run in itertools.groupby(members, key=lambda m: m.layout):
        run = list(run)
        fresh = [m for m in run if m.table is None]
        if fresh:
            _form_tables(fresh)
        values, conditions = _sum_run(run, flat)
        for m, value, condition in zip(run, values, conditions):
            value = value.reshape(x.shape)[()]
            if m.scale is not None:
                value = m.scale * value
            out.append(SeriesResult(value, m.stop + 1, 0.0, condition))
    return out


def _owners(stops):
    """Per ragged row, the member it belongs to and its term index there."""
    owner = np.repeat(np.arange(len(stops)), stops)
    start = np.repeat(np.cumsum(stops) - stops, stops)
    return owner, np.arange(len(owner)) - start


def _form_tables(members):
    """The constants of members that share a layout, in one pass.

    They are formed element by element as for each member alone, on a
    (parameters) x (sum of the stops) array, and each member keeps its
    columns: rho_k, the product of its factors free of e; per factor
    holding e its head 1 +- c^2 q^2k if folded, then its coefficient; and
    the argument's constant if the argument holds e.
    """
    _, e, up, dep, arg_e = members[0].layout
    n = len(e)
    consts = [c for m in members for c in m.consts]
    powers = [p for m in members for p in m.powers]
    P = _DD(*(np.array([getattr(c, h) for c in consts]).reshape(-1, n + 1).T
              for h in ("hi", "lo")))
    Q = _DD(*(np.array([getattr(p, h) for p in powers], dtype=complex)
              for h in ("hi", "lo")))
    C = P[:, _owners([m.stop for m in members])[0]]
    coef = C[:n] * Q            # each parameter times q^k
    free = np.array(e) == 0
    top = np.array(up)[free]
    f = _ONE - coef[free]
    cols = [_product(f[top]) / _product(f[~top])]
    if arg_e == 0:
        cols[0] = cols[0] * C[n]
    for i, key, _ in dep:
        if key in ("+", "-"):
            square = coef[i] * coef[i]
            cols.append(_ONE + (square if key == "+" else -square))
        cols.append(coef[i])
    if arg_e:
        cols.append(C[n])
    hi, lo = np.stack([c.hi for c in cols]), np.stack([c.lo for c in cols])
    end = 0
    for m in members:
        m.table = _DD(hi[:, end:end + m.stop], lo[:, end:end + m.stop])
        end += m.stop


def _ratios(members, x, owner):
    """R[k] = term k+1 / term k of members that share a layout, on one
    ragged (sum of the stops) x nodes array."""
    node, e, _, dep, arg_e = members[0].layout
    T = _DD(np.concatenate([m.table.hi for m in members], axis=1),
            np.concatenate([m.table.lo for m in members], axis=1))[:, :, None]
    pick = _mapped(node, x.dtype.str, x.tobytes(),
                   any(s < 0 for s in e) or arg_e < 0)
    num, den, r = T[0], _ONE, 1
    for i, key, upper in dep:
        head = _ONE
        if key in ("+", "-"):
            head, r = T[r], r + 1
        f = head - T[r] * pick[key]
        r += 1
        if upper:
            num = num * f
            continue
        vanish = (np.abs(f.hi) < _POLE_ATOL).any(axis=1)
        if vanish.any():
            # an error of an earlier member comes first, as one by one
            earlier = members[:owner[np.argmax(vanish)]]
            if earlier:
                _sum_run(earlier, x)
            raise PoleError("zero denominator factor in TerminatingPhi")
        den = den * f
    R = num / den
    if arg_e:
        R = R * (T[r] * pick[arg_e])
    return R


def _sum_run(members, x):
    """Values and conditions of members that share a layout, at flat x.

    The ratios are formed and prefix-multiplied on ragged rows; the tree
    sum runs on a (rows) x members x nodes array whose rows, a power of two
    at least the largest stop, are zero past each member's stop. Traps:
    - only ragged rows meet a pole test or a division, so the padding
      raises no spurious PoleError and no RuntimeWarning;
    - every row at or past a member's stop must be an exact zero before
      the tree sum: a pairwise tree with zero rows at the end then gives
      each member its own tree's sum;
    - the condition is each member's own, never the batch's.
    """
    stops = np.array([m.stop for m in members])
    owner, term = _owners(stops)
    R = _ratios(members, x, owner)
    # term k+1 is R[0] ... R[k]: a doubling scan within each member's rows
    K, M = len(members), int(stops.max())
    d = 1
    while d < M:
        rows = np.flatnonzero(term >= d)
        step = R[rows] * R[rows - d]
        R.hi[rows], R.lo[rows] = step.hi, step.lo
        d *= 2
    shape = (1 << (M - 1).bit_length() if M else 0, K, x.size)
    terms = _DD(np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))
    terms.hi[term, owner], terms.lo[term, owner] = R.hi, R.lo
    S = _DD.of(np.ones((K, x.size)))
    if M:
        S = S + _tree(terms, _DD.__add__, 0.0)
    values = S.hi + S.lo
    totals = (1.0 + np.abs(terms.hi).sum(axis=0)).max(axis=1)
    conditions = []
    for m, total, top in zip(members, totals, np.abs(values).max(axis=1)):
        condition = float(total / top) if top > 0.0 else INF
        if condition * _UNIT_DD > _DD_REACH:
            raise PrecisionError(
                f"the series cancels past double-double: condition "
                f"{condition:.3g} at stop {m.stop}")
        conditions.append(condition)
    return values, conditions
