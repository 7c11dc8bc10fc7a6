"""q-series building blocks.

Shifted factorials, q-shifted factorials, classical and basic hypergeometric
sums, the very well poised series, and a Lanczos gamma. Infinite products
stop once the running factor is within ``_PRODUCT_EPS`` of 1; basic series
stop once a geometric tail estimate falls below ``_SERIES_EPS`` relative to
the partial sum, and raise DivergenceError after ``_MAX_TERMS`` terms;
hyper_2f1 uses ``_HYPER_2F1_EPS`` and ``_HYPER_2F1_MAX_TERMS`` instead.
These are module constants, so every caller truncates the same way; a
QContext carries only the base q.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, PoleError

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
    """Value of a truncated sum plus the bookkeeping behind the truncation."""

    value: complex
    terms_used: int
    tail_bound: float


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
