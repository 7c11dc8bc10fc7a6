"""Moment functionals built recursively from recurrence coefficients.

A functional L is pinned down by a normalization (L[1], and for the
two-point kind the next value N_1) together with the orthogonality of the
rationalized families. Everything else it can evaluate (rational moments,
tail products, inverse interpolation factors) follows by a finite recursion,
which is what this module implements. No integral is ever computed here;
agreement with quadrature is a theorem, and the tests treat it as one.
"""

from .errors import ConvergenceError, DomainError, OutOfSpanError
from .recurrence import R_I, R_II

__all__ = [
    "MomentFunctional",
    "build_RI",
    "build_RII",
    "kappa_tails",
    "functional_apply",
]

# two interpolation points count as equal within this
_PT_TOL = 1e-12
# kappa_tails: first depth, relative tolerance, most depth doublings
_KAPPA_DEPTH = 400
_KAPPA_TOL = 1e-12
_KAPPA_LEVELS = 8


def _pmul_linear(p, r):
    """Coefficients of (x - r) * p(x), ascending order."""
    out = [0.0 + 0.0j] * (len(p) + 1)
    for i, ci in enumerate(p):
        out[i] -= r * ci
        out[i + 1] += ci
    return out


def _padd(p, q, scale=1.0):
    out = list(p) + [0.0 + 0.0j] * max(0, len(q) - len(p))
    for i, ci in enumerate(q):
        out[i] += scale * ci
    return out


def _peval(p, x):
    v = 0.0 + 0.0j
    for ci in reversed(p):
        v = v * x + ci
    return v


def _lead(p, degree):
    """Coefficient of x^degree; the stored lists may carry padding zeros."""
    return p[degree] if degree < len(p) else 0.0 + 0.0j


def _pdivmod_monic(p, d):
    """Divide p by a monic polynomial d; returns (quotient, remainder)."""
    rem = list(p)
    dd = len(d) - 1
    if dd == 0:
        return list(rem), [0.0 + 0.0j]
    quot = [0.0 + 0.0j] * max(1, len(p) - dd)
    for i in range(len(p) - 1, dd - 1, -1):
        coef = rem[i]
        quot[i - dd] = coef
        if coef != 0.0:
            for j in range(dd + 1):
                rem[i - dd + j] -= coef * d[j]
    return quot, rem[:dd]


def _newton_coeffs(p, nodes):
    """Expand p over 1, (x-r_1), (x-r_1)(x-r_2), ... for nodes r_1, r_2, ...

    Returned list has len(nodes)+1 entries; classic repeated synthetic
    division, valid for repeated nodes too.
    """
    work = list(p)
    out = []
    for r in nodes:
        rem = 0.0 + 0.0j
        for i in range(len(work) - 1, -1, -1):
            rem = work[i] + r * rem
            work[i] = rem
        out.append(work[0])
        # dropping the remainder slot leaves the quotient coefficients
        work = work[1:] if len(work) > 1 else [0.0 + 0.0j]
    out.append(work[0] if work else 0.0 + 0.0j)
    return out


class MomentFunctional:
    """State of the recursive construction for one recurrence family."""

    def __init__(self, kind, spec, lam1=None, N0=None, N1=None):
        self.kind = kind
        self.spec = spec
        self.norms = []          # R_I: lam1 lam_2 ... lam_{n+1}; R_II: N_n
        self.basis_values = {}   # descriptor -> value
        if kind == R_I:
            self.norms.append(complex(lam1))
        else:
            self.norms.append(complex(N0))
            self.norms.append(complex(N1))
        # caches for the rational-moment recursions
        self._poly = [[1.0 + 0.0j]]        # P_0, P_1, ... coefficient lists
        self._poly_prev = [0.0 + 0.0j]     # P_{-1}
        self._nu = None                    # R_I prefix-inverse moments
        self._pow = None                   # R_I power moments
        self._alpha = None                 # R_II single-pole moments, a side
        self._beta = None                  # R_II single-pole moments, b side

    def norm(self, n):
        """R_I: lam1 lam_2 ... lam_{n+1}. R_II: N_n."""
        while len(self.norms) <= n:
            m = len(self.norms)
            if self.kind == R_I:
                self.norms.append(self.norms[m - 1] * self.spec.lam_checked(m + 1))
            else:
                self.norms.append(
                    self.norms[m - 1] - self.spec.lam_checked(m) * self.norms[m - 2])
        return self.norms[n]

    def poly(self, n):
        """Coefficients of the denominator polynomial P_n, ascending."""
        while len(self._poly) <= n:
            m = len(self._poly)
            prev = self._poly[m - 1]
            prev2 = self._poly[m - 2] if m >= 2 else self._poly_prev
            term = _pmul_linear(prev, self.spec.c(m))
            sub = _pmul_linear(prev2, self.spec.a(m))
            if self.kind == R_II:
                sub = _pmul_linear(sub, self.spec.b(m))
            self._poly.append(_padd(term, sub, -self.spec.lam(m)))
        return self._poly[n]

    def apoints(self, n):
        return [complex(self.spec.a(j)) for j in range(2, n + 2)]

    def bpoints(self, n):
        return [complex(self.spec.b(j)) for j in range(2, n + 2)]


def build_RI(spec, lam1=None):
    """Functional for the one-point kind, normalized by L[1] = lambda_1.

    When the family starts with lambda_1 = 0 (the fraction never uses it)
    the normalization is a free choice and lambda_1 = 1 is adopted, matching
    a unit-mass measure. Pass lam1 to override.
    """
    if spec.kind != R_I:
        raise DomainError("build_RI needs a kind R_I recurrence")
    if lam1 is None:
        lam1 = complex(spec.lam(1))
        if lam1 == 0.0:
            lam1 = 1.0 + 0.0j
    if lam1 == 0.0:
        raise DomainError("lambda_1 must be nonzero for the normalization")
    return MomentFunctional(R_I, spec, lam1=lam1)


def build_RII(spec, N0, N1):
    """Functional for the two-point kind, normalized by N_0 = L[1] and N_1."""
    if spec.kind != R_II:
        raise DomainError("build_RII needs a kind R_II recurrence")
    c1 = complex(spec.c(1))
    for pt, tag in ((spec.a(2), "a_2"), (spec.b(2), "b_2")):
        if abs(complex(pt) - c1) <= _PT_TOL * max(1.0, abs(c1)):
            raise DomainError(
                f"{tag} = c_1 makes the first rational moment indeterminate")
    return MomentFunctional(R_II, spec, N0=N0, N1=N1)


def kappa_tails(spec, jmax):
    """Tail values kappa_j, j = 1..jmax, of the lambda continued fraction.

    Bottom-up sweeps with zero seed at a ladder of doubling depths.
    Families whose lambda_n approach 1/4 put the tail at a neutral fixed
    point, where the raw truncation error decays only like 1/depth, far too
    slow for the 1e-12 target; Neville extrapolation in 1/depth across the
    ladder removes that obstruction while keeping the plain sweep intact.
    """
    if jmax < 1:
        raise DomainError("jmax must be at least 1")
    lam = spec.lam

    def sweep(D):
        t = 0.0 + 0.0j
        kap = [0.0 + 0.0j] * (jmax + 2)
        for n in range(D, 1, -1):
            den = 1.0 - t
            if den == 0.0:
                raise ConvergenceError("tail fraction hit a zero denominator")
            t = complex(lam(n)) / den
            if n <= jmax + 1:
                kap[n] = t
        den = 1.0 - kap[2]
        if den == 0.0:
            raise ConvergenceError("kappa_1 denominator vanished")
        kap[1] = 1.0 / den
        return kap[1:jmax + 1]

    rows = []
    hs = []
    est_prev = None
    D = max(_KAPPA_DEPTH, jmax + 2)
    for _ in range(_KAPPA_LEVELS):
        rows.append(sweep(D))
        hs.append(1.0 / D)
        est = _neville_last(hs, rows)
        if est_prev is not None:
            err = max(
                abs(e - p) / max(1.0, abs(e)) for e, p in zip(est, est_prev))
            if err <= _KAPPA_TOL:
                return est
        est_prev = est
        D *= 2
    raise ConvergenceError(
        f"kappa tails did not stabilize within {_KAPPA_LEVELS} depth doublings")


def _neville_last(hs, rows):
    """Neville extrapolation to h = 0, vectorized over the tail index."""
    m = len(hs)
    width = len(rows[0])
    tab = [list(r) for r in rows]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            den = hs[i] - hs[i - j]
            for k in range(width):
                tab[i][k] = (-hs[i - j] * tab[i][k] + hs[i] * tab[i - 1][k]) / den
    return tab[m - 1]


# -- functional evaluation ------------------------------------------------


def functional_apply(fn, basis):
    """Evaluate the functional on a basis descriptor.

    Descriptors:
      ("power_times_R", k, n)   L[x^k R_n]           (kind R_I)
      ("power_times_S", k, n)   L[x^k S_n]           (kind R_II)
      ("power", k)              L[x^k]               (kind R_I only)
      ("inverse_prefix", j)     L[ prod_{i=2}^{j+1} (x-a_i)^{-1} ]      (R_I)
      ("inverse_prefix", j, k)  L[ prod (x-a_i)^{-1} prod (x-b_i)^{-1} ] (R_II)
      list of (coeff, descriptor) pairs for a linear combination

    Values outside the span fixed by the construction raise OutOfSpanError.
    """
    if isinstance(basis, list):
        return sum(c * functional_apply(fn, d) for c, d in basis)
    key = tuple(basis)
    if key in fn.basis_values:
        return fn.basis_values[key]
    val = _apply(fn, key)
    fn.basis_values[key] = val
    return val


def _apply(fn, key):
    tag = key[0]
    if tag in ("power_times_R", "power_times_S"):
        want = "power_times_R" if fn.kind == R_I else "power_times_S"
        if tag != want:
            raise OutOfSpanError(f"{tag} does not apply to kind {fn.kind}")
        _, k, n = key
        if k < 0 or n < 0:
            raise OutOfSpanError("indices must be nonnegative")
        if k > n:
            raise OutOfSpanError(
                f"x^{k} times the degree-{n} rational is outside the span")
        if k < n:
            return 0.0 + 0.0j
        return fn.norm(n)
    if tag == "power":
        if fn.kind != R_I:
            raise OutOfSpanError("pure powers are outside the two-point span")
        _, k = key
        if k < 0:
            raise OutOfSpanError("power must be nonnegative")
        return _ri_power_moment(fn, k)
    if tag == "inverse_prefix":
        if fn.kind == R_I:
            if len(key) != 2:
                raise OutOfSpanError("the one-point prefix takes one depth")
            return _ri_prefix_moment(fn, key[1])
        if len(key) != 3:
            raise OutOfSpanError("the two-point prefix takes two depths")
        return _rii_prefix_moment(fn, key[1], key[2])
    raise OutOfSpanError(f"unknown basis descriptor {key!r}")


def _ri_prefix_moment(fn, j):
    """nu_j = L[1 / prod_{i=2}^{j+1}(x - a_i)].

    L[P_n / prod] = 0 expands P_n over the products of its trailing
    factors, turning each orthogonality relation into one new prefix
    moment. Repeated interpolation points cost nothing here.
    """
    if j < 0:
        raise OutOfSpanError("prefix depth must be nonnegative")
    if fn._nu is None:
        fn._nu = [fn.norm(0)]
    nu = fn._nu
    while len(nu) <= j:
        n = len(nu)
        nodes = list(reversed(fn.apoints(n)))   # a_{n+1}, a_n, ..., a_2
        delta = _newton_coeffs(fn.poly(n), nodes)
        # delta[m] multiplies the inverse prefix of depth n-m
        pivot = delta[0]                        # = P_n(a_{n+1})
        if pivot == 0.0:
            raise OutOfSpanError(
                f"P_{n} vanishes at its interpolation point; prefix moments "
                "beyond this level are not determined")
        acc = 0.0 + 0.0j
        for m in range(1, n + 1):
            acc += delta[m] * nu[n - m]
        nu.append(-acc / pivot)
    return nu[j]


def _ri_power_moment(fn, k):
    """L[x^k] from L[x^k R_k] = norm(k) after splitting off the poles."""
    if fn._pow is None:
        fn._pow = [fn.norm(0)]
    pw = fn._pow
    while len(pw) <= k:
        n = len(pw)
        num = fn.poly(n)
        for _ in range(n):
            num = _pmul_linear(num, 0.0)     # x^n P_n
        den = [1.0 + 0.0j]
        for r in fn.apoints(n):
            den = _pmul_linear(den, r)
        quot, rem = _pdivmod_monic(num, den)
        # quot is monic of degree n; its lead multiplies the wanted moment
        acc = 0.0 + 0.0j
        for i in range(n):
            acc += quot[i] * pw[i]
        nodes = list(reversed(fn.apoints(n)))
        delta = _newton_coeffs(rem, nodes)
        pole = sum(delta[m] * _ri_prefix_moment(fn, n - m) for m in range(n + 1))
        pw.append(fn.norm(n) - acc - pole)
    return pw[k]


def _rii_single_pole(fn, n):
    """alpha_n = L[1/(x - a_{n+1})] and beta_n = L[1/(x - b_{n+1})].

    Solved two at a time from the k = n-1, n orthogonality relations of
    level n; all points through that level must be distinct simple poles.
    The coincident pair a_2 = b_2 is handled by the double-pole branch of
    _rii_prefix_moment instead.
    """
    if fn._alpha is None:
        fn._alpha = [None]
        fn._beta = [None]
    al, be = fn._alpha, fn._beta
    while len(al) <= n:
        m = len(al)
        apts = fn.apoints(m)
        bpts = fn.bpoints(m)
        pts = apts + bpts
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= _PT_TOL * max(1.0, abs(pts[i])):
                    raise OutOfSpanError(
                        "repeated interpolation points support only the "
                        "first-level moments")
        p = fn.poly(m)
        # the two-point polynomials are not monic: x^m P_m over the level-m
        # denominator tends to the leading coefficient of P_m at infinity
        rhs = [0.0 + 0.0j, fn.norm(m) - _lead(p, m) * fn.norm(0)]
        mat = [[0.0 + 0.0j, 0.0 + 0.0j], [0.0 + 0.0j, 0.0 + 0.0j]]
        for row, k in enumerate((m - 1, m)):
            for side, mypts, otherpts, cache in (
                    (0, apts, bpts, al), (1, bpts, apts, be)):
                for idx, r in enumerate(mypts):
                    res = r**k * _peval(p, r)
                    for i, s in enumerate(mypts):
                        if i != idx:
                            res /= r - s
                    for s in otherpts:
                        res /= r - s
                    if idx == m - 1:
                        mat[row][side] = res
                    else:
                        rhs[row] -= res * cache[idx + 1]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det == 0.0:
            raise OutOfSpanError(
                f"level {m} moment system is singular; points degenerate")
        al.append((rhs[0] * mat[1][1] - rhs[1] * mat[0][1]) / det)
        be.append((mat[0][0] * rhs[1] - mat[1][0] * rhs[0]) / det)
    return al[n], be[n]


def _rii_prefix_moment(fn, ja, jb):
    """L over the product of the first ja a-factors and jb b-factors."""
    if ja < 0 or jb < 0:
        raise OutOfSpanError("prefix depths must be nonnegative")
    if ja == 0 and jb == 0:
        return fn.norm(0)
    c1 = complex(fn.spec.c(1))
    a2 = complex(fn.spec.a(2))
    b2 = complex(fn.spec.b(2))
    coincident = abs(a2 - b2) <= _PT_TOL * max(1.0, abs(a2))
    if coincident:
        if (ja, jb) == (1, 1):
            # double pole: second orthogonality relation gives it directly
            return (fn.norm(0) - fn.norm(1)) / (a2 - c1) ** 2
        if (ja, jb) in ((1, 0), (0, 1)):
            return (fn.norm(1) - fn.norm(0)) / (a2 - c1)
        raise OutOfSpanError(
            "coincident a_2 = b_2 supports only the first-level moments")
    if (ja, jb) == (1, 0):
        return (fn.norm(1) - fn.norm(0)) / (a2 - c1)
    if (ja, jb) == (0, 1):
        return (fn.norm(1) - fn.norm(0)) / (b2 - c1)
    # general distinct-point case: partial fractions over single poles
    apts = fn.apoints(ja)
    bpts = fn.bpoints(jb)
    out = 0.0 + 0.0j
    for side, mypts, otherpts in ((0, apts, bpts), (1, bpts, apts)):
        for idx, r in enumerate(mypts):
            coef = 1.0 + 0.0j
            for i, s in enumerate(mypts):
                if i != idx:
                    d = r - s
                    if d == 0.0:
                        raise OutOfSpanError(
                            "repeated interpolation points in the prefix")
                    coef /= d
            for s in otherpts:
                d = r - s
                if d == 0.0:
                    raise OutOfSpanError(
                        "interpolation points of the two sides collide")
                coef /= d
            a_val, b_val = _rii_single_pole(fn, idx + 1)
            out += coef * (a_val if side == 0 else b_val)
    return out
