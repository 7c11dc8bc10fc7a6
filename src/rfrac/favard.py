"""Moment functionals from recurrence coefficients.

A functional L is pinned down by a normalization (L[1], and for the
two-point kind the next value N_1) together with the orthogonality of the
rationalized families. On the span those relations fix, L is a finite
discrete measure: the nodes are the zeros of a denominator P_n and the
weights the residues of the convergent Q_n/P_n there, so that
sum_j w_j / (z - x_j) = Q_n(z) / P_n(z). The convergent is a multipoint
rational interpolant of the fraction, which is why the rule is exact on the
span at finite n and not an approximation of an integral. The nodes are
the eigenvalues of a tridiagonal pencil (Zhedanov, "Biorthogonal rational
functions and the generalized eigenvalue problem", J. Approx. Theory 101,
1999). Agreement with a model's measure is a theorem, and the tests treat
it as one.

Normalization: a kind R_I functional has L[1] = lambda_1, or 1 when
lambda_1 = 0; a kind R_II functional has L[1] = N_0 and L[x S_1] = N_1,
both given by the caller. Powers and prefixes are read off rules of at
most ``_MAX_DEPTH`` + 1 points, and no descriptor index may pass
``_MAX_DEPTH``.

The type-II Favard normalization is N_0 = kappa_1 and N_1 = kappa_1 - 1,
with kappa_j the tails of the lambda fraction t_n = lambda_n / (1 - t_{n+1}).
``kappa_tails`` sweeps that fraction backward from a seed at depths
40, 80, 160, ...: the frozen tail root where lambda_n tends to a limit
other than 1/4, and the second-order seed 1/2 + beta/n where lambda_n
tends to 1/4 like 1/4 - mu/n^2. In the second case the sweeps converge
only like depth^-(s+1), s = sqrt(1 + 16 mu), and Richardson extrapolation
with exponents s+1, s+2, ... finishes the job. It stops when the worst of
the requested tails has settled to 1e-12 relative.
"""

import cmath
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, OutOfSpanError
from .recurrence import R_I, R_II, RecurrenceSpec, _tail_root

__all__ = [
    "MomentFunctional",
    "build_RI",
    "build_RII",
    "kappa_tails",
    "functional_apply",
]

# two interpolation points, or a node and a pole, count as equal within this
_PT_TOL = 1e-12
# deepest power or prefix evaluated; the rule is checked this deep, and at
# 40 points it loses digits where the points a_k, b_k grow like q^{-n}
_MAX_DEPTH = 20
# kappa_tails: first depth, relative tolerance, number of depths tried
_KAPPA_DEPTH = 40
_KAPPA_TOL = 1e-12
_KAPPA_LEVELS = 8


class PencilRule(NamedTuple):
    """The n-point rule of the convergent Q_n / P_n.

    nodes and weights satisfy sum_j w_j / (z - x_j) = Q_n(z) / P_n(z).
    inv_a[j, i] = prod_{k=2}^{i+1} (x_j - a_k)^{-1} for i = 0..n-1, and
    inv_b the same over the b points (None for kind R_I).
    """

    nodes: np.ndarray
    weights: np.ndarray
    inv_a: np.ndarray
    inv_b: np.ndarray


class MomentFunctional:
    """The functional of one recurrence family and its cached rules.

    The span is what the normalization and the orthogonality relations
    fix: the values L[x^k R_n] or L[x^k S_n], and the inverse prefixes
    L[prod_{i=2}^{j+1} (x - a_i)^{-1}] (times prod_{i=2}^{k+1} (x - b_i)^{-1}
    for kind R_II), plus the powers L[x^k] for kind R_I. A prefix or power
    of depth d is read off the n-point rule of the convergent Q_n/P_n with
    n = d + 1. Each rule is built once and kept, so a value does not depend
    on what was asked before it.
    """

    def __init__(self, kind, spec, lam1=None, N0=None, N1=None):
        self.kind = kind
        self.spec = spec
        # R_I: lam1 lam_2 ... lam_{n+1}; R_II: N_n
        self.norms = ([complex(lam1)] if kind == R_I
                      else [complex(N0), complex(N1)])
        self.basis_values = {}   # descriptor -> value
        self._rules = {}         # n -> the n-point PencilRule
        self._read = {}          # map name -> its values read so far

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

    def rule(self, depth):
        """The depth + 1 point PencilRule, exact on prefixes and powers up
        to depth."""
        n = depth + 1
        if n not in self._rules:
            self._rules[n] = _pencil_rule(*self._coefficients(n))
        return self._rules[n]

    def _coefficients(self, n):
        """c_1..c_n, then lambda_k, a_k and b_k (None for kind R_I) for
        k = 2..n, as arrays. Each map is read once per index: the values
        read so far are kept, and extended only when a deeper rule asks."""
        names = ("c", "lam", "a") + (("b",) if self.kind == R_II else ())
        out = []
        for name in names:
            first = 1 if name == "c" else 2
            vals = self._read.setdefault(name, [])
            f = getattr(self.spec, name)
            vals.extend(f(m) for m in range(first + len(vals), n + 1))
            out.append(np.array(vals[:n + 1 - first], dtype=complex))
        return out if self.kind == R_II else out + [None]


def _pencil_rule(c, lam, a, b):
    """The n-point PencilRule of a recurrence, n = len(c).

    c holds c_1..c_n; lam, a and b hold lambda_k, a_k and b_k for
    k = 2..n, and b is None for kind R_I.

    Dividing out the interpolation factors, u_m = P_m / prod_{k=2}^{m+1}
    (z - a_k), makes the recurrence linear in z:

        (z - a_{m+1}) u_m = (z - c_m) u_{m-1} - lambda_m (z - b_m) u_{m-2},

    without the factor (z - b_m) for kind R_I. Rows m = 1..n read
    (zK - J) u = 0 with tridiagonal K and J, and det(zK - J) = +-P_n(z), so
    the nodes are the eigenvalues of K^{-1} J. K is singular exactly when
    the leading coefficient of P_n vanishes.

    One Newton step on P_n polishes each node, and the weight is the
    residue Q_n / P_n' there, both from the recurrence divided through by
    prod_{k=2}^{n} (x - a_k). The weight then carries the same rounded
    factors (x_j - a_k) that a prefix divides by again, so they cancel; the
    eigenvector form -V[0, j] (V^{-1} K^{-1} e_1)_j loses those digits
    where a node sits close to a pole.
    """
    n = len(c)
    K = -np.eye(n) + np.eye(n, k=1) + (0 if b is None else np.diag(lam, -1))
    J = -np.diag(c) + np.diag(a, 1) + np.diag(-lam if b is None else lam * b, -1)
    try:
        x = np.linalg.eigvals(np.linalg.solve(K, J))
    except np.linalg.LinAlgError:
        raise OutOfSpanError(
            f"the {n}-point rule is singular: P_{n} has lost its leading "
            "coefficient") from None
    poles = a if b is None else np.concatenate((a, b))
    if np.any(np.abs(x[:, None] - poles)
              <= _PT_TOL * np.maximum(1.0, np.abs(poles))):
        raise OutOfSpanError(f"a node of the {n}-point rule sits on a pole")
    with np.errstate(all="ignore"):   # overflow shows up as inf
        p, dp, _ = _divided_recurrence(x, c, lam, a, b)
        x = x - p / dp
        _, dp, q = _divided_recurrence(x, c, lam, a, b)
        w = q / dp

        def prefixes(pts):
            gaps = np.hstack((np.ones((n, 1)), x[:, None] - pts))
            return np.cumprod(1.0 / gaps, axis=1)

        inv_b = None if b is None else prefixes(b)
        rule = PencilRule(x, w, prefixes(a), inv_b)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise OutOfSpanError(f"the {n}-point rule is not finite")
    return rule


def _divided_recurrence(x, c, lam, a, b):
    """P_n, P_n' and Q_n at x, each divided by prod_{k=2}^{n} (x - a_k).

    c holds c_1..c_n; lam, a and b hold lambda_k, a_k and b_k for
    k = 2..n, and b is None for kind R_I.
    """
    u0, u1 = np.ones_like(x), x - c[0]            # P_{m-2}, P_{m-1}
    d0, d1 = np.zeros_like(x), np.ones_like(x)    # their derivatives
    v0, v1 = np.zeros_like(x), np.ones_like(x)    # Q_{m-2}, Q_{m-1}
    for i in range(len(a)):                       # level m = i + 2
        den = x - a[i]
        u1 = u1 / den
        d1 = (d1 - u1) / den
        v1 = v1 / den
        s = x - c[i + 1]
        g, dg = (1.0, 0.0) if b is None else (x - b[i], 1.0)
        lg = lam[i] * g
        u0, u1, d0, d1, v0, v1 = (
            u1, s * u1 - lg * u0,
            d1, u1 + s * d1 - lam[i] * dg * u0 - lg * d0,
            v1, s * v1 - lg * v0)
    return u1, d1, v1


def build_RI(spec):
    """Functional for the one-point kind, normalized by L[1] = lambda_1.

    When the family starts with lambda_1 = 0 (the fraction never uses it)
    the normalization is a free choice and L[1] = 1 is adopted, matching a
    unit-mass measure.
    """
    if spec.kind != R_I:
        raise DomainError("build_RI needs a kind R_I recurrence")
    lam1 = complex(spec.lam(1))
    return MomentFunctional(R_I, spec, lam1=lam1 if lam1 != 0.0 else 1.0)


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

    The tails t_n = lambda_n / (1 - t_{n+1}), n >= 2, give kappa_1 =
    1 / (1 - t_2) and kappa_n = t_n. They are the ratios of the minimal
    solution of N_n = N_{n-1} - lambda_n N_{n-2}, the recurrence of the
    leading coefficients of P_n. Each sweep starts at depth D from a seed
    for t_D and runs down to n = 2; D doubles from _KAPPA_DEPTH, and each
    lambda_n is read once. The seed follows from mu_D = (1/4 - lambda_D) D^2:

    - lambda_D = 0 ends the fraction there, and the seed is 0.
    - |mu_D| >= D (lambda_n tends to some L != 1/4): the frozen tail root,
      the smaller root of t^2 - t + lambda_D = 0 (recurrence._tail_root).
      Its error decays like the tail's own geometric rate. Roots tied in
      modulus (lambda_n -> L > 1/4 real) leave no minimal solution and
      raise ConvergenceError.
    - |mu_D| < D (lambda_n -> 1/4 like 1/4 - mu / n^2): the second-order
      seed 1/2 + beta / D, beta = (1 - sqrt(1 + 16 mu_D)) / 4, exact for
      lambda == 1/4. The fixed point is neutral, so the error of a sweep
      decays only like D^-(s+1), s = sqrt(1 + 16 mu), with corrections in
      D^-(s+2), D^-(s+3), ... Richardson extrapolation on the doubling
      ladder removes them in turn; s comes from mu_infinity, itself
      Richardson-extrapolated from the mu_D of the ladder with exponents
      1, 2, ... A change of seed kind restarts the ladder.

    The depth doubles until the worst of the jmax estimates moves by at
    most _KAPPA_TOL * max(1, |kappa_j|) from the level before. For s
    below about 0.9, rounding (amplified like D^(1-s)) keeps the estimates
    from settling, and ConvergenceError is raised instead of a rough value.
    """
    if jmax < 1:
        raise DomainError("jmax must be at least 1")
    lams = [0.0, 0.0]   # lambda_n at index n; the sweeps start at n = 2
    # N_n = N_{n-1} - lambda_n N_{n-2} is the kind R_I recurrence with
    # c = a = 0 at z = 1; its tail root reads the lambda_n already read
    leading = RecurrenceSpec(R_I, c=_zero, lam=lams.__getitem__, a=_zero)
    rows, mus = [], []   # the parabolic ladder, reset on a change of seed
    prev = None
    D = max(_KAPPA_DEPTH, jmax + 2)
    for _ in range(_KAPPA_LEVELS):
        lams.extend(complex(spec.lam(n)) for n in range(len(lams), D + 1))
        mu = (0.25 - lams[D]) * D * D
        if lams[D] != 0.0 and abs(mu) < D:
            beta = (1.0 - cmath.sqrt(1.0 + 16.0 * mu)) / 4.0
            rows.append(_tail_sweep(lams, D, 0.5 + beta / D, jmax))
            mus.append([mu])
            s = cmath.sqrt(1.0 + 16.0 * _richardson(mus, 1.0)[0])
            est = _richardson(rows, s + 1.0)
        else:
            seed = _tail_root(leading, 1.0, D)[0] if lams[D] != 0.0 else 0.0
            rows, mus = [], []
            est = _tail_sweep(lams, D, seed, jmax)
        if prev is not None:
            err = max(abs(e - p) / max(1.0, abs(e)) for e, p in zip(est, prev))
            if err <= _KAPPA_TOL:
                return est
        prev = est
        D *= 2
    raise ConvergenceError(
        f"kappa tails did not settle by depth {D // 2}")


def _zero(n):
    return 0.0


def _tail_sweep(lams, D, t, jmax):
    """kappa_1..kappa_jmax from the seed t = t_D, swept down to t_2."""
    kap = []   # t_jmax, ..., t_2, then kappa_1
    for n in range(D - 1, 1, -1):
        t = lams[n] / _tail_denominator(t)
        if n <= jmax:
            kap.append(t)
    kap.append(1.0 / _tail_denominator(t))
    return kap[::-1]


def _tail_denominator(t):
    den = 1.0 - t
    if den == 0.0:
        raise ConvergenceError("tail fraction hit a zero denominator")
    return den


def _richardson(rows, p):
    """Extrapolate rows at depths D, 2D, 4D, ... to D = infinity.

    The error of a row is taken to expand in D^-p, D^-(p+1), ...; the
    last row of the table, one term removed per column, is returned.
    """
    tab = [list(r) for r in rows]
    for j in range(1, len(tab)):
        f = 2.0 ** (p + j - 1)
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = [(f * x - y) / (f - 1.0)
                      for x, y in zip(tab[i], tab[i - 1])]
    return tab[-1]


# -- functional evaluation ------------------------------------------------

# descriptor tag -> number of integer indices, per kind
_DESCRIPTORS = {
    R_I: {"power_times_R": 2, "power": 1, "inverse_prefix": 1},
    R_II: {"power_times_S": 2, "inverse_prefix": 2},
}


def functional_apply(fn, basis):
    """Evaluate the functional on a basis descriptor.

    Descriptors:
      ("power_times_R", k, n)   L[x^k R_n]           (kind R_I)
      ("power_times_S", k, n)   L[x^k S_n]           (kind R_II)
      ("power", k)              L[x^k]               (kind R_I only)
      ("inverse_prefix", j)     L[ prod_{i=2}^{j+1} (x-a_i)^{-1} ]      (R_I)
      ("inverse_prefix", j, k)  L[ prod (x-a_i)^{-1} prod (x-b_i)^{-1} ] (R_II)
      list of (coeff, descriptor) pairs for a linear combination

    L[x^k R_n] and L[x^k S_n] are 0 below the diagonal and the norm on it.
    A power or prefix of depth d = max(indices) >= 1 is the sum of the rule
    of n = d + 1 points (MomentFunctional.rule), times L[1] for kind R_I
    and N_0 - N_1 for kind R_II; every depth-0 descriptor is L[1].
    The factor N_0 - N_1 holds because evaluation at infinity meets every
    two-point relation with N_n = lead(P_n), and vanishes on every prefix
    of depth >= 1. A malformed descriptor, an index past _MAX_DEPTH (the
    norm descriptors' n included, so no norm recursion runs that far), a
    singular rule, a node on one of the rule's points a_k or b_k, or a
    value outside the span raises OutOfSpanError.
    """
    if isinstance(basis, list):
        return sum(c * functional_apply(fn, d) for c, d in basis)
    _check_descriptor(fn, basis)
    if basis in fn.basis_values:
        return fn.basis_values[basis]
    val = _apply(fn, basis)
    fn.basis_values[basis] = val
    return val


def _check_descriptor(fn, key):
    """A tag of the kind followed by its number of nonnegative ints."""
    arities = _DESCRIPTORS[fn.kind]
    ok = (isinstance(key, tuple) and key and isinstance(key[0], str)
          and len(key) == 1 + arities.get(key[0], -1))
    if not ok or not all(isinstance(i, Integral) and not isinstance(i, bool)
                         and i >= 0 for i in key[1:]):
        raise OutOfSpanError(
            f"{key!r} is not a descriptor of kind {fn.kind}: the tags and "
            f"their counts of nonnegative int indices are {arities}")


def _apply(fn, key):
    tag, idx = key[0], key[1:]
    depth = max(idx)
    if depth > _MAX_DEPTH:
        raise OutOfSpanError(
            f"{key!r} has depth {depth}, past the cap of {_MAX_DEPTH}")
    if tag in ("power_times_R", "power_times_S"):
        k, n = idx
        if k > n:
            raise OutOfSpanError(
                f"x^{k} times the degree-{n} rational is outside the span")
        return fn.norm(n) if k == n else 0.0 + 0.0j
    if depth == 0:
        return fn.norm(0)
    scale = fn.norm(0) if fn.kind == R_I else fn.norm(0) - fn.norm(1)
    r = fn.rule(depth)
    with np.errstate(all="ignore"):   # overflow shows up as inf
        if tag == "power":
            val = r.weights @ r.nodes ** depth
        elif fn.kind == R_I:
            val = r.weights @ r.inv_a[:, idx[0]]
        else:
            val = (r.weights * r.inv_a[:, idx[0]]) @ r.inv_b[:, idx[1]]
        val = complex(scale * val)
    if not np.isfinite(val):
        raise OutOfSpanError(f"{key!r} overflows the rule's sum")
    return val
