"""The three workloads: set-up with references, the timed task, the check.

Each workload turns a generated input item into a prepared task in
``prepare`` (everything counted in set-up: the model, the reference
values), runs the library on it in ``run`` (the timed part, returning
plain values), and scores those values against the reference in
``check``, which returns the task's worst relative error.
"""

import math

import numpy as np

from . import refquad


def rel_err(got, want):
    got, want = complex(got), complex(want)
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)


def all_finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=complex))))


class Task:
    """A prepared input: the instantiated model plus its reference values."""

    def __init__(self, item, model, ref):
        self.item = item
        self.model = model
        self.ref = ref

    @property
    def name(self):
        return self.item["model"]


class Gram:
    """N = 8 Gram matrix of the biorthogonal pair against its pairing."""

    name = "gram"

    def __init__(self, spec):
        self.order = spec["workloads"]["gram"]["order"]
        self.tol = spec["workloads"]["gram"]["tolerance"]

    def prepare(self, rf, item):
        model = rf.instantiate(item["model"], item["params"])
        fam = rf.biorth(model)
        return Task(item, model, [complex(fam.norm(i)) for i in range(self.order)])

    def run(self, rf, task):
        fam = rf.biorth(task.model)
        pairing = fam.pairing if fam.pairing is not None else task.model.measure
        return rf.weighted_gram(pairing, fam.left, fam.right, self.order)

    def check(self, task, G):
        if not all_finite(G):
            return None
        h = task.ref
        worst = 0.0
        for i in range(self.order):
            for j in range(self.order):
                if i == j:
                    err = rel_err(G[i, i], h[i])
                else:
                    err = abs(G[i, j]) / math.sqrt(abs(h[i] * h[j]))
                worst = max(worst, err)
        return worst


class Fraction:
    """Continued fraction, closed minimal solution, backward sweep, convergents."""

    name = "fraction"

    def __init__(self, spec):
        cfg = spec["workloads"]["fraction"]
        self.window = cfg["window"]
        self.order = cfg["convergents"]
        self.tol = cfg["tolerance"]

    def prepare(self, rf, item):
        model = rf.instantiate(item["model"], item["params"])
        z = complex(*item["z"])
        cf = complex(model.cf_value(z))
        xs = [complex(model.minimal(n, z)) for n in range(self.window + 1)]
        return Task(item, model, (z, cf, [x / xs[0] for x in xs]))

    def run(self, rf, task):
        m = task.model
        z = task.ref[0]
        cf = m.cf_value(z)
        xs = [m.minimal(n, z) for n in range(self.window + 1)]
        est = rf.minimal_solution_backward(m.spec, z, window=self.window)
        conv = rf.convergents(m.spec, z, self.order)
        res = rf.pincherle_residual(m.spec, z, cf, est)
        return {"cf": cf, "minimal": xs, "window": list(est.values),
                "ratio_at_0": est.ratio_at_0, "start": est.start,
                "convergent": conv[-1], "residual": res}

    def check(self, task, v):
        flat = [v["cf"], v["ratio_at_0"], v["convergent"], v["residual"]]
        flat += v["minimal"] + v["window"]
        if not all_finite(flat):
            return None
        _, cf, ratios = task.ref
        errs = [rel_err(v["cf"], cf), rel_err(v["ratio_at_0"], cf),
                rel_err(v["convergent"], cf)]
        x0 = v["minimal"][0]
        for n, want in enumerate(ratios):
            errs.append(rel_err(v["window"][n], want))
            errs.append(rel_err(v["minimal"][n] / x0, want))
        return max(errs)


def _prefix_rows(t, points):
    """Rows 1 / prod_{i < j} (t - points[i]) for j = 0..len(points)."""
    rows = [np.ones_like(t)]
    for p in points:
        rows.append(rows[-1] / (t - p))
    return np.array(rows)


class Moments:
    """A fresh moment functional and every descriptor in its span."""

    name = "moments"

    def __init__(self, spec):
        self.spec = spec
        self.tol = spec["workloads"]["moments"]["tolerance"]

    def prepare(self, rf, item):
        model = rf.instantiate(item["model"], item["params"])
        depth = self.spec["models"][item["model"]]["moment_depth"]
        rec = model.spec
        apts = [complex(rec.a(i)) for i in range(2, depth + 2)]
        if rec.kind == rf.R_II:
            bpts = [complex(rec.b(i)) for i in range(2, depth + 2)]
            I, J = refquad.bilinear(
                model.measure,
                lambda t: (_prefix_rows(t, apts), _prefix_rows(t, bpts)))
            descs = [("inverse_prefix", j, k)
                     for j in range(depth + 1) for k in range(depth + 1)]
            ratio = (I / I[0, 0]).ravel()
            scale = (J / abs(I[0, 0])).ravel()
        else:
            def rows(t):
                powers = np.array([t ** k for k in range(depth + 1)])
                left = np.vstack([powers, _prefix_rows(t, apts)])
                return left, np.ones((1, len(t)), dtype=complex)
            I, J = refquad.bilinear(model.measure, rows)
            descs = ([("power", k) for k in range(depth + 1)]
                     + [("inverse_prefix", j) for j in range(depth + 1)])
            ratio = I[:, 0] / I[0, 0]
            scale = J[:, 0] / abs(I[0, 0])
        return Task(item, model, (descs, ratio, scale))

    def run(self, rf, task):
        rec = task.model.spec
        descs = task.ref[0]
        if rec.kind == rf.R_II:
            k1 = rf.kappa_tails(rec, 20)[0]
            fn = rf.build_RII(rec, k1, k1 - 1.0)
        else:
            fn = rf.build_RI(rec)
        return [rf.functional_apply(fn, d) for d in descs]

    def check(self, task, values):
        if not all_finite(values):
            return None
        _, ratio, scale = task.ref
        vals = np.asarray(values, dtype=complex)
        n0 = vals[0]   # the first descriptor is L[1], the normalization
        err = np.abs(vals - n0 * ratio) / (abs(n0) * scale)
        return float(np.max(err))


WORKLOADS = {w.name: w for w in (Gram, Fraction, Moments)}
