"""Outside-in layer tracer for rfrac.

It times calls into the five layers from outside the library: every
attribute of an ``rfrac.*`` module that is one of a layer's public
functions is rebound to a wrapper, and the model closures (``minimal``,
``cf_value``, the family factories, their members and ``norm``) are
wrapped on copies of the objects that carry them. ``restore`` puts every
rebinding back. The wrappers change no argument and no result.

Counts and times are aggregated per layer and per function; spans are
kept only for tasks and for the layer calls a task makes directly.
"""

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

SERIES = ("basic_phi", "w87", "hyper_2f1")
PRODUCTS = ("q_pochhammer", "multi_q_pochhammer")
CLOSED = ("ModelSpec.minimal", "ModelSpec.cf_value", "BiorthFamily.norm")

_clock = time.perf_counter


class _Frame:
    __slots__ = ("layer", "other")

    def __init__(self, layer):
        self.layer = layer
        self.other = 0.0   # time in nested calls charged to other layers


class Tracer:
    """Wraps the layers of one imported ``rfrac`` and aggregates what it sees."""

    def __init__(self, layers):
        self.layers = layers
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.layer_failed = defaultdict(int)
        self.fn_calls = defaultdict(int)
        self.fn_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []
        self._task = None
        self._undo = []
        self._backward_sig = None

    # -- installation ---------------------------------------------------

    def install(self, rf):
        """Rebind every ``rfrac.*`` module attribute that is a layer function."""
        hooks = {"minimal_solution_backward": self._backward_steps,
                 "forward": self._order_steps, "convergents": self._order_steps,
                 "functional_apply": self._entries}
        for name in SERIES:
            hooks[name] = self._series_terms
        returns_closures = {"instantiate": self.wrap_model,
                            "biorth": self._wrap_family}
        for layer, names in self.layers.items():
            module = getattr(rf, layer)
            for name in names:
                orig = getattr(module, name)
                if name == "minimal_solution_backward":
                    self._backward_sig = inspect.signature(orig)
                if name in returns_closures:
                    wrap = returns_closures[name]
                    wrapper = self._wrap(layer, name, orig,
                                         lambda args, kw, r, w=wrap: w(r),
                                         transform=True)
                else:
                    wrapper = self._wrap(layer, name, orig, hooks.get(name))
                for modname, module_obj in list(sys.modules.items()):
                    if modname != "rfrac" and not modname.startswith("rfrac."):
                        continue
                    for attr, value in list(vars(module_obj).items()):
                        if value is orig:
                            setattr(module_obj, attr, wrapper)
                            self._undo.append((module_obj, attr, orig))
        return self

    def restore(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- model closures -------------------------------------------------

    def wrap_model(self, model):
        """A copy of the ModelSpec whose minimal and cf_value are traced."""
        return dataclasses.replace(
            model,
            minimal=self._wrap("models", "ModelSpec.minimal", model.minimal),
            cf_value=self._wrap("models", "ModelSpec.cf_value", model.cf_value))

    def _wrap_family(self, fam):
        norm = fam.norm
        if norm is not None:
            norm = self._wrap("models", "BiorthFamily.norm", norm)
        return dataclasses.replace(
            fam, left=self._wrap_factory("BiorthFamily.left", fam.left),
            right=self._wrap_factory("BiorthFamily.right", fam.right),
            norm=norm)

    def _wrap_factory(self, name, factory):
        member = name + "(i)"
        return self._wrap("models", name, factory,
                          lambda args, kw, f: self._wrap_member(member, f),
                          transform=True)

    def _wrap_member(self, name, f):
        tracer = self

        @functools.wraps(f)
        def traced(t):
            is_array = isinstance(t, np.ndarray) and t.ndim > 0
            tracer.counts["member_calls"] += 1
            return tracer._call("models", name, f, (t,), {},
                                tracer._member_points if is_array else tracer._scalar_point,
                                excuse=is_array)
        return traced

    # -- post-call counters ---------------------------------------------

    def _entries(self, args, kwargs, result):
        if not isinstance(args[1], list):
            self.counts["entries"] += 1

    def _series_terms(self, args, kwargs, result):
        self.counts["series_terms"] += result.terms_used

    def _order_steps(self, args, kwargs, result):
        self.counts["recurrence_steps"] += int(args[2] if len(args) > 2 else kwargs["N"])

    def _backward_steps(self, args, kwargs, result):
        """Sweep starts start, 2 start, ... up to the returned start, or up
        to max_start when the call ran out of starts (result None)."""
        bound = self._backward_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        s = bound.arguments["start"]
        last = result.start if result is not None else bound.arguments["max_start"]
        while s <= last:
            self.counts["recurrence_steps"] += s
            s *= 2

    def _member_points(self, args, kwargs, result):
        t = args[0]
        if np.shape(result) == t.shape:
            self.counts["points"] += t.size
            self.counts["vector_points"] += t.size
        else:
            self.counts["retries"] += 1

    def _scalar_point(self, args, kwargs, result):
        self.counts["points"] += 1

    # -- the call path --------------------------------------------------

    def _wrap(self, layer, name, fn, post=None, transform=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(layer, name, fn, args, kwargs, post, transform=transform)
        return traced

    def _call(self, layer, name, fn, args, kwargs, post=None, excuse=False,
              transform=False):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(layer)
        stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            elapsed = _clock() - t0
            stack.pop()
            retried = excuse and isinstance(exc, (TypeError, ValueError))
            if retried:
                self.counts["retries"] += 1
            elif name == "minimal_solution_backward" and type(exc).__name__ == "ConvergenceError":
                self._backward_steps(args, kwargs, None)
            self._account(layer, name, frame, parent, t0, elapsed,
                          failed=not retried)
            raise
        elapsed = _clock() - t0
        stack.pop()
        self._account(layer, name, frame, parent, t0, elapsed, failed=False)
        if post is not None:
            out = post(args, kwargs, result)
            if transform:
                return out
        return result

    def _account(self, layer, name, frame, parent, t0, elapsed, failed):
        self.fn_calls[name] += 1
        self.fn_time[name] += elapsed
        self.layer_calls[layer] += 1
        if parent is not None and parent.layer == layer:
            # a nested call inside the same layer: its time is the parent's
            parent.other += frame.other
            return
        self.layer_self[layer] += elapsed - frame.other
        if failed:
            self.layer_failed[layer] += 1
        if parent is not None:
            parent.other += elapsed
            if parent.layer == "task":
                self.spans.append((self._task, layer, name, t0, elapsed))

    # -- tasks ----------------------------------------------------------

    def run_task(self, task_id, fn, *args):
        """Run fn(*args) as one traced task; returns (result, error, seconds)."""
        self._task = task_id
        frame = _Frame("task")
        self._stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args), None, _clock() - t0
        except Exception as exc:
            return None, exc, _clock() - t0
        finally:
            elapsed = _clock() - t0
            self._stack.pop()
            self.spans.append((task_id, "task", "task", t0, elapsed))

    def layer_metrics(self, tasks, untraced_s, traced_s):
        """Per-task averages of the per-layer metrics, by BENCHMARK.json name."""
        per = 1.0 / max(1, tasks)
        c, f = self.counts, self.fn_calls
        points = c["points"]
        out = {}
        for layer in self.layers:
            out[f"{layer}.self_s"] = self.layer_self[layer] * per
            out[f"{layer}.failed"] = self.layer_failed[layer] * per
        out.update({
            "qseries.series_calls": sum(f[n] for n in SERIES) * per,
            "qseries.series_terms": c["series_terms"] * per,
            "qseries.product_calls": sum(f[n] for n in PRODUCTS) * per,
            "recurrence.calls": self.layer_calls["recurrence"] * per,
            "recurrence.steps": c["recurrence_steps"] * per,
            "favard.kappa_s": self.fn_time["kappa_tails"] * per,
            "favard.entries": c["entries"] * per,
            "measures.integrals": f["integrate"] * per,
            "measures.points": points * per,
            "measures.vector_frac": c["vector_points"] / points if points else 0.0,
            "measures.retries": c["retries"] * per,
            "models.member_calls": c["member_calls"] * per,
            "models.closed_calls": sum(f[n] for n in CLOSED) * per,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        })
        return out
