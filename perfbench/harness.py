"""Set-up, timed loop, traced run and report of the rfrac benchmark.

A run imports ``rfrac`` from the checkout's ``src`` directory, generates the
workload's inputs from the seed, prepares tasks with their references,
then times whole passes over the task pool in one thread. With
``--trace 1`` it instead times a prefix of the pool untraced, runs the same
tasks again under the layer tracer, checks that both runs produced
identical values, and reports the per-layer metrics. The last line of
standard output is the JSON result.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import struct
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from . import inputs
from .tracer import Tracer
from .workloads import WORKLOADS, Task

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_clock = time.perf_counter


class SourceMissing(RuntimeError):
    """The checkout holds no rfrac sources to benchmark."""


def import_rfrac():
    """A fresh import of rfrac from the checkout's src directory."""
    if not (SRC / "rfrac" / "__init__.py").is_file():
        raise SourceMissing(f"no rfrac package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "rfrac" or n.startswith("rfrac.")]:
        del sys.modules[name]
    rf = importlib.import_module("rfrac")
    if SRC not in Path(rf.__file__).resolve().parents:
        raise SourceMissing(f"rfrac was imported from {rf.__file__}, not {SRC}")
    return rf


def outcome(rf, workload, task, values, error):
    """(class, worst relative error or None) for one task run."""
    if error is not None:
        if type(error).__module__ == rf.errors.__name__:
            return type(error).__name__, None
        return "other:" + type(error).__name__, None
    err = workload.check(task, values)
    if err is None:
        return "nonfinite", None
    return ("ok" if err <= workload.tol else "inaccurate"), err


def fingerprint(values, error):
    """Bytes that two runs share exactly when their results are bit-identical."""
    if error is not None:
        return f"{type(error).__name__}: {error}".encode()
    out = []

    def walk(v):
        if isinstance(v, dict):
            for k in sorted(v):
                out.append(k.encode())
                walk(v[k])
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        elif isinstance(v, np.ndarray):
            out.append(np.ascontiguousarray(v, dtype=complex).tobytes())
        else:
            c = complex(v)
            out.append(struct.pack("<dd", c.real, c.imag))

    walk(values)
    return b"|".join(out)


def run_task(rf, workload, task):
    t0 = _clock()
    try:
        values = workload.run(rf, task)
    except Exception as exc:
        return None, exc, _clock() - t0
    return values, None, _clock() - t0


def setup(spec, seed, workload, models, draws):
    """One full set-up: import, inputs, tasks with references, warm-up."""
    t0 = _clock()
    rf = import_rfrac()
    items, redraws = inputs.generate(spec, workload.name, seed, models, draws, rf)
    tasks = [workload.prepare(rf, item) for item in items]
    for task in warmup_tasks(spec, tasks):
        run_task(rf, workload, task)
    return rf, items, redraws, tasks, _clock() - t0


def warmup_tasks(spec, tasks):
    """Per model, the task whose parameters lie nearest the box centre.

    Distance is measured in widths of the box, so that q, whose box is
    wide, counts no more than the others and the pick stays near the
    middle q for every seed; a warm-up task at q = 0.41 can take seconds.
    """
    best = {}
    for task in tasks:
        dist = 0.0
        for key, c in spec["models"][task.name]["params"].items():
            lo, hi = inputs.box(spec, key, c)
            dist += abs(task.item["params"][key] - (lo + hi) / 2.0) / (hi - lo)
        if task.name not in best or dist < best[task.name][0]:
            best[task.name] = (dist, task)
    return [task for _, task in best.values()]


def timed_passes(rf, workload, tasks, seconds, min_tasks):
    """Whole passes over the pool until both the time and the count are met."""
    records = []
    t0 = _clock()
    while True:
        for task in tasks:
            records.append((task, *run_task(rf, workload, task)))
        wall = _clock() - t0
        if wall >= seconds and len(records) >= min_tasks:
            return records, wall


def census(rf, workload, records):
    """Outcome counts per model over the distinct tasks of the pool."""
    seen = set()
    per_model = defaultdict(Counter)
    for task, values, error, _ in records:
        if id(task) in seen:
            continue
        seen.add(id(task))
        per_model[task.name][outcome(rf, workload, task, values, error)[0]] += 1
    return {m: dict(sorted(c.items())) for m, c in per_model.items()}


def smoothed_percentile(times, lo, hi):
    """Mean of the times ranked between the ``lo`` and ``hi`` quantiles.

    Task costs cluster by model, so a plain percentile often falls on the
    edge of a cluster, where it reads the single fastest task of that
    cluster and moves with every swing of the machine's speed; the mean
    over a band of ranks moves with the whole band.
    """
    ranked = sorted(times)
    start = math.floor(lo * len(ranked))
    band = ranked[start:max(math.ceil(hi * len(ranked)), start + 1)]
    return statistics.fmean(band), len(band)


def end_to_end(rf, workload, records, wall, setup_times, floor, bands):
    times = [r[3] for r in records]
    classes, logs = [], []
    for task, values, error, _ in records:
        cls, err = outcome(rf, workload, task, values, error)
        classes.append(cls)
        if err is not None:
            logs.append(math.log10(max(err, floor)))
    attempted = len(records)
    failed = sum(c != "ok" for c in classes)
    p50, p90 = (smoothed_percentile(times, *bands[k]) for k in ("task_s_p50", "task_s_p90"))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "tasks_per_s": (attempted / wall, "1/s"),
        "task_s_p50": (p50[0], "s"),
        "task_s_p90": (p90[0], "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "err_log10_p50": (statistics.median(logs) if logs else None, "log10"),
        "err_log10_max": (max(logs) if logs else None, "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, failed, classes, {"task_s_p50": p50[1], "task_s_p90": p90[1]}


def traced_run(spec, rf, workload, tasks, seconds, n_models):
    """Untraced then traced runs of the same whole rounds of the pool.

    The traced run gets freshly prepared models: some models cache prefix
    products of their coefficients, and tasks that found them filled by
    the untraced run would run faster traced than untraced.
    """
    base = []
    t0 = _clock()
    while len(base) < len(tasks):
        base.extend((t, *run_task(rf, workload, t))
                    for t in tasks[len(base):len(base) + n_models])
        if _clock() - t0 >= seconds:
            break
    untraced_s = sum(r[3] for r in base)
    fresh = [workload.prepare(rf, task.item) for task, *_rest in base]
    tracer = Tracer(spec["layers"])
    traced = []
    with tracer.install(rf):
        for i, ((task, *_rest), again) in enumerate(zip(base, fresh)):
            copy = Task(task.item, tracer.wrap_model(again.model), task.ref)
            values, error, dt = tracer.run_task(i, workload.run, rf, copy)
            traced.append((task, values, error, dt))
    traced_s = sum(r[3] for r in traced)
    identical = all(fingerprint(a[1], a[2]) == fingerprint(b[1], b[2])
                    for a, b in zip(base, traced))
    metrics = tracer.layer_metrics(len(traced), untraced_s, traced_s)
    return traced, metrics, identical, tracer


def parse_args(argv, spec):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=spec["draws"]["default_seed"])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".bench_out"),
                   help="directory for the JSON report")
    return p.parse_args(argv)


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None, spec=None):
    """Run one workload; ``spec`` replaces spec.json (tests shrink the pools)."""
    spec = spec or inputs.load_spec()
    args = parse_args(argv, spec)
    workload = WORKLOADS[args.workload](spec)
    models = list(spec["models"])
    draws = spec["workloads"][args.workload]["draws_per_model"]
    setup_times = []
    for _ in range(1 if args.trace else spec["process"]["setup_repeats"]):
        try:
            rf, items, redraws, tasks, dt = setup(spec, args.seed, workload, models, draws)
        except SourceMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        setup_times.append(dt)
    digest = hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()

    print(f"rfrac benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print(f"inputs: {len(items)} tasks over {len(models)} models, "
          f"sha256 {digest[:16]}, redraws {sum(redraws.values())}")
    report = {"args": vars(args), "inputs": items, "inputs_sha256": digest,
              "redraws": redraws}

    if args.trace:
        records, layer, identical, tracer = traced_run(
            spec, rf, workload, tasks, args.seconds / 2.0, len(models))
        classes = [outcome(rf, workload, *r[:3])[0] for r in records]
        attempted, failed = len(records), sum(c != "ok" for c in classes)
        correct = identical and not any(c.startswith("other:") for c in classes)
        print(f"traced tasks: {attempted}; values identical to the untraced run: {identical}")
        for name, value in layer.items():
            print(f"{name} = {_fmt(value)}")
        result_metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                          for m in _bench_metrics("per_layer")}
        report.update(layer=layer, identical=identical,
                      fn_calls=dict(tracer.fn_calls), fn_time=dict(tracer.fn_time),
                      spans=[list(s) for s in tracer.spans])
    else:
        records, wall = timed_passes(rf, workload, tasks, args.seconds,
                                     spec["process"]["min_tasks"])
        bands = spec["process"]["percentile_bands"]
        metrics, attempted, failed, classes, in_band = end_to_end(
            rf, workload, records, wall, setup_times, spec["error_floor"], bands)
        correct = not any(c.startswith("other:") for c in classes)
        above = sum(r[3] > metrics["task_s_p90"][0] for r in records)
        for name, (value, unit) in metrics.items():
            note = ""
            if name == "setup_s":
                note = f" (median of {len(setup_times)})"
            elif name in bands:
                lo, hi = bands[name]
                note = (f" ({attempted} samples, mean of the {in_band[name]} ranked "
                        f"{lo:.0%}-{hi:.0%}" + (f", {above} above)" if name.endswith("p90") else ")"))
            print(f"{name} = {_fmt(value)} {unit}{note}")
        result_metrics = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in _bench_metrics("end_to_end")}
        report.update(metrics={k: v[0] for k, v in metrics.items()},
                      setup_times=setup_times, wall=wall)

    pool = census(rf, workload, records)
    for model, counts in pool.items():
        print(f"census {model}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    report.update(census=pool, attempted=attempted, failed=failed, correct=correct,
                  tasks=[{"index": i, "model": r[0].name, "class": c, "seconds": r[3]}
                         for i, (r, c) in enumerate(zip(records, classes))])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, default=str)
    path = path.resolve()
    print(f"report: {path.relative_to(ROOT) if ROOT in path.parents else path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def _bench_metrics(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def write_census(path):
    """One untimed pass over every workload's pool at the default seed."""
    spec = inputs.load_spec()
    seed = spec["draws"]["default_seed"]
    models = list(spec["models"])
    out = {"seed": seed,
           "note": "outcomes of every pool task at the default seed, one untimed "
                   "pass; failures grouped by model, band, class and message, "
                   "with the count, the worst relative error and one example input",
           "workloads": {}}
    for name, cls in WORKLOADS.items():
        workload = cls(spec)
        rf = import_rfrac()
        draws = spec["workloads"][name]["draws_per_model"]
        items, _ = inputs.generate(spec, name, seed, models, draws, rf)
        records = [(task, *run_task(rf, workload, task))
                   for task in (workload.prepare(rf, item) for item in items)]
        groups = {}
        for task, values, error, _ in records:
            kind, err = outcome(rf, workload, task, values, error)
            if kind == "ok":
                continue
            message = "" if error is None else str(error)
            group = groups.setdefault((task.name, task.item.get("band"), kind, message), {
                "model": task.name, "band": task.item.get("band"), "class": kind,
                "message": message, "count": 0, "worst_error": None,
                "example": task.item})
            group["count"] += 1
            if err is not None:
                group["worst_error"] = max(err, group["worst_error"] or 0.0)
        per_model = census(rf, workload, records)
        out["workloads"][name] = {"tasks": len(items), "per_model": per_model,
                                  "failures": list(groups.values())}
        print(f"{name}: " + "; ".join(
            f"{m} " + ", ".join(f"{k} {v}" for k, v in c.items())
            for m, c in per_model.items()))
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0
