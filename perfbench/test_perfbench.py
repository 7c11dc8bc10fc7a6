"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, inputs, workloads
from perfbench.tracer import Tracer

ROOT = harness.ROOT
SPEC = inputs.load_spec()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_spec(workload):
    """spec.json with one draw per model, one set-up and no task minimum;
    gram keeps only its three fast models."""
    spec = copy.deepcopy(SPEC)
    spec["process"]["setup_repeats"] = 1
    spec["process"]["min_tasks"] = 1
    spec["workloads"][workload]["draws_per_model"] = 1
    if workload == "gram":
        spec["models"] = {k: v for k, v in spec["models"].items()
                          if k in ("ChebyshevR2_31", "Cauchy2F1_32", "SinhLattice42")}
    return spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.01",
            "--trace", str(trace), "--out", str(tmp_path)]
    assert harness.main(argv, tiny_spec(workload)) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        prefix = f"{name} = "
        printed = [ln for ln in lines[:-1] if ln.startswith(prefix)]
        assert printed, name
        if not trace:
            assert printed[0].split(" (")[0].endswith(" " + unit), printed[0]


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def module_bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "rfrac" or name.startswith("rfrac.")}


def test_no_wrapper_left_after_trace():
    rf = harness.import_rfrac()
    before = module_bindings()
    gram = workloads.Gram(SPEC)
    task = gram.prepare(rf, {"model": "ChebyshevR2_31",
                             "params": SPEC["models"]["ChebyshevR2_31"]["params"]})
    tracer = Tracer(SPEC["layers"])
    with tracer.install(rf):
        assert rf.weighted_gram is not before["rfrac"]["weighted_gram"]
        copy = workloads.Task(task.item, tracer.wrap_model(task.model), task.ref)
        _, error, _ = tracer.run_task(0, gram.run, rf, copy)
    assert error is None
    assert tracer.fn_calls["integrate"] == gram.order ** 2
    after = module_bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert not changed, (name, changed)


def test_known_good_chebyshev_gram():
    rf = harness.import_rfrac()
    gram = workloads.Gram(SPEC)
    gram.order = 4
    task = gram.prepare(rf, {"model": "ChebyshevR2_31",
                             "params": SPEC["models"]["ChebyshevR2_31"]["params"]})
    assert gram.check(task, gram.run(rf, task)) <= 1e-12


@pytest.mark.parametrize("workload", ["gram", "fraction", "moments"])
def test_seed_reproduces_inputs(workload):
    rf = harness.import_rfrac()
    models = list(SPEC["models"])

    def gen(seed):
        return inputs.generate(SPEC, workload, seed, models, 2, rf)

    first, second, other = gen(3), gen(3), gen(4)
    assert first == second
    assert first[0] != other[0]
    for item in first[0]:
        q = item["params"].get("q")
        if q is not None:
            assert SPEC["draws"]["q_range"][0] <= q <= SPEC["draws"]["q_range"][1]


def test_smoothed_percentile_averages_its_band():
    times = [float(t) for t in range(100)]
    assert harness.smoothed_percentile(times, 0.4, 0.6) == (49.5, 20)
    assert harness.smoothed_percentile(times[::-1], 0.85, 0.95) == (89.5, 10)
    assert harness.smoothed_percentile([3.0], 0.85, 0.95) == (3.0, 1)


def test_seed_jitters_inside_fixed_strata():
    rf = harness.import_rfrac()
    spec = SPEC["models"]["Rahman52"]["params"]

    def strata(seed):
        items, _ = inputs.generate(SPEC, "gram", seed, ["Rahman52"], 5, rf)
        out = []
        for item in items:
            cells = []
            for key, c in spec.items():
                lo, hi = inputs.box(SPEC, key, c)
                cells.append(int((item["params"][key] - lo) / (hi - lo) * 5))
            out.append(cells)
        return items, out

    first, cells_first = strata(3)
    other, cells_other = strata(4)
    assert cells_first == cells_other
    assert first != other
