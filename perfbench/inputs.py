"""Seeded benchmark inputs: model parameters and evaluation points.

The library sees only what this module generates. Parameters come from a
box around each model's tier-1 set (q in a fixed range, every other
parameter within a relative spread); points for the fraction workload lie
in bands of distance from the model's support or branch boundary.

Which strata of its parameters a draw combines is fixed per workload and
model; the seed jitters every value inside its stratum and places the
points. A pool's cost is then much the same for every seed, which matters
because a few low-q gram draws take from 2 to 12 s depending on which
strata of the other parameters they meet.
"""

import cmath
import json
import math
import random
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"

# a rejected draw is re-jittered at most this many times before giving up
_MAX_REDRAWS = 50


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def model_rng(workload, model, seed):
    return random.Random(f"{workload}:{model}:{seed}")


def strata_rng(workload, model):
    """The generator of the stratum pairing, the same for every seed."""
    return random.Random(f"{workload}:{model}:strata")


def box(spec, key, centre):
    """(low, high) of the parameter ``key`` whose tier-1 value is ``centre``."""
    if key == "q":
        return tuple(spec["draws"]["q_range"])
    s = spec["draws"]["relative_spread"]
    lo, hi = centre * (1.0 - s), centre * (1.0 + s)
    return min(lo, hi), max(lo, hi)


def draw_params(spec, model, count, rng, pairing, instantiate, domain_error):
    """``count`` parameter mappings for ``model`` in a Latin hypercube.

    Each parameter takes one value from each of ``count`` equal strata of
    its box, in an order ``pairing`` shuffles per parameter; ``rng``
    jitters the values inside their strata. A mapping that ``instantiate``
    rejects with ``domain_error`` is re-jittered within the same strata.
    Returns (params list, number of redraws).
    """
    centre = spec["models"][model]["params"]
    cells = {}
    for key in centre:
        order = list(range(count))
        pairing.shuffle(order)
        cells[key] = order
    out = []
    redraws = 0
    for i in range(count):
        for attempt in range(_MAX_REDRAWS + 1):
            params = {}
            for key, c in centre.items():
                lo, hi = box(spec, key, c)
                # q sits on its stratum's midpoint: the cost of a task
                # grows in doubling steps as q falls, so a jittered q
                # would make a pass's time depend on the seed
                jitter = 0.5 if key == "q" else rng.random()
                u = (cells[key][i] + jitter) / count
                params[key] = lo + (hi - lo) * u
            try:
                instantiate(model, params)
            except domain_error:
                redraws += 1
                continue
            out.append(params)
            break
        else:
            raise RuntimeError(
                f"no admissible {model} draw in stratum {i} after "
                f"{_MAX_REDRAWS} tries")
    return out, redraws


def _distance(spec, band, scale, rng):
    bands = spec["bands"]
    jitter = bands["jitter_decades"]
    return bands[band] * scale * 10.0 ** rng.uniform(-jitter, jitter)


def band_point(spec, geometry, band, params, grid, rng):
    """One point at the band's distance from the model's boundary."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if geometry == "circle":
        scale = math.sqrt(params["q"])
        d = _distance(spec, band, scale, rng)
        if d >= 0.9 * scale:
            sign = 1.0
        return (scale + sign * d) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if geometry == "halfline":
        d = _distance(spec, band, 1.0, rng)
        return complex(rng.uniform(-3.0, -0.1), sign * d)
    if geometry == "line":
        d = _distance(spec, band, 0.5, rng)
        y = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.1, 0.4)
        return complex(0.5 + sign * d, y)
    if geometry == "grid":
        d = _distance(spec, band, 1.0, rng)
        base = grid[rng.randrange(3)]
        return base + d * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if geometry == "segment":
        d = _distance(spec, band, 1.0, rng)
        return complex(rng.uniform(-0.9, 0.9), sign * d)
    raise ValueError(f"unknown geometry {geometry!r}")


def band_points(spec, model, params, grid, rng):
    """Points per band for one parameter draw: [(band, z), ...]."""
    geometry = spec["models"][model]["geometry"]
    out = []
    for band in ("far", "mid", "near"):
        for _ in range(spec["bands"]["points_per_band"]):
            out.append((band, band_point(spec, geometry, band, params, grid, rng)))
    return out


def generate(spec, workload, seed, models, draws, rf):
    """The workload's inputs, interleaved so every prefix covers the models.

    ``rf`` is the imported library; only its ``instantiate`` and
    ``DomainError`` are used, to reject inadmissible draws. Each returned
    item is a JSON-ready dict with ``model``, ``params`` and, for the
    fraction workload, ``band`` and ``z`` as [re, im].
    """
    per_model = []
    redraws = {}
    for model in models:
        rng = model_rng(workload, model, seed)
        plist, redraws[model] = draw_params(
            spec, model, draws, rng, strata_rng(workload, model),
            rf.instantiate, rf.DomainError)
        items = []
        for params in plist:
            if workload != "fraction":
                items.append({"model": model, "params": params})
                continue
            grid = None
            if spec["models"][model]["geometry"] == "grid":
                m = rf.instantiate(model, params)
                grid = [complex(p[0]) for p in m.measure.points[:3]]
            for band, z in band_points(spec, model, params, grid, rng):
                items.append({"model": model, "params": params, "band": band,
                              "z": [z.real, z.imag]})
        per_model.append(items)
    order = []
    for i in range(max(len(items) for items in per_model)):
        for items in per_model:
            if i < len(items):
                order.append(items[i])
    return order, redraws
