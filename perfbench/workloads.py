"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into input files in a work directory plus a pool
of jobs. A job is one argv for ``toruslab.cli.main``, the number of items it
completes (defined by the input, never by what the implementation does) and
the facts its output check needs. The same seed gives byte-identical files.

Job sizes cycle through fixed strata and the seed only moves the geometry,
so every seed gives runs of the same cost profile and the medians of two
seeds can be compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

BATTERY_SAMPLES = 1      # random paths per equivariance-test job
BATTERY_CUTOFF = 3       # golden d=2, cutoff 3: 98 battery forms
LONGPATH_SEGMENTS = 250  # segments per curve, alternating flow/transverse
LONGPATH_CUTOFF = 1      # d=3, cutoff 1: 81 battery forms
SWEEP_D2_RADIUS = 1500   # d=2 quadratic irrationals
SWEEP_D3_RADIUS = 38     # d=3 cubic direction, about the same job time
# Plants merged into one excise family. An odd number of strata keeps the
# median job inside a stratum rather than in the cost gap between two.
EXCISE_PLANTS = tuple(range(6, 13))

_POOL = {"battery": 400, "longpath": 16, "sweep": 400, "excise": 70}


@dataclass(frozen=True)
class Job:
    """argv names its input files as "@name", relative to the work directory."""

    argv: tuple[str, ...]
    items: int
    expect: dict = field(default_factory=dict)

    def resolve(self, work: Path) -> list[str]:
        return [str(work / a[1:]) if a.startswith("@") else a for a in self.argv]


def battery_size(d: int, cutoff: int) -> int:
    """dx_j for every j, then cos and sin of every canonical mode times dx_j."""
    return d + 2 * d * (((2 * cutoff + 1) ** d - 1) // 2)


def half_ball_points(d: int, radius: int) -> int:
    """Lattice points of the punctured sup-ball, one per +- pair."""
    return ((2 * radius + 1) ** d - 1) // 2


def _decimal(x: Decimal) -> str:
    return format(x, "f")


def directions() -> dict[str, list[str]]:
    """Exact 40-digit decimal directions, keyed by file stem."""
    with localcontext() as ctx:
        ctx.prec = 40
        cube = Decimal(2) ** (Decimal(1) / Decimal(3))
        return {
            "golden": ["1", _decimal((1 + Decimal(5).sqrt()) / 2)],
            "sqrt2": ["1", _decimal(Decimal(2).sqrt())],
            "sqrt3": ["1", _decimal(Decimal(3).sqrt())],
            "cubic": ["1", _decimal(cube), _decimal(cube * cube)],
        }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_direction(work: Path, name: str) -> str:
    comps = directions()[name]
    _write_json(work / f"{name}.json", {"d": len(comps), "alpha": comps})
    return f"@{name}.json"


def _fstr(v) -> str:
    return repr(float(v))


def _curve_json(basepoint, steps) -> dict:
    return {
        "basepoint": [_fstr(v) for v in basepoint],
        "segments": [
            {"kind": kind, "displacement": [_fstr(v) for v in disp]}
            for kind, disp in steps
        ],
    }


def _nonzero(rng, d, lo, hi) -> np.ndarray:
    while True:
        v = rng.uniform(lo, hi, size=d)
        if float(np.min(np.abs(v))) > 1e-3:
            return v


# --- battery -------------------------------------------------------------
# Why: equivariance-test on golden d=2, cutoff 3 mirrors acceptance
# criterion 6. Per-form solver, twist and TrigPoly churn do most of the
# work; the sweep and excision layers do none.


def build_battery(seed: int, work: Path, count: int) -> list[Job]:
    alpha = _write_direction(work, "golden")
    rng = np.random.default_rng([seed, 1])
    seeds = rng.integers(0, 2**31 - 1, size=count)
    items = BATTERY_SAMPLES * battery_size(2, BATTERY_CUTOFF) * 2
    return [
        Job(
            argv=(
                "equivariance-test", "--alpha", alpha,
                "--samples", str(BATTERY_SAMPLES), "--seed", str(int(s)),
                "--cutoff", str(BATTERY_CUTOFF),
            ),
            items=items,
            expect={"samples": BATTERY_SAMPLES, "cutoff": BATTERY_CUTOFF,
                    "seed": int(s)},
        )
        for s in seeds
    ]


# --- longpath ------------------------------------------------------------
# Why: linearize-demo on two long curves in d=3, cutoff 1. Same layers as
# battery, but the segments x modes phase kernel in currents.evaluate
# dominates instead of per-form overhead, so a change that trades per-form
# time for per-segment time or memory shows here.


def _long_family(rng, alpha: np.ndarray, segments: int):
    d = alpha.size
    basepoint = rng.uniform(0.0, 1.0, size=d)
    curves = []
    for _ in range(2):
        steps = []
        for k in range(segments):
            if k % 2 == 0:
                t = rng.uniform(0.05, 2.0) * rng.choice((-1.0, 1.0))
                steps.append(("flow", t * alpha))
            else:
                steps.append(("transverse", _nonzero(rng, d, -0.5, 0.5)))
        curves.append(_curve_json(basepoint, steps))
    return curves


def _displacement_mod1(curve: dict) -> list[float]:
    """End minus start of a written curve, reduced to [0, 1)."""
    d = len(curve["basepoint"])
    total = [
        math.fsum(float(s["displacement"][j]) for s in curve["segments"])
        for j in range(d)
    ]
    return [v % 1.0 for v in total]


def build_longpath(seed: int, work: Path, count: int) -> list[Job]:
    alpha_path = _write_direction(work, "cubic")
    alpha = np.array([float(c) for c in directions()["cubic"]])
    rng = np.random.default_rng([seed, 2])
    forms = battery_size(3, LONGPATH_CUTOFF)
    jobs = []
    for i in range(count):
        curves = _long_family(rng, alpha, LONGPATH_SEGMENTS)
        name = f"longpath{i:03d}.json"
        _write_json(work / name, {"curves": curves})
        jobs.append(Job(
            argv=(
                "linearize-demo", "--alpha", alpha_path, "--curve", f"@{name}",
                "--cutoff", str(LONGPATH_CUTOFF), "--format", "json",
            ),
            items=sum(len(c["segments"]) for c in curves) * forms,
            expect={
                "forms": forms,
                "albanese": [_displacement_mod1(c) for c in curves],
            },
        ))
    return jobs


# --- sweep ---------------------------------------------------------------
# Why: diophantine-check with tau=1, where torus_flow does almost all the
# work. d=2 quadratic irrationals alternate with the d=3 cubic direction so
# the vectorized path stays measured once d=2 moves to exact continued
# fractions. Radii cycle through evenly spaced offsets around the base
# radius, so job costs spread without gaps and quantiles stay put.

_SWEEP_OFFSETS = tuple(-0.06 + 0.008 * k for k in range(16))


def sweep_radius_range(d: int) -> tuple[int, int]:
    base = SWEEP_D2_RADIUS if d == 2 else SWEEP_D3_RADIUS
    lo = int(round(base * (1 + _SWEEP_OFFSETS[0]))) - 1
    hi = int(round(base * (1 + _SWEEP_OFFSETS[-1]))) + 1
    return lo, hi


def build_sweep(seed: int, work: Path, count: int) -> list[Job]:
    files = {name: _write_direction(work, name) for name in directions()}
    rng = np.random.default_rng([seed, 3])
    order = {2: rng.permutation(len(_SWEEP_OFFSETS)),
             3: rng.permutation(len(_SWEEP_OFFSETS))}
    quadratics = ("golden", "sqrt2", "sqrt3")
    jobs = []
    for i in range(count):
        if i % 2 == 0:
            name, d, base = quadratics[(i // 2) % 3], 2, SWEEP_D2_RADIUS
        else:
            name, d, base = "cubic", 3, SWEEP_D3_RADIUS
        offset = _SWEEP_OFFSETS[order[d][(i // 2) % len(_SWEEP_OFFSETS)]]
        radius = int(round(base * (1 + offset))) + int(rng.integers(-1, 2))
        jobs.append(Job(
            argv=(
                "diophantine-check", "--alpha", files[name],
                "--radius", str(radius), "--tau", "1",
            ),
            items=half_ball_points(d, radius),
            expect={"direction": name, "radius": radius, "tau": 1.0},
        ))
    return jobs


# --- excise --------------------------------------------------------------
# Why: excise on one family merged from several planted retraced arcs.
# curves.find_retraced_arc dominates; the currents and solver layers are
# not touched. Plants follow the three shapes of
# toruslab.sampling.random_retrace_family (an arc retraced within a curve,
# across two curves a deck translate apart, or partially inside one
# segment), drawn here so that each planted arc length is known.

_SHAPES = ("within", "cross", "partial")


def _bridge(rng, d):
    v1 = _nonzero(rng, d, -0.2, 0.2)
    v2 = _nonzero(rng, d, -0.2, 0.2)
    return [("transverse", v1), ("transverse", v2),
            ("transverse", -v1), ("transverse", -v2)]


def _steps(rng, d, count):
    return [("transverse", _nonzero(rng, d, -0.5, 0.5)) for _ in range(count)]


def _plant(rng, k: int, d: int = 2):
    """Two curves carrying one retraced arc; returns (curves, arc length)."""
    words = [
        [rng.uniform(0.0, 1.0, size=d), _steps(rng, d, 1 + (k + c) % 3)]
        for c in range(2)
    ]
    shape = _SHAPES[k % 3]
    bridge = _bridge(rng, d) if (k // 3) % 2 == 0 else []
    if shape == "within":
        steps = words[0][1]
        arc = _steps(rng, d, 1 + k % 2)
        back = [(kind, -v) for kind, v in reversed(arc)]
        pos = int(rng.integers(0, len(steps) + 1))
        steps[pos:pos] = arc + bridge + back
        arc_len = sum(float(np.linalg.norm(v)) for _, v in arc)
    elif shape == "partial":
        steps = words[0][1]
        v = _nonzero(rng, d, -0.5, 0.5)
        frac = float(rng.uniform(0.3, 0.9))
        pos = int(rng.integers(0, len(steps) + 1))
        steps[pos:pos] = [("transverse", v)] + bridge + [("transverse", -frac * v)]
        arc_len = frac * float(np.linalg.norm(v))
    else:
        (bp1, steps1), (bp2, steps2) = words
        arc = _steps(rng, d, 1 + k % 2)
        pos1 = int(rng.integers(0, len(steps1) + 1))
        steps1[pos1:pos1] = arc
        arc_end = bp1 + sum((v for _, v in steps1[: pos1 + len(arc)]), np.zeros(d))
        pos2 = int(rng.integers(0, len(steps2) + 1))
        here = bp2 + sum((v for _, v in steps2[:pos2]), np.zeros(d))
        offset = rng.integers(-1, 2, size=d).astype(float)
        back = [(kind, -v) for kind, v in reversed(arc)]
        steps2[pos2:pos2] = [("transverse", arc_end + offset - here)] + back
        arc_len = sum(float(np.linalg.norm(v)) for _, v in arc)
    return [_curve_json(bp, steps) for bp, steps in words], arc_len


def _curve_length(curve: dict) -> float:
    return math.fsum(
        math.sqrt(math.fsum(float(v) ** 2 for v in s["displacement"]))
        for s in curve["segments"]
    )


def build_excise(seed: int, work: Path, count: int) -> list[Job]:
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for i in range(count):
        curves, arcs = [], []
        for k in range(EXCISE_PLANTS[i % len(EXCISE_PLANTS)]):
            plant, arc_len = _plant(rng, k)
            curves.extend(plant)
            arcs.append(arc_len)
        name = f"excise{i:03d}.json"
        _write_json(work / name, {"curves": curves})
        jobs.append(Job(
            argv=("excise", "--curve", f"@{name}"),
            items=sum(len(c["segments"]) for c in curves),
            expect={
                "curves": len(curves),
                "length": math.fsum(_curve_length(c) for c in curves),
                "drop": 2.0 * math.fsum(arcs),
            },
        ))
    return jobs


WORKLOADS = {
    "battery": build_battery,
    "longpath": build_longpath,
    "sweep": build_sweep,
    "excise": build_excise,
}


def build(name: str, seed: int, work: Path, count: int | None = None) -> list[Job]:
    """Write the inputs for one workload into work and return its job pool.

    count defaults to the workload's pool size.
    """
    work.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[name](seed, work, _POOL[name] if count is None else count)
    _write_json(work / "jobs.json", [
        {"argv": list(j.argv), "items": j.items, "expect": j.expect} for j in jobs
    ])
    return jobs
