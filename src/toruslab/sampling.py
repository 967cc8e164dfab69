"""Seeded random generators for experiments and property suites.

Everything takes an explicit numpy Generator so runs are reproducible from
a single integer seed. Retrace planting builds families whose coincidences
are exact in floating point, which is what the excision matcher expects of
genuinely retraced words.
"""

from __future__ import annotations

import numpy as np

from .curves import CurveFamily, PiecewiseCurve
from .spectral import TrigPoly
from .torus_flow import DirectionVector

_MIN_STEP = 1e-3  # resample displacements smaller than this


def random_point(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=d)


def shortest_displacement(frm, to) -> np.ndarray:
    """The representative of (to - frm) mod 1 with entries in [-0.5, 0.5)."""
    gap = np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)
    return gap - np.round(gap)


def straight_path(x, y) -> PiecewiseCurve:
    """One transverse hop along the shortest displacement; trivial if y = x."""
    step = shortest_displacement(x, y)
    if float(np.max(np.abs(step))) < 1e-12:
        return PiecewiseCurve(x)
    return PiecewiseCurve.from_steps(x, [("transverse", step)])


def path_via(x, waypoint, y) -> PiecewiseCurve:
    steps = []
    cur = np.asarray(x, dtype=float)
    for target in (waypoint, y):
        step = shortest_displacement(cur, target)
        if float(np.max(np.abs(step))) >= 1e-12:
            steps.append(("transverse", step))
            cur = cur + step
    return PiecewiseCurve.from_steps(x, steps)


def random_path(
    rng: np.random.Generator,
    x,
    y,
    alpha: DirectionVector,
    n_hops: int = 2,
    max_flow_time: float = 2.0,
) -> PiecewiseCurve:
    """A wandering path x -> y mixing flow and transverse pieces."""
    x = np.asarray(x, dtype=float)
    steps = []
    cur = x.copy()
    for _ in range(n_hops):
        t = float(rng.uniform(-max_flow_time, max_flow_time))
        if abs(t) > 1e-6:
            steps.append(("flow", t * alpha.alpha))
            cur = cur + t * alpha.alpha
        hop = shortest_displacement(cur, random_point(rng, x.size))
        if float(np.max(np.abs(hop))) > 1e-6:
            steps.append(("transverse", hop))
            cur = cur + hop
    tail = shortest_displacement(cur, y)
    if float(np.max(np.abs(tail))) > 1e-12:
        steps.append(("transverse", tail))
    return PiecewiseCurve.from_steps(x, steps)


def _nonzero_uniform(rng, d, lo=-0.4, hi=0.4):
    while True:
        v = rng.uniform(lo, hi, size=d)
        if float(np.min(np.abs(v))) > _MIN_STEP:
            return v


def random_loop(
    rng: np.random.Generator, x, max_winding: int = 1
) -> PiecewiseCurve:
    """A closed word at x: parallelogram wiggle plus an integer winding leg.

    Opposite parallelogram sides sit at a non-integer offset, so the loop
    contains no retraced arc.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    v1 = _nonzero_uniform(rng, d)
    v2 = _nonzero_uniform(rng, d)
    k = rng.integers(-max_winding, max_winding + 1, size=d).astype(float)
    steps = [
        ("transverse", v1),
        ("transverse", v2),
        ("transverse", -v1),
        ("transverse", k - v2) if np.any(k) else ("transverse", -v2),
    ]
    return PiecewiseCurve.from_steps(x, steps)


def random_trig_poly(
    rng: np.random.Generator,
    d: int = 2,
    cutoff: int = 8,
    n_modes: int = 4,
    with_mean: bool = True,
) -> TrigPoly:
    """A real random trig poly, Hermitian by construction."""
    modes: dict = {}
    for _ in range(n_modes):
        n = tuple(int(v) for v in rng.integers(-cutoff, cutoff + 1, size=d))
        if n == (0,) * d:
            continue
        c = complex(rng.normal(), rng.normal())
        m = tuple(-v for v in n)
        modes[n] = modes.get(n, 0) + c
        modes[m] = modes.get(m, 0) + c.conjugate()
    if with_mean:
        modes[(0,) * d] = complex(rng.normal(), 0.0)
    return TrigPoly(d, modes)


def _accumulate(basepoint, steps):
    cur = np.asarray(basepoint, dtype=float).copy()
    for _, disp in steps:
        cur = cur + disp
    return cur


def _random_steps(rng, d, count):
    return [("transverse", _nonzero_uniform(rng, d, -0.5, 0.5)) for _ in range(count)]


def _bridge_loop(rng, d):
    v1 = _nonzero_uniform(rng, d, -0.2, 0.2)
    v2 = _nonzero_uniform(rng, d, -0.2, 0.2)
    return [
        ("transverse", v1),
        ("transverse", v2),
        ("transverse", -v1),
        ("transverse", -v2),
    ]


def random_retrace_family(
    rng: np.random.Generator, d: int = 2, max_curves: int = 3
) -> CurveFamily:
    """A small family with one planted retraced arc (three plant shapes).

    Shapes: a r b r~ c inside one curve (b a bridge loop or empty), the
    same arc shared across two curves in opposite directions and a deck
    translate apart, or a partial backtrack covering a fraction of one
    segment. Random words almost surely contain no further coincidences.
    """
    n_base = int(rng.integers(1, max_curves + 1))
    words = [
        [np.asarray(random_point(rng, d)), _random_steps(rng, d, int(rng.integers(1, 4)))]
        for _ in range(n_base)
    ]
    shape = rng.choice(["within", "cross", "partial"]) if n_base >= 2 else (
        rng.choice(["within", "partial"])
    )

    if shape == "within":
        bp, steps = words[int(rng.integers(0, n_base))]
        arc = _random_steps(rng, d, int(rng.integers(1, 3)))
        bridge = _bridge_loop(rng, d) if rng.random() < 0.5 else []
        back = [(kind, -disp) for kind, disp in reversed(arc)]
        pos = int(rng.integers(0, len(steps) + 1))
        steps[pos:pos] = arc + bridge + back
    elif shape == "partial":
        bp, steps = words[int(rng.integers(0, n_base))]
        v = _nonzero_uniform(rng, d, -0.5, 0.5)
        frac = float(rng.uniform(0.3, 0.9))
        bridge = _bridge_loop(rng, d) if rng.random() < 0.5 else []
        pos = int(rng.integers(0, len(steps) + 1))
        steps[pos:pos] = (
            [("transverse", v)] + bridge + [("transverse", -frac * v)]
        )
    else:
        i, j = rng.choice(n_base, size=2, replace=False)
        bp1, steps1 = words[int(i)]
        bp2, steps2 = words[int(j)]
        arc = _random_steps(rng, d, int(rng.integers(1, 3)))
        pos1 = int(rng.integers(0, len(steps1) + 1))
        steps1[pos1:pos1] = arc
        arc_start = _accumulate(bp1, steps1[:pos1])
        arc_end = _accumulate(arc_start, arc)
        pos2 = int(rng.integers(0, len(steps2) + 1))
        here = _accumulate(bp2, steps2[:pos2])
        offset = rng.integers(-1, 2, size=d).astype(float)
        connector = arc_end + offset - here
        back = [(kind, -disp) for kind, disp in reversed(arc)]
        insert = back
        if float(np.max(np.abs(connector))) > 1e-9:
            insert = [("transverse", connector)] + back
        steps2[pos2:pos2] = insert

    return CurveFamily(
        [PiecewiseCurve.from_steps(bp, steps) for bp, steps in words]
    )
