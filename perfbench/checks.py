"""Output checks for benchmark jobs.

Every check reads only the job's captured stdout and the facts the input
generator recorded; none of them calls into toruslab. A failed check raises
CheckFailed, and the runner counts the job as failed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import directions, sweep_radius_range

EQUIVARIANCE_TOL = 1e-9   # acceptance criterion 6
ALBANESE_TOL = 1e-9       # Albanese coordinates vs endpoint displacement mod 1
LENGTH_TOL = 1e-9         # relative, on total family length


class CheckFailed(Exception):
    """A job's output disagrees with what its input implies."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _float(text) -> float:
    value = float(text)
    _require(math.isfinite(value), f"non-finite number {text!r}")
    return value


def _circle_dist(a: float, b: float) -> float:
    delta = (a - b) % 1.0
    return min(delta, 1.0 - delta)


def check_battery(job, payload: dict) -> None:
    gap = _float(payload["equivariance_max_gap"])
    _require(0.0 <= gap <= EQUIVARIANCE_TOL, f"equivariance gap {gap!r}")
    for key in ("samples", "cutoff", "seed"):
        _require(payload[key] == job.expect[key], f"{key} echoed wrong")


def check_longpath(job, payload: dict) -> None:
    expect = job.expect
    rows = payload["rows"]
    _require(len(rows) == len(expect["albanese"]) * expect["forms"], "row count")
    for row in rows:
        _float(row["raw"])
        _float(row["twisted"])
    for i, want in enumerate(expect["albanese"]):
        got = [_float(v) for v in payload["albanese"][f"curve{i}"]]
        _require(len(got) == len(want), "Albanese dimension")
        gap = max(_circle_dist(g, w) for g, w in zip(got, want))
        _require(gap <= ALBANESE_TOL, f"curve{i} Albanese off by {gap:.3e}")
    separation = payload["separation"]
    _require(separation is not None and separation["endpoints_differ"],
             "distinct endpoints not reported as separated")


def check_excise(job, payload: dict) -> None:
    expect = job.expect
    summary = payload["summary"]
    _require(summary["boundary_preserved"] is True, "boundary not preserved")
    _require(summary["curves_before"] == expect["curves"], "curves_before")
    _require(summary["curves_after"] == len(payload["family"]["curves"]),
             "curves_after does not match the emitted family")
    before = _float(summary["total_length_before"])
    after = _float(summary["total_length_after"])
    tol = LENGTH_TOL * max(1.0, expect["length"])
    _require(abs(before - expect["length"]) <= tol, "total_length_before")
    drop = before - after
    _require(abs(drop - expect["drop"]) <= tol,
             f"length dropped by {drop!r}, planted arcs account for "
             f"{expect['drop']!r}")


def half_ball_minima(alpha: np.ndarray, radius: int, tau: float) -> np.ndarray:
    """best[r] = min of |n.alpha| * |n|_inf^tau over 0 < |n|_inf <= r.

    Sweeps the first coordinate in Python and the others as one array, and
    keeps the minimum of each sup-norm shell, so one pass answers every
    radius up to the given one.
    """
    d = alpha.size
    axis = np.arange(-radius, radius + 1)
    rest = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, d - 1)
    rest_dot = rest @ alpha[1:]
    rest_norm = np.max(np.abs(rest), axis=1)
    nonzero = rest != 0
    first = rest[np.arange(rest.shape[0]), np.argmax(nonzero, axis=1)]
    positive = first > 0   # n1 = 0: first nonzero entry must be positive
    shell = np.full(radius + 1, np.inf)
    for n1 in range(radius + 1):
        if n1 == 0:
            dots, norms = rest_dot[positive], rest_norm[positive]
        else:
            dots, norms = n1 * alpha[0] + rest_dot, np.maximum(n1, rest_norm)
        np.minimum.at(shell, norms, np.abs(dots) * norms.astype(float) ** tau)
    return np.minimum.accumulate(shell)


class SweepChecker:
    """Checks diophantine-check outputs against exact and independent minima."""

    def __init__(self):
        self._exact = {
            name: tuple(Fraction(c) for c in comps)
            for name, comps in directions().items()
        }
        self._minima: dict[str, np.ndarray] = {}

    def minima(self, name: str, tau: float) -> np.ndarray:
        if name not in self._minima:
            alpha = np.array([float(f) for f in self._exact[name]])
            _, hi = sweep_radius_range(alpha.size)
            self._minima[name] = half_ball_minima(alpha, hi, tau)
        return self._minima[name]

    def __call__(self, job, payload: dict) -> None:
        expect = job.expect
        exact = self._exact[expect["direction"]]
        d, radius, tau = len(exact), expect["radius"], expect["tau"]
        _require(payload["radius"] == radius, "radius echoed wrong")
        _require(_float(payload["tau"]) == tau, "tau echoed wrong")
        n = payload["argmin"]
        _require(len(n) == d and all(isinstance(v, int) for v in n), "argmin")
        norm = max(abs(v) for v in n)
        _require(0 < norm <= radius, f"argmin {n} outside the ball")
        c_min = _float(payload["c_min"])
        # a-priori error of a float64 sweep value at sup norm <= radius
        band = 4 * d * radius * float(max(exact)) * 2.0**-52 * radius**tau
        value = float(abs(sum(v * a for v, a in zip(n, exact))) * norm**tau)
        _require(abs(c_min - value) <= band,
                 f"c_min {c_min!r} but exact value at argmin is {value!r}")
        independent = float(self.minima(expect["direction"], tau)[radius])
        _require(abs(c_min - independent) <= band,
                 f"c_min {c_min!r} but the ball minimum is {independent!r}")


def checker(workload: str):
    """The output check for one workload: check(job, stdout_text)."""
    check = {
        "battery": check_battery,
        "longpath": check_longpath,
        "sweep": SweepChecker(),
        "excise": check_excise,
    }[workload]

    def run(job, out: str) -> None:
        try:
            payload = json.loads(out)
            check(job, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from None

    return run
