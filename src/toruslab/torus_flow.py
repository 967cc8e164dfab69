"""Points and linear flows on the d-torus.

The flow is x -> x + t*alpha (mod 1): lifts to R^d are plain coordinate
arrays, and a TorusPoint is a lift reduced mod 1. The quality of the
direction vector alpha decides everything downstream, so this module also
carries the arithmetic toolkit: resonance search on finite lattice balls,
finite-ball Diophantine certificates, and fast-approximable (Liouville-type)
directions built from decimal schedules.

All functions are pure; the domain objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BadSchedule, ResonanceFound, ResonantMode

# Tolerance for "the same point of the torus" in every mod-1 comparison.
TORUS_TOL = 1e-12

# |n . alpha| < RESONANCE_EPS * max(1, |n|_inf) flags n as a resonance.
# Surfaced as --eps-res in the CLI; pass eps_res=0 for exactly-rational
# directions where a true resonance is an exact zero.
RESONANCE_EPS = 1e-10


def reduce_mod1(coords) -> np.ndarray:
    """Componentwise reduction to [0, 1)."""
    r = np.asarray(coords, dtype=float) % 1.0
    # x % 1.0 rounds up to exactly 1.0 for tiny negative x; pull it back.
    r[r >= 1.0] -= 1.0
    return r


def circle_dist(a, b) -> float:
    """Max over components of the distance on the circle R/Z."""
    delta = reduce_mod1(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.max(np.minimum(delta, 1.0 - delta)))


class TorusPoint:
    """A point of T^d, components stored reduced to [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = reduce_mod1(coords)
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("a torus point needs a nonempty coordinate vector")
        self.coords = coords

    @property
    def d(self) -> int:
        return self.coords.size

    def close_to(self, other: "TorusPoint", tol: float = TORUS_TOL) -> bool:
        return circle_dist(self.coords, other.coords) <= tol

    def __repr__(self) -> str:
        return f"TorusPoint({self.coords.tolist()})"


@dataclass(frozen=True)
class DiophantineCertificate:
    """Witness that |n . alpha| * |n|_inf^tau >= c_min on a finite ball.

    The bound is asserted on the swept ball only, never globally.
    """

    tau: float
    radius: int
    c_min: float
    norm_kind: str = "sup"
    argmin: tuple[int, ...] | None = None


class DirectionVector:
    """Flow direction alpha in R^d, with exact rational components.

    Every instance carries exact rational components alongside the float
    ones: exact decimal values when built from decimal strings, exact
    binary values when built from floats. Per-mode dot products n . alpha
    go through the exact representation and are rounded once, so divisors
    as small as 1e-18 survive (invisible to a float-only dot).
    """

    __slots__ = ("alpha", "exact")

    def __init__(self, alpha: Sequence[float], exact: Sequence[Fraction] | None = None):
        arr = np.asarray(alpha, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("alpha must be a nonempty vector")
        if not np.all(np.isfinite(arr)) or not np.any(arr != 0.0):
            raise ValueError("alpha must be finite and nonzero")
        if exact is None:
            exact = tuple(Fraction(float(v)) for v in arr)
        else:
            exact = tuple(Fraction(v) for v in exact)
            if len(exact) != arr.size:
                raise ValueError("exact components do not match alpha")
        self.alpha = arr
        self.exact = exact

    @classmethod
    def from_decimals(cls, strings: Sequence[str]) -> "DirectionVector":
        exact = tuple(Fraction(s) for s in strings)
        return cls([float(f) for f in exact], exact=exact)

    @classmethod
    def golden(cls) -> "DirectionVector":
        return cls([1.0, (1.0 + np.sqrt(5.0)) / 2.0])

    @property
    def d(self) -> int:
        return self.alpha.size

    def dot(self, n: Sequence[int]) -> float:
        """n . alpha in exact rational arithmetic, rounded once to float."""
        total = Fraction(0)
        for v, f in zip(n, self.exact, strict=True):
            if v:
                total += int(v) * f
        return float(total)

    def __repr__(self) -> str:
        return f"DirectionVector({self.alpha.tolist()})"


def divisors(
    alpha: DirectionVector, modes: Sequence[Sequence[int]], eps_res: float = RESONANCE_EPS
) -> np.ndarray:
    """n.alpha for every mode, each rounded once from exact arithmetic.

    A mode is resonant when |n.alpha| < eps_res * |n|_inf, or when n.alpha is
    an exact zero (which eps_res = 0 keeps). Raises ResonantMode on the
    first resonant mode in the order given. Modes are integer tuples, so
    frequencies beyond int64 keep their exact divisors.
    """
    div = np.array([alpha.dot(n) for n in modes])
    ninf = np.abs(np.array(modes, dtype=float).reshape(div.size, alpha.d)).max(axis=1)
    resonant = (np.abs(div) < eps_res * ninf) | (div == 0.0)
    if resonant.any():
        m = int(np.argmax(resonant))
        raise ResonantMode(modes[m], div[m])
    return div


def flow(x: TorusPoint, t: float, alpha: DirectionVector) -> TorusPoint:
    """Time-t flow on the torus: the lift x + t*alpha, reduced mod 1."""
    if x.d != alpha.d:
        raise ValueError("point and direction dimensions disagree")
    lift = x.coords + float(t) * alpha.alpha
    if not np.all(np.isfinite(lift)):
        raise ValueError("lift coordinates must be finite")
    return TorusPoint(lift)


def _half_ball_blocks(d: int, radius: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Canonical half of the punctured sup-ball, vectorized on the last axis.

    Yields (prefix, last_values) blocks covering exactly the n with
    0 < |n|_inf <= radius whose first nonzero entry is positive.
    """
    last_full = np.arange(-radius, radius + 1)
    last_pos = np.arange(1, radius + 1)

    def rec(prefix: tuple[int, ...], seen_nonzero: bool):
        if len(prefix) == d - 1:
            yield prefix, (last_full if seen_nonzero else last_pos)
            return
        lo = -radius if seen_nonzero else 0
        for v in range(lo, radius + 1):
            yield from rec(prefix + (v,), seen_nonzero or v > 0)

    yield from rec((), False)


def _sweep(alpha: DirectionVector, radius: int, tau: float, eps_res: float):
    """One pass over the canonical half-ball.

    Returns (c_min, argmin, resonances). Float64 dot products are accurate
    to ~radius*eps here, orders below every threshold at desk radii; exact
    arithmetic is reserved for per-mode queries.
    """
    a = alpha.alpha
    d = alpha.d
    best = np.inf
    best_n: tuple[int, ...] | None = None
    resonances: list[tuple[int, ...]] = []
    for prefix, last in _half_ball_blocks(d, radius):
        dots = np.abs(np.dot(prefix, a[: d - 1]) + last * a[-1])
        prefix_norm = max((abs(v) for v in prefix), default=0)
        norms = np.maximum(prefix_norm, np.abs(last)).astype(float)
        if eps_res > 0.0:
            mask = dots < eps_res * np.maximum(1.0, norms)
            if mask.any():
                resonances.extend(prefix + (int(v),) for v in last[mask])
        vals = dots * norms**tau
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_n = prefix + (int(last[i]),)
    resonances.sort(key=lambda n: (max(abs(v) for v in n), n))
    return best, best_n, resonances


def find_resonances(
    alpha: DirectionVector, radius: int, eps_res: float = RESONANCE_EPS
) -> list[tuple[int, ...]]:
    """All n with 0 < |n|_inf <= radius and |n.alpha| < eps_res*max(1,|n|_inf).

    Each resonance is normalized so its first nonzero entry is positive
    (n and -n reported once); sorted by (|n|_inf, lexicographic).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    eps = float(eps_res)
    if eps <= 0.0:
        # exact-zero detection still makes sense for rational directions
        out = []
        for prefix, last in _half_ball_blocks(alpha.d, radius):
            for v in last:
                n = prefix + (int(v),)
                if alpha.dot(n) == 0.0:
                    out.append(n)
        out.sort(key=lambda n: (max(abs(x) for x in n), n))
        return out
    _, _, resonances = _sweep(alpha, radius, 0.0, eps)
    return resonances


def certify_diophantine(
    alpha: DirectionVector,
    tau: float,
    radius: int,
    eps_res: float = RESONANCE_EPS,
) -> DiophantineCertificate:
    """Brute-force certificate c_min = min |n.alpha| * |n|_inf^tau on the ball.

    Raises ResonanceFound if any lattice vector in the ball falls below the
    resonance threshold; a certificate over a ball containing a resonance
    would be meaningless.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    c_min, argmin, resonances = _sweep(alpha, radius, float(tau), float(eps_res))
    if resonances:
        n = resonances[0]
        raise ResonanceFound(n, abs(alpha.dot(n)))
    if c_min == 0.0 and argmin is not None:
        # exact resonance slips past a disabled (eps_res = 0) threshold
        raise ResonanceFound(argmin, 0.0)
    return DiophantineCertificate(
        tau=float(tau), radius=int(radius), c_min=c_min, norm_kind="sup", argmin=argmin
    )


class LiouvilleVector(NamedTuple):
    direction: DirectionVector
    convergents: list[tuple[int, int]]


def liouville_vector(d: int, schedule: Sequence[int]) -> LiouvilleVector:
    """Direction (1, lambda) with lambda = sum of 10^(-s_k) over the schedule.

    The schedule must be strictly increasing positive integers; the faster it
    grows, the better lambda is approximated by the partial-sum convergents
    p_k / q_k with q_k = 10^(s_k), which are returned for sweep experiments.
    The last convergent reproduces lambda exactly (lambda is rational), so
    only k < K carry a nonzero divisor.
    """
    if d != 2:
        raise ValueError("liouville directions are built in d = 2")
    sched = [int(s) for s in schedule]
    if not sched or sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise BadSchedule(f"schedule must be strictly increasing and positive: {sched}")
    # p_k / 10^(s_k) is the k-th partial sum: p_k = p_{k-1} 10^(s_k - s_{k-1}) + 1
    convergents: list[tuple[int, int]] = []
    p, prev = 0, 0
    for s in sched:
        p = p * 10 ** (s - prev) + 1
        prev = s
        convergents.append((p, 10**s))
    lam = Fraction(*convergents[-1])
    direction = DirectionVector([1.0, float(lam)], exact=(Fraction(1), lam))
    return LiouvilleVector(direction, convergents)
