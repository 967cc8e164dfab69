"""The linearization map from torus points to twisted path currents.

A point y is represented by a path from the basepoint x to y, so the path
alone fixes both; it is twisted so that coboundaries vanish, and its
identity is the finite table of twisted evaluations on a test battery of
one-forms. Flowing y for time t shifts every table entry by t times the
form's flow average, which is the equivariance law, and the plain dx
entries read off y - x on the torus, which is the Albanese projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .currents import _mode_integrals, _route_terms, check_twist_routes
from .curves import PiecewiseCurve
from .errors import BasepointMismatch, SeparationNotFound
from .spectral import OneForm
from .torus_flow import RESONANCE_EPS, TORUS_TOL, DirectionVector, TorusPoint, divisors

DEFAULT_CUTOFF = 3     # battery modulation frequencies up to this sup norm
SEPARATION_TOL = 1e-9  # table gaps between coincident endpoints below this are one class
_TRIGS = ("cos", "sin")


def canonical_modes(d: int, cutoff: int) -> list[tuple[int, ...]]:
    """Nonzero frequencies with sup norm <= cutoff, one per +- pair.

    The representative has its first nonzero entry positive, i.e. it is
    lexicographically above zero; order is lexicographic, so batteries are
    reproducible.
    """
    zero = (0,) * d
    return [n for n in itertools.product(range(-cutoff, cutoff + 1), repeat=d) if n > zero]


def mode_label(n) -> str:
    return "[" + ",".join(str(int(v)) for v in n) + "]"


class Battery:
    """The test forms: every dx_j, then cos/sin(2 pi n.x) dx_j per mode n.

    Held as the (M, d) array of canonical modes; the form of mode m, trig
    t (0 cos, 1 sin) and component j sits at position d + (2m + t) d + j.
    Iterating yields (id, OneForm) pairs, built on demand.
    """

    __slots__ = ("d", "modes", "ids", "index")

    def __init__(self, d: int, modes: np.ndarray):
        self.d = d
        self.modes = modes
        ids = [f"dx{j + 1}" for j in range(d)]
        for n in modes:
            for trig in _TRIGS:
                ids.extend(f"{trig}{mode_label(n)}dx{j + 1}" for j in range(d))
        self.ids = tuple(ids)
        self.index = {fid: i for i, fid in enumerate(ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return zip(self.ids, self._forms())

    def _forms(self):
        for j in range(self.d):
            yield OneForm.dx(self.d, j)
        for n in self.modes.tolist():
            for trig in _TRIGS:
                for j in range(self.d):
                    yield OneForm.modulated(trig, n, j)


def build_battery(d: int, cutoff: int = DEFAULT_CUTOFF) -> Battery:
    """The battery of every canonical mode with sup norm <= cutoff."""
    if cutoff < 1:
        raise ValueError("battery cutoff must be >= 1")
    return Battery(d, np.array(canonical_modes(d, cutoff), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class LinearizationPoint:
    """A point of the target group: the twisted current of a path from x to y.

    table holds the twisted value of every battery form, in battery order
    (form id fid sits at battery.index[fid]); it is the finite shadow of
    the current and everything downstream reads only this vector. raw holds
    the untwisted values alongside, and path the representative path, whose
    start and end are the basepoint x and the point y.
    """

    path: PiecewiseCurve
    table: np.ndarray
    raw: np.ndarray
    battery: Battery

    @property
    def basepoint(self) -> TorusPoint:
        return self.path.start

    @property
    def endpoint(self) -> TorusPoint:
        return self.path.end


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of an injectivity probe between two linearization points."""

    endpoints_differ: bool
    separated: bool
    form: str | None
    gap: float
    same_class: bool | None  # set only when the endpoints coincide


def _battery_vector(dx: np.ndarray, modulated: np.ndarray) -> np.ndarray:
    """dx entries, then per mode the real (cos) and imaginary (sin) rows."""
    rows = np.stack([modulated.real, modulated.imag], axis=1)
    return np.concatenate([dx, rows.reshape(-1)])


def _tabulate(
    path: PiecewiseCurve, alpha: DirectionVector, battery: Battery, eps_res: float
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and twisted battery vectors of a path, from one segment x mode matrix.

    The per-mode integrals K[n, j] of e^{2 pi i n.x} dx_j, whose real and
    imaginary parts are the cos and sin forms, are twisted by alpha_j /
    n.alpha times each route term of currents._route_terms; the two routes
    are held to check_twist_routes. The dx forms have h = 0.
    """
    if not path.d == battery.d == alpha.d:
        raise ValueError("dimension mismatch")
    div = divisors(alpha, battery.modes.tolist(), eps_res)
    modes = battery.modes.astype(float)
    K = _mode_integrals(path, modes)
    boundary, form = _route_terms(path, modes, K)
    scale = alpha.alpha[None, :] / div[:, None]
    zero = np.zeros(battery.d)
    raw = _battery_vector(path.displacements.sum(axis=0), K)
    twisted = raw - _battery_vector(zero, scale * boundary[:, None])
    via_form = raw - _battery_vector(zero, scale * form[:, None])
    check_twist_routes(raw, twisted, via_form)
    return raw, twisted


def linearize(
    path: PiecewiseCurve,
    alpha: DirectionVector,
    battery: Battery,
    eps_res: float = RESONANCE_EPS,
) -> LinearizationPoint:
    """Twist the current of a path from x to y and tabulate it on the battery.

    Which path from x to y is chosen only moves the result by a loop
    current.
    """
    raw, table = _tabulate(path, alpha, battery, eps_res)
    return LinearizationPoint(path, table=table, raw=raw, battery=battery)


def generator(
    alpha: DirectionVector, battery: Battery, eps_res: float = RESONANCE_EPS
) -> np.ndarray:
    """Flow averages of every battery form: alpha on the dx entries, else 0.

    The vector is in battery order. A modulated form has flow average
    zero, but it is still obstructed on a resonant mode, so the divisors
    are checked as the solver would.
    """
    if alpha.d != battery.d:
        raise ValueError("dimension mismatch")
    divisors(alpha, battery.modes.tolist(), eps_res)
    values = np.zeros(len(battery))
    values[: alpha.d] = alpha.alpha
    return values


def check_equivariance(
    p: LinearizationPoint,
    t: float,
    alpha: DirectionVector,
    eps_res: float = RESONANCE_EPS,
) -> float:
    """Max battery gap of (point flowed for time t) vs (table shifted by ct).

    The flowed point is represented by the original path extended with the
    flow segment of duration t, the representative for which the shift law
    is an exact identity; it is tabulated afresh, independently of p, so
    the return value is numerical dust.
    """
    extended = p.path
    if t != 0.0:
        extended = PiecewiseCurve(
            extended.start_lift,
            np.vstack([extended.displacements, float(t) * alpha.alpha]),
            np.append(extended.flow, True),
        )
    q = linearize(extended, alpha, p.battery, eps_res=eps_res)
    # the generator times t: alpha t on the dx entries, 0 elsewhere; the
    # linearize above has already checked the divisors
    gap = q.table - p.table
    gap[: alpha.d] -= alpha.alpha * t
    return float(np.max(np.abs(gap)))


def albanese(p: LinearizationPoint) -> TorusPoint:
    """The dx entries of the table, as a point of the torus (reduced mod 1)."""
    return TorusPoint(p.table[: p.battery.d])


def injectivity_probe(p1: LinearizationPoint, p2: LinearizationPoint) -> SeparationReport:
    """Search the battery for a form telling the two points apart.

    Distinct endpoints (more than TORUS_TOL apart) are separated by the
    first dx form whose gap exceeds the same TORUS_TOL: a dx entry reads the
    path's displacement, so with a common basepoint some dx gap does. If
    none does (basepoints that differ within TORUS_TOL), SeparationNotFound
    is raised; a finite battery can be inconclusive but never refutes
    injectivity. Coincident endpoints compare whole tables at SEPARATION_TOL,
    where the modulated entries differ by a loop current.
    """
    if not p1.basepoint.close_to(p2.basepoint):
        raise BasepointMismatch("probes need a common basepoint")
    if p1.battery.ids != p2.battery.ids:
        raise ValueError("probes need a common battery")
    diff = p1.table - p2.table
    if p1.endpoint.close_to(p2.endpoint):
        worst_at = int(np.argmax(np.abs(diff)))
        worst = float(abs(diff[worst_at]))
        if worst <= SEPARATION_TOL:
            return SeparationReport(False, False, None, 0.0, same_class=True)
        return SeparationReport(False, False, p1.battery.ids[worst_at], worst, same_class=False)
    for j in range(p1.battery.d):
        if abs(diff[j]) > TORUS_TOL:
            return SeparationReport(True, True, p1.battery.ids[j], float(abs(diff[j])),
                                    same_class=None)
    raise SeparationNotFound(
        "no battery form separates the two points at the current cutoff"
    )
