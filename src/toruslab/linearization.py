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

from .currents import check_twist_routes, phase_kernel
from .curves import PiecewiseCurve
from .errors import BasepointMismatch, ResonantMode, SeparationNotFound
from .spectral import OneForm
from .torus_flow import RESONANCE_EPS, DirectionVector, TorusPoint

DEFAULT_CUTOFF = 3     # battery modulation frequencies up to this sup norm
SEPARATION_TOL = 1e-9  # evaluation gaps below this never count as separation
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


def _divisors(alpha: DirectionVector, battery: Battery, eps_res: float) -> np.ndarray:
    """n.alpha for every battery mode, each rounded once from exact arithmetic.

    Raises ResonantMode on the first mode, in battery order, that
    solve_cohomological would reject.
    """
    if alpha.d != battery.d:
        raise ValueError("dimension mismatch")
    div = np.array([alpha.dot(n) for n in battery.modes.tolist()])
    ninf = np.abs(battery.modes).max(axis=1)
    resonant = (np.abs(div) < eps_res * ninf) | (div == 0.0)
    if resonant.any():
        m = int(np.argmax(resonant))
        raise ResonantMode(battery.modes[m], div[m])
    return div


def _battery_vector(dx: np.ndarray, modulated: np.ndarray) -> np.ndarray:
    """dx entries, then per mode the real (cos) and imaginary (sin) rows."""
    rows = np.stack([modulated.real, modulated.imag], axis=1)
    return np.concatenate([dx, rows.reshape(-1)])


def _tabulate(
    path: PiecewiseCurve, alpha: DirectionVector, battery: Battery, eps_res: float
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and twisted battery vectors of a path, from one segment x mode matrix.

    K[n, j] = sum_s v_s[j] e^{2 pi i n.x_s} E(n.v_s) integrates the complex
    form e^{2 pi i n.x} dx_j, whose real and imaginary parts are the cos and
    sin forms. Its transfer function is h = alpha_j e^{2 pi i n.x} /
    (2 pi i n.alpha), so the twist subtracts h(end) - h(start) (boundary
    route); the integral of dh, alpha_j (n.K_n) / n.alpha, is the form
    route, and the two are held to check_twist_routes. The dx forms have
    h = 0.
    """
    div = _divisors(alpha, battery, eps_res)
    if path.d != battery.d:
        raise ValueError("dimension mismatch")
    modes = battery.modes.astype(float)
    disps = path.displacements
    # einsum, not a complex matmul: BLAS buffers cost RSS
    K = np.einsum("sm,sj->mj", phase_kernel(path, modes), disps)
    if path.is_closed:
        jump = np.zeros(len(div), dtype=complex)
    else:
        z = np.exp(2j * np.pi * (np.stack([path.end.coords, path.start.coords]) @ modes.T))
        jump = z[0] - z[1]
    scale = alpha.alpha[None, :] / div[:, None]
    zero = np.zeros(battery.d)
    raw = _battery_vector(disps.sum(axis=0), K)
    twisted = raw - _battery_vector(zero, scale * (jump / (2j * np.pi))[:, None])
    via_form = raw - _battery_vector(zero, scale * (K * modes).sum(axis=1)[:, None])
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
    _divisors(alpha, battery, eps_res)
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


def _theta_probes(alpha: DirectionVector, battery: Battery):
    """Flow-annihilating combinations of battery forms.

    theta = alpha_j * (g dx_k) - alpha_k * (g dx_j) contracts to zero with
    the flow field, so its twisted value is the raw integral; the gap is a
    linear combination of existing table entries. Yields the probe name and
    the two (table position, weight) terms; modes run in the text order of
    their labels.
    """
    d = battery.d
    labels = [mode_label(n) for n in battery.modes]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    for t, trig in enumerate(_TRIGS):
        for m in order:
            base = d + (2 * m + t) * d
            for j in range(d):
                for k in range(j + 1, d):
                    name = f"theta[{trig}{labels[m]},{j + 1},{k + 1}]"
                    yield name, (base + k, alpha.alpha[j]), (base + j, -alpha.alpha[k])


def injectivity_probe(
    p1: LinearizationPoint, p2: LinearizationPoint, alpha: DirectionVector
) -> SeparationReport:
    """Search the battery for a form telling the two points apart.

    Probe order: the dx forms first (they read endpoint coordinates), then
    flow-annihilating theta combinations, then the time-normalized form.
    A sub-threshold gap everywhere raises SeparationNotFound; a finite
    battery can be inconclusive but never refutes injectivity.
    """
    if not p1.basepoint.close_to(p2.basepoint):
        raise BasepointMismatch("probes need a common basepoint")
    if p1.battery.ids != p2.battery.ids:
        raise ValueError("probes need a common battery")
    d = p1.battery.d
    diff = p1.table - p2.table
    endpoints_differ = not p1.endpoint.close_to(p2.endpoint)

    if not endpoints_differ:
        worst_at = int(np.argmax(np.abs(diff)))
        worst = float(abs(diff[worst_at]))
        if worst <= SEPARATION_TOL:
            return SeparationReport(False, False, None, 0.0, same_class=True)
        return SeparationReport(False, False, p1.battery.ids[worst_at], worst, same_class=False)

    def separated(form: str, gap: float) -> SeparationReport:
        return SeparationReport(True, True, form, float(gap), same_class=None)

    for j in range(d):
        if abs(diff[j]) > SEPARATION_TOL:
            return separated(p1.battery.ids[j], abs(diff[j]))
    for name, (k, wk), (j, wj) in _theta_probes(alpha, p1.battery):
        gap = abs(wk * diff[k] + wj * diff[j])
        if gap > SEPARATION_TOL:
            return separated(name, gap)
    j0 = int(np.argmax(np.abs(alpha.alpha)))
    gap = abs(diff[j0] / float(alpha.alpha[j0]))
    if gap > SEPARATION_TOL:
        return separated("eta0", gap)
    raise SeparationNotFound(
        "no battery form separates the two points at the current cutoff"
    )
