"""Integration 1-currents over polygonal torus curves.

A curve integrates trig-poly one-forms in closed form, one exponential
kernel per (segment, mode) pair. On top of that sit the boundary operator
(a signed point mass), the endpoint projection, and the twisted evaluation
that subtracts the coboundary part of a form so only its flow-cohomology
class is seen.
"""

from __future__ import annotations

import numpy as np

from .curves import CurveFamily, PiecewiseCurve
from .errors import BasepointMismatch, TwistRouteMismatch
from .spectral import OneForm, TrigPoly, exterior_derivative, solve_for_form
from .torus_flow import (
    RESONANCE_EPS,
    TORUS_TOL,
    DirectionVector,
    TorusPoint,
    circle_dist,
    reduce_mod1,
)

SERIES_CUTOFF = 1e-4   # |u| below this evaluates E(u) by Taylor series
TWIST_TOL = 1e-10      # the two twisted-evaluation routes must agree to this
_TWO_PI = 2.0 * np.pi


def phase_average(u):
    """E(u) = (e^{2 pi i u} - 1) / (2 pi i u), with E(0) = 1. Vectorized.

    The generic branch uses sin(2 pi u) + 2 i sin^2(pi u) for the numerator,
    which is exact cancellation-free trigonometry; tiny |u| switches to the
    Taylor series in z = 2 pi i u. The branches agree to 1e-14 at the
    switchover.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < SERIES_CUTOFF
    z = 2j * np.pi * u
    series = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    safe = np.where(small, 1.0, u)
    closed = (np.sin(_TWO_PI * safe) + 2j * np.sin(np.pi * safe) ** 2) / (_TWO_PI * safe)
    return np.where(small, series, closed)


class CurrentHandle:
    """The integration current of one curve."""

    __slots__ = ("source",)

    def __init__(self, source: PiecewiseCurve):
        self.source = source

    @property
    def d(self) -> int:
        return self.source.d

    def __call__(self, eta: OneForm) -> float:
        return evaluate(self, eta)

    def __repr__(self) -> str:
        return f"CurrentHandle({self.source!r})"


class ZeroCurrent:
    """A signed finite point mass on the torus (a current of degree zero).

    Atoms within TORUS_TOL of each other (mod 1) are merged; zero weights
    are dropped, so the empty mass is falsy.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        merged: list[list] = []
        for point, weight in atoms:
            coords = reduce_mod1(
                np.asarray(getattr(point, "coords", point), dtype=float)
            )
            for atom in merged:
                if circle_dist(atom[0], coords) <= TORUS_TOL:
                    atom[1] += weight
                    break
            else:
                merged.append([coords, float(weight)])
        kept = [
            (TorusPoint(c), float(w)) for c, w in merged if abs(w) > 1e-12
        ]
        kept.sort(key=lambda pw: tuple(pw[0].coords.tolist()))
        self.atoms = tuple(kept)

    def pair(self, f: TrigPoly) -> float:
        """Pairing with a function: sum of w * f(point)."""
        return float(sum(w * f(p) for p, w in self.atoms))

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def __bool__(self) -> bool:
        return bool(self.atoms)

    def close_to(self, other: "ZeroCurrent", tol: float = TORUS_TOL) -> bool:
        remaining = [[p.coords, w] for p, w in other.atoms]
        for p, w in self.atoms:
            for atom in remaining:
                if circle_dist(atom[0], p.coords) <= tol:
                    atom[1] -= w
                    break
            else:
                remaining.append([p.coords, -w])
        return all(abs(w) <= 1e-9 for _, w in remaining)

    def __repr__(self) -> str:
        terms = " ".join(
            f"{w:+g}*d{tuple(np.round(p.coords, 6))}" for p, w in self.atoms
        )
        return f"ZeroCurrent({terms or '0'})"


def evaluate(T: CurrentHandle, eta: OneForm) -> float:
    """Exact line integral of a trig-poly one-form along the source curve.

    Each segment contributes c_n * v_j * e^{2 pi i n.x0} * E(n.v) per mode
    n of component j; the Hermitian mode set makes the total real. Segment
    starts are reduced mod 1 first, which is exact for integer n and keeps
    the phases accurate on lifts far from the origin.
    """
    curve = T.source
    if curve.d != eta.d:
        raise ValueError("dimension mismatch")
    if curve.n_segments == 0:
        return 0.0
    starts = reduce_mod1(curve.starts)
    disps = curve.displacements
    total = 0.0 + 0.0j
    for j, comp in enumerate(eta.components):
        if not comp.modes:
            continue
        modes = np.array(list(comp.modes.keys()), dtype=float)
        coeffs = np.array(list(comp.modes.values()), dtype=complex)
        phases = starts @ modes.T
        winds = disps @ modes.T
        total += np.sum(
            disps[:, j : j + 1]
            * np.exp(2j * np.pi * phases)
            * phase_average(winds)
            * coeffs[None, :]
        )
    return float(total.real)


def evaluate_family(family: CurveFamily, eta: OneForm) -> float:
    """Sum of the member currents, the current of a curve family."""
    return float(sum(evaluate(CurrentHandle(c), eta) for c in family))


def boundary(T: CurrentHandle) -> ZeroCurrent:
    """Endpoint minus start point; empty for a closed curve."""
    curve = T.source
    if curve.is_closed:
        return ZeroCurrent()
    return ZeroCurrent([(curve.end, 1.0), (curve.start, -1.0)])


def project_pi_x(T: CurrentHandle, x: TorusPoint) -> ZeroCurrent:
    """The affine endpoint projection: boundary plus the mass at x.

    For a curve starting at x the two start terms cancel, leaving the
    endpoint mass alone, so homotopy class information is discarded.
    """
    if circle_dist(T.source.start_lift, x.coords) > 1e-12:
        raise BasepointMismatch(
            "projection basepoint does not match the curve start"
        )
    return ZeroCurrent([(T.source.end, 1.0)])


def is_loop_current(T1: CurrentHandle, T2: CurrentHandle) -> bool:
    """True when T1 - T2 closes up into a loop current.

    Requires a common basepoint; then the difference is a loop current
    exactly when the boundaries agree, i.e. the endpoints coincide.
    """
    if circle_dist(T1.source.start_lift, T2.source.start_lift) > 1e-12:
        raise BasepointMismatch("loop-current test needs a common basepoint")
    return boundary(T1).close_to(boundary(T2))


class TwistedCurrent:
    """A curve current composed with the coboundary-killing projection."""

    __slots__ = ("base", "alpha", "eps_res")

    def __init__(self, base: CurrentHandle, alpha: DirectionVector,
                 eps_res: float = RESONANCE_EPS):
        self.base = base
        self.alpha = alpha
        self.eps_res = eps_res

    def __call__(self, eta: OneForm) -> float:
        return evaluate_twisted(self, eta)

    def __repr__(self) -> str:
        return f"TwistedCurrent({self.base!r})"


def twist(T: CurrentHandle, alpha: DirectionVector,
          eps_res: float = RESONANCE_EPS) -> TwistedCurrent:
    """Attach the twist; no computation happens until evaluation."""
    return TwistedCurrent(T, alpha, eps_res)


def evaluate_twisted(LT: TwistedCurrent, eta: OneForm) -> float:
    """T(eta) minus the boundary paired with the transfer function h_eta.

    Computed twice, once as raw minus boundary term and once as the
    integral of eta - dh_eta; routes further apart than TWIST_TOL raise
    TwistRouteMismatch on every call.
    """
    sol = solve_for_form(eta, LT.alpha, eps_res=LT.eps_res)
    raw = evaluate(LT.base, eta)
    via_boundary = raw - boundary(LT.base).pair(sol.h)
    via_form = evaluate(LT.base, eta - exterior_derivative(sol.h))
    if not abs(via_boundary - via_form) <= TWIST_TOL:  # NaN fails too
        raise TwistRouteMismatch(via_boundary, via_form)
    return via_boundary
