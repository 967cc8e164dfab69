"""Integration 1-currents over polygonal torus curves.

A curve is read as a current by integration: every function here takes
the curve itself. Trig-poly one-forms integrate in closed form, one
exponential kernel per (segment, mode) pair (phase_kernel, shared with the
battery tabulation of linearization). The boundary of a curve is the signed
point mass curves.boundary_multiset; on top of it sits the twisted
evaluation, which subtracts the coboundary part of a form so only its
flow-cohomology class is seen.
"""

from __future__ import annotations

import numpy as np

from .curves import CurveFamily, PiecewiseCurve, boundary_multiset
from .errors import TwistRouteMismatch
from .spectral import OneForm, exterior_derivative, solve_for_form
from .torus_flow import RESONANCE_EPS, DirectionVector, reduce_mod1

SERIES_CUTOFF = 1e-4   # |u| below this evaluates E(u) by Taylor series
TWIST_TOL = 1e-10      # twisted routes must agree to this, relative to their largest term
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


def phase_kernel(path: PiecewiseCurve, modes: np.ndarray) -> np.ndarray:
    """(S, M) kernel e^{2 pi i n.x_s} E(n.v_s) of every segment s and mode n.

    modes is an (M, d) float array of integer frequencies. Segment starts
    x_s are reduced mod 1 first, which is exact for integer n and keeps the
    phases accurate on lifts far from the origin.
    """
    kernel = np.exp(2j * np.pi * (reduce_mod1(path.starts) @ modes.T))
    kernel *= phase_average(path.displacements @ modes.T)
    return kernel


def check_twist_routes(raw, via_boundary, via_form) -> None:
    """Raise TwistRouteMismatch unless the two twisted routes agree.

    Entry by entry, |via_boundary - via_form| must be at most TWIST_TOL
    times the entry's largest term, max(1, |raw|, |boundary term|, |form
    term|), where a route's term is raw minus the route. Both routes carry
    the same amplification 1/(2 pi |n.alpha|), so their rounding error
    scales with their terms, not with 1. The entry furthest over its bound
    is reported; NaN fails too.
    """
    scale = np.maximum(
        np.maximum(1.0, np.abs(raw)),
        np.maximum(np.abs(raw - via_boundary), np.abs(raw - via_form)),
    )
    excess = np.atleast_1d(np.abs(via_boundary - via_form) / scale)
    worst = int(np.argmax(excess))
    if not excess[worst] <= TWIST_TOL:
        raise TwistRouteMismatch(np.ravel(via_boundary)[worst], np.ravel(via_form)[worst])


def evaluate(curve: PiecewiseCurve, eta: OneForm) -> float:
    """Exact line integral of a trig-poly one-form along the curve.

    One phase kernel K covers the modes of every component: segment s and
    mode n of component j contribute v_s[j] K[s, n] c_n, and the Hermitian
    mode set makes the total real.
    """
    if curve.d != eta.d:
        raise ValueError("dimension mismatch")
    terms = [(j, n, c) for j, comp in enumerate(eta.components) for n, c in comp.modes.items()]
    if not terms:
        return 0.0
    cols, modes, coeffs = zip(*terms)
    kernel = phase_kernel(curve, np.array(modes, dtype=float))
    return float(np.sum(curve.displacements[:, list(cols)] * kernel * np.array(coeffs)).real)


def evaluate_family(family: CurveFamily, eta: OneForm) -> float:
    """Sum of the member currents, the current of a curve family."""
    return float(sum(evaluate(c, eta) for c in family))


def evaluate_twisted(curve: PiecewiseCurve, eta: OneForm, alpha: DirectionVector,
                     eps_res: float = RESONANCE_EPS) -> float:
    """The curve's integral of eta minus its boundary paired with h_eta.

    h_eta is the transfer function of eta along alpha. Computed twice, once
    as raw minus boundary term and once as the integral of eta - dh_eta;
    the two routes are held to check_twist_routes on every call.
    """
    sol = solve_for_form(eta, alpha, eps_res=eps_res)
    raw = evaluate(curve, eta)
    via_boundary = raw - boundary_multiset(curve).pair(sol.h)
    via_form = evaluate(curve, eta - exterior_derivative(sol.h))
    check_twist_routes(raw, via_boundary, via_form)
    return via_boundary
