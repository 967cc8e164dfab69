"""Integration 1-currents over polygonal torus curves.

A curve is read as a current by integration: every function here takes
the curve itself. Trig-poly one-forms integrate in closed form, one
exponential kernel per (segment, mode) pair. A form is read as its mode
list and an (M, d) coefficient matrix C, contracted with the per-mode
integrals K of _mode_integrals; the twisted evaluation subtracts the
coboundary part of the form mode by mode (_route_terms), so only its
flow-cohomology class is seen. The battery tabulation of linearization
runs on the same two helpers.
"""

from __future__ import annotations

import numpy as np

from .curves import CurveFamily, PiecewiseCurve
from .errors import TwistRouteMismatch
from .spectral import OneForm
from .torus_flow import RESONANCE_EPS, DirectionVector, divisors, reduce_mod1

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


def _mode_integrals(path: PiecewiseCurve, modes: np.ndarray) -> np.ndarray:
    """(M, d) integrals K[n, j] = sum_s v_s[j] e^{2 pi i n.x_s} E(n.v_s).

    K[n, j] is the integral of the complex form e^{2 pi i n.x} dx_j along
    the path; modes is an (M, d) float array.
    """
    # einsum, not a complex matmul: BLAS buffers cost RSS
    return np.einsum("sm,sj->mj", phase_kernel(path, modes), path.displacements)


def _route_terms(path: PiecewiseCurve, modes: np.ndarray, K: np.ndarray):
    """Boundary and form terms of every mode, before the factor alpha_j / n.alpha.

    The transfer function of e^{2 pi i n.x} dx_j is h = alpha_j e^{2 pi i
    n.x} / (2 pi i n.alpha). The boundary route subtracts h(y) - h(x), whose
    term is (e^{2 pi i n.y} - e^{2 pi i n.x}) / (2 pi i), zero on a closed
    path; the form route subtracts the integral of dh, whose term is n.K_n.
    """
    if path.is_closed:
        jump = np.zeros(len(modes), dtype=complex)
    else:
        z = np.exp(2j * np.pi * (np.stack([path.end.coords, path.start.coords]) @ modes.T))
        jump = z[0] - z[1]
    return jump / (2j * np.pi), (K * modes).sum(axis=1)


def _coefficients(eta: OneForm):
    """The modes of eta, in order of first appearance, and its (M, d) coefficients."""
    comps = [p.modes for p in eta.components]
    modes = list(dict.fromkeys(n for comp in comps for n in comp))
    return modes, np.array([[comp.get(n, 0.0) for comp in comps] for n in modes], dtype=complex)


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
    """Exact line integral of a trig-poly one-form along the curve, Re sum C * K.

    The Hermitian mode set makes the total real.
    """
    if curve.d != eta.d:
        raise ValueError("dimension mismatch")
    modes, C = _coefficients(eta)
    if not modes:
        return 0.0
    return float(np.sum(C * _mode_integrals(curve, np.array(modes, dtype=float))).real)


def evaluate_family(family: CurveFamily, eta: OneForm) -> float:
    """Sum of the member currents, the current of a curve family."""
    return float(sum(evaluate(c, eta) for c in family))


def evaluate_twisted(curve: PiecewiseCurve, eta: OneForm, alpha: DirectionVector,
                     eps_res: float = RESONANCE_EPS) -> float:
    """The curve's integral of eta minus the coboundary part of eta.

    eta(X) has coefficients g = C alpha; only modes n != 0 that g carries are
    twisted, by g_n / n.alpha times their route terms, so a resonant frequency
    that eta(X) does not carry is harmless. The boundary and form routes are
    held to check_twist_routes on every call.
    """
    if not curve.d == eta.d == alpha.d:
        raise ValueError("dimension mismatch")
    modes, C = _coefficients(eta)
    if not modes:
        return 0.0
    fmodes = np.array(modes, dtype=float)
    K = _mode_integrals(curve, fmodes)
    raw = float(np.sum(C * K).real)
    g = (C * alpha.alpha).sum(axis=1)
    carried = np.flatnonzero((g != 0.0) & fmodes.any(axis=1))
    weight = g[carried] / divisors(alpha, [modes[m] for m in carried], eps_res)
    boundary, form = _route_terms(curve, fmodes[carried], K[carried])
    via_boundary = raw - float(np.sum(weight * boundary).real)
    via_form = raw - float(np.sum(weight * form).real)
    check_twist_routes(raw, via_boundary, via_form)
    return via_boundary
