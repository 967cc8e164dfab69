import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from toruslab import currents
from toruslab.currents import (
    SERIES_CUTOFF,
    evaluate,
    evaluate_family,
    evaluate_twisted,
    phase_average,
)
from toruslab.curves import (
    CurveFamily,
    PiecewiseCurve,
    ZeroCurrent,
    boundary_multiset,
    concatenate,
    find_retraced_arc,
    maximal_excision,
)
from toruslab.errors import ResonantMode, TwistRouteMismatch
from toruslab.linearization import build_battery, linearize
from toruslab.spectral import OneForm, TrigPoly, exterior_derivative
from toruslab.torus_flow import DirectionVector

GOLDEN = DirectionVector.golden()
QUAD_BATTERY = build_battery(2, cutoff=1)


def tcurve(basepoint, *disps):
    return PiecewiseCurve.from_steps(
        basepoint, [("transverse", d) for d in disps]
    )


def random_poly(rng, d=2, n_modes=4, cutoff=5):
    modes = {}
    for _ in range(n_modes):
        n = tuple(int(v) for v in rng.integers(-cutoff, cutoff + 1, size=d))
        if n == (0,) * d:
            continue
        c = complex(rng.normal(), rng.normal())
        m = tuple(-v for v in n)
        modes[n] = modes.get(n, 0) + c
        modes[m] = modes.get(m, 0) + c.conjugate()
    modes[(0,) * d] = complex(rng.normal(), 0.0)
    return TrigPoly(d, modes)


def random_curve(rng, d=2, n_segments=3):
    disps = rng.uniform(-0.5, 0.5, size=(n_segments, d))
    disps[np.all(np.abs(disps) < 1e-3, axis=1)] += 0.1
    return tcurve(rng.uniform(0, 1, size=d), *disps)


# --- kernel ---


def test_phase_average_at_zero_is_one():
    assert phase_average(0.0) == pytest.approx(1.0, abs=1e-15)


def test_phase_average_matches_naive_formula_away_from_zero():
    u = np.concatenate([np.linspace(-3, -1e-3, 113), np.linspace(1e-3, 3, 113)])
    naive = (np.exp(2j * np.pi * u) - 1.0) / (2j * np.pi * u)
    assert np.max(np.abs(phase_average(u) - naive)) < 1e-13


def test_phase_average_branches_agree_at_switchover():
    u = np.linspace(0.2 * SERIES_CUTOFF, 5.0 * SERIES_CUTOFF, 1001)
    closed = (np.sin(2 * np.pi * u) + 2j * np.sin(np.pi * u) ** 2) / (2 * np.pi * u)
    assert np.max(np.abs(phase_average(u) - closed)) < 1e-14


def test_phase_average_vanishes_at_nonzero_integers():
    assert np.max(np.abs(phase_average(np.array([1.0, -2.0, 7.0])))) < 1e-14


# --- evaluation ---


def test_winding_loop_on_dx_gives_winding_number():
    T = tcurve([0.3, 0.7], [1.0, 0.0])
    assert evaluate(T, OneForm.dx(2, 0)) == pytest.approx(1.0, abs=1e-14)
    assert evaluate(T, OneForm.dx(2, 1)) == pytest.approx(0.0, abs=1e-14)


def test_zero_form_evaluates_to_zero():
    T = tcurve([0.1, 0.2], [0.3, 0.4], [0.2, -0.1])
    zero = OneForm([TrigPoly.constant(2, 0.0), TrigPoly.constant(2, 0.0)])
    assert evaluate(T, zero) == 0.0


def test_half_period_cosine_integral_is_zero():
    T = tcurve([0.0, 0.0], [0.5, 0.0])
    eta = OneForm([TrigPoly.cosine((1, 0)), TrigPoly.constant(2, 0.0)])
    assert evaluate(T, eta) == pytest.approx(0.0, abs=1e-14)


def test_dimension_mismatch_rejected():
    T = tcurve([0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError):
        evaluate(T, OneForm.dx(3, 0))


def quadrature(curve, comps):
    """Integral of the one-form with components comps along curve, by scipy quad."""

    def integrand(u, start, disp):
        x = start + u * disp
        return sum(
            comps[j](x) * disp[j] for j in range(len(comps))
        )

    total = 0.0
    for start, disp in zip(curve.starts, curve.displacements):
        val, err = quad(
            integrand, 0.0, 1.0, args=(start, disp), limit=400, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-8
        total += val
    return total


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_matches_quadrature(seed):
    rng = np.random.default_rng(300 + seed)
    curve = random_curve(rng, n_segments=2)
    comps = [random_poly(rng, n_modes=3) for _ in range(2)]
    eta = OneForm(comps)
    assert evaluate(curve, eta) == pytest.approx(quadrature(curve, comps), abs=1e-8)
    # the battery table shares evaluate's phase kernel; quad checks it independently
    raw = linearize(curve, GOLDEN, QUAD_BATTERY).raw
    for (fid, form), value in zip(QUAD_BATTERY, raw):
        assert value == pytest.approx(quadrature(curve, form.components), abs=1e-8), fid


def test_additivity_under_concatenation():
    rng = np.random.default_rng(7)
    g1 = tcurve([0.1, 0.9], [0.3, -0.2], [0.1, 0.4])
    g2 = tcurve(g1.end_lift, [0.2, 0.2])
    eta = OneForm([random_poly(rng), random_poly(rng)])
    total = evaluate(concatenate(g1, g2), eta)
    parts = evaluate(g1, eta) + evaluate(g2, eta)
    assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_linearity_in_the_form():
    rng = np.random.default_rng(8)
    T = random_curve(rng)
    e1 = OneForm([random_poly(rng), random_poly(rng)])
    e2 = OneForm([random_poly(rng), random_poly(rng)])
    lhs = evaluate(T, 2.5 * e1 - 0.75 * e2)
    rhs = 2.5 * evaluate(T, e1) - 0.75 * evaluate(T, e2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_reversal_antisymmetry():
    rng = np.random.default_rng(9)
    curve = random_curve(rng)
    eta = OneForm([random_poly(rng), random_poly(rng)])
    fwd = evaluate(curve, eta)
    bwd = evaluate(curve.reverse(), eta)
    assert bwd == pytest.approx(-fwd, rel=1e-12, abs=1e-12)


def test_deck_translate_invariance():
    rng = np.random.default_rng(10)
    eta = OneForm([random_poly(rng), random_poly(rng)])
    g = tcurve([0.2, 0.6], [0.3, -0.1], [-0.4, 0.25])
    shifted = tcurve([3.2, -1.4], [0.3, -0.1], [-0.4, 0.25])
    a = evaluate(g, eta)
    b = evaluate(shifted, eta)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# --- zero currents and boundaries ---


def test_zero_current_merges_and_cancels():
    z = ZeroCurrent([((0.25, 0.5), 1.0), ((1.25, -0.5), -1.0)])
    assert not z


def test_zero_current_pairs_with_functions():
    z = ZeroCurrent([((0.25, 0.0), 2.0), ((0.5, 0.0), -1.0)])
    f = TrigPoly.cosine((1, 0))
    # 2*cos(pi/2) - (-1)*... : cos at 0.25 is 0, at 0.5 is -1
    assert z.pair(f) == pytest.approx(1.0, abs=1e-14)
    assert z.pair(TrigPoly.constant(2, 3.0)) == pytest.approx(3.0, abs=1e-14)


def test_boundary_of_closed_curve_is_empty():
    loop = tcurve([0.2, 0.3], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])
    assert not boundary_multiset(loop)


def test_boundary_of_open_curve():
    T = tcurve([0.1, 0.2], [0.25, 0.3])
    b = boundary_multiset(T)
    assert len(b.atoms) == 2
    f = TrigPoly.cosine((0, 1))
    expected = np.cos(2 * np.pi * 0.5) - np.cos(2 * np.pi * 0.2)
    assert b.pair(f) == pytest.approx(expected, abs=1e-14)


def test_boundary_pairs_to_zero_with_constants():
    T = tcurve([0.1, 0.2], [0.25, 0.3])
    assert boundary_multiset(T).pair(TrigPoly.constant(2, 42.0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_stokes_consistency(seed):
    rng = np.random.default_rng(400 + seed)
    curve = random_curve(rng, n_segments=int(rng.integers(1, 5)))
    f = random_poly(rng, n_modes=4)
    assert evaluate(curve, exterior_derivative(f)) == pytest.approx(
        boundary_multiset(curve).pair(f), abs=1e-10
    )


def test_stokes_on_closed_curve_is_zero():
    rng = np.random.default_rng(11)
    loop = tcurve([0.2, 0.3], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])
    f = random_poly(rng)
    assert evaluate(loop, exterior_derivative(f)) == pytest.approx(
        0.0, abs=1e-10
    )


# --- twisted evaluation ---


def test_twist_is_identity_on_loops():
    rng = np.random.default_rng(12)
    loop = tcurve([0.2, 0.3], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])
    for _ in range(5):
        eta = OneForm([random_poly(rng), random_poly(rng)])
        assert evaluate_twisted(loop, eta, GOLDEN) == evaluate(loop, eta)


def test_twist_annihilates_exact_forms():
    rng = np.random.default_rng(13)
    for _ in range(5):
        curve = random_curve(rng)
        f = random_poly(rng, n_modes=3)
        assert abs(evaluate_twisted(curve, exterior_derivative(f), GOLDEN)) < 1e-10


def test_flow_segment_against_unit_contraction_form_reads_time():
    s = 0.8375
    seg = PiecewiseCurve.from_steps(
        [0.31, 0.47], [("flow", s * GOLDEN.alpha)]
    )
    # eta0 = dx1 has eta0(X) = alpha_1 = 1 for the golden direction
    assert evaluate_twisted(seg, OneForm.dx(2, 0), GOLDEN) == pytest.approx(s, abs=1e-12)
    # adding a form that annihilates X leaves the reading unchanged
    g = TrigPoly.cosine((1, 1))
    theta = OneForm([
        float(GOLDEN.alpha[1]) * g,
        -1.0 * g,
    ])
    eta = OneForm.dx(2, 0) + theta
    assert evaluate_twisted(seg, eta, GOLDEN) == pytest.approx(s, abs=1e-10)


def test_twisted_trivial_path_evaluates_to_zero():
    trivial = PiecewiseCurve([0.3, 0.4])
    rng = np.random.default_rng(14)
    eta = OneForm([random_poly(rng), random_poly(rng)])
    assert evaluate_twisted(trivial, eta, GOLDEN) == 0.0


def test_twist_routes_apart_raise(monkeypatch):
    # doubling E(u) doubles the integrals but not the endpoint values
    monkeypatch.setattr(currents, "phase_average", lambda u: 2.0 * phase_average(u))
    curve = tcurve([0.1, 0.2], [0.3, 0.25])
    with pytest.raises(TwistRouteMismatch):
        evaluate_twisted(
            curve, OneForm([TrigPoly.cosine((1, 1)), TrigPoly.constant(2, 0.0)]), GOLDEN
        )


@pytest.mark.parametrize("nan_route", [0, 1])
def test_nan_twist_route_raises(nan_route):
    routes = [0.5, 0.5]
    routes[nan_route] = float("nan")
    with pytest.raises(TwistRouteMismatch):
        currents.check_twist_routes(0.5, *routes)


_FORCED_APART = """
import sys
from toruslab import currents, linearization
from toruslab.curves import PiecewiseCurve
from toruslab.errors import TwistRouteMismatch
from toruslab.spectral import OneForm, TrigPoly
from toruslab.torus_flow import DirectionVector

assert sys.flags.optimize
alpha = DirectionVector.golden()
path = PiecewiseCurve.from_steps([0.1, 0.2], [("transverse", [0.3, 0.25])])
eta = OneForm([TrigPoly.cosine((1, 1)), TrigPoly.constant(2, 0.0)])
raised = []
phase_average = currents.phase_average
currents.phase_average = lambda u: 2.0 * phase_average(u)
try:
    currents.evaluate_twisted(path, eta, alpha)
except TwistRouteMismatch:
    raised.append("evaluate_twisted")
try:
    linearization.linearize(path, alpha, linearization.build_battery(2))
except TwistRouteMismatch:
    raised.append("linearize")
print(",".join(raised))
"""


def test_twist_route_check_survives_optimize():
    src = str(Path(currents.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_APART],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["evaluate_twisted,linearize"]


def test_twisted_resonant_mode_propagates():
    alpha = DirectionVector.from_decimals(["1", "0.5"])
    eta = OneForm([TrigPoly.cosine((1, -2)), TrigPoly.constant(2, 0.0)])
    curve = tcurve([0.0, 0.0], [0.3, 0.3])
    with pytest.raises(ResonantMode):
        evaluate_twisted(curve, eta, alpha)


def test_boundary_pairing_kills_normalization_constant():
    T = tcurve([0.1, 0.2], [0.25, 0.3])
    h = TrigPoly.cosine((1, 0))
    shifted = h + TrigPoly.constant(2, 17.0)
    assert boundary_multiset(T).pair(h) == pytest.approx(
        boundary_multiset(T).pair(shifted), abs=1e-12
    )


def test_family_evaluation_is_preserved_by_excision():
    steps = (
        [("transverse", [0.2, 0.0]), ("transverse", [0.0, 0.3])]
        + [("transverse", d) for d in
           ([0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])]
        + [("transverse", [0.0, -0.3]), ("transverse", [0.15, 0.0])]
    )
    fam = CurveFamily([
        PiecewiseCurve.from_steps([0.0, 0.0], steps),
        tcurve([0.5, 0.5], [0.25, 0.0], [-0.25, 0.0], [0.0, 0.4]),
    ])
    out = maximal_excision(fam)
    assert find_retraced_arc(out) is None
    rng = np.random.default_rng(16)
    for _ in range(4):
        eta = OneForm([random_poly(rng), random_poly(rng)])
        assert evaluate_family(fam, eta) == pytest.approx(
            evaluate_family(out, eta), rel=1e-9, abs=1e-9
        )
