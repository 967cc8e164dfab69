"""Frequency-side calculus: derivative along the flow, small-divisor solver,
exterior derivative.

Oracles: central finite differences for the two derivative operators,
exact rational arithmetic for Liouville divisors, closed-form mode algebra
for the solver round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.errors import ResonantMode
from toruslab.spectral import (
    TrigPoly,
    exterior_derivative,
    lie_derivative,
    solve_cohomological,
)
from toruslab.torus_flow import DirectionVector, TorusPoint, flow, liouville_vector

GOLDEN = DirectionVector.golden()
HALF = DirectionVector.from_decimals(["1", "0.5"])


def directional_derivative(f, x, alpha, h=1e-6):
    """Finite-difference oracle for the derivative along the flow."""
    up = f(flow(TorusPoint(x), h, alpha))
    down = f(flow(TorusPoint(x), -h, alpha))
    return (up - down) / (2 * h)


def partial_derivative(f, x, j, h=1e-6):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[j] += h
    xm[j] -= h
    return (f(xp) - f(xm)) / (2 * h)


def random_poly(rng, d=2, max_norm=3, n_modes=5, with_mean=True):
    modes = {}
    for _ in range(n_modes):
        n = tuple(int(v) for v in rng.integers(-max_norm, max_norm + 1, size=d))
        if all(v == 0 for v in n):
            continue
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        m = tuple(-v for v in n)
        modes[n] = modes.get(n, 0) + c
        modes[m] = modes.get(m, 0) + c.conjugate()
    if with_mean:
        modes[(0,) * d] = complex(rng.uniform(-1, 1), 0.0)
    return TrigPoly(d, modes)


# ---------------------------------------------------------------- TrigPoly


def test_hermitian_completion_on_partial_input():
    f = TrigPoly(2, {(1, 0): 0.5})
    assert f.coeff((-1, 0)) == 0.5
    g = TrigPoly(2, {(2, -1): 1 - 2j})
    assert g.coeff((-2, 1)) == 1 + 2j


def test_hermitian_conflict_rejected():
    with pytest.raises(ValueError):
        TrigPoly(2, {(1, 0): 1.0, (-1, 0): 0.5})
    with pytest.raises(ValueError):
        TrigPoly(2, {(0, 0): 1j})


def test_cosine_sine_evaluate():
    f = TrigPoly.cosine((1, 0), 2.0)
    g = TrigPoly.sine((0, 2))
    x = np.array([0.3, 0.15])
    assert f(x) == pytest.approx(2.0 * np.cos(2 * np.pi * 0.3), abs=1e-14)
    assert g(x) == pytest.approx(np.sin(2 * np.pi * 0.3), abs=1e-14)


def test_poly_arithmetic_and_mean():
    f = TrigPoly.cosine((1, 0)) + TrigPoly.constant(2, 3.0)
    assert f.mean() == 3.0
    g = f - 2.0 * TrigPoly.constant(2, 1.5)
    assert g.mean() == 0.0
    assert (-g).coeff((1, 0)) == -0.5
    assert TrigPoly.constant(2, 0.0).is_zero


# ---------------------------------------------------- derivative operators


def test_lie_derivative_of_constant_is_zero():
    assert lie_derivative(TrigPoly.constant(2, 4.2), GOLDEN).is_zero


def test_lie_derivative_cosine_exact_modes():
    f = TrigPoly.cosine((1, 0))
    g = lie_derivative(f, GOLDEN)
    # -2*pi*alpha_1*sin(2*pi*x_1), here alpha_1 = 1
    expected = TrigPoly.sine((1, 0), -2 * np.pi * GOLDEN.alpha[0])
    assert g.allclose(expected, tol=1e-12)


def test_lie_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    f = random_poly(rng, max_norm=2)
    g = lie_derivative(f, GOLDEN)
    for _ in range(5):
        x = rng.uniform(0, 1, size=2)
        assert g(x) == pytest.approx(directional_derivative(f, x, GOLDEN), abs=1e-6)


def test_exterior_derivative_exact_and_fd():
    f = TrigPoly.sine((0, 1))
    df = exterior_derivative(f)
    assert df.components[0].is_zero
    expected = TrigPoly.cosine((0, 1), 2 * np.pi)
    assert df.components[1].allclose(expected, tol=1e-12)

    rng = np.random.default_rng(11)
    g = random_poly(rng, max_norm=2)
    dg = exterior_derivative(g)
    for _ in range(4):
        x = rng.uniform(0, 1, size=2)
        for j in range(2):
            assert dg.components[j](x) == pytest.approx(
                partial_derivative(g, x, j), abs=1e-6
            )


def test_exterior_derivative_of_constant_vanishes():
    df = exterior_derivative(TrigPoly.constant(3, 9.0))
    assert all(p.is_zero for p in df.components)


# ---------------------------------------------------------------- solver


def test_solve_cosine_golden():
    f = TrigPoly.cosine((1, 0))
    sol = solve_cohomological(f, GOLDEN)
    # h = sin(2*pi*x_1) / (2*pi), since n.alpha = 1 on the carrying modes
    assert sol.h.allclose(TrigPoly.sine((1, 0), 1 / (2 * np.pi)), tol=1e-14)
    assert sol.c == 0.0
    assert sol.h.mean() == 0.0
    assert sol.amplification >= 1.0


def test_solve_constant_data():
    sol = solve_cohomological(TrigPoly.constant(2, 5.0), GOLDEN)
    assert sol.h.is_zero
    assert sol.c == 5.0
    assert sol.amplification == 1.0


def test_solve_resonant_mode_raises():
    f = TrigPoly.cosine((1, -2))
    with pytest.raises(ResonantMode) as err:
        solve_cohomological(f, HALF)
    assert set(err.value.n) == {1, -2} or set(err.value.n) == {-1, 2}


def test_solve_skips_resonant_frequency_without_data():
    # the resonant frequency (1, -2) carries no coefficient
    f = TrigPoly.cosine((1, 1)) + TrigPoly.cosine((1, -2), 0.0)
    sol = solve_cohomological(f, HALF)
    recon = lie_derivative(sol.h, HALF) + TrigPoly.constant(2, sol.c)
    assert recon.allclose(f, tol=1e-13)


def test_solve_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_poly(rng, max_norm=6, n_modes=8)
        sol = solve_cohomological(f, GOLDEN)
        assert sol.h.mean() == 0.0
        recon = lie_derivative(sol.h, GOLDEN) + TrigPoly.constant(2, sol.c)
        for n, c in f.modes.items():
            assert abs(recon.coeff(n) - c) <= 1e-12 * max(1.0, abs(c))
        assert set(recon.modes) == set(f.modes)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.integers(-4, 4),
            st.floats(-2, 2, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_solve_round_trip_property(data):
    modes = {}
    for n1, n2, re, im in data:
        if (n1, n2) == (0, 0):
            modes[(0, 0)] = complex(re, 0.0)
        else:
            c = complex(re, im)
            modes[(n1, n2)] = modes.get((n1, n2), 0) + c
            modes[(-n1, -n2)] = modes.get((-n1, -n2), 0) + c.conjugate()
    f = TrigPoly(2, modes)
    sol = solve_cohomological(f, GOLDEN)
    recon = lie_derivative(sol.h, GOLDEN) + TrigPoly.constant(2, sol.c)
    assert recon.allclose(f, tol=1e-12)


def test_solution_linearity():
    rng = np.random.default_rng(5)
    f1, f2 = random_poly(rng), random_poly(rng)
    s1 = solve_cohomological(f1, GOLDEN)
    s2 = solve_cohomological(f2, GOLDEN)
    s12 = solve_cohomological(f1 + 2.0 * f2, GOLDEN)
    assert s12.h.allclose(s1.h + 2.0 * s2.h, tol=1e-12)
    assert s12.c == pytest.approx(s1.c + 2.0 * s2.c, abs=1e-14)


def test_liouville_amplification_blow_up():
    # amplification at the partial-sum witnesses is 1/(2*pi*|q*lambda - p|);
    # exact dots keep the 1e-18 divisor alive, eps_res=0 admits it
    lv = liouville_vector(2, [1, 2, 6, 24])
    amps = []
    for p, q in lv.convergents[:-1]:
        f = TrigPoly.cosine((p, -q))
        sol = solve_cohomological(f, lv.direction, eps_res=0.0)
        div = abs(lv.direction.dot((p, -q)))
        assert sol.amplification >= 1.0 / (2 * np.pi * div) - 1e-6
        amps.append(sol.amplification)
    assert amps[1] / amps[0] > 1e3
    assert amps[2] / amps[1] > 1e3


def test_default_threshold_flags_liouville_tail():
    # with the default threshold the deep convergent is treated as resonant
    lv = liouville_vector(2, [1, 2, 6, 24])
    p, q = lv.convergents[2]
    with pytest.raises(ResonantMode):
        solve_cohomological(TrigPoly.cosine((p, -q)), lv.direction)
