"""Flow kinematics and arithmetic of the direction vector.

Derived expectations are frozen from independent oracles: 2*phi mod 1 from a
high-precision evaluation of sqrt(5), small-radius certificates from a plain
double loop, Liouville witnesses from exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.errors import BadSchedule, ResonanceFound
from toruslab.torus_flow import (
    DirectionVector,
    TorusPoint,
    certify_diophantine,
    circle_dist,
    find_resonances,
    flow,
    liouville_vector,
    reduce_mod1,
)

GOLDEN = DirectionVector.golden()
HALF = DirectionVector.from_decimals(["1", "0.5"])


def test_reduce_mod1_handles_tiny_negatives():
    r = reduce_mod1(np.array([-1e-18, 0.25, 1.75, -0.25]))
    assert np.all(r >= 0.0) and np.all(r < 1.0)
    assert r[1] == 0.25
    assert abs(r[2] - 0.75) < 1e-15
    assert abs(r[3] - 0.75) < 1e-15


def test_circle_dist_wraps():
    assert circle_dist([0.999], [0.001]) < 0.003
    assert abs(circle_dist([0.25, 0.0], [0.75, 0.0]) - 0.5) < 1e-15


def test_flow_identity_at_t0():
    x = TorusPoint([0.0, 0.0])
    assert flow(x, 0.0, GOLDEN).close_to(x)


def test_flow_half_speed_example():
    x = TorusPoint([0.5, 0.25])
    y = flow(x, 1.0, HALF)
    assert y.close_to(TorusPoint([0.5, 0.75]), tol=1e-15)


def test_flow_golden_t2_matches_high_precision_value():
    # oracle: 2*phi mod 1 = sqrt(5) - 2 = 0.236067977499789696... (mpmath, 60 digits)
    expected = 0.2360679774997897
    y = flow(TorusPoint([0.0, 0.0]), 2.0, GOLDEN)
    assert abs(y.coords[0] - 0.0) < 1e-12
    assert abs(y.coords[1] - expected) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=-50, max_value=50),
    t=st.floats(min_value=-50, max_value=50),
    x0=st.floats(min_value=0, max_value=1, exclude_max=True),
    x1=st.floats(min_value=0, max_value=1, exclude_max=True),
)
def test_flow_group_law(s, t, x0, x1):
    x = TorusPoint([x0, x1])
    one_step = flow(x, s + t, GOLDEN)
    two_step = flow(flow(x, s, GOLDEN), t, GOLDEN)
    assert circle_dist(one_step.coords, two_step.coords) <= 1e-12


def test_find_resonances_half_direction():
    res = find_resonances(HALF, 3)
    assert (1, -2) in res
    for n in res:
        assert abs(HALF.dot(n)) < 1e-10 * max(1, max(abs(v) for v in n))
        first = next(v for v in n if v != 0)
        assert first > 0


def test_find_resonances_scaled_direction():
    dv = DirectionVector.from_decimals(["2", "4"])
    assert (2, -1) in find_resonances(dv, 2)


def test_find_resonances_golden_empty():
    assert find_resonances(GOLDEN, 100) == []


def test_find_resonances_matches_brute_force_threshold():
    # oracle: plain double loop over the ball, canonical half only
    dv = DirectionVector.from_decimals(["1", "0.25"])
    radius, eps = 12, 1e-10
    expected = set()
    for n1 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            if (n1, n2) == (0, 0) or abs(n1 + 0.25 * n2) >= eps * max(1, abs(n1), abs(n2)):
                continue
            if n1 > 0 or (n1 == 0 and n2 > 0):
                expected.add((n1, n2))
    assert set(find_resonances(dv, radius)) == expected
    assert expected  # (1, -4) and its multiples live in this ball


def test_certify_small_radius_against_plain_loop():
    # oracle: independent pure-python minimization
    tau, radius = 1.0, 40
    best = np.inf
    for n1 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            if (n1, n2) == (0, 0):
                continue
            v = abs(n1 * GOLDEN.alpha[0] + n2 * GOLDEN.alpha[1]) * max(abs(n1), abs(n2)) ** tau
            best = min(best, v)
    cert = certify_diophantine(GOLDEN, tau, radius)
    assert abs(cert.c_min - best) < 1e-12
    assert cert.norm_kind == "sup"


def test_certify_golden_large_radius_regression():
    cert = certify_diophantine(GOLDEN, 1.0, 10_000)
    assert cert.c_min > 0.1
    # measured baseline: phi - 1 at n = (1, -1)
    assert abs(cert.c_min - 0.6180339887498949) < 1e-12
    assert cert.argmin == (1, -1)


def test_certify_monotone_in_radius():
    vals = [certify_diophantine(GOLDEN, 1.0, r).c_min for r in (10, 100, 1000)]
    assert vals[0] >= vals[1] >= vals[2]


def test_certify_rejects_resonant_direction():
    with pytest.raises(ResonanceFound) as err:
        certify_diophantine(HALF, 1.0, 3)
    assert err.value.n == (1, -2)


def test_certify_d1_trivial():
    dv = DirectionVector([1.0])
    cert = certify_diophantine(dv, 0.0, 5)
    assert cert.c_min == 1.0


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify_diophantine(GOLDEN, -1.0, 10)
    with pytest.raises(ValueError):
        certify_diophantine(GOLDEN, 1.0, 0)


def test_liouville_schedule_validation():
    with pytest.raises(BadSchedule):
        liouville_vector(2, [1, 1])
    with pytest.raises(BadSchedule):
        liouville_vector(2, [2, 1])
    with pytest.raises(BadSchedule):
        liouville_vector(2, [])
    with pytest.raises(ValueError):
        liouville_vector(3, [1, 2])


def test_liouville_lambda_is_exact_partial_sum():
    lv = liouville_vector(2, [1, 2, 6, 24])
    lam = lv.direction.exact[1]
    assert lam == Fraction(1, 10) + Fraction(1, 100) + Fraction(1, 10**6) + Fraction(1, 10**24)
    # float64 cannot see the last term; the exact component must
    assert float(lam) == float(Fraction(110001, 10**6))
    assert lam != Fraction(110001, 10**6)


def test_liouville_single_term_is_resonant():
    lv = liouville_vector(2, [1])
    res = find_resonances(lv.direction, 10)
    assert (1, -10) in res


def test_liouville_convergents_are_fast_witnesses():
    # |lambda - p_k/q_k| <= 2 * 10^(-s_{k+1}), checked in exact arithmetic
    sched = [1, 2, 6, 24]
    lv = liouville_vector(2, sched)
    lam = lv.direction.exact[1]
    assert [q for _, q in lv.convergents] == [10**s for s in sched]
    for k, (p, q) in enumerate(lv.convergents[:-1]):
        tail = abs(lam - Fraction(p, q))
        assert tail <= 2 * Fraction(1, 10 ** sched[k + 1])
    p, q = lv.convergents[-1]
    assert lam == Fraction(p, q)


def test_liouville_truncation_divisor_needs_exact_dot():
    lv = liouville_vector(2, [1, 2, 6])
    # n = (p, -q) at the last convergent reproduces lambda exactly
    p, q = lv.convergents[-1]
    assert lv.direction.dot((p, -q)) == 0.0
    # middle convergent: |q*lambda - p| = q * 10^(-6) exactly
    p2, q2 = lv.convergents[1]
    assert abs(lv.direction.dot((p2, -q2))) == pytest.approx(1e-4, rel=1e-12)


def test_exact_dot_sees_below_float64():
    lv = liouville_vector(2, [1, 2, 6, 24])
    p3, q3 = lv.convergents[2]
    div = lv.direction.dot((p3, -q3))
    assert abs(div) == pytest.approx(1e-18, rel=1e-12)
    # the float components alone would give exactly zero here
    assert float(np.dot((p3, -q3), lv.direction.alpha)) != div


def test_direction_vector_validation():
    with pytest.raises(ValueError):
        DirectionVector([0.0, 0.0])
    with pytest.raises(ValueError):
        DirectionVector([np.inf, 1.0])
