import numpy as np
import pytest

from toruslab.currents import evaluate_family
from toruslab.curves import boundaries_equal, boundary_multiset, find_retraced_arc, maximal_excision
from toruslab.sampling import (
    path_via,
    random_loop,
    random_path,
    random_point,
    random_retrace_family,
    random_trig_poly,
    shortest_displacement,
    straight_path,
)
from toruslab.spectral import OneForm
from toruslab.torus_flow import DirectionVector, circle_dist

GOLDEN = DirectionVector.golden()


def test_shortest_displacement_is_half_open():
    step = shortest_displacement([0.9, 0.1], [0.1, 0.9])
    assert np.allclose(step, [0.2, -0.2])


def test_straight_path_endpoints():
    x, y = np.array([0.9, 0.2]), np.array([0.1, 0.6])
    g = straight_path(x, y)
    assert circle_dist(g.start_lift, x) == 0.0
    assert circle_dist(g.end_lift, y) < 1e-15


def test_straight_path_same_point_is_trivial():
    assert straight_path([0.3, 0.3], [0.3, 0.3]).is_trivial


def test_path_via_hits_both_targets():
    g = path_via([0.1, 0.1], [0.5, 0.9], [0.8, 0.2])
    assert g.n_segments == 2
    assert circle_dist(g.end_lift, [0.8, 0.2]) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_random_path_connects_endpoints(seed):
    rng = np.random.default_rng(600 + seed)
    x, y = random_point(rng), random_point(rng)
    g = random_path(rng, x, y, GOLDEN)
    assert circle_dist(g.start_lift, x) == 0.0
    assert circle_dist(g.end_lift, y) < 1e-12
    assert not g.flow.all()  # at least one transverse piece


@pytest.mark.parametrize("seed", range(8))
def test_random_loop_is_closed_and_reduced(seed):
    from toruslab.curves import CurveFamily

    rng = np.random.default_rng(700 + seed)
    g = random_loop(rng, random_point(rng))
    assert g.is_closed
    assert find_retraced_arc(CurveFamily([g])) is None


def test_random_trig_poly_is_real_valued():
    rng = np.random.default_rng(19)
    f = random_trig_poly(rng)
    x = rng.uniform(0, 1, size=2)
    assert isinstance(f(x), float)


@pytest.mark.parametrize("seed", range(25))
def test_random_retrace_family_excises_cleanly(seed):
    rng = np.random.default_rng(800 + seed)
    fam = random_retrace_family(rng)
    loc = find_retraced_arc(fam)
    assert loc is not None, "plant was not detected"
    out = maximal_excision(fam)
    assert find_retraced_arc(out) is None
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))
    form_rng = np.random.default_rng(900 + seed)
    for _ in range(3):
        eta = OneForm([random_trig_poly(form_rng, 2, 3, 3) for _ in range(2)])
        before = evaluate_family(fam, eta)
        after = evaluate_family(out, eta)
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)
