import dataclasses

import numpy as np
import pytest

from toruslab.curves import (
    CurveFamily,
    PiecewiseCurve,
    boundaries_equal,
    boundary_multiset,
    concatenate,
    find_retraced_arc,
    maximal_excision,
    simple_excision,
)
from toruslab.errors import EndpointMismatch, StaleLocation
from toruslab.torus_flow import DirectionVector, circle_dist

GOLDEN = DirectionVector.golden()


def tcurve(basepoint, *disps):
    return PiecewiseCurve.from_steps(
        basepoint, [("transverse", d) for d in disps]
    )


def test_segment_rejects_zero_displacement():
    with pytest.raises(ValueError, match="nonzero"):
        PiecewiseCurve([0.0, 0.0], [[0.1, 0.0], [0.0, 0.0]], ["transverse"] * 2)


def test_segment_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        PiecewiseCurve([0.0, 0.0], [[0.1, 0.0]], ["diagonal"])


def test_segment_end_and_reverse():
    g = PiecewiseCurve([0.25, 0.5], [[0.5, 0.25]], np.array([False]))
    assert np.allclose(g.end_lift, [0.75, 0.75])
    r = g.reverse()
    assert np.allclose(r.start_lift, g.end_lift)
    assert np.allclose(r.end_lift, g.start_lift)
    assert r.flow.tolist() == g.flow.tolist()


def test_flow_segment_direction():
    g = PiecewiseCurve.from_steps([0.0, 0.0], [("flow", 2.0 * GOLDEN.alpha)])
    assert g.flow.tolist() == [True]
    assert np.allclose(g.displacements[0], 2.0 * GOLDEN.alpha)


def test_constructor_reports_first_bad_segment():
    # a later segment's problem never masks an earlier one's
    disps = [[0.1, 0.0], [0.0, 0.0], [0.2, 0.0]]
    with pytest.raises(ValueError, match="nonzero"):
        PiecewiseCurve([0.0, 0.0], disps, ["transverse", "transverse", "spiral"])
    with pytest.raises(ValueError, match="kind must be one of"):
        PiecewiseCurve([0.0, 0.0], disps, ["transverse", "spiral", "transverse"])
    with pytest.raises(ValueError, match="name every segment"):
        PiecewiseCurve([0.0, 0.0], disps[:1], ["transverse"] * 2)
    with pytest.raises(ValueError, match=r"\(S, d\)"):
        PiecewiseCurve([0.0, 0.0], [[0.1, 0.0, 0.0]], ["transverse"])


def test_starts_are_sequential_running_sums():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        bp = rng.uniform(-1.0, 1.0, size=d) * 10.0 ** rng.integers(0, 14)
        disps = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 40)), d))
        g = PiecewiseCurve(bp, disps, np.zeros(len(disps), dtype=bool))
        cursor = bp.copy()
        for k, v in enumerate(disps):
            assert np.array_equal(g.starts[k], cursor)
            cursor = cursor + v
        assert np.array_equal(g.end_lift, cursor)


def test_from_steps_accumulates_lifts():
    g = tcurve([0.0, 0.0], [0.25, 0.0], [0.0, 0.5], [0.5, 0.25])
    assert g.n_segments == 3
    assert np.allclose(g.starts[1], [0.25, 0.0])
    assert np.allclose(g.end_lift, [0.75, 0.75])
    assert not g.is_closed


def test_reverse_is_involutive():
    g = tcurve([0.125, 0.25], [0.25, 0.0], [0.0, 0.5])
    back = g.reverse().reverse()
    assert np.allclose(back.basepoint_lift, g.basepoint_lift)
    assert np.allclose(back.displacements, g.displacements)


def test_concatenate_joins_and_rebases():
    g1 = tcurve([0.0, 0.0], [0.25, 0.0])
    g2 = tcurve([1.25, 1.0], [0.0, 0.5])  # same torus point, other lift
    g = concatenate(g1, g2)
    assert g.n_segments == 2
    assert np.allclose(g.end_lift, [0.25, 0.5])


def test_concatenate_rejects_gap():
    g1 = tcurve([0.0, 0.0], [0.25, 0.0])
    g2 = tcurve([0.5, 0.5], [0.0, 0.5])
    with pytest.raises(EndpointMismatch):
        concatenate(g1, g2)


def square_loop(corner, side=0.1):
    return tcurve(
        corner, [side, 0.0], [0.0, side], [-side, 0.0], [0.0, -side]
    )


def test_square_loop_is_closed_and_not_retraced():
    g = square_loop([0.2, 0.3])
    assert g.is_closed
    assert find_retraced_arc(CurveFamily([g])) is None


def test_doubled_loop_is_not_retraced():
    # the same subword twice in the same direction is a repeat, not a retrace
    g = square_loop([0.2, 0.3])
    gg = concatenate(g, g)
    assert find_retraced_arc(CurveFamily([gg])) is None


def test_immediate_backtrack_excises_to_nothing():
    g = tcurve([0.1, 0.1], [0.3, 0.2], [-0.3, -0.2])
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert loc is not None and loc.length == 1
    out = simple_excision(fam, loc)
    assert len(out) == 0
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_single_curve_rewrite_splits_off_loop():
    # word a r b r~ c with b a square loop: excision gives {a c, b}
    steps = (
        [("transverse", [0.2, 0.0])]            # a
        + [("transverse", [0.0, 0.3])]          # r
        + [("transverse", d) for d in           # b, closed
           ([0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])]
        + [("transverse", [0.0, -0.3])]         # r~
        + [("transverse", [0.15, 0.0])]         # c
    )
    g = PiecewiseCurve.from_steps([0.0, 0.0], steps)
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert loc is not None
    assert loc.same_curve and loc.length == 1
    assert loc.start_a == 1 and loc.start_b == 6
    out = simple_excision(fam, loc)
    assert len(out) == 2
    ac, b = out[0], out[1]
    assert ac.n_segments == 2
    assert np.allclose(ac.end_lift, [0.35, 0.0])
    assert b.is_closed and b.n_segments == 4
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_two_curve_rewrite_closed_second_merges():
    # gamma1 = a r b, gamma2 = c r~ d closed: excision gives {a d c b}
    g1 = tcurve([0.3, 0.5], [0.2, 0.0], [0.3, 0.1], [0.1, 0.0])
    g2 = tcurve([0.8, 0.4], [0.0, 0.2], [-0.3, -0.1], [0.3, -0.1])
    assert g2.is_closed
    fam = CurveFamily([g1, g2])
    loc = find_retraced_arc(fam)
    assert loc is not None and not loc.same_curve
    assert (loc.curve_a, loc.start_a, loc.curve_b, loc.start_b) == (0, 1, 1, 1)
    out = simple_excision(fam, loc)
    assert len(out) == 1
    merged = out[0]
    assert merged.n_segments == 4
    assert circle_dist(merged.start_lift, g1.start_lift) <= 1e-12
    assert circle_dist(merged.end_lift, g1.end_lift) <= 1e-12
    disps = merged.displacements
    assert np.allclose(
        disps, [[0.2, 0.0], [0.3, -0.1], [0.0, 0.2], [0.1, 0.0]]
    )
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_two_curve_rewrite_open_second_swaps_tails():
    # gamma1 = a r b, gamma2 = c r~ d open: excision gives {a d, c b}
    g1 = tcurve([0.3, 0.5], [0.2, 0.0], [0.3, 0.1], [0.1, 0.0])
    g2 = tcurve([0.7, 0.4], [0.1, 0.2], [-0.3, -0.1], [0.1, 0.1])
    assert not g2.is_closed
    fam = CurveFamily([g1, g2])
    loc = find_retraced_arc(fam)
    assert loc is not None and not loc.same_curve
    out = simple_excision(fam, loc)
    assert len(out) == 2
    ad, cb = out[0], out[1]
    assert circle_dist(ad.start_lift, g1.start_lift) <= 1e-12
    assert circle_dist(ad.end_lift, g2.end_lift) <= 1e-12
    assert circle_dist(cb.start_lift, g2.start_lift) <= 1e-12
    assert circle_dist(cb.end_lift, g1.end_lift) <= 1e-12
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_match_across_deck_translates():
    g1 = tcurve([0.1, 0.1], [0.3, 0.0])
    g2 = tcurve([1.4, 2.1], [-0.3, 0.0])  # reversal, two domains over
    fam = CurveFamily([g1, g2])
    loc = find_retraced_arc(fam)
    assert loc is not None and loc.length == 1
    out = simple_excision(fam, loc)
    assert len(out) == 0


def test_partial_overlap_splits_before_excision():
    g1 = tcurve([0.0, 0.3], [0.6, 0.0])
    g2 = tcurve([0.5, 0.3], [-0.2, 0.0])  # retraces the middle of g1
    fam = CurveFamily([g1, g2])
    loc = find_retraced_arc(fam)
    assert loc is not None
    assert loc.split[0].n_segments == 3
    assert loc.arc_length == pytest.approx(0.2, abs=1e-12)
    out = simple_excision(fam, loc)
    assert len(out) == 2
    assert {c.n_segments for c in out} == {1}
    spans = sorted(
        (tuple(np.round(c.start_lift, 12)), tuple(np.round(c.end_lift, 12)))
        for c in out
    )
    assert spans == [((0.0, 0.3), (0.3, 0.3)), ((0.5, 0.3), (0.6, 0.3))]
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_multi_segment_arc_matched_whole():
    steps = (
        [("transverse", [0.1, 0.0])]     # a
        + [("transverse", [0.1, 0.1]),   # r, two segments
           ("transverse", [0.2, 0.0])]
        + [("transverse", [-0.2, 0.0]),  # r~, immediately
           ("transverse", [-0.1, -0.1])]
        + [("transverse", [0.0, 0.2])]   # c
    )
    g = PiecewiseCurve.from_steps([0.1, 0.2], steps)
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert loc is not None and loc.length == 2
    assert (loc.start_a, loc.start_b) == (1, 3)
    out = simple_excision(fam, loc)
    assert len(out) == 1
    assert out[0].n_segments == 2
    assert np.allclose(out[0].end_lift, [0.2, 0.4])
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(out))


def test_longest_arc_wins_over_shorter():
    # two disjoint retraces; the longer one must be excised first
    g1 = tcurve([0.0, 0.1], [0.1, 0.0], [-0.1, 0.0])
    g2 = tcurve([0.0, 0.7], [0.4, 0.0], [-0.4, 0.0])
    fam = CurveFamily([g1, g2])
    loc = find_retraced_arc(fam)
    assert loc is not None
    assert loc.curve_a == 1
    assert loc.arc_length == pytest.approx(0.4, abs=1e-12)


def test_simple_excision_rejects_broken_junction():
    # a r r~ c d with the reversal misplaced by one: a and d do not meet
    g = tcurve([0.1, 0.1], [0.1, 0.0], [0.3, 0.2], [-0.3, -0.2], [0.0, 0.2], [0.2, 0.0])
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert (loc.start_a, loc.start_b, loc.length) == (1, 2, 1)
    with pytest.raises(EndpointMismatch, match="discontinuous"):
        simple_excision(fam, dataclasses.replace(loc, start_b=3))


def test_stale_location_rejected():
    g = tcurve([0.1, 0.1], [0.3, 0.2], [-0.3, -0.2])
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    other = CurveFamily([tcurve([0.2, 0.1], [0.3, 0.2], [-0.3, -0.2])])
    with pytest.raises(StaleLocation):
        simple_excision(other, loc)


def test_nested_backtrack_excised_in_one_step():
    # s t t~ s~ is one retraced arc of two segments
    g = tcurve(
        [0.5, 0.5], [0.1, 0.0], [0.0, 0.1], [0.0, -0.1], [-0.1, 0.0]
    )
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert loc is not None and loc.length == 2
    out = simple_excision(fam, loc)
    assert len(out) == 0


def test_maximal_excision_terminates_with_strict_decrease():
    steps = (
        [("transverse", [0.2, 0.0])]
        + [("transverse", [0.0, 0.3])]
        + [("transverse", d) for d in
           ([0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1])]
        + [("transverse", [0.0, -0.3])]
        + [("transverse", [0.15, 0.0]), ("transverse", [-0.15, 0.0])]
    )
    g = PiecewiseCurve.from_steps([0.0, 0.0], steps)
    fam = CurveFamily([g])
    lengths = [fam.total_length]
    cur = fam
    while True:
        loc = find_retraced_arc(cur)
        if loc is None:
            break
        cur = simple_excision(cur, loc)
        assert cur.total_length < lengths[-1] - 1e-12
        assert cur.total_length == pytest.approx(
            lengths[-1] - 2.0 * loc.arc_length, abs=1e-12
        )
        lengths.append(cur.total_length)
    assert len(lengths) >= 3
    final = maximal_excision(fam)
    assert find_retraced_arc(final) is None
    assert boundaries_equal(boundary_multiset(fam), boundary_multiset(final))


def test_maximal_excision_empty_family_is_fixed_point():
    fam = CurveFamily([])
    assert len(maximal_excision(fam)) == 0


def test_boundary_multiset_open_and_closed():
    open_curve = tcurve([0.1, 0.1], [0.2, 0.3])
    assert not boundary_multiset(square_loop([0.4, 0.4]))
    b = boundary_multiset(open_curve)
    assert len(b.atoms) == 2
    weights = {tuple(np.round(p.coords, 12)): w for p, w in b.atoms}
    assert weights[(0.1, 0.1)] == -1.0
    assert weights[(0.3, 0.4)] == 1.0


def test_boundary_multiset_cancels_shared_endpoints():
    g1 = tcurve([0.1, 0.1], [0.2, 0.3])   # x -> y
    g2 = tcurve([0.3, 0.4], [-0.2, -0.3])  # y -> x, same trace back
    fam = CurveFamily([g1, g2])
    assert not boundary_multiset(fam)


def test_boundaries_equal_is_order_insensitive():
    g1 = tcurve([0.1, 0.1], [0.2, 0.3])
    g2 = tcurve([0.6, 0.6], [0.1, 0.2])
    b1 = boundary_multiset(CurveFamily([g1, g2]))
    b2 = boundary_multiset(CurveFamily([g2, g1]))
    assert boundaries_equal(b1, b2)
    assert not boundaries_equal(b1, boundary_multiset(CurveFamily([g1])))


def test_flow_segments_participate_in_excision():
    a = GOLDEN.alpha
    g = PiecewiseCurve.from_steps(
        [0.0, 0.0],
        [("flow", 0.2 * a), ("flow", -0.2 * a), ("transverse", [0.0, 0.5])],
    )
    fam = CurveFamily([g])
    loc = find_retraced_arc(fam)
    assert loc is not None and loc.length == 1
    out = simple_excision(fam, loc)
    assert len(out) == 1
    assert out[0].flow.tolist() == [False]


def test_kind_mismatch_blocks_match():
    # same geometry, different kinds: not a retraced arc
    g = PiecewiseCurve.from_steps(
        [0.0, 0.0], [("flow", [0.3, 0.2]), ("transverse", [-0.3, -0.2])]
    )
    assert find_retraced_arc(CurveFamily([g])) is None
