import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.curves import (
    MATCH_TOL,
    CurveFamily,
    PiecewiseCurve,
    ZeroCurrent,
    _anti_pairs,
    _split_family,
    boundaries_equal,
    boundary_multiset,
    concatenate,
    find_retraced_arc,
    maximal_excision,
    simple_excision,
)
from toruslab.errors import EndpointMismatch, StaleLocation
from toruslab.torus_flow import TORUS_TOL, DirectionVector, circle_dist, reduce_mod1

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


def test_zero_current_weights_are_integers():
    z = ZeroCurrent([((0.25, 0.5), 2.0), ((0.75, 0.5), -1)])
    assert [type(w) for _, w in z.atoms] == [int, int]
    assert repr(z).startswith("ZeroCurrent(+2*d(") and " -1*d(" in repr(z)
    with pytest.raises(ValueError, match="integer"):
        ZeroCurrent([((0.25, 0.5), 0.5)])
    with pytest.raises(ValueError, match="integer"):
        ZeroCurrent([((0.25, 0.5), float("nan"))])


# --- the hashed matcher and the point-mass grid against their dense oracles ---


def _reverse_match_table(ca: PiecewiseCurve, cb: PiecewiseCurve) -> np.ndarray:
    """anti[p, q] is True when segment q of cb is the exact reversal of
    segment p of ca, up to a deck translate (the dense all-pairs form)."""
    da, db = ca.displacements, cb.displacements
    if not len(da) or not len(db):
        return np.zeros((len(da), len(db)), dtype=bool)
    disp_gap = np.max(np.abs(da[:, None, :] + db[None, :, :]), axis=-1)
    starts = reduce_mod1(ca.starts)
    ends = reduce_mod1(cb.starts + db)
    delta = np.abs(starts[:, None, :] - ends[None, :, :]) % 1.0
    pos_gap = np.max(np.minimum(delta, 1.0 - delta), axis=-1)
    kind_ok = ca.flow[:, None] == cb.flow[None, :]
    return (disp_gap <= MATCH_TOL) & (pos_gap <= MATCH_TOL) & kind_ok


def _dense_anti_pairs(family: CurveFamily) -> set[tuple[int, int, int, int]]:
    pairs = set()
    for i in range(len(family)):
        for j in range(i, len(family)):
            for p, q in np.argwhere(_reverse_match_table(family[i], family[j])).tolist():
                pairs.add((i, p, j, q))
    return pairs


def _dense_best_arc(family: CurveFamily):
    """The longest-first, lowest-index arc over every matched diagonal."""
    best = None
    for i in range(len(family)):
        for j in range(i, len(family)):
            anti = _reverse_match_table(family[i], family[j])
            ma = anti.shape[0]
            for p, qe in np.argwhere(anti).tolist():
                m = 0
                while (p + m < ma and qe - m >= 0 and anti[p + m, qe - m]
                       and (i != j or 2 * (m + 1) <= qe - p + 1)):
                    m += 1
                if m:
                    arc_len = float(family[i].lengths[p : p + m].sum())
                    key = (-arc_len, i, p, j, qe - m + 1, m)
                    best = key if best is None or key < best else best
    return best


# Reversal offsets that straddle MATCH_TOL: inside at 0.5e-12, outside at 2e-12.
_NUDGES = st.sampled_from([0.0, 0.5e-12, -0.5e-12, 2e-12, -2e-12])


@st.composite
def retrace_families(draw):
    """A word, its deck-translated reversal nudged around MATCH_TOL, and a
    same-curve retrace, with mixed flow and transverse labels."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1e12]))
    k = draw(st.integers(1, 3))
    disps = rng.uniform(-0.5, 0.5, size=(k, d)) * scale
    flow = rng.random(k) < 0.5
    word = PiecewiseCurve(rng.uniform(-2.0, 2.0, size=d), disps, flow)
    back = -disps[::-1].copy()
    back[draw(st.integers(0, k - 1)), draw(st.integers(0, d - 1))] += draw(_NUDGES)
    back_flow = flow[::-1].copy()
    if draw(st.booleans()):
        back_flow[0] = not back_flow[0]
    deck = rng.integers(-2, 3, size=d) + draw(_NUDGES)
    reversal = PiecewiseCurve(word.end_lift + deck, back, back_flow)
    loop = PiecewiseCurve(word.start_lift, np.vstack([disps, back]),
                          np.concatenate([flow, back_flow]))
    curves = [word, reversal, loop]
    return CurveFamily(curves[i] for i in draw(st.permutations(range(3))))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(retrace_families())
def test_hashed_matcher_equals_dense_tables(family):
    assert _anti_pairs(family) == _dense_anti_pairs(family)
    # splitting tries every deck translate a segment crosses: small steps only
    if max(np.abs(c.displacements).max() for c in family) < 1e3:
        loc = find_retraced_arc(family)
        found = loc and (-loc.arc_length, loc.curve_a, loc.start_a,
                         loc.curve_b, loc.start_b, loc.length)
        assert found == _dense_best_arc(_split_family(family))


def test_hashed_matcher_finds_reversals_across_cell_edges():
    # displacements on an edge of the 2**-30 cells centred on multiples of
    # 2**-30, reversed 0.5e-12 to either side
    edge = 3.5 * 2.0**-30
    for nudge in (0.5e-12, -0.5e-12, 0.9e-12):
        word = tcurve([0.1, 0.2], [edge, 0.25])
        back = tcurve(word.end_lift, [-edge + nudge, -0.25])
        assert _anti_pairs(CurveFamily([word, back])) == {(0, 0, 1, 0)}


def _oracle_merge(atoms):
    """Each atom joins the first kept atom within TORUS_TOL: the all-pairs loop."""
    merged = []
    for point, weight in atoms:
        red = reduce_mod1(point)
        for atom in merged:
            if circle_dist(atom[0], red) <= TORUS_TOL:
                atom[1] += weight
                break
        else:
            merged.append([red, weight])
    kept = [(tuple(red.tolist()), w) for red, w in merged if w != 0]
    return sorted(kept)


_HALF_CELL = 2.0**-31  # cell edges of the merge grid sit at odd multiples of this


@st.composite
def near_atoms(draw):
    """Chains of atoms spaced up to about TORUS_TOL, some straddling 0/1."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.sampled_from([0.0, 1.0, 0.5, 0.3, _HALF_CELL, 1.0 - _HALF_CELL]))
        x = x + rng.uniform(-3e-12, 3e-12, size=d)
        step = np.zeros(d)
        step[rng.integers(0, d)] = draw(st.sampled_from(
            [0.5e-12, 0.9e-12, TORUS_TOL, 1.0000001e-12, 1.5e-12]))
        for n in range(draw(st.integers(1, 4))):
            deck = rng.integers(-1, 2, size=d)
            atoms.append((x + n * step + deck, int(rng.choice([-1, 1, 2]))))
    return [atoms[i] for i in draw(st.permutations(range(len(atoms))))]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(near_atoms())
def test_grid_merge_equals_quadratic_loop(atoms):
    got = [(tuple(p.coords.tolist()), w) for p, w in ZeroCurrent(atoms).atoms]
    assert got == _oracle_merge(atoms)


def test_grid_merge_joins_pairs_torus_tol_apart_across_a_cell_edge():
    # x sits on an edge of the 2**-30 grid, y exactly TORUS_TOL below it
    for x in (0.5 + _HALF_CELL, 0.75 - _HALF_CELL, 1.0 - _HALF_CELL):
        y = x - TORUS_TOL
        assert max(circle_dist([x], [y]), circle_dist([y], [x])) <= TORUS_TOL
        assert not ZeroCurrent([((x,), 1), ((y,), -1)])
        assert not ZeroCurrent([((y,), 1), ((x,), -1)])
    # and across 0/1
    assert not ZeroCurrent([((0.4e-12, 0.5), 1), ((-0.5e-12, 0.5), -1)])


def _axis_family(d: int) -> CurveFamily:
    """Dyadic axis-aligned steps from the origin, so every coordinate is zero
    or dyadic: a word with a flow tail, the reversal of its transverse part a
    deck translate away, and a loop that backtracks within itself."""
    steps = np.eye(d)[:6] * np.array([0.25, 0.5] * 3)[:, None]
    kinds = ["transverse"] * 6
    word = PiecewiseCurve(np.zeros(d), np.vstack([steps, np.eye(d)[:1] / 8]), kinds + ["flow"])
    back = PiecewiseCurve(word.starts[6] + 1.0, -steps[::-1], kinds)
    loop = PiecewiseCurve(np.zeros(d), np.vstack([steps[:3], -steps[2::-1]]), kinds)
    return CurveFamily([word, back, loop])


def _endpoint_atoms(family: CurveFamily) -> list:
    return [atom for c in family for atom in ((c.end_lift, 1), (c.start_lift, -1))]


def test_high_dimension_zero_and_dyadic_coordinates_match_the_oracles():
    family = _axis_family(24)
    assert _anti_pairs(family) == _dense_anti_pairs(family)
    loc = find_retraced_arc(family)
    assert (-loc.arc_length, loc.curve_a, loc.start_a, loc.curve_b, loc.start_b,
            loc.length) == _dense_best_arc(_split_family(family))
    atoms = _endpoint_atoms(family)
    got = [(tuple(p.coords.tolist()), w) for p, w in ZeroCurrent(atoms).atoms]
    assert got == _oracle_merge(atoms)
    out = maximal_excision(family)
    assert [c.flow.tolist() for c in out] == [[True]]
    assert boundaries_equal(boundary_multiset(family), boundary_multiset(out))


def test_rows_near_many_cell_edges_match_the_oracles():
    # Coordinates on cell edges (odd multiples of half a cell) on a random
    # share of 12 axes, so rows probe 1 to 2^8 cells or scan every row; the
    # reversals and the partner atoms are nudged 0.5e-12 across those edges.
    rng = np.random.default_rng(30)
    d = 12

    def on_edges(shape):
        share = rng.random()
        return (2 * rng.integers(-40, 40, shape) + (rng.random(shape) < share)) * _HALF_CELL

    def nudges(shape):
        return rng.choice([-0.5e-12, 0.0, 0.5e-12], shape)

    curves = []
    for _ in range(12):
        steps, flow = on_edges((2, d)), rng.random(2) < 0.5
        word = PiecewiseCurve(on_edges(d), steps, flow)
        deck = rng.integers(-1, 2, d)
        curves += [word, PiecewiseCurve(word.end_lift + deck, nudges((2, d)) - steps[::-1],
                                        flow[::-1])]
    family = CurveFamily(curves)
    assert _anti_pairs(family) == _dense_anti_pairs(family)
    assert len(_anti_pairs(family)) >= 12
    atoms = _endpoint_atoms(family)
    atoms += [(p + nudges(d), -w) for p, w in atoms]
    got = [(tuple(p.coords.tolist()), w) for p, w in ZeroCurrent(atoms).atoms]
    assert got == _oracle_merge(atoms)


def _planted_family(n: int, seed: int):
    """n open 3-segment curves; every 100th ends in a backtrack, every 100th
    from the 50th reverses the previous curve's middle segment a deck
    translate away. Returns the family and the planted arc length."""
    rng = np.random.default_rng(seed)
    curves, planted = [], 0.0
    for k in range(n):
        bp, steps = rng.uniform(0.0, 1.0, 2), rng.uniform(-0.5, 0.5, (3, 2))
        if k % 100 == 0:
            steps[2] = -steps[1]
            planted += float(np.linalg.norm(steps[1]))
        elif k % 100 == 50:
            prev = curves[-1]
            steps[1] = -prev.displacements[1]
            bp = prev.starts[2] + rng.integers(-1, 2, 2) - steps[0]
            planted += float(np.linalg.norm(steps[1]))
        curves.append(PiecewiseCurve(bp, steps, np.zeros(3, dtype=bool)))
    return CurveFamily(curves), planted


def test_excision_at_scale_removes_exactly_the_planted_arcs():
    family, planted = _planted_family(400, seed=30)
    out = maximal_excision(family)
    assert family.total_length - out.total_length == pytest.approx(2.0 * planted, abs=1e-9)
    assert find_retraced_arc(out) is None
    assert boundaries_equal(boundary_multiset(family), boundary_multiset(out))
