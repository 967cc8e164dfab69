import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab import currents
from toruslab.cli import main
from toruslab.currents import evaluate, evaluate_twisted, phase_average
from toruslab.curves import PiecewiseCurve, concatenate
from toruslab.errors import (
    BasepointMismatch,
    ResonantMode,
    SeparationNotFound,
    TwistRouteMismatch,
)
from toruslab.spectral import TrigPoly, solve_cohomological
from toruslab.linearization import (
    albanese,
    build_battery,
    canonical_modes,
    check_equivariance,
    generator,
    injectivity_probe,
    linearize,
)
from toruslab.torus_flow import RESONANCE_EPS, DirectionVector, circle_dist, reduce_mod1

GOLDEN = DirectionVector.golden()
BATTERY2 = build_battery(2, cutoff=2)


def tpath(x, *disps):
    return PiecewiseCurve.from_steps(x, [("transverse", d) for d in disps])


def lin(path, battery=BATTERY2):
    return linearize(path, GOLDEN, battery)


# --- battery ---


def test_canonical_modes_cover_half_the_ball():
    modes = canonical_modes(2, 1)
    assert modes == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(canonical_modes(2, 3)) == 24


def test_battery_shape_and_ids():
    battery = build_battery(2, cutoff=3)
    ids = [fid for fid, _ in battery]
    assert len(battery) == 2 + 24 * 4
    assert len(set(ids)) == len(ids)
    assert ids[:2] == ["dx1", "dx2"]
    assert "cos[1,0]dx1" in ids and "sin[3,-3]dx2" in ids


def test_battery_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        build_battery(2, cutoff=0)


# --- linearize ---


def test_trivial_path_linearizes_to_zero():
    p = lin(PiecewiseCurve([0.0, 0.0]))
    assert all(v == 0.0 for v in p.table)


def test_loop_path_reads_raw_loop_integrals():
    loop = tpath(
        [0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [-0.25, 0.0], [0.0, -0.25]
    )
    p = lin(loop)
    for fid, form in BATTERY2:
        assert p.table[BATTERY2.index[fid]] == pytest.approx(evaluate(loop, form), abs=1e-12)


def test_flow_path_reads_generator_times_t():
    t = 1.375
    path = PiecewiseCurve.from_steps(
        [0.0, 0.0], [("flow", t * GOLDEN.alpha)]
    )
    p = lin(path)
    gen = generator(GOLDEN, BATTERY2)
    for fid, _ in BATTERY2:
        assert p.table[BATTERY2.index[fid]] == pytest.approx(
            gen[BATTERY2.index[fid]] * t, abs=1e-10
        )


def test_path_difference_is_the_closing_loop():
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    p2 = lin(tpath([0.0, 0.0], [0.0, 0.4], [0.3, 0.0]))
    closing = concatenate(p1.path, p2.path.reverse())
    for fid, form in BATTERY2:
        gap = p1.table[BATTERY2.index[fid]] - p2.table[BATTERY2.index[fid]]
        assert gap == pytest.approx(evaluate(closing, form), abs=1e-10)


# --- generator ---


def test_generator_dx_values_are_alpha():
    gen = generator(GOLDEN, BATTERY2)
    assert gen[BATTERY2.index["dx1"]] == float(GOLDEN.alpha[0])
    assert gen[BATTERY2.index["dx2"]] == float(GOLDEN.alpha[1])


def test_generator_modulated_means_vanish():
    gen = generator(GOLDEN, BATTERY2)
    assert gen[BATTERY2.index["cos[1,0]dx1"]] == 0.0
    assert gen[BATTERY2.index["sin[1,-1]dx2"]] == 0.0


# --- equivariance ---


def test_equivariance_at_zero_time():
    p = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    assert check_equivariance(p, 0.0, GOLDEN) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_equivariance_random_samples(seed):
    rng = np.random.default_rng(500 + seed)
    y = rng.uniform(0, 1, size=2)
    t = float(rng.uniform(-10, 10))
    p = lin(tpath([0.0, 0.0], y))
    assert check_equivariance(p, t, GOLDEN) < 1e-9


def test_equivariance_additivity_triangle():
    y = np.array([0.21, 0.58])
    p = lin(tpath([0.0, 0.0], y))
    d1 = check_equivariance(p, 1.3, GOLDEN)
    d2 = check_equivariance(p, -0.9, GOLDEN)
    composite = concatenate(p.path, PiecewiseCurve.from_steps(p.path.end_lift, [
        ("flow", 1.3 * GOLDEN.alpha),
        ("flow", -0.9 * GOLDEN.alpha),
    ]))
    q = linearize(composite, GOLDEN, BATTERY2)
    gen = generator(GOLDEN, BATTERY2)
    d12 = max(
        abs(q.table[i] - p.table[i] - gen[i] * 0.4)
        for i in range(len(BATTERY2))
    )
    assert d12 <= d1 + d2 + 1e-9


def test_albanese_semi_conjugacy_single_sample():
    y = np.array([0.37, 0.81])
    t = 2.125
    p = lin(tpath([0.0, 0.0], y))
    flowed = PiecewiseCurve.from_steps(p.path.end_lift, [("flow", t * GOLDEN.alpha)])
    q = linearize(concatenate(p.path, flowed), GOLDEN, BATTERY2)
    shifted = (albanese(p).coords + t * GOLDEN.alpha) % 1.0
    assert circle_dist(albanese(q).coords, shifted) < 1e-9


# --- albanese ---


def test_albanese_reads_endpoint_offset():
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    p2 = lin(tpath([0.0, 0.0], [0.15, 0.7], [0.15, -0.3]))
    assert circle_dist(albanese(p1).coords, [0.3, 0.4]) < 1e-12
    assert albanese(p1).close_to(albanese(p2), tol=1e-12)


def test_albanese_of_trivial_path_is_zero():
    p = lin(PiecewiseCurve([0.0, 0.0]))
    assert np.allclose(albanese(p).coords, 0.0)


def test_albanese_ignores_appended_loops():
    base = tpath([0.0, 0.0], [0.3, 0.4])
    winding = tpath([0.3, 0.4], [1.0, 0.0], [0.0, -1.0])
    p1 = lin(base)
    p2 = lin(concatenate(base, winding))
    assert albanese(p1).close_to(albanese(p2), tol=1e-12)
    assert p2.table[BATTERY2.index["dx1"]] == pytest.approx(1.3, abs=1e-12)


# --- injectivity probes ---


def test_probe_separates_distinct_endpoints_by_albanese_form():
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    p2 = lin(tpath([0.0, 0.0], [0.3, 0.7]))
    report = injectivity_probe(p1, p2)
    assert report.endpoints_differ and report.separated
    assert report.form == "dx2"
    assert report.gap == pytest.approx(0.3, abs=1e-12)


def test_probe_same_point_same_path_is_same_class():
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    p2 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    report = injectivity_probe(p1, p2)
    assert not report.endpoints_differ
    assert report.same_class is True


def test_probe_same_endpoint_different_class_detected():
    base = tpath([0.0, 0.0], [0.3, 0.4])
    wiggle = tpath(
        [0.3, 0.4], [0.25, 0.0], [0.0, 0.25], [-0.25, 0.0], [0.0, -0.25]
    )
    p1 = lin(base)
    p2 = lin(concatenate(base, wiggle))
    report = injectivity_probe(p1, p2)
    assert not report.endpoints_differ
    assert report.same_class is False
    assert report.gap > 1e-9


def test_probe_raises_on_sub_tolerance_endpoint_gap():
    # from one basepoint, endpoints 5e-12 apart differ beyond TORUS_TOL at dx1
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    p2 = lin(tpath([0.0, 0.0], [0.3 + 5e-12, 0.4]))
    report = injectivity_probe(p1, p2)
    assert report.separated and report.form == "dx1"
    assert report.gap == pytest.approx(5e-12, rel=1e-3)
    # basepoints 8e-13 apart leave a dx gap of 7e-13 between endpoints 1.5e-12 apart
    p3 = lin(tpath([8e-13, 0.0], [0.3 + 1.5e-12 - 8e-13, 0.4]))
    assert not p1.endpoint.close_to(p3.endpoint)
    with pytest.raises(SeparationNotFound):
        injectivity_probe(p1, p3)


def test_probe_requires_common_basepoint_and_battery():
    p1 = lin(tpath([0.0, 0.0], [0.3, 0.4]))
    other = linearize(tpath([0.1, 0.1], [0.3, 0.4]), GOLDEN, BATTERY2)
    with pytest.raises(BasepointMismatch):
        injectivity_probe(p1, other)
    p3 = linearize(tpath([0.0, 0.0], [0.3, 0.7]), GOLDEN, build_battery(2, cutoff=1))
    with pytest.raises(ValueError):
        injectivity_probe(p1, p3)


# --- battery kernel against the solver and pointwise h ---

_DIRECTIONS = {
    2: ([1.0, (1.0 + 5.0**0.5) / 2.0], [1.0, 2.0**0.5]),
    3: ([1.0, 2.0 ** (1 / 3), 4.0 ** (1 / 3)], [1.0, 2.0**0.5, 3.0**0.5]),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_form_route(d, cutoff, data):
    base = np.array(data.draw(st.sampled_from(_DIRECTIONS[d])))
    scale = data.draw(st.floats(0.5, 2.0))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    alpha = DirectionVector(scale * signs * base)
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    start = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
    steps = []
    for kind, t, disp in data.draw(st.lists(
        st.tuples(st.sampled_from(["flow", "transverse"]), st.floats(0.05, 4.0),
                  st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)),
        max_size=4,
    )):
        if kind == "flow":
            steps.append(("flow", t * alpha.alpha))
        elif max(abs(v) for v in disp) > 1e-3:
            steps.append(("transverse", disp))
    path = PiecewiseCurve.from_steps(start, steps)
    battery = build_battery(d, cutoff)
    p = linearize(path, alpha, battery)
    gen = generator(alpha, battery)
    for i, (fid, form) in enumerate(battery):
        # oracle: solve for h with eta(X) = sum_j alpha_j p_j, then subtract
        # h(y) - h(x) evaluated pointwise
        contraction = TrigPoly.constant(d, 0.0)
        for a, comp in zip(alpha.alpha, form.components):
            contraction = contraction + float(a) * comp
        sol = solve_cohomological(contraction, alpha)
        raw = evaluate(path, form)
        assert p.raw[i] == pytest.approx(raw, abs=1e-10), fid
        twisted = raw - (sol.h(path.end) - sol.h(path.start))
        assert p.table[i] == pytest.approx(twisted, abs=1e-10), fid
        assert gen[i] == pytest.approx(sol.c, abs=1e-10), fid


_RESONANT = [  # (alpha, eps_res, cutoff, first resonant battery mode)
    (("1", "-0.5"), RESONANCE_EPS, 4, (1, 2)),  # (1, 2) and (2, 4) resonate
    # eps_res = 0 admits every nonzero divisor, so only the exact zero flags
    (("1", "2"), 0.0, 2, (2, -1)),
]


def test_resonant_mode_matches_per_form_route(tmp_path, capsys):
    for decimals, eps_res, cutoff, first in _RESONANT:
        alpha = DirectionVector.from_decimals(decimals)
        battery = build_battery(2, cutoff=cutoff)
        path = tpath([0.0, 0.0], [0.3, 0.4])
        with pytest.raises(ResonantMode) as per_form:
            for _, form in battery:
                evaluate_twisted(path, form, alpha, eps_res=eps_res)
        assert per_form.value.n == first
        with pytest.raises(ResonantMode) as kernel:
            linearize(path, alpha, battery, eps_res=eps_res)
        with pytest.raises(ResonantMode) as gen:
            generator(alpha, battery, eps_res=eps_res)
        with pytest.raises(ResonantMode) as solver:
            solve_cohomological(TrigPoly.cosine(first), alpha, eps_res=eps_res)
        for exc in (kernel.value, gen.value, solver.value):
            assert (exc.n, exc.divisor) == (per_form.value.n, per_form.value.divisor)
        alpha_file = tmp_path / "alpha.json"
        alpha_file.write_text(json.dumps({"d": 2, "alpha": list(decimals)}))
        for command in ("linearize-demo", "equivariance-test"):
            argv = [command, "--alpha", str(alpha_file), "--samples", "1",
                    "--cutoff", str(cutoff), "--eps-res", repr(eps_res)]
            assert main(argv) == 1
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ResonantMode"
            assert record["detail"] == {
                "n": list(first), "divisor": repr(per_form.value.divisor)
            }


def test_kernel_twist_routes_apart_raise(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(currents, "phase_average", lambda u: 2.0 * phase_average(u))
    path = tpath([0.0, 0.0], [0.3, 0.4])
    with pytest.raises(TwistRouteMismatch):
        lin(path)
    alpha_file = tmp_path / "golden.json"
    alpha_file.write_text('{"d": 2, "alpha": ["1", "1.6180339887498949"]}\n')
    assert main(["linearize-demo", "--alpha", str(alpha_file), "--samples", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TwistRouteMismatch"


def test_deck_shift_leaves_table_unchanged():
    # dyadic lifts and displacements stay exact after the integer shift
    x = np.array([0.25, 0.625])
    disps = ([0.375, -0.125], [0.0625, 0.5], [-0.25, 0.1875])
    base = tpath(x, *disps)
    shifted = tpath(x + [1e12, -1e12], *disps)
    assert np.array_equal(reduce_mod1(shifted.end_lift), reduce_mod1(base.end_lift))
    battery = build_battery(2, cutoff=3)
    p = linearize(base, GOLDEN, battery)
    q = linearize(shifted, GOLDEN, battery)
    assert np.max(np.abs(p.table - q.table)) <= 1e-12
    assert np.max(np.abs(p.raw - q.raw)) <= 1e-12
    for _, form in battery:
        gap = evaluate(base, form) - evaluate(shifted, form)
        assert abs(gap) <= 1e-12
