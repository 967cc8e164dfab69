"""Acceptance gate: nine criteria, one test and one printed verdict each.

Each test prints exactly one line "[PASS|FAIL] criterion N: ..." with the
measured figure of merit, then asserts. Tolerances are fixed here and are
not to be loosened; a red criterion means the package is wrong.
"""

import numpy as np
import pytest

from toruslab.currents import (
    evaluate,
    evaluate_family,
    evaluate_twisted,
)
from toruslab.curves import (
    boundaries_equal,
    boundary_multiset,
    concatenate,
    find_retraced_arc,
    maximal_excision,
)
from toruslab.errors import ResonantMode
from toruslab.linearization import (
    albanese,
    build_battery,
    check_equivariance,
    injectivity_probe,
    linearize,
)
from toruslab.sampling import (
    path_via,
    random_loop,
    random_path,
    random_point,
    random_retrace_family,
    random_trig_poly,
    straight_path,
)
from toruslab.spectral import (
    TrigPoly,
    exterior_derivative,
    lie_derivative,
    solve_cohomological,
)
from toruslab.torus_flow import (
    DirectionVector,
    TorusPoint,
    certify_diophantine,
    circle_dist,
    liouville_vector,
)

GOLDEN = DirectionVector.golden()
ORIGIN = np.zeros(2)
BATTERY = build_battery(2, 3)
SMALL_BATTERY = build_battery(2, 1)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name} ({detail})"


def test_criterion_1_solver_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        f = random_trig_poly(rng, d=2, cutoff=8, n_modes=int(rng.integers(1, 7)))
        sol = solve_cohomological(f, GOLDEN)
        recon = lie_derivative(sol.h, GOLDEN) + TrigPoly.constant(2, sol.c)
        for n, cn in f.modes.items():
            rel = abs(recon.coeff(n) - cn) / abs(cn)
            worst = max(worst, rel)
        extra = set(recon.modes) - set(f.modes)
        assert not extra
    report(
        1,
        "solver round trip",
        worst < 1e-12,
        f"200 polys, worst coefficientwise rel err {worst:.3e} < 1e-12",
    )


def test_criterion_2_resonance_obstruction():
    alpha = DirectionVector.from_decimals(["1", "0.5"])
    f = TrigPoly(
        2,
        {(1, -2): 0.5, (-1, 2): 0.5, (2, 1): 0.3, (-2, 1): 0.1, (0, 0): 1.0},
    )
    raised = False
    try:
        solve_cohomological(f, alpha)
    except ResonantMode as exc:
        raised = exc.n in ((1, -2), (-1, 2))
    cleaned = TrigPoly(
        2, {n: c for n, c in f.modes.items() if n not in ((1, -2), (-1, 2))}
    )
    sol = solve_cohomological(cleaned, alpha)
    recovered = sol.c == 1.0 and sol.h.coeff((2, 1)) != 0.0
    report(
        2,
        "resonance obstruction",
        raised and recovered,
        f"mode (1,-2) raised={raised}, zeroed data solved={recovered}",
    )


def test_criterion_3_diophantine_certificate():
    cert = certify_diophantine(GOLDEN, tau=1.0, radius=10_000)
    golden_ok = cert.c_min > 0.1 and abs(cert.c_min - 0.6180339887498949) < 1e-12
    built = liouville_vector(2, (1, 2, 6, 24))
    amps = []
    for p, q in built.convergents[:-1]:
        sol = solve_cohomological(
            TrigPoly.cosine((p, -q)), built.direction, eps_res=0.0
        )
        amps.append(sol.amplification)
    ratios = [amps[i + 1] / amps[i] for i in range(len(amps) - 1)]
    liouville_ok = all(r > 1e3 for r in ratios)
    report(
        3,
        "Diophantine certificate",
        golden_ok and liouville_ok,
        f"golden c_min {cert.c_min:.16f} > 0.1, "
        f"Liouville amp ratios {', '.join(f'{r:.3g}' for r in ratios)} > 1e3",
    )


def test_criterion_4_excision_suite():
    worst_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        fam = random_retrace_family(rng)
        out = maximal_excision(fam)
        assert find_retraced_arc(out) is None, f"seed {seed}: arc left over"
        assert boundaries_equal(
            boundary_multiset(fam), boundary_multiset(out)
        ), f"seed {seed}: boundary changed"
        for _, form in BATTERY:
            gap = abs(evaluate_family(fam, form) - evaluate_family(out, form))
            worst_gap = max(worst_gap, gap)
    report(
        4,
        "excision suite",
        worst_gap < 1e-9,
        f"100 planted families, worst battery gap {worst_gap:.3e} < 1e-9",
    )


def test_criterion_5_twist_identities():
    rng = np.random.default_rng(105)
    worst_loop = 0.0
    for _ in range(100):
        loop = random_loop(rng, random_point(rng), max_winding=2)
        for _, form in BATTERY:
            gap = abs(evaluate_twisted(loop, form, GOLDEN) - evaluate(loop, form))
            worst_loop = max(worst_loop, gap)
    worst_exact = 0.0
    for _ in range(100):
        x, y = random_point(rng), random_point(rng)
        curve = random_path(rng, x, y, GOLDEN)
        if curve.is_closed or curve.is_trivial:
            curve = straight_path(x, (y + 0.25) % 1.0)
        df = exterior_derivative(random_trig_poly(rng, cutoff=5))
        worst_exact = max(worst_exact, abs(evaluate_twisted(curve, df, GOLDEN)))
    ok = worst_loop < 1e-9 and worst_exact < 1e-9
    report(
        5,
        "twist identities",
        ok,
        f"100 loops max |L-raw| {worst_loop:.3e}, "
        f"100 open curves max |L(df)| {worst_exact:.3e}, both < 1e-9",
    )


def test_criterion_6_equivariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        y = random_point(rng)
        t = float(rng.uniform(-10.0, 10.0))
        path = random_path(rng, ORIGIN, y, GOLDEN)
        p = linearize(path, GOLDEN, BATTERY)
        worst = max(worst, check_equivariance(p, t, GOLDEN))
    report(
        6,
        "equivariance",
        worst < 1e-9,
        f"100 (y, t) samples, max battery gap {worst:.3e} < 1e-9",
    )


def test_criterion_7_albanese_semi_conjugacy():
    rng = np.random.default_rng(107)
    worst_offset = 0.0
    worst_loop_shift = 0.0
    for _ in range(100):
        y = random_point(rng)
        paths = (
            straight_path(ORIGIN, y),
            path_via(ORIGIN, random_point(rng), y),
        )
        points = [linearize(g, GOLDEN, SMALL_BATTERY) for g in paths]
        for p in points:
            worst_offset = max(
                worst_offset,
                float(np.max(np.abs(
                    (albanese(p).coords - y + 0.5) % 1.0 - 0.5
                ))),
            )
        looped = concatenate(paths[0], random_loop(rng, y, max_winding=2))
        p_loop = linearize(looped, GOLDEN, SMALL_BATTERY)
        worst_loop_shift = max(
            worst_loop_shift,
            circle_dist(albanese(points[0]).coords, albanese(p_loop).coords),
        )
    ok = worst_offset < 1e-9 and worst_loop_shift < 1e-12
    report(
        7,
        "Albanese semi-conjugacy",
        ok,
        f"100 points x 2 paths, max |albanese - (y - x)| {worst_offset:.3e} < 1e-9; "
        f"loop-appended shift {worst_loop_shift:.3e} < 1e-12",
    )


def test_criterion_8_injectivity_probes():
    rng = np.random.default_rng(108)
    min_gap = np.inf
    done = 0
    while done < 100:
        y1, y2 = random_point(rng), random_point(rng)
        if circle_dist(y1, y2) < 1e-6:
            continue
        p1 = linearize(straight_path(ORIGIN, y1), GOLDEN, SMALL_BATTERY)
        p2 = linearize(straight_path(ORIGIN, y2), GOLDEN, SMALL_BATTERY)
        rep = injectivity_probe(p1, p2)
        assert rep.separated and rep.form is not None
        min_gap = min(min_gap, rep.gap)
        done += 1
    report(
        8,
        "injectivity probes",
        min_gap > 1e-9,
        f"100 pairs separated, min gap {min_gap:.3e} > 1e-9",
    )


def test_criterion_9_stokes_consistency():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        x, y = random_point(rng), random_point(rng)
        curve = random_path(rng, x, y, GOLDEN, n_hops=int(rng.integers(1, 4)))
        f = random_trig_poly(rng, cutoff=8)
        lhs = evaluate(curve, exterior_derivative(f))
        rhs = f(TorusPoint(curve.end_lift)) - f(TorusPoint(curve.start_lift))
        worst = max(worst, abs(lhs - rhs))
    report(
        9,
        "Stokes consistency",
        worst < 1e-10,
        f"100 curve/function pairs, max |T(df) - (f(end) - f(start))| {worst:.3e} < 1e-10",
    )
