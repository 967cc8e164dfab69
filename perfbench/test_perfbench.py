"""Self-tests of the benchmark: inputs, output checks and layer tracing.

Run from the repository root with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from toruslab import cli  # noqa: E402

# Groups each workload must exercise, and groups it must leave alone.
EXERCISED = {
    "battery": ("cli", "jsonio.load", "jsonio.emit", "linearization.linearize",
                "linearization.equivariance", "linearization.generator",
                "currents.evaluate", "currents.twisted", "spectral.solve",
                "torus_flow.dot", "sampling.path"),
    "longpath": ("cli", "jsonio.load", "jsonio.emit", "linearization.linearize",
                 "linearization.probe", "linearization.albanese",
                 "currents.evaluate", "currents.twisted", "spectral.solve",
                 "torus_flow.dot"),
    "sweep": ("cli", "jsonio.load", "jsonio.emit", "torus_flow.sweep"),
    "excise": ("cli", "jsonio.load", "jsonio.emit", "curves.find",
               "curves.excise", "curves.boundary_check"),
}
UNTOUCHED = {
    "battery": ("curves.find", "curves.excise", "torus_flow.sweep"),
    "longpath": ("curves.find", "curves.excise", "torus_flow.sweep",
                 "sampling.path"),
    "sweep": ("currents.evaluate", "currents.twisted", "spectral.solve",
              "curves.find", "curves.excise"),
    "excise": ("torus_flow.sweep", "currents.evaluate", "currents.twisted",
               "spectral.solve", "linearization.linearize"),
}


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    workloads.build(name, 7, tmp_path / "a")
    workloads.build(name, 7, tmp_path / "b")
    workloads.build(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_direction_files_hold_exact_decimals(tmp_path):
    workloads.build("sweep", 1, tmp_path)
    for name in ("golden", "sqrt2", "sqrt3", "cubic"):
        obj = json.loads((tmp_path / f"{name}.json").read_text())
        assert all(isinstance(c, str) for c in obj["alpha"])
        assert len(obj["alpha"]) == obj["d"]
    cubic = [Fraction(c) for c in json.loads((tmp_path / "cubic.json").read_text())["alpha"]]
    assert abs(cubic[1] ** 3 - 2) < Fraction(1, 10**38)
    assert abs(cubic[2] - cubic[1] ** 2) < Fraction(1, 10**38)


def _trace(name: str, work: Path, jobs: int = 2) -> tracing.Tracer:
    pool = workloads.build(name, 3, work)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        phase = run.measure(cli, pool, work, checks.checker(name), limit=jobs,
                            tracer=tracer)
    finally:
        uninstall()
    assert not phase.failures
    return tracer


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layers_record_spans_on_their_workload(name, tmp_path):
    tracer = _trace(name, tmp_path)
    for group in EXERCISED[name]:
        assert tracer.calls[group] > 0, group
        assert tracer.self_s[group] > 0.0, group
    for group in UNTOUCHED[name]:
        assert tracer.calls[group] == 0, group
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.jobs"][0] == 2
    if name == "battery":
        assert metrics["currents.evaluate_per_twisted"][0] == 2.0
    if name == "sweep":
        assert metrics["torus_flow.sweeps_per_job"][0] == 2.0


def test_install_patches_every_binding_and_undoes_it():
    import toruslab
    from toruslab import currents, linearization

    originals = (cli.evaluate_twisted, linearization.evaluate_twisted,
                 currents.evaluate_twisted, toruslab.evaluate_twisted)
    assert len(set(originals)) == 1
    uninstall = tracing.install(tracing.Tracer())
    try:
        patched = (cli.evaluate_twisted, linearization.evaluate_twisted,
                   currents.evaluate_twisted, toruslab.evaluate_twisted)
        assert len(set(patched)) == 1 and patched[0] is not originals[0]
    finally:
        uninstall()
    assert cli.evaluate_twisted is originals[0]
    assert toruslab.DirectionVector.dot.__name__ == "dot"
    assert not hasattr(toruslab.DirectionVector.dot, "__wrapped__")


def test_spans_carry_job_and_parent(tmp_path):
    pool = workloads.build("sweep", 3, tmp_path)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_job(41)
        run.run_job(cli, pool[0], tmp_path)
        spans = list(tracer._spans)
        tracer.end_job()
    finally:
        uninstall()
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] == 0]
    assert [s[3] for s in roots] == ["cli.main"]
    assert all(s[2] == 41 for s in spans)
    sweep = next(s for s in spans if s[3] == "torus_flow.certify_diophantine")
    parent = by_id[sweep[1]]
    assert parent[4] <= sweep[4] and sweep[5] <= parent[5]


def test_traced_counts_repeat_exactly(tmp_path):
    first = tracing.layer_metrics(_trace("excise", tmp_path / "a", jobs=3))
    second = tracing.layer_metrics(_trace("excise", tmp_path / "b", jobs=3))
    counts = {k: v for k, (v, unit) in first.items() if unit in ("count", "B")}
    assert counts == {k: second[k][0] for k in counts}
    assert counts["curves.arcs_removed"] > 0


def _tampered(job, **expect):
    return replace(job, expect={**job.expect, **expect})


@pytest.mark.parametrize("name, field, value", [
    ("battery", "seed", -1),
    ("longpath", "albanese", [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]),
    ("sweep", "radius", 3),
    ("excise", "drop", 1.0),
])
def test_wrong_output_counts_as_failed_job(name, field, value, tmp_path):
    pool = workloads.build(name, 3, tmp_path)
    jobs = [pool[0], _tampered(pool[0], **{field: value})]
    phase = run.measure(cli, jobs, tmp_path, checks.checker(name), limit=2)
    assert [i for i, _ in phase.failures] == [1]
    assert phase.items == pool[0].items


def test_unexpected_exit_code_counts_as_failed_job(tmp_path):
    pool = workloads.build("sweep", 3, tmp_path)
    bad_radius = replace(pool[0], argv=pool[0].argv[:-4] + ("--radius", "0", "--tau", "1"))
    unknown_flag = replace(pool[0], argv=pool[0].argv + ("--bogus",))
    phase = run.measure(cli, [bad_radius, unknown_flag], tmp_path,
                        checks.checker("sweep"), limit=2)
    assert [reason.split(":")[0] for _, reason in phase.failures] == [
        "exit code 2", "exit code 2"]
    assert phase.items == 0


def test_malformed_output_is_a_check_failure():
    job = workloads.Job(argv=(), items=1, expect={"samples": 2, "cutoff": 3, "seed": 0})
    check = checks.checker("battery")
    with pytest.raises(checks.CheckFailed):
        check(job, "not json")
    with pytest.raises(checks.CheckFailed):
        check(job, json.dumps({"equivariance_max_gap": "1e-3", "samples": 2,
                               "cutoff": 3, "seed": 0}))


def test_golden_large_radius_regression(tmp_path):
    alpha = tmp_path / "golden.json"
    alpha.write_text(json.dumps({"d": 2, "alpha": workloads.directions()["golden"]}))
    job = workloads.Job(argv=("diophantine-check", "--alpha", str(alpha),
                              "--radius", "10000", "--tau", "1"), items=1)
    _, code, out, error = run.run_job(cli, job, tmp_path)
    assert code == 0 and not error
    payload = json.loads(out)
    assert payload["c_min"] == "0.6180339887498949"
    assert payload["argmin"] == [1, -1]


@pytest.mark.parametrize("d, radius", [(2, 12), (3, 4)])
def test_independent_minimum_matches_plain_loop(d, radius):
    alpha = np.array([1.0, 2.0 ** (1 / 3), 4.0 ** (1 / 3)][:d])
    minima = checks.half_ball_minima(alpha, radius, 1.0)
    for r in range(1, radius + 1):
        plain = min(
            abs(float(np.dot(n, alpha))) * max(abs(v) for v in n)
            for n in itertools.product(range(-r, r + 1), repeat=d) if any(n)
        )
        assert minima[r] == pytest.approx(plain, rel=1e-12)


def test_items_are_defined_by_the_input():
    assert workloads.battery_size(2, 3) == 98
    assert workloads.battery_size(3, 1) == 81
    assert workloads.half_ball_points(2, 1) == 4
    assert workloads.half_ball_points(3, 1) == 13


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([float(i) for i in range(1, 250)])[0] == 90.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_failed_job_makes_the_run_exit_nonzero(monkeypatch, capsys):
    def always_wrong(job, out):
        raise checks.CheckFailed("planted failure")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(checks, "checker", lambda name: always_wrong)
    monkeypatch.setattr(run, "child_setups", lambda args, root: [(0.5, 0.5)])
    monkeypatch.setattr(run, "MIN_JOBS", 2)
    monkeypatch.setitem(run.CYCLE, "battery", 1)
    assert run.main(["--workload", "battery", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
