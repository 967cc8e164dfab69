"""Batch command line front end.

Six subcommands drive the lattice sweeps, the spectral solver, curve
excision and the linearization experiments. Outputs are deterministic for
a fixed (inputs, flags, seed) triple: JSON is dumped with sorted keys,
CSV rows are emitted in a fixed order, and every number is rendered as a
decimal string. Exit codes: 0 success, 1 domain error (resonance,
endpoint mismatch, ...) with a JSON record on stderr, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsonio
from .curves import boundaries_equal, boundary_multiset, maximal_excision
from .errors import ToruslabError
from .jsonio import SchemaError, fnum
from .linearization import (
    DEFAULT_CUTOFF,
    albanese,
    build_battery,
    check_equivariance,
    injectivity_probe,
    linearize,
)
from .sampling import random_path, random_point
from .spectral import solve_cohomological, TrigPoly
from .torus_flow import (
    RESONANCE_EPS,
    certify_diophantine,
    find_resonances,
    liouville_vector,
)

_OUT_NAMES = {
    "diophantine-check": "diophantine",
    "solve-cohomology": "cohomology",
    "excise": "excision",
    "linearize-demo": "linearize",
    "equivariance-test": "equivariance",
    "liouville-sweep": "liouville",
}

COMMANDS = tuple(_OUT_NAMES)


@dataclass
class ExperimentConfig:
    """One CLI invocation, normalized; its field defaults are the flag defaults."""

    command: str
    alpha_path: str | None = None
    function_path: str | None = None
    curve_path: str | None = None
    radius: int = 100
    tau: float = 1.0
    cutoff: int = DEFAULT_CUTOFF
    samples: int = 100
    seed: int = 0
    eps_res: float = RESONANCE_EPS
    schedule: tuple[int, ...] = (1, 2, 6, 24)
    basepoint: tuple[float, ...] | None = None
    out_dir: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise SchemaError(f"unknown command {self.command!r}")
        if self.cutoff < 1:
            raise SchemaError("cutoff must be >= 1")
        if self.samples < 1:
            raise SchemaError("samples must be >= 1")
        if self.seed < 0:
            raise SchemaError("seed must be >= 0")
        if self.fmt not in ("json", "csv"):
            raise SchemaError("format must be json or csv")
        if self.radius < 1:
            raise SchemaError("radius must be >= 1")
        # NaN fails every comparison, so these reject it too
        if not 0.0 <= self.tau < math.inf:
            raise SchemaError("tau must be finite and >= 0")
        if not 0.0 <= self.eps_res < math.inf:
            raise SchemaError("eps-res must be finite and >= 0 (0 detects exact zeros only)")
        if self.basepoint is not None and not all(map(math.isfinite, self.basepoint)):
            raise SchemaError("basepoint must be finite")


def _emit(config: ExperimentConfig, payload=None, header=None, rows=None) -> None:
    """Write the command's artifact, as JSON payload or native CSV rows."""
    if config.fmt == "csv":
        if rows is None:
            header = ("key", "value")
            rows = jsonio.flatten_for_csv(payload)
        text = jsonio.csv_text(header, rows)
    else:
        if payload is None:
            payload = {"rows": [dict(zip(header, r)) for r in rows]}
        text = jsonio.json_text(payload)
    if config.out_dir is not None:
        target = Path(config.out_dir) / f"{_OUT_NAMES[config.command]}.{config.fmt}"
        try:
            jsonio.write_text_atomic(target, text)
        except OSError as exc:
            raise SchemaError(f"cannot write {target}: {exc}") from None
    else:
        sys.stdout.write(text)


def _need(config: ExperimentConfig, attr: str, flag: str) -> str:
    value = getattr(config, attr)
    if value is None:
        raise SchemaError(f"{config.command} requires {flag}")
    return value


def _basepoint(config: ExperimentConfig, d: int) -> np.ndarray:
    if config.basepoint is None:
        return np.zeros(d)
    bp = np.asarray(config.basepoint, dtype=float)
    if bp.size != d:
        raise SchemaError("basepoint dimension does not match alpha")
    return bp


def _cmd_diophantine(config: ExperimentConfig) -> int:
    alpha = jsonio.load_direction(_need(config, "alpha_path", "--alpha"))
    resonances = find_resonances(alpha, config.radius, eps_res=config.eps_res)
    if resonances:
        _emit(config, payload={
            "alpha": jsonio.direction_to_json(alpha),
            "radius": config.radius,
            "resonances": [list(n) for n in resonances],
        })
        record = {
            "error": "ResonanceFound",
            "message": "resonant lattice vectors inside the sweep ball",
            "detail": {"count": len(resonances), "first": list(resonances[0])},
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1
    cert = certify_diophantine(alpha, config.tau, config.radius, eps_res=config.eps_res)
    _emit(config, payload={
        "alpha": jsonio.direction_to_json(alpha),
        "tau": fnum(cert.tau),
        "radius": cert.radius,
        "c_min": fnum(cert.c_min),
        "argmin": list(cert.argmin),
        "norm": cert.norm_kind,
    })
    return 0


def _cmd_solve(config: ExperimentConfig) -> int:
    alpha = jsonio.load_direction(_need(config, "alpha_path", "--alpha"))
    f = jsonio.load_trig(_need(config, "function_path", "--function"))
    sol = solve_cohomological(f, alpha, eps_res=config.eps_res)
    _emit(config, payload={
        "c": fnum(sol.c),
        "amplification": fnum(sol.amplification),
        "h": jsonio.trig_to_json(sol.h),
    })
    return 0


def _cmd_excise(config: ExperimentConfig) -> int:
    family = jsonio.load_family(_need(config, "curve_path", "--curve"))
    reduced = maximal_excision(family)
    preserved = boundaries_equal(
        boundary_multiset(family), boundary_multiset(reduced)
    )
    _emit(config, payload={
        "family": jsonio.family_to_json(reduced),
        "summary": {
            "curves_before": len(family),
            "curves_after": len(reduced),
            "total_length_before": fnum(family.total_length),
            "total_length_after": fnum(reduced.total_length),
            "boundary_preserved": bool(preserved),
        },
    })
    return 0


def _demo_curves(config: ExperimentConfig, alpha):
    if config.curve_path is not None:
        family = jsonio.load_family(config.curve_path)
        if any(c.d != alpha.d for c in family):
            raise SchemaError("curve dimension does not match alpha")
        return list(family)
    rng = np.random.default_rng(config.seed)
    x = _basepoint(config, alpha.d)
    return [
        random_path(rng, x, random_point(rng, alpha.d), alpha)
        for _ in range(config.samples)
    ]


def _cmd_linearize_demo(config: ExperimentConfig) -> int:
    alpha = jsonio.load_direction(_need(config, "alpha_path", "--alpha"))
    battery = build_battery(alpha.d, config.cutoff)
    curves = _demo_curves(config, alpha)
    rows = []
    points = []
    for i, curve in enumerate(curves):
        p = linearize(curve, alpha, battery, eps_res=config.eps_res)
        rows.extend(
            (f"curve{i}", fid, fnum(raw), fnum(twisted))
            for fid, raw, twisted in zip(battery.ids, p.raw, p.table)
        )
        points.append(p)
    header = ("curve", "form", "raw", "twisted")
    if config.fmt == "csv":
        _emit(config, header=header, rows=rows)
        return 0
    payload = {
        "rows": [dict(zip(header, r)) for r in rows],
        "albanese": {
            f"curve{i}": [fnum(v) for v in albanese(p).coords]
            for i, p in enumerate(points)
        },
        "separation": None,
    }
    if len(points) >= 2 and points[0].basepoint.close_to(points[1].basepoint):
        report = injectivity_probe(points[0], points[1])
        payload["separation"] = {
            "form": report.form,
            "gap": fnum(report.gap),
            "endpoints_differ": report.endpoints_differ,
        }
    _emit(config, payload=payload)
    return 0


def _cmd_equivariance(config: ExperimentConfig) -> int:
    alpha = jsonio.load_direction(_need(config, "alpha_path", "--alpha"))
    rng = np.random.default_rng(config.seed)
    battery = build_battery(alpha.d, config.cutoff)
    x = _basepoint(config, alpha.d)
    worst = 0.0
    for _ in range(config.samples):
        y = random_point(rng, alpha.d)
        t = float(rng.uniform(-10.0, 10.0))
        path = random_path(rng, x, y, alpha)
        p = linearize(path, alpha, battery, eps_res=config.eps_res)
        worst = max(worst, check_equivariance(p, t, alpha, eps_res=config.eps_res))
    _emit(config, payload={
        "equivariance_max_gap": fnum(worst),
        "samples": config.samples,
        "cutoff": config.cutoff,
        "seed": config.seed,
    })
    return 0


def _cmd_liouville(config: ExperimentConfig) -> int:
    built = liouville_vector(2, config.schedule)
    rows = []
    for p, q in built.convergents[:-1]:
        mode = (p, -q)
        sol = solve_cohomological(
            TrigPoly.cosine(mode), built.direction, eps_res=0.0
        )
        rows.append((str(q), fnum(sol.amplification)))
    _emit(config, header=("q", "amplification"), rows=rows)
    return 0


_HANDLERS = {
    "diophantine-check": _cmd_diophantine,
    "solve-cohomology": _cmd_solve,
    "excise": _cmd_excise,
    "linearize-demo": _cmd_linearize_demo,
    "equivariance-test": _cmd_equivariance,
    "liouville-sweep": _cmd_liouville,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; exit status semantics as in the module doc."""
    try:
        return _HANDLERS[config.command](config)
    except ToruslabError as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "detail": exc.detail(),
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1
    except SchemaError as exc:
        record = {"error": "SchemaError", "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad decimal list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslab",
        description="Numerical experiments with linear flows on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, alpha=False, function=False, curve=False,
            sweep=False, battery=False, sampled=False, schedule=False):
        # flags left out stay unset, so ExperimentConfig supplies the defaults
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if alpha:
            cmd.add_argument("--alpha", dest="alpha_path", metavar="ALPHA", required=True,
                             help="direction JSON file")
            cmd.add_argument(
                "--eps-res", type=float,
                help=f"relative resonance threshold (default {RESONANCE_EPS:g})",
            )
        if function:
            cmd.add_argument("--function", dest="function_path", metavar="FUNCTION",
                             required=True, help="trig poly JSON file")
        if curve:
            cmd.add_argument("--curve", dest="curve_path", metavar="CURVE",
                             required=name == "excise", help="curve family JSON file")
        if sweep:
            cmd.add_argument("--radius", type=int)
            cmd.add_argument("--tau", type=float)
        if battery:
            cmd.add_argument("--cutoff", type=int)
            cmd.add_argument("--basepoint", type=_comma_floats)
        if sampled:
            cmd.add_argument("--samples", type=int)
            cmd.add_argument("--seed", type=int)
        if schedule:
            cmd.add_argument("--schedule", type=_comma_ints)
        cmd.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
        cmd.add_argument("--format", dest="fmt", choices=("json", "csv"))
        if name in ("linearize-demo", "liouville-sweep"):
            cmd.set_defaults(fmt="csv")
        return cmd

    add("diophantine-check", "sweep a lattice ball for small divisors",
        alpha=True, sweep=True)
    add("solve-cohomology", "invert the flow derivative on a trig poly",
        alpha=True, function=True)
    add("excise", "remove retraced arcs from a curve family", curve=True)
    add("linearize-demo", "raw and twisted battery values for curves",
        alpha=True, curve=True, battery=True, sampled=True)
    add("equivariance-test", "max gap of the time-t shift law",
        alpha=True, battery=True, sampled=True)
    add("liouville-sweep", "amplification at successive convergent modes",
        schedule=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(**vars(args))
    except SchemaError as exc:
        record = {"error": "SchemaError", "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
