"""File formats: JSON schemas with decimal-string numbers, atomic writes.

Numbers in files are decimal strings (or plain JSON numbers on input), so
outputs are platform-independent bytes; every number read must be finite.
Loaders raise SchemaError with the offending field named; writers go
through a temp file plus rename.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .curves import CurveFamily, PiecewiseCurve
from .spectral import TrigPoly
from .torus_flow import DirectionVector


class SchemaError(ValueError):
    """Malformed input file or record."""


def fnum(x) -> str:
    """Shortest round-trip decimal string for a float."""
    return repr(float(x))


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number or decimal string")
    try:
        x = float(value)
    except ValueError:
        raise SchemaError(f"{where}: bad numeric literal {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{where}: number out of float range") from None
    if not math.isfinite(x):
        raise SchemaError(f"{where}: non-finite number {value!r}")
    return x


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _dim(obj, where: str) -> int:
    d = _require(obj, "d", where)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemaError(f"{where}: d must be an integer >= 1")
    return d


def read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


# --- directions ---


def direction_from_json(obj, where: str = "direction") -> DirectionVector:
    d = _dim(obj, where)
    comps = _require(obj, "alpha", where)
    if not isinstance(comps, list) or len(comps) != d:
        raise SchemaError(f"{where}: alpha must list exactly d components")
    decimals = all(isinstance(c, str) for c in comps)
    values = comps if decimals else [_num(c, where) for c in comps]
    try:
        if decimals:
            return DirectionVector.from_decimals(values)
        return DirectionVector(values)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from None
    except OverflowError:  # an exact decimal beyond the float range
        raise SchemaError(f"{where}: number out of float range") from None


def load_direction(path) -> DirectionVector:
    return direction_from_json(read_json(path), where=str(path))


def direction_to_json(alpha: DirectionVector) -> dict:
    return {"d": alpha.d, "alpha": [fnum(a) for a in alpha.alpha]}


# --- trig polys ---


def trig_from_json(obj, where: str = "function") -> TrigPoly:
    d = _dim(obj, where)
    entries = _require(obj, "modes", where)
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: modes must be a list")
    modes: dict = {}
    for i, entry in enumerate(entries):
        spot = f"{where}.modes[{i}]"
        n = _require(entry, "n", spot)
        if not isinstance(n, list) or len(n) != d or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in n
        ):
            raise SchemaError(f"{spot}: n must list d integers")
        re = _num(entry.get("re", 0.0), spot)
        im = _num(entry.get("im", 0.0), spot)
        key = tuple(n)
        modes[key] = modes.get(key, 0.0) + complex(re, im)
    try:
        return TrigPoly(d, modes)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def trig_to_json(f: TrigPoly) -> dict:
    entries = [
        {"n": list(n), "re": fnum(c.real), "im": fnum(c.imag)}
        for n, c in sorted(f.modes.items())
    ]
    return {"d": f.d, "modes": entries}


def load_trig(path) -> TrigPoly:
    return trig_from_json(read_json(path), where=str(path))


# --- curves and families ---


def curve_from_json(obj, where: str = "curve") -> PiecewiseCurve:
    basepoint = _require(obj, "basepoint", where)
    if not isinstance(basepoint, list) or not basepoint:
        raise SchemaError(f"{where}: basepoint must be a nonempty list")
    bp = [_num(v, f"{where}.basepoint") for v in basepoint]
    raw = obj.get("segments", [])
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: segments must be a list")
    kinds, flat = [], []
    for i, seg in enumerate(raw):
        spot = f"{where}.segments[{i}]"
        kinds.append(_require(seg, "kind", spot))
        disp = _require(seg, "displacement", spot)
        if not isinstance(disp, list) or len(disp) != len(bp):
            raise SchemaError(f"{spot}: displacement must list d components")
        flat.extend(_num(v, spot) for v in disp)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            curve = PiecewiseCurve(bp, np.array(flat).reshape(len(kinds), len(bp)), kinds)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    finite = np.isfinite(np.vstack([curve.starts, curve.end_lift])).all(axis=1)
    if not finite.all():  # lift k ends segment k - 1; the basepoint is finite
        raise SchemaError(f"{where}.segments[{int(np.argmin(finite)) - 1}]: running lift overflows")
    return curve


def family_from_json(obj, where: str = "family") -> CurveFamily:
    if isinstance(obj, dict) and "basepoint" in obj:
        return CurveFamily([curve_from_json(obj, where)])
    entries = _require(obj, "curves", where)
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: curves must be a list")
    curves = [curve_from_json(c, f"{where}.curves[{i}]") for i, c in enumerate(entries)]
    try:
        return CurveFamily(curves)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_family(path) -> CurveFamily:
    return family_from_json(read_json(path), where=str(path))


def curve_to_json(curve: PiecewiseCurve) -> dict:
    return {
        "basepoint": [fnum(v) for v in curve.basepoint_lift],
        "segments": [
            {
                "kind": "flow" if is_flow else "transverse",
                "displacement": [fnum(v) for v in disp],
            }
            for is_flow, disp in zip(curve.flow.tolist(), curve.displacements.tolist())
        ],
    }


def family_to_json(family: CurveFamily) -> dict:
    return {"curves": [curve_to_json(c) for c in family]}


# --- output plumbing ---


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def flatten_for_csv(payload, prefix="") -> list[tuple[str, str]]:
    """Deterministic key,value rows for payloads that are natively JSON."""
    rows: list[tuple[str, str]] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(flatten_for_csv(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            rows.extend(flatten_for_csv(item, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), str(payload)))
    return rows


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
