import json

import numpy as np
import pytest

from toruslab.curves import PiecewiseCurve
from toruslab.jsonio import (
    SchemaError,
    csv_text,
    curve_from_json,
    curve_to_json,
    direction_from_json,
    direction_to_json,
    family_from_json,
    family_to_json,
    flatten_for_csv,
    fnum,
    json_text,
    read_json,
    trig_from_json,
    trig_to_json,
    write_text_atomic,
)
from toruslab.spectral import TrigPoly


def test_fnum_round_trips_floats():
    for x in (0.1, 1.0, 0.6180339887498949, 1e-300, -3.5):
        assert float(fnum(x)) == x


def test_direction_from_decimal_strings_is_exact():
    alpha = direction_from_json({"d": 2, "alpha": ["1", "0.1"]})
    # 10 * 0.1 - 1 vanishes exactly in the rational arithmetic
    assert alpha.dot((1, -10)) == -0.0
    assert alpha.dot((1, -10)) == 0.0


def test_direction_accepts_json_numbers():
    alpha = direction_from_json({"d": 2, "alpha": [1, 0.5]})
    assert alpha.dot((1, -2)) == 0.0


def test_direction_round_trip():
    alpha = direction_from_json({"d": 2, "alpha": ["1", "0.5"]})
    again = direction_from_json(direction_to_json(alpha))
    assert np.array_equal(again.alpha, alpha.alpha)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"d": 2},
        {"d": 2, "alpha": ["1"]},
        {"d": 2, "alpha": ["1", "x"]},
        {"d": 2, "alpha": ["1", None]},
        {"d": 2.0, "alpha": ["1", "0.5"]},
        {"d": True, "alpha": ["1"]},
        {"d": 0, "alpha": []},
        {"d": None, "alpha": []},
        {"d": 2, "alpha": ["1e400", "1"]},
    ],
)
def test_direction_schema_errors(obj):
    with pytest.raises(SchemaError) as err:
        direction_from_json(obj, where="a.json")
    # the location is named once, also for a component that is no number
    assert str(err.value).startswith("a.json") and str(err.value).count("a.json") == 1


def test_trig_load_completes_hermitian_partner():
    f = trig_from_json({"d": 2, "modes": [{"n": [1, 0], "re": "1", "im": "0"}]})
    assert f.coeff((-1, 0)) == 1.0 + 0.0j
    assert f((0.0, 0.0)) == pytest.approx(2.0, abs=1e-14)


def test_trig_load_merges_duplicate_modes():
    f = trig_from_json(
        {
            "d": 1,
            "modes": [
                {"n": [1], "re": "0.25", "im": "0"},
                {"n": [1], "re": "0.25", "im": "0"},
                {"n": [-1], "re": "0.5", "im": "0"},
            ],
        }
    )
    assert f.coeff((1,)) == 0.5 + 0.0j


def test_trig_round_trip():
    f = TrigPoly(2, {(0, 0): 1.5, (2, -1): 1 + 2j, (-2, 1): 1 - 2j})
    again = trig_from_json(trig_to_json(f))
    assert again.allclose(f, tol=0.0)


def test_trig_schema_error_on_bad_mode_vector():
    with pytest.raises(SchemaError):
        trig_from_json({"d": 2, "modes": [{"n": [1], "re": "1"}]})


def test_curve_round_trip_is_exact():
    g = PiecewiseCurve.from_steps(
        [0.1, 0.9],
        [("transverse", [0.37, -0.12]), ("flow", [0.2, 0.32360679774])],
    )
    again = curve_from_json(curve_to_json(g))
    assert np.array_equal(again.basepoint_lift, g.basepoint_lift)
    assert np.array_equal(again.displacements, g.displacements)
    assert np.array_equal(again.flow, g.flow)


def test_curve_schema_error_on_out_of_range_integer():
    with pytest.raises(SchemaError, match="out of float range"):
        curve_from_json({"basepoint": [10**400, 0], "segments": []})


def test_family_accepts_single_curve_object():
    payload = curve_to_json(
        PiecewiseCurve.from_steps([0.0, 0.0], [("transverse", [0.5, 0.5])])
    )
    fam = family_from_json(payload)
    assert len(fam) == 1


def test_family_round_trip():
    fam = family_from_json(
        {
            "curves": [
                {
                    "basepoint": ["0", "0"],
                    "segments": [
                        {"kind": "transverse", "displacement": ["0.5", "0.25"]}
                    ],
                },
                {"basepoint": ["0.5", "0.5"], "segments": []},
            ]
        }
    )
    again = family_from_json(family_to_json(fam))
    assert len(again) == 2
    assert again[1].is_trivial


def test_curve_schema_error_on_bad_kind():
    with pytest.raises(SchemaError):
        curve_from_json(
            {
                "basepoint": ["0", "0"],
                "segments": [{"kind": "spiral", "displacement": ["0.1", "0"]}],
            }
        )


def test_read_json_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        read_json(bad)
    with pytest.raises(SchemaError):
        read_json(tmp_path / "missing.json")


def test_write_text_atomic_creates_and_overwrites(tmp_path):
    target = tmp_path / "sub" / "out.json"
    write_text_atomic(target, "first\n")
    write_text_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    assert list(target.parent.iterdir()) == [target]


def test_json_text_is_stable():
    a = json_text({"b": 1, "a": [1, 2]})
    b = json_text({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1}


def test_csv_text_and_flatten():
    text = csv_text(("k", "v"), [("x", "1"), ("y,z", "2")])
    assert text == 'k,v\nx,1\n"y,z",2\n'
    rows = flatten_for_csv({"b": [1, 2], "a": {"c": True}})
    assert rows == [("a.c", "True"), ("b.0", "1"), ("b.1", "2")]
