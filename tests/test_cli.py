import hashlib
import json

import numpy as np
import pytest

from toruslab.cli import ExperimentConfig, main
from toruslab.curves import CurveFamily
from toruslab.jsonio import SchemaError, family_to_json, json_text
from toruslab.sampling import random_retrace_family


GOLDEN_ALPHA = '{"d": 2, "alpha": ["1", "1.618033988749894848204586834365638118"]}\n'
HALF_ALPHA = '{"d": 2, "alpha": ["1", "0.5"]}\n'
COS_FUNC = (
    '{"d": 2, "modes": [{"n": [1, 0], "re": "0.5", "im": "0"},'
    ' {"n": [-1, 0], "re": "0.5", "im": "0"}]}\n'
)
RES_FUNC = '{"d": 2, "modes": [{"n": [1, -2], "re": "1", "im": "0"}]}\n'
BACKTRACK_FAMILY = json.dumps(
    {
        "curves": [
            {
                "basepoint": ["0.1", "0.1"],
                "segments": [
                    {"kind": "transverse", "displacement": ["0.3", "0.2"]},
                    {"kind": "transverse", "displacement": ["-0.3", "-0.2"]},
                    {"kind": "transverse", "displacement": ["0.2", "0.0"]},
                ],
            }
        ]
    }
) + "\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("golden.json", GOLDEN_ALPHA),
        ("half.json", HALF_ALPHA),
        ("cos.json", COS_FUNC),
        ("resonant.json", RES_FUNC),
        ("family.json", BACKTRACK_FAMILY),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_validates_command_and_cutoff():
    with pytest.raises(SchemaError):
        ExperimentConfig(command="frobnicate")
    with pytest.raises(SchemaError):
        ExperimentConfig(command="excise", cutoff=0)
    with pytest.raises(SchemaError):
        ExperimentConfig(command="excise", fmt="xml")


def test_diophantine_resonant_exits_one_with_listing(files, capsys):
    code, out, err = run(
        capsys,
        ["diophantine-check", "--alpha", files["half.json"], "--radius", "3"],
    )
    assert code == 1
    assert json.loads(out)["resonances"] == [[1, -2]]
    record = json.loads(err)
    assert record["error"] == "ResonanceFound"
    assert record["detail"]["first"] == [1, -2]


def test_diophantine_certificate_regression(files, capsys):
    code, out, err = run(
        capsys,
        ["diophantine-check", "--alpha", files["golden.json"], "--radius", "50"],
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["c_min"] == "0.6180339887498949"
    assert payload["argmin"] == [1, -1]
    assert payload["norm"] == "sup"


def test_diophantine_tie_reports_first_argmin(files, capsys, tmp_path):
    # at tau = 0, (0, 1) and (1, -3) both reach |n.alpha| = 0.25; the sweep
    # keeps the first in its order
    quarter = tmp_path / "quarter.json"
    quarter.write_text('{"d": 2, "alpha": ["1", "0.25"]}\n')
    code, out, err = run(capsys, [
        "diophantine-check", "--alpha", str(quarter), "--tau", "0", "--radius", "3",
    ])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["argmin"], payload["c_min"]) == ([0, 1], "0.25")


def test_solve_cohomology_success(files, capsys):
    code, out, err = run(
        capsys,
        [
            "solve-cohomology",
            "--alpha", files["golden.json"],
            "--function", files["cos.json"],
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "0.0"
    assert float(payload["amplification"]) >= 1.0
    assert len(payload["h"]["modes"]) == 2


def test_solve_cohomology_resonant_exits_one(files, capsys):
    code, out, err = run(
        capsys,
        [
            "solve-cohomology",
            "--alpha", files["half.json"],
            "--function", files["resonant.json"],
        ],
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "ResonantMode"
    assert record["detail"]["n"] == [1, -2]


def test_malformed_input_exits_two(files, capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, out, err = run(
        capsys, ["diophantine-check", "--alpha", str(bad), "--radius", "3"]
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_missing_input_exits_two(files, capsys):
    code, out, err = run(
        capsys,
        ["diophantine-check", "--alpha", str(files["dir"] / "nope.json")],
    )
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_bad_cutoff_exits_two(files, capsys):
    code, out, err = run(
        capsys,
        [
            "linearize-demo",
            "--alpha", files["golden.json"],
            "--cutoff", "0",
        ],
    )
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_usage_error_exits_two(files):
    with pytest.raises(SystemExit) as exc:
        main(["diophantine-check"])  # missing required --alpha
    assert exc.value.code == 2


def test_excise_removes_backtrack(files, capsys):
    code, out, err = run(capsys, ["excise", "--curve", files["family.json"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["boundary_preserved"] is True
    assert payload["summary"]["curves_after"] == 1
    segs = payload["family"]["curves"][0]["segments"]
    assert len(segs) == 1
    assert segs[0]["displacement"] == ["0.2", "0.0"]


def test_liouville_sweep_amplification_blows_up(files, capsys):
    code, out, err = run(capsys, ["liouville-sweep", "--schedule", "1,2,6,24"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,amplification"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [10, 100, 10**6]
    amps = [float(r[1]) for r in rows]
    assert amps[1] / amps[0] > 1e3 and amps[2] / amps[1] > 1e3


def test_liouville_sweep_rejects_bad_schedule(files, capsys):
    code, out, err = run(capsys, ["liouville-sweep", "--schedule", "3,2"])
    assert code == 1
    assert json.loads(err)["error"] == "BadSchedule"


def test_equivariance_gap_small(files, capsys):
    code, out, err = run(
        capsys,
        [
            "equivariance-test",
            "--alpha", files["golden.json"],
            "--samples", "3",
            "--seed", "11",
            "--cutoff", "1",
        ],
    )
    assert code == 0
    assert float(json.loads(out)["equivariance_max_gap"]) < 1e-9


def test_linearize_demo_csv_rows(files, capsys):
    code, out, err = run(
        capsys,
        [
            "linearize-demo",
            "--alpha", files["golden.json"],
            "--samples", "2",
            "--seed", "5",
            "--cutoff", "1",
            "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve,form,raw,twisted"
    battery_size = 2 + 4 * 4
    assert len(lines) == 1 + 2 * battery_size
    for line in lines[1:]:
        if ",dx1," in line or ",dx2," in line:
            parts = line.split(",")
            assert parts[2] == parts[3]  # constant forms twist trivially


def test_linearize_demo_json_has_albanese_and_separation(files, capsys):
    code, out, err = run(
        capsys,
        [
            "linearize-demo",
            "--alpha", files["golden.json"],
            "--samples", "2",
            "--seed", "5",
            "--cutoff", "1",
            "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["albanese"]) == {"curve0", "curve1"}
    assert payload["separation"] is not None
    assert float(payload["separation"]["gap"]) > 1e-9


def test_outputs_are_byte_identical(files, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = [
        "linearize-demo",
        "--alpha", files["golden.json"],
        "--samples", "2",
        "--seed", "9",
        "--cutoff", "1",
        "--format", "csv",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1 = (out1 / "linearize.csv").read_bytes()
    b2 = (out2 / "linearize.csv").read_bytes()
    assert b1 == b2 and len(b1) > 0


def test_csv_fallback_for_json_payloads(files, capsys):
    code, out, err = run(
        capsys,
        [
            "diophantine-check",
            "--alpha", files["golden.json"],
            "--radius", "10",
            "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "c_min" in keys and "argmin.0" in keys


# sha256 of each command's stdout; a change that moves output bytes must
# update the digest and record the drift.
RECORDED_SHA256 = {
    "excise": "1a2a287e00804ea79c84e1feb1fc513be6aeb0340a780465db1e12162f4fa772",
    "linearize-demo-csv": "4cad67a0031be1d5db7e1f09e769d195bb527c247330170e5fc36dc4f743552d",
    "linearize-demo-json": "d515efddda95ede00cddd8d67e7e98cec27cc5f0298ca79625350b825fa1b70c",
    "equivariance-test": "071469f766eb4a2300c0b2953294826cda479b34bfd2d1939b52abc7a41dfd7b",
    "solve-cohomology": "84cecbe7e021524cdb2d68bc1a210f4d9c5cf47e0541a1034d184a3ac837a73e",
    "diophantine-check": "a3821e41aab9e995d8e9063c179a46612cb6645ad69aabf19d7b2ac7cfdfcce7",
    "liouville-sweep": "38c485ddcf8633621fff8f46ee879367d3ab715c210cd61d44bb1c7a4fc5420a",
    "linearize-demo-curve": "50e83003a5ba5f6cdf79c3097a3583b9f3285995adda594bd8f963a58de705a2",
}


def test_outputs_match_recorded_bytes(files, capsys, tmp_path):
    # plants: within (seed 0), cross (seed 2), partial (seeds 7 and 10)
    family = CurveFamily(
        curve
        for seed in (0, 2, 7, 10)
        for curve in random_retrace_family(np.random.default_rng(seed))
    )
    planted = tmp_path / "planted.json"
    planted.write_text(json_text(family_to_json(family)))
    demo = ["--alpha", files["golden.json"], "--cutoff", "2", "--samples", "3", "--seed", "4"]
    corpus = {
        "excise": ["excise", "--curve", str(planted)],
        "linearize-demo-csv": ["linearize-demo", *demo, "--format", "csv"],
        "linearize-demo-json": ["linearize-demo", *demo, "--format", "json"],
        "equivariance-test": [
            "equivariance-test", "--alpha", files["golden.json"],
            "--cutoff", "2", "--samples", "2", "--seed", "4",
        ],
        "solve-cohomology": [
            "solve-cohomology", "--alpha", files["golden.json"], "--function", files["cos.json"],
        ],
        "diophantine-check": [
            "diophantine-check", "--alpha", files["golden.json"], "--radius", "200", "--tau", "1",
        ],
        "liouville-sweep": ["liouville-sweep"],
        "linearize-demo-curve": [
            "linearize-demo", "--alpha", files["golden.json"], "--curve", str(planted),
            "--cutoff", "1", "--format", "json",
        ],
    }
    digests = {}
    for name, argv in corpus.items():
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "", name
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == RECORDED_SHA256


NON_FINITE = {  # command -> (input flag, file with one non-finite number)
    "excise": ("--curve", {
        "basepoint": ["0.1", "0.1"],
        "segments": [{"kind": "transverse", "displacement": ["nan", "0.2"]}],
    }),
    "linearize-demo": ("--curve", {
        "basepoint": ["inf", "0.1"],
        "segments": [{"kind": "transverse", "displacement": ["0.3", "0.2"]}],
    }),
    "solve-cohomology": ("--function", {
        "d": 2, "modes": [{"n": [1, 0], "re": "nan", "im": "0"}],
    }),
}


@pytest.mark.parametrize("command", sorted(NON_FINITE))
def test_non_finite_input_exits_two(command, files, capsys, tmp_path):
    flag, payload = NON_FINITE[command]
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(payload))
    argv = [command, flag, str(bad)]
    if command != "excise":
        argv += ["--alpha", files["golden.json"]]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "SchemaError"
    assert "non-finite" in record["message"]


BAD_NUMERIC_FLAGS = [
    ["diophantine-check", "--tau", "nan"],
    ["diophantine-check", "--tau", "-1"],
    ["diophantine-check", "--tau", "inf"],
    ["diophantine-check", "--eps-res", "nan"],
    ["diophantine-check", "--eps-res", "-0.5"],
    ["linearize-demo", "--basepoint", "inf,0"],
    ["linearize-demo", "--basepoint", "nan,0"],
    ["equivariance-test", "--basepoint", "inf,0"],
    ["equivariance-test", "--basepoint", "nan,0"],
    ["linearize-demo", "--seed", "-1"],
    ["equivariance-test", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_FLAGS, ids=" ".join)
def test_malformed_numeric_flag_exits_two(argv, files, capsys):
    code, out, err = run(capsys, [*argv, "--alpha", files["golden.json"]])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


_SEGMENT = {"kind": "transverse", "displacement": ["0.3", "0.2"]}
_HUGE = {"kind": "transverse", "displacement": ["1e308", "1e308"]}
_OVERFLOWING = {"basepoint": ["0", "0"], "segments": [_HUGE, _HUGE]}
MALFORMED_INPUTS = {  # id -> (command, input flag, file contents)
    "function-d-null": ("solve-cohomology", "--function", {"d": None, "modes": []}),
    "function-d-list": ("solve-cohomology", "--function", {"d": [2], "modes": []}),
    "function-d-string": ("solve-cohomology", "--function", {"d": "2", "modes": []}),
    "function-n-bool": ("solve-cohomology", "--function", {
        "d": 2, "modes": [{"n": [True, 0], "re": "1", "im": "0"}],
    }),
    "excise-mixed-dimensions": ("excise", "--curve", {"curves": [
        {"basepoint": ["0.1", "0.1"], "segments": [_SEGMENT]},
        {"basepoint": ["0.1", "0.1", "0.1"], "segments": []},
    ]}),
    "demo-mixed-dimensions": ("linearize-demo", "--curve", {"curves": [
        {"basepoint": ["0.1", "0.1"], "segments": [_SEGMENT]},
        {"basepoint": ["0.1", "0.1", "0.1"], "segments": []},
    ]}),
    "demo-curve-not-alpha-dimension": ("linearize-demo", "--curve", {
        "basepoint": ["0.1", "0.1", "0.1"],
        "segments": [{"kind": "transverse", "displacement": ["0.3", "0.2", "0.1"]}],
    }),
    "alpha-beyond-float-range": ("diophantine-check", "--alpha", {
        "d": 2, "alpha": ["1e400", "1"],
    }),
    "curve-not-utf8": ("excise", "--curve", b'\xff\xfe{"basepoint": ["0", "0"]}'),
    "curve-nested-too-deep": ("excise", "--curve", b"[" * 100_000 + b"]" * 100_000),
    "excise-lift-overflow": ("excise", "--curve", _OVERFLOWING),
    "demo-lift-overflow": ("linearize-demo", "--curve", _OVERFLOWING),
    # the file is where the output directory should be, or above it
    "out-is-a-file": ("diophantine-check", "--out", {}),
    "out-under-a-file": ("diophantine-check", "--out/sub", {}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_two(case, files, capsys, tmp_path):
    command, flag, payload = MALFORMED_INPUTS[case]
    bad = tmp_path / "malformed.json"
    if isinstance(payload, bytes):
        bad.write_bytes(payload)
    else:
        bad.write_text(json.dumps(payload))
    flag, _, below = flag.partition("/")
    argv = [command, flag, str(bad / below if below else bad)]
    if command != "excise" and flag != "--alpha":
        argv += ["--alpha", files["golden.json"]]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_near_resonant_direction_passes_twist_check(files, capsys, tmp_path):
    # |3 alpha_2 - 1| = 3e-6: the twisted values reach 4e3, and the two
    # routes differ by 2e-10 absolute but 4e-14 relative
    near = tmp_path / "near.json"
    near.write_text('{"d": 2, "alpha": ["1", "0.333334333333"]}\n')
    code, out, err = run(
        capsys, ["equivariance-test", "--alpha", str(near), "--cutoff", "3", "--samples", "5"]
    )
    assert code == 0 and err == ""
