"""CLI verbs, exit codes, formats, and byte-level determinism."""

import json
import math
import tracemalloc
import warnings

import pytest

from ruledgeo.cli import run


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out.read_bytes()


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HELICOID_SPEC = {"type": "gallery", "name": "right_helicoid", "params": {"c": 1.0}}


def test_gallery_emit_spec_and_summary(tmp_path, capsys):
    code, payload = run_to_file(
        tmp_path, "spec.json",
        ["gallery", "--name", "right_helicoid", "--param", "c=1.0", "--emit-spec"],
    )
    assert code == 0
    spec = json.loads(payload)
    assert spec == {"type": "gallery", "name": "right_helicoid", "params": {"c": 1}}
    assert run(["gallery", "--name", "right_helicoid"]) == 0
    assert "right_helicoid" in capsys.readouterr().out


def test_gallery_spec_classify_round_trip(tmp_path):
    code, payload = run_to_file(
        tmp_path, "spec.json",
        ["gallery", "--name", "right_helicoid", "--emit-spec"],
    )
    assert code == 0
    spec_path = tmp_path / "spec.json"
    code, out = run_to_file(
        tmp_path, "cls.json", ["classify", "--spec", str(spec_path)]
    )
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags["right_helicoid"] and flags["orthoid"] and flags["conoidal"]


def test_invariants_csv_and_json(tmp_path):
    spec = write_spec(tmp_path, HELICOID_SPEC)
    code, out = run_to_file(
        tmp_path, "inv.csv", ["invariants", "--spec", spec, "--grid", "5"]
    )
    assert code == 0
    lines = out.decode().strip().splitlines()
    assert lines[0] == "u,k,delta,sigma,lambda"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert float(row[1]) == 0.0 and float(row[2]) == 1.0

    code, out = run_to_file(
        tmp_path, "inv.json",
        ["invariants", "--spec", spec, "--grid", "5", "--format", "json"],
    )
    data = json.loads(out)
    assert data["delta"] == [1.0] * 5
    assert data["lambda"] == [0.0] * 5


def test_invariants_rejects_nonstandard_without_flag(tmp_path, capsys):
    bad = write_spec(
        tmp_path,
        {
            "type": "expression",
            "cx": "0", "cy": "0", "cz": "u",
            "dx": "2*cos(u)", "dy": "2*sin(u)", "dz": "0",
            "domain": [0.0, 6.0],
        },
    )
    assert run(["invariants", "--spec", bad]) == 1
    err = capsys.readouterr().err
    assert "standard form" in err and "standardize" in err
    assert run(["invariants", "--spec", bad, "--standardize", "--grid", "3"]) == 0


def test_fit_command_matches_table(tmp_path):
    spec = write_spec(
        tmp_path,
        {"type": "gallery", "name": "conoidal_const_delta",
         "params": {"alpha": 2.0, "beta": 1.0}},
    )
    code, out = run_to_file(
        tmp_path, "fit.json", ["fit", "--family", "s3", "--spec", spec]
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "fit" and data["n"] == -3
    assert all(abs(f + 2.0) < 1e-9 for _, f in data["f"])


def test_fit_zero_and_nofit_statuses(tmp_path):
    spec = write_spec(tmp_path, HELICOID_SPEC)
    code, out = run_to_file(
        tmp_path, "fit.json", ["fit", "--family", "s1", "--spec", spec]
    )
    assert code == 0 and json.loads(out)["status"] == "zero"

    gs = write_spec(
        tmp_path,
        {"type": "gallery", "name": "generic_skew", "params": {"seed": 1}},
        name="gs.json",
    )
    code, out = run_to_file(tmp_path, "nofit.json",
                            ["fit", "--family", "s1", "--spec", gs])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "nofit" and data["best_residual"] > 1e-6


def test_trace_formats(tmp_path):
    spec = write_spec(tmp_path, HELICOID_SPEC)
    base = ["trace", "--spec", spec, "--family", "s1", "--u0", "1.0",
            "--v0", "0.5", "--steps", "4", "--step-size", "0.05"]
    code, csv_out = run_to_file(tmp_path, "tr.csv", base)
    assert code == 0
    lines = csv_out.decode().strip().splitlines()
    assert lines[0] == "u,v,x,y,z" and len(lines) == 6

    code, obj_out = run_to_file(tmp_path, "tr.obj", base + ["--format", "obj"])
    assert code == 0
    obj_lines = obj_out.decode().strip().splitlines()
    assert sum(1 for l in obj_lines if l.startswith("v ")) == 5
    assert obj_lines[-1].startswith("l 1 2 3 4 5")

    code, json_out = run_to_file(tmp_path, "tr.json", base + ["--format", "json"])
    data = json.loads(json_out)
    assert data["stop_reason"] == "completed"
    assert len(data["points"]) == 5
    assert math.isclose(data["arclength"], 0.2, rel_tol=1e-12)


def test_determinism_byte_identical(tmp_path):
    spec = write_spec(tmp_path, {"type": "gallery", "name": "generic_skew",
                                 "params": {"seed": 2}})
    runs = []
    for name in ("a.json", "b.json"):
        code, payload = run_to_file(
            tmp_path, name, ["fit", "--family", "lc1", "--spec", spec]
        )
        assert code == 0
        runs.append(payload)
    assert runs[0] == runs[1]

    runs = []
    for name in ("a.csv", "b.csv"):
        code, payload = run_to_file(
            tmp_path, name, ["invariants", "--spec", spec, "--grid", "17"]
        )
        assert code == 0
        runs.append(payload)
    assert runs[0] == runs[1]


def test_verify_single_prop(tmp_path):
    code, out = run_to_file(tmp_path, "v.json",
                            ["verify", "--prop", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and len(data["rows"]) == 3

    code, out = run_to_file(tmp_path, "vc.txt", ["verify", "--prop", "corollary"])
    assert code == 0
    assert b"corollary" in out and b"pass" in out


def test_verify_all_text_and_exit(tmp_path):
    code, out = run_to_file(tmp_path, "all.txt", ["verify", "--all"])
    assert code == 0
    text = out.decode()
    assert "overall: pass" in text
    assert text.count("\n") > 15  # 12 rows + negatives + corollary


def test_verify_failing_rows_exit_two(tmp_path):
    # an unattainable fit tolerance forces every non-zero row to fail
    code, out = run_to_file(
        tmp_path, "fail.txt", ["verify", "--prop", "1", "--tol-fit", "1e-30"]
    )
    assert code == 2
    assert b"FAIL" in out


def test_bad_inputs_exit_one(tmp_path, capsys):
    assert run(["invariants", "--spec", str(tmp_path / "missing.json")]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(["invariants", "--spec", str(bad_json)]) == 1
    wrong = write_spec(tmp_path, {"type": "mystery"}, name="wrong.json")
    assert run(["classify", "--spec", wrong]) == 1
    assert run(["gallery", "--name", "nope"]) == 1
    capsys.readouterr()


def test_json_float_formatting(tmp_path):
    # 17 significant digits in JSON output
    spec = write_spec(tmp_path, HELICOID_SPEC)
    code, out = run_to_file(
        tmp_path, "inv.json",
        ["invariants", "--spec", spec, "--grid", "3", "--format", "json"],
    )
    assert code == 0
    text = out.decode()
    assert "1.5707963267948966" in text  # pi/2 at full precision


# delta = u - 1 changes sign inside the domain: the surface is not skew there
SIGN_CHANGE_SPEC = {
    "type": "expression",
    "cx": "0", "cy": "0", "cz": "(u-1)^2/2",
    "dx": "cos(u)", "dy": "sin(u)", "dz": "0",
    "domain": [0.0, 6.283],
}


def test_delta_sign_change_is_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path, SIGN_CHANGE_SPEC)
    assert run(["classify", "--spec", spec]) == 1
    assert run(["trace", "--spec", spec, "--family", "s3", "--u0", "1",
                "--v0", "0.5", "--steps", "10", "--step-size", "0.01"]) == 1
    err = capsys.readouterr().err
    assert "u = " in err and "Traceback" not in err


def test_gallery_rejects_bad_params(capsys):
    for name, param in (("generic_skew", "seed=nan"), ("generic_skew", "seed=1.5"),
                        ("right_helicoid", "c=nan"), ("right_helicoid", "c=inf")):
        assert run(["gallery", "--name", name, "--param", param]) == 1, param
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, param


@pytest.mark.parametrize("value", ["", "2", None, [1.0], {"c": 1.0}])
def test_gallery_spec_rejects_non_numeric_params(tmp_path, capsys, value):
    spec = write_spec(tmp_path, {"type": "gallery", "name": "right_helicoid",
                                 "params": {"c": value}})
    assert run(["classify", "--spec", spec, "--grid", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: right_helicoid: parameter c") and "not a number" in err


def test_sigma_zero_between_validation_samples_is_rejected(tmp_path, capsys):
    # lambda = cot(sigma) is infinite at u = 2, a node of the frame grid
    # but not one of the points the invariant triple is validated at
    spec = write_spec(tmp_path, {
        "type": "invariants", "u": [0, 1, 2, 3, 4], "k": [1] * 5,
        "delta": [1] * 5, "sigma": [0.5, 0.5, 0.0, 0.5, 0.5],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["classify", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u = 2.0" in err and "Traceback" not in err


def test_sigma_zero_at_a_validation_sample_is_rejected(tmp_path, capsys):
    # lambda = cot(sigma) is infinite at u = 0, the first validation sample
    spec = write_spec(tmp_path, {
        "type": "invariants", "u": [0, 1, 2, 3, 4], "k": [1] * 5,
        "delta": [1] * 5, "sigma": [0.0, 0.5, 0.5, 0.5, 0.5],
    })
    assert run(["classify", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u = 0.0" in err and "Traceback" not in err


def test_gallery_emit_spec_rejects_bad_params(tmp_path, capsys):
    for name, param in (("generic_skew", "seed=nan"), ("right_helicoid", "c=inf")):
        out = tmp_path / f"{name}.json"
        assert run(["gallery", "--name", name, "--param", param, "--emit-spec",
                    "--out", str(out)]) == 1, param
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, param
        assert not out.exists(), param


# expression components that leave a jet function's domain or overflow
JET_DOMAIN_SPECS = {
    "sqrt": {"type": "expression", "cx": "0", "cy": "0", "cz": "u",
             "dx": "cos(u)", "dy": "sin(u)", "dz": "sqrt(u-3)", "domain": [0.0, 6.0]},
    "overflow": {"type": "expression", "cx": "0", "cy": "0", "cz": "u",
                 "dx": "cos(u)", "dy": "sin(u)", "dz": "exp(1000*u)",
                 "domain": [0.0, 6.0]},
}
VERB_ARGS = {
    "classify": ["--grid", "33"],
    "invariants": ["--grid", "17"],
    "fit": ["--family", "s3"],
    "trace": ["--family", "s3", "--u0", "1", "--v0", "0.5", "--steps", "10"],
}


@pytest.mark.parametrize("standardize", [False, True], ids=["standard", "standardize"])
@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
@pytest.mark.parametrize("kind", sorted(JET_DOMAIN_SPECS))
def test_jet_domain_errors_exit_one(tmp_path, capsys, kind, verb, standardize):
    spec = write_spec(tmp_path, JET_DOMAIN_SPECS[kind])
    argv = [verb, "--spec", spec, *VERB_ARGS[verb]]
    if standardize:
        argv.append("--standardize")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u = " in err and "Traceback" not in err


# numeric arguments that leave nothing to compute, or nothing finite -----------


@pytest.mark.parametrize("argv,named", [
    (["classify", "--grid", "-1"], "got -1"),
    (["invariants", "--grid", "-3"], "got -3"),
    (["fit", "--family", "lc1", "--n-min", "3", "--n-max", "-3"], "[3, -3]"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "inf"], "v0 = inf"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "nan"], "v0 = nan"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "0.5", "--step-size", "nan"],
     "step size = nan"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "0.5", "--step-size=-inf"],
     "step size = -inf"),
    # one past each size bound
    (["classify", "--grid", "100001"], "at most 100000 points, got 100001"),
    (["invariants", "--grid", "100001"], "at most 100000 points, got 100001"),
    (["fit", "--family", "lc1", "--n-min", "0", "--n-max", "64"], "more than 64 integers"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "0.5", "--steps", "1000001"],
     "got 1000001"),
    (["trace", "--family", "s1", "--u0", "1", "--v0", "0.5", "--steps=-5"], "got -5"),
], ids=["classify_grid", "invariants_grid", "fit_n_range", "trace_v0_inf",
        "trace_v0_nan", "trace_h_nan", "trace_h_inf", "classify_grid_cap",
        "invariants_grid_cap", "fit_n_range_cap", "trace_steps_cap", "trace_steps_negative"])
def test_empty_or_non_finite_arguments_exit_one(tmp_path, capsys, argv, named):
    spec = write_spec(tmp_path, {"type": "gallery", "name": "hyperboloid_edlinger"})
    tracemalloc.start()
    try:
        assert run([argv[0], "--spec", spec, *argv[1:]]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rejected before any grid is allocated: 100 001 floats alone take 800 kB
    assert peak < 2**19
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert named in captured.err and captured.out == ""


def test_deeply_nested_expression_exits_one(tmp_path, capsys):
    nested = "(" * 200 + "u" + ")" * 200
    spec = write_spec(tmp_path, {"type": "expression", "cx": "0", "cy": "0", "cz": nested,
                                 "dx": "cos(u)", "dy": "sin(u)", "dz": "0",
                                 "domain": [0.0, 6.0]})
    assert run(["classify", "--spec", spec, "--grid", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: syntax error at position 64") and "Traceback" not in err



def test_delta_zero_at_a_traced_point_exits_one(tmp_path, capsys):
    # delta = (u - a)^2 touches 0 at u = a between two of the construction
    # gate's samples without changing sign; a trace started there must stop
    # with the library's error
    a = 1.0 + math.pi / 32.0
    spec = write_spec(tmp_path, {
        "type": "expression", "cx": "0", "cy": "0", "cz": "(u-(1+pi/32))^3/3",
        "dx": "cos(u)", "dy": "sin(u)", "dz": "0", "domain": [0.0, 2.0 * math.pi]})
    assert run(["trace", "--spec", spec, "--family", "s1", "--u0", repr(a),
                "--v0", "0.5", "--steps", "3"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: parameter of distribution vanishes at u = {a!r}\n"


# delta = (u - a)^2 touches 0 at u = a, between two of the construction
# gate's 33 samples, without changing sign
TOUCH_AT = 1.0 + math.pi / 32.0
TOUCH_SPEC = {"type": "expression", "cx": "0", "cy": "0", "cz": "(u-(1+pi/32))^3/3",
              "dx": "cos(u)", "dy": "sin(u)", "dz": "0", "domain": [0.0, 2.0 * math.pi]}


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["invariants", "--grid", "5"],
    ["fit", "--family", "s1"],
    ["trace", "--family", "s3", "--u0", "0.5", "--v0", "0.5", "--steps", "3"],
], ids=["classify", "invariants", "fit", "trace"])
def test_delta_touching_zero_between_gate_samples_exits_one(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, TOUCH_SPEC)
    assert run([argv[0], "--spec", spec, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter of distribution vanishes at u = {TOUCH_AT!r}\n"


def test_cli_loads_no_scipy(tmp_path):
    import os
    import subprocess
    import sys

    import ruledgeo

    spec = write_spec(tmp_path, {"type": "invariants", "u": [0.0, 1.0, 2.0, 3.0, 4.0],
                                 "k": [1.0] * 5, "delta": [1.0, 1.2, 1.1, 0.9, 1.0],
                                 "sigma": [0.5] * 5})
    script = (
        "import sys\n"
        "import ruledgeo, ruledgeo.cli\n"
        "from ruledgeo.surface import InvariantTriple, surface_from_invariants\n"
        "inv = InvariantTriple.from_samples([0, 1, 2, 3], [1] * 4, [1] * 4, [0.5] * 4)\n"
        "surface_from_invariants(inv)\n"
        "assert ruledgeo.cli.run(['invariants', '--spec', sys.argv[1], '--grid', '5',\n"
        "                         '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(ruledgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, spec, str(tmp_path / "inv.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("domain", [[0.0, 1e-300], [0.0, 1e300]], ids=["tiny", "huge"])
def test_extreme_domain_under_standardize_exits_one(tmp_path, capsys, domain):
    spec = write_spec(tmp_path, {"type": "expression", "cx": "0", "cy": "0", "cz": "u",
                                 "dx": "cos(u)", "dy": "sin(u)", "dz": "0",
                                 "domain": domain})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["classify", "--spec", spec, "--standardize"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: arclength table segment of length ")
    assert "fifth power" in err and "RuntimeWarning" not in err and "Traceback" not in err
