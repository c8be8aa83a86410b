import json
import math
import os
import subprocess
import sys

import pytest

import powertsp
from powertsp.cli import main

CORNERS_CSV = """# unit square corners, perimeter order
-0.5,-0.5
0.5,-0.5
0.5,0.5
-0.5,0.5
"""


@pytest.fixture
def corners_file(tmp_path):
    path = tmp_path / "corners.csv"
    path.write_text(CORNERS_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_corners(capsys, corners_file):
    code, out, err = run_cli(capsys, "solve", "--points", corners_file,
                             "--weight", "euclidean", "--alpha", "1")
    assert code == 0
    assert err.startswith("config:")  # resolved config echoed before execution
    payload = json.loads(out)
    assert payload["weight"] == pytest.approx(4.0, abs=1e-12)
    assert payload["order"] == [0, 1, 2, 3]
    assert payload["solver"] == "exact"


def test_tour_corners(capsys, corners_file):
    code, out, _ = run_cli(capsys, "tour", "--points", corners_file,
                           "--alpha", "1", "--a", "1", "--two-opt")
    assert code == 0
    payload = json.loads(out)
    assert payload["solver"] == "grid_tour+two_opt"
    assert payload["weight"] == pytest.approx(4.0, abs=1e-9)


def test_bounds_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--alpha", "1", "--eps1", "1",
                           "--eps2", "1", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["c1_const"] == pytest.approx(2.1206e-4, rel=1e-3)
    assert payload["c2_const"] == pytest.approx(29.08, abs=0.01)


def test_beta_values(capsys):
    code, out, _ = run_cli(capsys, "beta", "--alpha", "1", "--eps1", "1",
                           "--eps2", "1", "--grid-points", "128")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_low"] == pytest.approx(0.147, abs=0.002)
    assert payload["beta_up"] == pytest.approx(8.15, abs=0.05)


def test_beta_curve_csv(capsys):
    code, out, _ = run_cli(capsys, "beta", "--curve", "--alpha-min", "0.5",
                           "--alpha-max", "1.0", "--alpha-step", "0.5",
                           "--grid-points", "64")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,beta_low,beta_up,argA_low,argA_up"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.5
    assert float(row[2]) > float(row[1])


def test_simulate_roundtrip(capsys, tmp_path):
    cfg = {
        "weight": {"kind": "euclidean"},
        "alpha": 1.0,
        "density": {"kind": "uniform", "eps1": 1.0, "eps2": 1.0},
        "n_list": [16, 32],
        "trials": 4,
        "seed": 5,
        "a": 1.0,
        "policy": {"exact_below": 0, "heuristic": "grid_tour"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "simulate", "scaling", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "scaling"
    assert payload["config"]["seed"] == 5
    # seed override changes the report
    code, _, _ = run_cli(capsys, "simulate", "scaling", "--config", str(cfg_path),
                         "--seed", "6", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["config"]["seed"] == 6


def test_simulate_stdout_json(capsys, tmp_path):
    cfg = {
        "weight": {"kind": "euclidean"},
        "alpha": 0.5,
        "density": {"kind": "uniform", "eps1": 1.0, "eps2": 1.0},
        "n_list": [12, 24],
        "trials": 3,
        "seed": 1,
        "a": 1.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "convergence", "--config", str(cfg_path))
    assert code == 0
    assert json.loads(out)["kind"] == "convergence"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--instances", "4", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_verify_output_unchanged(capsys):
    # stdout of the exact-solver-heavy invariant run, recorded before the
    # subset DP was layered; the solvers' orders and weights must not move
    code, out, _ = run_cli(capsys, "verify", "--max-n", "16", "--instances", "24", "--seed", "1")
    assert code == 0
    assert out == "".join(
        f"PASS {name} (cases=24)\n"
        for name in ("oracle_equivalence", "dominance", "subadditivity",
                     "metric_monotonicity", "one_node_removal", "scaling",
                     "translation", "euclidean_sandwich")
    )


def test_verify_failure_exit_code(capsys, monkeypatch):
    from powertsp.invariants import PropertyResult

    monkeypatch.setattr(
        "powertsp.cli.run_invariant_suite",
        lambda **kw: [PropertyResult("oracle_equivalence", False, 3, "forced")],
    )
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--instances", "1")
    assert code == 2
    assert out.startswith("FAIL")


def test_exit_code_validation_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--points", str(tmp_path / "missing.csv"))
    assert code == 3  # I/O failure reading points
    bad = tmp_path / "bad.csv"
    bad.write_text("0.9,0.0\n")
    code, _, err = run_cli(capsys, "solve", "--points", str(bad))
    assert code == 1
    assert "outside the unit square" in err
    code, _, _ = run_cli(capsys, "solve", "--bogus-flag")
    assert code == 1
    code, _, _ = run_cli(capsys, "bounds", "--alpha", "-2")
    assert code == 1


def test_exit_code_io_error(capsys, tmp_path):
    cfg = {
        "weight": {"kind": "euclidean"},
        "alpha": 1.0,
        "density": {"kind": "uniform", "eps1": 1.0, "eps2": 1.0},
        "n_list": [8, 12],
        "trials": 2,
        "seed": 1,
        "a": 1.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "simulate", "scaling", "--config", str(cfg_path),
                           "--out", "/nonexistent-dir/report.json")
    assert code == 3
    assert "report" in err


def test_csv_comments_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# three points\n\n0.0,0.0\n0.3,0.4\n-0.2,0.1\n")
    code, out, _ = run_cli(capsys, "solve", "--points", str(path))
    assert code == 0
    assert json.loads(out)["n"] == 3


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows up as a
    traceback on stderr rather than as a test error."""
    src = os.path.dirname(os.path.dirname(powertsp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "powertsp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--alpha", "nan"], "alpha must be finite"),
    (["bounds", "--alpha", "1", "--eps2", "inf"], "eps2 must be finite"),
    (["beta", "--alpha", "inf"], "alpha and a_max must be positive and finite"),
    (["beta", "--curve", "--alpha-step", "0"], "--alpha-step must be positive"),
    (["beta", "--curve", "--alpha-step", "-0.25"], "--alpha-step must be positive"),
    (["beta", "--curve", "--alpha-min", "2", "--alpha-max", "1"], "exceeds --alpha-max"),
])
def test_bad_numbers_fail_at_the_boundary(argv, message):
    proc = run_cli_process(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_tour_rejects_non_finite_a(corners_file):
    proc = run_cli_process("tour", "--points", corners_file, "--a", "nan")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "a must be positive and finite, got nan" in proc.stderr
    assert proc.stdout == ""


SMALL_CONFIG = {
    "weight": {"kind": "euclidean"},
    "alpha": 1.0,
    "density": {"kind": "uniform", "eps1": 1.0, "eps2": 1.0},
    "n_list": [8, 12],
    "trials": 2,
    "seed": 1,
    "a": 1.0,
}


def simulate_with(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli_process("simulate", "scaling", "--config", str(cfg_path))


@pytest.mark.parametrize("drop, patch, message", [
    ("density", {}, "missing key(s) density"),
    ("n_list", {}, "missing key(s) n_list"),
    (None, {"density": {"eps1": 1.0}}, "missing key 'kind'"),
    (None, {"alpha": math.nan}, "alpha must be positive and finite"),
    (None, {"density": {"kind": "uniform", "eps2": math.inf}}, "eps2 must be finite"),
])
def test_bad_config_fails_at_the_boundary(tmp_path, drop, patch, message):
    cfg = dict(SMALL_CONFIG)
    cfg.pop(drop, None)
    cfg.update(patch)
    proc = simulate_with(tmp_path, cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("patch, message", [
    ({"trials": None}, "trials must be an integer, got None"),
    ({"n_list": 5}, "n_list must be a list, got 5"),
    ({"n_list": [8, "12"]}, "n_list[1] must be an integer, got '12'"),
    ({"policy": None}, "policy must be an object, got None"),
    ({"policy": {"exact_below": "3"}}, "policy.exact_below must be an integer, got '3'"),
    ({"a": math.nan}, "tiling parameter a must be positive and finite, got nan"),
    ({"slack": math.nan}, "slack must be non-negative and finite, got nan"),
    ({"density": {"kind": "uniform", "eps1": None}}, "density eps1 must be a number, got None"),
    ({"density": {"kind": "checkerboard", "k": [2]}}, "density k must be an integer, got [2]"),
])
def test_wrongly_typed_config_fails_at_the_boundary(tmp_path, patch, message):
    proc = simulate_with(tmp_path, dict(SMALL_CONFIG, **patch))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_config_must_be_an_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([SMALL_CONFIG]))
    proc = run_cli_process("simulate", "scaling", "--config", str(cfg_path), "--seed", "3")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "config must be an object" in proc.stderr
