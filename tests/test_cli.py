import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_out_of_memory_exits_with_a_message(capsys, corners_file, monkeypatch):
    # stands in for a CSV too large to polish; nothing large is allocated
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr("powertsp.solvers.two_opt", no_memory)
    code, out, err = run_cli(capsys, "tour", "--points", corners_file, "--weight", "euclidean",
                             "--alpha", "1", "--a", "1", "--two-opt")
    assert code == 1
    assert out == ""
    assert "out of memory" in err
    assert "Traceback" not in err


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


def run_cli_process(*argv, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter, so an uncaught exception shows up as a
    traceback on stderr rather than as a test error."""
    src = os.path.dirname(os.path.dirname(powertsp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "powertsp.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--alpha", "nan"], "alpha must be finite"),
    (["bounds", "--alpha", "1", "--eps2", "inf"], "eps2 must be finite"),
    (["beta", "--alpha", "inf"], "alpha and a_max must be positive and finite"),
    (["beta", "--curve", "--alpha-step", "0"], "--alpha-step must be positive"),
    (["beta", "--curve", "--alpha-step", "-0.25"], "--alpha-step must be positive"),
    (["beta", "--curve", "--alpha-min", "2", "--alpha-max", "1"], "exceeds --alpha-max"),
    (["beta", "--alpha", "1", "--refine-tol", "0"], "refine_tol must be positive"),
    (["bounds", "--alpha", "200", "--a", "5"], "did not reach tol=1e-09"),
    (["bounds", "--alpha", "2", "--c2", "1e300"], "numbers out of range"),
    (["bounds", "--alpha", "1", "--a", "30"], "cannot converge at A=30.0, delta=1.0"),
    (["bounds", "--alpha", "1", "--a", "1e200"], "cannot converge at A=1e+200, delta=1.0"),
    # a curve that fails part-way prints no CSV header either
    (["beta", "--curve", "--eps1", "-1"], "need 0 < eps1 <= eps2"),
    (["beta", "--curve", "--alpha-min", "0"], "alpha and a_max must be positive and finite"),
    (["beta", "--curve", "--a-max", "-1"], "alpha and a_max must be positive and finite"),
    (["verify", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["verify", "--max-n", "40"], "max_n must be <= 16, the largest instance any property draws, got 40"),
    # 18 points: sqrt(18) / 1e-10 cells per side, whose labels would wrap in int64
    (["tour", "--points", os.path.join(os.path.dirname(__file__), "golden", "cli_points.csv"),
      "--a", "1e-10"], "a=1e-10 is too small for n=18"),
])
def test_bad_numbers_fail_at_the_boundary(argv, message):
    proc = run_cli_process(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_a_closed_stdout_exits_quietly():
    # the pipe's reader is gone before the tour is written, as when
    # `| head -c 10` has read its bytes and exited
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli_process("tour", "--points", os.path.join(os.path.dirname(__file__),
                                                                "golden", "cli_points.csv"),
                               "--two-opt", stdout=write)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 3


def test_bounds_prints_c2_where_the_moment_series_is_long():
    # 1 - p_dense is about 5e-9 at A = 5: its moment comes from Lindelöf's
    # expansion, checked against mpmath (tests/golden/c2_constants.csv)
    proc = run_cli_process("bounds", "--alpha", "0.25", "--a", "5")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["c2_const"] == pytest.approx(9.635724691223446, rel=1e-13)


# edge values and ordinary ones, as well as arbitrary floats
any_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, 0.25, 1.0, 5.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def number_flags(**values):
    # --flag=value, so argparse reads "-1e-05" as a value and not as a flag
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None)
@given(alpha=any_float, eps1=any_float, eps2=any_float, c1=any_float, c2=any_float,
       a=any_float, tol=any_float)
def test_bounds_numbers_never_escape(alpha, eps1, eps2, c1, c2, a, tol):
    argv = ["bounds", *number_flags(alpha=alpha, eps1=eps1, eps2=eps2, c1=c1, c2=c2,
                                    a=a, tol=tol)]
    assert quiet_main(argv) in (0, 1)


# the grid size and the curve's point count are kept small: they set how much
# work is asked for, not whether the numbers are valid
@settings(max_examples=40, deadline=None)
@given(alpha=any_float, eps1=any_float, eps2=any_float, a_max=any_float,
       grid_points=st.integers(-2, 6), refine_tol=any_float,
       curve=st.booleans(), alpha_min=any_float, alpha_max=any_float, alpha_step=any_float)
def test_beta_numbers_never_escape(alpha, eps1, eps2, a_max, grid_points, refine_tol,
                                   curve, alpha_min, alpha_max, alpha_step):
    argv = ["beta", *number_flags(eps1=eps1, eps2=eps2, a_max=a_max, grid_points=grid_points,
                                  refine_tol=refine_tol)]
    if curve:
        assume(not (alpha_step and (alpha_max - alpha_min) / alpha_step > 3))
        argv += ["--curve", *number_flags(alpha_min=alpha_min, alpha_max=alpha_max,
                                          alpha_step=alpha_step)]
    else:
        argv += number_flags(alpha=alpha)
    assert quiet_main(argv) in (0, 1)


def test_tour_rejects_non_finite_a(corners_file):
    proc = run_cli_process("tour", "--points", corners_file, "--a", "nan")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "a must be positive and finite, got nan" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("n", [19, 1])
def test_solve_rejects_a_point_count_beyond_the_exact_cap(tmp_path, n):
    # the exact solver's own check names the cap; the CLI keeps no copy of it
    path = tmp_path / "points.csv"
    path.write_text("".join(f"{0.05 * i - 0.45},{0.0}\n" for i in range(n)))
    proc = run_cli_process("solve", "--points", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"exact solver handles 2 <= n <= 18, got {n}" in proc.stderr
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


@pytest.mark.parametrize("flags, patch", [(["--seed", "-1"], {}), ([], {"seed": -1})])
def test_negative_seed_fails_at_the_boundary(tmp_path, flags, patch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, **patch)))
    proc = run_cli_process("simulate", "scaling", "--config", str(cfg_path), *flags)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "seed must be a non-negative integer, got -1" in proc.stderr
    assert proc.stdout == ""


def test_config_must_be_an_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([SMALL_CONFIG]))
    proc = run_cli_process("simulate", "scaling", "--config", str(cfg_path), "--seed", "3")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "config must be an object" in proc.stderr
