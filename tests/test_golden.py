"""Golden-bytes fixtures: the JSON and CSV report of one small config per
experiment kind, the stdout of ``beta --curve`` and of ``solve``, ``tour``
and ``tour --two-opt`` on 18 points, the ``verify`` lines of
an invariant suite run against a sabotaged exact solver, and the order hash
and weight of ``two_opt`` from ``grid_tour`` starts on uniform points and
from shuffled starts on a lattice, frozen so that
any refactor of the experiment pipeline, the report codec, the bracket
formulas, the invariant suite or the local search has to reproduce them
byte for byte.

When a change is meant to move these numbers, regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
The default 512-point ``beta --curve --eps1 1 --eps2 1`` is also checked
against the benchmark's ``bench/beta_reference.csv``, which regeneration
does not write.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

import numpy as np
import pytest

from powertsp import invariants
from powertsp.cli import main
from powertsp.experiments import (
    RUNNERS,
    ExperimentConfig,
    read_report,
    report_to_csv,
    report_to_json,
)
from powertsp.geometry import build_tiling
from powertsp.sampling import build_density, sample_binomial
from powertsp.solvers import Tour, grid_tour, two_opt
from powertsp.weights import BUILTIN_KINDS, make_weight_function

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
KINDS = ("scaling", "sandwich", "variance", "convergence", "uniform_ratio")
BETA_GRID = ["--grid-points", "128"]
BETA_CURVES = {
    "beta_curve_eps1_1_eps2_1.csv": ["--eps1", "1", "--eps2", "1", *BETA_GRID],
    "beta_curve_eps1_0.5_eps2_1.5.csv": ["--eps1", "0.5", "--eps2", "1.5", *BETA_GRID],
    # A up to 10: C2's dense-cell probability rounds to 1 on the top 43 of
    # the 128 grid points, so the scan passes over points it cannot evaluate
    "beta_curve_a_max_10.csv": ["--eps1", "1", "--eps2", "1", "--a-max", "10", *BETA_GRID,
                                "--alpha-max", "3"],
    # alpha past 8: C2 spans many orders of magnitude over the grid, and its
    # moments are computed at exponents no default curve reaches
    "beta_curve_alpha_past_8.csv": ["--eps1", "1", "--eps2", "1", *BETA_GRID, "--alpha-min", "8.5",
                                    "--alpha-max", "12", "--alpha-step", "1.75"],
    # C1's edge cases: at alpha = 0.05 its argmax (0.025) lies below the
    # first grid point 5/128, so the refinement brackets (grid[0] / 2, grid[1])
    "beta_curve_eps1_0.2_eps2_5.csv": ["--eps1", "0.2", "--eps2", "5", *BETA_GRID,
                                       "--alpha-min", "0.05", "--alpha-max", "4",
                                       "--alpha-step", "0.05"],
}
# the benchmark's reference curve: the default 512-point grid, read only
BETA_REFERENCE = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "bench", "beta_reference.csv")
SABOTAGED = "verify_sabotaged.txt"
CLI_POINTS = "cli_points.csv"
# the stdout of each solver command on the points of CLI_POINTS
CLI_RUNS = {
    "cli_solve.json": ["solve"],
    "cli_tour.json": ["tour"],
    "cli_tour_two_opt.json": ["tour", "--two-opt"],
}
POLISHED = "two_opt.csv"


def _golden(name: str) -> str:
    return os.path.join(GOLDEN, name)


def _report(kind: str):
    with open(_golden(f"{kind}.config.json")) as fh:
        return RUNNERS[kind](ExperimentConfig.from_dict(json.load(fh)))


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _beta_curve(flags: list[str]) -> str:
    return _stdout(["beta", "--curve", *flags])


def _cli_run(name: str) -> str:
    return _stdout([*CLI_RUNS[name], "--points", _golden(CLI_POINTS)])


def _sabotaged_verify() -> str:
    """``verify`` lines of a suite whose exact solver, on about 40% of its
    calls, returns a reversed tour with a skewed weight, so that every
    property fails at some case."""
    real_tsp_exact = invariants.tsp_exact

    def skewed(pts, wf, alpha):
        t = real_tsp_exact(pts, wf, alpha)
        f = (1e4 * float(abs(pts).sum())) % 1.0
        if f < 0.6:
            return t
        scale = 0.5 if wf.kind == "coordinate_metric" else 0.2 + 3.0 * f
        return Tour(order=(0,) + t.order[:0:-1], weight=t.weight * scale)

    with mock.patch.object(invariants, "tsp_exact", skewed):
        results = invariants.run_invariant_suite(9, 12, 3)
    return "".join(r.line() + "\n" for r in results)


def _polished_tours() -> str:
    """One CSV row per (kind, alpha, n, start): the sha256 of the polished
    order, written as comma-separated node indices, and the repr of its
    weight.  The starts are ``grid_tour`` at A = 1 and A = 3 on uniform
    points, and three shuffled orders of a 12 x 12 lattice whose dyadic
    coordinates make many h values tie exactly."""
    uniform = build_density("uniform", 1.0, 1.0)
    side = (np.arange(12) - 5.5) / 16
    lattice = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    rows = ["kind,alpha,n,start,order_sha256,weight\n"]

    def row(kind, wf, alpha, pts, start, label):
        tour = two_opt(pts, start, wf, alpha)
        digest = hashlib.sha256(",".join(map(str, tour.order)).encode()).hexdigest()
        rows.append(f"{kind},{alpha!r},{len(pts)},{label},{digest},{tour.weight!r}\n")

    for kind in BUILTIN_KINDS:
        wf = make_weight_function(kind)
        for a in (1, 3):
            for alpha in (0.5, 1.0, 1.5, 2.0):
                for n in (100, 1000):
                    pts = sample_binomial(uniform, n, 19, stream=(n,)).points
                    row(kind, wf, alpha, pts, grid_tour(pts, wf, alpha, build_tiling(n, a)),
                        f"grid_a{a}")
        for s in range(3):
            order = np.random.default_rng(s).permutation(len(lattice))
            row(kind, wf, 1.0, lattice, Tour(tuple(order.tolist()), 0.0), f"lattice_{s}")
    return "".join(rows)


def _read(name: str) -> str:
    with open(_golden(name), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("kind", KINDS)
def test_report_bytes_match_golden(kind):
    report = _report(kind)
    assert report_to_json(report) == _read(f"{kind}.json")
    assert report_to_csv(report) == _read(f"{kind}.csv")


@pytest.mark.parametrize("kind", KINDS)
def test_golden_json_decodes_back_to_the_same_bytes(kind):
    report = read_report(_golden(f"{kind}.json"))
    assert report.kind == kind
    assert report_to_json(report) == _read(f"{kind}.json")
    assert report_to_csv(report) == _read(f"{kind}.csv")


@pytest.mark.parametrize("format", ["json", "csv"])
def test_simulate_stdout_matches_golden(format):
    argv = ["simulate", "sandwich", "--config", _golden("sandwich.config.json"), "--format", format]
    assert _stdout(argv) == _read(f"sandwich.{format}")


@pytest.mark.parametrize("name", sorted(BETA_CURVES))
def test_beta_curve_matches_golden(name):
    assert _beta_curve(BETA_CURVES[name]) == _read(name)


def test_default_beta_curve_matches_benchmark_reference():
    with open(BETA_REFERENCE, newline="") as fh:
        assert _beta_curve(["--eps1", "1", "--eps2", "1"]) == fh.read()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_solver_output_matches_golden(name):
    assert _cli_run(name) == _read(name)


def test_sabotaged_verify_matches_golden():
    assert _sabotaged_verify() == _read(SABOTAGED)


def test_polished_tours_match_golden():
    assert _polished_tours() == _read(POLISHED)


def regenerate() -> None:
    for kind in KINDS:
        report = _report(kind)
        for ext, payload in (("json", report_to_json(report)), ("csv", report_to_csv(report))):
            with open(_golden(f"{kind}.{ext}"), "w", newline="") as fh:
                fh.write(payload)
    for name, flags in BETA_CURVES.items():
        with open(_golden(name), "w", newline="") as fh:
            fh.write(_beta_curve(flags))
    for name in CLI_RUNS:
        with open(_golden(name), "w", newline="") as fh:
            fh.write(_cli_run(name))
    with open(_golden(SABOTAGED), "w", newline="") as fh:
        fh.write(_sabotaged_verify())
    with open(_golden(POLISHED), "w", newline="") as fh:
        fh.write(_polished_tours())


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
