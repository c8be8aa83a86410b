"""Golden-bytes fixtures: the JSON and CSV report of one small config per
experiment kind, and the stdout of ``beta --curve``, frozen so that any
refactor of the experiment pipeline, the report codec or the bracket
formulas has to reproduce them byte for byte.

When a change is meant to move these numbers, regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from powertsp.cli import main
from powertsp.experiments import (
    RUNNERS,
    ExperimentConfig,
    read_report,
    report_to_csv,
    report_to_json,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
KINDS = ("scaling", "sandwich", "variance", "convergence", "uniform_ratio")
BETA_CURVES = {
    "beta_curve_eps1_1_eps2_1.csv": ["--eps1", "1", "--eps2", "1"],
    "beta_curve_eps1_0.5_eps2_1.5.csv": ["--eps1", "0.5", "--eps2", "1.5"],
}
BETA_GRID = ["--grid-points", "128"]


def _golden(name: str) -> str:
    return os.path.join(GOLDEN, name)


def _report(kind: str):
    with open(_golden(f"{kind}.config.json")) as fh:
        return RUNNERS[kind](ExperimentConfig.from_dict(json.load(fh)))


def _beta_curve(flags: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["beta", "--curve", *flags, *BETA_GRID]) == 0
    return out.getvalue()


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


@pytest.mark.parametrize("name", sorted(BETA_CURVES))
def test_beta_curve_matches_golden(name):
    assert _beta_curve(BETA_CURVES[name]) == _read(name)


def regenerate() -> None:
    for kind in KINDS:
        report = _report(kind)
        for ext, payload in (("json", report_to_json(report)), ("csv", report_to_csv(report))):
            with open(_golden(f"{kind}.{ext}"), "w", newline="") as fh:
                fh.write(payload)
    for name, flags in BETA_CURVES.items():
        with open(_golden(name), "w", newline="") as fh:
            fh.write(_beta_curve(flags))


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
