"""The names the benchmark harness imports from the package or patches by
attribute name: renaming or removing one breaks ``bench/`` without failing
any other test."""

import ast
import importlib
import inspect
from pathlib import Path

from powertsp import experiments
from powertsp.experiments import (
    RUNNERS,
    ExperimentConfig,
    run_sandwich,
    run_scaling,
    thread_count,
    write_report,
)


def test_benchmark_import_surface():
    assert thread_count() == 1
    assert inspect.ismethod(ExperimentConfig.from_dict)
    assert callable(ExperimentConfig.validate)
    assert callable(run_scaling) and callable(run_sandwich) and callable(write_report)
    assert set(RUNNERS) == {"scaling", "sandwich", "variance", "convergence", "uniform_ratio"}
    # bench/spans.py finds these by attribute name and dict value
    for name in ("run_scaling", "run_sandwich", "write_report", "sample_binomial",
                 "build_tiling", "grid_tour", "two_opt", "tsp_exact"):
        assert callable(getattr(experiments, name))
    assert RUNNERS["scaling"] is run_scaling and RUNNERS["sandwich"] is run_sandwich


def _traced_names():
    """``TRACED`` of bench/spans.py, read from its source without importing
    or running it."""
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED tuple")


def test_traced_names_resolve():
    # bench/spans.py wraps each TRACED "module.function" by attribute name,
    # and bench/worker.py imports the last two
    names = _traced_names() + ("geometry.build_tiling", "cli.build_parser")
    assert len(names) == 20
    for name in names:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"powertsp.{module}"), func, None)), name
