"""The names the benchmark harness imports from the package or patches by
attribute name: renaming or removing one breaks ``bench/`` without failing
any other test."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

from powertsp import experiments, solvers
from powertsp.cli import main
from powertsp.experiments import (
    RUNNERS,
    ExperimentConfig,
    SolverPolicy,
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
                 "build_tiling"):
        assert callable(getattr(experiments, name))
    assert RUNNERS["scaling"] is run_scaling and RUNNERS["sandwich"] is run_sandwich


def test_solver_calls_reach_the_traced_names(monkeypatch, capsys, tmp_path):
    # bench/spans.py counts the solver calls by swapping wrappers into
    # powertsp.solvers: every run and command must look its solvers up there
    calls = Counter()
    for name in ("grid_tour", "two_opt", "tsp_exact"):
        def counted(*args, _real=getattr(solvers, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(solvers, name, counted)
    run_scaling(ExperimentConfig(
        weight={"kind": "euclidean"}, alpha=1.0, density={"kind": "uniform"},
        n_list=(6, 12), trials=2, seed=1, a=1.0,
        policy=SolverPolicy(exact_below=8, heuristic="grid_tour+two_opt")))
    assert calls == {"tsp_exact": 2, "grid_tour": 2, "two_opt": 2}
    points = tmp_path / "points.csv"
    points.write_text("-0.3,-0.2\n0.1,0.4\n0.35,-0.1\n-0.25,0.3\n0.0,0.0\n")
    calls.clear()
    assert main(["solve", "--points", str(points)]) == 0
    assert calls == {"tsp_exact": 1}
    calls.clear()
    assert main(["tour", "--points", str(points), "--two-opt"]) == 0
    assert calls == {"grid_tour": 1, "two_opt": 1}
    capsys.readouterr()


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
