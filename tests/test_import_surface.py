"""The names the benchmark harness imports from the package or patches by
attribute name: renaming or removing one breaks ``bench/`` without failing
any other test."""

import inspect

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
