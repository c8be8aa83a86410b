import json

import pytest

from powertsp.experiments import (
    ExperimentConfig,
    ReportIOError,
    SolverPolicy,
    read_report,
    report_from_dict,
    report_to_csv,
    report_to_json,
    run_convergence,
    run_sandwich,
    run_scaling,
    run_uniform_ratio,
    run_variance,
    write_report,
)

UNIFORM = {"kind": "uniform", "eps1": 1.0, "eps2": 1.0}


def make_cfg(**over):
    base = dict(
        weight={"kind": "euclidean"},
        alpha=1.0,
        density=UNIFORM,
        n_list=(16, 32, 64),
        trials=8,
        seed=13,
        a=1.0,
        policy=SolverPolicy(exact_below=0, heuristic="grid_tour"),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    make_cfg().validate()
    with pytest.raises(ValueError):
        make_cfg(trials=0).validate()
    with pytest.raises(ValueError):
        make_cfg(n_list=()).validate()
    with pytest.raises(ValueError):
        make_cfg(n_list=(1, 8)).validate()
    with pytest.raises(ValueError):
        make_cfg(n_list=(16, 16)).validate()
    with pytest.raises(ValueError):
        make_cfg(n_list=(32, 16)).validate()
    with pytest.raises(ValueError):
        make_cfg(weight={"kind": "custom"}).validate()
    with pytest.raises(ValueError):
        make_cfg(policy=SolverPolicy(heuristic="lkh")).validate()
    with pytest.raises(ValueError):
        make_cfg(policy=SolverPolicy(exact_below=25)).validate()
    with pytest.raises(ValueError):
        make_cfg(alpha=-1.0).validate()


def test_config_dict_roundtrip():
    cfg = make_cfg()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_run_scaling_structure():
    report = run_scaling(make_cfg())
    assert report.kind == "scaling"
    assert [p.n for p in report.per_n] == [16, 32, 64]
    assert len(report.rows) == 3 * 8
    for p in report.per_n:
        assert p.mean > 0
        assert p.normalized_mean == pytest.approx(p.mean / p.n**0.5, rel=1e-12)
        assert p.solver == "grid_tour"
    assert 0.0 < report.bracket_lower < report.bracket_upper
    assert report.slope_half_width is not None
    # normalization identity: normalized mean recovers the raw mean exactly
    for p in report.per_n:
        assert p.normalized_mean * p.n ** (1.0 - 1.0 / 2.0) == pytest.approx(p.mean, rel=1e-12)


def test_run_scaling_rejects_single_n():
    with pytest.raises(ValueError):
        run_scaling(make_cfg(n_list=(64,)))


def test_run_scaling_exact_policy_labels():
    cfg = make_cfg(n_list=(5, 8), trials=3, policy=SolverPolicy(exact_below=9, heuristic="grid_tour"))
    report = run_scaling(cfg)
    assert all(r.solver == "exact" for r in report.rows)


def test_run_sandwich_smoke_small_n():
    cfg = make_cfg(n_list=(4,), trials=5, policy=SolverPolicy(exact_below=10))
    report = run_sandwich(cfg)
    assert report.kind == "sandwich"
    assert report.n == 4
    assert 0.0 <= report.lower_frequency <= 1.0
    assert 0.0 <= report.upper_frequency <= 1.0
    assert report.c1_const < report.c2_const


def test_run_sandwich_requires_single_n():
    with pytest.raises(ValueError):
        run_sandwich(make_cfg(n_list=(16, 32)))


def test_run_variance_requires_trials():
    with pytest.raises(ValueError):
        run_variance(make_cfg(trials=50))


def test_run_variance_structure():
    report = run_variance(make_cfg(trials=120, n_list=(16, 32)))
    assert report.kind == "variance"
    assert report.informational  # fewer than 1000 trials
    assert report.predicted_exponent == 0.0 or report.predicted_exponent is None
    assert report.slope is not None
    for p in report.per_n:
        assert p.variance > 0 and p.jackknife_se > 0


def test_run_convergence_trace():
    report = run_convergence(make_cfg(trials=6))
    assert report.kind == "convergence"
    assert len(report.trace) == 18
    assert report.trend_decreasing in (True, False)
    assert report.hypothesis_small_alpha is False  # alpha = 1 > 2(sqrt2 - 1)
    single = run_convergence(make_cfg(n_list=(16,), trials=6))
    assert single.trend_decreasing is None
    small = run_convergence(make_cfg(alpha=0.5, trials=4))
    assert small.hypothesis_small_alpha is True
    # flag-only behavior outside the almost-sure hypothesis range
    big = run_convergence(make_cfg(alpha=1.9, trials=4))
    assert big.hypothesis_small_alpha is False
    assert len(big.trace) == 12


def test_run_uniform_ratio():
    report = run_uniform_ratio(make_cfg(trials=12, alpha=1.0))
    assert report.kind == "uniform_ratio"
    assert report.h0 == 1.0
    assert report.ratio >= 1.0
    report_rm = run_uniform_ratio(make_cfg(weight={"kind": "radial_metric"}, trials=6))
    assert report_rm.h0 == 1.5
    assert report_rm.bound == pytest.approx(1.5 * 1.1, rel=1e-12)


def test_run_uniform_ratio_validation():
    with pytest.raises(ValueError):
        run_uniform_ratio(make_cfg(weight={"kind": "coordinate_metric"}))
    cfg = make_cfg(density={"kind": "checkerboard", "eps1": 0.5, "eps2": 1.5, "k": 2})
    with pytest.raises(ValueError):
        run_uniform_ratio(cfg)


def test_report_json_roundtrip(tmp_path):
    report = run_scaling(make_cfg(trials=4))
    path = tmp_path / "report.json"
    write_report(report, str(path), format="json")
    again = read_report(str(path))
    assert again == report


def test_report_csv_rows(tmp_path):
    report = run_scaling(make_cfg(trials=4))
    path = tmp_path / "report.csv"
    write_report(report, str(path), format="csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,trial,weight,solver,seed_stream"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert first[0] == "16" and first[1] == "0"
    assert first[3] == "grid_tour"
    assert first[4] == "13:16:0"


def test_report_io_error():
    report = run_scaling(make_cfg(trials=2, n_list=(8, 16)))
    with pytest.raises(ReportIOError) as err:
        write_report(report, "/nonexistent-dir/report.json")
    assert "/nonexistent-dir/report.json" in str(err.value)
    with pytest.raises(ValueError):
        write_report(report, "/tmp/x.json", format="yaml")


def test_reports_byte_identical_across_thread_counts(tmp_path):
    # trials run serially; two runs of one config give the same bytes
    outputs = []
    for run in range(2):
        report = run_scaling(make_cfg(trials=6))
        for fmt in ("json", "csv"):
            path = tmp_path / f"run{run}.{fmt}"
            write_report(report, str(path), format=fmt)
            outputs.append(path.read_bytes())
    assert outputs[:2] == outputs[2:]


def test_report_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        report_from_dict({"kind": "mystery"})


@pytest.mark.parametrize("doc", [[1], "report", 3, None])
def test_report_from_dict_rejects_a_non_object(doc, tmp_path):
    with pytest.raises(ValueError, match="must be a JSON object"):
        report_from_dict(doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be a JSON object"):
        read_report(str(path))


def test_json_and_csv_deterministic_reruns():
    a = report_to_json(run_convergence(make_cfg(trials=5)))
    b = report_to_json(run_convergence(make_cfg(trials=5)))
    assert a == b
    c = report_to_csv(run_variance(make_cfg(trials=110, n_list=(12, 24))))
    d = report_to_csv(run_variance(make_cfg(trials=110, n_list=(12, 24))))
    assert c == d
