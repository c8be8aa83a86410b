"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream).  Expected
values come from independent oracles computed inside this module: plain
series summation, fine-grid re-optimization, permutation scans, and direct
Monte Carlo.
"""

import math
import time

import numpy as np
import pytest

from powertsp.bounds import (
    SeriesConvergenceError,
    beta_bounds,
    chernoff_tail,
    geometric_moment,
    geometric_moment_factorial_bound,
)
from powertsp.experiments import (
    ExperimentConfig,
    SolverPolicy,
    report_to_csv,
    report_to_json,
    run_sandwich,
    run_scaling,
    run_variance,
)
from powertsp.geometry import build_tiling
from powertsp.invariants import run_invariant_suite
from powertsp.sampling import make_rng
from powertsp.solvers import approx_tsp_path, tsp_bruteforce, tsp_exact
from powertsp.weights import edge_weight, make_weight_function

ROOT2 = math.sqrt(2.0)
UNIFORM = {"kind": "uniform", "eps1": 1.0, "eps2": 1.0}
KINDS = ("euclidean", "coordinate_metric", "radial_metric")
ALPHAS = (0.5, 1.0, 1.5, 2.0)


def line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. oracle equivalence within budget
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for case in range(200):
        rng = make_rng(41, (case,))
        n = 5 + case % 5
        wf = make_weight_function(KINDS[case % 3])
        alpha = ALPHAS[case % 4]
        pts = rng.uniform(-0.5, 0.5, size=(n, 2))
        a = tsp_exact(pts, wf, alpha)
        b = tsp_bruteforce(pts, wf, alpha)
        rel = abs(a.weight - b.weight) / max(1.0, abs(b.weight))
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 120.0
    line(1, "oracle_equivalence", ok, f"max rel gap {worst:.2e}, {elapsed:.1f}s over 200 instances")
    assert worst <= 1e-9
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. scaling exponent
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_criterion_2_scaling_exponent(alpha):
    cfg = ExperimentConfig(
        weight={"kind": "euclidean"},
        alpha=alpha,
        density=UNIFORM,
        n_list=(64, 128, 256, 512, 1024),
        trials=200,
        seed=2,
        a=1.0,
        policy=SolverPolicy(exact_below=0, heuristic="grid_tour+two_opt"),
    )
    report = run_scaling(cfg)
    target = 1.0 - alpha / 2.0
    ok = abs(report.slope - target) <= 0.07
    line(2, f"scaling_exponent[alpha={alpha}]", ok,
         f"slope {report.slope:.4f} vs {target:.2f} +- 0.07")
    assert abs(report.slope - target) <= 0.07


# ---------------------------------------------------------------------------
# 3. sandwich frequencies
# ---------------------------------------------------------------------------


def test_criterion_3_sandwich_frequencies():
    cfg = ExperimentConfig(
        weight={"kind": "euclidean"},
        alpha=1.0,
        density=UNIFORM,
        n_list=(1024,),
        trials=500,
        seed=3,
        a=1.0,
        policy=SolverPolicy(exact_below=0, heuristic="grid_tour"),
    )
    report = run_sandwich(cfg)
    ok = (
        report.lower_frequency == 1.0
        and report.upper_frequency >= 0.95
        and abs(report.c1_const - 2.1206e-4) / 2.1206e-4 < 1e-3
        and abs(report.c2_const - 29.08) < 0.01
    )
    line(3, "sandwich_frequencies", ok,
         f"lower {report.lower_frequency:.3f}, upper {report.upper_frequency:.3f}, "
         f"C1 {report.c1_const:.4e}, C2 {report.c2_const:.2f}")
    assert report.c1_const == pytest.approx(2.1206e-4, rel=1e-3)
    assert report.c2_const == pytest.approx(29.08, abs=0.01)
    assert report.lower_frequency == 1.0
    assert report.upper_frequency >= 0.95


# ---------------------------------------------------------------------------
# 4. beta curves
# ---------------------------------------------------------------------------


def oracle_moment(p, alpha):
    """Independent chunked plain-sum moment; skips hopeless tails."""
    if p < 1e-4:
        # objective there is enormous: E T^alpha >= e^-1 (1/p)^alpha
        raise SeriesConvergenceError("oracle skip")
    k_max = int(60.0 / p) + 100
    total = 0.0
    start = 1
    log_q = math.log1p(-p)
    while start <= k_max:
        ks = np.arange(start, min(start + 200_000, k_max + 1), dtype=np.float64)
        total += float(np.sum(p * ks**alpha * np.exp((ks - 1.0) * log_q)))
        start += 200_000
    return total


def oracle_beta_fine_grid(alpha, points=10_000, a_max=5.0):
    """Re-optimize both bracket objectives on a fine A grid."""
    best_low, best_up = -math.inf, math.inf
    for a in np.linspace(a_max / points, a_max, points):
        a = float(a)
        a2 = a * a
        low = a**alpha / a2 * (1.0 - math.exp(-a2)) * math.exp(-8.0 * a2)
        best_low = max(best_low, low)
        p = 1.0 - math.exp(-a2) * (1.0 + a2 + a2 * a2 / 2.0)
        if not (0.0 < p < 1.0):
            continue
        try:
            moments = oracle_moment(p, alpha) + oracle_moment(1.0 - p, alpha)
        except SeriesConvergenceError:
            continue
        best_up = min(best_up, (2.0 * a) ** alpha * (1.0 + moments / a2))
    return best_low, best_up


def test_criterion_4_beta_curves():
    alphas = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    lows, ups = [], []
    for alpha in alphas:
        low, up = beta_bounds(alpha, 1.0, 1.0)
        lows.append(low.value)
        ups.append(up.value)
    monotone_up = all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))
    monotone_low = all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
    separated = all(lo < up for lo, up in zip(lows, ups))
    oracle_low, oracle_up = oracle_beta_fine_grid(1.0)
    i1 = alphas.index(1.0)
    rel_low = abs(lows[i1] - oracle_low) / oracle_low
    rel_up = abs(ups[i1] - oracle_up) / oracle_up
    near = lows[i1] == pytest.approx(0.147, abs=0.002) and ups[i1] == pytest.approx(8.15, abs=0.05)
    ok = monotone_up and monotone_low and separated and rel_low < 0.02 and rel_up < 0.02 and near
    line(4, "beta_curves", ok,
         f"beta_low(1)={lows[i1]:.4f} (oracle gap {rel_low:.1e}), "
         f"beta_up(1)={ups[i1]:.3f} (oracle gap {rel_up:.1e}), monotone={monotone_up and monotone_low}")
    assert monotone_up and monotone_low and separated
    assert rel_low < 0.02 and rel_up < 0.02
    assert near


# ---------------------------------------------------------------------------
# 5. geometric moments
# ---------------------------------------------------------------------------


def test_criterion_5_geometric_moments():
    worst = 0.0
    dominated = True
    for p in np.arange(0.1, 0.95, 0.1):
        p = float(p)
        worst = max(worst, abs(geometric_moment(p, 1.0, tol=1e-12) - 1.0 / p) * p)
        exact2 = (2.0 - p) / p**2
        worst = max(worst, abs(geometric_moment(p, 2.0, tol=1e-12) - exact2) / exact2)
        for r in range(1, 6):
            if geometric_moment(p, float(r)) > geometric_moment_factorial_bound(p, r) * (1 + 1e-12):
                dominated = False
    ok = worst <= 1e-8 and dominated
    line(5, "geometric_moments", ok, f"max rel error {worst:.2e}, factorial bound dominates: {dominated}")
    assert worst <= 1e-8
    assert dominated


# ---------------------------------------------------------------------------
# 6. invariant suite
# ---------------------------------------------------------------------------


def test_criterion_6_invariant_suite():
    results = run_invariant_suite(max_n=10, instances=100, seed=7)
    needed = {"subadditivity", "metric_monotonicity", "one_node_removal",
              "scaling", "translation", "euclidean_sandwich"}
    names = {r.name for r in results}
    all_pass = all(r.passed for r in results)
    ok = all_pass and needed <= names
    detail = "; ".join(r.line() for r in results if not r.passed) or "8 properties x 100 instances"
    line(6, "invariant_suite", ok, detail)
    assert needed <= names
    for r in results:
        assert r.passed, r.line()


# ---------------------------------------------------------------------------
# 7. decomposition path bound
# ---------------------------------------------------------------------------


def test_criterion_7_approx_path_bound():
    checked = 0
    attempt = 0
    worst_margin = -math.inf
    while checked < 100:
        rng = make_rng(23, (attempt,))
        n = 3 + attempt % 7
        wf = make_weight_function(KINDS[attempt % 3])
        alpha = ALPHAS[attempt % 4]
        pts = rng.uniform(-0.5, 0.5, size=(n, 2))
        tiling = build_tiling(n, math.sqrt(n) / 2.0)
        attempt += 1
        try:
            path, rec = approx_tsp_path(pts, wf, alpha, tiling)
        except ValueError:
            continue  # all nodes inside the center square: construction undefined
        closing = edge_weight(wf, alpha, pts[path.order[0]], pts[path.order[-1]])
        exact = tsp_exact(pts, wf, alpha)
        gap = abs(path.weight + closing - exact.weight)
        cap = (2.0 * rec.n_in + 2.0) * (wf.c2 * ROOT2) ** alpha
        worst_margin = max(worst_margin, gap - cap)
        checked += 1
    ok = worst_margin <= 1e-9
    line(7, "approx_path_bound", ok, f"100 instances, worst slack {worst_margin:.3e}")
    assert worst_margin <= 1e-9


# ---------------------------------------------------------------------------
# 8. chernoff validity
# ---------------------------------------------------------------------------


def test_criterion_8_chernoff_validity():
    configs = [
        (m, mu, eps)
        for m in (20, 50, 100, 200, 500)
        for mu, eps in ((0.2, 0.1), (0.5, 0.2), (0.8, 0.3), (0.5, 0.45))
    ]
    assert len(configs) == 20
    rng = make_rng(29, (0,))
    trials = 10_000
    violations = 0
    for m, mu, eps in configs:
        bound = chernoff_tail(m, mu, eps)
        bern = rng.binomial(m, mu, size=trials)
        pois = rng.poisson(mu, size=(trials, m)).sum(axis=1)
        for sums in (bern, pois):
            if np.mean(sums > m * mu * (1 + eps)) > bound:
                violations += 1
            if np.mean(sums < m * mu * (1 - eps)) > bound:
                violations += 1
    ok = violations == 0
    line(8, "chernoff_validity", ok, f"20 configs x 2 processes x 2 tails, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# 9. variance exponent (soft, asymptotic)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_variance_exponent_soft():
    cfg = ExperimentConfig(
        weight={"kind": "euclidean"},
        alpha=0.5,
        density=UNIFORM,
        n_list=(128, 256, 512, 1024, 2048),
        trials=1000,
        seed=5,
        a=1.0,
        policy=SolverPolicy(exact_below=0, heuristic="grid_tour"),
    )
    report = run_variance(cfg)
    ok = 0.25 <= report.slope <= 0.75
    line(9, "variance_exponent[soft]", ok,
         f"slope {report.slope:.4f} in [0.25, 0.75] (predicted {report.predicted_exponent}); "
         "asymptotic claim, wide band by design")
    assert not report.informational  # alpha < 1 and >= 1000 trials
    assert 0.25 <= report.slope <= 0.75


# ---------------------------------------------------------------------------
# 10. determinism across thread counts
# ---------------------------------------------------------------------------


def test_criterion_10_determinism():
    cfg = ExperimentConfig(
        weight={"kind": "radial_metric"},
        alpha=1.0,
        density=UNIFORM,
        n_list=(32, 64),
        trials=12,
        seed=11,
        a=1.0,
        policy=SolverPolicy(exact_below=0, heuristic="grid_tour+two_opt"),
    )
    payloads = [(report_to_json(report).encode(), report_to_csv(report).encode())
                for report in (run_scaling(cfg), run_scaling(cfg))]
    ok = payloads[0] == payloads[1]
    line(10, "determinism", ok,
         f"json {len(payloads[0][0])} bytes and csv {len(payloads[0][1])} bytes identical "
         "across two runs")
    assert payloads[0] == payloads[1]
