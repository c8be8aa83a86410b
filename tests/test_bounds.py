import csv
import math
import os

import numpy as np
import pytest

from powertsp import bounds
from powertsp.bounds import (
    BetaResult,
    ModelParams,
    SeriesConvergenceError,
    beta_bounds,
    chernoff_tail,
    deviation_constants,
    geometric_moment,
    geometric_moment_factorial_bound,
    lower_rate_objective,
    p_dense,
    upper_rate_objective,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def moment_series_oracle(p, alpha, terms=500_000):
    """Plain partial sum of k^alpha (1-p)^(k-1) p, no early stopping."""
    q = 1.0 - p
    total = 0.0
    qpow = 1.0
    for k in range(1, terms + 1):
        total += (k**alpha) * qpow * p
        qpow *= q
        if qpow < 1e-300:
            break
    return total


def telescoping_oracle(p, r, terms=200_000):
    """E X^r via sum of ((l+1)^r - l^r) q^l for the geometric distribution."""
    q = 1.0 - p
    total = 0.0
    qpow = 1.0
    for l in range(terms):
        total += ((l + 1) ** r - l**r) * qpow
        qpow *= q
        if qpow < 1e-300:
            break
    return total


def poisson_ge3_oracle(lam):
    return 1.0 - math.exp(-lam) * (1.0 + lam + lam * lam / 2.0)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def mpmath_table(name):
    """Rows of a reference table written by golden/make_moment_tables.py
    (mpmath at 50 digits), every field as a float."""
    with open(os.path.join(GOLDEN, name)) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


MOMENT_ALPHAS = (0.25, 0.5, 1.0, 1.7, 2.0, 3.5)


def series_switch_point(alpha, tol):
    """The p below which the first series chunk no longer certifies its
    tail, by bisection on the certificate geometric_moment uses."""
    lo, hi = 1e-12, 0.5  # expansion at lo, series at hi
    assert not bounds._series_certifies(lo, alpha, tol) and bounds._series_certifies(hi, alpha, tol)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if bounds._series_certifies(mid, alpha, tol):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return hi


# ---------------------------------------------------------------------------
# p_dense
# ---------------------------------------------------------------------------


def test_p_dense_values():
    assert p_dense(1.0, 1.0) == pytest.approx(1.0 - 2.5 * math.exp(-1.0), abs=1e-15)
    assert p_dense(1.0, 1.0) == pytest.approx(0.08030139707139415, abs=1e-12)
    assert p_dense(2.0, 1.0) == pytest.approx(1.0 - 13.0 * math.exp(-4.0), abs=1e-15)
    assert p_dense(2.0, 1.0) == pytest.approx(0.761897, abs=1e-6)
    assert p_dense(20.0, 1.0) > 1.0 - 1e-12  # approaches 1 for large cells


def test_p_dense_is_poisson_tail():
    for a in (0.3, 0.9, 1.7):
        for delta in (0.5, 1.0, 2.0):
            assert p_dense(a, delta) == pytest.approx(poisson_ge3_oracle(delta * a * a), abs=1e-14)


def test_p_dense_monotone():
    grid = np.linspace(0.2, 3.0, 20)
    vals_a = [p_dense(a, 1.0) for a in grid]
    assert all(x < y for x, y in zip(vals_a, vals_a[1:]))
    vals_d = [p_dense(1.0, d) for d in grid]
    assert all(x < y for x, y in zip(vals_d, vals_d[1:]))


def test_p_dense_validation():
    with pytest.raises(ValueError):
        p_dense(0.0, 1.0)
    with pytest.raises(ValueError):
        p_dense(1.0, -2.0)


# ---------------------------------------------------------------------------
# geometric moments
# ---------------------------------------------------------------------------


def test_geometric_moment_closed_forms():
    # E T = 1/p and E T^2 = (2 - p)/p^2
    assert geometric_moment(0.25, 1.0) == pytest.approx(4.0, rel=1e-9)
    assert geometric_moment(0.5, 2.0) == pytest.approx(6.0, rel=1e-9)
    for p in np.arange(0.1, 0.95, 0.1):
        assert geometric_moment(p, 1.0, tol=1e-10) == pytest.approx(1.0 / p, rel=1e-8)
        assert geometric_moment(p, 2.0, tol=1e-10) == pytest.approx((2.0 - p) / p**2, rel=1e-8)


def test_geometric_moment_fractional_value():
    # frozen from the plain-series oracle
    oracle = moment_series_oracle(0.5, 0.5)
    assert oracle == pytest.approx(1.3472537527357502, abs=1e-12)
    assert oracle == pytest.approx(1.3473, abs=1e-4)
    assert geometric_moment(0.5, 0.5, tol=1e-6) == pytest.approx(oracle, abs=1e-6)


def test_geometric_moment_matches_telescoping_identity():
    for p in np.arange(0.1, 0.95, 0.1):
        for r in range(1, 6):
            assert geometric_moment(p, float(r), tol=1e-12) == pytest.approx(
                telescoping_oracle(p, r), rel=1e-10
            )


def test_geometric_moment_monotonicity():
    # decreasing in p, increasing in alpha
    alphas = [0.5, 1.0, 1.5, 2.0]
    ps = np.arange(0.1, 0.95, 0.1)
    for alpha in alphas:
        vals = [geometric_moment(p, alpha) for p in ps]
        assert all(x > y for x, y in zip(vals, vals[1:]))
    for p in ps:
        vals = [geometric_moment(p, a) for a in alphas]
        assert all(x < y for x, y in zip(vals, vals[1:]))
    # just below the switch point the Lindelöf expansion serves, just above
    # it the series does; both agree within tol and the moment keeps falling
    # in p across the switch.  The series takes log(1 - p), whose rounding
    # costs it up to ~1e-14 relative near p = 0.01, hence the 1e-13 slack
    # for values far above 1
    tol = 1e-9
    for alpha in MOMENT_ALPHAS:
        p_star = series_switch_point(alpha, tol)
        p_lo, p_hi = p_star * (1.0 - 1e-6), p_star * (1.0 + 1e-6)
        assert not bounds._series_certifies(p_lo, alpha, tol)
        assert bounds._series_certifies(p_hi, alpha, tol)
        below, above = geometric_moment(p_lo, alpha, tol), geometric_moment(p_hi, alpha, tol)
        assert abs(above - bounds._lindelof_moment(p_hi, alpha, tol)) <= tol + 1e-13 * above
        assert abs(below - moment_series_oracle(p_lo, alpha)) <= tol + 1e-13 * below
        assert below > above


def test_geometric_moment_validation_and_cap():
    with pytest.raises(ValueError):
        geometric_moment(0.0, 1.0)
    with pytest.raises(ValueError):
        geometric_moment(1.0, 1.0)
    with pytest.raises(ValueError):
        geometric_moment(0.5, -1.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            geometric_moment(0.5, 1.0, tol=tol)
    # no term cap: a p this small takes the expansion, which gives E T = 1/p
    assert geometric_moment(1e-9, 1.0, tol=1e-12) == pytest.approx(1e9, rel=1e-13)
    # a value out of float range fails loudly, not with a bare OverflowError
    with pytest.raises(SeriesConvergenceError, match=r"p=1e-06, alpha=200.0"):
        geometric_moment(1e-6, 200.0)
    with pytest.raises(SeriesConvergenceError, match=r"alpha=200.0"):
        geometric_moment(0.7, 200.0)


def test_geometric_moment_matches_mpmath_table():
    rows = mpmath_table("geometric_moments.csv")
    assert {row["alpha"] for row in rows} == set(MOMENT_ALPHAS)
    assert len(rows) == 42
    for row in rows:
        assert geometric_moment(row["p"], row["alpha"]) == pytest.approx(row["moment"], rel=1e-13)


def test_factorial_bound_values_and_dominance():
    ln2 = math.log(2.0)
    assert geometric_moment_factorial_bound(ln2, 1) == pytest.approx(2.0, rel=1e-12)
    assert geometric_moment_factorial_bound(ln2, 2) == pytest.approx(8.0, rel=1e-12)
    assert geometric_moment_factorial_bound(0.9, 1) == pytest.approx(1.0 / (1.0 - math.exp(-0.9)), rel=1e-12)
    assert 1.0 / ln2 == pytest.approx(1.4427, abs=1e-4)
    assert geometric_moment(ln2, 1.0) <= geometric_moment_factorial_bound(ln2, 1)
    assert geometric_moment(ln2, 2.0) <= geometric_moment_factorial_bound(ln2, 2)
    for p in np.arange(0.1, 0.95, 0.1):
        for r in range(1, 6):
            assert geometric_moment(p, float(r)) <= geometric_moment_factorial_bound(p, r) * (1 + 1e-12)


def test_factorial_bound_validation():
    with pytest.raises(ValueError):
        geometric_moment_factorial_bound(1.5, 1)
    with pytest.raises(ValueError):
        geometric_moment_factorial_bound(0.5, 0)


# ---------------------------------------------------------------------------
# deviation constants
# ---------------------------------------------------------------------------


def test_deviation_constants_homogeneous_alpha1():
    mp = ModelParams(eps1=1.0, eps2=1.0, alpha=1.0, c1=1.0, c2=1.0)
    c1_const, c2_const = deviation_constants(mp, 1.0)
    # direct evaluation: (1 - e^-1) e^-8
    assert c1_const == pytest.approx((1.0 - math.exp(-1.0)) * math.exp(-8.0), rel=1e-12)
    assert c1_const == pytest.approx(2.1206e-4, rel=1e-3)
    # 2 (1 + 1/p + 1/(1-p)) with p from the dense-cell formula
    p = poisson_ge3_oracle(1.0)
    expected = 2.0 * (1.0 + 1.0 / p + 1.0 / (1.0 - p))
    assert c2_const == pytest.approx(expected, rel=1e-8)
    assert c2_const == pytest.approx(29.08, abs=0.01)


def test_c2_matches_mpmath_table():
    # small A (p_dense summed without cancellation) and large A (its
    # complement summed directly), where the moments take the expansion
    rows = mpmath_table("c2_constants.csv")
    assert [(row["a"], row["alpha"]) for row in rows] == [(5.0, 0.25), (0.05, 1.0), (4.0, 2.0), (6.0, 1.0)]
    for row in rows:
        mp = ModelParams(eps1=1.0, eps2=1.0, alpha=row["alpha"])
        assert deviation_constants(mp, row["a"])[1] == pytest.approx(row["c2"], rel=1e-13)


def test_c2_where_the_complement_rounds_to_one():
    # at tiny A, 1 - p_dense rounds to 1 and its moment is 1 to float
    # resolution; C2 is still the E T~^alpha term
    a = 1e-6
    mp = ModelParams(eps1=1.0, eps2=1.0, alpha=1.0)
    p = p_dense(a, 1.0)
    assert 1.0 - p == 1.0
    assert p == pytest.approx(a**6 / 6.0, rel=1e-12)
    assert deviation_constants(mp, a)[1] == pytest.approx(2.0 * a * (1.0 + (1.0 / p + 1.0) / (a * a)), rel=1e-13)


def test_deviation_constants_c1_linear_in_c1():
    base = ModelParams(eps1=1.0, eps2=1.0, alpha=1.0, c1=1.0, c2=1.0)
    doubled = ModelParams(eps1=1.0, eps2=1.0, alpha=1.0, c1=2.0, c2=2.0)
    b1, b2 = deviation_constants(base, 1.0)
    d1, d2 = deviation_constants(doubled, 1.0)
    assert d1 == pytest.approx(2.0 * b1, rel=1e-12)
    assert d2 == pytest.approx(2.0 * b2, rel=1e-12)  # C2 scales with c2^alpha, untouched by c1


def test_deviation_constants_delta_branch():
    # alpha > 1 switches delta to eps2
    mp = ModelParams(eps1=0.5, eps2=2.0, alpha=2.0)
    assert mp.delta == 2.0
    mp_low = ModelParams(eps1=0.5, eps2=2.0, alpha=1.0)
    assert mp_low.delta == 0.5
    c1a, c2a = deviation_constants(mp, 1.0)
    p = poisson_ge3_oracle(2.0)
    expected = 4.0 * (1.0 + moment_series_oracle(p, 2.0) + moment_series_oracle(1.0 - p, 2.0))
    assert c2a == pytest.approx(expected, rel=1e-7)
    assert c1a == pytest.approx(1.0 * (1.0 - math.exp(-0.5)) * math.exp(-16.0), rel=1e-12)


def test_rate_objectives_are_the_deviation_constants_at_unit_weights():
    # the beta objectives and deviation_constants share one home for each
    # formula, so with c1 = c2 = 1 they agree bit for bit
    for alpha in (0.25, 1.0, 1.75):
        for eps1, eps2 in ((1.0, 1.0), (0.5, 1.5)):
            mp = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha)
            for a in np.linspace(0.5, 3.0, 11):
                c1_const, c2_const = deviation_constants(mp, float(a))
                assert lower_rate_objective(float(a), alpha, eps1, eps2) == c1_const
                assert upper_rate_objective(float(a), alpha, eps1, eps2) == c2_const


# ---------------------------------------------------------------------------
# beta bounds
# ---------------------------------------------------------------------------


def grid_oracle(objective, a_max, points, minimize):
    grid = np.linspace(a_max / points, a_max, points)
    best_val = math.inf if minimize else -math.inf
    best_a = grid[0]
    for a in grid:
        try:
            v = objective(float(a))
        except SeriesConvergenceError:
            continue
        if (minimize and v < best_val) or (not minimize and v > best_val):
            best_val, best_a = v, a
    return best_a, best_val


def test_beta_bounds_homogeneous_alpha1():
    low, up = beta_bounds(1.0, 1.0, 1.0, grid_points=256)
    assert isinstance(low, BetaResult) and isinstance(up, BetaResult)
    # oracle: plain grid scan, 2000 points
    a_lo, v_lo = grid_oracle(lambda a: lower_rate_objective(a, 1.0, 1.0, 1.0), 5.0, 2000, minimize=False)
    a_up, v_up = grid_oracle(lambda a: upper_rate_objective(a, 1.0, 1.0, 1.0), 5.0, 2000, minimize=True)
    assert low.value == pytest.approx(v_lo, rel=1e-3)
    assert up.value == pytest.approx(v_up, rel=1e-3)
    assert low.value == pytest.approx(0.147, abs=0.002)
    assert low.arg_a == pytest.approx(0.245, abs=0.01)
    assert up.value == pytest.approx(8.15, abs=0.05)
    assert up.arg_a == pytest.approx(1.67, abs=0.05)
    # refined values can only improve on their own grid scan
    assert low.value >= lower_rate_objective(low.arg_a, 1.0, 1.0, 1.0) - 1e-12
    assert up.value <= upper_rate_objective(up.arg_a, 1.0, 1.0, 1.0) + 1e-12


def test_beta_low_below_beta_up():
    for alpha in (0.25, 0.75, 1.5, 2.0):
        low, up = beta_bounds(alpha, 1.0, 1.0, grid_points=128)
        assert 0.0 < low.value < up.value < math.inf


def test_beta_bounds_skip_a_where_the_dense_probability_rounds_to_one():
    # past A ~ 6.5 (delta = 1) p_dense rounds to 1 and C2's series cannot
    # converge; the scan skips those points and keeps the optimum near 1.67
    low, up = beta_bounds(1.0, 1.0, 1.0, a_max=10.0)
    assert up.skipped_points > 0
    assert up.arg_a == pytest.approx(1.67, abs=0.05)
    assert up.value == pytest.approx(8.15, abs=0.05)
    assert low.value == pytest.approx(0.147, abs=0.002)


def test_beta_bounds_default_scan_skips_nothing():
    # with the expansion every default grid point has a C2
    for eps1, eps2 in ((1.0, 1.0), (0.5, 1.5)):
        for alpha in np.arange(0.25, 2.0 + 1e-12, 0.25):
            low, up = beta_bounds(float(alpha), eps1, eps2)
            assert low.skipped_points == 0 and up.skipped_points == 0


def test_beta_bounds_validation():
    with pytest.raises(ValueError):
        beta_bounds(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_bounds(1.0, 1.0, 1.0, a_max=-1.0)
    with pytest.raises(ValueError):
        beta_bounds(1.0, 1.0, 1.0, grid_points=2)
    for refine_tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            beta_bounds(1.0, 1.0, 1.0, grid_points=8, refine_tol=refine_tol)


def test_beta_bounds_refinement_stops_at_float_resolution():
    # a tolerance finer than the float spacing near the optimum once made the
    # golden-section search loop forever on an interval that cannot shrink
    fine = beta_bounds(1.0, 1.0, 1.0, grid_points=16, refine_tol=1e-300)
    default = beta_bounds(1.0, 1.0, 1.0, grid_points=16)
    assert fine[0].value == pytest.approx(default[0].value, rel=1e-9)
    assert fine[1].value == pytest.approx(default[1].value, rel=1e-9)


# ---------------------------------------------------------------------------
# chernoff tail
# ---------------------------------------------------------------------------


def test_chernoff_value():
    assert chernoff_tail(100, 0.5, 0.2) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert chernoff_tail(100, 0.5, 0.2) == pytest.approx(0.60653, abs=1e-5)
    assert chernoff_tail(100, 0.5, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_chernoff_validation():
    with pytest.raises(ValueError):
        chernoff_tail(0, 0.5, 0.2)
    with pytest.raises(ValueError):
        chernoff_tail(10, -1.0, 0.2)
    with pytest.raises(ValueError):
        chernoff_tail(10, 0.5, 0.5)


def test_chernoff_dominates_simulation():
    rng = np.random.default_rng(17)
    m, mu, eps = 200, 0.5, 0.3
    bound = chernoff_tail(m, mu, eps)
    sums = rng.binomial(m, mu, size=10_000)
    emp_low = np.mean(sums < m * mu * (1.0 - eps))
    emp_up = np.mean(sums > m * mu * (1.0 + eps))
    assert emp_low <= bound
    assert emp_up <= bound
    pois = rng.poisson(mu, size=(10_000, m)).sum(axis=1)
    assert np.mean(pois < m * mu * (1.0 - eps)) <= bound
    assert np.mean(pois > m * mu * (1.0 + eps)) <= bound
