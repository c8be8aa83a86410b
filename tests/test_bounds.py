import math

import numpy as np
import pytest

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


def test_geometric_moment_validation_and_cap():
    with pytest.raises(ValueError):
        geometric_moment(0.0, 1.0)
    with pytest.raises(ValueError):
        geometric_moment(1.0, 1.0)
    with pytest.raises(ValueError):
        geometric_moment(0.5, -1.0)
    with pytest.raises(SeriesConvergenceError):
        geometric_moment(1e-9, 1.0, tol=1e-12)


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


def test_beta_bounds_validation():
    with pytest.raises(ValueError):
        beta_bounds(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_bounds(1.0, 1.0, 1.0, a_max=-1.0)
    with pytest.raises(ValueError):
        beta_bounds(1.0, 1.0, 1.0, grid_points=2)


# ---------------------------------------------------------------------------
# chernoff tail
# ---------------------------------------------------------------------------


def test_chernoff_value():
    assert chernoff_tail(100, 0.5, 0.2, "upper") == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert chernoff_tail(100, 0.5, 0.2, "upper") == pytest.approx(0.60653, abs=1e-5)
    assert chernoff_tail(100, 0.5, 1e-9, "lower") == pytest.approx(1.0, abs=1e-9)


def test_chernoff_validation():
    with pytest.raises(ValueError):
        chernoff_tail(0, 0.5, 0.2)
    with pytest.raises(ValueError):
        chernoff_tail(10, -1.0, 0.2)
    with pytest.raises(ValueError):
        chernoff_tail(10, 0.5, 0.5)
    with pytest.raises(ValueError):
        chernoff_tail(10, 0.5, 0.2, "sideways")


def test_chernoff_dominates_simulation():
    rng = np.random.default_rng(17)
    m, mu, eps = 200, 0.5, 0.3
    bound = chernoff_tail(m, mu, eps, "lower")
    sums = rng.binomial(m, mu, size=10_000)
    emp_low = np.mean(sums < m * mu * (1.0 - eps))
    emp_up = np.mean(sums > m * mu * (1.0 + eps))
    assert emp_low <= bound
    assert emp_up <= chernoff_tail(m, mu, eps, "upper")
    pois = rng.poisson(mu, size=(10_000, m)).sum(axis=1)
    assert np.mean(pois < m * mu * (1.0 - eps)) <= bound
    assert np.mean(pois > m * mu * (1.0 + eps)) <= bound
