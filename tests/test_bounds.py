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
    p_dense,
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
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"alpha must be positive and finite, got {alpha}"):
            geometric_moment(0.5, alpha)
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


def test_exp_is_exactly_zero_below_the_series_cutoff():
    # geometric_moment leaves the series terms whose exponent lies below
    # _EXP_ZERO_BELOW out of np.exp, which is sound only where np.exp
    # returns exactly 0.0 there
    x = np.linspace(-1e4, bounds._EXP_ZERO_BELOW, 10001)
    assert np.all(np.exp(x) == 0.0)


def full_series_sum(p, alpha):
    """The sum over all _SERIES_CHUNK terms, every term evaluated, as
    geometric_moment's series path computed it before it skipped the terms
    that underflow; inf or nan where the value is out of float range."""
    k = bounds._SERIES_KS
    with np.errstate(over="ignore"):
        return float(np.sum(p * np.exp(alpha * bounds._SERIES_LOG_KS + (k - 1) * math.log(1 - p))))


def assert_series_matches_full_sum(alphas, ps_per_alpha):
    """At every certified (p, alpha), geometric_moment returns the full sum
    bit for bit, or raises SeriesConvergenceError where that is not finite.
    Returns the number of finite and of failing points checked."""
    finite = failing = 0
    for alpha in alphas:
        alpha = float(alpha)
        for p in ps_per_alpha(alpha):
            p = float(p)
            if not bounds._series_certifies(p, alpha, 1e-9):
                continue
            expected = full_series_sum(p, alpha)
            if math.isfinite(expected):
                assert geometric_moment(p, alpha) == expected, (p, alpha)
                finite += 1
            else:
                with pytest.raises(SeriesConvergenceError, match="out of float range"):
                    geometric_moment(p, alpha)
                failing += 1
    return finite, failing


def test_geometric_moment_series_is_bit_identical_to_the_full_sum():
    def ps(alpha):
        p_star = series_switch_point(alpha, 1e-9)
        return np.concatenate([np.geomspace(p_star, 0.5, 120), 1.0 - np.geomspace(1e-14, 0.5, 80)])

    finite, failing = assert_series_matches_full_sum(np.linspace(0.25, 3.5, 27), ps)
    assert finite > 5000 and failing == 0
    # an overflow is still reported when it lies in a prefix shorter than
    # the chunk: at q = 0.3, alpha = 400 only about 3400 terms are evaluated
    with pytest.raises(SeriesConvergenceError, match=r"p=0.7, alpha=400.0"):
        geometric_moment(0.7, 400.0)


def test_subnormal_series_terms_lie_below_the_smallest_normal():
    # geometric_moment bounds every series term p e^x, x below
    # _EXP_SUBNORMAL_BELOW, by 2^-1022
    x = np.linspace(bounds._EXP_ZERO_BELOW, bounds._EXP_SUBNORMAL_BELOW, 10001)
    assert np.all(np.exp(x) < bounds._SMALLEST_NORMAL)
    assert bounds._SMALLEST_NORMAL == np.finfo(np.float64).smallest_normal


def test_geometric_moment_evaluates_the_subnormal_terms_where_the_bounds_differ(monkeypatch):
    # a bound of 1.0 moves every sum that has subnormal terms, so each such
    # call evaluates them, and still returns the full sum bit for bit
    monkeypatch.setattr(bounds, "_SMALLEST_NORMAL", 1.0)
    real, bands = bounds._series_terms, []

    def series_terms(terms, i, j, *args):
        if i:
            bands.append(j - i)
        real(terms, i, j, *args)

    monkeypatch.setattr(bounds, "_series_terms", series_terms)

    def ps(alpha):
        return 1.0 - np.geomspace(0.02, 0.5, 60)

    finite, failing = assert_series_matches_full_sum(np.linspace(0.25, 3.5, 14), ps)
    assert finite > 500 and failing == 0 and len(bands) > 500


def test_geometric_moment_series_across_the_overflow_guard():
    # np.exp runs without np.errstate while (alpha + 1) log K < 709, which
    # no longer holds from alpha = 84.24 on; at 80-90 every certified value
    # is finite, and at 150-400 the largest terms overflow, which must raise
    # exactly where the full sum is not finite (a RuntimeWarning from an
    # unguarded overflow fails the test)
    guard = bounds._EXP_OVERFLOW_ABOVE / bounds._LOG_CHUNK - 1.0
    alphas = [80.0, 83.0, 84.0, math.nextafter(guard, 0.0), guard, 84.5, 85.0, 85.24, 86.0, 88.0, 90.0]
    assert 80.0 < guard < 90.0 and sum(a < guard for a in alphas) == 4
    def ps(alpha):
        return np.linspace(0.0, 0.95, 200)[1:]

    finite, failing = assert_series_matches_full_sum(alphas, ps)
    assert finite > 1000 and failing == 0
    finite, failing = assert_series_matches_full_sum((150.0, 200.0, 300.0, 400.0), ps)
    assert finite > 100 and failing > 100


def test_lanes_of_the_pairwise_sum():
    # geometric_moment sums only the first 128 * 2^j >= m lanes of the
    # chunk; that is the chunk's sum bit for bit only if numpy adds an array
    # of 128 * 2^j floats as a pairwise tree whose leftmost subtree is that
    # prefix.  Random magnitudes make any other grouping show in the bits
    rng = np.random.default_rng(3)
    for m in list(range(1, 300)) + list(rng.integers(300, bounds._SERIES_CHUNK + 1, 300)):
        lanes = max(bounds._PAIRWISE_BLOCK, 1 << (int(m) - 1).bit_length())
        terms = np.zeros(bounds._SERIES_CHUNK)
        terms[:m] = rng.random(m) * np.exp(rng.normal(0.0, 20.0, m))
        assert np.add.reduce(terms[:lanes].copy()) == np.sum(terms), m


def test_caches_do_not_change_beta_bounds():
    # alpha log k and zeta(1 + x) are cached across calls; a cold run gives
    # the same bits as a warm one.  alpha = 0.25 and 1.75 take the expansion
    # at small A and the series elsewhere
    def bits(results):
        return [(r.value.hex(), r.arg_a.hex()) for r in results]

    for alpha in (0.25, 1.75):
        bounds._alpha_log_ks.cache_clear()
        bounds._zeta_1p.cache_clear()
        cold = beta_bounds(alpha, 0.5, 1.5)
        assert bounds._alpha_log_ks.cache_info().currsize > 0
        assert bounds._zeta_1p.cache_info().currsize > 0
        warm = beta_bounds(alpha, 0.5, 1.5)
        assert bounds._zeta_1p.cache_info().hits > 0
        assert bits(cold) == bits(warm)


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
    # beta_bounds' objectives are _c1_formula and _c2_formula with unit
    # weights and moments to 1e-9, the same formulas deviation_constants
    # evaluates, so with c1 = c2 = 1 they agree bit for bit
    for alpha in (0.25, 1.0, 1.75):
        for eps1, eps2 in ((1.0, 1.0), (0.5, 1.5)):
            mp = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha)
            for a in np.linspace(0.5, 3.0, 11):
                c1_const, c2_const = deviation_constants(mp, float(a))
                assert bounds._c1_formula(float(a), alpha, eps1, eps2, 1.0) == c1_const
                assert bounds._c2_formula(float(a), alpha, mp.delta, 1.0, 1e-9) == c2_const


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
    # oracle: plain grid scan, 2000 points, of C1 and C2 at unit weights
    # (delta = eps1 = eps2 = 1)
    def c1(a):
        return bounds._c1_formula(a, 1.0, 1.0, 1.0, 1.0)

    def c2(a):
        return bounds._c2_formula(a, 1.0, 1.0, 1.0, 1e-9)

    a_lo, v_lo = grid_oracle(c1, 5.0, 2000, minimize=False)
    a_up, v_up = grid_oracle(c2, 5.0, 2000, minimize=True)
    assert low.value == pytest.approx(v_lo, rel=1e-3)
    assert up.value == pytest.approx(v_up, rel=1e-3)
    assert low.value == pytest.approx(0.147, abs=0.002)
    assert low.arg_a == pytest.approx(0.245, abs=0.01)
    assert up.value == pytest.approx(8.15, abs=0.05)
    assert up.arg_a == pytest.approx(1.67, abs=0.05)
    # refined values can only improve on their own grid scan
    assert low.value >= c1(low.arg_a) - 1e-12
    assert up.value <= c2(up.arg_a) + 1e-12


def test_beta_low_below_beta_up():
    for alpha in (0.25, 0.75, 1.5, 2.0):
        low, up = beta_bounds(alpha, 1.0, 1.0, grid_points=128)
        assert 0.0 < low.value < up.value < math.inf


def test_beta_bounds_skip_a_where_the_dense_probability_rounds_to_one():
    # past A ~ 6.5 (delta = 1) p_dense rounds to 1 and C2's series cannot
    # converge; the scan skips those points and keeps the optimum near 1.67
    with pytest.raises(SeriesConvergenceError):
        bounds._c2_formula(10.0, 1.0, 1.0, 1.0, 1e-9)
    low, up = beta_bounds(1.0, 1.0, 1.0, a_max=10.0)
    assert up.arg_a == pytest.approx(1.67, abs=0.05)
    assert up.value == pytest.approx(8.15, abs=0.05)
    assert low.value == pytest.approx(0.147, abs=0.002)


def test_beta_bounds_default_scan_skips_nothing():
    # with the expansion every default grid point has a C2
    grid = np.linspace(5.0 / 512, 5.0, 512).tolist()
    for eps1, eps2 in ((1.0, 1.0), (0.5, 1.5)):
        for alpha in np.arange(0.25, 2.0 + 1e-12, 0.25).tolist():
            delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
            for a in grid:
                assert math.isfinite(bounds._c2_formula(a, alpha, delta, 1.0, 1e-9)), (alpha, a)


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


def full_scan(f, a_max, grid_points, refine_tol):
    """The exhaustive grid scan that the bounded one must reproduce: f
    minimized at every grid point, then golden-section refinement around
    the first best one, as (argmin, min, skipped)."""
    grid = np.linspace(a_max / grid_points, a_max, grid_points)
    vals = np.full(grid_points, np.inf)
    skipped = 0
    for i, a in enumerate(grid):
        try:
            vals[i] = f(float(a))
        except SeriesConvergenceError:
            skipped += 1
    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)] if best else grid[0] * 0.5
    hi = grid[min(best + 1, grid_points - 1)]
    arg, val = bounds._golden_section(f, float(lo), float(hi), refine_tol)
    if vals[best] < val:
        arg, val = float(grid[best]), float(vals[best])
    return float(arg), float(val), skipped


SWEEP_EPS = ((1.0, 1.0), (0.5, 1.5), (0.2, 1.8))
SWEEP_ALPHAS = tuple(0.25 * i for i in range(1, 17)) + (5.0, 8.5, 10.0, 12.0)
SWEEP_GRIDS = ((5.0, 512), (10.0, 512), (5.0, 128), (2.0, 64))


def test_bounded_scan_matches_the_full_scan():
    # 240 scans across the delta branch, small and large alpha (up to 12),
    # grids where C2 raises (a_max = 10) and coarse grids, compared in
    # every bit with the exhaustive scan
    def bits(arg, val):
        return arg.hex(), val.hex()

    skipping = 0
    for eps1, eps2 in SWEEP_EPS:
        for alpha in SWEEP_ALPHAS:
            delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
            for a_max, points in SWEEP_GRIDS:
                low, up = beta_bounds(alpha, eps1, eps2, a_max=a_max, grid_points=points)
                arg, neg, _ = full_scan(
                    lambda a: -bounds._c1_formula(a, alpha, eps1, eps2, 1.0), a_max, points, 1e-10)
                assert bits(low.arg_a, low.value) == bits(arg, -neg)
                arg, val, skipped = full_scan(
                    lambda a: bounds._c2_formula(a, alpha, delta, 1.0, 1e-9), a_max, points, 1e-10)
                assert bits(up.arg_a, up.value) == bits(arg, val)
                skipping += skipped > 0
    assert skipping >= 50


def test_finite_moment_floor_certifies_finite_moments():
    # from the floor s = 1 - 1/e on, where t = -log(1 - s) >= 1, the series
    # serves and is finite until its terms can overflow (alpha = 84.24)
    checked = 0
    for alpha in (2.0**-20, 0.25, 1.0, 8.0, 10.0, 30.0, 60.0, 84.23):
        for s in [0.6321205588285577, *(1.0 - np.geomspace(0.36787944117144233, 2.0**-53, 40))]:
            assert math.isfinite(geometric_moment(float(s), alpha)), (s, alpha)
            checked += 1
    assert checked == 328


def test_finite_moment_floor_lies_near_the_expansion_overflow():
    # at alpha = 8 Lindelöf's leading term Gamma(9) t^-9 is finite at
    # s = 1e-33 and overflows at s = 1e-34
    assert math.isfinite(geometric_moment(1e-33, 8.0))
    with pytest.raises(SeriesConvergenceError):
        geometric_moment(1e-34, 8.0)


def test_bounded_scan_never_evaluates_a_dropped_point():
    # a parabola that raises on a band of grid points (i + 1) / 512,
    # i = 165..185, between the first pass's points 160 and 192 and far
    # from its minimum: the band is dropped, none of its points is
    # evaluated, and the result is still the full scan's
    band = (0.324, 0.364)
    calls = []

    def f(a):
        calls.append(a)
        if band[0] <= a <= band[1]:
            raise SeriesConvergenceError("band")
        return (a - 0.7) ** 2 + 1.0

    def bound(a0, a1):
        return min((a - 0.7) ** 2 for a in (a0, a1, min(max(0.7, a0), a1))) + 1.0

    bounded = bounds._optimize(f, 1.0, 512, 1e-10, bound)
    assert not any(band[0] <= a <= band[1] for a in calls)
    assert len(calls) < 128
    arg, val, skipped = full_scan(f, 1.0, 512, 1e-10)
    assert bounded == (arg, val) and skipped == 21


def grid_points_reached(monkeypatch, alpha):
    """How many of the default 512 grid points beta_bounds(alpha, 1, 1)
    evaluates C2 at, and its geometric_moment calls in all.  An evaluated
    point is one whose dense-cell probability reaches geometric_moment."""
    seen = []
    real = bounds.geometric_moment

    def recording(p, alpha, tol=1e-9):
        seen.append(p)
        return real(p, alpha, tol)

    monkeypatch.setattr(bounds, "geometric_moment", recording)
    beta_bounds(alpha, 1.0, 1.0)
    monkeypatch.undo()
    grid = np.linspace(5.0 / 512, 5.0, 512).tolist()
    return len({bounds._dense_split(a * a)[0] for a in grid}.intersection(seen)), len(seen)


def test_default_curve_evaluates_few_grid_points(monkeypatch):
    # the bounded scan evaluates C2 at no more than a quarter of the default
    # 512 grid points per alpha
    total = 0
    for alpha in np.arange(0.25, 2.0 + 1e-12, 0.25).tolist():
        points, calls = grid_points_reached(monkeypatch, alpha)
        assert 17 <= points <= 128, alpha
        total += calls
    assert total <= 2000


def test_curves_past_alpha_8_evaluate_few_grid_points(monkeypatch):
    # past alpha = 8 too no dropped grid point is evaluated
    for alpha in (8.5, 10.0, 12.0):
        points, _ = grid_points_reached(monkeypatch, alpha)
        assert 17 <= points <= 128, alpha


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
