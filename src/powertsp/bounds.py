"""Explicit constants and inequalities of the model, evaluated numerically.

Covers the dense-cell probability, fractional moments of geometric random
variables (a series with a certified tail bound, or Lindelöf's expansion of
the polylogarithm where the series would be long), the deviation
constants C1(A) and C2(A), the bracket constants beta_low / beta_up obtained
by optimizing over the cell-size parameter A, and the Bernstein/Chernoff
tail estimate used to sanity-check empirical frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SERIES_CHUNK = 4096
_SERIES_KS = np.arange(1, _SERIES_CHUNK + 1, dtype=np.float64)
_SERIES_LOG_KS = np.log(_SERIES_KS)
_EXPANSION_MAX_TERMS = 64
_TWO_PI = 2.0 * math.pi
# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin corrections of _zeta_1p
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1))
_EM_N = 10
_COMPLEMENT_DIRECT_BELOW = 2.0**-10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SeriesConvergenceError(RuntimeError):
    """Raised when a moment cannot be computed to the requested tolerance:
    its value is out of float range, or the expansion does not settle."""


@dataclass(frozen=True)
class ModelParams:
    """Density bounds, exponent and weight constants, with the derived
    branch parameter delta = eps1 for alpha <= 1 and eps2 for alpha > 1."""

    eps1: float
    eps2: float
    alpha: float
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "alpha", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.eps1 <= self.eps2):
            raise ValueError("need 0 < eps1 <= eps2")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")

    @property
    def delta(self) -> float:
        return self.eps1 if self.alpha <= 1.0 else self.eps2


@dataclass(frozen=True)
class BetaResult:
    """An optimized bracket constant with the A that attains it."""

    value: float
    arg_a: float
    grid_points: int
    a_max: float
    refine_tol: float
    skipped_points: int = 0


def p_dense(a: float, delta: float) -> float:
    """Probability that a Poisson(delta * a^2) count is at least 3."""
    if a <= 0.0 or delta <= 0.0:
        raise ValueError("a and delta must be positive")
    return _dense_split(delta * a * a)[0]


def _dense_split(lam: float) -> tuple[float, float]:
    """P(count >= 3) and P(count < 3) for a Poisson(lam) count, each free of
    cancellation where it is small.  The second is summed directly below
    2^-10 and is 1 - p above, where that is good to 2^-43 relative: the
    direct sum there would move the last bits of C2 near its optimum, and
    with them argA_up by about 3e-9."""
    below3 = math.exp(-lam) * (1.0 + lam + 0.5 * lam * lam)
    if lam < 0.05:  # e^-lam sum_{k>=3} lam^k / k!, no cancellation
        term, total, k = lam**3 / 6.0, 0.0, 3
        while total + term != total:
            total += term
            k += 1
            term *= lam / k
        p = math.exp(-lam) * total
    else:
        p = -math.expm1(-lam) - math.exp(-lam) * (lam + 0.5 * lam * lam)
    return p, (below3 if below3 < _COMPLEMENT_DIRECT_BELOW else 1.0 - p)


def geometric_moment(p: float, alpha: float, tol: float = 1e-9) -> float:
    """E T^alpha for T geometric on {1, 2, ...} with success probability p.

    Where a geometric-ratio tail bound certifies the remainder below tol
    within the first _SERIES_CHUNK terms, this is the partial sum of
    k^alpha (1-p)^(k-1) p.  Everywhere else it is (p/q) Li_{-alpha}(q),
    q = 1 - p, from Lindelöf's expansion of the polylogarithm
    (``_lindelof_moment``).  Raises SeriesConvergenceError, naming p and
    alpha, when the value is out of float range or the expansion does not
    settle.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not _series_certifies(p, alpha, tol):
        return _lindelof_moment(p, alpha, tol)
    log_q = math.log(1.0 - p)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        total = float(np.sum(p * np.exp(alpha * _SERIES_LOG_KS + (_SERIES_KS - 1.0) * log_q)))
    if not math.isfinite(total):
        raise SeriesConvergenceError(
            f"geometric moment (p={p}, alpha={alpha}) is out of float range")
    return total


def _series_certifies(p: float, alpha: float, tol: float) -> bool:
    """Whether the first K = _SERIES_CHUNK terms of the moment series leave a
    remainder below tol: the terms beyond K shrink at least geometrically
    with ratio rho = ((K+1)/K)^alpha q, so the remainder is at most
    p (K+1)^alpha q^K / (1 - rho).  Evaluated in logs, so it cannot
    overflow."""
    k = float(_SERIES_CHUNK)
    log_q = math.log1p(-p)
    log_rho = alpha * math.log1p(1.0 / k) + log_q
    if log_rho >= 0.0:
        return False
    log_tail = math.log(p) + alpha * math.log(k + 1.0) + k * log_q - math.log(-math.expm1(log_rho))
    return log_tail < math.log(tol)


def _zeta_1p(x: float) -> float:
    """Riemann zeta at 1 + x, x > 0: the first _EM_N - 1 terms plus the
    Euler-Maclaurin tail with seven Bernoulli corrections.  Taking x rather
    than s keeps the pole term N^-x / x finite when 1 + x rounds to 1."""
    s = 1.0 + x
    n = float(_EM_N)
    n_s = n**-s
    total = sum(k**-s for k in range(1, _EM_N)) + n**-x / x + 0.5 * n_s
    rising, n_pow = s, n_s / n  # s (s+1) ... (s+2j-2) and N^(-s-2j+1)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * rising * n_pow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        n_pow /= n * n
    return total


def _lindelof_moment(p: float, alpha: float, tol: float) -> float:
    """(p/q) Li_{-alpha}(q) by Lindelöf's expansion about q = e^mu = 1,

        Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!,

    with s = -alpha and mu = log1p(-p); it converges for |mu| < 2 pi (DLMF
    25.12.12; Wood 1992, "The computation of polylogarithms").  By the
    reflection formula the k-th term is -sin(pi (alpha+k) / 2)
    zeta(1+alpha+k) a_k with a_k = 2 Gamma(1+alpha+k) mu^k / (k! (2 pi)^(1+alpha+k)).
    Both zeta(1+alpha+k) and the ratio |a_(k+1) / a_k| fall in k, so the
    terms after k sum to at most zeta(1+alpha+k) |a_(k+1)| / (1 - ratio).
    The expansion stops once that remainder, times p/q, is below the float
    resolution of the value.  That meets tol wherever float arithmetic can
    (tol above one ulp of the value), and it costs only a few terms more:
    where the series does not serve, |mu| is small and the terms fall
    fast."""
    def fail(reason: str) -> SeriesConvergenceError:
        return SeriesConvergenceError(
            f"geometric moment (p={p}, alpha={alpha}) did not reach tol={tol}: {reason}")

    t = -math.log1p(-p)  # -mu
    if t >= _TWO_PI:
        raise fail("log(1-p) lies outside the radius 2 pi of Lindelöf's expansion")
    scale = p / (1.0 - p)
    try:
        gamma = math.gamma(1.0 + alpha)
        total = gamma * t ** (-alpha - 1.0)
        a = 2.0 * gamma / _TWO_PI ** (1.0 + alpha)
    except OverflowError:
        raise fail("the value is out of float range") from None
    sin0, cos0 = math.sin(0.5 * math.pi * alpha), math.cos(0.5 * math.pi * alpha)
    sines = (sin0, cos0, -sin0, -cos0)  # sin(pi (alpha + k) / 2), period 4 in k
    for k in range(_EXPANSION_MAX_TERMS):
        zeta_k = _zeta_1p(alpha + k)
        total -= sines[k % 4] * zeta_k * a
        a *= -(1.0 + alpha + k) / (k + 1.0) * t / _TWO_PI
        value = scale * total
        if not math.isfinite(value):
            raise fail("the value is out of float range")
        next_ratio = (2.0 + alpha + k) / (k + 2.0) * t / _TWO_PI
        if next_ratio < 1.0:
            remainder = scale * zeta_k * abs(a) / (1.0 - next_ratio)
            if remainder < 2.0**-53 * abs(value):
                return value
    raise fail(f"Lindelöf's expansion did not settle within {_EXPANSION_MAX_TERMS} terms")


def geometric_moment_factorial_bound(p: float, r: int) -> float:
    """Closed-form dominator r! / (1 - e^{-p})^r of the r-th geometric moment."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if r < 1 or int(r) != r:
        raise ValueError("r must be a positive integer")
    return math.factorial(int(r)) / (-math.expm1(-p)) ** int(r)


def _c1_formula(a: float, alpha: float, eps1: float, eps2: float, c1: float) -> float:
    """C1(A) = (c1 A)^alpha / A^2 * (1 - e^{-eps1 A^2}) * e^{-8 eps2 A^2}."""
    a2 = a * a
    return (c1 * a) ** alpha / a2 * (-math.expm1(-eps1 * a2)) * math.exp(-8.0 * eps2 * a2)


def _c2_formula(a: float, alpha: float, delta: float, c2: float, tol: float) -> float:
    """C2(A) = (2 c2 A)^alpha * (1 + (E T~^alpha + E T^^alpha) / A^2) with T~
    geometric on the dense-cell probability p and T^ geometric on 1 - p.
    Where 1 - p rounds to 1 (tiny A), E T^^alpha = 1 + (2^alpha - 1) p + O(p^2)
    is 1 to float resolution."""
    p, q = _dense_split(delta * a * a)
    if not 0.0 < p < 1.0:  # rounds to 0 or 1, or NaN once delta * A^2 overflows
        raise SeriesConvergenceError(
            f"the moment series of C2 cannot converge at A={a}, delta={delta}: "
            f"the dense-cell probability rounds to {p}")
    moments = geometric_moment(p, alpha, tol) + (1.0 if q == 1.0 else geometric_moment(q, alpha, tol))
    return (2.0 * c2 * a) ** alpha * (1.0 + moments / (a * a))


def deviation_constants(mp: ModelParams, a: float, tol: float = 1e-9) -> tuple[float, float]:
    """The lower/upper deviation constants (C1(A), C2(A)) of ``_c1_formula``
    and ``_c2_formula``."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    return (_c1_formula(a, mp.alpha, mp.eps1, mp.eps2, mp.c1),
            _c2_formula(a, mp.alpha, mp.delta, mp.c2, tol))


def lower_rate_objective(a: float, alpha: float, eps1: float, eps2: float) -> float:
    """beta_low integrand: C1(A) with c1 = 1."""
    return _c1_formula(a, alpha, eps1, eps2, 1.0)


def upper_rate_objective(a: float, alpha: float, eps1: float, eps2: float) -> float:
    """beta_up integrand: C2(A) with c2 = 1, moments to 1e-9."""
    delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
    return _c2_formula(a, alpha, delta, 1.0, 1e-9)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns (argmin, min).  Stops at float
    resolution when tol is finer than the spacing of floats near the
    optimum."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol and lo < x1 < x2 < hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def _optimize(f, a_max: float, grid_points: int, refine_tol: float, minimize: bool):
    """Dense grid scan over (0, a_max] plus golden-section refinement around
    the best grid point.  Points where f raises SeriesConvergenceError are
    skipped (they sit far from the optimum by construction)."""
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    sign = 1.0 if minimize else -1.0
    grid = np.linspace(a_max / grid_points, a_max, grid_points)
    vals = np.full(grid_points, np.inf)
    skipped = 0
    for i, a in enumerate(grid):
        try:
            vals[i] = sign * f(float(a))
        except SeriesConvergenceError:
            skipped += 1
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective could not be evaluated anywhere on the search grid")
    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]
    if best == 0:
        lo = grid[0] * 0.5
    arg, val = _golden_section(lambda a: sign * f(a), float(lo), float(hi), refine_tol)
    if vals[best] < val:  # grid point was already better than the refined midpoint
        arg, val = float(grid[best]), float(vals[best])
    return float(arg), float(sign * val), skipped


def beta_bounds(
    alpha: float,
    eps1: float,
    eps2: float,
    a_max: float = 5.0,
    grid_points: int = 512,
    refine_tol: float = 1e-10,
) -> tuple[BetaResult, BetaResult]:
    """The bracket constants (beta_low, beta_up) with their optimizing A.

    beta_low maximizes the lower-rate objective, beta_up minimizes the
    upper-rate objective, both over A in (0, a_max].
    """
    if not (0.0 < alpha < math.inf and 0.0 < a_max < math.inf):
        raise ValueError("alpha and a_max must be positive and finite")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    ModelParams(eps1=eps1, eps2=eps2, alpha=alpha)  # reject bad bounds before scanning
    arg_lo, val_lo, sk_lo = _optimize(
        lambda a: lower_rate_objective(a, alpha, eps1, eps2),
        a_max, grid_points, refine_tol, minimize=False,
    )
    arg_up, val_up, sk_up = _optimize(
        lambda a: upper_rate_objective(a, alpha, eps1, eps2),
        a_max, grid_points, refine_tol, minimize=True,
    )
    low = BetaResult(value=val_lo, arg_a=arg_lo, grid_points=grid_points,
                     a_max=a_max, refine_tol=refine_tol, skipped_points=sk_lo)
    up = BetaResult(value=val_up, arg_a=arg_up, grid_points=grid_points,
                    a_max=a_max, refine_tol=refine_tol, skipped_points=sk_up)
    return low, up


def chernoff_tail(m: int, mu: float, eps: float) -> float:
    """Tail probability bound exp(-eps^2 m mu / 4) for sums of m independent
    Bernoulli or Poisson variables with mean bound mu, deviation fraction eps;
    it bounds the upper and the lower tail alike."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    return math.exp(-eps * eps * m * mu / 4.0)
