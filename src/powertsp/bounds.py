"""Explicit constants and inequalities of the model, evaluated numerically.

Covers the dense-cell probability, fractional moments of geometric random
variables (truncated series with a certified tail bound), the deviation
constants C1(A) and C2(A), the bracket constants beta_low / beta_up obtained
by optimizing over the cell-size parameter A, and the Bernstein/Chernoff
tail estimate used to sanity-check empirical frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SERIES_MAX_TERMS = 10**6
_SERIES_CHUNK = 4096
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SeriesConvergenceError(RuntimeError):
    """Raised when the moment series cannot reach the requested tolerance
    within the hard term cap."""


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
    lam = delta * a * a
    return -math.expm1(-lam) - math.exp(-lam) * (lam + 0.5 * lam * lam)


def geometric_moment(p: float, alpha: float, tol: float = 1e-9) -> float:
    """E T^alpha for T geometric on {1, 2, ...} with success probability p.

    Partial sums of k^alpha (1-p)^(k-1) p, stopped once a geometric-ratio
    tail bound certifies the remainder below tol.  Fails loudly if the cap
    of 1e6 terms is hit first (p too close to 0 for the tolerance).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    q = 1.0 - p
    log_q = math.log(q)
    total = 0.0
    start = 1
    while start <= _SERIES_MAX_TERMS:
        ks = np.arange(start, min(start + _SERIES_CHUNK, _SERIES_MAX_TERMS + 1), dtype=np.float64)
        total += float(np.sum(p * np.exp(alpha * np.log(ks) + (ks - 1.0) * log_q)))
        last_k = ks[-1]
        # terms beyond K shrink at least geometrically with ratio rho
        rho = ((last_k + 1.0) / last_k) ** alpha * q
        if rho < 1.0:
            next_term = p * (last_k + 1.0) ** alpha * q**last_k
            if next_term / (1.0 - rho) < tol:
                return total
        start += _SERIES_CHUNK
    raise SeriesConvergenceError(
        f"geometric moment series (p={p}, alpha={alpha}) did not reach tol={tol} "
        f"within {_SERIES_MAX_TERMS} terms"
    )


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
    geometric on the dense-cell probability p and T^ geometric on 1 - p."""
    p = p_dense(a, delta)
    moments = geometric_moment(p, alpha, tol) + geometric_moment(1.0 - p, alpha, tol)
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


def upper_rate_objective(a: float, alpha: float, eps1: float, eps2: float, tol: float = 1e-9) -> float:
    """beta_up integrand: C2(A) with c2 = 1."""
    delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
    return _c2_formula(a, alpha, delta, 1.0, tol)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns (argmin, min)."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
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


def chernoff_tail(m: int, mu: float, eps: float, direction: str = "upper") -> float:
    """Tail probability bound exp(-eps^2 m mu / 4) for sums of m independent
    Bernoulli or Poisson variables with mean bound mu, deviation fraction eps."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    return math.exp(-eps * eps * m * mu / 4.0)
