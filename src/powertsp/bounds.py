"""Explicit constants and inequalities of the model, evaluated numerically.

Covers the dense-cell probability, fractional moments of geometric random
variables (a series with a certified tail bound, or Lindelöf's expansion of
the polylogarithm where the series would be long), the deviation
constants C1(A) and C2(A), the bracket constants beta_low / beta_up obtained
by optimizing over the cell-size parameter A, and the Bernstein/Chernoff
tail estimate used to sanity-check empirical frequencies.

Both grid scans, beta_low's over C1 and beta_up's over C2, are bounded.
Each objective is built from pieces monotone in A.  C1 is a monotone power
times a rising and a falling factor,

    C1(A) = A^alpha / A^2 * (1 - e^(-eps1 A^2)) * e^(-8 eps2 A^2),

and in

    C2(A) = (2A)^alpha + 2^alpha A^(alpha-2) (M1 + M2)

M1 = E T~^alpha falls as the dense-cell probability p rises, M2 = E T^^alpha
rises as 1 - p falls, (2A)^alpha rises and A^(alpha-2) is monotone.  So
between two evaluated grid points A0 < A1,

    C1 <= max(A0^alpha / A0^2, A1^alpha / A1^2) (1 - e^(-eps1 A1^2)) e^(-8 eps2 A0^2),
    C2 >= (2A0)^alpha + 2^alpha min(A0^(alpha-2), A1^(alpha-2)) (M1(A1) + M2(A0)),

the second from moments already computed at the two ends.  The scan
(``_optimize``, which minimizes -C1 and C2) evaluates every
``_SCAN_STRIDE``-th grid point and the last, then splits at its midpoint
every interval whose bound, widened by ``_BOUND_MARGIN``, does not exceed
the best value found so far; the others are dropped unevaluated.  Both ends
of a dropped interval are finite, so at a point inside it C1 is finite too,
and for C2 the power (2A)^alpha <= (2A1)^alpha and the division by
A^2 >= A0^2 cannot fail: the objective there either raises
SeriesConvergenceError, where a full scan skips the point too, or returns a
value strictly worse than the optimum.  The argmin and its value are
therefore the full scan's, bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

_SERIES_CHUNK = 4096
_SERIES_KS = np.arange(1, _SERIES_CHUNK + 1, dtype=np.float64)
_SERIES_LOG_KS = np.log(_SERIES_KS)
_SERIES_KS_M1 = _SERIES_KS - 1.0
# log K as a Python float, read off the table so that it keeps the table's bits
_LOG_CHUNK = float(_SERIES_LOG_KS[-1])
# numpy's pairwise sum splits an array of 128 * 2^j floats in halves down to
# blocks of 128, which it adds with eight accumulators
_PAIRWISE_BLOCK = 128
# np.exp overflows only above about 709.78, and a sum of at most K terms
# each below e^709 / K stays finite
_EXP_OVERFLOW_ABOVE = 709.0
# np.exp rounds every argument below this to exactly 0.0 (the smallest
# subnormal is e^-744.4, and exp underflows to 0 below about -745.13)
_EXP_ZERO_BELOW = -746.0
# np.exp of an argument below this, times p <= 1, lies below 2^-1022 (the
# smallest normal float, e^-708.40): the band down to _EXP_ZERO_BELOW is
# subnormal, where np.exp is slow
_EXP_SUBNORMAL_BELOW = -709.0
_SMALLEST_NORMAL = 2.0 ** -1022
_EXPANSION_MAX_TERMS = 64
_TWO_PI = 2.0 * math.pi
# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin corrections of _zeta_1p
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1))
_EM_N = 10
_COMPLEMENT_DIRECT_BELOW = 2.0**-10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The bounded scan first evaluates every 32nd grid point (17 of 512).
# On the default beta curve a stride of 16 makes 1648 moment calls, 32
# makes 1438 and 64 makes 1340, so strides past 32 save little.
_SCAN_STRIDE = 32
# An interval bound is widened by this relative margin before it is
# compared with a computed objective.  The computed moments are within
# tol = 1e-9 of theirs on values >= 1, and rounding in p, q, the powers and
# the sums adds about 1e-13, so computed C2 values and bounds are within
# 1e-8 of the true ones, far inside 1e-6; C1's closed-form factors are
# within a few ulps of theirs.
_BOUND_MARGIN = 1e-6


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
    if not (0.0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not _series_certifies(p, alpha, tol):
        return _lindelof_moment(p, alpha, tol)
    log_q = math.log(1.0 - p)
    # Each exponent alpha log k + (k-1) log q is at most
    # alpha log K + (k-1) log q, K = _SERIES_CHUNK, so every term past the
    # first m is exactly 0.0 and is left out of np.exp, which is slow on
    # underflowing input.  The result is still the pairwise sum over all K
    # terms, bit for bit: numpy splits the K lanes in halves down to blocks
    # of 128, so the first `lanes` = 128 * 2^j >= m of them form one subtree,
    # every other subtree holds only zeros and sums to +0.0, and adding +0.0
    # changes no bit.  Only those lanes are allocated and summed.
    m = _terms_above(_EXP_ZERO_BELOW, alpha, log_q)
    lanes = max(_PAIRWISE_BLOCK, 1 << (m - 1).bit_length())
    # By the same bound every term past the first m_normal lies in
    # [0, 2^-1022].  IEEE addition is monotone in each argument, so the sum
    # lies between the sums with those terms at 0 and at 2^-1022, and when
    # these two agree it equals both bit for bit; only where they differ are
    # the subnormal terms evaluated.
    m_normal = min(m, _terms_above(_EXP_SUBNORMAL_BELOW, alpha, log_q))
    terms = np.zeros(lanes)
    # np.errstate costs a few microseconds, so it is entered only where a
    # term or the sum can overflow; that is reported just below
    may_overflow = (alpha + 1.0) * _LOG_CHUNK >= _EXP_OVERFLOW_ABOVE
    with np.errstate(over="ignore") if may_overflow else contextlib.nullcontext():
        _series_terms(terms, 0, m_normal, p, alpha, log_q)
        total = float(np.add.reduce(terms))
        if m_normal < m:
            terms[m_normal:m] = _SMALLEST_NORMAL
            if float(np.add.reduce(terms)) != total:
                _series_terms(terms, m_normal, m, p, alpha, log_q)
                total = float(np.add.reduce(terms))
    if not math.isfinite(total):
        raise SeriesConvergenceError(
            f"geometric moment (p={p}, alpha={alpha}) is out of float range")
    return total


def _terms_above(cutoff: float, alpha: float, log_q: float) -> int:
    """How many leading terms of the series chunk can have an exponent
    alpha log k + (k-1) log q at or above ``cutoff``: past them even the
    bound alpha log K + (k-1) log q lies below it (all K where the bound
    reaches the chunk's end, or log q rounds to 0)."""
    reach = alpha * _LOG_CHUNK - cutoff
    if reach >= -log_q * (_SERIES_CHUNK - 1):
        return _SERIES_CHUNK
    return int(reach / -log_q) + 1


def _series_terms(terms: np.ndarray, i: int, j: int, p: float, alpha: float,
                  log_q: float) -> None:
    """terms[i:j] = p q^(k-1) k^alpha for k = i + 1..j, by np.exp of the
    exponent (k-1) log q + alpha log k."""
    exponents = _SERIES_KS_M1[i:j] * log_q
    exponents += _alpha_log_ks(alpha)[i:j]  # IEEE addition commutes: same bits
    np.exp(exponents, out=terms[i:j])
    terms[i:j] *= p


@functools.lru_cache(maxsize=8)
def _alpha_log_ks(alpha: float) -> np.ndarray:
    """alpha log k for k = 1..K, read-only; every series call at one alpha
    shares it."""
    out = alpha * _SERIES_LOG_KS
    out.flags.writeable = False
    return out


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


@functools.lru_cache(maxsize=256)
def _zeta_1p(x: float) -> float:
    """Riemann zeta at 1 + x, x > 0: the first _EM_N - 1 terms plus the
    Euler-Maclaurin tail with seven Bernoulli corrections.  Taking x rather
    than s keeps the pole term N^-x / x finite when 1 + x rounds to 1.
    Cached: the expansion asks for the same few arguments at every A of a
    beta_bounds scan."""
    s = 1.0 + x
    n = float(_EM_N)
    n_s = n**-s
    total = sum(k**-s for k in range(1, _EM_N)) + n**-x / x + 0.5 * n_s
    rising, n_pow = s, n_s / n  # s (s+1) ... (s+2j-2) and N^(-s-2j+1)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * rising * n_pow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        n_pow /= n * n
    return float(total)


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


def _c1_scan(alpha: float, eps1: float, eps2: float):
    """-C1(A) at c1 = 1 with its interval bound, as ``_optimize`` takes them:
    minus the module docstring's bound on C1, from the factors of
    ``_c1_formula``, widened by ``_BOUND_MARGIN``."""
    def neg_c1(a: float) -> float:
        return -_c1_formula(a, alpha, eps1, eps2, 1.0)

    def bound(a0: float, a1: float) -> float:
        a20, a21 = a0 * a0, a1 * a1
        ub = (max(a0**alpha / a20, a1**alpha / a21)
              * (-math.expm1(-eps1 * a21)) * math.exp(-8.0 * eps2 * a20))
        return -ub * (1.0 + _BOUND_MARGIN)

    return neg_c1, bound


def _c2_formula(a: float, alpha: float, delta: float, c2: float, tol: float,
                moments: dict | None = None) -> float:
    """C2(A) = (2 c2 A)^alpha * (1 + (E T~^alpha + E T^^alpha) / A^2) with T~
    geometric on the dense-cell probability p and T^ geometric on 1 - p.
    Where 1 - p rounds to 1 (tiny A), E T^^alpha = 1 + (2^alpha - 1) p + O(p^2)
    is 1 to float resolution.  ``moments``, if given, maps A to the pair
    (E T~^alpha, E T^^alpha) after the call."""
    p, q = _dense_split(delta * a * a)
    if not 0.0 < p < 1.0:  # rounds to 0 or 1, or NaN once delta * A^2 overflows
        raise SeriesConvergenceError(
            f"the moment series of C2 cannot converge at A={a}, delta={delta}: "
            f"the dense-cell probability rounds to {p}")
    m1 = geometric_moment(p, alpha, tol)
    m2 = 1.0 if q == 1.0 else geometric_moment(q, alpha, tol)
    if moments is not None:
        moments[a] = m1, m2
    return (2.0 * c2 * a) ** alpha * (1.0 + (m1 + m2) / (a * a))


def _c2_scan(alpha: float, delta: float, tol: float):
    """C2(A) at c2 = 1 with its interval bound, as ``_optimize`` takes them.
    The bound reads the moments the objective recorded at the two ends; it
    is the module docstring's, through 2^alpha A^(alpha-2) = (2A)^alpha / A^2,
    widened by ``_BOUND_MARGIN``."""
    moments: dict[float, tuple[float, float]] = {}

    def c2(a: float) -> float:
        return _c2_formula(a, alpha, delta, 1.0, tol, moments)

    def bound(a0: float, a1: float) -> float:
        pow0, pow1 = (2.0 * a0) ** alpha, (2.0 * a1) ** alpha
        lb = pow0 + min(pow0 / (a0 * a0), pow1 / (a1 * a1)) * (moments[a1][0] + moments[a0][1])
        return lb * (1.0 - _BOUND_MARGIN)

    return c2, bound


def deviation_constants(mp: ModelParams, a: float, tol: float = 1e-9) -> tuple[float, float]:
    """The lower/upper deviation constants (C1(A), C2(A)) of ``_c1_formula``
    and ``_c2_formula``."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    return (_c1_formula(a, mp.alpha, mp.eps1, mp.eps2, mp.c1),
            _c2_formula(a, mp.alpha, mp.delta, mp.c2, tol))


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


def _optimize(f, a_max: float, grid_points: int, refine_tol: float, bound):
    """Minimize f over (0, a_max]: a bounded grid scan plus golden-section
    refinement around the best grid point.  Returns (argmin, min).  A grid
    point at which f raises SeriesConvergenceError is left out of the scan
    (such points sit far from the optimum by construction).

    The scan evaluates every ``_SCAN_STRIDE``-th grid point and the last,
    then takes the open intervals between evaluated points in increasing
    order of ``bound(a0, a1)``.  Once f has returned finite values at both
    ends (an end that did not gives no bound), f over [a0, a1] must either
    return at least that bound or raise SeriesConvergenceError.  The scan
    splits an interval at its midpoint while its bound does not exceed the
    best value found; once the least bound left does, every point left is
    dropped unevaluated, so the argmin and its value (first-index ties
    included) are those of a full scan, which evaluates f at every grid
    point."""
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    grid = np.linspace(a_max / grid_points, a_max, grid_points).tolist()
    vals = [math.inf] * grid_points
    least = math.inf

    def evaluate(i: int) -> None:
        nonlocal least
        try:
            vals[i] = f(grid[i])
        except SeriesConvergenceError:
            return  # left at inf, as a full scan leaves it
        least = min(least, vals[i])

    def interval(i: int, j: int) -> tuple[float, int, int]:
        ends_ok = math.isfinite(vals[i]) and math.isfinite(vals[j])
        return (bound(grid[i], grid[j]) if ends_ok else -math.inf), i, j

    marks = list(range(0, grid_points - 1, _SCAN_STRIDE)) + [grid_points - 1]
    for i in marks:
        evaluate(i)
    heap = [interval(i, j) for i, j in zip(marks, marks[1:]) if j - i > 1]
    heapq.heapify(heap)
    while heap and heap[0][0] <= least:
        _, i, j = heapq.heappop(heap)
        m = (i + j) // 2
        evaluate(m)
        for lo, hi in ((i, m), (m, j)):
            if hi - lo > 1:
                heapq.heappush(heap, interval(lo, hi))
    if not any(map(math.isfinite, vals)):
        raise ValueError("objective could not be evaluated anywhere on the search grid")
    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]
    if best == 0:
        lo = grid[0] * 0.5
    arg, val = _golden_section(f, lo, hi, refine_tol)
    if vals[best] < val:  # grid point was already better than the refined midpoint
        arg, val = grid[best], vals[best]
    return float(arg), float(val)


def beta_bounds(
    alpha: float,
    eps1: float,
    eps2: float,
    a_max: float = 5.0,
    grid_points: int = 512,
    refine_tol: float = 1e-10,
) -> tuple[BetaResult, BetaResult]:
    """The bracket constants (beta_low, beta_up) with their optimizing A.

    beta_low maximizes C1(A) and beta_up minimizes C2(A), both with unit
    weight constants c1 = c2 = 1, over A in (0, a_max]; C2's moments are
    taken to 1e-9, and grid points where they cannot be computed are left
    out.  Both scans are bounded (module docstring) and return the full
    scan's result bit for bit.
    """
    if not (0.0 < alpha < math.inf and 0.0 < a_max < math.inf):
        raise ValueError("alpha and a_max must be positive and finite")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    # rejects bad bounds before scanning
    delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
    neg_c1, c1_bound = _c1_scan(alpha, eps1, eps2)
    arg_lo, neg_lo = _optimize(neg_c1, a_max, grid_points, refine_tol, c1_bound)
    c2, c2_bound = _c2_scan(alpha, delta, 1e-9)
    arg_up, val_up = _optimize(c2, a_max, grid_points, refine_tol, c2_bound)
    return BetaResult(-neg_lo, arg_lo), BetaResult(val_up, arg_up)


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
