"""Explicit constants and inequalities of the model, evaluated numerically.

Covers the dense-cell probability, fractional moments of geometric random
variables (a series with a certified tail bound, or Lindelöf's expansion of
the polylogarithm where the series would be long), the deviation
constants C1(A) and C2(A), the bracket constants beta_low / beta_up obtained
by optimizing over the cell-size parameter A, and the Bernstein/Chernoff
tail estimate used to sanity-check empirical frequencies.

beta_up's grid scan is bounded.  Each piece of

    C2(A) = (2A)^alpha + 2^alpha A^(alpha-2) (M1 + M2)

is monotone in A: M1 = E T~^alpha falls as the dense-cell probability p
rises, M2 = E T^^alpha rises as 1 - p falls, (2A)^alpha rises and
A^(alpha-2) is monotone.  So between two evaluated grid points A0 < A1,

    C2 >= (2A0)^alpha + 2^alpha min(A0^(alpha-2), A1^(alpha-2)) (M1(A1) + M2(A0)),

from moments already computed at the two ends.  The scan evaluates every
``_SCAN_STRIDE``-th grid point and the last, then splits at its midpoint
every interval whose bound, shrunk by ``_C2_BOUND_MARGIN``, does not exceed
the best value found so far; the others are dropped, and every point in
them has a computed C2 strictly above the minimum.  A dropped point is
counted as skipped only where it would be: it is evaluated unless it passes
the dense-cell test and ``_finite_moment_floor`` certifies both of its
moments finite.  The result is the full scan's, bit for bit.
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
# The bounded C2 scan first evaluates every 32nd grid point (17 of 512).
# On the default beta curve a stride of 16 makes 1648 moment calls, 32
# makes 1438 and 64 makes 1340, so strides past 32 save little.
_SCAN_STRIDE = 32
# C2's interval bound is shrunk by this relative margin before it is
# compared with a computed C2.  The computed moments are within tol = 1e-9
# of theirs on values >= 1, and rounding in p, q, the powers and the sums
# adds about 1e-13, so computed C2 values and bounds are within 1e-8 of
# the true ones, far inside 1e-6.
_C2_BOUND_MARGIN = 1e-6
# geometric_moment is certified finite by Lindelöf's expansion for alpha in
# this range, where Gamma(1+alpha) t^-(alpha+1) < e^_EXPANSION_LOG_MAX
_CERTIFIED_ALPHA_MIN = 2.0**-20
_CERTIFIED_ALPHA_MAX = 8.0
_EXPANSION_LOG_MAX = 700.0
# s >= 1 - 1/e, that is t = -log(1-s) >= 1, where the series certifies
_SERIES_ALWAYS_FROM = -math.expm1(-1.0)


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


def _finite_moment_floor(alpha: float) -> float:
    """The least s from which ``geometric_moment(s, alpha, tol)`` is certified
    to return a finite value for every tol > 0, or inf where no s is.  With
    K = _SERIES_CHUNK, q = 1 - s and t = -log q:

    - The series branch is finite for alpha < 84.24: each of its K terms is
      at most K^alpha, so the sum is below K^(alpha+1) < e^709 while
      (alpha+1) log K < 709, the complement of ``geometric_moment``'s
      overflow guard.
    - Where s >= 1 - 1/e (t >= 1) and alpha < 84.24 the series serves.  Its
      ratio rho = ((K+1)/K)^alpha q is at most e^(alpha/K - 1) < e^-0.979,
      so the log tail that ``_series_certifies`` compares with log tol is
      at most log s + alpha log(K+1) - K t - log(1 - rho)
      <= alpha log 4097 - 4096 + 0.47 < -3394, below the log of every
      positive float.
    - Where s < 1 - 1/e (t < 1) either branch may serve, and for alpha in
      [_CERTIFIED_ALPHA_MIN, _CERTIFIED_ALPHA_MAX] = [2^-20, 8] Lindelöf's
      expansion is finite and settles, once
      (alpha+1) log(1/t) + lgamma(1+alpha) <= 700; as t >= s, s at or
      above the floor returned ensures that.  In ``_lindelof_moment``'s terms:
      the leading term G = Gamma(1+alpha) t^-(alpha+1) is below e^700; the
      k = 0 term is at most |sin(pi alpha/2)| zeta(1+alpha) a_0 <= pi a_0
      <= 1 (zeta(1+x) <= 1 + 1/x, which the bound on alpha keeps finite),
      and sum_k |a_k| = 2 Gamma(1+alpha) / (2 pi - t)^(1+alpha) <= 0.38, so
      with zeta(2+alpha) < 1.65 the other terms add at most 0.63.  Every
      partial value is then at most (s/q)(G + 2) < (e - 1)(e^700 + 2),
      finite.  At k = 63, |a_64| <= 2 * 72! / (64! (2 pi)^73) < 5.3e-44 (its
      largest, at alpha = 8) and the next ratio is below 73/65/(2 pi) < 0.18,
      so the remainder is below (s/q) 6.5e-44.  The full sum is
      (q/s) E T^alpha >= q/s > 1/(e-1) > 0.58, and the computed partial sum
      is within 1e-12 (G + 2) of it, the tail and rounding included, so |value| > (s/q) / 2 and the stopping test
      remainder < 2^-53 |value| holds by k = 63, within the 64 terms.
    """
    if (alpha + 1.0) * _LOG_CHUNK >= _EXP_OVERFLOW_ABOVE:
        return math.inf
    if _CERTIFIED_ALPHA_MIN <= alpha <= _CERTIFIED_ALPHA_MAX:
        return math.exp(-(_EXPANSION_LOG_MAX - math.lgamma(1.0 + alpha)) / (alpha + 1.0))
    return _SERIES_ALWAYS_FROM


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
    """C2(A) at c2 = 1 with its interval bound and certificate, as
    ``_optimize`` takes them.  The bound reads the moments the objective
    recorded at the two ends; it is the module docstring's, through
    2^alpha A^(alpha-2) = (2A)^alpha / A^2, shrunk by ``_C2_BOUND_MARGIN``.
    The certificate clears A where p lies in (0, 1) and neither moment lies
    below ``_finite_moment_floor``.  A cleared point inside an interval with
    evaluated ends cannot raise in the power or the division either: both
    are computed at the interval's ends, and (2A)^alpha <= (2 A1)^alpha and
    A^2 >= A0^2 there."""
    moments: dict[float, tuple[float, float]] = {}
    floor = _finite_moment_floor(alpha)

    def c2(a: float) -> float:
        return _c2_formula(a, alpha, delta, 1.0, tol, moments)

    def bound(a0: float, a1: float) -> float:
        pow0, pow1 = (2.0 * a0) ** alpha, (2.0 * a1) ** alpha
        lb = pow0 + min(pow0 / (a0 * a0), pow1 / (a1 * a1)) * (moments[a1][0] + moments[a0][1])
        return lb * (1.0 - _C2_BOUND_MARGIN)

    def certified(a: float) -> bool:
        p, q = _dense_split(delta * a * a)
        return 0.0 < p < 1.0 and p >= floor and (q == 1.0 or q >= floor)

    return c2, bound, certified


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


def _optimize(f, a_max: float, grid_points: int, refine_tol: float, bound=None, certified=None):
    """Minimize f over (0, a_max]: a grid scan plus golden-section refinement
    around the best grid point.  Returns (argmin, min, skipped), where
    skipped counts the grid points at which f raises SeriesConvergenceError
    (they sit far from the optimum by construction).

    Without ``bound`` every grid point is evaluated.  With it the scan
    evaluates every ``_SCAN_STRIDE``-th grid point and the last, then takes
    the open intervals between evaluated points in increasing order of
    ``bound(a0, a1)``, a lower bound on every computed f over [a0, a1] once
    f has returned finite values at both ends (an end that did not gives
    no bound).  It splits an interval at its midpoint while its bound does
    not exceed the best value found; once the least bound left does, every
    point left lies strictly above the minimum and is dropped.  A dropped
    point is still evaluated unless ``certified(a)`` says that f does not
    raise there, so the argmin, its value (first-index ties included) and
    the skip count are the full scan's."""
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    grid = np.linspace(a_max / grid_points, a_max, grid_points).tolist()
    vals = [math.inf] * grid_points
    skipped = 0
    least = math.inf

    def evaluate(i: int) -> None:
        nonlocal skipped, least
        try:
            vals[i] = f(grid[i])
        except SeriesConvergenceError:
            skipped += 1
        else:
            least = min(least, vals[i])

    def interval(i: int, j: int) -> tuple[float, int, int]:
        ends_ok = math.isfinite(vals[i]) and math.isfinite(vals[j])
        return (bound(grid[i], grid[j]) if ends_ok else -math.inf), i, j

    stride = 1 if bound is None else _SCAN_STRIDE
    marks = list(range(0, grid_points - 1, stride)) + [grid_points - 1]
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
    for _, i, j in heap:
        for k in range(i + 1, j):
            if not certified(grid[k]):
                evaluate(k)
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
    return float(arg), float(val), skipped


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
    taken to 1e-9.  C1 is closed-form and scanned at every grid point.
    C2's scan is bounded (module docstring): an interval between evaluated
    points is dropped once its monotone lower bound, shrunk by the margin
    1e-6, exceeds the best value found, and a dropped point is evaluated
    all the same unless its moments are certified finite, so both results
    equal a full scan's bit for bit, skipped_points included.
    """
    if not (0.0 < alpha < math.inf and 0.0 < a_max < math.inf):
        raise ValueError("alpha and a_max must be positive and finite")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    # rejects bad bounds before scanning
    delta = ModelParams(eps1=eps1, eps2=eps2, alpha=alpha).delta
    arg_lo, neg_lo, sk_lo = _optimize(
        lambda a: -_c1_formula(a, alpha, eps1, eps2, 1.0), a_max, grid_points, refine_tol)
    c2, bound, certified = _c2_scan(alpha, delta, 1e-9)
    arg_up, val_up, sk_up = _optimize(c2, a_max, grid_points, refine_tol, bound, certified)
    low = BetaResult(value=-neg_lo, arg_a=arg_lo, skipped_points=sk_lo)
    up = BetaResult(value=val_up, arg_a=arg_up, skipped_points=sk_up)
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
