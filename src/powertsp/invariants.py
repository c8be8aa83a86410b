"""Randomized invariant suite for the solver stack.

Each property draws its own reproducible instances (seeded per property and
case) and checks a structural relation exhaustively at small n: solver
agreement, constructive-tour dominance, cycle subadditivity under
concatenation, metric monotonicity, the one-node-removal bound, exact
scaling under linear weight functions, shift growth bounded by h0^alpha,
and the Euclidean sandwich.  The CLI `verify` subcommand and the acceptance
suite both run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import build_tiling
from .sampling import make_rng
from .solvers import grid_tour, tsp_bruteforce, tsp_exact, two_opt
from .weights import BUILTIN_KINDS, ROOT2, make_weight_function

ALPHAS = (0.5, 1.0, 1.5, 2.0)
MAX_N = 16  # dominance draws up to max_n nodes; the other properties fewer


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"{status} {self.name} (cases={self.cases}){extra}"


def _points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, size=(n, 2))


def _rel_tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


def _instance(rng: np.random.Generator, case: int, lo: int, top: int, kinds=BUILTIN_KINDS):
    """The case's weight function and alpha, each cycling with the case,
    and its n uniform points, n cycling through lo..top."""
    wf = make_weight_function(kinds[case % len(kinds)])
    n = lo + case % max(1, top - lo + 1)
    return wf, ALPHAS[case % 4], _points(rng, n)


def check_oracle_equivalence(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Subset DP and permutation scan agree in weight and canonical order."""
    wf, alpha, pts = _instance(rng, case, 5, min(max_n, 9))
    a = tsp_exact(pts, wf, alpha)
    b = tsp_bruteforce(pts, wf, alpha)
    if abs(a.weight - b.weight) > _rel_tol(b.weight):
        return f"weights differ at case {case}: {a.weight} vs {b.weight}"
    if a.order != b.order:
        return f"orders differ at case {case}: {a.order} vs {b.order}"
    return None


def check_dominance(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Constructive tour and its 2-opt polish never beat the exact tour."""
    wf, alpha, pts = _instance(rng, case, 4, max_n)
    tiling = build_tiling(len(pts), 1.0)
    exact = tsp_exact(pts, wf, alpha)
    g = grid_tour(pts, wf, alpha, tiling)
    if g.weight < exact.weight - _rel_tol(exact.weight):
        return f"grid tour beat the optimum at case {case}"
    p = two_opt(pts, g, wf, alpha)
    if p.weight < exact.weight - _rel_tol(exact.weight):
        return f"polished tour beat the optimum at case {case}"
    if p.weight > g.weight + _rel_tol(g.weight):
        return f"2-opt increased the weight at case {case}"
    return None


def check_subadditivity(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Concatenating two node sets costs at most the two tours plus two
    maximal cross edges: TSP(xy) <= TSP(x) + TSP(y) + (c2 sqrt(2))^alpha."""
    wf = make_weight_function(BUILTIN_KINDS[case % 3])
    alpha = ALPHAS[case % 4]
    total = min(6 + case % 9, 14)
    j = int(rng.integers(2, total - 1))  # both parts keep at least 2 nodes
    k = total - j
    pts = _points(rng, total)
    whole = tsp_exact(pts, wf, alpha).weight
    first = tsp_exact(pts[:j], wf, alpha).weight
    second = tsp_exact(pts[j:], wf, alpha).weight
    cap = first + second + (wf.c2 * ROOT2) ** alpha
    if whole > cap + _rel_tol(cap):
        return f"case {case}: {whole} > {cap} (j={j}, k={k})"
    return None


def check_metric_monotonicity(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """For metric weights and alpha <= 1 the optimal weight grows with every
    added node."""
    top = min(max_n, 10)
    wf = make_weight_function(BUILTIN_KINDS[case % 3])
    alpha = (0.5, 0.75, 1.0)[case % 3]
    pts = _points(rng, top)
    prev = tsp_exact(pts[:2], wf, alpha).weight
    for j in range(3, top + 1):
        cur = tsp_exact(pts[:j], wf, alpha).weight
        if cur < prev - _rel_tol(prev):
            return f"case {case}: weight dropped at j={j}"
        prev = cur
    return None


def check_one_node_removal(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Dropping a node and bridging its tour neighbors bounds the smaller
    optimum: TSP without j <= TSP + c2^alpha d^alpha(neighbors of j)."""
    wf, alpha, pts = _instance(rng, case, 5, min(max_n + 2, 12))
    full = tsp_exact(pts, wf, alpha)
    order = full.order
    for pos, j in enumerate(order):
        u = order[pos - 1]
        v = order[(pos + 1) % len(order)]
        d = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
        cap = full.weight + (wf.c2**alpha) * d**alpha
        reduced = tsp_exact(np.delete(pts, j, axis=0), wf, alpha).weight
        if reduced > cap + _rel_tol(cap):
            return f"case {case}: removing {j} gave {reduced} > {cap}"
    return None


def check_scaling(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Linear weight kinds: shrinking all nodes by a scales the optimum by
    a^alpha and keeps the same optimal order."""
    wf, alpha, pts = _instance(rng, case, 5, min(max_n, 10), ("euclidean", "radial_metric"))
    base = tsp_exact(pts, wf, alpha)
    for a in (0.5, 0.25):
        scaled = tsp_exact(a * pts, wf, alpha)
        if abs(scaled.weight - a**alpha * base.weight) > _rel_tol(base.weight):
            return f"case {case}: a={a} weight mismatch"
        if scaled.order != base.order:
            return f"case {case}: a={a} order changed"
    return None


def check_translation(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """Radial weights: a common shift grows the optimum by at most
    h0^alpha."""
    wf, alpha, pts = _instance(rng, case, 5, min(max_n, 10), ("radial_metric",))
    pts = 0.5 * pts  # confined so the shift stays in-domain
    shift = rng.uniform(-0.25, 0.25, size=2)
    base = tsp_exact(pts, wf, alpha).weight
    shifted = tsp_exact(pts + shift, wf, alpha).weight
    cap = wf.h0**alpha * base
    if shifted > cap + _rel_tol(cap):
        return f"case {case}: {shifted} > {cap}"
    return None


def check_euclidean_sandwich(rng: np.random.Generator, case: int, max_n: int) -> str | None:
    """c1^alpha TSP_euclidean <= TSP_h <= c2^alpha TSP_euclidean on the same
    node set."""
    eu, alpha, pts = _instance(rng, case, 5, min(max_n, 10), ("euclidean",))
    base = tsp_exact(pts, eu, alpha).weight
    for kind in ("coordinate_metric", "radial_metric"):
        wf = make_weight_function(kind)
        w = tsp_exact(pts, wf, alpha).weight
        lo = wf.c1**alpha * base
        hi = wf.c2**alpha * base
        if not (lo - _rel_tol(lo) <= w <= hi + _rel_tol(hi)):
            return f"case {case}: {kind} weight {w} outside [{lo}, {hi}]"
    return None


# (name, check) in report order; a check's 1-based position keys its streams.
PROPERTY_CHECKS = (
    ("oracle_equivalence", check_oracle_equivalence),
    ("dominance", check_dominance),
    ("subadditivity", check_subadditivity),
    ("metric_monotonicity", check_metric_monotonicity),
    ("one_node_removal", check_one_node_removal),
    ("scaling", check_scaling),
    ("translation", check_translation),
    ("euclidean_sandwich", check_euclidean_sandwich),
)


def run_invariant_suite(max_n: int = 9, instances: int = 200, seed: int = 7) -> list[PropertyResult]:
    """Run every property check on its own reproducible cases, drawn from
    the stream (seed, (position, case)); a property stops at its first
    failing case.  Results keep the declaration order."""
    if max_n < 5:
        raise ValueError("max_n must be >= 5")
    if max_n > MAX_N:
        raise ValueError(f"max_n must be <= {MAX_N}, the largest instance any property draws, "
                         f"got {max_n}")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    results = []
    for position, (name, check) in enumerate(PROPERTY_CHECKS, start=1):
        for case in range(instances):
            detail = check(make_rng(seed, (position, case)), case, max_n)
            if detail is not None:
                results.append(PropertyResult(name, False, case + 1, detail))
                break
        else:
            results.append(PropertyResult(name, True, instances))
    return results
