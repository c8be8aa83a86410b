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


def check_oracle_equivalence(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Subset DP and permutation scan agree in weight and canonical order."""
    top = min(max_n, 9)
    for case in range(instances):
        rng = make_rng(seed, (1, case))
        n = 5 + case % max(1, top - 4)
        wf = make_weight_function(BUILTIN_KINDS[case % 3])
        alpha = ALPHAS[case % 4]
        pts = _points(rng, n)
        a = tsp_exact(pts, wf, alpha)
        b = tsp_bruteforce(pts, wf, alpha)
        if abs(a.weight - b.weight) > _rel_tol(b.weight):
            return PropertyResult("oracle_equivalence", False, case + 1,
                                  f"weights differ at case {case}: {a.weight} vs {b.weight}")
        if a.order != b.order:
            return PropertyResult("oracle_equivalence", False, case + 1,
                                  f"orders differ at case {case}: {a.order} vs {b.order}")
    return PropertyResult("oracle_equivalence", True, instances)


def check_dominance(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Constructive tour and its 2-opt polish never beat the exact tour."""
    top = min(max_n, 16)
    for case in range(instances):
        rng = make_rng(seed, (2, case))
        n = 4 + case % max(1, top - 3)
        wf = make_weight_function(BUILTIN_KINDS[case % 3])
        alpha = ALPHAS[case % 4]
        pts = _points(rng, n)
        tiling = build_tiling(n, 1.0)
        exact = tsp_exact(pts, wf, alpha)
        g = grid_tour(pts, wf, alpha, tiling)
        if g.weight < exact.weight - _rel_tol(exact.weight):
            return PropertyResult("dominance", False, case + 1,
                                  f"grid tour beat the optimum at case {case}")
        p = two_opt(pts, g, wf, alpha)
        if p.weight < exact.weight - _rel_tol(exact.weight):
            return PropertyResult("dominance", False, case + 1,
                                  f"polished tour beat the optimum at case {case}")
        if p.weight > g.weight + _rel_tol(g.weight):
            return PropertyResult("dominance", False, case + 1,
                                  f"2-opt increased the weight at case {case}")
    return PropertyResult("dominance", True, instances)


def check_subadditivity(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Concatenating two node sets costs at most the two tours plus two
    maximal cross edges: TSP(xy) <= TSP(x) + TSP(y) + (c2 sqrt(2))^alpha."""
    for case in range(instances):
        rng = make_rng(seed, (3, case))
        wf = make_weight_function(BUILTIN_KINDS[case % 3])
        alpha = ALPHAS[case % 4]
        total = min(6 + case % 9, 14)
        j = int(rng.integers(2, total - 1))
        k = total - j
        if k < 2:
            j, k = total - 2, 2
        pts = _points(rng, total)
        whole = tsp_exact(pts, wf, alpha).weight
        first = tsp_exact(pts[:j], wf, alpha).weight
        second = tsp_exact(pts[j:], wf, alpha).weight
        cap = first + second + (wf.c2 * ROOT2) ** alpha
        if whole > cap + _rel_tol(cap):
            return PropertyResult("subadditivity", False, case + 1,
                                  f"case {case}: {whole} > {cap} (j={j}, k={k})")
    return PropertyResult("subadditivity", True, instances)


def check_metric_monotonicity(max_n: int, instances: int, seed: int) -> PropertyResult:
    """For metric weights and alpha <= 1 the optimal weight grows with every
    added node."""
    top = min(max_n, 10)
    for case in range(instances):
        rng = make_rng(seed, (4, case))
        wf = make_weight_function(BUILTIN_KINDS[case % 3])
        alpha = (0.5, 0.75, 1.0)[case % 3]
        pts = _points(rng, top)
        prev = tsp_exact(pts[:2], wf, alpha).weight
        for j in range(3, top + 1):
            cur = tsp_exact(pts[:j], wf, alpha).weight
            if cur < prev - _rel_tol(prev):
                return PropertyResult("metric_monotonicity", False, case + 1,
                                      f"case {case}: weight dropped at j={j}")
            prev = cur
    return PropertyResult("metric_monotonicity", True, instances)


def check_one_node_removal(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Dropping a node and bridging its tour neighbors bounds the smaller
    optimum: TSP without j <= TSP + c2^alpha d^alpha(neighbors of j)."""
    top = min(max_n + 2, 12)
    for case in range(instances):
        rng = make_rng(seed, (5, case))
        wf = make_weight_function(BUILTIN_KINDS[case % 3])
        alpha = ALPHAS[case % 4]
        n = 5 + case % max(1, top - 4)
        pts = _points(rng, n)
        full = tsp_exact(pts, wf, alpha)
        order = full.order
        for pos, j in enumerate(order):
            u = order[pos - 1]
            v = order[(pos + 1) % n]
            d = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
            cap = full.weight + (wf.c2**alpha) * d**alpha
            reduced = tsp_exact(np.delete(pts, j, axis=0), wf, alpha).weight
            if reduced > cap + _rel_tol(cap):
                return PropertyResult("one_node_removal", False, case + 1,
                                      f"case {case}: removing {j} gave {reduced} > {cap}")
    return PropertyResult("one_node_removal", True, instances)


def check_scaling(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Linear weight kinds: shrinking all nodes by a scales the optimum by
    a^alpha and keeps the same optimal order."""
    top = min(max_n, 10)
    for case in range(instances):
        rng = make_rng(seed, (6, case))
        wf = make_weight_function(("euclidean", "radial_metric")[case % 2])
        alpha = ALPHAS[case % 4]
        n = 5 + case % max(1, top - 4)
        pts = _points(rng, n)
        base = tsp_exact(pts, wf, alpha)
        for a in (0.5, 0.25):
            scaled = tsp_exact(a * pts, wf, alpha)
            if abs(scaled.weight - a**alpha * base.weight) > _rel_tol(base.weight):
                return PropertyResult("scaling", False, case + 1,
                                      f"case {case}: a={a} weight mismatch")
            if scaled.order != base.order:
                return PropertyResult("scaling", False, case + 1,
                                      f"case {case}: a={a} order changed")
    return PropertyResult("scaling", True, instances)


def check_translation(max_n: int, instances: int, seed: int) -> PropertyResult:
    """Radial weights: a common shift grows the optimum by at most
    h0^alpha."""
    top = min(max_n, 10)
    wf = make_weight_function("radial_metric")
    for case in range(instances):
        rng = make_rng(seed, (7, case))
        alpha = ALPHAS[case % 4]
        n = 5 + case % max(1, top - 4)
        pts = 0.5 * _points(rng, n)  # confined so the shift stays in-domain
        shift = rng.uniform(-0.25, 0.25, size=2)
        base = tsp_exact(pts, wf, alpha).weight
        shifted = tsp_exact(pts + shift, wf, alpha).weight
        cap = wf.h0**alpha * base
        if shifted > cap + _rel_tol(cap):
            return PropertyResult("translation", False, case + 1,
                                  f"case {case}: {shifted} > {cap}")
    return PropertyResult("translation", True, instances)


def check_euclidean_sandwich(max_n: int, instances: int, seed: int) -> PropertyResult:
    """c1^alpha TSP_euclidean <= TSP_h <= c2^alpha TSP_euclidean on the same
    node set."""
    top = min(max_n, 10)
    eu = make_weight_function("euclidean")
    for case in range(instances):
        rng = make_rng(seed, (8, case))
        alpha = ALPHAS[case % 4]
        n = 5 + case % max(1, top - 4)
        pts = _points(rng, n)
        base = tsp_exact(pts, eu, alpha).weight
        for kind in ("coordinate_metric", "radial_metric"):
            wf = make_weight_function(kind)
            w = tsp_exact(pts, wf, alpha).weight
            lo = wf.c1**alpha * base
            hi = wf.c2**alpha * base
            if not (lo - _rel_tol(lo) <= w <= hi + _rel_tol(hi)):
                return PropertyResult("euclidean_sandwich", False, case + 1,
                                      f"case {case}: {kind} weight {w} outside [{lo}, {hi}]")
    return PropertyResult("euclidean_sandwich", True, instances)


PROPERTY_CHECKS = (
    check_oracle_equivalence,
    check_dominance,
    check_subadditivity,
    check_metric_monotonicity,
    check_one_node_removal,
    check_scaling,
    check_translation,
    check_euclidean_sandwich,
)


def run_invariant_suite(max_n: int = 9, instances: int = 200, seed: int = 7) -> list[PropertyResult]:
    """Run every property check; results keep the declaration order."""
    if max_n < 5:
        raise ValueError("max_n must be >= 5")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    return [check(max_n, instances, seed) for check in PROPERTY_CHECKS]
