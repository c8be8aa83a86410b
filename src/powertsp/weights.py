"""Edge weight functions equivalent to Euclidean distance.

A weight function h assigns every pair of unit-square points a cost squeezed
between c1*d and c2*d, d the Euclidean distance, and must be symmetric bit
for bit: pairs are evaluated in the caller's order and never reordered.  Edge
weights raise h to a power alpha > 0.  Three built-in kinds:

  euclidean          h = d                                   c1 = c2 = 1
  coordinate_metric  h = |(1+x1)^2-(1+y1)^2| + same in x2,y2 c1 = 1, c2 = 3*sqrt(2)
  radial_metric      h = d(u,v) + |d(u,0)-d(v,0)|/2          c1 = 1, c2 = 3/2

The radial kind scales linearly (h(au,av) = a*h(u,v)) and grows at most by
h0 = 3/2 under a common shift of both endpoints; the coordinate kind does
neither.  All three are bit-symmetric since fl(a - b) = -fl(b - a).  Custom
weight functions declare their own constants and are vetted numerically, bit
symmetry included, by verify_equivalence before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import as_coords

ROOT2 = math.sqrt(2.0)

BUILTIN_KINDS = ("euclidean", "coordinate_metric", "radial_metric")


def check_alpha(alpha: float) -> float:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"edge weight exponent must be a positive real, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class WeightFunction:
    """A pairwise cost h with its equivalence constants.

    ``func`` maps two (..., 2) coordinate arrays to elementwise costs and
    must be symmetric bit for bit, which ``verify_equivalence`` checks.
    ``h0`` is the shift-growth constant (None when unknown);
    ``scale_invariant`` records whether h(au, av) = a*h(u, v).
    """

    kind: str
    c1: float
    c2: float
    is_metric: bool
    h0: float | None = None
    scale_invariant: bool = False
    func: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False, default=None)

    def h_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized costs for two broadcastable (..., 2) coordinate arrays,
        in the caller's order: the one call site of ``func``, which must
        therefore be symmetric bit for bit (``verify_equivalence`` checks
        it)."""
        return self.func(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))


def _euclid(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    dx = u[..., 0] - v[..., 0]
    dy = u[..., 1] - v[..., 1]
    return np.sqrt(dx * dx + dy * dy)


def _coordinate(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    ux = 1.0 + u[..., 0]
    vx = 1.0 + v[..., 0]
    uy = 1.0 + u[..., 1]
    vy = 1.0 + v[..., 1]
    return np.abs(ux * ux - vx * vx) + np.abs(uy * uy - vy * vy)


def _radial(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    ux, uy = u[..., 0], u[..., 1]
    vx, vy = v[..., 0], v[..., 1]
    ru = np.sqrt(ux * ux + uy * uy)
    rv = np.sqrt(vx * vx + vy * vy)
    return _euclid(u, v) + 0.5 * np.abs(ru - rv)


def make_weight_function(kind: str, **params) -> WeightFunction:
    """Build one of the named weight functions, or wrap a custom one.

    Custom functions must pass func (vectorized on (..., 2) arrays and
    symmetric bit for bit), c1, c2 and may declare h0, is_metric and
    scale_invariant; the declared constants and the symmetry are the caller's
    claim and should be vetted with verify_equivalence.
    """
    if kind == "euclidean":
        return WeightFunction(kind, c1=1.0, c2=1.0, is_metric=True, h0=1.0,
                              scale_invariant=True, func=_euclid)
    if kind == "coordinate_metric":
        return WeightFunction(kind, c1=1.0, c2=3.0 * ROOT2, is_metric=True, h0=None,
                              scale_invariant=False, func=_coordinate)
    if kind == "radial_metric":
        return WeightFunction(kind, c1=1.0, c2=1.5, is_metric=True, h0=1.5,
                              scale_invariant=True, func=_radial)
    if kind == "custom":
        func = params.pop("func")
        c1 = float(params.pop("c1"))
        c2 = float(params.pop("c2"))
        if not (0.0 < c1 <= c2 < math.inf):
            raise ValueError(f"need 0 < c1 <= c2 < inf, got c1={c1}, c2={c2}")
        h0 = params.pop("h0", None)
        if h0 is not None and not (0.0 < h0 < math.inf):
            raise ValueError(f"h0 must be positive and finite, got {h0}")
        wf = WeightFunction(
            kind="custom",
            c1=c1,
            c2=c2,
            is_metric=bool(params.pop("is_metric", False)),
            h0=h0,
            scale_invariant=bool(params.pop("scale_invariant", False)),
            func=func,
        )
        if params:
            raise ValueError(f"unknown custom weight parameters: {sorted(params)}")
        return wf
    raise ValueError(f"unknown weight kind {kind!r}; expected one of {BUILTIN_KINDS + ('custom',)}")


def edge_weight(wf: WeightFunction, alpha: float, u, v) -> float:
    """Weight h(u, v)^alpha of the edge between u and v, bit for bit the
    entry ``weight_matrix`` holds for the pair."""
    return float(edge_weight_pairs(wf, alpha, as_coords([u]), as_coords([v]))[0])


def edge_weight_pairs(wf: WeightFunction, alpha: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized h^alpha over matched rows of two coordinate arrays."""
    check_alpha(alpha)
    return wf.h_pairs(u, v) ** alpha


def weight_matrix(wf: WeightFunction, alpha: float, points) -> np.ndarray:
    """Full n x n matrix of edge weights, zero diagonal, as one broadcast.
    It serves the exact solvers (n <= 18); no heuristic builds it.

    Every ordered pair is evaluated, so W[i, j] and W[j, i] are
    bit-identical only because ``func`` is symmetric bit for bit, the
    precondition ``verify_equivalence`` checks.
    """
    check_alpha(alpha)
    pts = as_coords(points)
    mat = wf.h_pairs(pts[:, None, :], pts[None, :, :]) ** alpha
    np.fill_diagonal(mat, 0.0)
    return mat


@dataclass
class EquivalenceReport:
    """Outcome of the numerical vetting of a weight function."""

    kind: str
    samples: int
    passed: bool
    violations: list[dict]

    def summary(self) -> str:
        status = "pass" if self.passed else f"fail ({len(self.violations)} violations)"
        return f"verify_equivalence[{self.kind}] over {self.samples} samples: {status}"


def verify_equivalence(wf: WeightFunction, sample_count: int, seed: int = 0) -> EquivalenceReport:
    """Monte Carlo check of the declared constants: c1*d <= h <= c2*d,
    bit-exact symmetry, and (for metrics) the triangle inequality on sampled
    triples.

    Violations are reported with the witnessing points; up to 5 are kept
    per check.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x7E57))))
    tol = 1e-9
    u = rng.uniform(-0.5, 0.5, size=(sample_count, 2))
    v = rng.uniform(-0.5, 0.5, size=(sample_count, 2))
    d = _euclid(u, v)
    hv = wf.h_pairs(u, v)
    backward = wf.h_pairs(v, u)
    # (check, failing mask, witness points, lhs, rhs), one entry per sample
    checks = [("lower_equivalence", hv < wf.c1 * d - tol, (u, v), hv, wf.c1 * d),
              ("upper_equivalence", hv > wf.c2 * d + tol, (u, v), hv, wf.c2 * d),
              ("symmetry", hv != backward, (u, v), hv, backward)]
    if wf.is_metric:
        w = rng.uniform(-0.5, 0.5, size=(sample_count, 2))
        direct = wf.h_pairs(u, w)
        detour = hv + wf.h_pairs(v, w)
        checks.append(("triangle", direct > detour + tol, (u, v, w), direct, detour))

    violations = [{"check": check, "points": [list(p[i]) for p in pts],
                   "lhs": float(lhs[i]), "rhs": float(rhs[i])}
                  for check, bad, pts, lhs, rhs in checks for i in np.flatnonzero(bad)[:5]]
    return EquivalenceReport(kind=wf.kind, samples=sample_count,
                             passed=not violations, violations=violations)
