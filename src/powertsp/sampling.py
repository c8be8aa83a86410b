"""Bounded densities on the unit square and the binomial point process
(exactly n i.i.d. nodes) that every runner samples from.

Sampling is rejection against the density's own maximum, driven by a
counter-based Philox generator keyed on (seed, stream), so trials draw
from independent streams and every sample is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import grid_col_row

RNG_NAME = "philox"

_INTEGRAL_TOL = 1e-12


def make_rng(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Philox generator on an independent stream keyed by (seed, *stream).
    Raises ValueError for a negative seed."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + tuple(int(s) for s in stream))))


@dataclass(frozen=True)
class Density:
    """A probability density on the unit square, bounded between eps1 and eps2.

    ``grid`` holds per-cell constant values on a k x k partition (row 0 is
    the top row); None means the uniform density 1.
    """

    kind: str
    eps1: float
    eps2: float
    k: int
    grid: np.ndarray | None

    def value(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        if self.grid is None:
            return np.ones(coords.shape[:-1], dtype=np.float64)
        col, row = grid_col_row(coords, self.k)
        return self.grid[row, col]

    def integral(self) -> float:
        if self.grid is None:
            return 1.0
        return float(self.grid.mean())


@dataclass(frozen=True)
class PointSample:
    """Points drawn from the binomial process."""

    points: np.ndarray


def build_density(kind: str, eps1: float, eps2: float, k: int | None = None) -> Density:
    """Construct a bounded density integrating to one.

    ``uniform`` is the constant density 1 (requires eps1 <= 1 <= eps2).
    ``checkerboard`` alternates a low and a high value on a k x k grid,
    pinned to eps1/eps2 where possible and rescaled on one side so the
    integral is exactly 1 while both values stay inside [eps1, eps2].
    """
    if not (0.0 < eps1 <= eps2 < math.inf):
        raise ValueError(f"need 0 < eps1 <= eps2 < inf, got eps1={eps1}, eps2={eps2}")
    if kind == "uniform":
        if not (eps1 <= 1.0 <= eps2):
            raise ValueError("uniform density is constant 1; bounds must bracket 1")
        return Density(kind="uniform", eps1=eps1, eps2=eps2, k=1, grid=None)
    if kind != "checkerboard":
        raise ValueError(f"unknown density kind {kind!r}")
    if k is None or k < 1:
        raise ValueError("checkerboard density needs a grid size k >= 1")
    cells = k * k
    n_low = (cells + 1) // 2  # parity-even cells, top-left included
    n_high = cells - n_low
    if n_high == 0:
        v_low, v_high = 1.0, 1.0  # single cell: forced to the uniform value
        if not (eps1 <= 1.0 <= eps2):
            raise ValueError("cannot normalize a 1x1 checkerboard within the bounds")
    else:
        mean = (n_low * eps1 + n_high * eps2) / cells
        if abs(mean - 1.0) <= _INTEGRAL_TOL:
            v_low, v_high = eps1, eps2
        elif mean > 1.0:
            v_low = eps1
            v_high = (cells - n_low * eps1) / n_high
            if v_high < eps1 - _INTEGRAL_TOL:
                raise ValueError("checkerboard normalization impossible within the bounds (eps1 > 1)")
        else:
            v_high = eps2
            v_low = (cells - n_high * eps2) / n_low
            if v_low > eps2 + _INTEGRAL_TOL:
                raise ValueError("checkerboard normalization impossible within the bounds (eps2 < 1)")
    rows = np.arange(k)[:, None]
    cols = np.arange(k)[None, :]
    grid = np.where((rows + cols) % 2 == 0, v_low, v_high).astype(np.float64)
    d = Density(kind="checkerboard", eps1=eps1, eps2=eps2, k=k, grid=grid)
    assert abs(d.integral() - 1.0) <= 1e-9, "checkerboard normalization drifted"
    return d


def density_from_dict(desc: dict) -> Density:
    """Density from its JSON description {"kind", "eps1", "eps2", "k"}."""
    if "kind" not in desc:
        raise ValueError("density description is missing key 'kind'")
    return build_density(
        kind=desc["kind"],
        eps1=float(desc.get("eps1", 1.0)),
        eps2=float(desc.get("eps2", 1.0)),
        k=int(desc["k"]) if "k" in desc and desc["k"] is not None else None,
    )


def _draw_points(d: Density, count: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly ``count`` i.i.d. points from d via rejection against the
    density's own maximum, in batches.  Exact duplicates are dropped
    (general position): the first occurrence of each point, in draw order,
    is kept, and batches are drawn until ``count`` distinct points stand.

    Two rows can be equal only where their x coordinates are, so while the
    sorted x of the points accepted so far holds no two equal values every
    row is kept as drawn; only otherwise does one ``np.unique`` over the
    rows find the duplicates.  A continuous draw almost never repeats an x,
    so each batch costs one sort of a column of floats."""
    envelope = 1.0 if d.grid is None else float(d.grid.max())
    out = np.empty((0, 2), dtype=np.float64)
    batch = max(64, int(1.3 * count))
    while out.shape[0] < count:
        cand = rng.uniform(-0.5, 0.5, size=(batch, 2))
        accept = rng.uniform(0.0, 1.0, size=batch) * envelope <= d.value(cand)
        out = np.concatenate([out, cand[accept]])
        x = np.sort(out[:, 0])
        if (x[1:] == x[:-1]).any():
            # each row viewed as one complex number: equal rows are equal
            # numbers, and a 1-D unique sorts several times faster than one
            # over axis 0
            first = np.unique(out.view(np.complex128)[:, 0], return_index=True)[1]
            out = out[np.sort(first)]
    return out[:count]


def sample_binomial(d: Density, n: int, seed: int, stream: tuple[int, ...] = ()) -> PointSample:
    """Exactly n i.i.d. points with density d."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = make_rng(seed, stream)
    pts = _draw_points(d, n, rng) if n > 0 else np.empty((0, 2), dtype=np.float64)
    return PointSample(points=pts)
