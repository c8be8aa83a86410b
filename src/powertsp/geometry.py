"""Points in the centered unit square and the square-grid tiling with
serpentine (boustrophedon) cell labels.

The unit square is S = [-1/2, 1/2]^2.  A tiling splits S into k x k equal
cells of side 1/k where k = sqrt(n)/A(n) is forced to be an integer by
nudging the requested cell-size parameter A upward.  Cells are labelled
1..k^2 column by column, the first column top to bottom, the second bottom
to top, and so on, so that consecutive labels always share an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF = 0.5

# relative slack when deciding whether sqrt(n)/a already hits an integer
_RATIO_EPS = 1e-9


@dataclass(frozen=True)
class Tiling:
    """A k x k partition of the unit square into cells of side a_effective/sqrt(n).

    ``a_effective`` is the smallest value >= ``a_nominal`` making
    sqrt(n)/a_effective an integer; ``within_window`` records whether it also
    fits below a_nominal + 1/ln(n) (it always does for large n, may not for
    small n).
    """

    n: int
    a_nominal: float
    a_effective: float
    cells_per_side: int
    cell_side: float
    cell_count: int
    within_window: bool


def as_coords(points) -> np.ndarray:
    """Coerce an array or a sequence of (x, y) pairs to a float64 array of
    shape (n, 2), an empty input to shape (0, 2).  Raises ValueError for any
    other shape or a non-finite coordinate."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point outside the unit square: non-finite coordinate")
    return pts


def build_tiling(n: int, a: float) -> Tiling:
    """Tile the unit square into (sqrt(n)/A)^2 cells, nudging A up so the
    cell count per side is an integer.

    Picks the smallest a_effective >= a with sqrt(n)/a_effective integral,
    i.e. cells_per_side = floor(sqrt(n)/a).  Rejects a > sqrt(n), which
    would leave no cell at all.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < a < math.inf):
        raise ValueError(f"a must be positive and finite, got {a}")
    root_n = math.sqrt(n)
    ratio = root_n / a
    if ratio < 1.0 - _RATIO_EPS:
        raise ValueError(f"a={a} exceeds sqrt(n)={root_n:.6g}: tiling would have zero cells")
    k = int(math.floor(ratio + _RATIO_EPS))
    a_eff = root_n / k
    window = (1.0 / math.log(n)) if n >= 2 else math.inf
    within = a_eff <= a + window + 1e-12
    return Tiling(
        n=n,
        a_nominal=a,
        a_effective=a_eff,
        cells_per_side=k,
        cell_side=1.0 / k,
        cell_count=k * k,
        within_window=within,
    )


def check_in_square(coords) -> None:
    """Raise ValueError unless every coordinate of a (..., 2) array lies in
    the unit square; NaN fails the test too."""
    if not np.all(np.abs(coords) <= HALF):
        raise ValueError("point outside the unit square")


def grid_col_row(coords: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column (left to right) and row (top to bottom) of the k x k grid cell
    holding each point of a (..., 2) array of unit-square coordinates.

    Cells are half-open [x0, x1) x (y0, y1] with the rightmost column and
    bottom row closed, so every point of the square lands in exactly one
    cell.  Points outside the square are not checked.
    """
    col = np.minimum(np.floor((coords[..., 0] + HALF) * k).astype(np.int64), k - 1)
    row = np.minimum(np.floor((HALF - coords[..., 1]) * k).astype(np.int64), k - 1)
    return col, row


def cell_index_array(t: Tiling, coords: np.ndarray) -> np.ndarray:
    """Serpentine cell labels (1-based) for an (m, 2) array of coordinates,
    with the cells of ``grid_col_row``."""
    coords = np.asarray(coords, dtype=np.float64)
    check_in_square(coords)
    k = t.cells_per_side
    col, row = grid_col_row(coords, k)
    pos = np.where(col % 2 == 0, row, k - 1 - row)
    return (col * k + pos + 1).astype(np.int64)


def _label_to_col_row(t: Tiling, label: int) -> tuple[int, int]:
    k = t.cells_per_side
    if not (1 <= label <= t.cell_count):
        raise ValueError(f"cell label {label} out of range 1..{t.cell_count}")
    col, pos = divmod(label - 1, k)
    row = pos if col % 2 == 0 else k - 1 - pos
    return col, row


def cell_bounds(t: Tiling, label: int) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) extent of a cell, x0 < x1 and y0 < y1."""
    col, row = _label_to_col_row(t, label)
    side = t.cell_side
    x0 = -HALF + col * side
    y1 = HALF - row * side
    return x0, x0 + side, y1 - side, y1
