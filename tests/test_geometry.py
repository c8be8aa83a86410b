import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertsp.geometry import build_tiling, cell_bounds, cell_index_array, check_in_square


def test_build_tiling_exact_fit():
    t = build_tiling(100, 1.0)
    assert t.a_effective == pytest.approx(1.0, abs=1e-12)
    assert t.cells_per_side == 10
    assert t.cell_count == 100
    assert t.within_window


def test_build_tiling_nudges_up():
    # smallest A' >= 1 with sqrt(90)/A' integral: k = 9, A' = sqrt(90)/9
    t = build_tiling(90, 1.0)
    assert t.cells_per_side == 9
    assert t.a_effective == pytest.approx(1.0540925533894598, rel=1e-12)
    assert t.a_effective >= t.a_nominal
    assert t.within_window  # 1/ln(90) ~ 0.222 leaves room


def test_build_tiling_single_cell():
    t = build_tiling(16, 4.0)
    assert t.cells_per_side == 1
    assert t.cell_count == 1
    assert t.a_effective == pytest.approx(4.0)


def test_build_tiling_flags_window_violation():
    # n=5, a=1.5: forced up to sqrt(5) ~ 2.236, beyond a + 1/ln(5) ~ 2.121
    t = build_tiling(5, 1.5)
    assert t.cells_per_side == 1
    assert t.a_effective == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert not t.within_window


def test_build_tiling_rejects_oversized_a():
    with pytest.raises(ValueError):
        build_tiling(16, 4.5)
    with pytest.raises(ValueError):
        build_tiling(4, -1.0)
    with pytest.raises(ValueError):
        build_tiling(0, 1.0)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="a must be positive and finite"):
            build_tiling(16, a)
    # k^2 serpentine labels fit in int64 up to k = isqrt(2^63 - 1)
    k_max = 3_037_000_499
    assert build_tiling(1, 1.0 / k_max).cells_per_side == k_max
    for n, a in ((1, 1.0 / (k_max + 1)), (5, 1e-10), (5, 1e-320)):
        with pytest.raises(ValueError, match=f"a={a} is too small for n={n}"):
            build_tiling(n, a)


def test_tiling_partitions_unit_side():
    for n, a in [(100, 1.0), (90, 1.0), (17, 1.3), (1024, 2.0)]:
        t = build_tiling(n, a)
        assert t.cells_per_side * t.cell_side == pytest.approx(1.0, abs=1e-12)
        assert t.cell_count == t.cells_per_side**2


def test_serpentine_labels_2x2():
    t = build_tiling(4, 1.0)
    assert t.cells_per_side == 2
    pts = [(-0.25, 0.25),   # top-left
           (-0.25, -0.25),  # below it
           (0.25, -0.25),   # to the right (second column goes up)
           (0.25, 0.25)]
    assert cell_index_array(t, pts).tolist() == [1, 2, 3, 4]


def test_cell_index_boundary_conventions():
    t = build_tiling(4, 1.0)
    pts = [(0.0, 0.25),   # interior vertical boundary belongs to the right cell (half-open in x)
           (-0.25, 0.0),  # interior horizontal boundary belongs to the lower cell (cells closed at their top)
           (0.5, 0.5),    # outer edges are closed
           (-0.5, -0.5),
           (0.5, -0.5)]
    assert cell_index_array(t, pts).tolist() == [4, 2, 4, 2, 3]
    with pytest.raises(ValueError):
        cell_index_array(t, [(0.500001, 0.0)])


# NaN, infinities and points just off the square; NaN fails every comparison
OFF_SQUARE = [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0), (0.0, -math.inf),
              (0.6, 0.0), (0.0, -0.500001)]


@pytest.mark.parametrize("bad", OFF_SQUARE)
def test_off_square_points_are_rejected(bad):
    coords = np.array([(0.0, 0.0), (0.25, -0.25), bad, (-0.5, 0.5)])
    with pytest.raises(ValueError, match="point outside the unit square"):
        check_in_square(coords)
    with pytest.raises(ValueError, match="point outside the unit square"):
        cell_index_array(build_tiling(4, 1.0), coords)


def test_square_edges_and_corners_pass():
    side = np.linspace(-0.5, 0.5, 5)
    coords = np.array([(x, y) for x in side for y in (-0.5, 0.5)]
                      + [(x, y) for x in (-0.5, 0.5) for y in side])
    check_in_square(coords)
    check_in_square(np.empty((0, 2)))
    labels = cell_index_array(build_tiling(4, 1.0), coords)
    assert set(labels.tolist()) == {1, 2, 3, 4}


def test_partition_property_exhaustive():
    # every sampled point, boundary points included, maps to exactly one cell
    t = build_tiling(9, 1.0)
    xs = np.linspace(-0.5, 0.5, 31)
    grid = np.array([(x, y) for x in xs for y in xs])
    labels = cell_index_array(t, grid)
    assert labels.min() >= 1 and labels.max() <= t.cell_count
    # reverse check: each point lies in its reported cell's extent
    for (x, y), lab in zip(grid, labels):
        x0, x1, y0, y1 = cell_bounds(t, int(lab))
        assert x0 - 1e-12 <= x <= x1 + 1e-12
        assert y0 - 1e-12 <= y <= y1 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    st.integers(min_value=2, max_value=12),
)
def test_partition_property_random(x, y, k):
    # containment up to float rounding of the boundary arithmetic
    t = build_tiling(k * k, 1.0)
    lab = int(cell_index_array(t, [(x, y)])[0])
    x0, x1, y0, y1 = cell_bounds(t, lab)
    assert x0 - 1e-12 <= x <= x1 + 1e-12
    assert y0 - 1e-12 <= y <= y1 + 1e-12


def test_cell_bounds_rejects_labels_out_of_range():
    t = build_tiling(9, 1.0)
    for label in (0, 10):
        with pytest.raises(ValueError, match=r"cell label -?\d+ out of range 1..9"):
            cell_bounds(t, label)


def test_consecutive_labels_share_an_edge():
    for k in (2, 3, 4, 7):
        t = build_tiling(k * k, 1.0)
        for lab in range(1, t.cell_count):
            b1 = cell_bounds(t, lab)
            b2 = cell_bounds(t, lab + 1)
            same_col = abs(b1[0] - b2[0]) < 1e-12
            same_row = abs(b1[2] - b2[2]) < 1e-12
            if same_col:
                assert abs(b1[2] - b2[3]) < 1e-12 or abs(b1[3] - b2[2]) < 1e-12
            else:
                assert same_row and (
                    abs(b1[1] - b2[0]) < 1e-12 or abs(b1[0] - b2[1]) < 1e-12
                )
