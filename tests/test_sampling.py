import math

import numpy as np
import pytest

from powertsp.sampling import (
    _draw_points,
    build_density,
    density_from_dict,
    make_rng,
    sample_binomial,
)


def test_uniform_density():
    d = build_density("uniform", 1.0, 1.0)
    assert d.integral() == 1.0
    pts = np.array([[0.0, 0.0], [-0.5, 0.5], [0.49, -0.49]])
    assert np.all(d.value(pts) == 1.0)


def test_uniform_density_rejects_bounds_not_bracketing_one():
    with pytest.raises(ValueError):
        build_density("uniform", 1.2, 1.5)
    with pytest.raises(ValueError):
        build_density("uniform", 0.2, 0.9)


def test_checkerboard_2x2_needs_no_rescale():
    d = build_density("checkerboard", 0.5, 1.5, 2)
    assert d.integral() == pytest.approx(1.0, abs=1e-12)
    assert sorted(np.unique(d.grid)) == [0.5, 1.5]
    # top-left cell carries the low value
    assert d.value(np.array([[-0.25, 0.25]]))[0] == 0.5
    assert d.value(np.array([[0.25, 0.25]]))[0] == 1.5


def test_checkerboard_3x3_rescales_within_bounds():
    # 5 low cells, 4 high: pin high at 1.5, solve low = (9 - 6)/5 = 0.6
    d = build_density("checkerboard", 0.5, 1.5, 3)
    assert d.integral() == pytest.approx(1.0, abs=1e-12)
    vals = np.unique(d.grid)
    assert vals.min() == pytest.approx(0.6, abs=1e-12)
    assert vals.max() == pytest.approx(1.5, abs=1e-12)
    assert vals.min() >= d.eps1 - 1e-12 and vals.max() <= d.eps2 + 1e-12


def test_checkerboard_impossible_normalization():
    with pytest.raises(ValueError):
        build_density("checkerboard", 1.1, 1.5, 2)  # every value above 1
    with pytest.raises(ValueError):
        build_density("checkerboard", 0.2, 0.8, 2)  # every value below 1
    with pytest.raises(ValueError):
        build_density("checkerboard", 0.5, 1.5, 0)
    with pytest.raises(ValueError):
        build_density("nonuniform", 0.5, 1.5, 2)
    with pytest.raises(ValueError):
        build_density("uniform", 1.5, 0.5)


def test_density_from_dict_roundtrip():
    d = density_from_dict({"kind": "checkerboard", "eps1": 0.5, "eps2": 1.5, "k": 2})
    assert d.kind == "checkerboard" and d.k == 2


def test_sample_binomial_empty_and_exact_count():
    d = build_density("uniform", 1.0, 1.0)
    s0 = sample_binomial(d, 0, seed=1)
    assert s0.n == 0
    s = sample_binomial(d, 137, seed=1)
    assert s.n == 137
    assert np.all(s.points >= -0.5) and np.all(s.points <= 0.5)


def test_sample_binomial_reproducible():
    d = build_density("checkerboard", 0.5, 1.5, 2)
    a = sample_binomial(d, 500, seed=42, stream=(3, 7))
    b = sample_binomial(d, 500, seed=42, stream=(3, 7))
    assert np.array_equal(a.points, b.points)
    c = sample_binomial(d, 500, seed=42, stream=(3, 8))
    assert not np.array_equal(a.points, c.points)


def test_sample_binomial_no_exact_duplicates():
    d = build_density("uniform", 1.0, 1.0)
    s = sample_binomial(d, 2000, seed=9)
    assert len({(x, y) for x, y in s.points}) == 2000


def test_quadrant_counts_uniform():
    # each quadrant ~ Binomial(10^4, 1/4): stay within 4 sigma of 2500
    d = build_density("uniform", 1.0, 1.0)
    s = sample_binomial(d, 10_000, seed=5)
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for sx in (-1, 1):
        for sy in (-1, 1):
            count = int(np.sum((np.sign(s.points[:, 0] + 1e-12) == sx) & (np.sign(s.points[:, 1] + 1e-12) == sy)))
            assert abs(count - 2500) < 4 * sigma


def test_checkerboard_cell_ratio():
    # heavy cells carry 3x the light-cell mass: counts approx 3750 vs 1250 per cell
    d = build_density("checkerboard", 0.5, 1.5, 2)
    s = sample_binomial(d, 10_000, seed=6)
    vals = d.value(s.points)
    heavy = int(np.sum(vals == 1.5))
    light = 10_000 - heavy
    p_heavy = 0.75
    sigma = math.sqrt(10_000 * p_heavy * (1 - p_heavy))
    assert abs(heavy - 7500) < 4 * sigma
    assert heavy > 2.5 * light


def test_cell_frequencies_respect_chernoff_band():
    # counts on a 5x5 grid are Binomial(n, 1/25) sums: a band whose Chernoff
    # failure bound is ~e^-20 must hold across every cell of one draw
    from powertsp.bounds import chernoff_tail
    from powertsp.geometry import build_tiling, cell_index_array

    n = 10_000
    d = build_density("uniform", 1.0, 1.0)
    s = sample_binomial(d, n, seed=21)
    tiling = build_tiling(25, 1.0)
    counts = np.bincount(cell_index_array(tiling, s.points), minlength=26)[1:]
    mu = 1.0 / 25.0
    eps = 0.45
    assert chernoff_tail(n, mu, eps) < 1e-8
    assert np.all(counts <= n * mu * (1 + eps))
    assert np.all(counts >= n * mu * (1 - eps))


def test_validation():
    d = build_density("uniform", 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_binomial(d, -1, seed=0)


def test_make_rng_streams_disjoint():
    a = make_rng(1, (2, 3)).uniform(size=8)
    b = make_rng(1, (2, 4)).uniform(size=8)
    assert not np.array_equal(a, b)


class CountingRng:
    """A real generator's draws, passed through and counted."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, low, high, size):
        self.calls += 1
        return self.rng.uniform(low, high, size=size)


@pytest.mark.parametrize("desc", [("uniform", 1.0, 1e12, None),
                                  ("checkerboard", 0.5, 1e12, 2),
                                  ("checkerboard", 0.2, 3.0, 3)])
def test_rejection_runs_against_the_density_maximum(desc):
    # a loose eps2 must not shrink the acceptance rate: each batch draws
    # 1.3 * count candidates, of which 1 / max(density) are kept, so a
    # maximum of at most 2 needs at most two batches (against eps2, the last
    # case needs three and the others about 1e12)
    d = build_density(*desc)
    rng = CountingRng(31)
    pts = _draw_points(d, 4096, rng)
    assert pts.shape == (4096, 2)
    assert rng.calls % 2 == 0 and rng.calls // 2 <= 2  # two draws per batch


def test_rescaled_checkerboard_keeps_its_cell_masses():
    # high value rescaled to 2 below eps2 = 3: high cells carry 4 * 2 / 9
    d = build_density("checkerboard", 0.2, 3.0, 3)
    assert d.grid.max() == 2.0
    n = 10_000
    heavy = int(np.sum(d.value(sample_binomial(d, n, seed=32).points) == 2.0))
    p = 8.0 / 9.0
    assert abs(heavy - n * p) < 4 * math.sqrt(n * p * (1 - p))


# Reference: the point-at-a-time dedupe loop with a seen set.  The array
# dedupe keeps the first occurrence of each point in the same draw order, so
# on densities whose maximum is eps2 both take the same batches and return
# the same bytes.


def reference_draw_points(d, count, rng):
    out = np.empty((count, 2), dtype=np.float64)
    seen = set()
    filled = 0
    batch = max(64, int(1.3 * count))
    while filled < count:
        cand = rng.uniform(-0.5, 0.5, size=(batch, 2))
        accept = rng.uniform(0.0, 1.0, size=batch) * d.eps2 <= d.value(cand)
        for row in cand[accept]:
            key = (row[0], row[1])
            if key in seen:
                continue
            seen.add(key)
            out[filled] = row
            filled += 1
            if filled == count:
                break
    return out


class LatticeRng(CountingRng):
    """Candidates on a lattice of ``levels`` values per axis, so points
    repeat exactly; acceptance draws stay continuous."""

    def __init__(self, seed, levels):
        super().__init__(seed)
        self.levels = levels

    def uniform(self, low, high, size):
        if isinstance(size, tuple):
            self.calls += 1
            return self.rng.integers(0, self.levels, size=size) / self.levels - 0.5
        return super().uniform(low, high, size)


@pytest.mark.parametrize("levels,count,min_batches", [
    (4, 16, 1),        # 64 candidates over 16 points: repeats within a batch
    (8, 64, 3),        # every lattice point: repeats across several batches
    (16, 150, 2),
    (2**20, 1000, 1),  # rare repeats; count is reached partway through a batch
])
@pytest.mark.parametrize("desc", [("uniform", 1.0, 1.0, None), ("checkerboard", 0.5, 1.5, 2)])
def test_draw_points_dedupe_matches_reference(levels, count, min_batches, desc):
    d = build_density(*desc)
    assert (1.0 if d.grid is None else d.grid.max()) == d.eps2
    got_rng, ref_rng = LatticeRng(33, levels), LatticeRng(33, levels)
    got = _draw_points(d, count, got_rng)
    ref = reference_draw_points(d, count, ref_rng)
    assert got.tobytes() == ref.tobytes()
    assert got_rng.calls == ref_rng.calls >= 2 * min_batches
