import math
import tracemalloc
from array import array
from itertools import islice, permutations

import numpy as np
import pytest

from powertsp import solvers
from powertsp.bounds import ModelParams, deviation_constants, p_dense
from powertsp.geometry import build_tiling, cell_index_array
from powertsp.sampling import build_density, sample_binomial
from powertsp.solvers import (
    CANDIDATE_K,
    EXACT_PATH_MAX_N,
    Tour,
    _candidate_lists,
    _completion_table,
    _nn_within,
    approx_tsp_path,
    canonical_cycle,
    gap_statistics,
    grid_tour,
    min_weight_spanning_path,
    tour_weight,
    tsp_bruteforce,
    tsp_exact,
    two_opt,
)
from powertsp.weights import _euclid, edge_weight, make_weight_function, weight_matrix

ROOT2 = math.sqrt(2.0)
EU = make_weight_function("euclidean")

# unit-square corners in perimeter order
CORNERS = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]


def random_points(n, seed):
    return sample_binomial(build_density("uniform", 1.0, 1.0), n, seed).points


def full_scan_oracle(points, wf, alpha):
    """Minimum cycle weight over every permutation, reflections included."""
    n = len(points)
    best = math.inf
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        w = sum(
            edge_weight(wf, alpha, points[order[i]], points[order[(i + 1) % n]])
            for i in range(n)
        )
        best = min(best, w)
    return best


# ---------------------------------------------------------------------------
# tour weight
# ---------------------------------------------------------------------------


def test_tour_weight_perimeter():
    assert tour_weight(CORNERS, (0, 1, 2, 3), EU, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_tour_weight_crossing_order():
    # two diagonals plus two sides
    assert tour_weight(CORNERS, (0, 2, 1, 3), EU, 1.0) == pytest.approx(
        2.0 + 2.0 * ROOT2, abs=1e-12
    )


def test_tour_weight_two_nodes_doubles_edge():
    pts = [(0.0, 0.0), (0.5, 0.0)]
    assert tour_weight(pts, (0, 1), EU, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_tour_weight_validation():
    with pytest.raises(ValueError):
        tour_weight([(0.0, 0.0)], (0,), EU, 1.0)
    with pytest.raises(ValueError):
        tour_weight(CORNERS, (0, 1, 2, 2), EU, 1.0)


def test_canonical_cycle():
    assert canonical_cycle([2, 3, 0, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([0, 3, 2, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([1, 0]) == (0, 1)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------


def test_bruteforce_corners_perimeter():
    t = tsp_bruteforce(CORNERS, EU, 1.0)
    assert t.weight == pytest.approx(4.0, abs=1e-12)
    assert t.order == (0, 1, 2, 3)


def test_bruteforce_three_nodes_single_cycle():
    pts = random_points(3, seed=1)
    t = tsp_bruteforce(pts, EU, 1.0)
    total = sum(edge_weight(EU, 1.0, pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3))
    assert t.weight == pytest.approx(total, rel=1e-12)


def test_bruteforce_matches_full_scan():
    pts = random_points(7, seed=2)
    cm = make_weight_function("coordinate_metric")
    t = tsp_bruteforce(pts, cm, 0.7)
    assert t.weight == pytest.approx(full_scan_oracle(pts, cm, 0.7), rel=1e-12)


def test_bruteforce_range_check():
    with pytest.raises(ValueError):
        tsp_bruteforce(random_points(11, seed=3), EU, 1.0)
    with pytest.raises(ValueError):
        tsp_bruteforce(random_points(1, seed=3), EU, 1.0)


def test_exact_corners():
    t = tsp_exact(CORNERS, EU, 1.0)
    assert t.weight == pytest.approx(4.0, abs=1e-12)
    assert t.order == (0, 1, 2, 3)


def test_exact_equals_bruteforce_small_batch():
    kinds = ["euclidean", "coordinate_metric", "radial_metric"]
    alphas = [0.5, 1.0, 1.5, 2.0]
    for i in range(24):
        n = 5 + i % 5
        wf = make_weight_function(kinds[i % 3])
        alpha = alphas[i % 4]
        pts = random_points(n, seed=100 + i)
        a = tsp_exact(pts, wf, alpha)
        b = tsp_bruteforce(pts, wf, alpha)
        assert a.weight == pytest.approx(b.weight, rel=1e-9)
        assert a.order == b.order


def test_exact_equals_bruteforce_on_tied_optima():
    # symmetric instances carry many mathematically tied optimal tours whose
    # float weights differ by an ulp; both solvers must settle on the same one
    cases = [
        [(0.45 * math.cos(2 * math.pi * k / n), 0.45 * math.sin(2 * math.pi * k / n))
         for k in range(n)]
        for n in (4, 6, 8)
    ]
    cases.append([(x, y) for x in (-0.4, 0.0, 0.4) for y in (-0.4, 0.0, 0.4)])
    for pts in cases:
        for alpha in (0.5, 1.0, 2.0):
            a = tsp_exact(pts, EU, alpha)
            b = tsp_bruteforce(pts, EU, alpha)
            assert a.order == b.order
            assert a.weight == pytest.approx(b.weight, rel=1e-9)


def test_exact_two_nodes():
    pts = [(0.0, 0.0), (0.3, 0.4)]
    t = tsp_exact(pts, EU, 1.0)
    assert t.order == (0, 1)
    assert t.weight == pytest.approx(1.0, abs=1e-12)


def test_exact_handles_n18_and_dominates_grid_tour():
    pts = random_points(18, seed=4)
    t = tsp_exact(pts, EU, 1.0)
    g = grid_tour(pts, EU, 1.0, build_tiling(18, 1.0))
    assert t.weight <= g.weight + 1e-9
    with pytest.raises(ValueError):
        tsp_exact(random_points(19, seed=4), EU, 1.0)


# Reference: the per-mask subset DP the layered table replaced.  The layered
# fill takes each minimum over the same float sums, so orders and weights
# must match exactly, ties included.


def reference_table(mat, close_to_start):
    n = mat.shape[0]
    full = (1 << n) - 1
    h = np.full((1 << n, n), np.inf)
    h[full, :] = mat[:, 0] if close_to_start else 0.0
    for mask in range(full - 1, 0, -1):
        if close_to_start and not (mask & 1):
            continue
        rem = [t for t in range(n) if not (mask >> t) & 1]
        if not rem:
            continue
        vals = np.array([h[mask | (1 << t), t] for t in rem])
        h[mask, :] = np.min(mat[:, rem] + vals[None, :], axis=1)
    return h


def reference_reconstruct(mat, h, start, n):
    full = (1 << n) - 1
    tol = 1e-12 * (1.0 + abs(float(h[(1 << start), start])))
    mask, j = 1 << start, start
    order = [start]
    while mask != full:
        target = h[mask, j]
        for t in range(n):
            if (mask >> t) & 1:
                continue
            if mat[j, t] + h[mask | (1 << t), t] <= target + tol:
                order.append(t)
                mask |= 1 << t
                j = t
                break
        else:
            raise AssertionError("completion table inconsistent")
    return order


def reference_tour(pts, wf, alpha):
    n = len(pts)
    if n == 2:
        order = (0, 1)
    else:
        mat = weight_matrix(wf, alpha, pts)
        h = reference_table(mat, close_to_start=True)
        order = canonical_cycle(reference_reconstruct(mat, h, 0, n))
    return order, tour_weight(pts, order, wf, alpha)


def reference_paths(pts, wf, alpha, required_endpoints):
    """(order, weight, endpoints) per required endpoint, one table."""
    n = len(pts)
    mat = weight_matrix(wf, alpha, pts)
    h = reference_table(mat, close_to_start=False)
    out = []
    for required in required_endpoints:
        if required is not None:
            start = required
        else:
            starts = np.array([h[1 << s, s] for s in range(n)])
            best = float(starts.min())
            start = int(np.flatnonzero(starts <= best + 1e-12 * (1.0 + abs(best)))[0])
        order = reference_reconstruct(mat, h, start, n)
        if required is None and order[0] > order[-1]:
            order = order[::-1]
        weight = float(np.sum(mat[order[:-1], order[1:]]))
        out.append((tuple(order), weight, (order[0], order[-1])))
    return out


# 5 x 5 lattice: many equal edge lengths, hence many tied optima
LATTICE = np.array([(x, y) for x in (-0.4, -0.2, 0.0, 0.2, 0.4)
                    for y in (-0.4, -0.2, 0.0, 0.2, 0.4)])
KINDS = ("euclidean", "coordinate_metric", "radial_metric")
ALPHAS = (0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("n", range(3, 13))
def test_completion_table_bit_identical_to_reference(n):
    # the cycle table keeps only the masks holding node 0, at row mask >> 1
    for case, (kind, alpha) in enumerate(zip(KINDS, ALPHAS)):
        rng = np.random.default_rng(2000 * n + case)
        pts = LATTICE[rng.choice(len(LATTICE), size=n, replace=False)]
        mat = weight_matrix(make_weight_function(kind), alpha, pts)
        cycle = _completion_table(mat)
        assert cycle.shape == (1 << (n - 1), n)
        assert np.array_equal(cycle, reference_table(mat, close_to_start=True)[1::2])
        # a path is the cycle through a zero-weight anchor (node 0, node v at
        # v + 1): path row mask, column j is anchored row mask, column j + 1;
        # row 0, the empty mask, is never read by a path
        anchored = _completion_table(np.pad(mat, ((1, 0), (1, 0))))
        assert np.array_equal(anchored[1:, 1:], reference_table(mat, close_to_start=False)[1:])


@pytest.mark.parametrize("n", range(2, 17))
def test_exact_solvers_match_reference_dp(n):
    # every (kind, alpha) pair up to n = 12; one alpha per kind beyond,
    # where the per-mask reference costs seconds per instance
    combos = [(k, a) for k in KINDS for a in ALPHAS]
    if n > 12:
        combos = [(k, ALPHAS[(n + i) % 4]) for i, k in enumerate(KINDS)]
    for case, (kind, alpha) in enumerate(combos):
        wf = make_weight_function(kind)
        if case % 2:
            rng = np.random.default_rng(1000 * n + case)
            pts = LATTICE[rng.choice(len(LATTICE), size=n, replace=False)]
        else:
            pts = random_points(n, seed=1000 * n + case)
        t = tsp_exact(pts, wf, alpha)
        assert (t.order, t.weight) == reference_tour(pts, wf, alpha), (kind, alpha)
        endpoints = (None, 0, n - 1)
        for required, ref in zip(endpoints, reference_paths(pts, wf, alpha, endpoints)):
            p = min_weight_spanning_path(pts, wf, alpha, required_endpoint=required)
            assert (p.order, p.weight, p.endpoints) == ref, (kind, alpha, required)


# Reference: the permutation scan as a loop over one cycle at a time.  The
# array scan sums each cycle in the same left-to-right order, so its weights
# carry the same bits and it must pick the same first tied cycle.


def reference_bruteforce(pts, wf, alpha):
    n = len(pts)
    mat = weight_matrix(wf, alpha, pts).tolist()

    def cycle_weight(perm):
        w = mat[0][perm[0]]
        prev = perm[0]
        for node in perm[1:]:
            w += mat[prev][node]
            prev = node
        return w + mat[prev][0]

    def cycles():
        return (perm for perm in permutations(range(1, n)) if perm[0] <= perm[-1])

    weights = array("d", map(cycle_weight, cycles()))
    best_w = min(weights)
    tol = 1e-12 * (1.0 + abs(best_w))
    first = next(k for k, w in enumerate(weights) if w <= best_w + tol)
    order = (0,) + next(islice(cycles(), first, None))
    return order, tour_weight(pts, order, wf, alpha)


@pytest.mark.parametrize("n", range(2, 10))
def test_bruteforce_matches_reference_scan(n):
    # random points and lattice subsets, whose tied cycles differ by an ulp;
    # at n = 9 also the 3 x 3 lattice, where the first tied cycle is often
    # not the one of least float weight
    for case, (kind, alpha) in enumerate((k, a) for k in KINDS for a in ALPHAS):
        wf = make_weight_function(kind)
        rng = np.random.default_rng(3000 * n + case)
        instances = [random_points(n, seed=3000 * n + case),
                     LATTICE[rng.choice(len(LATTICE), size=n, replace=False)]]
        if n == 9:
            instances.append(LATTICE.reshape(5, 5, 2)[::2, ::2].reshape(9, 2))
        for pts in instances:
            t = tsp_bruteforce(pts, wf, alpha)
            assert (t.order, t.weight) == reference_bruteforce(pts, wf, alpha), (kind, alpha)


# ---------------------------------------------------------------------------
# constructive tour
# ---------------------------------------------------------------------------


def test_grid_tour_is_valid_and_dominated():
    for i in range(30):
        n = 4 + i % 6
        pts = random_points(n, seed=500 + i)
        tiling = build_tiling(n, 1.0)
        g = grid_tour(pts, EU, 1.0, tiling)
        assert sorted(g.order) == list(range(n))
        exact = tsp_exact(pts, EU, 1.0)
        assert g.weight >= exact.weight - 1e-9 * max(1.0, exact.weight)


def test_grid_tour_single_cell_degenerate():
    pts = random_points(6, seed=5)
    tiling = build_tiling(6, math.sqrt(6.0))  # one cell holds everything
    assert tiling.cell_count == 1
    g = grid_tour(pts, EU, 1.0, tiling)
    assert sorted(g.order) == list(range(6))
    assert g.weight == pytest.approx(tour_weight(pts, g.order, EU, 1.0), rel=1e-12)


def test_grid_tour_two_nodes():
    pts = random_points(2, seed=6)
    g = grid_tour(pts, EU, 1.0, build_tiling(2, 1.0))
    assert g.order == (0, 1)
    with pytest.raises(ValueError):
        grid_tour(pts[:1], EU, 1.0, build_tiling(1, 1.0))


def test_grid_tour_upper_bound_small_sample():
    # scaled-down version of the upper-tail check: 50 trials at n = 256
    mp = ModelParams(eps1=1.0, eps2=1.0, alpha=1.0, c1=1.0, c2=1.0)
    n = 256
    tiling = build_tiling(n, 1.0)
    _, c2_const = deviation_constants(mp, tiling.a_effective)
    cap = c2_const * math.sqrt(n) * (1.0 + 2.0 / n ** (1.0 / 16.0))
    hits = 0
    for trial in range(50):
        pts = random_points(n, seed=7000 + trial)
        if grid_tour(pts, EU, 1.0, tiling).weight <= cap:
            hits += 1
    assert hits >= 48


# Reference: the cell chain with its own entry search, which scores a cell's
# nodes from the chain tail and then starts a nearest-neighbour walk at the
# cheapest one, and a walk that scores its last, lone candidate too.  Both
# take the same argmins over the same float weights as the solver, so orders
# and weights must match exactly.


def reference_nn_within(pts, wf, alpha, nodes, entry):
    seq = [entry]
    remaining = [v for v in nodes if v != entry]
    while remaining:
        w = wf.h_pairs(pts[seq[-1]][None, :], pts[remaining]) ** alpha
        seq.append(remaining.pop(int(w.argmin())))
    return seq


def reference_chain_cells(pts, wf, alpha, cells, labels):
    order = []
    for lab in labels:
        nodes = cells[lab]
        entry = nodes[0]
        if order and len(nodes) > 1:
            w = wf.h_pairs(pts[order[-1]][None, :], pts[nodes]) ** alpha
            entry = nodes[int(w.argmin())]
        order.extend(reference_nn_within(pts, wf, alpha, nodes, entry))
    return order


def reference_grid_tour(pts, wf, alpha, tiling):
    cells = {}
    for idx, lab in enumerate(cell_index_array(tiling, pts)):
        cells.setdefault(int(lab), []).append(idx)
    occupied = sorted(cells)
    dense = [lab for lab in occupied if len(cells[lab]) >= 3]
    sparse = [lab for lab in occupied if len(cells[lab]) <= 2]
    if len(dense) >= 2 and len(sparse) >= 2:
        cycle = (reference_chain_cells(pts, wf, alpha, cells, dense)
                 + reference_chain_cells(pts, wf, alpha, cells, sparse)[::-1])
    else:
        cycle = reference_chain_cells(pts, wf, alpha, cells, occupied)
    order = canonical_cycle(cycle)
    return order, tour_weight(pts, order, wf, alpha)


CHECKERBOARD = build_density("checkerboard", 0.5, 1.5, 4)


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 64, 257, 1000])
def test_grid_tour_matches_reference(n):
    # uniform and checkerboard points, every tiling side a <= sqrt(n) from
    # {0.5, 1, 2}: at small n a single cell or too few dense cells leave
    # one chain over all occupied cells; beyond the exact path cutoff, also
    # one walk over all nodes, since a chain's first cell is walked from an
    # entry inside its own node set
    combos = [(k, al, dens) for k in KINDS for al in ALPHAS for dens in ("uniform", "checkerboard")]
    for case, (kind, alpha, dens) in enumerate(combos):
        wf = make_weight_function(kind)
        seed = 6000 * n + case
        pts = (random_points(n, seed) if dens == "uniform"
               else sample_binomial(CHECKERBOARD, n, seed).points)
        for a in (a for a in (0.5, 1.0, 2.0) if a <= math.sqrt(n)):
            tiling = build_tiling(n, a)
            g = grid_tour(pts, wf, alpha, tiling)
            assert (g.order, g.weight) == reference_grid_tour(pts, wf, alpha, tiling), (kind, alpha, dens, a)
        if n > EXACT_PATH_MAX_N:
            start = case % n
            walk = _nn_within(pts, wf, alpha, list(range(n)), start)
            assert walk == reference_nn_within(pts, wf, alpha, list(range(n)), start), (kind, alpha, dens)


def test_grid_tour_scores_no_lone_candidate():
    # entering a cell is the first step of its walk from the chain tail, and
    # a walk takes its last node unscored: no cost call has a single row
    rows = []

    def counted(u, v):
        rows.append(math.prod(np.broadcast_shapes(u.shape[:-1], v.shape[:-1])))
        return _euclid(u, v)

    wf = make_weight_function("custom", func=counted, c1=1.0, c2=1.0, is_metric=True)
    n = 1000
    pts = random_points(n, seed=1)
    tiling = build_tiling(n, 1.0)
    g = grid_tour(pts, wf, 1.0, tiling)
    assert g == grid_tour(pts, EU, 1.0, tiling)
    assert rows and min(rows) > 1


# ---------------------------------------------------------------------------
# 2-opt
# ---------------------------------------------------------------------------


def test_two_opt_uncrosses_diagonals():
    crossing = Tour(order=(0, 2, 1, 3), weight=tour_weight(CORNERS, (0, 2, 1, 3), EU, 1.0))
    polished = two_opt(CORNERS, crossing, EU, 1.0)
    assert polished.weight == pytest.approx(4.0, abs=1e-12)
    assert polished.order == (0, 1, 2, 3)


def test_two_opt_fixes_optimum():
    pts = random_points(8, seed=8)
    opt = tsp_exact(pts, EU, 1.0)
    polished = two_opt(pts, opt, EU, 1.0)
    assert polished.order == opt.order
    assert polished.weight == pytest.approx(opt.weight, rel=1e-12)


def test_two_opt_never_increases_weight():
    for i in range(10):
        n = 5 + i
        pts = random_points(n, seed=900 + i)
        g = grid_tour(pts, EU, 1.5, build_tiling(n, 1.0))
        p = two_opt(pts, g, EU, 1.5)
        assert p.weight <= g.weight + 1e-9
        assert sorted(p.order) == list(range(n))


# Dense baseline: the sweep of the O(n^2) 2-opt over the full weight matrix,
# with candidate indices from np.arange, successors by modulo, and all four
# weights of a candidate gathered from the matrix on every row.


def reference_two_opt_moves(mat, o, tol, max_passes):
    n = o.size
    for _ in range(max_passes):
        improved = False
        for i in range(n - 2):
            a, b = o[i], o[i + 1]
            j_hi = n - 1 if i > 0 else n - 2
            js = np.arange(i + 2, j_hi + 1)
            if not js.size:
                continue
            c = o[js]
            d = o[(js + 1) % n]
            delta = mat[a, c] + mat[b, d] - mat[a, b] - mat[c, d]
            k = int(np.argmin(delta))
            if delta[k] < -tol:
                j = int(js[k])
                o[i + 1 : j + 1] = o[i + 1 : j + 1][::-1]
                improved = True
        if not improved:
            break


def small_two_opt_starts(n, rng):
    """Tours from random starts and nearest-neighbour walks, on random points
    and on the tied lattice."""
    for case, (kind, alpha) in enumerate(zip(KINDS * 2, ALPHAS + ALPHAS[::-1])):
        wf = make_weight_function(kind)
        if case % 2:
            pts = LATTICE[rng.choice(len(LATTICE), size=min(n, len(LATTICE)), replace=False)]
        else:
            pts = random_points(n, seed=4000 * n + case)
        walk = _nn_within(pts, wf, alpha, list(range(len(pts))), case % len(pts))
        yield kind, alpha, pts, rng.permutation(len(pts))
        yield kind, alpha, pts, np.array(walk)


def grid_tour_two_opt_starts(n):
    """grid_tour cycles under the coordinate and radial kinds."""
    pts = random_points(n, seed=4000 * n)
    for kind, alpha in (("coordinate_metric", 1.0), ("radial_metric", 1.5)):
        wf = make_weight_function(kind)
        yield kind, alpha, pts, np.array(grid_tour(pts, wf, alpha, build_tiling(n, 1.0)).order)


def reference_candidates(pts, wf):
    """Each node's K nearest other nodes by a stable argsort of its row of
    the dense h matrix: ties go to the lower index."""
    n = len(pts)
    h = wf.h_pairs(pts[:, None, :], pts[None, :, :])
    kk = min(CANDIDATE_K, n - 1)
    nb = np.array([[j for j in np.argsort(h[i], kind="stable") if j != i][:kk] for i in range(n)])
    return nb.reshape(n, kk), np.take_along_axis(h, nb.reshape(n, kk), axis=1)


def candidate_point_sets():
    rng = np.random.default_rng(77)
    yield "random", random_points(500, seed=77)
    yield "lattice", LATTICE
    # every point on the square's boundary, corners included
    side = np.linspace(-0.5, 0.5, 9)
    edge = np.concatenate([np.stack((side, np.full(9, y)), 1) for y in (-0.5, 0.5)]
                          + [np.stack((np.full(7, x), side[1:-1]), 1) for x in (-0.5, 0.5)])
    yield "edge", edge
    # a tight cluster with a few far points: the far ones widen their ring
    cluster = np.concatenate((rng.uniform(-0.5, -0.45, size=(200, 2)),
                              rng.uniform(-0.5, 0.5, size=(12, 2))))
    yield "cluster", cluster
    for n in (2, 3, 5, CANDIDATE_K, CANDIDATE_K + 1, CANDIDATE_K + 2):
        yield f"n={n}", random_points(n, seed=78 + n)


@pytest.mark.parametrize("pairs", [solvers.SEARCH_PAIRS, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_candidate_lists_match_argsort(kind, pairs, monkeypatch):
    # 64 pairs per chunk splits every round into many chunks
    monkeypatch.setattr(solvers, "SEARCH_PAIRS", pairs)
    wf = make_weight_function(kind)
    for label, pts in candidate_point_sets():
        nb, hb = _candidate_lists(pts, wf)
        ref_nb, ref_hb = reference_candidates(pts, wf)
        assert nb.tolist() == ref_nb.tolist(), label
        assert hb.tolist() == ref_hb.tolist(), label


def _two_opt_gains(pts, wf, alpha, order, nb):
    """Test-side scan: the gain of every 2-opt move (edges (a, b) and (c, d)
    become (a, c) and (b, d), both tour directions) and every Or-opt move
    (a segment of 1-3 nodes with a at one end, joined to c inside the tour
    edge (c, e)) over the candidate pairs (a, c)."""
    n = len(order)
    w = weight_matrix(wf, alpha, pts)
    at = {v: i for i, v in enumerate(order)}

    def step(v, s):
        return order[(at[v] + s) % n]

    for a in range(n):
        for c in nb[a].tolist():
            for s in (1, -1):
                b, d = step(a, s), step(c, s)
                if c != b and d != a:
                    yield w[a, b] + w[c, d] - w[a, c] - w[b, d]
            for s in (1, -1):
                for length in (1, 2, 3):
                    if length > n - 2:
                        continue
                    seg = [step(a, s * i) for i in range(length)]
                    z, ra, rz = seg[-1], step(a, -s), step(seg[-1], s)
                    if c in seg:
                        continue
                    for e in (step(c, 1), step(c, -1)):
                        if e not in seg:
                            yield (w[ra, a] + w[z, rz] - w[ra, rz]
                                   + w[c, e] - w[c, a] - w[z, e])


@pytest.mark.parametrize("n", [4, 5, 9, 17, 25, 40, 300])
def test_two_opt_local_optimum_over_candidates(n):
    # a lighter permutation with no 2-opt or Or-opt move over the candidate
    # pairs that gains more than the search's tolerance
    if n == 300:
        starts = grid_tour_two_opt_starts(n)
    else:
        starts = small_two_opt_starts(n, np.random.default_rng(4000 + n))
    for kind, alpha, pts, start in starts:
        wf = make_weight_function(kind)
        before = tour_weight(pts, start, wf, alpha)
        p = two_opt(pts, Tour(order=tuple(start.tolist()), weight=before), wf, alpha)
        assert sorted(p.order) == list(range(len(pts)))
        assert p.weight <= before * (1 + 1e-12), (kind, alpha)
        tol = 1e-12 * (1.0 + before)
        nb, _ = reference_candidates(pts, wf)
        best = max(_two_opt_gains(pts, wf, alpha, list(p.order), nb), default=0.0)
        assert best <= tol, (kind, alpha, best)


def test_two_opt_no_heavier_than_dense_reference():
    # 2-opt + Or-opt over candidates against the full O(n^2) 2-opt sweep
    ours, dense = [], []
    for kind, alpha, pts, start in grid_tour_two_opt_starts(300):
        wf = make_weight_function(kind)
        mat = weight_matrix(wf, alpha, pts)
        tol = 1e-12 * (1.0 + tour_weight(pts, start, wf, alpha))
        ref = start.copy()
        reference_two_opt_moves(mat, ref, tol, 40)
        dense.append(tour_weight(pts, ref, wf, alpha))
        ours.append(two_opt(pts, Tour(tuple(start.tolist()), 0.0), wf, alpha).weight)
    assert np.mean(ours) <= np.mean(dense)


def test_two_opt_memory_is_linear():
    # the old dense matrix alone took 8 n^2 bytes, 128 MiB at n = 4096
    n = 4096
    pts = random_points(n, seed=4096)
    g = grid_tour(pts, EU, 1.0, build_tiling(n, 1.0))
    tracemalloc.start()
    try:
        p = two_opt(pts, g, EU, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.weight < g.weight
    assert peak < 16 * 2**20


def test_two_opt_deterministic():
    n = 1000
    pts = random_points(n, seed=1000)
    wf = make_weight_function("radial_metric")
    g = grid_tour(pts, wf, 1.5, build_tiling(n, 1.0))
    assert two_opt(pts, g, wf, 1.5).order == two_opt(pts, g, wf, 1.5).order


@pytest.mark.parametrize("bogus", [math.nan, 1e300])
def test_two_opt_ignores_a_wrong_cached_weight(bogus):
    # the tolerance comes from the recomputed weight, not the caller's
    n = 12
    pts = random_points(n, seed=950)
    g = grid_tour(pts, EU, 1.0, build_tiling(n, 1.0))
    honest = two_opt(pts, g, EU, 1.0)
    assert honest.weight < g.weight  # the polish has work to do
    polished = two_opt(pts, Tour(order=g.order, weight=bogus), EU, 1.0)
    assert polished == honest


# ---------------------------------------------------------------------------
# spanning paths
# ---------------------------------------------------------------------------


def test_path_collinear():
    pts = [(0.0, 0.0), (-0.4, 0.0), (0.4, 0.0)]
    p = min_weight_spanning_path(pts, EU, 1.0)
    assert p.weight == pytest.approx(0.8, abs=1e-12)
    assert set(p.endpoints) == {1, 2}


def test_path_single_point():
    p = min_weight_spanning_path([(0.1, 0.1)], EU, 1.0)
    assert p.weight == 0.0 and p.order == (0,) and p.endpoints == (0, 0)


def test_path_brute_force_oracle():
    # exact DP against a scan over every permutation
    pts = random_points(6, seed=9)
    rm = make_weight_function("radial_metric")
    best = min(
        sum(edge_weight(rm, 0.8, pts[o[i]], pts[o[i + 1]]) for i in range(5))
        for o in permutations(range(6))
    )
    p = min_weight_spanning_path(pts, rm, 0.8)
    assert p.weight == pytest.approx(best, rel=1e-12)


def test_path_respects_required_endpoint():
    pts = random_points(7, seed=10)
    for r in range(7):
        p = min_weight_spanning_path(pts, EU, 1.0, required_endpoint=r)
        assert p.order[0] == r
        free = min_weight_spanning_path(pts, EU, 1.0)
        assert p.weight >= free.weight - 1e-12


def test_path_below_cycle_weight():
    for i in range(20):
        n = 3 + i % 6
        pts = random_points(n, seed=1100 + i)
        p = min_weight_spanning_path(pts, EU, 1.0)
        c = tsp_exact(pts, EU, 1.0)
        assert p.weight <= c.weight + 1e-12


def test_path_caps_at_exact_size(monkeypatch):
    # the size check comes before the matrix: no weight is evaluated
    def no_matrix(*args):
        raise AssertionError("weight_matrix called")

    monkeypatch.setattr(solvers, "weight_matrix", no_matrix)
    with pytest.raises(ValueError, match="16"):
        min_weight_spanning_path(random_points(EXACT_PATH_MAX_N + 1, seed=11), EU, 1.0)
    with pytest.raises(ValueError, match="got 0"):
        min_weight_spanning_path(np.empty((0, 2)), EU, 1.0)


# ---------------------------------------------------------------------------
# decomposition path
# ---------------------------------------------------------------------------


def test_approx_path_bound_small_batch():
    rm = make_weight_function("radial_metric")
    checked = 0
    trial = 0
    while checked < 15:
        n = 4 + trial % 6
        pts = random_points(n, seed=1300 + trial)
        trial += 1
        tiling = build_tiling(n, math.sqrt(n) / 2.0)  # 2x2 cells
        try:
            path, rec = approx_tsp_path(pts, rm, 1.0, tiling)
        except ValueError:
            continue  # everything fell inside the center square; not a test case
        checked += 1
        assert sorted(path.order) == list(range(n))
        closing = edge_weight(rm, 1.0, pts[path.order[0]], pts[path.order[-1]])
        exact = tsp_exact(pts, rm, 1.0)
        gap = abs(path.weight + closing - exact.weight)
        assert gap <= (2.0 * rec.n_in + 2.0) * (rm.c2 * ROOT2) ** 1.0 + 1e-9
        assert rec.n_in + rec.n_out == n
        assert path.weight == pytest.approx(rec.in_weight + rec.cross_weight + rec.out_weight, rel=1e-9)


def test_approx_path_only_anchor_inside():
    # node 0 at the cell center, everyone else far outside the half-size square
    pts = [(0.05, 0.05), (0.45, 0.45), (-0.45, 0.4), (0.4, -0.45)]
    tiling = build_tiling(4, 2.0)  # single cell: center square is [-1/4, 1/4]^2
    path, rec = approx_tsp_path(pts, EU, 1.0, tiling)
    assert rec.n_in == 1
    assert rec.in_weight == 0.0
    assert path.order[0] == 0


def test_approx_path_caps_sub_paths():
    # 20 nodes on a 2 x 2 tiling leave more than 16 outside the center square
    n = 20
    pts = random_points(n, seed=1400)
    with pytest.raises(ValueError, match="16"):
        approx_tsp_path(pts, EU, 1.0, build_tiling(n, math.sqrt(n) / 2.0))


def test_approx_path_degenerate_all_inside():
    pts = [(0.0, 0.0), (0.1, 0.1), (-0.1, 0.05)]
    tiling = build_tiling(3, math.sqrt(3.0))
    with pytest.raises(ValueError):
        approx_tsp_path(pts, EU, 1.0, tiling)
    with pytest.raises(ValueError):
        approx_tsp_path(pts[:2], EU, 1.0, tiling)


# ---------------------------------------------------------------------------
# the unit-square precondition
# ---------------------------------------------------------------------------


def _square_solvers(pts):
    """Each solver that needs its points in the unit square, as one call."""
    n = len(pts)
    tiling = build_tiling(n, 1.0)
    cm = make_weight_function("coordinate_metric")
    return {
        "grid_tour": lambda: grid_tour(pts, cm, 1.0, tiling),
        "gap_statistics": lambda: gap_statistics(pts, tiling, 1.0),
        "two_opt": lambda: two_opt(pts, Tour(tuple(range(n)), 0.0), cm, 1.0),
        "approx_tsp_path": lambda: approx_tsp_path(pts, cm, 1.0, build_tiling(n, math.sqrt(n) / 3.0)),
    }


@pytest.mark.parametrize("bad", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.0),
                                 (0.6, 0.0), (0.0, -0.500001)])
@pytest.mark.parametrize("solver", ["grid_tour", "gap_statistics", "two_opt", "approx_tsp_path"])
def test_solvers_reject_points_off_the_square(solver, bad):
    # the bad point is not node 0, which approx_tsp_path places first
    pts = random_points(12, seed=1500)
    pts[5] = bad
    with pytest.raises(ValueError, match="point outside the unit square"):
        _square_solvers(pts)[solver]()


# the solvers that need no grid, each as a call on its points
EXACT_SOLVERS = {
    "tsp_exact": lambda pts: tsp_exact(pts, EU, 1.0),
    "tsp_bruteforce": lambda pts: tsp_bruteforce(pts, EU, 1.0),
    "min_weight_spanning_path": lambda pts: min_weight_spanning_path(pts, EU, 1.0),
    "tour_weight": lambda pts: tour_weight(pts, tuple(range(len(pts))), EU, 1.0),
}


@pytest.mark.parametrize("bad", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.0)])
@pytest.mark.parametrize("solver", list(EXACT_SOLVERS))
def test_exact_solvers_reject_non_finite_points(solver, bad):
    pts = random_points(6, seed=1501)
    pts[3] = bad
    with pytest.raises(ValueError, match="point outside the unit square: non-finite coordinate"):
        EXACT_SOLVERS[solver](pts)


@pytest.mark.parametrize("solver", list(EXACT_SOLVERS))
def test_exact_solvers_reject_points_that_are_not_pairs(solver):
    pts = np.column_stack([random_points(6, seed=1502), np.zeros(6)])
    for points in (pts, [tuple(p) for p in pts]):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\), got \(6, 3\)"):
            EXACT_SOLVERS[solver](points)


def test_empty_points_reach_the_size_checks():
    with pytest.raises(ValueError, match="a tour needs at least 2 nodes"):
        tour_weight([], (), EU, 1.0)
    with pytest.raises(ValueError, match="exact solver handles 2 <= n"):
        tsp_exact(np.empty((0, 2)), EU, 1.0)


def test_two_opt_rejects_points_where_the_candidate_lists_would_be_inexact():
    # on [-2, 2]^2 the coordinate kind breaks c1·d <= h, so a ring search
    # there would miss true neighbours
    pts = np.random.default_rng(26).uniform(-2.0, 2.0, size=(300, 2))
    cm = make_weight_function("coordinate_metric")
    with pytest.raises(ValueError, match="point outside the unit square"):
        two_opt(pts, Tour(tuple(range(300)), 0.0), cm, 1.0)


@pytest.mark.parametrize("solver", ["grid_tour", "gap_statistics", "two_opt", "approx_tsp_path"])
def test_solvers_accept_the_square_edges_and_corners(solver):
    side = (-0.5, 0.0, 0.5)
    pts = np.array([(x, y) for x in side for y in side if (x, y) != (0.0, 0.0)] + [(0.5, 0.25)])
    _square_solvers(pts)[solver]()


# ---------------------------------------------------------------------------
# gap statistics
# ---------------------------------------------------------------------------


def test_gap_statistics_hand_example():
    # 2x2 tiling: 3 nodes in cell 1 (top-left), 1 node in cell 2
    pts = [(-0.3, 0.3), (-0.2, 0.2), (-0.4, 0.4), (-0.25, -0.25)]
    tiling = build_tiling(4, 1.0)
    gs = gap_statistics(pts, tiling, 1.0)
    assert gs.dense_indices == (1,)
    assert gs.sparse_indices == (2, 3, 4)
    assert gs.q == 1 and gs.l == 3
    assert gs.s_alpha == pytest.approx(3.0)  # (1-1) + (4-1)
    assert gs.v_alpha == pytest.approx(3.0)  # 1 + 1 + 1 + 0
    assert gs.z_alpha == pytest.approx(4.0)  # |1-2| + |1-4|


def test_gap_statistics_no_dense_cell():
    pts = [(-0.3, 0.3), (0.3, -0.3)]
    tiling = build_tiling(4, 1.0)
    gs = gap_statistics(pts, tiling, 1.0)
    assert gs.q == 0 and gs.l == 4
    assert gs.s_alpha == pytest.approx(3.0)  # (cell_count - 1)^alpha
    assert gs.z_alpha is None


def test_gap_statistics_every_cell_dense():
    pts = []
    for cx in (-0.25, 0.25):
        for cy in (-0.25, 0.25):
            pts += [(cx, cy), (cx + 0.01, cy), (cx, cy + 0.01)]
    tiling = build_tiling(4, 1.0)
    gs = gap_statistics(pts, tiling, 1.0)
    assert gs.q == 4 and gs.l == 0
    assert gs.v_alpha == pytest.approx(3.0)  # extended definition, no sparse cell
    assert gs.z_alpha is None
    assert gs.q + gs.l == tiling.cell_count


@pytest.mark.parametrize("dens", ["uniform", "checkerboard"])
@pytest.mark.parametrize("n, a", [(4096, 1.0), (4096, 1.6), (16384, 1.0)])
def test_dense_cell_share_matches_p_dense(n, a, dens):
    # a cell of side a/sqrt(n) under density f is dense with probability
    # about p_dense(a, f); every tiling side here is a multiple of 4, so each
    # cell lies in one checkerboard square, and half the cells see each value
    density = build_density("uniform", 1.0, 1.0) if dens == "uniform" else CHECKERBOARD
    tiling = build_tiling(n, a)
    assert tiling.cells_per_side % 4 == 0
    share = np.mean([gap_statistics(sample_binomial(density, n, 7000, (trial,)).points, tiling, 1.0).q
                     for trial in range(10)]) / tiling.cell_count
    a_eff = tiling.a_effective
    if dens == "uniform":
        predicted = p_dense(a_eff, 1.0)
    else:
        predicted = 0.5 * (p_dense(a_eff, 0.5) + p_dense(a_eff, 1.5))
    assert abs(share - predicted) <= 0.01, (share, predicted)
