"""Tour and spanning-path solvers over power-weighted edges.

Exact solvers: a full permutation scan (oracle, n <= 10) and a bitmask
dynamic program (n <= 18), both returning the lexicographically smallest
canonical optimal order.  The dynamic program fills its completion table
one popcount layer at a time, from the full mask down, with one vectorised
minimum per target node; a cycle's table is indexed by ``mask >> 1``
(every mask it reads holds node 0), so it takes 8·n·2^(n-1) bytes.  The
permutation scan shares no code with it.  Constructive solver: the
cell-chained tour that strings nearest-neighbor paths through dense cells
(>= 3 nodes) and sparse cells (1-2 nodes) of a tiling in serpentine label
order and merges the two chains into a spanning cycle.  Plus 2-opt
polishing, exact minimum-weight spanning paths up to 16 nodes (each solved
by the dynamic program as a cycle through an extra node that costs 0 to
reach from every node), the in/cross/out decomposition path, and the
dense/sparse label-gap statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .geometry import Tiling, as_coords, cell_bounds, cell_index_array
from .weights import WeightFunction, check_alpha, edge_weight_pairs, weight_matrix

BRUTEFORCE_MAX_N = 10
EXACT_TOUR_MAX_N = 18
EXACT_PATH_MAX_N = 16
DEFAULT_TWO_OPT_PASSES = 40
DENSE_CELL_MIN_NODES = 3  # a cell with fewer nodes is sparse


@dataclass(frozen=True)
class Tour:
    """A spanning cycle: canonical vertex order plus its cached weight."""

    order: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class SpanningPath:
    """A minimum-weight spanning path (no wraparound edge)."""

    order: tuple[int, ...]
    weight: float
    endpoints: tuple[int, int]


@dataclass(frozen=True)
class GapStatistics:
    """Dense/sparse cell labels of a tiling and their alpha-powered label-gap
    sums; z_alpha is None when either class of cell is absent."""

    dense_indices: tuple[int, ...]
    sparse_indices: tuple[int, ...]
    q: int
    l: int
    s_alpha: float
    v_alpha: float
    z_alpha: float | None


@dataclass(frozen=True)
class ApproxPathRecord:
    """Decomposition bookkeeping for the in/cross/out spanning path."""

    n_in: int
    n_out: int
    in_weight: float
    cross_weight: float
    out_weight: float


def _validate_permutation(order, n: int) -> list[int]:
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    return order


def canonical_cycle(order) -> tuple[int, ...]:
    """Rotate to start at index 0 and reflect so the second element is
    smaller than the last."""
    order = list(order)
    i = order.index(0)
    rot = order[i:] + order[:i]
    if len(rot) >= 3 and rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def tour_weight(points, order, wf: WeightFunction, alpha: float) -> float:
    """Total weight of the cycle visiting ``order``, wraparound edge included
    (two nodes give the doubled edge)."""
    pts = as_coords(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("a tour needs at least 2 nodes")
    order = _validate_permutation(order, n)
    po = pts[order]
    return float(np.sum(edge_weight_pairs(wf, alpha, po, np.roll(po, -1, axis=0))))


def tsp_bruteforce(points, wf: WeightFunction, alpha: float) -> Tour:
    """Minimum-weight spanning cycle by scanning all (n-1)!/2 distinct
    cycles; ties (within float-rounding tolerance, so mathematically equal
    tours summed in different orders still count as tied) keep the
    lexicographically smallest canonical order."""
    pts = as_coords(points)
    n = pts.shape[0]
    if not (2 <= n <= BRUTEFORCE_MAX_N):
        raise ValueError(f"brute force handles 2 <= n <= {BRUTEFORCE_MAX_N}, got {n}")
    mat = weight_matrix(wf, alpha, pts)
    # one row per cycle; a row with p[0] > p[-1] reflects an earlier one
    perms = np.fromiter((p for p in permutations(range(1, n)) if p[0] <= p[-1]),
                        dtype=np.dtype((np.intp, (n - 1,))))
    # summed edge by edge from node 0, the float order of a loop over a cycle
    weights = mat[0, perms[:, 0]]
    for k in range(1, n - 1):
        weights += mat[perms[:, k - 1], perms[:, k]]
    weights += mat[perms[:, -1], 0]
    best_w = float(weights.min())
    tol = 1e-12 * (1.0 + abs(best_w))
    first = int(np.flatnonzero(weights <= best_w + tol)[0])
    order = (0,) + tuple(perms[first].tolist())
    return Tour(order=order, weight=tour_weight(pts, order, wf, alpha))


@lru_cache(maxsize=None)
def _popcount_layers(bits: int) -> tuple[np.ndarray, ...]:
    """Every ``bits``-bit row index grouped by popcount: entry k holds the
    rows with k bits set, ascending.  Read-only, since it is cached."""
    rows = np.arange(1 << bits, dtype=np.int64)
    counts = np.zeros(rows.size, dtype=np.int8)
    for b in range(bits):
        counts += ((rows >> b) & 1).astype(np.int8)
    order = np.argsort(counts, kind="stable")
    bounds = np.cumsum(np.bincount(counts, minlength=bits + 1))[:-1]
    layers = tuple(np.split(order, bounds))
    for layer in layers:
        layer.setflags(write=False)
    return layers


def _completion_table(mat: np.ndarray) -> np.ndarray:
    """h[mask >> 1, j]: minimum cost of finishing a cycle that left node 0
    and stands at j with ``mask`` (which holds node 0) already visited —
    visiting every remaining node once, then the edge back to node 0.

    Rows are filled from the full mask down, one popcount layer at a time,
    with one vectorised minimum per target node over the whole layer (the
    Held–Karp/Bellman recursion).  Every mask read holds bit 0, so the
    table holds 2^(n-1) rows, 8·n·2^(n-1) bytes.  Entries for j outside
    mask are filled but never read.
    """
    n = mat.shape[0]
    bits = n - 1
    h = np.full((1 << bits, n), np.inf)
    h[-1, :] = mat[:, 0]
    layers = _popcount_layers(bits)
    targets = [(t, 1 << (t - 1), mat[:, t]) for t in range(1, n)]
    for k in range(bits - 1, -1, -1):
        rows = layers[k]
        acc = np.full((rows.size, n), np.inf)
        for t, bit, col in targets:
            # rows already holding t look up their own, still-infinite row
            np.minimum(acc, h[rows | bit, t][:, None] + col[None, :], out=acc)
        h[rows] = acc
    return h


def _greedy_reconstruct(mat: np.ndarray, h: np.ndarray, prefix: list[int]) -> list[int]:
    """Extend ``prefix`` (which starts at node 0) to a full cycle order,
    walking the completion table and choosing the smallest next node that
    still achieves the optimal remaining cost (up to float-tie tolerance,
    taken from the prefix's own table entry)."""
    n = mat.shape[0]
    full = (1 << n) - 1
    order = list(prefix)
    mask = sum(1 << v for v in order)
    j = order[-1]
    tol = 1e-12 * (1.0 + abs(float(h[mask >> 1, j])))
    while mask != full:
        target = h[mask >> 1, j]
        for t in range(n):
            if (mask >> t) & 1:
                continue
            if mat[j, t] + h[(mask | (1 << t)) >> 1, t] <= target + tol:
                order.append(t)
                mask |= 1 << t
                j = t
                break
        else:
            raise AssertionError("completion table inconsistent")
    return order


def tsp_exact(points, wf: WeightFunction, alpha: float) -> Tour:
    """Minimum-weight spanning cycle via subset dynamic programming,
    matching the brute-force tie-breaking rule."""
    pts = as_coords(points)
    n = pts.shape[0]
    if not (2 <= n <= EXACT_TOUR_MAX_N):
        raise ValueError(f"exact solver handles 2 <= n <= {EXACT_TOUR_MAX_N}, got {n}")
    mat = weight_matrix(wf, alpha, pts)
    order = canonical_cycle(_greedy_reconstruct(mat, _completion_table(mat), [0]))
    return Tour(order=order, weight=tour_weight(pts, order, wf, alpha))


def _two_opt_moves(mat: np.ndarray, o: np.ndarray, tol: float, max_passes: int) -> None:
    """Segment reversals on the cycle ``o`` (n >= 4, in place) until no move
    gains more than ``tol`` or the pass budget runs out.  ``o[0]`` never
    moves.  The walk runs on the closed array ``w``, whose ``w[n]`` is the
    fixed ``o[0]``, so the candidate edges (w[j], w[j + 1]) are two slices.

    The edge array ``e[j] = mat[w[j], w[j + 1]]`` carries the tour's edge
    weights, so the row of edge (a, b) = (w[i], w[i + 1]) against the edges
    (c, d) = (w[j], w[j + 1]) gathers only ``mat[a, c]`` and ``mat[b, d]``;
    its sums run in the order
    ``((mat[a, c] + mat[b, d]) - mat[a, b]) - mat[c, d]``.  A move reverses
    the edges inside the segment and rewrites the two at its ends.  The
    reversed edges are read backwards, so ``mat`` must be symmetric bit for
    bit: ``weight_matrix`` is, under its ``func`` precondition that
    ``verify_equivalence`` checks."""
    n = o.size
    w = np.append(o, o[0])
    e = mat[w[:-1], w[1:]]
    for _ in range(max_passes):
        improved = False
        for i in range(n - 2):
            a, b = w[i], w[i + 1]
            hi = n if i > 0 else n - 1  # at i = 0, edge (w[n-1], w[n]) shares a
            delta = mat[a].take(w[i + 2 : hi])
            delta += mat[b].take(w[i + 3 : hi + 1])
            delta -= e[i]
            delta -= e[i + 2 : hi]
            k = delta.argmin()
            if delta[k] < -tol:
                j = i + 2 + k
                e[i + 1 : j] = e[i + 1 : j][::-1]
                e[i] = mat[a, w[j]]
                e[j] = mat[b, w[j + 1]]
                w[i + 1 : j + 1] = w[i + 1 : j + 1][::-1]
                improved = True
        if not improved:
            break
    o[:] = w[:n]


def min_weight_spanning_path(
    points, wf: WeightFunction, alpha: float, required_endpoint: int | None = None
) -> SpanningPath:
    """Minimum-weight spanning path by subset DP, up to 16 nodes; honors a
    required endpoint.  The path is a cycle through an anchor, node 0, that
    costs 0 to reach from every node (node v becomes v + 1), with the anchor
    removed; a required endpoint is the anchor's fixed first neighbour."""
    pts = as_coords(points)
    n = pts.shape[0]
    if not (1 <= n <= EXACT_PATH_MAX_N):
        raise ValueError(f"a spanning path handles 1 <= n <= {EXACT_PATH_MAX_N} nodes, got {n}")
    if required_endpoint is not None and not (0 <= required_endpoint < n):
        raise ValueError(f"required endpoint {required_endpoint} out of range")
    mat = weight_matrix(wf, alpha, pts)
    anchored = np.pad(mat, ((1, 0), (1, 0)))
    prefix = [0] if required_endpoint is None else [0, required_endpoint + 1]
    cycle = _greedy_reconstruct(anchored, _completion_table(anchored), prefix)
    order = [v - 1 for v in cycle[1:]]
    if required_endpoint is None and order[0] > order[-1]:
        order = order[::-1]
    weight = float(np.sum(mat[order[:-1], order[1:]]))
    return SpanningPath(order=tuple(order), weight=weight, endpoints=(order[0], order[-1]))


def two_opt(points, tour: Tour, wf: WeightFunction, alpha: float,
            max_passes: int = DEFAULT_TWO_OPT_PASSES) -> Tour:
    """Polish a tour with segment reversals until a 2-opt local optimum or
    the pass budget; the weight never increases."""
    pts = as_coords(points)
    n = pts.shape[0]
    order = _validate_permutation(tour.order, n)
    if n < 4:
        order = canonical_cycle(order)
        return Tour(order=order, weight=tour_weight(pts, order, wf, alpha))
    o = np.asarray(order)
    tol = 1e-12 * (1.0 + tour_weight(pts, order, wf, alpha))
    _two_opt_moves(weight_matrix(wf, alpha, pts), o, tol, max_passes)
    order = canonical_cycle(int(v) for v in o)
    return Tour(order=order, weight=tour_weight(pts, order, wf, alpha))


def _cells_of(points: np.ndarray, tiling: Tiling) -> dict[int, list[int]]:
    labels = cell_index_array(tiling, points)
    cells: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels):
        cells.setdefault(int(lab), []).append(idx)
    return cells


def _nn_within(pts: np.ndarray, wf: WeightFunction, alpha: float,
               nodes: list[int], entry: int) -> list[int]:
    """Nearest-neighbor walk from ``entry`` over ``nodes`` (``entry`` need
    not be one of them); the last remaining node is taken without being
    scored.  The caller has checked ``alpha``."""
    seq = [entry]
    remaining = [v for v in nodes if v != entry]
    while len(remaining) > 1:
        # the tail as one (2,) point: its coordinates are scalars to the
        # per-coordinate kernels, cheaper than a (1,) broadcast per call
        w = wf.h_pairs(pts[seq[-1]], pts[remaining]) ** alpha
        seq.append(remaining.pop(int(w.argmin())))
    return seq + remaining


def _chain_cells(pts: np.ndarray, wf: WeightFunction, alpha: float,
                 cells: dict[int, list[int]], labels: list[int]) -> list[int]:
    """Concatenate per-cell nearest-neighbor paths over ``labels`` in label
    order.  The first cell is walked from its first node, every later one
    from the chain tail, so each cell is entered at its node cheapest from
    the tail (the connector must attach at the path end to keep the union a
    simple path)."""
    nodes = cells[labels[0]]
    order = _nn_within(pts, wf, alpha, nodes, nodes[0])
    for lab in labels[1:]:
        order.extend(_nn_within(pts, wf, alpha, cells[lab], order[-1])[1:])
    return order


def grid_tour(points, wf: WeightFunction, alpha: float, tiling: Tiling) -> Tour:
    """The constructive spanning cycle over a tiling.

    Dense cells (>= 3 nodes) are chained into one path in serpentine label
    order, sparse occupied cells (1-2 nodes) into another; edges between the
    first endpoints and the last endpoints close the two paths into a cycle.
    With fewer than two dense or two sparse cells the construction
    degenerates to a single serpentine chain over all occupied cells, closed
    into a cycle.
    """
    check_alpha(alpha)
    pts = as_coords(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("the constructive tour needs at least 2 nodes")
    cells = _cells_of(pts, tiling)
    occupied = sorted(cells)
    dense = [lab for lab in occupied if len(cells[lab]) >= DENSE_CELL_MIN_NODES]
    sparse = [lab for lab in occupied if len(cells[lab]) < DENSE_CELL_MIN_NODES]
    if len(dense) >= 2 and len(sparse) >= 2:
        dense_path = _chain_cells(pts, wf, alpha, cells, dense)
        sparse_path = _chain_cells(pts, wf, alpha, cells, sparse)
        cycle = dense_path + sparse_path[::-1]
    else:
        cycle = _chain_cells(pts, wf, alpha, cells, occupied)
    order = canonical_cycle(cycle)
    return Tour(order=order, weight=tour_weight(pts, order, wf, alpha))


def _distance_to_rect(pts: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    x0, x1, y0, y1 = rect
    dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - pts[:, 1], pts[:, 1] - y1), 0.0)
    return np.hypot(dx, dy)


def approx_tsp_path(points, wf: WeightFunction, alpha: float,
                    tiling: Tiling) -> tuple[SpanningPath, ApproxPathRecord]:
    """The in/cross/out decomposition path anchored at node 0.

    Takes the half-size square concentric with node 0's cell, solves a
    minimum-weight spanning path on the nodes inside it (node 0 always
    counts as inside), crosses to the outside node nearest the square, and
    continues with a minimum-weight spanning path over the outside nodes
    starting at that crossing node.  Both sub-paths are exact, so neither
    side may hold more than 16 nodes.
    """
    check_alpha(alpha)
    pts = as_coords(points)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("the decomposition path needs at least 3 nodes")
    lab0 = int(cell_index_array(tiling, pts[0][None, :])[0])
    x0, x1, y0, y1 = cell_bounds(tiling, lab0)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    quarter = 0.25 * (x1 - x0)
    rect = (cx - quarter, cx + quarter, cy - quarter, cy + quarter)
    in_rect = (
        (pts[:, 0] >= rect[0]) & (pts[:, 0] <= rect[1])
        & (pts[:, 1] >= rect[2]) & (pts[:, 1] <= rect[3])
    )
    in_rect[0] = True  # node 0 anchors the inside path even off-center in its cell
    inside = np.flatnonzero(in_rect)
    outside = np.flatnonzero(~in_rect)
    if outside.size == 0:
        raise ValueError("no node outside the half-size center square: cross edge undefined")

    dist_out = _distance_to_rect(pts[outside], rect)
    v_close = int(outside[int(np.argmin(dist_out))])

    p_in = min_weight_spanning_path(pts[inside], wf, alpha)
    in_order = [int(inside[i]) for i in p_in.order]
    e1, e2 = in_order[0], in_order[-1]
    d1 = math.hypot(pts[e1][0] - pts[v_close][0], pts[e1][1] - pts[v_close][1])
    d2 = math.hypot(pts[e2][0] - pts[v_close][0], pts[e2][1] - pts[v_close][1])
    if d1 < d2 or (d1 == d2 and e1 < e2):
        in_order = in_order[::-1]  # end the inside path at the endpoint nearer the crossing

    out_local = {int(g): i for i, g in enumerate(outside)}
    p_out = min_weight_spanning_path(pts[outside], wf, alpha,
                                     required_endpoint=out_local[v_close])
    out_order = [int(outside[i]) for i in p_out.order]

    order = in_order + out_order
    cross_w = float(edge_weight_pairs(wf, alpha, pts[in_order[-1]][None, :],
                                      pts[v_close][None, :])[0])
    po = pts[np.asarray(order)]
    weight = float(np.sum(edge_weight_pairs(wf, alpha, po[:-1], po[1:])))
    record = ApproxPathRecord(
        n_in=int(inside.size),
        n_out=int(outside.size),
        in_weight=p_in.weight,
        cross_weight=cross_w,
        out_weight=p_out.weight,
    )
    path = SpanningPath(order=tuple(order), weight=weight, endpoints=(order[0], order[-1]))
    return path, record


def _gap_sum(indices: list[int], cell_count: int, alpha: float) -> float:
    """Sum of alpha powers of the label gaps, extended to zero or one index."""
    if not indices:
        return float(cell_count - 1) ** alpha
    gaps = [indices[0] - 1]
    gaps.extend(b - a for a, b in zip(indices, indices[1:]))
    gaps.append(cell_count - indices[-1])
    return float(sum(float(g) ** alpha for g in gaps))


def gap_statistics(points, tiling: Tiling, alpha: float) -> GapStatistics:
    """Classify every cell dense (>= 3 nodes) or sparse (<= 2, empty
    included) and compute the label-gap power sums for both classes plus the
    end-pair mismatch term when both classes are present."""
    check_alpha(alpha)
    pts = as_coords(points)
    labels = cell_index_array(tiling, pts)
    counts = np.bincount(labels, minlength=tiling.cell_count + 1)
    every_cell = range(1, tiling.cell_count + 1)
    dense = [lab for lab in every_cell if counts[lab] >= DENSE_CELL_MIN_NODES]
    sparse = [lab for lab in every_cell if counts[lab] < DENSE_CELL_MIN_NODES]
    s_alpha = _gap_sum(dense, tiling.cell_count, alpha)
    v_alpha = _gap_sum(sparse, tiling.cell_count, alpha)
    z_alpha = None
    if dense and sparse:
        z_alpha = float(abs(dense[0] - sparse[0])) ** alpha + float(abs(dense[-1] - sparse[-1])) ** alpha
    return GapStatistics(
        dense_indices=tuple(dense),
        sparse_indices=tuple(sparse),
        q=len(dense),
        l=len(sparse),
        s_alpha=s_alpha,
        v_alpha=v_alpha,
        z_alpha=z_alpha,
    )
