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
order and merges the two chains into a spanning cycle.  Local search:
``two_opt`` polishes a tour with 2-opt and Or-opt moves (segments of 1-3
nodes) over each node's K = 10 nearest nodes under h, found by an exact
ring search over a grid, in O(n·K) memory: only the exact solvers build
the dense n x n matrix.  Plus exact minimum-weight spanning paths up to 16
nodes (each solved by the dynamic program as a cycle through an extra node
that costs 0 to reach from every node), the in/cross/out decomposition
path, and the dense/sparse label-gap statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .geometry import HALF, Tiling, as_coords, cell_bounds, cell_index_array, check_in_square
from .weights import WeightFunction, check_alpha, edge_weight_pairs, weight_matrix

BRUTEFORCE_MAX_N = 10
EXACT_TOUR_MAX_N = 18
EXACT_PATH_MAX_N = 16
CANDIDATE_K = 10  # candidate list length of two_opt
CELL_NODES = 2  # mean nodes per cell of the candidate search grid
SEARCH_PAIRS = 1 << 16  # (node, candidate) pairs scored at once by the candidate search
EVAL_NODES = 256  # active nodes whose moves two_opt scores at once
# A wave of two_opt scores every node when at most this many are inactive:
# a wave's fixed cost is about that many nodes' scoring, and a wave over
# every node that finds nothing ends the search.
FULL_WAVE_SLACK = 32
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


_FLIP_Y = np.array([1.0, -1.0])


def _candidate_lists(pts: np.ndarray, wf: WeightFunction) -> tuple[np.ndarray, np.ndarray]:
    """Each node's ``CANDIDATE_K`` nearest other nodes under h (every other
    node when n <= K + 1), nearest first with ties to the lower index, and
    their h values: two (n, min(K, n - 1)) arrays.  The points must lie in
    the unit square, where the weight's constants promise c1·d <= h.

    A ring search over a k x k grid of ``grid_col_row`` cells holding about
    ``CELL_NODES`` nodes each.  A node's block of (2R + 1)^2 cells around its
    own holds every node that can beat its K-th best h, h_K, once each block
    side that the square does not clip lies farther than h_K / c1: c1·d <= h,
    so a node beyond that side has h > h_K.  Nodes whose block fails the
    test widen it, R doubling per round.  A round scores its nodes in chunks
    of about ``SEARCH_PAIRS`` (node, candidate) pairs, which bounds the
    temporaries.
    """
    n = pts.shape[0]
    kk = min(CANDIDATE_K, n - 1)
    k = max(1, math.isqrt(n // CELL_NODES))
    # coordinates in cell units, >= 0 on the square: the products that
    # grid_col_row floors, so cr holds its column and row of each node's cell
    at = (pts * _FLIP_Y + HALF) * k
    cr = np.minimum(at.astype(np.int64), k - 1)
    cell = cr[:, 1] * k + cr[:, 0]
    by_cell = cell.argsort(kind="stable")
    start = np.zeros(k * k + 1, dtype=np.int64)
    np.bincount(cell, minlength=k * k).cumsum(out=start[1:])
    nb = np.empty((n, kk), dtype=np.intp)
    hb = np.empty((n, kk))
    todo = np.arange(n)
    radius = 2
    while todo.size:
        low, high = cr[todo] - radius, cr[todo] + radius + 1
        # cells of the block, one row of cells (a run of by_cell) at a time
        rows = low[:, 1:] + np.arange(2 * radius + 1)
        first = np.minimum(np.maximum(rows, 0), k - 1) * k
        lo = start[first + np.maximum(low[:, :1], 0)]
        hi = np.where((rows >= 0) & (rows < k), start[first + np.minimum(high[:, :1], k)], lo)
        # distance, in cell units, to the nearest block side not clipped by the grid
        reach = np.where(np.concatenate((low > 0, high < k), axis=1),
                         np.concatenate((at[todo] - low, high - at[todo]), axis=1),
                         np.inf).min(axis=1) * (1.0 - 1e-9) * wf.c1 / k
        done = np.zeros(todo.size, dtype=bool)
        cum = (hi - lo).cumsum()  # pairs up to each run, self pairs included
        a = 0
        while a < todo.size:
            base = cum[a * rows.shape[1] - 1] if a else 0
            b = max(a + 1, int(cum.searchsorted(base + SEARCH_PAIRS, side="right"))
                    // rows.shape[1])
            lens = (hi[a:b] - lo[a:b]).ravel()
            offset = (lo[a:b].ravel() - (lens.cumsum() - lens)).repeat(lens)
            cand = by_cell[np.arange(offset.size) + offset]
            owner = np.arange(b - a).repeat(rows.shape[1]).repeat(lens)
            nodes = todo[a:b]
            keep = cand != nodes[owner]
            owner, cand = owner[keep], cand[keep]
            h = wf.h_pairs(pts[nodes[owner]], pts[cand])
            count = np.bincount(owner, minlength=b - a)
            full = count >= kk
            if full.any():
                # keep each node's pairs up to its K-th smallest h (ties
                # included), then order those by (h, index)
                table = np.empty((b - a, max(kk, count.max())))
                table.fill(np.inf)
                table[owner, np.arange(owner.size) - (count.cumsum() - count)[owner]] = h
                table.partition(kk - 1, axis=1)
                keep = h <= table[owner, kk - 1]
                owner, cand, h = owner[keep], cand[keep], h[keep]
                count = np.bincount(owner, minlength=b - a)
                pick = np.lexsort((cand, h, owner))[
                    (count.cumsum() - count)[full, None] + np.arange(kk)]
                nb[nodes[full]] = cand[pick]
                hb[nodes[full]] = h[pick]
                done[a:b][full] = h[pick[:, -1]] < reach[a:b][full]
            a = b
        todo = todo[~done]
        radius *= 2
    return nb, hb


# The move rows of a local-search wave, by tour offset from its node a.
# Rows 0-4 carry an Or-opt segment of _SEG_LEN[j] nodes with a at one end
# and its far end z at offset _SEG_Z[j]: rows 0-2 run forward from a, rows
# 3-4 back.  Rows 5-6 are the 2-opt moves that drop a's edge to b = the
# node at _SEG_Z[j] (forward, then back) and c's edge the same way.
_SEG_LEN = np.array([1, 2, 3, 2, 3, 0, 0])
_SEG_Z = np.array([0, 1, 2, -1, -2, 1, -1])
_REACH = 3  # the largest offset a row reads: an Or-opt segment's far neighbour
_Z_ROW = _SEG_Z + _REACH  # z's row among the nodes at offsets -3..3
# The weight a row drops besides c's edge: an Or-opt segment's two outside
# edges minus the bridge that closes the gap it leaves, or a's 2-opt edge.
# Each term is a chord (t[p], t[p + d]) of the tour, given as
# (d - 1, p - pa); row 4 of the chord table is zeros.
_DROP = np.array([
    [[0, -1], [0, 0], [1, -1]],
    [[0, -1], [0, 1], [2, -1]],
    [[0, -1], [0, 2], [3, -1]],
    [[0, 0], [0, -2], [2, -2]],
    [[0, 0], [0, -3], [3, -3]],
    [[0, 0], [4, 0], [4, 0]],
    [[0, -1], [4, 0], [4, 0]],
]).transpose(2, 1, 0)[..., None]
# Moves that are not moves, as closed ranges of the signed tour offset from a:
# an Or-opt c or e inside the segment; a 2-opt c at b, its d = e at a, or e
# on the other side of c than the row's direction.  The penalty table
# _PENALTY[row, side, c's offset, e's offset] takes offsets clipped to
# [-3, 3], since no range reaches +-3, and holds -inf for those moves.
_SEG_SPAN = np.array([[0, 0], [0, 1], [0, 2], [-1, 0], [-2, 0]])
_BAD_C = np.concatenate((_SEG_SPAN, [[1, 1], [-1, -1]]))
_BAD_E = np.concatenate((np.repeat(_SEG_SPAN[:, None], 2, axis=1),
                         [[[0, 0], [-3, 3]], [[-3, 3], [0, 0]]]))
_OFF = np.arange(-_REACH, _REACH + 1)
_PENALTY = np.where(
    ((_BAD_C[:, :1] <= _OFF) & (_OFF <= _BAD_C[:, 1:]))[:, None, :, None]
    | ((_BAD_E[..., :1] <= _OFF) & (_OFF <= _BAD_E[..., 1:]))[:, :, None, :],
    -np.inf, 0.0)
_ROW_SIDE = np.arange(0, _PENALTY.size, _OFF.size ** 2).reshape(7, 2, 1, 1)


def _reverse_path(t: np.ndarray, pos: np.ndarray, i: int, j: int) -> None:
    """Reverse the tour positions i..j (cyclic, forward), or the complementary
    path when that is shorter: both leave the same cycle."""
    n = t.size
    length = (j - i) % n + 1
    if 2 * length > n:
        i, length = j + 1, n - length
    idx = (i + np.arange(length)) % n
    t[idx] = t[idx[::-1]]
    pos[t[idx]] = idx


def _move_segment(t: np.ndarray, pos: np.ndarray, path: list[int], c: int, e: int) -> None:
    """Move the tour segment ``path`` (listed from the end that joins c) into
    the tour edge (c, e), rewriting whichever side of the cycle is shorter."""
    n, seg = t.size, len(path)
    if t[(pos[c] + 1) % n] == e:
        u, x = c, path
    else:
        u, x = e, path[::-1]
    ends = sorted((int(pos[path[0]]), int(pos[path[-1]])))
    i = ends[0] if ends[1] - ends[0] == seg - 1 else ends[1]  # else it wraps past 0
    between = (int(pos[u]) - i - seg) % n + 1  # from the segment's end to u
    if between <= n - seg - between:
        idx = (i + np.arange(between + seg)) % n
        new = np.concatenate((t[idx[seg:]], x))
    else:
        idx = (pos[u] + 1 + np.arange(n - between)) % n
        new = np.concatenate((x, t[idx[:n - seg - between]]))
    t[idx] = new
    pos[new] = idx


def _local_search(pts: np.ndarray, wf: WeightFunction, alpha: float, t: np.ndarray) -> None:
    """2-opt and Or-opt moves on the cycle ``t`` (n >= 4, in place) over each
    node's candidate list, until no such move gains more than
    tol = 1e-12·(1 + the start tour's weight).

    Each wave scores every move of its active nodes as whole arrays, in
    chunks of ``EVAL_NODES`` nodes: the 2-opt moves that join a node a to a
    candidate c, in both tour directions, and the Or-opt moves that carry a
    segment of 1-3 nodes ending at a into a tour edge (c, e), e either tour
    neighbour of c, with a joined to c.  Each node proposes its best move,
    and the proposals are applied best gain first.  A proposal is skipped
    when an earlier move of the wave touched one of its nodes (its edges
    may be gone), or when the two edges of a 2-opt move no longer point the
    same way (a reversal between them flipped one).  Nodes that a move
    touched, or whose proposal was skipped, stay active; the others are not
    scored again until a move touches them (don't-look bits), unless at
    most ``FULL_WAVE_SLACK`` nodes would sit out.  A wave that finds nothing
    is followed by one over every node, and the search ends when a wave
    over every node finds nothing.  Every applied move gains more than
    tol, so the search ends.
    """
    n = t.size
    nb, hb = _candidate_lists(pts, wf)
    kk = nb.shape[1]
    # candidate-major copies, so that a chunk's gathers come out contiguous
    nb_t, w_ac = nb.T.copy(), (hb ** alpha).T.copy()
    # a segment needs two distinct outside neighbours
    penalty = np.where((_SEG_LEN > n - 2)[:, None, None, None], -np.inf, _PENALTY).ravel()
    # c's tour offset from a, as pos[c] - pa + n - 1, to the penalty-table
    # columns of (c's offset, e's offset) for e = succ c, then e = pred c:
    # off[x] is the offset x - n, signed mod n and clipped to [-3, 3]
    off = (np.arange(2 * n + 1) + n // 2) % n - n // 2
    off = np.minimum(np.maximum(off, -_REACH), _REACH) + _REACH
    columns = off[1:-1] * _OFF.size + np.stack((off[2:], off[:-2]))
    ahead = (np.arange(n) + np.arange(1, 5)[:, None]) % n
    pos = np.empty(n, dtype=np.intp)
    pos[t] = np.arange(n)
    drop_at = _DROP[0] * n
    chord = np.zeros((5, n))
    ends = np.empty((2, n), dtype=np.intp)  # (succ v, pred v)
    ew = np.empty((2, n))  # (w(v, succ v), w(pred v, v))

    def read_tour():
        chord[:4] = wf.h_pairs(pts[t], pts[t[ahead]]) ** alpha
        nxt = t[ahead[0]]
        ends[0, t] = nxt
        ends[1, nxt] = t
        ew[0, t] = chord[0]
        ew[1, nxt] = chord[0]

    read_tour()
    tol = 1e-12 * (1.0 + chord[0].sum())  # the edges summed as tour_weight sums them
    active = np.arange(n)
    every = True
    while True:
        found = []
        # arrays run (row, side of c, candidate, node): the node axis last
        # and contiguous, so that every broadcast has long inner loops
        for s in range(0, active.size, EVAL_NODES):
            a = active[s:s + EVAL_NODES]
            pa = pos[a]
            near = t[(pa + _OFF[:, None]) % n]  # the nodes at offsets -3..3
            c = nb_t.take(a, axis=1)
            e = ends.take(c, axis=1)
            drop = chord.take(drop_at + (pa + _DROP[1]) % n)
            gain = ((drop[0] + drop[1] - drop[2])[:, None, None]
                    + (ew.take(c, axis=1) - w_ac.take(a, axis=1))) \
                - wf.h_pairs(pts[near[_Z_ROW]][:, None, None], pts[e]) ** alpha
            gain += penalty.take(_ROW_SIDE + columns.take(pos[c] + (n - 1 - pa), axis=1))
            gain = gain.reshape(-1, a.size)
            best = gain.argmax(axis=0)
            gbest = gain[best, np.arange(a.size)]
            hit = gbest > tol
            found.append((gbest[hit], a[hit], best[hit], near[:, hit].T))
        gains = np.concatenate([f[0] for f in found])
        if not gains.size:
            if every:
                return
            active, every = np.arange(n), True
            continue
        a_hit, code, near_hit = (np.concatenate([f[i] for f in found]).tolist()
                                 for i in (1, 2, 3))
        touched = bytearray(n)
        kept = []
        for i in (-gains).argsort(kind="stable").tolist():
            a, at = a_hit[i], near_hit[i]
            j, rest = divmod(code[i], 2 * kk)
            side, k = divmod(rest, kk)
            c = int(nb[a, k])
            e = int(ends[side, c])
            if j < 5:  # Or-opt: segment j into the edge (c, e)
                step, length = (1 if j < 3 else -1), int(_SEG_LEN[j])
                path = at[_REACH:_REACH + step * length:step]
                nodes = path + [at[_REACH - step], at[_REACH + step * length], c, e]
            else:  # 2-opt: edges (a, b) and (c, e) become (a, c) and (b, e)
                b = at[_REACH + _SEG_Z[j]]
                nodes = [a, b, c, e]
            if any(touched[v] for v in nodes):
                kept.append(a)
                continue
            if j < 5:
                _move_segment(t, pos, path, c, e)
            elif t[(pos[a] + 1) % n] == b and t[(pos[c] + 1) % n] == e:
                _reverse_path(t, pos, int(pos[b]), int(pos[c]))
            elif t[pos[a] - 1] == b and t[pos[c] - 1] == e:
                _reverse_path(t, pos, int(pos[a]), int(pos[e]))
            else:
                kept.append(a)
                continue
            for v in nodes:
                touched[v] = 1
        read_tour()
        mark = np.frombuffer(touched, dtype=np.uint8).copy()
        mark[kept] = 1
        active = mark.nonzero()[0]
        if active.size + FULL_WAVE_SLACK >= n:
            active = np.arange(n)
        every = active.size == n


def two_opt(points, tour: Tour, wf: WeightFunction, alpha: float) -> Tour:
    """Polish a tour with 2-opt and Or-opt moves (segments of 1-3 nodes,
    both orientations) over each node's ``CANDIDATE_K`` nearest nodes under
    h, until no such move gains more than a tolerance relative to the
    tour's weight.  Memory is O(n·K): no n x n matrix is built.  The weight
    never increases.  Raises ValueError for a point outside the unit square,
    where the candidate lists would not be exact."""
    check_alpha(alpha)
    pts = as_coords(points)
    check_in_square(pts)
    n = pts.shape[0]
    order = _validate_permutation(tour.order, n)
    if n >= 4:
        t = np.asarray(order, dtype=np.intp)
        _local_search(pts, wf, alpha, t)
        order = t.tolist()
    order = canonical_cycle(order)
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
    side may hold more than 16 nodes.  Every point must lie in the unit
    square.
    """
    check_alpha(alpha)
    pts = as_coords(points)
    check_in_square(pts)
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
