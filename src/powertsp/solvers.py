"""Tour and spanning-path solvers over power-weighted edges.

Exact solvers: a full permutation scan (oracle, n <= 10) and a bitmask
dynamic program (n <= 18), both returning the lexicographically smallest
canonical optimal order.  The dynamic program fills its completion table
one popcount layer at a time, from the full mask down, each block of a
layer's rows with one gather over every next node and one minimum; a
cycle's table is indexed by ``mask >> 1`` (every mask it reads holds node
0), so it takes 8·n·2^(n-1) bytes.  The permutation scan shares no code
with it: it sums every cycle at once over an int8 table of permutation
rows, built as whole arrays.  Both read the optimal tour's weight off the
weight matrix they built, with no second kernel pass.  Constructive solver: the
cell-chained tour that strings nearest-neighbor paths through dense cells
(>= 3 nodes) and sparse cells (1-2 nodes) of a tiling in serpentine label
order and merges the two chains into a spanning cycle.  Cells of at most
``WALK_MAX_NODES`` nodes are walked as whole arrays, in a few kernel calls
per tour: each one's entry from every node of the cell before it, and its
walk from every entry that can occur; pointer doubling over those tables
then follows each run of such cells in a few whole-array gathers.  A larger
cell ends a run and is walked one kernel call per step from the chain
tail.  Local search:
``two_opt`` polishes a tour with 2-opt and Or-opt moves (segments of 1-3
nodes) over each node's K = 10 nearest nodes under h, found by an exact
ring search over a grid, in O(n·K) memory: only the exact solvers build
the dense n x n matrix.  A wave scores its nodes in chunks of
``EVAL_NODES`` and applies each chunk's moves before it scores the next;
the search ends on a wave over every node that finds nothing.  Plus
exact minimum-weight spanning paths up to 16 nodes (each solved by the
dynamic program as a cycle through an extra node that costs 0 to reach
from every node), the in/cross/out decomposition path, and the
dense/sparse cell counts.  ``solve`` is the one place that maps a solver
name, ``"exact"`` or one of ``HEURISTICS``, to these calls.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import HALF, Tiling, as_coords, cell_bounds, cell_index_array, check_in_square
from .weights import WeightFunction, check_alpha, edge_weight_pairs, weight_matrix

BRUTEFORCE_MAX_N = 10
EXACT_TOUR_MAX_N = 18
EXACT_PATH_MAX_N = 16
CANDIDATE_K = 10  # candidate list length of two_opt
CELL_NODES = 2  # mean nodes per cell of the candidate search grid
# (node, candidate) pairs scored at once by the ring search of the candidate
# lists: its largest temporary, their coordinates, holds 64 KiB, so that no
# block reaches glibc's default mmap threshold (128 KiB) and maps fresh pages
RING_PAIRS = 1 << 12
# (node, candidate) pairs scored at once by grid_tour, and candidate sums per
# row block of the completion table
SEARCH_PAIRS = 1 << 16
EVAL_NODES = 256  # active nodes whose moves two_opt scores at once
# grid_tour walks a cell of at most this many nodes ahead of time, from every
# entry that can occur (O(m^3) for m nodes), and a larger one from the chain tail
WALK_MAX_NODES = 32
# A wave of two_opt scores every node when at most this many are inactive:
# a wave's fixed cost is about that many nodes' scoring, and a wave over
# every node that finds nothing ends the search.
FULL_WAVE_SLACK = 32
DENSE_CELL_MIN_NODES = 3  # a cell with fewer nodes is sparse
HEURISTICS = ("grid_tour", "grid_tour+two_opt")


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
    """The number of dense cells (q) and of sparse cells (l, empty ones
    included) of a tiling."""

    q: int
    l: int


def _int64_order(order) -> np.ndarray:
    """``order`` as a new int64 array."""
    # array("q") takes integers alone (a float raises TypeError) and reads a
    # tuple as fast as np.array with a dtype; np.asarray would first scan
    # every entry for a common dtype, about 0.1 ms more at 4096 entries
    return np.frombuffer(array("q", order), dtype=np.int64)


def _validate_permutation(order, n: int) -> np.ndarray:
    """``order`` as a new int64 array, after checking that its entries are
    integers and that it holds each of 0..n-1 once."""
    try:
        idx = _int64_order(order)
    except (TypeError, OverflowError):
        raise ValueError(f"order is not a permutation of 0..{n - 1}: "
                         "its entries are not integers") from None
    if idx.size != n or (n and not (0 <= idx.min() and idx.max() < n
                                    and (np.bincount(idx, minlength=n) == 1).all())):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    return idx


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
    return _order_weight(pts, _validate_permutation(order, n), wf, alpha)


def _order_weight(pts: np.ndarray, idx: np.ndarray, wf: WeightFunction, alpha: float) -> float:
    """``tour_weight`` of the int64 permutation ``idx``, unchecked: for the
    solvers, which have just built it."""
    po = pts.take(idx, axis=0)
    return float(np.sum(edge_weight_pairs(wf, alpha, po, np.concatenate((po[1:], po[:1])))))


def _cycle_weight(mat: np.ndarray, order: tuple[int, ...]) -> float:
    """``tour_weight`` of ``order`` read off its weight matrix: the same
    edges, whose weights equal its kernel's bit for bit, summed in the same
    order."""
    return float(mat[order, order[1:] + order[:1]].sum())


@lru_cache(maxsize=None)
def _cycle_rows(n: int) -> np.ndarray:
    """One int8 row per cycle through node 0, its other nodes in visiting
    order, in the lexicographic order of ``itertools.permutations(range(1,
    n))`` less every row with p[0] > p[-1], which reflects an earlier one.
    Read-only, since it is cached: 1.6 MB at BRUTEFORCE_MAX_N = 10."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n):
        # the m! orders of 0..m-1: each first value f in turn, followed by
        # the orders of 0..m-2 with every value >= f moved up by one
        first = np.repeat(np.arange(m, dtype=np.int8), len(perms))[:, None]
        rest = np.tile(perms, (m, 1))
        rest += rest >= first
        perms = np.hstack((first, rest))
    perms = perms[perms[:, 0] <= perms[:, -1]]
    perms += 1
    perms.setflags(write=False)
    return perms


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
    perms = _cycle_rows(n)
    # summed edge by edge from node 0, the float order of a loop over a cycle
    weights = mat[0, perms[:, 0]]
    for k in range(1, n - 1):
        weights += mat[perms[:, k - 1], perms[:, k]]
    weights += mat[perms[:, -1], 0]
    best_w = float(weights.min())
    tol = 1e-12 * (1.0 + abs(best_w))
    first = int(np.flatnonzero(weights <= best_w + tol)[0])
    order = (0,) + tuple(perms[first].tolist())
    return Tour(order=order, weight=_cycle_weight(mat, order))


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

    Rows are filled from the full mask down, one popcount layer at a time
    (the Held–Karp/Bellman recursion).  A block of a layer's rows takes one
    gather of h at every next node t and one minimum over t of that gather
    plus mat[j, t], through an (n-1) x rows x n temporary of at most
    ``SEARCH_PAIRS`` entries.  Each candidate is the same float sum in any
    order of t, and a minimum does not depend on it, so the table does not
    either.  Every mask read holds bit 0, so the table holds 2^(n-1) rows,
    8·n·2^(n-1) bytes.  Entries for j outside mask are filled but never
    read.
    """
    n = mat.shape[0]
    bits = n - 1
    h = np.full((1 << bits, n), np.inf)
    h[-1, :] = mat[:, 0]
    t = np.arange(1, n)[:, None]
    tbits = 1 << (t - 1)
    cols = mat[:, 1:].T[:, None, :]
    step = max(1, SEARCH_PAIRS // (bits * n))
    for rows in reversed(_popcount_layers(bits)[:-1]):
        for s in range(0, rows.size, step):
            block = rows[s:s + step]
            # rows already holding t look up their own, still-infinite row
            h[block] = (h[block | tbits, t][:, :, None] + cols).min(axis=0)
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
    return Tour(order=order, weight=_cycle_weight(mat, order))


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


def _label_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a sorted array."""
    first = np.ones(labels.size, dtype=bool)
    first[1:] = labels[1:] != labels[:-1]
    lo = np.flatnonzero(first)
    return lo, np.diff(lo, append=labels.size)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs starts[i], starts[i] + 1, ..., starts[i] + lens[i] - 1, concatenated."""
    offset = (starts - (lens.cumsum() - lens)).repeat(lens)
    return np.arange(offset.size) + offset


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
    of about ``RING_PAIRS`` (node, candidate) pairs, which bounds the
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
    # a stable sort of the narrowest type that holds every cell: numpy
    # radix-sorts 8- and 16-bit keys, and any stable sort gives the same order
    by_cell = cell.astype(np.min_scalar_type(k * k)).argsort(kind="stable")
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
            b = max(a + 1, int(cum.searchsorted(base + RING_PAIRS, side="right"))
                    // rows.shape[1])
            lens = (hi[a:b] - lo[a:b]).ravel()
            cand = by_cell[_ranges(lo[a:b].ravel(), lens)]
            owner = np.arange(b - a).repeat(rows.shape[1]).repeat(lens)
            nodes = todo[a:b]
            keep = cand != nodes[owner]
            owner, cand = owner[keep], cand[keep]
            h = wf.h_pairs(pts.take(nodes[owner], axis=0), pts.take(cand, axis=0))
            count = np.bincount(owner, minlength=b - a)
            full = count >= kk
            if full.any():
                # keep each node's pairs up to its K-th smallest h (ties
                # included), then order those by (h, index), one table row
                # per node, padded by (inf, n), which sorts after every pair
                table = np.empty((b - a, max(kk, count.max())))
                table.fill(np.inf)
                table[owner, np.arange(owner.size) - (count.cumsum() - count)[owner]] = h
                table.partition(kk - 1, axis=1)
                keep = h <= table[owner, kk - 1]
                owner, cand, h = owner[keep], cand[keep], h[keep]
                count = np.bincount(owner, minlength=b - a)
                col = np.arange(owner.size) - (count.cumsum() - count)[owner]
                h_row = np.full((b - a, count.max()), np.inf)
                h_row[owner, col] = h
                c_row = np.full(h_row.shape, n)
                c_row[owner, col] = cand
                h_row, c_row = h_row[full], c_row[full]
                pick = np.lexsort((c_row, h_row), axis=-1)[:, :kk]
                nb[nodes[full]] = np.take_along_axis(c_row, pick, axis=1)
                hb[nodes[full]] = h_k = np.take_along_axis(h_row, pick, axis=1)
                done[a:b][full] = h_k[:, -1] < reach[a:b][full]
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
_SEG_SPAN = np.array([[0, 0], [0, 1], [0, 2], [-1, 0], [-2, 0]])  # the segment's offsets
_REACH = 3  # the largest offset a row reads: an Or-opt segment's far neighbour
_Z_ROW = _SEG_Z + _REACH  # z's row among the nodes at offsets -3..3
# The tour edges a row drops besides c's edge, as the rows among offsets
# -3..3 of their earlier ends: an Or-opt row's edges into and out of the
# segment (_OUT), whose outer ends the bridge (_BRIDGE) joins to close the
# gap the segment leaves, or a 2-opt row's edge (a, b) (_EDGE).
_OUT = _SEG_SPAN + [-1, 0] + _REACH
_BRIDGE = _SEG_SPAN + [-1, 1] + _REACH
_EDGE = np.minimum(_SEG_Z[5:], 0) + _REACH
# Moves that are not moves, as closed ranges of the signed tour offset from a:
# an Or-opt c or e inside the segment; a 2-opt c at b, its d = e at a, or e
# on the other side of c than the row's direction.  The penalty table
# _PENALTY[row, side, c's offset, e's offset] takes offsets clipped to
# [-3, 3], since no range reaches +-3, and holds -inf for those moves.
_BAD_C = np.concatenate((_SEG_SPAN, [[1, 1], [-1, -1]]))
_BAD_E = np.concatenate((np.repeat(_SEG_SPAN[:, None], 2, axis=1),
                         [[[0, 0], [-3, 3]], [[-3, 3], [0, 0]]]))
_OFF = np.arange(-_REACH, _REACH + 1)
_PENALTY = np.where(
    ((_BAD_C[:, :1] <= _OFF) & (_OFF <= _BAD_C[:, 1:]))[:, None, :, None]
    | ((_BAD_E[..., :1] <= _OFF) & (_OFF <= _BAD_E[..., 1:]))[:, :, None, :],
    -np.inf, 0.0)
# The (row, side) pairs that can be moves, in flat (row, side) order: rows
# 0-4 on both sides of c, then row 5 with e = succ c and row 6 with e = pred c
# (the other side of a 2-opt row is always -inf).  A 2-opt row's z, and so
# its h(z, e), is that of the Or-opt row _TWO_OPT_Z on the same side.
_PAIR_ROW = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6])
_PAIR_SIDE = np.array([0, 1] * 6)
_TWO_OPT_Z = np.array([1, 3])
# _PAIR_PENALTY[pair, code]: the penalty by the code of (c's offset, succ
# c's offset, pred c's offset), each clipped to [-3, 3] and shifted to 0-6
_PAIR_PENALTY = np.where((_PAIR_SIDE == 0)[:, None, None, None],
                         _PENALTY[_PAIR_ROW, _PAIR_SIDE][:, :, :, None],
                         _PENALTY[_PAIR_ROW, _PAIR_SIDE][:, :, None, :]).reshape(_PAIR_ROW.size, -1)
_SIDE_STEP = np.array([1, -1]).reshape(2, 1, 1)  # e = succ c, then pred c


def _span(n: int, lo: int, length: int) -> tuple[slice | np.ndarray, np.ndarray]:
    """The tour positions lo, lo + 1, ... (mod n) of a path of ``length``
    entries, as a key that indexes them and as an array: the key is a slice
    unless the path wraps past position 0."""
    if lo + length <= n:
        return slice(lo, lo + length), np.arange(lo, lo + length)
    idx = (lo + np.arange(length)) % n
    return idx, idx


def _reverse_path(t: np.ndarray, pos: np.ndarray, w: np.ndarray, i: int, j: int) -> None:
    """Reverse the tour positions i..j (cyclic, forward), or the complementary
    path when that is shorter: both leave the same cycle.  The edge weights
    ``w`` follow: the path's own edges keep theirs, in reverse order, since h
    is bit-symmetric, and the two edges that join it to the rest are new,
    marked NaN."""
    n = t.size
    length = (j - i) % n + 1
    if 2 * length > n:
        i, length = j + 1, n - length
        if not length:  # the whole cycle, which its reversal leaves as it is
            return
    i %= n
    key, idx = _span(n, i, length)
    t[key] = t[key][::-1]  # numpy copies an overlapping right-hand side first
    pos[t[key]] = idx
    inner = slice(i, i + length - 1) if isinstance(key, slice) else key[:-1]
    w[inner] = w[inner][::-1]
    w[i - 1] = w[(i + length - 1) % n] = np.nan


def _move_segment(t: np.ndarray, pos: np.ndarray, w: np.ndarray, path: list[int], c: int,
                  e: int) -> None:
    """Move the tour segment ``path`` (listed from the end that joins c) into
    the tour edge (c, e), rewriting whichever side of the cycle is shorter.
    The edge weights ``w`` of the path it shifts shift with it; the three
    new edges and the segment's own are marked NaN."""
    n, seg = t.size, len(path)
    if t[(pos[c] + 1) % n] == e:
        u, x = c, path
    else:
        u, x = e, path[::-1]
    ends = sorted((int(pos[path[0]]), int(pos[path[-1]])))
    i = ends[0] if ends[1] - ends[0] == seg - 1 else ends[1]  # else it wraps past 0
    between = (int(pos[u]) - i - seg) % n + 1  # from the segment's end to u
    if between <= n - seg - between:  # the segment, then the path up to u
        key, idx = _span(n, i, between + seg)
        new = np.concatenate((t[key][seg:], x))
        wk = w[key]
        wk[:between - 1] = wk[seg:-1]
        wk[between - 1:] = np.nan
    else:  # the path after u, then the segment
        i = (int(pos[u]) + 1) % n
        key, idx = _span(n, i, n - between)
        new = np.concatenate((x, t[key][:-seg]))
        wk = w[key]
        wk[seg:-1] = wk[:-seg - 1]
        wk[:seg] = wk[-1] = np.nan
    t[key] = new
    pos[new] = idx
    w[key] = wk  # a copy when the key is an index array; numpy skips a slice's self-copy
    w[i - 1] = np.nan  # the edge into the rewritten positions


def _propose(pts: np.ndarray, wf: WeightFunction, alpha: float, t: np.ndarray, pos: np.ndarray,
             w: np.ndarray, nb_t: np.ndarray, w_ac: np.ndarray, penalty: np.ndarray,
             columns: np.ndarray, tol: float, out: np.ndarray,
             a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Score every move of the nodes ``a`` as whole arrays (see
    ``_local_search``) and return, for those whose best move gains more
    than tol, in the order of ``a``: the gain, the node, the move's row, its
    c and e, and the nodes at tour offsets -3..3 from the node.  The gains
    and their penalties are written into ``out``, a float array of at least
    2·12·K·a.size entries that the caller allocates once and reuses."""
    # arrays run (pair, candidate, node): the node axis last and contiguous,
    # so that every broadcast has long inner loops
    n = t.size
    pa = pos.take(a)
    around = pa + _OFF[:, None]  # the positions at offsets -3..3, mod n
    near = t.take(around, mode="wrap")
    xy = pts.take(near, axis=0)
    w_at = w.take(around, mode="wrap")
    drop = np.concatenate((
        (w_at[_OUT[:, 0]] + w_at[_OUT[:, 1]])
        - wf.h_pairs(xy[_BRIDGE[:, 0]], xy[_BRIDGE[:, 1]]) ** alpha,
        w_at[_EDGE]))
    c = nb_t.take(a, axis=1)
    pc = pos.take(c)
    pe = pc + _SIDE_STEP  # e's position, mod n; the edge (c, e) starts at the earlier one
    e = t.take(pe, mode="wrap")
    # pairs 0-9 are the Or-opt rows on both sides of c, 10-11 the 2-opt rows
    size = _PAIR_ROW.size * c.size
    gain = out[:size].reshape((_PAIR_ROW.size,) + c.shape)
    or_opt = gain[:10].reshape((5, 2) + c.shape)
    base = w.take(np.minimum(pc, pe), mode="wrap") - w_ac.take(a, axis=1)
    np.add(drop[:5, None, None], base, out=or_opt)
    np.add(drop[5:, None], base, out=gain[10:])
    z = xy[_Z_ROW[:5], None]
    for side in (0, 1):  # h(z, e) for every z offset, on this side of c
        h_ze = wf.h_pairs(z, pts.take(e[side], axis=0)) ** alpha
        or_opt[:, side] -= h_ze
        gain[10 + side] -= h_ze[_TWO_OPT_Z[side]]
        del h_ze  # freed before the next side's kernel call allocates its own
    pen = out[size:2 * size].reshape(gain.shape)
    # every column is in range; "clip" writes straight into out, where the
    # default "raise" would gather into a temporary first
    penalty.take(columns.take(pc + (n - 1 - pa)), axis=1, out=pen, mode="clip")
    gain += pen
    # each node's best gain and, where it beats tol, the first pair that
    # reaches it, as argmax picks it, without argmax's transposed copy of
    # the gains
    flat = gain.reshape(-1, a.size)
    gbest = flat.max(axis=0)
    hit = np.flatnonzero(gbest > tol)
    pair, k = np.divmod((flat[:, hit] == gbest[hit]).argmax(axis=0), c.shape[0])
    return (gbest[hit], a[hit], _PAIR_ROW[pair], c[k, hit], e[_PAIR_SIDE[pair], k, hit],
            near[:, hit].T)


def _edge_weights(pts: np.ndarray, wf: WeightFunction, alpha: float, t: np.ndarray) -> np.ndarray:
    """w[p] = h^alpha of the tour edge (t[p], t[p + 1]), by one kernel call:
    the polish's start, which its movers then keep in step."""
    return wf.h_pairs(pts.take(t, axis=0), pts.take(np.concatenate((t[1:], t[:1])), axis=0)) ** alpha


def _repair_edges(pts: np.ndarray, wf: WeightFunction, alpha: float, t: np.ndarray,
                  pos: np.ndarray, w: np.ndarray, nodes: set[int]) -> None:
    """Recompute, by one kernel call, the edge weights that the movers
    marked NaN.  Both ends of each such edge are among ``nodes``, the nodes
    the moves touched, so it starts at the position of one of them."""
    at = pos.take(np.fromiter(nodes, dtype=np.intp, count=len(nodes)))
    at = at[np.isnan(w.take(at))]
    nxt = t.take(at + 1, mode="wrap")
    w[at] = wf.h_pairs(pts.take(t.take(at), axis=0), pts.take(nxt, axis=0)) ** alpha


def _apply_moves(t: np.ndarray, pos: np.ndarray, w: np.ndarray,
                 found: tuple[np.ndarray, ...]) -> tuple[set[int], list[int]]:
    """Apply the proposals of the ``_propose`` result ``found`` best gain
    first, skipping each proposal that an earlier one touched or whose 2-opt
    edges no longer point the same way (see ``_local_search``).  Returns the
    nodes the applied moves touched and the nodes whose proposals were
    skipped."""
    n = t.size
    a_hit, j_hit, c_hit, e_hit, near_hit = (f.tolist() for f in found[1:])
    seg_len, seg_z = _SEG_LEN.tolist(), _SEG_Z.tolist()
    touched, kept = set(), []
    for i in (-found[0]).argsort(kind="stable").tolist():
        a, j, c, e, at = a_hit[i], j_hit[i], c_hit[i], e_hit[i], near_hit[i]
        if j < 5:  # Or-opt: segment j into the edge (c, e)
            step, length = (1 if j < 3 else -1), seg_len[j]
            path = at[_REACH:_REACH + step * length:step]
            nodes = path + [at[_REACH - step], at[_REACH + step * length], c, e]
        else:  # 2-opt: edges (a, b) and (c, e) become (a, c) and (b, e)
            b = at[_REACH + seg_z[j]]
            nodes = [a, b, c, e]
        if not touched.isdisjoint(nodes):
            kept.append(a)
            continue
        if j < 5:
            _move_segment(t, pos, w, path, c, e)
        elif t[(pos[a] + 1) % n] == b and t[(pos[c] + 1) % n] == e:
            _reverse_path(t, pos, w, int(pos[b]), int(pos[c]))
        elif t[pos[a] - 1] == b and t[pos[c] - 1] == e:
            _reverse_path(t, pos, w, int(pos[a]), int(pos[e]))
        else:
            kept.append(a)
            continue
        touched.update(nodes)
    return touched, kept


def _local_search(pts: np.ndarray, wf: WeightFunction, alpha: float, t: np.ndarray) -> None:
    """2-opt and Or-opt moves on the cycle ``t`` (n >= 4, in place) over each
    node's candidate list, until no such move gains more than
    tol = 1e-12·(1 + the start tour's weight).

    The tour is held as its order ``t``, the position ``pos`` of each node
    and the weight w[p] of each edge (t[p], t[p + 1]).  One kernel call
    computes w at the start; after that the movers keep it in step with the
    tour, carrying the weights of the edges they keep and marking each new
    edge NaN, and one kernel call per chunk that moved something recomputes
    the marked edges, so no chunk does work that grows with n beyond its
    moves.  Each wave scores every move of its active nodes as whole
    arrays, in chunks of ``EVAL_NODES`` nodes: the 2-opt moves that join a
    node a to a candidate c, in both tour directions, and the Or-opt moves
    that carry a segment of 1-3 nodes ending at a into a tour edge (c, e), e
    either tour neighbour of c, with a joined to c.  A move's gain is the
    weight it drops, read off w, minus the weight it adds: the edge (a, c),
    read off the candidate lists, and the edge from e and an Or-opt move's
    bridge, scored by three kernel calls per chunk (the bridges, then
    h(z, e) for every z offset once per side of c, so that no temporary
    reaches 128 KiB).  The chunks write their gains into one buffer
    allocated per polish.  Each node proposes its best move, with the c and e it was scored with.  A chunk's
    proposals are applied as soon as it is scored, best gain first, so the
    wave's later chunks score the tour its earlier chunks left.  A proposal
    is skipped when an earlier move of its chunk touched one of its nodes
    (its edges may be gone), or when the two edges of a 2-opt move no
    longer point the same way (a reversal between them flipped one).
    Nodes that a move touched, or whose proposal was skipped, stay active;
    the others are not scored again until a move touches them (don't-look
    bits), unless at most ``FULL_WAVE_SLACK`` nodes would sit out.  A wave
    that finds nothing is followed by a full wave, and the search ends when
    a full wave finds nothing: no chunk of it applied a move, so every
    chunk scored the same tour.  Every applied move gains more than tol,
    so the search ends.
    """
    n = t.size
    nb, hb = _candidate_lists(pts, wf)
    # candidate-major copies, so that a chunk's gathers come out contiguous
    nb_t, w_ac = nb.T.copy(), (hb ** alpha).T.copy()
    del nb, hb
    # a segment needs two distinct outside neighbours
    penalty = np.where((_SEG_LEN[_PAIR_ROW] > n - 2)[:, None], -np.inf, _PAIR_PENALTY)
    # c's tour offset from a, as pos[c] - pa + n - 1, to the penalty-table
    # column of (c's offset, succ c's offset, pred c's offset): off[x] is the
    # offset x - n, signed mod n and clipped to [-3, 3]
    off = (np.arange(2 * n + 1) + n // 2) % n - n // 2
    off = np.minimum(np.maximum(off, -_REACH), _REACH) + _REACH
    columns = (off[1:-1] * _OFF.size + off[2:]) * _OFF.size + off[:-2]
    pos = np.empty(n, dtype=np.intp)
    pos[t] = np.arange(n)
    w = _edge_weights(pts, wf, alpha, t)
    tol = 1e-12 * (1.0 + w.sum())  # the edges summed as tour_weight sums them
    gains = np.empty(2 * _PAIR_ROW.size * nb_t.shape[0] * min(n, EVAL_NODES))
    active, every = np.arange(n), True
    while True:
        touched, kept = set(), []
        for s in range(0, active.size, EVAL_NODES):
            found = _propose(pts, wf, alpha, t, pos, w, nb_t, w_ac, penalty, columns, tol,
                             gains, active[s:s + EVAL_NODES])
            moved, skipped = _apply_moves(t, pos, w, found)
            kept += skipped
            if moved:
                touched |= moved
                _repair_edges(pts, wf, alpha, t, pos, w, moved)
        if not touched and not kept:  # no proposals
            if every:
                return
            active, every = np.arange(n), True
            continue
        active = np.array(sorted(touched.union(kept)))
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
    t = _validate_permutation(tour.order, n)
    if n >= 4:
        _local_search(pts, wf, alpha, t)
    order = canonical_cycle(t.tolist())
    return Tour(order=order, weight=_order_weight(pts, _int64_order(order), wf, alpha))


def _score_table(pts: np.ndarray, wf: WeightFunction, alpha: float, by_cell: np.ndarray,
                 tails: np.ndarray, lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Row i holds h^alpha from node tails[i] to each node of
    by_cell[lo[i]:lo[i] + lens[i]], in that order, then +inf up to one
    column past the longest row, so a row's first minimum is the node a
    nearest-neighbor step takes.  One kernel call per block of rows of at
    most ``SEARCH_PAIRS`` table entries."""
    width = int(lens.max(initial=0)) + 1
    table = np.full((tails.size, width), np.inf)
    block = SEARCH_PAIRS // width
    for a in range(0, tails.size, block):
        run = lens[a:a + block]
        col = _ranges(np.zeros_like(run), run)
        u = pts.take(tails[a:a + block].repeat(run), axis=0)
        v = pts.take(by_cell[lo[a:a + block].repeat(run) + col], axis=0)
        table[np.arange(a, a + run.size).repeat(run), col] = wf.h_pairs(u, v) ** alpha
    return table


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
        w = wf.h_pairs(pts[seq[-1]], pts.take(remaining, axis=0)) ** alpha
        seq.append(remaining.pop(int(w.argmin())))
    return seq + remaining


def _walks(pts: np.ndarray, wf: WeightFunction, alpha: float, by_cell: np.ndarray,
           lo: np.ndarray, size: np.ndarray, cell: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The ``_nn_within`` walk over each cell[i] from its node
    by_cell[start[i]], where cell c holds the nodes by_cell[lo[c]:lo[c] +
    size[c]], at most ``WALK_MAX_NODES``: row i of a table as wide as the
    largest of these cells, padded past the walk's end.

    Each cell of >= 3 nodes is scored once, every node against every node.
    The walks then step in lockstep, longest first: each step is one gather
    from the score table and one argmin over every walk's remaining nodes,
    kept in index order and padded by the table's +inf column.
    """
    scored = np.zeros(size.size, dtype=bool)
    scored[cell] = True
    scored = np.flatnonzero(scored & (size >= 3))
    cm = size[scored]
    first_row = np.zeros(size.size, dtype=np.intp)
    first_row[scored] = cm.cumsum() - cm
    lo_rows = lo[scored].repeat(cm)
    table = _score_table(pts, wf, alpha, by_cell, by_cell[lo_rows + _ranges(np.zeros_like(cm), cm)],
                         lo_rows, cm.repeat(cm))
    by_size = np.argsort(-size[cell], kind="stable")
    cell = cell[by_size]
    m, rows = size[cell], first_row[cell]
    width = int(m.max(initial=1))
    seq = np.zeros((cell.size, width), dtype=np.intp)
    tail = seq[:, 0] = start[by_size] - lo[cell]
    cols = np.arange(width - 1)
    # each walk's nodes after its start in index order, then column m: +inf
    rem = np.minimum(cols + (cols >= tail[:, None]), m[:, None])
    live = np.count_nonzero(m >= 2)
    for t in range(1, width):
        keep = np.count_nonzero(m >= t + 2)  # the walks that score position t
        seq[keep:live, t] = rem[keep:live, 0]  # the others take their last node unscored
        if not keep:
            break
        rem, tail, live = rem[:keep], tail[:keep], keep
        k = table[(rows[:keep] + tail)[:, None], rem].argmin(axis=1)
        tail = seq[:keep, t] = rem[np.arange(keep), k]
        rem = rem[cols[:rem.shape[1]] != k[:, None]].reshape(keep, -1)
    walks = np.empty_like(seq)
    walks[by_size] = by_cell[lo[cell][:, None] + seq]
    return walks


def _chain_path(pts: np.ndarray, wf: WeightFunction, alpha: float, by_cell: np.ndarray,
                lo: np.ndarray, size: np.ndarray, chains: list[np.ndarray]) -> np.ndarray:
    """Per-cell nearest-neighbor paths strung through each chain of cells in
    order, chain after chain, where cell c holds the nodes
    by_cell[lo[c]:lo[c] + size[c]] in index order.  A chain's first cell is
    walked from its first node, every later one from the chain tail, so
    each cell is entered at its node cheapest from the tail (the connector
    must attach at the path end to keep the union a simple path).

    A cell of at most ``WALK_MAX_NODES`` nodes is walked ahead of time: its
    entry from every node of the cell before it is one argmin, and its walk
    from each entry that can occur one row of ``_walks``.  Within a run of
    such cells, which ends at a chain head or a larger cell, each walk
    fixes the next one (``step``), so the run's walks are its first walk's
    images under step, step^2, ...: with the tables step^(2^k), built once
    up to the longest run, ceil(log2 L) gathers list a run of L cells.  A
    Python loop goes once per run, and walks each larger cell with
    ``_nn_within`` from the real tail, one kernel call per step.
    """
    n = by_cell.size
    cells = np.concatenate(chains)
    head = np.zeros(cells.size, dtype=bool)
    head[np.cumsum([0] + [c.size for c in chains[:-1]])] = True
    m = size[cells]
    ahead = m <= WALK_MAX_NODES
    # entry[v]: the place in by_cell where a cell walked ahead is entered
    # from node v, the chain tail in the cell before it
    into = np.flatnonzero(ahead & ~head)
    prev, into = cells[into - 1], cells[into]
    tails = by_cell[_ranges(lo[prev], size[prev])]
    into_lo, into_m = lo[into].repeat(size[prev]), size[into].repeat(size[prev])
    entry = np.zeros(n, dtype=np.intp)
    entry[tails] = into_lo
    two = into_m >= 2  # a lone node is entered unscored
    entry[tails[two]] += _score_table(pts, wf, alpha, by_cell, tails[two], into_lo[two],
                                      into_m[two]).argmin(axis=1)
    start = np.zeros(n, dtype=bool)
    start[lo[cells[ahead & head]]] = True
    start[entry[tails]] = True
    start = np.flatnonzero(start)
    cell = np.arange(size.size).repeat(size)[start]
    walk_m = size[cell]
    walks = _walks(pts, wf, alpha, by_cell, lo, size, cell, start)
    flat = walks[np.arange(walks.shape[1]) < walk_m[:, None]]
    walk_at = walk_m.cumsum() - walk_m
    last = walks[np.arange(start.size), walk_m - 1]
    # walks numbered by their place in start: entry[v] becomes the walk into
    # the next cell from node v, and step[w] the walk after walk w (any walk
    # where a chain head or a larger cell comes next)
    slot = np.zeros(n, dtype=np.intp)
    slot[start] = np.arange(start.size)
    entry = slot[entry]
    step = entry[last]
    # runs of cells walked ahead, split at each chain head and larger cell
    cut = head | ~ahead
    cut[1:] |= ~ahead[:-1]
    bounds = np.append(np.flatnonzero(cut), cells.size).tolist()
    longest = max(b - a for a, b in zip(bounds, bounds[1:]))
    jumps = [step]  # jumps[k] = step applied 2^k times
    for _ in range(1, (longest - 1).bit_length()):
        jumps.append(jumps[-1][jumps[-1]])
    at = np.empty(cells.size, dtype=np.intp)
    extra, tail = [], -1
    for a, b in zip(bounds, bounds[1:]):
        c = int(cells[a])
        if ahead[a]:
            seq = np.array([slot[lo[c]] if head[a] else entry[tail]])
            for jump in jumps[:(b - a - 1).bit_length()]:
                seq = np.concatenate((seq, jump[seq]))
            seq = seq[:b - a]
            at[a:b] = walk_at[seq]
            tail = int(last[seq[-1]])
        else:
            nodes = by_cell[lo[c]:lo[c] + size[c]].tolist()
            walk = (_nn_within(pts, wf, alpha, nodes, nodes[0]) if head[a]
                    else _nn_within(pts, wf, alpha, nodes, tail)[1:])
            at[a] = flat.size + len(extra)
            extra += walk
            tail = walk[-1]
    return np.concatenate((flat, np.array(extra, dtype=np.intp)))[_ranges(at, m)]


def grid_tour(points, wf: WeightFunction, alpha: float, tiling: Tiling) -> Tour:
    """The constructive spanning cycle over a tiling.

    Dense cells (>= 3 nodes) are chained into one path in serpentine label
    order, sparse occupied cells (1-2 nodes) into another; edges between the
    first endpoints and the last endpoints close the two paths into a cycle.
    With fewer than two dense or two sparse cells the construction
    degenerates to a single serpentine chain over all occupied cells, closed
    into a cycle.  Each cell's path is a nearest-neighbor walk entered from
    the chain tail (``_chain_path``): cells of at most ``WALK_MAX_NODES``
    nodes are walked as whole arrays in a few kernel calls per tour, larger
    ones step by step.
    """
    check_alpha(alpha)
    pts = as_coords(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("the constructive tour needs at least 2 nodes")
    labels = cell_index_array(tiling, pts)
    # stable, so any key type gives one order; 8- and 16-bit keys radix-sort
    by_cell = labels.astype(np.min_scalar_type(tiling.cell_count)).argsort(kind="stable")
    # the occupied cells are the runs of equal labels in by_cell order: no
    # array is sized by the cell count, which may far exceed n
    lo, size = _label_runs(labels[by_cell])
    cells = np.arange(lo.size)
    dense = size >= DENSE_CELL_MIN_NODES
    if np.count_nonzero(dense) >= 2 and np.count_nonzero(~dense) >= 2:
        path = _chain_path(pts, wf, alpha, by_cell, lo, size, [cells[dense], cells[~dense]])
        cut = size[dense].sum()
        cycle = np.concatenate((path[:cut], path[cut:][::-1]))
    else:
        cycle = _chain_path(pts, wf, alpha, by_cell, lo, size, [cells])
    order = canonical_cycle(cycle.tolist())
    return Tour(order=order, weight=_order_weight(pts, _int64_order(order), wf, alpha))


def solve(points, wf: WeightFunction, alpha: float, solver: str,
          tiling: Tiling | None = None) -> Tour:
    """The tour that the named solver finds: ``"exact"`` is ``tsp_exact``;
    the ``HEURISTICS`` build ``grid_tour`` over ``tiling``, and
    ``"grid_tour+two_opt"`` polishes it with ``two_opt``.  Raises ValueError
    for an unknown name, and for a heuristic given no tiling."""
    if solver == "exact":
        return tsp_exact(points, wf, alpha)
    if solver not in HEURISTICS:
        raise ValueError(f"solver must be 'exact' or one of {HEURISTICS}, got {solver!r}")
    if tiling is None:
        raise ValueError(f"solver {solver!r} needs a tiling")
    tour = grid_tour(points, wf, alpha, tiling)
    if solver == "grid_tour+two_opt":
        tour = two_opt(points, tour, wf, alpha)
    return tour


def _distance_to_rect(pts: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    x0, x1, y0, y1 = rect
    dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - pts[:, 1], pts[:, 1] - y1), 0.0)
    return np.hypot(dx, dy)


def approx_tsp_path(points, wf: WeightFunction, alpha: float,
                    tiling: Tiling) -> tuple[SpanningPath, int]:
    """The in/cross/out decomposition path anchored at node 0, and the
    number of nodes on its inside part.

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
    po = pts[np.asarray(order)]
    weight = float(np.sum(edge_weight_pairs(wf, alpha, po[:-1], po[1:])))
    path = SpanningPath(order=tuple(order), weight=weight, endpoints=(order[0], order[-1]))
    return path, int(inside.size)


def gap_statistics(points, tiling: Tiling) -> GapStatistics:
    """Count the tiling's dense cells (>= 3 nodes) and sparse cells (<= 2,
    empty included)."""
    labels = cell_index_array(tiling, as_coords(points))
    q = int(np.count_nonzero(_label_runs(np.sort(labels))[1] >= DENSE_CELL_MIN_NODES))
    return GapStatistics(q=q, l=tiling.cell_count - q)
