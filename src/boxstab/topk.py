"""Top-k weighted dominance and rectangle stabbing.

Weights are lifted to a third coordinate: points are ranked by (weight
descending, id ascending) and point i gets z = n-1-rank(i), so z order is
exactly the output order and is duplicate-free.  Top-k 2-d dominance runs on
two shallow cuttings (levels t1 ~ log n and t2 ~ cbrt(log n)) plus a global
weight-sorted fallback, walked as tiers:

* the fine cutting: FIND-ANY, then a precomputed per-rank-cell dominator
  list inside the located cell;
* the coarse cutting: FIND-ANY, then a weight-descending filtered scan of
  its conflict list;
* the global scan.

A query for k starts at the fine tier if k < t2, at the coarse tier if
k < t1, else at the scan; a stream starts at the fine tier.  A located list
shorter than its cutting's level is provably complete, so the walk stops
there; otherwise the next tier yields what the ones before it did not, and
a FIND-ANY miss passes to the next tier.

Top-k stabbing runs the one grid tree of stab5.py, shared with stab5 and
zr6, on the lifted rectangles; every visited node contributes
weight-descending (weight, id) streams (its Top(c) list with a transparent
switch to the slow structure, the per-slab top-k dominance structures, or a
leaf scan), where a piece's weight is its rectangle's global z rank, merged
by a binary heap.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import islice

import numpy as np

from .counters import Counters, charge_output
from .domcut import build_cutting3, find_any
from .geom import (
    SIDES,
    Box2,
    ModelParams,
    DEFAULT_PARAMS,
    ValidationError,
    box_arrays,
    check_id,
    check_point_coord,
    check_weight,
    require_form,
)
from .range2d import NEG, POS
from .stab5 import (
    _ITEM_KEYS,
    GridKind,
    _query_node,
    build_grid,
    grid_bits,
    reflect_ge,
    xy_path,
    xy_tree,
)


def weight_rank_lift(ids, weights) -> np.ndarray:
    """z values: n-1-rank under (weight desc, id asc); distinct by design."""
    order = np.lexsort((ids, -np.asarray(weights, dtype=np.int64)))
    z = np.empty(len(order), dtype=np.int64)
    z[order] = np.arange(len(order) - 1, -1, -1)
    return z


class WeightStream:
    """Pausable cursor over a weight-descending sequence of (weight, id)."""

    def __init__(self, it):
        self._it = iter(it)
        self._buf = None
        self._done = False

    def peek(self):
        if self._buf is None and not self._done:
            try:
                self._buf = next(self._it)
            except StopIteration:
                self._done = True
        return self._buf

    def next(self):
        v = self.peek()
        self._buf = None
        return v


# ---------------------------------------------------------------------------
# top-k 2-d dominance


class TopKDominance:
    def __init__(self, ids, xs, ys, ws, params: ModelParams = DEFAULT_PARAMS):
        """Points from int64 arrays of ids, coordinates and weights, kept in
        output order (weight desc, id asc): a point's index is its rank, so
        every ascending index list is weight-sorted."""
        order = np.lexsort((ids, -ws))
        self.n = n = len(order)
        self.ids = ids[order]
        self.pw = ws[order]
        # half-unbounded pieces arrive with +-sentinel coordinates; clamp to
        # half range so cutting arithmetic (v+1, corner boundaries) stays
        # strictly inside the sentinel band while comparisons are unchanged
        self.px = np.clip(xs[order], NEG // 2, POS // 2)
        self.py = np.clip(ys[order], NEG // 2, POS // 2)
        self.t1 = params.t1(max(2, n))
        self.t2 = params.t2(max(2, n))
        lifted = np.stack([self.px, self.py, np.arange(n - 1, -1, -1)], axis=1)
        # the cuttings must cover every integer query point, not just the
        # points' own rank grid, or the located cell's conflict list can miss
        # dominators of queries that fall between coordinates
        floor = (NEG, NEG)
        self.p1 = build_cutting3(lifted, self.t1, cover_floor=floor)
        self.p2 = build_cutting3(lifted, self.t2, cover_floor=floor)
        for cut in (self.p1, self.p2):
            cut.conflicts = [np.sort(np.array(c, dtype=np.int64)) for c in cut.conflicts]
        self.cell_tables = [self._rank_table(rows) for rows in self.p2.conflicts]
        self.bits_stored = self.p1.bits_stored + self.p2.bits_stored

    def _rank_table(self, rows):
        """Per rank cell of the conflict list's grid, the full weight-sorted
        dominator list."""
        pts = list(zip(rows.tolist(), self.px[rows].tolist(), self.py[rows].tolist()))
        cx = sorted({x for _, x, _ in pts})
        cy = sorted({y for _, _, y in pts})
        # rank cell (i, j) holds the points of x rank >= i and y rank >= j;
        # the last rank of each axis lies past every point (POS > POS // 2)
        table = {
            (i, j): [r for r, x, y in pts if x >= a and y >= b]
            for i, a in enumerate(cx + [POS])
            for j, b in enumerate(cy + [POS])
        }
        return (cx, cy, table)

    def _rows(self, qx, qy, tier, counters):
        """Indices of the points dominating (qx, qy), weight descending,
        walked from ``tier``: 0 the fine cutting, 1 the coarse one, 2 the
        global scan (see the module docstring)."""
        done = 0
        for tier in range(tier, 2):
            cut, level = ((self.p2, self.t2), (self.p1, self.t1))[tier]
            label = find_any(cut, qx, qy, counters)
            if label is None:
                continue
            if tier == 0:
                cx, cy, table = self.cell_tables[label]
                rows = table[bisect_left(cx, qx), bisect_left(cy, qy)]
                if counters is not None:
                    counters.charge_search(len(cx))
                    counters.charge_search(len(cy))
            else:
                conf = cut.conflicts[label]
                if counters is not None:
                    counters.scan_cells(len(conf))
                rows = conf[(self.px[conf] >= qx) & (self.py[conf] >= qy)].tolist()
            yield from rows[done:level]
            if len(rows) < level:
                return  # provably complete
            done = level
        if counters is not None:
            counters.scan_cells(self.n)
        yield from np.flatnonzero((self.px >= qx) & (self.py >= qy))[done:].tolist()

    def query(self, q, k: int, counters: Counters | None = None) -> list[int]:
        """The k heaviest points dominating q, weight desc / id asc."""
        if k <= 0:
            return []
        tier = 0 if k < self.t2 else 1 if k < self.t1 else 2
        rows = list(islice(self._rows(int(q[0]), int(q[1]), tier, counters), k))
        return self.ids[rows].tolist()

    def stream(self, q, counters: Counters | None = None):
        """(weight, id) of every dominating point, weight descending,
        produced tier by tier."""
        for r in self._rows(int(q[0]), int(q[1]), 0, counters):
            yield int(self.pw[r]), int(self.ids[r])


def build_topk_dom(points, params: ModelParams = DEFAULT_PARAMS) -> TopKDominance:
    """Top-k dominance over (id, (x, y), weight) tuples, each tuple's shape
    and each value checked against its domain."""
    rows = []
    for p in points:
        try:
            i, (x, y), w = p
        except (TypeError, ValueError):
            raise ValidationError(f"point {p!r} is not an (id, (x, y), weight) tuple") from None
        check_id(i)
        check_point_coord(x)
        check_point_coord(y)
        check_weight(w)
        rows.append((i, x, y, w))
    a = np.array(rows, dtype=np.int64)
    return TopKDominance(*a.reshape(-1, 4).T, params)


def query_topk_dom(s: TopKDominance, q, k: int, counters: Counters | None = None) -> list[int]:
    return charge_output(s.query(q, k, counters), counters)


def open_stream(source, q, counters: Counters | None = None) -> WeightStream:
    """Weight-descending stream of the matches of q in ``source``."""
    if isinstance(source, TopKDominance):
        return WeightStream(source.stream(q, counters))
    raise ValidationError(f"cannot stream from {type(source).__name__}")


# ---------------------------------------------------------------------------
# top-k 2-d rectangle stabbing


def _topk_dom(key, xs, ys, ws, ids, params) -> TopKDominance:
    """TopKDominance of the points (xs, ys) weighted ws, the 'ge' sides of
    orientation ``key`` negated (reflect_ge) so dominance is uniform."""
    xs, ys = reflect_ge(key, xs, ys)
    return TopKDominance(ids, xs, ys, ws, params)


def _topk_stream(d: TopKDominance, key, lq, counters):
    return d.stream(reflect_ge(key, lq[0], lq[1]), counters)


class _TopKSlow:
    """Lemma 3.1's nested x/y centered tree (stab5.xy_tree) with one top-k
    dominance structure per (x-node, y-node, orientation); a query gets one
    stream per structure on its search path."""

    def __init__(self, it, ux, uy, params):
        def dom(xs, ys, here, key):
            return _topk_dom(key, xs, ys, here["z2"], here["orig"], params)

        self.root = xy_tree(it, max(2, 2 * ux), max(2, 2 * uy), dom)

    def streams(self, lq, counters):
        return [_topk_stream(d, key, lq, counters) for d, key in xy_path(self.root, lq[0], lq[1])]


class _TopKLeaf:
    """Weight-sorted rank-reduced array, streamed by a filtered scan."""

    def __init__(self, it: dict):
        order = np.argsort(-it["z2"], kind="stable")
        self.it = {k: v[order] for k, v in it.items()}

    def query(self, lq, counters, streams):
        streams.append(self._scan(lq, counters))

    def _scan(self, lq, counters):
        it = self.it
        if counters is not None:
            counters.scan_cells(len(it["orig"]))
        qx, qy = lq
        m = (it["x1"] <= qx) & (it["x2"] >= qx) & (it["y1"] <= qy) & (it["y2"] >= qy)
        yield from zip(it["z2"][m].tolist(), it["orig"][m].tolist())


class _TopKGrid(GridKind):
    """The top-k tree over weight-lifted rectangles: a visited node adds
    weight-descending streams instead of ids.  TopKDominance per slab
    orientation, Top(c) lists that switch over to the _TopKSlow streams
    when full, and only the TopKDominance pieces charged."""

    leaf = _TopKLeaf

    def __init__(self, params: ModelParams):
        self.params = params

    def slab(self, p, key):
        return _topk_dom(key, p["xb"], p["yb"], p["z2"], p["orig"], self.params)

    def slab_query(self, d, key, lq, counters, streams):
        streams.append(_topk_stream(d, key, lq, counters))

    def slow(self, gi, axes):
        return _TopKSlow({k: gi[k] for k in _ITEM_KEYS}, len(axes[0]), len(axes[1]), self.params)

    def cell_query(self, node, cell, lst, lq, counters, trace, streams):
        streams.append(self._cell_stream(node, lst, lq, counters))

    def _cell_stream(self, node, lst, lq, counters):
        gi = node.grid_items
        for v in zip(gi["z2"][lst].tolist(), gi["orig"][lst].tolist()):
            if counters is not None:
                counters.scan_cells(1)
            yield v
        if len(lst) < node.cap:
            return
        # a full list: the slow structure's stream past the entries shown;
        # the slow structure's own merge charges no heap operations
        yield from islice(_merge(node.slow.streams(lq, counters), None), len(lst), None)


class TopKStab:
    def __init__(self, rects: list[Box2], params: ModelParams = DEFAULT_PARAMS):
        self.n = len(rects)
        a = box_arrays(rects, dims=2)
        require_form(a, "top-k stabbing", finite=SIDES[:4])
        ws = [r.weight if r.weight is not None else 0 for r in rects]
        zr = weight_rank_lift(a["orig"], ws)
        it = {"x1": a["x1"], "x2": a["x2"], "y1": a["y1"], "y2": a["y2"], "z2": zr, "orig": a["orig"]}
        self.root = build_grid(it, _TopKGrid(params), params) if self.n else None

    @property
    def bits_stored(self) -> int:
        """Payload bits of the per-slab top-k dominance pieces; leaf arrays,
        Top lists and the slow structures are not charged."""
        return grid_bits(self.root) if self.root is not None else 0


def _merge(streams, counters):
    """The (weight, id) pairs of weight-descending iterators, merged by one
    heap.  An answer is yielded before its stream advances, so a caller that
    stops after it never reads that stream further."""
    heap = []

    def push(si):
        v = next(streams[si], None)
        if v is not None:
            heapq.heappush(heap, (-v[0], v[1], si))
            if counters is not None:
                counters.heap_op()

    for si in range(len(streams)):
        push(si)
    while heap:
        nw, orig, si = heapq.heappop(heap)
        if counters is not None:
            counters.heap_op()
        yield -nw, orig
        push(si)


def build_topk_stab(rects: list[Box2], params: ModelParams = DEFAULT_PARAMS) -> TopKStab:
    return TopKStab(rects, params)


def query_topk_stab(tree: TopKStab, q, k: int, counters: Counters | None = None) -> list[int]:
    """The k heaviest rectangles stabbed by q, weight desc / id asc."""
    if k <= 0 or tree.root is None:
        return []
    streams = []
    _query_node(tree.root, (int(q[0]), int(q[1])), counters, None, streams)
    return charge_output([orig for _, orig in islice(_merge(streams, counters), k)], counters)
