"""Top-k weighted dominance and rectangle stabbing.

Weights are lifted to a third coordinate: points are ranked by (weight
descending, id ascending) and point i gets z = n-1-rank(i), so z order is
exactly the output order and is duplicate-free.  Top-k 2-d dominance runs on
two shallow cuttings (levels t1 ~ log n and t2 ~ cbrt(log n)) plus a global
weight-sorted fallback:

* k < t2: FIND-ANY on the fine cutting, then a precomputed per-rank-cell
  dominator list inside the located cell;
* t2 <= k < t1: FIND-ANY on the coarse cutting, then a weight-descending
  filtered scan of its conflict list;
* k >= t1 (or a FIND-ANY miss): the global scan.

If the query dominates fewer than k points the located list is provably
complete, so the answer is exact with no retries.

Top-k stabbing runs the one grid tree of stab5.py, shared with stab5 and
zr6, on the lifted rectangles; every visited node contributes pausable
weight-descending streams (its Top(c) list with a transparent switch to the
slow structure, the per-slab top-k dominance structures, or a leaf scan),
merged by a binary heap.
"""

from __future__ import annotations

import heapq

import numpy as np

from .counters import Counters, charge_output
from .domcut import ShallowCutting3, build_cutting3, find_any
from .geom import (
    SIDES,
    Box2,
    ModelParams,
    DEFAULT_PARAMS,
    ValidationError,
    box_arrays,
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
    n = len(ids)
    order = sorted(range(n), key=lambda i: (-int(weights[i]), int(ids[i])))
    z = np.empty(n, dtype=np.int64)
    for pos, i in enumerate(order):
        z[i] = n - 1 - pos
    return z


class WeightStream:
    """Pausable cursor over a weight-descending sequence of (zrank, id)."""

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
    def __init__(self, points, params: ModelParams = DEFAULT_PARAMS):
        """points: iterable of (id, (x, y), weight)."""
        for p in points:
            for v in p[1]:
                check_point_coord(v)
            check_weight(p[2])
        self.n = n = len(points)
        self.ids = np.asarray([p[0] for p in points], dtype=np.int64)
        # half-unbounded pieces arrive with +-sentinel coordinates; clamp to
        # half range so cutting arithmetic (v+1, corner boundaries) stays
        # strictly inside the sentinel band while comparisons are unchanged
        self.px = np.clip(
            np.asarray([p[1][0] for p in points], dtype=np.int64), NEG // 2, POS // 2
        )
        self.py = np.clip(
            np.asarray([p[1][1] for p in points], dtype=np.int64), NEG // 2, POS // 2
        )
        self.pw = np.asarray([p[2] for p in points], dtype=np.int64)
        self.t1 = params.t1(max(2, n))
        self.t2 = params.t2(max(2, n))
        self.zr = weight_rank_lift(self.ids, self.pw) if n else np.empty(0, dtype=np.int64)
        self.order = np.argsort(-self.zr, kind="stable")  # weight desc, id asc
        lifted = np.stack([self.px, self.py, self.zr], axis=1) if n else np.empty((0, 3))
        # the cuttings must cover every integer query point, not just the
        # points' own rank grid, or the located cell's conflict list can miss
        # dominators of queries that fall between coordinates
        floor = (NEG, NEG)
        self.p1 = build_cutting3(lifted, self.t1, cover_floor=floor) if n else ShallowCutting3(t=self.t1)
        self.p2 = build_cutting3(lifted, self.t2, cover_floor=floor) if n else ShallowCutting3(t=self.t2)
        self._sort_conflicts(self.p1)
        self._sort_conflicts(self.p2)
        self.cell_tables = [self._rank_table(conf) for conf in self.p2.conflicts]
        self.bits_stored = getattr(self.p1, "bits_stored", 0) + getattr(self.p2, "bits_stored", 0)

    def _sort_conflicts(self, cut):
        cut.conflicts = [
            sorted(conf, key=lambda i: -int(self.zr[i])) for conf in cut.conflicts
        ]

    def _rank_table(self, conf):
        """Per rank cell of the conflict list's grid, the full weight-sorted
        dominator list."""
        rows = np.asarray(conf, dtype=np.int64)
        if not len(rows):
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), {(0, 0): []})
        cx = np.unique(self.px[rows])
        cy = np.unique(self.py[rows])
        xr = np.searchsorted(cx, self.px[rows])
        yr = np.searchsorted(cy, self.py[rows])
        table = {}
        for i in range(len(cx) + 1):
            for j in range(len(cy) + 1):
                table[(i, j)] = [int(rows[m]) for m in range(len(rows)) if xr[m] >= i and yr[m] >= j]
        return (cx, cy, table)

    # -- query helpers ------------------------------------------------------

    def _cell_list_p1(self, label, qx, qy):
        conf = self.p1.conflicts[label]
        return [int(r) for r in conf if self.px[r] >= qx and self.py[r] >= qy]

    def _cell_list_p2(self, label, qx, qy, counters):
        cx, cy, table = self.cell_tables[label]
        i = int(np.searchsorted(cx, qx, side="left"))
        j = int(np.searchsorted(cy, qy, side="left"))
        if counters is not None:
            counters.charge_search(len(cx))
            counters.charge_search(len(cy))
        return table[(i, j)]

    def _slow_list(self, qx, qy, counters, limit=None):
        if not self.n:
            return []
        if counters is not None:
            counters.scan_cells(self.n)
        sel = self.order[(self.px[self.order] >= qx) & (self.py[self.order] >= qy)]
        return sel.tolist() if limit is None else sel[:limit].tolist()

    def query(self, q, k: int, counters: Counters | None = None) -> list[int]:
        """The k heaviest points dominating q, weight desc / id asc."""
        if k <= 0 or not self.n:
            return []
        qx, qy = int(q[0]), int(q[1])
        rows = None
        if k < self.t2:
            label = find_any(self.p2, qx, qy, counters)
            if label is not None:
                rows = self._cell_list_p2(label, qx, qy, counters)
        if rows is None and k < self.t1:
            label = find_any(self.p1, qx, qy, counters)
            if label is not None:
                if counters is not None:
                    counters.scan_cells(len(self.p1.conflicts[label]))
                rows = self._cell_list_p1(label, qx, qy)
        if rows is None:
            rows = self._slow_list(qx, qy, counters, limit=k)
        return [int(self.ids[r]) for r in rows[:k]]

    def stream(self, q, counters: Counters | None = None) -> WeightStream:
        """All dominating points, weight descending, produced tier by tier."""
        qx, qy = int(q[0]), int(q[1])

        def gen():
            emitted = 0
            if self.n:
                label = find_any(self.p2, qx, qy, counters)
                if label is not None:
                    rows = self._cell_list_p2(label, qx, qy, counters)
                    safe = min(len(rows), self.t2)
                    for r in rows[emitted:safe]:
                        yield (int(self.zr[r]), int(self.ids[r]))
                    if len(rows) < self.t2:
                        return  # provably complete
                    emitted = safe
            if self.n:
                label = find_any(self.p1, qx, qy, counters)
                if label is not None:
                    rows = self._cell_list_p1(label, qx, qy)
                    safe = min(len(rows), self.t1)
                    for r in rows[emitted:safe]:
                        yield (int(self.zr[r]), int(self.ids[r]))
                    if len(rows) < self.t1:
                        return
                    emitted = safe
            for r in self._slow_list(qx, qy, counters)[emitted:]:
                yield (int(self.zr[r]), int(self.ids[r]))

        return WeightStream(gen())


def build_topk_dom(points, params: ModelParams = DEFAULT_PARAMS) -> TopKDominance:
    return TopKDominance(points, params)


def query_topk_dom(s: TopKDominance, q, k: int, counters: Counters | None = None) -> list[int]:
    return charge_output(s.query(q, k, counters), counters)


def open_stream(source, q, counters: Counters | None = None) -> WeightStream:
    """Weight-descending stream of the matches of q in ``source``."""
    if isinstance(source, TopKDominance):
        return source.stream(q, counters)
    raise ValidationError(f"cannot stream from {type(source).__name__}")


# ---------------------------------------------------------------------------
# top-k 2-d rectangle stabbing


def _topk_dom(key, xs, ys, ws, ids, params) -> TopKDominance:
    """TopKDominance of the points (xs, ys) weighted ws, the 'ge' sides of
    orientation ``key`` negated (reflect_ge) so dominance is uniform."""
    xs, ys = reflect_ge(key, xs, ys)
    pts = list(zip(ids.tolist(), zip(xs.tolist(), ys.tolist()), ws.tolist()))
    return TopKDominance(pts, params)


def _topk_stream(d: TopKDominance, key, lq, counters, zr_of) -> WeightStream:
    return _rezrank(d.stream(reflect_ge(key, lq[0], lq[1]), counters), zr_of)


class _TopKSlow:
    """Lemma 3.1's nested x/y centered tree (stab5.xy_tree) with one top-k
    dominance structure per (x-node, y-node, orientation); a query gets one
    stream per structure on its search path."""

    def __init__(self, it, ux, uy, params):
        def dom(xs, ys, here, key):
            return _topk_dom(key, xs, ys, here["z2"], here["orig"], params)

        self.root = xy_tree(it, max(2, 2 * ux), max(2, 2 * uy), dom)

    def streams(self, lq, counters, zr_of):
        return [_topk_stream(d, key, lq, counters, zr_of) for d, key in xy_path(self.root, lq[0], lq[1])]


def _rezrank(stream: WeightStream, zr_of) -> WeightStream:
    """Map a nested structure's local z ordering back to global z ranks."""
    return WeightStream((zr_of[orig], orig) for _, orig in iter(stream.next, None))


class _TopKLeaf:
    """Weight-sorted rank-reduced array, streamed by a filtered scan."""

    def __init__(self, it: dict):
        order = np.argsort(-it["z2"], kind="stable")
        self.it = {k: v[order] for k, v in it.items()}

    def query(self, lq, counters, streams):
        streams.append(WeightStream(self._scan(lq, counters)))

    def _scan(self, lq, counters):
        it = self.it
        if not len(it["orig"]):
            return
        if counters is not None:
            counters.scan_cells(len(it["orig"]))
        qx, qy = lq
        m = (it["x1"] <= qx) & (it["x2"] >= qx) & (it["y1"] <= qy) & (it["y2"] >= qy)
        for i in np.nonzero(m)[0].tolist():
            yield (int(it["z2"][i]), int(it["orig"][i]))


class _TopKGrid(GridKind):
    """The top-k tree over weight-lifted rectangles: a visited node adds
    weight-descending streams instead of ids.  TopKDominance per slab
    orientation, Top(c) lists that switch over to the _TopKSlow streams
    when full, and only the TopKDominance pieces charged."""

    leaf = _TopKLeaf

    def __init__(self, params: ModelParams, zr_of: dict):
        self.params = params
        self.zr_of = zr_of

    def slab(self, p, key):
        return _topk_dom(key, p["xb"], p["yb"], p["z2"], p["orig"], self.params)

    def slab_query(self, d, key, lq, counters, streams):
        streams.append(_topk_stream(d, key, lq, counters, self.zr_of))

    def slow(self, gi, axes):
        return _TopKSlow({k: gi[k] for k in _ITEM_KEYS}, len(axes[0]), len(axes[1]), self.params)

    def cell_query(self, node, cell, lst, lq, counters, trace, streams):
        streams.append(WeightStream(self._cell_stream(node, lst, lq, counters)))

    def _cell_stream(self, node, lst, lq, counters):
        gi = node.grid_items
        for i in lst.tolist():
            if counters is not None:
                counters.scan_cells(1)
            yield (int(gi["z2"][i]), int(gi["orig"][i]))
        if len(lst) < node.cap:
            return
        # a full list: the slow structure's stream past the entries shown
        merged = _merge_streams(node.slow.streams(lq, counters, self.zr_of))
        for _ in range(len(lst)):
            merged.next()
        while (v := merged.next()) is not None:
            yield v


class TopKStab:
    def __init__(self, rects: list[Box2], params: ModelParams = DEFAULT_PARAMS):
        self.n = len(rects)
        a = box_arrays(rects, dims=2)
        require_form(a, "top-k stabbing", finite=SIDES[:4])
        ws = [r.weight if r.weight is not None else 0 for r in rects]
        zr = weight_rank_lift(a["orig"], np.asarray(ws))
        self.zr_of = dict(zip(a["orig"].tolist(), zr.tolist()))
        it = {"x1": a["x1"], "x2": a["x2"], "y1": a["y1"], "y2": a["y2"], "z2": zr, "orig": a["orig"]}
        self.root = build_grid(it, _TopKGrid(params, self.zr_of), params) if self.n else None

    @property
    def bits_stored(self) -> int:
        """Payload bits of the per-slab top-k dominance pieces; leaf arrays,
        Top lists and the slow structures are not charged."""
        return grid_bits(self.root) if self.root is not None else 0

    def collect_streams(self, q, counters):
        streams = []
        _query_node(self.root, (int(q[0]), int(q[1])), counters, None, streams)
        return streams


def _merge_streams(streams) -> WeightStream:
    def gen():
        heap = []
        for si, s in enumerate(streams):
            v = s.peek()
            if v is not None:
                heap.append((-v[0], v[1], si))
        heapq.heapify(heap)
        while heap:
            nz, orig, si = heapq.heappop(heap)
            yield (-nz, orig)
            streams[si].next()
            v = streams[si].peek()
            if v is not None:
                heapq.heappush(heap, (-v[0], v[1], si))

    return WeightStream(gen())


def build_topk_stab(rects: list[Box2], params: ModelParams = DEFAULT_PARAMS) -> TopKStab:
    return TopKStab(rects, params)


def query_topk_stab(tree: TopKStab, q, k: int, counters: Counters | None = None) -> list[int]:
    """The k heaviest rectangles stabbed by q, weight desc / id asc."""
    if k <= 0 or tree.root is None:
        return []
    streams = tree.collect_streams(q, counters)
    heap = []
    for si, s in enumerate(streams):
        v = s.peek()
        if v is not None:
            heap.append((-v[0], v[1], si))
            if counters is not None:
                counters.heap_op()
    heapq.heapify(heap)
    out = []
    while heap and len(out) < k:
        nz, orig, si = heapq.heappop(heap)
        if counters is not None:
            counters.heap_op()
        out.append(orig)
        streams[si].next()
        v = streams[si].peek()
        if v is not None:
            heapq.heappush(heap, (-v[0], v[1], si))
            if counters is not None:
                counters.heap_op()
    return charge_output(out, counters)
