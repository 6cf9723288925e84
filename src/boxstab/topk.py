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

Top-k stabbing reuses the 5-sided grid tree on the lifted rectangles; every
visited node contributes pausable weight-descending streams (its Top(c)
list with a transparent switch to the slow structure, the per-slab top-k
dominance structures, or a leaf scan), merged by a binary heap.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left

import numpy as np

from .counters import Counters, charge_output
from .domcut import ShallowCutting3, build_cutting3, find_any
from .geom import Box2, ModelParams, DEFAULT_PARAMS, ValidationError
from .range2d import NEG, POS
from .stab5 import (
    LeafStab5,
    _classify_break,
    _quantile_lines,
    _rank_axis,
    _to_even_rank,
    grid_side,
    is_grid_leaf,
    locate_coord,
    top_list_cap,
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
        self.params = params
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
        dominator list (optionally truncated for space experiments)."""
        rows = np.asarray(conf, dtype=np.int64)
        if not len(rows):
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), {(0, 0): []})
        cx = np.unique(self.px[rows])
        cy = np.unique(self.py[rows])
        xr = np.searchsorted(cx, self.px[rows])
        yr = np.searchsorted(cy, self.py[rows])
        limit = None
        if self.params.truncate_cell_lists:
            limit = max(1, math.ceil(math.log2(max(2.0, math.log2(max(4, self.n))))))
        table = {}
        for i in range(len(cx) + 1):
            for j in range(len(cy) + 1):
                lst = [int(rows[m]) for m in range(len(rows)) if xr[m] >= i and yr[m] >= j]
                table[(i, j)] = lst if limit is None else lst[:limit]
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
        p2_cap = self.t2
        if self.params.truncate_cell_lists:
            p2_cap = min(
                p2_cap,
                max(1, math.ceil(math.log2(max(2.0, math.log2(max(4, self.n)))))) + 1,
            )
        if k < p2_cap:
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
            if self.n and not self.params.truncate_cell_lists:
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


class TopKNode:
    __slots__ = (
        "m", "axes", "leaf_items", "lines_x", "lines_y", "top", "top_cap",
        "slow", "col_dom", "row_dom", "col_children", "row_children",
        "grid_items",
    )


class _TopKSlow:
    """Interval tree over x, nested over y, with a top-k dominance structure
    per (x-node, y-node, orientation); streams merge lazily."""

    def __init__(self, it, ux, uy, params):
        self.params = params
        self.ux, self.uy = max(2, 2 * ux), max(2, 2 * uy)
        self.root = self._build_x(it, 0, self.ux)

    def _build_x(self, it, lo, hi):
        if not len(it["orig"]):
            return None
        center = (lo + hi) // 2
        node = {"center": center, "left": None, "right": None, "ytree": None}
        cross = (it["x1"] <= center) & (it["x2"] >= center)
        here = {k: v[cross] for k, v in it.items()}
        if len(here["orig"]):
            node["ytree"] = self._build_y(here, 0, self.uy)
        if hi - lo > 1:
            node["left"] = self._build_x({k: v[it["x2"] < center] for k, v in it.items()}, lo, center)
            node["right"] = self._build_x({k: v[it["x1"] > center] for k, v in it.items()}, center + 1, hi)
        return node

    def _build_y(self, it, lo, hi):
        if not len(it["orig"]):
            return None
        center = (lo + hi) // 2
        node = {"center": center, "left": None, "right": None, "dom": {}}
        cross = (it["y1"] <= center) & (it["y2"] >= center)
        here = {k: v[cross] for k, v in it.items()}
        if len(here["orig"]):
            for qx_side in "LR":
                xs = here["x1"] if qx_side == "L" else here["x2"]
                for qy_side in "LR":
                    ys = here["y1"] if qy_side == "L" else here["y2"]
                    # negate the sides compared as <= so dominance is uniform
                    px = -xs if qx_side == "L" else xs
                    py = -ys if qy_side == "L" else ys
                    pts = [
                        (int(here["orig"][i]), (int(px[i]), int(py[i])), int(here["z2"][i]))
                        for i in range(len(here["orig"]))
                    ]
                    node["dom"][(qx_side, qy_side)] = TopKDominance(pts, self.params)
        if hi - lo > 1:
            node["left"] = self._build_y({k: v[it["y2"] < center] for k, v in it.items()}, lo, center)
            node["right"] = self._build_y({k: v[it["y1"] > center] for k, v in it.items()}, center + 1, hi)
        return node

    def streams(self, lqx, lqy, counters, zr_of):
        out = []
        node = self.root
        while node is not None:
            if node["ytree"] is not None:
                qx_side = "L" if lqx <= node["center"] else "R"
                ynode = node["ytree"]
                while ynode is not None:
                    qy_side = "L" if lqy <= ynode["center"] else "R"
                    d = ynode["dom"].get((qx_side, qy_side))
                    if d is not None:
                        sqx = -lqx if qx_side == "L" else lqx
                        sqy = -lqy if qy_side == "L" else lqy
                        out.append(_rezrank(d.stream((sqx, sqy), counters), zr_of))
                    ynode = ynode["left"] if lqy <= ynode["center"] else ynode["right"]
            node = node["left"] if lqx <= node["center"] else node["right"]
        return out


def _rezrank(stream: WeightStream, zr_of) -> WeightStream:
    """Map a nested structure's local z ordering back to global z ranks."""

    def gen():
        while True:
            v = stream.next()
            if v is None:
                return
            _, orig = v
            yield (zr_of[orig], orig)

    return WeightStream(gen())


class TopKStab:
    def __init__(self, rects: list[Box2], params: ModelParams = DEFAULT_PARAMS):
        self.params = params
        self.n = len(rects)
        ids = [r.id for r in rects]
        ws = [r.weight if r.weight is not None else 0 for r in rects]
        zr = weight_rank_lift(np.asarray(ids), np.asarray(ws))
        self.zr_of = {int(i): int(z) for i, z in zip(ids, zr)}
        self.w_of = {int(i): int(w) for i, w in zip(ids, ws)}
        it = {
            "x1": np.asarray([r.x[0] for r in rects], dtype=np.int64),
            "x2": np.asarray([r.x[1] for r in rects], dtype=np.int64),
            "y1": np.asarray([r.y[0] for r in rects], dtype=np.int64),
            "y2": np.asarray([r.y[1] for r in rects], dtype=np.int64),
            "z2": zr.astype(np.int64),
            "orig": np.asarray(ids, dtype=np.int64),
        }
        if self.n and (
            (it["x1"] <= NEG).any() or (it["x2"] >= POS).any()
            or (it["y1"] <= NEG).any() or (it["y2"] >= POS).any()
        ):
            raise ValidationError("top-k stabbing wants finite 2-d rectangles")
        self.root = self._build(it, 0) if self.n else None

    def _build(self, it, depth):
        m = len(it["orig"])
        node = TopKNode()
        node.m = m
        xs = _rank_axis([it["x1"], it["x2"]])
        ys = _rank_axis([it["y1"], it["y2"]])
        rit = dict(it)
        rit["x1"] = _to_even_rank(xs, it["x1"])
        rit["x2"] = _to_even_rank(xs, it["x2"])
        rit["y1"] = _to_even_rank(ys, it["y1"])
        rit["y2"] = _to_even_rank(ys, it["y2"])
        node.axes = (xs, ys)

        leafy = is_grid_leaf(m, self.params) or depth > 64
        lines_x = lines_y = None
        if not leafy:
            g = self.params.grid_override or grid_side(m)
            lines_x = _quantile_lines(np.concatenate([rit["x1"], rit["x2"]]), g)
            lines_y = _quantile_lines(np.concatenate([rit["y1"], rit["y2"]]), g)
            if not len(lines_x) and not len(lines_y):
                leafy = True
        parts = None
        if not leafy:
            parts = _classify_break(rit, lines_x, lines_y)
            if parts["stagnant"]:
                leafy = True
        if leafy:
            order = np.argsort(-rit["z2"], kind="stable")
            node.leaf_items = {k: v[order] for k, v in rit.items()}
            return node
        node.leaf_items = None
        node.lines_x = lines_x
        node.lines_y = lines_y
        node.top_cap = top_list_cap(m)

        gi = parts["grid"]
        node.grid_items = gi
        node.top = {}
        if len(gi["orig"]):
            order = np.argsort(-gi["z2"], kind="stable")
            cells = {}
            cl, ch, rl, rh = gi["cLo"], gi["cHi"], gi["rLo"], gi["rHi"]
            for i in order.tolist():
                for c in range(int(cl[i]), int(ch[i]) + 1):
                    for r in range(int(rl[i]), int(rh[i]) + 1):
                        lst = cells.setdefault((c, r), [])
                        if len(lst) < node.top_cap:
                            lst.append(i)
            node.top = {k: np.asarray(v, dtype=np.int64) for k, v in cells.items()}
            node.slow = _TopKSlow(
                {k: gi[k] for k in ("x1", "x2", "y1", "y2", "z2", "orig")},
                len(xs), len(ys), self.params,
            )
        else:
            node.slow = None

        def dom_slabs(stored):
            out = {}
            for slab, by_orient in stored.items():
                structs = {}
                for (xk, yk), rows in by_orient.items():
                    arr = np.asarray(rows, dtype=np.int64)  # xb, yb, z2, orig
                    sx = -arr[:, 0] if xk == "ge" else arr[:, 0]
                    sy = -arr[:, 1] if yk == "ge" else arr[:, 1]
                    pts = [
                        (int(arr[i, 3]), (int(sx[i]), int(sy[i])), int(arr[i, 2]))
                        for i in range(len(arr))
                    ]
                    structs[(xk, yk)] = TopKDominance(pts, self.params)
                out[slab] = structs
            return out

        node.col_dom = dom_slabs(parts["col_stored3"])
        node.row_dom = dom_slabs(parts["row_stored3"])
        node.col_children = {
            k: self._build(sub, depth + 1) for k, sub in parts["col_children"].items()
        }
        node.row_children = {
            k: self._build(sub, depth + 1) for k, sub in parts["row_children"].items()
        }
        return node

    @property
    def bits_stored(self) -> int:
        """Payload bits of the per-slab top-k dominance pieces; leaf arrays,
        Top lists and the slow structures are not charged."""
        total = 0
        todo = [self.root] if self.root is not None else []
        while todo:
            node = todo.pop()
            if node.leaf_items is not None:
                continue
            total += sum(
                d.bits_stored for m in (node.col_dom, node.row_dom) for s in m.values() for d in s.values()
            )
            todo.extend((*node.col_children.values(), *node.row_children.values()))
        return total

    # -- query ---------------------------------------------------------------

    def collect_streams(self, q, counters):
        streams = []
        self._collect(self.root, int(q[0]), int(q[1]), counters, streams)
        return streams

    def _collect(self, node, qx, qy, counters, streams):
        if node is None:
            return
        if counters is not None:
            counters.visit_node()
        xs, ys = node.axes
        lqx = locate_coord(xs, qx, counters)
        lqy = locate_coord(ys, qy, counters)
        if node.leaf_items is not None:
            it = node.leaf_items

            def leaf_gen():
                if not len(it["orig"]):
                    return
                if counters is not None:
                    counters.scan_cells(len(it["orig"]))
                m = (
                    (it["x1"] <= lqx) & (it["x2"] >= lqx)
                    & (it["y1"] <= lqy) & (it["y2"] >= lqy)
                )
                # leaf arrays are weight-sorted at build time
                for i in np.nonzero(m)[0].tolist():
                    yield (int(it["z2"][i]), int(it["orig"][i]))

            streams.append(WeightStream(leaf_gen()))
            return
        col = int(np.searchsorted(node.lines_x, lqx, side="right"))
        row = int(np.searchsorted(node.lines_y, lqy, side="right"))
        if counters is not None:
            counters.charge_search(len(node.lines_x))
            counters.charge_search(len(node.lines_y))

        for dom_map, slab in ((node.col_dom, col), (node.row_dom, row)):
            structs = dom_map.get(slab)
            if structs:
                for (xk, yk), d in structs.items():
                    sqx = -lqx if xk == "ge" else lqx
                    sqy = -lqy if yk == "ge" else lqy
                    streams.append(_rezrank(d.stream((sqx, sqy), counters), self.zr_of))

        lst = node.top.get((col, row))
        if lst is not None:
            gi = node.grid_items
            slow = node.slow
            cap = node.top_cap

            def cell_gen():
                count = 0
                for i in lst.tolist():
                    if counters is not None:
                        counters.scan_cells(1)
                    yield (int(gi["z2"][i]), int(gi["orig"][i]))
                    count += 1
                if len(lst) < cap:
                    return
                merged = _merge_streams(slow.streams(lqx, lqy, counters, self.zr_of))
                skipped = 0
                while True:
                    v = merged.next()
                    if v is None:
                        return
                    if skipped < count:
                        skipped += 1
                        continue
                    yield v

            streams.append(WeightStream(cell_gen()))

        self._collect(node.col_children.get(col), lqx, lqy, counters, streams)
        self._collect(node.row_children.get(row), lqx, lqy, counters, streams)


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
