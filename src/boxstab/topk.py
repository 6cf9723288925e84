"""Top-k weighted dominance and rectangle stabbing.

Weights are lifted to a third coordinate: points are ranked by (weight
descending, id ascending) and point i gets z = n-1-rank(i), so z order is
exactly the output order and is duplicate-free.  Top-k 2-d dominance runs on
two shallow cuttings (levels t1 ~ log n and t2 ~ cbrt(log n)) plus a global
weight-sorted fallback, walked as tiers:

* the fine cutting: FIND-ANY, then one lookup in the located cell's rank
  table, the paper's word-RAM tabulation: a fine conflict list holds at
  most 4*t2 points, so the dominators of each rank cell are one bitmask
  over the weight-sorted list, decoded only as far as the walk yields;
* the coarse cutting: FIND-ANY, then a weight-descending filtered scan of
  its conflict list;
* the global scan.

The columns are tuples and lists of Python ints, converted once from the
caller's arrays, and the cuttings are built on them directly.

A query for k starts at the fine tier if k < t2, at the coarse tier if
k < t1, else at the scan; a stream starts at the fine tier.  A located list
shorter than its cutting's level is provably complete, so the walk stops
there; otherwise the next tier yields what the ones before it did not, and
a FIND-ANY miss passes to the next tier.

Top-k stabbing runs the one grid tree of stab5.py, shared with stab5 and
zr6, on the lifted rectangles; every visited node contributes
weight-descending (weight, id) streams (its Top(c) list with a transparent
switch to the slow structure, the per-slab top-k dominance structures, or a
leaf's ``geom.Leaf``, its rows in weight order and its z side [NEG, POS]),
where a piece's weight is its rectangle's global z rank, merged
by a binary heap.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from itertools import islice

import numpy as np

from .counters import Counters, charge_output
from .domcut import _cutting3, find_any
from .geom import (
    SIDES,
    Box2,
    ModelParams,
    DEFAULT_PARAMS,
    Leaf,
    ValidationError,
    box_arrays,
    check_id,
    check_point_coord,
    check_weight,
    query_coord,
    require_form,
)
from .range2d import NEG, POS
from .stab5 import (
    _ITEM_KEYS,
    GridKind,
    _query_node,
    _subset,
    build_grid,
    grid_bits,
    xy_path,
    xy_tree,
)


_LO, _HI = NEG // 2, POS // 2  # the clip band of TopKDominance's coordinates


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
    """Top-k 2-d dominance over points kept in output order (weight desc,
    id asc): a point's index is its rank, so every ascending index list is
    weight-sorted.  The columns ``ids``, ``pw`` (weights), ``px`` and ``py``
    are tuples; ``p1`` and ``p2`` are the coarse and fine cuttings, their
    conflict lists sorted, and ``cell_tables`` holds one ``_rank_table`` per
    conflict list of ``p2``."""

    def __init__(self, ids, xs, ys, ws, params: ModelParams = DEFAULT_PARAMS):
        """Points from int64 arrays of ids, coordinates and weights."""
        ids, xs, ys, ws = ids.tolist(), xs.tolist(), ys.tolist(), ws.tolist()
        self.n = n = len(ids)
        order = sorted(range(n), key=lambda i: (-ws[i], ids[i]))
        self.ids = tuple([ids[i] for i in order])
        self.pw = tuple([ws[i] for i in order])
        # half-unbounded pieces arrive with +-sentinel coordinates; clamp to
        # half range so cutting arithmetic (v+1, corner boundaries) stays
        # strictly inside the sentinel band.  ``raw`` is what a query past
        # the band scans: None where the clamp changed nothing, True where
        # ``_unclip`` restores every value (it changed sentinels only, and
        # no other value sits on a band edge), else the unclamped columns
        rx, ry = [xs[i] for i in order], [ys[i] for i in order]
        self.px = px = tuple([min(max(v, _LO), _HI) for v in rx])
        self.py = py = tuple([min(max(v, _LO), _HI) for v in ry])
        self.raw = None
        if rx != list(px) or ry != list(py):
            restored = _unclip(px) == rx and _unclip(py) == ry
            self.raw = True if restored else (array("q", rx), array("q", ry))
        self.t1 = params.t1(max(2, n))
        self.t2 = params.t2(max(2, n))
        # the lift's z is n-1-index; the cuttings must cover every integer
        # query point, not just the points' own rank grid, or the located
        # cell's conflict list can miss dominators of queries that fall
        # between coordinates
        zs = range(n - 1, -1, -1)
        floor = (NEG, NEG)
        self.p1 = _cutting3(px, py, zs, self.t1, floor)
        self.p2 = _cutting3(px, py, zs, self.t2, floor)
        for cut in (self.p1, self.p2):
            for conf in cut.conflicts:
                conf.sort()
        # a fine conflict list has at most 4*t2 entries, one bit each, and
        # t2 = ceil(cbrt(log2 n)) <= 4 for every n below 2^64
        code = "B" if 4 * self.t2 <= 8 else "H"
        self.cell_tables = [self._rank_table(conf, code) for conf in self.p2.conflicts]
        self.bits_stored = self.p1.bits_stored + self.p2.bits_stored

    def _rank_table(self, conf, code):
        """The rank table of one fine conflict list: its distinct x and y
        values ascending, cx and cy, and an ``array(code)`` of dominator
        bitmasks, entry i*(len(cy)+1)+j for rank cell (i, j), in which bit b
        is set when conf[b] has x >= cx[i] and y >= cy[j].  A query (qx, qy)
        reads the cell (bisect_left(cx, qx), bisect_left(cy, qy)); the last
        rank of each axis lies past every point (POS > POS // 2) and holds no
        bit."""
        cx, xm = _rank_masks([self.px[r] for r in conf])
        cy, ym = _rank_masks([self.py[r] for r in conf])
        return cx, cy, array(code, [a & b for a in xm for b in ym])

    def _rows(self, qx, qy, tier, counters):
        """Indices of the points dominating (qx, qy), weight descending,
        walked from ``tier``: 0 the fine cutting, 1 the coarse one, 2 the
        global scan (see the module docstring).  A query past the clip band,
        where clipped and raw coordinates compare apart, scans the raw ones."""
        px, py = self.px, self.py
        done = 0
        if not (_LO < qx <= _HI and _LO < qy <= _HI):
            raw = self.raw
            if raw is True:
                raw = _unclip(px), _unclip(py)
            px, py = raw or (px, py)
            tier = 2
        for tier in range(tier, 2):
            cut, level = ((self.p2, self.t2), (self.p1, self.t1))[tier]
            label = find_any(cut, qx, qy, counters)
            if label is None:
                continue
            conf = cut.conflicts[label]
            if tier == 0:
                cx, cy, table = self.cell_tables[label]
                mask = table[bisect_left(cx, qx) * (len(cy) + 1) + bisect_left(cy, qy)]
                if counters is not None:
                    counters.charge_search(len(cx))
                    counters.charge_search(len(cy))
                count = mask.bit_count()
                for _ in range(min(count, level)):
                    low = mask & -mask
                    yield conf[low.bit_length() - 1]
                    mask ^= low
            else:
                if counters is not None:
                    counters.scan_cells(len(conf))
                rows = [r for r in conf if px[r] >= qx and py[r] >= qy]
                count = len(rows)
                yield from rows[done:level]
            if count < level:
                return  # provably complete
            done = level
        if counters is not None:
            counters.scan_cells(self.n)
        # lazy: a stream merged by the heap reads only the prefix it needs
        yield from islice((r for r in range(self.n) if px[r] >= qx and py[r] >= qy), done, None)

    def query(self, q, k: int, counters: Counters | None = None) -> list[int]:
        """The k heaviest points dominating q, weight desc / id asc."""
        k = min(query_coord(k, "k"), self.n)
        if k <= 0:
            return []
        tier = 0 if k < self.t2 else 1 if k < self.t1 else 2
        ids = self.ids
        return [ids[r] for r in islice(self._rows(query_coord(q[0]), query_coord(q[1]), tier, counters), k)]

    def stream(self, q, counters: Counters | None = None):
        """(weight, id) of every dominating point, weight descending,
        produced tier by tier; q is checked when the stream opens."""
        pw, ids = self.pw, self.ids
        rows = self._rows(query_coord(q[0]), query_coord(q[1]), 0, counters)
        return ((pw[r], ids[r]) for r in rows)


def _unclip(col) -> list:
    """A clamped column with every value on a band edge put back to its
    sentinel."""
    return [NEG if v == _LO else POS if v == _HI else v for v in col]


def _rank_masks(vals):
    """The distinct values of ``vals`` ascending, ``axis``, and per rank i
    from 0 to len(axis) the bitmask of the positions b with vals[b] >=
    axis[i]; rank len(axis) has none."""
    axis = tuple(sorted(set(vals)))
    masks = [0] * (len(axis) + 1)
    for b, v in enumerate(vals):
        masks[bisect_left(axis, v)] |= 1 << b
    for i in range(len(axis) - 1, -1, -1):
        masks[i] |= masks[i + 1]
    return axis, masks


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


class _TopKSlow:
    """Lemma 3.1's nested x/y centered tree (stab5.xy_tree) with one top-k
    dominance structure per (x-node, y-node, orientation); a query gets one
    stream per structure on its search path."""

    def __init__(self, it, ux, uy, params):
        def dom(xs, ys, here):
            return TopKDominance(here["orig"], xs, ys, here["z2"], params)

        self.root = xy_tree(it, max(2, 2 * ux), max(2, 2 * uy), dom)

    def streams(self, lq, counters):
        return [d.stream(sq, counters) for d, sq in xy_path(self.root, lq[0], lq[1])]


class _TopKGrid(GridKind):
    """The top-k tree over weight-lifted rectangles: a visited node adds
    weight-descending streams instead of ids.  TopKDominance per slab
    orientation, Top(c) lists that switch over to the _TopKSlow streams
    when full, and only the TopKDominance pieces charged."""

    def __init__(self, params: ModelParams):
        self.params = params

    def leaf(self, it):
        """Rows in weight order, each with its (weight, id); the z side
        [NEG, POS] holds the query's z of 0."""
        s = _subset(it, np.argsort(-it["z2"], kind="stable"))
        return Leaf(s["x1"], s["x2"], s["y1"], s["y2"], NEG, POS, s["z2"], s["orig"])

    def leaf_query(self, leaf, q, counters, streams):
        streams.append(iter(leaf.query((*q, 0), counters)))

    def slab(self, p):
        return TopKDominance(p["orig"], p["xb"], p["yb"], p["z2"], self.params)

    def slab_query(self, d, sq, counters, streams):
        streams.append(d.stream(sq, counters))

    def slow(self, gi, axes):
        return _TopKSlow({k: gi[k] for k in _ITEM_KEYS}, len(axes[0]), len(axes[1]), self.params)

    def cell_query(self, node, cell, lo, hi, lq, counters, trace, streams):
        streams.append(self._cell_stream(node, lo, hi, lq, counters))

    def _cell_stream(self, node, lo, hi, lq, counters):
        z2 = node.grid_items["z2"]
        for i, orig in zip(node.cell_items[lo:hi], node.cell_ids[lo:hi]):
            if counters is not None:
                counters.scan_cells(1)
            yield z2[i], orig
        if hi - lo < node.cap:
            return
        # a full list: the slow structure's stream past the entries shown;
        # the slow structure's own merge charges no heap operations
        yield from islice(_merge(node.slow.streams(lq, counters), None), hi - lo, None)


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
    k = min(query_coord(k, "k"), tree.n)
    if k <= 0 or tree.root is None:
        return []
    streams = []
    _query_node(tree.root, (query_coord(q[0]), query_coord(q[1])), counters, None, streams)
    return charge_output([orig for _, orig in islice(_merge(streams, counters), k)], counters)
