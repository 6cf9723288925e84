"""6-sided stabbing via a fan-out-f interval tree over z, plus the
z-restricted structures it needs.

A rectangle whose z endpoints fall into different children of a node
contributes its fully-covered child range [k+1, l-1] to that node's
z-restricted 6-sided structure M(v), and full copies to R(child of z1) and
L(child of z2), which treat it as 5-sided inside the child (the crossed
boundary side is unbounded there, realized by negating z).  A query walks
the root-to-leaf path of qz and combines M at every path node with L and R
at every visited child; the three parts of a rectangle cover disjoint
z-ranges, so results are duplicate-free.

The z-restricted 4-sided structures implement the shallow-cutting grouping:
corners of all per-(i,j) cuttings are grouped by x into runs of Z^2; each
group's candidate set R_alpha unions the conflict lists of its corners plus,
per (i,j), the corner immediately to the left of the group.  A query scans
the candidate set of the group containing qx and delegates to the slow
binary-tree structure when it finds t0 or more hits.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .counters import Counters, bit_width, charge_output
from .domcut import Dominance3, build_cutting2
from .geom import Box3, ModelParams, DEFAULT_PARAMS, ValidationError
from .range2d import NEG, POS
from .stab5 import (
    LeafStab5,
    SlowStab5,
    Stab5Tree,
    _boxes_to_items,
    _build_node as _build_stab5_node,
    _classify_break,
    _concat,
    _quantile_lines,
    _rank_axis,
    _rank_reduce_node,
    _subset,
    _to_even_rank,
    grid_side,
    is_grid_leaf,
    locate_coord,
    query_stab5,
)


# ---------------------------------------------------------------------------
# z-restricted 4-sided: slow structure (binary interval tree over [f])


class _ZSlowNode:
    __slots__ = ("center", "left", "right", "dom_left", "dom_right")

    def __init__(self, center):
        self.center = center
        self.left = None
        self.right = None
        self.dom_left = None   # queried when qz <= center: x,y,i with i <= qz
        self.dom_right = None  # queried when qz >  center: x,y,j with j >= qz


class ZR4Slow:
    """Exact z-restricted 4-sided stabbing: per tree node, the crossing
    rectangles split into one-sided halves answered by dominance queries."""

    def __init__(self, rx, ry, ri, rj, rid, f: int):
        self.f = max(1, f)
        self.n = len(rx)
        w = bit_width(max(2, int(max(rx.max(), ry.max()) + 2 if self.n else 2)))
        self.bits_stored = self.n * (2 * w + 2 * bit_width(self.f + 1) + bit_width(self.n + 1))
        self.root = None
        if self.n:
            self.root = self._build(np.arange(self.n), rx, ry, ri, rj, rid, 0, self.f)

    def _build(self, idx, rx, ry, ri, rj, rid, lo, hi):
        if not len(idx):
            return None
        center = (lo + hi) // 2
        node = _ZSlowNode(center)
        cross = (ri[idx] <= center) & (rj[idx] >= center)
        here = idx[cross]
        if len(here):
            node.dom_left = Dominance3(
                np.stack([rx[here], ry[here], ri[here]], axis=1),
                ids=rid[here],
                reflect=(False, False, True),
                universes=(2, 2, self.f),
            )
            node.dom_right = Dominance3(
                np.stack([rx[here], ry[here], rj[here]], axis=1),
                ids=rid[here],
            )
        if hi - lo > 1:
            node.left = self._build(idx[rj[idx] < center], rx, ry, ri, rj, rid, lo, center)
            node.right = self._build(idx[ri[idx] > center], rx, ry, ri, rj, rid, center + 1, hi)
        return node

    def query(self, q, counters: Counters | None = None, out=None):
        if out is None:
            out = []
        qx, qy, qz = q
        if not 0 <= qz < self.f:
            raise ValidationError(f"qz={qz} outside the z universe [0,{self.f})")
        node = self.root
        while node is not None:
            if qz <= node.center:
                if node.dom_left is not None:
                    out.extend(node.dom_left.query((qx, qy, qz), counters))
                node = node.left
            else:
                if node.dom_right is not None:
                    out.extend(node.dom_right.query((qx, qy, qz), counters))
                node = node.right
        return out


def build_zr4_slow(rects: list[Box3], f: int | None = None) -> ZR4Slow:
    rx, ry, ri, rj, rid, f_eff = _zr4_arrays(rects, f)
    return ZR4Slow(rx, ry, ri, rj, rid, f_eff)


def query_zr4_slow(s: ZR4Slow, q, counters: Counters | None = None) -> list[int]:
    return charge_output(s.query(q, counters), counters)


def _zr4_arrays(rects, f):
    n = len(rects)
    rx = np.empty(n, dtype=np.int64)
    ry = np.empty(n, dtype=np.int64)
    ri = np.empty(n, dtype=np.int64)
    rj = np.empty(n, dtype=np.int64)
    rid = np.empty(n, dtype=np.int64)
    for k, r in enumerate(rects):
        if r.x[0] is not None or r.y[0] is not None:
            raise ValidationError("z-restricted 4-sided form is (-inf,x] x (-inf,y] x [i,j]")
        if r.x[1] is None or r.y[1] is None or r.z[0] is None or r.z[1] is None:
            raise ValidationError("z-restricted 4-sided form is (-inf,x] x (-inf,y] x [i,j]")
        rx[k], ry[k], ri[k], rj[k], rid[k] = r.x[1], r.y[1], r.z[0], r.z[1], r.id
    f_eff = f if f is not None else max(2, int(rj.max()) + 1 if n else 2)
    if n and (ri.min() < 0 or rj.max() >= f_eff):
        raise ValidationError("z endpoints outside [0, f)")
    return rx, ry, ri, rj, rid, f_eff


# ---------------------------------------------------------------------------
# z-restricted 4-sided: grouped shallow cuttings


class ZR4Fast:
    def __init__(self, rx, ry, ri, rj, rid, f: int, params: ModelParams, t0: int | None = None):
        self.f = max(1, f)
        self.n = n = len(rx)
        self.t0 = t0 if t0 is not None else params.t0(max(2, n))
        self.slow = ZR4Slow(rx, ry, ri, rj, rid, self.f)
        self.groups: list[dict] = []
        self.group_bounds: list[int] = []
        # group size and the number of (i,j) cutting sets are both w^(2*eps)
        # in the analysis; when f is widened past Z the group must widen with
        # it or the per-group "immediately left" additions dominate
        gsz = max(1, max(params.Z, self.f) ** 2)
        w = bit_width(max(2, int(max(rx.max(), ry.max()) + 2 if n else 2)))

        if n == 0:
            self.bits_stored = 0
            return
        if n <= gsz * self.t0:
            # small case: one group holding everything
            self.groups = [dict(x=rx, y=ry, i=ri, j=rj, id=rid)]
            self.group_bounds = [-1]
            self.bits_stored = n * (2 * w + 2 * bit_width(self.f + 1))
            return

        # per-(i,j) cuttings over p(r) = (x, y), coverage down to (-1, -1);
        # conflict lists are remapped to rows of the full rectangle arrays
        pair_key = ri * self.f + rj
        order = np.argsort(pair_key, kind="stable")
        bounds = np.searchsorted(pair_key[order], np.arange(self.f * self.f + 1))
        corners = []  # (x, b, pair, conflict row array)
        self.cut_by_pair: dict[int, tuple] = {}
        for pair in range(self.f * self.f):
            seg = order[bounds[pair] : bounds[pair + 1]]
            if not len(seg):
                continue
            cut = build_cutting2(
                list(zip(rx[seg].tolist(), ry[seg].tolist())),
                self.t0,
                cover_floor=(-1, -1),
            )
            confs = [seg[np.asarray(c, dtype=np.int64)] for c in cut.conflicts]
            self.cut_by_pair[pair] = (cut, confs)
            for (a, b), rows in zip(cut.corners, confs):
                corners.append((a, b, pair, rows))
        corners.sort(key=lambda c: (c[0], c[2], c[1]))

        self.bits_stored = 0
        for start in range(0, len(corners), gsz):
            grp = corners[start : start + gsz]
            b_alpha = grp[0][0]
            member: set[int] = set()
            for _, _, _, rows in grp:
                member.update(int(v) for v in rows)
            # per (i,j): the rightmost corner of that cutting with x <= b_alpha
            for pair, (cut, confs) in self.cut_by_pair.items():
                pos = cut.rightmost_corner_at_or_left(b_alpha)
                if pos is not None:
                    member.update(int(v) for v in confs[pos])
            sel = np.asarray(sorted(member), dtype=np.int64)
            self.groups.append(
                dict(x=rx[sel], y=ry[sel], i=ri[sel], j=rj[sel], id=rid[sel])
            )
            self.group_bounds.append(int(b_alpha))
            self.bits_stored += len(sel) * (2 * w + 2 * bit_width(self.f + 1))

    def sum_candidate_sizes(self) -> int:
        return sum(len(g["id"]) for g in self.groups)

    def query(self, q, counters: Counters | None = None, trace: list | None = None, out=None):
        if out is None:
            out = []
        qx, qy, qz = q
        if not 0 <= qz < self.f:
            raise ValidationError(f"qz={qz} outside the z universe [0,{self.f})")
        if not self.groups:
            return out
        if counters is not None:
            counters.charge_search(len(self.group_bounds))
        gi = bisect_right(self.group_bounds, qx) - 1
        if gi < 0:
            return self.slow.query(q, counters, out)
        g = self.groups[gi]
        if counters is not None:
            counters.scan_cells(len(g["id"]))
        m = (g["x"] >= qx) & (g["y"] >= qy) & (g["i"] <= qz) & (g["j"] >= qz)
        hits = g["id"][np.nonzero(m)[0]]
        if len(hits) >= self.t0:
            if trace is not None:
                trace.append(("zr4_fallback", gi, len(hits)))
            return self.slow.query(q, counters, out)
        out.extend(int(v) for v in hits)
        return out


def build_zr4_fast(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
    t0: int | None = None,
) -> ZR4Fast:
    rx, ry, ri, rj, rid, f_eff = _zr4_arrays(rects, f)
    return ZR4Fast(rx, ry, ri, rj, rid, f_eff, params, t0)


def query_zr4_fast(s: ZR4Fast, q, counters: Counters | None = None, trace=None) -> list[int]:
    return charge_output(s.query(q, counters, trace), counters)


# ---------------------------------------------------------------------------
# z-restricted 6-sided: stab5-style grid tree with Cover(c, z) lists,
# ZR4Fast row/column structures, and a binary-z tree of slow structures


def _zr6_boxes_to_items(rects: list[Box3], f: int | None):
    n = len(rects)
    it = {
        "x1": np.empty(n, dtype=np.int64),
        "x2": np.empty(n, dtype=np.int64),
        "y1": np.empty(n, dtype=np.int64),
        "y2": np.empty(n, dtype=np.int64),
        "zi": np.empty(n, dtype=np.int64),
        "zj": np.empty(n, dtype=np.int64),
        "orig": np.empty(n, dtype=np.int64),
    }
    for k, r in enumerate(rects):
        if any(v is None for v in (r.x[0], r.x[1], r.y[0], r.y[1], r.z[0], r.z[1])):
            raise ValidationError("z-restricted 6-sided rectangles are finite")
        it["x1"][k], it["x2"][k] = r.x
        it["y1"][k], it["y2"][k] = r.y
        it["zi"][k], it["zj"][k] = r.z
        it["orig"][k] = r.id
    f_eff = f if f is not None else max(1, int(it["zj"].max()) + 1 if n else 1)
    if n and (it["zi"].min() < 0 or it["zj"].max() >= f_eff):
        raise ValidationError("z endpoints outside [0, f)")
    return it, f_eff


class _ZR6SlowNode:
    __slots__ = ("center", "left", "right", "low_side", "high_side")

    def __init__(self, center):
        self.center = center
        self.left = None
        self.right = None
        self.low_side = None   # qz <= center: 5-sided with z = -zi vs -qz
        self.high_side = None  # qz >  center: 5-sided with z = +zj vs +qz


class _ZR6Slow:
    """Lemma F.3 shape: binary z tree whose nodes hold 5-sided slow
    structures for the two one-sided halves of each crossing rectangle."""

    def __init__(self, it, ux, uy, f):
        self.f = f
        self.ux, self.uy = ux, uy
        self.root = self._build(it, 0, max(2, f))

    def _build(self, it, lo, hi):
        if not len(it["orig"]):
            return None
        center = (lo + hi) // 2
        node = _ZR6SlowNode(center)
        cross = (it["zi"] <= center) & (it["zj"] >= center)
        here = _subset(it, cross)
        if len(here["orig"]):
            node.low_side = SlowStab5(
                {
                    "x1": here["x1"], "x2": here["x2"],
                    "y1": here["y1"], "y2": here["y2"],
                    "z2": -here["zi"], "orig": here["orig"],
                },
                self.ux, self.uy, self.f,
            )
            node.high_side = SlowStab5(
                {
                    "x1": here["x1"], "x2": here["x2"],
                    "y1": here["y1"], "y2": here["y2"],
                    "z2": here["zj"], "orig": here["orig"],
                },
                self.ux, self.uy, self.f,
            )
        if hi - lo > 1:
            node.left = self._build(_subset(it, it["zj"] < center), lo, center)
            node.right = self._build(_subset(it, it["zi"] > center), center + 1, hi)
        return node

    def query(self, qx, qy, qz, counters, out):
        node = self.root
        while node is not None:
            if qz <= node.center:
                if node.low_side is not None:
                    node.low_side.query((qx, qy, -qz), counters, out)
                node = node.left
            else:
                if node.high_side is not None:
                    node.high_side.query((qx, qy, qz), counters, out)
                node = node.right
        return out


class ZR6Node:
    __slots__ = (
        "m", "axes", "leaf_items", "lines_x", "lines_y", "cover", "cover_cap",
        "slow", "col_fast", "row_fast", "col_children", "row_children",
        "grid_items", "f",
    )


class ZR6Tree:
    def __init__(self, root, n, f, params):
        self.root = root
        self.n = n
        self.f = f
        self.params = params

    @property
    def bits_stored(self) -> int:
        return _zr6_bits(self.root)


def _zr6_bits(node: ZR6Node) -> int:
    """Payload bits of the per-slab ZR4Fast pieces of a zr6 subtree; leaf
    arrays, Cover lists and the slow structures are not charged."""
    if node.leaf_items is not None:
        return 0
    pieces = sum(
        s.bits_stored for m in (node.col_fast, node.row_fast) for d in m.values() for s in d.values()
    )
    return pieces + sum(_zr6_bits(c) for c in (*node.col_children.values(), *node.row_children.values()))


def build_zr6(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> ZR6Tree:
    it, f_eff = _zr6_boxes_to_items(rects, f)
    t0 = params.t0(max(2, len(rects)))
    root = _build_zr6_node(it, f_eff, params, t0, 0)
    return ZR6Tree(root, len(rects), f_eff, params)


def _zr6_rank_reduce(it):
    xs = _rank_axis([it["x1"], it["x2"]])
    ys = _rank_axis([it["y1"], it["y2"]])
    out = dict(it)
    out["x1"] = _to_even_rank(xs, it["x1"])
    out["x2"] = _to_even_rank(xs, it["x2"])
    out["y1"] = _to_even_rank(ys, it["y1"])
    out["y2"] = _to_even_rank(ys, it["y2"])
    return out, (xs, ys)


def _build_zr6_node(it, f, params, t0, depth):
    m = len(it["orig"])
    node = ZR6Node()
    node.m = m
    node.f = f
    rit, axes = _zr6_rank_reduce(it)
    node.axes = axes

    leafy = is_grid_leaf(m, params) or depth > 64
    lines_x = lines_y = None
    if not leafy:
        g = params.grid_override or grid_side(m)
        fx = np.concatenate([rit["x1"], rit["x2"]])
        fy = np.concatenate([rit["y1"], rit["y2"]])
        lines_x = _quantile_lines(fx, g)
        lines_y = _quantile_lines(fy, g)
        if not len(lines_x) and not len(lines_y):
            leafy = True
    parts = None
    if not leafy:
        parts = _classify_break(rit, lines_x, lines_y)
        if parts["stagnant"]:
            leafy = True

    if leafy:
        node.leaf_items = rit
        return node
    node.leaf_items = None
    node.lines_x = lines_x
    node.lines_y = lines_y
    node.cover_cap = max(1, math.ceil(math.log2(max(2, m))))

    gi = parts["grid"]
    node.grid_items = gi
    node.cover = {}
    ngrid = len(gi["orig"])
    if ngrid:
        order = np.argsort(gi["orig"], kind="stable")  # keep the lowest ids
        cells = {}
        cl, ch, rl, rh = gi["cLo"], gi["cHi"], gi["rLo"], gi["rHi"]
        for i in order.tolist():
            for c in range(int(cl[i]), int(ch[i]) + 1):
                for r in range(int(rl[i]), int(rh[i]) + 1):
                    for z in range(int(gi["zi"][i]), int(gi["zj"][i]) + 1):
                        lst = cells.setdefault((c, r, z), [])
                        if len(lst) < node.cover_cap:
                            lst.append(i)
        node.cover = {
            k: np.asarray(v, dtype=np.int64) for k, v in cells.items()
        }
        node.slow = _ZR6Slow(
            gi, len(axes[0]), len(axes[1]), f
        )
    else:
        node.slow = None

    # 3-sided pieces: per-slab, orientation-keyed ZR4Fast (reflection by
    # negating the 'ge' axes turns every orientation into canonical form)
    def fast_slabs(stored):
        out = {}
        for slab, by_orient in stored.items():
            structs = {}
            for (xk, yk), rows in by_orient.items():
                arr = np.asarray(rows, dtype=np.int64)  # xb, yb, zi, zj, orig
                sx = -arr[:, 0] if xk == "ge" else arr[:, 0]
                sy = -arr[:, 1] if yk == "ge" else arr[:, 1]
                structs[(xk, yk)] = ZR4Fast(
                    sx, sy, arr[:, 2], arr[:, 3], arr[:, 4], f, params, t0
                )
            out[slab] = structs
        return out

    node.col_fast = fast_slabs(parts["col_stored3"])
    node.row_fast = fast_slabs(parts["row_stored3"])

    node.col_children = {
        k: _build_zr6_node(sub, f, params, t0, depth + 1)
        for k, sub in parts["col_children"].items()
    }
    node.row_children = {
        k: _build_zr6_node(sub, f, params, t0, depth + 1)
        for k, sub in parts["row_children"].items()
    }
    return node


def query_zr6(tree: ZR6Tree, q, counters: Counters | None = None, trace=None) -> list[int]:
    qx, qy, qz = q
    if not 0 <= qz < tree.f:
        raise ValidationError(f"qz={qz} outside the z universe [0,{tree.f})")
    out: list[int] = []
    _query_zr6_node(tree.root, qx, qy, int(qz), counters, trace, out)
    return charge_output(out, counters)


def _query_zr6_node(node: ZR6Node, qx, qy, qz, counters, trace, out):
    if counters is not None:
        counters.visit_node()
    xs, ys = node.axes
    lqx = locate_coord(xs, qx, counters)
    lqy = locate_coord(ys, qy, counters)
    if node.leaf_items is not None:
        it = node.leaf_items
        if len(it["orig"]):
            if counters is not None:
                counters.scan_cells(len(it["orig"]))
            msk = (
                (it["x1"] <= lqx) & (it["x2"] >= lqx)
                & (it["y1"] <= lqy) & (it["y2"] >= lqy)
                & (it["zi"] <= qz) & (it["zj"] >= qz)
            )
            out.extend(it["orig"][np.nonzero(msk)[0]].tolist())
        return

    col = int(np.searchsorted(node.lines_x, lqx, side="right"))
    row = int(np.searchsorted(node.lines_y, lqy, side="right"))
    if counters is not None:
        counters.charge_search(len(node.lines_x))
        counters.charge_search(len(node.lines_y))

    for fast_map, slab in ((node.col_fast, col), (node.row_fast, row)):
        structs = fast_map.get(slab)
        if structs:
            for (xk, yk), s in structs.items():
                sqx = -lqx if xk == "ge" else lqx
                sqy = -lqy if yk == "ge" else lqy
                s.query((sqx, sqy, qz), counters, trace, out)

    lst = node.cover.get((col, row, qz))
    if lst is not None:
        gi = node.grid_items
        if counters is not None:
            counters.scan_cells(len(lst))
        if len(lst) == node.cover_cap:
            if trace is not None:
                trace.append(("cover_fallback", node, (col, row, qz)))
            node.slow.query(lqx, lqy, qz, counters, out)
        else:
            out.extend(gi["orig"][lst].tolist())

    child = node.col_children.get(col)
    if child is not None:
        _query_zr6_node(child, lqx, lqy, qz, counters, trace, out)
    child = node.row_children.get(row)
    if child is not None:
        _query_zr6_node(child, lqx, lqy, qz, counters, trace, out)


# ---------------------------------------------------------------------------
# the fan-out-f interval tree over z


class ITNode:
    __slots__ = (
        "lo", "hi", "child_size", "children", "M", "L", "R", "leaf_items", "s_count",
    )


class IntervalTreeZ:
    def __init__(self, root, n, f, zvals, params):
        self.root = root
        self.n = n
        self.f = f
        self.zvals = zvals  # sorted distinct z endpoints (the leaf order)
        self.params = params

    def depth_of(self, qz: int) -> int:
        """Number of nodes on the search path of qz."""
        li = int(np.searchsorted(self.zvals, qz, side="right")) - 1
        if li < 0:
            return 0
        d = 0
        node = self.root
        while node is not None:
            d += 1
            if node.leaf_items is not None:
                break
            c = (li - node.lo) // node.child_size
            node = node.children.get(int(c))
        return d

    @property
    def bits_stored(self) -> int:
        """Payload bits of every node's L/R 5-sided trees and M structure;
        leaf arrays are not charged."""
        total = 0
        todo = [self.root] if self.root is not None else []
        while todo:
            node = todo.pop()
            if node.leaf_items is not None:
                continue
            total += sum(t.bits_stored for t in (*node.L.values(), *node.R.values()))
            if node.M is not None:
                total += _zr6_bits(node.M)
            todo.extend(node.children.values())
        return total

    def height_bound(self) -> int:
        leaves = max(1, len(self.zvals))
        return math.ceil(math.log(leaves, max(2, self.f))) + 1

    def s_sizes(self) -> list[int]:
        out = []

        def rec(node):
            if node is None:
                return
            out.append(node.s_count)
            if node.leaf_items is None:
                for ch in node.children.values():
                    rec(ch)

        rec(self.root)
        return out


def build_stab6(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> IntervalTreeZ:
    for r in rects:
        if any(v is None for v in (r.x[0], r.x[1], r.y[0], r.y[1], r.z[0], r.z[1])):
            raise ValidationError("6-sided stabbing wants finite boxes")
    f_eff = f if f is not None else params.Z
    n = len(rects)
    zset = sorted({v for r in rects for v in (r.z[0], r.z[1])})
    zvals = np.asarray(zset, dtype=np.int64)
    if n == 0:
        return IntervalTreeZ(None, 0, f_eff, zvals, params)

    arr = {
        "x1": np.asarray([r.x[0] for r in rects], dtype=np.int64),
        "x2": np.asarray([r.x[1] for r in rects], dtype=np.int64),
        "y1": np.asarray([r.y[0] for r in rects], dtype=np.int64),
        "y2": np.asarray([r.y[1] for r in rects], dtype=np.int64),
        "z1": np.asarray([r.z[0] for r in rects], dtype=np.int64),
        "z2": np.asarray([r.z[1] for r in rects], dtype=np.int64),
        "orig": np.asarray([r.id for r in rects], dtype=np.int64),
    }
    la = np.searchsorted(zvals, arr["z1"])
    lb = np.searchsorted(zvals, arr["z2"])
    root = _build_it(arr, la, lb, 0, len(zvals), f_eff, params)
    return IntervalTreeZ(root, n, f_eff, zvals, params)


def _build_it(arr, la, lb, lo, hi, f, params):
    node = ITNode()
    node.lo = lo
    node.hi = hi
    if hi - lo <= 1:
        node.leaf_items = arr
        node.s_count = len(arr["orig"])
        node.children = {}
        node.M = node.L = node.R = None
        node.child_size = 1
        return node
    node.leaf_items = None
    nch = min(f, hi - lo)
    size = -(-(hi - lo) // nch)
    node.child_size = size
    ck = (la - lo) // size
    cl = (lb - lo) // size
    here = ck != cl
    node.s_count = int(np.sum(here))

    # M(v): fully covered child range [k+1, l-1] in the child-index universe
    hidx = np.nonzero(here)[0]
    m_items = {
        "x1": arr["x1"][hidx], "x2": arr["x2"][hidx],
        "y1": arr["y1"][hidx], "y2": arr["y2"][hidx],
        "zi": ck[hidx] + 1, "zj": cl[hidx] - 1,
        "orig": arr["orig"][hidx],
    }
    keep = m_items["zi"] <= m_items["zj"]
    m_items = _subset(m_items, keep)
    nch_actual = -(-(hi - lo) // size)
    node.M = None
    if len(m_items["orig"]):
        t0 = params.t0(max(2, len(m_items["orig"])))
        node.M = _build_zr6_node(m_items, nch_actual, params, t0, 0)

    # R(child of z1): 5-sided upward copies; L(child of z2): downward copies
    by_child_R: dict[int, list[int]] = {}
    by_child_L: dict[int, list[int]] = {}
    for i in hidx.tolist():
        by_child_R.setdefault(int(ck[i]), []).append(i)
        by_child_L.setdefault(int(cl[i]), []).append(i)
    node.R = {}
    node.L = {}
    for c, rows in by_child_R.items():
        sel = np.asarray(rows, dtype=np.int64)
        items = {
            "x1": arr["x1"][sel], "x2": arr["x2"][sel],
            "y1": arr["y1"][sel], "y2": arr["y2"][sel],
            "z2": -arr["z1"][sel],  # z >= z1, negated to canonical
            "orig": arr["orig"][sel],
        }
        node.R[c] = _stab5_from_items(items, params)
    for c, rows in by_child_L.items():
        sel = np.asarray(rows, dtype=np.int64)
        items = {
            "x1": arr["x1"][sel], "x2": arr["x2"][sel],
            "y1": arr["y1"][sel], "y2": arr["y2"][sel],
            "z2": arr["z2"][sel],
            "orig": arr["orig"][sel],
        }
        node.L[c] = _stab5_from_items(items, params)

    node.children = {}
    rest = np.nonzero(~here)[0]
    if len(rest):
        child_of = ck[rest]
        for c in np.unique(child_of).tolist():
            rows = rest[child_of == c]
            sub = {k: v[rows] for k, v in arr.items()}
            clo = lo + int(c) * size
            node.children[int(c)] = _build_it(
                sub, la[rows], lb[rows], clo, min(clo + size, hi), f, params
            )
    return node


def _stab5_from_items(items: dict, params: ModelParams) -> Stab5Tree:
    stats = {"bits": 0, "inc": 0}
    root = _build_stab5_node(items, params, stats, 0)
    return Stab5Tree(root, len(items["orig"]), stats["bits"], stats["inc"])


def query_stab6(
    it: IntervalTreeZ, q, counters: Counters | None = None, trace: list | None = None
) -> list[int]:
    out: list[int] = []
    qx, qy, qz = q
    if it.root is None:
        return out
    li = int(np.searchsorted(it.zvals, qz, side="right")) - 1
    if counters is not None:
        counters.charge_search(len(it.zvals))
    if li < 0:
        return out  # below every z endpoint: nothing can contain qz
    node = it.root
    from .stab5 import _query_node as _q5

    while node is not None:
        if counters is not None:
            counters.visit_node()
        if trace is not None:
            trace.append(("it_node", node))
        if node.leaf_items is not None:
            itearr = node.leaf_items
            if len(itearr["orig"]):
                if counters is not None:
                    counters.scan_cells(len(itearr["orig"]))
                msk = (
                    (itearr["x1"] <= qx) & (itearr["x2"] >= qx)
                    & (itearr["y1"] <= qy) & (itearr["y2"] >= qy)
                    & (itearr["z1"] <= qz) & (itearr["z2"] >= qz)
                )
                out.extend(itearr["orig"][np.nonzero(msk)[0]].tolist())
            break
        c = int((li - node.lo) // node.child_size)
        if node.M is not None:
            _query_zr6_node(node.M, qx, qy, c, counters, trace, out)
        s5 = node.R.get(c)
        if s5 is not None and s5.root is not None:
            _q5(s5.root, (qx, qy, -qz), counters, trace, out)
        s5 = node.L.get(c)
        if s5 is not None and s5.root is not None:
            _q5(s5.root, (qx, qy, qz), counters, trace, out)
        node = node.children.get(c)
    return charge_output(out, counters)
