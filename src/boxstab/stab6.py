"""6-sided stabbing via a fan-out-f interval tree over z, plus the
z-restricted structures it needs.

A rectangle whose z endpoints fall into different children of a node
contributes its fully-covered child range [k+1, l-1], if not empty, to
that node's z-restricted 6-sided structure M(v), and full copies to
R(child of z1) and L(child of z2), which treat it as 5-sided inside the
child (the crossed boundary side is unbounded there: R stores z1 times the
sign -1, L z2 times 1, and a query meets each with qz times its sign).  A
query walks the root-to-leaf path of qz and combines M at every path node
with L and R at every visited child; the three parts of a rectangle cover
disjoint z-ranges, so results are duplicate-free.

The z-restricted 4-sided structures implement the shallow-cutting grouping:
corners of all per-(i,j) cuttings are grouped by x into runs of Z^2; each
group's candidate set R_alpha unions the conflict lists of its corners plus,
per (i,j), the corner immediately to the left of the group, in one
``geom.Leaf``.  A query scans the candidate set of the group containing qx
and delegates to ZR4Slow when it finds t0 or more hits.

M(v) is a z-restricted 6-sided tree, and L and R are 5-sided trees; both
are the one grid tree of stab5.py, which zr6 supplies with ZR4Fast slab
structures, Cover(c, z) lists and the _ZR6Slow fallback.

A leaf of the z tree holds the rectangles of one z slot as one
``geom.Leaf`` over their raw coordinates; the leaves of M, L and R are the
grid tree's, which keep the coordinates their items arrive in.

ZR4Slow and _ZR6Slow are stab5.py's halves tree over z in [0, f)
(``halves_tree``, Lemma F.3): a node splits the rectangles containing its
center into one-sided halves, -z1 under side -1 and z2 under side 1, and
a query asks the half on its side of each center with qz times that side.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import Counters, TraceEvent, bit_width, charge_output
from .domcut import Dominance3, build_cutting2
from .geom import NEG, POS, SIDES, Box3, Leaf, ModelParams, DEFAULT_PARAMS, ValidationError, box_arrays
from .geom import _groups, floor_rank, query_coord, rank_axis, require_form
from .range2d import int64_array
from .stab5 import (
    GridKind,
    SlowStab5,
    Stab5Tree,
    _query_node,
    _subset,
    build_grid,
    grid_bits,
    halves_path,
    halves_tree,
)


# ---------------------------------------------------------------------------
# z-restricted 4-sided: slow structure (centered interval tree over [f])


class ZR4Slow:
    """Exact z-restricted 4-sided stabbing: per tree node, the crossing
    rectangles split into one-sided halves answered by dominance queries,
    (x, y, -i) against -qz (i <= qz) where qz <= center and (x, y, j) with
    j >= qz past it."""

    def __init__(self, rx, ry, ri, rj, rid, f: int):
        self.f = max(1, f)
        self.n = len(rx)
        w = bit_width(max(2, int(max(rx.max(), ry.max()) + 2 if self.n else 2)))
        self.bits_stored = self.n * (2 * w + 2 * bit_width(self.f + 1) + bit_width(self.n + 1))

        def half(here, z):
            return Dominance3(here["x"], here["y"], z, here["orig"])

        it = {"x": rx, "y": ry, "i": ri, "j": rj, "orig": rid}
        self.root = halves_tree(it, "i", "j", self.f, half)

    def query(self, q, counters: Counters | None = None, out=None):
        if out is None:
            out = []
        qx, qy, qz = q
        for d, z in halves_path(self.root, qz):
            out.extend(d.query((qx, qy, z), counters))
        return out


def _z_restricted(rects: list[Box3], f: int | None, least: int, **form):
    """The box arrays of z-restricted input, checked by ``require_form``
    against ``form``, and its z universe: f, else max(least, max z2 + 1);
    every z endpoint must lie in [0, f)."""
    a = box_arrays(rects)
    require_form(a, **form)
    n = len(rects)
    f = f if f is not None else max(least, int(a["z2"].max()) + 1 if n else least)
    if n and (a["z1"].min() < 0 or a["z2"].max() >= f):
        raise ValidationError("z endpoints outside [0, f)")
    return a, f


# (-inf,x] x (-inf,y] x [i,j]
_ZR4 = dict(form="z-restricted 4-sided", finite=("x2", "y2", "z1", "z2"), unbounded=("x1", "y1"))


def build_zr4_slow(rects: list[Box3], f: int | None = None) -> ZR4Slow:
    a, f = _z_restricted(rects, f, 2, **_ZR4)
    return ZR4Slow(a["x2"], a["y2"], a["z1"], a["z2"], a["orig"], f)


def _zr_query(q, f: int) -> tuple[int, int, int]:
    """A z-restricted query as ints, checked once at the entry point: qz
    must lie in the z universe [0, f)."""
    q = tuple(map(query_coord, q))
    if not 0 <= q[2] < f:
        raise ValidationError(f"qz={q[2]} outside the z universe [0,{f})")
    return q


def query_zr4_slow(s: ZR4Slow, q, counters: Counters | None = None) -> list[int]:
    return charge_output(s.query(_zr_query(q, s.f), counters), counters)


# ---------------------------------------------------------------------------
# z-restricted 4-sided: grouped shallow cuttings


class ZR4Fast:
    def __init__(self, rx, ry, ri, rj, rid, f: int, params: ModelParams, t0: int | None = None):
        self.f = max(1, f)
        self.n = n = len(rx)
        self.t0 = t0 if t0 is not None else params.t0(max(2, n))
        self.slow = ZR4Slow(rx, ry, ri, rj, rid, self.f)
        self.groups: list[Leaf] = []
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
            self.groups = [Leaf(NEG, rx, NEG, ry, ri, rj, rid)]
            self.group_bounds = [-1]
            self.bits_stored = n * (2 * w + 2 * bit_width(self.f + 1))
            return

        # per-(i,j) cuttings over p(r) = (x, y), coverage down to (-1, -1);
        # conflict lists are remapped to rows of the full rectangle arrays
        corners = []  # (x, b, pair, conflict row array)
        cuts = []  # (cutting, conflict row arrays) per nonempty (i,j)
        for pair, seg in _groups(ri * self.f + rj):
            cut = build_cutting2(
                np.stack([rx[seg], ry[seg]], axis=1), self.t0, cover_floor=(-1, -1)
            )
            confs = [seg[np.asarray(c, dtype=np.int64)] for c in cut.conflicts]
            cuts.append((cut, confs))
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
            for cut, confs in cuts:
                pos = cut.rightmost_corner_at_or_left(b_alpha)
                if pos is not None:
                    member.update(int(v) for v in confs[pos])
            sel = np.asarray(sorted(member), dtype=np.int64)
            self.groups.append(Leaf(NEG, rx[sel], NEG, ry[sel], ri[sel], rj[sel], rid[sel]))
            self.group_bounds.append(int(b_alpha))
            self.bits_stored += len(sel) * (2 * w + 2 * bit_width(self.f + 1))

    def sum_candidate_sizes(self) -> int:
        return sum(g.n for g in self.groups)

    def query(self, q, counters: Counters | None = None, trace: list | None = None, out=None):
        if out is None:
            out = []
        qx, qy, qz = q
        if not self.groups:
            return out
        gi = floor_rank(self.group_bounds, qx, counters)
        if gi < 0:
            return self.slow.query(q, counters, out)
        # clamped into [NEG, POS], qy passes the leaf's y1 = NEG side
        hits = self.groups[gi].query((qx, min(max(qy, NEG), POS), qz), counters)
        if len(hits) >= self.t0:
            if trace is not None:
                trace.append(TraceEvent("stab6", self, "zr4_fallback", gi, (qx, qy, qz)))
            return self.slow.query(q, counters, out)
        out.extend(hits)
        return out


def build_zr4_fast(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
    t0: int | None = None,
) -> ZR4Fast:
    a, f = _z_restricted(rects, f, 2, **_ZR4)
    return ZR4Fast(a["x2"], a["y2"], a["z1"], a["z2"], a["orig"], f, params, t0)


def query_zr4_fast(s: ZR4Fast, q, counters: Counters | None = None, trace=None) -> list[int]:
    return charge_output(s.query(_zr_query(q, s.f), counters, trace), counters)


# ---------------------------------------------------------------------------
# z-restricted 6-sided: the grid tree of stab5.py with Cover(c, z) lists,
# ZR4Fast row/column structures, and a centered z tree of slow structures


class _ZR6Slow:
    """Cover(c, z) fallback: the halves tree over z whose nodes hold 5-sided
    slow structures for the two one-sided halves of each crossing rectangle,
    z = -zi against -qz where qz <= center and z = zj against qz past it."""

    def __init__(self, it, ux, uy, f):
        def half(here, z):
            xy = {k: here[k] for k in ("x1", "x2", "y1", "y2", "orig")}
            return SlowStab5({**xy, "z2": z}, ux, uy, f)

        self.root = halves_tree(it, "zi", "zj", max(2, f), half)

    def query(self, qx, qy, qz, counters, out):
        for s, z in halves_path(self.root, qz):
            s.query((qx, qy, z), counters, out)


class _ZR6Grid(GridKind):
    """The z-restricted 6-sided tree over z universe [0, f): ZR4Fast per
    slab orientation, Cover(c, z) lists of the log m lowest ids per cell and
    z, and a _ZR6Slow behind full lists; only the ZR4Fast pieces are
    charged."""

    cell_span = ("zi", "zj")

    def __init__(self, f: int, params: ModelParams, t0: int):
        self.f = f
        self.params = params
        self.t0 = t0

    def leaf(self, it):
        return Leaf(it["x1"], it["x2"], it["y1"], it["y2"], it["zi"], it["zj"], it["orig"])

    def slab(self, p):
        return ZR4Fast(p["xb"], p["yb"], p["zi"], p["zj"], p["orig"], self.f, self.params, self.t0)

    def slab_query(self, s, sq, counters, out):
        s.query(sq, counters, out=out)

    def cell_order(self, gi):
        return np.argsort(gi["orig"], kind="stable")  # keep the lowest ids

    def cell_cap(self, m: int) -> int:
        return max(1, math.ceil(math.log2(max(2, m))))

    def slow(self, gi, axes):
        return _ZR6Slow(gi, len(axes[0]), len(axes[1]), self.f)

    def cell_query(self, node, cell, lo, hi, lq, counters, trace, out):
        if counters is not None:
            counters.scan_cells(hi - lo)
        if hi - lo == node.cap:
            if trace is not None:
                trace.append(TraceEvent("stab6", node, "cover_fallback", cell, lq))
            node.slow.query(*lq, counters, out)
        else:
            out.extend(node.cell_ids[lo:hi])


class ZR6Tree:
    def __init__(self, root, n, f):
        self.root = root
        self.n = n
        self.f = f

    @property
    def bits_stored(self) -> int:
        """Payload bits of the per-slab ZR4Fast pieces; leaf arrays, Cover
        lists and the slow structures are not charged."""
        return grid_bits(self.root)


def _zr6_grid(it: dict, f: int, params: ModelParams):
    t0 = params.t0(max(2, len(it["orig"])))
    return build_grid(it, _ZR6Grid(f, params, t0), params)


def build_zr6(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> ZR6Tree:
    a, f = _z_restricted(rects, f, 1, form="z-restricted 6-sided", finite=SIDES)
    it = {"x1": a["x1"], "x2": a["x2"], "y1": a["y1"], "y2": a["y2"],
          "zi": a["z1"], "zj": a["z2"], "orig": a["orig"]}
    return ZR6Tree(_zr6_grid(it, f, params), len(rects), f)


def query_zr6(tree: ZR6Tree, q, counters: Counters | None = None, trace=None) -> list[int]:
    out: list[int] = []
    _query_node(tree.root, _zr_query(q, tree.f), counters, trace, out)
    return charge_output(out, counters)


# ---------------------------------------------------------------------------
# the fan-out-f interval tree over z


class ITNode:
    __slots__ = (
        "lo", "hi", "child_size", "children", "M", "L", "R", "leaf_items", "s_count",
    )


class IntervalTreeZ:
    def __init__(self, root, n, f, zvals):
        self.root = root
        self.n = n
        self.f = f
        self.zvals = zvals  # sorted distinct z endpoints (the leaf order), an array('q')

    def nodes(self):
        """Every node of the tree, each before its children."""
        todo = [self.root] if self.root is not None else []
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    @property
    def bits_stored(self) -> int:
        """Payload bits of every node's L/R 5-sided trees and M structure;
        leaf arrays are not charged."""
        total = 0
        for node in self.nodes():
            if node.leaf_items is None:
                total += sum(t.bits_stored for t in (*node.L.values(), *node.R.values()))
                if node.M is not None:
                    total += grid_bits(node.M)
        return total

    def height_bound(self) -> int:
        leaves = max(1, len(self.zvals))
        return math.ceil(math.log(leaves, max(2, self.f))) + 1

    def s_sizes(self) -> list[int]:
        return [node.s_count for node in self.nodes()]


def build_stab6(
    rects: list[Box3],
    f: int | None = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> IntervalTreeZ:
    arr = box_arrays(rects)
    require_form(arr, "6-sided stabbing", finite=SIDES)
    f_eff = f if f is not None else params.Z
    if f_eff < 2:
        raise ValidationError(f"fan-out f={f_eff} must be at least 2")
    n = len(rects)
    if n == 0:
        return IntervalTreeZ(None, 0, f_eff, int64_array([]))
    zvals, (la, lb) = rank_axis((arr["z1"], arr["z2"]))
    root = _build_it(arr, la, lb, 0, len(zvals), f_eff, params)
    return IntervalTreeZ(root, n, f_eff, int64_array(zvals))


def _build_it(arr, la, lb, lo, hi, f, params):
    node = ITNode()
    node.lo = lo
    node.hi = hi
    if hi - lo <= 1:
        node.leaf_items = Leaf(*(arr[k] for k in SIDES), arr["orig"])
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

    # M(v): the rows spanning a middle child, over their fully covered
    # child range [k+1, l-1] in the child-index universe
    hidx = np.nonzero(here)[0]
    mid = hidx[cl[hidx] - ck[hidx] > 1]
    node.M = None
    if len(mid):
        m_items = {
            "x1": arr["x1"][mid], "x2": arr["x2"][mid],
            "y1": arr["y1"][mid], "y2": arr["y2"][mid],
            "zi": ck[mid] + 1, "zj": cl[mid] - 1,
            "orig": arr["orig"][mid],
        }
        node.M = _zr6_grid(m_items, -(-(hi - lo) // size), params)

    # R(child of z1): 5-sided upward copies, z >= z1 negated to canonical;
    # L(child of z2): downward copies
    xy = {k: arr[k][hidx] for k in ("x1", "x2", "y1", "y2")}
    up = {**xy, "z2": -arr["z1"][hidx], "orig": arr["orig"][hidx]}
    down = {**xy, "z2": arr["z2"][hidx], "orig": arr["orig"][hidx]}
    node.R = {c: Stab5Tree(_subset(up, rows), params) for c, rows in _groups(ck[hidx])}
    node.L = {c: Stab5Tree(_subset(down, rows), params) for c, rows in _groups(cl[hidx])}

    node.children = {}
    rest = np.nonzero(~here)[0]
    for c, rows in _groups(ck[rest]):
        sel = rest[rows]
        clo = lo + c * size
        node.children[c] = _build_it(
            _subset(arr, sel), la[sel], lb[sel], clo, min(clo + size, hi), f, params
        )
    return node


def query_stab6(
    it: IntervalTreeZ, q, counters: Counters | None = None, trace: list | None = None
) -> list[int]:
    out: list[int] = []
    q = qx, qy, qz = tuple(map(query_coord, q))
    if it.root is None:
        return out
    li = floor_rank(it.zvals, qz, counters)
    if li < 0:
        return out  # below every z endpoint: nothing can contain qz
    node = it.root
    while node is not None:
        if counters is not None:
            counters.visit_node()
        if trace is not None:
            trace.append(TraceEvent("stab6", node, "visit", None, (qx, qy, qz)))
        if node.leaf_items is not None:
            out.extend(node.leaf_items.query(q, counters))
            break
        c = int((li - node.lo) // node.child_size)
        if node.M is not None:
            _query_node(node.M, (qx, qy, c), counters, trace, out)
        for trees, side in ((node.R, -1), (node.L, 1)):
            s5 = trees.get(c)
            if s5 is not None:
                _query_node(s5.root, (qx, qy, side * qz), counters, trace, out)
        node = node.children.get(c)
    return charge_output(out, counters)
