"""5-sided 3-d rectangle stabbing via the grid recursion tree.

Canonical input: [x1,x2] x [y1,y2] x (-inf, z2].  Each node rank-reduces its
arriving pieces, imposes a grid whose lines sit at endpoint quantiles, and
breaks every piece against it:

* a piece crossing no line in one direction is forwarded whole to its column
  (preferred) or row child;
* a piece crossing lines both ways splits into a grid rectangle (stored
  here), side pieces that are 4-sided within their column/row (forwarded),
  and - when a side of the piece is already unbounded - 3-sided remainders
  stored here in per-slab orientation-keyed dominance structures.

Stored grid rectangles feed per-cell Top(c) lists (the entries with the
largest z upper bound) and one slow structure; a query scans Top(c) until an
entry misses and falls back to the slow structure when it exhausts a
full-length list.  Queries recurse into the column child and the row child
of the query point.

Every node uses a doubled rank space: the i-th distinct coordinate becomes
2i and a query strictly between two coordinates becomes the odd value in
between, so closed-interval tests and "one below a grid line" boundaries
stay exact for
arbitrary integer queries.

Besides the tau threshold, a node becomes a leaf when
m <= 1.5625*log2(m)^4: there the grid formula yields g < 3 and the quantile
bound ceil(2m/g) stops shrinking, so bottoming out is what keeps the
visited-node and depth budgets of the query recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import Counters, bit_width, charge_output
from .domcut import Dominance3
from .geom import Box3, ModelParams, DEFAULT_PARAMS, ValidationError
from .range2d import NEG, POS


def grid_side(m: int) -> int:
    """Grid side g = max(2, round(2*sqrt(m / max(1, log2^4 m))))."""
    if m <= 1:
        return 2
    lm = math.log2(m)
    return max(2, round(2.0 * math.sqrt(m / max(1.0, lm**4))))


def is_grid_leaf(m: int, params: ModelParams) -> bool:
    if m <= params.tau:
        return True
    if params.grid_override is not None:
        return False
    if params.plateau_leaf and m <= 1.5625 * math.log2(m) ** 4:
        return True
    return False


def top_list_cap(m: int) -> int:
    return max(1, math.ceil(math.log2(max(2, m)) ** 3))


# ---------------------------------------------------------------------------
# item arrays


def _boxes_to_items(rects: list[Box3], require_canonical: bool = True) -> dict:
    n = len(rects)
    it = {
        "x1": np.empty(n, dtype=np.int64),
        "x2": np.empty(n, dtype=np.int64),
        "y1": np.empty(n, dtype=np.int64),
        "y2": np.empty(n, dtype=np.int64),
        "z2": np.empty(n, dtype=np.int64),
        "orig": np.empty(n, dtype=np.int64),
    }
    for i, r in enumerate(rects):
        if require_canonical:
            if r.x[0] is None or r.x[1] is None or r.y[0] is None or r.y[1] is None:
                raise ValidationError("canonical 5-sided rectangle needs finite x and y")
            if r.z[0] is not None or r.z[1] is None:
                raise ValidationError("canonical 5-sided rectangle is (-inf, z2] in z")
        it["x1"][i] = NEG if r.x[0] is None else r.x[0]
        it["x2"][i] = POS if r.x[1] is None else r.x[1]
        it["y1"][i] = NEG if r.y[0] is None else r.y[0]
        it["y2"][i] = POS if r.y[1] is None else r.y[1]
        it["z2"][i] = POS if r.z[1] is None else r.z[1]
        it["orig"][i] = r.id
    return it


def _subset(it: dict, idx) -> dict:
    return {k: v[idx] for k, v in it.items()}


def _concat(parts: list[dict]) -> dict:
    keys = parts[0].keys()
    return {k: np.concatenate([p[k] for p in parts]) for k in keys}


def _rank_axis(values: list[np.ndarray]) -> np.ndarray:
    finite = np.concatenate([v[(v > NEG) & (v < POS)] for v in values])
    return np.unique(finite)


def _to_even_rank(ax: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = v.copy()
    mask = (v > NEG) & (v < POS)
    out[mask] = 2 * np.searchsorted(ax, v[mask])
    return out


def locate_coord(ax: np.ndarray, v: int, counters: Counters | None = None) -> int:
    """Doubled-rank coordinate of v in this axis: 2i on an exact hit of the
    i-th distinct value, the odd gap coordinate otherwise (-1 below all)."""
    if counters is not None:
        counters.charge_search(len(ax))
    i = int(np.searchsorted(ax, v, side="right")) - 1
    if i >= 0 and ax[i] == v:
        return 2 * i
    return 2 * i + 1


def _rank_reduce_node(it: dict):
    xs = _rank_axis([it["x1"], it["x2"]])
    ys = _rank_axis([it["y1"], it["y2"]])
    zs = _rank_axis([it["z2"]])
    out = dict(it)
    out["x1"] = _to_even_rank(xs, it["x1"])
    out["x2"] = _to_even_rank(xs, it["x2"])
    out["y1"] = _to_even_rank(ys, it["y1"])
    out["y2"] = _to_even_rank(ys, it["y2"])
    out["z2"] = _to_even_rank(zs, it["z2"])
    return out, (xs, ys, zs)


# ---------------------------------------------------------------------------
# the slow structure (Lemma 3.1 shape): interval tree over x, nested interval
# tree over y, orientation-keyed dominance at each (x-node, y-node) pair


class _YNode:
    __slots__ = ("center", "left", "right", "dom")

    def __init__(self, center):
        self.center = center
        self.left = None
        self.right = None
        self.dom = {}  # (qx_side, qy_side) in {'L','R'}^2 -> Dominance3


class _XNode:
    __slots__ = ("center", "left", "right", "ytree")

    def __init__(self, center):
        self.center = center
        self.left = None
        self.right = None
        self.ytree = None


class SlowStab5:
    """Exact 5-sided stabbing in O(log^2) dominance queries plus output."""

    def __init__(self, it: dict, ux: int, uy: int, uz: int):
        self.n = len(it["orig"])
        self.ux, self.uy, self.uz = max(2, 2 * ux), max(2, 2 * uy), max(2, 2 * uz)
        self.bits_stored = self.n * (6 * bit_width(max(ux, uy, uz) + 1))
        self.root = None
        if self.n:
            self.root = self._build_x(it, 0, self.ux)

    def _build_x(self, it, lo, hi):
        if not len(it["orig"]):
            return None
        center = (lo + hi) // 2
        node = _XNode(center)
        cross = (it["x1"] <= center) & (it["x2"] >= center)
        here = _subset(it, cross)
        if len(here["orig"]):
            node.ytree = self._build_y(here, 0, self.uy)
        if hi - lo > 1:
            node.left = self._build_x(_subset(it, it["x2"] < center), lo, center)
            node.right = self._build_x(_subset(it, it["x1"] > center), center + 1, hi)
        return node

    def _build_y(self, it, lo, hi):
        if not len(it["orig"]):
            return None
        center = (lo + hi) // 2
        node = _YNode(center)
        cross = (it["y1"] <= center) & (it["y2"] >= center)
        here = _subset(it, cross)
        if len(here["orig"]):
            # sentinel bounds stay in: NEG on a reflected axis and POS on a
            # plain axis both compare as always-satisfied
            U = (self.ux, self.uy, self.uz)
            for qx_side in "LR":
                xs = here["x1"] if qx_side == "L" else here["x2"]
                for qy_side in "LR":
                    ys = here["y1"] if qy_side == "L" else here["y2"]
                    pts = np.stack([xs, ys, here["z2"]], axis=1)
                    node.dom[(qx_side, qy_side)] = Dominance3(
                        pts,
                        ids=here["orig"],
                        reflect=(qx_side == "L", qy_side == "L", False),
                        universes=U,
                    )
        if hi - lo > 1:
            node.left = self._build_y(_subset(it, it["y2"] < center), lo, center)
            node.right = self._build_y(_subset(it, it["y1"] > center), center + 1, hi)
        return node

    def query(self, q, counters: Counters | None = None, out=None):
        if out is None:
            out = []
        qx, qy, qz = q
        node = self.root
        while node is not None:
            if node.ytree is not None:
                self._query_y(node, qx, qy, qz, counters, out)
            node = node.left if qx <= node.center else node.right
        return out

    def _query_y(self, xnode, qx, qy, qz, counters, out):
        qx_side = "L" if qx <= xnode.center else "R"
        node = xnode.ytree
        while node is not None:
            qy_side = "L" if qy <= node.center else "R"
            d = node.dom.get((qx_side, qy_side))
            if d is not None:
                out.extend(d.query((qx, qy, qz), counters))
            node = node.left if qy <= node.center else node.right


class LeafStab5:
    """Flat rank-reduced array, scanned linearly."""

    def __init__(self, it: dict, axes):
        self.it = it
        self.axes = axes  # (xs, ys, zs) distinct raw coordinates of this leaf
        n = len(it["orig"])
        w = bit_width(2 * n + 2)
        self.n = n
        self.bits_stored = n * 6 * w

    def query(self, q, counters: Counters | None = None, out=None):
        if out is None:
            out = []
        it = self.it
        if not self.n:
            return out
        if counters is not None:
            counters.scan_cells(self.n)
        qx, qy, qz = q
        m = (
            (it["x1"] <= qx) & (it["x2"] >= qx)
            & (it["y1"] <= qy) & (it["y2"] >= qy)
            & (it["z2"] >= qz)
        )
        out.extend(it["orig"][np.nonzero(m)[0]].tolist())
        return out


# ---------------------------------------------------------------------------
# grid node


class GridNode:
    __slots__ = (
        "m", "axes", "leaf", "lines_x", "lines_y", "ncols", "nrows",
        "top", "top_cap", "slow", "col_dom", "row_dom",
        "col_children", "row_children", "grid_items", "depth",
    )


class Stab5Tree:
    def __init__(self, root, n, bits, incidences):
        self.root = root
        self.n = n
        self.bits_stored = bits
        self.piece_incidences = incidences


def build_stab5(rects: list[Box3], params: ModelParams = DEFAULT_PARAMS) -> Stab5Tree:
    it = _boxes_to_items(rects)
    stats = {"bits": 0, "inc": 0}
    root = _build_node(it, params, stats, 0)
    return Stab5Tree(root, len(rects), stats["bits"], stats["inc"])


def _quantile_lines(endpoints: np.ndarray, g: int) -> np.ndarray:
    """Distinct slab boundaries splitting the endpoint multiset into <= g
    chunks of <= ceil(len/g) values each."""
    e = np.sort(endpoints)
    if not len(e):
        return np.empty(0, dtype=np.int64)
    chunk = -(-len(e) // g)
    return np.unique(e[chunk::chunk])


def _build_node(it: dict, params: ModelParams, stats: dict, depth: int):
    m = len(it["orig"])
    stats["inc"] += m
    node = GridNode()
    node.m = m
    node.depth = depth
    rit, axes = _rank_reduce_node(it)
    node.axes = axes
    w = bit_width(2 * m + 2)

    leafy = is_grid_leaf(m, params) or depth > 64
    lines_x = lines_y = None
    if not leafy:
        g = params.grid_override or grid_side(m)
        fx = np.concatenate([rit["x1"][rit["x1"] > NEG], rit["x2"][rit["x2"] < POS]])
        fy = np.concatenate([rit["y1"][rit["y1"] > NEG], rit["y2"][rit["y2"] < POS]])
        lines_x = _quantile_lines(fx, g)
        lines_y = _quantile_lines(fy, g)
        if not len(lines_x) and not len(lines_y):
            leafy = True

    parts = None
    if not leafy:
        parts = _classify_break(rit, lines_x, lines_y)
        if parts["stagnant"]:
            leafy = True  # every item fits one slab whole: no split possible

    if leafy:
        node.leaf = LeafStab5(rit, axes)
        stats["bits"] += node.leaf.bits_stored
        return node
    node.leaf = None

    node.lines_x = lines_x
    node.lines_y = lines_y
    node.ncols = len(lines_x) + 1
    node.nrows = len(lines_y) + 1
    node.top_cap = top_list_cap(m)

    ux, uy, uz = (len(axes[0]), len(axes[1]), len(axes[2]))
    U = (max(2, 2 * ux), max(2, 2 * uy), max(2, 2 * uz))
    node.col_dom = _build_dom_slabs(parts["col_stored3"], U, stats, w)
    node.row_dom = _build_dom_slabs(parts["row_stored3"], U, stats, w)

    gi = parts["grid"]
    node.grid_items = gi
    ngrid = len(gi["orig"])
    stats["bits"] += ngrid * 7 * w  # coords plus decode pointer
    node.top = {}
    if ngrid:
        order = np.lexsort((gi["orig"], -gi["z2"]))
        for cell_key, members in _cells_of(gi, order).items():
            lst = members[: node.top_cap]
            node.top[cell_key] = (gi["z2"][lst], gi["orig"][lst])
            stats["bits"] += len(lst) * w
        node.slow = SlowStab5(
            {k: gi[k] for k in ("x1", "x2", "y1", "y2", "z2", "orig")}, ux, uy, uz
        )
        stats["bits"] += ngrid * w  # slow-structure pointers
    else:
        node.slow = None

    node.col_children = {
        k: _build_node(sub, params, stats, depth + 1)
        for k, sub in parts["col_children"].items()
    }
    node.row_children = {
        k: _build_node(sub, params, stats, depth + 1)
        for k, sub in parts["row_children"].items()
    }
    return node


def _cells_of(gi: dict, order) -> dict:
    """cell (col, row) -> grid-item indices in the caller's order."""
    cells: dict[tuple[int, int], list[int]] = {}
    cl, ch = gi["cLo"], gi["cHi"]
    rl, rh = gi["rLo"], gi["rHi"]
    for i in order.tolist():
        for c in range(int(cl[i]), int(ch[i]) + 1):
            for r in range(int(rl[i]), int(rh[i]) + 1):
                cells.setdefault((c, r), []).append(i)
    return {k: np.asarray(v, dtype=np.int64) for k, v in cells.items()}


def _build_dom_slabs(stored: dict, U, stats, w):
    """stored: slab -> (xside, yside) -> list of (xb, yb, z2, orig)."""
    out = {}
    for slab, by_orient in stored.items():
        slab_structs = {}
        for key, rows in by_orient.items():
            arr = np.asarray(rows, dtype=np.int64)
            stats["bits"] += len(arr) * 4 * w
            slab_structs[key] = Dominance3(
                arr[:, 0:3],
                ids=arr[:, 3],
                reflect=(key[0] == "ge", key[1] == "ge", False),
                universes=U,
            )
        out[slab] = slab_structs
    return out


def _classify_break(it: dict, lines_x, lines_y) -> dict:
    """Stage I-III classification of every arriving piece (vectorized)."""
    cA = np.searchsorted(lines_x, it["x1"], side="right")
    cB = np.searchsorted(lines_x, it["x2"], side="right")
    rA = np.searchsorted(lines_y, it["y1"], side="right")
    rB = np.searchsorted(lines_y, it["y2"], side="right")

    fits_col = cA == cB
    fits_row = (~fits_col) & (rA == rB)
    breaks = ~(fits_col | fits_row)

    # degenerate ties: all items forwarded whole to one child reproduce the
    # same subproblem forever
    stagnant = bool(
        (fits_col.all() and len(np.unique(cA)) == 1)
        or (fits_row.all() and len(np.unique(rA)) == 1)
    )

    col_children: dict[int, list] = {}
    row_children: dict[int, list] = {}

    def _add_child(children, dest, sub):
        children.setdefault(dest, []).append(sub)

    idx = np.nonzero(fits_col)[0]
    if len(idx):
        dests = cA[idx]
        for d in np.unique(dests).tolist():
            _add_child(col_children, int(d), _subset(it, idx[dests == d]))
    idx = np.nonzero(fits_row)[0]
    if len(idx):
        dests = rA[idx]
        for d in np.unique(dests).tolist():
            _add_child(row_children, int(d), _subset(it, idx[dests == d]))

    grid_parts = []
    col_stored3: dict[int, dict] = {}
    row_stored3: dict[int, dict] = {}

    bidx = np.nonzero(breaks)[0]
    if len(bidx):
        sub = _subset(it, bidx)
        scA, scB, srA, srB = cA[bidx], cB[bidx], rA[bidx], rB[bidx]
        x_lo_b = sub["x1"] > NEG
        x_hi_b = sub["x2"] < POS
        y_lo_b = sub["y1"] > NEG
        y_hi_b = sub["y2"] < POS

        # center strips in doubled-rank value space
        cLo = np.where(x_lo_b, scA + 1, 0)
        cHi = np.where(x_hi_b, scB - 1, len(lines_x))
        rLo = np.where(y_lo_b, srA + 1, 0)
        rHi = np.where(y_hi_b, srB - 1, len(lines_y))
        nx = len(lines_x)
        ny = len(lines_y)
        cx1 = np.where(cLo >= 1, lines_x[np.minimum(np.maximum(cLo, 1), nx) - 1], NEG)
        cx2 = np.where(cHi <= nx - 1, lines_x[np.minimum(np.maximum(cHi, 0), nx - 1)] - 1, POS)
        cy1 = np.where(rLo >= 1, lines_y[np.minimum(np.maximum(rLo, 1), ny) - 1], NEG)
        cy2 = np.where(rHi <= ny - 1, lines_y[np.minimum(np.maximum(rHi, 0), ny - 1)] - 1, POS)
        center_x_ok = cLo <= cHi
        center_y_ok = rLo <= rHi

        nsub = len(sub["orig"])
        NEGa = np.full(nsub, NEG, dtype=np.int64)
        POSa = np.full(nsub, POS, dtype=np.int64)

        def _emit_side_pieces(has, dest, px1, px2, py1, py2, children, stored3, cross_is_x):
            """Forward 4-sided side pieces per slab; pieces whose cross
            extent is half-unbounded are 3-sided and stored here."""
            idx = np.nonzero(has)[0]
            if not len(idx):
                return
            if cross_is_x:
                four = (px1[idx] > NEG) & (px2[idx] < POS)
            else:
                four = (py1[idx] > NEG) & (py2[idx] < POS)
            fidx = idx[four]
            if len(fidx):
                piece = {
                    "x1": px1[fidx], "x2": px2[fidx],
                    "y1": py1[fidx], "y2": py2[fidx],
                }
                for key in it:
                    if key not in ("x1", "x2", "y1", "y2"):
                        piece[key] = sub[key][fidx]
                dests = dest[fidx]
                for d in np.unique(dests).tolist():
                    _add_child(children, int(d), _subset(piece, dests == d))
            payload_keys = [k for k in it if k not in ("x1", "x2", "y1", "y2")]
            for i in idx[~four].tolist():
                xs_key = "ge" if px1[i] > NEG else "le"
                xb = px1[i] if xs_key == "ge" else px2[i]
                ys_key = "ge" if py1[i] > NEG else "le"
                yb = py1[i] if ys_key == "ge" else py2[i]
                stored3.setdefault(int(dest[i]), {}).setdefault((xs_key, ys_key), []).append(
                    (int(xb), int(yb)) + tuple(int(sub[k][i]) for k in payload_keys)
                )

        # left / right column pieces keep the full y extent; within their
        # column the split edge becomes an unbounded side
        _emit_side_pieces(x_lo_b, scA, sub["x1"], POSa, sub["y1"], sub["y2"],
                          col_children, col_stored3, cross_is_x=False)
        _emit_side_pieces(x_hi_b, scB, NEGa, sub["x2"], sub["y1"], sub["y2"],
                          col_children, col_stored3, cross_is_x=False)
        # bottom / top row pieces live in the center x strip
        _emit_side_pieces(y_lo_b & center_x_ok, srA, cx1, cx2, sub["y1"], POSa,
                          row_children, row_stored3, cross_is_x=True)
        _emit_side_pieces(y_hi_b & center_x_ok, srB, cx1, cx2, NEGa, sub["y2"],
                          row_children, row_stored3, cross_is_x=True)

        gtake = np.nonzero(center_x_ok & center_y_ok)[0]
        if len(gtake):
            part = {
                "x1": cx1[gtake], "x2": cx2[gtake],
                "y1": cy1[gtake], "y2": cy2[gtake],
                "cLo": cLo[gtake], "cHi": cHi[gtake],
                "rLo": rLo[gtake], "rHi": rHi[gtake],
            }
            for key in it:
                if key not in ("x1", "x2", "y1", "y2"):
                    part[key] = sub[key][gtake]
            grid_parts.append(part)

    if grid_parts:
        grid = _concat(grid_parts)
    else:
        keys = list(it.keys()) + ["cLo", "cHi", "rLo", "rHi"]
        grid = {k: np.empty(0, dtype=np.int64) for k in keys}
    return {
        "col_children": {k: _concat(v) for k, v in col_children.items()},
        "row_children": {k: _concat(v) for k, v in row_children.items()},
        "grid": grid,
        "col_stored3": col_stored3,
        "row_stored3": row_stored3,
        "stagnant": stagnant,
    }


# ---------------------------------------------------------------------------
# queries


def query_stab5(tree: Stab5Tree, q, counters: Counters | None = None, trace: list | None = None) -> list[int]:
    out: list[int] = []
    _query_node(tree.root, tuple(q), counters, trace, out)
    return charge_output(out, counters)


def _query_node(node: GridNode, q, counters, trace, out):
    if counters is not None:
        counters.visit_node()
    xs, ys, zs = node.axes
    lq = (
        locate_coord(xs, q[0], counters),
        locate_coord(ys, q[1], counters),
        locate_coord(zs, q[2], counters),
    )
    if node.leaf is not None:
        node.leaf.query(lq, counters, out)
        return

    col = int(np.searchsorted(node.lines_x, lq[0], side="right"))
    row = int(np.searchsorted(node.lines_y, lq[1], side="right"))
    if counters is not None:
        counters.charge_search(len(node.lines_x))
        counters.charge_search(len(node.lines_y))

    for dom_map, slab in ((node.col_dom, col), (node.row_dom, row)):
        structs = dom_map.get(slab)
        if structs:
            for d in structs.values():
                out.extend(d.query(lq, counters))

    top = node.top.get((col, row))
    if top is not None:
        z2s, origs = top
        reported = 0
        while reported < len(z2s) and z2s[reported] >= lq[2]:
            reported += 1
        if counters is not None:
            counters.scan_cells(min(reported + 1, len(z2s)))
        if reported == len(z2s) and len(z2s) == node.top_cap:
            if trace is not None:
                trace.append(("top_fallback", node, (col, row), lq))
            node.slow.query(lq, counters, out)
        else:
            out.extend(origs[:reported].tolist())

    child = node.col_children.get(col)
    if child is not None:
        _query_node(child, lq, counters, trace, out)
    child = node.row_children.get(row)
    if child is not None:
        _query_node(child, lq, counters, trace, out)


# ---------------------------------------------------------------------------
# standalone slow / leaf builders (structures in their own right)


class _Standalone:
    def __init__(self, inner, axes):
        self.inner = inner
        self.axes = axes
        self.bits_stored = inner.bits_stored

    def query(self, q, counters: Counters | None = None) -> list[int]:
        xs, ys, zs = self.axes
        lq = (
            locate_coord(xs, q[0], counters),
            locate_coord(ys, q[1], counters),
            locate_coord(zs, q[2], counters),
        )
        return charge_output(self.inner.query(lq, counters), counters)


def build_slow5(rects: list[Box3]) -> _Standalone:
    it = _boxes_to_items(rects, require_canonical=False)
    rit, axes = _rank_reduce_node(it)
    inner = SlowStab5(rit, len(axes[0]), len(axes[1]), len(axes[2]))
    return _Standalone(inner, axes)


def query_slow5(s: _Standalone, q, counters: Counters | None = None) -> list[int]:
    return s.query(q, counters)


def build_leaf5(rects: list[Box3], params: ModelParams = DEFAULT_PARAMS) -> _Standalone:
    if len(rects) > params.tau:
        raise ValidationError(f"leaf structure capped at tau={params.tau} rectangles")
    it = _boxes_to_items(rects)
    rit, axes = _rank_reduce_node(it)
    return _Standalone(LeafStab5(rit, axes), axes)


def query_leaf5(l: _Standalone, q, counters: Counters | None = None) -> list[int]:
    return l.query(q, counters)
