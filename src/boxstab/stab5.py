"""5-sided 3-d rectangle stabbing via the grid recursion tree, and that
tree's build and query walk, which the z-restricted 6-sided (stab6.py) and
top-k (topk.py) stabbing trees share.

Canonical input: [x1,x2] x [y1,y2] x (-inf, z2].  Each grid node
rank-reduces its arriving pieces, imposes a grid whose lines sit at endpoint
quantiles, and breaks every piece against it:

* a piece crossing no line in one direction is forwarded whole to its column
  (preferred) or row child;
* a piece crossing lines both ways splits into a grid rectangle (stored
  here), side pieces that are 4-sided within their column/row (forwarded),
  and - when a side of the piece is already unbounded - 3-sided remainders
  stored here in per-slab dominance structures, one per sign pair.

A sign per axis is the one encoding of a side: a 3-sided piece's finite
side is stored times -1 where its x extent is [x1, +inf), as -x1, and
times 1 where it is (-inf, x2], as x2, the same in y, and a query meets it
multiplied by the same signs (stored beside each slab structure, and
yielded by the search paths of the slow structures), so every per-slab
structure answers dominance (stored >= query) on both axes.

Per direction the pieces form one table: the whole pieces that fit one
column (row), then the low and the high side pieces, each row with a
destination slab and a forward flag.  One grouping step (``geom._groups``,
which pl3d and stab6 use too) sends the forwarded rows to their child by
destination, and another gathers the rest by (destination, sign pair) into
the slab pieces.

Stored grid rectangles feed per-cell Top(c) lists (the entries with the
largest z upper bound) and one slow structure; a query scans Top(c) until an
entry misses and falls back to the slow structure when it exhausts a
full-length list.  Every slow structure (here, in stab6.py and in topk.py)
is one centered interval tree, ``centered_tree``: nested over x then y in
SlowStab5 and topk (``xy_tree``, Lemma 3.1), over z with two halves per
node in stab6 (``halves_tree``, Lemma F.3).  Queries recurse into the
column child and the row child of the query point.  A GridKind supplies
what differs between the trees: the coordinates each node ranks, the leaf,
the per-slab structure, the order and cap of the cell lists, the slow
structure, and what a visited node adds to the answer.

Every grid node uses a doubled rank space: the i-th distinct coordinate
becomes 2i and a query strictly between two coordinates becomes the odd
value in between, so closed-interval tests and "one below a grid line"
boundaries stay exact for arbitrary integer queries.  A leaf's closed
interval tests hold in any order-preserving coordinates, so it keeps those
its items arrive in (the parent's ranks, the caller's at a root), yet is
charged six words of its own doubled rank space per item, as in the analysis.

The walk reads flat stdlib arrays only: a node's rank axes, grid lines,
cell lists (one table per node, ``GridNode``) and grid items are
``array('q')``s, and every search on the query path is a ``bisect``.

Besides the tau threshold, a node becomes a leaf when
m <= 1.5625*log2(m)^4: there the grid formula yields g < 3 and the quantile
bound ceil(2m/g) stops shrinking, so bottoming out is what keeps the
visited-node and depth budgets of the query recurrence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import neg

import numpy as np

from .counters import Counters, TraceEvent, bit_width, charge_output
from .domcut import Dominance3
from .geom import Box3, Leaf, ModelParams, DEFAULT_PARAMS, ValidationError, box_arrays, query_coord, rank_axis
from .geom import _groups, require_form
from .range2d import NEG, POS, int64_array


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
    return m <= 1.5625 * math.log2(m) ** 4


def top_list_cap(m: int) -> int:
    return max(1, math.ceil(math.log2(max(2, m)) ** 3))


# ---------------------------------------------------------------------------
# item arrays


def _subset(it: dict, idx) -> dict:
    return {k: v[idx] for k, v in it.items()}


def _concat(parts: list[dict]) -> dict:
    keys = parts[0].keys()
    return {k: np.concatenate([p[k] for p in parts]) for k in keys}


def locate_coord(ax, v: int, counters: Counters | None = None) -> int:
    """Doubled-rank coordinate of v in the ``array('q')`` axis ``ax``: 2i on
    an exact hit of the i-th distinct value, the odd gap coordinate
    otherwise (-1 below all)."""
    if counters is not None:
        counters.charge_search(len(ax))
    j = bisect_right(ax, v)
    return 2 * j - 2 if j and ax[j - 1] == v else 2 * j - 1


def _rank_reduce(it: dict, axis_keys):
    """Items in doubled rank space, and each axis's distinct raw values as
    an ``array('q')``; ``axis_keys`` groups the fields ranked together, one
    group per axis."""
    out = dict(it)
    axes = []
    for keys in axis_keys:
        ax, cols = rank_axis([it[k] for k in keys], step=2)
        out.update(zip(keys, cols))
        axes.append(int64_array(ax))
    return out, tuple(axes)


# ---------------------------------------------------------------------------
# the slow structures: one centered interval tree.  Nested over x then y it
# is Lemma 3.1's (SlowStab5, topk's _TopKSlow); over z with two one-sided
# halves per node it is Lemma F.3's (stab6's ZR4Slow and _ZR6Slow).


def centered_tree(it: dict, lo_key: str, hi_key: str, lo: int, hi: int, payload):
    """Node (center, payload(items) or None, left, right) over the items
    ``it`` with ranges [it[lo_key], it[hi_key]] and centers in [lo, hi): a
    node keeps the items containing its center and sends those wholly left
    (right) of it to the left (right) child; None if ``it`` is empty."""
    if not len(it["orig"]):
        return None
    center = (lo + hi) // 2
    cross = (it[lo_key] <= center) & (it[hi_key] >= center)
    here = payload(_subset(it, cross)) if cross.any() else None
    left = right = None
    if hi - lo > 1:
        left = centered_tree(_subset(it, it[hi_key] < center), lo_key, hi_key, lo, center, payload)
        right = centered_tree(_subset(it, it[lo_key] > center), lo_key, hi_key, center + 1, hi, payload)
    return (center, here, left, right)


def centered_path(node, q):
    """(payload, side) of every payload on q's search path, side -1 where
    q <= center and 1 past it."""
    while node is not None:
        center, here, left, right = node
        side = -1 if q <= center else 1
        if here is not None:
            yield here, side
        node = left if side < 0 else right


def xy_tree(it: dict, ux: int, uy: int, dom):
    """Lemma 3.1 nesting: an x tree whose payload is a y tree whose payload
    maps each sign pair (sx, sy) to ``dom(xs, ys, here)``, the bounds in
    dominance form.  A query at or left of an x center meets x2 >= center,
    so only x1 <= qx is left to test: sign -1 with xs = -x1; past the
    center, sign 1 with xs = x2; likewise in y.  The signs are those of the
    grid's slab pieces."""

    def doms(here):
        xs = ((-1, -here["x1"]), (1, here["x2"]))
        ys = ((-1, -here["y1"]), (1, here["y2"]))
        return {(sx, sy): dom(bx, by, here) for sx, bx in xs for sy, by in ys}

    return centered_tree(it, "x1", "x2", 0, ux, lambda xs: centered_tree(xs, "y1", "y2", 0, uy, doms))


def xy_path(root, qx, qy):
    """(structure, (x, y)) of every dominance structure on the search path
    of (qx, qy), x node by x node, with the query in that structure's
    dominance form."""
    for ytree, sx in centered_path(root, qx):
        for doms, sy in centered_path(ytree, qy):
            yield doms[sx, sy], (sx * qx, sy * qy)


def halves_tree(it: dict, lo_key: str, hi_key: str, f: int, half):
    """Lemma F.3's tree: a centered tree over [0, f) whose payload maps side
    -1 to ``half(here, -here[lo_key])`` and side 1 to ``half(here,
    here[hi_key])``, the one-sided halves of the items crossing a center."""

    def halves(here):
        return {-1: half(here, -here[lo_key]), 1: half(here, here[hi_key])}

    return centered_tree(it, lo_key, hi_key, 0, f, halves)


def halves_path(root, qz):
    """(half, side * qz) of every half on qz's search path."""
    for halves, side in centered_path(root, qz):
        yield halves[side], side * qz


class SlowStab5:
    """Exact 5-sided stabbing in O(log^2) dominance queries plus output."""

    def __init__(self, it: dict, ux: int, uy: int, uz: int):
        self.n = len(it["orig"])
        self.bits_stored = self.n * (6 * bit_width(max(ux, uy, uz) + 1))

        def dom(xs, ys, here):
            # sentinel bounds stay in: -NEG on a negated axis and POS on a
            # plain axis both compare as always-satisfied
            return Dominance3(xs, ys, here["z2"], here["orig"])

        self.root = xy_tree(it, max(2, 2 * ux), max(2, 2 * uy), dom)

    def query(self, q, counters: Counters | None = None, out=None):
        if out is None:
            out = []
        for d, sq in xy_path(self.root, q[0], q[1]):
            out.extend(d.query((*sq, q[2]), counters))
        return out


# ---------------------------------------------------------------------------
# the grid recursion, shared by the 5-sided, z-restricted 6-sided and top-k
# stabbing trees


class GridNode:
    """One node of a grid tree.  A grid node keeps its rank ``axes`` and
    grid lines as ``array('q')``, its slab structures per column (row) as a
    list indexed by slab of ``(structure, sx, sy)`` triples, the signs that
    put a query in the structure's dominance form, and its grid items as
    ``array('q')`` columns in cell order.  Its cell lists are one flat
    table: the list of cell number c is entries ``cell_start[c]`` to
    ``cell_start[c + 1]`` of ``cell_items``, grid-item indices, ascending,
    and of ``cell_ids``, those items' ids."""

    __slots__ = (
        "m", "kind", "axes", "leaf", "lines_x", "lines_y", "cell_start",
        "cell_items", "cell_ids", "span", "cap", "slow", "col_slabs",
        "row_slabs", "col_children", "row_children", "grid_items",
    )

    @property
    def leaf_items(self):
        """The node's ``geom.Leaf``, or None at a grid node (same as
        ``leaf``)."""
        return self.leaf


class GridKind:
    """What one grid tree adds to the shared recursion.

    ``axis_keys`` groups the item fields a grid node rank-reduces, one
    group per axis; the query coordinates past those axes stay raw.
    ``leaf(it)`` builds a leaf's ``geom.Leaf`` and ``leaf_query(leaf, q,
    counters, out)`` adds its hits to ``out`` (by default, the ids
    ``leaf.query`` returns); both see the coordinates as they arrived at
    the leaf.  ``slab(pieces)`` builds the structure of one slab's 3-sided
    pieces of one sign pair from their rows of the piece table, as field
    arrays: ``xb``/``yb``, the x and y bound in dominance form, then the
    items' other fields by name.  ``slab_query(s, sq, counters, out)`` adds
    its matches of ``sq``, the query with its x and y in the same form.
    The grid items are stored in ``cell_order(gi)``, and a cell keeps the
    first ``cell_cap(m)`` of those covering it; it is keyed by (column,
    row), and by one value in the ``cell_span`` field range when the kind
    has one, matched by the first raw query coordinate.
    ``cell_query(node, cell, lo, hi, lq, counters, trace, out)`` adds the
    matches of the cell keyed ``cell``, entries ``lo:hi`` of the node's cell
    table, and falls back to ``node.slow``, built by ``slow(gi, axes)``.
    ``bits(node)`` is the payload a node is charged.

    By default the cells hold Top(c) lists: z2 descending, then id, cut at
    log^3 m; and a node is charged its slab structures only.
    """

    axis_keys = (("x1", "x2"), ("y1", "y2"))
    cell_span = None

    def cell_order(self, gi):
        return np.lexsort((gi["orig"], -gi["z2"]))

    def leaf_query(self, leaf, q, counters, out):
        out.extend(leaf.query(q, counters))

    def cell_cap(self, m: int) -> int:
        return top_list_cap(m)

    def bits(self, node) -> int:
        if node.leaf is not None:
            return 0
        return sum(s.bits_stored for s in _slab_structs(node))


def _slab_structs(node):
    return (s for slab in (*node.col_slabs, *node.row_slabs) for s, _, _ in slab)


def grid_nodes(root):
    """Every node of a grid tree."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        if node.leaf is None:
            todo.extend((*node.col_children.values(), *node.row_children.values()))


def grid_bits(root) -> int:
    return sum(node.kind.bits(node) for node in grid_nodes(root))


# the cell range of a grid item, used while its cells are listed
_CELL_RANGE = ("cLo", "cHi", "rLo", "rHi")


def build_grid(it: dict, kind: GridKind, params: ModelParams, depth: int = 0) -> GridNode:
    """The grid tree of ``kind`` over the items ``it``."""
    node = GridNode()
    node.kind = kind
    node.m = m = len(it["orig"])
    node.leaf = None
    parts = None
    if not (is_grid_leaf(m, params) or depth > 64):
        rit, axes = _rank_reduce(it, kind.axis_keys)
        g = params.grid_override or grid_side(m)
        lines_x = _quantile_lines(rit["x1"], rit["x2"], g)
        lines_y = _quantile_lines(rit["y1"], rit["y2"], g)
        if len(lines_x) or len(lines_y):
            parts = _classify_break(rit, lines_x, lines_y)
    # a leaf, also after a stagnant break (one forwarding every item whole
    # to one child), keeps its items' coordinates
    if parts is None or parts["stagnant"]:
        node.leaf = kind.leaf(it)
        return node

    node.axes = axes
    node.lines_x = int64_array(lines_x)
    node.lines_y = int64_array(lines_y)
    (col_items, col_stored), (row_items, row_stored) = parts["col"], parts["row"]
    node.col_slabs = _build_slabs(kind, col_stored, len(lines_x) + 1)
    node.row_slabs = _build_slabs(kind, row_stored, len(lines_y) + 1)
    gi = parts["grid"]
    node.cap = kind.cell_cap(m)
    # the slow structure reports ties in the order the break left the items
    node.slow = kind.slow(gi, node.axes) if len(gi["orig"]) else None
    gi = _subset(gi, kind.cell_order(gi))
    node.span, start, items = _cell_table(gi, node.cap, len(lines_x) + 1, len(lines_y) + 1, kind.cell_span)
    node.cell_start, node.cell_items, node.cell_ids = map(int64_array, (start, items, gi["orig"][items]))
    node.grid_items = {k: int64_array(v) for k, v in gi.items() if k not in _CELL_RANGE}
    node.col_children = {k: build_grid(sub, kind, params, depth + 1) for k, sub in col_items.items()}
    node.row_children = {k: build_grid(sub, kind, params, depth + 1) for k, sub in row_items.items()}
    return node


def _quantile_lines(lo: np.ndarray, hi: np.ndarray, g: int) -> np.ndarray:
    """Distinct slab boundaries splitting the finite endpoints (lower bounds
    above NEG, upper bounds below POS) into <= g chunks of <= ceil(len/g)
    values each."""
    e = np.sort(np.concatenate([lo[lo > NEG], hi[hi < POS]]))
    if not len(e):
        return np.empty(0, dtype=np.int64)
    chunk = -(-len(e) // g)
    return np.unique(e[chunk::chunk])


def _cell_table(gi: dict, cap: int, cols: int, rows: int, span_keys):
    """(span, cell_start, cell_items) of the grid items ``gi``, in stored
    order: per cell, the first ``cap`` items covering it, ascending, as
    int64 arrays.  The cell of column c and row r is number ``c * rows +
    r``; a kind that also keys cells by the ``span_keys`` field range
    numbers the cell of value z in it ``(c * rows + r) * span + z``,
    ``span`` being one past the largest value of that range (1 for other
    kinds)."""
    ranges = [("cLo", "cHi", cols), ("rLo", "rHi", rows)]
    span = 1
    if span_keys is not None:
        hi = gi[span_keys[1]]
        span = int(hi.max()) + 1 if len(hi) else 0
        ranges.append((*span_keys, span))
    # every (item, cell) pair, items ascending: item i covers the box of
    # cells gi[lo][i] .. gi[hi][i] on each keyed axis
    sizes = [gi[hi] - gi[lo] + 1 for lo, hi, _ in ranges]
    per = np.prod(sizes, axis=0)
    item = np.repeat(np.arange(len(per)), per)
    rest = np.arange(len(item)) - np.repeat(np.cumsum(per) - per, per)
    cell = np.zeros(len(item), dtype=np.int64)
    mult = 1
    for (lo, _, count), size in zip(ranges[::-1], sizes[::-1]):
        width = size[item]
        cell += (gi[lo][item] + rest % width) * mult
        rest //= width
        mult *= count
    order = np.argsort(cell, kind="stable")
    cell, item = cell[order], item[order]
    counts = np.bincount(cell, minlength=mult)
    keep = np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell] < cap
    start = np.zeros(mult + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, cap), out=start[1:])
    return span, start, item[keep]


def _build_slabs(kind: GridKind, stored: dict, count: int) -> list:
    """Per slab 0..count-1, the ``(structure, sx, sy)`` of each sign pair
    of its stored pieces (``_route``)."""
    slabs = [()] * count
    for slab, by_signs in stored.items():
        slabs[slab] = tuple((kind.slab(pieces), sx, sy) for (sx, sy), pieces in by_signs.items())
    return slabs


_XY = ("x1", "x2", "y1", "y2")
# sign pair of a 3-sided piece by code 2*(x1 bounded) + (y1 bounded)
_ORIENT = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _route(*blocks):
    """(children, stored) of one direction's piece table, the concatenated
    ``blocks`` of (fields, dest, forward).  A forwarded row goes to child
    ``dest``; any other row is a 3-sided piece stored in slab ``dest``
    under its sign pair, bounded per axis (``xb``, ``yb``) by its one finite
    side in dominance form (-x1 under sign -1, x2 under sign 1), followed
    by its fields past x and y."""
    t = _concat([fields for fields, _, _ in blocks])
    dest = np.concatenate([d for _, d, _ in blocks])
    fwd = np.concatenate([w for _, _, w in blocks])
    ahead = np.nonzero(fwd)[0]
    children = {d: _subset(t, ahead[rows]) for d, rows in _groups(dest[ahead])}
    kept = np.nonzero(~fwd)[0]
    s = _subset(t, kept)
    xge, yge = s["x1"] > NEG, s["y1"] > NEG
    xb, yb = np.where(xge, -s["x1"], s["x2"]), np.where(yge, -s["y1"], s["y2"])
    payload = {k: v for k, v in s.items() if k not in _XY}
    stored: dict[int, dict] = {}
    for k, rows in _groups(4 * dest[kept] + 2 * xge + yge):
        stored.setdefault(k // 4, {})[_ORIENT[k % 4]] = {
            "xb": xb[rows], "yb": yb[rows], **_subset(payload, rows)
        }
    return children, stored


def _classify_break(it: dict, lines_x, lines_y) -> dict:
    """Stage I-III break of every arriving piece: the grid rectangles kept
    here, and per direction (``col``, ``row``) the children's items and the
    stored slab pieces of one piece table (``_route``): the whole items
    that fit one column (row), then the low and the high side pieces."""
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

    sub = _subset(it, breaks)
    payload = {k: v for k, v in sub.items() if k not in _XY}
    scA, scB, srA, srB = cA[breaks], cB[breaks], rA[breaks], rB[breaks]
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

    NEGa = np.full(len(sub["orig"]), NEG, dtype=np.int64)
    POSa = np.full(len(sub["orig"]), POS, dtype=np.int64)

    def whole(fits, dest):
        return _subset(it, fits), dest[fits], np.ones(np.count_nonzero(fits), dtype=bool)

    def side(has, dest, x1, x2, y1, y2, cross):
        """The side pieces of the breaking items ``has``: forwarded when
        their ``cross`` extent is bounded, else 3-sided."""
        p = {"x1": x1[has], "x2": x2[has], "y1": y1[has], "y2": y2[has], **_subset(payload, has)}
        return p, dest[has], (p[cross + "1"] > NEG) & (p[cross + "2"] < POS)

    g = center_x_ok & center_y_ok
    return {
        # left / right column pieces keep the full y extent; within their
        # column the split edge becomes an unbounded side
        "col": _route(
            whole(fits_col, cA),
            side(x_lo_b, scA, sub["x1"], POSa, sub["y1"], sub["y2"], "y"),
            side(x_hi_b, scB, NEGa, sub["x2"], sub["y1"], sub["y2"], "y"),
        ),
        # bottom / top row pieces live in the center x strip
        "row": _route(
            whole(fits_row, rA),
            side(y_lo_b & center_x_ok, srA, cx1, cx2, sub["y1"], POSa, "x"),
            side(y_hi_b & center_x_ok, srB, cx1, cx2, NEGa, sub["y2"], "x"),
        ),
        "grid": {
            "x1": cx1[g], "x2": cx2[g], "y1": cy1[g], "y2": cy2[g],
            "cLo": cLo[g], "cHi": cHi[g], "rLo": rLo[g], "rHi": rHi[g],
            **_subset(payload, g),
        },
        "stagnant": stagnant,
    }


def _query_node(node: GridNode, q, counters, trace, out):
    """Add the matches of q in the subtree of ``node`` to ``out``.  The
    tuple q holds one coordinate per ranked axis of the node's kind, then
    the raw ones; only a grid node ranks it."""
    if counters is not None:
        counters.visit_node()
    kind = node.kind
    if node.leaf is not None:
        kind.leaf_query(node.leaf, q, counters, out)
        return
    axes = node.axes
    na = len(axes)
    lq = list(q)
    for a in range(na):
        lq[a] = locate_coord(axes[a], lq[a], counters)
    lq = tuple(lq)

    x, y = lq[0], lq[1]
    lines_y = node.lines_y
    col = bisect_right(node.lines_x, x)
    row = bisect_right(lines_y, y)
    if counters is not None:
        counters.charge_search(len(node.lines_x))
        counters.charge_search(len(lines_y))

    rest = lq[2:]
    for slab in (node.col_slabs[col], node.row_slabs[row]):
        for s, sx, sy in slab:
            kind.slab_query(s, (sx * x, sy * y) + rest, counters, out)

    extra = lq[na:]
    cell = col * (len(lines_y) + 1) + row
    if extra:
        z = extra[0]
        cell = cell * node.span + z if 0 <= z < node.span else None
    if cell is not None:
        start = node.cell_start
        lo, hi = start[cell], start[cell + 1]
        if lo < hi:
            kind.cell_query(node, (col, row) + extra, lo, hi, lq, counters, trace, out)

    child = node.col_children.get(col)
    if child is not None:
        _query_node(child, lq, counters, trace, out)
    child = node.row_children.get(row)
    if child is not None:
        _query_node(child, lq, counters, trace, out)


# ---------------------------------------------------------------------------
# the 5-sided tree


_ITEM_KEYS = ("x1", "x2", "y1", "y2", "z2", "orig")


class Stab5Grid(GridKind):
    """Dominance3 per slab sign pair, Top(c) lists of the highest z2 per
    cell, and a SlowStab5 behind full lists; every part is charged."""

    axis_keys = (("x1", "x2"), ("y1", "y2"), ("z2",))

    def leaf(self, it):
        return Leaf(it["x1"], it["x2"], it["y1"], it["y2"], NEG, it["z2"], it["orig"])

    def slab(self, p):
        return Dominance3(p["xb"], p["yb"], p["z2"], p["orig"])

    def slab_query(self, d, sq, counters, out):
        out.extend(d.query(sq, counters))

    def slow(self, gi, axes):
        return SlowStab5({k: gi[k] for k in _ITEM_KEYS}, *map(len, axes))

    def cell_query(self, node, cell, lo, hi, lq, counters, trace, out):
        gi = node.grid_items
        items = node.cell_items
        # the grid items are stored z2 descending, so those with z2 >= qz
        # are a prefix of them, and the cell's hits a prefix of its list
        end = bisect_right(gi["z2"], -lq[2], key=neg)
        reported = bisect_left(items, end, lo, hi) - lo
        if counters is not None:
            counters.scan_cells(min(reported + 1, hi - lo))
        if reported == hi - lo == node.cap:
            if trace is not None:
                trace.append(TraceEvent("stab5", node, "top_fallback", cell, lq))
            node.slow.query(lq, counters, out)
        else:
            out.extend(node.cell_ids[lo : lo + reported])

    def bits(self, node) -> int:
        if node.leaf is not None:
            return _leaf_bits(node.m)
        w = bit_width(2 * node.m + 2)
        dom = sum(d.n for d in _slab_structs(node))
        # words: 4 per dominance point; per grid item 7 (coords plus decode
        # pointer) and a slow-structure pointer; 1 per Top-list entry
        return (4 * dom + 8 * len(node.grid_items["orig"]) + len(node.cell_items)) * w


_STAB5 = Stab5Grid()


def _leaf_bits(m: int) -> int:
    """A 5-sided leaf of m items: six doubled-rank words per item."""
    return m * 6 * bit_width(2 * m + 2)


class Stab5Tree:
    def __init__(self, it: dict, params: ModelParams):
        self.root = build_grid(it, _STAB5, params)
        self.n = len(it["orig"])
        nodes = list(grid_nodes(self.root))
        self.bits_stored = sum(_STAB5.bits(node) for node in nodes)
        self.piece_incidences = sum(node.m for node in nodes)


def build_stab5(rects: list[Box3], params: ModelParams = DEFAULT_PARAMS) -> Stab5Tree:
    """The 5-sided tree over boxes of the canonical form [x1,x2] x [y1,y2] x (-inf,z2]."""
    a = box_arrays(rects)
    require_form(a, "canonical 5-sided stabbing", finite=("x1", "x2", "y1", "y2", "z2"), unbounded=("z1",))
    return Stab5Tree({k: a[k] for k in _ITEM_KEYS}, params)


def query_stab5(tree: Stab5Tree, q, counters: Counters | None = None, trace: list | None = None) -> list[int]:
    # clamped into [NEG, POS], a qz below NEG still passes the NEG z1 side
    # of a root leaf, which is not in rank space
    q = tuple(min(max(query_coord(v), NEG), POS) for v in q)
    out: list[int] = []
    _query_node(tree.root, q, counters, trace, out)
    return charge_output(out, counters)


# ---------------------------------------------------------------------------
# standalone slow / leaf builders (structures in their own right)


class _Standalone:
    def __init__(self, query, bits_stored, axes):
        self._query = query
        self.bits_stored = bits_stored
        self.axes = axes

    def query(self, q, counters: Counters | None = None) -> list[int]:
        lq = tuple(locate_coord(ax, query_coord(v), counters) for ax, v in zip(self.axes, q))
        return charge_output(self._query(lq, counters), counters)


def build_slow5(rects: list[Box3]) -> _Standalone:
    """Any other side may be unbounded: a sentinel bound compares as
    always satisfied in the dominance structures."""
    a = box_arrays(rects)
    require_form(a, "5-sided slow stabbing", unbounded=("z1",))
    rit, axes = _rank_reduce({k: a[k] for k in _ITEM_KEYS}, Stab5Grid.axis_keys)
    inner = SlowStab5(rit, len(axes[0]), len(axes[1]), len(axes[2]))
    return _Standalone(inner.query, inner.bits_stored, axes)


def query_slow5(s: _Standalone, q, counters: Counters | None = None) -> list[int]:
    return s.query(q, counters)


def build_leaf5(rects: list[Box3], params: ModelParams = DEFAULT_PARAMS) -> Stab5Tree:
    """The 5-sided tree of at most tau rectangles: its root is a leaf."""
    if len(rects) > params.tau:
        raise ValidationError(f"leaf structure capped at tau={params.tau} rectangles")
    return build_stab5(rects, params)


query_leaf5 = query_stab5
