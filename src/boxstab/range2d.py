"""2-d building blocks: dominance counting, point location, stabbing counts.

Each structure is built once into flat stdlib ``array.array``s, and a query
walks them with Python ints: every search is a ``bisect`` over an array and
every lookup a plain index, with no numpy call on the query path.

DomCount2 is a static layered structure: points in x-order, y-sorted blocks
doubling per level, with positional bridges between levels, so a count query
costs one initial binary search plus O(1) work per level.  It stores the
sorted xs, the top level's ys and its bridges: one flat arena, levels top
first, each level's blocks as rows of size + 1 entries, which a query walks
with level offsets computed once per padded length.  Bridge entry p of a
block counts the left child's values among the first p of the block's
stable merge.  That merge puts the block's positions in stable (y,
position) order, which is their order in one stable argsort of the whole
level; so one argsort, one stable sort of block ids per level and one
running count build every level, with no merge.  Inside a run of tied ys the
entries follow that tie order, but a query never reads there: its position
is always the count of values <= b, which ends a run.

PL2 locates a point among disjoint rectangles via an interval tree on x
midlines; rectangles crossing a common vertical line have disjoint
y-intervals, so each node needs one y-binary-search.  A PL2 is an arena
of one or more such trees, and a query starts from a tree's root offset:
a node table of (center, start, end, left, right) rows, and the x1 x2 y1
y2 label columns of every node's rectangles concatenated, each node's
rows [start, end) in y1 order.  ``pl2_arena`` lays out many trees at
once, by one numpy pass per tree level over all of them, or below
``PL2_BATCH_ROWS`` rectangles by the per-tree recursion, which gives the
same bytes.

StabEmpty2 counts the rectangles containing (qx, qy) as four signed
dominance counts, ac(qx, qy) - bc(qx - 1, qy) - ad(qx, qy - 1) +
bd(qx - 1, qy - 1), each over a pair of corners (a, b the x1, x2 sides;
c, d the y1, y2 sides); a rectangle with x2 < qx has x1 <= qx, and one
with y2 < qy has y1 <= qy.  The four counters are built in one pass and
share what they can: ac and ad one sorted x1 key array, bc and bd one x2
array, ac and bc one y1 top level, ad and bd one y2 top level, and all
four one bridge arena, so a StabEmpty2 holds five arrays.  The four
counts share four searches, one per sorted key.  ``stab_empty2s`` builds
many StabEmpty2s with one counter pass per padded length, each taking its
own five arrays out of the batch.

Space is metered as payload bits: each stored coordinate/label is charged
once at the bit width of its value domain.  That models a packed
representation; the arrays themselves hold 64-bit coordinates and labels
and 32-bit y levels and bridges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache
from operator import gt, mul

import numpy as np

from .counters import Counters, bit_width
from .geom import NEG, POS, SIDES, ValidationError, box_arrays, query_coord, require_form
from .oracle import NotDisjointError


_I32_MIN = -(2**31)
_I32_PAD = 2**31 - 1  # pads each level to a power of two; above every y


def int64_array(a) -> array:
    """The values of ``a`` as an ``array('q')`` of exactly their length."""
    return _packed("q", np.asarray(a, dtype=np.int64))


def _packed(typecode: str, a: np.ndarray) -> array:
    """The bytes of ``a`` as an exact-length array of ``typecode``: an array
    built from bytes keeps growth room, 3 to 7 spare words plus 1/16, and
    the slice copies it without."""
    return array(typecode, a.tobytes())[:]


def _int_rows(cols, what: str) -> np.ndarray:
    """The equal-length columns ``cols`` stacked as rows of one array.
    Raise ValidationError unless every value is an integer (a conversion
    to int would silently truncate any other) in [-2^31, 2^31 - 2], the
    range of a dominance counter's int32 levels below their padding."""
    a = np.asarray(cols)
    if a.size and (a.dtype.kind not in "iu" or a.min() < _I32_MIN or a.max() >= _I32_PAD):
        raise ValidationError(f"{what} coordinates must be integers in [-2^31, 2^31 - 2]")
    return a


def _ordered(a, what: str) -> None:
    """Raise ValidationError unless the rows x1 x2 y1 y2 that ``a`` starts
    with have x1 <= x2 and y1 <= y2 in every column.  ``a`` is an array, or
    a list of lists, which ``map`` compares faster than numpy would convert
    them below a few hundred values."""
    if isinstance(a, list):
        inverted = any(map(gt, a[0], a[1])) or any(map(gt, a[2], a[3]))
    else:
        inverted = (a[0:4:2] > a[1:4:2]).any()
    if inverted:
        raise ValidationError(f"{what} rectangles need x1 <= x2 and y1 <= y2")


# ---------------------------------------------------------------------------
# dominance counting


class DomCount2:
    """Count points with x <= a and y <= b, exactly.

    Coordinates must be integers in [-2^31, 2^31 - 2], as rank space
    always is; queries may be any integers.  ``bridges`` is an arena that
    other counters may share; ``levels`` walks this counter's part of it.
    """

    __slots__ = ("n", "bits_stored", "xs", "top", "bridges", "levels", "N")

    def __init__(self, xs, ys, coord_width: int | None = None):
        pts = _int_rows((xs, ys), "DomCount2")
        n = pts.shape[1]
        w = coord_width if coord_width is not None else (
            bit_width(int(pts.max()) + 1) if n else 1
        )
        _build_groups([self], pts[:1], pts[1:], [n], [w])

    def prefix_of(self, a: int, counters: Counters | None = None) -> int:
        """#points with x <= a; the initial x binary search."""
        if self.n == 0:
            return 0
        if counters is not None:
            counters.charge_search(self.n)
        return bisect_right(self.xs, a)

    def top_pos(self, b: int, counters: Counters | None = None) -> int:
        """#points with y <= b; the top-level y binary search.  Shareable
        between structures whose y multisets coincide."""
        if self.n == 0:
            return 0
        if counters is not None:
            counters.charge_search(self.N)
        # the padding sorts after the n stored ys and is never counted
        return bisect_right(self.top, b, 0, self.n)

    def count_from(self, P: int, pos: int, counters: Counters | None = None) -> int:
        """Finish a count given the two search results (O(1) per level)."""
        if self.n == 0 or P == 0:
            return 0
        if counters is not None:
            counters.predecessor_steps += len(self.levels)
        bridges = self.bridges
        ans = 0
        s = 0
        for o, half, size in self.levels:
            # the block of this size starting at s is row s // size, whose
            # size + 1 entries start at s + s // size in the level
            left_cnt = bridges[o + s + s // size + pos]
            if P >= s + half:
                ans += left_cnt
                pos -= left_cnt
                s += half
            else:
                pos = left_cnt
        if P > s:
            ans += pos
        return ans

    def count(self, a: int, b: int, counters: Counters | None = None) -> int:
        return self.count_from(
            self.prefix_of(a, counters), self.top_pos(b, counters), counters
        )


@lru_cache(maxsize=None)
def _level_maps(N: int, P: int):
    """What the bridge arena of P counters of padded length N needs besides
    their data.  Level l = 0 .. L - 1 (L = log2 N, top first) has blocks of
    size S = N >> l, stored as N / S rows of S + 1 entries, so a counter's
    levels take A = L N + N - 1 entries, and counter k's come k-th.

    Returns the shift that turns a position into its block id at each
    level; the half block S / 2, whose bit marks a right child's position;
    the mask of the arena's entries that are not a row's leading 0; and
    each counter's walk: per level, its first entry in the arena, S / 2
    and S."""
    L = max(N.bit_length() - 1, 0)
    # positions fit 8 or 16 bits below N = 2^17, and a stable sort of such
    # keys is numpy's radix sort
    shift = np.arange(L, 0, -1, dtype=np.min_scalar_type(max(N - 1, 0)))[:, None]
    half = 1 << (shift - 1)
    A = max(L * N + N - 1, 0)
    body = np.ones((P, A), dtype=bool)
    for l in range(L):
        body[:, l * N + (1 << l) - 1 + np.arange(0, N + (1 << l), (N >> l) + 1)] = False
    body = body.ravel()
    for m in (shift, half, body):
        m.setflags(write=False)
    walks = tuple(
        tuple((k * A + l * N + (1 << l) - 1, N >> l >> 1, N >> l) for l in range(L))
        for k in range(P)
    )
    return shift, half, body, walks


def _build_groups(counters, xs: np.ndarray, ys: np.ndarray, sizes, widths) -> None:
    """For every group g of ``sizes[g]`` consecutive columns of the rows
    ``xs`` and ``ys``, build the next X * Y of ``counters`` as
    _build_counters does, charged at coordinate width ``widths[g]``.
    Groups of one padded length share one pass; each column lands at its
    position in its group's padded row."""
    P = len(xs) * len(ys)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    by_N: dict[int, list[int]] = {}
    for g, n in enumerate(sizes.tolist()):
        by_N.setdefault(1 << (n - 1).bit_length() if n > 1 else n, []).append(g)
    for N, gs in by_N.items():
        m = sizes[gs]
        group = np.repeat(np.arange(len(gs)), m)
        pos = np.arange(len(group)) - np.repeat(np.cumsum(m) - m, m)
        cols = starts[gs][group] + pos
        # the padding sorts after every stored coordinate
        px = np.full((len(gs), len(xs), N), _I32_PAD, dtype=np.int64)
        px[group, :, pos] = xs[:, cols].T
        py = np.full((len(gs), len(ys), N), _I32_PAD, dtype=np.int32)
        py[group, :, pos] = ys[:, cols].T
        _build_counters(
            [counters[g * P + k] for g in gs for k in range(P)],
            px, py, m.tolist(), [widths[g] for g in gs],
        )


def _build_counters(counters, xs: np.ndarray, ys: np.ndarray, ns, widths) -> None:
    """Build ``counters[(b * X + i) * Y + j]`` over the points (xs[b, i],
    ys[b, j]) for every structure b, row i of the X rows of ``xs`` and j of
    the Y of ``ys``, all in one numpy pass.  Every row holds structure b's
    ``ns[b]`` points padded to one length N by values above them all.
    Counters of one structure on one x row share its sorted keys, those on
    one y row its top level, and all of them one bridge arena, one counter
    after another; the structure's P = X * Y counters take that arena out
    of the batch's arena and walk it as ``_level_maps(N, P)`` says.

    A level with blocks of size S holds each block's ys in the stable merge
    order of its two halves, each sorted the same way one level down: the
    block's positions in stable (y, position) order.  That is their order
    in one stable argsort of the whole padded level, so every level is
    that global order stably sorted by block id."""
    B, X, N = xs.shape
    Y = ys.shape[1]
    P = X * Y
    ox = np.argsort(xs, axis=2, kind="stable")
    level = np.take_along_axis(ys[:, None], ox[:, :, None], axis=3).reshape(B * P, N)
    shift, half, body, walks = _level_maps(N, P)
    order = np.argsort(level, axis=1, kind="stable").astype(shift.dtype)
    block = order[:, None, :] >> shift
    merged = order.take(np.argsort(block, axis=2, kind="stable") + N * np.arange(B * P)[:, None, None])
    # each row's running count of left-child positions: a running count
    # over the whole arena, less its value at the row's leading 0, the
    # largest such value so far
    body = np.tile(body, B)
    count = np.zeros(len(body), dtype=np.int32)
    count[body] = ((merged & half) == 0).ravel()
    np.cumsum(count, out=count)
    count -= np.maximum.accumulate(np.where(body, 0, count))
    A = len(count) // B
    keys = np.sort(xs, axis=2)
    # the first Y levels of a structure are x row 0's, one per y row
    tops = np.sort(level.reshape(B, P, N)[:, :Y], axis=2)
    for b, (n, width) in enumerate(zip(ns, widths)):
        bridges = _packed("i", count[b * A : (b + 1) * A])
        xk = [int64_array(k[:n]) for k in keys[b]]
        yk = [_packed("i", t) for t in tops[b]]
        for k, walk in enumerate(walks):
            d = counters[b * P + k]
            d.n = n
            d.bits_stored = 2 * width * n
            d.xs = xk[k // Y]
            d.top = yk[k % Y]
            d.bridges = bridges
            d.levels = walk
            d.N = N


# ---------------------------------------------------------------------------
# planar point location over disjoint rectangles


class PL2:
    """Point location among disjoint (possibly half-unbounded) rectangles.

    Rectangles are given as parallel integer arrays, or lists of ints,
    which are used as they are; unbounded sides use the NEG/POS sentinels.
    Build raises ValidationError for a value that is not an integer or a
    rectangle with x1 > x2 or y1 > y2, and NotDisjointError when two
    rectangles sharing a vertical line overlap in y over integer points.

    A PL2 is an arena of one or more trees (``pl2_arena`` builds several),
    each stored in preorder: ``nodes`` holds five entries per node,
    (center, start, end, left, right), a missing child being -1, and the
    row columns hold each node's rectangles at [start, end) in y1 order.
    ``query`` walks the tree whose root is at offset ``root`` of ``nodes``.
    """

    __slots__ = ("n", "bits_stored", "nodes", "x1", "x2", "y1", "y2", "label")

    def __init__(self, x1, x2, y1, y2, labels, coord_width: int | None = None, label_width: int | None = None):
        cols = [c if isinstance(c, list) else np.asarray(c).tolist() for c in (x1, x2, y1, y2, labels)]
        try:
            array("q", sum(cols, []))  # which takes integers only
        except (TypeError, OverflowError):
            raise ValidationError("PL2 columns must be int64 integers") from None
        n = len(cols[0])
        cw = coord_width if coord_width is not None else 32
        lw = label_width if label_width is not None else bit_width(n + 1)
        _fill_pl2(self, cols, [n], [4 * cw + lw])

    def query(self, qx: int, qy: int, counters: Counters | None = None, root: int = 0) -> int | None:
        nodes, y1 = self.nodes, self.y1
        b = root if nodes else -5  # the current node's offset in ``nodes``
        while b >= 0:
            lo = nodes[b + 1]
            hi = nodes[b + 2]
            if counters is not None:
                counters.charge_search(hi - lo)
            i = bisect_right(y1, qy, lo, hi) - 1
            if i >= lo and self.y2[i] >= qy and self.x1[i] <= qx <= self.x2[i]:
                return self.label[i]
            center = nodes[b]
            b = 5 * (nodes[b + 3] if qx < center else nodes[b + 4] if qx > center else -1)
        return None


# Below this many rectangles in all, the recursion lays out a batch of
# trees faster than the level-by-level numpy pass: ROADMAP "Measured
# constants", PL2_BATCH_ROWS.
PL2_BATCH_ROWS = 224


def pl2_arena(cols: np.ndarray, sizes, row_bits) -> tuple[PL2, list[int]]:
    """One PL2 arena holding a tree over each group of ``sizes``
    consecutive columns of ``cols`` (int64 rows x1 x2 y1 y2 label), laid
    out as a PL2 of that group alone would be, each of the group's
    rectangles charged ``row_bits`` of that group; and each tree's root
    offset."""
    pl = PL2.__new__(PL2)
    return pl, _fill_pl2(pl, cols, sizes, row_bits)


def _fill_pl2(pl: PL2, cols, sizes, row_bits) -> list[int]:
    """pl2_arena's work on ``pl``; ``cols`` is an int64 array or five lists
    of ints."""
    pl.n = len(cols[0])
    pl.bits_stored = sum(map(mul, sizes, row_bits))
    if pl.n < PL2_BATCH_ROWS:
        c = cols if isinstance(cols, list) else cols.tolist()
        _ordered(c, "PL2")
        nodes: list[int] = []
        rows: list[int] = []
        roots = []
        start = 0
        for m in sizes:
            roots.append(len(nodes))
            if m:
                _build_pl2(range(start, start + m), *c[:4], nodes, rows)
            start += m
        pl.nodes = array("q", nodes)
        pl.x1, pl.x2, pl.y1, pl.y2, pl.label = (array("q", [v[i] for i in rows]) for v in c)
        return roots
    cols = np.asarray(cols, dtype=np.int64)
    _ordered(cols, "PL2")
    nodes, rows, roots = _pl2_levels(*cols[:4], sizes)
    pl.nodes = _packed("q", nodes)
    pl.x1, pl.x2, pl.y1, pl.y2, pl.label = (_packed("q", v) for v in cols[:, rows])
    return roots


def _build_pl2(idx, x1, x2, y1, y2, nodes, rows) -> int:
    """Append the subtree over the rectangles ``idx`` (ascending) to the
    node table and the row order, in preorder; returns its node number."""
    finite = {x1[i] for i in idx if x1[i] > NEG}
    finite.update(x2[i] for i in idx if x2[i] < POS)
    # the median endpoint's own rectangle always crosses it, and with no
    # finite endpoint every rectangle spans 0, so every node stores at
    # least one rectangle and the recursion shrinks
    center = sorted(finite)[len(finite) // 2] if finite else 0
    cross = [i for i in idx if x1[i] <= center <= x2[i]]
    goleft = [i for i in idx if x2[i] < center]
    goright = [i for i in idx if x1[i] > center]
    cross.sort(key=y1.__getitem__)
    for a, b in zip(cross, cross[1:]):
        if y1[b] <= y2[a]:
            raise NotDisjointError("rectangles crossing a common vertical line overlap in y")
    v = len(nodes) // 5
    nodes += (center, len(rows), len(rows) + len(cross), -1, -1)
    rows += cross
    if goleft:
        nodes[5 * v + 3] = _build_pl2(goleft, x1, x2, y1, y2, nodes, rows)
    if goright:
        nodes[5 * v + 4] = _build_pl2(goright, x1, x2, y1, y2, nodes, rows)
    return v


def _pl2_levels(x1, x2, y1, y2, sizes) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """What _build_pl2 lays out for each group of ``sizes`` consecutive
    rectangles, the trees one after another: the node table, the row order
    and each tree's root offset.  One pass per tree level serves every
    group: it finds each node's median distinct finite endpoint and splits
    the node's rectangles into crossing, left and right ones.  Subtree
    sizes, summed bottom-up, then give each node its preorder number and
    its first row top-down."""
    sizes = np.asarray(sizes, dtype=np.int64)
    trees = np.flatnonzero(sizes)  # an empty group has no tree
    node = np.repeat(np.arange(len(trees)), sizes[trees])  # each live rectangle's node
    live = np.arange(len(x1))
    V = len(trees)  # nodes on this level
    levels = []
    while V:
        lx1, lx2 = x1[live], x2[live]
        f1, f2 = lx1 > NEG, lx2 < POS
        ends = np.concatenate((lx1[f1], lx2[f2]))
        owner = np.concatenate((node[f1], node[f2]))
        o = np.lexsort((ends, owner))
        ends, owner = ends[o], owner[o]
        new = np.ones(len(ends), dtype=bool)
        new[1:] = (ends[1:] != ends[:-1]) | (owner[1:] != owner[:-1])
        ends, owner = ends[new], owner[new]
        distinct = np.bincount(owner, minlength=V)
        center = np.zeros(V, dtype=np.int64)
        some = distinct > 0
        center[some] = ends[(np.cumsum(distinct) - distinct + distinct // 2)[some]]
        c = center[node]
        left, right = lx2 < c, lx1 > c
        cross = ~(left | right)
        # crossing rows in (node, y1) order, each node's disjoint in y: two
        # with one y1 overlap, so their order never shows
        cr, cn = live[cross], node[cross]
        o = np.lexsort((y1[cr], cn))
        cr, cn = cr[o], cn[o]
        if ((cn[1:] == cn[:-1]) & (y1[cr[1:]] <= y2[cr[:-1]])).any():
            raise NotDisjointError("rectangles crossing a common vertical line overlap in y")
        has_l = np.bincount(node[left], minlength=V) > 0
        has_r = np.bincount(node[right], minlength=V) > 0
        n_l = int(has_l.sum())
        lid = np.where(has_l, np.cumsum(has_l) - 1, -1)
        rid = np.where(has_r, n_l + np.cumsum(has_r) - 1, -1)
        levels.append((center, np.bincount(cn, minlength=V), lid, rid, cr, cn))
        live = np.concatenate((live[left], live[right]))
        node = np.concatenate((lid[node[left]], rid[node[right]]))
        V = n_l + int(has_r.sum())
    # subtree node and row counts, bottom-up; each level's list ends in a
    # 0 that a missing child (-1) reads
    subtree = [(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))]
    for _, own, lid, rid, _, _ in reversed(levels):
        size, count = subtree[-1]
        subtree.append((
            np.append(1 + size[lid] + size[rid], 0),
            np.append(own + count[lid] + count[rid], 0),
        ))
    subtree.reverse()
    size, count = subtree[0]
    pre = np.cumsum(size[:-1]) - size[:-1]
    start = np.cumsum(count[:-1]) - count[:-1]
    tree_size = np.zeros(len(sizes), dtype=np.int64)
    tree_size[trees] = size[:-1]
    roots = (5 * (np.cumsum(tree_size) - tree_size)).tolist()
    table = np.empty((int(size[:-1].sum()), 5), dtype=np.int64)
    order = np.empty(len(x1), dtype=np.int64)
    for (center, own, lid, rid, cr, cn), (size, count) in zip(levels, subtree[1:]):
        pre_l, pre_r = pre + 1, pre + 1 + size[lid]
        start_l, start_r = start + own, start + own + count[lid]
        table[pre] = np.stack((
            center, start, start + own, np.where(lid >= 0, pre_l, -1), np.where(rid >= 0, pre_r, -1),
        ), axis=1)
        order[start[cn] + np.arange(len(cn)) - (np.cumsum(own) - own)[cn]] = cr
        pre = np.concatenate((pre_l[lid >= 0], pre_r[rid >= 0]))
        start = np.concatenate((start_l[lid >= 0], start_r[rid >= 0]))
    return table.ravel(), order, roots


def build_pl2(rects) -> PL2:
    """Build PL2 from Box2 objects (ids become labels)."""
    a = box_arrays(rects, dims=2)
    return PL2(a["x1"], a["x2"], a["y1"], a["y2"], a["orig"])


def query_pl2(pl: PL2, q, counters: Counters | None = None) -> int | None:
    # unbounded sides are stored as NEG/POS: a query beyond them must meet
    # them as the sentinel itself, not slip past it
    qx, qy = (min(max(query_coord(v), NEG), POS) for v in (q[0], q[1]))
    return pl.query(qx, qy, counters)


# ---------------------------------------------------------------------------
# rectangle stabbing count / emptiness


class StabEmpty2:
    """Stabbing count as four signed dominance counts."""

    __slots__ = ("n", "bits_stored", "ac", "ad", "bc", "bd")

    def __init__(self, x1, x2, y1, y2, coord_width: int | None = None):
        # finite: the NEG/POS sentinels lie outside the checked range
        a = _int_rows((x1, x2, y1, y2), "StabEmpty2")
        _fill_stabs([self], a, [a.shape[1]], [coord_width if coord_width is not None else 32])

    def count(self, qx: int, qy: int, counters: Counters | None = None) -> int:
        if self.n == 0:
            return 0
        # four signed dominance counts over four searches: structures
        # sharing a sorted key array share the search result
        p_x1 = self.ac.prefix_of(qx, counters)        # #x1 <= qx
        p_x2 = self.bd.prefix_of(qx - 1, counters)    # #x2 <  qx
        pos_y1 = self.ac.top_pos(qy, counters)        # #y1 <= qy
        pos_y2 = self.ad.top_pos(qy - 1, counters)    # #y2 <  qy
        return (
            self.ac.count_from(p_x1, pos_y1, counters)
            - self.bc.count_from(p_x2, pos_y1, counters)
            - self.ad.count_from(p_x1, pos_y2, counters)
            + self.bd.count_from(p_x2, pos_y2, counters)
        )

    def empty(self, qx: int, qy: int, counters: Counters | None = None) -> bool:
        return self.count(qx, qy, counters) == 0


def stab_empty2s(cols: np.ndarray, sizes, widths) -> list[StabEmpty2]:
    """A StabEmpty2 over each group of ``sizes`` consecutive columns of
    ``cols`` (rows x1 x2 y1 y2), charged at coordinate width ``widths`` of
    that group; one counter pass builds all those of one padded length."""
    stabs = [StabEmpty2.__new__(StabEmpty2) for _ in sizes]
    _fill_stabs(stabs, _int_rows(cols, "StabEmpty2"), sizes, widths)
    return stabs


def _fill_stabs(stabs, a: np.ndarray, sizes, widths) -> None:
    _ordered(a, "StabEmpty2")
    counters = [DomCount2.__new__(DomCount2) for _ in range(4 * len(stabs))]
    _build_groups(counters, a[:2], a[2:], sizes, widths)
    for g, (s, n, cw) in enumerate(zip(stabs, sizes, widths)):
        s.n = n
        s.ac, s.ad, s.bc, s.bd = counters[4 * g : 4 * g + 4]
        # 4 * cw * n charges four sorted rank arrays, which the counters'
        # own first searches replace and nothing stores
        s.bits_stored = 4 * cw * n + sum(d.bits_stored for d in counters[4 * g : 4 * g + 4])


def build_stab_count(rects) -> StabEmpty2:
    a = box_arrays(rects, dims=2)
    require_form(a, "stabbing count", finite=SIDES[:4])
    return StabEmpty2(a["x1"], a["x2"], a["y1"], a["y2"])


def query_stab_count(s: StabEmpty2, q, counters: Counters | None = None) -> int:
    return s.count(query_coord(q[0]), query_coord(q[1]), counters)


def query_stab_empty(s: StabEmpty2, q, counters: Counters | None = None) -> bool:
    return s.empty(query_coord(q[0]), query_coord(q[1]), counters)


def dominance_count(d: DomCount2, a: int, b: int, counters: Counters | None = None) -> int:
    return d.count(query_coord(a), query_coord(b), counters)
