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
y-intervals, so each node needs one y-binary-search.  The tree is one
arena: a node table of (center, start, end, left, right) rows, and the
x1 x2 y1 y2 label columns of every node's rectangles concatenated, each
node's rows [start, end) in y1 order.

StabEmpty2 counts the rectangles containing (qx, qy) as four signed
dominance counts, ac(qx, qy) - bc(qx - 1, qy) - ad(qx, qy - 1) +
bd(qx - 1, qy - 1), each over a pair of corners (a, b the x1, x2 sides;
c, d the y1, y2 sides); a rectangle with x2 < qx has x1 <= qx, and one
with y2 < qy has y1 <= qy.  The four counters are built in one pass and
share what they can: ac and ad one sorted x1 key array, bc and bd one x2
array, ac and bc one y1 top level, ad and bd one y2 top level, and all
four one bridge arena, so a StabEmpty2 holds five arrays.  The four
counts share four searches, one per sorted key.

Space is metered as payload bits: each stored coordinate/label is charged
once at the bit width of its value domain.  That models a packed
representation; the arrays themselves hold 64-bit coordinates and labels
and 32-bit y levels and bridges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache

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
        _build_counters([self], pts[:1], pts[1:], w)

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


def _build_counters(counters, xs: np.ndarray, ys: np.ndarray, width: int) -> None:
    """Build ``counters[i * len(ys) + j]`` over the points (xs[i], ys[j])
    for every row i of ``xs`` and j of ``ys``, all in one numpy pass.
    Counters on one x row share its sorted keys and counters on one y row
    its top level; the bridges of all sit in one arena, one counter after
    another.

    A level with blocks of size S holds each block's ys in the stable merge
    order of its two halves, each sorted the same way one level down: the
    block's positions in stable (y, position) order.  That is their order
    in one stable argsort of the whole padded level, so every level is
    that global order stably sorted by block id."""
    X, Y, n = len(xs), len(ys), xs.shape[1]
    N = 1 << (n - 1).bit_length() if n > 1 else n
    P = X * Y
    ox = np.argsort(xs, axis=1, kind="stable")
    level = np.full((X, Y, N), _I32_PAD, dtype=np.int32)
    level[..., :n] = ys[:, ox].swapaxes(0, 1)
    level = level.reshape(P, N)
    shift, half, body, walks = _level_maps(N, P)
    order = np.argsort(level, axis=1, kind="stable").astype(shift.dtype)
    block = order[:, None, :] >> shift
    merged = order.take(np.argsort(block, axis=2, kind="stable") + N * np.arange(P)[:, None, None])
    # each row's running count of left-child positions: a running count
    # over the whole arena, less its value at the row's leading 0, the
    # largest such value so far
    count = np.zeros(len(body), dtype=np.int32)
    count[body] = ((merged & half) == 0).ravel()
    np.cumsum(count, out=count)
    count -= np.maximum.accumulate(np.where(body, 0, count))
    bridges = _packed("i", count)
    keys = [int64_array(k) for k in np.sort(xs, axis=1)]
    # the first Y levels are x row 0's, one per y row, already padded
    tops = [_packed("i", t) for t in np.sort(level[:Y], axis=1)]
    for k, (d, walk) in enumerate(zip(counters, walks)):
        d.n = n
        d.bits_stored = 2 * width * n
        d.xs = keys[k // Y]
        d.top = tops[k % Y]
        d.bridges = bridges
        d.levels = walk
        d.N = N


# ---------------------------------------------------------------------------
# planar point location over disjoint rectangles


class PL2:
    """Point location among disjoint (possibly half-unbounded) rectangles.

    Rectangles are given as parallel integer arrays, or lists of ints,
    which are used as they are; unbounded sides use the NEG/POS sentinels.
    Build raises ValidationError for a value that is not an integer, and
    NotDisjointError when two rectangles sharing a vertical line overlap
    in y over integer points.

    The tree is stored in preorder: ``nodes`` holds five entries per node,
    (center, start, end, left, right), a missing child being -1, and the
    row columns hold each node's rectangles at [start, end) in y1 order.
    """

    __slots__ = ("n", "bits_stored", "nodes", "x1", "x2", "y1", "y2", "label")

    def __init__(self, x1, x2, y1, y2, labels, coord_width: int | None = None, label_width: int | None = None):
        cols = [c if isinstance(c, list) else np.asarray(c).tolist() for c in (x1, x2, y1, y2, labels)]
        try:
            array("q", sum(cols, []))  # which takes integers only
        except (TypeError, OverflowError):
            raise ValidationError("PL2 columns must be int64 integers") from None
        self.n = len(cols[0])
        cw = coord_width if coord_width is not None else 32
        lw = label_width if label_width is not None else bit_width(self.n + 1)
        self.bits_stored = self.n * (4 * cw + lw)
        nodes: list[int] = []
        rows: list[int] = []
        if self.n:
            _build_pl2(list(range(self.n)), *cols[:4], nodes, rows)
        self.nodes = array("q", nodes)
        self.x1, self.x2, self.y1, self.y2, self.label = (array("q", [c[i] for i in rows]) for c in cols)

    def query(self, qx: int, qy: int, counters: Counters | None = None) -> int | None:
        nodes, y1 = self.nodes, self.y1
        b = 0 if nodes else -5  # the current node's offset in ``nodes``
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


def _build_pl2(idx, x1, x2, y1, y2, nodes, rows) -> int:
    """Append the subtree over the rectangles ``idx`` (ascending) to the
    node table and the row order, in preorder; returns its node number."""
    finite = {x1[i] for i in idx if x1[i] > NEG}
    finite.update(x2[i] for i in idx if x2[i] < POS)
    # the median endpoint's own rectangle always crosses it, so every
    # node stores at least one rectangle and the recursion shrinks
    center = sorted(finite)[len(finite) // 2] if finite else 0
    cross = [i for i in idx if x1[i] <= center <= x2[i]]
    goleft = [i for i in idx if x2[i] < center]
    goright = [i for i in idx if x1[i] > center]
    if not cross and (len(goleft) == len(idx) or len(goright) == len(idx)):
        raise ValidationError("degenerate rectangle set: no midline makes progress")
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
        self.n = a.shape[1]
        cw = coord_width if coord_width is not None else 32
        self.ac, self.ad, self.bc, self.bd = counters = [DomCount2.__new__(DomCount2) for _ in range(4)]
        _build_counters(counters, a[:2], a[2:], cw)
        # 4 * cw * n charges four sorted rank arrays, which the counters'
        # own first searches replace and nothing stores
        self.bits_stored = 4 * cw * self.n + sum(d.bits_stored for d in counters)

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
