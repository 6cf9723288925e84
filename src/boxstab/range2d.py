"""2-d building blocks: dominance counting, point location, stabbing counts.

Each structure is built once into flat stdlib ``array.array``s, and a query
walks them with Python ints: every search is a ``bisect`` over an array and
every lookup a plain index, with no numpy call on the query path.

DomCount2 is a static layered structure: points in x-order, y-sorted blocks
doubling per level, with positional bridges between levels, so a count query
costs one initial binary search plus O(1) work per level.  It stores the
sorted xs, the top level's ys and one flat bridge array per level.

PL2 locates a point among disjoint rectangles via an interval tree on x
midlines; rectangles crossing a common vertical line have disjoint
y-intervals, so each node needs one y-binary-search.  The tree is one
arena: a node table of (center, start, end, left, right) rows, and the
x1 x2 y1 y2 label columns of every node's rectangles concatenated, each
node's rows [start, end) in y1 order.

StabEmpty2 counts stabbed rectangles by inclusion-exclusion over four 1-d
ranks and four dominance counters; the ranks are the counters' own first
searches.

Space is metered as payload bits: each stored coordinate/label is charged
once at the bit width of its value domain.  That models a packed
representation; the arrays themselves hold 64-bit coordinates and labels
and 32-bit y levels and bridges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from .counters import Counters, bit_width
from .geom import NEG, POS, SIDES, ValidationError, box_arrays, require_form
from .oracle import NotDisjointError


def int64_array(a) -> array:
    """The values of ``a`` as an ``array('q')``, copied once."""
    return array("q", np.asarray(a, dtype=np.int64).tobytes())


# ---------------------------------------------------------------------------
# dominance counting


_I32_MIN = -(2**31)
_I32_PAD = 2**31 - 1  # pads each level to a power of two; above every y


class DomCount2:
    """Count points with x <= a and y <= b, exactly.

    Coordinates must lie in [-2^31, 2^31 - 2], as rank space always does;
    queries may be any integers.
    """

    __slots__ = ("n", "bits_stored", "xs", "top", "bridges", "N")

    def __init__(self, xs, ys, coord_width: int | None = None):
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        self.n = len(xs)
        w = coord_width if coord_width is not None else (
            bit_width(int(max(xs.max(), ys.max()) + 1)) if self.n else 1
        )
        self.bits_stored = 2 * w * self.n
        self.xs = array("q")
        self.top = array("i")
        self.bridges: list[array] = []
        self.N = 0
        if self.n == 0:
            return
        if min(xs.min(), ys.min()) < _I32_MIN or max(xs.max(), ys.max()) >= _I32_PAD:
            raise ValidationError("DomCount2 coordinates exceed int32 range")
        order = np.argsort(xs, kind="stable")
        self.xs = int64_array(xs[order])
        N = 1 << max(0, (self.n - 1).bit_length())
        level = np.full(N, _I32_PAD, dtype=np.int32)
        level[: self.n] = ys[order]
        # bridges[l], l = 0 for the top level: row `block` of length
        # size + 1 (size = N >> l), entry p = #left-child elems among the
        # first p of the merged block
        size = 1
        while size < N:
            size *= 2
            nblocks = N // size
            merged = np.sort(level.reshape(nblocks, size), axis=1)
            left = level.reshape(nblocks * 2, size // 2)[0::2]
            # one flat searchsorted: shift each block into its own value range
            shift = (np.arange(nblocks, dtype=np.int64) << 33)[:, None]
            flat_left = (left.astype(np.int64) + shift).ravel()
            flat_merged = (merged.astype(np.int64) + shift).ravel()
            pos = np.searchsorted(flat_left, flat_merged, side="right").astype(np.int64)
            pos = (pos - (np.arange(nblocks, dtype=np.int64) * (size // 2))[:, None].repeat(size, 1).ravel())
            bl = np.zeros((nblocks, size + 1), dtype=np.int32)
            bl[:, 1:] = pos.reshape(nblocks, size)
            level = merged.ravel()
            self.bridges.insert(0, array("i", bl.tobytes()))
        self.top = array("i", level.tobytes())
        self.N = N

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
            counters.predecessor_steps += len(self.bridges)
        ans = 0
        s = 0
        half = self.N >> 1
        for bl in self.bridges:
            # the block of size 2 * half starting at s is row s // (2 * half)
            left_cnt = bl[s + s // (2 * half) + pos]
            if P >= s + half:
                ans += left_cnt
                pos -= left_cnt
                s += half
            else:
                pos = left_cnt
            half >>= 1
        if P > s:
            ans += pos
        return ans

    def count(self, a: int, b: int, counters: Counters | None = None) -> int:
        return self.count_from(
            self.prefix_of(a, counters), self.top_pos(b, counters), counters
        )


# ---------------------------------------------------------------------------
# planar point location over disjoint rectangles


class PL2:
    """Point location among disjoint (possibly half-unbounded) rectangles.

    Rectangles are given as parallel arrays; unbounded sides use the NEG/POS
    sentinels.  Build raises NotDisjointError when two rectangles sharing a
    vertical line overlap in y over integer points.

    The tree is stored in preorder: ``nodes`` holds five entries per node,
    (center, start, end, left, right), a missing child being -1, and the
    row columns hold each node's rectangles at [start, end) in y1 order.
    """

    __slots__ = ("n", "bits_stored", "nodes", "x1", "x2", "y1", "y2", "label")

    def __init__(self, x1, x2, y1, y2, labels, coord_width: int | None = None, label_width: int | None = None):
        cols = [np.asarray(c, dtype=np.int64).tolist() for c in (x1, x2, y1, y2, labels)]
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


def build_pl2(rects, coord_width: int | None = None) -> PL2:
    """Build PL2 from Box2 objects (ids become labels)."""
    a = box_arrays(rects, dims=2)
    return PL2(a["x1"], a["x2"], a["y1"], a["y2"], a["orig"], coord_width=coord_width)


def query_pl2(pl: PL2, q, counters: Counters | None = None) -> int | None:
    # unbounded sides are stored as NEG/POS: a query beyond them must meet
    # them as the sentinel itself, not slip past it
    return pl.query(min(max(q[0], NEG), POS), min(max(q[1], NEG), POS), counters)


# ---------------------------------------------------------------------------
# rectangle stabbing count / emptiness


class StabEmpty2:
    """Stabbing count via n - |A u B u C u D| inclusion-exclusion."""

    __slots__ = ("n", "bits_stored", "ac", "ad", "bc", "bd")

    def __init__(self, x1, x2, y1, y2, coord_width: int | None = None):
        x1 = np.asarray(x1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        y2 = np.asarray(y2, dtype=np.int64)
        if len(x1) and (x1.min() <= NEG or x2.max() >= POS or y1.min() <= NEG or y2.max() >= POS):
            raise ValidationError("StabEmpty2 requires finite rectangles")
        self.n = len(x1)
        cw = coord_width if coord_width is not None else 32
        self.ac = DomCount2(x1, y1, coord_width=cw)
        self.ad = DomCount2(x1, y2, coord_width=cw)
        self.bc = DomCount2(x2, y1, coord_width=cw)
        self.bd = DomCount2(x2, y2, coord_width=cw)
        # 4 * cw * n charges four sorted rank arrays, which the counters'
        # own first searches replace and nothing stores
        self.bits_stored = 4 * cw * self.n + self.ac.bits_stored + self.ad.bits_stored \
            + self.bc.bits_stored + self.bd.bits_stored

    def count(self, qx: int, qy: int, counters: Counters | None = None) -> int:
        if self.n == 0:
            return 0
        # four searches serve everything: the 1-d ranks |A|..|D| are the
        # same prefixes the dominance counters start from, and structures
        # sharing a sorted key array share the search result
        p_x1 = self.ac.prefix_of(qx, counters)        # #x1 <= qx
        p_x2 = self.bd.prefix_of(qx - 1, counters)    # #x2 <  qx
        pos_y1 = self.ac.top_pos(qy, counters)        # #y1 <= qy
        pos_y2 = self.ad.top_pos(qy - 1, counters)    # #y2 <  qy
        A = self.n - p_x1
        B = p_x2
        C = self.n - pos_y1
        D = pos_y2
        AC = self.n - p_x1 - pos_y1 + self.ac.count_from(p_x1, pos_y1, counters)
        AD = D - self.ad.count_from(p_x1, pos_y2, counters)
        BC = B - self.bc.count_from(p_x2, pos_y1, counters)
        BD = self.bd.count_from(p_x2, pos_y2, counters)
        return self.n - (A + B + C + D - AC - AD - BC - BD)

    def empty(self, qx: int, qy: int, counters: Counters | None = None) -> bool:
        return self.count(qx, qy, counters) == 0


def build_stab_count(rects, coord_width: int | None = None) -> StabEmpty2:
    a = box_arrays(rects, dims=2)
    require_form(a, "stabbing count", finite=SIDES[:4])
    return StabEmpty2(a["x1"], a["x2"], a["y1"], a["y2"], coord_width=coord_width)


def query_stab_count(s: StabEmpty2, q, counters: Counters | None = None) -> int:
    return s.count(q[0], q[1], counters)


def query_stab_empty(s: StabEmpty2, q, counters: Counters | None = None) -> bool:
    return s.empty(q[0], q[1], counters)


def dominance_count(d: DomCount2, a: int, b: int, counters: Counters | None = None) -> int:
    return d.count(a, b, counters)
