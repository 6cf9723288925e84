"""2-d building blocks: dominance counting, point location, stabbing counts.

DomCount2 is a static layered structure: points in x-order, y-sorted blocks
doubling per level, with positional bridges between levels, so a count query
costs one initial binary search plus O(1) work per level.

PL2 locates a point among disjoint rectangles via an interval tree on x
midlines; rectangles crossing a common vertical line have disjoint
y-intervals, so each node needs one y-binary-search.

StabEmpty2 counts stabbed rectangles by inclusion-exclusion over four 1-d
rank arrays and four dominance counters.

Space is metered as payload bits: each stored coordinate/label is charged
once at the bit width of its value domain, modeling the packed
representations the analysis assumes.
"""

from __future__ import annotations

import numpy as np

from .counters import Counters, bit_width
from .geom import NEG, POS, ValidationError
from .oracle import NotDisjointError


# ---------------------------------------------------------------------------
# dominance counting


_I32_PAD = np.int32(2**31 - 1)
_I32_MAX_Q = 2**31 - 2


def _clamp32(v: int) -> int:
    return max(-_I32_MAX_Q, min(_I32_MAX_Q, int(v)))


class DomCount2:
    """Count points with x <= a and y <= b, exactly.

    Coordinates must fit in int32 (rank space always does); queries are
    clamped to that range, which preserves counts.
    """

    def __init__(self, xs, ys, coord_width: int | None = None):
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        self.n = len(xs)
        w = coord_width if coord_width is not None else (
            bit_width(int(xs.max() + 1)) if self.n else 1
        )
        self.bits_stored = 2 * w * self.n
        if self.n == 0:
            self.levels = []
            self.bridges = []
            self.N = 0
            return
        if abs(int(xs.max(initial=0))) >= _I32_MAX_Q or abs(int(ys.max(initial=0))) >= _I32_MAX_Q:
            raise ValidationError("DomCount2 coordinates exceed int32 range")
        order = np.argsort(xs, kind="stable")
        self.xs = xs[order]
        N = 1 << max(0, (self.n - 1).bit_length())
        base = np.full(N, _I32_PAD, dtype=np.int32)
        base[: self.n] = ys[order].astype(np.int32)
        levels = [base]
        bridges = []  # bridges[l][block, p] = #left-child elems among first p of merged
        size = 1
        while size < N:
            size *= 2
            nblocks = N // size
            merged = np.sort(levels[-1].reshape(nblocks, size), axis=1)
            left = levels[-1].reshape(nblocks * 2, size // 2)[0::2]
            # one flat searchsorted: shift each block into its own value range
            shift = (np.arange(nblocks, dtype=np.int64) << 33)[:, None]
            flat_left = (left.astype(np.int64) + shift).ravel()
            flat_merged = (merged.astype(np.int64) + shift).ravel()
            pos = np.searchsorted(flat_left, flat_merged, side="right").astype(np.int64)
            pos = (pos - (np.arange(nblocks, dtype=np.int64) * (size // 2))[:, None].repeat(size, 1).ravel())
            bl = np.zeros((nblocks, size + 1), dtype=np.int32)
            bl[:, 1:] = pos.reshape(nblocks, size).astype(np.int32)
            levels.append(merged.ravel())
            bridges.append(bl)
        self.levels = levels
        self.bridges = bridges
        self.N = N

    def prefix_of(self, a: int, counters: Counters | None = None) -> int:
        """#points with x <= a; the initial x binary search."""
        if self.n == 0:
            return 0
        if counters is not None:
            counters.charge_search(self.n)
        return int(np.searchsorted(self.xs, a, side="right"))

    def top_pos(self, b: int, counters: Counters | None = None) -> int:
        """#points with y <= b; the top-level y binary search.  Shareable
        between structures whose y multisets coincide."""
        if self.n == 0:
            return 0
        if counters is not None:
            counters.charge_search(self.N)
        return int(np.searchsorted(self.levels[-1], _clamp32(b), side="right"))

    def count_from(self, P: int, pos: int, counters: Counters | None = None) -> int:
        """Finish a count given the two search results (O(1) per level)."""
        if self.n == 0 or P == 0:
            return 0
        ans = 0
        s = 0
        level = len(self.levels) - 1
        while level > 0:
            half = 1 << (level - 1)
            bl = self.bridges[level - 1]
            blk = s >> level
            left_cnt = int(bl[blk, pos])
            if counters is not None:
                counters.predecessor_steps += 1
            if P >= s + half:
                ans += left_cnt
                pos -= left_cnt
                s += half
            else:
                pos = left_cnt
            level -= 1
        if P > s:
            ans += pos
        return ans

    def count(self, a: int, b: int, counters: Counters | None = None) -> int:
        return self.count_from(
            self.prefix_of(a, counters), self.top_pos(b, counters), counters
        )


# ---------------------------------------------------------------------------
# planar point location over disjoint rectangles


class _PLNode:
    __slots__ = ("center", "x1", "x2", "y1", "y2", "label", "left", "right")

    def __init__(self, center, x1, x2, y1, y2, label, left, right):
        self.center = center
        self.x1 = x1
        self.x2 = x2
        self.y1 = y1
        self.y2 = y2
        self.label = label
        self.left = left
        self.right = right


class PL2:
    """Point location among disjoint (possibly half-unbounded) rectangles.

    Rectangles are given as parallel arrays; unbounded sides use the NEG/POS
    sentinels.  Build raises NotDisjointError when two rectangles sharing a
    vertical line overlap in y over integer points.
    """

    def __init__(self, x1, x2, y1, y2, labels, coord_width: int | None = None, label_width: int | None = None):
        x1 = np.asarray(x1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        y2 = np.asarray(y2, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        self.n = len(x1)
        cw = coord_width if coord_width is not None else 32
        lw = label_width if label_width is not None else bit_width(self.n + 1)
        self.bits_stored = self.n * (4 * cw + lw)
        self.root = self._build(x1, x2, y1, y2, labels) if self.n else None

    @staticmethod
    def _midline_candidates(x1, x2):
        finite = np.concatenate([x1[x1 > NEG], x2[x2 < POS]])
        return np.unique(finite)

    def _build(self, x1, x2, y1, y2, labels):
        cand = self._midline_candidates(x1, x2)
        # the median endpoint's own rectangle always crosses it, so every
        # node stores at least one rectangle and the recursion shrinks
        center = int(cand[len(cand) // 2]) if len(cand) else 0
        cross = (x1 <= center) & (x2 >= center)
        goleft = x2 < center
        goright = x1 > center
        if not cross.any() and (goleft.all() or goright.all()):
            raise ValidationError("degenerate rectangle set: no midline makes progress")
        order = np.argsort(y1[cross], kind="stable")
        cy1 = y1[cross][order]
        cy2 = y2[cross][order]
        if len(cy1) > 1 and (cy1[1:] <= cy2[:-1]).any():
            raise NotDisjointError("rectangles crossing a common vertical line overlap in y")
        node = _PLNode(
            center,
            x1[cross][order],
            x2[cross][order],
            cy1,
            cy2,
            labels[cross][order],
            self._build(x1[goleft], x2[goleft], y1[goleft], y2[goleft], labels[goleft])
            if goleft.any()
            else None,
            self._build(x1[goright], x2[goright], y1[goright], y2[goright], labels[goright])
            if goright.any()
            else None,
        )
        return node

    def query(self, qx: int, qy: int, counters: Counters | None = None) -> int | None:
        node = self.root
        while node is not None:
            if len(node.y1):
                if counters is not None:
                    counters.charge_search(len(node.y1))
                i = int(np.searchsorted(node.y1, qy, side="right")) - 1
                if i >= 0 and node.y2[i] >= qy and node.x1[i] <= qx and node.x2[i] >= qx:
                    return int(node.label[i])
            node = node.left if qx < node.center else node.right if qx > node.center else None
        return None


def build_pl2(rects, coord_width: int | None = None) -> PL2:
    """Build PL2 from Box2 objects (ids become labels)."""
    x1 = [NEG if r.x[0] is None else r.x[0] for r in rects]
    x2 = [POS if r.x[1] is None else r.x[1] for r in rects]
    y1 = [NEG if r.y[0] is None else r.y[0] for r in rects]
    y2 = [POS if r.y[1] is None else r.y[1] for r in rects]
    ids = [r.id for r in rects]
    return PL2(x1, x2, y1, y2, ids, coord_width=coord_width)


def query_pl2(pl: PL2, q, counters: Counters | None = None) -> int | None:
    # unbounded sides are stored as NEG/POS: a query beyond them must meet
    # them as the sentinel itself, not slip past it
    return pl.query(min(max(q[0], NEG), POS), min(max(q[1], NEG), POS), counters)


# ---------------------------------------------------------------------------
# rectangle stabbing count / emptiness


class StabEmpty2:
    """Stabbing count via n - |A u B u C u D| inclusion-exclusion."""

    def __init__(self, x1, x2, y1, y2, coord_width: int | None = None):
        x1 = np.asarray(x1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        y2 = np.asarray(y2, dtype=np.int64)
        if len(x1) and (x1.min() <= NEG or x2.max() >= POS or y1.min() <= NEG or y2.max() >= POS):
            raise ValidationError("StabEmpty2 requires finite rectangles")
        self.n = len(x1)
        self.x1s = np.sort(x1)
        self.x2s = np.sort(x2)
        self.y1s = np.sort(y1)
        self.y2s = np.sort(y2)
        cw = coord_width if coord_width is not None else 32
        self.ac = DomCount2(x1, y1, coord_width=cw)
        self.ad = DomCount2(x1, y2, coord_width=cw)
        self.bc = DomCount2(x2, y1, coord_width=cw)
        self.bd = DomCount2(x2, y2, coord_width=cw)
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
    x1 = [r.x[0] for r in rects]
    x2 = [r.x[1] for r in rects]
    y1 = [r.y[0] for r in rects]
    y2 = [r.y[1] for r in rects]
    if any(v is None for v in x1 + x2 + y1 + y2):
        raise ValidationError("stabbing-count rectangles must be finite")
    return StabEmpty2(x1, x2, y1, y2, coord_width=coord_width)


def query_stab_count(s: StabEmpty2, q, counters: Counters | None = None) -> int:
    return s.count(q[0], q[1], counters)


def query_stab_empty(s: StabEmpty2, q, counters: Counters | None = None) -> bool:
    return s.empty(q[0], q[1], counters)


def dominance_count(d: DomCount2, a: int, b: int, counters: Counters | None = None) -> int:
    return d.count(a, b, counters)
