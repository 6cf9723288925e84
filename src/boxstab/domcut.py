"""3-d dominance reporting and 2-d/3-d shallow cuttings with FIND-ANY.

The 2-d cutting sweeps distinct x descending and emits a corner whenever
ceil(t/2) points have accumulated since the last one (plus a forced final
corner), with the corner's y set to one past the (2t+1)-th largest suffix y.
That yields <= 2n/t+2 cells, conflict lists <= 2t, and coverage of every
query with at most t dominators down to the anchor: between a query column
and its nearest corner at or to the left fewer than ceil(t/2) points were
swept, so the corner's 2t-threshold sits at or below the query's t-level.
Corners ascend in x with non-increasing y (a staircase), which downstream
grouping arguments rely on.

The 3-d cutting sweeps distinct z descending, maintaining a live 2-d
staircase; a corner whose conflict list exceeds 4t emits its box with
z-corner at the previous distinct z (so the stored conflict list is the
exact dominator set) and is replaced by rebuilding the t-level staircase
inside its own quadrant.  Survivors emit at the lowest z.  Cell count can
exceed the ideal constant; the verifier's slack-8 bound is the contract.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .counters import Counters, bit_width, charge_output
from .geom import ValidationError
from .range2d import NEG, POS, PL2


# ---------------------------------------------------------------------------
# 3-d dominance reporting


class Dominance3:
    """Report all points >= q component-wise, exactly.

    Points in x-descending order are chunked into fixed-size canonical
    blocks; each block holds a y-sorted arrangement with a max-z segment
    tree, so a query decomposes into whole-block (y, z) searches plus one
    partial-block scan.
    """

    BLOCK = 256

    def __init__(self, points, ids=None, reflect=(False, False, False), universes=None):
        pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
        self.n = len(pts)
        self.reflect = tuple(reflect)
        self.universes = universes
        if any(reflect):
            if universes is None:
                raise ValidationError("reflection requires universes")
            pts = pts.copy()
            for a in range(3):
                if reflect[a]:
                    pts[:, a] = universes[a] - 1 - pts[:, a]
        self.ids = (
            np.arange(self.n, dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )
        w = bit_width(int(pts.max() + 1)) if self.n else 1
        self.bits_stored = self.n * (3 * w + bit_width(self.n + 1))
        if self.n == 0:
            return
        order = np.argsort(-pts[:, 0], kind="stable")
        self.px = pts[order, 0]
        self.py = pts[order, 1]
        self.pz = pts[order, 2]
        self.pid = self.ids[order]
        self.xasc = np.sort(pts[:, 0])
        B = self.BLOCK
        self.blocks = []
        for s in range(0, self.n - B + 1, B):
            ys = self.py[s : s + B]
            zs = self.pz[s : s + B]
            ids_b = self.pid[s : s + B]
            o = np.argsort(ys, kind="stable")
            ys, zs, ids_b = ys[o], zs[o], ids_b[o]
            seg = _build_maxseg(zs)
            self.blocks.append((ys, zs, ids_b, seg))

    def _reflect_q(self, q):
        if not any(self.reflect):
            return q
        return tuple(
            self.universes[a] - 1 - q[a] if self.reflect[a] else q[a] for a in range(3)
        )

    def query(self, q, counters: Counters | None = None) -> list[int]:
        if counters is not None:
            counters.dominance_query()
        if self.n == 0:
            return []
        qx, qy, qz = self._reflect_q(q)
        K = self.n - int(np.searchsorted(self.xasc, qx, side="left"))
        if counters is not None:
            counters.charge_search(self.n)
        if K == 0:
            return []
        out: list[int] = []
        B = self.BLOCK
        full = K // B
        for bi in range(full):
            ys, zs, ids_b, seg = self.blocks[bi]
            lo = int(np.searchsorted(ys, qy, side="left"))
            if counters is not None:
                counters.charge_search(B)
            if lo < B:
                _report_maxseg(seg, zs, ids_b, lo, B, qz, out)
        s = full * B
        if s < K:
            ys = self.py[s:K]
            mask = (ys >= qy) & (self.pz[s:K] >= qz)
            if counters is not None:
                counters.scan_cells(K - s)
            out.extend(self.pid[s:K][mask].tolist())
        return out


def _build_maxseg(zs):
    m = len(zs)
    size = 1 << max(0, (m - 1).bit_length())
    seg = np.full(2 * size, NEG, dtype=np.int64)
    seg[size : size + m] = zs
    for i in range(size - 1, 0, -1):
        seg[i] = max(seg[2 * i], seg[2 * i + 1])
    return seg


def _report_maxseg(seg, zs, ids_b, lo, hi, qz, out):
    """Append ids of positions in [lo, hi) with z >= qz (descend only into
    subtrees whose max z qualifies)."""
    size = len(seg) // 2
    stack = [(1, 0, size)]
    while stack:
        node, a, b = stack.pop()
        if b <= lo or a >= hi or seg[node] < qz:
            continue
        if node >= size:
            if node - size < len(ids_b):
                out.append(int(ids_b[node - size]))
            continue
        mid = (a + b) // 2
        stack.append((2 * node, a, mid))
        stack.append((2 * node + 1, mid, b))


def build_dominance3(points, ids=None, reflect=(False, False, False), universes=None) -> Dominance3:
    return Dominance3(points, ids=ids, reflect=reflect, universes=universes)


def query_dominance3(d: Dominance3, q, counters: Counters | None = None) -> list[int]:
    return charge_output(d.query(q, counters), counters)


# ---------------------------------------------------------------------------
# 2-d shallow cutting


@dataclass
class ShallowCutting2:
    t: int
    corners: list = field(default_factory=list)  # (a, b), x ascending
    conflicts: list = field(default_factory=list)  # point indices per corner
    bits_stored: int = 0

    def rightmost_corner_at_or_left(self, qx: int) -> int | None:
        """Index of the rightmost corner with a <= qx (staircase lookup)."""
        i = bisect_left(self.corners, (qx + 1, -(10**30))) - 1
        return i if i >= 0 else None


def build_cutting2(points, t: int, cover_floor: tuple[int, int] | None = None) -> ShallowCutting2:
    """t-shallow cutting of 2-d points (ids are positions).

    With ``cover_floor`` the staircase is anchored at that lower-left point,
    extending coverage to every integer query >= cover_floor; by default it
    is anchored at the points' per-axis minima (rank-grid coverage).
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    n = len(points)
    cut = ShallowCutting2(t=t)
    if n == 0:
        return cut
    px = [int(p[0]) for p in points]
    py = [int(p[1]) for p in points]
    fx = cover_floor[0] if cover_floor else min(px)
    fy = cover_floor[1] if cover_floor else min(py)

    if n <= t:
        cut.corners.append((fx, fy))
        cut.conflicts.append(list(range(n)))
        _finish_cutting2(cut, px, py)
        return cut

    order = sorted(range(n), key=lambda i: -px[i])
    s_trigger = max(1, math.ceil(t / 2))
    suffix: list[tuple[int, int]] = []  # (y, id) sorted ascending by y
    corners_rev: list[tuple[int, int]] = []
    conflicts_rev: list[list[int]] = []

    def threshold() -> int:
        if len(suffix) >= 2 * t + 1:
            return suffix[-(2 * t + 1)][0] + 1
        return fy

    def emit(a: int) -> None:
        b = threshold()
        if corners_rev and corners_rev[-1] == (a, b):
            return
        lo = bisect_left(suffix, (b, -1))
        corners_rev.append((a, b))
        conflicts_rev.append([pid for _, pid in suffix[lo:]])

    # Each emission is a pair: the corner at v+1 takes the threshold of the
    # pre-insert suffix (excluding v's own tie block), covering queries
    # strictly right of v however many points share the column; the corner
    # at v takes the post-insert threshold and covers the column itself.
    cols: list[list[int]] = []
    i = 0
    while i < n:
        j = i
        v = px[order[i]]
        while j < n and px[order[j]] == v:
            j += 1
        cols.append(order[i:j])
        i = j

    acc = 0
    for ci, block in enumerate(cols):
        v = px[block[0]]
        is_last = ci == len(cols) - 1
        fires = is_last or acc + len(block) >= s_trigger
        if fires:
            emit(v + 1)
        for pid in block:
            insort(suffix, (py[pid], pid))
        if fires:
            emit(v)
            acc = 0
            if is_last and fx < v:
                emit(fx)
        else:
            acc += len(block)
    cut.corners = corners_rev[::-1]
    cut.conflicts = conflicts_rev[::-1]
    _finish_cutting2(cut, px, py)
    return cut


def _finish_cutting2(cut: ShallowCutting2, px, py) -> None:
    w = bit_width(max(max(px, default=1), max(py, default=1)) + 2)
    cut.bits_stored = len(cut.corners) * 2 * w + sum(
        len(c) for c in cut.conflicts
    ) * bit_width(len(px) + 1)
    # staircase invariant: x ascending, b non-increasing
    for (a0, b0), (a1, b1) in zip(cut.corners, cut.corners[1:]):
        assert a0 < a1 and b0 >= b1, "cutting staircase violated"


# ---------------------------------------------------------------------------
# 3-d shallow cutting with FIND-ANY


@dataclass
class ShallowCutting3:
    t: int
    corners: list = field(default_factory=list)  # (a, b, c)
    conflicts: list = field(default_factory=list)
    subdivision: PL2 | None = None
    bits_stored: int = 0


class _Stair:
    """Live 2-d staircase of pareto-minimal corners (a ascending, b strictly
    descending).  A corner dominated by another live corner may be dropped
    without emitting its box: the dominator's eventual box covers a superset
    with a z-corner at most as high."""

    def __init__(self):
        self.entries: list[list] = []  # [a, b, conflict_ids]

    def _first_b_le(self, y: int) -> int:
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.entries[mid][1] <= y:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _last_a_le(self, x: int) -> int:
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.entries[mid][0] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def touch_range(self, x: int, y: int) -> range:
        """Indices of corners dominated by the point (x, y): a contiguous run."""
        hi = self._last_a_le(x)
        lo = self._first_b_le(y)
        return range(lo, hi + 1)

    def insert(self, a: int, b: int, conf: list) -> None:
        pos = self._last_a_le(a)
        if pos >= 0 and self.entries[pos][1] <= b:
            return  # dominated by an existing corner
        run = pos + 1
        end = run
        while end < len(self.entries) and self.entries[end][1] >= b:
            end += 1
        self.entries[run:end] = [[a, b, conf]]


def build_cutting3(points, t: int, cover_floor: tuple[int, int] | None = None) -> ShallowCutting3:
    if t < 1:
        raise ValidationError("t must be >= 1")
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    n = len(pts)
    cut = ShallowCutting3(t=t)
    if n == 0:
        return cut
    fx = cover_floor[0] if cover_floor else int(pts[:, 0].min())
    fy = cover_floor[1] if cover_floor else int(pts[:, 1].min())

    order = np.argsort(-pts[:, 2], kind="stable")
    px, py, pz = pts[order, 0], pts[order, 1], pts[order, 2]
    gid = order  # global point index per arrival
    pxl, pyl = px.tolist(), py.tolist()

    stair = _Stair()
    stair.insert(fx, fy, [])
    boxes: list[tuple[int, int, int]] = []
    box_conf: list[list[int]] = []

    i = 0
    while i < n:
        j = i
        zv = int(pz[i])
        while j < n and pz[j] == zv:
            j += 1
        pre_len: dict[int, int] = {}  # id(entry) -> conflict length before batch
        touched: list = []
        for k in range(i, j):
            x, y, g = pxl[k], pyl[k], int(gid[k])
            for ci in stair.touch_range(x, y):
                e = stair.entries[ci]
                if id(e) not in pre_len:
                    pre_len[id(e)] = len(e[2])
                    touched.append(e)
                e[2].append(g)
        over = [e for e in touched if len(e[2]) > 4 * t]
        if over:
            # z-corner zv+1: the same pre-batch dominator set over integers,
            # and it covers queries strictly between this batch and the last
            emit_c = zv + 1
            live_set = {id(e) for e in stair.entries}
            for e in over:
                if id(e) not in live_set:
                    continue  # already dropped by an earlier rebuild this batch
                a, b = e[0], e[1]
                boxes.append((a, b, emit_c))
                box_conf.append(e[2][: pre_len[id(e)]])
                stair.entries.remove(e)
                inq_idx = np.nonzero((px[:j] >= a) & (py[:j] >= b))[0]
                local = build_cutting2(
                    [(pxl[k], pyl[k]) for k in inq_idx.tolist()], t, cover_floor=(a, b)
                )
                for (la, lb), lc in zip(local.corners, local.conflicts):
                    stair.insert(la, lb, [int(gid[inq_idx[m]]) for m in lc])
                live_set = {id(x2) for x2 in stair.entries}
        prev_z = zv
        i = j

    # with an explicit cover floor the final boxes extend below the lowest z
    # as well: dominator sets are unchanged, so conflicts stay exact
    z_floor = NEG if cover_floor is not None else int(pz[-1])
    for e in stair.entries:
        boxes.append((e[0], e[1], z_floor))
        box_conf.append(e[2])

    # overflow-emitted boxes can still be dominated by later, deeper boxes
    keep_idx = _pareto_minima(boxes)
    cut.corners = [boxes[i] for i in keep_idx]
    cut.conflicts = [box_conf[i] for i in keep_idx]
    boxes = cut.corners
    box_conf = cut.conflicts
    w = bit_width(int(pts.max()) + 2)
    cut.bits_stored = len(boxes) * 3 * w + sum(len(c) for c in box_conf) * bit_width(n + 1)
    cut.subdivision = _build_findany_subdivision(boxes, w)
    return cut


def _pareto_minima(boxes: list[tuple[int, int, int]]) -> list[int]:
    """Indices of boxes not dominated (component-wise <=) by any other box."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i])
    stair: list[tuple[int, int]] = []  # (b, c): b ascending, c descending
    keep = []
    for i in order:
        _, b, c = boxes[i]
        pos = bisect_left(stair, (b + 1, -(10**30))) - 1
        if pos >= 0 and stair[pos][1] <= c:
            continue  # dominated by an earlier (a'<=a, b'<=b, c'<=c) box
        keep.append(i)
        run = pos + 1
        end = run
        while end < len(stair) and stair[end][1] >= c:
            end += 1
        stair[run:end] = [(b, c)]
        if run > 0 and stair[run - 1][0] == b:
            del stair[run - 1]
    keep.sort()
    return keep


def _build_findany_subdivision(boxes, coord_width) -> PL2 | None:
    """Painter's sweep over boxes by ascending (z-corner, id): each newly
    visible quadrant contributes its uncovered part as disjoint labeled
    rectangles; the labels realize the minimum-z-corner rule."""
    if not boxes:
        return None
    order = sorted(range(len(boxes)), key=lambda i: (boxes[i][2], i))
    stair: list[tuple[int, int]] = []  # minimal corners, x asc / y desc
    rx1, rx2, ry1, ry2, lab = [], [], [], [], []

    def add_rect(x1, x2, y1, y2, label):
        if x2 is not None and x1 is not None and x1 > x2:
            return
        if y2 is not None and y1 is not None and y1 > y2:
            return
        rx1.append(NEG if x1 is None else x1)
        rx2.append(POS if x2 is None else x2)
        ry1.append(NEG if y1 is None else y1)
        ry2.append(POS if y2 is None else y2)
        lab.append(label)

    for bi in order:
        a, b, _ = boxes[bi]
        # covered already? rightmost staircase corner with a' <= a has min b'
        pos = bisect_left(stair, (a + 1, -(10**30))) - 1
        if pos >= 0 and stair[pos][1] <= b:
            continue
        # staircase corners >= (a, b): contiguous run starting after pos
        run_start = pos + 1
        run_end = run_start
        while run_end < len(stair) and stair[run_end][1] >= b:
            run_end += 1
        removed = stair[run_start:run_end]
        bL = stair[pos][1] if pos >= 0 else None  # > b by the visibility test
        aR = stair[run_end][0] if run_end < len(stair) else None
        edges = [a] + [ra for ra, _ in removed] + [aR]
        tops = ([bL] if bL is not None else [None]) + [rb for _, rb in removed]
        for k in range(len(edges) - 1):
            x_lo = edges[k]
            x_hi = None if edges[k + 1] is None else edges[k + 1] - 1
            y_hi = None if tops[k] is None else tops[k] - 1
            add_rect(x_lo, x_hi, b, y_hi, bi)
        stair[run_start:run_end] = [(a, b)]
        # keep the staircase strictly monotone when a duplicates neighbor x
        if run_start > 0 and stair[run_start - 1][0] == a:
            del stair[run_start - 1]
    return PL2(rx1, rx2, ry1, ry2, lab, coord_width=coord_width)


def find_any(c3: ShallowCutting3, qx: int, qy: int, counters: Counters | None = None) -> int | None:
    """Label of the minimum-z-corner cutting box whose footprint covers
    (qx, qy), or None.  The returned box B satisfies B.a <= qx, B.b <= qy
    and B.c <= X.c for every box X containing (qx, qy, z) for any z."""
    if c3.subdivision is None:
        return None
    return c3.subdivision.query(qx, qy, counters)
