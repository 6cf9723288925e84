"""3-d dominance reporting and 2-d/3-d shallow cuttings with FIND-ANY.

Dominance reporting keeps the points x descending in flat stdlib columns
and finds a query's x prefix with one bisect.  From a fixed size on, it also
cuts them into canonical blocks, each a y-sorted copy and nothing more: a
query reports the whole blocks of its x prefix with one y search per block
and one vector z compare over that block's y-suffix.  The rows of the prefix
past its whole blocks are scanned.

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
No conflict list of a 3-d cutting of at most 4t points can overflow, so
such a cutting is its one floor box, built without the sweep.

One staircase of pareto-minimal corners, ``_Stair``, holds the sweep's live
corners and runs the FIND-ANY painter's sweep; under its one tie rule a new corner replaces a
live corner with the same a and a larger b.

Both cuttings run on plain lists of Python ints and search with bisect: the
array front ends convert their input once, and top-k dominance hands its
columns to the 3-d core directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .counters import Counters, bit_width, charge_output
from .geom import ValidationError, query_coord
from .range2d import NEG, POS, PL2, int64_array


# ---------------------------------------------------------------------------
# 3-d dominance reporting


# A query's rows past its last whole block are scanned by one comprehension
# when fewer than SCAN_ROWS, else by one numpy mask over zero-copy views of
# the columns.  The two tie at 48-56 rows: us per scan, min of 25
# interleaved timeit rounds over 255-point columns of four-digit values, on
# a shared 2-vCPU guest (ROADMAP.md, "Measured constants that code
# comments cite", has the table).
SCAN_ROWS = 48
_I64 = np.dtype(np.int64)


class Dominance3:
    """Report all points >= q component-wise, exactly.

    Every axis asks >=; a caller that needs <= on an axis negates that
    coordinate of the points and of the query, as stab5's grid walk does.
    The points are kept x descending, ties in input order, as ``array('q')``
    columns of -x (ascending), y, z and id, so a query's x prefix, the K
    points with x >= qx, is found by one ``bisect``.  Two forms, by size:

    * fewer than ``BLOCK`` points: nothing else; a query scans its K-row
      prefix;
    * otherwise the points are also cut into canonical blocks of ``BLOCK``,
      each a y-sorted numpy copy: a query takes the whole blocks of its
      prefix with one y search and one vector z compare over the block's
      y-suffix, and scans the rows past them.

    A query reports block by block, then the scanned rows in stored order,
    and charges one search over the n points, one over each whole block,
    and one cell per scanned row.
    """

    BLOCK = 256

    __slots__ = ("n", "bits_stored", "negx", "py", "pz", "pid", "blocks")

    def __init__(self, xs, ys, zs, ids):
        """The points of the int64 columns of x, y, z and id."""
        self.n = n = len(xs)
        negx = -xs
        order = np.argsort(negx, kind="stable")
        self.negx = int64_array(negx[order])
        py, pz, pid = ys[order], zs[order], ids[order]
        self.py, self.pz, self.pid = map(int64_array, (py, pz, pid))
        self.blocks = []
        if n < self.BLOCK:
            top = max(-self.negx[0], max(self.py), max(self.pz)) if n else 0
        else:
            top = max(-self.negx[0], int(py.max()), int(pz.max()))
            B = self.BLOCK
            for s in range(0, n - B + 1, B):
                o = s + np.argsort(py[s : s + B], kind="stable")
                self.blocks.append((py[o], pz[o], pid[o]))
        self.bits_stored = n * (3 * bit_width(top + 1) + bit_width(n + 1))

    def query(self, q, counters: Counters | None = None) -> list[int]:
        if counters is not None:
            counters.dominance_query()
        n = self.n
        if n == 0:
            return []
        qx, qy, qz = q
        K = bisect_right(self.negx, -qx)
        if counters is not None:
            counters.charge_search(n)
        B = self.BLOCK
        full = K // B
        out: list[int] = []
        for ys, zs, ids_b in self.blocks[:full]:
            lo = int(ys.searchsorted(qy))
            if counters is not None:
                counters.charge_search(B)
            if lo < B:
                out.extend(ids_b[lo:][zs[lo:] >= qz].tolist())
        s = full * B
        if s == K:
            return out
        if counters is not None:
            counters.scan_cells(K - s)
        py, pz, pid = self.py, self.pz, self.pid
        if K - s < SCAN_ROWS:
            hits = [pid[i] for i in range(s, K) if py[i] >= qy and pz[i] >= qz]
        else:
            m = np.frombuffer(py, _I64, K - s, 8 * s) >= qy
            m &= np.frombuffer(pz, _I64, K - s, 8 * s) >= qz
            hits = np.frombuffer(pid, _I64, K - s, 8 * s)[m].tolist()
        if not out:
            return hits
        out.extend(hits)
        return out


def build_dominance3(points, ids=None) -> Dominance3:
    """Dominance3 over 3-d points, an (n, 3) array or a list of triples;
    ids default to positions."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    ids = np.arange(len(pts), dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    return Dominance3(*pts.T, ids)


def query_dominance3(d: Dominance3, q, counters: Counters | None = None) -> list[int]:
    return charge_output(d.query(tuple(map(query_coord, q)), counters), counters)


# ---------------------------------------------------------------------------
# 2-d shallow cutting


_A = itemgetter(0)
_NEG_B = itemgetter(1)


@dataclass
class ShallowCutting2:
    t: int
    corners: list = field(default_factory=list)  # (a, b), x ascending
    conflicts: list = field(default_factory=list)  # point indices per corner
    bits_stored: int = 0

    def rightmost_corner_at_or_left(self, qx: int) -> int | None:
        """Index of the rightmost corner with a <= qx (staircase lookup)."""
        i = bisect_right(self.corners, query_coord(qx), key=_A) - 1
        return i if i >= 0 else None


def build_cutting2(points, t: int, cover_floor: tuple[int, int] | None = None) -> ShallowCutting2:
    """t-shallow cutting of 2-d points, an (n, 2) array or a list of
    pairs (ids are positions).

    With ``cover_floor`` the staircase is anchored at that lower-left point,
    extending coverage to every integer query >= cover_floor; by default it
    is anchored at the points' per-axis minima (rank-grid coverage).
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    cut = ShallowCutting2(t=t)
    if not len(pts):
        return cut
    px, py = pts.T.tolist()
    cut.corners, cut.conflicts = _cutting2(px, py, t, *(cover_floor or (min(px), min(py))))
    w = bit_width(max(max(px), max(py)) + 2)
    cut.bits_stored = len(cut.corners) * 2 * w + sum(map(len, cut.conflicts)) * bit_width(len(px) + 1)
    return cut


def _cutting2(px: list, py: list, t: int, fx: int, fy: int) -> tuple[list, list]:
    """Corners (x ascending) and conflict lists (positions) of the t-shallow
    cutting of the points of columns ``px``, ``py``, anchored at (fx, fy)."""
    n = len(px)
    if n <= t:
        return [(fx, fy)], [list(range(n))]
    order = sorted(range(n), key=px.__getitem__, reverse=True)
    s_trigger = max(1, math.ceil(t / 2))
    suffix: list[tuple[int, int]] = []  # (y, id) sorted ascending by y
    corners: list[tuple[int, int]] = []  # built x descending
    conflicts: list[list[int]] = []

    def emit(a: int) -> None:
        b = suffix[-(2 * t + 1)][0] + 1 if len(suffix) >= 2 * t + 1 else fy
        if corners and corners[-1] == (a, b):
            return
        lo = bisect_left(suffix, (b, -1))
        corners.append((a, b))
        conflicts.append([pid for _, pid in suffix[lo:]])

    # Each emission is a pair: the corner at v+1 takes the threshold of the
    # pre-insert suffix (excluding v's own tie block), covering queries
    # strictly right of v however many points share the column; the corner
    # at v takes the post-insert threshold and covers the column itself.
    acc = 0
    i = 0
    while i < n:
        v = px[order[i]]
        j = i + 1
        while j < n and px[order[j]] == v:
            j += 1
        fires = j == n or acc + j - i >= s_trigger
        if fires:
            emit(v + 1)
        for pid in order[i:j]:
            insort(suffix, (py[pid], pid))
        if fires:
            emit(v)
            acc = 0
            if j == n and fx < v:
                emit(fx)
        else:
            acc += j - i
        i = j
    corners.reverse()
    conflicts.reverse()
    # staircase invariant: x ascending, b non-increasing
    for (a0, b0), (a1, b1) in zip(corners, corners[1:]):
        assert a0 < a1 and b0 >= b1, "cutting staircase violated"
    return corners, conflicts


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
    """Staircase of pareto-minimal 2-d corners (a ascending, b strictly
    descending); entries are [a, -b, payload], so both axes bisect
    ascending.  A new corner that a live corner is <= on both axes is not
    inserted; otherwise it replaces the live corners that it is <= on both
    axes, a live corner with the same a and a larger b among them.  In the
    3-d sweep a dominated corner may be dropped without emitting its box:
    the dominator's eventual box covers a superset with a z-corner at most
    as high."""

    def __init__(self):
        self.entries: list[list] = []

    def touched(self, x: int, y: int) -> list[list]:
        """The corners dominated by the point (x, y): a contiguous run from
        the first corner with b <= y to the last with a <= x."""
        e = self.entries
        return e[bisect_left(e, -y, key=_NEG_B) : bisect_right(e, x, key=_A)]

    def insert(self, a: int, b: int, payload=None) -> tuple[list[list], int] | None:
        """None when a live corner is <= (a, b); else the live corners that
        (a, b) replaced, a ascending, and the new corner's index."""
        e = self.entries
        run = bisect_right(e, a, key=_A)
        if run and -e[run - 1][1] <= b:
            return None
        start = run - 1 if run and e[run - 1][0] == a else run
        end = run
        while end < len(e) and -e[end][1] >= b:
            end += 1
        removed = e[start:end]
        e[start:end] = [[a, -b, payload]]
        return removed, start


def build_cutting3(points, t: int, cover_floor: tuple[int, int] | None = None) -> ShallowCutting3:
    """t-shallow cutting of 3-d points, an (n, 3) array or a list of
    triples (ids are positions), with its FIND-ANY subdivision;
    ``cover_floor`` as in build_cutting2."""
    if t < 1:
        raise ValidationError("t must be >= 1")
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    return _cutting3(*pts.T.tolist(), t, cover_floor)


def _cutting3(xs, ys, zs, t: int, cover_floor: tuple[int, int] | None = None) -> ShallowCutting3:
    """build_cutting3 over the points of the columns ``xs``, ``ys``, ``zs``,
    sequences of ints."""
    n = len(xs)
    cut = ShallowCutting3(t=t)
    if n == 0:
        return cut
    fx, fy = cover_floor or (min(xs), min(ys))
    order = sorted(range(n), key=zs.__getitem__, reverse=True)  # ties in input order
    # with an explicit cover floor the final boxes extend below the lowest z
    # as well: dominator sets are unchanged, so conflicts stay exact
    z_floor = NEG if cover_floor is not None else zs[order[-1]]
    if n <= 4 * t:
        # no conflict list can overflow: the floor box is the whole cutting.
        # The sweep gives the same cutting, but a topk-grid build (gen seed
        # 21) took about 8% longer without this shortcut: 1.021-1.037 s
        # against 0.937-0.964 s, minimum of 5 builds in each of three
        # interleaved rounds on a shared 2-vCPU guest
        boxes = [(fx, fy, z_floor)]
        box_conf = [[g for g in order if xs[g] >= fx and ys[g] >= fy]]
    else:
        boxes, box_conf = _sweep3([xs[g] for g in order], [ys[g] for g in order],
                                  [zs[g] for g in order], order, t, fx, fy, z_floor)
    cut.corners, cut.conflicts = boxes, box_conf
    w = bit_width(max(max(xs), max(ys), max(zs)) + 2)
    cut.bits_stored = len(boxes) * 3 * w + sum(map(len, box_conf)) * bit_width(n + 1)
    cut.subdivision = _build_findany_subdivision(boxes, w)
    return cut


def _sweep3(px, py, pz, gid, t, fx, fy, z_floor) -> tuple[list, list]:
    """Boxes and conflict lists of the 3-d cutting of the points in arrival
    order (z descending), ``gid`` their ids (see the module docstring).

    No box is dominated by another, so the output needs no filter.  Live
    corners are pareto-minimal, so the corners that rebuild an overflowing
    corner e, each >= e and not e, replace no live corner, and every corner
    inserted later is >= one then live, so none is <= e.  The boxes of one
    batch share their z-corner and come from incomparable live corners, and
    later boxes have lower z-corners."""
    n = len(px)
    lim = 4 * t
    stair = _Stair()
    stair.insert(fx, fy, [])
    entries = stair.entries
    boxes: list[tuple[int, int, int]] = []
    box_conf: list[list[int]] = []
    i = 0
    while i < n:
        zv = pz[i]
        j = i + 1
        while j < n and pz[j] == zv:
            j += 1
        full = False
        for k in range(i, j):
            g = gid[k]
            for e in stair.touched(px[k], py[k]):
                conf = e[2]
                conf.append(g)
                if len(conf) > lim:
                    full = True
        if full:
            batch = range(i, j)
            touched = {}  # id -> corner, in order of first touch
            for k in batch:
                for e in stair.touched(px[k], py[k]):
                    touched[id(e)] = e
            # z-corner zv+1: the same pre-batch dominator set over integers,
            # and it covers queries strictly between this batch and the last
            emit_c = zv + 1
            for e in [e for e in touched.values() if len(e[2]) > lim]:
                a, b, conf = e[0], -e[1], e[2]
                boxes.append((a, b, emit_c))
                box_conf.append(conf[: len(conf) - sum(px[k] >= a and py[k] >= b for k in batch)])
                entries.remove(e)
                inq = [k for k in range(j) if px[k] >= a and py[k] >= b]
                corners, confs = _cutting2([px[k] for k in inq], [py[k] for k in inq], t, a, b)
                for (la, lb), lc in zip(corners, confs):
                    stair.insert(la, lb, [gid[inq[c]] for c in lc])
        i = j

    for a, nb, conf in entries:
        boxes.append((a, -nb, z_floor))
        box_conf.append(conf)
    return boxes, box_conf


def _build_findany_subdivision(boxes, coord_width) -> PL2 | None:
    """Painter's sweep over boxes by ascending (z-corner, id): each newly
    visible quadrant contributes its uncovered part as disjoint labeled
    rectangles; the labels realize the minimum-z-corner rule."""
    if not boxes:
        return None
    if len(boxes) == 1:  # one quadrant, the whole box visible
        a, b, _ = boxes[0]
        return PL2([a], [POS], [b], [POS], [0], coord_width=coord_width)
    stair = _Stair()
    e = stair.entries
    rx1, rx2, ry1, ry2, lab = [], [], [], [], []
    for bi in sorted(range(len(boxes)), key=lambda i: (boxes[i][2], i)):
        a, b, _ = boxes[bi]
        got = stair.insert(a, b)
        if got is None:
            continue  # covered already
        removed, i = got
        # the newly visible part of [a, POS] x [b, POS]: one rectangle per
        # step of the old staircase over it, from the left neighbour's b to
        # the right neighbour's a, POS + 1 standing for a missing neighbour
        edges = [a] + [r[0] for r in removed] + [e[i + 1][0] if i + 1 < len(e) else POS + 1]
        tops = [-e[i - 1][1] if i else POS + 1] + [-r[1] for r in removed]
        for x1, x2, top in zip(edges, edges[1:], tops):
            if x1 < x2 and b < top:
                rx1.append(x1)
                rx2.append(x2 - 1)
                ry1.append(b)
                ry2.append(top - 1)
                lab.append(bi)
    return PL2(rx1, rx2, ry1, ry2, lab, coord_width=coord_width)


def find_any(c3: ShallowCutting3, qx: int, qy: int, counters: Counters | None = None) -> int | None:
    """Label of the minimum-z-corner cutting box whose footprint covers
    (qx, qy), or None.  The returned box B satisfies B.a <= qx, B.b <= qy
    and B.c <= X.c for every box X containing (qx, qy, z) for any z."""
    if c3.subdivision is None:
        return None
    return c3.subdivision.query(qx, qy, counters)
