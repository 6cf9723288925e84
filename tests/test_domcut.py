import hashlib
import itertools

import numpy as np
import pytest

from boxstab import range2d
from boxstab.counters import Counters
from boxstab.domcut import (
    Dominance3,
    _build_findany_subdivision,
    _Stair,
    build_cutting2,
    build_cutting3,
    build_dominance3,
    find_any,
    query_dominance3,
)
from boxstab.geom import NEG, POS, ValidationError
from boxstab.oracle import brute_dominance, brute_topk_dominance, verify_cutting
from boxstab.verify import STRUCTURES


def rand_points(n, U, seed, dim=3):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.integers(0, U, dim)) for _ in range(n)]


# Five full Dominance3 blocks plus a partial one.  y and z take few values
# and drift with x, so every block has its own y and z range and long runs
# of ties.
FULL_U = (96, 10, 8)


def full_block_points(seed=41):
    n = 5 * Dominance3.BLOCK + 17
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, FULL_U[0], n)
    ys = xs // 12 + rng.integers(0, 3, n)
    zs = (FULL_U[0] - 1 - xs) // 16 + rng.integers(0, 3, n)
    return [(int(x), int(y), int(z)) for x, y, z in zip(xs, ys, zs)]


def _mirror(p, reflect):
    return tuple(u - 1 - c if r else c for c, r, u in zip(p, reflect, FULL_U))


def _negate(p, reflect):
    return tuple(-c if r else c for c, r in zip(p, reflect))


class TestDominance3:
    def test_all_and_none(self):
        pts = rand_points(50, 20, 0)
        d = build_dominance3(pts)
        assert set(query_dominance3(d, (0, 0, 0))) == set(range(50))
        assert query_dominance3(d, (20, 20, 20)) == []

    def test_matches_oracle(self):
        pts = rand_points(500, 64, 1)
        d = build_dominance3(pts)
        rng = np.random.default_rng(2)
        for _ in range(500):
            q = tuple(int(v) for v in rng.integers(0, 64, 3))
            assert set(query_dominance3(d, q)) == brute_dominance(pts, q)

    def test_no_duplicates(self):
        pts = rand_points(700, 8, 3)  # heavy ties
        d = build_dominance3(pts)
        for q in rand_points(50, 8, 4):
            res = query_dominance3(d, q)
            assert len(res) == len(set(res))

    def test_reflection(self):
        # negating an axis on both sides turns >= into <= there
        pts = rand_points(200, 32, 5)
        reflect = (True, False, True)
        d = build_dominance3([_negate(p, reflect) for p in pts])
        rng = np.random.default_rng(6)
        for _ in range(100):
            q = tuple(int(v) for v in rng.integers(0, 32, 3))
            expect = {
                i
                for i, p in enumerate(pts)
                if p[0] <= q[0] and p[1] >= q[1] and p[2] <= q[2]
            }
            assert set(query_dominance3(d, _negate(q, reflect))) == expect

    def test_custom_ids(self):
        pts = [(5, 5, 5), (9, 9, 9)]
        d = build_dominance3(pts, ids=[42, 17])
        assert set(query_dominance3(d, (6, 6, 6))) == {17}

    def test_full_blocks_every_orientation(self):
        # queries on and one step beside each full block's extreme y and z,
        # with x at the block's last point (the block is whole) and one past;
        # the points and queries of each orientation are negated on its
        # reflected axes, and the queries are picked in the mirror image
        # c -> U - 1 - c, which orders every axis as the negation does
        B = Dominance3.BLOCK
        pts = full_block_points()
        n = len(pts)
        for reflect in itertools.product((False, True), repeat=3):
            d = build_dominance3([_negate(p, reflect) for p in pts])
            inner = [_mirror(p, reflect) for p in pts]
            order = sorted(range(n), key=lambda i: -inner[i][0])
            queries = set()
            for s in range(0, n - B + 1, B):
                block = [inner[i] for i in order[s : s + B]]
                near = [
                    {v + dv for v in (min(vs), max(vs)) for dv in (-1, 0, 1)}
                    for vs in ([p[1] for p in block], [p[2] for p in block])
                ]
                last_x = block[-1][0]
                queries.update(itertools.product((last_x, last_x + 1), *near))
            for qi in sorted(queries):
                res = query_dominance3(d, _negate(_mirror(qi, reflect), reflect))
                assert len(res) == len(set(res)), (reflect, qi)
                assert set(res) == brute_dominance(inner, qi), (reflect, qi)

    def test_full_block_counters_pinned(self):
        # summed counters of 200 seeded queries: however a full block
        # reports, it charges exactly these operations
        d = build_dominance3(full_block_points())
        rng = np.random.default_rng(43)
        c = Counters()
        for _ in range(200):
            query_dominance3(d, tuple(int(rng.integers(-1, u + 1)) for u in FULL_U), c)
        got = (c.predecessor_steps, c.nodes_visited, c.dominance_queries, c.cells_scanned, c.output_size)
        assert got == (6720, 0, 200, 25973, 39398)


# Every size around the block boundary, on a 6-value grid: long runs of
# ties on every axis.  Summed counters of each size's 200 seeded queries.
BOUNDARY_PINS = {
    1: (400, 0, 200, 107, 54),
    7: (800, 0, 200, 987, 250),
    Dominance3.BLOCK - 1: (1800, 0, 200, 29636, 8642),
    Dominance3.BLOCK: (2510, 0, 200, 14823, 9033),
    Dominance3.BLOCK + 1: (2610, 0, 200, 13667, 8992),
}


@pytest.mark.parametrize("n", list(BOUNDARY_PINS))
def test_block_boundary_answers_and_counters(n):
    # below BLOCK points the answer is the x prefix in stored order: x
    # descending, ties by input position; from BLOCK points on, whole blocks
    # report first, so only the set is fixed
    pts = rand_points(n, 6, n)
    d = build_dominance3(pts)
    rng = np.random.default_rng(n + 1)
    c = Counters()
    for _ in range(200):
        q = tuple(int(v) for v in rng.integers(-1, 7, 3))
        got = query_dominance3(d, q, c)
        expect = brute_dominance(pts, q)
        if n < Dominance3.BLOCK:
            assert got == sorted(expect, key=lambda i: (-pts[i][0], i)), q
        else:
            assert len(got) == len(set(got)) and set(got) == expect, q
    got = (c.predecessor_steps, c.nodes_visited, c.dominance_queries, c.cells_scanned, c.output_size)
    assert got == BOUNDARY_PINS[n]


class TestCutting2:
    def test_small_single_corner(self):
        pts = rand_points(10, 100, 7, dim=2)
        cut = build_cutting2(pts, t=16)
        assert cut.corners == [(min(p[0] for p in pts), min(p[1] for p in pts))]
        assert sorted(cut.conflicts[0]) == list(range(10))

    def test_empty(self):
        cut = build_cutting2([], t=4)
        assert cut.corners == []
        rep = verify_cutting(cut, [], 4)
        assert rep.ok

    def test_verifier_passes(self):
        for n, t in [(256, 4), (256, 16), (1024, 16), (1000, 16), (1024, 64)]:
            pts = rand_points(n, 4 * n, seed=n + t, dim=2)
            cut = build_cutting2(pts, t)
            rep = verify_cutting(cut, pts, t)
            assert rep.ok, (n, t, rep)

    def test_verifier_catches_bad_coverage(self):
        pts = [(i, i) for i in range(64)]
        cut = build_cutting2(pts, t=4)
        cut.corners = [c for c in cut.corners[len(cut.corners) // 2 :]]
        cut.conflicts = cut.conflicts[len(cut.conflicts) // 2 :]
        rep = verify_cutting(cut, pts, 4)
        assert not rep.coverage_ok

    def test_verifier_catches_fat_conflicts(self):
        pts = rand_points(200, 400, 9, dim=2)
        cut = build_cutting2(pts, t=4)
        cut.conflicts[0] = list(range(200))
        rep = verify_cutting(cut, pts, 4)
        assert not rep.conflict_ok

    def test_floor_mode_covers_below_minima(self):
        pts = [(50 + i, 50 + i) for i in range(40)]
        cut = build_cutting2(pts, t=8, cover_floor=(-1, -1))
        # a query far left with few dominators must lie in some cell
        q = (0, 88)  # dominators: points with y >= 88, i.e. 2 of them
        assert sum(1 for p in pts if p[0] >= q[0] and p[1] >= q[1]) <= 8
        assert any(a <= q[0] and b <= q[1] for a, b in cut.corners)

    def test_ties_heavy(self):
        rng = np.random.default_rng(11)
        pts = [(int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(600)]
        for t in (1, 4, 16):
            cut = build_cutting2(pts, t)
            rep = verify_cutting(cut, pts, t)
            assert rep.coverage_ok and rep.conflict_ok, (t, rep)

    @pytest.mark.parametrize("qx", ["3", None, 1.5, np.float64(0.5)])
    def test_non_integer_query_rejected(self, qx):
        # the corner lookup compares qx with the corners' a: 1.5 would be
        # answered and "3" or None would raise a raw TypeError
        cut = build_cutting2([(0, 5), (1, 4), (2, 3)], t=1)
        with pytest.raises(ValidationError):
            cut.rightmost_corner_at_or_left(qx)
        assert cut.rightmost_corner_at_or_left(np.int64(1)) == cut.rightmost_corner_at_or_left(1)


class TestCutting3:
    def test_trivial_small(self):
        pts = rand_points(8, 64, 13)
        cut = build_cutting3(pts, t=16)
        rep = verify_cutting(cut, pts, 16)
        assert rep.ok, rep

    def test_verifier_matrix_small(self):
        for n, t in [(256, 4), (256, 16), (512, 16), (700, 64)]:
            pts = rand_points(n, 4 * n, seed=3 * n + t)
            cut = build_cutting3(pts, t)
            rep = verify_cutting(cut, pts, t)
            assert rep.ok, (n, t, rep)

    def test_find_any_single_box(self):
        pts = [(5, 5, 5)]
        cut = build_cutting3(pts, t=4)
        assert find_any(cut, 5, 5) is not None
        assert find_any(cut, 100, 100) is not None

    @pytest.mark.parametrize("q", [("3", 1), (None, 1), (5.5, 6.5), (6, np.float64(6.5))])
    def test_cut3_row_rejects_non_integer_query(self, q):
        # verify's cut3 row checks the query, since find_any itself runs in
        # every top-k tier walk: "3" used to raise a raw TypeError and
        # (5.5, 6.5) was answered
        row = STRUCTURES["cut3"]
        cut = build_cutting3([(5, 5, 5)], t=4)
        with pytest.raises(ValidationError):
            row.query(cut, q, None)
        assert row.query(cut, (np.int64(6), 6), None) == find_any(cut, 6, 6) == 0

    def test_find_any_left_of_corners(self):
        pts = [(50, 50, 5), (60, 60, 6)]
        cut = build_cutting3(pts, t=4)
        assert find_any(cut, 0, 0) is None

    def test_find_any_label_minimality(self):
        rng = np.random.default_rng(17)
        pts = rand_points(300, 600, 19)
        cut = build_cutting3(pts, t=8)
        boxes = cut.corners
        for _ in range(400):
            qx, qy = int(rng.integers(-2, 650)), int(rng.integers(-2, 650))
            got = find_any(cut, qx, qy)
            covering = [i for i, (a, b, c) in enumerate(boxes) if a <= qx and b <= qy]
            if not covering:
                assert got is None
            else:
                best = min(covering, key=lambda i: (boxes[i][2], i))
                assert got == best, (qx, qy, got, best)

    def test_find_any_topk_containment(self):
        # the located cell's conflict list contains the brute top-min(t,k)
        # dominators whenever the dominator count is <= t
        rng = np.random.default_rng(23)
        n, t = 500, 8
        pts = rand_points(n, 256, 29, dim=2)
        weights = [int(rng.integers(0, 1000)) for _ in range(n)]
        lifted = [(x, y, n - 1 - r) for (x, y), r in zip(
            pts, np.argsort(np.argsort([(-w, i) for i, w in enumerate(weights)], axis=0)[:, 0] if False else
                            sorted(range(n), key=lambda i: (-weights[i], i))).tolist()
        )]
        # simpler: rank points by (weight desc, id asc); z = n-1-rank
        rank_order = sorted(range(n), key=lambda i: (-weights[i], i))
        zrank = [0] * n
        for pos, i in enumerate(rank_order):
            zrank[i] = n - 1 - pos
        lifted = [(pts[i][0], pts[i][1], zrank[i]) for i in range(n)]
        cut = build_cutting3(lifted, t)
        wpts = [(i, pts[i], weights[i]) for i in range(n)]
        for _ in range(200):
            q = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
            doms = brute_dominance(pts, q)
            if not doms or len(doms) > t:
                continue
            k = min(t, len(doms))
            expect = brute_topk_dominance(wpts, q, k)
            label = find_any(cut, q[0], q[1])
            assert label is not None
            conf = set(cut.conflicts[label])
            assert set(expect) <= conf


def _dominates(p, q):
    return p[0] <= q[0] and p[1] <= q[1]


@pytest.mark.parametrize("seed", range(10))
def test_stair_against_brute(seed):
    # after every insert the entries are the pareto-minimal corners so far
    # (of equal corners the first), a ascending and b strictly descending;
    # insert answers None exactly when a live corner is <= the new one, and
    # otherwise exactly the live corners the new one is <= on both axes
    rng = np.random.default_rng(600 + seed)
    stair, seen = _Stair(), []
    for k in range(80):
        a, b = (int(v) for v in rng.integers(0, 6, 2))
        live = [(e[0], -e[1], e[2]) for e in stair.entries]
        got = stair.insert(a, b, k)
        if any(_dominates(c, (a, b)) for c in live):
            assert got is None
        else:
            removed, i = got
            assert [(r[0], -r[1], r[2]) for r in removed] == [c for c in live if _dominates((a, b), c)]
            assert stair.entries[i] == [a, -b, k]
        seen.append((a, b, k))
        minimal = sorted(c for c in seen if not any(_dominates(d, c) and (d[:2] != c[:2] or d[2] < c[2]) for d in seen))
        assert [(e[0], -e[1], e[2]) for e in stair.entries] == minimal
        assert all(p[0] < q[0] and p[1] > q[1] for p, q in zip(minimal, minimal[1:]))


def _tie_heavy_inputs():
    """Points from three values per axis, 13 to 200 of them, so that batches
    of equal z overflow several corners at once; t from 1 to 3."""
    for case in range(40):
        rng = np.random.default_rng(7500 + case)
        t = 1 + case % 3
        yield rng.integers(0, 3, (int(rng.integers(4 * t + 1, 201)), 3)), t, None


@pytest.mark.parametrize("seed", range(10))
def test_pareto_minima_against_brute(seed):
    # the boxes of a 3-d cutting are its pareto minima: brute force finds
    # none <= another on all three axes, so _sweep3 keeps no dominance
    # filter (its docstring gives the argument).  Seed s takes every tenth
    # input from s on; in each tenth the sweep emits overflow boxes above
    # the floor in more than ten inputs
    swept = 0
    inputs = itertools.chain(cutting_inputs(), _tie_heavy_inputs())
    for pts, t, floor in itertools.islice(inputs, seed, None, 10):
        boxes = np.array(build_cutting3(pts, t, cover_floor=floor).corners).reshape(-1, 3)
        le = (boxes[:, None, :] <= boxes[None, :, :]).all(axis=2)
        np.fill_diagonal(le, False)
        assert not le.any(), (pts.tolist(), t, floor)
        swept += len(set(boxes[:, 2].tolist())) > 1
    assert swept > 10


@pytest.mark.parametrize("seed", range(12))
def test_findany_subdivision_against_brute(seed):
    # disjoint rectangles, and every grid point, the clip band's NEG // 2
    # and POS // 2 included, labeled by the covering box of least
    # (z-corner, index)
    rng = np.random.default_rng(800 + seed)
    pool = [NEG // 2, 0, 1, 2, 3, POS // 2]
    boxes = [tuple(int(v) for v in rng.choice(pool, 3)) for _ in range(int(rng.integers(1, 12)))]
    sub = _build_findany_subdivision(boxes, 64)
    rects = list(zip(sub.x1, sub.x2, sub.y1, sub.y2, sub.label))
    for r, s in itertools.combinations(rects, 2):
        assert r[1] < s[0] or s[1] < r[0] or r[3] < s[2] or s[3] < r[2], (r, s)
    grid = sorted({v + d for v in pool for d in (-1, 0, 1)})
    for qx, qy in itertools.product(grid, grid):
        covering = [i for i, p in enumerate(boxes) if _dominates(p, (qx, qy))]
        expect = [min(covering, key=lambda i: (boxes[i][2], i))] if covering else []
        assert [r[4] for r in rects if r[0] <= qx <= r[1] and r[2] <= qy <= r[3]] == expect, (qx, qy)


def test_conflict_lists_are_exact_dominators():
    pts = rand_points(400, 800, 31)
    cut = build_cutting3(pts, t=16)
    for (a, b, c), conf in zip(cut.corners, cut.conflicts):
        expect = {i for i, p in enumerate(pts) if p[0] >= a and p[1] >= b and p[2] >= c}
        assert set(conf) == expect


def cutting_inputs():
    """224 seeded (points, t, floor) inputs: t from 1 to 7 and n of 0, 4t,
    4t + 1 or up to 90, so sizes fall on both sides of n = 4t; a few
    distinct values per axis, so every axis has ties, in one input of five
    also the clip band's NEG // 2 and POS // 2; floors none, at the minima,
    below them and (NEG, NEG)."""
    for case in range(224):
        rng = np.random.default_rng(7000 + case)
        t = 1 + case % 7
        n = (0, 4 * t, 4 * t + 1, int(rng.integers(0, 91)))[case % 4]
        U = int(rng.integers(1, 12))
        pool = np.arange(U) - (U // 2 if case % 3 else 0)
        if case % 5 == 0:
            pool = np.append(pool, [NEG // 2, POS // 2])
        pts = rng.choice(pool, (n, 3))
        kind = (case // 4) % 4 if n else 0
        low = pts[:, :2].min(axis=0).tolist() if n else None
        drop = rng.integers(1, 4, 2).tolist()
        floor = (None, low, low and (low[0] - drop[0], low[1] - drop[1]), (NEG, NEG))[kind]
        yield pts, t, floor and tuple(floor)


def _cutting_digest():
    h = hashlib.sha256()
    for pts, t, floor in cutting_inputs():
        c2 = build_cutting2(pts[:, :2], t, cover_floor=floor)
        c3 = build_cutting3(pts, t, cover_floor=floor)
        sub = c3.subdivision
        cols = None if sub is None else [list(c) for c in (sub.nodes, sub.x1, sub.x2, sub.y1, sub.y2, sub.label)]
        h.update(repr((c2.corners, c2.conflicts, c2.bits_stored, c3.corners, c3.conflicts, c3.bits_stored, cols)).encode())
    return h.hexdigest()[:16]


def test_cutting_digest():
    # corners, conflict lists in order, bits_stored and the FIND-ANY
    # subdivision's layout of both cuttings over tie-heavy seeded inputs
    assert _cutting_digest() == "04e17ac260cbad68"


def test_subdivision_layout_same_on_both_pl2_paths(monkeypatch):
    # the recursion and the level-by-level pass lay every FIND-ANY
    # subdivision out byte for byte alike
    def layouts(cutoff):
        monkeypatch.setattr(range2d, "PL2_BATCH_ROWS", cutoff)
        for pts, t, floor in cutting_inputs():
            sub = build_cutting3(pts, t, cover_floor=floor).subdivision
            yield None if sub is None else [bytes(a) for a in (sub.nodes, sub.x1, sub.x2, sub.y1, sub.y2, sub.label)]

    assert list(layouts(0)) == list(layouts(10**9))
