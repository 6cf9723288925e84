import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import NEG, POS, Box2, ModelParams, ValidationError
from boxstab.instances import gen
from boxstab.oracle import brute_topk_dominance, brute_topk_stab
from boxstab.topk import (
    TopKDominance,
    WeightStream,
    build_topk_dom,
    build_topk_stab,
    open_stream,
    query_topk_dom,
    query_topk_stab,
    weight_rank_lift,
)
from gridclamp import clamp_cells
from reach import reachable


def weighted_points(n, U, seed):
    rng = np.random.default_rng(seed)
    return [
        (i, (int(rng.integers(0, U)), int(rng.integers(0, U))), int(rng.integers(0, U)))
        for i in range(n)
    ]


def from_instance(inst):
    return [(b.id, (b.x[0], b.y[0]), b.weight) for b in inst.boxes]


class TestLift:
    def test_rank_order(self):
        z = weight_rank_lift(np.array([0, 1, 2]), np.array([5, 9, 5]))
        # ordering: id1 (w=9) > id0 (w=5) > id2 (w=5, larger id)
        assert list(z) == [1, 2, 0]


class TestTopKDominance:
    def test_k_zero(self):
        s = build_topk_dom(weighted_points(10, 32, 1))
        assert query_topk_dom(s, (0, 0), 0) == []

    def test_equal_weights_id_order(self):
        pts = [(i, (1, 1), 7) for i in range(6)]
        s = build_topk_dom(pts)
        assert query_topk_dom(s, (0, 0), 6) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("n", [1, 2, 17, 256, 2048])
    def test_oracle_all_k(self, n):
        pts = weighted_points(n, 4 * n, n + 2)
        s = build_topk_dom(pts)
        rng = np.random.default_rng(n)
        ks = [0, 1, 2, 3, s.t2, s.t1, max(1, n // 2), n]
        for _ in range(120):
            q = (int(rng.integers(-2, 4 * n)), int(rng.integers(-2, 4 * n)))
            for k in ks:
                got = query_topk_dom(s, q, k)
                assert got == brute_topk_dominance(pts, q, k), (q, k)

    def test_tier_soundness(self):
        # when k < t2 and the dominator count is at most t2, the fine-cutting
        # cell already holds the true top-k
        from boxstab.domcut import find_any
        from boxstab.oracle import brute_dominance

        pts = weighted_points(800, 1600, 9)
        s = build_topk_dom(pts)
        coords = [p[1] for p in pts]
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(300):
            # bias toward the sparse upper-right region
            q = (int(rng.integers(800, 1600)), int(rng.integers(800, 1600)))
            doms = brute_dominance(coords, q)
            if not doms or len(doms) > s.t2:
                continue
            k = min(s.t2 - 1, len(doms))
            if k <= 0:
                continue
            label = find_any(s.p2, q[0], q[1])
            assert label is not None
            conf = set(int(s.ids[r]) for r in s.p2.conflicts[label])
            assert set(brute_topk_dominance(pts, q, k)) <= conf
            checked += 1
        assert checked > 10


class TestTopKDominanceLayout:
    @pytest.mark.parametrize("U", [600, 8])
    def test_rank_cell_masks_match_brute(self, U):
        # bit b of a rank cell's mask is set exactly when the b-th entry of
        # the weight-sorted conflict list dominates the cell's corner
        s = build_topk_dom(weighted_points(300, U, 12))
        assert len(s.cell_tables) == len(s.p2.conflicts) > 1
        for conf, (cx, cy, table) in zip(s.p2.conflicts, s.cell_tables):
            assert conf == sorted(conf) and len(conf) <= 4 * s.t2
            assert table.typecode == ("B" if 4 * s.t2 <= 8 else "H")
            assert len(table) == (len(cx) + 1) * (len(cy) + 1)
            for i, a in enumerate([*cx, POS]):
                for j, b in enumerate([*cy, POS]):
                    mask = table[i * (len(cy) + 1) + j]
                    assert mask >> len(conf) == 0
                    got = [r for bit, r in enumerate(conf) if mask >> bit & 1]
                    assert got == [r for r in conf if s.px[r] >= a and s.py[r] >= b]

    def test_keeps_no_numpy_array(self):
        t = build_topk_stab(gen("topk-stab", 300, 1200, seed=5).boxes2(), params=GRIDDED)
        doms = [o for o in reachable(t) if isinstance(o, TopKDominance)]
        assert len(doms) > 1
        for d in [build_topk_dom(weighted_points(300, 600, 14)), *doms]:
            assert not [o for o in reachable(d) if isinstance(o, np.ndarray)]

    @pytest.mark.parametrize("n", [8, 9, 20, 21])
    def test_oracle_at_direct_cutting_sizes(self, n):
        # a cutting of at most 4t points is its one floor box and one more
        # point runs the sweep: n = 4*t2, 4*t2 + 1, 4*t1 and 4*t1 + 1
        pts = weighted_points(n, 2 * n, n + 40)
        s = build_topk_dom(pts)
        assert n in (4 * s.t2, 4 * s.t2 + 1, 4 * s.t1, 4 * s.t1 + 1)
        weight = {i: w for i, _, w in pts}
        for qx in range(-1, 2 * n + 1):
            for qy in range(-1, 2 * n + 1):
                for k in (1, s.t2, s.t1, n):
                    assert query_topk_dom(s, (qx, qy), k) == brute_topk_dominance(pts, (qx, qy), k)
                expect = brute_topk_dominance(pts, (qx, qy), n)
                assert list(s.stream((qx, qy))) == [(weight[i], i) for i in expect]


class TestWeightDomain:
    # one past each end of int64: numpy used to raise OverflowError here
    @pytest.mark.parametrize("w", [2**63, -(2**63) - 1])
    def test_topkdom_rejects(self, w):
        with pytest.raises(ValidationError):
            build_topk_dom([(0, (1, 1), w), (1, (2, 2), 3)])

    @pytest.mark.parametrize("w", [2**63, -(2**63) - 1])
    def test_topkstab_rejects(self, w):
        with pytest.raises(ValidationError):
            build_topk_stab([Box2(0, (1, 4), (1, 4), weight=w), Box2(1, (2, 3), (2, 3), weight=3)])

    def test_extreme_in_domain_weights(self):
        ws = [POS - 1, 3, NEG + 1]
        pts = [(0, (1, 1), ws[0]), (1, (2, 2), ws[1]), (2, (0, 3), ws[2])]
        s = build_topk_dom(pts)
        for k in (1, 2, 3):
            assert query_topk_dom(s, (0, 0), k) == brute_topk_dominance(pts, (0, 0), k) == [0, 1, 2][:k]
        rects = [Box2(i, (0, 4), (i, 4), weight=w) for i, w in enumerate(ws)]
        t = build_topk_stab(rects)
        for k in (1, 2, 3):
            assert query_topk_stab(t, (2, 3), k) == brute_topk_stab(rects, (2, 3), k) == [0, 1, 2][:k]


class TestCoordinateDomain:
    # grid pieces reach TopKDominance with sentinels and their negations,
    # exactly NEG and POS, so the closed range [NEG, POS] is the domain
    @pytest.mark.parametrize("v", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_topkdom_rejects(self, v, axis):
        xy = [2, 1]
        xy[axis] = v
        with pytest.raises(ValidationError):
            build_topk_dom([(0, tuple(xy), 3), (1, (2, 2), 3)])

    @pytest.mark.parametrize("v", [1.5, "3"])
    def test_topkdom_rejects_non_integer(self, v):
        with pytest.raises(ValidationError):
            build_topk_dom([(0, (v, 1), 3), (1, (2, 2), 3)])

    def test_closed_range_answers_like_brute(self):
        pts = [
            (0, (NEG, POS), 5), (1, (POS, NEG), 4), (2, (POS, POS), 3),
            (3, (NEG, NEG), 9), (4, (0, 0), 7), (5, (-3, 2), 7),
            (6, (NEG + 1, POS - 1), 2), (7, (POS - 1, 5), 1),
        ]
        s = build_topk_dom(pts)
        for q in [(NEG, NEG), (0, 0), (-3, NEG), (1, 1), (-3, 2), (NEG, 3), (4, 6)]:
            for k in (1, 2, 8):
                assert query_topk_dom(s, q, k) == brute_topk_dominance(pts, q, k), (q, k)

    @pytest.mark.parametrize("q", [(1.5, 0.5), (np.float64(1.5), 0), (1, "0")])
    def test_non_integer_query_rejected(self, q):
        # int() would truncate 1.5 to 1 and report a rectangle or point
        # that the query lies outside of
        stab = build_topk_stab([Box2(0, (0, 1), (0, 1), weight=1)])
        dom = build_topk_dom([(0, (1, 1), 5)])
        for query in (lambda: query_topk_stab(stab, q, 1), lambda: query_topk_dom(dom, q, 1),
                      lambda: open_stream(dom, q)):
            with pytest.raises(ValidationError):
                query()

    def test_integer_query_types_accepted(self):
        stab = build_topk_stab([Box2(0, (0, 1), (0, 1), weight=1)])
        dom = build_topk_dom([(0, (1, 1), 5)])
        for q in [(np.int64(1), np.int32(0)), (True, 0)]:
            assert query_topk_stab(stab, q, 1) == [0]
            assert query_topk_dom(dom, (0, q[1]), 1) == [0]
        assert query_topk_stab(stab, (2**70, 0), 1) == []
        assert query_topk_dom(dom, (-(2**70), 0), 1) == [0]

    # stored coordinates are clipped to [NEG//2, POS//2]; a query past that
    # band must still compare against the raw ones
    def test_query_past_clip_band(self):
        s = build_topk_dom([(0, (POS, POS), 3), (1, (2, 2), 3)])
        assert query_topk_dom(s, (POS, POS), 1) == [0]
        assert list(s.stream((POS // 2 + 1, 0))) == [(3, 0)]

    def test_query_below_clip_band(self):
        pts = [(0, (NEG, 0), 3), (1, (2, 2), 3)]
        s = build_topk_dom(pts)
        for q in [(NEG // 2, 0), (NEG // 2 + 1, 0), (NEG + 1, 1), (0, NEG // 2)]:
            assert query_topk_dom(s, q, 2) == brute_topk_dominance(pts, q, 2), q
        assert query_topk_dom(s, (NEG // 2, 0), 2) == [1]

    def test_query_past_clip_band_off_sentinel(self):
        # a clamped value that is not a sentinel, or a kept value on a band
        # edge, cannot be told from a clamped sentinel: raw keeps columns
        for pts in ([(0, (NEG + 5, 0), 3), (1, (2, 2), 3)], [(0, (NEG, 0), 3), (1, (NEG // 2, 2), 3)]):
            s = build_topk_dom(pts)
            assert isinstance(s.raw, tuple)
            for q in [(NEG + 5, 0), (NEG + 4, 0), (NEG, 0), (NEG // 2, 0), (NEG // 2 - 1, 0)]:
                assert query_topk_dom(s, q, 2) == brute_topk_dominance(pts, q, 2), (pts, q)

    def test_grid_pieces_keep_no_raw_columns(self):
        # grid pieces clamp only sentinels: a flag, not unclamped columns
        t = build_topk_stab(gen("topk-stab", 300, 600, seed=3).boxes2(), params=ModelParams(grid_override=4))
        doms = [o for o in reachable(t) if isinstance(o, TopKDominance)]
        assert doms and any(d.raw is True for d in doms)
        assert all(d.raw is None or d.raw is True for d in doms)

    @pytest.mark.parametrize("k", [1.5, "1", None, np.float64(2.0)])
    def test_non_integer_k_rejected(self, k):
        stab = build_topk_stab([Box2(0, (0, 1), (0, 1), weight=1)])
        dom = build_topk_dom([(0, (1, 1), 5)])
        for query in (lambda: query_topk_stab(stab, (0, 0), k), lambda: query_topk_dom(dom, (0, 0), k)):
            with pytest.raises(ValidationError):
                query()

    def test_integer_k_types_accepted(self):
        stab = build_topk_stab([Box2(0, (0, 1), (0, 1), weight=1)])
        dom = build_topk_dom([(0, (1, 1), 5)])
        for k in (np.int64(1), True, 2**70):
            assert query_topk_stab(stab, (0, 0), k) == [0]
            assert query_topk_dom(dom, (0, 0), k) == [0]


class TestPointShape:
    @pytest.mark.parametrize("point", [(0, (1, 2, 3), 4), (0, (1,), 4), (0, 1, 4), (0, (1, 2)), 7])
    def test_topkdom_rejects_malformed_tuple(self, point):
        with pytest.raises(ValidationError):
            build_topk_dom([point])


class TestIdDomain:
    # ids travel in int64 arrays, so an id is an integer in the int64 range;
    # numpy would otherwise overflow, truncate a float or parse a string
    @pytest.mark.parametrize("i", [2**63, -(2**63) - 1, 1.5, "a"])
    def test_topkdom_rejects(self, i):
        with pytest.raises(ValidationError):
            build_topk_dom([(i, (1, 1), 3), (1, (2, 2), 4)])

    def test_int64_extremes(self):
        pts = [(2**63 - 1, (1, 1), 3), (-(2**63), (2, 2), 4)]
        s = build_topk_dom(pts)
        assert query_topk_dom(s, (0, 0), 2) == [-(2**63), 2**63 - 1]


class TestWeightStream:
    def test_empty(self):
        s = WeightStream(iter([]))
        assert s.peek() is None and s.next() is None

    def test_pause_resume_deterministic(self):
        pts = weighted_points(300, 600, 5)
        s = build_topk_dom(pts)
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = (int(rng.integers(0, 600)), int(rng.integers(0, 600)))
            full = []
            st = open_stream(s, q)
            while (v := st.next()) is not None:
                full.append(v)
            # resume after pausing at a random prefix
            cut = int(rng.integers(0, len(full) + 1))
            st2 = open_stream(s, q)
            part = [st2.next() for _ in range(cut)]
            rest = []
            while (v := st2.next()) is not None:
                rest.append(v)
            assert [p for p in part if p is not None] + rest == full

    def test_stream_matches_brute_prefixes(self):
        pts = weighted_points(400, 800, 7)
        s = build_topk_dom(pts)
        rng = np.random.default_rng(8)
        for _ in range(60):
            q = (int(rng.integers(0, 800)), int(rng.integers(0, 800)))
            st = open_stream(s, q)
            pairs = []
            while (v := st.next()) is not None:
                pairs.append(v)
            got = [g for _, g in pairs]
            expect = brute_topk_dominance(pts, q, len(pts))
            assert got == expect
            weight = dict((p[0], p[2]) for p in pts)
            assert all(w == weight[g] for w, g in pairs)
            ws = [w for w, _ in pairs]
            assert all(ws[i] >= ws[i + 1] for i in range(len(ws) - 1))

    def test_coarse_tier_charges_its_scan(self):
        # past the fine cutting's t2 answers the stream reads the coarse
        # cell's whole conflict list, charged like query's coarse tier
        from boxstab.domcut import find_any
        from boxstab.oracle import brute_dominance

        pts = weighted_points(800, 1600, 9)
        s = build_topk_dom(pts)
        coords = [p[1] for p in pts]
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            q = (int(rng.integers(600, 1600)), int(rng.integers(600, 1600)))
            if not s.t2 < len(brute_dominance(coords, q)) <= s.t1:
                continue
            label = find_any(s.p1, q[0], q[1])
            c = Counters()
            st = open_stream(s, q, c)
            drained = [st.next() for _ in range(s.t2 + 1)]
            assert [g for _, g in drained] == brute_topk_dominance(pts, q, s.t2 + 1)
            assert c.cells_scanned == len(s.p1.conflicts[label])
            checked += 1
        assert checked > 10


GRIDDED = ModelParams(tau=8, grid_override=4)


class TestTopKStab:
    def test_k_exceeds_matches(self):
        rects = [Box2(0, (0, 5), (0, 5), weight=3), Box2(1, (0, 9), (0, 9), weight=8)]
        t = build_topk_stab(rects)
        assert query_topk_stab(t, (1, 1), 10) == [1, 0]

    def test_k1_global_heaviest(self):
        rects = [Box2(i, (0, 20), (0, 20), weight=i * 3 % 17) for i in range(12)]
        t = build_topk_stab(rects)
        assert query_topk_stab(t, (4, 4), 1) == brute_topk_stab(rects, (4, 4), 1)

    @pytest.mark.parametrize("n", [1, 3, 64, 512, 2048])
    def test_oracle(self, n):
        inst = gen("topk-stab", n, 4 * n, seed=n + 9)
        rects = inst.boxes2()
        t = build_topk_stab(rects)
        rng = np.random.default_rng(n + 1)
        for _ in range(80):
            q = (int(rng.integers(-2, 4 * n)), int(rng.integers(-2, 4 * n)))
            for k in (0, 1, 2, 7, n // 3, n):
                got = query_topk_stab(t, q, k)
                assert got == brute_topk_stab(rects, q, k), (q, k)
                assert len(got) == len(set(got))

    def test_oracle_gridded(self):
        inst = gen("topk-stab", 600, 2400, seed=77)
        rects = inst.boxes2()
        t = build_topk_stab(rects, params=GRIDDED)
        assert t.root.leaf_items is None
        rng = np.random.default_rng(13)
        for _ in range(150):
            q = (int(rng.integers(0, 2400)), int(rng.integers(0, 2400)))
            for k in (1, 3, 10, 50, 600):
                got = query_topk_stab(t, q, k)
                assert got == brute_topk_stab(rects, q, k), (q, k)

    def test_switchover_stream_with_clamped_cap(self):
        # force full Top lists so the cell stream transparently switches to
        # the slow structure; prefixes must stay identical to brute order
        inst = gen("topk-stab", 500, 2000, seed=31)
        rects = inst.boxes2()
        t = build_topk_stab(rects, params=GRIDDED)
        clamp_cells(t.root, 2)
        rng = np.random.default_rng(37)
        for _ in range(150):
            q = (int(rng.integers(0, 2000)), int(rng.integers(0, 2000)))
            for k in (1, 5, 30, 500):
                got = query_topk_stab(t, q, k)
                assert got == brute_topk_stab(rects, q, k), (q, k)

    def test_heap_ops_counted(self):
        inst = gen("topk-stab", 256, 1024, seed=3)
        t = build_topk_stab(inst.boxes2())
        c = Counters()
        query_topk_stab(t, (500, 500), 5, c)
        assert c.heap_ops > 0
