import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import NEG, POS, Box2, ModelParams, ValidationError
from boxstab.instances import gen
from boxstab.oracle import brute_topk_dominance, brute_topk_stab
from boxstab.topk import (
    WeightStream,
    build_topk_dom,
    build_topk_stab,
    open_stream,
    query_topk_dom,
    query_topk_stab,
    weight_rank_lift,
)
from gridclamp import clamp_cells


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

    @pytest.mark.xfail(strict=True, reason="coordinates are clipped to [NEG//2, POS//2], "
                       "so a query past POS//2 misses points beyond it")
    def test_query_past_clip_band(self):
        s = build_topk_dom([(0, (POS, POS), 3), (1, (2, 2), 3)])
        assert query_topk_dom(s, (POS, POS), 1) == [0]


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
