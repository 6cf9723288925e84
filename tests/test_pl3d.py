import math

import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import Box3, ModelParams, ValidationError, rank_locate, rank_reduce
from boxstab.instances import check_pairwise_disjoint, gen
from boxstab.oracle import NotDisjointError, brute_locate
from boxstab.pl3d import build_pl3, build_pl3_arrays, query_pl3
from pl3split import box_coords, dichotomy


def build_from_instance(inst, params=ModelParams()):
    rs, red = rank_reduce(list(inst.boxes))
    U = tuple(max(2, rs.size(a)) for a in range(3))
    pl = build_pl3(red, U, params=params)
    return rs, red, pl


def locate_raw(rs, pl, q, boxes_by_id=None, counters=None, trace=None):
    from boxstab.geom import contains

    fl = rank_locate(rs, q, counters)
    if any(v < 0 for v in fl):
        return None
    # the structure answers for the floor grid point; a raw container is
    # always its unique rank-space container, so one revalidation suffices
    res = query_pl3(pl, fl, counters, trace)
    if res is not None and boxes_by_id is not None and not contains(boxes_by_id[res], q):
        return None
    return res


class TestBuild:
    def test_empty(self):
        pl = build_pl3([], (2, 2, 2))
        assert query_pl3(pl, (0, 0, 0)) is None

    def test_root_slab_formula(self):
        # U=(16,4,4): root splits x into s=4 slabs of width 4
        boxes = [Box3(i, (4 * i, 4 * i + 3), (0, 3), (0, 3)) for i in range(4)]
        pl = build_pl3(boxes, (16, 4, 4), params=ModelParams(tau=1))
        assert pl.root.axis == 0
        assert pl.root.s == 4
        assert pl.root.width == 4

    def test_piece_split(self):
        # box spanning slabs 0..3 with interior endpoints: left in slab 0,
        # right in slab 3, middle over slab indices [1, 2]
        boxes = [
            Box3(0, (1, 14), (0, 3), (0, 3)),
            Box3(1, (0, 0), (0, 0), (0, 0)),
        ]
        pl = build_pl3(boxes, (16, 4, 4), params=ModelParams(tau=1))
        root = pl.root
        assert 0 in root.sides[0][1] and 3 in root.sides[1][1]
        assert root.middle_child is not None
        mc = root.middle_child
        assert mc.leaf_coords.rows[0][:2] == (1, 2)
        assert query_pl3(pl, (7, 2, 2)) == 0
        assert query_pl3(pl, (0, 0, 0)) == 1
        assert query_pl3(pl, (0, 1, 1)) is None

    def test_overlapping_pieces_rejected(self):
        # box 1 lies inside box 0: their left pieces in slab 0 overlap in
        # the (y, z) plane, which the slab's PL2 tree reports
        boxes = [Box3(0, (1, 14), (0, 3), (0, 3)), Box3(1, (2, 13), (1, 2), (1, 2))]
        with pytest.raises(NotDisjointError):
            build_pl3(boxes, (16, 4, 4), params=ModelParams(tau=1))

    @pytest.mark.parametrize("U", [(40.5, 1, 1), (40, 1), ("40", 1, 1), (40, 1, 1, 1), (40, 0, 1), 40, None])
    def test_universe_rejected(self, U):
        # a universe is three positive integers: anything else used to raise
        # a raw TypeError, IndexError or numpy error, or build silently
        with pytest.raises(ValidationError):
            build_pl3([Box3(0, (0, 0), (0, 0), (0, 0))], U)
        with pytest.raises(ValidationError):
            build_pl3_arrays(np.zeros((1, 6), dtype=np.int64), [0], U)
        pl = build_pl3([Box3(0, (0, 0), (0, 0), (0, 0))], (np.int64(40), 1, 1))
        assert pl.universes == (40, 1, 1)


class TestQuery:
    def test_single_box(self):
        pl = build_pl3([Box3(5, (0, 1), (0, 1), (0, 1))], (2, 2, 2))
        assert query_pl3(pl, (0, 0, 0)) == 5
        assert query_pl3(pl, (1, 1, 1)) == 5

    @pytest.mark.parametrize("q", [("3", 1, 1), (None, 1, 1), (1.5, 1, 1), (1, np.float64(0.5), 1), (1, 1, 1.5)])
    def test_non_integer_query_rejected(self, q):
        # a leaf's closed-interval tests would answer 1.5 as if it were 1
        pl = build_pl3([Box3(0, (0, 3), (0, 3), (0, 3))], (4, 4, 4))
        with pytest.raises(ValidationError):
            query_pl3(pl, q)
        assert query_pl3(pl, (np.int64(1), 1, 1)) == 0

    def test_piece_bounds(self):
        # every box of a subdivision, in rank space and with tau = 1 so that
        # most boxes break into pieces, queried on and one step outside each
        # endpoint along each axis with the other two coordinates inside:
        # a left piece holds from x1 on and a right piece up to x2, each
        # tested by its one signed bound, the slab holding the other end
        inst = gen("pl-subdivision-pruned", 150, 600, seed=12)
        rs, red, pl = build_from_instance(inst, ModelParams(tau=1))
        for b in red:
            ivs = (b.x, b.y, b.z)
            mid = [(lo + hi) // 2 for lo, hi in ivs]
            for a, (lo, hi) in enumerate(ivs):
                for v in (lo - 1, lo, hi, hi + 1):
                    q = tuple(v if i == a else mid[i] for i in range(3))
                    assert query_pl3(pl, q) == brute_locate(red, q), (b.id, q)

    def test_gap_returns_none(self):
        inst = gen("pl-subdivision-pruned", 60, 256, seed=3)
        rs, red, pl = build_from_instance(inst)
        boxes = list(inst.boxes)
        rng = np.random.default_rng(4)
        misses = 0
        for _ in range(300):
            q = tuple(int(v) for v in rng.integers(0, 256, 3))
            got = locate_raw(rs, pl, q, {b.id: b for b in boxes})
            expect = brute_locate(boxes, q)
            assert got == expect
            misses += expect is None
        assert misses > 0

    @pytest.mark.parametrize("kind", ["pl-disjoint", "pl-subdivision-pruned"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 257, 1024])
    def test_oracle_equivalence(self, kind, n):
        inst = gen(kind, n, 4 * n + 8, seed=n * 7 + 1)
        assert check_pairwise_disjoint(list(inst.boxes))
        rs, red, pl = build_from_instance(inst)
        boxes = list(inst.boxes)
        rng = np.random.default_rng(n)
        for _ in range(200):
            q = tuple(int(v) for v in rng.integers(0, inst.universe, 3))
            assert locate_raw(rs, pl, q, {b.id: b for b in boxes}) == brute_locate(boxes, q)

    def test_oracle_equivalence_2000(self):
        inst = gen("pl-disjoint", 2000, 8192, seed=42)
        rs, red, pl = build_from_instance(inst)
        boxes = list(inst.boxes)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            q = tuple(int(v) for v in rng.integers(0, 8192, 3))
            assert locate_raw(rs, pl, q, {b.id: b for b in boxes}) == brute_locate(boxes, q)


class TestDichotomy:
    def test_lemma_2_3(self):
        # wherever step 3 answers non-empty the middle boxes cannot contain q,
        # and wherever it answers empty the slab's short boxes cannot
        inst = gen("pl-subdivision-pruned", 300, 1300, seed=8)
        rs, red, pl = build_from_instance(inst)
        root = box_coords(red)
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(200):
            q = tuple(int(v) for v in rng.integers(0, 1300, 3))
            fl = rank_locate(rs, q)
            if any(v < 0 for v in fl):
                continue
            trace = []
            query_pl3(pl, fl, trace=trace)
            for _, ruled, hit in dichotomy(root, trace):
                if not ruled:
                    continue
                assert not hit
                checked += 1
        assert checked > 50


class TestSpace:
    def test_budgets_small(self):
        for n in (64, 512, 2048):
            inst = gen("pl-disjoint", n, 4 * n, seed=n)
            rs, red, pl = build_from_instance(inst)
            rep = pl.space_report()
            budget = 64 * n * math.log2(2 * n)
            assert rep["pl2"] + rep["stab2"] + rep["piece_map"] <= budget, (n, rep)
            inc_budget = 8 * n * (math.log2(math.log2(2 * n)) + 2)
            assert pl.piece_incidences <= inc_budget


def test_counters_move():
    inst = gen("pl-disjoint", 256, 1024, seed=5)
    rs, red, pl = build_from_instance(inst)
    c = Counters()
    locate_raw(rs, pl, (500, 500, 500), counters=c)
    assert c.predecessor_steps > 0 and c.nodes_visited > 0
