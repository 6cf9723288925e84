import sys
from array import array
from bisect import bisect_right

import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import Box2, ModelParams, ValidationError, rank_reduce
from boxstab.instances import gen
from boxstab.oracle import NotDisjointError, brute_count2, brute_locate2
from boxstab.pl3d import build_pl3
from boxstab.range2d import (
    PL2,
    DomCount2,
    StabEmpty2,
    build_pl2,
    build_stab_count,
    dominance_count,
    int64_array,
    query_pl2,
    query_stab_count,
    query_stab_empty,
)
from reach import arrays, reachable


def random_rects2(n, U, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = tuple(sorted(rng.integers(0, U, 2).tolist()))
        y = tuple(sorted(rng.integers(0, U, 2).tolist()))
        out.append(Box2(i, x, y))
    return out


class TestDomCount2:
    def test_extremes(self):
        rng = np.random.default_rng(2)
        xs = rng.integers(0, 100, 64)
        ys = rng.integers(0, 100, 64)
        d = DomCount2(xs, ys)
        assert d.count(10**9, 10**9) == 64
        assert d.count(-1, 50) == 0

    def test_against_brute(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 40, 100)
        ys = rng.integers(0, 40, 100)
        d = DomCount2(xs, ys)
        for _ in range(100):
            a, b = (int(v) for v in rng.integers(-5, 45, 2))
            expect = int(np.sum((xs <= a) & (ys <= b)))
            assert d.count(a, b) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65])
    def test_ties_against_brute(self, n):
        # values in [0, 3): almost every y sits in a run of ties, inside
        # which the bridge entries depend on how a merge orders equal
        # values; a query reads them only where a run ends
        rng = np.random.default_rng(n)
        xs = rng.integers(0, 3, n)
        ys = rng.integers(0, 3, n)
        d = DomCount2(xs, ys)
        for a in range(-1, 5):
            for b in range(-1, 5):
                assert d.count(a, b) == int(np.sum((xs <= a) & (ys <= b))), (a, b)

    def test_empty(self):
        assert DomCount2([], []).count(5, 5) == 0

    def test_default_width_covers_both_axes(self):
        # 2 points * 2 coordinates * 17 bits for a largest coordinate of 100000
        assert DomCount2([0, 1], [0, 100000]).bits_stored == 68
        assert DomCount2([0, 100000], [0, 1]).bits_stored == 68

    @pytest.mark.parametrize("xs,ys", [
        ([0, 1], [-(2**33) + 7, 5]),
        ([-(2**31) - 1, 1], [0, 5]),
        ([0, 1], [0, 2**31 - 1]),
        ([2**40, 1], [0, 5]),
    ])
    def test_rejects_outside_int32(self, xs, ys):
        # a y below -2^31 used to wrap silently in the int32 levels
        with pytest.raises(ValidationError):
            DomCount2(xs, ys)

    def test_int32_extremes(self):
        xs = [-(2**31), 0, 2**31 - 2]
        ys = [2**31 - 2, -(2**31), 0]
        d = DomCount2(xs, ys)
        for a in (-(2**40), -(2**31), -1, 0, 2**31 - 2, 2**40):
            for b in (-(2**40), -(2**31), -1, 0, 2**31 - 2, 2**31 - 1, 2**40):
                assert d.count(a, b) == sum(x <= a and y <= b for x, y in zip(xs, ys)), (a, b)

    def test_counts_monotone(self):
        xs = [3, 7, 7, 9]
        ys = [1, 5, 2, 8]
        d = DomCount2(xs, ys)
        prev = -1
        for a in range(0, 12):
            c = d.count(a, 6)
            assert c >= prev
            prev = c


class RefDomCount2:
    """The per-level DomCount2 build and walk that the bridge arena
    replaced, kept as the reference: one bridge array per level (top
    first), each level merged by one stable argsort of its blocks."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        self.n = len(xs)
        self.xs, self.top, self.bridges, self.N = [], [], [], 0
        if self.n == 0:
            return
        order = np.argsort(xs, kind="stable")
        self.xs = xs[order].tolist()
        N = 1 << max(0, (self.n - 1).bit_length())
        level = np.full(N, 2**31 - 1, dtype=np.int32)
        level[: self.n] = ys[order]
        size = 1
        while size < N:
            size *= 2
            blocks = level.reshape(N // size, size)
            order = np.argsort(blocks, axis=1, kind="stable")
            bl = np.zeros((N // size, size + 1), dtype=np.int32)
            np.cumsum(order < size // 2, axis=1, out=bl[:, 1:])
            level = level[(order + np.arange(0, N, size)[:, None]).ravel()]
            self.bridges.insert(0, bl.ravel().tolist())
        self.top = level.tolist()
        self.N = N

    def count(self, a, b, counters):
        if self.n == 0:
            return 0
        counters.charge_search(self.n)
        P = bisect_right(self.xs, a)
        counters.charge_search(self.N)
        pos = bisect_right(self.top, b, 0, self.n)
        if P == 0:
            return 0
        counters.predecessor_steps += len(self.bridges)
        ans = 0
        s = 0
        half = self.N >> 1
        for bl in self.bridges:
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


def _bridge_rows(d):
    """Each level's bridges, top first, as they sit in ``d``'s arena."""
    return [d.bridges[o: o + d.N + d.N // size].tolist() for o, _, size in d.levels]


def _assert_matches_reference(d, xs, ys, grid):
    ref = RefDomCount2(xs, ys)
    assert d.xs.tolist() == ref.xs
    assert d.top.tolist() == ref.top
    assert _bridge_rows(d) == ref.bridges
    got, want = Counters(), Counters()
    for a in grid:
        for b in grid:
            assert d.count(a, b, got) == ref.count(a, b, want) == int(np.sum((xs <= a) & (ys <= b))), (a, b)
    assert got == want


ARENA_SIZES = sorted(set(range(71)) | {(1 << k) + e for k in range(1, 11) for e in (-1, 0, 1)})


@pytest.mark.parametrize("ties", [True, False], ids=["ties", "distinct"])
@pytest.mark.parametrize("n", ARENA_SIZES)
def test_arena_matches_per_level_build(n, ties):
    # keys, top level and every bridge row equal the per-level build's,
    # for a standalone counter and for each of StabEmpty2's four, and the
    # counts and their Counters do too; ties at values in [0, 3) make the
    # merge's tie order matter inside runs
    rng = np.random.default_rng(n)
    if ties:
        cols = rng.integers(0, 3, (4, n))
        grid = range(-1, 4)
    else:
        cols = np.array([rng.permutation(n) for _ in range(4)]).reshape(4, n)
        grid = range(-1, n + 1) if n <= 70 else sorted(set(rng.integers(-1, n + 1, 40).tolist()))
    _assert_matches_reference(DomCount2(cols[0], cols[2]), cols[0], cols[2], grid)
    x1, x2 = np.minimum(cols[0], cols[1]), np.maximum(cols[0], cols[1])
    y1, y2 = np.minimum(cols[2], cols[3]), np.maximum(cols[2], cols[3])
    s = StabEmpty2(x1, x2, y1, y2)
    for d, xs, ys in ((s.ac, x1, y1), (s.ad, x1, y2), (s.bc, x2, y1), (s.bd, x2, y2)):
        _assert_matches_reference(d, xs, ys, grid)
    for qx in grid:
        for qy in grid:
            want = int(np.sum((x1 <= qx) & (qx <= x2) & (y1 <= qy) & (qy <= y2)))
            assert s.count(qx, qy) == want, (qx, qy)


def test_stab_empty2_shares_keys_and_one_arena():
    rng = np.random.default_rng(8)
    x1 = rng.integers(0, 50, 40)
    y1 = rng.integers(0, 50, 40)
    s = StabEmpty2(x1, x1 + 3, y1, y1 + 5)
    assert s.ac.xs is s.ad.xs and s.bc.xs is s.bd.xs
    assert s.ac.top is s.bc.top and s.ad.top is s.bd.top
    assert s.ac.bridges is s.ad.bridges is s.bc.bridges is s.bd.bridges
    assert len(arrays(s)) == 5


def test_pl3d_stab_empty2s_hold_five_arrays_each():
    # two key arrays, two top levels and one bridge arena per StabEmpty2
    rs, red = rank_reduce(list(gen("pl-disjoint", 2000, 4000, seed=3).boxes))
    pl = build_pl3(red, tuple(max(2, rs.size(a)) for a in range(3)), params=ModelParams())
    stabs = [o for o in reachable(pl) if isinstance(o, StabEmpty2) and o.n]
    assert stabs
    assert {len(arrays(s)) for s in stabs} == {5}


@pytest.mark.parametrize("build", [
    lambda: DomCount2([1.5, 2], [1, 2]),
    lambda: DomCount2([1, 2], np.array([0.5, 1.0])),
    lambda: DomCount2(["1"], [1]),
    lambda: StabEmpty2([0.5], [2], [0], [2]),
    lambda: StabEmpty2([0], [2], [0], [np.float64(2)]),
    lambda: PL2([0.5], [2], [0], [2], [7]),
    lambda: PL2([0], [2], [0], [2], [None]),
    lambda: PL2(np.array([0.5]), [2], [0], [2], [7]),
])
def test_non_integer_coordinates_rejected(build):
    # DomCount2 and StabEmpty2 used to truncate 0.5 and 1.5 to ints and
    # answer for the truncated points; PL2 raised a raw TypeError
    with pytest.raises(ValidationError):
        build()


class TestPL2:
    def test_single_rect(self):
        pl = build_pl2([Box2(0, (0, 3), (0, 3))])
        assert query_pl2(pl, (1, 1)) == 0

    def test_outside(self):
        pl = build_pl2([Box2(0, (0, 3), (0, 3))])
        assert query_pl2(pl, (5, 5)) is None

    def test_overlap_detected(self):
        with pytest.raises(NotDisjointError):
            build_pl2([Box2(0, (0, 4), (0, 4)), Box2(1, (2, 6), (2, 6))])

    def test_against_oracle_on_splits(self):
        inst = gen("pl-disjoint", 200, 512, seed=11, flat=True)
        rects = inst.boxes2()
        pl = build_pl2(rects)
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = (int(rng.integers(-4, 516)), int(rng.integers(-4, 516)))
            assert query_pl2(pl, q) == brute_locate2(rects, q)

    def test_half_unbounded_sides(self):
        rects = [Box2(0, (None, 4), (0, 3)), Box2(1, (5, None), (0, 3))]
        pl = build_pl2(rects)
        assert query_pl2(pl, (-100, 1)) == 0
        assert query_pl2(pl, (100, 2)) == 1
        assert query_pl2(pl, (2, 9)) is None

    @pytest.mark.parametrize("q", [("3", 1), (None, 1), (1.5, 1), (1, np.float64(0.5))])
    def test_non_integer_query_rejected(self, q):
        # the clamp into [NEG, POS] would pass 1.5 on to the comparisons
        pl = build_pl2([Box2(0, (0, 3), (0, 3))])
        with pytest.raises(ValidationError):
            query_pl2(pl, q)
        assert query_pl2(pl, (np.int64(1), np.int32(1))) == 0


def _attrs(obj):
    return [getattr(obj, k) for k in getattr(obj, "__slots__", ())] + list(getattr(obj, "__dict__", {}).values())


@pytest.mark.parametrize("build", [
    lambda rects: build_pl2(rects),
    lambda rects: build_stab_count(rects),
    lambda rects: DomCount2([r.x[0] for r in rects], [r.y[1] for r in rects]),
], ids=["PL2", "StabEmpty2", "DomCount2"])
def test_built_structures_keep_no_numpy_array(build):
    # the query path walks stdlib arrays only: no numpy copy stays beside
    # them, in the structure or in any boxstab object it reaches
    todo = [build(gen("pl-disjoint", 300, 600, seed=4, flat=True).boxes2())]
    while todo:
        obj = todo.pop()
        for v in _attrs(obj):
            for e in v if isinstance(v, list) else [v]:
                assert not isinstance(e, np.ndarray), type(obj).__name__
                if type(e).__module__.startswith("boxstab."):
                    todo.append(e)


@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_int64_array_keeps_no_growth_room(n):
    # the grid tree holds ~90k of these at stab5-grid's size: spare words
    # past the values are memory nothing reads
    a = int64_array(np.arange(n) - 3)
    assert a.tolist() == list(range(-3, n - 3))
    assert sys.getsizeof(a) == sys.getsizeof(array("q", list(range(n))))


class TestStabCount:
    def test_empty(self):
        s = build_stab_count([])
        assert query_stab_count(s, (0, 0)) == 0
        assert query_stab_empty(s, (0, 0))

    def test_duplicates(self):
        rects = [Box2(0, (0, 1), (0, 1)), Box2(1, (0, 1), (0, 1))]
        s = build_stab_count(rects)
        assert query_stab_count(s, (0, 0)) == 2
        assert not query_stab_empty(s, (0, 0))

    def test_against_brute(self):
        rects = random_rects2(300, 64, seed=17)
        s = build_stab_count(rects)
        rng = np.random.default_rng(23)
        for _ in range(500):
            q = (int(rng.integers(-4, 68)), int(rng.integers(-4, 68)))
            expect = brute_count2(rects, q)
            assert query_stab_count(s, q) == expect
            assert query_stab_empty(s, q) == (expect == 0)

    @pytest.mark.parametrize("q", [(1.5, 0.5), (np.float64(0.5), 1), (0, "1")])
    def test_non_integer_query_rejected(self, q):
        # the count reads "x2 < qx" as "x2 <= qx - 1", which only holds for
        # an integer qx: (1.5, 0.5) would count the box [0, 1] x [0, 1]
        s = build_stab_count([Box2(0, (0, 1), (0, 1))])
        for query in (query_stab_count, query_stab_empty):
            with pytest.raises(ValidationError):
                query(s, q)
        assert query_stab_count(s, (np.int64(1), np.int32(1))) == 1

    def test_counters_accumulate(self):
        rects = random_rects2(64, 32, seed=1)
        s = build_stab_count(rects)
        c = Counters()
        query_stab_count(s, (10, 10), c)
        assert c.predecessor_steps > 0


@pytest.mark.parametrize("a,b", [("3", 2), (1.5, 2), (2, None), (2, np.float64(0.5))])
def test_dominance_count_non_integer_query_rejected(a, b):
    d = DomCount2([1, 2], [1, 2])
    with pytest.raises(ValidationError):
        dominance_count(d, a, b)
    assert dominance_count(d, np.int64(1), np.int32(2)) == 1


def test_dominance_count_op():
    rng = np.random.default_rng(9)
    xs = rng.integers(0, 30, 100)
    ys = rng.integers(0, 30, 100)
    d = DomCount2(xs, ys)
    assert dominance_count(d, 10**9, 10**9) == 100
    assert dominance_count(d, -1, 0) == 0
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(0, 30, 2))
        assert dominance_count(d, a, b) == int(np.sum((xs <= a) & (ys <= b)))
