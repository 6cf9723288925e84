import sys
from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxstab import pl3d, range2d
from boxstab.counters import Counters
from boxstab.geom import NEG, POS, Box2, ModelParams, ValidationError, rank_reduce
from boxstab.instances import gen
from boxstab.oracle import NotDisjointError, brute_count2, brute_locate2
from boxstab.pl3d import build_pl3
from boxstab.range2d import (
    PL2,
    DomCount2,
    StabEmpty2,
    _level_maps,
    build_pl2,
    build_stab_count,
    dominance_count,
    int64_array,
    pl2_arena,
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


@pytest.mark.parametrize("build", [
    lambda: StabEmpty2([5], [3], [0], [1]),
    lambda: StabEmpty2([0, 0], [1, 1], [2, 4], [3, 3]),
    lambda: PL2([5], [3], [0], [1], [0]),
    lambda: PL2([0, 0], [1, 1], [2, 4], [3, 3], [0, 1]),
    lambda: PL2(*np.array([[0] * 300, [1] * 300, np.arange(300), np.arange(300) - (np.arange(300) == 299)]), np.arange(300)),
    lambda: range2d.stab_empty2s(np.array([[0, 5], [1, 3], [0, 0], [1, 1]]), [1, 1], [8, 8]),
])
def test_inverted_rectangles_rejected(build):
    # x1 > x2 made StabEmpty2 count -1 and PL2 raise "no midline makes
    # progress"; y1 > y2 went unnoticed
    with pytest.raises(ValidationError, match="x1 <= x2 and y1 <= y2"):
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


# ---------------------------------------------------------------------------
# PL2 arenas: the recursion and the level-by-level pass


def _arena(cols, sizes, monkeypatch, cutoff):
    """pl2_arena over the groups, laid out by the recursion (a cutoff above
    the row count) or by the level-by-level pass (cutoff 0)."""
    monkeypatch.setattr(range2d, "PL2_BATCH_ROWS", cutoff)
    return pl2_arena(np.asarray(cols, dtype=np.int64).reshape(5, -1), sizes, [1] * len(sizes))


def _layout(pl):
    return [bytes(getattr(pl, k)) for k in ("nodes", "x1", "x2", "y1", "y2", "label")]


def _assert_paths_agree(cols, sizes, monkeypatch):
    """Both paths give one arena byte for byte, and each of its trees,
    re-based, is the PL2 of its group alone."""
    (pl, roots), (pl_rec, roots_rec) = (_arena(cols, sizes, monkeypatch, c) for c in (0, 10**9))
    assert roots == roots_rec and _layout(pl) == _layout(pl_rec)
    monkeypatch.setattr(range2d, "PL2_BATCH_ROWS", 10**9)
    nodes = np.array(pl.nodes).reshape(-1, 5)
    starts = np.cumsum(sizes) - sizes
    for root, end, start, m in zip(roots, roots[1:] + [len(pl.nodes)], starts.tolist(), sizes):
        alone = PL2(*np.asarray(cols)[:, start : start + m])
        tree = nodes[root // 5 : end // 5].copy()
        tree[:, 1:3] -= start
        tree[:, 3:] -= np.where(tree[:, 3:] >= 0, root // 5, 0)
        assert tree.ravel().tolist() == list(alone.nodes)
        for k in ("x1", "x2", "y1", "y2", "label"):
            assert list(getattr(pl, k)[start : start + m]) == list(getattr(alone, k))


def _pl3d_pl2_groups(monkeypatch, n, seed, tau):
    """The PL2 groups that a pl3d build of n boxes hands to pl2_arena."""
    calls = []
    monkeypatch.setattr(pl3d, "pl2_arena", lambda *a: calls.append(a) or pl2_arena(*a))
    rs, red = rank_reduce(list(gen("pl-disjoint", n, 4 * n, seed=seed).boxes))
    build_pl3(red, tuple(max(2, rs.size(a)) for a in range(3)), params=ModelParams(tau=tau))
    (cols, sizes, _), = calls
    return cols, sizes


@pytest.mark.parametrize("n,seed,tau", [(300, 1, 1), (600, 2, 4), (1500, 3, 16)])
def test_pl3d_pl2_groups_same_on_both_paths(monkeypatch, n, seed, tau):
    cols, sizes = _pl3d_pl2_groups(monkeypatch, n, seed, tau)
    assert len(sizes) > 20
    _assert_paths_agree(cols, sizes, monkeypatch)


@st.composite
def disjoint_groups(draw):
    """Groups of disjoint rectangles, some of them empty: each group cuts
    a grid of few, often adjacent, x and y values into rows of cells,
    joins runs of a row's cells and keeps some of the runs; the outer
    sides are NEG/POS in some groups, and endpoints tie across rows and
    columns."""
    cols, sizes = [[] for _ in range(5)], []
    for _ in range(draw(st.integers(1, 6))):
        xs = sorted(set(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=7))))
        ys = sorted(set(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=7))))
        if draw(st.booleans()):
            xs, ys = [NEG] + xs + [POS + 1], [NEG] + ys + [POS + 1]
        m = 0
        for j in range(len(ys) - 1):
            i = 0
            while i < len(xs) - 1:
                run = draw(st.integers(1, len(xs) - 1 - i))
                if draw(st.booleans()):
                    for c, v in zip(cols, (xs[i], xs[i + run] - 1, ys[j], ys[j + 1] - 1, len(cols[4]))):
                        c.append(v)
                    m += 1
                i += run
        sizes.append(m)
    return cols, sizes


@given(disjoint_groups())
def test_disjoint_groups_same_on_both_paths(groups):
    cols, sizes = groups
    with pytest.MonkeyPatch.context() as mp:
        _assert_paths_agree(cols, sizes, mp)


@pytest.mark.parametrize("cutoff", [0, 10**9])
def test_overlapping_group_raises_on_both_paths(monkeypatch, cutoff):
    # the second group's rectangles share x = 3 and overlap in y at 2
    cols = [[0, 0, 3], [1, 5, 4], [0, 0, 2], [9, 2, 6], [0, 0, 1]]
    with pytest.raises(NotDisjointError):
        _arena(cols, [1, 2], monkeypatch, cutoff)


# ---------------------------------------------------------------------------
# what a pl3d build holds


@pytest.mark.parametrize("n,tau", [(40, 1), (700, 4), (3000, 16)])
def test_pl3d_reaches_one_pl2_arena(n, tau):
    # every (node, side, slab) tree sits in one arena of six arrays, however
    # many slabs the build has
    rs, red = rank_reduce(list(gen("pl-disjoint", n, 4 * n, seed=n).boxes))
    pl = build_pl3(red, tuple(max(2, rs.size(a)) for a in range(3)), params=ModelParams(tau=tau))
    sides = [side for node in reachable(pl) if isinstance(node, pl3d.PL3Node) and node.leaf_coords is None
             for side in node.sides]
    assert sum(map(len, (roots for _, roots, _, _ in sides))) > 1
    pl2s = [o for o in reachable(pl) if isinstance(o, PL2)]
    assert pl2s == [pl.pl2] and len(arrays(pl.pl2)) == 6


def test_level_maps_cached_per_padded_length():
    # batches of StabEmpty2s take their walks from _level_maps(N, 4), so
    # three builds leave one entry per padded length N, and a DomCount2
    # adds (N, 1); an entry per batch size would pile up
    _level_maps.cache_clear()
    lengths = set()
    for seed in range(3):
        rs, red = rank_reduce(list(gen("pl-disjoint", 1500, 6000, seed=seed).boxes))
        pl = build_pl3(red, tuple(max(2, rs.size(a)) for a in range(3)))
        lengths |= {s.ac.N for s in reachable(pl) if isinstance(s, StabEmpty2)}
    DomCount2([1, 2, 3], [3, 2, 1])
    info = _level_maps.cache_info()
    assert len(lengths) > 3 and info.currsize == len(lengths) + 1
    for N in lengths:
        _level_maps(N, 4)
    _level_maps(4, 1)
    assert _level_maps.cache_info().misses == info.misses
