import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import Box2, ValidationError
from boxstab.instances import gen
from boxstab.oracle import NotDisjointError, brute_count2, brute_locate2
from boxstab.range2d import (
    DomCount2,
    build_pl2,
    build_stab_count,
    dominance_count,
    query_pl2,
    query_stab_count,
    query_stab_empty,
)


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

    def test_counters_accumulate(self):
        rects = random_rects2(64, 32, seed=1)
        s = build_stab_count(rects)
        c = Counters()
        query_stab_count(s, (10, 10), c)
        assert c.predecessor_steps > 0


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
