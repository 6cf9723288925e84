import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxstab.geom import (
    Box2,
    Box3,
    ModelParams,
    ValidationError,
    classify_sides,
    contains,
    normalize_orientation,
    orientation_of,
    rank_locate,
    rank_reduce,
    reflect_box,
    reflect_point,
)
from boxstab.oracle import brute_stab
from boxstab.range2d import build_pl2, query_pl2
from boxstab.stab5 import build_slow5, query_slow5


def box(x, y, z, id=0):
    return Box3(id, x, y, z)


class TestClassifySides:
    def test_six_sided(self):
        assert classify_sides(box((0, 1), (0, 1), (0, 1))) == 6

    def test_five_sided(self):
        assert classify_sides(box((0, 1), (0, 1), (None, 1))) == 5

    def test_three_sided(self):
        assert classify_sides(box((None, 1), (None, 1), (None, 1))) == 3

    def test_malformed_raises(self):
        with pytest.raises(ValidationError):
            box((2, 1), (0, 1), (0, 1))


class TestCoordinateDomain:
    @pytest.mark.parametrize("x,y", [((0, 2**62), (0, 5)), ((0, 3), (-(2**62), 5)), ((2**63, None), (0, 5))])
    def test_endpoint_at_or_beyond_sentinel_rejected(self, x, y):
        with pytest.raises(ValidationError):
            Box3(0, x, y, (None, 7))
        with pytest.raises(ValidationError):
            Box2(0, x, y)

    @pytest.mark.parametrize("q", [(2**62 + 5, 1, 2), (2**64, 1, 2)])
    def test_query_beyond_finite_range(self, q):
        # the unbounded side is stored as a sentinel; a query past it must
        # still report the box
        b = Box3(0, (0, None), (0, 5), (None, 7))
        assert brute_stab([b], q) == {0}
        assert query_slow5(build_slow5([b]), q) == [0]
        assert query_pl2(build_pl2([Box2(0, b.x, b.y)]), q[:2]) == 0
        lo = Box2(0, (None, 3), (0, 5))
        assert query_pl2(build_pl2([lo]), (-q[0], 1)) == 0


class TestContains:
    def test_inside(self):
        assert contains(box((0, 1), (0, 1), (0, 1)), (0, 0, 0))

    def test_outside(self):
        assert not contains(box((0, 1), (0, 1), (0, 1)), (2, 0, 0))

    def test_boundary_inclusive_half_infinite(self):
        b = box((None, 5), (1, 2), (None, 3))
        assert contains(b, (4, 1, 3))


class TestRankReduce:
    def test_single_box(self):
        rs, red = rank_reduce([box((10, 70), (5, 5), (3, 9))])
        assert red[0].x == (0, 1)
        assert red[0].y == (0, 0)
        assert red[0].z == (0, 1)
        assert rs.size(0) == 2 and rs.size(1) == 1 and rs.size(2) == 2

    def test_empty(self):
        rs, red = rank_reduce([])
        assert red == [] and rs.size(0) == 0

    def test_pairwise_order_preserved(self):
        rng = np.random.default_rng(7)
        boxes = []
        for i in range(3):
            xs = sorted(rng.integers(0, 1000, 2).tolist())
            ys = sorted(rng.integers(0, 1000, 2).tolist())
            zs = sorted(rng.integers(0, 1000, 2).tolist())
            boxes.append(Box3(i, tuple(xs), tuple(ys), tuple(zs)))
        rs, red = rank_reduce(boxes)
        # sort-based reference: order relations among all coordinate pairs survive
        for axis in range(3):
            raw = [v for b in boxes for v in b.interval(axis)]
            new = [v for b in red for v in b.interval(axis)]
            for i in range(len(raw)):
                for j in range(len(raw)):
                    assert (raw[i] < raw[j]) == (new[i] < new[j])
                    assert (raw[i] == raw[j]) == (new[i] == new[j])


class TestRankLocate:
    def test_exact_hit(self):
        rs, _ = rank_reduce([box((10, 70), (10, 70), (10, 70))])
        assert rank_locate(rs, (70, 70, 70)) == (1, 1, 1)

    def test_floor(self):
        rs, _ = rank_reduce([box((10, 70), (10, 70), (10, 70))])
        assert rank_locate(rs, (40, 40, 40)) == (0, 0, 0)

    def test_below_minimum(self):
        rs, _ = rank_reduce([box((10, 70), (10, 70), (10, 70))])
        assert rank_locate(rs, (5, 5, 5)) == (-1, -1, -1)


def test_rank_roundtrip_containment():
    # rank_reduce + rank_locate + rank-space contains == raw contains,
    # using floor/ceil rank pairs per axis for exactness
    rng = np.random.default_rng(3)
    boxes = []
    for i in range(40):
        iv = []
        for _ in range(3):
            a, b = sorted(rng.integers(0, 200, 2).tolist())
            iv.append((a, b))
        boxes.append(Box3(i, *iv))
    rs, red = rank_reduce(boxes)
    for _ in range(1000):
        q = tuple(int(v) for v in rng.integers(-10, 220, 3))
        fl = rank_locate(rs, q)
        for b, rb in zip(boxes, red):
            raw = contains(b, q)
            ok = True
            for a in range(3):
                lo, hi = rb.interval(a)
                arr = rs.axes[a]
                import bisect

                ceil_rank = bisect.bisect_left(arr, q[a])
                if not (lo <= fl[a] and ceil_rank <= hi):
                    ok = False
                    break
            assert ok == raw, (q, b)


class TestOrientation:
    def test_reflect_high_to_low(self):
        b = box((3, None), (0, 1), (0, 1))
        out = normalize_orientation(b, "hbb", (8, 8, 8))
        assert out.x == (None, 4)

    def test_identity_code(self):
        b = box((None, 4), (0, 1), (0, 1))
        assert normalize_orientation(b, "lbb", (8, 8, 8)) == b

    def test_involution(self):
        b = box((3, None), (None, 5), (0, 6))
        axes = (True, True, False)
        U = (16, 16, 16)
        assert reflect_box(reflect_box(b, axes, U), axes, U) == b

    def test_inconsistent_code_raises(self):
        with pytest.raises(ValidationError):
            normalize_orientation(box((0, 1), (0, 1), (0, 1)), "hbb", (8, 8, 8))


@given(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(lambda t: tuple(sorted(t))),
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@settings(deadline=None, max_examples=200)
def test_reflection_preserves_containment(xiv, q, axes):
    U = (31, 31, 31)
    b = Box3(0, xiv, (2, 20), (None, 25))
    rb = reflect_box(b, axes, U)
    rq = reflect_point(q, axes, U)
    assert contains(b, q) == contains(rb, rq)


class TestModelParams:
    def test_default_Z(self):
        assert ModelParams().Z == 2

    def test_levels_positive(self):
        p = ModelParams()
        for n in (1, 2, 100, 4096, 2**20):
            assert p.t0(n) >= 1 and p.t1(n) >= 1 and p.t2(n) >= 1

    def test_t1_t2_defaults(self):
        p = ModelParams()
        assert p.t1(4096) == 12
        assert p.t2(4096) == 3

    def test_orientation_of(self):
        assert orientation_of(box((0, 1), (None, 2), (3, None))) == "blh"
