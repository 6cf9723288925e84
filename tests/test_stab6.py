import numpy as np
import pytest

from boxstab.geom import NEG, Box3, ModelParams, ValidationError
from boxstab.instances import gen
from boxstab.oracle import brute_stab
from boxstab.stab6 import (
    build_stab6,
    build_zr4_fast,
    build_zr4_slow,
    build_zr6,
    query_stab6,
    query_zr4_fast,
    query_zr4_slow,
    query_zr6,
)
from gridclamp import clamped


def zr_queries(U, f, seed, k=250):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(-2, U + 2)), int(rng.integers(-2, U + 2)), int(rng.integers(0, f)))
        for _ in range(k)
    ]


class TestZR4Slow:
    def test_all_at_root(self):
        rects = [Box3(i, (None, 5 + i), (None, 5 + i), (0, 1)) for i in range(6)]
        s = build_zr4_slow(rects, f=2)
        assert set(query_zr4_slow(s, (0, 0, 0))) == set(range(6))

    def test_qz_validation(self):
        s = build_zr4_slow([Box3(0, (None, 5), (None, 5), (0, 1))], f=2)
        with pytest.raises(ValidationError):
            query_zr4_slow(s, (0, 0, 7))

    @pytest.mark.parametrize("f", [2, 4, 8])
    def test_oracle(self, f):
        inst = gen("zr4", 1024, 4096, seed=f, fanout=f)
        rects = list(inst.boxes)
        s = build_zr4_slow(rects, f=f)
        for q in zr_queries(4096, f, f + 1):
            got = query_zr4_slow(s, q)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q)


class TestZR4Fast:
    def test_small_single_group(self):
        rects = [Box3(i, (None, 10 + i), (None, 10 + i), (0, 0)) for i in range(5)]
        s = build_zr4_fast(rects, f=2)
        assert len(s.groups) == 1
        assert set(query_zr4_fast(s, (0, 0, 0))) == set(range(5))

    def test_query_nothing(self):
        rects = [Box3(0, (None, 5), (None, 5), (0, 0))]
        s = build_zr4_fast(rects, f=2)
        assert query_zr4_fast(s, (9, 9, 0)) == []

    @pytest.mark.parametrize("qz", [-1, 2])
    def test_qz_validation(self, qz):
        s = build_zr4_fast([Box3(0, (None, 5), (None, 5), (0, 1))], f=2)
        with pytest.raises(ValidationError):
            query_zr4_fast(s, (0, 0, qz))

    @pytest.mark.parametrize("f", [2, 4, 8])
    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_oracle(self, n, f):
        inst = gen("zr4", n, 4 * n, seed=n * f, fanout=f)
        rects = list(inst.boxes)
        s = build_zr4_fast(rects, f=f)
        for q in zr_queries(4 * n, f, n + f, 200):
            got = query_zr4_fast(s, q)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q), q

    def test_candidate_size_bound(self):
        from boxstab.geom import DEFAULT_PARAMS

        for n, f in [(512, 4), (4096, 8)]:
            inst = gen("zr4", n, 4 * n, seed=n + f, fanout=f)
            s = build_zr4_fast(list(inst.boxes), f=f)
            z = DEFAULT_PARAMS.Z
            assert s.sum_candidate_sizes() <= 16 * max(n, z * z * s.t0)

    def test_fallback_only_when_heavy(self):
        inst = gen("zr4", 2048, 8192, seed=77, fanout=4)
        rects = list(inst.boxes)
        s = build_zr4_fast(rects, f=4)
        fired = 0
        for q in zr_queries(8192, 4, 99, 400):
            trace = []
            query_zr4_fast(s, q, trace=trace)
            for _ in trace:
                fired += 1
                assert len(brute_stab(rects, q)) >= s.t0
        assert fired > 0  # heavy queries exist at this density

    @pytest.mark.parametrize("qy", [-(2**70), NEG - 5, -(2**63)])
    def test_query_below_neg(self, qy):
        # every rectangle is unbounded below in y, so a qy past NEG answers
        # like qy = NEG, also in a candidate group
        rects = list(gen("zr4", 1000, 2000, seed=1005, fanout=4).boxes)
        s = build_zr4_fast(rects, f=4)
        assert len(s.groups) > 1
        for qx in (-1, 0, 100, 500, 1000, 1999):
            for qz in range(4):
                got = query_zr4_fast(s, (qx, qy, qz))
                assert sorted(got) == sorted(brute_stab(rects, (qx, qy, qz))), (qx, qz)

    def test_group_bounds_sorted(self):
        inst = gen("zr4", 2048, 8192, seed=5, fanout=8)
        s = build_zr4_fast(list(inst.boxes), f=8)
        bs = s.group_bounds
        assert all(bs[i] <= bs[i + 1] for i in range(len(bs) - 1))


GRIDDED = ModelParams(tau=8, grid_override=4)


class TestZR6:
    def test_f1_degenerates_to_2d(self):
        rects = [Box3(i, (0, 5 + i), (0, 5 + i), (0, 0)) for i in range(4)]
        t = build_zr6(rects, f=1)
        assert set(query_zr6(t, (1, 1, 0))) == {0, 1, 2, 3}

    def test_single_covering(self):
        t = build_zr6([Box3(7, (0, 9), (0, 9), (0, 3))], f=4)
        assert query_zr6(t, (5, 5, 2)) == [7]
        assert query_zr6(t, (5, 5, 0)) == [7]

    @pytest.mark.parametrize("qz", [1.5, np.float64(0.5), "1"])
    def test_non_integer_qz_rejected(self, qz):
        # int() would truncate 1.5 to 1 and report the box [1, 1] in z
        t = build_zr6([Box3(0, (0, 5), (0, 5), (1, 1))], f=4)
        with pytest.raises(ValidationError):
            query_zr6(t, (1, 1, qz))
        assert query_zr6(t, (1, 1, np.int64(1))) == [0]

    @pytest.mark.parametrize("f", [2, 4, 8])
    @pytest.mark.parametrize("n", [32, 256, 2048])
    def test_oracle(self, n, f):
        inst = gen("zr6", n, 4 * n, seed=n + 3 * f, fanout=f)
        rects = list(inst.boxes)
        t = build_zr6(rects, f=f)
        for q in zr_queries(4 * n, f, n * f, 150):
            got = query_zr6(t, q)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q), q

    def test_oracle_gridded(self):
        inst = gen("zr6", 700, 2800, seed=31, fanout=4)
        rects = list(inst.boxes)
        t = build_zr6(rects, f=4, params=GRIDDED)
        assert t.root.leaf_items is None
        for q in zr_queries(2800, 4, 13, 300):
            got = query_zr6(t, q)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q), q

    def test_cover_fallback_oracle(self):
        # no Cover(c, z) list reaches its log m cap at this size, so the
        # lists are clamped to one entry: every nonempty cell is then full
        # and its queries go to the _ZR6Slow fallback
        inst = gen("zr6", 700, 2800, seed=37, fanout=4)
        rects = list(inst.boxes)
        with clamped(1):
            t = build_zr6(rects, f=4, params=GRIDDED)
        fired = 0
        for q in zr_queries(2800, 4, 41, 300):
            trace = []
            got = query_zr6(t, q, trace=trace)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q), q
            fired += sum(ev.decision == "cover_fallback" for ev in trace)
        assert fired


class TestStab6:
    def test_empty(self):
        t = build_stab6([])
        assert query_stab6(t, (0, 0, 0)) == []

    def test_one_box(self):
        t = build_stab6([Box3(3, (0, 4), (0, 4), (10, 20))])
        assert query_stab6(t, (2, 2, 15)) == [3]
        assert query_stab6(t, (2, 2, 25)) == []
        assert query_stab6(t, (2, 2, 5)) == []

    def test_inside_one_leaf_slab(self):
        rects = [Box3(0, (0, 9), (0, 9), (5, 5)), Box3(1, (0, 9), (0, 9), (5, 9))]
        t = build_stab6(rects, f=2)
        assert set(query_stab6(t, (1, 1, 5))) == {0, 1}

    def test_s_accounting(self):
        inst = gen("stab6", 4096, 16384, seed=8)
        t = build_stab6(list(inst.boxes), f=4)
        assert sum(t.s_sizes()) == 4096

    def test_mlr_split_shape(self):
        # a rect spanning children 1..4 of the root with interior endpoints
        # contributes its middle child range [2,3] to M(root) and full copies
        # to R(child 1) and L(child 4)
        import numpy as np

        filler = [Box3(i, (0, 1), (0, 1), (4 * i, 4 * i + 1)) for i in range(8)]
        spanner = Box3(99, (0, 9), (0, 9), (5, 17))
        t = build_stab6(filler + [spanner], f=8)
        root = t.root
        zv = t.zvals
        la = int(np.searchsorted(zv, 5))
        lb = int(np.searchsorted(zv, 17))
        k = (la - root.lo) // root.child_size
        l = (lb - root.lo) // root.child_size
        assert k < l
        assert 99 in [r[-1] for r in root.R[k].root.leaf.rows]
        assert 99 in [r[-1] for r in root.L[l].root.leaf.rows]

        def m_span(node):
            """(zi, zj) of rectangle 99 in the zr6 tree of ``node``."""
            if node.leaf_items is not None:
                return next(((zi, zj) for *_, zi, zj, o in node.leaf_items.rows if o == 99), None)
            items = node.grid_items
            if 99 in items["orig"]:
                row = list(items["orig"]).index(99)
                return (int(items["zi"][row]), int(items["zj"][row]))
            for ch in list(node.col_children.values()) + list(node.row_children.values()):
                got = m_span(ch)
                if got is not None:
                    return got
            return None

        assert m_span(root.M) == (k + 1, l - 1)
        # the three parts answer disjoint z ranges: every query hits once
        for qz in range(0, 34):
            got = query_stab6(t, (5, 5, qz))
            assert got.count(99) == (1 if 5 <= qz <= 17 else 0)

    @pytest.mark.parametrize("f", [2, 4, 8])
    @pytest.mark.parametrize("n", [16, 256, 2048])
    def test_oracle(self, n, f):
        inst = gen("stab6", n, 4 * n, seed=n * 5 + f)
        rects = list(inst.boxes)
        t = build_stab6(rects, f=f)
        rng = np.random.default_rng(n + f)
        for _ in range(150):
            q = tuple(int(v) for v in rng.integers(-3, 4 * n + 3, 3))
            got = query_stab6(t, q)
            assert len(got) == len(set(got)), q
            assert set(got) == brute_stab(rects, q), q

    @pytest.mark.parametrize("params", [ModelParams(), GRIDDED], ids=["default", "gridded"])
    def test_far_z_like_oracle(self, params):
        # the z walk locates qz with bisect on Python ints; z values past
        # int64 reach the M, L and R trees and the leaves unchanged
        rects = list(gen("stab6", 300, 1200, seed=3).boxes)
        t = build_stab6(rects, f=4, params=params)
        for qz in (2**70, -(2**70), 2**63, -(2**63) - 1):
            for qx, qy in ((5, 5), (600, 600), (2**70, 600), (600, -(2**70))):
                got = query_stab6(t, (qx, qy, qz))
                assert set(got) == brute_stab(rects, (qx, qy, qz)) and len(got) == len(set(got))

    def test_path_length(self):
        inst = gen("stab6", 1024, 4096, seed=21)
        for f in (2, 4, 8):
            t = build_stab6(list(inst.boxes), f=f)
            rng = np.random.default_rng(f)
            for _ in range(100):
                q = tuple(int(v) for v in rng.integers(0, 4096, 3))
                trace = []
                query_stab6(t, q, trace=trace)
                visited = sum(ev.decision == "visit" for ev in trace)
                assert visited <= t.height_bound()
                assert visited == depth_of(t, q[2])


def depth_of(t, qz):
    """Number of nodes of the interval tree ``t`` on the search path of qz."""
    li = int(np.searchsorted(t.zvals, qz, side="right")) - 1
    if li < 0:
        return 0
    d = 0
    node = t.root
    while node is not None:
        d += 1
        if node.leaf_items is not None:
            break
        node = node.children.get((li - node.lo) // node.child_size)
    return d
