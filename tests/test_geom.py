import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from boxstab.geom import (
    NEG,
    POS,
    Box2,
    Box3,
    ModelParams,
    ValidationError,
    contains,
    floor_rank,
    rank_axis,
    rank_locate,
    rank_reduce,
    rank_reduce_arrays,
)
import boxstab
from boxstab.counters import Counters
from boxstab.instances import gen, gen_pl_arrays
from boxstab.oracle import brute_stab
from boxstab.range2d import build_pl2, query_pl2
from boxstab.stab5 import build_slow5, grid_nodes, query_slow5
from boxstab.verify import STRUCTURES, _qpoints, query_cases


def box(x, y, z, id=0):
    return Box3(id, x, y, z)


class TestCoordinateDomain:
    def test_malformed_raises(self):
        with pytest.raises(ValidationError):
            box((2, 1), (0, 1), (0, 1))

    @pytest.mark.parametrize("x,y", [((0, 2**62), (0, 5)), ((0, 3), (-(2**62), 5)), ((2**63, None), (0, 5))])
    def test_endpoint_at_or_beyond_sentinel_rejected(self, x, y):
        with pytest.raises(ValidationError):
            Box3(0, x, y, (None, 7))
        with pytest.raises(ValidationError):
            Box2(0, x, y)

    @pytest.mark.parametrize("id,x", [(0, (0.5, 3)), (0, (0, "3")), (2**63, (0, 3)), ("a", (0, 3))])
    def test_non_integer_endpoint_or_id_rejected(self, id, x):
        # a float endpoint would be truncated in the structures' int64
        # arrays, and an id must fit them
        with pytest.raises(ValidationError):
            Box3(id, x, (0, 5), (None, 7))
        with pytest.raises(ValidationError):
            Box2(id, x, (0, 5))

    @pytest.mark.parametrize("w", [2**62, -(2**62), 2**63, 1.5, "3"])
    def test_weight_outside_domain_rejected(self, w):
        with pytest.raises(ValidationError):
            Box3(0, (0, 1), (0, 1), (0, 1), weight=w)
        with pytest.raises(ValidationError):
            Box2(0, (0, 1), (0, 1), weight=w)

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


# one box outside each builder's form: the builder must reject it, never
# drop the offending side or fail inside numpy
OUTSIDE_FORM = [
    ("build_stab5", [box((0, 5), (None, 5), (None, 7))], {}),
    ("build_slow5", [box((0, 5), (0, 5), (3, 7))], {}),
    ("build_leaf5", [box((0, 5), (0, 5), (3, 7))], {}),
    ("build_stab6", [box((0, 5), (0, 5), (None, 7))], {}),
    ("build_zr4_slow", [box((0, 5), (None, 5), (0, 1))], {}),
    ("build_zr4_fast", [box((None, 5), (None, 5), (None, 1))], {}),
    ("build_zr6", [box((0, 5), (0, None), (0, 1))], {}),
    ("build_topk_stab", [Box2(0, (None, 5), (0, 5), weight=3)], {}),
    ("build_pl3", [box((0, 5), (0, 5), (0, None))], {"universes": (8, 8, 8)}),
    ("build_stab_count", [Box2(0, (0, 5), (None, 5))], {}),
    # a fan-out below 2 cannot split the z leaves
    ("build_stab6", [box((0, 5), (0, 5), (0, 7))], {"f": 1}),
    ("build_stab6", [box((0, 5), (0, 5), (0, 7))], {"f": 0}),
    ("build_stab6", [box((0, 5), (0, 5), (0, 7))], {"f": -1}),
]


@pytest.mark.parametrize(
    "builder,boxes,kwargs",
    OUTSIDE_FORM,
    ids=[b + (f"-f{kw['f']}" if "f" in kw else "") for b, _, kw in OUTSIDE_FORM],
)
def test_box_outside_form_rejected(builder, boxes, kwargs):
    with pytest.raises(ValidationError):
        getattr(boxstab, builder)(boxes, **kwargs)


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

    def test_unbounded_sides_and_weights(self):
        boxes = [
            Box3(4, (None, 30), (None, None), (7, None), weight=-3),
            Box3(2, (None, None), (8, 8), (None, 7), weight=10),
            Box3(9, (30, None), (None, 12), (None, None)),
        ]
        rs, red = rank_reduce(boxes)
        assert rs.axes == ((30,), (8, 12), (7,))
        expect = [
            Box3(4, (None, 0), (None, None), (0, None), weight=-3),
            Box3(2, (None, None), (0, 0), (None, 0), weight=10),
            Box3(9, (0, None), (None, 1), (None, None)),
        ]
        assert red == expect

    def test_equals_validating_constructor(self):
        inst = gen("stab5", 120, 240, seed=11)
        boxes = [Box3(b.id, b.x, b.y, b.z, weight=b.id - 60) for b in inst.boxes]
        rs, red = rank_reduce(boxes)
        for b, r in zip(boxes, red):
            rank = [
                tuple(None if v is None else rs.axes[a].index(v) for v in b.interval(a))
                for a in range(3)
            ]
            assert type(r) is Box3 and vars(r) == vars(Box3(b.id, *rank, weight=b.weight))

    @pytest.mark.parametrize("v", [NEG, POS, NEG - 1])
    def test_arrays_reject_sentinels(self, v):
        # the (n, 6) form ranks finite coordinates only; rank_axis would
        # pass a sentinel through unranked
        coords = np.array([[1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 7]], dtype=np.int64)
        assert rank_reduce_arrays(coords)[1].tolist() == [[0, 1, 0, 1, 0, 1], [1, 2, 1, 2, 1, 2]]
        coords[1, 3] = v
        with pytest.raises(ValidationError):
            rank_reduce_arrays(coords)


class TestRankAxis:
    @staticmethod
    def reference(cols, step):
        ax = sorted({v for c in cols for v in c if NEG < v < POS})
        return ax, [[v if v in (NEG, POS) else step * ax.index(v) for v in c] for c in cols]

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("ncols", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_matches_sorted_set(self, n, ncols, step):
        rng = np.random.default_rng(n * 10 + ncols + step)
        cols = []
        for _ in range(ncols):
            c = rng.integers(-6, 6, n)
            c[rng.random(n) < 0.2] = NEG
            c[rng.random(n) < 0.2] = POS
            cols.append(c.astype(np.int64))
        raw = [c.tolist() for c in cols]
        ax, out = rank_axis(cols, step=step)
        ref_ax, ref_cols = self.reference(raw, step)
        assert ax.tolist() == ref_ax
        assert [o.tolist() for o in out] == ref_cols
        assert [c.tolist() for c in cols] == raw  # the inputs are left as they were

    def test_all_sentinels(self):
        ax, (lo, hi) = rank_axis((np.array([NEG, NEG]), np.array([POS, POS])), step=2)
        assert ax.tolist() == [] and lo.tolist() == [NEG, NEG] and hi.tolist() == [POS, POS]


class TestFloorRank:
    AXIS = (10, 20, 30)

    @pytest.mark.parametrize("v,rank", [(20, 1), (25, 1), (9, -1), (10, 0), (31, 2), (2**70, 2)])
    def test_floor(self, v, rank):
        c = Counters()
        assert floor_rank(self.AXIS, v, c) == rank
        # one search over the axis
        ref = Counters()
        ref.charge_search(len(self.AXIS))
        assert c == ref

    def test_empty_axis(self):
        c = Counters()
        assert floor_rank((), 5, c) == -1
        assert floor_rank(np.array([], dtype=np.int64), 5) == -1
        assert c.predecessor_steps == 1


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


# ---------------------------------------------------------------------------
# rank-space digests: every rank axis the library builds, and apart from
# them the answers, the sorted answers and the counters of the structures
# built on them, so a change of what a query charges moves one value only

RANK_PARAMS = ModelParams(grid_override=3, tau=8)
RANK_SIZES = (0, 1, 2, 17, 150, 400)


def _grid_axes(root):
    """The rank axes of every grid node; a leaf has none."""
    if root is None:
        return []
    return [[ax.tolist() for ax in node.axes] for node in grid_nodes(root) if node.leaf is None]


def _stab6_grids(t):
    """The grid roots of the stab6 z interval tree ``t``: each node's M tree
    and its L and R stab5 trees."""
    for node in t.nodes():
        if node.leaf_items is None:
            if node.M is not None:
                yield node.M
            yield from (s.root for s in (*node.R.values(), *node.L.values()))


def _rank_space_digests():
    """Digests of the rank axes (with bits_stored), of the ordered answers,
    of the sorted answers and of the counters."""
    hs = {k: hashlib.sha256() for k in ("axes", "answers", "sorted", "counters")}

    def put(k, x):
        hs[k].update(repr(x).encode())

    for n in RANK_SIZES:
        U = max(2, 2 * n)
        for kind in ("pl-disjoint", "pl-subdivision-pruned", "stab5", "topk-stab"):
            rs, red = rank_reduce(list(gen(kind, n, U, seed=n + 5).boxes))
            put("axes", (rs.axes, [(b.id, b.x, b.y, b.z, b.weight) for b in red]))
        if n:
            axes, red = rank_reduce_arrays(gen_pl_arrays(n, U, seed=n + 6, pruned=True))
            put("axes", ([a.tolist() for a in axes], red.tolist()))
        for name in ("pl3d", "stab5", "slow5", "stab6", "zr6", "topkstab"):
            row = STRUCTURES[name]
            inst = gen(row.kind, n, U, seed=n + 7)
            s = row.build(inst, RANK_PARAMS, 16)
            put("axes", s.bits_stored)
            if name in ("stab5", "zr6", "topkstab"):
                put("axes", _grid_axes(s.root))
            elif name == "slow5":
                put("axes", [ax.tolist() for ax in s.axes])
            elif name == "stab6":
                put("axes", (s.zvals, [_grid_axes(r) for r in _stab6_grids(s)]))
            qs = _qpoints(inst, 60, seed=n)
            for cases in query_cases(row, s, inst, RANK_PARAMS, qs, seed=n):
                for case in cases:
                    c = Counters()
                    got = row.query(s, case, c)
                    put("answers", got)
                    put("sorted", sorted(got) if isinstance(got, list) else got)
                    put("counters", astuple(c))
    return {k: h.hexdigest()[:16] for k, h in hs.items()}


# the values per part: a change of what a query charges may move
# "counters" only; the other three pin the ranks, the answers and their order
RANK_DIGESTS = {
    "axes": "2de97f485d538a70",
    "answers": "3d333bdd9a06b82c",
    "sorted": "a45742d22f217b4e",
    "counters": "a793c6f3c455667f",
}


def test_rank_space_digest():
    # rank_reduce and rank_reduce_arrays over tie-heavy instances, every
    # grid node's rank axes, stab6's z values, and the answers, counters
    # and bits_stored of the structures ranked on them
    assert _rank_space_digests() == RANK_DIGESTS
