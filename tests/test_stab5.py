import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxstab.counters import Counters
from boxstab.domcut import Dominance3
from boxstab.geom import NEG, POS, Box3, ModelParams, ValidationError
from boxstab.instances import gen
from boxstab.oracle import brute_stab
from boxstab.stab5 import (
    GridKind,
    GridNode,
    _groups,
    build_leaf5,
    build_slow5,
    build_stab5,
    grid_nodes,
    grid_side,
    query_leaf5,
    query_slow5,
    query_stab5,
    top_list_cap,
)
from boxstab.stab6 import _ZR6Grid
from boxstab.verify import STRUCTURES
from gridclamp import clamp_cells
from reach import reachable

DEEP = ModelParams(tau=8, grid_override=2)
GRIDDED = ModelParams(tau=8, grid_override=5)


def queries(U, seed, k=300):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.integers(-2, U + 2, 3)) for _ in range(k)]


class TestGridFormula:
    def test_two_to_sixteen(self):
        assert grid_side(2**16) == 2

    def test_monotone_zone(self):
        assert grid_side(2**20) == 5


class TestLeaf5:
    def test_empty(self):
        l = build_leaf5([])
        assert query_leaf5(l, (0, 0, 0)) == []

    def test_all_contain(self):
        rects = [Box3(i, (0, 9), (0, 9), (None, 9)) for i in range(16)]
        l = build_leaf5(rects)
        assert sorted(query_leaf5(l, (5, 5, 5))) == list(range(16))

    def test_oracle(self):
        inst = gen("stab5", 16, 64, seed=2)
        l = build_leaf5(list(inst.boxes))
        for q in queries(64, 3, 200):
            assert set(query_leaf5(l, q)) == brute_stab(list(inst.boxes), q)

    def test_size_cap(self):
        rects = [Box3(i, (0, 1), (0, 1), (None, 1)) for i in range(40)]
        with pytest.raises(ValidationError):
            build_leaf5(rects)


# coordinates at and past the sentinels, on both sides
FAR = (NEG - 1, -(2**70), NEG, POS, POS + 1, 2**70)


@pytest.mark.parametrize(
    "build,query,params,leaf_root",
    [
        (build_stab5, query_stab5, ModelParams(), True),
        (build_leaf5, query_leaf5, ModelParams(), True),
        (build_stab5, query_stab5, ModelParams(grid_override=3, tau=1), False),
    ],
    ids=["stab5-leaf-root", "leaf5", "stab5-grid-root"],
)
def test_query_past_sentinels(build, query, params, leaf_root):
    # a root leaf keeps the caller's coordinates, and its shared z1 is the
    # NEG sentinel: a qz below NEG must still report the boxes over (qx, qy)
    rects = list(gen("stab5", 8, 16, seed=5).boxes)
    t = build(rects, params)
    assert (t.root.leaf is not None) == leaf_root
    inner = (0, 4, 7, 11)
    for qx in (*inner, *FAR):
        for qy in (*inner, *FAR):
            for qz in (*inner, *FAR):
                q = (qx, qy, qz)
                assert sorted(query(t, q)) == sorted(brute_stab(rects, q)), q


@pytest.mark.parametrize("q", [("3", 1, 1), (None, 1, 1), (1.5, 1, 1), (1, np.float64(0.5), 1), (1, 1, 1.5)])
@pytest.mark.parametrize("name", ["stab5", "leaf5", "slow5", "stab6", "zr4slow", "zr4fast", "zr6", "dom3", "pl3d"])
def test_non_integer_query_rejected(name, q):
    # the query domain is the integers: a float, a string or None raises
    # ValidationError, never a raw TypeError or an answer
    row = STRUCTURES[name]
    s = row.build(gen(row.kind, 16, 32, seed=1), ModelParams(), None)
    with pytest.raises(ValidationError):
        row.query(s, q, None)


class TestSlow5:
    def test_single(self):
        s = build_slow5([Box3(0, (2, 5), (2, 5), (None, 7))])
        assert query_slow5(s, (3, 3, 3)) == [0]
        assert query_slow5(s, (3, 3, 8)) == []

    def test_outside_x_ranges(self):
        s = build_slow5([Box3(0, (2, 5), (2, 5), (None, 7))])
        c = Counters()
        assert query_slow5(s, (9, 3, 0), c) == []

    @pytest.mark.parametrize("n", [3, 64, 500, 2048])
    def test_oracle(self, n):
        inst = gen("stab5", n, 4 * n, seed=n + 5)
        rects = list(inst.boxes)
        s = build_slow5(rects)
        for q in queries(4 * n, n, 150):
            got = query_slow5(s, q)
            assert len(got) == len(set(got))
            assert set(got) == brute_stab(rects, q)


class TestStab5Tree:
    def test_single_rect(self):
        t = build_stab5([Box3(0, (1, 5), (1, 5), (None, 9))])
        assert query_stab5(t, (2, 2, 2)) == [0]
        assert query_stab5(t, (2, 2, 10)) == []

    def test_empty_result_below_z(self):
        rects = [Box3(i, (0, 9), (0, 9), (None, 3)) for i in range(5)]
        t = build_stab5(rects)
        assert query_stab5(t, (1, 1, 4)) == []

    @pytest.mark.parametrize("n", [1, 2, 17, 128, 1024, 4096])
    def test_oracle_default_params(self, n):
        inst = gen("stab5", n, 4 * n, seed=3 * n)
        rects = list(inst.boxes)
        t = build_stab5(rects)
        for q in queries(4 * n, n + 1, 120):
            got = query_stab5(t, q)
            assert len(got) == len(set(got)), q
            assert set(got) == brute_stab(rects, q), q

    @pytest.mark.parametrize("n", [64, 300, 1200])
    def test_oracle_deep_tree(self, n):
        # grid_override bypasses the plateau leaf (the formula's side is 2
        # at these sizes): the grid machinery (stages, Top(c), slow
        # fallback, dominance slabs) is actually exercised
        inst = gen("stab5", n, 3 * n, seed=7 * n)
        rects = list(inst.boxes)
        t = build_stab5(rects, params=DEEP)
        assert t.root.leaf is None
        for q in queries(3 * n, n + 2, 250):
            got = query_stab5(t, q)
            assert len(got) == len(set(got)), q
            assert set(got) == brute_stab(rects, q), q

    @pytest.mark.parametrize("n", [200, 900])
    def test_oracle_gridded(self, n):
        # forced wide grid: grid rectangles, Top(c) lists and slab dominance
        # structures all materialize and must agree with the oracle
        inst = gen("stab5", n, 3 * n, seed=13 * n)
        rects = list(inst.boxes)
        t = build_stab5(rects, params=GRIDDED)

        def has_grid(node):
            if node.leaf is not None:
                return False
            if len(node.grid_items["orig"]):
                return True
            return any(
                has_grid(c)
                for c in list(node.col_children.values()) + list(node.row_children.values())
            )

        assert has_grid(t.root)
        for q in queries(3 * n, n + 4, 250):
            got = query_stab5(t, q)
            assert len(got) == len(set(got)), q
            assert set(got) == brute_stab(rects, q), q

    def test_heavy_ties_deep(self):
        rng = np.random.default_rng(11)
        rects = []
        for i in range(400):
            x = sorted(rng.integers(0, 6, 2).tolist())
            y = sorted(rng.integers(0, 6, 2).tolist())
            rects.append(Box3(i, tuple(x), tuple(y), (None, int(rng.integers(0, 6)))))
        t = build_stab5(rects, params=DEEP)
        for q in queries(6, 13, 200):
            assert set(query_stab5(t, q)) == brute_stab(rects, q)

    def test_fallback_soundness(self):
        # whenever the Top(c) fallback fires, at least cap grid
        # rectangles of that node are stabbed; at this scale the natural cap
        # log2^3 m exceeds m, so the cap is clamped post-build to force the
        # fallback path through the slow structure
        rng = np.random.default_rng(29)
        rects = []
        # many rectangles covering the center so Top lists fill up
        for i in range(500):
            rects.append(
                Box3(
                    i,
                    (int(rng.integers(0, 20)), int(rng.integers(80, 100))),
                    (int(rng.integers(0, 20)), int(rng.integers(80, 100))),
                    (None, int(rng.integers(0, 100))),
                )
            )
        t = build_stab5(rects, params=GRIDDED)
        clamp_cells(t.root, 3)
        fired = 0
        for q in queries(100, 31, 300):
            trace = []
            got = query_stab5(t, q, trace=trace)
            assert set(got) == brute_stab(rects, q)
            assert len(got) == len(set(got))
            for ev in trace:
                if ev.decision != "top_fallback":
                    continue
                node, lq = ev.node, ev.q
                fired += 1
                gi = {k: np.asarray(v) for k, v in node.grid_items.items()}
                stabbed = int(
                    np.sum(
                        (gi["x1"] <= lq[0]) & (gi["x2"] >= lq[0])
                        & (gi["y1"] <= lq[1]) & (gi["y2"] >= lq[1])
                        & (gi["z2"] >= lq[2])
                    )
                )
                assert stabbed >= node.cap
        assert fired > 0

    def test_structural_bounds_small(self):
        import math

        n = 4096
        inst = gen("stab5", n, 4 * n, seed=41)
        t = build_stab5(list(inst.boxes))
        c = Counters()
        query_stab5(t, (5, 5, 5), c)
        assert c.nodes_visited <= 4 * math.log2(n) + 8
        assert t.bits_stored <= 40 * n * math.log2(n)


def _negated(iv):
    lo, hi = iv
    return (None if hi is None else -hi, None if lo is None else -lo)


@pytest.mark.parametrize(
    "axis,up", [(a, up) for a in range(3) for up in (False, True)],
    ids=[f"{'xyz'[a]}{'+' if up else '-'}inf" for a in range(3) for up in (False, True)],
)
def test_every_orientation_by_negation_and_permutation(axis, up):
    # a box unbounded on ``axis`` toward -inf, or +inf when ``up``, becomes
    # canonical by negating that axis when ``up`` and moving it to z; the
    # query is mapped the same way
    perm = [a for a in range(3) if a != axis] + [axis]

    def canonical_box(b):
        ivs = [_negated(iv) if up and a == axis else iv for a, iv in enumerate((b.x, b.y, b.z))]
        return Box3(b.id, *(ivs[a] for a in perm))

    def canonical_point(q):
        q = [-c if up and a == axis else c for a, c in enumerate(q)]
        return tuple(q[a] for a in perm)

    U = 64
    rng = np.random.default_rng(17 + 2 * axis + up)
    boxes = []
    for i in range(200):
        ivs = [tuple(sorted(rng.integers(0, U, 2).tolist())) for _ in range(3)]
        c = int(rng.integers(0, U))
        ivs[axis] = (c, None) if up else (None, c)
        boxes.append(Box3(i, *ivs))
    canon = [canonical_box(b) for b in boxes]
    tree = build_stab5(canon, params=DEEP)
    slow = build_slow5(canon)
    for q in queries(U, 23, 100):
        expect = sorted(brute_stab(boxes, q))
        cq = canonical_point(q)
        assert sorted(query_stab5(tree, cq)) == expect, q
        assert sorted(query_slow5(slow, cq)) == expect, q


def test_top_cap_formula():
    assert top_list_cap(2**10) == 1000
    assert top_list_cap(2) == 1


def test_grid_counters_pinned():
    # summed counters of 200 seeded queries on a gridded tree: how the slab
    # structures report must not change what the walk charges
    inst = gen("stab5", 600, 1200, seed=7)
    t = build_stab5(list(inst.boxes), ModelParams(grid_override=3, tau=8))
    c = Counters()
    for q in queries(1200, 9, k=200):
        query_stab5(t, q, c)
    got = (c.predecessor_steps, c.nodes_visited, c.dominance_queries, c.cells_scanned, c.output_size)
    assert got == (64175, 3206, 2473, 20683, 6053)


@given(st.lists(st.integers(-3, 5), max_size=40))
def test_groups_match_dict_loop(keys):
    # the grid break routes its piece table by these groups: rows ascending
    # within a key, keys in order of first appearance
    ref: dict[int, list[int]] = {}
    for row, k in enumerate(keys):
        ref.setdefault(k, []).append(row)
    got = [(k, rows.tolist()) for k, rows in _groups(np.asarray(keys, dtype=np.int64))]
    assert got == list(ref.items())


def test_grid_tree_keeps_no_numpy_array():
    # the grid walk reads stdlib arrays only: a grid node's axes, lines,
    # cell table and grid items, and every Dominance3 of fewer than BLOCK
    # points, hold no numpy array
    t = build_stab5(list(gen("stab5", 300, 900, seed=4).boxes), DEEP)
    objs = list(reachable(t))
    nodes = [o for o in objs if isinstance(o, GridNode) and o.leaf is None]
    small = [o for o in objs if isinstance(o, Dominance3) and o.n < Dominance3.BLOCK]
    assert len(nodes) > 1 and len(small) > 1
    for node in nodes:
        fields = [*node.axes, node.lines_x, node.lines_y, node.cell_start, node.cell_items, node.cell_ids]
        for v in fields + list(node.grid_items.values()):
            assert not isinstance(v, np.ndarray)
    for d in small:
        for k in Dominance3.__slots__:
            assert not isinstance(getattr(d, k), np.ndarray), k


def _covers(node, i, col, row, z):
    """Whether grid item i of ``node`` covers the cell (col, row) (and the
    span value z), from its stored rectangle and the node's lines."""
    gi = node.grid_items
    cells = []
    for lines, lo, hi, c in ((node.lines_x, "x1", "x2", col), (node.lines_y, "y1", "y2", row)):
        first = lines[c - 1] if c > 0 else NEG
        last = lines[c] - 1 if c < len(lines) else POS
        cells.append(gi[lo][i] <= first and last <= gi[hi][i])
    if z is not None:
        cells.append(gi["zi"][i] <= z <= gi["zj"][i])
    return all(cells)


@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("structure", ["stab5", "zr6", "topkstab"])
def test_cell_table_lists_the_first_cap_covering_items(structure, cap, monkeypatch):
    # reference: per cell, scan the grid items in stored order and keep the
    # first cap that cover it; cap 2 cuts lists that the natural cap leaves
    # whole
    if cap is not None:
        for kind in (GridKind, _ZR6Grid):
            monkeypatch.setattr(kind, "cell_cap", lambda self, m: cap)
    row = STRUCTURES[structure]
    inst = gen(row.kind, 400, 1200, 5, fanout=4)
    s = row.build(inst, GRIDDED, 4)
    nodes = [node for node in grid_nodes(s.root) if node.leaf is None and len(node.grid_items["orig"])]
    assert nodes
    for node in nodes:
        rows = len(node.lines_y) + 1
        spans = range(node.span) if node.kind.cell_span else [None]
        keys = [(c, r, z) for c in range(len(node.lines_x) + 1) for r in range(rows) for z in spans]
        assert len(node.cell_start) == len(keys) + 1
        for cell, (c, r, z) in enumerate(keys):
            expect = [i for i in range(len(node.grid_items["orig"])) if _covers(node, i, c, r, z)][: node.cap]
            lo, hi = node.cell_start[cell], node.cell_start[cell + 1]
            assert list(node.cell_items[lo:hi]) == expect, (c, r, z)
            assert list(node.cell_ids[lo:hi]) == [node.grid_items["orig"][i] for i in expect]
