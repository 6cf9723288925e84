"""The benchmark workloads: inputs, set-up, the timed user call, the numpy
scan oracle, and a read-only walk of the built structure.

Library entry points are looked up on their modules at call time, so that a
tracer installed around a pass sees every call.
"""

from __future__ import annotations

import numpy as np

from boxstab import bench, geom, pl3d, stab5, stab6, topk
from boxstab.geom import ModelParams
from boxstab.instances import gen


def tree_shape(root, is_leaf, children) -> tuple[int, int, int]:
    """(depth in edges, internal nodes, leaves) of a rooted tree."""
    depth = internal = leaves = 0
    todo = [(root, 0)]
    while todo:
        node, d = todo.pop()
        depth = max(depth, d)
        if is_leaf(node):
            leaves += 1
        else:
            internal += 1
            todo.extend((c, d + 1) for c in children(node))
    return depth, internal, leaves


def _grid_children(node):
    return list(node.col_children.values()) + list(node.row_children.values())


class Workload:
    """One generated instance plus its query stream; subclasses bind it to a
    structure.  ``seed`` is the instance's generator seed."""

    grid_required = False  # the regime guard: a leaf root fails the run

    def __init__(self, spec: dict, seed: int):
        self.n = spec["n"]
        self.U = spec["U"]
        self.dims = spec["dims"]
        self.params = ModelParams(**spec["params"])
        self.inst = gen(spec["kind"], self.n, self.U, seed)
        self.boxes = list(self.inst.boxes)
        self._rng = np.random.default_rng((seed, 1))
        # oracle columns x1 x2 y1 y2 z1 z2 in id order (ids are positions);
        # a side unbounded in every box (stab5's z1, top-k's z) is never
        # compared and holds zeros
        cols = [[b.interval(a)[e] for b in self.boxes] for a in range(3) for e in (0, 1)]
        self.cols = [np.asarray(c if None not in c else [0] * self.n, dtype=np.int32) for c in cols]
        self.ids = np.arange(self.n, dtype=np.int64)

    def queries(self):
        """Endless query stream, uniform over [0, U)^dims."""
        while True:
            yield from map(tuple, self._rng.integers(0, self.U, size=(4096, self.dims)).tolist())

    def scan(self, q):
        """Ids of the boxes containing q, by a numpy mask over every box."""
        x1, x2, y1, y2, z1, z2 = self.cols
        qx, qy, qz = q
        m = (x1 <= qx) & (x2 >= qx) & (y1 <= qy) & (y2 >= qy) & (z1 <= qz) & (z2 >= qz)
        return self.ids[np.flatnonzero(m)]

    def check(self, q, got, hits) -> bool:
        """Reporting queries: the same id set, no duplicates."""
        return np.array_equal(np.sort(np.asarray(got, dtype=np.int64)), hits)

    def shape(self, s) -> tuple[dict, bool]:
        """Shape metrics and whether the root is a leaf."""
        root, is_leaf, children = self.tree(s)
        depth, internal, leaves = tree_shape(root, is_leaf, children)
        shape = {"depth": depth, "grid_nodes": internal, "leaf_share": leaves / (internal + leaves)}
        return shape, is_leaf(root)


class PL3Locate(Workload):
    def setup(self):
        rs, red = geom.rank_reduce(self.boxes)
        U = tuple(max(2, rs.size(a)) for a in range(3))
        return rs, pl3d.build_pl3(red, U, params=self.params)

    def query(self, s, q, counters=None):
        rs, pl = s
        fl = geom.rank_locate(rs, q, counters)
        if min(fl) < 0:
            return None
        got = pl3d.query_pl3(pl, fl, counters)
        if got is not None and not geom.contains(self.boxes[got], q):
            return None
        if counters is not None and got is not None:
            counters.add_output(1)
        return got

    def check(self, q, got, hits) -> bool:
        if len(hits) > 1:
            return False  # overlapping input: no single right answer
        return got == (int(hits[0]) if len(hits) else None)

    def bits(self, s) -> int:
        return s[1].bits_stored

    def tree(self, s):
        return (
            s[1].root,
            lambda node: node.leaf_coords is not None,
            lambda node: list(node.short_children.values())
            + ([node.middle_child] if node.middle_child is not None else []),
        )


class Stab6Report(Workload):
    def setup(self):
        return stab6.build_stab6(self.boxes, params=self.params)

    def query(self, s, q, counters=None):
        return stab6.query_stab6(s, q, counters)

    def bits(self, s) -> int:
        return bench.total_bits(s)

    def shape(self, s) -> tuple[dict, bool]:
        """Depth of the z interval tree; grid counts over every M, L and R
        tree hanging off it.  The root counts as a leaf when no grid node
        exists anywhere."""
        depth, _, _ = tree_shape(
            s.root, lambda node: node.leaf_items is not None, lambda node: node.children.values()
        )
        internal = leaves = 0
        todo = [s.root]
        while todo:
            node = todo.pop()
            if node.leaf_items is not None:
                continue
            todo.extend(node.children.values())
            roots = [(t.root, lambda g: g.leaf is not None) for t in (*node.L.values(), *node.R.values())]
            if node.M is not None:
                roots.append((node.M, lambda g: g.leaf_items is not None))
            for root, is_leaf in roots:
                _, i, lv = tree_shape(root, is_leaf, _grid_children)
                internal += i
                leaves += lv
        share = leaves / (internal + leaves) if internal + leaves else 1.0
        return {"depth": depth, "grid_nodes": internal, "leaf_share": share}, internal == 0


class Stab5Grid(Workload):
    grid_required = True

    def setup(self):
        return stab5.build_stab5(self.boxes, self.params)

    def query(self, s, q, counters=None):
        return stab5.query_stab5(s, q, counters)

    def scan(self, q):
        x1, x2, y1, y2, _, z2 = self.cols
        qx, qy, qz = q
        m = (x1 <= qx) & (x2 >= qx) & (y1 <= qy) & (y2 >= qy) & (z2 >= qz)
        return self.ids[np.flatnonzero(m)]

    def bits(self, s) -> int:
        return s.bits_stored

    def tree(self, s):
        return s.root, lambda node: node.leaf is not None, _grid_children


class TopKGrid(Workload):
    grid_required = True

    def __init__(self, spec: dict, seed: int):
        super().__init__(spec, seed)
        self.rects = self.inst.boxes2()
        self.k_set = [
            k if isinstance(k, int) else getattr(self.params, k)(self.n) for k in spec["k_set"]
        ]
        # oracle rows in answer order: weight descending, id ascending
        w = np.asarray([b.weight for b in self.boxes], dtype=np.int64)
        order = np.lexsort((self.ids, -w))
        self.cols = [c[order] for c in self.cols]
        self.ids = self.ids[order]

    def queries(self):
        """(x, y, k) with k drawn uniformly from the k set."""
        ks = np.asarray(self.k_set)
        while True:
            xy = self._rng.integers(0, self.U, size=(4096, 2))
            k = ks[self._rng.integers(0, len(ks), size=4096)]
            yield from map(tuple, np.column_stack([xy, k]).tolist())

    def setup(self):
        return topk.build_topk_stab(self.rects, self.params)

    def query(self, s, q, counters=None):
        return topk.query_topk_stab(s, q[:2], q[2], counters)

    def scan(self, q):
        x1, x2, y1, y2 = self.cols[:4]
        qx, qy, k = q
        m = (x1 <= qx) & (x2 >= qx) & (y1 <= qy) & (y2 >= qy)
        return self.ids[np.flatnonzero(m)[:k]]

    def check(self, q, got, hits) -> bool:
        return got == hits.tolist()

    def bits(self, s) -> int:
        return bench.total_bits(s)

    def tree(self, s):
        return s.root, lambda node: node.leaf_items is not None, _grid_children


WORKLOADS = {
    "pl3d-locate": PL3Locate,
    "stab6-report": Stab6Report,
    "stab5-grid": Stab5Grid,
    "topk-grid": TopKGrid,
}
