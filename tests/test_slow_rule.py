"""A grid node builds its slow structure exactly where a query can reach it.

stab5, zr6 and top-k read ``node.slow`` only through a cell list holding
``node.cap`` entries, so ``stab5.build_grid`` builds one only at a node
with such a list.  The tests build clamped (``gridclamp.clamped``) to get
full lists at test size; the build-time clamp must give the cell tables
that cutting the lists of an already-built tree gave, kept here as the
reference.
"""

from array import array

import numpy as np
import pytest

from boxstab.geom import Box3, ModelParams
from boxstab.instances import gen
from boxstab.stab5 import build_stab5, grid_nodes
from boxstab.stab6 import build_zr6
from boxstab.topk import build_topk_stab
from gridclamp import clamped

F = 4  # the z universe of the zr6 instances
GRIDDED = ModelParams(grid_override=4, tau=8)


def _clamp_after(node, cap):
    """The reference clamp: cut every grid node's cell lists of a built
    tree to ``cap`` entries and set its cap to ``cap``."""
    if node.leaf is not None:
        return
    node.cap = cap
    start, items, ids = node.cell_start, node.cell_items, node.cell_ids
    node.cell_start, node.cell_items, node.cell_ids = array("q", [0]), array("q"), array("q")
    for lo, hi in zip(start, start[1:]):
        node.cell_items.extend(items[lo : min(hi, lo + cap)])
        node.cell_ids.extend(ids[lo : min(hi, lo + cap)])
        node.cell_start.append(len(node.cell_items))
    for ch in (*node.col_children.values(), *node.row_children.values()):
        _clamp_after(ch, cap)


def _stab5(n, seed, params=GRIDDED):
    return build_stab5(list(gen("stab5", n, 4 * n, seed=seed).boxes), params=params)


def _zr6(n, seed, params=GRIDDED):
    return build_zr6(list(gen("zr6", n, 4 * n, seed=seed, fanout=F).boxes), f=F, params=params)


def _topk(n, seed, params=GRIDDED):
    return build_topk_stab(gen("topk-stab", n, 4 * n, seed=seed).boxes2(), params=params)


def _center_stab5():
    """test_stab5's fallback boxes: 500 boxes over the center."""
    rng = np.random.default_rng(29)
    rects = []
    for i in range(500):
        x = (int(rng.integers(0, 20)), int(rng.integers(80, 100)))
        y = (int(rng.integers(0, 20)), int(rng.integers(80, 100)))
        rects.append(Box3(i, x, y, (None, int(rng.integers(0, 100)))))
    return build_stab5(rects, params=GRIDDED)


BUILDERS = {"stab5": _stab5, "zr6": _zr6, "topkstab": _topk}

# (build, cap) of every clamped build in the suite
CLAMPED = {
    "stab5-fallback": (_center_stab5, 3),
    "stab5-trace": (lambda: _stab5(300, 2), 1),
    "zr6-fallback": (lambda: _zr6(700, 37), 1),
    "zr6-trace": (lambda: _zr6(300, 6), 1),
    "zr6-pins": (lambda: _zr6(300, 303), 1),
    "topk-switchover": (lambda: _topk(500, 31), 2),
    "topk-pins": (lambda: _topk(300, 304), 2),
    "topk-raw": (lambda: _topk(300, 3, ModelParams(grid_override=4)), 1),
}


def _grid(t):
    return [node for node in grid_nodes(t.root) if node.leaf is None]


def _longest(node) -> int:
    return int(np.diff(node.cell_start).max(initial=0))


@pytest.mark.parametrize("case", CLAMPED)
def test_build_time_clamp_matches_the_reference(case):
    build, cap = CLAMPED[case]
    ref = build()
    _clamp_after(ref.root, cap)
    with clamped(cap):
        got = build()
    ref_nodes, got_nodes = _grid(ref), _grid(got)
    assert ref_nodes and len(got_nodes) == len(ref_nodes)
    for a, b in zip(ref_nodes, got_nodes):
        assert (a.m, a.cap) == (b.m, b.cap) == (a.m, cap)
        assert (a.cell_start, a.cell_items, a.cell_ids) == (b.cell_start, b.cell_items, b.cell_ids)
    assert any(_longest(b) == cap for b in got_nodes)


@pytest.mark.parametrize("structure", BUILDERS)
def test_slow_exactly_behind_a_full_list(structure):
    trees = [BUILDERS[structure](300, 11, ModelParams(grid_override=g, tau=8)) for g in (2, 3, 4, 5)]
    for cap in (1, 2, 3):
        with clamped(cap):
            trees.append(BUILDERS[structure](300, 11))
    seen = set()
    for t in trees:
        for node in _grid(t):
            full = _longest(node) == node.cap
            assert (node.slow is not None) == full
            seen.add(full)
    assert seen == {False, True}
