"""The grid recursion stops by one progress rule (``stab5.build_grid``): a
node whose break would hand some child all of its m items with as many
finite x1/x2/y1/y2 sides, its own subproblem again, is a leaf.  Below a
grid node, (items, finite sides) then falls at every step.  The inputs
here (identical boxes, a staircase, tau = 1 instances, a 3-value universe)
are those that repeat a subproblem when the break alone decides; the
5-sided, z-restricted 6-sided and top-k trees share the recursion, and
each must answer like its brute oracle.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxstab import stab5, stab6, topk
from boxstab.geom import NEG, POS, Box3, ModelParams
from boxstab.instances import Instance, gen
from boxstab.verify import verify

STRUCTURES = ("stab5", "zr6", "topkstab")
KIND = {"stab5": "stab5", "zr6": "zr6", "topkstab": "topk-stab"}
F = 4  # the z universe of the zr6 instances


def _instance(structure: str, rects) -> Instance:
    """An instance of ``structure``'s kind over the (x, y) intervals
    ``rects``; box i's z (or weight) is drawn from i, with ties."""
    boxes = []
    for i, (x, y) in enumerate(rects):
        if structure == "stab5":
            boxes.append(Box3(i, x, y, (None, i % 7)))
        elif structure == "zr6":
            boxes.append(Box3(i, x, y, (i % 2, i % 2 + i % 3)))
        else:
            boxes.append(Box3(i, x, y, (None, None), weight=i * 5 % 11))
    universe = max(max(x[1], y[1]) for x, y in rects) + 1
    return Instance(KIND[structure], len(boxes), universe, 0, tuple(boxes), structure == "topkstab", F)


def _finite_sides(it) -> int:
    return sum(int(((it[k] > NEG) & (it[k] < POS)).sum()) for k in ("x1", "x2", "y1", "y2"))


@contextmanager
def _steps():
    """Every (parent, child) pair of (items, finite sides) that the grid
    recursion builds while the context is open."""
    steps, stack = [], []
    inner = stab5.build_grid

    def recorded(it, kind, params):
        here = (len(it["orig"]), _finite_sides(it))
        if stack:
            steps.append((stack[-1], here))
        stack.append(here)
        try:
            return inner(it, kind, params)
        finally:
            stack.pop()

    with pytest.MonkeyPatch.context() as mp:
        for module in (stab5, stab6, topk):
            mp.setattr(module, "build_grid", recorded)
        yield steps


def _check(structure: str, inst: Instance, params: ModelParams, query_points=None, n_queries=200):
    """Answers like the oracle, and (items, finite sides) falls from every
    grid node to each child; returns the recorded steps."""
    with _steps() as steps:
        rep = verify(structure, inst, n_queries, 3, params, query_points=query_points)
    assert rep.passed, rep.witness()
    rising = [(parent, child) for parent, child in steps if not child < parent]
    assert not rising, rising[:5]
    return steps


def _all_points(lo: int, hi: int, zs):
    return [(x, y, z) for x in range(lo, hi) for y in range(lo, hi) for z in zs]


@pytest.mark.parametrize("g", range(2, 7))
@pytest.mark.parametrize("structure", STRUCTURES)
def test_identical_boxes(structure, g):
    # one side piece of each box reaches a child with as many finite sides
    # as the box: the node is a leaf, not the first of a chain of copies
    inst = _instance(structure, [((3, 5), (3, 5))] * 600)
    steps = _check(structure, inst, ModelParams(tau=1, grid_override=g), _all_points(1, 8, (0, 4, 7)))
    assert steps and max(parent[0] for parent, _ in steps) == 600


def _staircase(m: int):
    return [((i, m), (0, m - i)) for i in range(m + 1)]


def _tie_below(m: int):
    # most boxes share x = [0, m] and y1 = 0; a fifth sit on the diagonal
    return [((0, m), (0, i)) for i in range(m - m // 5)] + [((k, k), (k, m - k)) for k in range(m // 5)]


@pytest.mark.parametrize("g", range(2, 7))
@pytest.mark.parametrize("structure", STRUCTURES)
def test_staircase(structure, g):
    m = 160
    _check(structure, _instance(structure, _staircase(m)), ModelParams(tau=1, grid_override=g))


def _depth(root) -> int:
    deepest, todo = 0, [(root, 0)]
    while todo:
        node, d = todo.pop()
        deepest = max(deepest, d)
        if node.leaf is None:
            todo.extend((c, d + 1) for c in (*node.col_children.values(), *node.row_children.values()))
    return deepest


@pytest.mark.parametrize(("family", "m"), [(_staircase, 6000), (_tie_below, 2000)])
def test_tied_depth(family, m):
    # tied endpoints would put a lone grid line on a node's smallest one;
    # kept, it hands one child all but a few boxes unchanged per level,
    # past Python's recursion limit at these sizes
    tree = stab5.build_stab5(list(_instance("stab5", family(m)).boxes), ModelParams(tau=1, grid_override=6))
    assert _depth(tree.root) <= math.log2(m)


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_gen_at_tau_one(structure, seed):
    inst = gen(KIND[structure], 400, 800, seed, fanout=F)
    _check(structure, inst, ModelParams(tau=1, grid_override=4))


_PAIR = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda p: tuple(sorted(p)))


@settings(max_examples=80)
@given(
    structure=st.sampled_from(STRUCTURES),
    rects=st.lists(st.tuples(_PAIR, _PAIR), min_size=1, max_size=40),
    tau=st.integers(1, 4),
    g=st.integers(2, 6),
)
def test_three_value_universe(structure, rects, tau, g):
    inst = _instance(structure, rects)
    _check(structure, inst, ModelParams(tau=tau, grid_override=g), _all_points(-1, 4, (-1, 2, 6)))
