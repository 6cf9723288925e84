"""Differential test of geom.Leaf, the one leaf scan of every structure.

A leaf of at most LEAF_ROWS rows is scanned as row tuples and a larger one
by a numpy mask, so row counts at and one past the constant run both forms.
Each form must return the hits of a brute scan, in stored order, and
charge scan_cells(n); a stab5 leaf, one-sided in z, stores its rows z2
descending (ties in their given order) and charges one search plus the
prefix of rows with z2 >= qz.  The constant is read, never changed.
"""

import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import DEFAULT_PARAMS, LEAF_ROWS, NEG, POS, Leaf
from boxstab.stab5 import Stab5Grid
from boxstab.stab6 import _ZR6Grid
from boxstab.topk import _TopKGrid

SIZES = (0, 1, LEAF_ROWS, LEAF_ROWS + 1)
FAR = (NEG - 1, NEG, POS, POS + 1, -(2**70), 2**70)


def _pair(rng, n, u):
    a = rng.integers(0, u, (2, n))
    return a.min(0), a.max(0)


def _items(n, seed):
    """Items over a small universe, so that rows share endpoints."""
    rng = np.random.default_rng(seed)
    it = {}
    for lo, hi in (("x1", "x2"), ("y1", "y2"), ("zi", "zj")):
        it[lo], it[hi] = _pair(rng, n, 12)
    it["z2"] = rng.permutation(n).astype(np.int64)  # a weight rank for top-k
    it["orig"] = rng.permutation(n).astype(np.int64) + 100
    return it


def _rows(it, z1, z2, payload, order=None):
    """The rows a leaf over ``it`` should store, as brute-scan tuples."""
    order = np.arange(len(it["orig"])) if order is None else order
    cols = [it[k][order].tolist() for k in ("x1", "x2", "y1", "y2")]
    z1 = it[z1][order].tolist() if isinstance(z1, str) else [z1] * len(order)
    z2 = it[z2][order].tolist() if isinstance(z2, str) else [z2] * len(order)
    pay = [it[k][order].tolist() for k in payload]
    return list(zip(*cols, z1, z2, pay[0] if len(pay) == 1 else zip(*pay)))


def _by_weight(it):
    return np.argsort(-it["z2"], kind="stable")


# bound shape: (leaf builder, rows it should store, query z of a point)
SHAPES = {
    "six-sided": (
        lambda it: Leaf(*(it[k] for k in ("x1", "x2", "y1", "y2", "zi", "zj")), it["orig"]),
        lambda it: _rows(it, "zi", "zj", ["orig"]),
        lambda qz: qz,
    ),
    "stab5": (
        Stab5Grid().leaf,
        lambda it: _rows(it, NEG, "z2", ["orig"], _by_weight(it)),
        lambda qz: qz,
    ),
    # z2 from the small universe of the other sides, so that rows tie in z2
    "stab5-ties": (
        lambda it: Stab5Grid().leaf({**it, "z2": it["zj"]}),
        lambda it: _rows(it, NEG, "zj", ["orig"], np.argsort(-it["zj"], kind="stable")),
        lambda qz: qz,
    ),
    "zr6": (_ZR6Grid(4, DEFAULT_PARAMS, 2).leaf, lambda it: _rows(it, "zi", "zj", ["orig"]), lambda qz: qz),
    # a 2-d leaf: rows in weight order with (weight, id), asked at z = 0
    "topk": (
        _TopKGrid(DEFAULT_PARAMS).leaf,
        lambda it: _rows(it, NEG, POS, ["z2", "orig"], _by_weight(it)),
        lambda qz: 0,
    ),
}


def _charge(shape, rows, q) -> dict:
    """The Counters of one leaf query: scan_cells(n), or for a stab5 leaf one
    search and the prefix of rows with z2 >= qz, none of them when qz is
    below the shared z1, and nothing for n = 0."""
    c = Counters()
    if not shape.startswith("stab5"):
        c.scan_cells(len(rows))
    elif rows:
        c.charge_search(len(rows))
        c.scan_cells(sum(r[5] >= q[2] for r in rows) if q[2] >= NEG else 0)
    return c.as_dict()


def _brute(rows, q):
    qx, qy, qz = q
    return [
        r[6] for r in rows
        if r[0] <= qx and qx <= r[1] and r[2] <= qy and qy <= r[3] and r[4] <= qz and qz <= r[5]
    ]


def _queries(rows, seed):
    """Points on, just inside and just outside every side of some rows, and
    past the sentinels on every axis."""
    rng = np.random.default_rng(seed)
    qs = [tuple(int(v) for v in rng.integers(-1, 13, 3)) for _ in range(30)]
    for r in rows[:6] + rows[-6:]:
        inside = [r[0], r[2], r[4]]
        for axis in range(3):
            lo, hi = r[2 * axis], r[2 * axis + 1]
            for v in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, *FAR):
                q = list(inside)
                q[axis] = v
                qs.append(tuple(q))
    for axis in range(3):
        for v in FAR:
            q = [5, 5, 5]
            q[axis] = v
            qs.append(tuple(q))
    return qs


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_leaf_matches_brute_scan(shape, n):
    build, expected_rows, z_of = SHAPES[shape]
    it = _items(n, n + 7)
    leaf = build(it)
    assert (leaf.rows is not None) == (n <= LEAF_ROWS)
    assert (leaf.cols is not None) == (n > LEAF_ROWS)
    rows = expected_rows(it)
    for qx, qy, qz in _queries(rows, n):
        q = (qx, qy, z_of(qz))
        c = Counters()
        assert leaf.query(q, c) == _brute(rows, q), q
        assert c.as_dict() == _charge(shape, rows, q), q


@pytest.mark.parametrize("n", SIZES[1:])
def test_stab5_leaf_far_z(n):
    # qz below NEG finds nothing and scans nothing; from NEG up to the
    # lowest z2 every row is in the prefix, and past the highest none is
    it = _items(n, n + 3)
    leaf = Stab5Grid().leaf(it)
    rows = _rows(it, NEG, "z2", ["orig"], _by_weight(it))
    qx, qy = rows[0][0], rows[0][2]
    everything = _brute(rows, (qx, qy, NEG))
    assert rows[0][6] in everything
    for qz, hits, prefix in (
        (NEG - 1, [], 0), (-(2**70), [], 0), (NEG, everything, n), (-1, everything, n),
        (n, [], 0), (POS, [], 0), (POS + 1, [], 0), (2**70, [], 0),
    ):
        c = Counters()
        assert leaf.query((qx, qy, qz), c) == hits, qz
        assert (c.predecessor_steps, c.cells_scanned) == (n.bit_length() + 1, prefix), qz


def test_stab5_leaf_columns_narrow_only_where_they_fit():
    # rank-space sides become int32 columns and an int32 key; a side past
    # int32 keeps them int64, and both answer like the brute scan
    n = LEAF_ROWS + 1
    it = _items(n, 5)
    leaf = Stab5Grid().leaf(it)
    assert leaf.key.itemsize == 4 and all(c.dtype == np.int32 for c in leaf.cols)
    far = {**it, "x1": it["x1"] + 2**40, "x2": it["x2"] + 2**40, "z2": it["z2"] - 2**40}
    leaf = Stab5Grid().leaf(far)
    assert leaf.key.itemsize == 8 and all(c.dtype == np.int64 for c in leaf.cols)
    rows = _rows(far, NEG, "z2", ["orig"], _by_weight(far))
    for qx, qy, qz in _queries(rows, 5):
        for q in ((qx, qy, qz), (qx + 2**40, qy, qz), (qx - 2**40, qy, qz)):
            assert leaf.query(q) == _brute(rows, q), q
