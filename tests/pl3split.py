"""Replay pl3d's slab split along a traced query path.

A built PL3 keeps boxes only at its leaves, so a test that checks Lemma
2.3's dichotomy rebuilds the boxes that reached each traced node.  It
starts from the rank-reduced root boxes and splits them at every pl3d
event with the node's ``axis`` and ``width``, as ``pl3d._build`` does: a
box inside slab k is short there and reaches the slab's short child with
the axis rebased; a box spanning two or more slab boundaries reaches the
middle child with the axis replaced by its inner slab range.  The replay
then follows the event's decision down to the next node.
"""

import numpy as np


def box_coords(boxes):
    """(n, 6) array of finite Box3 extents, as ``build_pl3`` lays them out."""
    rows = [[*b.x, *b.y, *b.z] for b in boxes]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 6)


def split(node, coords, k):
    """The short boxes of slab k and the middle boxes of ``node``, in its
    children's coordinates, out of the boxes ``coords`` that reached it."""
    a, w = node.axis, node.width
    lo = coords[:, 2 * a] // w
    hi = coords[:, 2 * a + 1] // w
    short = coords[(lo == k) & (hi == k)]
    short[:, 2 * a : 2 * a + 2] -= k * w
    mid = hi - lo >= 2
    middle = coords[mid]
    middle[:, 2 * a] = lo[mid] + 1
    middle[:, 2 * a + 1] = hi[mid] - 1
    return short, middle


def _contains_any(coords, q):
    m = (
        (coords[:, 0] <= q[0]) & (coords[:, 1] >= q[0])
        & (coords[:, 2] <= q[1]) & (coords[:, 3] >= q[1])
        & (coords[:, 4] <= q[2]) & (coords[:, 5] >= q[2])
    )
    return bool(m.any())


def dichotomy(root_coords, trace):
    """(event, ruled, hit) for every pl3d event of one query's trace:
    ``ruled`` counts the boxes the event's decision rules out (the middle
    boxes after "short", the slab's short boxes after "middle") and ``hit``
    says whether one of them contains the query all the same, which Lemma
    2.3 forbids."""
    coords = root_coords
    for ev in trace:
        if ev.layer != "pl3d":
            continue
        node, k, q = ev.node, ev.key, ev.q
        a = node.axis
        short, middle = split(node, coords, k)
        q_short = tuple(q[i] - k * node.width if i == a else q[i] for i in range(3))
        q_middle = tuple(k if i == a else q[i] for i in range(3))
        if ev.decision == "short":
            yield ev, len(middle), _contains_any(middle, q_middle)
            coords = short
        else:
            yield ev, len(short), _contains_any(short, q_short)
            coords = middle
