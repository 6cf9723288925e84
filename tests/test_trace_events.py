"""Every traced query appends ``TraceEvent``s of the documented shape.

The layer of an event is the module whose query emitted it, its decision is
one of that layer's documented decisions, and its node and key have the
documented types.  The grid trees are clamped (``clamp_cells``) and ZR4Fast
is built with t0 = 1 so that every fallback decision occurs at test size.
"""

import numpy as np

from boxstab.counters import TraceEvent
from boxstab.geom import ModelParams, rank_locate, rank_reduce
from boxstab.instances import gen
from boxstab.pl3d import PL3Node, build_pl3, query_pl3
from boxstab.stab5 import GridNode, build_stab5, query_stab5
from boxstab.stab6 import ITNode, ZR4Fast, build_stab6, build_zr4_fast, build_zr6, query_stab6, query_zr4_fast, query_zr6
from gridclamp import clamp_cells

# decision -> (layer, node type, key type)
DECISIONS = {
    "short": ("pl3d", PL3Node, int),
    "middle": ("pl3d", PL3Node, int),
    "top_fallback": ("stab5", GridNode, tuple),
    "cover_fallback": ("stab6", GridNode, tuple),
    "zr4_fallback": ("stab6", ZR4Fast, int),
    "visit": ("stab6", ITNode, type(None)),
}
GRIDDED = ModelParams(tau=8, grid_override=4)


def _queries(U, seed, count=200, f=None):
    rng = np.random.default_rng(seed)
    qs = [tuple(int(v) for v in rng.integers(0, U, 3)) for _ in range(count)]
    return qs if f is None else [(x, y, z % f) for x, y, z in qs]


def _traced():
    """(query function, trace) of every traced query of the five structures."""
    inst = gen("pl-subdivision-pruned", 300, 1300, seed=8)
    rs, red = rank_reduce(list(inst.boxes))
    pl = build_pl3(red, tuple(max(2, rs.size(a)) for a in range(3)))
    for q in _queries(1300, 1):
        fl = rank_locate(rs, q)
        if min(fl) >= 0:
            trace = []
            query_pl3(pl, fl, trace=trace)
            yield query_pl3, trace

    runs = []
    t = build_stab5(list(gen("stab5", 300, 1200, seed=2).boxes), GRIDDED)
    clamp_cells(t.root, 1)
    runs.append((query_stab5, t, _queries(1200, 3)))
    zr4 = build_zr4_fast(list(gen("zr4", 200, 800, seed=4, fanout=4).boxes), f=4, t0=1)
    runs.append((query_zr4_fast, zr4, _queries(800, 5, f=4)))
    zr6 = build_zr6(list(gen("zr6", 300, 1200, seed=6, fanout=4).boxes), f=4, params=GRIDDED)
    clamp_cells(zr6.root, 1)
    runs.append((query_zr6, zr6, _queries(1200, 7, f=4)))
    stab6 = build_stab6(list(gen("stab6", 300, 1200, seed=8).boxes))
    runs.append((query_stab6, stab6, _queries(1200, 9)))
    for query, s, qs in runs:
        for q in qs:
            trace = []
            query(s, q, trace=trace)
            yield query, trace


def test_events_have_the_documented_shape():
    seen = set()
    for query, trace in _traced():
        module = query.__module__.rpartition(".")[2]
        for ev in trace:
            assert isinstance(ev, TraceEvent), ev
            layer, node_type, key_type = DECISIONS[ev.decision]
            assert ev.layer == layer == module, (query.__name__, ev.layer, ev.decision)
            assert isinstance(ev.node, node_type) and isinstance(ev.key, key_type), ev
            assert isinstance(ev.q, tuple) and len(ev.q) == 3, ev
            seen.add(ev.decision)
    assert seen == set(DECISIONS)
