"""Rectangle stabbing: 5-sided grid tree, 6-sided interval tree, and the
z-restricted 4-sided structures, each verified against the brute oracle."""

import numpy as np

from boxstab import Counters, brute_stab
from boxstab.geom import ModelParams
from boxstab.instances import gen
from boxstab.stab5 import build_stab5, query_stab5
from boxstab.stab6 import (
    build_stab6, build_zr4_fast, build_zr4_slow,
    query_stab6, query_zr4_fast, query_zr4_slow,
)

rng = np.random.default_rng(3)

# ---- 5-sided: [x1,x2] x [y1,y2] x (-inf, z2] ------------------------------
inst = gen("stab5", 3000, 12000, seed=1)
rects = list(inst.boxes)
# a wide grid exercises the full machinery (breaking stages, Top(c) lists,
# per-slab dominance, slow-structure fallback) even at this small scale
tree = build_stab5(rects, params=ModelParams(tau=16, grid_override=5))
c = Counters()
for _ in range(500):
    q = tuple(int(v) for v in rng.integers(0, 12000, 3))
    got = query_stab5(tree, q, c)
    assert set(got) == brute_stab(rects, q)
print(f"stab5: 500 queries OK; nodes/query ~ {c.nodes_visited / 500:.1f}, "
      f"dominance queries ~ {c.dominance_queries / 500:.1f}")

# ---- 6-sided via the fan-out interval tree over z -------------------------
inst = gen("stab6", 3000, 12000, seed=2)
rects = list(inst.boxes)
it = build_stab6(rects, f=4)
c = Counters()
for _ in range(500):
    q = tuple(int(v) for v in rng.integers(0, 12000, 3))
    got = query_stab6(it, q, c)
    assert set(got) == brute_stab(rects, q)
print(f"stab6 (f=4): 500 queries OK; height bound {it.height_bound()}, "
      f"S(v) sizes sum to {sum(it.s_sizes())}")

# ---- z-restricted 4-sided: (-inf,x] x (-inf,y] x [i,j], i,j in [f] --------
f = 8
inst = gen("zr4", 4096, 16384, seed=3, fanout=f)
rects = list(inst.boxes)
slow = build_zr4_slow(rects, f=f)
fast = build_zr4_fast(rects, f=f)
print(f"zr4fast: {len(fast.groups)} corner groups, candidate sets total "
      f"{fast.sum_candidate_sizes()} (n = {inst.n}, t0 = {fast.t0})")
for _ in range(500):
    q = (int(rng.integers(0, 16384)), int(rng.integers(0, 16384)), int(rng.integers(0, f)))
    a = sorted(query_zr4_slow(slow, q))
    b = sorted(query_zr4_fast(fast, q))
    assert a == b == sorted(brute_stab(rects, q))
print("zr4 slow/fast agree with the oracle on 500 queries")
