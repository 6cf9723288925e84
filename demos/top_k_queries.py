"""Top-k weighted dominance and stabbing with pausable weight streams."""

import numpy as np

from boxstab import brute_topk_dominance, brute_topk_stab
from boxstab.instances import gen
from boxstab.topk import build_topk_dom, build_topk_stab, open_stream, query_topk_dom, query_topk_stab

rng = np.random.default_rng(11)

# ---- top-k 2-d dominance ---------------------------------------------------
inst = gen("topk-dom", 2000, 8000, seed=5)
pts = [(b.id, (b.x[0], b.y[0]), b.weight) for b in inst.boxes]
s = build_topk_dom(pts)
print(f"top-k dominance over {len(pts)} weighted points "
      f"(cutting levels t1={s.t1}, t2={s.t2})")
for k in (1, 3, s.t2, s.t1, 50):
    q = (int(rng.integers(0, 8000)), int(rng.integers(0, 8000)))
    got = query_topk_dom(s, q, k)
    assert got == brute_topk_dominance(pts, q, k)
    print(f"  k={k:>3} at q={q}: {got[:6]}{'...' if len(got) > 6 else ''}")

# streams emit every dominator in weight order and can pause anywhere
q = (2000, 2000)
stream = open_stream(s, q)
first_three = [stream.next() for _ in range(3)]
rest = []
while (v := stream.next()) is not None:
    rest.append(v)
full = [v for v in first_three if v is not None] + rest
assert [pid for _, pid in full] == brute_topk_dominance(pts, q, len(pts))
print(f"stream at {q}: {len(full)} dominators, pause/resume consistent")

# ---- top-k 2-d rectangle stabbing -------------------------------------------
inst = gen("topk-stab", 2000, 8000, seed=6)
rects = inst.boxes2()
t = build_topk_stab(rects)
weight = {r.id: r.weight for r in rects}
for k in (1, 5, 25):
    q = (int(rng.integers(0, 8000)), int(rng.integers(0, 8000)))
    got = query_topk_stab(t, q, k)
    assert got == brute_topk_stab(rects, q, k)
    print(f"  stabbing k={k:>3} at q={q}: heaviest = "
          f"{[(i, weight[i]) for i in got[:4]]}")
print("top-k stabbing matches the oracle, ties broken by ascending id")
