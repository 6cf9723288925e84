"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The oracle side uses
vectorized scans over the instance arrays for throughput; their agreement
with the reference oracles in boxstab.oracle is spot-checked inside
criterion 1.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from boxstab import oracle
from boxstab.counters import Counters
from boxstab.domcut import build_cutting2, build_cutting3
from boxstab.geom import ModelParams, contains, rank_locate, rank_reduce, rank_reduce_arrays
from boxstab.instances import gen, gen_pl_arrays
from boxstab.pl3d import build_pl3, build_pl3_arrays, query_pl3
from boxstab.range2d import build_pl2, build_stab_count, query_pl2, query_stab_count
from boxstab.domcut import build_dominance3, query_dominance3
from boxstab.stab5 import build_stab5, query_stab5
from boxstab.stab6 import query_zr4_fast
from boxstab.topk import build_topk_dom, build_topk_stab, open_stream, query_topk_dom, query_topk_stab
from boxstab.verify import STRUCTURES
from pl3split import box_coords, dichotomy

PARAMS = ModelParams()
SIZES = (1, 2, 3, 5, 17, 64, 257, 1024, 4096)
N_INSTANCES = 200
N_QUERIES = 200


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class FastOracle:
    """Vectorized brute force over one instance's box arrays."""

    def __init__(self, boxes):
        n = len(boxes)
        self.n = n
        self.arr = np.empty((n, 6), dtype=np.int64)
        self.w = np.zeros(n, dtype=np.int64)
        self.ids = np.empty(n, dtype=np.int64)
        NEG, POS = -(2**62), 2**62
        for i, b in enumerate(boxes):
            self.arr[i] = [
                NEG if b.x[0] is None else b.x[0], POS if b.x[1] is None else b.x[1],
                NEG if b.y[0] is None else b.y[0], POS if b.y[1] is None else b.y[1],
                NEG if b.z[0] is None else b.z[0], POS if b.z[1] is None else b.z[1],
            ]
            self.w[i] = b.weight or 0
            self.ids[i] = b.id
        self.worder = np.asarray(
            sorted(range(n), key=lambda i: (-int(self.w[i]), int(self.ids[i]))),
            dtype=np.int64,
        )

    def stab_mask(self, q):
        a = self.arr
        return (
            (a[:, 0] <= q[0]) & (a[:, 1] >= q[0])
            & (a[:, 2] <= q[1]) & (a[:, 3] >= q[1])
            & (a[:, 4] <= q[2]) & (a[:, 5] >= q[2])
        )

    def stab(self, q) -> set:
        return set(self.ids[self.stab_mask(q)].tolist())

    def locate(self, q):
        hits = self.ids[self.stab_mask(q)]
        return int(hits[0]) if len(hits) else None

    def stab2_mask(self, q):
        a = self.arr
        return (
            (a[:, 0] <= q[0]) & (a[:, 1] >= q[0])
            & (a[:, 2] <= q[1]) & (a[:, 3] >= q[1])
        )

    def stab2(self, q) -> set:
        return set(self.ids[self.stab2_mask(q)].tolist())

    def count2(self, q) -> int:
        return int(self.stab2_mask(q).sum())

    def dominance(self, q) -> set:
        a = self.arr
        m = (a[:, 0] >= q[0]) & (a[:, 2] >= q[1]) & (a[:, 4] >= q[2])
        return set(np.nonzero(m)[0].tolist())

    def topk_dom(self, q, k) -> list:
        a = self.arr
        m = (a[:, 0] >= q[0]) & (a[:, 2] >= q[1])
        sel = self.worder[m[self.worder]]
        return self.ids[sel[: max(0, k)]].tolist()

    def topk_stab(self, q, k) -> list:
        sel = self.worder[self.stab2_mask(q)[self.worder]]
        return self.ids[sel[: max(0, k)]].tolist()


def _queries(U, seed, count=N_QUERIES):
    rng = np.random.default_rng(seed ^ 0xACCE97)
    return [tuple(int(v) for v in rng.integers(-2, U + 2, 3)) for _ in range(count)]


def _suite(kind, fanout=None):
    """200 deterministic instances cycling the size ladder."""
    for i in range(N_INSTANCES):
        n = SIZES[i % len(SIZES)]
        yield gen(kind, n, max(4, 4 * n), seed=1000 + i, fanout=fanout)


def _dupfree(got: list) -> bool:
    return len(got) == len(set(got))


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pl3d_scaling():
    """pl3d builds for n = 4^j, j=5..10, shared by criteria 3 and 4."""
    out = {}
    for j in range(5, 11):
        n = 4**j
        coords = gen_pl_arrays(n, 2 * n, seed=j)
        axes, red = rank_reduce_arrays(coords)
        U = tuple(max(2, len(a)) for a in axes)
        pl = build_pl3_arrays(red, np.arange(n), U, params=PARAMS)
        rng = np.random.default_rng(j)
        cs = []
        for _ in range(100):
            q = tuple(int(v) for v in rng.integers(0, 2 * n, 3))
            c = Counters()
            fl = []
            for a in range(3):
                c.charge_search(len(axes[a]))
                fl.append(int(np.searchsorted(axes[a], q[a], side="right")) - 1)
            if all(v >= 0 for v in fl):
                query_pl3(pl, tuple(fl), c)
            # counted comparisons: binary-search steps plus scan element tests
            cs.append(c.predecessor_steps + c.cells_scanned)
        out[n] = {
            "mean_comparisons": sum(cs) / len(cs),
            "space": pl.space_report(),
            "incidences": pl.piece_incidences,
        }
        del pl
    return out


@pytest.mark.slow
def test_criterion_1_and_6_and_7_oracle_equivalence():
    """Criteria 1 (oracle equivalence), 6 (Lemma 2.3 dichotomy on the pl3d
    queries) and 7 (ZR4Fast candidate bounds and fallback soundness), which
    the spec ties to the same suites."""
    t_start = time.time()
    failures = []
    dup_violations = 0
    spot = []  # sampled comparisons against the reference oracle module
    dichotomy_checked = 0
    zr4_bound_ok = True
    zr4_fallback_ok = True

    # ---- pl3d (+ criterion 6) ----
    for idx in range(N_INSTANCES):
        n = SIZES[idx % len(SIZES)]
        kind = "pl-disjoint" if idx % 2 == 0 else "pl-subdivision-pruned"
        inst = gen(kind, n, max(4, 4 * n), seed=2000 + idx)
        fo = FastOracle(inst.boxes)
        rs, red = rank_reduce(list(inst.boxes))
        U = tuple(max(2, rs.size(a)) for a in range(3))
        pl = build_pl3(red, U)
        root = box_coords(red)
        by_id = {b.id: b for b in inst.boxes}
        for qi, q in enumerate(_queries(inst.universe, idx)):
            fl = rank_locate(rs, q)
            got = None
            trace = []
            if all(v >= 0 for v in fl):
                got = query_pl3(pl, fl, trace=trace)
                if got is not None and not contains(by_id[got], q):
                    got = None
            if got != fo.locate(q):
                failures.append(("pl3d", inst.n, q, fo.locate(q), got))
            if qi < 3 and inst.n <= 1024:
                spot.append(fo.locate(q) == oracle.brute_locate(list(inst.boxes), q))
            # criterion 6: the non-empty answer rules out middle boxes, the
            # empty answer rules out the slab's short boxes
            for ev, _, hit in dichotomy(root, trace):
                if hit:
                    failures.append(("dichotomy", inst.n, q, ev.decision, None))
                dichotomy_checked += 1

    # ---- set-reporting structures ----
    def run_sets(name, fanout=None, zq=False):
        nonlocal dup_violations
        row = STRUCTURES[name]
        for idx, inst in enumerate(_suite(row.kind, fanout=fanout)):
            fo = FastOracle(inst.boxes)
            s = row.build(inst, PARAMS, None)
            rng = np.random.default_rng(idx)
            for qi, q in enumerate(_queries(inst.universe, 31 * idx + 7)):
                if zq:
                    q = (q[0], q[1], int(rng.integers(0, inst.fanout)))
                got = row.query(s, q, None)
                if not _dupfree(got):
                    dup_violations += 1
                if set(got) != fo.stab(q):
                    failures.append((name, inst.n, q, fo.stab(q), set(got)))
                if qi < 2 and inst.n <= 257:
                    spot.append(fo.stab(q) == oracle.brute_stab(list(inst.boxes), q))

    for name in ("stab5", "slow5", "leaf5", "stab6"):
        run_sets(name)

    fcycle = (2, 4, 8)
    run_sets("zr4slow", fanout=8, zq=True)

    # zr4fast carries criterion 7 checks
    Z = PARAMS.Z
    zr4fast = STRUCTURES["zr4fast"]
    for idx, inst in enumerate(_suite(zr4fast.kind, fanout=fcycle[0])):
        f = fcycle[idx % 3]
        inst = gen(zr4fast.kind, inst.n, inst.universe, seed=1000 + idx, fanout=f)
        fo = FastOracle(inst.boxes)
        s = zr4fast.build(inst, PARAMS, None)
        gsz = max(1, max(Z, f) ** 2)
        if s.sum_candidate_sizes() > 16 * max(inst.n, gsz * s.t0):
            zr4_bound_ok = False
        rng = np.random.default_rng(idx)
        for q in _queries(inst.universe, 17 * idx + 3):
            q = (q[0], q[1], int(rng.integers(0, f)))
            trace = []
            got = query_zr4_fast(s, q, trace=trace)
            if not _dupfree(got):
                dup_violations += 1
            if set(got) != fo.stab(q):
                failures.append(("zr4fast", inst.n, q, fo.stab(q), set(got)))
            if trace and len(fo.stab(q)) < s.t0:
                zr4_fallback_ok = False

    run_sets("zr6", fanout=4, zq=True)

    # ---- 2-d building blocks ----
    for idx, inst in enumerate(_suite("pl-disjoint")):
        inst = gen("pl-disjoint", inst.n, inst.universe, seed=1000 + idx, flat=True)
        fo = FastOracle(inst.boxes)
        rects = inst.boxes2()
        pl = build_pl2(rects)
        sc = build_stab_count(rects)
        for qi, q in enumerate(_queries(inst.universe, idx + 5)):
            q2 = (q[0], q[1])
            got = query_pl2(pl, q2)
            hits = fo.stab2(q2)
            exp = next(iter(hits)) if hits else None
            if got != exp:
                failures.append(("pl2", inst.n, q2, exp, got))
            if query_stab_count(sc, q2) != fo.count2(q2):
                failures.append(("stab2count", inst.n, q2, fo.count2(q2), None))
            if qi < 2 and inst.n <= 257:
                spot.append(fo.count2(q2) == oracle.brute_count2(rects, q2))

    # ---- dominance reporting ----
    for idx, inst in enumerate(_suite("topk-dom")):
        pts = [(b.x[0], b.y[0], b.z[0]) for b in inst.boxes]
        fo = FastOracle(inst.boxes)
        d = build_dominance3(pts)
        for qi, q in enumerate(_queries(inst.universe, idx + 11)):
            got = query_dominance3(d, q)
            if not _dupfree(got):
                dup_violations += 1
            if set(got) != fo.dominance(q):
                failures.append(("dom3", inst.n, q, fo.dominance(q), set(got)))
            if qi < 2 and inst.n <= 257:
                spot.append(fo.dominance(q) == oracle.brute_dominance(pts, q))

    # ---- top-k (ordered, including ties) ----
    for idx, inst in enumerate(_suite("topk-dom")):
        pts = [(b.id, (b.x[0], b.y[0]), b.weight or 0) for b in inst.boxes]
        fo = FastOracle(inst.boxes)
        s = build_topk_dom(pts)
        ks = sorted({0, 1, 2, s.t2, s.t1, inst.n})
        for qi, q in enumerate(_queries(inst.universe, idx + 13)):
            q2 = (q[0], q[1])
            for k in ks:
                got = query_topk_dom(s, q2, k)
                if got != fo.topk_dom(q2, k):
                    failures.append(("topkdom", inst.n, (q2, k), fo.topk_dom(q2, k), got))
            if qi < 2 and inst.n <= 257:
                spot.append(fo.topk_dom(q2, 5) == oracle.brute_topk_dominance(pts, q2, 5))

    for idx, inst in enumerate(_suite("topk-stab")):
        rects = inst.boxes2()
        fo = FastOracle(inst.boxes)
        s = build_topk_stab(rects)
        n = inst.n
        ks = sorted({0, 1, 2, PARAMS.t2(max(1, n)), PARAMS.t1(max(1, n)), n})
        for qi, q in enumerate(_queries(inst.universe, idx + 17)):
            q2 = (q[0], q[1])
            for k in ks:
                got = query_topk_stab(s, q2, k)
                if not _dupfree(got):
                    dup_violations += 1
                if got != fo.topk_stab(q2, k):
                    failures.append(("topkstab", inst.n, (q2, k), fo.topk_stab(q2, k), got))
            if qi < 2 and inst.n <= 257:
                spot.append(fo.topk_stab(q2, 5) == oracle.brute_topk_stab(rects, q2, 5))

    elapsed = time.time() - t_start
    _report("1 (oracle equivalence)", not failures and all(spot),
            f"{13} structures x {N_INSTANCES} instances x {N_QUERIES} queries, "
            f"{len(failures)} mismatches, {len(spot)} oracle spot-checks, {elapsed:.0f}s")
    _report("6 (Lemma 2.3 dichotomy)", dichotomy_checked > 0 and not any(
        f[0].startswith("dichotomy") for f in failures),
        f"{dichotomy_checked} step-3 decisions checked")
    _report("7 (ZR4Fast bounds)", zr4_bound_ok and zr4_fallback_ok,
            f"sum|R_a| <= 16*max(n, Z^2*t0): {zr4_bound_ok}; fallback only when >= t0: {zr4_fallback_ok}")
    _report("8 (duplicate freedom)", dup_violations == 0, f"{dup_violations} duplicate emissions")


def test_criterion_2_shallow_cutting_properties():
    ok = True
    details = []
    for n in (256, 1024, 4096):
        for t in (4, 16, 64):
            for seed in (0, 1):
                rng = np.random.default_rng(seed * 977 + n + t)
                pts2 = [tuple(int(v) for v in rng.integers(0, 2 * n, 2)) for _ in range(n)]
                pts3 = [tuple(int(v) for v in rng.integers(0, 2 * n, 3)) for _ in range(n)]
                r2 = oracle.verify_cutting(build_cutting2(pts2, t), pts2, t)
                r3 = oracle.verify_cutting(build_cutting3(pts3, t), pts3, t)
                if not (r2.ok and r3.ok):
                    ok = False
                    details.append((n, t, seed, r2.ok, r3.ok))
    _report("2 (shallow cuttings)", ok,
            f"(n,t) in {{256,1024,4096}}x{{4,16,64}}, 2 seeds, exhaustive coverage; {details}")


@pytest.mark.slow
def test_criterion_3_pl3d_query_recurrence(pl3d_scaling):
    ratios = {n: d["mean_comparisons"] / math.log2(n) for n, d in pl3d_scaling.items()}
    lo, hi = min(ratios.values()), max(ratios.values())
    _report("3 (pl3d query recurrence)", hi <= 2.5 * lo,
            f"C(n)/log2 n over n=4^5..4^10: min {lo:.1f}, max {hi:.1f}, ratio {hi / lo:.2f} <= 2.5")


@pytest.mark.slow
def test_criterion_4_pl3d_space(pl3d_scaling):
    ok = True
    details = []
    for n, d in pl3d_scaling.items():
        rep = d["space"]
        bits = rep["pl2"] + rep["stab2"] + rep["piece_map"]
        budget = 64 * n * math.log2(2 * n)
        inc_budget = 8 * n * (math.log2(math.log2(2 * n)) + 2)
        if bits > budget or d["incidences"] > inc_budget:
            ok = False
        details.append(f"n={n}: bits {bits / budget:.2f}x, incidences {d['incidences'] / inc_budget:.2f}x")
    _report("4 (pl3d space)", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_5_stab5_structural():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for n in (4096, 2**17, 2**20):
        U = 4 * n
        from boxstab.geom import Box3

        xs = np.sort(rng.integers(0, U, (n, 2)), axis=1)
        ys = np.sort(rng.integers(0, U, (n, 2)), axis=1)
        z2 = rng.integers(0, U, n)
        rects = [
            Box3(i, (int(xs[i, 0]), int(xs[i, 1])), (int(ys[i, 0]), int(ys[i, 1])), (None, int(z2[i])))
            for i in range(n)
        ]
        tree = build_stab5(rects)
        node_bound = 4 * math.log2(n) + 8
        depth_bound = math.log2(math.log2(n)) + 4
        max_nodes = 0
        for _ in range(50):
            q = tuple(int(v) for v in rng.integers(0, U, 3))
            c = Counters()
            query_stab5(tree, q, c)
            max_nodes = max(max_nodes, c.nodes_visited)
        depth = _tree_depth(tree.root)
        bits_budget = 40 * n * math.log2(n)
        if max_nodes > node_bound or depth > depth_bound or tree.bits_stored > bits_budget:
            ok = False
        inc_budget = 12 * n * (math.log2(math.log2(n)) + 1)
        if tree.piece_incidences > inc_budget:
            ok = False
        details.append(
            f"n=2^{int(math.log2(n))}: nodes {max_nodes}/{node_bound:.0f}, depth {depth}/{depth_bound:.1f}, "
            f"bits {tree.bits_stored / bits_budget:.2f}x"
        )
        del tree
    _report("5 (stab5 recurrences)", ok, "; ".join(details))


def _tree_depth(node, d=0):
    if node.leaf is not None:
        return d
    kids = list(node.col_children.values()) + list(node.row_children.values())
    return max([_tree_depth(c, d + 1) for c in kids] or [d])


def test_criterion_9_stream_determinism():
    rng = np.random.default_rng(4242)
    trials = 0
    ok = True
    while trials < 1000:
        n = int(rng.integers(1, 400))
        pts = [
            (i, (int(rng.integers(0, 300)), int(rng.integers(0, 300))), int(rng.integers(0, 50)))
            for i in range(n)
        ]
        s = build_topk_dom(pts)
        for _ in range(min(10, 1000 - trials)):
            q = (int(rng.integers(0, 300)), int(rng.integers(0, 300)))
            full = []
            st = open_stream(s, q)
            while (v := st.next()) is not None:
                full.append(v)
            cut = int(rng.integers(0, len(full) + 1))
            st2 = open_stream(s, q)
            part = [st2.next() for _ in range(cut)]
            part = [p for p in part if p is not None]
            rest = []
            while (v := st2.next()) is not None:
                rest.append(v)
            if part + rest != full:
                ok = False
            trials += 1
    _report("9 (stream determinism)", ok, f"{trials} pause/resume trials")
