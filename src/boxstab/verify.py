"""The structure table, and side-by-side verification of every structure
against its brute oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import oracle
from .counters import Counters
from .domcut import build_cutting2, build_cutting3, build_dominance3, find_any, query_dominance3
from .geom import ModelParams, DEFAULT_PARAMS, ValidationError, contains, query_coord, rank_locate, rank_reduce
from .instances import Instance
from .pl3d import build_pl3, query_pl3
from .range2d import build_pl2, build_stab_count, query_pl2, query_stab_count
from .stab5 import build_leaf5, build_slow5, build_stab5, query_leaf5, query_slow5, query_stab5
from .stab6 import (
    build_stab6,
    build_zr4_fast,
    build_zr4_slow,
    build_zr6,
    query_stab6,
    query_zr4_fast,
    query_zr4_slow,
    query_zr6,
)
from .topk import build_topk_dom, build_topk_stab, query_topk_dom, query_topk_stab


def _points_of(inst: Instance):
    return [(b.x[0], b.y[0], b.z[0]) for b in inst.boxes]


def _points2_of(inst: Instance):
    return [(b.x[0], b.y[0]) for b in inst.boxes]


def _weighted_points_of(inst: Instance):
    return [(b.id, (b.x[0], b.y[0]), b.weight or 0) for b in inst.boxes]


def _zr_fanout(inst: Instance) -> int:
    """The z universe of a z-restricted instance: its declared fan-out,
    else max z2 + 1."""
    return inst.fanout or max(2, max((b.z[1] for b in inst.boxes if b.z[1] is not None), default=1) + 1)


class _RankedPL3:
    """PL3 over the rank-reduced boxes.  A raw query point is located in
    rank space and the located box is revalidated against the point."""

    def __init__(self, boxes, params: ModelParams):
        self.rs, red = rank_reduce(boxes)
        self.pl = build_pl3(red, tuple(max(2, self.rs.size(a)) for a in range(3)), params=params)
        self.by_id = {b.id: b for b in boxes}
        self.bits_stored = self.pl.bits_stored

    def query(self, q, counters: Counters | None = None):
        fl = rank_locate(self.rs, q, counters)
        if min(fl) < 0:
            return None
        got = query_pl3(self.pl, fl, counters)
        if got is None or not contains(self.by_id[got], q):
            return None
        if counters is not None:
            counters.add_output(1)
        return got


# Query cases of one query point q; q may carry a fourth entry, k.


def _point(q, s, ks, zrng):
    return [tuple(q[:3])]


def _xy(q, s, ks, zrng):
    return [(q[0], q[1])]


def _xy_k(q, s, ks, zrng):
    return [(q[0], q[1], k) for k in (q[3:] or ks)]


def _xy_zdraw(q, s, ks, zrng):
    return [(q[0], q[1], int(zrng.integers(0, s.f)))]


def _top_k(brute, items):
    return lambda case: brute(items, case[:2], case[2])


@dataclass(frozen=True)
class Structure:
    """One row of the structure table.

    ``kind`` (and ``flat``) say which instances to generate for it.
    ``build(inst, params, level)`` builds it; ``level`` is the cutting level
    and only the cutting rows read it.  ``cases(q, s, ks, zrng)`` lists the
    query cases of one query point, given the top-k k set ``ks`` and the
    z-draw stream ``zrng``; ``query(s, case, counters)`` answers one case.
    ``oracle(inst)`` returns the brute answer function of a case, and
    ``check(s, inst)`` checks the built structure as a whole.
    """

    kind: str
    build: Callable
    query: Callable
    oracle: Callable | None = None
    cases: Callable = _point
    check: Callable | None = None
    flat: bool = False


def _stab_oracle(inst):
    return partial(oracle.brute_stab, list(inst.boxes))


STRUCTURES = {
    "pl3d": Structure(
        "pl-disjoint", lambda inst, p, _: _RankedPL3(inst.boxes, p), _RankedPL3.query,
        lambda inst: partial(oracle.brute_locate, list(inst.boxes)),
    ),
    "stab5": Structure(
        "stab5", lambda inst, p, _: build_stab5(list(inst.boxes), p), query_stab5, _stab_oracle,
    ),
    "slow5": Structure("stab5", lambda inst, p, _: build_slow5(list(inst.boxes)), query_slow5, _stab_oracle),
    "leaf5": Structure(
        "stab5", lambda inst, p, _: build_leaf5(list(inst.boxes), replace(p, tau=max(p.tau, inst.n))),
        query_leaf5, _stab_oracle,
    ),
    "stab6": Structure(
        "stab6", lambda inst, p, _: build_stab6(list(inst.boxes), f=inst.fanout, params=p),
        query_stab6, _stab_oracle,
    ),
    "zr4slow": Structure(
        "zr4", lambda inst, p, _: build_zr4_slow(list(inst.boxes), f=_zr_fanout(inst)),
        query_zr4_slow, _stab_oracle, _xy_zdraw,
    ),
    "zr4fast": Structure(
        "zr4", lambda inst, p, _: build_zr4_fast(list(inst.boxes), f=_zr_fanout(inst), params=p),
        query_zr4_fast, _stab_oracle, _xy_zdraw,
    ),
    "zr6": Structure(
        "zr6", lambda inst, p, _: build_zr6(list(inst.boxes), f=_zr_fanout(inst), params=p),
        query_zr6, _stab_oracle, _xy_zdraw,
    ),
    "topkdom": Structure(
        "topk-dom", lambda inst, p, _: build_topk_dom(_weighted_points_of(inst), p),
        lambda s, case, c: query_topk_dom(s, case[:2], case[2], c),
        lambda inst: _top_k(oracle.brute_topk_dominance, _weighted_points_of(inst)), _xy_k,
    ),
    "topkstab": Structure(
        "topk-stab", lambda inst, p, _: build_topk_stab(inst.boxes2(), p),
        lambda s, case, c: query_topk_stab(s, case[:2], case[2], c),
        lambda inst: _top_k(oracle.brute_topk_stab, inst.boxes2()), _xy_k,
    ),
    "pl2": Structure(
        "pl-disjoint", lambda inst, p, _: build_pl2(inst.boxes2()), query_pl2,
        lambda inst: partial(oracle.brute_locate2, inst.boxes2()), _xy, flat=True,
    ),
    "stab2count": Structure(
        "stab6", lambda inst, p, _: build_stab_count(inst.boxes2()), query_stab_count,
        lambda inst: partial(oracle.brute_count2, inst.boxes2()), _xy,
    ),
    "dom3": Structure(
        "topk-dom", lambda inst, p, _: build_dominance3(_points_of(inst)), query_dominance3,
        lambda inst: partial(oracle.brute_dominance, _points_of(inst)),
    ),
    "cut2": Structure(
        "topk-dom", lambda inst, p, level: build_cutting2(_points2_of(inst), level),
        lambda s, case, c: s.rightmost_corner_at_or_left(case[0]), cases=_xy,
        check=lambda s, inst: oracle.verify_cutting(s, _points2_of(inst), s.t),
    ),
    "cut3": Structure(
        "topk-dom", lambda inst, p, level: build_cutting3(_points_of(inst), level),
        # find_any runs inside every top-k tier walk, so its query is
        # checked here, not on that path
        lambda s, case, c: find_any(s, query_coord(case[0]), query_coord(case[1]), c), cases=_xy,
        check=lambda s, inst: oracle.verify_cutting(s, _points_of(inst), s.t),
    ),
}


def structure_row(structure: str) -> Structure:
    row = STRUCTURES.get(structure)
    if row is None:
        raise ValidationError(f"unknown structure {structure!r}")
    return row


@dataclass
class VerifyReport:
    structure: str
    n: int
    queries: int
    passed: bool
    build_ms: float
    mismatches: list = field(default_factory=list)

    def witness(self) -> str:
        lines = [f"{self.structure}: n={self.n}, {len(self.mismatches)} mismatches"]
        for w in self.mismatches[:5]:
            lines.append(f"  query={w[0]} expected={w[1]} got={w[2]}")
        return "\n".join(lines)


def _qpoints(inst: Instance, n_queries: int, seed: int):
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    U = inst.universe
    lo, hi = -2, U + 2
    return [tuple(int(v) for v in rng.integers(lo, hi, 3)) for _ in range(n_queries)]


def _k_values(inst: Instance, params: ModelParams):
    n = max(1, inst.n)
    return sorted({0, 1, 2, params.t2(n), params.t1(n), n})


def query_cases(row: Structure, s, inst: Instance, params: ModelParams, qs, seed: int):
    """The query cases of each point of ``qs``, in order.  Every z-restricted
    row draws its qz from the same seeded stream."""
    ks = _k_values(inst, params)
    zrng = np.random.default_rng(seed ^ 0xBEEF)
    for q in qs:
        yield row.cases(q, s, ks, zrng)


def verify(
    structure: str,
    inst: Instance,
    n_queries: int,
    seed: int,
    params: ModelParams = DEFAULT_PARAMS,
    tamper=None,
    level: int = 16,
    query_points=None,
) -> VerifyReport:
    """Build ``structure`` over ``inst`` and compare against the brute oracle
    on ``n_queries`` random query points (or the given ones, whose optional
    fourth entry is the k of a top-k query); reports the first mismatches."""
    row = structure_row(structure)
    qs = [tuple(q) for q in query_points] if query_points else _qpoints(inst, n_queries, seed)
    rep = VerifyReport(structure=structure, n=inst.n, queries=len(qs), passed=True, build_ms=0.0)

    def check(q, expected, got):
        if isinstance(got, list):
            if len(got) != len(set(got)):
                rep.mismatches.append((q, expected, f"duplicates in {got}"))
                return
            if isinstance(expected, set):
                got = set(got)
        if expected != got:
            rep.mismatches.append((q, expected, got))

    t0 = time.perf_counter()
    s = row.build(inst, params, level)
    rep.build_ms = (time.perf_counter() - t0) * 1e3
    if tamper:
        tamper(s)
    if row.check is not None:
        r = row.check(s, inst)
        if not r.ok:
            rep.mismatches.append(("properties", "pass", r))
    if row.oracle is not None:
        expected_of = row.oracle(inst)
        for cases in query_cases(row, s, inst, params, qs, seed):
            for case in cases:
                check(case, expected_of(case), row.query(s, case, Counters()))

    rep.passed = not rep.mismatches
    return rep
