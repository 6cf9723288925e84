"""Pins of the four slow structures behind the grid tree's full cell lists,
of ZR4Fast's candidate groups in front of ZR4Slow, of the gridded stab5
and stab6 trees, of top-k dominance, and of the structures that query the
range2d layer (pl3d, pl2, stab2count and cut3's find-any subdivision).

Each case answers 200 seeded queries (points up to two steps outside the
universe included) and pins the summed counters, the structure's
bits_stored and three digests: of the answers as returned, of the sorted
answers and of their order (the positions that sort each answer list), so
a rewrite of the slow structures, of the grid break, of range2d's storage
or of the top-k dominance tiers must keep every answer, its order and
every charge, and a moved pin tells which of them changed.  zr6
and topkstab clamp their cell lists (cap 1 and 2) so that full lists send
queries to the slow structure.
The stab5grid and stab6grid answer order follows the order of each slab's
orientation keys, and a 5-sided leaf reports its hits z2 descending.  The range2d cases build and query through
``verify.STRUCTURES``, so pl3d answers raw points through rank space.
"""

import hashlib
from itertools import islice

import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import DEFAULT_PARAMS, ModelParams
from boxstab.instances import gen
from boxstab.stab5 import build_slow5, build_stab5, query_slow5, query_stab5
from boxstab.stab6 import (
    build_stab6,
    build_zr4_fast,
    build_zr4_slow,
    build_zr6,
    query_stab6,
    query_zr4_fast,
    query_zr4_slow,
    query_zr6,
)
from boxstab.topk import build_topk_dom, build_topk_stab, query_topk_dom, query_topk_stab
from boxstab.verify import STRUCTURES, _weighted_points_of
from gridclamp import clamp_cells

GRIDDED = ModelParams(grid_override=4, tau=8)
F = 4
NQ = 200


def _points(rng, U, dims):
    return [tuple(int(v) for v in rng.integers(-2, U + 3, dims)) for _ in range(NQ)]


def _slow5(n, U, rng):
    s = build_slow5(list(gen("stab5", n, U, seed=n + 1).boxes))
    return s, [(s, q) for q in _points(rng, U, 3)], query_slow5


def _zr4_slow(n, U, rng):
    s = build_zr4_slow(list(gen("zr4", n, U, seed=n + 2, fanout=F).boxes), f=F)
    qs = [(qx, qy, int(rng.integers(0, F))) for qx, qy in _points(rng, U, 2)]
    return s, [(s, q) for q in qs], query_zr4_slow


def _zr4_fast(n, U, rng):
    """At n = 1000 the grouped cuttings build 14 candidate groups, and most
    queries find t0 hits and fall back to ZR4Slow."""
    s = build_zr4_fast(list(gen("zr4", n, U, seed=n + 9, fanout=F).boxes), f=F)
    qs = [(qx, qy, int(rng.integers(0, F))) for qx, qy in _points(rng, U, 2)]
    return s, [(s, q) for q in qs], query_zr4_fast


def _zr6_cover(n, U, rng):
    t = build_zr6(list(gen("zr6", n, U, seed=n + 3, fanout=F).boxes), f=F, params=GRIDDED)
    clamp_cells(t.root, 1)
    qs = [(qx, qy, int(rng.integers(0, F))) for qx, qy in _points(rng, U, 2)]
    return t, [(t, q) for q in qs], query_zr6


def _topk_slow(n, U, rng):
    t = build_topk_stab(gen("topk-stab", n, U, seed=n + 4).boxes2(), params=GRIDDED)
    if t.root is not None:
        clamp_cells(t.root, 2)
    ks = (1, 3, 10, max(1, n))
    cases = [(t, q, ks[i % 4]) for i, q in enumerate(_points(rng, U, 2))]
    return t, cases, query_topk_stab


def _topk_dom(n, U, rng):
    """Top-k dominance at k = 1, t2, t1 and n in turn, so every tier runs,
    each query also draining a stream prefix of k pairs."""
    s = build_topk_dom(_weighted_points_of(gen("topk-dom", n, U, seed=n + 8)))
    ks = (1, s.t2, s.t1, max(1, n))
    return s, [(s, q, ks[i % 4]) for i, q in enumerate(_points(rng, U, 2))], _topk_dom_query


def _topk_dom_query(s, q, k, counters):
    return query_topk_dom(s, q, k, counters), list(islice(s.stream(q, counters), k))


def _stab5_grid(n, U, rng):
    t = build_stab5(list(gen("stab5", n, U, seed=n + 5).boxes), params=GRIDDED)
    return t, [(t, q) for q in _points(rng, U, 3)], query_stab5


def _stab6_grid(n, U, rng):
    t = build_stab6(list(gen("stab6", n, U, seed=n + 6).boxes), f=F, params=GRIDDED)
    return t, [(t, q) for q in _points(rng, U, 3)], query_stab6


def _row(name, params=DEFAULT_PARAMS, level=8):
    """A structure-table row built over a seeded instance of its kind."""
    row = STRUCTURES[name]

    def build(n, U, rng):
        inst = gen(row.kind, n, U, seed=n + 7, flat=row.flat)
        s = row.build(inst, params, level)
        cases = [(s, case) for q in _points(rng, U, 3) for case in row.cases(q, s, (), rng)]
        return s, cases, row.query

    return build


BUILDERS = {
    "slow5": _slow5,
    "zr4slow": _zr4_slow,
    "zr4fast": _zr4_fast,
    "zr6cover": _zr6_cover,
    "topkslow": _topk_slow,
    "topkdom": _topk_dom,
    "stab5grid": _stab5_grid,
    "stab6grid": _stab6_grid,
    "pl3d": _row("pl3d"),
    "pl3dtau4": _row("pl3d", ModelParams(tau=4)),
    "pl2": _row("pl2"),
    "stab2count": _row("stab2count"),
    "cut3": _row("cut3"),
}


def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def _sorted(a):
    """An answer with each of its lists sorted (top-k dominance answers a
    pair of lists)."""
    if isinstance(a, tuple):
        return tuple(map(_sorted, a))
    return sorted(a) if isinstance(a, list) else a


def _order(a):
    """The positions that sort each list of an answer, in sorted order."""
    if isinstance(a, tuple):
        return tuple(map(_order, a))
    return sorted(range(len(a)), key=a.__getitem__) if isinstance(a, list) else None


def run_case(name, n):
    """(summed counters, bits_stored, answer digest, sorted-answer digest,
    order digest) of one pinned case."""
    rng = np.random.default_rng(1000 + n)
    s, cases, query = BUILDERS[name](n, max(8, 4 * n), rng)
    c = Counters()
    answers = [query(*case, c) for case in cases]
    return (
        tuple(c.as_dict().values()),
        s.bits_stored,
        _digest(answers),
        _digest([_sorted(a) for a in answers]),
        _digest([_order(a) for a in answers]),
    )


# (name, n) -> (Counters fields in declaration order, bits_stored, digest,
# sorted digest, order digest)
PINS = {
    ("slow5", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("slow5", 1): ((2000, 0, 200, 82, 0, 9, 0), 12, "c5014d10b96cdda8", "c5014d10b96cdda8", "c5014d10b96cdda8"),
    ("slow5", 300): ((14256, 0, 2117, 14215, 0, 3764, 0), 16200, "dab24348804dc602", "52cae636dcd7f1ab", "92fca590bb07ae44"),
    ("zr4slow", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("zr4slow", 1): ((400, 0, 200, 48, 0, 17, 0), 11, "e8a26a985f1e1911", "e8a26a985f1e1911", "e8a26a985f1e1911"),
    ("zr4slow", 400): ((4170, 0, 500, 30921, 0, 11144, 0), 14800, "79aea0bf3d3764cd", "539f8c0f9c598908", "8567c08f6370ba47"),
    ("zr4fast", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("zr4fast", 1): ((408, 0, 4, 193, 0, 4, 0), 10, "29d65aee162134a8", "29d65aee162134a8", "29d65aee162134a8"),
    ("zr4fast", 1000): ((6663, 0, 417, 105719, 0, 28081, 0), 155910, "14b1673795712d86", "76373e24f41fbed1", "50a22f76ffcb2558"),
    ("zr6cover", 0): ((0, 200, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("zr6cover", 1): ((0, 200, 0, 200, 0, 3, 0), 0, "60f8d01e341d4729", "60f8d01e341d4729", "60f8d01e341d4729"),
    ("zr6cover", 300): ((30352, 1927, 2329, 15148, 0, 3380, 0), 25178, "d986dfc533d96889", "20c2c8cda0d59313", "7dae4e714b697cbc"),
    ("topkslow", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("topkslow", 1): ((0, 200, 0, 200, 40, 20, 0), 0, "b1ee0a614fa62edd", "b1ee0a614fa62edd", "b1ee0a614fa62edd"),
    ("topkslow", 300): ((33011, 1828, 0, 9749, 5178, 2152, 0), 27619, "ddfe355977547196", "3ee880c3119e1a62", "2638f66f431b249f"),
    ("topkdom", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "b4e34d664ab4d09c", "b4e34d664ab4d09c", "b4e34d664ab4d09c"),
    ("topkdom", 1): ((1200, 0, 0, 200, 0, 75, 0), 20, "4ddeb9b3eef5abbf", "4ddeb9b3eef5abbf", "cc37240803d69858"),
    ("topkdom", 300): ((7787, 0, 0, 48634, 0, 5232, 0), 30711, "ff84c171de555d0c", "8c30c901f2480828", "b90bd145cbc8f1d5"),
    ("stab5grid", 0): ((0, 200, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("stab5grid", 1): ((400, 200, 0, 160, 0, 4, 0), 12, "8f15aaf46d3dec94", "8f15aaf46d3dec94", "8f15aaf46d3dec94"),
    ("stab5grid", 300): ((36273, 1912, 1384, 8984, 0, 3346, 0), 87810, "7699092141fab358", "2ea0199ab33b94f9", "a3be428639901806"),
    ("stab6grid", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e", "8560403d7204bd5e", "8560403d7204bd5e"),
    ("stab6grid", 1): ((814, 214, 0, 56, 0, 3, 0), 24, "39b3f04287cfebd1", "39b3f04287cfebd1", "39b3f04287cfebd1"),
    ("stab6grid", 300): ((56822, 4952, 1972, 12480, 0, 2174, 0), 112642, "006c245796a381f5", "71fbbe7bc6ba8041", "8d9168bec8af3994"),
    ("pl3d", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792", "370c462e43573792", "370c462e43573792"),
    ("pl3d", 1): ((1800, 119, 0, 119, 0, 51, 0), 7, "3046d2b85805f127", "3046d2b85805f127", "370c462e43573792"),
    ("pl3d", 300): ((16158, 449, 0, 774, 0, 197, 0), 79688, "2bb46e28b138072d", "2bb46e28b138072d", "370c462e43573792"),
    ("pl3dtau4", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792", "370c462e43573792", "370c462e43573792"),
    ("pl3dtau4", 1): ((1800, 119, 0, 119, 0, 51, 0), 7, "3046d2b85805f127", "3046d2b85805f127", "370c462e43573792"),
    ("pl3dtau4", 300): ((17000, 483, 0, 70, 0, 197, 0), 97815, "2bb46e28b138072d", "2bb46e28b138072d", "370c462e43573792"),
    ("pl2", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792", "370c462e43573792", "370c462e43573792"),
    ("pl2", 1): ((400, 0, 0, 0, 0, 0, 0), 129, "24ef5553a538abeb", "24ef5553a538abeb", "370c462e43573792"),
    ("pl2", 300): ((2629, 0, 0, 0, 0, 0, 0), 41100, "70d4a9656680c9be", "70d4a9656680c9be", "370c462e43573792"),
    ("stab2count", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "3e273723fa2057ff", "3e273723fa2057ff", "370c462e43573792"),
    ("stab2count", 1): ((1600, 0, 0, 0, 0, 0, 0), 384, "c2cee6f47cada6d9", "c2cee6f47cada6d9", "370c462e43573792"),
    ("stab2count", 300): ((15366, 0, 0, 0, 0, 0, 0), 115200, "e862765b30d6b9bb", "e862765b30d6b9bb", "370c462e43573792"),
    ("cut3", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792", "370c462e43573792", "370c462e43573792"),
    ("cut3", 1): ((400, 0, 0, 0, 0, 0, 0), 10, "711902bc45883953", "711902bc45883953", "370c462e43573792"),
    ("cut3", 300): ((2775, 0, 0, 0, 0, 0, 0), 18318, "bca0eb4a3df67aaf", "bca0eb4a3df67aaf", "370c462e43573792"),
}


@pytest.mark.parametrize("name,n", list(PINS), ids=lambda v: str(v))
def test_pinned(name, n):
    assert run_case(name, n) == PINS[name, n]
