"""Pins of the four slow structures behind the grid tree's full cell lists,
of the gridded stab5 and stab6 trees, and of the structures that query the
range2d layer (pl3d, pl2, stab2count and cut3's find-any subdivision).

Each case answers 200 seeded queries (points up to two steps outside the
universe included) and pins the summed counters, the structure's
bits_stored and a digest of the ordered answer lists, so a rewrite of the
slow structures, of the grid break or of range2d's storage must keep every
answer, its order and every charge.  zr6 and topkstab clamp their cell
lists (cap 1 and 2) so that full lists send queries to the slow structure.
The stab5grid and stab6grid answer order follows the order of each slab's
orientation keys.  The range2d cases build and query through
``verify.STRUCTURES``, so pl3d answers raw points through rank space.
"""

import hashlib

import numpy as np
import pytest

from boxstab.counters import Counters
from boxstab.geom import DEFAULT_PARAMS, ModelParams
from boxstab.instances import gen
from boxstab.stab5 import build_slow5, build_stab5, query_slow5, query_stab5
from boxstab.stab6 import build_stab6, build_zr4_slow, build_zr6, query_stab6, query_zr4_slow, query_zr6
from boxstab.topk import build_topk_stab, query_topk_stab
from boxstab.verify import STRUCTURES
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
    "zr6cover": _zr6_cover,
    "topkslow": _topk_slow,
    "stab5grid": _stab5_grid,
    "stab6grid": _stab6_grid,
    "pl3d": _row("pl3d"),
    "pl3dtau4": _row("pl3d", ModelParams(tau=4)),
    "pl2": _row("pl2"),
    "stab2count": _row("stab2count"),
    "cut3": _row("cut3"),
}


def run_case(name, n):
    """(summed counters, bits_stored, answer digest) of one pinned case."""
    rng = np.random.default_rng(1000 + n)
    s, cases, query = BUILDERS[name](n, max(8, 4 * n), rng)
    c = Counters()
    answers = [query(*case, c) for case in cases]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    return tuple(c.as_dict().values()), s.bits_stored, digest


# (name, n) -> (Counters fields in declaration order, bits_stored, digest)
PINS = {
    ("slow5", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("slow5", 1): ((2000, 0, 200, 82, 0, 9, 0), 12, "c5014d10b96cdda8"),
    ("slow5", 300): ((14256, 0, 2117, 14215, 0, 3764, 0), 16200, "dab24348804dc602"),
    ("zr4slow", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("zr4slow", 1): ((400, 0, 200, 48, 0, 17, 0), 11, "e8a26a985f1e1911"),
    ("zr4slow", 400): ((4170, 0, 500, 30921, 0, 11144, 0), 14800, "79aea0bf3d3764cd"),
    ("zr6cover", 0): ((400, 200, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("zr6cover", 1): ((1000, 200, 0, 200, 0, 3, 0), 0, "60f8d01e341d4729"),
    ("zr6cover", 300): ((37529, 1927, 2329, 15148, 0, 3380, 0), 25178, "d986dfc533d96889"),
    ("topkslow", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("topkslow", 1): ((1200, 200, 0, 200, 40, 20, 0), 0, "b1ee0a614fa62edd"),
    ("topkslow", 300): ((40320, 1828, 0, 9749, 5178, 2152, 0), 27619, "ddfe355977547196"),
    ("stab5grid", 0): ((600, 200, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("stab5grid", 1): ((1600, 200, 0, 200, 0, 4, 0), 12, "8f15aaf46d3dec94"),
    ("stab5grid", 300): ((43505, 1912, 1384, 10962, 0, 3346, 0), 87810, "630ca47d3cbbabf1"),
    ("stab6grid", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "8560403d7204bd5e"),
    ("stab6grid", 1): ((1456, 214, 0, 107, 0, 3, 0), 24, "39b3f04287cfebd1"),
    ("stab6grid", 300): ((75197, 4952, 1972, 14801, 0, 2174, 0), 112642, "99e249b87d78cf5c"),
    ("pl3d", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792"),
    ("pl3d", 1): ((1800, 119, 0, 119, 0, 51, 0), 7, "3046d2b85805f127"),
    ("pl3d", 300): ((16158, 449, 0, 774, 0, 197, 0), 79688, "2bb46e28b138072d"),
    ("pl3dtau4", 0): ((600, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792"),
    ("pl3dtau4", 1): ((1800, 119, 0, 119, 0, 51, 0), 7, "3046d2b85805f127"),
    ("pl3dtau4", 300): ((17000, 483, 0, 70, 0, 197, 0), 97815, "2bb46e28b138072d"),
    ("pl2", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792"),
    ("pl2", 1): ((400, 0, 0, 0, 0, 0, 0), 129, "24ef5553a538abeb"),
    ("pl2", 300): ((2629, 0, 0, 0, 0, 0, 0), 41100, "70d4a9656680c9be"),
    ("stab2count", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "3e273723fa2057ff"),
    ("stab2count", 1): ((1600, 0, 0, 0, 0, 0, 0), 384, "c2cee6f47cada6d9"),
    ("stab2count", 300): ((15366, 0, 0, 0, 0, 0, 0), 115200, "e862765b30d6b9bb"),
    ("cut3", 0): ((0, 0, 0, 0, 0, 0, 0), 0, "370c462e43573792"),
    ("cut3", 1): ((400, 0, 0, 0, 0, 0, 0), 10, "711902bc45883953"),
    ("cut3", 300): ((2775, 0, 0, 0, 0, 0, 0), 18318, "bca0eb4a3df67aaf"),
}


@pytest.mark.parametrize("name,n", list(PINS), ids=lambda v: str(v))
def test_pinned(name, n):
    assert run_case(name, n) == PINS[name, n]
