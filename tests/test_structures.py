"""Every row of the structure table through verify and bench, plus the
payload-bit counts of the structures that sum their own pieces."""

import pytest

from boxstab.bench import bench_row
from boxstab.geom import DEFAULT_PARAMS, NEG, POS, ModelParams
from boxstab.instances import gen
from boxstab.stab5 import grid_nodes
from boxstab.verify import STRUCTURES, _qpoints, query_cases, verify

# rows whose queries report a list of ids
REPORTING = [s for s in STRUCTURES if s not in ("pl3d", "pl2", "stab2count", "cut2", "cut3")]


def _instance(structure, n, seed=3):
    row = STRUCTURES[structure]
    return gen(row.kind, n, max(4, 2 * n), seed, flat=row.flat)


@pytest.mark.parametrize("n", [0, 1, 2, 17])
@pytest.mark.parametrize("structure", list(STRUCTURES))
def test_row_verifies_and_benches(structure, n):
    inst = _instance(structure, n)
    rep = verify(structure, inst, 40, seed=5)
    assert rep.passed, rep.witness()
    row = bench_row(structure, inst, 10, seed=5)
    assert row[:3] == [inst.kind, n, inst.universe] and len(row) == 13


@pytest.mark.parametrize("structure", REPORTING)
def test_bench_output_mean_is_mean_answer_size(structure):
    # each answer is charged to output_size exactly once
    row = STRUCTURES[structure]
    inst = _instance(structure, 64, seed=1)
    s = row.build(inst, DEFAULT_PARAMS, 16)
    expected_of = row.oracle(inst)
    qs = _qpoints(inst, 40, 7)
    sizes = [
        sum(len(expected_of(case)) for case in cases)
        for cases in query_cases(row, s, inst, DEFAULT_PARAMS, qs, 7)
    ]
    assert bench_row(structure, inst, 40, seed=7)[10] == f"{sum(sizes) / len(sizes):.2f}"


GRID = ModelParams(grid_override=3, tau=8)


@pytest.mark.parametrize(
    "structure,fanout,params,bits",
    [
        ("stab6", None, DEFAULT_PARAMS, 6732),
        ("stab6", None, GRID, 14970),
        ("stab6", 4, GRID, 13281),  # fan-out 4 gives M a non-empty child range
        ("zr6", None, DEFAULT_PARAMS, 0),
        ("zr6", None, GRID, 5342),
        ("topkstab", None, DEFAULT_PARAMS, 0),
        ("topkstab", None, GRID, 4548),
    ],
)
def test_bits_stored_pinned(structure, fanout, params, bits):
    row = STRUCTURES[structure]
    inst = gen(row.kind, 100, 200, 1, fanout=fanout)
    assert row.build(inst, params, 16).bits_stored == bits


GRIDDED = ModelParams(grid_override=4, tau=8)


@pytest.mark.parametrize("structure", ["stab5", "zr6", "topkstab"])
def test_grid_lines_avoid_sentinels(structure):
    # side pieces carry NEG/POS on their split edge; a grid line there
    # separates nothing and only deepens the tree
    row = STRUCTURES[structure]
    inst = gen(row.kind, 300, 600, 2)
    s = row.build(inst, GRIDDED, 16)
    nodes = [node for node in grid_nodes(s.root) if node.leaf is None]
    assert len(nodes) > 1
    for node in nodes:
        for lines in (node.lines_x, node.lines_y):
            assert all(NEG < v < POS for v in lines)
