"""perfbench's tree walks must keep working on the library's node types.

perfbench/workloads.py walks a built structure through its leaf attributes
(``leaf_coords``, ``leaf_items``, ``leaf``) to report shape metrics and to
reject a single-leaf build of a grid workload, so a renamed attribute would
fail only in a benchmark run.  This test builds every workload class on a
small spec and runs those walks; it reads perfbench and never edits it.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

SPECS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_walks_finish(name):
    cls = workloads.WORKLOADS[name]
    # the grid workloads carry grid_override in their own params
    assert not cls.grid_required or SPECS[name]["params"].get("grid_override")
    wl = cls({**SPECS[name], "n": 64, "U": 128}, 1)
    s = wl.setup()
    shape, root_leaf = wl.shape(s)
    assert 0 < shape["leaf_share"] <= 1 and shape["depth"] >= 0
    assert not (cls.grid_required and root_leaf)
    if hasattr(wl, "tree"):
        root, is_leaf, children = wl.tree(s)
        assert workloads.tree_shape(root, is_leaf, children)[2] >= 1
