"""Force the slow fallback of a grid tree at small n.

At test sizes the natural cell-list caps (log^3 m for Top(c), log m for
Cover(c, z)) exceed what a cell ever holds, so a built tree is clamped
instead: every grid node's cap is set to ``cap`` and each of its cell lists
is cut to that length in the node's cell table, so a list of ``cap``
entries counts as full.
"""

from array import array


def clamp_cells(node, cap):
    if node.leaf is not None:
        return
    node.cap = cap
    start, items, ids = node.cell_start, node.cell_items, node.cell_ids
    node.cell_start, node.cell_items, node.cell_ids = array("q", [0]), array("q"), array("q")
    for lo, hi in zip(start, start[1:]):
        node.cell_items.extend(items[lo : min(hi, lo + cap)])
        node.cell_ids.extend(ids[lo : min(hi, lo + cap)])
        node.cell_start.append(len(node.cell_items))
    for ch in (*node.col_children.values(), *node.row_children.values()):
        clamp_cells(ch, cap)
