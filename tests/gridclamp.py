"""Force the slow fallback of a grid tree at small n.

At test sizes the natural cell-list caps (log^3 m for Top(c), log m for
Cover(c, z)) exceed what a cell ever holds, so a built tree is clamped
instead: every grid node's cap is set to ``cap`` and its cell lists are cut
to that length, so a list of ``cap`` entries counts as full.
"""


def clamp_cells(node, cap):
    if node.leaf is not None:
        return
    node.cap = cap
    node.cells = {k: v[:cap] for k, v in node.cells.items()}
    for ch in (*node.col_children.values(), *node.row_children.values()):
        clamp_cells(ch, cap)
