"""Force the slow fallback of a grid tree at small n.

At test sizes the natural cell-list caps (log^3 m for Top(c), log m for
Cover(c, z)) exceed what a cell ever holds, so a tree is built clamped
instead: while ``clamped(cap)`` is open, every grid kind's ``cell_cap``
returns ``cap``, so each grid node keeps at most ``cap`` entries per cell
list, a list of ``cap`` entries counts as full, and the node builds the
slow structure that such a list falls back to.
"""

from contextlib import contextmanager

from boxstab.stab5 import GridKind
from boxstab.stab6 import _ZR6Grid


@contextmanager
def clamped(cap):
    # GridKind's cell_cap, which the 5-sided and top-k kinds inherit, and
    # the z-restricted 6-sided kind's override
    kinds = (GridKind, _ZR6Grid)
    saved = [vars(k)["cell_cap"] for k in kinds]
    for k in kinds:
        k.cell_cap = lambda self, m: cap
    try:
        yield
    finally:
        for k, f in zip(kinds, saved):
            k.cell_cap = f
