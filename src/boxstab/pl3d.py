"""3-d orthogonal point location over disjoint boxes.

The universe is split along its largest axis into ceil(sqrt(U)) equal-width
slabs.  Boxes inside one slab are short and recurse per slab with the axis
rebased; boxes crossing slab boundaries break into a left piece, a right
piece (each located by a per-slab planar point-location structure on the
projection) and a middle piece that recurses with the axis coordinate
replaced by the slab index.  Per slab, a 2-d stabbing-emptiness structure
over the short-box projections decides whether to descend into the slab's
short structure or the middle structure: a non-empty answer rules out the
middle boxes and an empty answer rules out the slab's short boxes, by
disjointness.

A left piece spans [a1, end of its slab] and a right piece [start of its
slab, a2] along the split axis, so the query's own slab holds the other
end and a piece keeps one signed bound: -a1 under sign -1 (left), a2 under
sign 1 (right), and a located piece holds the query when sign * qa <= bound.
A node's ``sides`` are the two (sign, slab-to-root map, bound column, id
column) entries, left first; piece ids are dense in the order the slabs
first appear (``geom._groups``, which also groups the short boxes).  The
map gives the root offset of the slab's tree in ``PL3.pl2``, the one PL2
arena of the whole build.  The recursion only records the columns of each
slab's PL2 and StabEmpty2; once it returns, range2d lays out every PL2
tree into that arena and builds the StabEmpty2s with one counter pass per
padded length.

Internally boxes travel as (n, 6) integer arrays; ids returned by children
are decoded through per-node piece tables.  A leaf (at most tau boxes, or a
universe of side at most 2) keeps its boxes as ``leaf_coords``, a
``geom.Leaf`` whose first hit is the owning box.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import Counters, TraceEvent, bit_width
from .geom import AXES, SIDES, Box3, Leaf, ModelParams, DEFAULT_PARAMS, ValidationError, _groups, box_arrays
from .geom import query_coord, require_form
from .range2d import PL2, StabEmpty2, int64_array, pl2_arena, stab_empty2s

_OTHER = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class PL3Node:
    __slots__ = (
        "n", "U", "axis", "s", "width", "leaf_coords",
        "sides", "stab", "short_children", "middle_child", "mid_orig",
    )


class PL3:
    """Built point-location structure plus its space accounting."""

    def __init__(self, root, pl2: PL2, n, universes, bits):
        self.root = root
        self.pl2 = pl2
        self.n = n
        self.universes = universes
        self._bits = bits

    def space_report(self) -> dict:
        rep = dict(self._bits)
        rep["total"] = rep["pl2"] + rep["stab2"] + rep["piece_map"] + rep["leaf"]
        return rep

    @property
    def bits_stored(self) -> int:
        return self.space_report()["total"]

    @property
    def piece_incidences(self) -> int:
        return self._bits["incidences"]


class _Deferred:
    """The groups of 2-d structures that the recursion needs, recorded as
    they come and built in batches once it returns: ``blocks`` are column
    blocks, each group's ``sizes`` consecutive columns of them its rows,
    ``charges`` what the group is charged by (a PL2 row's bits, a
    StabEmpty2's coordinate width), and ``slots`` the (dict, slab) pair
    that its structure or root offset goes to."""

    __slots__ = ("blocks", "sizes", "charges", "slots")

    def __init__(self):
        self.blocks, self.sizes, self.charges, self.slots = [], [], [], []

    def add(self, block: np.ndarray, slots: list, sizes: list, charge: int) -> None:
        self.blocks.append(block)
        self.slots += slots
        self.sizes += sizes
        self.charges += [charge] * len(sizes)

    def columns(self, rows: int) -> np.ndarray:
        return np.concatenate(self.blocks, axis=1) if self.blocks else np.empty((rows, 0), dtype=np.int64)

    def fill(self, values) -> None:
        for (into, k), v in zip(self.slots, values):
            into[k] = v


def build_pl3(
    boxes: list[Box3],
    universes: tuple[int, int, int],
    params: ModelParams = DEFAULT_PARAMS,
) -> PL3:
    universes = _universe(universes)
    a = box_arrays(boxes)
    require_form(a, "point location", finite=SIDES)
    for axis, u in zip(AXES, universes):
        if (a[axis + "1"] < 0).any() or (a[axis + "2"] >= u).any():
            raise ValidationError("box outside the stated universe")
    return build_pl3_arrays(np.stack([a[k] for k in SIDES], axis=1), a["orig"], universes, params)


def build_pl3_arrays(
    coords,
    ids,
    universes,
    params: ModelParams = DEFAULT_PARAMS,
) -> PL3:
    """Array-form build: coords is (n, 6) int64, ids (n,)."""
    universes = _universe(universes)
    coords = np.asarray(coords, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    bits = {"pl2": 0, "stab2": 0, "piece_map": 0, "leaf": 0, "incidences": 0}
    pl2s, stabs = _Deferred(), _Deferred()
    root = _build(coords, ids, universes, params, bits, pl2s, stabs)
    pl2, roots = pl2_arena(pl2s.columns(5), pl2s.sizes, pl2s.charges)
    pl2s.fill(roots)
    bits["pl2"] = pl2.bits_stored
    built = stab_empty2s(stabs.columns(4), stabs.sizes, stabs.charges)
    stabs.fill(built)
    bits["stab2"] = sum(s.bits_stored for s in built)
    return PL3(root, pl2, len(coords), universes, bits)


def _universe(universes) -> tuple[int, int, int]:
    """``universes`` as a tuple of three positive ints; raise
    ValidationError for anything else."""
    try:
        u = tuple(query_coord(v, "universe side") for v in universes)
    except TypeError:  # not iterable
        u = ()
    if len(u) != 3 or min(u) < 1:
        raise ValidationError(f"universe {universes!r} is not three positive integers")
    return u


def _build(coords, ids, U, params, bits, pl2s, stabs):
    node = PL3Node()
    n = len(coords)
    node.n = n
    node.U = U
    bits["incidences"] += n
    widths = [bit_width(u) for u in U]

    if n <= params.tau or max(U) <= 2:
        node.axis = -1
        node.leaf_coords = Leaf(*coords.T, ids)
        bits["leaf"] += n * (2 * sum(widths) + bit_width(n + 1))
        return node
    node.leaf_coords = None

    axis = int(np.argmax(U))  # ties: x before y before z
    ua = U[axis]
    s = math.isqrt(ua)
    if s * s < ua:
        s += 1
    width = -(-ua // s)
    node.axis = axis
    node.s = s
    node.width = width
    p, q = _OTHER[axis]

    lo_slab = coords[:, 2 * axis] // width
    hi_slab = coords[:, 2 * axis + 1] // width
    short = lo_slab == hi_slab

    # -- short boxes: per-slab stabbing structure + recursive short child
    node.stab = {}
    node.short_children = {}
    sh_idx = np.nonzero(short)[0]
    child_U = tuple(width if a == axis else U[a] for a in range(3))
    proj = [2 * p, 2 * p + 1, 2 * q, 2 * q + 1]
    cw = max(widths[p], widths[q])
    for k, rows in _groups(lo_slab[sh_idx]):
        seg = sh_idx[rows]
        sc = coords[seg]
        stabs.add(sc[:, proj].T, [(node.stab, k)], [len(seg)], cw)
        # sc is a fresh array (fancy indexing), so it is rebased in place
        sc[:, 2 * axis] -= k * width
        sc[:, 2 * axis + 1] -= k * width
        node.short_children[k] = _build(sc, ids[seg], child_U, params, bits, pl2s, stabs)

    # -- long boxes: left/right pieces per slab, middle recursion
    lg_idx = np.nonzero(~short)[0]
    node.sides = ()
    node.middle_child = None
    node.mid_orig = None
    if len(lg_idx):
        id_w = bit_width(n + 1)
        pair_w = sum(widths)
        lg = coords[lg_idx]
        for sign, slab_of, bound in (
            (-1, lo_slab[lg_idx], -lg[:, 2 * axis]),
            (1, hi_slab[lg_idx], lg[:, 2 * axis + 1]),
        ):
            # the piece table maps a piece id to its signed bound and its
            # caller-visible box id; a slab's pieces label its PL2 tree
            roots = {}
            groups = list(_groups(slab_of))
            pieces = np.concatenate([rows for _, rows in groups])
            pl2s.add(
                np.vstack((lg[pieces][:, proj].T, np.arange(len(pieces)))),
                [(roots, k) for k, _ in groups], [len(rows) for _, rows in groups], 4 * cw + id_w,
            )
            bits["piece_map"] += len(pieces) * (2 * widths[axis] + id_w + pair_w)
            node.sides += ((sign, roots, int64_array(bound[pieces]), int64_array(ids[lg_idx[pieces]])),)

        has_mid = lg_idx[(hi_slab[lg_idx] - lo_slab[lg_idx]) >= 2]
        if len(has_mid):
            mc = coords[has_mid]
            mc[:, 2 * axis] = lo_slab[has_mid] + 1
            mc[:, 2 * axis + 1] = hi_slab[has_mid] - 1
            mid_U = tuple(s if a == axis else U[a] for a in range(3))
            node.mid_orig = int64_array(ids[has_mid])
            bits["piece_map"] += len(has_mid) * (bit_width(len(has_mid) + 1) + pair_w)
            node.middle_child = _build(mc, np.arange(len(has_mid)), mid_U, params, bits, pl2s, stabs)
    return node


def query_pl3(pl3: PL3, q, counters: Counters | None = None, trace: list | None = None):
    """Locate q (rank-space coordinates); returns the owning box id or None."""
    return _query(pl3.pl2, pl3.root, tuple(map(query_coord, q)), counters, trace)


def _query(pl2: PL2, node, q, counters, trace):
    if counters is not None:
        counters.visit_node()
    if node.leaf_coords is not None:
        hits = node.leaf_coords.query(q, counters)
        return hits[0] if hits else None
    axis = node.axis
    qa = q[axis]
    if qa < 0 or qa >= node.U[axis]:
        return None
    k = qa // node.width  # equal-width slabs: O(1) slab lookup
    p, oq = _OTHER[axis]
    qp, qq = q[p], q[oq]

    for sign, roots, bound, orig in node.sides:
        root = roots.get(k)
        if root is not None:
            pid = pl2.query(qp, qq, counters, root)
            if pid is not None and sign * qa <= bound[pid]:
                if counters is not None:
                    counters.charge_search(len(orig))  # piece-pair lookup
                return orig[pid]

    stab: StabEmpty2 | None = node.stab.get(k)
    nonempty = stab is not None and not stab.empty(qp, qq, counters)
    if trace is not None:
        trace.append(TraceEvent("pl3d", node, "short" if nonempty else "middle", int(k), q))
    if nonempty:
        q2 = q[:axis] + (qa - k * node.width,) + q[axis + 1 :]
        return _query(pl2, node.short_children[k], q2, counters, trace)
    if node.middle_child is None:
        return None
    q2 = q[:axis] + (k,) + q[axis + 1 :]
    sub = _query(pl2, node.middle_child, q2, counters, trace)
    if sub is None:
        return None
    if counters is not None:
        counters.charge_search(len(node.mid_orig))
    return node.mid_orig[sub]
