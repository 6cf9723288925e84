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

Internally boxes travel as (n, 6) integer arrays; ids returned by children
are decoded through per-node piece tables.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import Counters, TraceEvent, bit_width
from .geom import AXES, SIDES, Box3, ModelParams, DEFAULT_PARAMS, ValidationError, box_arrays, require_form
from .range2d import PL2, StabEmpty2, int64_array

_OTHER = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class PL3Node:
    __slots__ = (
        "n", "U", "axis", "s", "width", "nslabs", "leaf_coords", "leaf_ids",
        "left_pl2", "right_pl2", "stab", "short_children", "middle_child",
        "l_lo", "l_hi", "l_orig", "r_lo", "r_hi", "r_orig", "mid_orig",
    )


class PL3:
    """Built point-location structure plus its space accounting."""

    def __init__(self, root, n, universes, bits):
        self.root = root
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


def build_pl3(
    boxes: list[Box3],
    universes: tuple[int, int, int],
    params: ModelParams = DEFAULT_PARAMS,
) -> PL3:
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
    coords = np.asarray(coords, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    bits = {"pl2": 0, "stab2": 0, "piece_map": 0, "leaf": 0, "incidences": 0}
    root = _build(coords, ids, tuple(universes), params, bits)
    return PL3(root, len(coords), tuple(universes), bits)


def _build(coords, ids, U, params, bits):
    node = PL3Node()
    n = len(coords)
    node.n = n
    node.U = U
    bits["incidences"] += n
    widths = [bit_width(u) for u in U]

    if n <= params.tau or max(U) <= 2:
        node.axis = -1
        node.leaf_coords = coords
        node.leaf_ids = ids
        bits["leaf"] += n * (2 * sum(widths) + bit_width(n + 1))
        return node
    node.leaf_coords = None

    axis = int(np.argmax(U))  # ties: x before y before z
    ua = U[axis]
    s = math.isqrt(ua)
    if s * s < ua:
        s += 1
    width = -(-ua // s)
    nslabs = -(-ua // width)
    node.axis = axis
    node.s = s
    node.width = width
    node.nslabs = nslabs
    p, q = _OTHER[axis]

    lo_slab = coords[:, 2 * axis] // width
    hi_slab = coords[:, 2 * axis + 1] // width
    short = lo_slab == hi_slab
    long_ = ~short

    # -- short boxes: per-slab stabbing structure + recursive short child
    node.stab = {}
    node.short_children = {}
    sh_idx = np.nonzero(short)[0]
    if len(sh_idx):
        order = sh_idx[np.argsort(lo_slab[sh_idx], kind="stable")]
        slabs = lo_slab[order]
        starts = np.searchsorted(slabs, np.arange(nslabs + 1))
        for k in range(nslabs):
            seg = order[starts[k] : starts[k + 1]]
            if not len(seg):
                continue
            sc = coords[seg]
            node.stab[k] = StabEmpty2(
                sc[:, 2 * p], sc[:, 2 * p + 1], sc[:, 2 * q], sc[:, 2 * q + 1],
                coord_width=max(widths[p], widths[q]),
            )
            bits["stab2"] += node.stab[k].bits_stored
            # sc is a fresh array (fancy indexing) that StabEmpty2 does not
            # keep, so it is rebased in place
            sc[:, 2 * axis] -= k * width
            sc[:, 2 * axis + 1] -= k * width
            child_U = tuple(width if a == axis else U[a] for a in range(3))
            node.short_children[k] = _build(sc, ids[seg], child_U, params, bits)

    # -- long boxes: left/right pieces per slab, middle recursion
    lg_idx = np.nonzero(long_)[0]
    node.left_pl2 = {}
    node.right_pl2 = {}
    node.middle_child = None
    node.l_lo = node.l_hi = node.l_orig = None
    node.r_lo = node.r_hi = node.r_orig = None
    node.mid_orig = None
    if len(lg_idx):
        id_w = bit_width(n + 1)
        pair_w = sum(widths)

        def build_side(slab_of, ext_lo, ext_hi):
            # pieces get dense ids in slab order; the piece table maps a
            # piece id to its axis extent and its caller-visible box id
            order = lg_idx[np.argsort(slab_of[lg_idx], kind="stable")]
            slabs = slab_of[order]
            starts = np.searchsorted(slabs, np.arange(nslabs + 1))
            pl2s = {}
            for k in range(nslabs):
                seg = order[starts[k] : starts[k + 1]]
                if not len(seg):
                    continue
                sc = coords[seg]
                base = starts[k]
                pl2s[k] = PL2(
                    sc[:, 2 * p], sc[:, 2 * p + 1], sc[:, 2 * q], sc[:, 2 * q + 1],
                    np.arange(base, base + len(seg)),
                    coord_width=max(widths[p], widths[q]),
                    label_width=id_w,
                )
                bits["pl2"] += pl2s[k].bits_stored
            bits["piece_map"] += len(order) * (2 * widths[axis] + id_w + pair_w)
            return pl2s, int64_array(ext_lo[order]), int64_array(ext_hi[order]), int64_array(ids[order])

        node.left_pl2, node.l_lo, node.l_hi, node.l_orig = build_side(
            lo_slab,
            coords[:, 2 * axis],
            (lo_slab + 1) * width - 1,
        )
        node.right_pl2, node.r_lo, node.r_hi, node.r_orig = build_side(
            hi_slab,
            hi_slab * width,
            coords[:, 2 * axis + 1],
        )

        has_mid = lg_idx[(hi_slab[lg_idx] - lo_slab[lg_idx]) >= 2]
        if len(has_mid):
            mc = coords[has_mid]
            mc[:, 2 * axis] = lo_slab[has_mid] + 1
            mc[:, 2 * axis + 1] = hi_slab[has_mid] - 1
            mid_U = tuple(s if a == axis else U[a] for a in range(3))
            node.mid_orig = int64_array(ids[has_mid])
            bits["piece_map"] += len(has_mid) * (bit_width(len(has_mid) + 1) + pair_w)
            node.middle_child = _build(mc, np.arange(len(has_mid)), mid_U, params, bits)
    return node


def _leaf_scan(node, q, counters):
    c = node.leaf_coords
    if not len(c):
        return None
    if counters is not None:
        counters.scan_cells(len(c))
    m = (
        (c[:, 0] <= q[0]) & (c[:, 1] >= q[0])
        & (c[:, 2] <= q[1]) & (c[:, 3] >= q[1])
        & (c[:, 4] <= q[2]) & (c[:, 5] >= q[2])
    )
    hits = np.nonzero(m)[0]
    return int(node.leaf_ids[hits[0]]) if len(hits) else None


def query_pl3(pl3: PL3, q, counters: Counters | None = None, trace: list | None = None):
    """Locate q (rank-space coordinates); returns the owning box id or None."""
    return _query(pl3.root, tuple(q), counters, trace)


def _query(node, q, counters, trace):
    if counters is not None:
        counters.visit_node()
    if node.leaf_coords is not None:
        return _leaf_scan(node, q, counters)
    axis = node.axis
    qa = q[axis]
    if qa < 0 or qa >= node.U[axis]:
        return None
    k = qa // node.width  # equal-width slabs: O(1) slab lookup
    p, oq = _OTHER[axis]
    proj = (q[p], q[oq])

    pl2 = node.left_pl2.get(k)
    if pl2 is not None:
        pid = pl2.query(proj[0], proj[1], counters)
        if pid is not None and node.l_lo[pid] <= qa <= node.l_hi[pid]:
            if counters is not None:
                counters.charge_search(len(node.l_orig))  # piece-pair lookup
            return node.l_orig[pid]
    pl2 = node.right_pl2.get(k)
    if pl2 is not None:
        pid = pl2.query(proj[0], proj[1], counters)
        if pid is not None and node.r_lo[pid] <= qa <= node.r_hi[pid]:
            if counters is not None:
                counters.charge_search(len(node.r_orig))
            return node.r_orig[pid]

    stab = node.stab.get(k)
    nonempty = stab is not None and not stab.empty(proj[0], proj[1], counters)
    if trace is not None:
        trace.append(TraceEvent("pl3d", node, "short" if nonempty else "middle", int(k), q))
    if nonempty:
        child = node.short_children.get(k)
        if child is None:
            return None
        q2 = tuple(q[a] - k * node.width if a == axis else q[a] for a in range(3))
        return _query(child, q2, counters, trace)
    if node.middle_child is None:
        return None
    q2 = tuple(k if a == axis else q[a] for a in range(3))
    sub = _query(node.middle_child, q2, counters, trace)
    if sub is None:
        return None
    if counters is not None:
        counters.charge_search(len(node.mid_orig))
    return node.mid_orig[sub]
