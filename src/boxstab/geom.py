"""Coordinate model, the box-to-array boundary, leaves, containment and
rank-space reduction.

Coordinates are integers strictly between the NEG and POS sentinels; the
generators draw them from a grid ``[0, U)``.  Unbounded sides of a box are
represented as ``None``: a ``None`` lower bound means the side extends to
-inf, a ``None`` upper bound to +inf.  All finite intervals are closed at
both endpoints; sets of point-location inputs must be disjoint over the
integer points of the grid.

Each stabbing builder accepts one orientation of unbounded sides.  Another
orientation maps to it by negating every axis whose unbounded side points
to +inf (c -> -c swaps the two sides) and permuting the axes, with the
query mapped the same way; no universe is needed.

Everything here is immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .counters import Counters


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


Interval = tuple[int | None, int | None]

AXES = ("x", "y", "z")

# In-band sentinels for unbounded sides inside the array-based structures.
# Every finite coordinate lies strictly between them, so a sentinel never
# collides with a stored endpoint, and a query clamped into [NEG, POS]
# answers exactly like the unclamped one.
NEG = -(2**62)
POS = 2**62


def query_coord(v, what: str = "query coordinate") -> int:
    """``v`` as an int.  Any integer is a query coordinate, numpy ints and
    values past the sentinels included; raise ValidationError, naming
    ``what``, for any other value, which a structure comparing ints would
    truncate."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"{what} {v!r} is not an integer") from None


def _check_int(v, what: str, lo: int, hi: int) -> None:
    v = query_coord(v, what)
    if not lo <= v <= hi:
        raise ValidationError(f"{what} {v} outside the range [{lo}, {hi}]")


def check_weight(w) -> None:
    """Weights of top-k inputs are integers in the open range (NEG, POS);
    raise ValidationError for any other value."""
    _check_int(w, "weight", NEG + 1, POS - 1)


def check_point_coord(v) -> None:
    """Coordinates of top-k dominance points are integers in the closed
    range [NEG, POS], since grid pieces arrive with the sentinels and their
    negations; raise ValidationError for any other value."""
    _check_int(v, "coordinate", NEG, POS)


def check_id(v) -> None:
    """Ids are integers in the int64 range, since they travel in the
    structures' int64 id arrays; raise ValidationError for any other
    value."""
    _check_int(v, "id", -(2**63), 2**63 - 1)


def _check_interval(name: str, iv: Interval) -> None:
    lo, hi = iv
    for v in iv:
        if v is not None:
            _check_int(v, f"{name}-endpoint", NEG + 1, POS - 1)
    if lo is not None and hi is not None and lo > hi:
        raise ValidationError(f"malformed {name}-interval: lo {lo} > hi {hi}")


@dataclass(frozen=True)
class Box3:
    """An axis-aligned 3-d box, 3- to 6-sided depending on finite bounds."""

    id: int
    x: Interval
    y: Interval
    z: Interval
    weight: int | None = None

    def __post_init__(self):
        check_id(self.id)
        _check_interval("x", self.x)
        _check_interval("y", self.y)
        _check_interval("z", self.z)
        if self.weight is not None:
            check_weight(self.weight)

    def interval(self, axis: int) -> Interval:
        return (self.x, self.y, self.z)[axis]


@dataclass(frozen=True)
class Box2:
    id: int
    x: Interval
    y: Interval
    weight: int | None = None

    def __post_init__(self):
        check_id(self.id)
        _check_interval("x", self.x)
        _check_interval("y", self.y)
        if self.weight is not None:
            check_weight(self.weight)

    def interval(self, axis: int) -> Interval:
        return (self.x, self.y)[axis]


# The symbolic word size and fan-out exponent of the analysis: W is never
# the machine word; both only feed ModelParams' threshold formulas.
W = 64
EPS = 0.1


@dataclass(frozen=True)
class ModelParams:
    """Threshold knobs of the word-RAM analysis, kept symbolic."""

    tau: int = 32
    # fixed grid side instead of the size formula (test/bench hook); the
    # formula only yields g >= 3 above ~1.3e5 items, so small-scale tests of
    # the grid/Top machinery set this
    grid_override: int | None = None

    def __post_init__(self):
        if self.tau < 1:
            raise ValidationError("parameter tau must be >= 1")

    @property
    def Z(self) -> int:
        return max(2, math.ceil(W**EPS))

    def t0(self, n: int) -> int:
        loglog = math.log2(max(2.0, math.log2(max(4, n))))
        return max(1, math.ceil(math.log2(W) * loglog))

    def t1(self, n: int) -> int:
        return max(1, math.ceil(math.log2(max(2, n))))

    def t2(self, n: int) -> int:
        return max(1, math.ceil(math.log2(max(2, n)) ** (1.0 / 3.0)))


DEFAULT_PARAMS = ModelParams()


# ---------------------------------------------------------------------------
# the box-to-array boundary
#
# Every structure reads its input boxes through box_arrays and states the
# form it accepts with one require_form call.  Box validation keeps finite
# endpoints strictly inside (NEG, POS), so a side equals its sentinel
# exactly where it is None.

SIDES = ("x1", "x2", "y1", "y2", "z1", "z2")


def box_arrays(boxes, dims: int = 3) -> dict:
    """Per-field int64 arrays of a list of Box3 (``dims`` 3) or Box2
    (``dims`` 2): the sides x1 x2 y1 y2 [z1 z2], a None lower side as NEG
    and a None upper side as POS, then ``orig``, the ids."""
    get = operator.attrgetter(*AXES[:dims])
    flat = [
        v
        for b in boxes
        for lo, hi in get(b)
        for v in (NEG if lo is None else lo, POS if hi is None else hi)
    ]
    cols = np.array(flat, dtype=np.int64).reshape(-1, 2 * dims).T.copy()
    out = dict(zip(SIDES, cols))
    out["orig"] = np.array([b.id for b in boxes], dtype=np.int64)
    return out


# A leaf of at most LEAF_ROWS rows is stored as row tuples and scanned by
# one comprehension; a larger one as columns and scanned by one numpy mask.
# Timed per query, the two tie at about 144-160 rows (ROADMAP.md, "Measured
# constants that code comments cite", has the table).
LEAF_ROWS = 144

_INT32 = np.iinfo(np.int32)


def _fits_int32(*cols) -> bool:
    return all(not len(c) or (_INT32.min <= c.min() and c.max() <= _INT32.max) for c in cols)


class Leaf:
    """The base case of every recursion: rows [x1,x2] x [y1,y2] x [z1,z2],
    each with a payload, answered by one closed-interval test per axis.

    A side is an int64 array or one int for every row; an unbounded or
    absent side is the NEG or POS sentinel.  ``payload`` holds one or more
    arrays.  ``query(q, counters)`` returns the payloads of the rows
    containing the point q, in stored order: an int per row for one payload
    array, a tuple for more.  Rows are kept in one form only, chosen by
    their count (LEAF_ROWS): ``rows`` or ``cols``.

    A leaf one-sided in z, z1 one int (a 5-sided leaf's NEG) and z2 an
    array, stores its rows z2-descending (a stable sort, so ties keep their
    given order) and keeps ``key``, the negated z2 in that order, as a
    stdlib array.  A query tests z1 once, finds the prefix of rows with
    z2 >= qz by one bisect of ``key`` and scans that prefix on x and y
    only: the row tuples hold the x and y sides and the payload, and the
    x and y columns are int32 where all their values fit (so are the
    leaves below a grid node, in that node's ranks), int64 otherwise;
    ``key`` is narrowed the same way.  Such a query charges
    ``charge_search(n)`` and ``scan_cells(prefix)``, nothing for n = 0.
    Every other leaf keeps its rows in the given order and charges
    ``scan_cells(n)``."""

    __slots__ = ("n", "rows", "cols", "payload", "z1", "key")

    def __init__(self, x1, x2, y1, y2, z1, z2, *payload):
        self.n = n = len(payload[0])
        sides = (x1, x2, y1, y2, z1, z2)
        self.rows = self.cols = self.payload = self.z1 = self.key = None
        if isinstance(z2, np.ndarray) and not isinstance(z1, np.ndarray):
            order = np.argsort(-z2, kind="stable")
            self.z1 = z1
            key = -z2[order]
            self.key = array("i", key.astype(np.int32).tobytes()) if _fits_int32(key) else array("q", key.tobytes())
            sides = [s[order] if isinstance(s, np.ndarray) else np.full(n, s, np.int64) for s in sides[:4]]
            payload = [p[order] for p in payload]
            if n > LEAF_ROWS and _fits_int32(*sides):
                sides = [s.astype(np.int32) for s in sides]
        if n > LEAF_ROWS:
            self.cols = tuple(sides)
            self.payload = payload
            return
        vals = [p.tolist() for p in payload]
        self.rows = list(zip(
            *(s.tolist() if isinstance(s, np.ndarray) else [s] * n for s in sides),
            vals[0] if len(vals) == 1 else zip(*vals),
        ))

    def query(self, q, counters: Counters | None = None) -> list:
        qx, qy, qz = q
        if self.key is not None:
            return self._query_prefix(qx, qy, qz, counters)
        if counters is not None:
            counters.scan_cells(self.n)
        if self.rows is not None:
            return [
                p for x1, x2, y1, y2, z1, z2, p in self.rows
                if x1 <= qx <= x2 and y1 <= qy <= y2 and z1 <= qz <= z2
            ]
        # a side shared by every row is one Python test, not a pass of the mask
        m = None
        for side, v, lower in zip(self.cols, (qx, qx, qy, qy, qz, qz), (True, False) * 3):
            t = side <= v if lower else side >= v
            if not isinstance(t, np.ndarray):
                if not t:
                    return []
            elif m is None:
                m = t
            else:
                m &= t
        return self._payloads(np.arange(self.n) if m is None else np.flatnonzero(m))

    def _query_prefix(self, qx, qy, qz, counters):
        """The one-sided leaf's scan: rows 0..end-1 have z2 >= qz."""
        if not self.n:
            return []
        if counters is not None:
            counters.charge_search(self.n)
        if qz < self.z1:
            return []
        end = bisect_right(self.key, -qz)
        if counters is not None:
            counters.scan_cells(end)
        if not end:
            return []
        if self.rows is not None:
            return [p for x1, x2, y1, y2, p in islice(self.rows, end) if x1 <= qx <= x2 and y1 <= qy <= y2]
        x1, x2, y1, y2 = self.cols
        m = x1[:end] <= qx
        m &= x2[:end] >= qx
        m &= y1[:end] <= qy
        m &= y2[:end] >= qy
        return self._payloads(m.nonzero()[0])

    def _payloads(self, idx) -> list:
        hits = [p[idx].tolist() for p in self.payload]
        return hits[0] if len(hits) == 1 else list(zip(*hits))


def _sentinel(side: str) -> int:
    return NEG if side.endswith("1") else POS


def require_form(a: dict, form: str, finite=(), unbounded=()) -> None:
    """Raise ValidationError unless every box of the arrays ``a`` has the
    sides ``finite`` bounded and the sides ``unbounded`` None; ``form``
    names the accepted form in the message."""
    for side in finite:
        if (a[side] == _sentinel(side)).any():
            raise ValidationError(f"{form} needs a finite {side} in every box")
    for side in unbounded:
        if (a[side] != _sentinel(side)).any():
            raise ValidationError(f"{form} needs an unbounded {side} in every box")


# ---------------------------------------------------------------------------
# grouping


def _groups(keys):
    """(key, ascending rows) per distinct value of ``keys``, in order of
    first appearance."""
    if not len(keys):
        return
    # a stable sort keeps each key's rows ascending, so the first row of a
    # run of equal keys is where that key first appears
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.flatnonzero(sk[1:] != sk[:-1]) + 1
    bounds = [0, *starts.tolist(), len(sk)]
    vals = sk[bounds[:-1]].tolist()
    for j in np.argsort(order[bounds[:-1]]).tolist():
        yield vals[j], order[bounds[j] : bounds[j + 1]]


# ---------------------------------------------------------------------------
# containment


def _in_interval(iv: Interval, v: int) -> bool:
    lo, hi = iv
    if lo is not None and v < lo:
        return False
    if hi is not None and v > hi:
        return False
    return True


def contains(b: Box3, q: tuple[int, int, int]) -> bool:
    return (
        _in_interval(b.x, q[0]) and _in_interval(b.y, q[1]) and _in_interval(b.z, q[2])
    )


def contains2(b: Box2, q: tuple[int, int]) -> bool:
    return _in_interval(b.x, q[0]) and _in_interval(b.y, q[1])


# ---------------------------------------------------------------------------
# rank-space reduction


def rank_axis(cols, step: int = 1):
    """One rank axis over the equal-length int64 columns ``cols``, ranked
    together: the sorted distinct finite values, and a copy of each column
    with every finite value replaced by ``step`` times its rank.  NEG and
    POS stay as they are."""
    vals = np.concatenate(cols)
    finite = (vals > NEG) & (vals < POS)
    ax, rank = np.unique(vals[finite], return_inverse=True)
    vals[finite] = step * rank
    m = len(cols[0])
    return ax, [vals[i * m : (i + 1) * m] for i in range(len(cols))]


def floor_rank(axis, v, counters: Counters | None = None) -> int:
    """Floor rank of ``v`` in the ascending ``axis``: the highest rank whose
    value is <= v, else -1.  Charges one search over the axis."""
    if counters is not None:
        counters.charge_search(len(axis))
    return bisect_right(axis, v) - 1


@dataclass(frozen=True)
class RankSpace:
    """Per-axis sorted distinct coordinates."""

    axes: tuple[tuple[int, ...], ...]

    def size(self, axis: int) -> int:
        return len(self.axes[axis])


def rank_reduce(boxes: list[Box3]) -> tuple[RankSpace, list[Box3]]:
    """Replace finite coordinates by their ranks; infinite sides survive."""
    a = box_arrays(boxes)
    axes, ivs = [], []
    for name in AXES:
        ax, (lo, hi) = rank_axis((a[name + "1"], a[name + "2"]))
        axes.append(tuple(ax.tolist()))
        # one int object per rank, shared by every box
        rank = list(range(len(ax)))
        ivs.append([
            (None if l == NEG else rank[l], None if h == POS else rank[h])
            for l, h in zip(lo.tolist(), hi.tolist())
        ])
    # every id, weight and rank is already valid: set the fields as the
    # frozen dataclass's __init__ does, without its __post_init__ checks
    new, put = object.__new__, object.__setattr__
    reduced = []
    for b, x, y, z in zip(boxes, *ivs):
        r = new(Box3)
        put(r, "id", b.id)
        put(r, "x", x)
        put(r, "y", y)
        put(r, "z", z)
        put(r, "weight", b.weight)
        reduced.append(r)
    return RankSpace(tuple(axes)), reduced


def rank_locate(
    rs: RankSpace, q: tuple[int, int, int], counters: Counters | None = None
) -> tuple[int, int, int]:
    """Map a raw query point to floor ranks (-1 when below everything stored)."""
    return tuple(floor_rank(ax, query_coord(v), counters) for ax, v in zip(rs.axes, q))  # type: ignore[return-value]


def rank_reduce_arrays(coords):
    """Vectorized rank reduction of an (n, 6) finite coordinate array.

    Returns (axes, reduced) where axes[a] is the sorted distinct coordinate
    array of axis a and reduced is the rank-space copy of coords.  Raises
    ValidationError when a coordinate is NEG, POS or past them.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if ((coords <= NEG) | (coords >= POS)).any():
        raise ValidationError("rank_reduce_arrays needs finite coordinates, strictly between NEG and POS")
    ranked = [rank_axis((coords[:, 2 * a], coords[:, 2 * a + 1])) for a in range(3)]
    return [ax for ax, _ in ranked], np.stack([c for _, pair in ranked for c in pair], axis=1)
