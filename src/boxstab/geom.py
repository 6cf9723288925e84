"""Coordinate model, box taxonomy, rank-space reduction and orientation handling.

Coordinates are unsigned integers on a grid ``[0, U)``.  Unbounded sides of a
box are represented as ``None``: a ``None`` lower bound means the side extends
to -inf, a ``None`` upper bound to +inf.  All finite intervals are closed at
both endpoints; sets of point-location inputs must be disjoint over the
integer points of the grid.

Everything here is immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

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


def _check_interval(name: str, iv: Interval) -> None:
    lo, hi = iv
    for v in iv:
        if v is not None and not NEG < v < POS:
            raise ValidationError(f"{name}-endpoint {v} outside the open range (-2^62, 2^62)")
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
        _check_interval("x", self.x)
        _check_interval("y", self.y)
        _check_interval("z", self.z)

    def sidedness(self) -> int:
        return sum(b is not None for iv in (self.x, self.y, self.z) for b in iv)

    def interval(self, axis: int) -> Interval:
        return (self.x, self.y, self.z)[axis]


@dataclass(frozen=True)
class Box2:
    id: int
    x: Interval
    y: Interval
    weight: int | None = None

    def __post_init__(self):
        _check_interval("x", self.x)
        _check_interval("y", self.y)

    def interval(self, axis: int) -> Interval:
        return (self.x, self.y)[axis]


@dataclass(frozen=True)
class ModelParams:
    """Threshold knobs of the word-RAM analysis, kept symbolic.

    ``W`` never refers to the machine word; it only feeds the threshold
    formulas below, which are validated as operation counts.
    """

    W: int = 64
    eps: float = 0.1
    tau: int = 32
    t0_override: int | None = None
    t1_override: int | None = None
    t2_override: int | None = None
    # Bottom out the grid recursion where the quantile bound stops shrinking
    # (g < 3); disabled by tests that want deep trees on small inputs.
    plateau_leaf: bool = True
    # fixed grid side instead of the size formula (test/bench hook); the
    # formula only yields g >= 3 above ~1.3e5 items, so small-scale tests of
    # the grid/Top machinery set this
    grid_override: int | None = None
    truncate_cell_lists: bool = False

    def __post_init__(self):
        if self.W < 2 or self.tau < 1 or self.eps <= 0:
            raise ValidationError("parameters must be >= 1 (W >= 2, eps > 0)")

    @property
    def Z(self) -> int:
        return max(2, math.ceil(self.W**self.eps))

    def t0(self, n: int) -> int:
        if self.t0_override is not None:
            return self.t0_override
        loglog = math.log2(max(2.0, math.log2(max(4, n))))
        return max(1, math.ceil(math.log2(self.W) * loglog))

    def t1(self, n: int) -> int:
        if self.t1_override is not None:
            return self.t1_override
        return max(1, math.ceil(math.log2(max(2, n))))

    def t2(self, n: int) -> int:
        if self.t2_override is not None:
            return self.t2_override
        return max(1, math.ceil(math.log2(max(2, n)) ** (1.0 / 3.0)))


DEFAULT_PARAMS = ModelParams()


# ---------------------------------------------------------------------------
# classification and containment


def classify_sides(b: Box3) -> int:
    """Number of finite bounds among the six sides, in {3,4,5,6}."""
    return b.sidedness()


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


@dataclass(frozen=True)
class RankSpace:
    """Per-axis sorted distinct coordinates with coordinate -> rank maps."""

    axes: tuple[tuple[int, ...], ...]

    def size(self, axis: int) -> int:
        return len(self.axes[axis])

    def rank_exact(self, axis: int, v: int) -> int:
        arr = self.axes[axis]
        i = bisect_left(arr, v)
        if i == len(arr) or arr[i] != v:
            raise KeyError(f"coordinate {v} not stored on axis {axis}")
        return i

    def locate(self, axis: int, v: int, counters: Counters | None = None) -> int:
        """Floor rank of ``v``: highest rank whose coordinate is <= v, else -1."""
        arr = self.axes[axis]
        if counters is not None:
            counters.charge_search(len(arr))
        return bisect_right(arr, v) - 1


def rank_reduce(boxes: list[Box3]) -> tuple[RankSpace, list[Box3]]:
    """Replace finite coordinates by their ranks; infinite sides survive."""
    per_axis: list[set[int]] = [set(), set(), set()]
    for b in boxes:
        for a in range(3):
            lo, hi = b.interval(a)
            if lo is not None:
                per_axis[a].add(lo)
            if hi is not None:
                per_axis[a].add(hi)
    rs = RankSpace(tuple(tuple(sorted(s)) for s in per_axis))

    def red(axis: int, v: int | None) -> int | None:
        return None if v is None else rs.rank_exact(axis, v)

    reduced = [
        Box3(
            b.id,
            (red(0, b.x[0]), red(0, b.x[1])),
            (red(1, b.y[0]), red(1, b.y[1])),
            (red(2, b.z[0]), red(2, b.z[1])),
            b.weight,
        )
        for b in boxes
    ]
    return rs, reduced


def rank_locate(
    rs: RankSpace, q: tuple[int, int, int], counters: Counters | None = None
) -> tuple[int, int, int]:
    """Map a raw query point to floor ranks (-1 when below everything stored)."""
    return tuple(rs.locate(a, q[a], counters) for a in range(3))  # type: ignore[return-value]


def rank_reduce_arrays(coords):
    """Vectorized rank reduction of an (n, 6) finite coordinate array.

    Returns (axes, reduced) where axes[a] is the sorted distinct coordinate
    array of axis a and reduced is the rank-space copy of coords.
    """
    import numpy as np

    coords = np.asarray(coords, dtype=np.int64)
    reduced = np.empty_like(coords)
    axes = []
    for a in range(3):
        vals = np.unique(coords[:, 2 * a : 2 * a + 2])
        axes.append(vals)
        reduced[:, 2 * a] = np.searchsorted(vals, coords[:, 2 * a])
        reduced[:, 2 * a + 1] = np.searchsorted(vals, coords[:, 2 * a + 1])
    return axes, reduced


# ---------------------------------------------------------------------------
# orientation normalization
#
# An orientation code is a 3-character string over {'b','l','h'}: per axis,
# 'b' = bounded on both sides, 'l' = unbounded toward -inf, 'h' = unbounded
# toward +inf.  Canonical form has every unbounded side toward -inf, so
# normalization reflects exactly the 'h' axes via c -> U-1-c.


def orientation_of(b: Box3) -> str:
    code = []
    for a in range(3):
        lo, hi = b.interval(a)
        if lo is None and hi is None:
            raise ValidationError("axis unbounded on both sides has no orientation")
        code.append("b" if (lo is not None and hi is not None) else ("l" if lo is None else "h"))
    return "".join(code)


def _reflect_iv(iv: Interval, U: int) -> Interval:
    lo, hi = iv
    nlo = None if hi is None else U - 1 - hi
    nhi = None if lo is None else U - 1 - lo
    return (nlo, nhi)


def reflect_box(b: Box3, axes: tuple[bool, bool, bool], universes: tuple[int, int, int]) -> Box3:
    """Reflect the chosen axes (c -> U-1-c); involutive."""
    ivs = [b.x, b.y, b.z]
    out = [
        _reflect_iv(ivs[a], universes[a]) if axes[a] else ivs[a] for a in range(3)
    ]
    return Box3(b.id, out[0], out[1], out[2], b.weight)


def reflect_point(
    q: tuple[int, int, int], axes: tuple[bool, bool, bool], universes: tuple[int, int, int]
) -> tuple[int, int, int]:
    return tuple(
        universes[a] - 1 - q[a] if axes[a] else q[a] for a in range(3)
    )  # type: ignore[return-value]


def normalize_orientation(b: Box3, code: str, universes: tuple[int, int, int]) -> Box3:
    """Reflect every 'h' axis of ``code`` so all unbounded sides point to -inf.

    Raises if ``code`` does not describe the box's actual unbounded sides.
    """
    if len(code) != 3 or any(c not in "blh" for c in code):
        raise ValidationError(f"bad orientation code {code!r}")
    if orientation_of(b) != code:
        raise ValidationError(
            f"orientation code {code!r} inconsistent with box sides {orientation_of(b)!r}"
        )
    axes = tuple(c == "h" for c in code)
    return reflect_box(b, axes, universes)  # type: ignore[arg-type]
