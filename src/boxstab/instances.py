"""Deterministic instance generation for every structure kind."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import SIDES, Box2, Box3, ValidationError, box_arrays

KINDS = (
    "pl-disjoint",
    "pl-subdivision-pruned",
    "stab5",
    "stab6",
    "zr4",
    "zr6",
    "topk-dom",
    "topk-stab",
)


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    universe: int
    seed: int
    boxes: tuple[Box3, ...]
    weighted: bool = False
    fanout: int | None = None  # z universe of zr kinds

    def boxes2(self) -> list[Box2]:
        return [Box2(b.id, b.x, b.y, b.weight) for b in self.boxes]


def split_subdivision_arrays(n: int, U: int, rng, flat: bool = False) -> np.ndarray:
    """Recursive random axis splits of [0,U)^3 into exactly n closed cells,
    returned as an (n, 6) int64 array [x1 x2 y1 y2 z1 z2]."""
    cells = np.empty((max(1, n), 6), dtype=np.int64)
    cells[0] = (0, U - 1, 0, U - 1, 0, U - 1)
    count = 1
    splittable = [0]
    axes_hi = 2 if flat else 3
    rnd = rng.random(4096)
    ri = 0
    while count < n:
        if not splittable:
            raise ValidationError(f"cannot split [0,{U})^3 into {n} cells")
        if ri + 3 > len(rnd):
            rnd = rng.random(4096)
            ri = 0
        si = int(rnd[ri] * len(splittable))
        ri += 1
        ci = splittable[si]
        cell = cells[ci]
        axes = [a for a in range(axes_hi) if cell[2 * a + 1] > cell[2 * a]]
        if not axes:
            splittable[si] = splittable[-1]
            splittable.pop()
            continue
        a = axes[int(rnd[ri] * len(axes))]
        ri += 1
        lo, hi = int(cell[2 * a]), int(cell[2 * a + 1])
        p = lo + int(rnd[ri] * (hi - lo))  # split into [lo,p] and [p+1,hi]
        ri += 1
        cells[count] = cell
        cells[count, 2 * a] = p + 1
        cells[ci, 2 * a + 1] = p
        splittable.append(count)
        count += 1
    return cells[:n]


def _split_subdivision(n: int, U: int, rng, flat: bool = False) -> list[tuple]:
    return [tuple(int(v) for v in row) for row in split_subdivision_arrays(n, U, rng, flat)]


def _sorted_pair(rng, U: int) -> tuple[int, int]:
    a = int(rng.integers(U))
    b = int(rng.integers(U))
    return (a, b) if a <= b else (b, a)


def gen(
    kind: str,
    n: int,
    U: int,
    seed: int,
    fanout: int | None = None,
    flat: bool = False,
) -> Instance:
    """Generate a deterministic instance; U >= 2n required."""
    if kind not in KINDS:
        raise ValidationError(f"unknown instance kind {kind!r}")
    if n < 0 or (n > 0 and U < max(2, 2 * n)):
        raise ValidationError(f"need U >= 2n (got n={n}, U={U})")
    rng = np.random.default_rng(seed)
    boxes: list[Box3] = []
    weighted = kind in ("topk-dom", "topk-stab")
    f = fanout

    if n == 0:
        return Instance(kind, 0, U, seed, (), weighted, f)

    if kind in ("pl-disjoint", "pl-subdivision-pruned"):
        total = n if kind == "pl-disjoint" else min(max(n + 1, int(n / 0.7)), U - 1 if U > 1 else n)
        cells = _split_subdivision(total, U, rng, flat=flat)
        if kind == "pl-subdivision-pruned":
            keep = rng.choice(total, size=n, replace=False)
            cells = [cells[i] for i in sorted(keep.tolist())]
        boxes = [
            Box3(i, (c[0], c[1]), (c[2], c[3]), (c[4], c[5]))
            for i, c in enumerate(cells)
        ]
    elif kind == "stab5":
        for i in range(n):
            boxes.append(
                Box3(i, _sorted_pair(rng, U), _sorted_pair(rng, U), (None, int(rng.integers(U))))
            )
    elif kind == "stab6":
        for i in range(n):
            boxes.append(Box3(i, _sorted_pair(rng, U), _sorted_pair(rng, U), _sorted_pair(rng, U)))
    elif kind == "zr4":
        f = f or 8
        for i in range(n):
            zi, zj = sorted((int(rng.integers(f)), int(rng.integers(f))))
            boxes.append(
                Box3(i, (None, int(rng.integers(U))), (None, int(rng.integers(U))), (zi, zj))
            )
    elif kind == "zr6":
        f = f or 8
        for i in range(n):
            zi, zj = sorted((int(rng.integers(f)), int(rng.integers(f))))
            boxes.append(Box3(i, _sorted_pair(rng, U), _sorted_pair(rng, U), (zi, zj)))
    elif kind == "topk-dom":
        for i in range(n):
            x, y, z = (int(rng.integers(U)) for _ in range(3))
            boxes.append(Box3(i, (x, x), (y, y), (z, z), weight=int(rng.integers(U))))
    elif kind == "topk-stab":
        for i in range(n):
            boxes.append(
                Box3(i, _sorted_pair(rng, U), _sorted_pair(rng, U), (None, None), weight=int(rng.integers(U)))
            )
    return Instance(kind, n, U, seed, tuple(boxes), weighted, f)


def gen_pl_arrays(n: int, U: int, seed: int, pruned: bool = False) -> np.ndarray:
    """Array-form pl-disjoint / pl-subdivision-pruned generator (big sizes)."""
    rng = np.random.default_rng(seed)
    if not pruned:
        return split_subdivision_arrays(n, U, rng)
    total = min(max(n + 1, int(n / 0.7)), U - 1 if U > 1 else n)
    cells = split_subdivision_arrays(total, U, rng)
    keep = np.sort(rng.choice(total, size=n, replace=False))
    return cells[keep]


def check_pairwise_disjoint(boxes: list[Box3]) -> bool:
    """O(n^2) integer-overlap test (vectorized)."""
    n = len(boxes)
    if n < 2:
        return True
    a = box_arrays(boxes)
    arr = np.stack([a[k] for k in SIDES], axis=1)
    for i in range(n - 1):
        rest = arr[i + 1 :]
        overlap = (
            (arr[i, 0] <= rest[:, 1])
            & (rest[:, 0] <= arr[i, 1])
            & (arr[i, 2] <= rest[:, 3])
            & (rest[:, 2] <= arr[i, 3])
            & (arr[i, 4] <= rest[:, 5])
            & (rest[:, 4] <= arr[i, 5])
        )
        if overlap.any():
            return False
    return True
