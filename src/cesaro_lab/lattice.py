"""Multi-index boxes, d-dimensional prefix sums, and maximal partial normed sums.

Cells of a box [1, n] are enumerated in row-major order (last coordinate
fastest); every floating reduction in this module follows that fixed order,
so identical input bits always produce identical output bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

BRUTE_FORCE_CELL_CAP = 100_000


@dataclass(frozen=True)
class MultiIndex:
    """A point of the positive integer lattice, n = (n_1, ..., n_d)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        try:
            raw = tuple(self.coords)
        except TypeError:
            raise ValueError("coords must be an iterable of integers") from None
        if any(int(c) != c for c in raw):
            raise ValueError(f"coordinates must be integers, got {raw}")
        coords = tuple(int(c) for c in raw)
        if len(coords) == 0:
            raise ValueError("a multi-index needs at least one coordinate")
        if any(c < 1 for c in coords):
            raise ValueError(f"coordinates must be >= 1, got {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        """|n|: the cell count of the box [1, n]."""
        return math.prod(self.coords)

    def __str__(self) -> str:
        return "x".join(str(c) for c in self.coords)


def leq(m: MultiIndex, n: MultiIndex) -> bool:
    """Coordinatewise partial order m <= n."""
    if m.d != n.d:
        raise ValueError(f"dimension mismatch: {m.d} != {n.d}")
    return all(a <= b for a, b in zip(m.coords, n.coords))


def prefix_table(field: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Cumulative sums along each listed axis in turn (one sweep per axis)."""
    out = np.array(field, dtype=np.float64, copy=True)
    for ax in axes:
        np.cumsum(out, axis=ax, out=out)
    return out


def prefix_sums_bruteforce(values: np.ndarray) -> np.ndarray:
    """Reference oracle: direct summation over {i : i <= k} for each k
    independently, for an array of D-vectors of shape box + (D,)."""
    box = values.shape[:-1]
    cells = math.prod(box)
    if cells > BRUTE_FORCE_CELL_CAP:
        raise ValueError(f"brute-force oracle capped at {BRUTE_FORCE_CELL_CAP} cells, got {cells}")
    out = np.empty_like(values, dtype=np.float64)
    for idx in np.ndindex(*box):
        block = values[tuple(slice(0, c + 1) for c in idx)]
        out[idx] = block.sum(axis=tuple(range(len(box))))
    return out


def running_max_norms(S: np.ndarray, d: int) -> np.ndarray:
    """max_{j <= k} ||S_j|| at every k: shape lead + box for a prefix table S
    of shape lead + box + (D,), with d box axes after any leading axes (reps).

    Takes norms over the last axis, then a running max along each box axis in
    place, so the value at the corner of [1, n] is M_n. NaN spreads as in np.max.
    """
    norms = np.sqrt((S * S).sum(axis=-1))
    for ax in range(norms.ndim - d, norms.ndim):
        np.maximum.accumulate(norms, axis=ax, out=norms)
    return norms


def schedule_averages(field: np.ndarray, schedule: Sequence[MultiIndex]) -> np.ndarray:
    """Cesaro averages of a per-cell scalar field over each schedule box.

    `field` has the box axes last (any leading axes, e.g. replications, are
    carried through); returns shape field.shape[:-d] + (len(schedule),).
    """
    d = schedule[0].d
    table = prefix_table(field, range(field.ndim - d, field.ndim))
    lead = field.shape[: field.ndim - d]
    out = np.empty(lead + (len(schedule),), dtype=np.float64)
    for j, n in enumerate(schedule):
        corner = tuple(c - 1 for c in n.coords)
        out[..., j] = table[(Ellipsis,) + corner] / n.size
    return out


def dyadic_boxes(horizon: MultiIndex) -> list[MultiIndex]:
    """Default tail-sup schedule: every box whose coordinates are powers of two
    up to the horizon, plus the horizon box itself."""
    per_axis = []
    for h in horizon.coords:
        levels = []
        v = 1
        while v <= h:
            levels.append(v)
            v *= 2
        if levels[-1] != h:
            levels.append(h)
        per_axis.append(levels)
    boxes = [MultiIndex(t) for t in itertools.product(*per_axis)]
    boxes.sort(key=lambda b: (b.size, b.coords))
    return boxes


def dyadic_square_schedule(d: int, max_total: int = 4096) -> list[MultiIndex]:
    """Experiment schedule: cubes (s, ..., s) with dyadic side s >= 2, |n| <= max_total."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = []
    s = 2
    while s**d <= max_total:
        out.append(MultiIndex((s,) * d))
        s *= 2
    if not out:
        raise ValueError("empty schedule: max_total too small for this d")
    return out
