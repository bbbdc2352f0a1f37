"""Multi-index boxes, d-dimensional prefix sums, and maximal partial normed sums.

Cells of a box [1, n] are enumerated in row-major order (last coordinate
fastest); every floating reduction in this module follows that fixed order,
so identical input bits always produce identical output bits.

A tail query reads one dyadic tail profile: schedule_averages bins every
cell of a sample by its dyadic shell (and, for a grid of truncation levels,
by the levels it exceeds), sums the weights per shell with np.bincount in
chunks of whole replications of about CHUNK_CELLS cells, and turns shell
sums into sums over every dyadic box with one cumsum per axis. So every
truncation level and every box comes from one pass over the sample, and a
norm functional is applied chunk by chunk, never to the whole sample.
prefix_table serves the convergence series, which need M_k at every k.

Its sums and the running maxima of running_max_norms sweep one axis at a
time, each by the faster of two bit-equal methods for the array's shape:
ufunc.accumulate, which runs one inner loop per position behind the axis,
or one slab update a[i] = ufunc(a[i - 1], a[i]) per position along it,
chosen when the run of cells behind the axis is at least SLAB_RUN times
the axis length (the first box axes of a d = 3 chunk with D columns).

A chunk loop owns its buffers: prefix_table sweeps the array given as `out`
(the chunk's own batch, in a convergence series) and running_max_norms
squares its table in place and sums the norms into the given `out`, so a
series allocates its chunk-sized arrays once per draw, not once per chunk.
Without `out`, neither function touches its input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

BRUTE_FORCE_CELL_CAP = 100_000
# Cells per chunk of replications, in norm_batch, in convergence series and in
# schedule_averages: each holds one chunk's temporaries at a time, so they do
# not grow with reps.
CHUNK_CELLS = 1 << 16
# A sweep updates slabs when the cells behind its axis number at least this
# many times the axis length, and calls ufunc.accumulate otherwise.
SLAB_RUN = 8


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


def prefix_table(field: np.ndarray, axes: Sequence[int], out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums along each listed axis in turn (one sweep per axis),
    into `out` (float64, field's shape; it may be field itself) when given,
    else into a new array."""
    if out is None:
        out = np.array(field, dtype=np.float64, copy=True)
    elif out is not field:
        np.copyto(out, field)
    for ax in axes:
        _sweep(np.add, out, ax)
    return out


def _sweep(ufunc: np.ufunc, a: np.ndarray, ax: int) -> None:
    """ufunc.accumulate(a, axis=ax, out=a), by slab updates along the axis when
    the run of cells behind it is long. Either way cell i gets ufunc(cell
    i - 1, cell i) in order of i, so the two methods are bit-equal."""
    if math.prod(a.shape[ax + 1:]) < SLAB_RUN * a.shape[ax]:
        ufunc.accumulate(a, axis=ax, out=a)
        return
    slabs = np.moveaxis(a, ax, 0)
    for i in range(1, slabs.shape[0]):
        ufunc(slabs[i - 1], slabs[i], out=slabs[i])


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


def running_max_norms(S: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """max_{j <= k} ||S_j|| at every k: shape lead + box for a prefix table S
    of shape lead + box + (D,), with d box axes after any leading axes (reps).

    Takes norms over the last axis, then a running max along each box axis in
    place, so the value at the corner of [1, n] is M_n. NaN spreads as in np.max.
    With `out` (float64, shape lead + box) the norms go there and S is
    overwritten by its squares; without it S is left as it is.
    """
    squares = np.square(S) if out is None else np.square(S, out=S)
    norms = np.sqrt(np.sum(squares, axis=-1, out=out), out=out)
    for ax in range(norms.ndim - d, norms.ndim):
        _sweep(np.maximum, norms, ax)
    return norms


def _dyadic_levels(horizon: MultiIndex) -> list[list[int]]:
    """Per axis, the powers of two up to the horizon's side, plus the side."""
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
    return per_axis


def schedule_averages(
    field: np.ndarray,
    box: MultiIndex,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
    levels: Sequence[float] | None = None,
    ge: bool = False,
) -> np.ndarray:
    """Cesaro averages of weight(field) over every box of dyadic_boxes(box),
    in that order: shape field.shape[:-d] + (len(dyadic_boxes(box)),).

    `field` has the box axes last; any leading axes (replications) are carried
    through. weight is applied elementwise to chunks of whole leading rows,
    shaped (rows,) + box.coords, so a box-shaped factor broadcasts against it.

    With `levels` (increasing), the cells also get a level axis: the average
    at level k keeps only the cells with field > levels[k] (>= when ge), and
    the result has shape (len(levels),) + field.shape[:-d] + (boxes,). NaN
    cells then drop out at every level and inf cells add inf, as with Tail.

    One pass: each cell belongs to one dyadic shell, the index on each axis of
    the smallest dyadic level at or above its coordinate. The weights go into
    one np.bincount over (row, shell) per level, run on chunks of whole rows
    of about CHUNK_CELLS cells, and one cumsum per shell axis turns shell sums
    into box sums. A level's bincount sees only the cells it keeps, in cell
    order, so its sums are bit-equal to those of a one-level call at that
    level, whatever the other levels are.
    """
    d = box.d
    lead = field.shape[: field.ndim - d]
    if field.shape[field.ndim - d :] != box.coords:
        raise ValueError(f"field shape {field.shape} does not end in box {box.coords}")
    per_axis = _dyadic_levels(box)
    shells = tuple(len(v) for v in per_axis)
    S = math.prod(shells)
    cell_shell = np.zeros((1,) * d, dtype=np.int64)
    for k, (side, lv) in enumerate(zip(box.coords, per_axis)):
        axis = np.searchsorted(lv, np.arange(1, side + 1)).reshape(
            (1,) * k + (side,) + (1,) * (d - 1 - k)
        )
        cell_shell = cell_shell * shells[k] + axis
    rows = math.prod(lead)
    flat = field.reshape((rows,) + box.coords)
    grid = [None] if levels is None else list(levels)
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("levels must be strictly increasing")
    sums = np.zeros((len(grid), rows, S), dtype=np.float64)
    per = max(1, CHUNK_CELLS // box.size)
    index = (np.arange(min(per, rows), dtype=np.int64)[:, None] * S + cell_shell.ravel()).ravel()
    for first in range(0, rows, per):
        last = min(rows, first + per)
        _bin_chunk(sums[:, first:last], flat[first:last], index, weight, grid, ge)
    table = sums.reshape((len(grid), rows) + shells)
    for ax in range(2, 2 + d):
        np.cumsum(table, axis=ax, out=table)
    corners = list(itertools.product(*per_axis))
    table /= np.array([math.prod(c) for c in corners], dtype=np.float64).reshape(shells)
    order = sorted(range(S), key=lambda j: (math.prod(corners[j]), corners[j]))
    for level in sums:
        level[...] = level[:, order]  # one level's copy at a time
    out = sums.reshape((len(grid),) + lead + (S,))
    return out[0] if levels is None else out


def _bin_chunk(
    out: np.ndarray,
    chunk: np.ndarray,
    index: np.ndarray,
    weight: Callable[[np.ndarray], np.ndarray] | None,
    grid: Sequence[float | None],
    ge: bool,
) -> None:
    """Shell sums of one chunk of whole rows into out, shape (levels, rows,
    shells); index holds the (row, shell) bin of each cell of the rows. A
    level keeps the cells the level before it kept that exceed it, so each
    level's bincount runs over only its own cells, in cell order."""
    bins = out.shape[1] * out.shape[2]
    idx = index[: chunk.size]
    w = np.ravel(np.asarray(chunk if weight is None else weight(chunk), dtype=np.float64))
    t = np.ravel(chunk) if grid[0] is not None else None
    for k, a in enumerate(grid):
        if a is not None:
            keep = t >= a if ge else t > a
            if np.count_nonzero(keep) < t.size:
                keep = np.flatnonzero(keep)
                t, idx, w = t[keep], idx[keep], w[keep]
            if t.size == 0:
                return
        out[k] = np.bincount(idx, w, bins).reshape(out.shape[1:])


def dyadic_boxes(horizon: MultiIndex) -> list[MultiIndex]:
    """Default tail-sup schedule: every box whose coordinates are powers of two
    up to the horizon, plus the horizon box itself, by size then coordinates."""
    boxes = [MultiIndex(t) for t in itertools.product(*_dyadic_levels(horizon))]
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
