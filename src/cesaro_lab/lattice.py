"""Multi-index boxes, d-dimensional prefix sums, and maximal partial normed sums.

Cells of a box [1, n] are enumerated in row-major order (last coordinate
fastest); every floating reduction in this module follows that fixed order,
so identical input bits always produce identical output bits.

A tail query reads one dyadic tail profile: schedule_profiles bins every
cell of a sample by its dyadic shell (and, for a grid of truncation levels,
by the levels it exceeds), sums the weights per shell with np.bincount in
chunks of whole replications, and turns shell sums into sums over every
dyadic box with one cumsum per axis. It answers several (weight, levels,
ge) queries from one pass, and takes its rows as (first row, chunk) pairs:
slices of a held field (row_chunks: schedule_averages for one query, or a
NormSample that holds its draw) or chunks drawn one at a time into a reused
buffer (a NormSample's chunks()), so a sample that is not held is binned
chunk by chunk while it is in cache. So every truncation level and every
box comes from one pass over the sample, and a norm functional is applied
chunk by chunk, never to the whole sample.
prefix_table serves the convergence series, plane_sum adds up the squared
columns of its plane-major table in np.sum's order, and box_maxima reads M_n
of each schedule box from those squared norms.

prefix_table sweeps one axis at a time, each by the faster of two bit-equal
methods for the array's shape: np.add.accumulate, which runs one inner loop
per position behind the axis, or one slab update a[i] = a[i - 1] + a[i] per
position along it, chosen when the run of cells behind the axis is at least
SLAB_RUN times the axis length (the first box axes of a d = 3 chunk with D
columns).

box_maxima takes its rows as (first row, chunk) pairs too, and reduces each
box over its own cells; rep_sum adds them up cell by cell in row order (a
plug-in mean over replications).

A chunk loop owns its buffers: prefix_table sweeps the array given as `out`
(the chunk's own batch, in a convergence series), so a series allocates its
chunk-sized arrays once per draw, not once per chunk. Without `out`,
prefix_table does not touch its input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

BRUTE_FORCE_CELL_CAP = 100_000
# Values per chunk of replications, in draw_chunks (every draw of a sample:
# the values of a vector chunk, or one norm per cell) and cells per chunk in
# row_chunks: each holds one chunk's temporaries at a time, so they do not
# grow with reps.
CHUNK_CELLS = 1 << 16
# A sweep updates slabs when the cells behind its axis number at least this
# many times the axis length, and calls np.add.accumulate otherwise.
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
        _sweep(out, ax)
    return out


def _sweep(a: np.ndarray, ax: int) -> None:
    """np.add.accumulate(a, axis=ax, out=a), by slab updates along the axis
    when the run of cells behind it is long. Either way cell i gets cell
    i - 1 + cell i in order of i, so the two methods are bit-equal."""
    if math.prod(a.shape[ax + 1:]) < SLAB_RUN * a.shape[ax]:
        np.add.accumulate(a, axis=ax, out=a)
        return
    slabs = np.moveaxis(a, ax, 0)
    for i in range(1, slabs.shape[0]):
        np.add(slabs[i - 1], slabs[i], out=slabs[i])


def plane_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum over x's last axis into out (x.shape[:-1]; it may be x[..., 0]),
    one whole plane x[..., j] per step, overwriting x.

    The steps are those np.sum(np.ascontiguousarray(x), axis=-1) takes in each
    cell (numpy's pairwise sum, Higham 1993), so the two are bit-equal: fewer
    than 8 columns add up in order; up to 128 add up in 8 lanes, which meet as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) before the remainder is added in
    order; more are cut in halves at a multiple of 8. The reduction starts
    from 0.0, which turns a sum of -0.0 into 0.0. On a plane-major x, whose
    columns are contiguous, np.sum would add in another order.
    """
    p = np.moveaxis(x, -1, 0)
    _pairwise_planes(p, out)
    if len(p) >= 8:
        np.add(out, 0.0, out=out)
    return out


def _pairwise_planes(p: np.ndarray, out: np.ndarray) -> None:
    """numpy's pairwise sum of the planes p[0], p[1], ... into out. Fewer than
    8 planes start from 0.0, as numpy's loop does; for more, the caller adds
    the reduction's 0.0."""
    n = len(p)
    if n < 8:
        np.add(p[0], 0.0, out=out)
        for q in p[1:]:
            np.add(out, q, out=out)
    elif n <= 128:
        rest = n - n % 8
        for i in range(8, rest, 8):
            np.add(p[:8], p[i : i + 8], out=p[:8])
        np.add(p[0:8:2], p[1:8:2], out=p[0:8:2])
        np.add(p[0:8:4], p[2:8:4], out=p[0:8:4])
        np.add(p[0], p[4], out=out)
        for q in p[rest:]:
            np.add(out, q, out=out)
    else:
        half = n // 2 - n // 2 % 8
        _pairwise_planes(p[:half], out)
        _pairwise_planes(p[half:], p[half])
        np.add(out, p[half], out=out)


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


def box_maxima(
    chunks: Iterable[tuple[int, np.ndarray]], rows: int, boxes: Sequence[MultiIndex]
) -> np.ndarray:
    """The max over the cells [1, n] of every box n, in order, per row: shape
    (len(boxes), rows), from `rows` rows of cells that arrive as (first row,
    chunk) pairs, as in schedule_profiles, each chunk of shape (k,) + a box
    that holds every n (in a convergence series, the squared norms of a
    chunk's prefix table). Each chunk is read before the next is asked for,
    and none is written to.

    Each box takes one np.max over its own cells, so a row costs the sum of
    the boxes' sizes: at most 2, 4/3 or 8/7 times the largest box on a dyadic
    chain in d = 1, 2, 3, but about n^2 / 2 cells on the dense chain 1, ..., n.
    Max is exact and order-free, so each answer is bit-equal to
    chunk[r, :n_1, ..., :n_d].max(), NaN spreading as in np.max.
    """
    if not boxes:
        raise ValueError("box_maxima needs at least one box")
    d = boxes[0].d
    if any(n.d != d for n in boxes):
        raise ValueError("all boxes must share one dimension d")
    hull = tuple(max(c) for c in zip(*(n.coords for n in boxes)))
    regions = [(slice(None),) + tuple(slice(0, c) for c in n.coords) for n in boxes]
    axes = tuple(range(1, 1 + d))
    out = np.empty((len(boxes), rows))
    for first, q in chunks:
        if q.ndim != 1 + d or any(c > s for c, s in zip(hull, q.shape[1:])):
            raise ValueError(f"chunk shape {q.shape} does not hold the box {MultiIndex(hull)}")
        for region, acc in zip(regions, out[:, first : first + len(q)]):
            np.max(q[region], axis=axes, out=acc)
    return out


def rep_sum(chunks: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """The per-cell sum of every row, from rows that arrive in order as (first
    row, chunk) pairs, added in row order ((0 + r_0) + r_1) + ..., as one
    running sum along each chunk's row axis whose first row takes the sum so
    far. Overwrites its chunks."""
    total = None
    for _, chunk in chunks:
        if total is None:
            total = np.zeros(chunk.shape[1:])
        chunk[0] += total
        np.add.accumulate(chunk, axis=0, out=chunk)
        total[...] = chunk[-1]
    return total


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

    This is the one-query case of schedule_profiles, over row_chunks of the
    field.
    """
    d = box.d
    lead = field.shape[: field.ndim - d]
    if field.shape[field.ndim - d :] != box.coords:
        raise ValueError(f"field shape {field.shape} does not end in box {box.coords}")
    rows = math.prod(lead)
    flat = field.reshape((rows,) + box.coords)
    (sums,) = schedule_profiles(row_chunks(flat, box), rows, box, [(weight, levels, ge)])
    out = sums.reshape((len(sums),) + lead + (sums.shape[-1],))
    return out[0] if levels is None else out


def row_chunks(field: np.ndarray, box: MultiIndex) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, field[first:last]) over a field of shape (rows,) +
    box.coords, in chunks of whole rows of about CHUNK_CELLS cells."""
    per = max(1, CHUNK_CELLS // box.size)
    for first in range(0, len(field), per):
        yield first, field[first : first + per]


def schedule_profiles(
    chunks: Iterable[tuple[int, np.ndarray]],
    rows: int,
    box: MultiIndex,
    queries: Sequence[
        tuple[Callable[[np.ndarray], np.ndarray] | None, Sequence[float] | None, bool]
    ],
) -> list[np.ndarray]:
    """Answer every (weight, levels, ge) query of schedule_averages from one
    pass over `rows` rows of cells that arrive as (first row, chunk) pairs,
    each chunk of shape (k,) + box.coords; together the chunks cover every
    row once. Query q's answer has shape (len(levels) or 1, rows, boxes).

    A chunk is binned into every query before the next is read, so a chunk
    may live in a buffer that the next one overwrites, and no more than one
    chunk of cells need exist at a time.

    Each cell belongs to one dyadic shell, the index on each axis of the
    smallest dyadic level at or above its coordinate. A query's weights go
    into one np.bincount over (row, shell) per level, chunk by chunk, and one
    cumsum per shell axis turns shell sums into box sums. A level's bincount
    sees only the cells it keeps, in cell order, and a row's cells all sit in
    one chunk, so every answer is bit-equal to that of a one-level, one-query
    call at that level, however the rows are chunked and whatever else is
    asked.
    """
    d = box.d
    per_axis = _dyadic_levels(box)
    shells = tuple(len(v) for v in per_axis)
    S = math.prod(shells)
    cell_shell = np.zeros((1,) * d, dtype=np.int64)
    for k, (side, lv) in enumerate(zip(box.coords, per_axis)):
        axis = np.searchsorted(lv, np.arange(1, side + 1)).reshape(
            (1,) * k + (side,) + (1,) * (d - 1 - k)
        )
        cell_shell = cell_shell * shells[k] + axis
    grids = []
    for _, levels, _ in queries:
        grid = [None] if levels is None else list(levels)
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ValueError("levels must be strictly increasing")
        grids.append(grid)
    answers = [np.zeros((len(grid), rows, S), dtype=np.float64) for grid in grids]
    index = np.empty(0, dtype=np.int64)
    for first, chunk in chunks:
        if chunk.size > index.size:
            index = (np.arange(len(chunk), dtype=np.int64)[:, None] * S + cell_shell.ravel()).ravel()
        for (weight, _, ge), grid, sums in zip(queries, grids, answers):
            _bin_chunk(sums[:, first : first + len(chunk)], chunk, index, weight, grid, ge)
    corners = list(itertools.product(*per_axis))
    sizes = np.array([math.prod(c) for c in corners], dtype=np.float64).reshape(shells)
    order = sorted(range(S), key=lambda j: (math.prod(corners[j]), corners[j]))
    for sums in answers:
        table = sums.reshape((len(sums), rows) + shells)
        for ax in range(2, 2 + d):
            np.cumsum(table, axis=ax, out=table)
        table /= sizes
        for level in sums:
            level[...] = level[:, order]  # one level's copy at a time
    return answers


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
