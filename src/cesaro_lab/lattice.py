"""Multi-index boxes, d-dimensional prefix sums, and maximal partial normed sums.

Cells of a box [1, n] are enumerated in row-major order (last coordinate
fastest); every floating reduction in this module follows that fixed order,
so identical input bits always produce identical output bits.

A tail query reads one dyadic tail profile: schedule_profiles bins every
cell of a sample by its dyadic shell (dyadic_shells, which also fixes the
dyadic boxes and their order), and for a grid of truncation levels by the
levels it exceeds, sums the weights per shell in chunks of whole
replications, and turns shell sums into sums over every dyadic box with one
cumsum per axis. At each level, a row whose weights are all nonzero and whose cells the
level all keeps (a dense row) sums each line segment, a run of cells along
the last axis in one shell, by np.add.reduceat and bincounts the segment
sums; any other row bincounts its kept cells in cell order. Where the rows
of a chunk part, the rows that are not dense are binned from there on as a
chunk of their own, so a row's bits never depend on the rows chunked with
it. It answers several (weight, levels) queries from one pass, each level
strict (Tail.level turns a >= level into one), and takes its rows as (first
row, chunk) pairs: slices of a held field (row_chunks: the one row of
schedule_averages, or a NormSample that holds its draw) or chunks drawn one
at a time into a reused buffer (a NormSample's chunks()), so a sample that
is not held is binned chunk by chunk while it is in cache. So every
truncation level and every box comes from one pass over the sample, and a
norm functional is applied chunk by chunk, never to the whole sample.
prefix_table serves the convergence series, plane_sum adds up the squared
columns of its plane-major table in np.sum's order, and box_maxima reads M_n
of each schedule box from those squared norms. A series chunk of one column
with no negative value skips both: correctly rounded addition is monotone,
so every sweep of values >= 0 leaves each line nondecreasing, and M_n is
the norm at the box's corner. corner_sums gives such a chunk's prefix sums
only at the coordinates its corners use, axis by axis.

prefix_table sweeps one axis at a time, each by the faster of two bit-equal
methods for the array's shape: np.add.accumulate, which runs one inner loop
per position behind the axis, or one slab update a[i] = a[i - 1] + a[i] per
position along it, chosen when the run of cells behind the axis is at least
SLAB_RUN times the axis length (the first box axes of a d = 3 chunk with D
columns). corner_sums reaches a used coordinate c of an outer axis by one
np.add.reduce over the slabs from the used coordinate before it to c: a
reduction along an axis with a run of cells behind it adds its slabs one
after another, vectorised across the run, so it makes the accumulate's
additions in the accumulate's order. It starts from -0.0, the exact
additive identity (numpy's own start, +0.0, turns a sum of -0.0 into +0.0).
With no run behind the axis numpy sums it pairwise instead, so such an
axis, and one with many used coordinates, is swept whole and then gathered.

box_maxima reads one chunk of rows and reduces each box over its own cells,
or, for boxes that overlap more than DENSE_OVERLAP times over, reads each
box's corner of one running max along every axis;
rep_sum takes its rows as (first row, chunk) pairs and adds them up cell by
cell in row order (the per-cell mean over replications of the adversarial
event array).

A chunk loop owns its buffers: prefix_table sweeps the array it is given in
place (the chunk's own batch, in a convergence series), so a series
allocates its chunk-sized arrays once per draw, not once per chunk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Values per chunk of replications, in draw_chunks (every draw of a sample:
# the values of a vector chunk, or one norm per cell) and cells per chunk in
# row_chunks: each holds one chunk's temporaries at a time, so they do not
# grow with reps.
CHUNK_CELLS = 1 << 16
# A sweep updates slabs when the cells behind its axis number at least this
# many times the axis length, and calls np.add.accumulate otherwise.
SLAB_RUN = 8
# box_maxima takes one running max along each hull axis, in place of one
# np.max per box, when the boxes' sizes add up to more than this many hulls.
# Timed on chunks of CHUNK_CELLS cells (numpy 2.4, one x86 core with
# AVX-512), the running max won on every d = 1..3 schedule at 32 hulls and
# more; where it starts to win lay between 2.5 and 22 hulls, by shape.
# Dyadic schedules overlap at most 2^d times and keep np.max.
DENSE_OVERLAP = 32
# corner_sums reduces an axis coordinate by coordinate when the run of cells
# behind it is at least CHAIN_RUN and the L used coordinates are sparse:
# L * (slab + CHAIN_CALL_CELLS) <= the array's cells, a slab being one
# coordinate's cells. Timed against a whole sweep and np.take on 32 chunk
# shapes of up to CHUNK_CELLS cells (numpy 2.4, one x86 core with AVX-512),
# the reductions won in all 138 cases this rule picks: on a 256x256 chunk,
# 8 coordinates took 39 us against 236 us, and they broke even between 64
# and 96. Runs of 2 to 16 lost from 1 to 8 coordinates on chunks of many
# reps, whose reductions run many short inner loops.
CHAIN_RUN = 32
CHAIN_CALL_CELLS = 3072
# _bin_chunk sums a dense row's line segments by np.add.reduceat, in place of
# one bincount term per cell, when a row has at least this many cells per
# segment. Timed on every cell of a chunk of CHUNK_CELLS cells (numpy 2.4, one
# x86 core with AVX-512), reduceat and a bincount of its sums against one
# bincount of the cells: the segments won from 9 cells a segment up (box 64:
# 95 against 181 us; 256x256, 28 cells: 35 against 194 us) and lost below
# about 5 (16x16x16, 3.2 cells: 190 against 125 us; box 8, 2 cells: 460
# against 94 us), where reduceat's cost per segment outweighs bincount's per
# cell.
SEGMENT_CELLS = 8


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
    """Cumulative sums along each listed axis in turn (one sweep per axis), in
    place in the float64 array `field`, which it returns."""
    for ax in axes:
        _sweep(field, ax)
    return field


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


def corner_sums(field: np.ndarray, used: Sequence[Sequence[int]]) -> np.ndarray:
    """The prefix sums of the float64 array `field` along axes 1, ..., d, read
    at the 0-based coordinates used[ax - 1] (increasing) along each axis ax:
    bit for bit, sign bits included, prefix_table(field, range(1, 1 + d))
    taken at used[0] along axis 1, used[1] along axis 2, and so on. Axes
    after d carry along. Overwrites field.

    An axis with a run of at least CHAIN_RUN cells behind it and sparse used
    coordinates is reduced at those coordinates only (_chain_sums); any
    other axis is swept whole and gathered with np.take.
    """
    S = field
    for ax, u in enumerate(used, start=1):
        slab = S.size // S.shape[ax]
        if math.prod(S.shape[ax + 1:]) >= CHAIN_RUN and len(u) * (slab + CHAIN_CALL_CELLS) <= S.size:
            S = _chain_sums(S, ax, u)
        else:
            S = np.take(prefix_table(S, (ax,)), u, axis=ax)
    return S


def _chain_sums(a: np.ndarray, ax: int, used: Sequence[int]) -> np.ndarray:
    """np.add.accumulate(a, axis=ax) taken at the coordinates used, bit for
    bit: each used coordinate c is one reduction from -0.0 over the slabs
    from the used coordinate before it, which holds its prefix sum by then
    (written back into a), through c. A run of more than one cell behind ax
    keeps each reduction's slabs in order."""
    lead = (slice(None),) * ax
    out = np.empty(a.shape[:ax] + (len(used),) + a.shape[ax + 1:])
    prev = 0
    for i, c in enumerate(used):
        if i:
            a[lead + (prev,)] = out[lead + (i - 1,)]
        np.add.reduce(a[lead + (slice(prev, c + 1),)], axis=ax, initial=-0.0, out=out[lead + (i,)])
        prev = c
    return out


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


def box_maxima(q: np.ndarray, boxes: Sequence[MultiIndex]) -> np.ndarray:
    """The max over the cells [1, n] of every box n, in order, per row of q:
    shape (len(boxes), k) for q of shape (k,) + a box that holds every n (in a
    convergence series, the squared norms of one chunk's prefix table). q is
    not written to.

    Each box takes one np.max over its own cells, so a row costs the sum of
    the boxes' sizes: at most 2, 4/3 or 8/7 times the largest box on a dyadic
    chain in d = 1, 2, 3. When the sizes sum to more than DENSE_OVERLAP times
    the hull of the boxes (n / 2 hulls on the dense chain 1, ..., n), a
    running max along each hull axis, d passes over the hull, leaves at each
    cell the max of the box it is the corner of, and each box reads its
    corner. Max is exact and order-free, so either way each answer is
    bit-equal to q[r, :n_1, ..., :n_d].max(), NaN spreading as in np.max
    (np.maximum spreads it too).
    """
    if not boxes:
        raise ValueError("box_maxima needs at least one box")
    d = boxes[0].d
    if any(n.d != d for n in boxes):
        raise ValueError("all boxes must share one dimension d")
    hull = tuple(max(c) for c in zip(*(n.coords for n in boxes)))
    if q.ndim != 1 + d or any(c > s for c, s in zip(hull, q.shape[1:])):
        raise ValueError(f"chunk shape {q.shape} does not hold the box {MultiIndex(hull)}")
    axes = tuple(range(1, 1 + d))
    if sum(n.size for n in boxes) > DENSE_OVERLAP * math.prod(hull):
        run = np.maximum.accumulate(q[(slice(None),) + tuple(slice(0, c) for c in hull)], axis=1)
        for ax in axes[1:]:
            np.maximum.accumulate(run, axis=ax, out=run)
        # the rep axis last, so that the corners pick out rows of the answer
        corners = tuple(np.array([n.coords[ax] - 1 for n in boxes]) for ax in range(d))
        return np.moveaxis(run, 0, -1)[corners]
    out = np.empty((len(boxes), len(q)))
    for n, acc in zip(boxes, out):
        np.max(q[(slice(None),) + tuple(slice(0, c) for c in n.coords)], axis=axes, out=acc)
    return out


def rep_sum(chunks: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """The per-cell sum of every row, from rows that arrive in order as (first
    row, chunk) pairs, added in row order ((0 + r_0) + r_1) + ..., as one
    running sum along each chunk's row axis whose first row takes the sum so
    far. Divided by the rows, it is the adversarial event array's per-cell
    mean over reps. Overwrites its chunks."""
    total = None
    for _, chunk in chunks:
        if total is None:
            total = np.zeros(chunk.shape[1:])
        chunk[0] += total
        np.add.accumulate(chunk, axis=0, out=chunk)
        total[...] = chunk[-1]
    return total


def dyadic_shells(box: MultiIndex) -> tuple[list, list, list, Callable[[], np.ndarray]]:
    """The dyadic shells of the box [1, n], the one place that fixes their
    ratio, 2, as (levels, corners, order, cell_shells): per axis, the powers
    of two up to the side, plus the side; every corner, one level per axis,
    in itertools.product order (the row-major order of the shells); the
    dyadic boxes, which are the corners, by size then coordinates, as
    indices into corners; and a function that gives the shell of every cell,
    in cell order: on each axis, the smallest level at or above the cell. A
    cell lies in a dyadic box exactly when its shell's corner does."""
    levels = [[2**j for j in range(side.bit_length())] for side in box.coords]
    levels = [lv if lv[-1] == side else lv + [side] for lv, side in zip(levels, box.coords)]
    corners = list(itertools.product(*levels))
    order = sorted(range(len(corners)), key=lambda j: (math.prod(corners[j]), corners[j]))

    def cell_shells() -> np.ndarray:
        axes = (np.searchsorted(lv, np.arange(1, lv[-1] + 1)) for lv in levels)
        return np.ravel_multi_index(np.ix_(*axes), [len(lv) for lv in levels]).ravel()

    return levels, corners, order, cell_shells


def schedule_averages(field: np.ndarray, box: MultiIndex) -> np.ndarray:
    """Cesaro averages of a field of shape box.coords over every box of
    dyadic_boxes(box), in that order: shape (len(dyadic_boxes(box)),). This
    is the one-row, one-query case of schedule_profiles."""
    if field.shape != box.coords:
        raise ValueError(f"field shape {field.shape} is not the box {box.coords}")
    (sums,) = schedule_profiles(row_chunks(field[None], box), 1, box, [(None, None)])
    return sums[0, 0]


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
    queries: Sequence[tuple[Callable[[np.ndarray], np.ndarray] | None, Sequence[float] | None]],
) -> list[np.ndarray]:
    """Cesaro averages over every box of dyadic_boxes(box), in that order, for
    every (weight, levels) query from one pass over `rows` rows of cells
    that arrive as (first row, chunk) pairs, each chunk of shape (k,) +
    box.coords; together the chunks cover every row once. Query q's answer
    has shape (len(levels) or 1, rows, boxes).

    A query averages weight(cells), or the cells when weight is None; weight
    is applied elementwise to whole chunks, so a box-shaped factor
    broadcasts against it. With `levels` (increasing), the average at level k
    keeps only the cells > levels[k] (a >= level is Tail.level): NaN cells
    then drop out at every level and inf cells add inf, as with Tail.

    A chunk is binned into every query before the next is read, so a chunk
    may live in a buffer that the next one overwrites, and no more than one
    chunk of cells need exist at a time.

    Each cell belongs to one dyadic shell (dyadic_shells). A query's weights
    are summed per (row, shell) and level, chunk by chunk, and one cumsum
    per shell axis turns shell sums into box sums. At a level that keeps every
    cell of a row whose weights are all nonzero, the row sums each line
    segment (the cells of one shell in one line along the last axis) with
    np.add.reduceat and bincounts the segment sums in row order, when its
    segments hold SEGMENT_CELLS cells or more on average; otherwise a row
    bincounts the cells the level keeps, in cell order (_bin_chunk). Where
    the rows of a chunk part, the rows that are not dense are binned from
    there on as a chunk of their own. The segment starts are fixed by the
    box and the rows per chunk, and are set up with the bins. Which way a
    row goes and the order of its additions depend on its own cells, the
    box and the level only, and a row's cells all sit in one chunk, so
    every answer is bit-equal to that of a one-level, one-query call at that
    level, however the rows are chunked and whatever else is asked.
    """
    levels, corners, order, cell_shells = dyadic_shells(box)
    shells = tuple(len(v) for v in levels)
    S = len(corners)
    cell_shell = cell_shells()
    grids = []
    for _, grid in queries:
        grid = [None] if grid is None else list(grid)
        # a != a holds for NaN only, which no ordering test rejects
        if any(a != a for a in grid) or any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ValueError("levels must be strictly increasing and not NaN")
        grids.append(grid)
    answers = [np.zeros((len(grid), rows, S), dtype=np.float64) for grid in grids]
    # the first cell of each line segment of a row: per line along the last
    # axis, its first cell and the first cell of each later shell
    side = box.coords[-1]
    line_starts = np.array([0] + levels[-1][:-1])
    row_starts = (np.arange(box.size // side, dtype=np.int64)[:, None] * side + line_starts).ravel()
    if box.size < SEGMENT_CELLS * len(row_starts):
        row_starts = None
    index = np.empty(0, dtype=np.int64)
    segments = None
    for first, chunk in chunks:
        if chunk.size > index.size:
            index = (np.arange(len(chunk), dtype=np.int64)[:, None] * S + cell_shell).ravel()
            if row_starts is not None:
                first_cells = np.arange(len(chunk), dtype=np.int64)[:, None] * box.size
                starts = (first_cells + row_starts).ravel()
                segments = (starts, index[starts], len(row_starts))
        for (weight, _), grid, sums in zip(queries, grids, answers):
            _bin_chunk(sums[:, first : first + len(chunk)], chunk, index, segments, weight, grid)
    sizes = np.array([math.prod(c) for c in corners], dtype=np.float64).reshape(shells)
    for sums in answers:
        table = sums.reshape((len(sums), rows) + shells)
        for ax in range(2, 2 + box.d):
            np.cumsum(table, axis=ax, out=table)
        table /= sizes
        for level in sums:
            level[...] = level[:, order]  # one level's copy at a time
    return answers


def _bin_chunk(
    out: np.ndarray,
    chunk: np.ndarray,
    index: np.ndarray,
    segments: tuple[np.ndarray, np.ndarray, int] | None,
    weight: Callable[[np.ndarray], np.ndarray] | None,
    grid: Sequence[float | None],
) -> None:
    """Shell sums of one chunk of whole rows into out, shape (levels, rows,
    shells). index holds the (row, shell) bin of each cell of the rows, and
    segments the first cell and the bin of each line segment of the rows and
    the number of segments in a row, or None when a row has fewer than
    SEGMENT_CELLS cells per segment.

    A level keeps the cells the level before it kept that exceed it, strictly.
    A row is dense at a level when its weights are all nonzero and the level
    keeps every one of its cells. While every row is dense, no cell has been
    dropped, and the chunk sums each line segment by np.add.reduceat (the
    segment's first cell plus numpy's pairwise sum of the others) and
    bincounts the segment sums in row order. Once no row is dense, the chunk
    bincounts the cells it keeps, in cell order. Where the rows part, at the
    nonzero check or at a level, the rows that are not dense are binned from
    that level on as a chunk of their own, by cells (a part that cannot part
    again, so the call goes one deep), and the loop goes on with the dense
    rows. A row's path depends on its own cells only, so its bits do not
    depend on the other rows of its chunk, and a weight that is 0 where a
    level drops a cell (a Tail applied up front) takes the row down the path
    that the level does."""
    rows, S = out.shape[1:]
    cells = chunk.size // rows
    idx = index[: chunk.size]
    w = np.ravel(np.asarray(chunk if weight is None else weight(chunk), dtype=np.float64))
    # the values the levels compare; with no level none are, and the weights
    # stand in for them where the rows part
    t = np.ravel(chunk) if grid[0] is not None else w
    # the rows of out that the rows of w and t are, and whether all are dense
    at, dense = slice(None), segments is not None
    for k, a in enumerate(grid):
        n = w.size
        if a is not None:
            keep = t > a
            n = int(np.count_nonzero(keep))
        if dense and n < cells:
            dense = False
        elif dense and (k == 0 or n < w.size):
            # the rows that stay dense: at the first level, those whose
            # weights are all nonzero (NaN is nonzero, 0.0 and -0.0 are not;
            # np.count_nonzero(w) would take four times as long as this
            # compare), and those whose every cell the level keeps
            whole = (w.reshape(rows, cells) != 0).all(axis=1) if k == 0 else True
            if n < w.size:
                whole &= keep.reshape(rows, cells).all(axis=1)
            dense = bool(whole.any())
            if dense and not whole.all():
                part, pos = ~whole, np.arange(out.shape[1])[at]
                rest = np.zeros((len(grid) - k, int(np.count_nonzero(part)), S))
                w_part = _rows(w, part)  # the part's weights, as computed
                _bin_chunk(rest, _rows(t, part), index, None, lambda _: w_part, grid[k:])
                out[k:, pos[part]] = rest
                w, t, at = _rows(w, whole), _rows(t, whole), pos[whole]
                rows = len(at)
                n, idx = w.size, index[: w.size]
        if n < w.size:
            keep = np.flatnonzero(keep)
            t, idx, w = t[keep], idx[keep], w[keep]
            if n == 0:
                return
        if dense:  # every cell of the rows: the segments as precomputed
            starts, seg_bins, per_row = segments
            m = rows * per_row
            sums = np.bincount(seg_bins[:m], np.add.reduceat(w, starts[:m]), rows * S)
        else:
            sums = np.bincount(idx, w, rows * S)
        out[k, at] = sums.reshape(rows, S)


def _rows(a: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The cells of the rows `which` (a mask) of the flat, uncompressed a."""
    return a.reshape(len(which), -1)[which].ravel()


def dyadic_boxes(horizon: MultiIndex) -> list[MultiIndex]:
    """Default tail-sup schedule: the corners of the horizon's dyadic shells,
    every box whose coordinates are powers of two up to the horizon or its
    sides, by size then coordinates."""
    _, corners, order, _ = dyadic_shells(horizon)
    return [MultiIndex(corners[j]) for j in order]


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
