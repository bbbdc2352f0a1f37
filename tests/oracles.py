"""Reference implementations that the fast paths of src/ are compared to."""

import itertools
import math

import numpy as np

from cesaro_lab import lattice
from cesaro_lab.errors import PhiDomainError

BRUTE_FORCE_CELL_CAP = 100_000


def prefix_sums_bruteforce(values: np.ndarray) -> np.ndarray:
    """Direct summation over {i : i <= k} for each k independently, for an
    array of D-vectors of shape box + (D,): the prefix table prefix_table must
    match. Capped at BRUTE_FORCE_CELL_CAP cells, as its cost is quadratic."""
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

    Takes norms over the last axis, then a running max along each box axis,
    so the value at the corner of [1, n] is M_n; NaN spreads as in np.max.
    This is how the convergence series read M_n before they took the max of
    each schedule box's own cells, and box_maxima must equal it bit for bit.
    """
    norms = np.sqrt(np.sum(np.square(S), axis=-1))
    for ax in range(norms.ndim - d, norms.ndim):
        np.maximum.accumulate(norms, axis=ax, out=norms)
    return norms


def phi_eval(phi, t: float) -> float:
    """phi(t) for t in [0, n_max], one scalar at a time: on [n-1, n) this is
    sum_{i<n} u_i + (t - n + 1) u_n, continuous across pieces, and phi(n_max)
    is read off the prefix sums. This is how gauges were evaluated one value
    at a time before phi_eval_many served scalars too."""
    t = float(t)
    if not (0.0 <= t <= phi.n_max):
        raise PhiDomainError(f"t={t} outside domain [0, {phi.n_max}]")
    if t == phi.n_max:
        return float(phi.prefix[-1])
    k = int(math.floor(t))
    return float(phi.prefix[k] + (t - k) * phi.u[k])


def rep_sum_by_rows(chunks) -> np.ndarray:
    """The per-cell sum of the rows of (first row, chunk) pairs, one Python
    add per row into a zero array, ((0 + r_0) + r_1) + ...: how the
    adversarial event array summed its per-cell mean before lattice.rep_sum,
    which must equal it bit for bit. Leaves its chunks alone."""
    total = None
    for _, chunk in chunks:
        if total is None:
            total = np.zeros(chunk.shape[1:])
        for row in chunk:
            total += row
    return total


def profile_by_segments(field, box, weight=None, levels=None, ge=False, segments=True):
    """The dyadic tail profile of schedule_profiles, shape (len(levels) or 1,
    rows, boxes), for a field of shape (rows,) + box.coords, its bins summed
    one Python add at a time.

    A row is dense at a level when its weights are all nonzero (0.0 and -0.0
    are zero, NaN is not) and the level keeps every one of its cells. A dense
    row sums each line segment, a run of cells along the last axis that share
    a shell, by np.add.reduce of the segment's other cells started from its
    first cell, and adds those sums from 0.0 into their shells in row order.
    Any other row adds the cells it keeps, from 0.0, in cell order, as does
    every row when segments is False or a row has fewer than
    lattice.SEGMENT_CELLS cells per segment. One cumsum per shell axis and
    the division by each box's size then give the averages, in the order of
    dyadic_boxes."""
    box = tuple(box.coords)
    per_axis = []
    for side in box:
        levels_k = [2**j for j in range(side.bit_length())]
        per_axis.append(levels_k + ([side] if levels_k[-1] != side else []))
    shells = tuple(len(lv) for lv in per_axis)
    shell_of = np.zeros((1,) * len(box), dtype=np.int64)
    for k, (side, lv) in enumerate(zip(box, per_axis)):
        axis = np.searchsorted(lv, np.arange(1, side + 1))
        shell_of = shell_of * shells[k] + axis.reshape((-1,) + (1,) * (len(box) - 1 - k))
    cell_shells = np.broadcast_to(shell_of, box).ravel().tolist()
    cells = math.prod(box)
    cuts = [0] + per_axis[-1][:-1] + [box[-1]]
    segments = segments and cells >= lattice.SEGMENT_CELLS * (cells // box[-1]) * (len(cuts) - 1)
    t = np.asarray(field, dtype=np.float64).reshape(-1, cells)
    w = t if weight is None else np.asarray(weight(t), dtype=np.float64)
    grid = [None] if levels is None else list(levels)
    sums = np.zeros((len(grid), len(t), math.prod(shells)))
    for k, a in enumerate(grid):
        for r in range(len(t)):
            kept = np.ones(cells, dtype=bool) if a is None else (t[r] >= a if ge else t[r] > a)
            acc = [0.0] * sums.shape[2]
            if segments and kept.all() and np.all(w[r] != 0):
                for line in range(0, cells, box[-1]):
                    for lo, hi in zip(cuts[:-1], cuts[1:]):
                        seg = w[r, line + lo : line + hi]
                        shell = cell_shells[line + lo]
                        acc[shell] = acc[shell] + float(np.add.reduce(seg[1:], initial=seg[0]))
            else:
                for shell, x, keep in zip(cell_shells, w[r].tolist(), kept.tolist()):
                    if keep:
                        acc[shell] = acc[shell] + x
            sums[k, r] = acc
    table = sums.reshape(sums.shape[:2] + shells)
    for ax in range(2, table.ndim):
        np.cumsum(table, axis=ax, out=table)
    corners = list(itertools.product(*per_axis))
    table /= np.array([math.prod(c) for c in corners], dtype=np.float64).reshape(shells)
    order = sorted(range(len(corners)), key=lambda j: (math.prod(corners[j]), corners[j]))
    return sums[..., order]


def adversarial_by_coords(fld, horizon, delta) -> np.ndarray:
    """The adversarial event array's probabilities for the mean field fld over
    the box horizon: the cells with the largest means first (ties in cell
    order), each made certain when every dyadic box that holds it keeps its
    event average strictly below delta. A box holds a cell when every
    coordinate of the cell lies below the box's: how the greedy found its
    boxes, one compare per cell and box, before it read them off the cell's
    dyadic shell."""
    sched = lattice.dyadic_boxes(horizon)
    flat = fld.ravel(order="C")
    order = np.argsort(-flat, kind="stable")
    coords = np.unravel_index(np.arange(flat.size), horizon.coords)
    membership = np.stack(
        [np.all([coords[k] < n.coords[k] for k in range(horizon.d)], axis=0) for n in sched]
    )  # (len(sched), cells)
    sizes = np.array([n.size for n in sched], dtype=np.float64)
    counts = np.zeros(len(sched), dtype=np.int64)
    chosen = np.zeros(flat.size, dtype=bool)
    for cell in order:
        inside = membership[:, cell]
        if np.all((counts[inside] + 1) / sizes[inside] < delta):
            chosen[cell] = True
            counts = counts + inside
    return chosen.astype(np.float64).reshape(horizon.coords)
