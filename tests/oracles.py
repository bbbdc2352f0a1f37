"""Reference implementations that the fast paths of src/ are compared to."""

import math

import numpy as np

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
