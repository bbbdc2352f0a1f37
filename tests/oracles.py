"""Reference implementations that the fast paths of src/ are compared to."""

import numpy as np


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
