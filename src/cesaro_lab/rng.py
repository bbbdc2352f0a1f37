"""Counter-based randomness keyed by (seed, lattice cell).

Every draw is a pure function of a 64-bit key chain built from the user seed
and the coordinates of the target cell, so enlarging a box never changes
cells that were already generated, and any evaluation order (including a
parallel one) produces identical bits.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INIT = np.uint64(0x6A09E667F3BCC909)
_U64 = np.uint64
_MASK = (1 << 64) - 1


def as_seed(seed: int) -> np.uint64:
    return _U64(int(seed) & _MASK)


def mix64(x):
    """SplitMix64 finalizer; avalanches uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> _U64(30))) * _M1
        z = (z ^ (z >> _U64(27))) * _M2
        return z ^ (z >> _U64(31))


def combine(key, value):
    """Fold one more value into a key chain."""
    with np.errstate(over="ignore"):
        return mix64(np.asarray(key, dtype=np.uint64) ^ mix64(np.asarray(value, dtype=np.uint64)))


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream `index` (replications, blocks, ...)."""
    return int(combine(combine(as_seed(seed), _INIT), as_seed(index)))


def cell_keys(start, coord_arrays):
    """One key per lattice cell from its coordinate tuple.

    `start` is an integer seed or a uint64 array of chain starts (e.g. one
    per replication, shaped to broadcast against the coordinate grids).
    """
    if isinstance(start, np.ndarray):
        h = combine(start, _INIT)
    else:
        h = combine(as_seed(start), _INIT)
    for c in coord_arrays:
        h = combine(h, np.asarray(c, dtype=np.uint64))
    return h


def substream(keys, idx: int):
    return combine(keys, as_seed(idx))


def uniform01(bits):
    """[0, 1) from uint64 bits, 53-bit resolution."""
    return (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_open01(bits):
    """(0, 1], never zero: safe under log and negative powers."""
    return ((bits >> _U64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def signs(bits):
    """+-1.0 from the top bit."""
    return 1.0 - 2.0 * (bits >> _U64(63)).astype(np.float64)


def normals(keys, count: int):
    """`count` standard normals per key (Box-Muller); shape keys.shape + (count,)."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = (count + 1) // 2
    out = np.empty(keys.shape + (2 * pairs,), dtype=np.float64)
    trig = np.empty(keys.shape, dtype=np.float64)
    for j in range(pairs):
        # r = sqrt(-2 log u1) and theta = 2 pi u2, each in its own buffer
        r = np.asarray(uniform_open01(substream(keys, 2 * j)))
        np.log(r, out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        theta = np.asarray(uniform01(substream(keys, 2 * j + 1)))
        np.multiply(theta, 2.0 * np.pi, out=theta)
        np.cos(theta, out=trig)
        np.multiply(r, trig, out=out[..., 2 * j])
        np.sin(theta, out=trig)
        np.multiply(r, trig, out=out[..., 2 * j + 1])
    return out[..., :count]
