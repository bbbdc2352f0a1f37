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


def mix64(x, out=None, scratch=None):
    """SplitMix64 finalizer; avalanches uint64 scalars or arrays.

    With `out`, a uint64 array of the result's shape, every step writes there
    (x may be out itself) and `scratch`, one more such array, takes the
    shifted words; a loop that hashes chunk after chunk into the same two
    buffers then allocates nothing. Each one left None is a new array per
    step, as in the plain expression; the bits are the same either way.
    """
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(x, dtype=np.uint64), _GOLDEN, out=out)
        for shift, factor in ((30, _M1), (27, _M2), (31, None)):
            z = np.bitwise_xor(z, np.right_shift(z, _U64(shift), out=scratch), out=out)
            if factor is not None:
                z = np.multiply(z, factor, out=out)
        return z


def combine(key, value, out=None, scratch=None):
    """Fold one more value into a key chain; `out` and `scratch` as in mix64,
    shaped as key and value broadcast (key may be out itself)."""
    mixed = mix64(np.asarray(value, dtype=np.uint64))
    z = np.bitwise_xor(np.asarray(key, dtype=np.uint64), mixed, out=out)
    return mix64(z, out=out, scratch=scratch)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream `index` (replications, blocks, ...)."""
    return int(combine(combine(as_seed(seed), _INIT), as_seed(index)))


def cell_keys(start, coord_arrays, out=None, scratch=None):
    """One key per lattice cell from its coordinate tuple.

    `start` is an integer seed or a uint64 array of chain starts (e.g. one
    per replication, shaped to broadcast against the coordinate grids). The
    chain folds in one coordinate axis at a time, so every fold but the last
    is as small as the grids it has seen; only the last, the size of the
    cells, goes into `out` (with `scratch`, as in mix64) when given.
    """
    if isinstance(start, np.ndarray):
        h = combine(start, _INIT)
    else:
        h = combine(as_seed(start), _INIT)
    *inner, last = coord_arrays
    for c in inner:
        h = combine(h, c)
    return combine(h, last, out=out, scratch=scratch)


def substream(keys, idx: int, out=None, scratch=None):
    """Key of stream `idx` of every key; `out` (may be keys itself) and
    `scratch` as in mix64."""
    return combine(keys, as_seed(idx), out=out, scratch=scratch)


def uniform01(bits, out=None, scratch=None):
    """[0, 1) from uint64 bits, 53-bit resolution; `out` and `scratch` as in
    uniform_open01."""
    return np.multiply(np.right_shift(bits, _U64(11), out=scratch), 2.0 ** -53, out=out)


def uniform_open01(bits, out=None, scratch=None):
    """(0, 1], never zero: safe under log and negative powers.

    The shifted words go to `scratch` (uint64, bits' shape) and the uniforms
    to `out` (float64), each new when None; the conversion to float is fused
    into the ufunc that follows it. Either one, not both, may share bits'
    memory: out may be bits' float view, or scratch bits itself.
    """
    u = np.add(np.right_shift(bits, _U64(11), out=scratch), 1.0, out=out)
    return np.multiply(u, 2.0 ** -53, out=out)


def signs(bits):
    """+-1.0 from the top bit."""
    return 1.0 - 2.0 * (bits >> _U64(63)).astype(np.float64)


def normals_work_planes(count: int) -> int:
    """Key-shaped float64 planes normals needs for `count` normals per key:
    two for its intermediates, and one for the tangent of a last half pair."""
    return 2 + count % 2


def normals(keys, count: int, out=None, work=None):
    """`count` standard normals per key; shape keys.shape + (count,), written
    into `out` when given (any layout; a new C-contiguous array when None).
    `work`, a float64 array of shape (normals_work_planes(count),) +
    keys.shape, holds every intermediate when given, so a chunk loop that
    owns it allocates nothing per chunk.

    Box-Muller on the uniforms of substreams 2j and 2j+1 (Box & Muller 1958):
    r = sqrt(-2 log u1) and angle 2 pi u2, with cos and sin of the angle in
    half-angle form from one tangent t = tan(pi u2): cos = (1 - t^2)/(1 + t^2)
    and sin = 2t/(1 + t^2). One vectorised tan replaces two trig calls: with
    numpy 2.4 on an AVX-512 x86 CPU, tan of 65,536 values took 0.17 ms and
    cos and sin of the angle 1.6 ms each. Both forms start from the same
    angle (2 pi u2 = 2 (pi u2) exactly) and agree to a few ulp of r. At the pole
    u2 = 1/2, t is about 1.6e16 and the pair is (-r, ~0), finite. As with
    SIMD np.log, the last bits are identical on one machine, not across
    machines whose numpy picks other vector kernels.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if out is None:
        out = np.empty(keys.shape + (count,))
    if work is None:
        work = np.empty((normals_work_planes(count),) + keys.shape, dtype=np.float64)
    # Each pair is computed in its own two columns of out (one contiguous
    # plane each when out is plane-major, as draw_buffers makes it), with the
    # tangent of a last half pair in work[2]. log and tan, whose vector
    # kernels numpy may pick by stride, run in the contiguous work planes;
    # out takes only correctly rounded steps, so its layout changes no bit.
    u, v = work[0, ...], work[1, ...]  # views, for 0-d keys too
    bits, mixing = u.view(np.uint64), v.view(np.uint64)
    columns = [out[..., i] for i in range(count)]
    if count % 2:
        columns.append(work[2, ...])
    for j in range(0, count, 2):
        r, t = columns[j], columns[j + 1]
        # r = sqrt(-2 log u1) in r's column, tan(pi u2) in u
        substream(keys, j, out=bits, scratch=mixing)
        uniform_open01(bits, out=u, scratch=mixing)
        np.log(u, out=u)
        np.multiply(u, -2.0, out=u)
        np.sqrt(u, out=r)
        substream(keys, j + 1, out=bits, scratch=mixing)
        uniform01(bits, out=u, scratch=mixing)
        np.multiply(u, np.pi, out=u)
        np.tan(u, out=u)
        # r / (1 + t^2), with 1 + t^2 in t's column, times 2t and then 1 - t^2
        np.multiply(u, u, out=v)
        np.add(v, 1.0, out=t)
        np.divide(r, t, out=r)
        np.subtract(1.0, v, out=v)
        np.add(u, u, out=u)
        np.multiply(r, u, out=t)
        np.multiply(r, v, out=r)
    return out
