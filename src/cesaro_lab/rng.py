"""Counter-based randomness keyed by (seed, lattice cell, stream).

Every draw is a pure function of a 64-bit key chain built from the user seed
and the coordinates of the target cell, so enlarging a box never changes
cells that were already generated, and any evaluation order (including a
parallel one) produces identical bits (counter-based streams: Salmon et al.,
SC 2011; the SplitMix64 finalizer: Steele, Lea & Flood, OOPSLA 2014).

The chain has one rule. Stream j of the cell (c_1, ..., c_d) of the
replication whose chain starts at s has the key

    combine(head, mix64(c_d) ^ mix64(j | 2^63)),

where head = cell_keys(s, [c_1, ..., c_{d-1}]) folds the start and every
coordinate but the last into the chain, one axis at a time. A head is shared
by the line of cells along the last axis, so a chunk computes its heads once,
at the size of the grids they have seen, and `substream` folds in the last
coordinate and the stream index together: each uniform costs one full-size
combine, the one SplitMix pass that makes its bits. The stream index is
mixed with its top bit set, a word that no coordinate takes, so stream j of
cell c is never stream c of cell j.
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


class Mixed:
    """The bits of a value for key chains, already passed through mix64:
    combine folds them in as they are."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = bits


def premix(value) -> Mixed:
    """value mixed once, for a value that many chains fold in: a draw mixes
    its coordinate grids once, not once per chunk."""
    return Mixed(mix64(np.asarray(value, dtype=np.uint64)))


def combine(key, value, out=None, scratch=None):
    """Fold one more value (raw, or a Mixed one) into a key chain; `out` and
    `scratch` as in mix64, shaped as key and value broadcast (key may be out
    itself)."""
    mixed = value.bits if isinstance(value, Mixed) else mix64(np.asarray(value, dtype=np.uint64))
    z = np.bitwise_xor(np.asarray(key, dtype=np.uint64), mixed, out=out)
    return mix64(z, out=out, scratch=scratch)


# constants every key chain folds in, mixed once at import: _INIT, which
# starts each chain, and the first stream indices of substream. A stream
# index is mixed with its top bit set, above every coordinate, so its word is
# never a mixed coordinate's: were both mixed alike, mix64(c) ^ mix64(j)
# would make stream j of cell c the key of stream c of cell j
_INIT_MIXED = premix(_INIT)
_STREAM_TAG = _U64(1 << 63)
_STREAMS = mix64(np.arange(32, dtype=np.uint64) | _STREAM_TAG)


def seed_root(seed: int) -> np.uint64:
    """The key that derive_seed folds a stream index into; one per seed."""
    return combine(as_seed(seed), _INIT_MIXED)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream `index` (replications, blocks, ...)."""
    return int(combine(seed_root(seed), as_seed(index)))


def cell_keys(start, inner):
    """The head of the key chain of every line of cells along the last axis.

    `start` is an integer seed or a uint64 array of chain starts (e.g. one
    per replication, shaped to broadcast against the coordinate grids), and
    `inner` the coordinate grids (raw, or Mixed) of every axis but the last,
    folded in one axis at a time, so each fold is as small as the grids it
    has seen. With no inner grid (d = 1) the head is the start's own link.
    `substream` finishes the chain of each cell of the line.
    """
    h = combine(start if isinstance(start, np.ndarray) else as_seed(start), _INIT_MIXED)
    for c in inner:
        h = combine(h, c)
    return h


def substream(head, last, idx: int, out=None, scratch=None):
    """Key of stream `idx` (0 <= idx < 2^63) of every cell: combine(head,
    mix64(last) ^ mix64(idx | 2^63)), for heads from cell_keys and `last`,
    the last coordinate's grid (raw, or Mixed). The xor is as small as that
    grid, so the one full-size step is the combine. With last None, head
    already holds head ^ mix64(last), folded once for many streams, and
    only the stream index is folded in; xor is associative, so the key is
    the same. `out` (may be head itself) and `scratch` as in mix64, shaped
    as head and last broadcast."""
    word = _STREAMS[idx] if 0 <= idx < len(_STREAMS) else mix64(as_seed(idx) | _STREAM_TAG)
    if last is not None:
        bits = last.bits if isinstance(last, Mixed) else mix64(np.asarray(last, dtype=np.uint64))
        word = np.bitwise_xor(bits, word)
    return combine(head, Mixed(word), out=out, scratch=scratch)


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
    """Cell-shaped float64 planes normals needs for `count` normals per cell:
    two for its intermediates, one for the cells' chain words, and one for
    the tangent of a last half pair."""
    return 3 + count % 2


def normals(head, last, count: int, out=None, work=None):
    """`count` standard normals per cell of the chain heads `head` and last
    coordinates `last` (as in substream); shape = the broadcast shape of the
    two + (count,), written into `out` when given (any layout; a new
    C-contiguous array when None). `work`, a float64 array of shape
    (normals_work_planes(count),) + shape, holds every intermediate when
    given, so a chunk loop that owns it allocates nothing per chunk.

    Box-Muller on the uniforms of streams 2j and 2j+1 of each cell (Box &
    Muller 1958), one substream pass each, so a pair costs two full-size
    combines and a draw of D normals 2 ceil(D/2): r = sqrt(-2 log u1) and
    angle 2 pi u2, with cos and sin of the angle in
    half-angle form from one tangent t = tan(pi u2): cos = (1 - t^2)/(1 + t^2)
    and sin = 2t/(1 + t^2). One vectorised tan replaces two trig calls: with
    numpy 2.4 on an AVX-512 x86 CPU, tan of 65,536 values took 0.17 ms and
    cos and sin of the angle 1.6 ms each. Both forms start from the same
    angle (2 pi u2 = 2 (pi u2) exactly) and agree to a few ulp of r. At the pole
    u2 = 1/2, t is about 1.6e16 and the pair is (-r, ~0), finite. As with
    SIMD np.log, the last bits are identical on one machine, not across
    machines whose numpy picks other vector kernels.
    """
    head = np.asarray(head, dtype=np.uint64)
    if not isinstance(last, Mixed):
        last = premix(last)
    shape = np.broadcast_shapes(head.shape, last.bits.shape)
    if out is None:
        out = np.empty(shape + (count,))
    if work is None:
        work = np.empty((normals_work_planes(count),) + shape, dtype=np.float64)
    # Each pair is computed in its own two columns of out (one contiguous
    # plane each when out is plane-major, as draw_buffers makes it), with the
    # tangent of a last half pair in work[3]. log and tan, whose vector
    # kernels numpy may pick by stride, run in the contiguous work planes;
    # out takes only correctly rounded steps, so its layout changes no bit.
    u, v = work[0, ...], work[1, ...]  # views, for 0-d cells too
    bits, mixing = u.view(np.uint64), v.view(np.uint64)
    columns = [out[..., i] for i in range(count)]
    if count % 2:
        columns.append(work[3, ...])
    # head ^ mix64(last) once, in work[2]: each stream then xors its index
    # into contiguous words, a quarter of the cost of broadcasting head
    # against last again
    cells = np.bitwise_xor(head, last.bits, out=work[2, ...].view(np.uint64))
    for j in range(0, count, 2):
        r, t = columns[j], columns[j + 1]
        # r = sqrt(-2 log u1) in r's column, tan(pi u2) in u
        substream(cells, None, j, out=bits, scratch=mixing)
        uniform_open01(bits, out=u, scratch=mixing)
        np.log(u, out=u)
        np.multiply(u, -2.0, out=u)
        np.sqrt(u, out=r)
        substream(cells, None, j + 1, out=bits, scratch=mixing)
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
