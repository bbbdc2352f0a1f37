import numpy as np
import pytest

from cesaro_lab import rng


def test_mix64_is_deterministic_and_nontrivial():
    a = rng.mix64(np.uint64(12345))
    b = rng.mix64(np.uint64(12345))
    c = rng.mix64(np.uint64(12346))
    assert a == b
    assert a != c


def test_derive_seed_children_differ():
    seeds = {rng.derive_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert rng.derive_seed(42, 0) != rng.derive_seed(43, 0)


def line(n: int) -> np.ndarray:
    """The coordinates 1..n of a line of cells."""
    return np.arange(1, n + 1, dtype=np.uint64)


def line_keys(seed: int, n: int, idx: int = 0) -> np.ndarray:
    """Stream idx of the cells 1..n of a d = 1 box: one head for the line."""
    return rng.substream(rng.cell_keys(seed, []), line(n), idx)


def test_cell_keys_depend_on_every_coordinate():
    # the head folds every coordinate but the last, substream the last
    g1, g2 = np.meshgrid(line(3), line(3), indexing="ij")
    keys = rng.substream(rng.cell_keys(7, [g1]), g2, 0)
    assert keys.shape == (3, 3)
    assert len(np.unique(keys)) == 9
    assert np.array_equal(keys, rng.substream(rng.cell_keys(7, [line(3)[:, None]]), line(3)[None, :], 0))


def test_cell_keys_stable_under_box_growth():
    # the key of a fixed cell must not change when the box is enlarged
    assert np.array_equal(line_keys(7, 2), line_keys(7, 8)[:2])
    small = rng.substream(rng.cell_keys(7, [line(2)[:, None]]), line(3)[None, :], 4)
    large = rng.substream(rng.cell_keys(7, [line(5)[:, None]]), line(9)[None, :], 4)
    assert np.array_equal(small, large[:2, :3])


def test_uniform01_range_and_determinism():
    keys = line_keys(0, 10_000)
    u = rng.uniform01(keys)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert np.array_equal(u, rng.uniform01(line_keys(0, 10_000)))


def test_uniform_open01_never_zero():
    u = rng.uniform_open01(line_keys(3, 10_000))
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_signs_are_plus_minus_one():
    s = rng.signs(line_keys(1, 10_000))
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.05


def test_normals_moments_and_shape():
    head = rng.cell_keys(5, [])
    z = rng.normals(head, line(20_000), 3)
    assert z.shape == (20_000, 3)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05
    # odd count exercises the trailing Box-Muller half pair
    z1 = rng.normals(head, line(100), 1)
    assert z1.shape == (100, 1)


def test_substreams_are_decorrelated():
    a = rng.uniform01(line_keys(9, 50_000, 0))
    b = rng.uniform01(line_keys(9, 50_000, 1))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_stream_keys_of_4096_cells_by_32_streams_are_distinct():
    # cells 1..64 and streams 0..31 overlap, so a stream index mixed as a
    # coordinate is would alias stream j of cell c with stream c of cell j
    head = rng.cell_keys(11, [line(64)[:, None]])
    keys = np.stack([rng.substream(head, line(64)[None, :], j) for j in range(32)])
    assert keys.shape == (32, 64, 64)
    assert len(np.unique(keys)) == keys.size


@pytest.mark.parametrize("c, j, j2", [(1, 0, 0), (1, 0, 1), (1, 1, 0), (7, 2, 5), (4095, 31, 30), (3, 0, 40)])
def test_neighbouring_cells_streams_are_uncorrelated(c, j, j2):
    # stream j of cell c and stream j2 of cell c + 1 of one line hash
    # head ^ mix(c) ^ mix(j) and head ^ mix(c+1) ^ mix(j2): inputs a fixed xor
    # apart on every line. Over 20,000 lines (one head each), their uniforms
    # must be uncorrelated within 4 standard errors
    n = 20_000
    heads = rng.cell_keys(rng.mix64(np.arange(n, dtype=np.uint64)).reshape(-1, 1), [])
    a = rng.uniform01(rng.substream(heads, np.uint64(c), j))[:, 0]
    b = rng.uniform01(rng.substream(heads, np.uint64(c + 1), j2))[:, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)
    # and the signs (top bits) agree about half the time
    agree = np.mean(rng.signs(rng.substream(heads, np.uint64(c), j)) == rng.signs(rng.substream(heads, np.uint64(c + 1), j2)))
    assert abs(agree - 0.5) < 4.0 * 0.5 / np.sqrt(n)


def normals_by_expression(head, last, count):
    """Box-Muller in tangent form as plain expressions, one temporary per
    step: the oracle for the buffered version in rng.normals."""
    shape = np.broadcast_shapes(np.shape(head), np.shape(last))
    pairs = (count + 1) // 2
    out = np.empty(shape + (2 * pairs,), dtype=np.float64)
    for j in range(pairs):
        u1 = rng.uniform_open01(rng.substream(head, last, 2 * j))
        u2 = rng.uniform01(rng.substream(head, last, 2 * j + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        t = np.tan(np.pi * u2)
        q = r / (1.0 + t * t)
        out[..., 2 * j] = q * (1.0 - t * t)
        out[..., 2 * j + 1] = q * (2.0 * t)
    return out[..., :count]


def normals_by_cos_sin(head, last, count):
    """Textbook Box-Muller, r cos(2 pi u2) and r sin(2 pi u2), with the
    radius r of each normal: the reference the tangent form must stay near."""
    shape = np.broadcast_shapes(np.shape(head), np.shape(last))
    pairs = (count + 1) // 2
    out = np.empty(shape + (2 * pairs,), dtype=np.float64)
    radius = np.empty_like(out)
    for j in range(pairs):
        u1 = rng.uniform_open01(rng.substream(head, last, 2 * j))
        u2 = rng.uniform01(rng.substream(head, last, 2 * j + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out[..., 2 * j] = r * np.cos(theta)
        out[..., 2 * j + 1] = r * np.sin(theta)
        radius[..., 2 * j] = radius[..., 2 * j + 1] = r
    return out[..., :count], radius[..., :count]


def heads_and_last(shape, offset):
    """Chain heads of shape[:-1] + (1,) and a last-coordinate grid of
    shape[-1] cells (a scalar pair for shape ()), as a draw passes them."""
    if not shape:
        return rng.mix64(np.uint64(offset)), np.uint64(1)
    heads = rng.mix64(np.arange(int(np.prod(shape[:-1])), dtype=np.uint64) + offset)
    return heads.reshape(shape[:-1] + (1,)), line(shape[-1])


def test_normals_equal_the_expression_bit_for_bit():
    for shape in [(), (7,), (3, 5), (2, 4, 3)]:
        head, last = heads_and_last(shape, 11)
        for count in (1, 2, 5, 8):
            got = rng.normals(head, last, count)
            assert got.shape == shape + (count,)
            assert np.array_equal(got, normals_by_expression(head, last, count))
            assert np.array_equal(rng.normals(head, rng.premix(last), count), got)


def test_normals_within_a_few_ulp_of_r_of_cos_sin():
    # both forms start from the angle 2 (pi u2); over 8M normals on an AVX-512
    # machine the largest gap was 3 * np.spacing(r) (8.9e-16)
    head = rng.mix64(np.arange(200_000, dtype=np.uint64) + 5)
    got = rng.normals(head, 1, 5)
    ref, r = normals_by_cos_sin(head, 1, 5)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(r))


def test_normals_do_not_depend_on_where_a_call_cuts_the_keys():
    # SIMD kernels run remainder lanes apart from full vectors; a cell's
    # normals must not depend on its position in the call
    heads = rng.mix64(np.arange(5000, dtype=np.uint64) + 17)
    whole = rng.normals(heads, 1, 5)
    cuts = [0, 1, 3, 7, 4099, 5000]
    pieces = [rng.normals(heads[a:b], 1, 5) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)
    for i in range(0, 5000, 97):
        assert np.array_equal(rng.normals(heads[i], 1, 5), whole[i])
    for step in (3, 7):
        assert np.array_equal(rng.normals(heads[1::step], 1, 5), whole[1::step])
    grid = heads.reshape(50, 100)
    assert np.array_equal(rng.normals(grid[:, ::3], 1, 5), whole.reshape(50, 100, 5)[:, ::3])
    # along the last axis, too: a line's cells cut anywhere
    head = rng.cell_keys(3, [])
    along = rng.normals(head, line(5000), 5)
    pieces = [rng.normals(head, line(5000)[a:b], 5) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), along)


def unmix64(z: int) -> int:
    """Inverse of rng.mix64 on Python ints: undo each xorshift and multiply."""
    mask = (1 << 64) - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z = unshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def test_normals_are_finite_at_the_tangent_pole():
    # a head whose angle stream (1) at last coordinate 0 has bits >> 11 ==
    # 2**52, so u2 = 1/2 and t = tan(pi / 2) is about 1.6e16
    last = np.uint64(0)
    stream = int(rng.mix64(np.uint64(1 | 1 << 63)))
    head = np.uint64(unmix64(1 << 63) ^ int(rng.mix64(last)) ^ stream)
    assert int(rng.substream(head, last, 1)) >> 11 == 2**52
    assert rng.uniform01(rng.substream(head, last, 1)) == 0.5
    got = rng.normals(head, last, 2)
    assert np.isfinite(got).all()
    assert np.array_equal(got, normals_by_expression(head, last, 2))
    ref, r = normals_by_cos_sin(head, last, 2)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(r))
    assert got[0] == pytest.approx(-r[0], rel=1e-15) and abs(got[1]) < 1e-15 * r[0]


U64 = np.uint64


def mix64_by_expression(x):
    """SplitMix64's finalizer as plain expressions, one new array per step."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=U64) + U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> U64(30))) * U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> U64(27))) * U64(0x94D049BB133111EB)
        return z ^ (z >> U64(31))


def combine_by_expression(key, value):
    return mix64_by_expression(np.asarray(key, dtype=U64) ^ mix64_by_expression(value))


UNIFORMS_BY_EXPRESSION = {
    rng.uniform01: lambda bits: (bits >> U64(11)).astype(np.float64) * (2.0 ** -53),
    rng.uniform_open01: lambda bits: ((bits >> U64(11)).astype(np.float64) + 1.0) * (2.0 ** -53),
}


def into_buffers(fn, *args, shape):
    """fn(*args, out=, scratch=) into uint64 buffers pre-filled with junk;
    the result must be the out buffer itself."""
    out = np.full(shape, 0xDEAD_BEEF, dtype=np.uint64)
    got = fn(*args, out=out, scratch=np.full(shape, 0xFFFF, dtype=np.uint64))
    assert got is out
    return out


KEYS = {
    "scalar": np.uint64(0x0123_4567_89AB_CDEF),
    "1-d": rng.mix64(np.arange(4099, dtype=np.uint64)),
    "2-d": rng.mix64(np.arange(12, dtype=np.uint64) + 3).reshape(3, 4),
}


def substream_by_expression(head, last, idx):
    """Stream idx of a cell: the head, the mixed last coordinate and the
    stream index mixed with its top bit set, xored, then mixed once."""
    folded = mix64_by_expression(last) ^ mix64_by_expression(U64(idx) | U64(1 << 63))
    return mix64_by_expression(np.asarray(head, dtype=U64) ^ folded)


@pytest.mark.parametrize("name", KEYS)
def test_hashing_out_paths_equal_the_allocating_expressions(name):
    keys = KEYS[name]
    shape = np.shape(keys)
    mixed = mix64_by_expression(keys)
    assert np.array_equal(rng.mix64(keys), mixed)
    assert np.array_equal(into_buffers(rng.mix64, keys, shape=shape), mixed)
    assert np.array_equal(into_buffers(rng.combine, keys, 5, shape=shape), combine_by_expression(keys, U64(5)))
    # streams below 32 read premixed constants, the others are mixed per call
    for idx in (5, 31, 32, 1000):
        sub = substream_by_expression(keys, U64(3), idx)
        assert np.array_equal(rng.substream(keys, U64(3), idx), sub)
        assert np.array_equal(rng.substream(keys, rng.premix(U64(3)), idx), sub)
        assert np.array_equal(into_buffers(rng.substream, keys, U64(3), idx, shape=shape), sub)
        # in place: the keys themselves are the output, scratch left to the function
        own = np.array(keys, dtype=np.uint64)
        assert rng.substream(own, U64(3), idx, out=own) is own
        assert np.array_equal(own, sub)
        # words that already hold head ^ mix64(last) take the stream index alone
        folded = np.asarray(keys, dtype=U64) ^ mix64_by_expression(U64(3))
        assert np.array_equal(rng.substream(folded, None, idx), sub)
        assert np.array_equal(into_buffers(rng.substream, folded, None, idx, shape=shape), sub)
    own = np.array(keys, dtype=np.uint64)
    assert np.array_equal(rng.mix64(own, out=own), rng.mix64(keys))


def test_hashing_out_paths_broadcast_keys_against_values():
    key = rng.mix64(np.arange(3, dtype=np.uint64)).reshape(3, 1)
    value = np.arange(4, dtype=np.uint64).reshape(1, 4)
    want = combine_by_expression(key, value)
    assert np.array_equal(rng.combine(key, value), want)
    assert np.array_equal(into_buffers(rng.combine, key, value, shape=(3, 4)), want)
    # chain starts per rep against sparse coordinate grids, as a batch draws
    # them: the head over the start and the inner grid, then one substream
    starts = rng.mix64(np.arange(2, dtype=np.uint64)).reshape(2, 1, 1)
    inner, last = np.arange(1, 4, dtype=np.uint64).reshape(1, 3, 1), np.arange(1, 6, dtype=np.uint64).reshape(1, 1, 5)
    head = rng.cell_keys(starts, [inner])
    assert head.shape == (2, 3, 1)
    assert np.array_equal(head, combine_by_expression(combine_by_expression(starts, rng._INIT), inner))
    want = substream_by_expression(head, last, 2)
    assert want.shape == (2, 3, 5)
    assert np.array_equal(into_buffers(rng.substream, head, last, 2, shape=(2, 3, 5)), want)
    head = rng.cell_keys(7, [])
    assert np.array_equal(into_buffers(rng.substream, head, line(99), 0, shape=(99,)), substream_by_expression(head, line(99), 0))
    point = np.uint64(12)
    assert np.array_equal(into_buffers(rng.substream, head, point, 0, shape=()), substream_by_expression(head, point, 0))


@pytest.mark.parametrize("uniform", [rng.uniform01, rng.uniform_open01])
@pytest.mark.parametrize("name", KEYS)
def test_uniform_out_paths_equal_the_allocating_expressions(uniform, name):
    bits = np.array(KEYS[name], dtype=np.uint64)
    if bits.ndim:
        bits.reshape(-1)[:2] = [0, 2**64 - 1]  # the ends of both ranges
    want = UNIFORMS_BY_EXPRESSION[uniform](bits)
    assert np.array_equal(uniform(bits), want)
    out = np.full(bits.shape, np.nan)
    assert uniform(bits, out=out, scratch=np.empty_like(bits)) is out
    assert np.array_equal(out, want)
    # the shifted words may overwrite the bits ...
    consumed = bits.copy()
    assert np.array_equal(uniform(consumed, out=np.full(bits.shape, np.nan), scratch=consumed), want)
    # ... or the uniforms may replace them in their own memory
    shared = bits.copy()
    uniform(shared, out=shared.view(np.float64), scratch=np.empty_like(bits))
    assert np.array_equal(shared.view(np.float64), want)


def test_normals_into_out_and_work_equal_the_allocating_call():
    for shape in [(), (7,), (3, 5)]:
        head, last = heads_and_last(shape, 23)
        for count in (1, 2, 5, 8):
            out = np.full(shape + (count,), np.nan)
            work = np.full((rng.normals_work_planes(count),) + shape, np.nan)
            assert rng.normals(head, last, count, out=out, work=work) is out
            assert np.array_equal(out, rng.normals(head, last, count))
