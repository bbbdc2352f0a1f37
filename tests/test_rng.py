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


def test_cell_keys_depend_on_every_coordinate():
    g1, g2 = np.meshgrid(
        np.arange(1, 4, dtype=np.uint64), np.arange(1, 4, dtype=np.uint64),
        indexing="ij",
    )
    keys = rng.cell_keys(7, [g1, g2])
    assert keys.shape == (3, 3)
    assert len(np.unique(keys)) == 9


def test_cell_keys_stable_under_box_growth():
    # the key of a fixed cell must not change when the box is enlarged
    small = rng.cell_keys(7, [np.arange(1, 3, dtype=np.uint64)])
    large = rng.cell_keys(7, [np.arange(1, 9, dtype=np.uint64)])
    assert np.array_equal(small, large[:2])


def test_uniform01_range_and_determinism():
    keys = rng.cell_keys(0, [np.arange(1, 10_001, dtype=np.uint64)])
    u = rng.uniform01(rng.mix64(keys))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert np.array_equal(u, rng.uniform01(rng.mix64(keys)))


def test_uniform_open01_never_zero():
    keys = rng.cell_keys(3, [np.arange(1, 10_001, dtype=np.uint64)])
    u = rng.uniform_open01(rng.mix64(keys))
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_signs_are_plus_minus_one():
    keys = rng.cell_keys(1, [np.arange(1, 10_001, dtype=np.uint64)])
    s = rng.signs(rng.mix64(keys))
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.05


def test_normals_moments_and_shape():
    keys = rng.cell_keys(5, [np.arange(1, 20_001, dtype=np.uint64)])
    z = rng.normals(keys, 3)
    assert z.shape == (20_000, 3)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05
    # odd count exercises the trailing Box-Muller half pair
    z1 = rng.normals(keys[:100], 1)
    assert z1.shape == (100, 1)


def test_substreams_are_decorrelated():
    keys = rng.cell_keys(9, [np.arange(1, 50_001, dtype=np.uint64)])
    a = rng.uniform01(rng.mix64(rng.substream(keys, 0)))
    b = rng.uniform01(rng.mix64(rng.substream(keys, 1)))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def normals_by_expression(keys, count):
    """Box-Muller in tangent form as plain expressions, one temporary per
    step: the oracle for the buffered version in rng.normals."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = (count + 1) // 2
    out = np.empty(keys.shape + (2 * pairs,), dtype=np.float64)
    for j in range(pairs):
        u1 = rng.uniform_open01(rng.substream(keys, 2 * j))
        u2 = rng.uniform01(rng.substream(keys, 2 * j + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        t = np.tan(np.pi * u2)
        q = r / (1.0 + t * t)
        out[..., 2 * j] = q * (1.0 - t * t)
        out[..., 2 * j + 1] = q * (2.0 * t)
    return out[..., :count]


def normals_by_cos_sin(keys, count):
    """Textbook Box-Muller, r cos(2 pi u2) and r sin(2 pi u2), with the
    radius r of each normal: the reference the tangent form must stay near."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = (count + 1) // 2
    out = np.empty(keys.shape + (2 * pairs,), dtype=np.float64)
    radius = np.empty_like(out)
    for j in range(pairs):
        u1 = rng.uniform_open01(rng.substream(keys, 2 * j))
        u2 = rng.uniform01(rng.substream(keys, 2 * j + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out[..., 2 * j] = r * np.cos(theta)
        out[..., 2 * j + 1] = r * np.sin(theta)
        radius[..., 2 * j] = radius[..., 2 * j + 1] = r
    return out[..., :count], radius[..., :count]


def test_normals_equal_the_expression_bit_for_bit():
    for shape in [(), (7,), (3, 5), (2, 4, 3)]:
        keys = rng.mix64(np.arange(int(np.prod(shape)), dtype=np.uint64) + 11).reshape(shape)
        for count in (1, 2, 5, 8):
            got = rng.normals(keys, count)
            assert got.shape == shape + (count,)
            assert np.array_equal(got, normals_by_expression(keys, count))


def test_normals_within_a_few_ulp_of_r_of_cos_sin():
    # both forms start from the angle 2 (pi u2); over 8M normals on an AVX-512
    # machine the largest gap was 3 * np.spacing(r) (8.9e-16)
    keys = rng.mix64(np.arange(200_000, dtype=np.uint64) + 5)
    got = rng.normals(keys, 5)
    ref, r = normals_by_cos_sin(keys, 5)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(r))


def test_normals_do_not_depend_on_where_a_call_cuts_the_keys():
    # SIMD kernels run remainder lanes apart from full vectors; a key's
    # normals must not depend on its position in the call
    keys = rng.mix64(np.arange(5000, dtype=np.uint64) + 17)
    whole = rng.normals(keys, 5)
    cuts = [0, 1, 3, 7, 4099, 5000]
    pieces = [rng.normals(keys[a:b], 5) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)
    for i in range(0, 5000, 97):
        assert np.array_equal(rng.normals(keys[i], 5), whole[i])
    for step in (3, 7):
        assert np.array_equal(rng.normals(keys[1::step], 5), whole[1::step])
    grid = keys.reshape(50, 100)
    assert np.array_equal(rng.normals(grid[:, ::3], 5), whole.reshape(50, 100, 5)[:, ::3])


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
    # a key whose angle substream has bits >> 11 == 2**52, so u2 = 1/2 and
    # t = tan(pi / 2) is about 1.6e16
    key = np.uint64(unmix64(1 << 63) ^ int(rng.mix64(np.uint64(1))))
    assert int(rng.substream(key, 1)) >> 11 == 2**52
    assert rng.uniform01(rng.substream(key, 1)) == 0.5
    got = rng.normals(key, 2)
    assert np.isfinite(got).all()
    assert np.array_equal(got, normals_by_expression(key, 2))
    ref, r = normals_by_cos_sin(key, 2)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(r))
    assert got[0] == pytest.approx(-r[0], rel=1e-15) and abs(got[1]) < 1e-15 * r[0]
