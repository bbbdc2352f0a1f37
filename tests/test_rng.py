import numpy as np

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
    """Box-Muller as plain expressions, one temporary per step: the oracle
    for the buffered version in rng.normals."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = (count + 1) // 2
    out = np.empty(keys.shape + (2 * pairs,), dtype=np.float64)
    for j in range(pairs):
        u1 = rng.uniform_open01(rng.substream(keys, 2 * j))
        u2 = rng.uniform01(rng.substream(keys, 2 * j + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out[..., 2 * j] = r * np.cos(theta)
        out[..., 2 * j + 1] = r * np.sin(theta)
    return out[..., :count]


def test_normals_equal_the_expression_bit_for_bit():
    for shape in [(), (7,), (3, 5), (2, 4, 3)]:
        keys = rng.mix64(np.arange(int(np.prod(shape)), dtype=np.uint64) + 11).reshape(shape)
        for count in (1, 2, 5, 8):
            got = rng.normals(keys, count)
            assert got.shape == shape + (count,)
            assert np.array_equal(got, normals_by_expression(keys, count))
