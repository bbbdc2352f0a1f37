import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import rng
from cesaro_lab.lattice import (
    BRUTE_FORCE_CELL_CAP,
    LatticeSample,
    MultiIndex,
    dyadic_boxes,
    dyadic_square_schedule,
    leq,
    max_partial_norm,
    prefix_sums,
    prefix_sums_bruteforce,
    prefix_table,
    schedule_averages,
)


def random_sample(trial: int, seed: int = 0) -> LatticeSample:
    key = np.uint64(rng.derive_seed(seed, trial))

    def pick(idx, lo, hi):
        bits = rng.mix64(rng.substream(np.asarray([key]), idx))
        return lo + int(rng.uniform01(bits)[0] * (hi - lo + 1))

    d = pick(1, 1, 3)
    sides = tuple(pick(10 + ax, 1, 4) for ax in range(d))
    D = 1 if pick(2, 0, 1) == 0 else 4
    grids = np.meshgrid(
        *(np.arange(1, c + 1, dtype=np.uint64) for c in sides), indexing="ij"
    )
    cells = rng.cell_keys(int(key), grids)
    return LatticeSample(MultiIndex(sides), rng.normals(cells, D))


class TestMultiIndex:
    def test_basic(self):
        n = MultiIndex((2, 3))
        assert n.d == 2
        assert n.size == 6
        assert str(n) == "2x3"

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex(())
        with pytest.raises(ValueError):
            MultiIndex((0, 2))
        with pytest.raises(ValueError):
            MultiIndex((2, -1))
        with pytest.raises(ValueError):
            MultiIndex((2.5,))

    def test_leq(self):
        assert leq(MultiIndex((1, 1)), MultiIndex((2, 3)))
        assert leq(MultiIndex((2, 3)), MultiIndex((2, 3)))
        assert not leq(MultiIndex((3, 1)), MultiIndex((2, 3)))
        with pytest.raises(ValueError):
            leq(MultiIndex((1,)), MultiIndex((1, 1)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.lists(st.integers(1, 6), min_size=len(a), max_size=len(a)),
            st.lists(st.integers(1, 6), min_size=len(a), max_size=len(a)),
        )
    ))
    def test_leq_partial_order(self, triple):
        a, b, c = (MultiIndex(tuple(x)) for x in triple)
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_prefix_2x2_worked_example():
    sample = LatticeSample(
        MultiIndex((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]
    )
    table = prefix_sums(sample)
    assert table.shape == (2, 2, 1)
    assert np.array_equal(table[..., 0], np.array([[1.0, 3.0], [4.0, 10.0]]))
    assert max_partial_norm(sample) == 10.0


def test_prefix_matches_bruteforce_on_random_cases():
    for trial in range(60):
        sample = random_sample(trial)
        fast = prefix_sums(sample)
        brute = prefix_sums_bruteforce(sample)
        scale = max(1.0, np.abs(brute).max())
        assert np.abs(fast - brute).max() / scale <= 1e-9
        norms = np.sqrt((brute * brute).sum(axis=-1))
        assert max_partial_norm(sample) == pytest.approx(norms.max(), rel=1e-9)


def test_bruteforce_cell_cap():
    big = MultiIndex((BRUTE_FORCE_CELL_CAP + 1,))
    sample = LatticeSample(big, np.zeros(big.size)[..., None])
    with pytest.raises(ValueError):
        prefix_sums_bruteforce(sample)


def test_prefix_is_deterministic_bitwise():
    sample = random_sample(7)
    t1 = prefix_sums(sample)
    t2 = prefix_sums(sample)
    assert np.array_equal(t1, t2)
    assert max_partial_norm(sample) == max_partial_norm(sample)


def test_prefix_linearity():
    s1 = random_sample(3)
    scaled = LatticeSample(s1.box, 2.0 * s1.values)
    assert np.allclose(prefix_sums(scaled), 2.0 * prefix_sums(s1))
    # the maximum of partial norms is absolutely homogeneous
    assert max_partial_norm(scaled) == pytest.approx(2.0 * max_partial_norm(s1))


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeSample(MultiIndex((2, 2)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        LatticeSample(MultiIndex((4,)), np.zeros(5)[..., None])


def test_schedule_averages_match_direct_means():
    field = np.arange(1.0, 25.0).reshape(4, 6)
    schedule = [MultiIndex((2, 3)), MultiIndex((4, 6)), MultiIndex((1, 1))]
    got = schedule_averages(field, schedule)
    for value, box in zip(got, schedule):
        sub = field[: box.coords[0], : box.coords[1]]
        assert value == pytest.approx(sub.mean(), rel=1e-12)


def test_schedule_averages_carries_leading_axes():
    field = np.stack([np.ones((3, 3)), 2.0 * np.ones((3, 3))])
    got = schedule_averages(field, [MultiIndex((2, 2)), MultiIndex((3, 3))])
    assert got.shape == (2, 2)
    assert np.allclose(got[0], [1.0, 1.0])
    assert np.allclose(got[1], [2.0, 2.0])


def test_prefix_table_axis_selection():
    field = np.ones((2, 3))
    only_rows = prefix_table(field, [0])
    assert np.array_equal(only_rows, np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))


def test_dyadic_boxes_one_dim():
    boxes = dyadic_boxes(MultiIndex((10,)))
    assert [b.coords[0] for b in boxes] == [1, 2, 4, 8, 10]


def test_dyadic_boxes_include_horizon_corner():
    boxes = dyadic_boxes(MultiIndex((6, 5)))
    assert MultiIndex((6, 5)) in boxes
    assert all(leq(b, MultiIndex((6, 5))) for b in boxes)
    sizes = [b.size for b in boxes]
    assert sizes == sorted(sizes)


def test_dyadic_square_schedule():
    sched = dyadic_square_schedule(2, max_total=100)
    assert [b.coords for b in sched] == [(2, 2), (4, 4), (8, 8)]
    sched1 = dyadic_square_schedule(1, max_total=16)
    assert [b.coords[0] for b in sched1] == [2, 4, 8, 16]
