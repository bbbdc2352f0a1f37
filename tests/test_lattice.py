import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import lattice, rng
from cesaro_lab.distributions import Tail
from cesaro_lab.lattice import (
    BRUTE_FORCE_CELL_CAP,
    MultiIndex,
    dyadic_boxes,
    dyadic_square_schedule,
    leq,
    prefix_sums_bruteforce,
    prefix_table,
    running_max_norms,
    schedule_averages,
)


def random_sample(trial: int, seed: int = 0) -> np.ndarray:
    """Standard normal D-vectors over a random box of d <= 3, sides <= 4."""
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
    return rng.normals(cells, D)


def sweep(values: np.ndarray) -> np.ndarray:
    return prefix_table(values, range(values.ndim - 1))


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
    table = sweep(np.array([[1.0, 2.0], [3.0, 4.0]])[..., None])
    assert table.shape == (2, 2, 1)
    assert np.array_equal(table[..., 0], np.array([[1.0, 3.0], [4.0, 10.0]]))
    # M_k at every k: the running max of |S| over the block [1, k]
    assert np.array_equal(running_max_norms(table, 2), np.array([[1.0, 3.0], [4.0, 10.0]]))


def test_prefix_matches_bruteforce_on_random_cases():
    for trial in range(60):
        sample = random_sample(trial)
        fast = sweep(sample)
        brute = prefix_sums_bruteforce(sample)
        scale = max(1.0, np.abs(brute).max())
        assert np.abs(fast - brute).max() / scale <= 1e-9
        norms = np.sqrt((brute * brute).sum(axis=-1))
        running = running_max_norms(fast, sample.ndim - 1)
        for idx in np.ndindex(*sample.shape[:-1]):
            block = norms[tuple(slice(0, c + 1) for c in idx)]
            assert running[idx] == pytest.approx(block.max(), rel=1e-9)


def test_bruteforce_cell_cap():
    with pytest.raises(ValueError):
        prefix_sums_bruteforce(np.zeros((BRUTE_FORCE_CELL_CAP + 1, 1)))


def test_prefix_is_deterministic_bitwise():
    sample = random_sample(7)
    t1 = sweep(sample)
    t2 = sweep(sample)
    assert np.array_equal(t1, t2)
    d = sample.ndim - 1
    assert np.array_equal(running_max_norms(t1, d), running_max_norms(t2, d))


def test_prefix_linearity():
    s1 = random_sample(3)
    scaled = 2.0 * s1
    assert np.allclose(sweep(scaled), 2.0 * sweep(s1))
    # the maximum of partial norms is absolutely homogeneous
    d = s1.ndim - 1
    assert running_max_norms(sweep(scaled), d) == pytest.approx(
        2.0 * running_max_norms(sweep(s1), d)
    )


def test_running_max_carries_leading_axes_and_nan():
    gen = np.random.default_rng(4)
    S = gen.standard_normal((3, 4, 5, 2))
    S[1, 2, 1, 0] = np.nan
    got = running_max_norms(S, 2)
    norms = np.sqrt((S * S).sum(axis=-1))
    assert got.shape == (3, 4, 5)
    for idx in np.ndindex(4, 5):
        block = norms[(slice(None),) + tuple(slice(0, c + 1) for c in idx)]
        assert np.array_equal(got[(slice(None),) + idx], block.max(axis=(1, 2)), equal_nan=True)
    assert np.isnan(got[1, 2:, 1:]).all() and not np.isnan(got[1, :2]).any()


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


def full_table_averages(field: np.ndarray, schedule) -> np.ndarray:
    """The full-table path: prefix_table over every box axis, then each
    schedule corner divided by its box size."""
    d = schedule[0].d
    table = prefix_table(field, range(field.ndim - d, field.ndim))
    out = np.empty(field.shape[: field.ndim - d] + (len(schedule),))
    for j, n in enumerate(schedule):
        out[..., j] = table[(Ellipsis,) + tuple(c - 1 for c in n.coords)] / n.size
    return out


SCHEDULE_KINDS = ("dyadic", "explicit", "non_nested", "one_cell")


def schedule_of(kind: str, box: MultiIndex, gen) -> list[MultiIndex]:
    if kind == "dyadic":
        return dyadic_boxes(box)
    if kind == "one_cell":
        return [MultiIndex((1,) * box.d)]
    picks = [
        MultiIndex(tuple(int(gen.integers(1, c + 1)) for c in box.coords))
        for _ in range(int(gen.integers(1, 7)))
    ]
    if kind == "explicit":
        return sorted(set(picks), key=lambda b: (b.size, b.coords))
    # non-nested: unsorted with repeats, plus one box per axis that is full
    # on that axis and 1 elsewhere (pairwise incomparable when d >= 2)
    axis_boxes = [
        MultiIndex(tuple(c if k == ax else 1 for k, c in enumerate(box.coords)))
        for ax in range(box.d)
    ]
    return picks + axis_boxes + picks[:1]


def random_field(gen, lead: tuple, box: MultiIndex) -> np.ndarray:
    """Heavy-tailed cells with an inf, a NaN and exact ties sprinkled in."""
    field = 1.0 + gen.pareto(1.5, size=lead + box.coords)
    flat = field.reshape(-1)
    for value in (np.inf, np.nan, 2.0, 0.0):
        if gen.random() < 0.5:
            flat[gen.integers(flat.size)] = value
    return field


# sweep blocks of one row each, of a few rows that split the kept rows
# unevenly, and the default (one block for these small fields)
BLOCK_CELLS = [1, 10, lattice.SWEEP_BLOCK_CELLS]


class TestScheduleAveragesOracle:
    """The corner-only reduction against the full-table path, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    def test_equals_full_table(self, monkeypatch, d, kind, lead, block_cells):
        monkeypatch.setattr(lattice, "SWEEP_BLOCK_CELLS", block_cells)
        gen = np.random.default_rng([d, SCHEDULE_KINDS.index(kind), len(lead)])
        for _ in range(15):
            box = MultiIndex(tuple(int(v) for v in gen.integers(1, 8, size=d)))
            field = random_field(gen, lead, box)
            schedule = schedule_of(kind, box, gen)
            got = schedule_averages(field, schedule)
            assert got.shape == lead + (len(schedule),)
            # C order too: a mean over reps sums in an order set by the layout
            assert got.flags.c_contiguous
            assert np.array_equal(got, full_table_averages(field, schedule), equal_nan=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    def test_read_only_broadcast_field(self, monkeypatch, d, block_cells):
        monkeypatch.setattr(lattice, "SWEEP_BLOCK_CELLS", block_cells)
        gen = np.random.default_rng(d)
        box = MultiIndex((5,) * d)
        field = np.broadcast_to(random_field(gen, (), box), (4,) + box.coords)
        assert not field.flags.writeable
        schedule = dyadic_boxes(box)
        got = schedule_averages(field, schedule)
        assert np.array_equal(got, full_table_averages(field, schedule), equal_nan=True)
        exact = np.broadcast_to(2.5, box.coords)
        assert np.array_equal(
            schedule_averages(exact, schedule), full_table_averages(exact, schedule)
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("g", [Tail(0.5, 2.0), Tail(0.0, 2.0, ge=True), Tail(1.0, 0.0)])
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    def test_fused_g_equals_g_up_front(self, monkeypatch, d, g, block_cells):
        monkeypatch.setattr(lattice, "SWEEP_BLOCK_CELLS", block_cells)
        gen = np.random.default_rng([d, 7])
        for lead in [(), (3,)]:
            box = MultiIndex(tuple(int(v) for v in gen.integers(1, 8, size=d)))
            field = random_field(gen, lead, box)
            field.flags.writeable = False
            schedule = schedule_of("non_nested", box, gen) + dyadic_boxes(box)
            fused = schedule_averages(field, schedule, g)
            assert np.array_equal(fused, schedule_averages(g(field), schedule), equal_nan=True)
            assert np.array_equal(fused, full_table_averages(g(field), schedule), equal_nan=True)

    def test_full_table_path_matches_bruteforce(self):
        # the oracle of the oracle: block sums by direct summation
        for trial in range(30):
            sample = random_sample(trial)[..., 0]
            box = MultiIndex(sample.shape)
            schedule = dyadic_boxes(box)
            sums = prefix_sums_bruteforce(sample[..., None])[..., 0]
            brute = [sums[tuple(c - 1 for c in n.coords)] / n.size for n in schedule]
            assert full_table_averages(sample, schedule) == pytest.approx(brute, rel=1e-12)


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
