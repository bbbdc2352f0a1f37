import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import distributions as dist
from cesaro_lab import lattice, rng
from cesaro_lab.distributions import DistributionSpec, NormSample, Tail
from cesaro_lab.lattice import (
    BRUTE_FORCE_CELL_CAP,
    MultiIndex,
    box_maxima,
    dyadic_boxes,
    dyadic_square_schedule,
    leq,
    plane_sum,
    prefix_sums_bruteforce,
    prefix_table,
    rep_sum,
    row_chunks,
    schedule_averages,
    schedule_profiles,
)
from oracles import rep_sum_by_rows, running_max_norms


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
        every = [MultiIndex(tuple(c + 1 for c in idx)) for idx in np.ndindex(*sample.shape[:-1])]
        q = np.sum(np.square(fast), axis=-1)
        got = np.sqrt(box_maxima([(0, q[None])], 1, every))
        assert np.array_equal(got[:, 0], running.reshape(-1))


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


# lead + box + D shapes for d = 1..3; each holds an axis on each side of the
# sweep rule (cells behind the axis >= SLAB_RUN x its length)
SWEEP_SHAPES = [
    (3, 64, 8), (3, 4, 64),
    (2, 32, 16, 8), (2, 4, 128, 2),
    (2, 16, 8, 8, 8), (2, 8, 8, 8, 5), (1, 32, 32, 32, 1),
]


def sweep_axes(shape):
    return range(1, len(shape) - 1)


def test_sweep_shapes_land_on_both_sides_of_the_rule():
    for d in (1, 2, 3):
        sides = {
            math.prod(shape[ax + 1:]) >= lattice.SLAB_RUN * shape[ax]
            for shape in SWEEP_SHAPES if len(shape) == d + 2
            for ax in sweep_axes(shape)
        }
        assert sides == {True, False}


def field_with_extremes(shape, seed):
    """Normals with a NaN, an inf and a cell whose square overflows."""
    a = np.random.default_rng(seed).standard_normal(shape)
    flat = a.reshape(-1)
    flat[[1, flat.size // 2, flat.size - 2]] = [np.nan, np.inf, 1e200]
    return a


def plane_major(x):
    """A copy of x whose columns x[..., j] are contiguous planes, laid out as
    draw_buffers lays out a vector chunk."""
    planes = np.empty((x.shape[-1],) + x.shape[:-1])
    out = np.moveaxis(planes, 0, -1)
    out[...] = x
    return out


def dyadic_within(shape):
    """The dyadic boxes of the box axes of a lead + box + D shape."""
    return dyadic_boxes(MultiIndex(shape[1:-1]))


@pytest.mark.parametrize("shape", SWEEP_SHAPES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and the overflowing square
def test_prefix_and_running_max_into_buffers_equal_the_allocating_calls(shape):
    a = field_with_extremes(shape, shape[1])
    axes, d = sweep_axes(shape), len(shape) - 2
    want_S = prefix_table(a, axes)
    want_M = running_max_norms(want_S, d)
    other = np.full(shape, np.nan)
    assert prefix_table(a, axes, out=other) is other
    assert np.array_equal(other, want_S, equal_nan=True)
    # a chunk loop sweeps its own plane-major batch, squares it, adds its
    # columns up into column 0, and reads each box's M_n from that
    batch = plane_major(a)
    assert prefix_table(batch, axes, out=batch) is batch
    assert np.array_equal(batch, want_S, equal_nan=True)
    q = plane_sum(np.square(batch, out=batch), out=batch[..., 0])
    assert np.shares_memory(q, batch)
    boxes = dyadic_within(shape)
    got = np.sqrt(box_maxima([(0, q)], len(q), boxes))
    want = [want_M[(slice(None),) + tuple(c - 1 for c in n.coords)] for n in boxes]
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("shape", SWEEP_SHAPES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_prefix_and_running_max_leave_their_input_alone(shape):
    # without out prefix_table does not write to its argument, nor does
    # box_maxima: callers read the field and the squares again after the call
    a = field_with_extremes(shape, shape[1] + 1)
    before = a.copy()
    S = prefix_table(a, sweep_axes(shape))
    assert np.array_equal(a, before, equal_nan=True)
    q = np.sum(np.square(S), axis=-1)
    squares = q.copy()
    box_maxima([(0, q)], len(q), dyadic_within(shape))
    assert np.array_equal(q, squares, equal_nan=True)


def same_bits(a, b) -> bool:
    """Equal values, NaN at the same cells, and the same sign of zero."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b)
    )


# every branch of numpy's pairwise sum: in order below 8 columns, 8 lanes up
# to 128 with and without a remainder, and halves cut at a multiple of 8 above
PLANE_SUM_COLUMNS = [*range(1, 41), 63, 64, 65, 127, 128, 129, 255, 256, 257, 513]


@pytest.mark.parametrize("D", PLANE_SUM_COLUMNS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing square, inf - inf
def test_plane_sum_equals_np_sum_over_contiguous_columns(D):
    # the series and the Gaussian norms sum plane-major columns with
    # plane_sum, and their numbers are those np.sum gives over a contiguous
    # last axis; if a numpy release changes that order, this fails
    raw = field_with_extremes((3, 5, D), D)
    raw.reshape(-1)[[0, 4]] = [-0.0, -np.inf]
    raw[2, 4] = -0.0  # a cell whose columns are all -0.0: np.sum gives 0.0
    for x in (raw, np.square(raw)):
        want = np.sum(np.ascontiguousarray(x), axis=-1)
        apart = np.full(x.shape[:-1], np.nan)
        assert plane_sum(plane_major(x), out=apart) is apart
        assert same_bits(apart, want)
        first = plane_major(x)
        got = plane_sum(first, out=first[..., 0])
        assert np.shares_memory(got, first) and same_bits(got, want)


@pytest.mark.parametrize("extremes", [False, True], ids=["add", "add-extremes"])
@pytest.mark.parametrize("shape", SWEEP_SHAPES)
@pytest.mark.parametrize("slab_run", [None, 0, math.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf + -inf
def test_sweep_equals_accumulate(monkeypatch, shape, slab_run, extremes):
    # slab_run 0 forces slab updates on every axis and inf forces accumulate;
    # None keeps the rule. With extremes, NaN and +-inf cells (and the NaN of
    # inf + -inf) must spread the same way under both methods
    if slab_run is not None:
        monkeypatch.setattr(lattice, "SLAB_RUN", slab_run)
    gen = np.random.default_rng(len(shape) * 100 + shape[1])
    a = gen.standard_normal(shape)
    if extremes:
        flat = a.reshape(-1)
        cells = gen.choice(flat.size, size=12, replace=False)
        flat[cells[:4]] = np.nan
        flat[cells[4:8]] = np.inf
        flat[cells[8:]] = -np.inf
    for ax in sweep_axes(shape):
        want = np.add.accumulate(a, axis=ax)
        got = a.copy()
        lattice._sweep(got, ax)
        assert np.array_equal(got, want, equal_nan=True)
        a = want


SCHEDULES = [
    pytest.param([MultiIndex((k,)) for k in range(1, 513)], id="dense-1d"),
    pytest.param([MultiIndex((k,)) for k in range(512, 0, -1)], id="dense-1d-descending"),
    pytest.param(dyadic_square_schedule(2, 65536), id="dyadic-2d"),
    pytest.param(dyadic_square_schedule(3, 32768), id="dyadic-3d"),
    pytest.param([MultiIndex(c) for c in ((4, 2), (2, 8), (8, 8), (16, 16))], id="incomparable-2d"),
]


class ReadCounter(np.ndarray):
    """An array that counts the cells its ufunc calls take from it."""

    cells = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        ReadCounter.cells += sum(x.size for x in inputs if isinstance(x, ReadCounter))
        plain = tuple(np.asarray(x) if isinstance(x, ReadCounter) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("boxes", SCHEDULES)
def test_box_maxima_reads_each_box_once(boxes):
    # each box reduces its own cells once, in whatever order the schedule
    # lists it, so a row costs the sum of the box sizes
    hull = tuple(max(c) for c in zip(*(n.coords for n in boxes)))
    q = np.random.default_rng(0).random((3,) + hull)
    ReadCounter.cells = 0
    got = box_maxima([(0, q.view(ReadCounter))], 3, boxes)
    assert ReadCounter.cells == 3 * sum(n.size for n in boxes)
    want = [q[(slice(None),) + tuple(slice(0, c) for c in n.coords)].max(axis=tuple(range(1, 1 + n.d)))
            for n in boxes]
    assert np.array_equal(got, want)


def random_boxes(gen, top, count):
    """count boxes inside top, each some earlier box (or top) with a few
    coordinates changed, so that boxes repeat, share sides and do not compare."""
    out = [top]
    for _ in range(count):
        coords = list(out[int(gen.integers(len(out)))].coords)
        for ax in gen.choice(len(coords), size=int(gen.integers(0, len(coords) + 1)), replace=False):
            coords[ax] = int(gen.integers(1, top.coords[ax] + 1))
        out.append(MultiIndex(tuple(coords)))
    gen.shuffle(out)
    return out


def test_box_maxima_equal_per_box_max():
    # random schedules inside random boxes, repeated and incomparable boxes
    # among them, over a rep axis chunked as row_chunks cuts it and in random
    # runs copied into one reused buffer, with NaN and inf cells
    incomparable = 0
    for trial in range(60):
        gen = np.random.default_rng(trial)
        d = 1 + trial % 3
        top = MultiIndex(tuple(int(s) for s in gen.integers(1, 7, size=d)))
        reps = int(gen.integers(1, 6))
        q = gen.standard_normal((reps,) + top.coords)
        flat = q.reshape(-1)
        marks = gen.choice(flat.size, size=min(flat.size, 3), replace=False)
        flat[marks] = [np.nan, np.inf, -np.inf][: len(marks)]
        q.flags.writeable = False
        boxes = random_boxes(gen, top, 8)
        axes = tuple(range(1, 1 + d))
        want = [q[(slice(None),) + tuple(slice(0, c) for c in n.coords)].max(axis=axes) for n in boxes]
        cuts = np.flatnonzero(gen.random(reps - 1) < 0.5) + 1
        runs = list(zip([0, *cuts], np.split(np.arange(reps), cuts)))
        buffer = np.empty_like(q)

        def reused(runs=runs, buffer=buffer, q=q):
            for first, rows in runs:
                chunk = buffer[: len(rows)]
                chunk[...] = q[rows]
                yield first, chunk
                buffer.fill(np.nan)

        for chunks in (row_chunks(q, top), reused()):
            got = box_maxima(chunks, reps, boxes)
            assert np.array_equal(got, want, equal_nan=True)
        incomparable += any(not leq(m, n) and not leq(n, m) for m in boxes for n in boxes)
    assert incomparable > 0


@pytest.mark.parametrize("chunk_cells", [1, 3, 17])
def test_rep_sum_adds_rows_in_order(monkeypatch, chunk_cells):
    # the running sum along each chunk's rows equals one add per row, bit for
    # bit: over row_chunks (ragged when the cap does not divide the rows), over
    # random runs copied into one reused buffer, and over the chunks of drawn
    # samples, with NaN and inf cells
    monkeypatch.setattr(lattice, "CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(dist, "CHUNK_CELLS", chunk_cells)
    for trial in range(40):
        gen = np.random.default_rng(trial)
        d = 1 + trial % 3
        top = MultiIndex(tuple(int(s) for s in gen.integers(1, 5, size=d)))
        reps = int(gen.integers(1, 14))
        q = gen.standard_normal((reps,) + top.coords) * 10.0 ** gen.integers(-3, 4, size=top.coords)
        flat = q.reshape(-1)
        marks = gen.choice(flat.size, size=min(flat.size, 3), replace=False)
        flat[marks] = [np.nan, np.inf, -np.inf][: len(marks)]
        q.flags.writeable = False
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = rep_sum_by_rows(row_chunks(q, top))
            assert np.array_equal(rep_sum(row_chunks(q.copy(), top)), want, equal_nan=True)
            cuts = np.flatnonzero(gen.random(reps - 1) < 0.5) + 1
            buffer = np.empty_like(q)

            def reused(cuts=cuts, buffer=buffer, q=q):
                for first, rows in zip([0, *cuts], np.split(np.arange(reps), cuts)):
                    chunk = buffer[: len(rows)]
                    chunk[...] = q[rows]
                    yield first, chunk
                    buffer.fill(np.nan)

            assert np.array_equal(rep_sum(reused()), want, equal_nan=True)
    for family, params in [("pareto_radial", {"alpha": 0.8}), ("pareto_radial", {"alpha": 0.05}),
                           ("iid_gaussian", {"sigma": 1.0})]:
        spec = DistributionSpec(family, params, dim_D=2, moment_mode="empirical")
        sample = NormSample(spec, MultiIndex((5, 3)), 4, 13)
        want = rep_sum_by_rows((f, Tail(1.0, 0.0)(x)) for f, x in sample.chunks())
        got = rep_sum((f, Tail(1.0, 0.0)(x)) for f, x in sample.chunks())
        assert np.array_equal(got, want)


def test_box_maxima_rejects_boxes_that_do_not_fit():
    q = np.zeros((2, 4, 5))
    with pytest.raises(ValueError):
        box_maxima([(0, q)], 2, [MultiIndex((4, 6))])
    with pytest.raises(ValueError):
        box_maxima([(0, q)], 2, [MultiIndex((4,)), MultiIndex((2, 2))])
    with pytest.raises(ValueError):
        box_maxima([(0, q)], 2, [MultiIndex((4, 5, 1))])
    with pytest.raises(ValueError):
        box_maxima([(0, q)], 2, [])


def test_schedule_averages_match_direct_means():
    field = np.arange(1.0, 25.0).reshape(4, 6)
    box = MultiIndex((4, 6))
    got = schedule_averages(field, box)
    schedule = dyadic_boxes(box)
    assert got.shape == (len(schedule),)
    for value, n in zip(got, schedule):
        sub = field[: n.coords[0], : n.coords[1]]
        assert value == pytest.approx(sub.mean(), rel=1e-12)


def test_schedule_averages_carries_leading_axes():
    field = np.stack([np.ones((3, 3)), 2.0 * np.ones((3, 3))])
    box = MultiIndex((3, 3))
    got = schedule_averages(field, box)
    assert got.shape == (2, len(dyadic_boxes(box)))
    assert np.array_equal(got[0], np.ones(got.shape[1]))
    assert np.array_equal(got[1], np.full(got.shape[1], 2.0))
    leveled = schedule_averages(field, box, levels=[0.0, 1.0, 1.5, 2.0], ge=True)
    assert leveled.shape == (4,) + got.shape
    assert np.array_equal(leveled[0], got) and np.array_equal(leveled[1], got)
    assert np.array_equal(leveled[2], leveled[3])
    assert np.array_equal(leveled[3], np.stack([np.zeros(got.shape[1]), got[1]]))


def test_schedule_averages_reject_a_field_off_the_box_and_unsorted_levels():
    with pytest.raises(ValueError):
        schedule_averages(np.ones((2, 3)), MultiIndex((3, 2)))
    with pytest.raises(ValueError):
        schedule_averages(np.ones((2, 3)), MultiIndex((2, 3)), levels=[1.0, 1.0])


def brute_averages(field, box: MultiIndex, weight=None, levels=None, ge=False) -> np.ndarray:
    """The profile by direct summation: per leading row and level, the
    weights kept at that level summed by prefix_sums_bruteforce and read at
    the corner of every dyadic box, divided by its size."""
    schedule = dyadic_boxes(box)
    lead = field.shape[: field.ndim - box.d]
    t = np.asarray(field, dtype=np.float64).reshape((-1,) + box.coords)
    w = t if weight is None else weight(t)
    grid = [None] if levels is None else list(levels)
    out = np.empty((len(grid), t.shape[0], len(schedule)))
    for k, a in enumerate(grid):
        kept = w if a is None else np.where(t >= a if ge else t > a, w, 0.0)
        for r in range(t.shape[0]):
            sums = prefix_sums_bruteforce(kept[r][..., None])[..., 0]
            out[k, r] = [sums[tuple(c - 1 for c in n.coords)] / n.size for n in schedule]
    out = out.reshape((len(grid),) + lead + (len(schedule),))
    return out[0] if levels is None else out


# box shapes: every side a power of two (the horizon closes a full dyadic
# shell), random sides (it closes a partial one), every side >= 2 (for d >= 2
# the dyadic boxes include incomparable pairs), and the one-cell box
BOX_KINDS = ("dyadic", "explicit", "non_nested", "one_cell")


def box_of(kind: str, d: int, gen) -> MultiIndex:
    if kind == "dyadic":
        return MultiIndex(tuple(int(2 ** gen.integers(0, 4)) for _ in range(d)))
    if kind == "one_cell":
        return MultiIndex((1,) * d)
    low = 1 if kind == "explicit" else 2
    return MultiIndex(tuple(int(v) for v in gen.integers(low, 8, size=d)))


def random_field(gen, lead: tuple, box: MultiIndex) -> np.ndarray:
    """Heavy-tailed cells with an inf, a NaN and exact ties sprinkled in."""
    field = 1.0 + gen.pareto(1.5, size=lead + box.coords)
    flat = field.reshape(-1)
    for value in (np.inf, np.nan, 2.0, 0.0):
        if gen.random() < 0.5:
            flat[gen.integers(flat.size)] = value
    return field


# levels with ties against the 2.0 and 0.0 cells and the integer fields
LEVELS = (0.0, 1.0, 2.0, 3.5)
# chunks of one rep each (1 and 10 cells hold at most one rep of most boxes,
# several reps of the smallest) and the default (every rep of these fields)
CHUNK_SIZES = [1, 10, lattice.CHUNK_CELLS]


class TestScheduleAveragesOracle:
    """The dyadic tail profile against brute-force block means: bit for bit
    on integer-valued fields, whose sums are exact, and to 1e-12 on random
    heavy-tailed ones."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", BOX_KINDS)
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("chunk_cells", CHUNK_SIZES)
    def test_equals_full_table(self, monkeypatch, d, kind, lead, chunk_cells):
        monkeypatch.setattr(lattice, "CHUNK_CELLS", chunk_cells)
        gen = np.random.default_rng([d, BOX_KINDS.index(kind), len(lead)])
        for trial in range(15):
            box = box_of(kind, d, gen)
            ge = bool(trial % 2)
            nboxes = len(dyadic_boxes(box))
            exact = gen.integers(0, 6, size=lead + box.coords).astype(np.float64)
            got = schedule_averages(exact, box)
            assert got.shape == lead + (nboxes,)
            # C order too: a mean over reps sums in an order set by the layout
            assert got.flags.c_contiguous
            assert np.array_equal(got, brute_averages(exact, box))
            got = schedule_averages(exact, box, np.square, LEVELS, ge)
            assert got.shape == (len(LEVELS),) + lead + (nboxes,)
            assert got.flags.c_contiguous
            assert np.array_equal(got, brute_averages(exact, box, np.square, LEVELS, ge))

            field = random_field(gen, lead, box)
            assert np.allclose(
                schedule_averages(field, box), brute_averages(field, box),
                rtol=1e-12, atol=0.0, equal_nan=True,
            )
            got = schedule_averages(field, box, np.sqrt, LEVELS, ge)
            assert not np.isnan(got).any()  # a NaN cell adds 0; inf stays inf
            assert np.allclose(
                got, brute_averages(field, box, np.sqrt, LEVELS, ge),
                rtol=1e-12, atol=0.0,
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("chunk_cells", CHUNK_SIZES)
    def test_read_only_broadcast_field(self, monkeypatch, d, chunk_cells):
        monkeypatch.setattr(lattice, "CHUNK_CELLS", chunk_cells)
        gen = np.random.default_rng(d)
        box = MultiIndex((5,) * d)
        field = np.broadcast_to(random_field(gen, (), box), (4,) + box.coords)
        assert not field.flags.writeable
        got = schedule_averages(field, box, None, LEVELS)
        assert np.allclose(got, brute_averages(field, box, None, LEVELS), rtol=1e-12, atol=0.0)
        assert np.array_equal(got[:, 0], got[:, 3])
        exact = np.broadcast_to(2.5, box.coords)
        assert np.array_equal(
            schedule_averages(exact, box), np.full(len(dyadic_boxes(box)), 2.5)
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("g", [Tail(0.5, 2.0), Tail(0.0, 2.0, ge=True), Tail(1.0, 0.0)])
    @pytest.mark.parametrize("chunk_cells", CHUNK_SIZES)
    def test_fused_g_equals_g_up_front(self, monkeypatch, d, g, chunk_cells):
        """A weight applied chunk by chunk, and a level read off a grid, give
        the bits of g applied to the whole field first: the kept cells of a
        level are summed in cell order, whatever the other levels are."""
        monkeypatch.setattr(lattice, "CHUNK_CELLS", chunk_cells)
        gen = np.random.default_rng([d, 7])
        for lead in [(), (3,)]:
            box = box_of("explicit", d, gen)
            field = random_field(gen, lead, box)
            field.flags.writeable = False
            up_front = schedule_averages(g(field), box)
            assert np.array_equal(schedule_averages(field, box, g), up_front)
            one = schedule_averages(field, box, g.power, [g.a], g.ge)
            assert np.array_equal(one[0], up_front)
            grid = sorted({0.0, 1.0, 1.5, g.a, 2.5, 3.0})
            profile = schedule_averages(field, box, g.power, grid, g.ge)
            assert np.array_equal(profile[grid.index(g.a)], up_front)
            assert np.allclose(up_front, brute_averages(g(field), box), rtol=1e-12, atol=0.0)

    def test_full_table_path_matches_bruteforce(self):
        # the oracle of the oracle: brute-force block means against np.mean
        # of each block
        for trial in range(30):
            sample = random_sample(trial)[..., 0]
            box = MultiIndex(sample.shape)
            direct = [sample[tuple(slice(0, c) for c in n.coords)].mean() for n in dyadic_boxes(box)]
            assert brute_averages(sample, box) == pytest.approx(direct, rel=1e-12)


class TestScheduleProfilesOracle:
    """Several queries answered in one pass over chunks of rows: each answer
    is bit-equal to its one-query call and matches brute-force block means,
    however the rows are chunked."""

    QUERIES = [(None, None, False), (np.sqrt, LEVELS, True), (np.square, (0.5, 2.0), False)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("chunk_cells", [1, 3, 10, 17])
    def test_one_pass_equals_one_query_calls(self, monkeypatch, d, chunk_cells):
        monkeypatch.setattr(lattice, "CHUNK_CELLS", chunk_cells)
        gen = np.random.default_rng([d, chunk_cells])
        for trial in range(8):
            box = box_of(BOX_KINDS[trial % len(BOX_KINDS)], d, gen)
            reps = int(gen.integers(1, 7))
            field = random_field(gen, (reps,), box)
            cells = field.reshape(-1)
            cells[gen.integers(cells.size)] = np.inf
            cells[gen.integers(cells.size)] = np.nan
            field.flags.writeable = False
            # the rows as row_chunks cuts them, and in random runs (some
            # longer than a CHUNK_CELLS chunk) copied into one reused buffer
            cuts = np.flatnonzero(gen.random(reps - 1) < 0.5) + 1
            runs = list(zip([0, *cuts], np.split(np.arange(reps), cuts)))
            buffer = np.empty_like(field)

            def reused(runs=runs, buffer=buffer, field=field):
                for first, rows in runs:
                    chunk = buffer[: len(rows)]
                    chunk[...] = field[rows]
                    yield first, chunk

            for chunks in (row_chunks(field, box), reused()):
                answers = schedule_profiles(chunks, reps, box, self.QUERIES)
                for (weight, levels, ge), got in zip(self.QUERIES, answers):
                    one = schedule_averages(field, box, weight, levels, ge)
                    assert np.array_equal(got if levels else got[0], one, equal_nan=True)
                    brute = brute_averages(field, box, weight, levels, ge)
                    assert np.allclose(one, brute, rtol=1e-12, atol=0.0, equal_nan=True)


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
