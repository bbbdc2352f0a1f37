import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cesaro_lab
from cesaro_lab import convergence, lattice
from cesaro_lab import distributions as dist
from cesaro_lab.cli import _py
from cesaro_lab.convergence import (
    BoundParams,
    ConvergenceSeries,
    ExperimentConfig,
    SeriesPoint,
    bound_domination_check,
    bound_eq23,
    bound_eq27,
    moricz_ratio,
    run_l1_experiment,
    run_lp_experiment,
    trend_test,
)
from cesaro_lab.distributions import DistributionSpec, norm_batch, sample_batch
from cesaro_lab.lattice import MultiIndex, dyadic_square_schedule, prefix_table
from oracles import running_max_norms


def spec_of(family, d=1, **params):
    return DistributionSpec(family, params, dim_D=d)


CONSTANT = spec_of("constant", c=1.0)
ZERO = spec_of("constant", c=0.0)
PARETO = spec_of("pareto_radial", alpha=3.0)
SIGNS = spec_of("iid_rademacher")
GROWING_LINEAR = spec_of("growing_non_cui", exponent=1.0)


def lp_config(spec, p=0.5, boxes=(2, 4, 8, 16), reps=50, seed=0, bound=None):
    sched = tuple(MultiIndex((k,)) for k in boxes)
    return ExperimentConfig(
        spec, p, sched, reps=reps, seed=seed, bound_params=bound
    )


def series_from_moments(moments, stderr=0.0, bounds=None):
    pts = []
    for k, m in enumerate(moments):
        size = 2 ** (k + 1)
        b = None if bounds is None else bounds[k]
        ok = None if b is None else (m <= b + 3 * stderr)
        pts.append(SeriesPoint(MultiIndex((size,)), size, m, stderr, b, ok))
    return ConvergenceSeries(
        mode="lp", p=0.5, reps=10, seed=0, low_reps=True, spec=CONSTANT,
        points=tuple(pts),
    )


class TestBounds:
    def test_eq23_formula(self):
        n = MultiIndex((4096,))
        assert bound_eq23(0.1, 4.0, 0.5, n) == pytest.approx(0.1 + 2.0 / 64.0)
        assert bound_eq23(0.5, 1.0, 0.5, MultiIndex((16,))) == pytest.approx(0.75)
        # 2-d box enters only through its total size
        assert bound_eq23(0.1, 4.0, 0.5, MultiIndex((64, 64))) == pytest.approx(
            bound_eq23(0.1, 4.0, 0.5, n)
        )

    def test_eq23_validation(self):
        n = MultiIndex((4,))
        for bad in [(0.0, 1.0, 0.5), (0.1, 0.0, 0.5), (0.1, 1.0, 1.0), (math.nan, 1.0, 0.5)]:
            with pytest.raises(ValueError):
                bound_eq23(*bad, n)

    def test_eq27_formula(self):
        got = bound_eq27(1.0, 1.0, MultiIndex((2,)))
        assert got == pytest.approx(2.0 * math.log(4.0) / math.sqrt(2.0))
        got2 = bound_eq27(2.0, 0.5, MultiIndex((4, 8)))
        want = 2.0 * 2.0 * 0.5 * math.log(8.0) * math.log(16.0) / math.sqrt(32.0)
        assert got2 == pytest.approx(want)

    def test_eq27_validation(self):
        with pytest.raises(ValueError):
            bound_eq27(0.0, 1.0, MultiIndex((2,)))
        with pytest.raises(ValueError):
            bound_eq27(1.0, 0.0, MultiIndex((2,)))
        with pytest.raises(ValueError):
            bound_eq27(1.0, math.nan, MultiIndex((2,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("mode,name", [("lp", "eps"), ("lp", "a"), ("l1", "a"), ("l1", "C")])
    def test_envelope_params_checked_before_any_draw(self, monkeypatch, mode, name, bad):
        # each value the mode's envelope uses must be finite and > 0 (a NaN
        # envelope fails every verdict), and is checked before the draw: the
        # envelope itself is evaluated only after the whole series is drawn
        bound = BoundParams(**{"eps": 0.1, "a": 4.0, "C": 1.0, name: bad})
        p, run = (0.5, run_lp_experiment) if mode == "lp" else (1.0, run_l1_experiment)
        draws = count_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"bound {name} must be finite and > 0"):
            run(lp_config(PARETO, p=p, bound=bound))
        assert draws == []


class TestExperimentConfig:
    def test_validation(self):
        sched = (MultiIndex((2,)), MultiIndex((4,)))
        with pytest.raises(ValueError):
            ExperimentConfig(CONSTANT, 0.5, (), reps=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                CONSTANT, 0.5, (MultiIndex((2,)), MultiIndex((2, 2))), reps=10, seed=0
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                CONSTANT, 0.5, (MultiIndex((4,)), MultiIndex((2,))), reps=10, seed=0
            )
        with pytest.raises(ValueError):
            ExperimentConfig(CONSTANT, 0.5, sched, reps=0, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(CONSTANT, 1.5, sched, reps=10, seed=0)

    @pytest.mark.parametrize("reps", [2.5, 2.0, True, "20"])
    def test_reps_must_be_an_integer(self, reps):
        # checked where the config is built, not when the draw fails on it
        with pytest.raises(ValueError, match="reps must be an integer"):
            lp_config(CONSTANT, reps=reps)
        with pytest.raises(ValueError, match="reps must be an integer"):
            moricz_ratio(SIGNS, [MultiIndex((2,))], reps=reps)

    def test_mode_gates(self):
        with pytest.raises(ValueError):
            run_lp_experiment(lp_config(CONSTANT, p=1.0))  # p = 1 belongs to the centered mode
        with pytest.raises(ValueError):
            run_l1_experiment(lp_config(CONSTANT, p=0.5))  # the centered mode fixes p = 1


class TestLpExperiment:
    def test_constant_moments_are_closed_form(self):
        # M_n = n for the unit constant field, so the scaled moment is
        # (n / n^(1/p))^p = n^(p-1) with p = 1/2: exactly |n|^(-1/2)
        series = run_lp_experiment(lp_config(CONSTANT, reps=3))
        got = [pt.moment for pt in series.points]
        want = [k ** (-0.5) for k in (2, 4, 8, 16)]
        assert np.allclose(got, want, rtol=1e-12)
        assert all(pt.stderr == 0.0 for pt in series.points)

    @pytest.mark.parametrize("moment_mode", dist.MOMENT_MODES)
    @pytest.mark.parametrize("spec", [CONSTANT, spec_of("spiked_cui"),
                                      spec_of("growing_non_cui")], ids=lambda s: s.family)
    @pytest.mark.parametrize("reps", [20, 200])
    def test_deterministic_families_read_the_replicated_value(self, spec, moment_mode, reps):
        # every replication of a deterministic family reads one value: the
        # moment is that value, bit for bit the one-rep series', with stderr
        # 0, where a float64 mean of the equal values can be an ulp off them
        spec = DistributionSpec(spec.family, spec.params, dim_D=1, moment_mode=moment_mode)
        sched = tuple(dyadic_square_schedule(1, max_total=4096))
        series = run_lp_experiment(ExperimentConfig(spec, 0.5, sched, reps=reps, seed=0))
        one = run_lp_experiment(ExperimentConfig(spec, 0.5, sched, reps=1, seed=0))
        assert [pt.stderr for pt in series.points] == [0.0] * len(sched)
        assert [pt.moment for pt in series.points] == [pt.moment for pt in one.points]

    def test_random_moments_are_row_means(self):
        # a point reduces its 1-D row of reps, which numpy adds pairwise; a
        # (reps, boxes) reduction would add rep by rep, in another order
        cfg = lp_config(PARETO, reps=200, seed=3)
        M = convergence._maxima(cfg.spec, cfg.n_schedule, cfg.seed, cfg.reps)
        for pt, m in zip(run_lp_experiment(cfg).points, M):
            vals = (m / pt.size**2.0) ** 0.5
            assert pt.moment == float(vals.mean())
            assert pt.stderr == float(vals.std(ddof=1) / math.sqrt(cfg.reps))

    def test_zero_family_is_identically_zero(self):
        series = run_lp_experiment(lp_config(ZERO, reps=3))
        assert all(pt.moment == 0.0 for pt in series.points)

    def test_bounds_attached_when_requested(self):
        bound = BoundParams(eps=0.1, a=4.0)
        series = run_lp_experiment(lp_config(PARETO, reps=50, bound=bound))
        for pt in series.points:
            assert pt.bound == pytest.approx(bound_eq23(0.1, 4.0, 0.5, pt.n))
            assert pt.bound_pass is not None

    def test_deterministic(self):
        cfg = lp_config(PARETO, reps=40, seed=9)
        a = run_lp_experiment(cfg)
        b = run_lp_experiment(cfg)
        assert [p.moment for p in a.points] == [p.moment for p in b.points]

    def test_low_reps_flag(self):
        assert run_lp_experiment(lp_config(PARETO, reps=5)).low_reps
        assert not run_lp_experiment(lp_config(PARETO, reps=50)).low_reps


RADIAL_CASES = [
    pytest.param(spec_of("constant", d=8, c=2.0), (8, 8), False, id="constant"),
    pytest.param(spec_of("spiked_cui", d=8, gap_base=2), (64,), False, id="spiked_cui"),
    pytest.param(spec_of("growing_non_cui", d=8, exponent=0.5), (64,), False, id="growing_non_cui"),
    pytest.param(spec_of("iid_rademacher", d=8), (8, 8), False, id="iid_rademacher"),
    pytest.param(spec_of("pairwise_rademacher", d=8, m=3), (64,), False, id="pairwise_rademacher"),
    pytest.param(spec_of("pareto_radial", d=8, alpha=3.0), (8, 8), False, id="pareto_radial"),
    # |s| > 1e154 is drawn here, so S*S overflows to inf
    pytest.param(spec_of("pareto_radial", d=8, alpha=0.02), (64, 64), True, id="pareto_overflow"),
]


class TestRadialOneColumn:
    """Every family but iid_gaussian takes its values on the line through e1
    and samples them as one column whatever dim_D; padding that column with
    zeros to dim_D columns, as the embedding in R^dim_D would, changes no
    maximal partial norm, bit for bit."""

    @pytest.mark.parametrize("spec,coords,overflows", RADIAL_CASES)
    def test_one_column_equals_zero_padded(self, spec, coords, overflows):
        n = MultiIndex(coords)
        batch = sample_batch(spec, n, seed=5, reps=20)
        assert batch.shape == (20,) + coords + (1,)
        padded = np.zeros(batch.shape[:-1] + (8,))
        padded[..., :1] = batch
        axes = range(1, 1 + n.d)
        with np.errstate(over="ignore"):
            sums = prefix_table(batch, axes)
            got = running_max_norms(sums, n.d)
            assert np.array_equal(got, running_max_norms(prefix_table(padded, axes), n.d))
            # M_n of a rep is inf exactly where one of its partial sums
            # squares past the float range; the case is there to draw some
            overflowed = np.isinf(np.square(sums)).reshape(len(sums), -1).any(axis=1)
        assert np.array_equal(np.isinf(got[(Ellipsis,) + (-1,) * n.d]), overflowed)
        assert overflowed.any() == overflows

    @pytest.mark.parametrize("alpha,coords", [(3.0, (8, 8)), (0.02, (64, 64))])
    def test_pareto_column_is_the_norm(self, alpha, coords):
        spec = spec_of("pareto_radial", d=8, alpha=alpha)
        n = MultiIndex(coords)
        batch = sample_batch(spec, n, seed=5, reps=20)
        assert np.array_equal(batch[..., 0], norm_batch(spec, n, seed=5, reps=20))


def count_draws(monkeypatch) -> list:
    """Record (box, reps, first_rep) of every sample_batch call."""
    calls = []
    real = dist.sample_batch

    def counting(*args, **kwargs):
        calls.append((str(args[1]), args[3], kwargs.get("first_rep", 0)))
        return real(*args, **kwargs)

    monkeypatch.setattr(dist, "sample_batch", counting)
    return calls


def per_box_maxima(spec, schedule, seed, reps, center=False):
    """Reference path: every box drawn, centered with the family's per-cell
    means when asked and swept on its own; M_n is the max of the box's
    partial norms. Shape (len(schedule), reps).
    The batch is copied cell-major first: np.sum over a contiguous last axis
    adds in the order the library's plane_sum reproduces, and over the
    plane-major batch sample_batch returns it would add in another."""
    out = []
    for n in schedule:
        batch = np.ascontiguousarray(sample_batch(spec, n, seed, reps))
        if center:
            batch -= dist.mean(spec, n)
        S = prefix_table(batch, range(1, 1 + n.d))
        norms = np.sqrt((S * S).sum(axis=-1))
        out.append(norms.max(axis=tuple(range(1, 1 + n.d))))
    return np.array(out)


def boxes(text):
    return tuple(MultiIndex(tuple(int(c) for c in b.split("x"))) for b in text.split(";"))


DYADIC_1D = tuple(dyadic_square_schedule(1, 64))
DYADIC_3D = tuple(dyadic_square_schedule(3, 512))
# not a chain under <=: the maximal boxes are 16x4 and 4x32
NON_CHAIN = boxes("2x8;8x4;16x4;4x32")
DENSE_1D = tuple(MultiIndex((k,)) for k in range(1, 65))
# one top box, 32x64: the corners of SPARSE_2D use 5 coordinates of box axis
# 1, few enough for chained reductions, and those of DENSE_2D use 32
SPARSE_2D = boxes("2x4;4x8;8x16;16x32;32x64")
DENSE_2D = tuple(MultiIndex((k, 2 * k)) for k in range(1, 33))

ORACLE_CASES = [
    pytest.param(spec_of("constant", d=3, c=2.0), NON_CHAIN, id="constant"),
    pytest.param(spec_of("spiked_cui", gap_base=2), DYADIC_1D, id="spiked_cui"),
    pytest.param(spec_of("growing_non_cui", exponent=0.5), DYADIC_1D, id="growing_non_cui"),
    pytest.param(spec_of("pairwise_rademacher", m=3), DYADIC_1D, id="pairwise_rademacher"),
    pytest.param(spec_of("iid_rademacher"), NON_CHAIN, id="iid_rademacher"),
    pytest.param(spec_of("pareto_radial", alpha=3.0), DYADIC_3D, id="pareto_radial"),
    pytest.param(spec_of("iid_gaussian", d=3), DYADIC_3D, id="iid_gaussian"),
    pytest.param(spec_of("iid_gaussian", d=8), NON_CHAIN, id="iid_gaussian-D8"),
    # alpha <= 1 has no finite mean, so l1 rejects both; it once centered
    # them with the per-cell mean over reps (the "plugin" centering)
    pytest.param(spec_of("pareto_radial", alpha=0.8), NON_CHAIN, id="pareto-plugin"),
    # |s| > 1e154 is drawn here, so S*S overflows to inf
    pytest.param(spec_of("pareto_radial", alpha=0.02), NON_CHAIN, id="pareto-overflow"),
    # the edges of the corner rule: all negative, all zero, one signed column
    pytest.param(spec_of("constant", c=-2.0), NON_CHAIN, id="constant-negative"),
    pytest.param(spec_of("constant", c=0.0), NON_CHAIN, id="constant-zero"),
    pytest.param(spec_of("iid_gaussian", d=1), DYADIC_3D, id="iid_gaussian-D1"),
    # box_maxima would read about 64^2 / 2 cells a rep here; the corners read 64
    pytest.param(spec_of("pareto_radial", alpha=3.0), DENSE_1D, id="pareto-dense"),
    # corner sums: no run of cells behind box axis 1, so it is swept whole;
    # too many corners on axis 1 for chained reductions; sums of -0.0 cells
    pytest.param(spec_of("pareto_radial", alpha=3.0), boxes("2x1;8x1;64x1"), id="pareto-last-side-1"),
    pytest.param(spec_of("pareto_radial", alpha=3.0), DENSE_2D, id="pareto-dense-2d"),
    pytest.param(spec_of("constant", c=-0.0), DYADIC_3D, id="constant-negative-zero"),
]
MORICZ_CASES = [
    pytest.param(spec_of("pairwise_rademacher", m=3), DYADIC_1D, id="pairwise_rademacher"),
    pytest.param(spec_of("iid_rademacher"), NON_CHAIN, id="iid_rademacher"),
    pytest.param(spec_of("iid_gaussian", d=3), DYADIC_3D, id="iid_gaussian"),
]
# (reps, reps per chunk of the largest box); 0 keeps CHUNK_CELLS as it is
CHUNKINGS = [(1, 4), (8, 4), (11, 4), (11, 0)]


def with_chunk(monkeypatch, schedule, per_chunk):
    if per_chunk:
        monkeypatch.setattr(dist, "CHUNK_CELLS", per_chunk * schedule[-1].size)


class TestMaximaOracle:
    """One chunked draw per maximal box gives, bit for bit, the maxima and
    the series of the reference path that draws and sweeps every box."""

    @pytest.mark.parametrize("reps,per_chunk", CHUNKINGS)
    @pytest.mark.parametrize("spec,schedule", ORACLE_CASES)
    @pytest.mark.parametrize("mode", ["lp", "l1"])
    def test_series_equal_per_box_path(self, monkeypatch, spec, schedule, reps, per_chunk, mode):
        with_chunk(monkeypatch, schedule, per_chunk)
        center = mode == "l1"
        cfg = ExperimentConfig(spec, 1.0 if center else 0.5, schedule, reps=reps, seed=3)
        run = run_l1_experiment if center else run_lp_experiment
        if center and dist.mean(spec, schedule[-1]) is None:
            draws = count_draws(monkeypatch)
            with pytest.raises(ValueError, match="no finite mean"):
                run(cfg)
            assert draws == []
            return
        got = convergence._maxima(spec, schedule, 3, reps, center)
        with np.errstate(over="ignore", invalid="ignore"):  # the reference path overflows too
            want = per_box_maxima(spec, schedule, 3, reps, center)
        assert np.array_equal(got, want, equal_nan=True)
        series = run(cfg)
        monkeypatch.setattr(convergence, "_maxima", per_box_maxima)
        with np.errstate(over="ignore", invalid="ignore"):
            want_series = run(cfg)
        assert np.array_equal(
            [(p.moment, p.stderr) for p in series.points],
            [(p.moment, p.stderr) for p in want_series.points],
            equal_nan=True,
        )

    @pytest.mark.parametrize("reps,per_chunk", CHUNKINGS)
    @pytest.mark.parametrize("spec,schedule", MORICZ_CASES)
    def test_moricz_equal_per_box_path(self, monkeypatch, spec, schedule, reps, per_chunk):
        with_chunk(monkeypatch, schedule, per_chunk)
        got = moricz_ratio(spec, schedule, reps=reps, seed=3)
        monkeypatch.setattr(
            convergence, "_maxima",
            lambda spec, sched, seed, reps: per_box_maxima(spec, sched, seed, reps),
        )
        want = moricz_ratio(spec, schedule, reps=reps, seed=3)
        assert [(p.numerator, p.num_stderr, p.ratio) for p in got] == [
            (p.numerator, p.num_stderr, p.ratio) for p in want
        ]


def watch_paths(monkeypatch) -> tuple[list, list]:
    """Record, per chunk drawn, whether it can take the corner path (one
    column, no negative value, no NaN), and the index of every chunk that
    box_maxima reads."""
    corner, seen = [], []
    real_draw, real_maxima = convergence.draw_chunks, convergence.box_maxima

    def drawing(*args):
        for first, batch in real_draw(*args):
            corner.append(batch.shape[-1] == 1 and bool(np.all(batch >= 0)))
            yield first, batch

    def counting(q, *args):
        seen.append(len(corner) - 1)  # the chunk drawn last
        return real_maxima(q, *args)

    monkeypatch.setattr(convergence, "draw_chunks", drawing)
    monkeypatch.setattr(convergence, "box_maxima", counting)
    return corner, seen


@pytest.mark.parametrize("reps,per_chunk", CHUNKINGS)
@pytest.mark.parametrize("spec,schedule", ORACLE_CASES)
def test_box_maxima_sees_no_corner_chunk(monkeypatch, spec, schedule, reps, per_chunk):
    # in lp mode a chunk of one column with no negative value and no NaN reads
    # M_n at the box corners, and box_maxima sees every other chunk
    with_chunk(monkeypatch, schedule, per_chunk)
    corner, seen = watch_paths(monkeypatch)
    convergence._maxima(spec, schedule, 3, reps)
    assert seen == [i for i, c in enumerate(corner) if not c]
    nonnegative = spec.family in ("pareto_radial", "spiked_cui", "growing_non_cui") or (
        spec.family == "constant" and spec.param("c") >= 0)
    assert corner == [nonnegative] * len(corner)


@pytest.mark.parametrize("schedule,axis_1", [(SPARSE_2D, "chain"), (DENSE_2D, "sweep")], ids=["sparse", "dense"])
def test_corner_axes_take_reductions_only_for_sparse_corners(monkeypatch, schedule, axis_1):
    # on full chunks of the 32x64 top, box axis 1 (a run of 64 cells behind
    # it) takes one reduction per used coordinate when they are few, and a
    # whole sweep otherwise; the last axis, with no run behind it, is swept
    taken = []
    real_chain, real_prefix = lattice._chain_sums, lattice.prefix_table

    def chain(a, ax, used):
        taken.append((ax, "chain"))
        return real_chain(a, ax, used)

    def sweep(a, axes):
        taken.extend((ax, "sweep") for ax in axes)
        return real_prefix(a, axes)

    monkeypatch.setattr(lattice, "_chain_sums", chain)
    monkeypatch.setattr(lattice, "prefix_table", sweep)
    got = convergence._maxima(PARETO, schedule, 3, 64)
    assert taken == [(1, axis_1), (2, "sweep")] * 2  # two chunks of 32 reps
    assert np.array_equal(got, per_box_maxima(PARETO, schedule, 3, 64))


@pytest.mark.parametrize("schedule", [boxes("1;2"), boxes("1x2;2x1;2x2")], ids=["1d", "2d"])
def test_one_draw_takes_both_paths(monkeypatch, schedule):
    # signs in chunks of one rep on a small top box: a chunk of all +1 takes
    # the corner path and a signed chunk the full path, and each fills the
    # columns of its own rep
    with_chunk(monkeypatch, schedule, 1)
    reps = 24
    corner, seen = watch_paths(monkeypatch)
    got = convergence._maxima(SIGNS, schedule, 3, reps)
    assert len(corner) == reps and 0 < sum(corner) < reps
    assert seen == [i for i, c in enumerate(corner) if not c]
    want = per_box_maxima(SIGNS, schedule, 3, reps)
    for row, want_row in zip(got, want):
        assert np.array_equal(row, want_row)


class TestDraws:
    def test_one_draw_per_maximal_box_and_chunk(self, monkeypatch):
        monkeypatch.setattr(dist, "CHUNK_CELLS", 4 * 128)  # 4 reps of 4x32
        draws = count_draws(monkeypatch)
        run_lp_experiment(ExperimentConfig(SIGNS, 0.5, NON_CHAIN, reps=11, seed=0))
        assert draws == [
            ("16x4", 8, 0), ("16x4", 3, 8),
            ("4x32", 4, 0), ("4x32", 4, 4), ("4x32", 3, 8),
        ]

    def test_both_modes_draw_each_maximal_box_once(self, monkeypatch):
        # a centered series subtracts the closed-form mean (1.5 here) from
        # the chunks it draws, so it makes no more draws than an uncentered one
        tops = []
        real = convergence.draw_chunks

        def counting(spec, top, *args):
            tops.append(str(top))
            return real(spec, top, *args)

        monkeypatch.setattr(convergence, "draw_chunks", counting)
        for p, run in ((0.5, run_lp_experiment), (1.0, run_l1_experiment)):
            tops.clear()
            run(ExperimentConfig(PARETO, p, NON_CHAIN, reps=11, seed=0))
            assert tops == ["16x4", "4x32"]

    def test_dyadic_series_draws_largest_box_once(self, monkeypatch):
        draws = count_draws(monkeypatch)
        run_lp_experiment(ExperimentConfig(PARETO, 0.5, DYADIC_3D, reps=30, seed=0))
        assert draws == [("8x8x8", 30, 0)]


def test_maximal_boxes_are_found_without_comparing_every_pair(monkeypatch):
    # a dense chain of 512 boxes has one maximal box; a search that compares
    # each box with every other makes about 512^2 / 2 comparisons, which took
    # most of the run time of a 4096-box chain
    calls = []
    real = convergence.leq

    def counting(m, n):
        calls.append(None)
        return real(m, n)

    monkeypatch.setattr(convergence, "leq", counting)
    chain = tuple(MultiIndex((k,)) for k in range(1, 513))
    got = convergence._maxima(SIGNS, chain, 3, 2)
    assert len(calls) <= 2 * len(chain)
    assert np.array_equal(got[63::64], per_box_maxima(SIGNS, chain[63::64], 3, 2))


RSS_SCRIPT = """
import resource, sys
from cesaro_lab.convergence import ExperimentConfig, run_lp_experiment
from cesaro_lab.distributions import DistributionSpec
from cesaro_lab.lattice import dyadic_square_schedule
spec = DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1)
schedule = tuple(dyadic_square_schedule(1, 1 << 15))
run_lp_experiment(ExperimentConfig(spec, 0.5, schedule, reps=int(sys.argv[1]), seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_peak_memory_does_not_grow_with_reps():
    # 100 reps of the 32768-cell box already fill many chunks, so 400 reps
    # hold no more at once; drawing all reps at once needs 4x the arrays.
    src = str(Path(cesaro_lab.__file__).resolve().parents[1])
    peaks = []
    for reps in (100, 400):
        out = subprocess.run(
            [sys.executable, "-c", RSS_SCRIPT, str(reps)],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        peaks.append(int(out.stdout.strip()))
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("D", [8, 9])
def test_vector_series_holds_one_rep_of_values_and_scratch(D):
    # a 32^3 box of D-vectors is more values than a chunk, so the series
    # holds one rep at a time: its D columns, the keys plane and the normals'
    # two work planes (three for an odd D), and no copy of any of them
    spec = spec_of("iid_gaussian", d=D)
    cfg = ExperimentConfig(spec, 1.0, tuple(dyadic_square_schedule(3, 32768)), reps=4, seed=0)
    tracemalloc.start()
    try:
        run_l1_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 32768 * (D + 3 + D % 2) * 8, peak


class TestL1Experiment:
    def l1_config(self, spec, boxes, reps=50, seed=0, bound=None):
        sched = tuple(MultiIndex((k,)) for k in boxes)
        return ExperimentConfig(
            spec, 1.0, sched, reps=reps, seed=seed, bound_params=bound
        )

    def test_signs_two_cell_anchor(self):
        # E max(|X1|, |X1 + X2|) / 2 = (1/4)(2 + 1 + 1 + 2) / 2 = 0.75
        cfg = self.l1_config(SIGNS, (2,), reps=4000, seed=11)
        series = run_l1_experiment(cfg)
        pt = series.points[0]
        assert pt.moment == pytest.approx(0.75, abs=4.0 * pt.stderr + 1e-12)

    def test_deterministic_family_centers_to_zero(self):
        cfg = self.l1_config(spec_of("constant", c=2.5), (2, 4, 8), reps=5)
        series = run_l1_experiment(cfg)
        assert all(pt.moment == 0.0 for pt in series.points)

    def test_family_without_finite_mean_is_rejected_before_drawing(self, monkeypatch):
        # alpha <= 1: the mean is infinite, and the p = 1 result needs it bounded
        heavy = spec_of("pareto_radial", alpha=0.9)
        draws = count_draws(monkeypatch)
        with pytest.raises(ValueError, match="no finite mean; use --mode lp"):
            run_l1_experiment(self.l1_config(heavy, (2, 4), reps=20))
        assert draws == []

    def test_l1_bound_requires_constant(self, monkeypatch):
        cfg = self.l1_config(SIGNS, (2, 4), bound=BoundParams(eps=0.0, a=1.0))
        draws = count_draws(monkeypatch)
        with pytest.raises(ValueError):
            run_l1_experiment(cfg)
        assert draws == []  # rejected before anything is drawn

    def test_eq27_bound_attached(self):
        bound = BoundParams(eps=0.0, a=1.0, C=2.2)
        cfg = self.l1_config(SIGNS, (2, 4, 8), reps=50, bound=bound)
        series = run_l1_experiment(cfg)
        for pt in series.points:
            assert pt.bound == pytest.approx(bound_eq27(1.0, 2.2, pt.n))


class TestMoricz:
    def test_exact_anchor_single_cell(self):
        # max |S| is identically 1, so the ratio is 1 / log(2)^2
        pts = moricz_ratio(SIGNS, [MultiIndex((1,))], reps=200, seed=1)
        assert pts[0].ratio == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-12)
        assert pts[0].num_stderr == 0.0

    def test_two_cell_anchor_within_monte_carlo_error(self):
        # exhaustive over sign pairs: E max(S_1^2, S_2^2) = (4+1+1+4)/4 = 2.5
        exact = 2.5 / (2.0 * math.log(4.0) ** 2)
        pts = moricz_ratio(SIGNS, [MultiIndex((2,))], reps=4000, seed=5)
        pt = pts[0]
        se_ratio = pt.num_stderr / pt.denominator
        assert pt.ratio == pytest.approx(exact, abs=3.0 * se_ratio)

    def test_ratios_stay_small_for_iid_signs(self):
        pts = moricz_ratio(SIGNS, dyadic_square_schedule(1, 256), reps=200, seed=2)
        assert max(p.ratio for p in pts) <= 10.0

    def test_second_moments_checked_before_any_draw(self, monkeypatch):
        # the second box is outside the family's d = 1 domain
        draws = count_draws(monkeypatch)
        pairwise = spec_of("pairwise_rademacher", m=3)
        with pytest.raises(ValueError):
            moricz_ratio(pairwise, [MultiIndex((2,)), MultiIndex((2, 2))], reps=5)
        assert draws == []

    def test_gates(self):
        with pytest.raises(ValueError):
            moricz_ratio(SIGNS, [MultiIndex((2,))], reps=0)
        # the mean law must be zero: not a nonzero constant, not pareto with a
        # nonzero mean (alpha 3) or none in closed form (alpha 0.8), and not
        # spiked cells, which are zero only off the spikes
        heavy = spec_of("pareto_radial", alpha=0.8)
        for spec in (CONSTANT, PARETO, heavy, spec_of("spiked_cui")):
            with pytest.raises(ValueError, match="zero-mean"):
                moricz_ratio(spec, [MultiIndex((4,))])
        with pytest.raises(ValueError):
            moricz_ratio(ZERO, [MultiIndex((2,))])  # second moments all zero
        with pytest.raises(ValueError):
            moricz_ratio(SIGNS, [])


class TestTrend:
    def test_halving_and_slope_pass(self):
        series = series_from_moments([1.0, 0.6, 0.4, 0.3])
        verdict = trend_test(series)
        assert verdict.passed and verdict.halving_ok and verdict.slope_ok
        assert verdict.slope < 0

    def test_flat_series_fails(self):
        verdict = trend_test(series_from_moments([0.5, 0.5, 0.5, 0.5]))
        assert not verdict.passed
        assert not verdict.halving_ok

    def test_shallow_decrease_fails_halving(self):
        verdict = trend_test(series_from_moments([1.0, 0.9, 0.8, 0.7]))
        assert verdict.slope_ok
        assert not verdict.halving_ok
        assert not verdict.passed

    def test_zero_moments_fail_slope(self):
        verdict = trend_test(series_from_moments([1.0, 0.4, 0.1, 0.0]))
        assert not verdict.slope_ok
        assert math.isnan(verdict.slope)

    def test_noise_blocks_certification(self):
        series = series_from_moments([1.0, 0.6, 0.5, 0.45], stderr=0.2)
        assert not trend_test(series).passed

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            trend_test(series_from_moments([1.0, 0.2, 0.1]))

    def test_linear_growth_profile_fails(self):
        # deterministic cells of norm i: the scaled moment is essentially flat
        series = run_lp_experiment(
            lp_config(GROWING_LINEAR, boxes=(2, 4, 8, 16, 32), reps=2)
        )
        moments = [pt.moment for pt in series.points]
        assert moments[-1] > moments[0] / 2.0
        assert not trend_test(series).passed

    def test_square_root_growth_still_converges(self):
        # sqrt-growth norms keep the maximal sum at n^(3/2), and the scaled
        # moment ~ n^(-1/4) still vanishes: absence of CUI is not visible in
        # this series, which is why the negative control uses linear growth
        series = run_lp_experiment(
            lp_config(spec_of("growing_non_cui", exponent=0.5),
                      boxes=(4, 16, 64, 256, 1024), reps=2)
        )
        assert trend_test(series).passed


class TestDomination:
    def test_margins_and_verdict(self):
        bounds = [1.5, 1.0, 0.8, 0.7]
        series = series_from_moments([1.0, 0.6, 0.4, 0.3], bounds=bounds)
        report = bound_domination_check(series)
        assert report.all_pass
        assert len(report.margins) == 4
        assert all(m >= 0 for m in report.margins)

    def test_violation_detected(self):
        series = series_from_moments([1.0, 0.6], bounds=[1.5, 0.5])
        report = bound_domination_check(series)
        assert not report.all_pass

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            bound_domination_check(series_from_moments([1.0, 0.5]))

    def test_verdict_is_the_margin_rule(self):
        # each point's bound_pass, moment <= envelope + 3 stderr, against its
        # margin >= 0, over rows of reps whose moment and stderr are finite,
        # inf or NaN, and envelopes below, at and above the moment
        big = np.finfo(np.float64).max
        rows = [[0.5, 0.5], [0.25, 0.75], [1.0, 3.0], [math.inf, math.inf],
                [math.inf, 1.0], [math.nan, 1.0], [big, -big], [big, big]]
        envelopes = [1e-300, 0.25, 0.5, 1.0, 2.0, 1e300]
        grid = [(r, e) for r in rows for e in envelopes]
        sched = tuple(MultiIndex((k,)) for k in range(1, len(grid) + 1))
        cfg = ExperimentConfig(CONSTANT, 0.5, sched, reps=2, seed=0,
                               bound_params=BoundParams(1.0, 1.0))
        series = convergence._series(cfg, "lp", values=lambda M, n: np.array(grid[n.size - 1][0]),
                                     bound=lambda bp, n: grid[n.size - 1][1])
        report = bound_domination_check(series)
        stderrs = {pt.stderr for pt in series.points}
        assert {0.0, math.inf} <= stderrs and any(math.isnan(se) for se in stderrs)
        for pt, margin in zip(series.points, report.margins):
            assert pt.bound_pass is (margin >= 0)
        assert report.all_pass is False and any(pt.bound_pass for pt in series.points)


class TestSeriesSerialization:
    def test_csv_layout(self):
        bound = BoundParams(eps=0.1, a=4.0)
        series = run_lp_experiment(lp_config(PARETO, reps=20, bound=bound))
        lines = series.to_csv_text().strip().split("\n")
        assert lines[0] == "d,n_coords,size,moment,stderr,bound,pass"
        cells = lines[1].split(",")
        assert cells[0] == "1" and cells[1] == "2" and cells[2] == "2"
        assert cells[6] in ("true", "false")

    def test_csv_empty_bound_columns(self):
        series = run_lp_experiment(lp_config(CONSTANT, reps=2))
        line = series.to_csv_text().strip().split("\n")[1]
        assert line.endswith(",,")

    def test_json_payload(self):
        series = run_lp_experiment(lp_config(CONSTANT, reps=2))
        payload = _py(series)
        assert payload["mode"] == "lp"
        assert payload["points"][0]["n"] == "2"
        assert payload["spec"]["family"] == "constant"

    @pytest.mark.parametrize("mode", ["lp", "l1"])
    def test_json_keys_are_the_file_shape(self, mode):
        # series.json is the series' own fields, so a new field would add a
        # key to every file: pin the keys and the derived values
        if mode == "lp":
            series = run_lp_experiment(lp_config(PARETO, reps=5, bound=BoundParams(0.1, 4.0)))
        else:
            series = run_l1_experiment(ExperimentConfig(PARETO, 1.0, boxes("2;4"), reps=5, seed=0))
        payload = _py(series)
        assert set(payload) == {"mode", "p", "reps", "seed", "pairwise_warning", "low_reps",
                                "spec", "points"}
        for point in payload["points"]:
            assert set(point) == {"n", "size", "moment", "stderr", "bound", "bound_pass"}
        assert payload["pairwise_warning"] is False
        assert payload["spec"] == series.spec.to_json()
        assert (payload["points"][0]["bound"] is None) is (mode == "l1")
