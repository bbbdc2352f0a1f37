import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cesaro_lab
from cesaro_lab import convergence
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
        mode="lp", p=0.5, reps=10, seed=0, centering=None,
        low_reps=True, spec=CONSTANT,
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
        for bad in [(0.0, 1.0, 0.5), (0.1, 0.0, 0.5), (0.1, 1.0, 1.0)]:
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
            got = running_max_norms(prefix_table(batch, axes), n.d)
            assert np.array_equal(got, running_max_norms(prefix_table(padded, axes), n.d))
        assert np.all(np.isinf(got[(Ellipsis,) + (-1,) * n.d])) == overflows

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
    """Reference path: every box drawn, centered and swept on its own, with
    the analytic per-cell means or else the plug-in mean batch.mean(axis=0);
    M_n is the max of the box's partial norms. Shape (len(schedule), reps).
    The batch is copied cell-major first: np.sum over a contiguous last axis
    adds in the order the library's plane_sum reproduces, and over the
    plane-major batch sample_batch returns it would add in another."""
    out = []
    for n in schedule:
        batch = np.ascontiguousarray(sample_batch(spec, n, seed, reps))
        if center:
            means = dist.mean(spec, n)
            batch -= batch.mean(axis=0, keepdims=True) if means is None else means
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

ORACLE_CASES = [
    pytest.param(spec_of("constant", d=3, c=2.0), NON_CHAIN, id="constant"),
    pytest.param(spec_of("spiked_cui", gap_base=2), DYADIC_1D, id="spiked_cui"),
    pytest.param(spec_of("growing_non_cui", exponent=0.5), DYADIC_1D, id="growing_non_cui"),
    pytest.param(spec_of("pairwise_rademacher", m=3), DYADIC_1D, id="pairwise_rademacher"),
    pytest.param(spec_of("iid_rademacher"), NON_CHAIN, id="iid_rademacher"),
    pytest.param(spec_of("pareto_radial", alpha=3.0), DYADIC_3D, id="pareto_radial"),
    pytest.param(spec_of("iid_gaussian", d=3), DYADIC_3D, id="iid_gaussian"),
    pytest.param(spec_of("iid_gaussian", d=8), NON_CHAIN, id="iid_gaussian-D8"),
    # no closed-form mean: l1 centers with the plug-in mean
    pytest.param(spec_of("pareto_radial", alpha=0.8), NON_CHAIN, id="pareto-plugin"),
    # |s| > 1e154 is drawn here, so S*S overflows; plug-in centering makes NaN
    pytest.param(spec_of("pareto_radial", alpha=0.02), NON_CHAIN, id="pareto-overflow"),
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
        with np.errstate(over="ignore", invalid="ignore"):
            centering = None if not center else (
                "plugin" if dist.mean(spec, schedule[-1]) is None else "analytic")
            got = convergence._maxima(spec, schedule, 3, reps, centering)
            want = per_box_maxima(spec, schedule, 3, reps, center)
            assert np.array_equal(got, want, equal_nan=True)
            series = run(cfg)
            monkeypatch.setattr(
                convergence, "_maxima",
                lambda spec, sched, seed, reps, centering=None: per_box_maxima(
                    spec, sched, seed, reps, centering is not None),
            )
            want_series = run(cfg)
        assert np.array_equal(
            [(p.moment, p.stderr) for p in series.points],
            [(p.moment, p.stderr) for p in want_series.points],
            equal_nan=True,
        )
        assert series.centering == centering

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

    def test_plugin_mean_is_summed_in_rep_order(self):
        # The plug-in mean of a cell is the same whichever box reads it:
        # rows added in rep order, then divided by reps, which is what
        # batch.mean(axis=0) does on any batch of more than one cell. On a
        # one-cell batch numpy sums the reps pairwise instead, so there the
        # reference path differs in the last bits.
        spec = spec_of("pareto_radial", alpha=0.8)
        schedule = boxes("1;2;4")
        got = convergence._maxima(spec, schedule, 3, 60, "plugin")
        want = per_box_maxima(spec, schedule, 3, 60, center=True)
        assert np.array_equal(got[1:], want[1:])
        assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)
        batch = sample_batch(spec, schedule[-1], 3, 60)
        assert np.array_equal(sum(batch) / 60, batch.mean(axis=0))
        rows = batch[:, :1]
        assert np.array_equal(np.abs(rows - sum(rows) / 60)[:, 0, 0], got[0])


class TestDraws:
    def test_one_draw_per_maximal_box_and_chunk(self, monkeypatch):
        monkeypatch.setattr(dist, "CHUNK_CELLS", 4 * 128)  # 4 reps of 4x32
        draws = count_draws(monkeypatch)
        run_lp_experiment(ExperimentConfig(SIGNS, 0.5, NON_CHAIN, reps=11, seed=0))
        assert draws == [
            ("16x4", 8, 0), ("16x4", 3, 8),
            ("4x32", 4, 0), ("4x32", 4, 4), ("4x32", 3, 8),
        ]

    def test_plugin_centering_draws_twice(self, monkeypatch):
        monkeypatch.setattr(dist, "CHUNK_CELLS", 4 * 64)
        draws = count_draws(monkeypatch)
        heavy = spec_of("pareto_radial", alpha=0.8)
        cfg = ExperimentConfig(heavy, 1.0, DYADIC_1D, reps=9, seed=0)
        assert run_l1_experiment(cfg).centering == "plugin"
        assert draws == [("64", 4, 0), ("64", 4, 4), ("64", 1, 8)] * 2

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
        assert series.centering == "analytic"

    def test_deterministic_family_centers_to_zero(self):
        cfg = self.l1_config(spec_of("constant", c=2.5), (2, 4, 8), reps=5)
        series = run_l1_experiment(cfg)
        assert all(pt.moment == 0.0 for pt in series.points)

    def test_plugin_centering_when_no_closed_form_mean(self):
        heavy = spec_of("pareto_radial", alpha=0.9)
        series = run_l1_experiment(self.l1_config(heavy, (2, 4), reps=20))
        assert series.centering == "plugin"
        assert series.pairwise_warning is False

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
            heavy = spec_of("pareto_radial", alpha=0.8)  # no mean: plug-in centering
            series = run_l1_experiment(ExperimentConfig(heavy, 1.0, boxes("2;4"), reps=5, seed=0))
            assert series.centering == "plugin"
        payload = _py(series)
        assert set(payload) == {"mode", "p", "reps", "seed", "center", "centering",
                                "pairwise_warning", "low_reps", "spec", "points"}
        for point in payload["points"]:
            assert set(point) == {"n", "size", "moment", "stderr", "bound", "bound_pass"}
        assert payload["center"] is (mode == "l1")
        assert payload["pairwise_warning"] is False
        assert payload["spec"] == series.spec.to_json()
        assert (payload["points"][0]["bound"] is None) is (mode == "l1")
