import math

import numpy as np
import pytest

from cesaro_lab.convergence import (
    BoundParams,
    _max_partial_norms,
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
from cesaro_lab.lattice import MultiIndex, dyadic_square_schedule


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
        spec, p, sched, reps=reps, seed=seed, center=False, bound_params=bound
    )


def series_from_moments(moments, stderr=0.0, bounds=None):
    pts = []
    for k, m in enumerate(moments):
        size = 2 ** (k + 1)
        b = None if bounds is None else bounds[k]
        ok = None if b is None else (m <= b + 3 * stderr)
        pts.append(SeriesPoint(MultiIndex((size,)), size, m, stderr, b, ok))
    return ConvergenceSeries(
        mode="lp", p=0.5, reps=10, seed=0, center=False, centering=None,
        pairwise_warning=False, low_reps=True, spec_json=CONSTANT.to_json(),
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

    def test_mode_gates(self):
        cfg = lp_config(CONSTANT, p=1.0)
        with pytest.raises(ValueError):
            run_lp_experiment(cfg)  # p = 1 belongs to the centered mode
        with pytest.raises(ValueError):
            run_l1_experiment(cfg)  # centering flag not set


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
        with np.errstate(over="ignore"):
            got = _max_partial_norms(batch, n.d)
            assert np.array_equal(got, _max_partial_norms(padded, n.d))
        assert np.all(np.isinf(got)) == overflows

    @pytest.mark.parametrize("alpha,coords", [(3.0, (8, 8)), (0.02, (64, 64))])
    def test_pareto_column_is_the_norm(self, alpha, coords):
        spec = spec_of("pareto_radial", d=8, alpha=alpha)
        n = MultiIndex(coords)
        batch = sample_batch(spec, n, seed=5, reps=20)
        assert np.array_equal(batch[..., 0], norm_batch(spec, n, seed=5, reps=20))


class TestL1Experiment:
    def l1_config(self, spec, boxes, reps=50, seed=0, bound=None):
        sched = tuple(MultiIndex((k,)) for k in boxes)
        return ExperimentConfig(
            spec, 1.0, sched, reps=reps, seed=seed, center=True, bound_params=bound
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
        assert not series.pairwise_warning

    def test_l1_bound_requires_constant(self):
        cfg = self.l1_config(SIGNS, (2, 4), bound=BoundParams(eps=0.0, a=1.0))
        with pytest.raises(ValueError):
            run_l1_experiment(cfg)

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

    def test_gates(self):
        with pytest.raises(ValueError):
            moricz_ratio(CONSTANT, [MultiIndex((2,))])  # not zero mean
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
        payload = series.to_json()
        assert payload["mode"] == "lp"
        assert payload["points"][0]["n"] == "2"
        assert payload["spec"]["family"] == "constant"
