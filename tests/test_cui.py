import json
import math

import numpy as np
import pytest

import cesaro_lab.cui as cui
from cesaro_lab.cui import (
    DEFAULT_A_GRID,
    EventArray,
    adversarial_event_array,
    build_cui_report,
    cesaro_tail_sup,
    check_criterion_i,
    check_event_criterion,
    cui_certificate,
    derive_delta,
    markov_event_array,
    verify_criterion_equivalence,
)
from cesaro_lab.distributions import DistributionSpec, NormSample, norm_batch
from cesaro_lab.lattice import MultiIndex


def spec_of(family, d=1, mode="analytic", **params):
    return DistributionSpec(family, params, dim_D=d, moment_mode=mode)


CONSTANT = spec_of("constant", c=1.0)
PARETO = spec_of("pareto_radial", alpha=3.0)
SPIKED = spec_of("spiked_cui", gap_base=2)
GROWING = spec_of("growing_non_cui", exponent=0.5)


class TestTailSup:
    def test_constant_below_and_above_norm(self):
        sample = NormSample(CONSTANT, MultiIndex((16,)))
        est = cesaro_tail_sup(sample, 1.0, 0.5)
        assert est.value == pytest.approx(1.0)
        assert est.mode == "analytic"
        assert est.stderr == 0.0
        # strict indicator: nothing exceeds the constant's own norm
        assert cesaro_tail_sup(sample, 1.0, 1.0).value == 0.0
        # weak indicator keeps the mass at the boundary level
        ge = cesaro_tail_sup(sample, 1.0, 1.0, ge=True)
        assert ge.value == pytest.approx(1.0)

    def test_growing_first_moment_anchor(self):
        # (1 + sqrt 2 + sqrt 3 + 2) / 4, frozen from direct evaluation
        est = cesaro_tail_sup(
            NormSample(GROWING, MultiIndex((4,))), 1.0, 0.0, schedule=[MultiIndex((4,))]
        )
        assert est.value == 1.5365660924854931

    def test_growing_criterion_i_attained_at_largest_box(self):
        est = check_criterion_i(
            NormSample(GROWING, MultiIndex((4,))),
            schedule=[MultiIndex((1,)), MultiIndex((2,)), MultiIndex((4,))],
        )
        assert est.value == 1.5365660924854931
        assert est.argmax_box == MultiIndex((4,))

    def test_growing_tails_increase_with_horizon(self):
        values = [
            cesaro_tail_sup(NormSample(GROWING, MultiIndex((h,))), 1.0, 5.0).value
            for h in (64, 256, 1024, 10_000)
        ]
        assert values == sorted(values)
        assert values[-1] > 10.0

    def test_pareto_analytic_sup_is_cellwise_constant(self):
        est = cesaro_tail_sup(NormSample(PARETO, MultiIndex((64,))), 1.0, 2.0)
        assert est.value == pytest.approx(1.5 * 2.0 ** (-2.0), rel=1e-9)

    def test_empirical_mode_agrees_with_analytic(self):
        emp = cesaro_tail_sup(
            NormSample(
                spec_of("pareto_radial", alpha=3.0, mode="empirical"),
                MultiIndex((512,)),
                seed=5,
                reps=200,
            ),
            1.0,
            2.0,
        )
        assert emp.mode == "empirical"
        assert emp.stderr > 0.0
        assert emp.value == pytest.approx(0.375, abs=0.05)
        assert not emp.low_reps

    def test_low_reps_flag(self):
        emp = cesaro_tail_sup(
            NormSample(spec_of("iid_gaussian"), MultiIndex((32,)), seed=0, reps=5), 1.0, 1.0
        )
        assert emp.low_reps

    def test_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((4,)))
        with pytest.raises(ValueError):
            cesaro_tail_sup(sample, 0.0, 1.0)
        with pytest.raises(ValueError):
            cesaro_tail_sup(sample, 1.2, 1.0)
        with pytest.raises(ValueError):
            cesaro_tail_sup(sample, 1.0, -1.0)
        with pytest.raises(ValueError):
            cesaro_tail_sup(sample, 1.0, 1.0, schedule=[MultiIndex((8,))])


class TestCertificate:
    def test_constant_certifies_at_one(self):
        assert cui_certificate(NormSample(CONSTANT, MultiIndex((64,))), 1.0, 0.5) == 1.0

    def test_pareto_levels(self):
        sample = NormSample(PARETO, MultiIndex((4096,)))
        # tail(a) = 1.5 a^-2 under p=1: first grid level below eps
        assert cui_certificate(sample, 1.0, 0.5) == 2.0
        assert cui_certificate(sample, 1.0, 0.1) == 4.0
        assert cui_certificate(sample, 0.5, 0.1) == 4.0

    def test_growing_has_no_certificate(self):
        assert cui_certificate(NormSample(GROWING, MultiIndex((10_000,))), 1.0, 0.5) is None

    def test_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((4096,)))
        with pytest.raises(ValueError):
            cui_certificate(sample, 1.0, 0.0)
        with pytest.raises(ValueError):
            cui_certificate(sample, 1.0, 0.5, a_grid=[2.0, 1.0])
        with pytest.raises(ValueError):
            cui_certificate(sample, 1.0, 0.5, a_grid=[])


class TestDeltaDevice:
    def test_value(self):
        assert derive_delta(0.5, 2.0) == 0.125
        assert derive_delta(1.0, 1.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_delta(0.0, 1.0)
        with pytest.raises(ValueError):
            derive_delta(0.5, 0.0)


class TestEventArrays:
    def test_requires_some_content(self):
        with pytest.raises(ValueError):
            EventArray(MultiIndex((2,)))
        with pytest.raises(ValueError):
            EventArray(MultiIndex((2,)), probs=np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            EventArray(MultiIndex((2,)), probs=np.zeros(3))
        with pytest.raises(ValueError):
            EventArray(MultiIndex((2,)), indicators=np.zeros(2, dtype=bool))

    def test_markov_constant_low_threshold_fills_everything(self):
        ev = markov_event_array(NormSample(CONSTANT, MultiIndex((8,))), K=1.0, delta=2.0)
        assert ev.threshold == 0.5
        assert np.all(ev.probs == 1.0)

    def test_markov_constant_high_threshold_is_empty(self):
        ev = markov_event_array(NormSample(CONSTANT, MultiIndex((8,))), K=1.0, delta=0.25)
        assert ev.threshold == 4.0
        assert np.all(ev.probs == 0.0)

    def test_markov_pareto_uses_analytic_probabilities(self):
        ev = markov_event_array(NormSample(PARETO, MultiIndex((4,))), K=1.5, delta=0.75)
        assert ev.probs is not None
        assert np.allclose(ev.probs, 2.0**-3)

    def test_markov_gaussian_falls_back_to_indicators(self):
        spec = spec_of("iid_gaussian")
        ev = markov_event_array(NormSample(spec, MultiIndex((8,)), reps=40), K=1.0, delta=0.5)
        assert ev.probs is None
        assert ev.indicators.shape == (40, 8)
        assert ev.source_seed == 0 and ev.source_reps == 40

    def test_markov_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((2,)))
        with pytest.raises(ValueError):
            markov_event_array(sample, K=0.0, delta=0.5)
        with pytest.raises(ValueError):
            markov_event_array(sample, K=1.0, delta=0.0)


class TestEventCriterion:
    def test_constant_wide_margins(self):
        sample = NormSample(CONSTANT, MultiIndex((8,)))
        ev = markov_event_array(sample, K=1.0, delta=2.0)
        rep = check_event_criterion(sample, ev, delta=2.0, eps=2.0)
        assert rep.premise_holds and rep.conclusion_holds and rep.verdict
        assert rep.prob_sup == pytest.approx(1.0)
        assert rep.moment_sup == pytest.approx(1.0)

    def test_empty_events_have_zero_moment(self):
        ev = EventArray(MultiIndex((8,)), probs=np.zeros(8))
        rep = check_event_criterion(NormSample(CONSTANT, ev.box), ev, delta=0.5, eps=0.5)
        assert rep.prob_sup == 0.0
        assert rep.moment_sup == 0.0
        assert rep.verdict

    def test_failed_premise_is_vacuous(self):
        ev = EventArray(MultiIndex((8,)), probs=np.ones(8))
        rep = check_event_criterion(NormSample(CONSTANT, ev.box), ev, delta=0.5, eps=1e-9)
        assert not rep.premise_holds
        assert rep.verdict  # implication with a false premise

    @pytest.mark.parametrize("source_seed", [0, 7])
    def test_indicator_moments_couple_to_the_source_seed(self, source_seed):
        # seed 0 is a real source seed, not "unset": the moments must come
        # from the same draw as the indicators, whatever seed the check gets
        spec = spec_of("pareto_radial", alpha=3.0, mode="empirical")
        box = MultiIndex((256,))
        norms = norm_batch(spec, box, seed=source_seed, reps=50)
        ev = EventArray(box, indicators=norms >= 2.0,
                        source_seed=source_seed, source_reps=50)
        rep = check_event_criterion(NormSample(spec, box, seed=5), ev, delta=0.5, eps=0.5)
        coupled = cesaro_tail_sup(
            NormSample(spec, box, seed=source_seed, reps=50), 1.0, 2.0, ge=True
        )
        assert rep.moment_sup == coupled.value
        assert rep.moment_stderr == coupled.stderr

    def test_validation(self):
        ev = EventArray(MultiIndex((4,)), probs=np.zeros(4))
        with pytest.raises(ValueError):
            check_event_criterion(NormSample(CONSTANT, ev.box), ev, delta=0.0, eps=1.0)
        with pytest.raises(ValueError, match="box"):
            check_event_criterion(NormSample(CONSTANT, MultiIndex((8,))), ev, delta=0.5, eps=1.0)


class TestAdversarialEvents:
    def test_respects_delta_on_every_box(self):
        delta = 0.3
        horizon = MultiIndex((16,))
        ev = adversarial_event_array(NormSample(GROWING, horizon), delta)
        assert set(np.unique(ev.probs)) <= {0.0, 1.0}
        schedule = [MultiIndex((k,)) for k in (1, 2, 4, 8, 16)]
        for box in schedule:
            assert ev.probs[: box.coords[0]].mean() < delta

    def test_prefers_largest_cells(self):
        # the growing family's largest norms sit at the top of the box
        ev = adversarial_event_array(NormSample(GROWING, MultiIndex((16,))), 0.26)
        chosen = np.nonzero(ev.probs)[0] + 1
        assert chosen.size > 0
        assert 16 in chosen

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_event_array(NormSample(GROWING, MultiIndex((8,))), 0.0)


class TestEquivalence:
    @pytest.mark.parametrize(
        "spec", [CONSTANT, PARETO, SPIKED], ids=lambda s: s.family
    )
    def test_passes_for_cui_families(self, spec):
        report = verify_criterion_equivalence(
            NormSample(spec, MultiIndex((1024,)), seed=3, reps=100), [0.5, 0.1]
        )
        assert report.cui_certified
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert report.K > 0.0
        names = [c.name for c in report.checks]
        assert "criterion_i_bounded_means" in names
        assert any("adversarial" in n for n in names)
        assert any("criterion_ii[markov]" in n for n in names)
        assert any("cui_tail_recovered" in n for n in names)

    def test_fails_for_growing_family(self):
        # the horizon must outrun the truncation grid: at 10^4 the largest
        # norm is 100, beyond the grid's top level, so no certificate exists
        report = verify_criterion_equivalence(
            NormSample(GROWING, MultiIndex((10_000,)), seed=3, reps=50), [0.5]
        )
        assert not report.cui_certified
        assert not report.passed

    def test_growing_certifies_trivially_below_grid_top(self):
        # finite-horizon caveat: with every norm <= 64 and 64 on the grid,
        # the strict-tail certificate is vacuous; verdicts are grid-relative
        report = verify_criterion_equivalence(
            NormSample(GROWING, MultiIndex((4096,)), seed=3, reps=50), [0.5]
        )
        assert report.cui_certified

    def test_json_round_trips(self):
        report = verify_criterion_equivalence(
            NormSample(CONSTANT, MultiIndex((64,)), seed=3, reps=50), [0.5]
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["passed"] is True
        assert payload["eps_list"] == [0.5]
        assert all("name" in c and "passed" in c for c in payload["checks"])

    def test_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        with pytest.raises(ValueError):
            verify_criterion_equivalence(sample, [])
        with pytest.raises(ValueError):
            verify_criterion_equivalence(sample, [-0.5])


class TestCuiReport:
    def test_csv_and_json_shape(self):
        report = build_cui_report(
            NormSample(PARETO, MultiIndex((256,))), 1.0, a_grid=(1.0, 2.0, 4.0)
        )
        text = report.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "a,tail_sup,stderr"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(1.5, rel=1e-9)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["mode"] == "analytic"
        assert payload["horizon"] == "256"
        assert len(payload["a_grid"]) == 3

    def test_default_grid_is_disclosed(self):
        report = build_cui_report(NormSample(CONSTANT, MultiIndex((64,))), 1.0)
        assert report.a_grid == tuple(float(a) for a in DEFAULT_A_GRID)
