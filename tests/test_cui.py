import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cesaro_lab.cui as cui
from cesaro_lab import cli
from cesaro_lab.cui import (
    DEFAULT_A_GRID,
    EventArray,
    adversarial_event_array,
    build_cui_report,
    cesaro_tail_sup,
    check_event_criterion,
    cui_certificate,
    derive_delta,
    markov_event_array,
    verify_criterion_equivalence,
)
import cesaro_lab.distributions as dist
from cesaro_lab.distributions import DistributionSpec, NormSample, Tail
from cesaro_lab.lattice import MultiIndex, dyadic_boxes, row_chunks
from cesaro_lab.poussin import (
    PhiFunction,
    phi_eval_many,
    poussin_forward_check,
    poussin_moment_check,
)
from oracles import adversarial_by_coords, profile_by_segments, rep_sum_by_rows


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
        est = cesaro_tail_sup(NormSample(GROWING, MultiIndex((4,))), 1.0, 0.0)
        assert est.value == 1.5365660924854931

    def test_growing_criterion_i_attained_at_largest_box(self):
        est = cesaro_tail_sup(NormSample(GROWING, MultiIndex((4,))), 1.0, 0.0)
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

    def test_one_replication_reads_its_row_with_stderr_0(self):
        spec = spec_of("pareto_radial", alpha=3.0, mode="empirical")
        box = MultiIndex((64,))
        est = cesaro_tail_sup(NormSample(spec, box, seed=3, reps=1), 1.0, 1.5)
        row = dist.norm_batch(spec, box, 3, 1)
        assert est.value == profile_by_segments(row, box, levels=[1.5]).max()
        assert est.stderr == 0.0 and est.low_reps

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
        with pytest.raises(ValueError, match="exactly one"):
            EventArray(MultiIndex((2,)), probs=np.zeros(2), threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            EventArray(MultiIndex((2,)), threshold=-1.0)
        assert EventArray(MultiIndex((2,)), threshold=math.inf).threshold == math.inf

    def test_markov_constant_low_threshold_fills_everything(self):
        sample = NormSample(CONSTANT, MultiIndex((8,)))
        ev = markov_event_array(sample, K=1.0, delta=2.0)
        assert (ev.threshold, ev.probs) == (0.5, None)
        assert check_event_criterion(sample, ev, delta=2.0, eps=2.0).prob_sup == 1.0

    def test_markov_constant_high_threshold_is_empty(self):
        sample = NormSample(CONSTANT, MultiIndex((8,)))
        ev = markov_event_array(sample, K=1.0, delta=0.25)
        assert ev.threshold == 4.0
        rep = check_event_criterion(sample, ev, delta=0.25, eps=0.5)
        assert (rep.prob_sup, rep.moment_sup) == (0.0, 0.0)

    def test_markov_pareto_uses_analytic_probabilities(self):
        sample = NormSample(PARETO, MultiIndex((4,)))
        ev = markov_event_array(sample, K=1.5, delta=0.75)
        rep = check_event_criterion(sample, ev, delta=0.75, eps=1.0)
        assert rep.prob_sup == pytest.approx(2.0**-3) and rep.prob_stderr == 0.0
        # E(X 1(X >= 2)) = 3/2 * 2^-2 for Pareto(3)
        assert rep.moment_sup == pytest.approx(0.375) and rep.moment_stderr == 0.0

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

    def test_infinite_first_moments_stay_off_empty_cells(self):
        # Pareto(0.8) has E||X|| = inf in every cell: a cell of probability 0
        # must add 0 to the event moment, not 0 * inf = nan
        sample = NormSample(spec_of("pareto_radial", alpha=0.8), MultiIndex((256,)))
        empty = EventArray(sample.box, probs=np.zeros(sample.box.coords))
        greedy = adversarial_event_array(sample, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep_empty = check_event_criterion(sample, empty, delta=0.25, eps=0.5)
            rep_greedy = check_event_criterion(sample, greedy, delta=0.25, eps=0.5)
        assert rep_empty.moment_sup == 0.0 and rep_empty.verdict
        assert rep_greedy.premise_holds
        assert rep_greedy.moment_sup == math.inf and not rep_greedy.conclusion_holds

    def test_pareto_markov_event_at_infinite_threshold_is_empty(self):
        # Pareto(0.8) has E||X|| = inf, but no mass lies at or above inf: the
        # empty Markov event has zero moments and keeps its conclusion
        sample = NormSample(spec_of("pareto_radial", alpha=0.8), MultiIndex((256,)))
        assert cesaro_tail_sup(sample, 1.0, math.inf).value == 0.0
        ev = EventArray(sample.box, threshold=math.inf)
        rep = check_event_criterion(sample, ev, delta=0.25, eps=0.5)
        assert rep.prob_sup == 0.0 and rep.moment_sup == 0.0
        assert rep.conclusion_holds and rep.verdict

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

    @pytest.mark.parametrize("box", [(7,), (3, 57), (5, 1, 9)], ids=str)
    def test_equals_the_coordinate_greedy(self, box):
        """The boxes that hold a cell, read off its dyadic shell, are those
        whose coordinates all exceed the cell's: the same events as the
        coordinate-compare greedy, from a closed-form mean and from a
        realized one, on sides that are not powers of two. Means drawn from
        a few values tie often, and ties go in cell order."""
        horizon = MultiIndex(box)
        gen = np.random.default_rng(box)
        spec = spec_of("pareto_radial", mode="empirical", alpha=1.5)

        class ClosedForm(NormSample):
            def closed_form(self, g):
                return self.mean

        class Realized(NormSample):
            def closed_form(self, g):
                return None

            def chunks(self):
                return row_chunks(self.norms.copy(), self.box)

        for values in (2, 5, 1000):
            closed = ClosedForm(spec, horizon)
            closed.mean = gen.integers(0, values, size=box).astype(np.float64)
            realized = Realized(spec, horizon, reps=6)
            realized.norms = gen.integers(0, values, size=(6,) + box).astype(np.float64)
            mean = rep_sum_by_rows([(0, Tail(1.0, 0.0)(realized.norms))]) / 6
            for delta in (0.05, 0.2, 0.5, 0.9):
                for sample, fld in [(closed, closed.mean), (realized, mean)]:
                    assert np.array_equal(
                        adversarial_event_array(sample, delta).probs,
                        adversarial_by_coords(fld, horizon, delta),
                    )

    @pytest.mark.parametrize("box", [(64,), (8, 8), (4, 2, 4)])
    def test_streamed_mean_picks_the_cells_of_the_whole_sample_mean(self, box):
        # the per-cell mean over reps is accumulated rep by rep; the greedy it
        # feeds picks the cells it picks from g of the whole sample
        sample = NormSample(spec_of("pareto_radial", mode="empirical", alpha=1.5),
                            MultiIndex(box), 4, 37)
        norms = dist.norm_batch(sample.spec, sample.box, sample.seed, sample.reps)
        whole = dist.Tail(1.0, 0.0)(norms).mean(axis=0)

        class WholeMean(NormSample):
            def closed_form(self, g):
                return whole

        oracle = WholeMean(sample.spec, sample.box, sample.seed, sample.reps)
        for delta in (0.05, 0.2, 0.5):
            assert np.array_equal(
                adversarial_event_array(sample, delta).probs,
                adversarial_event_array(oracle, delta).probs,
            )


EQUIVALENCE_RSS = """
import resource, sys
from cesaro_lab.cui import verify_criterion_equivalence
from cesaro_lab.distributions import DistributionSpec, NormSample
from cesaro_lab.lattice import MultiIndex
spec = DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1, moment_mode="empirical")
sample = NormSample(spec, MultiIndex((128, 128)), 0, int(sys.argv[1]))
verify_criterion_equivalence(sample, [0.5, 0.1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_equivalence_memory_grows_with_the_norms_only():
    # the norms grow by 300 reps x 16384 cells x 8 B; probability events and
    # the adversarial mean once held g of the norms and its product with the
    # event probabilities, about twice the norms again
    src = str(Path(cui.__file__).resolve().parents[1])
    peaks_kb = []
    for reps in (100, 400):
        out = subprocess.run(
            [sys.executable, "-c", EQUIVALENCE_RSS, str(reps)],
            capture_output=True, text=True, check=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        peaks_kb.append(int(out.stdout.strip()))
    norms_growth_kb = 300 * 128 * 128 * 8 / 1024
    assert peaks_kb[1] - peaks_kb[0] <= 1.5 * norms_growth_kb, peaks_kb


def test_report_memory_does_not_grow_with_reps():
    # the report streams its sample: each chunk (one 256x256 rep) is drawn
    # into one reused buffer and binned before the next, so only the shell
    # sums, 8 levels x 81 shells x 8 B per rep, grow; holding the norms grew
    # the traced peak by 120 reps x 65536 cells x 8 B (60 MiB)
    spec = spec_of("pareto_radial", alpha=3.0, mode="empirical")
    peaks = []
    for reps in (40, 160):
        tracemalloc.start()
        try:
            build_cui_report(NormSample(spec, MultiIndex((256, 256)), 0, reps), 0.5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks


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
        payload = json.loads(json.dumps(cli._py(report)))
        assert payload["passed"] is True
        assert payload["eps_list"] == [0.5]
        assert all("name" in c and "passed" in c for c in payload["checks"])

    def test_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        with pytest.raises(ValueError):
            verify_criterion_equivalence(sample, [])
        with pytest.raises(ValueError):
            verify_criterion_equivalence(sample, [-0.5])

    @pytest.mark.parametrize("eps_list", [[0.5, -1.0], [0.5, math.nan], [0.0, 0.5],
                                          [0.5, math.inf]])
    def test_every_eps_is_checked_before_the_first_draw(self, monkeypatch, eps_list):
        calls = []
        real = dist.norm_batch

        def counting_norm_batch(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
        sample = NormSample(spec_of("pareto_radial", alpha=3.0, mode="empirical"),
                            MultiIndex((64,)), seed=3, reps=40)
        with pytest.raises(ValueError, match="eps"):
            verify_criterion_equivalence(sample, eps_list)
        assert calls == []


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
        payload = json.loads(json.dumps(cli._py(report)))
        assert payload["mode"] == "analytic"
        assert payload["horizon"] == "256"
        assert len(payload["a_grid"]) == 3

    def test_default_grid_is_disclosed(self):
        report = build_cui_report(NormSample(CONSTANT, MultiIndex((64,))), 1.0)
        assert report.a_grid == tuple(float(a) for a in DEFAULT_A_GRID)

    @pytest.mark.parametrize("box", [MultiIndex((128, 128)), MultiIndex((4096,))], ids=str)
    def test_mean_sup_of_a_constant_is_no_further_off_than_a_sum_in_cell_order(self, box):
        """Analytic constant c = 0.7: the closed-form row is dense, so the
        criterion (i) mean sums its line segments pairwise, and its sup is no
        further from 0.7 than that of the cells added up in order."""
        report = build_cui_report(NormSample(spec_of("constant", c=0.7), box), 1.0)
        in_order = profile_by_segments(np.full(box.coords, 0.7), box, segments=False)
        assert abs(report.mean_sup - 0.7) <= abs(in_order.max() - 0.7)

    @pytest.mark.parametrize(
        "spec",
        [
            spec_of("growing_non_cui", mode="empirical", exponent=0.5),
            spec_of("constant", mode="empirical", c=0.7),
        ],
        ids=["growing_non_cui", "constant"],
    )
    def test_identical_replications_read_their_value_with_stderr_0(self, spec):
        """A deterministic family draws one row 20 times: every estimate is
        the sup of that row's profile, bit for bit, with stderr 0 (a float64
        mean of 20 equal values can be an ulp off them)."""
        box, grid = MultiIndex((4096,)), (1.0, 4.0, 16.0)
        report = build_cui_report(NormSample(spec, box, seed=0, reps=20), 0.5, a_grid=grid)
        row = dist.norm_batch(spec, box, 0, 1)
        mean = profile_by_segments(row, box, levels=[0.0])
        tails = profile_by_segments(row, box, Tail(0.5, 0.0).power, grid)
        assert report.mean_sup == mean.max() and report.mean_stderr == 0.0
        assert report.tail_sup == tuple(tails.max(axis=(1, 2)))
        assert report.stderr == (0.0,) * len(grid)


NAN = math.nan
SMALL = NormSample(CONSTANT, MultiIndex((8,)))
HEAVY = NormSample(
    spec_of("pareto_radial", alpha=0.5, mode="empirical"), MultiIndex((64,)), seed=1, reps=20
)
NO_EVENTS = EventArray(MultiIndex((8,)), probs=np.zeros(8))
GROWING_64 = NormSample(GROWING, MultiIndex((64,)))
PHI = PhiFunction([1, 2, 3])


# Every check is written so that NaN fails it: `x <= 0` would let NaN through.
# An eps (or delta) must also be finite: at inf every check passes vacuously.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: cesaro_tail_sup(SMALL, 1.0, NAN), "a must be", id="tail_sup_a"),
        pytest.param(
            lambda: cui_certificate(SMALL, 1.0, NAN), "eps must be", id="certificate_eps"
        ),
        pytest.param(
            lambda: cui_certificate(SMALL, 1.0, math.inf), "eps must be", id="certificate_eps_inf"
        ),
        pytest.param(
            lambda: cui_certificate(GROWING_64, 1.0, 0.5, [NAN]),
            "finite",
            id="certificate_grid_growing",
        ),
        pytest.param(
            lambda: cui_certificate(HEAVY, 1.0, 0.5, [NAN]),
            "finite",
            id="certificate_grid_pareto_empirical",
        ),
        pytest.param(
            lambda: cui_certificate(GROWING_64, 1.0, 0.5, [math.inf]),
            "finite",
            id="certificate_grid_inf",
        ),
        pytest.param(
            lambda: build_cui_report(SMALL, 1.0, a_grid=[1.0, NAN]), "finite", id="report_grid"
        ),
        pytest.param(lambda: derive_delta(NAN, 1.0), "eps must be", id="delta_eps"),
        pytest.param(lambda: derive_delta(math.inf, 1.0), "eps must be", id="delta_eps_inf"),
        pytest.param(lambda: derive_delta(0.5, NAN), "a0 must be", id="delta_a0"),
        pytest.param(lambda: markov_event_array(SMALL, NAN, 0.5), "K must be", id="markov_K"),
        pytest.param(
            lambda: markov_event_array(SMALL, 1.0, NAN), "delta must be", id="markov_delta"
        ),
        pytest.param(
            lambda: check_event_criterion(SMALL, NO_EVENTS, NAN, 0.5),
            "delta and eps",
            id="event_criterion_delta",
        ),
        pytest.param(
            lambda: check_event_criterion(SMALL, NO_EVENTS, 0.5, NAN),
            "delta and eps",
            id="event_criterion_eps",
        ),
        pytest.param(
            lambda: check_event_criterion(SMALL, NO_EVENTS, math.inf, 0.5),
            "delta and eps",
            id="event_criterion_delta_inf",
        ),
        pytest.param(
            lambda: check_event_criterion(SMALL, NO_EVENTS, 0.5, math.inf),
            "delta and eps",
            id="event_criterion_eps_inf",
        ),
        pytest.param(
            lambda: adversarial_event_array(SMALL, NAN), "delta must be", id="adversarial_delta"
        ),
        pytest.param(
            lambda: EventArray(MultiIndex((2,)), probs=[NAN, 0.5]), r"\[0, 1\]", id="event_probs"
        ),
        pytest.param(
            lambda: EventArray(MultiIndex((2,)), threshold=NAN), "threshold", id="event_threshold"
        ),
        pytest.param(
            lambda: verify_criterion_equivalence(SMALL, [NAN]), "eps must be", id="equivalence_eps"
        ),
        pytest.param(
            lambda: poussin_forward_check(SMALL, PHI, [NAN], poussin_moment_check(SMALL, PHI)),
            "eps must be",
            id="poussin_forward_eps",
        ),
        pytest.param(lambda: phi_eval_many(PHI, [1.0, NAN]), "outside domain", id="phi_norms"),
    ],
)
def test_nan_fails_range_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_infinite_tail_level_stays_legal():
    # the reverse direction queries a = K/delta, which is inf when K is
    assert cesaro_tail_sup(SMALL, 1.0, math.inf).value == 0.0


class TestOneEstimator:
    def test_event_criterion_reads_the_rule(self, monkeypatch):
        full = EventArray(MultiIndex((8,)), probs=np.ones(8))
        # premise and conclusion both fail on their own: prob 1 >= 0.5, moment 1 >= 1e-9
        rep = check_event_criterion(SMALL, full, delta=0.5, eps=1e-9)
        assert not rep.premise_holds and not rep.conclusion_holds
        asked = []
        monkeypatch.setattr(cui, "confident", lambda *args: asked.append(args) or True)
        rep = check_event_criterion(SMALL, full, delta=0.5, eps=1e-9)
        assert rep.premise_holds and rep.conclusion_holds
        assert (rep.prob_sup, rep.moment_sup) == (1.0, 1.0)
        assert asked == [("event_criterion", 1.0, 0.0, 0.5), ("event_criterion", 1.0, 0.0, 1e-9)]

    def test_realized_events_report_the_argmax_stderr(self):
        spec = spec_of("pareto_radial", alpha=3.0, mode="empirical")
        box = MultiIndex((64,))
        sample = NormSample(spec, box, seed=2, reps=40)
        ev = EventArray(box, threshold=1.5)
        rep = check_event_criterion(sample, ev, delta=0.9, eps=5.0)
        norms = dist.norm_batch(spec, box, 2, 40)
        sched = dyadic_boxes(box)
        for fld, value, stderr in [
            (norms >= 1.5, rep.prob_sup, rep.prob_stderr),
            (np.where(norms >= 1.5, norms, 0.0), rep.moment_sup, rep.moment_stderr),
        ]:
            avgs = np.stack([fld[:, : b.coords[0]].mean(axis=1) for b in sched], axis=1)
            j = int(np.argmax(avgs.mean(axis=0)))
            assert value == pytest.approx(avgs[:, j].mean(), rel=1e-12)
            assert stderr == pytest.approx(avgs[:, j].std(ddof=1) / math.sqrt(40), rel=1e-12)

    @pytest.mark.parametrize(
        "spec, draws",
        [
            (spec_of("pareto_radial", alpha=3.0, mode="empirical"), 1),
            (spec_of("pareto_radial", alpha=3.0), 0),
        ],
        ids=["empirical", "analytic"],
    )
    def test_markov_events_draw_at_most_once(self, monkeypatch, spec, draws):
        calls = []
        real = dist.norm_batch

        def counting_norm_batch(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
        sample = NormSample(spec, MultiIndex((64,)), seed=2, reps=40)
        ev = markov_event_array(sample, K=1.5, delta=0.75)
        rep = check_event_criterion(sample, ev, delta=0.75, eps=1.0)
        assert len(calls) == draws
        assert (rep.prob_stderr > 0.0) == (draws == 1)


ENGINE_BOX = MultiIndex((16, 8))
ENGINE_REPS = 20
# phi's domain covers every norm the engine's samples draw
ENGINE_PHI = functools.partial(phi_eval_many, PhiFunction(np.repeat(np.arange(1, 9), 128)))
# several p, a >= level among the > levels of its p, repeated and unsorted
# levels, level 0 beside a grid, and a functional that is not a Tail
ENGINE_ASKS = [
    Tail(0.5, 2.0),
    Tail(1.0, 4.0),
    Tail(0.5, 1.0),
    Tail(1.0, 0.0),
    ENGINE_PHI,
    Tail(1.0, 1.0),
    Tail(0.0, 1.5, ge=True),
    Tail(0.5, 2.0),
    Tail(1.0, 1.0, ge=True),
    ENGINE_PHI,
    Tail(1.0, 0.0),
]
# the queries of one pass over a sample with no closed form, as their strict
# levels: one query per p, a >= level a at the float below a
ENGINE_QUERIES = [
    [1.0, 2.0],
    [0.0, math.nextafter(1.0, -math.inf), 1.0, 4.0],
    [math.nextafter(1.5, -math.inf)],
    None,
]
# a box-shaped factor field: probabilities of an event, 0 on the first row
ENGINE_CELLS = np.linspace(0.0, 1.0, ENGINE_BOX.size).reshape(ENGINE_BOX.coords)
ENGINE_CELLS[0] = 0.0


class TestSups:
    """cui._sups answers a mixed list of norm functionals from one pass, each
    answer equal to the answer of its one-ask call."""

    @pytest.mark.parametrize("cells", [None, ENGINE_CELLS], ids=["plain", "cells"])
    @pytest.mark.parametrize(
        "spec, queries",
        [
            (spec_of("pareto_radial", alpha=3.0, mode="empirical"), ENGINE_QUERIES),
            # every Tail is closed form: only phi is asked of the draw
            (spec_of("pareto_radial", alpha=3.0), ENGINE_QUERIES[-1:]),
            (spec_of("iid_gaussian", d=2, mode="empirical", sigma=1.0), ENGINE_QUERIES),
        ],
        ids=["pareto-empirical", "pareto-analytic", "gaussian-empirical"],
    )
    def test_mixed_asks_share_one_pass(self, monkeypatch, spec, queries, cells):
        def fresh():
            return NormSample(spec, ENGINE_BOX, seed=5, reps=ENGINE_REPS)

        singles = [cui._sups(fresh(), [g], cells) for g in ENGINE_ASKS]
        passes, draws = [], []
        real_profiles, real_batch = cui.schedule_profiles, dist.norm_batch

        def recording_profiles(chunks, rows, box, qs):
            passes.append([levels for _, levels in qs])
            return real_profiles(chunks, rows, box, qs)

        def counting_norm_batch(spec, n, seed, reps, first_rep=0, *args, **kwargs):
            draws.extend(range(first_rep, first_rep + reps))
            return real_batch(spec, n, seed, reps, first_rep, *args, **kwargs)

        monkeypatch.setattr(cui, "schedule_profiles", recording_profiles)
        monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
        ests = cui._sups(fresh(), ENGINE_ASKS, cells)
        assert passes == [queries]
        assert draws == list(range(ENGINE_REPS))
        assert ests == [single for (single,) in singles]
        assert ests[0] is ests[7] and ests[4] is ests[9]
