import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro_lab.cui as cui
from cesaro_lab.distributions import DistributionSpec, NormSample
from cesaro_lab.errors import HorizonTooSmallError, PhiDomainError
from cesaro_lab.lattice import MultiIndex
from cesaro_lab.poussin import (
    PhiFunction,
    build_phi_from_cui,
    phi_eval,
    phi_eval_many,
    poussin_forward_check,
    poussin_moment_check,
    thresholds_from_cui,
    u_from_thresholds,
    verify_phi_properties,
)


def spec_of(family, **params):
    return DistributionSpec(family, params, dim_D=1)


CONSTANT = spec_of("constant", c=1.0)
ZERO = spec_of("constant", c=0.0)
PARETO = spec_of("pareto_radial", alpha=3.0)
SPIKED = spec_of("spiked_cui", gap_base=2)
GROWING = spec_of("growing_non_cui", exponent=0.5)

slope_lists = st.lists(st.integers(0, 3), min_size=1, max_size=12).map(
    lambda steps: np.cumsum(np.asarray(steps, dtype=np.int64))
)


class TestUFromThresholds:
    def test_powers_of_two_hand_anchor(self):
        u = u_from_thresholds([2, 4, 8, 16], 9)
        assert u.tolist() == [0, 0, 1, 1, 2, 2, 2, 2, 3]

    def test_consecutive_thresholds(self):
        # N_j = j: every level j is strictly below n once n > j
        assert u_from_thresholds([1, 2, 3, 4], 4).tolist() == [0, 1, 2, 3]
        # N_j = j + 1 shifts the climb by one cell
        assert u_from_thresholds([2, 3, 4, 5], 4).tolist() == [0, 0, 1, 2]

    def test_counts_are_cardinalities(self):
        thresholds = [3, 5, 17]
        u = u_from_thresholds(thresholds, 20)
        for n in range(1, 21):
            assert u[n - 1] == sum(1 for N in thresholds if N < n)

    def test_validation(self):
        with pytest.raises(ValueError):
            u_from_thresholds([], 4)
        with pytest.raises(ValueError):
            u_from_thresholds([2, 2], 4)
        with pytest.raises(ValueError):
            u_from_thresholds([4, 2], 4)
        with pytest.raises(ValueError):
            u_from_thresholds([0, 1], 4)
        with pytest.raises(ValueError):
            u_from_thresholds([1, 2], 0)


class TestPhiEvaluation:
    def phi_2j(self):
        return PhiFunction(u_from_thresholds([2, 4, 8, 16], 9))

    def test_hand_anchors(self):
        phi = self.phi_2j()
        assert phi_eval(phi, 0.0) == 0.0
        assert phi_eval(phi, 3.0) == 1.0
        assert phi_eval(phi, 4.5) == 3.0
        assert phi_eval(phi, 9.0) == 13.0

    def test_integer_points_equal_slope_sums(self):
        phi = self.phi_2j()
        u = phi.u
        for k in range(phi.n_max + 1):
            assert phi_eval(phi, float(k)) == float(u[:k].sum())

    def test_domain_errors(self):
        phi = self.phi_2j()
        with pytest.raises(PhiDomainError):
            phi_eval(phi, -0.1)
        with pytest.raises(PhiDomainError):
            phi_eval(phi, 9.0 + 1e-9)
        with pytest.raises(PhiDomainError):
            phi_eval_many(phi, np.array([1.0, 10.0]))

    def test_vectorized_matches_scalar(self):
        phi = self.phi_2j()
        ts = np.linspace(0.0, 9.0, 97)
        many = phi_eval_many(phi, ts)
        each = np.array([phi_eval(phi, float(t)) for t in ts])
        assert np.array_equal(many, each)

    @settings(max_examples=60, deadline=None)
    @given(slope_lists, st.data())
    def test_convexity_chords(self, u, data):
        phi = PhiFunction(u)
        n_max = float(phi.n_max)
        t1 = data.draw(st.floats(0, n_max, exclude_max=True))
        t3 = data.draw(st.floats(0, n_max))
        t1, t3 = min(t1, t3), max(t1, t3)
        if t3 <= t1:
            return
        t2 = data.draw(st.floats(t1, t3))
        f1, f2, f3 = (phi_eval(phi, t) for t in (t1, t2, t3))
        chord = f1 + (f3 - f1) * (t2 - t1) / (t3 - t1)
        assert f2 <= chord + 1e-12 * max(1.0, abs(chord))

    @settings(max_examples=40, deadline=None)
    @given(slope_lists)
    def test_ratio_monotone_on_integers(self, u):
        phi = PhiFunction(u)
        ks = np.arange(1, phi.n_max + 1, dtype=np.float64)
        ratios = phi_eval_many(phi, ks) / ks
        assert np.all(np.diff(ratios) >= -1e-12)


class TestPhiFunctionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhiFunction(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            PhiFunction(np.array([1, 0]))
        with pytest.raises(ValueError):
            PhiFunction(np.array([-1, 0]))
        with pytest.raises(ValueError):
            PhiFunction(np.array([0.5, 1.0]))

    def test_json_round_trip(self):
        phi = PhiFunction(np.array([0, 1, 3]))
        payload = phi.to_json()
        assert payload == {"u": [0, 1, 3]}
        again = PhiFunction(json.loads(json.dumps(payload))["u"])
        assert np.array_equal(again.u, phi.u)
        assert np.array_equal(again.prefix, phi.prefix)

    def test_write_locked(self):
        phi = PhiFunction(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            phi.u[0] = 5


class TestPhiProperties:
    def test_good_gauge_passes(self):
        phi = PhiFunction(u_from_thresholds(list(range(2, 30)), 64))
        report = verify_phi_properties(phi)
        assert report.all_pass
        assert report.zero_at_zero
        assert report.slopes_nondecreasing
        assert report.ratio_nondecreasing
        assert report.growth_attained
        assert report.end_ratio > report.growth_floor

    def test_flat_zero_gauge_fails_growth(self):
        phi = PhiFunction(np.zeros(8, dtype=np.int64))
        report = verify_phi_properties(phi)
        assert not report.growth_attained
        assert not report.all_pass
        assert report.end_ratio == 0.0


class TestThresholdSearch:
    def test_constant_minimal_levels(self):
        got = thresholds_from_cui(NormSample(CONSTANT, MultiIndex((4096,))), j_max=6)
        assert got == (2, 3, 4, 5, 6, 7)

    def test_zero_family_takes_smallest_possible(self):
        got = thresholds_from_cui(NormSample(ZERO, MultiIndex((4096,))), j_max=4)
        assert got == (1, 2, 3, 4)

    def test_pareto_levels_match_closed_form(self):
        got = thresholds_from_cui(NormSample(PARETO, MultiIndex((4096,))), j_max=6)
        # smallest integers with 1.5 / N^2 <= 2^-j
        assert got == (2, 3, 4, 5, 7, 10)
        for j, N in enumerate(got, start=1):
            assert 1.5 / N**2 <= 2.0**-j
            if N - 1 > got[j - 2] if j >= 2 else N - 1 >= 1:
                assert 1.5 / (N - 1) ** 2 > 2.0**-j

    def test_spiked_levels(self):
        got = thresholds_from_cui(NormSample(SPIKED, MultiIndex((10_000,))), j_max=6,
                                  search_cap=256)
        assert got == (3, 5, 9, 17, 33, 65)

    def test_cap_is_part_of_the_verdict(self):
        # N_6 = 65 for the spiked family, one past the default cap
        with pytest.raises(HorizonTooSmallError):
            thresholds_from_cui(NormSample(SPIKED, MultiIndex((10_000,))), j_max=6)

    def test_growing_raises_at_first_level(self):
        with pytest.raises(HorizonTooSmallError):
            thresholds_from_cui(NormSample(GROWING, MultiIndex((10_000,))), j_max=1)

    def test_strictly_increasing(self):
        got = thresholds_from_cui(NormSample(SPIKED, MultiIndex((10_000,))), j_max=12,
                                  search_cap=256)
        assert all(b > a for a, b in zip(got, got[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            thresholds_from_cui(NormSample(CONSTANT, MultiIndex((64,))), j_max=0)


class TestConstruction:
    def test_constant_build(self):
        built = build_phi_from_cui(NormSample(CONSTANT, MultiIndex((4096,))), j_max=6)
        assert built.thresholds == (2, 3, 4, 5, 6, 7)
        assert built.calibration_max_norm == 1.0
        assert built.n_max == 64  # floor dominates 4*calibration and 2*max(N)
        assert built.phi.n_max == 64

    def test_n_max_override(self):
        built = build_phi_from_cui(NormSample(CONSTANT, MultiIndex((4096,))), j_max=6, n_max=20)
        assert built.phi.n_max == 20

    def test_moment_check_analytic_families(self):
        for spec in (CONSTANT, ZERO, SPIKED):
            sample = NormSample(spec, MultiIndex((10_000,)))
            built = build_phi_from_cui(sample, j_max=8, search_cap=256)
            mom = poussin_moment_check(sample, built.phi)
            assert mom.mode == "analytic"
            assert mom.stderr == 0.0
            assert mom.value <= 1.0

    def test_zero_family_moment_is_exactly_zero(self):
        sample = NormSample(ZERO, MultiIndex((64,)))
        built = build_phi_from_cui(sample, j_max=4)
        mom = poussin_moment_check(sample, built.phi)
        assert mom.value == 0.0

    def test_moment_check_monte_carlo_family(self):
        sample = NormSample(PARETO, MultiIndex((4096,)), seed=3)
        built = build_phi_from_cui(sample, j_max=12, search_cap=256)
        mom = poussin_moment_check(sample, built.phi)
        assert mom.mode == "empirical"
        assert mom.value <= 1.0 + 2.0 * mom.stderr

    def test_forward_checks_constant(self):
        sample = NormSample(CONSTANT, MultiIndex((4096,)))
        built = build_phi_from_cui(sample, j_max=16)
        checks = poussin_forward_check(sample, built.phi, [0.5, 0.1])
        assert [c.eps for c in checks] == [0.5, 0.1]
        for c in checks:
            assert c.ratio >= (c.K + 1.0) / c.eps
            assert c.passed

    def test_forward_check_needs_enough_slope(self):
        # a shallow gauge never reaches the required ratio: domain error, not
        # a silent failure
        sample = NormSample(CONSTANT, MultiIndex((4096,)))
        built = build_phi_from_cui(sample, j_max=2)
        with pytest.raises(PhiDomainError):
            poussin_forward_check(sample, built.phi, [0.01])

    def test_forward_check_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        built = build_phi_from_cui(sample, j_max=4)
        with pytest.raises(ValueError):
            poussin_forward_check(sample, built.phi, [])
        with pytest.raises(ValueError):
            poussin_forward_check(sample, built.phi, [-0.5])


class TestOneEstimator:
    def test_empirical_moment_check_flags_low_reps(self):
        phi = PhiFunction(u_from_thresholds([1, 2, 4], 64))
        gauss = spec_of("iid_gaussian", sigma=1.0)
        few = poussin_moment_check(NormSample(gauss, MultiIndex((64,)), seed=0, reps=5), phi)
        assert isinstance(few, cui.TailEstimate)
        assert few.mode == "empirical" and few.low_reps
        assert not poussin_moment_check(
            NormSample(gauss, MultiIndex((64,)), seed=0, reps=50), phi
        ).low_reps

    def test_forward_check_K_reads_upper(self, monkeypatch):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        built = build_phi_from_cui(sample, j_max=8)
        monkeypatch.setattr(cui.TailEstimate, "upper", lambda self: self.value + 0.5)
        checks = poussin_forward_check(sample, built.phi, [0.5, 0.25])
        K = poussin_moment_check(sample, built.phi).value + 0.5
        assert [c.K for c in checks] == [K, K]
