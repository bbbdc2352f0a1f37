import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro_lab.cui as cui
import cesaro_lab.distributions as dist
import cesaro_lab.poussin as poussin
from cesaro_lab.distributions import DistributionSpec, NormSample
from cesaro_lab.errors import HorizonTooSmallError, PhiDomainError
from cesaro_lab.lattice import MultiIndex, row_chunks
from cesaro_lab.poussin import (
    PhiFunction,
    build_phi_from_cui,
    phi_eval_many,
    poussin_forward_check,
    poussin_moment_check,
    thresholds_from_cui,
    u_from_thresholds,
    verify_phi_properties,
)
from oracles import phi_eval


def spec_of(family, **params):
    return DistributionSpec(family, params, dim_D=1)


CONSTANT = spec_of("constant", c=1.0)
ZERO = spec_of("constant", c=0.0)
PARETO = spec_of("pareto_radial", alpha=3.0)
SPIKED = spec_of("spiked_cui", gap_base=2)
GROWING = spec_of("growing_non_cui", exponent=0.5)


def forward_check(sample, phi, eps_list):
    """The forward check, K from the moment check of the same sample and phi."""
    return poussin_forward_check(sample, phi, eps_list, poussin_moment_check(sample, phi))

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
        assert phi_eval_many(phi, 0.0) == 0.0
        assert phi_eval_many(phi, 3.0) == 1.0
        assert phi_eval_many(phi, 4.5) == 3.0
        assert phi_eval_many(phi, 9.0) == 13.0

    @settings(max_examples=60, deadline=None)
    @given(slope_lists)
    def test_integer_points_equal_slope_sums(self, u):
        phi = PhiFunction(u)
        for k in range(phi.n_max + 1):
            assert phi(float(k)) == float(u[:k].sum())
        assert np.array_equal(phi(np.arange(phi.n_max + 1)), phi.prefix)

    def test_domain_errors(self):
        phi = self.phi_2j()
        with pytest.raises(PhiDomainError):
            phi_eval_many(phi, -0.1)
        with pytest.raises(PhiDomainError):
            phi_eval_many(phi, 9.0 + 1e-9)
        with pytest.raises(PhiDomainError):
            phi_eval_many(phi, math.nan)
        with pytest.raises(PhiDomainError):
            phi_eval_many(phi, np.array([1.0, 10.0]))

    def test_vectorized_matches_scalar(self):
        # on an array, on each scalar alone, and by the old one-scalar oracle
        phi = self.phi_2j()
        ts = np.linspace(0.0, 9.0, 97)
        many = phi_eval_many(phi, ts)
        each = np.array([phi_eval_many(phi, float(t)) for t in ts])
        oracle = np.array([phi_eval(phi, float(t)) for t in ts])
        assert np.array_equal(many, each)
        assert np.array_equal(many, oracle)

    # phi's first slope at 0, a long run of zero slopes, and slopes all 0
    GAUGES = {
        "first-slope-at-0": np.array([1, 1, 2, 3, 3, 5]),
        "long-zero-run": u_from_thresholds([40, 41, 45, 60], 64),
        "all-zero": np.zeros(8, dtype=np.int64),
    }

    @staticmethod
    def points(phi):
        """A dense grid of [0, n_max], the integers, the floats next to phi's
        first positive slope and that slope, 0.0, -0.0 and n_max."""
        n_max = float(phi.n_max)
        start = float(np.searchsorted(phi.u, 0, side="right"))
        near = [np.nextafter(start, -np.inf), start, np.nextafter(start, np.inf)]
        return np.concatenate([
            np.linspace(0.0, n_max, 1001),
            np.arange(phi.n_max + 1, dtype=np.float64),
            [t for t in near if 0.0 <= t <= n_max],
            [0.0, -0.0, n_max],
        ])

    @staticmethod
    def assert_oracle_bits(phi, ts):
        """phi_eval_many(phi, ts) has the shape of ts and, value for value and
        sign bit for sign bit, the oracle's phi(t) at every t."""
        ts = np.asarray(ts, dtype=np.float64)
        got = np.asarray(phi_eval_many(phi, ts))
        want = np.array([phi_eval(phi, t) for t in ts.ravel()]).reshape(ts.shape)
        assert got.shape == ts.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", sorted(GAUGES))
    def test_equals_oracle_bit_for_bit(self, name):
        phi = PhiFunction(self.GAUGES[name])
        ts = self.points(phi)
        start = np.searchsorted(phi.u, 0, side="right")
        # the whole array, the values at or above the first positive slope
        # (the whole formula), and the values below it (phi's zeros)
        for part in (ts, ts[ts >= start], ts[ts < start], ts[::-1]):
            self.assert_oracle_bits(phi, part)
        for t in ts:
            self.assert_oracle_bits(phi, t)
            assert phi_eval_many(phi, t) == phi_eval(phi, t)
            assert np.shape(phi_eval_many(phi, t)) == ()

    @pytest.mark.parametrize("name", sorted(GAUGES))
    def test_input_forms_equal_oracle(self, name):
        phi = PhiFunction(self.GAUGES[name])
        ts = self.points(phi)
        for t in (0.0, -0.0, 0.5, float(phi.n_max)):
            self.assert_oracle_bits(phi, np.array(t))  # 0-d
            self.assert_oracle_bits(phi, np.broadcast_to(t, (5, 7)))  # stride 0
        for empty in (np.empty(0), np.empty((0, 3)), []):
            self.assert_oracle_bits(phi, empty)
        listed = phi_eval_many(phi, ts.tolist())
        assert np.array_equal(listed.view(np.int64), phi_eval_many(phi, ts).view(np.int64))
        pairs = ts[: ts.size // 2 * 2].reshape(-1, 2)
        self.assert_oracle_bits(phi, pairs[:, ::-1])  # a strided 2-d view
        self.assert_oracle_bits(phi, np.broadcast_to(ts, (3, ts.size)))

    @pytest.mark.parametrize("name", sorted(GAUGES))
    def test_domain_errors_name_the_max(self, name):
        phi = PhiFunction(self.GAUGES[name])
        n_max = float(phi.n_max)
        for bad in (-0.1, np.nextafter(n_max, np.inf), math.nan, [0.0, 1.0, n_max + 1.0],
                    np.broadcast_to(-1.0, (4, 4)), [0.0] * 9 + [math.inf]):
            hi = np.max(np.asarray(bad, dtype=np.float64))
            with pytest.raises(PhiDomainError, match=re.escape(f"max seen: {hi!r})")):
                phi_eval_many(phi, bad)

    def test_phi_is_its_own_functional(self):
        phi = self.phi_2j()
        ts = np.linspace(0.0, 9.0, 97)
        assert np.array_equal(phi(ts), phi_eval_many(phi, ts))
        assert phi(4.5) == 3.0
        with pytest.raises(PhiDomainError):
            phi(9.5)

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
        f1, f2, f3 = (phi_eval_many(phi, t) for t in (t1, t2, t3))
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

    def test_a_nan_sup_at_the_cap_certifies_no_level(self):
        # pareto alpha 0.01 draws inf norms: the tail sup at the cap is
        # inf +- NaN, which the "threshold" row does not pass, so no level up
        # to the cap is N_1 (the cap itself is not returned)
        spec = dataclasses.replace(spec_of("pareto_radial", alpha=0.01), moment_mode="empirical")
        sample = NormSample(spec, MultiIndex((256,)), seed=0, reps=20)
        est = cui.cesaro_tail_sup(sample, 1.0, 64.0, ge=True)
        assert est.value == math.inf and math.isnan(est.stderr)
        with pytest.raises(HorizonTooSmallError, match="no tail level <= 64 reaches 2"):
            thresholds_from_cui(sample, j_max=1, search_cap=64)

    def test_strictly_increasing(self):
        got = thresholds_from_cui(NormSample(SPIKED, MultiIndex((10_000,))), j_max=12,
                                  search_cap=256)
        assert all(b > a for a, b in zip(got, got[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            thresholds_from_cui(NormSample(CONSTANT, MultiIndex((64,))), j_max=0)


class FieldSample(NormSample):
    """A realized sample whose norms are a given field of shape (reps,) + box."""

    def __init__(self, field, box):
        super().__init__(PARETO_EMPIRICAL, box, reps=len(field))
        self.field = field

    def chunks(self):
        return row_chunks(self.field, self.box)


PARETO_EMPIRICAL = DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1,
                                    moment_mode="empirical")
# held draws whose last chunk is short: 16 and 4 reps of 4096, 6, 6 and 1 of 100x100
RAGGED = {"1d": ((4096,), 20, [16, 4]), "2d": ((100, 100), 13, [6, 6, 1])}


def held(alpha, box, reps):
    """An empirical pareto sample of alpha, set to hold its first draw, and
    that draw as one array."""
    spec = dataclasses.replace(PARETO_EMPIRICAL, params={"alpha": alpha})
    sample = NormSample(spec, MultiIndex(box), seed=5, reps=reps)
    sample.hold()
    return sample, dist.norm_batch(spec, MultiIndex(box), 5, reps)


class TestHeldDrawPasses:
    """The probe scan and the norm range read a held draw chunk by chunk, a
    short last chunk included, and equal their one-array expressions."""

    CAP = 64

    @staticmethod
    def one_line_levels(field, cap):
        present = np.zeros(cap + 1, dtype=bool)
        present[np.fmin(np.floor(field), cap).astype(np.int64)] = True
        return (np.flatnonzero(present[1:]) + 1).tolist()

    def fields(self, box, reps):
        """Held pareto draws of alpha 3 and 0.01 (inf norms), and a stub
        field with a NaN norm in its last chunk and an inf one in its first."""
        out = [held(alpha, box, reps) for alpha in (3.0, 0.01)]
        assert np.isinf(out[1][1]).any()
        field = out[0][1].copy()
        field[-1].flat[-1] = np.nan
        field[0].flat[0] = np.inf
        out.append((FieldSample(field, MultiIndex(box)), field))
        return out

    @pytest.mark.parametrize("shape", sorted(RAGGED))
    def test_scan_levels_equal_the_one_line_scan(self, shape):
        box, reps, chunk_reps = RAGGED[shape]
        for sample, field in self.fields(box, reps):
            # the drawing pass, then a pass over the held draw
            for cap in (self.CAP, 3):
                levels = poussin._floor_levels(sample, cap).tolist()
                assert levels == self.one_line_levels(field, cap)
            assert [len(norms) for _, norms in sample.chunks()] == chunk_reps

    @pytest.mark.parametrize("shape", sorted(RAGGED))
    def test_norm_range_equals_min_and_max_of_the_draw(self, shape):
        box, reps, _ = RAGGED[shape]
        for sample, field in self.fields(box, reps):
            want = (field.min(), field.max())
            assert np.array_equal(sample.norm_range(), want, equal_nan=True)


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

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_below_one_is_rejected_before_drawing(self, monkeypatch, n_max):
        calls = []
        real = dist.norm_batch

        def counting_norm_batch(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
        sample = NormSample(DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1, moment_mode="empirical"), MultiIndex((256,)), reps=5)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            build_phi_from_cui(sample, j_max=4, search_cap=64, n_max=n_max)
        assert calls == []

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
        checks = forward_check(sample, built.phi, [0.5, 0.1])
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
            forward_check(sample, built.phi, [0.01])

    def test_forward_check_error_names_what_can_help(self):
        # slopes up to 8 on [0, 10]: phi(t)/t ends at 4.4 there and passes 5
        # on a longer domain, but never reaches 8, the largest slope; K = 0
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        phi = PhiFunction(u_from_thresholds(range(1, 9), 10))
        with pytest.raises(PhiDomainError, match="enlarge n_max"):
            forward_check(sample, phi, [0.2])
        with pytest.raises(PhiDomainError, match="largest slope 8"):
            forward_check(sample, phi, [0.125])

    def test_forward_check_validation(self):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        built = build_phi_from_cui(sample, j_max=4)
        with pytest.raises(ValueError):
            forward_check(sample, built.phi, [])
        with pytest.raises(ValueError):
            forward_check(sample, built.phi, [-0.5])


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

    def test_moment_check_asks_phi_itself(self, monkeypatch):
        # phi, not a wrapper around it, is the ask that reaches the engine
        asks = []
        real = poussin._sups

        def recording_sups(sample, gs, *args, **kwargs):
            asks.append(list(gs))
            return real(sample, gs, *args, **kwargs)

        monkeypatch.setattr(poussin, "_sups", recording_sups)
        phi = PhiFunction(u_from_thresholds([1, 2, 4], 64))
        gauss = spec_of("iid_gaussian", sigma=1.0)
        poussin_moment_check(NormSample(gauss, MultiIndex((64,)), seed=0, reps=5), phi)
        assert asks == [[phi]]

    def test_forward_check_K_reads_the_rule(self, monkeypatch):
        sample = NormSample(CONSTANT, MultiIndex((64,)))
        built = build_phi_from_cui(sample, j_max=8)
        rows = []

        def limit(row, value, stderr, lower=False):
            rows.append(row)
            return value + 0.5

        monkeypatch.setattr(dist, "confidence_limit", limit)
        checks = forward_check(sample, built.phi, [0.5, 0.25])
        K = poussin_moment_check(sample, built.phi).value + 0.5
        assert [c.K for c in checks] == [K, K]
        assert set(rows) == {"forward"}
