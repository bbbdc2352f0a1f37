import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cesaro_lab
import cesaro_lab.distributions as dist
from cesaro_lab import rng
from cesaro_lab.distributions import (
    DistributionSpec,
    NormSample,
    Tail,
    get_family,
    norm_batch,
    sample_batch,
    subset_products,
)
from cesaro_lab.lattice import MultiIndex


def spec_of(family, d=1, **params):
    return DistributionSpec(family, params, dim_D=d)


def one_array(spec, n, seed=0):
    """One realized array over the box n: replication 0 of the batch."""
    return sample_batch(spec, n, seed, 1)[0]


class TestSpecSerialization:
    def test_round_trip(self):
        spec = spec_of("pareto_radial", d=4, alpha=2.5)
        again = DistributionSpec.from_json(spec.to_json())
        assert again == spec
        assert DistributionSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
        # params are written back as given: an int stays an int
        as_int = DistributionSpec.from_json({"family": "pareto_radial", "params": {"alpha": 3}})
        assert type(as_int.to_json()["params"]["alpha"]) is int

    def test_defaults_applied(self):
        spec = spec_of("pareto_radial")
        assert spec.param("alpha") == 3.0
        assert spec.moment_mode == "analytic"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            spec_of("cauchy")
        with pytest.raises(ValueError):
            get_family("cauchy")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            spec_of("constant", glarb=2.0)

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            DistributionSpec.from_json({"params": {}})
        with pytest.raises(ValueError):
            DistributionSpec.from_json(
                {"family": "constant", "params": {}, "dim_D": 1, "extra": 1}
            )
        with pytest.raises(ValueError):
            spec_of("constant", d=0)
        with pytest.raises(ValueError):
            DistributionSpec("constant", {}, 1, moment_mode="exactish")
        # non-numbers, bools and non-finite values are rejected, not coerced
        for payload in [
            {"family": "pareto_radial", "params": {"alpha": "3"}, "dim_D": 1},
            {"family": "pareto_radial", "params": {"alpha": None}, "dim_D": 1},
            {"family": "iid_gaussian", "params": {"sigma": True}, "dim_D": 1},
            {"family": "pareto_radial", "params": {"alpha": math.nan}, "dim_D": 1},
            {"family": "spiked_cui", "params": {"gap_base": math.inf}, "dim_D": 1},
            {"family": "pareto_radial", "params": [1], "dim_D": 1},
            {"family": "pareto_radial", "params": {}, "dim_D": None},
            {"family": "pareto_radial", "params": {}, "dim_D": 2.5},
            {"family": "pareto_radial", "params": {}, "dim_D": True},
            {"family": ["pareto_radial"], "params": {}, "dim_D": 1},
            5,
            None,
            ["pareto_radial"],
        ]:
            with pytest.raises(ValueError):
                DistributionSpec.from_json(payload)

    @pytest.mark.parametrize(
        "family, params, message",
        [("pareto_radial", {"alpha": 0.0}, "alpha must be > 0"),
         ("pareto_radial", {"alpha": -3.0}, "alpha must be > 0"),
         ("growing_non_cui", {"exponent": 0.0}, "exponent must be > 0"),
         ("spiked_cui", {"bulk": -0.5}, "bulk must be >= 0")],
        ids=["alpha-0", "alpha-negative", "exponent-0", "bulk-negative"],
    )
    def test_param_out_of_range(self, family, params, message):
        with pytest.raises(ValueError, match=message):
            spec_of(family, **params)

    def test_dimension_cap_enforced(self):
        spiked = spec_of("spiked_cui")
        with pytest.raises(ValueError):
            one_array(spiked, MultiIndex((2, 2)))
        with pytest.raises(ValueError):
            one_array(spec_of("growing_non_cui"), MultiIndex((2, 2)))


# levels at the edges of the floats: both zeros, the least subnormal, 1 and
# the float above it, and inf
EDGE_LEVELS = (0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), math.inf)


@pytest.mark.parametrize("a", EDGE_LEVELS, ids=repr)
def test_ge_is_a_strict_level(a):
    """t >= a exactly when t > Tail.level, for each level and its neighbours,
    NaN (which fails both), both zeros and both infinities."""
    t = np.array([x for b in EDGE_LEVELS for x in (math.nextafter(b, -math.inf), b,
                                                    math.nextafter(b, math.inf))]
                 + [math.nan, -math.inf, -1.0])
    ge, gt = Tail(0.0, a, ge=True), Tail(0.0, a)
    assert np.array_equal(t > ge.level, t >= a)
    assert gt.level == a and math.copysign(1.0, gt.level) == math.copysign(1.0, a)
    # float32 cells compare with the level as their float64 values do
    with np.errstate(over="ignore"):  # past float32's range: inf
        narrow = t.astype(np.float32)
    for cells in (t, narrow):
        wide = cells.astype(np.float64)
        assert np.array_equal(ge(cells), np.where(wide >= a, 1.0, 0.0))
        assert np.array_equal(gt(cells), np.where(wide > a, 1.0, 0.0))


def reference_mean_se(vals):
    """The replication mean and stderr by the formulas the estimator keeps:
    np.mean and the ddof-1 std over sqrt(reps) along axis 0, stderr 0 from
    one rep; a column whose reps all read one value reads it with stderr 0."""
    reps = vals.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array(vals.mean(axis=0))
        ses = np.array(vals.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros_like(means))
    same = np.array((vals == vals[0]).all(axis=0))
    means[same], ses[same] = np.array(vals[0])[same], 0.0
    return means, ses


class TestReplicationMean:
    @pytest.mark.parametrize("shape", [(2, 1), (20, 13), (200, 81), (7, 3)])
    def test_c_contiguous_columns(self, shape):
        # a (reps, boxes) array is added one rep after another, column by column
        vals = np.random.default_rng(shape[0]).pareto(1.5, size=shape)
        vals[:, 0] = 0.375  # a column that does not vary
        means, ses = dist.replication_mean(vals)
        assert np.array_equal(means[1:], vals.mean(axis=0)[1:])
        assert np.array_equal(ses[1:], vals.std(axis=0, ddof=1)[1:] / math.sqrt(shape[0]))
        assert means[0] == 0.375 and ses[0] == 0.0

    @pytest.mark.parametrize("reps", [2, 3, 20, 200, 1000])
    def test_rows_match_the_series_formula(self, reps):
        # a 1-D row of reps is added pairwise, as np.mean of the row does
        row = np.random.default_rng(reps).pareto(1.5, size=reps)
        mean, se = dist.replication_mean(row)
        assert mean.shape == se.shape == ()
        assert float(mean) == float(row.mean())
        assert float(se) == float(row.std(ddof=1) / math.sqrt(reps))

    def test_one_rep_has_stderr_zero(self):
        vals = np.array([[1.5, math.inf, math.nan, 0.0]])
        means, ses = dist.replication_mean(vals)
        assert np.array_equal(means, vals[0], equal_nan=True)
        assert np.array_equal(ses, np.zeros(4))
        mean, se = dist.replication_mean(np.array([math.nan]))
        assert math.isnan(mean) and se == 0.0

    def test_equal_replications_read_their_value(self):
        # the float64 mean of 20 copies of 0.1 is an ulp off 0.1, and their
        # std is then not 0
        row = np.full(20, 0.1)
        assert row.mean() != 0.1
        mean, se = dist.replication_mean(row)
        assert float(mean) == 0.1 and float(se) == 0.0

    def test_non_finite_columns_print_no_warning(self):
        big = np.finfo(np.float64).max
        cols = [
            [math.inf] * 4,  # every rep inf: inf, stderr 0
            [math.inf, 1.0, 2.0, 3.0],  # mean inf, stderr NaN
            [math.nan, 1.0, 2.0, 3.0],
            [math.nan] * 4,  # NaN equals nothing: NaN, NaN
            [big, big, big, 0.0],  # the sum overflows: mean inf
            [big, -big, big, -big],  # the squares overflow: stderr inf
            [-math.inf, math.inf, 1.0, 1.0],
        ]
        vals = np.ascontiguousarray(np.array(cols).T)
        want = reference_mean_se(vals)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist.replication_mean(vals)
            rows = [dist.replication_mean(np.array(c)) for c in cols]
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        for j, c in enumerate(cols):
            w = reference_mean_se(np.array(c))
            assert np.array_equal(rows[j][0], w[0], equal_nan=True)
            assert np.array_equal(rows[j][1], w[1], equal_nan=True)
        assert list(got[0][:2]) == [math.inf, math.inf] and got[1][0] == 0.0
        assert math.isnan(got[1][1]) and got[1][5] == math.inf


@pytest.mark.parametrize("p", [0.0, -0.5, 1.0 + 1e-12, math.nan, math.inf])
def test_check_p_rejects(p):
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
        dist.check_p(p)


class TestConstant:
    def test_values_and_bound(self):
        spec = spec_of("constant", d=3, c=2.0)
        s = one_array(spec, MultiIndex((2, 2)))
        assert s.shape == (2, 2, 1)  # one column whatever dim_D
        assert np.all(s == 2.0)
        assert dist.fixed_norms(spec, MultiIndex((2, 2))).max() == 2.0

    def test_tail_mean_strict_vs_ge(self):
        spec = spec_of("constant", c=1.0)
        box = MultiIndex((4,))
        strict = dist.expect(spec, Tail(1.0, 1.0), box)
        weak = dist.expect(spec, Tail(1.0, 1.0, ge=True), box)
        assert np.all(strict == 0.0)
        assert np.all(weak == 1.0)


class TestSpiked:
    def test_spike_positions(self):
        spec = spec_of("spiked_cui", gap_base=2)
        s = one_array(spec, MultiIndex((10,)))
        norms = np.abs(s[:, 0])
        nonzero = {i + 1 for i in np.nonzero(norms)[0]}
        assert nonzero == {1, 2, 4, 8}
        assert norms[0] == 1.0
        assert norms[1] == pytest.approx(math.sqrt(2))
        assert norms[3] == 2.0
        assert norms[7] == pytest.approx(math.sqrt(8))

    def test_gap_base_three(self):
        spec = spec_of("spiked_cui", gap_base=3)
        s = one_array(spec, MultiIndex((30,)))
        nonzero = {i + 1 for i in np.nonzero(np.abs(s[:, 0]))[0]}
        assert nonzero == {1, 3, 9, 27}

    def test_tail_field_matches_direct_enumeration(self):
        spec = spec_of("spiked_cui", gap_base=2)
        box = MultiIndex((8,))
        fld = dist.expect(spec, Tail(1.0, 1.5), box)
        # spikes above 1.5 in norm: positions 4 (norm 2) and 8 (norm sqrt 8)
        expected = np.zeros(8)
        expected[3] = 2.0
        expected[7] = math.sqrt(8.0)
        assert np.allclose(fld, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of("spiked_cui", gap_base=1)


class TestGrowing:
    def test_deterministic_profile(self):
        spec = spec_of("growing_non_cui", exponent=0.5)
        s = one_array(spec, MultiIndex((9,)))
        assert np.allclose(s[:, 0], np.sqrt(np.arange(1.0, 10.0)))

    def test_tail_average_by_direct_summation(self):
        # at truncation 5 the Cesaro mean over 1..10000 of sqrt(i) 1(sqrt(i) > 5)
        spec = spec_of("growing_non_cui", exponent=0.5)
        box = MultiIndex((10_000,))
        fld = dist.expect(spec, Tail(1.0, 5.0), box)
        i = np.arange(1, 10_001, dtype=np.float64)
        direct = np.where(np.sqrt(i) > 5.0, np.sqrt(i), 0.0)
        assert np.allclose(fld, direct)
        assert direct.mean() > 10.0


class TestParetoRadial:
    def log_domain_quadrature(self, alpha, p, a, points=400_000, cutoff=1e8):
        """Integral of x^p alpha x^(-alpha-1) over (max(a,1), cutoff), via the
        substitution x = e^t, plus the closed tail remainder above the cutoff."""
        lo = math.log(max(a, 1.0))
        t = np.linspace(lo, math.log(cutoff), points)
        integrand = alpha * np.exp(t * (p - alpha))
        body = np.trapezoid(integrand, t)
        remainder = alpha / (alpha - p) * cutoff ** (p - alpha)
        return body + remainder

    @pytest.mark.parametrize("alpha,p,a", [
        (3.0, 1.0, 0.0),
        (3.0, 1.0, 2.0),
        (3.0, 0.5, 4.0),
        (2.2, 1.0, 7.5),
        (1.5, 0.7, 1.0),
    ])
    def test_tail_mean_against_quadrature(self, alpha, p, a):
        spec = spec_of("pareto_radial", alpha=alpha)
        got = dist.expect(spec, Tail(p, a), MultiIndex((1,)))[0]
        want = self.log_domain_quadrature(alpha, p, a)
        assert got == pytest.approx(want, rel=1e-6)

    def test_tail_mean_below_one_clamps(self):
        # the variable never falls below 1, so any level a <= 1 gives the full moment
        spec = spec_of("pareto_radial", alpha=3.0)
        full = dist.expect(spec, Tail(1.0, 0.0), MultiIndex((1,)))[0]
        assert dist.expect(spec, Tail(1.0, 0.5), MultiIndex((1,)))[0] == full
        assert full == pytest.approx(1.5)

    def test_infinite_moment_when_alpha_at_or_below_p(self):
        spec = spec_of("pareto_radial", alpha=0.8)
        assert dist.expect(spec, Tail(1.0, 2.0), MultiIndex((1,)))[0] == math.inf

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 3.0])
    @pytest.mark.parametrize("g", [Tail(1.0, math.inf), Tail(1.0, math.inf, ge=True),
                                   Tail(0.0, math.inf, ge=True)])
    def test_no_mass_at_an_infinite_level(self, alpha, g):
        # E(X^p 1(X >= inf)) = 0 whatever alpha, as the realized norms agree
        spec = spec_of("pareto_radial", alpha=alpha)
        assert np.array_equal(dist.expect(spec, g, MultiIndex((3,))), np.zeros(3))
        norms = norm_batch(spec, MultiIndex((3,)), seed=0, reps=2)
        assert np.array_equal(g(norms), np.zeros((2, 3)))

    def test_event_probability(self):
        spec = spec_of("pareto_radial", alpha=3.0)
        probs = dist.expect(spec, Tail(0.0, 2.0, ge=True), MultiIndex((3,)))
        assert np.allclose(probs, 0.125)
        assert np.all(dist.expect(spec, Tail(0.0, 0.5, ge=True), MultiIndex((2,))) == 1.0)

    def test_sample_norms_match_inverse_transform_moments(self):
        spec = spec_of("pareto_radial", d=3, alpha=3.0)
        norms = norm_batch(spec, MultiIndex((1000,)), seed=9, reps=50)
        assert norms.min() >= 1.0
        # E X = 1.5, sd of the mean over 50k draws ~ sqrt(0.75/50000) ~ 0.004
        assert norms.mean() == pytest.approx(1.5, abs=0.02)
        # direction is radial: every vector has the same norm as its first axis image
        s = one_array(spec, MultiIndex((500,)), seed=9)
        lens = np.sqrt((s**2).sum(axis=-1))
        assert np.all(lens >= 1.0 - 1e-12)

    def test_mean_and_second_moment_laws(self):
        spec = spec_of("pareto_radial", d=2, alpha=3.0)
        mv = dist.mean(spec, MultiIndex((2,)))
        assert mv.shape == (2, 1)
        assert np.allclose(mv, 1.5)
        sm = dist.expect(spec, Tail(2.0, 0.0), MultiIndex((2,)))
        assert np.allclose(sm, 3.0)
        heavy = spec_of("pareto_radial", alpha=1.0)
        assert dist.mean(heavy, MultiIndex((2,))) is None


class TestGaussian:
    def test_moments(self):
        spec = spec_of("iid_gaussian", d=3, sigma=2.0)
        batch = sample_batch(spec, MultiIndex((2000,)), seed=1, reps=20)
        assert abs(batch.mean()) < 0.02
        sq = (batch**2).sum(axis=-1)
        assert sq.mean() == pytest.approx(12.0, rel=0.03)
        assert np.allclose(dist.expect(spec, Tail(2.0, 0.0), MultiIndex((2,))), 12.0)
        assert np.all(dist.mean(spec, MultiIndex((2,))) == 0.0)

    def test_no_closed_form_tail(self):
        spec = spec_of("iid_gaussian")
        assert dist.expect(spec, Tail(1.0, 1.0), MultiIndex((2,))) is None
        sample = NormSample(spec, MultiIndex((2,)), 0, 3)
        assert sample.closed_form(Tail(1.0, 1.0)) is None
        ((first, norms),) = list(sample.chunks())
        assert first == 0 and Tail(1.0, 1.0)(norms).shape == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of("iid_gaussian", sigma=0.0)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_sigma_scales_the_normals_bit_for_bit(self, sigma):
        # sigma = 1 skips the multiply (x * 1.0 is x); either way a draw has
        # the bits of the standard normals of its keys times sigma
        spec = spec_of("iid_gaussian", d=3, sigma=sigma)
        n = MultiIndex((3, 4))
        keys = dist._DrawKeys(6, n)
        want = rng.normals(keys.heads(range(5)), keys.last, 3) * sigma
        got = sample_batch(spec, n, 6, 5)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRademacher:
    def test_unit_norms_and_signs(self):
        spec = spec_of("iid_rademacher", d=2)
        s = one_array(spec, MultiIndex((100,)), seed=3)
        assert s.shape == (100, 1)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert np.all(dist.fixed_norms(spec, MultiIndex((100,))) == 1.0)
        assert np.array_equal(dist.mean(spec, MultiIndex((100,))), np.zeros((100, 1)))


class TestSubsetProducts:
    def test_mask_order_m2(self):
        bits = np.array([[-1.0, 1.0]])
        out = subset_products(bits)
        assert np.array_equal(out, [[-1.0, 1.0, -1.0]])

    def test_mask_order_m3(self):
        bits = np.array([[-1.0, 1.0, -1.0]])
        b1, b2, b3 = bits[0]
        out = subset_products(bits)[0]
        expected = [b1, b2, b1 * b2, b3, b1 * b3, b2 * b3, b1 * b2 * b3]
        assert np.array_equal(out, expected)


class TestPairwiseRademacher:
    def test_m2_exhaustive_structure(self):
        # [b1, b2, b1*b2]: the third coordinate is always the product of the
        # first two, so the triple is pairwise but not mutually independent
        spec = spec_of("pairwise_rademacher", m=2)
        seen = set()
        for seed in range(64):
            v = one_array(spec, MultiIndex((3,)), seed)[:, 0]
            assert v.shape == (3,)
            assert set(np.unique(v)) <= {-1.0, 1.0}
            assert v[2] == v[0] * v[1]
            seen.add((v[0], v[1]))
        assert seen == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_triple_product_is_constant(self):
        spec = spec_of("pairwise_rademacher", m=2)
        prods = [
            np.prod(one_array(spec, MultiIndex((3,)), s)) for s in range(32)
        ]
        assert set(prods) == {1.0}

    def test_block_tiling_reuses_subset_structure(self):
        spec = spec_of("pairwise_rademacher", m=2)
        s = one_array(spec, MultiIndex((9,)), seed=5)
        v = s[:, 0]
        for block in range(3):
            b = v[3 * block : 3 * block + 3]
            assert b[2] == b[0] * b[1]
        # distinct blocks hold independent draws: not all identical
        assert not (
            np.array_equal(v[0:3], v[3:6]) and np.array_equal(v[3:6], v[6:9])
        )

    def test_pairwise_correlations_are_null(self):
        spec = spec_of("pairwise_rademacher", m=4)
        reps = 100_000
        batch = sample_batch(spec, MultiIndex((15,)), seed=2, reps=reps)[..., 0]
        corr = batch.T @ batch / reps
        off = corr - np.diag(np.diag(corr))
        assert np.abs(off).max() < 4.0 / math.sqrt(reps)
        assert np.allclose(np.diag(corr), 1.0)

    def test_partial_block_and_validation(self):
        spec = spec_of("pairwise_rademacher", m=3)
        s = one_array(spec, MultiIndex((5,)), seed=0)
        assert set(np.unique(s[:, 0])) <= {-1.0, 1.0}
        with pytest.raises(ValueError):
            spec_of("pairwise_rademacher", m=1)
        with pytest.raises(ValueError):
            spec_of("pairwise_rademacher", m=21)


class TestSamplingContracts:
    families = [
        spec_of("iid_gaussian", d=2, sigma=1.0),
        spec_of("pareto_radial", d=2, alpha=3.0),
        spec_of("iid_rademacher"),
        spec_of("pairwise_rademacher", m=3),
        spec_of("spiked_cui"),
    ]

    @pytest.mark.parametrize("spec", families, ids=lambda s: s.family)
    def test_cells_stable_under_box_growth(self, spec):
        small = one_array(spec, MultiIndex((6,)), seed=13)
        large = one_array(spec, MultiIndex((17,)), seed=13)
        assert np.array_equal(small, large[:6])

    def test_cells_stable_under_growth_2d(self):
        spec = spec_of("iid_gaussian", d=3)
        small = one_array(spec, MultiIndex((2, 3)), seed=4)
        large = one_array(spec, MultiIndex((5, 5)), seed=4)
        assert np.array_equal(small, large[:2, :3])

    all_families = families + [spec_of("growing_non_cui"), spec_of("constant", c=-2.0)]

    @pytest.mark.parametrize("spec", families, ids=lambda s: s.family)
    def test_batch_rows_equal_derived_seed_samples(self, spec):
        n = MultiIndex((7,))
        batch = sample_batch(spec, n, seed=21, reps=3)
        for r in range(3):
            # row r is replication r, drawn from derive_seed(21, r) alone
            row = sample_batch(spec, n, seed=21, reps=1, first_rep=r)[0]
            assert np.array_equal(batch[r], row)

    def test_batch_is_deterministic(self):
        spec = spec_of("iid_gaussian", d=2)
        a = sample_batch(spec, MultiIndex((3, 3)), seed=5, reps=4)
        b = sample_batch(spec, MultiIndex((3, 3)), seed=5, reps=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", all_families, ids=lambda s: s.family)
    @pytest.mark.parametrize("chunk_cells", [1, 3, 10, 17])
    def test_chunked_norm_batch_equals_one_shot(self, monkeypatch, spec, chunk_cells):
        # 7 reps of 5 cells: chunks of 1, 1, 2 and 3 reps, none dividing 7
        n, reps = MultiIndex((5,)), 7
        one_shot = norm_batch(spec, n, seed=3, reps=reps)
        assert one_shot.shape == (reps, 5)
        monkeypatch.setattr(dist, "CHUNK_CELLS", chunk_cells)
        for hold in (False, True):
            sample = NormSample(spec, n, 3, reps)
            if hold:
                sample.hold()
            chunks = [(first, norms.copy()) for first, norms in sample.chunks()]
            assert [first for first, _ in chunks] == list(range(0, reps, max(1, chunk_cells // 5)))
            assert np.array_equal(np.concatenate([norms for _, norms in chunks]), one_shot)
        # a few reps at a time into buffers of junk that the caller owns: the
        # default norm path draws its vectors into the scratch's last planes
        out, scratch = dist.draw_buffers(spec, n, reps, norms=True)
        out.fill(np.nan)
        scratch.fill(0x5555_5555_5555_5555)
        for first, k in RAGGED:
            got = norm_batch(spec, n, 3, k, first_rep=first, out=out[first : first + k], scratch=scratch)
            assert np.shares_memory(got, out)
        assert np.array_equal(out, one_shot)
        keys = dist._DrawKeys(3, n)
        direct = np.full((reps, 5), np.nan)
        scratch.fill(0x5555_5555_5555_5555)
        get_family(spec.family).norm_values(spec, n, keys.heads(range(reps)), keys.last, direct, scratch)
        assert np.array_equal(one_shot, direct)

    @pytest.mark.parametrize("seed", [0, 2, 2**63 + 5, -1, 37])
    def test_rep_starts_equal_one_derived_seed_per_rep(self, seed):
        reps = range(3, 203)
        want = np.array([rng.as_seed(rng.derive_seed(seed, r)) for r in reps], dtype=np.uint64)
        assert np.array_equal(dist._DrawKeys(seed, MultiIndex((4, 5))).starts(reps), want.reshape(-1, 1, 1))

    def test_key_hashing_calls_do_not_grow_with_reps(self, monkeypatch):
        calls = []
        real = rng.mix64

        def counting_mix64(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(rng, "mix64", counting_mix64)
        counts = []
        for reps in (10, 1000):
            del calls[:]
            sample_batch(spec_of("pareto_radial", alpha=3.0), MultiIndex((3,)), 5, reps)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_norm_batch_matches_sample_batch(self):
        spec = spec_of("pareto_radial", d=3, alpha=3.0)
        n = MultiIndex((4, 4))
        norms = norm_batch(spec, n, seed=8, reps=2)
        batch = sample_batch(spec, n, seed=8, reps=2)
        assert np.allclose(norms, np.sqrt((batch**2).sum(axis=-1)))

    def test_empirical_mode_blocks_analytic_tails(self):
        spec = DistributionSpec(
            "constant", {"c": 1.0}, dim_D=1, moment_mode="empirical"
        )
        sample = NormSample(spec, MultiIndex((2,)), 0, 3)
        assert sample.closed_form(Tail(1.0, 0.5)) is None
        ((_, norms),) = list(sample.chunks())
        assert np.array_equal(Tail(1.0, 0.5)(norms), np.ones((3, 2)))
        # the law itself still has the closed form; only the choice is empirical
        assert np.array_equal(dist.expect(spec, Tail(1.0, 0.5), MultiIndex((2,))), [1.0, 1.0])


def allocating_vectors(spec, box, starts):
    """Each family's vectors for the reps of `starts` as plain allocating
    expressions: the oracle of the draws into caller-owned buffers."""
    fam = get_family(spec.family)
    *inner, last = dist._coord_grids(box)
    head = rng.cell_keys(starts, inner)
    if spec.family == "pareto_radial":
        u = rng.uniform_open01(rng.substream(head, last, 0))
        return (u ** (-1.0 / spec.param("alpha")))[..., None]
    if spec.family == "iid_gaussian":
        return rng.normals(head, last, spec.dim_D) * spec.param("sigma")
    if spec.family == "iid_rademacher":
        return rng.signs(rng.substream(head, last, 0))[..., None]
    if spec.family == "pairwise_rademacher":
        return fam._signs(spec, box, head)[..., None]
    vals = fam.cell_values(spec, box)[..., None]
    return np.broadcast_to(vals, starts.shape[:1] + vals.shape)


def allocating_norms(spec, box, starts):
    fixed = get_family(spec.family).fixed_norms(spec, box)
    if fixed is not None:
        return np.broadcast_to(fixed, starts.shape[:1] + fixed.shape)
    v = allocating_vectors(spec, box, starts)
    return v[..., 0] if spec.family == "pareto_radial" else np.sqrt((v * v).sum(axis=-1))


DRAW_FAMILIES = [
    spec_of("iid_gaussian", d=3, sigma=1.5),
    spec_of("iid_gaussian", d=8),
    # alpha 1, 2 and 0.5 give the exponents -1, -0.5 and -2, which numpy's
    # power may treat apart from a general exponent
    *[spec_of("pareto_radial", d=2, alpha=a) for a in (3.0, 1.0, 2.0, 0.5)],
    spec_of("iid_rademacher"),
    spec_of("pairwise_rademacher", m=3),
    spec_of("spiked_cui"),
    spec_of("growing_non_cui"),
    spec_of("constant", c=-2.0),
]
# 7 reps in chunks of 3, 3 and 1: the last chunk reuses the front of buffers
# a longer chunk filled
RAGGED = [(0, 3), (3, 3), (6, 1)]


@pytest.mark.parametrize("method", ["vectors", "norm_values"])
@pytest.mark.parametrize(
    "spec", DRAW_FAMILIES, ids=lambda s: "-".join([s.family, f"D{s.dim_D}", *map(str, s.params.values())])
)
def test_draws_into_reused_buffers_equal_the_allocating_expressions(spec, method):
    fam = get_family(spec.family)
    n = MultiIndex((11,)) if fam.max_d == 1 else MultiIndex((3, 4))
    out, scratch = dist.draw_buffers(spec, n, 3, norms=method == "norm_values")
    out.fill(np.nan)
    scratch.fill(0x5555_5555_5555_5555)
    oracle = allocating_vectors if method == "vectors" else allocating_norms
    keys = dist._DrawKeys(4, n)
    want = oracle(spec, n, keys.starts(range(7)))
    for first, k in RAGGED:
        head = keys.heads(range(first, first + k))
        getattr(fam, method)(spec, n, head, keys.last, out[:k], dist._front(scratch, k))
        assert np.array_equal(out[:k], want[first:first + k])


def test_sample_batch_into_buffers_returns_them():
    spec = spec_of("pareto_radial", d=2, alpha=3.0)
    n = MultiIndex((3, 4))
    batch, scratch = dist.draw_buffers(spec, n, 5)
    got = sample_batch(spec, n, 9, 2, first_rep=3, out=batch[:2], scratch=scratch)
    assert np.shares_memory(got, batch)
    assert np.array_equal(got, sample_batch(spec, n, 9, 5)[3:])


def derived_cell_keys(seed, box, reps):
    """Stream 0 of every cell, over the box's plain coordinate grids from one
    derive_seed(seed, r) per rep r: the keys a pareto draw of those reps
    hashes."""
    starts = np.array([rng.derive_seed(seed, r) for r in reps], dtype=np.uint64)
    *inner, last = dist._coord_grids(box)
    return rng.substream(rng.cell_keys(starts.reshape((-1,) + (1,) * box.d), inner), last, 0)


def test_no_key_constant_leaks_between_draws(monkeypatch):
    # a draw derives its key constants (the seed's root, the mixed grids) once
    # and keeps them while it is half read: draws of another seed and of
    # another box in between neither see them nor change them
    spec = spec_of("pareto_radial", d=2, alpha=3.0)
    box, other = MultiIndex((3, 4)), MultiIndex((5, 2))
    plan = [(4, box, range(0, 3)), (9, box, range(0, 3)), (4, other, range(0, 3)),
            (9, other, range(5, 7)), (4, box, range(3, 6)), (4, box, range(6, 7))]
    want = [derived_cell_keys(seed, b, reps) for seed, b, reps in plan]
    got = []
    real = rng.substream

    def recording(*args, **kwargs):
        keys = real(*args, **kwargs)
        got.append(keys.copy())
        return keys

    monkeypatch.setattr(rng, "substream", recording)
    monkeypatch.setattr(dist, "CHUNK_CELLS", 36)  # chunks of 3 reps of either box
    split = dist.draw_chunks(spec, box, 4, 7)  # split at rep 3 and rep 6
    next(split)
    list(dist.draw_chunks(spec, box, 9, 3))
    list(dist.draw_chunks(spec, other, 4, 3))
    sample_batch(spec, other, 9, 2, first_rep=5)
    list(split)
    assert len(got) == len(want)
    for keys, oracle in zip(got, want):
        assert np.array_equal(keys, oracle)


KEY_CHAIN_SPECS = [spec_of("pareto_radial", d=1, alpha=3.0), spec_of("iid_gaussian", d=3)]


@pytest.mark.parametrize("spec", KEY_CHAIN_SPECS, ids=lambda s: s.family)
def test_first_reps_are_the_same_bits_at_any_reps(spec):
    # "rerun with more reps" keeps the reps already drawn: a rep's chain
    # starts from (seed, rep) alone
    box = MultiIndex((64, 64))
    for draw in (sample_batch, norm_batch):
        assert np.array_equal(draw(spec, box, 5, 20), draw(spec, box, 5, 50)[:20])
    streamed = np.concatenate([norms.copy() for _, norms in NormSample(spec, box, 5, 50).chunks()])
    assert np.array_equal(streamed[:20], norm_batch(spec, box, 5, 20))


@pytest.mark.parametrize("small, large", [((5,), (64,)), ((3, 7), (16, 9)), ((2, 3, 4), (5, 4, 8))])
@pytest.mark.parametrize("spec", KEY_CHAIN_SPECS, ids=lambda s: s.family)
def test_a_larger_box_leaves_a_smaller_boxs_cells_unchanged(spec, small, large):
    got = sample_batch(spec, MultiIndex(small), 2, 4)
    within = sample_batch(spec, MultiIndex(large), 2, 4)[(slice(None),) + tuple(slice(0, c) for c in small)]
    assert np.array_equal(got, within)


@pytest.mark.parametrize("norms", [False, True])
@pytest.mark.parametrize("box", [(24,), (4, 6), (2, 3, 4)])
@pytest.mark.parametrize(
    "spec, uniforms",
    [
        (spec_of("pareto_radial", d=3, alpha=3.0), 1),
        (spec_of("iid_rademacher"), 1),
        (spec_of("iid_gaussian", d=8), 8),
        # a last half Box-Muller pair still takes both uniforms
        (spec_of("iid_gaussian", d=3), 4),
    ],
    ids=["pareto", "rademacher", "gauss8", "gauss3"],
)
def test_each_chunk_hashes_one_full_size_pass_per_uniform(monkeypatch, spec, uniforms, box, norms):
    # no cell is hashed twice: per chunk, the only cell-sized hashing is one
    # combine (one mix64) per uniform; heads and grids are smaller. Norms
    # that are not random (rademacher's) hash nothing
    box = MultiIndex(box)
    if norms and get_family(spec.family).fixed_norms(spec, box) is not None:
        uniforms = 0
    sizes = {"combine": [], "mix64": []}
    for name in sizes:
        real = getattr(rng, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            sizes[_name].append(np.size(result))
            return result

        monkeypatch.setattr(rng, name, counting)
    columns = 1 if norms else get_family(spec.family).columns(spec)
    monkeypatch.setattr(dist, "CHUNK_CELLS", 3 * box.size * columns)  # chunks of 3, 3 and 1 reps
    chunks = dist.draw_chunks(spec, box, 6, 7, norms=norms)
    seen = []
    while True:
        for found in sizes.values():
            found.clear()
        try:
            first, chunk = next(chunks)
        except StopIteration:
            break
        cells = len(chunk) * box.size
        seen.append(len(chunk))
        for found in sizes.values():
            assert found.count(cells) == uniforms
            assert max(found, default=0) <= cells
    assert seen == [3, 3, 1]


FAULT_SCRIPT = """
import resource, sys
from cesaro_lab.distributions import DistributionSpec, NormSample
from cesaro_lab.lattice import MultiIndex
spec = DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1)

def held_draw(box, reps):
    sample = NormSample(spec, MultiIndex(box), 0, reps)
    sample.hold()
    for _ in sample.chunks():
        pass

held_draw((16, 16), 2)  # imports and first-call set-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
held_draw((256, 256), int(sys.argv[1]))
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_minflt - before, usage.ru_maxrss)
"""


def test_draw_faults_grow_only_with_the_output():
    # Each 256x256 rep is one chunk of the held draw, so the held norms are
    # all that may grow with reps: 120 reps x 65536 cells x 8 B from 40 to
    # 160 reps. Two ways to grow more, one check each:
    # - a chunk-sized temporary freed at the end of a chunk lets the
    #   allocator return its pages, and the next chunk faults them in again
    #   (about 480 faults per rep before the draw owned its buffers); such
    #   temporaries are too small for huge pages, so 4 KiB faults count them;
    # - a scratch that takes all reps at once raises the peak by as much
    #   again, but with transparent huge pages its faults are 2 MiB ones,
    #   which only the peak resident size sees.
    src = str(Path(cesaro_lab.__file__).resolve().parents[1])
    faults, peaks_kb = [], []
    for reps in (40, 160):
        out = subprocess.run(
            [sys.executable, "-c", FAULT_SCRIPT, str(reps)],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        fault, peak = map(int, out.stdout.split())
        faults.append(fault)
        peaks_kb.append(peak)
    output_growth_kb = 120 * 256 * 256 * 8 / 1024
    assert peaks_kb[1] - peaks_kb[0] <= 1.25 * output_growth_kb, peaks_kb
    if faults == [0, 0]:
        pytest.skip("ru_minflt reads 0 on this platform")
    added_pages = 120 * 256 * 256 * 8 // 4096
    assert faults[1] - faults[0] <= 1.25 * added_pages, faults
