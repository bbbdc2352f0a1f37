"""Queries take the caller's NormSample: a call, or a CLI command, draws its
norms at most once, a grid of levels or a threshold search reads one tail
profile, and every answer from a shared draw or a profile is bit-equal to
the single-query path, which asks one level of a fresh draw per query."""

import dataclasses
import json

import numpy as np
import pytest

import cesaro_lab.cui as cui
import cesaro_lab.distributions as dist
import cesaro_lab.poussin as poussin
from cesaro_lab import cli
from cesaro_lab.cui import (
    build_cui_report,
    cesaro_tail_sup,
    check_criterion_i,
    cui_certificate,
    verify_criterion_equivalence,
)
from cesaro_lab.distributions import DistributionSpec, NormSample, Tail
from cesaro_lab.errors import HorizonTooSmallError, PhiDomainError
from cesaro_lab.lattice import MultiIndex
from cesaro_lab.poussin import (
    PhiFunction,
    build_phi_from_cui,
    poussin_forward_check,
    poussin_moment_check,
    thresholds_from_cui,
    u_from_thresholds,
)

BOX = MultiIndex((64,))
REPS = 20
SEED = 3
GRID = (0.5, 1.0, 2.0, 4.0)
PHI = PhiFunction(u_from_thresholds(range(1, 9), 64))

SPECS = {
    "constant": DistributionSpec("constant", {"c": 2.0}, dim_D=1),
    "spiked_cui": DistributionSpec("spiked_cui", {"gap_base": 2}, dim_D=2),
    "growing_non_cui": DistributionSpec("growing_non_cui", {"exponent": 0.5}, dim_D=1),
    "iid_rademacher": DistributionSpec("iid_rademacher", {}, dim_D=1),
    "pairwise_rademacher": DistributionSpec("pairwise_rademacher", {"m": 3}, dim_D=1),
    "pareto_radial": DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1),
    "iid_gaussian": DistributionSpec("iid_gaussian", {"sigma": 1.0}, dim_D=2),
}
ALL_SPECS = [
    pytest.param(dataclasses.replace(spec, moment_mode=mode), id=f"{name}-{mode}")
    for name, spec in SPECS.items()
    for mode in ("analytic", "empirical")
]
PARETO_EMPIRICAL = dataclasses.replace(SPECS["pareto_radial"], moment_mode="empirical")


@pytest.fixture
def draws(monkeypatch):
    """The arguments of every norm_batch call made while the test runs."""
    calls = []
    real = dist.norm_batch

    def counting_norm_batch(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
    return calls


def outcome(fn):
    """fn()'s result, or the type of the package error it raised."""
    try:
        return fn()
    except (HorizonTooSmallError, PhiDomainError) as exc:
        return type(exc)


class TestNormSample:
    def test_draws_lazily_once_and_read_only(self, draws):
        sample = NormSample(PARETO_EMPIRICAL, BOX, SEED, REPS)
        assert draws == []
        first = sample.norms()
        assert sample.norms() is first
        assert sample.expectations(Tail(1.0, 2.0))[1] is False
        assert len(draws) == 1
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        assert np.array_equal(first, dist.norm_batch(PARETO_EMPIRICAL, BOX, SEED, REPS))

    def test_closed_form_draws_nothing(self, draws):
        fld, exact, g = NormSample(SPECS["pareto_radial"], BOX, SEED, REPS).expectations(
            Tail(1.0, 2.0)
        )
        assert exact and g is None and fld.shape == BOX.coords
        assert draws == []

    def test_validation_happens_at_the_draw(self):
        sample = NormSample(PARETO_EMPIRICAL, BOX, SEED, 0)
        with pytest.raises(ValueError):
            sample.norms()


def sample_of(spec, cls=NormSample, seed=SEED):
    return cls(spec, BOX, seed, REPS)


PUBLIC_CALLS = {
    "build_cui_report": lambda sample: build_cui_report(sample, 0.5, GRID),
    "cui_certificate": lambda sample: cui_certificate(sample, 1.0, 0.2, GRID),
    "thresholds_from_cui": lambda sample: outcome(
        lambda: thresholds_from_cui(sample, j_max=4, search_cap=64)
    ),
    "build_phi_from_cui": lambda sample: outcome(
        lambda: build_phi_from_cui(sample, j_max=4, search_cap=64)
    ),
    "poussin_forward_check": lambda sample: outcome(
        lambda: poussin_forward_check(sample, PHI, [1.0, 0.5])
    ),
    "verify_criterion_equivalence": lambda sample: verify_criterion_equivalence(
        sample, [0.5, 0.25], a_grid=GRID
    ),
}


@pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
def test_one_draw_per_public_call(draws, call):
    PUBLIC_CALLS[call](sample_of(PARETO_EMPIRICAL))
    assert len(draws) == 1
    assert draws[0] == (PARETO_EMPIRICAL, BOX, SEED, REPS)


@pytest.mark.parametrize("call", ["build_cui_report", "cui_certificate", "thresholds_from_cui"])
@pytest.mark.parametrize("name", ["constant", "pareto_radial"])
def test_closed_forms_draw_nothing(draws, name, call):
    PUBLIC_CALLS[call](sample_of(SPECS[name]))
    assert draws == []


def test_constant_gauge_and_forward_check_draw_nothing(draws):
    PUBLIC_CALLS["build_phi_from_cui"](sample_of(SPECS["constant"]))
    PUBLIC_CALLS["poussin_forward_check"](sample_of(SPECS["constant"]))
    assert draws == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check-cui", "--p", "0.5", "--horizon", "16x16", "--reps", "20"],
        ["poussin", "--horizon", "256", "--j-max", "4", "--search-cap", "64",
         "--reps", "20", "--eps", "1.0,0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_command_draws_once(tmp_path, draws, argv):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(PARETO_EMPIRICAL.to_json()))
    code = cli.main([*argv, "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(draws) == 1


# --- every tail query through the public binding ---------------------------


@pytest.fixture
def tail_queries(monkeypatch):
    """The level of every call to the cesaro_tail_sup bindings of cui and
    poussin (the names a tracer wraps) made while the test runs."""
    levels = []
    real = cui.cesaro_tail_sup

    def counting_tail_sup(sample, p, a, *args, **kwargs):
        levels.append(a)
        return real(sample, p, a, *args, **kwargs)

    monkeypatch.setattr(cui, "cesaro_tail_sup", counting_tail_sup)
    monkeypatch.setattr(poussin, "cesaro_tail_sup", counting_tail_sup)
    return levels


SWEEP_SEEDS = range(10)


def test_report_queries_each_level_and_the_mean(tail_queries):
    """One profile answers the whole grid, bit-equal to a one-level query at
    each level and to the first-moment query, over every family, both moment
    modes and ten seeds."""
    for param in ALL_SPECS:
        (spec,) = param.values
        for seed in SWEEP_SEEDS:
            report = build_cui_report(sample_of(spec, seed=seed), 0.5, GRID)
            ests = [tail(spec, 0.5, a, seed=seed) for a in GRID]
            assert report.tail_sup == tuple(e.value for e in ests), (param.id, seed)
            assert report.stderr == tuple(e.stderr for e in ests), (param.id, seed)
            mean = check_criterion_i(sample_of(spec, seed=seed))
            assert (report.mean_sup, report.mean_stderr) == (mean.value, mean.stderr)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_search_and_forward_check_query_per_probe_and_eps(tail_queries, spec):
    """The search reads every probe off one profile and settles on the
    thresholds of the per-probe bisection, over ten seeds; the forward check
    still asks one tail query per eps."""
    for seed in SWEEP_SEEDS:
        want = reference_thresholds(spec, seed=seed)
        got = outcome(lambda: thresholds_from_cui(sample_of(spec, seed=seed), 4, 64))
        assert got == want, seed

    del tail_queries[:]
    forward = PUBLIC_CALLS["poussin_forward_check"](sample_of(spec))
    if forward is not PhiDomainError:
        assert tail_queries == [float(fc.level) for fc in forward]
        assert len(tail_queries) == 2


# --- bit-equality with the single-query path -------------------------------


def tail(spec, p, a, ge=False, seed=SEED):
    return cesaro_tail_sup(sample_of(spec, seed=seed), p, a, ge=ge)


def reference_thresholds(spec, j_max=4, search_cap=64, seed=SEED):
    """The bisection of thresholds_from_cui, one tail query on a fresh draw
    per probe."""

    def sup_at(level):
        return tail(spec, 1.0, float(level), ge=True, seed=seed).upper()

    out, prev = [], 0
    for j in range(1, j_max + 1):
        target = 2.0**-j
        lo, hi = prev + 1, search_cap
        if lo > hi or sup_at(hi) > target:
            return HorizonTooSmallError
        while lo < hi:
            mid = (lo + hi) // 2
            if sup_at(mid) <= target:
                hi = mid
            else:
                lo = mid + 1
        out.append(lo)
        prev = lo
    return tuple(out)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_cui_answers_equal_single_queries(spec):
    report = PUBLIC_CALLS["build_cui_report"](sample_of(spec))
    ests = [tail(spec, 0.5, a) for a in GRID]
    assert report.tail_sup == tuple(e.value for e in ests)
    assert report.stderr == tuple(e.stderr for e in ests)
    assert report.mode == ests[0].mode
    assert report.low_reps == any(e.low_reps for e in ests)
    mean = check_criterion_i(sample_of(spec))
    assert (report.mean_sup, report.mean_stderr) == (mean.value, mean.stderr)

    certified = [a for a in GRID if tail(spec, 1.0, a).upper() < 0.2]
    assert PUBLIC_CALLS["cui_certificate"](sample_of(spec)) == (
        certified[0] if certified else None
    )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_poussin_answers_equal_single_queries(spec):
    want = reference_thresholds(spec)
    assert PUBLIC_CALLS["thresholds_from_cui"](sample_of(spec)) == want
    built = PUBLIC_CALLS["build_phi_from_cui"](sample_of(spec))
    if want is HorizonTooSmallError:
        assert built is want
    else:
        fixed = dist.fixed_norms(spec, BOX)
        norms = fixed if fixed is not None else dist.norm_batch(spec, BOX, SEED, REPS)
        assert built.thresholds == want
        assert built.calibration_max_norm == float(norms.max())

    forward = PUBLIC_CALLS["poussin_forward_check"](sample_of(spec))
    mom = outcome(lambda: poussin_moment_check(sample_of(spec), PHI))
    if mom is PhiDomainError:
        assert forward is PhiDomainError
        return
    K = mom.value + 2.0 * mom.stderr
    if forward is PhiDomainError:
        # growing_non_cui: phi(t)/t never reaches (K+1)/eps on the domain
        assert PHI.prefix[-1] / PHI.n_max < (K + 1.0) / 0.5
        return
    for fc in forward:
        assert fc.K == K
        t = tail(spec, 1.0, float(fc.level))
        assert (fc.tail_sup, fc.tail_stderr, fc.passed) == (t.value, t.stderr, t.upper() < fc.eps)


class FreshSample(NormSample):
    """The single-query reference: a new draw for every question."""

    def norms(self):
        norms = dist.norm_batch(self.spec, self.box, self.seed, self.reps)
        norms.flags.writeable = False
        return norms


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_equivalence_report_equals_fresh_draw_path(draws, spec):
    shared = PUBLIC_CALLS["verify_criterion_equivalence"](sample_of(spec))
    shared_draws = len(draws)
    fresh = PUBLIC_CALLS["verify_criterion_equivalence"](sample_of(spec, FreshSample))
    assert repr(shared) == repr(fresh)
    assert shared_draws <= 1
    if shared_draws:
        assert len(draws) - shared_draws > 1  # the reference really redrew
