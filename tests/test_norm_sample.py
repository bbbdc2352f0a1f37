"""One NormSample per public call: each call draws its norms at most once,
and every answer from the shared draw is bit-equal to the single-query path,
which draws afresh for each query."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import cesaro_lab.cui as cui
import cesaro_lab.distributions as dist
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
        fld, exact = NormSample(SPECS["pareto_radial"], BOX, SEED, REPS).expectations(
            Tail(1.0, 2.0)
        )
        assert exact and fld.shape == BOX.coords
        assert draws == []

    def test_validation_happens_at_the_draw(self):
        sample = NormSample(PARETO_EMPIRICAL, BOX, SEED, 0)
        with pytest.raises(ValueError):
            sample.norms()


PUBLIC_CALLS = {
    "build_cui_report": lambda spec: build_cui_report(spec, 0.5, GRID, BOX, reps=REPS, seed=SEED),
    "cui_certificate": lambda spec: cui_certificate(spec, 1.0, 0.2, GRID, BOX, reps=REPS, seed=SEED),
    "thresholds_from_cui": lambda spec: outcome(
        lambda: thresholds_from_cui(spec, BOX, reps=REPS, seed=SEED, j_max=4, search_cap=64)
    ),
    "build_phi_from_cui": lambda spec: outcome(
        lambda: build_phi_from_cui(spec, BOX, reps=REPS, seed=SEED, j_max=4, search_cap=64)
    ),
    "poussin_forward_check": lambda spec: outcome(
        lambda: poussin_forward_check(spec, PHI, [1.0, 0.5], BOX, reps=REPS, seed=SEED)
    ),
    "verify_criterion_equivalence": lambda spec: verify_criterion_equivalence(
        spec, [0.5, 0.25], BOX, reps=REPS, seed=SEED, a_grid=GRID
    ),
}


@pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
def test_one_draw_per_public_call(draws, call):
    PUBLIC_CALLS[call](PARETO_EMPIRICAL)
    assert len(draws) == 1
    assert draws[0] == (PARETO_EMPIRICAL, BOX, SEED, REPS)


@pytest.mark.parametrize("call", ["build_cui_report", "cui_certificate", "thresholds_from_cui"])
@pytest.mark.parametrize("name", ["constant", "pareto_radial"])
def test_closed_forms_draw_nothing(draws, name, call):
    PUBLIC_CALLS[call](SPECS[name])
    assert draws == []


def test_constant_gauge_and_forward_check_draw_nothing(draws):
    PUBLIC_CALLS["build_phi_from_cui"](SPECS["constant"])
    PUBLIC_CALLS["poussin_forward_check"](SPECS["constant"])
    assert draws == []


# --- bit-equality with the single-query path -------------------------------


def tail(spec, p, a, ge=False):
    return cesaro_tail_sup(spec, p, a, BOX, reps=REPS, seed=SEED, ge=ge)


def reference_thresholds(spec, j_max=4, search_cap=64):
    """The bisection of thresholds_from_cui, one fresh draw per probe."""
    out, prev = [], 0
    for j in range(1, j_max + 1):
        target = 2.0**-j
        lo, hi = prev + 1, search_cap
        if lo > hi or tail(spec, 1.0, float(hi), ge=True).upper() > target:
            return HorizonTooSmallError
        while lo < hi:
            mid = (lo + hi) // 2
            if tail(spec, 1.0, float(mid), ge=True).upper() <= target:
                hi = mid
            else:
                lo = mid + 1
        out.append(lo)
        prev = lo
    return tuple(out)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_cui_answers_equal_single_queries(spec):
    report = PUBLIC_CALLS["build_cui_report"](spec)
    ests = [tail(spec, 0.5, a) for a in GRID]
    assert report.tail_sup == tuple(e.value for e in ests)
    assert report.stderr == tuple(e.stderr for e in ests)
    assert report.mode == ests[0].mode
    assert report.low_reps == any(e.low_reps for e in ests)
    mean = check_criterion_i(spec, BOX, reps=REPS, seed=SEED)
    assert (report.mean_sup, report.mean_stderr) == (mean.value, mean.stderr)

    certified = [a for a in GRID if tail(spec, 1.0, a).upper() < 0.2]
    assert PUBLIC_CALLS["cui_certificate"](spec) == (certified[0] if certified else None)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_poussin_answers_equal_single_queries(spec):
    want = reference_thresholds(spec)
    assert PUBLIC_CALLS["thresholds_from_cui"](spec) == want
    built = PUBLIC_CALLS["build_phi_from_cui"](spec)
    if want is HorizonTooSmallError:
        assert built is want
    else:
        fixed = dist.fixed_norms(spec, BOX)
        norms = fixed if fixed is not None else dist.norm_batch(spec, BOX, SEED, REPS)
        assert built.thresholds == want
        assert built.calibration_max_norm == float(norms.max())

    forward = PUBLIC_CALLS["poussin_forward_check"](spec)
    mom = outcome(lambda: poussin_moment_check(spec, PHI, BOX, reps=REPS, seed=SEED))
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
def test_equivalence_report_equals_fresh_draw_path(monkeypatch, draws, spec):
    shared = PUBLIC_CALLS["verify_criterion_equivalence"](spec).to_json()
    shared_draws = len(draws)
    monkeypatch.setattr(cui, "NormSample", FreshSample)
    fresh = PUBLIC_CALLS["verify_criterion_equivalence"](spec).to_json()
    assert repr(shared) == repr(fresh)
    assert shared_draws <= 1
    if shared_draws:
        assert len(draws) - shared_draws > 1  # the reference really redrew


# --- one draw under threads -------------------------------------------------


def test_threaded_report_draws_once(monkeypatch, draws):
    real = dist.norm_batch

    def slow_norm_batch(*args, **kwargs):
        time.sleep(0.05)  # hold the draw open while the other workers arrive
        return real(*args, **kwargs)

    monkeypatch.setattr(dist, "norm_batch", slow_norm_batch)
    box = MultiIndex((32, 32))
    grid = tuple(float(a) for a in range(1, 9))
    results = {}

    def run(threads):
        results[threads] = build_cui_report(
            PARETO_EMPIRICAL, 0.5, grid, box, reps=REPS, seed=SEED, threads=threads
        )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run, args=(4,), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "threaded report did not finish"
    finally:
        sys.setswitchinterval(old)
    assert len(draws) == 1
    run(1)
    assert len(draws) == 2
    assert results[4] == results[1]
