"""The per-family norm law against Monte Carlo, and moment_mode as the one
switch between the two in every estimator."""

import dataclasses
import functools

import numpy as np
import pytest

import cesaro_lab.distributions as dist
from cesaro_lab.cui import (
    EventArray,
    adversarial_event_array,
    cesaro_tail_sup,
    check_event_criterion,
    markov_event_array,
)
from cesaro_lab.distributions import DistributionSpec, NormSample, Tail, norm_batch
from cesaro_lab.lattice import MultiIndex
from cesaro_lab.poussin import (
    PhiFunction,
    phi_eval_many,
    poussin_moment_check,
    u_from_thresholds,
)

BOX = MultiIndex((64,))
PHI = PhiFunction(u_from_thresholds((2, 3, 5, 8), 64))

FIXED_NORMS = {
    "constant": DistributionSpec("constant", {"c": 2.0}, dim_D=1),
    "spiked_cui": DistributionSpec("spiked_cui", {"gap_base": 2}, dim_D=2),
    "growing_non_cui": DistributionSpec("growing_non_cui", {"exponent": 0.5}, dim_D=1),
    "iid_rademacher": DistributionSpec("iid_rademacher", {}, dim_D=1),
    "pairwise_rademacher": DistributionSpec("pairwise_rademacher", {"m": 3}, dim_D=1),
}
# alpha = 5 keeps the variance of X^2 finite, so 4 se is a fair tolerance
PARETO = DistributionSpec("pareto_radial", {"alpha": 5.0}, dim_D=1)
GAUSSIAN = DistributionSpec("iid_gaussian", {"sigma": 2.0}, dim_D=3)
SPECS = {**FIXED_NORMS, "pareto_radial": PARETO, "iid_gaussian": GAUSSIAN}

TAILS = [
    Tail(p, a, ge) for p in (0, 0.5, 1, 2) for a in (0, 1.5, 4) for ge in (False, True)
]


def phi(t):
    return phi_eval_many(PHI, t)


@functools.cache
def drawn_norms(name):
    norms = norm_batch(SPECS[name], BOX, seed=1, reps=2000)
    norms.flags.writeable = False
    return norms


CLOSED_FORMS = (
    [(name, g) for name in FIXED_NORMS for g in TAILS + [phi]]
    + [("pareto_radial", g) for g in TAILS]
    + [("iid_gaussian", Tail(2, 0, ge)) for ge in (False, True)]
)


def case_id(v):
    return v if isinstance(v, str) else getattr(v, "__name__", repr(v))


@pytest.mark.parametrize("name,g", CLOSED_FORMS, ids=case_id)
def test_closed_form_matches_monte_carlo(name, g):
    spec = SPECS[name]
    want = dist.expect(spec, g, BOX)
    assert want is not None and want.shape == BOX.coords
    draws = g(drawn_norms(name))
    if name in FIXED_NORMS:
        assert np.array_equal(draws, np.broadcast_to(want, draws.shape))
        return
    # iid cells: one law per cell, so pool every draw
    assert np.all(want == want[0])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - want[0]) <= 4.0 * se


@pytest.mark.parametrize("name,g", [
    ("pareto_radial", phi),
    ("iid_gaussian", Tail(1, 0)),
    ("iid_gaussian", Tail(0, 1.5, ge=True)),
])
def test_no_closed_form_means_none(name, g):
    assert dist.expect(SPECS[name], g, BOX) is None


ESTIMATORS = {
    "tail": lambda spec: cesaro_tail_sup(NormSample(spec, BOX, reps=20), 1.0, 1.5),
    "markov": lambda spec: markov_event_array(NormSample(spec, BOX, reps=20), 1.0, 0.5),
    "event_moment": lambda spec: check_event_criterion(
        NormSample(spec, BOX, reps=20), EventArray(BOX, probs=np.zeros(BOX.coords)), 0.5, 0.5
    ),
    "adversarial": lambda spec: adversarial_event_array(NormSample(spec, BOX, reps=20), 0.5),
    "phi_moment": lambda spec: poussin_moment_check(NormSample(spec, BOX, reps=20), PHI),
}


@pytest.mark.parametrize("mode", ["analytic", "empirical"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_moment_mode_decides_every_estimator(monkeypatch, name, mode):
    spec = dataclasses.replace(SPECS[name], moment_mode=mode)
    calls = []
    real = dist.norm_batch

    def counting_norm_batch(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
    wrong = {}
    for est_name, run in ESTIMATORS.items():
        calls.clear()
        result = run(spec)
        closed = name in FIXED_NORMS or (name == "pareto_radial" and est_name != "phi_moment")
        sampled = mode == "empirical" or not closed
        if bool(calls) != sampled:
            wrong[est_name] = f"drew {len(calls)} batches"
        if hasattr(result, "mode") and result.mode != ("empirical" if sampled else "analytic"):
            wrong[est_name] = f"mode {result.mode}"
        if est_name == "markov" and (result.probs is None) != sampled:
            wrong[est_name] = "probs vs indicators"
    assert wrong == {}
