"""Cesaro uniform integrability: tail estimators, certificates, and the
equivalence with the classical bounded-mean + small-event criterion.

The defining quantity is the supremum of Cesaro averages of truncated
moments over the boxes n below a horizon,

    sup_n (1/|n|) sum_{i <= n} E(||X_i||^p 1(||X_i|| > a)).

The supremum over all boxes is not computable; every query is asked of one
NormSample and evaluated over the dyadic boxes of the sample's box (its
schedule), and a report carries the horizon and schedule it was computed on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import LOW_REPS_FLOOR, NormSample, Tail
from .lattice import MultiIndex, dyadic_boxes, schedule_averages

DEFAULT_A_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _levels(a_grid: Sequence[float]) -> list[float]:
    grid = [float(a) for a in a_grid]
    if not all(math.isfinite(a) for a in grid):
        raise ValueError("a_grid levels must be finite")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("a_grid must be nonempty and strictly increasing")
    if grid[0] < 0:
        raise ValueError("a_grid levels must be >= 0")
    return grid


@dataclass(frozen=True)
class TailEstimate:
    """A schedule supremum with its Monte Carlo uncertainty (0 when analytic)."""

    value: float
    stderr: float
    mode: str  # "analytic" | "empirical"
    argmax_box: MultiIndex
    low_reps: bool = False

    def upper(self) -> float:
        return self.value + 2.0 * self.stderr


def _estimate(avgs: np.ndarray, exact: bool, schedule: Sequence[MultiIndex]) -> TailEstimate:
    """The sup over the schedule of one level of a profile.

    Exact averages (shape (boxes,)) give their argmax. Realized averages
    (shape (reps, boxes)) give the replication mean at the box maximizing it,
    with the stderr of that mean from the replication spread.
    """
    if exact:
        j = int(np.argmax(avgs))
        return TailEstimate(float(avgs[j]), 0.0, "analytic", schedule[j])
    reps = avgs.shape[0]
    means = avgs.mean(axis=0)
    if reps > 1:
        ses = avgs.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        ses = np.zeros_like(means)
    j = int(np.argmax(means))
    return TailEstimate(
        float(means[j]), float(ses[j]), "empirical", schedule[j], low_reps=reps < LOW_REPS_FLOOR
    )


def _schedule_sup(fld: np.ndarray, exact: bool, weight, box: MultiIndex) -> TailEstimate:
    """sup over the dyadic boxes of `box` of Cesaro averages of a per-cell
    field (shape box when exact, (reps,) + box when realized), or of
    weight of it cell by cell when weight is given."""
    return _estimate(schedule_averages(fld, box, weight), exact, dyadic_boxes(box))


def _tail_sups(
    sample: NormSample, p: float, levels: Sequence[float], ge: bool = False
) -> list[TailEstimate]:
    """Tail sups at each of the increasing `levels`: a closed form per level
    where the family and moment mode admit one, and one tail profile of the
    realized norms for all the other levels."""
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    box = sample.box
    ests = {}
    for a in levels:
        fld, exact, _ = sample.expectations(Tail(p, a, ge))
        if exact:
            ests[a] = _schedule_sup(fld, True, None, box)
    realized = [a for a in levels if a not in ests]
    if realized:
        profile = schedule_averages(sample.norms(), box, Tail(p, 0.0).power, realized, ge)
        schedule = dyadic_boxes(box)
        ests.update((a, _estimate(avgs, False, schedule)) for a, avgs in zip(realized, profile))
    return [ests[a] for a in levels]


def cesaro_tail_sup(
    sample: NormSample,
    p: float,
    a: float,
    ge: bool = False,
) -> TailEstimate:
    """Sup of Cesaro-averaged truncated p-th moments at level a over the
    dyadic boxes of the sample's box.

    The indicator is strict (||X|| > a) by default; ge=True switches to
    ||X|| >= a (the variant used when hunting integer tail levels).
    Expectations are closed-form when the family and moment mode admit them,
    otherwise plain Monte Carlo means over the sample's replications with a
    standard error propagated from the replication spread. This is the
    one-level case of the tail profile, bit for bit.
    """
    if not (a >= 0):
        raise ValueError("a must be >= 0")
    return _tail_sups(sample, p, [a], ge)[0]


def _first_certified(
    grid: Sequence[float], ests: Sequence[TailEstimate], eps: float
) -> Optional[float]:
    return next((a for a, e in zip(grid, ests) if e.upper() < eps), None)


def cui_certificate(
    sample: NormSample,
    p: float,
    eps: float,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
) -> Optional[float]:
    """Smallest grid level whose tail sup is certified below eps, else None.

    Empirical estimates certify at point + 2*stderr; the grid and horizon are
    part of the verdict's meaning and must be disclosed with it.
    """
    if not (eps > 0):
        raise ValueError("eps must be > 0")
    grid = _levels(a_grid)
    return _first_certified(grid, _tail_sups(sample, p, grid), eps)


def check_criterion_i(sample: NormSample) -> TailEstimate:
    """K = sup over the dyadic boxes of the sample's box of Cesaro-averaged
    first moments E||X_i||."""
    return cesaro_tail_sup(sample, 1.0, 0.0)


def derive_delta(eps: float, a0: float) -> float:
    """delta = eps / (2 a0), where a0 certifies the tail sup below eps/2."""
    if not (eps > 0):
        raise ValueError("eps must be > 0")
    if not (a0 > 0):
        raise ValueError("a0 must be > 0")
    return eps / (2.0 * a0)


@dataclass(frozen=True)
class EventArray:
    """Per-cell events over a box: probabilities independent of the array, or
    the threshold events {||X_i|| >= threshold} (ge=False for the strict
    variant), which are read off the sample the criterion is checked on.
    Exactly one of probs and threshold is set.
    """

    box: MultiIndex
    probs: Optional[np.ndarray] = None  # shape box.coords, values in [0,1]
    threshold: Optional[float] = None
    ge: bool = True

    def __post_init__(self):
        if (self.probs is None) == (self.threshold is None):
            raise ValueError("an event array needs exactly one of probs or threshold")
        if self.threshold is not None:
            if not (self.threshold >= 0):
                raise ValueError("event threshold must be >= 0")
            return
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != self.box.coords:
            raise ValueError(f"probs shape {arr.shape} != box {self.box.coords}")
        if not np.all((0 <= arr) & (arr <= 1)):
            raise ValueError("event probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", arr)


def markov_event_array(sample: NormSample, K: float, delta: float) -> EventArray:
    """The events A_i = {||X_i|| >= K/delta} over the sample's box, used to
    recover CUI from the bounded-mean criterion."""
    if not (K > 0):
        raise ValueError("K must be > 0")
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    return EventArray(sample.box, threshold=K / delta)


def _event_sups(sample: NormSample, events: EventArray) -> tuple[TailEstimate, TailEstimate]:
    """Sups of Cesaro-averaged P(A_i) and E(||X_i|| 1(A_i)), both from the
    caller's sample over its box."""
    box = sample.box
    if events.threshold is not None:
        t, ge = events.threshold, events.ge
        prob = _schedule_sup(*sample.expectations(Tail(0.0, t, ge)), box)
        return prob, cesaro_tail_sup(sample, 1.0, t, ge)
    # events independent of the array (the adversarial construction uses 0/1
    # probabilities, where independence is vacuous); a cell of probability 0
    # contributes 0 even where E||X_i|| is infinite
    probs = events.probs
    fld, exact, g = sample.expectations(Tail(1.0, 0.0))

    def moments(t: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(probs, t).shape)
        return np.multiply(probs, t if exact else g(t), out=out, where=probs > 0)

    return (
        _schedule_sup(probs, True, None, box),
        _schedule_sup(fld, exact, moments, box),
    )


@dataclass(frozen=True)
class EventCriterionReport:
    delta: float
    eps: float
    prob_sup: float
    prob_stderr: float
    moment_sup: float
    moment_stderr: float
    premise_holds: bool
    conclusion_holds: bool
    verdict: bool


def check_event_criterion(
    sample: NormSample,
    events: EventArray,
    delta: float,
    eps: float,
) -> EventCriterionReport:
    """Does 'event averages below delta' force 'truncated moments below eps'?

    The sample and the events share one box. The verdict is the implication:
    arrays that miss the delta premise pass vacuously, since nothing is then
    asserted about their moments.
    """
    if not (delta > 0 and eps > 0):
        raise ValueError("delta and eps must be > 0")
    if sample.box != events.box:
        raise ValueError(f"sample box {sample.box} != event box {events.box}")
    prob, mom = _event_sups(sample, events)
    premise = prob.upper() < delta
    conclusion = mom.upper() < eps
    return EventCriterionReport(
        delta=delta,
        eps=eps,
        prob_sup=prob.value,
        prob_stderr=prob.stderr,
        moment_sup=mom.value,
        moment_stderr=mom.stderr,
        premise_holds=premise,
        conclusion_holds=conclusion,
        verdict=(not premise) or conclusion,
    )


def adversarial_event_array(sample: NormSample, delta: float) -> EventArray:
    """Greedy worst case for the small-event criterion over the sample's box:
    make the cells with the largest expected norms certain, as long as every
    dyadic box of it keeps its event average strictly below delta."""
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    horizon = sample.box
    sched = dyadic_boxes(horizon)
    fld, exact, g = sample.expectations(Tail(1.0, 0.0))
    if not exact:
        # the mean over reps, summed rep by rep in order as np.mean does,
        # without holding g of the whole sample
        total = np.zeros(horizon.coords)
        for row in fld:
            total += g(row)
        fld = total / len(fld)
    flat = fld.ravel(order="C")
    order = np.argsort(-flat, kind="stable")
    coords = np.unravel_index(np.arange(flat.size), horizon.coords)
    membership = np.stack(
        [
            np.all(
                [coords[k] < n.coords[k] for k in range(horizon.d)], axis=0
            )
            for n in sched
        ]
    )  # (len(sched), cells)
    sizes = np.array([n.size for n in sched], dtype=np.float64)
    counts = np.zeros(len(sched), dtype=np.int64)
    chosen = np.zeros(flat.size, dtype=bool)
    for cell in order:
        inside = membership[:, cell]
        if np.all((counts[inside] + 1) / sizes[inside] < delta):
            chosen[cell] = True
            counts = counts + inside
    return EventArray(horizon, probs=chosen.astype(np.float64).reshape(horizon.coords))


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class EquivalenceReport:
    eps_list: tuple[float, ...]
    K: float
    cui_certified: bool
    checks: tuple[CheckRecord, ...]
    passed: bool


def verify_criterion_equivalence(
    sample: NormSample,
    eps_list: Sequence[float],
    a_grid: Sequence[float] = DEFAULT_A_GRID,
) -> EquivalenceReport:
    """Exercise both directions of the equivalence between CUI and the pair
    (bounded Cesaro means, uniformly small truncated moments on small events).

    Forward: a certified tail level at eps/2 yields delta = eps/(2 a0), and
    every tested event array meeting the delta premise (empty, greedy
    adversarial, threshold events) must keep its truncated moments below eps.
    Reverse: with K from the bounded-mean criterion, the threshold events at
    K/delta must have small averages (by the Markov inequality), their
    truncated moments stay below eps, and the plain tail sup at a = K/delta
    is then itself below eps, recovering CUI. Every question is asked of the
    one sample, over its box.
    """
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    horizon = sample.box
    checks: list[CheckRecord] = []

    k_est = check_criterion_i(sample)
    K = k_est.value
    grid = _levels(a_grid)
    grid_ests = _tail_sups(sample, 1.0, grid)

    a0_bound = _first_certified(grid, grid_ests, 1.0)
    certified = a0_bound is not None
    if certified:
        checks.append(
            CheckRecord(
                "criterion_i_bounded_means",
                value=K,
                bound=a0_bound + 1.0,
                passed=K <= a0_bound + 1.0 + 2.0 * k_est.stderr,
                note=f"tail level at eps=1: a0={a0_bound}",
            )
        )
    else:
        checks.append(
            CheckRecord(
                "criterion_i_bounded_means",
                value=K,
                bound=math.nan,
                passed=False,
                note="no tail level certified below 1 on the disclosed grid",
            )
        )

    for eps in eps_list:
        if not (eps > 0):
            raise ValueError("eps must be > 0")
        a0 = _first_certified(grid, grid_ests, eps / 2.0)
        if a0 is None:
            checks.append(
                CheckRecord(
                    f"eps={eps}:tail_level_at_half_eps",
                    value=math.nan,
                    bound=eps / 2.0,
                    passed=False,
                    note="no certificate on the disclosed grid; forward direction infeasible",
                )
            )
            continue
        delta = derive_delta(eps, a0)
        checks.append(
            CheckRecord(
                f"eps={eps}:tail_level_at_half_eps",
                value=a0,
                bound=eps / 2.0,
                passed=True,
                note=f"delta={delta}",
            )
        )

        tested = [
            ("empty", EventArray(horizon, probs=np.zeros(horizon.coords))),
            ("adversarial", adversarial_event_array(sample, delta)),
            ("markov", markov_event_array(sample, K, delta)),
        ]
        reports = {
            name: check_event_criterion(sample, ev, delta, eps) for name, ev in tested
        }
        for name, rep in reports.items():
            checks.append(
                CheckRecord(
                    f"eps={eps}:criterion_ii[{name}]",
                    value=rep.moment_sup,
                    bound=eps,
                    passed=rep.verdict,
                    note=f"prob_sup={rep.prob_sup!r}, premise_holds={rep.premise_holds}",
                )
            )

        markov = reports["markov"]
        checks.append(
            CheckRecord(
                f"eps={eps}:markov_events_small",
                value=markov.prob_sup,
                bound=delta,
                passed=markov.prob_sup <= delta + 2.0 * markov.prob_stderr,
                note=f"threshold K/delta={K / delta!r}",
            )
        )
        checks.append(
            CheckRecord(
                f"eps={eps}:moments_on_markov_events",
                value=markov.moment_sup,
                bound=eps,
                passed=markov.conclusion_holds,
            )
        )
        tail = cesaro_tail_sup(sample, 1.0, K / delta)
        checks.append(
            CheckRecord(
                f"eps={eps}:cui_tail_recovered",
                value=tail.value,
                bound=eps,
                passed=tail.upper() < eps,
                note=f"a=K/delta={K / delta!r}",
            )
        )

    return EquivalenceReport(
        eps_list=tuple(float(e) for e in eps_list),
        K=K,
        cui_certified=certified,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )


@dataclass(frozen=True)
class CuiReport:
    """Tail sups across a disclosed grid of truncation levels."""

    p: float
    a_grid: tuple[float, ...]
    tail_sup: tuple[float, ...]
    stderr: tuple[float, ...]
    mean_sup: float
    mean_stderr: float
    horizon: MultiIndex
    schedule: tuple[MultiIndex, ...]
    mode: str
    low_reps: bool = False

    def to_csv_text(self) -> str:
        lines = ["a,tail_sup,stderr"]
        for a, v, s in zip(self.a_grid, self.tail_sup, self.stderr):
            lines.append(f"{a!r},{v!r},{s!r}")
        return "\n".join(lines) + "\n"


def build_cui_report(
    sample: NormSample, p: float, a_grid: Sequence[float] = DEFAULT_A_GRID, ge: bool = False
) -> CuiReport:
    """Tail sups at every grid level and the first-moment sup, all over the
    dyadic boxes of the sample's box."""
    grid = _levels(a_grid)
    ests = _tail_sups(sample, p, grid, ge)
    mean_est = check_criterion_i(sample)
    return CuiReport(
        p=p,
        a_grid=tuple(grid),
        tail_sup=tuple(e.value for e in ests),
        stderr=tuple(e.stderr for e in ests),
        mean_sup=mean_est.value,
        mean_stderr=mean_est.stderr,
        horizon=sample.box,
        schedule=tuple(dyadic_boxes(sample.box)),
        mode=ests[0].mode,
        low_reps=any(e.low_reps for e in ests),
    )
