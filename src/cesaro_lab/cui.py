"""Cesaro uniform integrability: tail estimators, certificates, and the
equivalence with the classical bounded-mean + small-event criterion.

The defining quantity is the schedule supremum of Cesaro averages of
truncated moments,

    sup_n (1/|n|) sum_{i <= n} E(||X_i||^p 1(||X_i|| > a)),

evaluated over a disclosed finite schedule of boxes below a horizon. The
supremum over all boxes is not computable; every report therefore carries the
horizon and schedule it was computed on.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, Tail
from .lattice import MultiIndex, dyadic_boxes, leq, schedule_averages

DEFAULT_A_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
LOW_REPS_FLOOR = 30


def _resolve_schedule(horizon: MultiIndex, schedule) -> list[MultiIndex]:
    if schedule is None:
        return dyadic_boxes(horizon)
    boxes = list(schedule)
    if not boxes:
        raise ValueError("schedule must contain at least one box")
    for b in boxes:
        if b.d != horizon.d:
            raise ValueError(f"schedule box {b} has d={b.d}, horizon has d={horizon.d}")
        if not leq(b, horizon):
            raise ValueError(f"schedule box {b} exceeds horizon {horizon}")
    return boxes


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


def _aggregate_sup(per_rep_avgs: np.ndarray, schedule) -> tuple[float, float, MultiIndex]:
    """Replication-level estimate of max_n E(avg): mean/stderr at the argmax box."""
    reps = per_rep_avgs.shape[0]
    means = per_rep_avgs.mean(axis=0)
    if reps > 1:
        ses = per_rep_avgs.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        ses = np.zeros_like(means)
    j = int(np.argmax(means))
    return float(means[j]), float(ses[j]), schedule[j]


def cesaro_tail_sup(
    spec: DistributionSpec,
    p: float,
    a: float,
    horizon: MultiIndex,
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
    ge: bool = False,
) -> TailEstimate:
    """Schedule sup of Cesaro-averaged truncated p-th moments at level a.

    The indicator is strict (||X|| > a) by default; ge=True switches to
    ||X|| >= a (the variant used when hunting integer tail levels).
    Expectations are closed-form when the family and moment mode admit them,
    otherwise plain Monte Carlo means over `reps` replications with a
    standard error propagated from the replication spread.
    """
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    if a < 0:
        raise ValueError("a must be >= 0")
    sched = _resolve_schedule(horizon, schedule)
    fld, exact = dist.expectations(spec, Tail(p, a, ge), horizon, seed, reps)
    avgs = schedule_averages(fld, sched)
    if exact:
        j = int(np.argmax(avgs))
        return TailEstimate(float(avgs[j]), 0.0, "analytic", sched[j])
    value, se, box = _aggregate_sup(avgs, sched)
    return TailEstimate(value, se, "empirical", box, low_reps=reps < LOW_REPS_FLOOR)


def cui_certificate(
    spec: DistributionSpec,
    p: float,
    eps: float,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
    horizon: MultiIndex = MultiIndex((4096,)),
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
    ge: bool = False,
) -> Optional[float]:
    """Smallest grid level whose tail sup is certified below eps, else None.

    Empirical estimates certify at point + 2*stderr; the grid and horizon are
    part of the verdict's meaning and must be disclosed with it.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    grid = [float(a) for a in a_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("a_grid must be nonempty and strictly increasing")
    if grid[0] < 0:
        raise ValueError("a_grid levels must be >= 0")
    for a in grid:
        est = cesaro_tail_sup(spec, p, a, horizon, schedule, reps, seed, ge=ge)
        if est.upper() < eps:
            return a
    return None


def check_criterion_i(
    spec: DistributionSpec,
    horizon: MultiIndex,
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
) -> TailEstimate:
    """K = sup over the schedule of Cesaro-averaged first moments E||X_i||."""
    return cesaro_tail_sup(spec, 1.0, 0.0, horizon, schedule, reps, seed, ge=False)


def derive_delta(eps: float, a0: float) -> float:
    """delta = eps / (2 a0), where a0 certifies the tail sup below eps/2."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if a0 <= 0:
        raise ValueError("a0 must be > 0")
    return eps / (2.0 * a0)


@dataclass(frozen=True)
class EventArray:
    """Per-cell events over a box: probabilities, or realized indicators.

    threshold records events of the form {||X_i|| >= t} (ge=False for the
    strict variant); moment evaluations then couple to the same family draw.
    """

    box: MultiIndex
    probs: Optional[np.ndarray] = None  # shape box.coords, values in [0,1]
    indicators: Optional[np.ndarray] = None  # shape (reps,) + box.coords, bool
    threshold: Optional[float] = None
    ge: bool = True
    source_seed: Optional[int] = None
    source_reps: Optional[int] = None

    def __post_init__(self):
        if self.probs is None and self.indicators is None:
            raise ValueError("an event array needs probs or realized indicators")
        if self.probs is not None:
            arr = np.asarray(self.probs, dtype=np.float64)
            if arr.shape != self.box.coords:
                raise ValueError(f"probs shape {arr.shape} != box {self.box.coords}")
            if arr.min() < 0 or arr.max() > 1:
                raise ValueError("event probabilities must lie in [0, 1]")
            object.__setattr__(self, "probs", arr)
        if self.indicators is not None:
            arr = np.asarray(self.indicators, dtype=bool)
            if arr.ndim != self.box.d + 1 or arr.shape[1:] != self.box.coords:
                raise ValueError("indicators must have shape (reps,) + box")
            object.__setattr__(self, "indicators", arr)


def markov_event_array(
    spec: DistributionSpec,
    K: float,
    delta: float,
    box: MultiIndex,
    reps: int = 200,
    seed: int = 0,
) -> EventArray:
    """The events A_i = {||X_i|| >= K/delta} used to recover CUI from the
    bounded-mean criterion; analytic probabilities when available."""
    if K <= 0:
        raise ValueError("K must be > 0")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    t = K / delta
    fld, exact = dist.expectations(spec, Tail(0.0, t, ge=True), box, seed, reps)
    if exact:
        return EventArray(box, probs=fld, threshold=t, ge=True)
    return EventArray(
        box,
        indicators=fld,
        threshold=t,
        ge=True,
        source_seed=seed,
        source_reps=reps,
    )


def _event_prob_sup(events: EventArray, schedule) -> tuple[float, float]:
    if events.probs is not None:
        avgs = schedule_averages(events.probs, schedule)
        return float(avgs.max()), 0.0
    per_rep = schedule_averages(events.indicators.astype(np.float64), schedule)
    value, se, _ = _aggregate_sup(per_rep, schedule)
    return value, se


def _event_moment_sup(
    spec: DistributionSpec,
    events: EventArray,
    schedule,
    reps: int,
    seed: int,
) -> tuple[float, float]:
    """Schedule sup of Cesaro-averaged E(||X_i|| 1(A_i))."""
    if events.threshold is not None:
        est = cesaro_tail_sup(
            spec,
            1.0,
            events.threshold,
            events.box,
            schedule,
            reps=events.source_reps or reps,
            seed=events.source_seed if events.source_seed is not None else seed,
            ge=events.ge,
        )
        return est.value, est.stderr
    if events.probs is not None:
        # events independent of the array (the adversarial construction uses
        # 0/1 probabilities, where independence is vacuous)
        fld, exact = dist.expectations(spec, Tail(1.0, 0.0), events.box, seed, reps)
        avgs = schedule_averages(events.probs * fld, schedule)
        if exact:
            return float(avgs.max()), 0.0
        value, se, _ = _aggregate_sup(avgs, schedule)
        return value, se
    source_seed = events.source_seed if events.source_seed is not None else seed
    norms = dist.norm_batch(spec, events.box, source_seed, events.source_reps or reps)
    per_rep = schedule_averages(norms * events.indicators, schedule)
    value, se, _ = _aggregate_sup(per_rep, schedule)
    return value, se


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
    spec: DistributionSpec,
    events: EventArray,
    delta: float,
    eps: float,
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
) -> EventCriterionReport:
    """Does 'event averages below delta' force 'truncated moments below eps'?

    The verdict is the implication: arrays that miss the delta premise pass
    vacuously, since nothing is then asserted about their moments.
    """
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be > 0")
    sched = _resolve_schedule(events.box, schedule)
    prob_sup, prob_se = _event_prob_sup(events, sched)
    mom_sup, mom_se = _event_moment_sup(spec, events, sched, reps, seed)
    premise = prob_sup + 2.0 * prob_se < delta
    conclusion = mom_sup + 2.0 * mom_se < eps
    return EventCriterionReport(
        delta=delta,
        eps=eps,
        prob_sup=prob_sup,
        prob_stderr=prob_se,
        moment_sup=mom_sup,
        moment_stderr=mom_se,
        premise_holds=premise,
        conclusion_holds=conclusion,
        verdict=(not premise) or conclusion,
    )


def adversarial_event_array(
    spec: DistributionSpec,
    delta: float,
    horizon: MultiIndex,
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
) -> EventArray:
    """Greedy worst case for the small-event criterion: make the cells with
    the largest expected norms certain, as long as every schedule box keeps
    its event average strictly below delta."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    sched = _resolve_schedule(horizon, schedule)
    fld, exact = dist.expectations(spec, Tail(1.0, 0.0), horizon, seed, reps)
    if not exact:
        fld = fld.mean(axis=0)
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

    def to_json(self) -> dict:
        return {
            "eps_list": list(self.eps_list),
            "K": self.K,
            "cui_certified": self.cui_certified,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "bound": c.bound,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def verify_criterion_equivalence(
    spec: DistributionSpec,
    eps_list: Sequence[float],
    horizon: MultiIndex,
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
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
    is then itself below eps, recovering CUI.
    """
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    sched = _resolve_schedule(horizon, schedule)
    checks: list[CheckRecord] = []

    k_est = check_criterion_i(spec, horizon, sched, reps, seed)
    K = k_est.value

    a0_bound = cui_certificate(
        spec, 1.0, 1.0, a_grid, horizon, sched, reps, seed
    )
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
        a0 = cui_certificate(spec, 1.0, eps / 2.0, a_grid, horizon, sched, reps, seed)
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
            (
                "adversarial",
                adversarial_event_array(spec, delta, horizon, sched, reps, seed),
            ),
            ("markov", markov_event_array(spec, K, delta, horizon, reps, seed)),
        ]
        for name, ev in tested:
            rep = check_event_criterion(spec, ev, delta, eps, sched, reps, seed)
            checks.append(
                CheckRecord(
                    f"eps={eps}:criterion_ii[{name}]",
                    value=rep.moment_sup,
                    bound=eps,
                    passed=rep.verdict,
                    note=f"prob_sup={rep.prob_sup!r}, premise_holds={rep.premise_holds}",
                )
            )

        markov_ev = tested[2][1]
        prob_sup, prob_se = _event_prob_sup(markov_ev, sched)
        checks.append(
            CheckRecord(
                f"eps={eps}:markov_events_small",
                value=prob_sup,
                bound=delta,
                passed=prob_sup <= delta + 2.0 * prob_se,
                note=f"threshold K/delta={K / delta!r}",
            )
        )
        mom_sup, mom_se = _event_moment_sup(spec, markov_ev, sched, reps, seed)
        checks.append(
            CheckRecord(
                f"eps={eps}:moments_on_markov_events",
                value=mom_sup,
                bound=eps,
                passed=mom_sup + 2.0 * mom_se < eps,
            )
        )
        tail = cesaro_tail_sup(spec, 1.0, K / delta, horizon, sched, reps, seed, ge=False)
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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a_grid": list(self.a_grid),
            "tail_sup": list(self.tail_sup),
            "stderr": list(self.stderr),
            "mean_sup": self.mean_sup,
            "mean_stderr": self.mean_stderr,
            "horizon": str(self.horizon),
            "schedule": [str(b) for b in self.schedule],
            "mode": self.mode,
            "low_reps": self.low_reps,
        }


def build_cui_report(
    spec: DistributionSpec,
    p: float,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
    horizon: MultiIndex = MultiIndex((4096,)),
    schedule: Optional[Sequence[MultiIndex]] = None,
    reps: int = 200,
    seed: int = 0,
    ge: bool = False,
    threads: int = 1,
) -> CuiReport:
    grid = [float(a) for a in a_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("a_grid must be nonempty and strictly increasing")
    sched = _resolve_schedule(horizon, schedule)

    def est_at(a: float) -> TailEstimate:
        return cesaro_tail_sup(spec, p, a, horizon, sched, reps, seed, ge=ge)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ests = list(pool.map(est_at, grid))
    else:
        ests = [est_at(a) for a in grid]
    mean_est = check_criterion_i(spec, horizon, sched, reps, seed)
    return CuiReport(
        p=p,
        a_grid=tuple(grid),
        tail_sup=tuple(e.value for e in ests),
        stderr=tuple(e.stderr for e in ests),
        mean_sup=mean_est.value,
        mean_stderr=mean_est.stderr,
        horizon=horizon,
        schedule=tuple(sched),
        mode=ests[0].mode,
        low_reps=any(e.low_reps for e in ests),
    )
