"""Cesaro uniform integrability: tail estimators, certificates, and the
equivalence with the classical bounded-mean + small-event criterion.

The defining quantity is the supremum of Cesaro averages of truncated
moments over the boxes n below a horizon,

    sup_n (1/|n|) sum_{i <= n} E(||X_i||^p 1(||X_i|| > a)).

The supremum over all boxes is not computable; every query is asked of one
NormSample and evaluated over the dyadic boxes of the sample's box (its
schedule), and a report carries the horizon and schedule it was computed on.

Every Cesaro sup here and in poussin (tails, event probabilities and moments
on events, the phi-moment) is one _sups call over a flat list of norm
functionals: a closed form where the sample has one, and one
schedule_profiles pass for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import LOW_REPS_FLOOR, NormFunctional, NormSample, Tail, check_p, confident
from .distributions import replication_mean
from .lattice import MultiIndex, dyadic_boxes, dyadic_shells, rep_sum
from .lattice import schedule_averages, schedule_profiles

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
    """A schedule supremum with its Monte Carlo uncertainty: the stderr of a
    replication mean (distributions.replication_mean), 0 when analytic or
    when every replication reads one value."""

    value: float
    stderr: float
    mode: str  # "analytic" | "empirical"
    argmax_box: MultiIndex
    low_reps: bool = False


def _estimate(avgs: np.ndarray, schedule: Sequence[MultiIndex]) -> TailEstimate:
    """The sup over the schedule of one level of a profile.

    Closed-form averages (shape (boxes,)) give their argmax. Realized averages
    (shape (reps, boxes)) give the replication mean (replication_mean) at
    the box maximizing it, with the stderr of that mean.
    """
    if avgs.ndim == 1:
        j = int(np.argmax(avgs))
        return TailEstimate(float(avgs[j]), 0.0, "analytic", schedule[j])
    means, ses = replication_mean(avgs)
    j = int(np.argmax(means))
    return TailEstimate(float(means[j]), float(ses[j]), "empirical", schedule[j],
                        low_reps=avgs.shape[0] < LOW_REPS_FLOOR)


def check_eps(eps_list: Sequence[float]) -> None:
    """The rule for a list of eps, checked before anything is drawn: at
    least one, each finite and > 0 (so NaN fails)."""
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    if not all(0 < eps < math.inf for eps in eps_list):
        raise ValueError("eps must be > 0 and finite")


def _sups(
    sample: NormSample, asks: Sequence[NormFunctional], cells: Optional[np.ndarray] = None
) -> list[TailEstimate]:
    """sup over the dyadic boxes of the sample's box of Cesaro averages of
    E g(||X_i||), for every norm functional g of `asks`, in order, or of
    cells_i E g(||X_i||) for a box-shaped factor field `cells` (the
    probabilities of an event; a cell where it is 0 contributes 0 even where
    E g(||X_i||) is infinite).

    An ask takes the sample's closed form when there is one. The others share
    one pass of schedule_profiles over the sample's chunks, so the pass draws
    each rep at most once and holds no more than a chunk unless the sample
    holds its draw: the Tails of one p are one query over their distinct
    strict levels (Tail.level), and any other functional is a query of its
    own. A repeated ask, or a Tail of the same p and strict level, gets the
    same estimate."""
    box = sample.box
    schedule = dyadic_boxes(box)

    def scale(v: np.ndarray) -> np.ndarray:
        if cells is None:
            return v
        out = np.zeros(np.broadcast(cells, v).shape)
        return np.multiply(cells, v, out=out, where=cells > 0)

    def weight(g: NormFunctional) -> NormFunctional:
        return g if cells is None else (lambda t: scale(g(t)))

    found: dict = {}  # an ask, or (p, strict level) for a Tail of the pass
    levels: dict[float, set] = {}  # p -> the strict levels of its Tails
    others = []
    for g in asks:
        if g in found:
            continue
        fld = sample.closed_form(g)
        if fld is not None:
            found[g] = _estimate(schedule_averages(scale(fld), box), schedule)
        elif isinstance(g, Tail):
            levels.setdefault(g.p, set()).add(g.level)
        elif g not in others:
            others.append(g)
    if levels or others:
        grids = {p: sorted(grid) for p, grid in levels.items()}
        queries = [(weight(Tail(p, 0.0).power), grid) for p, grid in grids.items()]
        queries += [(weight(g), None) for g in others]
        profiles = schedule_profiles(sample.chunks(), sample.reps, box, queries)
        for (p, grid), profile in zip(grids.items(), profiles):
            for a, avgs in zip(grid, profile):
                found[p, a] = _estimate(avgs, schedule)
        for g, (avgs,) in zip(others, profiles[len(grids):]):
            found[g] = _estimate(avgs, schedule)
    return [found[g] if g in found else found[g.p, g.level] for g in asks]


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
    check_p(p)
    if not (a >= 0):
        raise ValueError("a must be >= 0")
    return _sups(sample, [Tail(p, a, ge)])[0]


def _first_certified(
    grid: Sequence[float], ests: Sequence[TailEstimate], eps: float
) -> Optional[float]:
    return next((a for a, e in zip(grid, ests)
                 if confident("tail_certified", e.value, e.stderr, eps)), None)


def cui_certificate(
    sample: NormSample,
    p: float,
    eps: float,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
) -> Optional[float]:
    """Smallest grid level whose tail sup is certified below eps, else None.

    Certified by distributions.CONFIDENCE["tail_certified"]; the grid and
    horizon are part of the verdict's meaning and must be disclosed with it.
    """
    check_p(p)
    check_eps([eps])
    grid = _levels(a_grid)
    return _first_certified(grid, _sups(sample, [Tail(p, a) for a in grid]), eps)


def derive_delta(eps: float, a0: float) -> float:
    """delta = eps / (2 a0), where a0 certifies the tail sup below eps/2."""
    check_eps([eps])
    if not (a0 > 0):
        raise ValueError("a0 must be > 0")
    return eps / (2.0 * a0)


@dataclass(frozen=True)
class EventArray:
    """Per-cell events over a box: probabilities independent of the array, or
    the threshold events {||X_i|| >= threshold}, which are read off the
    sample the criterion is checked on. Exactly one of probs and threshold
    is set.
    """

    box: MultiIndex
    probs: Optional[np.ndarray] = None  # shape box.coords, values in [0,1]
    threshold: Optional[float] = None

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
    if not (0 < delta < math.inf and 0 < eps < math.inf):
        raise ValueError("delta and eps must be > 0 and finite")
    if sample.box != events.box:
        raise ValueError(f"sample box {sample.box} != event box {events.box}")
    if events.threshold is not None:
        t = events.threshold
        prob, mom = _sups(sample, [Tail(0.0, t, True), Tail(1.0, t, True)])
    else:
        # events independent of the array (the adversarial construction uses
        # 0/1 probabilities, where independence is vacuous)
        box = sample.box
        prob = _estimate(schedule_averages(events.probs, box), dyadic_boxes(box))
        (mom,) = _sups(sample, [Tail(1.0, 0.0)], cells=events.probs)
    premise = confident("event_criterion", prob.value, prob.stderr, delta)
    conclusion = confident("event_criterion", mom.value, mom.stderr, eps)
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
    fld = sample.closed_form(Tail(1.0, 0.0))
    if fld is None:
        # the mean over reps, summed rep by rep in order as np.mean does
        fld = rep_sum((f, Tail(1.0, 0.0)(q)) for f, q in sample.chunks()) / sample.reps
    flat = fld.ravel(order="C")
    order = np.argsort(-flat, kind="stable")
    _, corners, box_order, cell_shells = dyadic_shells(horizon)
    cell_shell = cell_shells()
    corners = np.array(corners)
    boxes = corners[box_order]
    # per shell, the dyadic boxes that hold its corner, and so its cells
    inside = (corners[:, None] <= boxes).all(axis=2)
    sizes = boxes.prod(axis=1).astype(np.float64)
    counts = np.zeros(len(boxes), dtype=np.int64)
    chosen = np.zeros(flat.size, dtype=bool)
    for cell in order:
        holds = inside[cell_shell[cell]]
        if np.all((counts[holds] + 1) / sizes[holds] < delta):
            chosen[cell] = True
            counts = counts + holds
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
    check_eps(eps_list)
    horizon = sample.box
    grid = _levels(a_grid)
    # K, the first moment (criterion (i)), and the grid in one pass over a draw
    # that the event checks below read again
    sample.hold()
    k_est, *grid_ests = _sups(sample, [Tail(1.0, a) for a in [0.0] + grid])
    K = k_est.value

    a0_bound = _first_certified(grid, grid_ests, 1.0)
    certified = a0_bound is not None
    bound = a0_bound + 1.0 if certified else math.nan  # no verdict passes a NaN bound
    checks = [
        CheckRecord(
            "criterion_i_bounded_means",
            value=K,
            bound=bound,
            passed=confident("bounded_means", K, k_est.stderr, bound),
            note=f"tail level at eps=1: a0={a0_bound}" if certified
            else "no tail level certified below 1 on the disclosed grid",
        )
    ]

    for eps in eps_list:
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
                passed=confident("markov_events", markov.prob_sup, markov.prob_stderr, delta),
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
                passed=confident("tail_certified", tail.value, tail.stderr, eps),
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
    """Tail sups at every grid level and the sup of the first moment
    (criterion (i)), all over the dyadic boxes of the sample's box, from one
    streamed pass over the sample."""
    check_p(p)
    grid = _levels(a_grid)
    *ests, mean_est = _sups(sample, [Tail(p, a, ge) for a in grid] + [Tail(1.0, 0.0)])
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
