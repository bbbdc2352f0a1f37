"""Desk-scale experiments for mean convergence of maximal partial normed sums.

For 0 < p < 1 and a family whose p-th power norms are Cesaro uniformly
integrable, E[(M_n / |n|^(1/p))^p] must vanish along growing boxes, with the
explicit envelope eps + a^p / |n|^(1-p) once (eps, a) certify the tails. For
pairwise independent centered fields with finite second moments the centered
maximum obeys E[max ||S_k||] / |n| <= 2 a C log(2 n_1)...log(2 n_d) / |n|^(1/2)
with C the fourth-moment-free maximal constant, which is never pinned to a
number here: only the observed ratio is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, Tail, draw_chunks
from .lattice import MultiIndex, box_maxima, leq, plane_sum, prefix_table, rep_sum

MIN_TREND_POINTS = 4


@dataclass(frozen=True)
class BoundParams:
    eps: float
    a: float
    C: Optional[float] = None


@dataclass(frozen=True)
class ExperimentConfig:
    spec: DistributionSpec
    p: float
    n_schedule: tuple[MultiIndex, ...]
    reps: int
    seed: int
    bound_params: Optional[BoundParams] = None

    def __post_init__(self):
        sched = tuple(self.n_schedule)
        if not sched:
            raise ValueError("n_schedule must be nonempty")
        d = sched[0].d
        if any(n.d != d for n in sched):
            raise ValueError("all schedule boxes must share one dimension d")
        sizes = [n.size for n in sched]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("schedule |n| must be strictly increasing")
        dist.check_reps(self.reps)
        if not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        object.__setattr__(self, "n_schedule", sched)


@dataclass(frozen=True)
class SeriesPoint:
    n: MultiIndex
    size: int
    moment: float
    stderr: float
    bound: Optional[float] = None
    bound_pass: Optional[bool] = None


@dataclass(frozen=True)
class ConvergenceSeries:
    mode: str  # "lp" | "l1"
    p: float
    reps: int
    seed: int
    centering: Optional[str]  # None | "analytic" | "plugin"
    low_reps: bool
    spec: DistributionSpec
    points: tuple[SeriesPoint, ...]
    center: bool = field(init=False)  # derived from mode
    # every family is pairwise independent; the key keeps the file's shape
    pairwise_warning: bool = field(default=False, init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", self.mode == "l1")

    def to_csv_text(self) -> str:
        lines = ["d,n_coords,size,moment,stderr,bound,pass"]
        for pt in self.points:
            bound = "" if pt.bound is None else repr(pt.bound)
            ok = "" if pt.bound_pass is None else str(pt.bound_pass).lower()
            lines.append(
                f"{pt.n.d},{pt.n},{pt.size},{pt.moment!r},{pt.stderr!r},{bound},{ok}"
            )
        return "\n".join(lines) + "\n"


def bound_eq23(eps: float, a: float, p: float, n: MultiIndex) -> float:
    """Envelope for the lp moment: eps + a^p / |n|^(1-p)."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if a <= 0:
        raise ValueError("a must be > 0")
    if not (0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    return eps + a**p / n.size ** (1.0 - p)


def bound_eq27(a: float, C: float, n: MultiIndex) -> float:
    """Envelope for the centered l1 moment:
    2 a C log(2 n_1) ... log(2 n_d) / |n|^(1/2), natural logs."""
    if a <= 0:
        raise ValueError("a must be > 0")
    if C <= 0:
        raise ValueError("C must be > 0")
    logs = 1.0
    for c in n.coords:
        logs *= math.log(2.0 * c)
    return 2.0 * a * C * logs / math.sqrt(n.size)


def _maxima(spec, schedule, seed, reps, centering=None) -> np.ndarray:
    """M_n = max_{k <= n} ||S_k|| per rep at every schedule box, shape (len(schedule), reps).

    Cells are keyed by (seed, i), so a box's batch is that of any box that
    dominates it, restricted to it. Each maximal box is drawn once, in chunks
    of reps; each chunk becomes its prefix table and then the squared norms
    of its cells, and every box the maximal box dominates takes the max of
    those over its own cells (box_maxima), with one sqrt per box and rep. A
    correctly rounded sqrt is monotone, so that is the max of the norms.
    `centering` is None, "analytic" (the family's per-cell means) or
    "plugin" (the per-cell mean over all reps, from a first pass in rep order).
    """
    M = np.empty((len(schedule), reps))
    # a box that another dominates is smaller than it, so by size, largest
    # first, a box is maximal unless a maximal box found before it dominates it
    tops = []
    for n in sorted(set(schedule), key=lambda b: b.size, reverse=True):
        if not any(t.d == n.d and leq(n, t) for t in tops):
            tops.append(n)
    tops.sort(key=schedule.index)  # each drawn in schedule order
    owners = [next(t for t in tops if t.d == n.d and leq(n, t)) for n in schedule]
    for top in tops:
        rows = [j for j, t in enumerate(owners) if t == top]
        boxes = [schedule[j] for j in rows]
        means = dist.mean(spec, top) if centering == "analytic" else None
        if centering == "plugin":
            means = rep_sum(draw_chunks(spec, top, seed, reps)) / reps
        if means is not None and not np.any(means):
            means = None  # subtracting zeros leaves every M_n as it is
        squares = _square_norms(spec, top, seed, reps, means)
        M[rows] = np.sqrt(box_maxima(squares, reps, boxes))
    return M


def _square_norms(spec, top, seed, reps, means):
    """(first rep, ||S_k||^2 at every cell k) per chunk of the draw of top:
    each chunk, less the means when given, becomes its prefix table in place
    and then its squares, whose columns plane_sum adds up into column 0 (a
    plane of the plane-major chunk), in np.sum's order."""
    for first, batch in draw_chunks(spec, top, seed, reps):
        if means is not None:
            batch -= means
        S = prefix_table(batch, range(1, 1 + top.d), out=batch)
        yield first, plane_sum(np.square(S, out=S), out=S[..., 0])


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    reps = vals.shape[0]
    m = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return m, se


def _series(cfg, mode, centering, values, bound) -> ConvergenceSeries:
    """Per schedule box n, the mean and stderr over reps of values(M_n, n),
    and the envelope bound(bound_params, n) with its verdict when cfg has one."""
    points = []
    M = _maxima(cfg.spec, cfg.n_schedule, cfg.seed, cfg.reps, centering)
    for n, m in zip(cfg.n_schedule, M):
        moment, se = _mean_se(values(m, n))
        envelope = ok = None
        if cfg.bound_params is not None:
            envelope = bound(cfg.bound_params, n)
            ok = moment <= envelope + 3.0 * se
        points.append(SeriesPoint(n, n.size, moment, se, envelope, ok))
    return ConvergenceSeries(
        mode=mode,
        p=cfg.p if mode == "lp" else 1.0,
        reps=cfg.reps,
        seed=cfg.seed,
        centering=centering,
        low_reps=cfg.reps < dist.LOW_REPS_FLOOR,
        spec=cfg.spec,
        points=tuple(points),
    )


def run_lp_experiment(cfg: ExperimentConfig) -> ConvergenceSeries:
    """Moments E[(M_n / |n|^(1/p))^p] along the schedule, 0 < p < 1, uncentered."""
    if not (0 < cfg.p < 1):
        raise ValueError("lp mode needs 0 < p < 1")
    return _series(
        cfg, "lp", None,
        values=lambda M, n: (M / n.size ** (1.0 / cfg.p)) ** cfg.p,
        bound=lambda bp, n: bound_eq23(bp.eps, bp.a, cfg.p, n),
    )


def run_l1_experiment(cfg: ExperimentConfig) -> ConvergenceSeries:
    """Centered moments E[max_k ||S_k - E S_k||] / |n| along the schedule.

    Centers with the family's analytic means when available, otherwise with
    the plug-in per-cell grand mean across replications.
    """
    if cfg.p != 1.0:
        raise ValueError("l1 mode fixes p = 1")
    if cfg.bound_params is not None and cfg.bound_params.C is None:
        raise ValueError("l1 bound needs C in bound_params")
    centering = "plugin" if dist.mean(cfg.spec, cfg.n_schedule[-1]) is None else "analytic"
    return _series(
        cfg, "l1", centering,
        values=lambda M, n: M / n.size,
        bound=lambda bp, n: bound_eq27(bp.a, bp.C, n),
    )


@dataclass(frozen=True)
class MoriczPoint:
    n: MultiIndex
    numerator: float
    num_stderr: float
    denominator: float
    ratio: float


def moricz_ratio(
    spec: DistributionSpec,
    n_schedule: Sequence[MultiIndex],
    reps: int = 500,
    seed: int = 0,
) -> list[MoriczPoint]:
    """Observed E[max_k ||S_k||^2] against log^2(2 n_1)...log^2(2 n_d) sum E||X_i||^2.

    Requires a family whose mean law is zero on every schedule box and whose
    second moments have finite closed forms (every family is pairwise
    independent); the maximal constant is whatever the data shows.
    """
    sched = list(n_schedule)
    if not sched:
        raise ValueError("n_schedule must be nonempty")
    dist.check_reps(reps)
    dens = []
    for n in sched:
        mu = dist.mean(spec, n)
        if mu is None or np.any(mu != 0):
            raise ValueError("moricz_ratio needs a zero-mean family")
        sm = dist.expect(spec, Tail(2.0, 0.0), n)
        if sm is None:
            raise ValueError("moricz_ratio needs closed-form second moments")
        total = float(sm.sum())
        if not math.isfinite(total) or total <= 0:
            raise ValueError("second moments must be finite and not all zero")
        logs = 1.0
        for c in n.coords:
            logs *= math.log(2.0 * c) ** 2
        dens.append(logs * total)
    stats = [_mean_se(M * M) for M in _maxima(spec, sched, seed, reps)]
    return [MoriczPoint(n, num, se, den, num / den)
            for n, (num, se), den in zip(sched, stats, dens)]


@dataclass(frozen=True)
class TrendVerdict:
    passed: bool
    halving_ok: bool
    slope_ok: bool
    slope: float
    first_moment: float
    last_moment: float


def trend_test(series: ConvergenceSeries) -> TrendVerdict:
    """Decreasing-trend gate: the last moment (plus noise) must fall below half
    the first (minus noise), and log-moment vs log-size must slope downward."""
    pts = series.points
    if len(pts) < MIN_TREND_POINTS:
        raise ValueError(f"trend test needs at least {MIN_TREND_POINTS} schedule points")
    first, last = pts[0], pts[-1]
    halving = (last.moment + 2.0 * last.stderr) < (first.moment - 2.0 * first.stderr) / 2.0
    moments = np.array([pt.moment for pt in pts])
    sizes = np.array([pt.size for pt in pts], dtype=np.float64)
    if np.all(moments > 0):
        slope = float(np.polyfit(np.log(sizes), np.log(moments), 1)[0])
        slope_ok = slope < 0
    else:
        slope = math.nan
        slope_ok = False
    return TrendVerdict(
        passed=halving and slope_ok,
        halving_ok=halving,
        slope_ok=slope_ok,
        slope=slope,
        first_moment=first.moment,
        last_moment=last.moment,
    )


@dataclass(frozen=True)
class BoundReport:
    all_pass: bool
    margins: tuple[float, ...]


def bound_domination_check(series: ConvergenceSeries) -> BoundReport:
    """Every observed moment must sit at or below its envelope within 3 stderr."""
    if any(pt.bound is None for pt in series.points):
        raise ValueError("series has no bound column; rerun with bound_params")
    margins = tuple(pt.bound + 3.0 * pt.stderr - pt.moment for pt in series.points)
    return BoundReport(all_pass=all(m >= 0 for m in margins), margins=margins)
