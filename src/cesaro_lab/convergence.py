"""Desk-scale experiments for mean convergence of maximal partial normed sums.

For 0 < p < 1 and a family whose p-th power norms are Cesaro uniformly
integrable, E[(M_n / |n|^(1/p))^p] must vanish along growing boxes, with the
explicit envelope eps + a^p / |n|^(1-p) once (eps, a) certify the tails. For
pairwise independent centered fields with finite second moments the centered
maximum obeys E[max ||S_k||] / |n| <= 2 a C log(2 n_1)...log(2 n_d) / |n|^(1/2)
with C the fourth-moment-free maximal constant, which is never pinned to a
number here: only the observed ratio is reported.

M_n is read from one draw of each maximal schedule box. On a chunk of one
column with no negative value that is not centered (pareto_radial, constant
with c >= 0, spiked_cui, growing_non_cui) no partial sum exceeds the one at
a box's corner, because correctly rounded addition is monotone, so M_n is
||S_n|| there; every other chunk takes the max of its squared partial norms
over each box. Both give the same bits.

A point's moment and stderr come from distributions.replication_mean, as a
cui tail sup's do: replications that all agree read their value, stderr 0.
Its envelope verdict, moment <= envelope + 3 stderr, is SeriesPoint.bound_pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, Tail, draw_chunks
from .lattice import MultiIndex, box_maxima, corner_sums, leq, plane_sum, prefix_table

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
        dist.check_p(self.p)
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
    low_reps: bool
    spec: DistributionSpec
    points: tuple[SeriesPoint, ...]
    # every family is pairwise independent; the key keeps the file's shape
    pairwise_warning: bool = field(default=False, init=False)

    def to_csv_text(self) -> str:
        lines = ["d,n_coords,size,moment,stderr,bound,pass"]
        for pt in self.points:
            bound = "" if pt.bound is None else repr(pt.bound)
            ok = "" if pt.bound_pass is None else str(pt.bound_pass).lower()
            lines.append(
                f"{pt.n.d},{pt.n},{pt.size},{pt.moment!r},{pt.stderr!r},{bound},{ok}"
            )
        return "\n".join(lines) + "\n"


def check_bound(**params) -> None:
    """The rule for envelope parameters: each finite and > 0 (so NaN fails)."""
    for name, x in params.items():
        if not (0 < x < math.inf):
            raise ValueError(f"bound {name} must be finite and > 0, got {x!r}")


def bound_eq23(eps: float, a: float, p: float, n: MultiIndex) -> float:
    """Envelope for the lp moment: eps + a^p / |n|^(1-p)."""
    check_bound(eps=eps, a=a)
    if not (0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    return eps + a**p / n.size ** (1.0 - p)


def bound_eq27(a: float, C: float, n: MultiIndex) -> float:
    """Envelope for the centered l1 moment:
    2 a C log(2 n_1) ... log(2 n_d) / |n|^(1/2), natural logs."""
    check_bound(a=a, C=C)
    logs = math.prod(math.log(2.0 * c) for c in n.coords)
    return 2.0 * a * C * logs / math.sqrt(n.size)


def _maxima(spec, schedule, seed, reps, center=False) -> np.ndarray:
    """M_n = max_{k <= n} ||S_k|| per rep at every schedule box, shape (len(schedule), reps).

    Cells are keyed by (seed, i), so a box's batch is that of any box that
    dominates it, restricted to it. Each maximal box is drawn once, in chunks
    of reps, and each chunk gives the max of ||S_k||^2 over every box n the
    maximal box dominates, for its own reps, by one of two bit-equal paths
    (_square_maxima), and then one sqrt per box and rep. A correctly rounded
    sqrt is monotone, so that is the max of the norms. A centered series
    subtracts the family's per-cell means, which its caller has checked are
    finite.
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
        means = dist.mean(spec, top) if center else None
        if means is not None and not np.any(means):
            means = None  # subtracting zeros leaves every M_n as it is
        M[rows] = np.sqrt(_square_maxima(spec, top, seed, reps, means, boxes))
    return M


def _square_maxima(spec, top, seed, reps, means, boxes) -> np.ndarray:
    """max_{k <= n} ||S_k||^2 for every box n, per rep, from the draw of top
    (less the means when given), shape (len(boxes), reps): each chunk of
    reps fills its own columns, by one of two paths.

    A chunk of one column with no negative value (so no NaN) that is not
    centered takes the corner path: correctly rounded addition is monotone,
    so every prefix sweep of values >= 0 leaves each line nondecreasing, and
    the max of fl(S_k^2) over [1, n] is fl(S_n^2) at the corner. The chunk's
    prefix sums are computed at the coordinates some corner uses and no
    others (lattice.corner_sums: one reduction per used coordinate along an
    axis with a long run of cells behind it, a sweep and np.take along any
    other, such as the last), bit-equal to the values the full sweep gives
    there. Any other chunk takes the full path:
    its prefix table in place, then its squares, whose columns plane_sum
    adds up into column 0 (a plane of the plane-major chunk) in np.sum's
    order, and box_maxima over them. plane_sum's sum starts from 0.0, which
    changes no square. A sum past 1e154 squares to inf, the documented
    maximum of a family that draws one.
    """
    out = np.empty((len(boxes), reps))
    # per box axis, the coordinates that some corner uses, and each box's
    # position among them
    used = [sorted({n.coords[k] - 1 for n in boxes}) for k in range(top.d)]
    corner = tuple(np.searchsorted(u, [n.coords[k] - 1 for n in boxes]) for k, u in enumerate(used))
    for first, batch in draw_chunks(spec, top, seed, reps):
        rows = out[:, first : first + len(batch)]
        if means is None and batch.shape[-1] == 1 and batch.min() >= 0:
            S = corner_sums(batch, used)
            with np.errstate(over="ignore"):
                np.square(S[(slice(None),) + corner + (0,)].T, out=rows)
        else:
            if means is not None:
                batch -= means
            S = prefix_table(batch, range(1, 1 + top.d))
            with np.errstate(over="ignore", invalid="ignore"):
                squares = plane_sum(np.square(S, out=S), out=S[..., 0])
            rows[...] = box_maxima(squares, boxes)
    return out


def _series(cfg, mode, values, bound) -> ConvergenceSeries:
    """Per schedule box n, the mean and stderr over reps of values(M_n, n),
    and the envelope bound(bound_params, n) with its verdict when cfg has one."""
    points = []
    M = _maxima(cfg.spec, cfg.n_schedule, cfg.seed, cfg.reps, mode == "l1")
    for n, m in zip(cfg.n_schedule, M):
        moment, se = map(float, dist.replication_mean(values(m, n)))
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
        low_reps=cfg.reps < dist.LOW_REPS_FLOOR,
        spec=cfg.spec,
        points=tuple(points),
    )


def run_lp_experiment(cfg: ExperimentConfig) -> ConvergenceSeries:
    """Moments E[(M_n / |n|^(1/p))^p] along the schedule, 0 < p < 1, uncentered."""
    if not (0 < cfg.p < 1):
        raise ValueError("lp mode needs 0 < p < 1")
    if cfg.bound_params is not None:
        check_bound(eps=cfg.bound_params.eps, a=cfg.bound_params.a)
    return _series(
        cfg, "lp",
        values=lambda M, n: (M / n.size ** (1.0 / cfg.p)) ** cfg.p,
        bound=lambda bp, n: bound_eq23(bp.eps, bp.a, cfg.p, n),
    )


def run_l1_experiment(cfg: ExperimentConfig) -> ConvergenceSeries:
    """Centered moments E[max_k ||S_k - E S_k||] / |n| along the schedule.

    Centers with the family's per-cell means. The paper's p = 1 result needs
    bounded means, so a family without a finite mean is rejected undrawn.
    """
    if cfg.p != 1.0:
        raise ValueError("l1 mode fixes p = 1; drop --p or pass --p 1")
    if cfg.bound_params is not None:
        if cfg.bound_params.C is None:
            raise ValueError("l1 bound needs C in bound_params")
        check_bound(a=cfg.bound_params.a, C=cfg.bound_params.C)
    if dist.mean(cfg.spec, cfg.n_schedule[-1]) is None:
        raise ValueError(f"l1 mode centers with the family's mean, and {cfg.spec.family} "
                         f"{cfg.spec.params} has no finite mean; use --mode lp")
    return _series(
        cfg, "l1",
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
        logs = math.prod(math.log(2.0 * c) ** 2 for c in n.coords)
        dens.append(logs * total)
    stats = [map(float, dist.replication_mean(M * M)) for M in _maxima(spec, sched, seed, reps)]
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
    """all_pass reads each point's verdict (bound_pass); margins are file data."""
    if any(pt.bound is None for pt in series.points):
        raise ValueError("series has no bound column; rerun with bound_params")
    margins = tuple(pt.bound + 3.0 * pt.stderr - pt.moment for pt in series.points)
    return BoundReport(all_pass=all(pt.bound_pass for pt in series.points), margins=margins)
