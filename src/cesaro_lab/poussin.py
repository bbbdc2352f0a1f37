"""Constructive de La Vallee Poussin criterion for Cesaro uniform integrability.

From a CUI family one extracts integer tail levels N_1 < N_2 < ... with
tail sup at N_j below 2^-j, counts u_n = card{j : N_j < n}, and integrates
the step function with those slopes into a convex piecewise-linear phi with
phi(t)/t nondecreasing and unbounded. The family's Cesaro-averaged
E(phi(||X_i||)) then stays at or below 1, and conversely a slope level a
with phi(a)/a >= (K+1)/eps pushes the tail sup at a below eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import distributions as dist
from .cui import TailEstimate, _schedule_sup, _tail_sups, cesaro_tail_sup
from .distributions import NormSample
from .errors import HorizonTooSmallError, PhiDomainError

DEFAULT_J_MAX = 8
DEFAULT_SEARCH_CAP = 64
# phi(t)/t -> infinity, checked on a finite domain: the end ratio must reach this
GROWTH_FLOOR = 0.1


@dataclass(frozen=True, eq=False)
class PhiFunction:
    """Convex piecewise-linear phi(t) = integral_0^t g, where g equals u[k]
    on [k, k+1); phi(0) = 0 and the domain is [0, n_max]."""

    u: np.ndarray  # integer slopes, u[k] is the slope on [k, k+1)
    prefix: np.ndarray  # prefix[k] = phi(k), exact integers

    def __init__(self, u):
        raw = np.asarray(u)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("u must be a nonempty 1-d integer list")
        arr = raw.astype(np.int64)
        if not np.array_equal(arr, raw):
            raise ValueError("slope counts must be integers")
        if np.any(arr < 0):
            raise ValueError("slope counts must be >= 0")
        if np.any(np.diff(arr) < 0):
            raise ValueError("slope counts must be nondecreasing")
        arr.flags.writeable = False
        prefix = np.concatenate([[0], np.cumsum(arr)])
        prefix.flags.writeable = False
        object.__setattr__(self, "u", arr)
        object.__setattr__(self, "prefix", prefix)

    @property
    def n_max(self) -> int:
        return int(self.u.size)

    def to_json(self) -> dict:
        return {"u": [int(v) for v in self.u]}


def u_from_thresholds(thresholds: Sequence[int], n_max: int) -> np.ndarray:
    """Slope counts u_n = card{j >= 1 : N_j < n} for n = 1..n_max."""
    N = np.asarray(list(thresholds), dtype=np.int64)
    if N.size == 0:
        raise ValueError("need at least one threshold")
    if np.any(N < 1):
        raise ValueError("thresholds must be positive integers")
    if np.any(np.diff(N) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1)
    return np.searchsorted(N, n, side="left").astype(np.int64)


def phi_eval(phi: PhiFunction, t: float) -> float:
    """phi(t) for t in [0, n_max]: on [n-1, n) this is
    sum_{i<n} u_i + (t - n + 1) u_n, continuous across pieces."""
    t = float(t)
    if not (0.0 <= t <= phi.n_max):
        raise PhiDomainError(f"t={t} outside domain [0, {phi.n_max}]")
    if t == phi.n_max:
        return float(phi.prefix[-1])
    k = int(math.floor(t))
    return float(phi.prefix[k] + (t - k) * phi.u[k])


def _check_domain(phi: PhiFunction, ts: np.ndarray) -> None:
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= phi.n_max):
        raise PhiDomainError(
            f"values outside domain [0, {phi.n_max}] (max seen: {ts.max()!r}); enlarge n_max"
        )


def phi_eval_many(phi: PhiFunction, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    _check_domain(phi, ts)
    # prefix[k] + (t - k) u[k], built in one output buffer
    k = np.minimum(np.floor(ts), phi.n_max - 1)
    out = ts - k
    k = k.astype(np.int64)
    out *= phi.u[k]
    out += phi.prefix[k]
    return out


@dataclass(frozen=True)
class PhiPropertyReport:
    zero_at_zero: bool
    slopes_nondecreasing: bool
    ratio_nondecreasing: bool
    growth_attained: bool
    end_ratio: float
    growth_floor: float
    all_pass: bool = field(init=False)  # derived; a field, so reports serialize it

    def __post_init__(self):
        object.__setattr__(
            self,
            "all_pass",
            self.zero_at_zero
            and self.slopes_nondecreasing
            and self.ratio_nondecreasing
            and self.growth_attained,
        )


def verify_phi_properties(phi: PhiFunction) -> PhiPropertyReport:
    """Check phi(0)=0, convexity via nondecreasing slopes, monotone phi(t)/t
    at the integers 1..n_max, and that the end ratio clears GROWTH_FLOOR (a
    finite-domain stand-in for phi(t)/t -> infinity)."""
    grid = np.arange(1, phi.n_max + 1, dtype=np.float64)
    ratios = phi_eval_many(phi, grid) / grid
    slack = 1e-12 * np.maximum(1.0, np.abs(ratios[:-1]))
    return PhiPropertyReport(
        zero_at_zero=phi_eval(phi, 0.0) == 0.0,
        slopes_nondecreasing=bool(np.all(np.diff(phi.u) >= 0)),
        ratio_nondecreasing=bool(np.all(np.diff(ratios) >= -slack)),
        growth_attained=bool(ratios[-1] >= GROWTH_FLOOR),
        end_ratio=float(ratios[-1]),
        growth_floor=GROWTH_FLOOR,
    )


def thresholds_from_cui(
    sample: NormSample, j_max: int = DEFAULT_J_MAX, search_cap: int = DEFAULT_SEARCH_CAP
) -> tuple[int, ...]:
    """Strictly increasing integer levels N_j whose first-moment tail sup
    (indicator ||X|| >= N_j) over the dyadic boxes of the sample's box is at
    or below 2^-j, searched up to `search_cap`. N_j is the level a bisection
    on upper() settles on between N_{j-1} + 1 and the cap. upper() need not
    fall as the level rises (an empirical stderr can grow), so N_j need not
    be the minimal such level.

    A closed form answers each probe on its own. A realized sample answers
    every probe from one tail profile whose levels are the distinct values of
    min(floor(||X||), search_cap) in the sample: ||X|| >= N iff the floor is,
    so a probe at N reads the profile at the least such value >= N, bit-equal
    to a tail query at N.

    The cap is part of the verdict: a family whose tails do not decay on this
    horizon runs past it and raises HorizonTooSmallError.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if search_cap < 1:
        raise ValueError("search_cap must be >= 1")
    sup_at = _probes(sample, search_cap)

    out: list[int] = []
    prev = 0
    for j in range(1, j_max + 1):
        target = 2.0**-j
        lo, hi = prev + 1, search_cap
        if lo > hi or sup_at(hi) > target:
            raise HorizonTooSmallError(
                f"no tail level <= {search_cap} reaches 2^-{j} on horizon {sample.box}; "
                "the family's Cesaro tails do not decay within the disclosed cap"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if sup_at(mid) <= target:
                hi = mid
            else:
                lo = mid + 1
        out.append(lo)
        prev = lo
    return tuple(out)


def _probes(sample: NormSample, search_cap: int) -> Callable[[int], float]:
    """upper() of the tail sup with indicator ||X|| >= level, for integer
    levels in [1, search_cap]."""
    # a family's closed form covers a functional at every level or at none
    fld, exact, _ = sample.expectations(dist.Tail(1.0, 1.0, ge=True))
    if exact:
        return lambda level: cesaro_tail_sup(sample, 1.0, float(level), ge=True).upper()
    present = np.zeros(search_cap + 1, dtype=bool)
    flat = fld.reshape(-1)
    for start in range(0, flat.size, dist.CHUNK_CELLS):
        # fmin sends a NaN norm to the cap, where it only adds a level (the
        # profile drops NaN cells); no probe reads a level below 1
        part = np.fmin(np.floor(flat[start : start + dist.CHUNK_CELLS]), search_cap)
        present[part.astype(np.int64)] = True
    levels = np.flatnonzero(present[1:]) + 1
    uppers = [e.upper() for e in _tail_sups(sample, 1.0, levels.astype(np.float64), ge=True)]

    def sup_at(level: int) -> float:
        # no cell reaches a level above every value: the sup is 0 +- 0
        i = int(np.searchsorted(levels, level))
        return uppers[i] if i < len(uppers) else 0.0

    return sup_at


@dataclass(frozen=True)
class PoussinConstruction:
    thresholds: tuple[int, ...]
    phi: PhiFunction
    n_max: int
    calibration_max_norm: float


def build_phi_from_cui(
    sample: NormSample,
    j_max: int = DEFAULT_J_MAX,
    search_cap: int = DEFAULT_SEARCH_CAP,
    n_max: Optional[int] = None,
) -> PoussinConstruction:
    """End-to-end construction: tail levels -> slope counts -> phi.

    n_max defaults to max(ceil(4 * calibration max norm), 2 * N_jmax, 64) so
    both the family's norms and the useful slope range stay inside the domain.
    The search and the calibration share the sample's draw.
    """
    thresholds = thresholds_from_cui(sample, j_max, search_cap)
    norms = dist.fixed_norms(sample.spec, sample.box)
    if norms is None:
        if sample.reps < 1:
            sample = NormSample(sample.spec, sample.box, sample.seed, 1)
        norms = sample.norms()
    calib = float(norms.max())
    if n_max is None:
        n_max = max(math.ceil(4 * calib), 2 * max(thresholds), 64)
    if n_max < max(thresholds):
        raise ValueError(f"n_max={n_max} does not cover the largest threshold {max(thresholds)}")
    u = u_from_thresholds(thresholds, n_max)
    return PoussinConstruction(
        thresholds=tuple(int(v) for v in thresholds),
        phi=PhiFunction(u),
        n_max=int(n_max),
        calibration_max_norm=calib,
    )


def poussin_moment_check(sample: NormSample, phi: PhiFunction) -> TailEstimate:
    """Sup over the dyadic boxes of the sample's box of Cesaro-averaged
    E(phi(||X_i||)).

    Exact for families with fixed norms in analytic mode; Monte Carlo
    otherwise. Any norm beyond phi's domain raises PhiDomainError (enlarge
    n_max).
    """
    fld, exact, g = sample.expectations(lambda t: phi_eval_many(phi, t))
    if not exact:
        # phi is evaluated slab by slab inside the reduction; check the whole
        # sample first, so an error names its max and not one slab's
        _check_domain(phi, fld)
    return _schedule_sup(fld, exact, g, sample.box)


@dataclass(frozen=True)
class ForwardCheck:
    eps: float
    K: float
    level: int
    ratio: float
    tail_sup: float
    tail_stderr: float
    passed: bool


def poussin_forward_check(
    sample: NormSample, phi: PhiFunction, eps_list: Sequence[float]
) -> list[ForwardCheck]:
    """Forward direction: with K the phi-moment sup, the first integer level a
    where phi(a)/a >= (K+1)/eps must push the tail sup at a below eps."""
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    K = poussin_moment_check(sample, phi).upper()
    levels = np.arange(1, phi.n_max + 1, dtype=np.float64)
    ratios = phi.prefix[1:] / levels
    out = []
    for eps in eps_list:
        if not (eps > 0):
            raise ValueError("eps must be > 0")
        target = (K + 1.0) / eps
        hits = np.nonzero(ratios >= target)[0]
        if hits.size == 0:
            raise PhiDomainError(
                f"phi(t)/t never reaches {target!r} within [1, {phi.n_max}]; "
                "enlarge n_max or deepen the threshold list"
            )
        a = int(hits[0] + 1)
        tail = cesaro_tail_sup(sample, 1.0, float(a))
        out.append(
            ForwardCheck(
                eps=float(eps),
                K=K,
                level=a,
                ratio=float(ratios[a - 1]),
                tail_sup=tail.value,
                tail_stderr=tail.stderr,
                passed=tail.upper() < eps,
            )
        )
    return out
