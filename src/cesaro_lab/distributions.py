"""Named generative families of lattice vector arrays.

Each family's docstring states its dependence structure and whether its
p-th power norms are Cesaro uniformly integrable. Every closed form sits
behind one per-family norm law: `fixed_norms` gives the cell norms when
they are not random, `expect` gives E g(||X_i||) for a norm functional g
where the family admits it, and `mean` gives the per-cell mean vectors
(zeros for the zero-mean families). `NormSample.expectations` is the one
place that chooses between that closed form and Monte Carlo; a `NormSample` draws
its norms at most once and answers every query from that one draw. Samplers
are pure functions of (spec, box, seed): cell i draws from a counter-based
stream keyed by (seed, i), so enlarging a box never changes previously
generated cells. Every family but iid_gaussian takes its values on one
line, s_i e1, and samples them as one column: the norms in R^dim_D are the
same, so dim_D shapes only iid_gaussian.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import rng
from .lattice import CHUNK_CELLS, MultiIndex

MOMENT_MODES = ("analytic", "empirical")
LOW_REPS_FLOOR = 30  # Monte Carlo answers from fewer replications are flagged


@dataclass(frozen=True)
class DistributionSpec:
    """Declarative description of one generative family instance."""

    family: str
    params: Mapping[str, float] = field(default_factory=dict)
    dim_D: int = 8
    moment_mode: str = "analytic"

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        fam = get_family(self.family)
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must map names to numbers, got {self.params!r}")
        for name, value in self.params.items():
            # checked, not coerced: to_json writes the params back as given
            if not (_is_number(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"param {name!r} must be a finite number, got {value!r}")
        object.__setattr__(self, "params", dict(self.params))
        if not _is_number(self.dim_D, numbers.Integral):
            raise ValueError(f"dim_D must be an integer, got {self.dim_D!r}")
        if self.dim_D < 1:
            raise ValueError("dim_D must be >= 1")
        object.__setattr__(self, "dim_D", int(self.dim_D))
        if self.moment_mode not in MOMENT_MODES:
            raise ValueError(f"moment_mode must be one of {MOMENT_MODES}")
        fam.validate(self)

    def param(self, name: str) -> float:
        fam = get_family(self.family)
        return self.params.get(name, fam.defaults[name])

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "dim_D": self.dim_D,
            "moment_mode": self.moment_mode,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DistributionSpec":
        if not isinstance(obj, Mapping):
            raise ValueError(f"a spec must be a JSON object, got {obj!r}")
        extra = set(obj) - {"family", "params", "dim_D", "moment_mode"}
        if extra:
            raise ValueError(f"unknown spec fields: {sorted(extra)}")
        if "family" not in obj:
            raise ValueError("spec is missing 'family'")
        return cls(
            family=obj["family"],
            params=obj.get("params", {}),
            dim_D=obj.get("dim_D", 8),
            moment_mode=obj.get("moment_mode", "analytic"),
        )


def _is_number(value, kind) -> bool:
    """value is an instance of the numbers ABC `kind`, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _coord_grids(box: MultiIndex) -> list[np.ndarray]:
    """Sparse coordinate grids with a leading replication axis slot."""
    d = box.d
    grids = []
    for k, c in enumerate(box.coords):
        shape = (1,) * (k + 1) + (c,) + (1,) * (d - 1 - k)
        grids.append(np.arange(1, c + 1, dtype=np.uint64).reshape(shape))
    return grids


@dataclass(frozen=True)
class Tail:
    """The norm functional t -> t^p 1(t > a), or with 1(t >= a) when ge.

    Tail(p, a) is the truncated p-th moment, Tail(0, a, ge=True) the event
    probability, Tail(1, 0) the first and Tail(2, 0) the second moment.
    """

    p: float
    a: float
    ge: bool = False

    def __call__(self, t: np.ndarray) -> np.ndarray:
        mask = (t >= self.a) if self.ge else (t > self.a)
        return np.where(mask, self.power(t), 0.0)

    def power(self, t: np.ndarray) -> np.ndarray:
        """t^p, the weight of a cell above the level."""
        return t**self.p if self.p != 1 else t


NormFunctional = Callable[[np.ndarray], np.ndarray]


class Family:
    """Base for family implementations; the norm law defaults to random norms
    without closed forms."""

    name: str = ""
    max_d: int | None = None
    defaults: dict[str, float] = {}

    def validate(self, spec: DistributionSpec) -> None:
        unknown = set(spec.params) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown params for family {self.name}: {sorted(unknown)}")

    def check_box(self, box: MultiIndex) -> None:
        if self.max_d is not None and box.d > self.max_d:
            raise ValueError(f"family {self.name} is defined for d <= {self.max_d}")

    # --- norm law -------------------------------------------------------
    def fixed_norms(self, spec, box: MultiIndex) -> np.ndarray | None:
        """Per-cell norms over the box when they are not random, else None."""
        return None

    def expect(self, spec, g: NormFunctional, box: MultiIndex) -> np.ndarray | None:
        """Per-cell E g(||X_i||) in closed form, or None where there is none."""
        norms = self.fixed_norms(spec, box)
        return None if norms is None else g(norms)

    def mean(self, spec, box: MultiIndex) -> np.ndarray | None:
        """Per-cell mean vectors, broadcastable to the batch, or None without
        a closed form."""
        return None

    # --- sampling -------------------------------------------------------
    def vectors(self, spec, box: MultiIndex, starts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def norm_values(self, spec, box: MultiIndex, starts: np.ndarray) -> np.ndarray:
        fixed = self.fixed_norms(spec, box)
        if fixed is not None:
            return np.broadcast_to(fixed, (starts.shape[0],) + fixed.shape).copy()
        v = self.vectors(spec, box, starts)
        return np.sqrt((v * v).sum(axis=-1))


class _DeterministicFamily(Family):
    """Families whose cells are fixed vectors (value times first basis vector)."""

    def cell_values(self, spec, box: MultiIndex) -> np.ndarray:
        raise NotImplementedError

    def vectors(self, spec, box, starts):
        vals = self.cell_values(spec, box)[..., None]
        return np.broadcast_to(vals, (starts.shape[0],) + vals.shape).copy()

    def fixed_norms(self, spec, box):
        return np.abs(self.cell_values(spec, box))

    def mean(self, spec, box):
        return self.cell_values(spec, box)[..., None]


class ConstantFamily(_DeterministicFamily):
    """Every cell is c e1: bounded norms, so Cesaro-UI for every p."""

    name = "constant"
    defaults = {"c": 1.0}

    def cell_values(self, spec, box):
        return np.broadcast_to(float(spec.param("c")), box.coords)


class SpikedCuiFamily(_DeterministicFamily):
    """d=1 array that is Cesaro-UI but not plain-UI: cells vanish except at
    indices gap_base**k, where the norm is sqrt(index). Spike p-norms grow like
    g**(kp/2) against box size g**k, so the Cesaro tail sup vanishes for every
    p < 2."""

    name = "spiked_cui"
    max_d = 1
    defaults = {"gap_base": 2.0, "bulk": 0.0}

    def validate(self, spec):
        super().validate(spec)
        g = spec.param("gap_base")
        if g != int(g) or int(g) < 2:
            raise ValueError("gap_base must be an integer >= 2")
        if spec.param("bulk") < 0:
            raise ValueError("bulk must be >= 0")

    def cell_values(self, spec, box):
        self.check_box(box)
        n = box.coords[0]
        g = int(spec.param("gap_base"))
        vals = np.full(n, float(spec.param("bulk")))
        s = 1
        while s <= n:
            vals[s - 1] = math.sqrt(s)
            s *= g
        return vals


class GrowingNonCuiFamily(_DeterministicFamily):
    """d=1 deterministic norms i**exponent; Cesaro tail averages diverge, so
    the array is not Cesaro-UI for any p."""

    name = "growing_non_cui"
    max_d = 1
    defaults = {"exponent": 0.5}

    def validate(self, spec):
        super().validate(spec)
        if spec.param("exponent") <= 0:
            raise ValueError("exponent must be > 0")

    def cell_values(self, spec, box):
        self.check_box(box)
        n = box.coords[0]
        return np.arange(1, n + 1, dtype=np.float64) ** float(spec.param("exponent"))


class ParetoRadialFamily(Family):
    """iid cells: norm ~ Pareto(alpha) on [1, inf), direction = first basis
    vector. Cesaro-UI for the p-th power exactly when alpha > p."""

    name = "pareto_radial"
    defaults = {"alpha": 3.0}

    def validate(self, spec):
        super().validate(spec)
        if spec.param("alpha") <= 0:
            raise ValueError("alpha must be > 0")

    def norm_values(self, spec, box, starts):
        keys = rng.cell_keys(starts, _coord_grids(box))
        u = rng.uniform_open01(rng.substream(keys, 0))
        return u ** (-1.0 / float(spec.param("alpha")))

    def vectors(self, spec, box, starts):
        return self.norm_values(spec, box, starts)[..., None]

    def expect(self, spec, g, box):
        # E(X^p 1(X > a)) = alpha/(alpha-p) * max(a,1)^(p-alpha); continuous,
        # so the >= variant coincides. p = 0 gives the event probability. At
        # a = inf the event is empty, so 0 even where alpha <= p makes every
        # finite level infinite.
        if not isinstance(g, Tail):
            return None
        if g.a == math.inf:
            return np.broadcast_to(0.0, box.coords)
        alpha = float(spec.param("alpha"))
        if alpha <= g.p:
            return np.broadcast_to(np.inf, box.coords)
        level = max(float(g.a), 1.0)
        return np.broadcast_to(alpha / (alpha - g.p) * level ** (g.p - alpha), box.coords)

    def mean(self, spec, box):
        alpha = float(spec.param("alpha"))
        if alpha <= 1.0:
            return None
        return np.broadcast_to(alpha / (alpha - 1.0), box.coords + (1,))


class IidGaussianFamily(Family):
    """iid cells with D independent N(0, sigma^2) coefficients: identically
    distributed with finite moments, hence uniformly integrable, hence
    Cesaro-UI."""

    name = "iid_gaussian"
    defaults = {"sigma": 1.0}

    def validate(self, spec):
        super().validate(spec)
        if spec.param("sigma") <= 0:
            raise ValueError("sigma must be > 0")

    def mean(self, spec, box):
        return np.broadcast_to(0.0, box.coords + (1,))

    def vectors(self, spec, box, starts):
        keys = rng.cell_keys(starts, _coord_grids(box))
        out = rng.normals(keys, spec.dim_D)
        out *= float(spec.param("sigma"))
        return out

    def expect(self, spec, g, box):
        # only the second moment E||X||^2 = D sigma^2 has a closed form here
        if not (isinstance(g, Tail) and g.p == 2 and g.a == 0):
            return None
        s = float(spec.param("sigma"))
        return np.broadcast_to(spec.dim_D * s * s, box.coords)


class IidRademacherFamily(Family):
    """iid signs: cells are +-1 times the first basis vector; unit norms, so
    Cesaro-UI."""

    name = "iid_rademacher"
    defaults: dict[str, float] = {}

    def mean(self, spec, box):
        return np.broadcast_to(0.0, box.coords + (1,))

    def fixed_norms(self, spec, box):
        return np.broadcast_to(1.0, box.coords)

    def vectors(self, spec, box, starts):
        keys = rng.cell_keys(starts, _coord_grids(box))
        return rng.signs(rng.substream(keys, 0))[..., None]


def subset_products(bits: np.ndarray) -> np.ndarray:
    """Products of signs over every nonempty subset, in mask order 1..2^m-1.

    bits has shape (..., m); the result has shape (..., 2^m - 1), and entry
    mask-1 is the product of bits[t] over the set bits t of `mask`.
    """
    m = bits.shape[-1]
    L = 2**m - 1
    out = np.ones(bits.shape[:-1] + (L,), dtype=np.float64)
    masks = np.arange(1, L + 1)
    for t in range(m):
        sel = ((masks >> t) & 1) == 1
        out[..., sel] *= bits[..., t : t + 1]
    return out


class PairwiseRademacherFamily(Family):
    """Pairwise- but not mutually-independent signs (d=1).

    Each block of 2^m - 1 consecutive cells carries the subset products of m
    fresh independent signs; blocks are mutually independent, so the whole
    array stays pairwise independent with zero mean and unit norms, and
    bounded norms make it Cesaro-UI.
    """

    name = "pairwise_rademacher"
    max_d = 1
    defaults = {"m": 4.0}

    def validate(self, spec):
        super().validate(spec)
        m = spec.param("m")
        if m != int(m) or not (2 <= int(m) <= 20):
            raise ValueError("m must be an integer in [2, 20]")

    def mean(self, spec, box):
        return np.broadcast_to(0.0, box.coords + (1,))

    def fixed_norms(self, spec, box):
        return np.broadcast_to(1.0, box.coords)

    def _signs(self, spec, box, starts):
        self.check_box(box)
        m = int(spec.param("m"))
        L = 2**m - 1
        n = box.coords[0]
        q = np.arange(n)
        block = (q // L).astype(np.uint64)
        mask_idx = q % L  # 0-based subset mask index
        n_blocks = int(block[-1]) + 1
        block_keys = rng.cell_keys(starts, [np.arange(n_blocks, dtype=np.uint64).reshape(1, -1)])
        bits = np.stack(
            [rng.signs(rng.substream(block_keys, t)) for t in range(m)], axis=-1
        )  # (R, n_blocks, m)
        table = subset_products(bits)  # (R, n_blocks, L)
        return table[:, block.astype(np.int64), mask_idx]

    def vectors(self, spec, box, starts):
        return self._signs(spec, box, starts)[..., None]


_FAMILY_LIST = [
    IidGaussianFamily(),
    ParetoRadialFamily(),
    SpikedCuiFamily(),
    GrowingNonCuiFamily(),
    PairwiseRademacherFamily(),
    ConstantFamily(),
    IidRademacherFamily(),
]
FAMILIES: dict[str, Family] = {f.name: f for f in _FAMILY_LIST}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None


def _rep_starts(seed: int, reps: range, d: int) -> np.ndarray:
    starts = np.array([rng.as_seed(rng.derive_seed(seed, r)) for r in reps], dtype=np.uint64)
    return starts.reshape((len(reps),) + (1,) * d)


def _checked_family(spec: DistributionSpec, box: MultiIndex) -> Family:
    fam = get_family(spec.family)
    fam.check_box(box)
    return fam


def sample_batch(
    spec: DistributionSpec, n: MultiIndex, seed: int, reps: int, first_rep: int = 0
) -> np.ndarray:
    """`reps` independent arrays, shape (reps,) + n.coords + (1,), or
    (reps,) + n.coords + (dim_D,) for iid_gaussian.

    Row r is replication first_rep + r, its cells keyed by (derive_seed(seed,
    first_rep + r), i), so batches drawn in chunks of reps stack into the
    batch drawn at once.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    starts = _rep_starts(seed, range(first_rep, first_rep + reps), n.d)
    return _checked_family(spec, n).vectors(spec, n, starts)


def norm_batch(spec: DistributionSpec, n: MultiIndex, seed: int, reps: int) -> np.ndarray:
    """Realized cell norms, shape (reps,) + n.coords.

    Drawn in chunks of CHUNK_CELLS cells (at least one rep each) into one
    output array; rows are keyed by derive_seed(seed, r), so the chunks stack
    into the draw made at once.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    fam = _checked_family(spec, n)
    out = np.empty((reps,) + n.coords, dtype=np.float64)
    chunk = max(1, CHUNK_CELLS // n.size)
    for first in range(0, reps, chunk):
        last = min(reps, first + chunk)
        out[first:last] = fam.norm_values(spec, n, _rep_starts(seed, range(first, last), n.d))
    return out


def fixed_norms(spec: DistributionSpec, box: MultiIndex) -> np.ndarray | None:
    """Per-cell norms over the box when the family's norms are not random."""
    return _checked_family(spec, box).fixed_norms(spec, box)


def expect(spec: DistributionSpec, g: NormFunctional, box: MultiIndex) -> np.ndarray | None:
    """Per-cell E g(||X_i||) over the box in closed form, or None, whatever the
    spec's moment_mode."""
    return _checked_family(spec, box).expect(spec, g, box)


def mean(spec: DistributionSpec, box: MultiIndex) -> np.ndarray | None:
    """Per-cell mean vectors, broadcastable to the batch, or None without a
    closed form."""
    return _checked_family(spec, box).mean(spec, box)


class NormSample:
    """The realized norms of `reps` arrays over one box, drawn at most once.

    Callers that ask several questions of the same (spec, box, seed, reps)
    share one NormSample. The draw is lazy, so queries answered in closed form
    draw nothing; it is taken under a lock, so callers who share a sample
    across their own threads still draw once, and the drawn array is
    read-only.
    """

    def __init__(self, spec: DistributionSpec, box: MultiIndex, seed: int = 0, reps: int = 200):
        self.spec = spec
        self.box = box
        self.seed = seed
        self.reps = reps
        self._norms: np.ndarray | None = None
        self._lock = threading.Lock()

    def norms(self) -> np.ndarray:
        """The realized cell norms, shape (reps,) + box.coords."""
        with self._lock:
            if self._norms is None:
                norms = norm_batch(self.spec, self.box, self.seed, self.reps)
                norms.flags.writeable = False
                self._norms = norms
        return self._norms

    def expectations(
        self, g: NormFunctional
    ) -> tuple[np.ndarray, bool, NormFunctional | None]:
        """E g(||X_i||) per cell as (field, exact, g still to apply).

        Exact iff the spec's moment_mode is "analytic" and the family has a
        closed form for g: then (E g, shape box.coords, True, None).
        Otherwise (the realized norms, shape (reps,) + box.coords, False, g):
        the caller applies g cell by cell and averages over reps, so a
        reduction can apply g slab by slab and never hold g of the whole
        sample.
        """
        if self.spec.moment_mode == "analytic":
            fld = expect(self.spec, g, self.box)
            if fld is not None:
                return fld, True, None
        return self.norms(), False, g

