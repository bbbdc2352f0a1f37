"""Named generative families of lattice vector arrays.

Each family's docstring states its dependence structure and whether its
p-th power norms are Cesaro uniformly integrable. Every closed form sits
behind one per-family norm law: `fixed_norms` gives the cell norms when
they are not random, `expect` gives E g(||X_i||) for a norm functional g
where the family admits it, and `mean` gives the per-cell mean vectors
(zeros for the zero-mean families). `NormSample.closed_form` is the one
place that chooses between that closed form and Monte Carlo. A `NormSample`
gives its realized norms one way: `chunks()` streams them in chunks of
reps, drawn by draw_chunks, the one loop that draws every sample. So a pass
that knows all its questions up front never holds the sample, and a caller
whose later questions depend on earlier answers calls `hold()` first: the
sample keeps its next draw, and later passes slice it. Samplers
are pure functions of (spec, box, seed): cell i draws from a counter-based
stream keyed by (seed, i), so enlarging a box never changes previously
generated cells. Every family but iid_gaussian takes its values on one
line, s_i e1, and samples them as one column: the norms in R^dim_D are the
same, so dim_D shapes only iid_gaussian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Mapping

import numpy as np

from . import rng
from .lattice import CHUNK_CELLS, MultiIndex, plane_sum, row_chunks

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
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown spec fields: {sorted(extra)}")
        if "family" not in obj:
            raise ValueError("spec is missing 'family'")
        return cls(**obj)


def _is_number(value, kind) -> bool:
    """value is an instance of the numbers ABC `kind`, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_reps(reps) -> None:
    """Reject a replication count that is not an integer >= 1 (a bool is not
    one), before anything is drawn with it."""
    if not (_is_number(reps, numbers.Integral) and reps >= 1):
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")


def check_p(p) -> None:
    """Reject a norm power outside (0, 1] (so NaN fails)."""
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")


def replication_mean(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of vals over replications (axis 0) and its stderr, the ddof-1
    spread over sqrt(reps), 0 from one rep. Where every replication reads one
    value, that value with stderr 0 (a float64 mean of equal values can be an
    ulp off them). numpy adds a C-contiguous (reps, boxes) array rep by rep
    and a 1-D row pairwise, so each caller keeps its layout."""
    reps = vals.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf values: NaN or inf
        means = vals.mean(axis=0)
        ses = vals.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros_like(means)
    same = (vals == vals[0]).all(axis=0)
    return np.where(same, vals[0], means), np.where(same, 0.0, ses)


# Every Monte Carlo verdict's confidence rule, a row per verdict: (width in
# stderrs, strict, side). Side "value": value + width*stderr below the bound;
# side "bound" (lenient): value below bound + width*stderr. Below: < if strict, else <=.
CONFIDENCE = {
    "tail_certified": (2.0, True, "value"),  # cui certificates, the recovered tail
    "event_criterion": (2.0, True, "value"),  # an event criterion's premise and conclusion
    "threshold": (2.0, False, "value"),  # poussin's levels N_j
    "forward": (2.0, True, "value"),  # poussin's K and forward checks
    "bounded_means": (2.0, False, "bound"),  # the equivalence's criterion (i)
    "markov_events": (2.0, False, "bound"),  # the equivalence's Markov events below delta
    "envelope": (3.0, False, "bound"),  # a series point's bound_pass and its margin
    "halving": (2.0, True, "value"),  # the trend's last point below half the first's lower limit
}


def confidence_limit(row: str, value: float, stderr: float, lower: bool = False) -> float:
    """value + width*stderr by the row's width, or value - width*stderr when
    lower: a bound read off an estimate, such as poussin's K."""
    width = CONFIDENCE[row][0]
    return value - width * stderr if lower else value + width * stderr


def confident(row: str, value: float, stderr: float, bound: float) -> bool:
    """`row`'s verdict on an estimate against its bound; False on a NaN."""
    _, strict, side = CONFIDENCE[row]
    lhs = confidence_limit(row, value, stderr) if side == "value" else value
    rhs = confidence_limit(row, bound, stderr) if side == "bound" else bound
    return lhs < rhs if strict else lhs <= rhs


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
        return np.where(t > self.level, self.power(t), 0.0)

    @property
    def level(self) -> np.float64:
        """a, or the float below a when ge, a float64 (not rounded to narrower
        cells): for every t and a > -inf, t >= a exactly when t > the level."""
        return np.float64(math.nextafter(self.a, -math.inf) if self.ge else self.a)

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
        """Per-cell mean vectors, broadcastable to the batch, or None when the
        mean is not finite."""
        return None

    # --- sampling -------------------------------------------------------
    # A draw writes into buffers its caller owns: `out` receives the values of
    # a chunk of reps (a vector `out` from draw_buffers is plane-major: each
    # column is one contiguous plane), and `scratch`, a uint64 array of shape
    # (scratch_planes,) + (reps,) + box.coords, is the family's to overwrite.
    # `head` holds the chunk's key-chain heads (rng.cell_keys, one per rep
    # and line along the last axis) and `last` the last coordinate's grid,
    # mixed once per draw (_DrawKeys): stream j of every cell is
    # rng.substream(head, last, j), one hashing pass per uniform.
    def columns(self, spec) -> int:
        """Columns of a sampled vector: 1, its values lie on one line."""
        return 1

    def scratch_planes(self, spec) -> int:
        """Cell-shaped uint64 planes of scratch a draw needs."""
        return 1

    def norm_planes(self, spec) -> int:
        """Planes of scratch a norm draw needs: the vector draw's, and behind
        them one float64 plane per column for the vectors themselves."""
        return self.scratch_planes(spec) + self.columns(spec)

    def vectors(self, spec, box: MultiIndex, head: np.ndarray, last, out: np.ndarray, scratch: np.ndarray) -> None:
        """Cell vectors into out, shape (reps,) + box.coords + (columns,)."""
        raise NotImplementedError

    def norm_values(self, spec, box: MultiIndex, head: np.ndarray, last, out: np.ndarray, scratch: np.ndarray) -> None:
        """Cell norms into out, shape (reps,) + box.coords; scratch has
        norm_planes(spec) planes."""
        fixed = self.fixed_norms(spec, box)
        if fixed is not None:
            out[...] = fixed
            return
        # the vectors, plane-major as sample_batch's, fill the planes behind
        # the vector draw's scratch
        planes, cols = self.scratch_planes(spec), self.columns(spec)
        v = np.moveaxis(scratch[planes : planes + cols].view(np.float64), 0, -1)
        self.vectors(spec, box, head, last, v, scratch[:planes])
        np.sqrt(plane_sum(np.square(v, out=v), out), out=out)


class _DeterministicFamily(Family):
    """Families whose cells are fixed vectors (value times first basis vector)."""

    def cell_values(self, spec, box: MultiIndex) -> np.ndarray:
        raise NotImplementedError

    def vectors(self, spec, box, head, last, out, scratch):
        out[...] = self.cell_values(spec, box)[..., None]

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

    def norm_values(self, spec, box, head, last, out, scratch):
        # the keys live in out's memory until the uniforms replace them
        keys, mixing = out.view(np.uint64), scratch[0]
        rng.substream(head, last, 0, out=keys, scratch=mixing)
        rng.uniform_open01(keys, out=out, scratch=mixing)
        with np.errstate(over="ignore"):  # past the largest float: inf, correctly rounded
            out **= -1.0 / float(spec.param("alpha"))  # in place, as u ** (-1 / alpha)

    def norm_planes(self, spec):
        return self.scratch_planes(spec)

    def vectors(self, spec, box, head, last, out, scratch):
        self.norm_values(spec, box, head, last, out[..., 0], scratch)

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

    def columns(self, spec):
        return spec.dim_D

    def scratch_planes(self, spec):
        return rng.normals_work_planes(spec.dim_D)

    def vectors(self, spec, box, head, last, out, scratch):
        rng.normals(head, last, spec.dim_D, out=out, work=scratch.view(np.float64))
        sigma = float(spec.param("sigma"))
        if sigma != 1.0:  # x * 1.0 is x, bit for bit: skip the pass
            out *= sigma

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

    def vectors(self, spec, box, head, last, out, scratch):
        out[..., 0] = rng.signs(rng.substream(head, last, 0))


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

    def _signs(self, spec, box, head):
        # d = 1, so the chunk's heads are one per rep; the block index is the
        # last coordinate of each block's chain, and sign t its stream t
        self.check_box(box)
        m = int(spec.param("m"))
        L = 2**m - 1
        n = box.coords[0]
        q = np.arange(n)
        block = (q // L).astype(np.uint64)
        mask_idx = q % L  # 0-based subset mask index
        n_blocks = int(block[-1]) + 1
        blocks = rng.premix(np.arange(n_blocks, dtype=np.uint64).reshape(1, -1))
        bits = np.stack(
            [rng.signs(rng.substream(head, blocks, t)) for t in range(m)], axis=-1
        )  # (R, n_blocks, m)
        table = subset_products(bits)  # (R, n_blocks, L)
        return table[:, block.astype(np.int64), mask_idx]

    def vectors(self, spec, box, head, last, out, scratch):
        out[..., 0] = self._signs(spec, box, head)


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


class _DrawKeys:
    """What every key chain of a draw of (seed, box) shares, derived once per
    draw: the seed's root, into which each rep's start folds its index, and
    the box's coordinate grids, mixed. A chunk then mixes only its own rep
    starts and chain heads, and nothing here grows with reps."""

    def __init__(self, seed: int, box: MultiIndex):
        self.root = rng.seed_root(seed)
        *self.inner, self.last = [rng.premix(g) for g in _coord_grids(box)]

    def starts(self, reps: range) -> np.ndarray:
        """derive_seed(seed, r) for every rep r, in one vectorised key chain,
        shaped to broadcast against the grids."""
        starts = rng.combine(self.root, np.arange(reps.start, reps.stop, dtype=np.uint64))
        return starts.reshape((len(reps),) + (1,) * (len(self.inner) + 1))

    def heads(self, reps: range) -> np.ndarray:
        """The key-chain heads of every rep r and line of cells along the
        box's last axis, each folded once per chunk: rng.cell_keys of the
        rep starts and every coordinate grid but the last."""
        return rng.cell_keys(self.starts(reps), self.inner)


def _checked_family(spec: DistributionSpec, box: MultiIndex) -> Family:
    fam = get_family(spec.family)
    fam.check_box(box)
    return fam


def sample_batch(
    spec: DistributionSpec,
    n: MultiIndex,
    seed: int,
    reps: int,
    first_rep: int = 0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    keys: _DrawKeys | None = None,
) -> np.ndarray:
    """`reps` independent arrays, shape (reps,) + n.coords + (1,), or
    (reps,) + n.coords + (dim_D,) for iid_gaussian.

    Row r is replication first_rep + r, its cells keyed by (derive_seed(seed,
    first_rep + r), i), so batches drawn in chunks of reps stack into the
    batch drawn at once. The batch is written into `out` and returned, with
    the front of `scratch` (both from draw_buffers, as draw_chunks passes
    them) as the family's scratch; without `out`, both are new, so the batch
    is plane-major: each column is contiguous, not each cell's vector.
    `keys`, _DrawKeys(seed, n), is derived here when not given; draw_chunks
    derives it once for all its chunks.
    """
    return _draw(spec, n, seed, reps, first_rep, out, scratch, keys, norms=False)


def draw_buffers(
    spec: DistributionSpec, n: MultiIndex, reps: int, norms: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """An `out` of shape (reps,) + n.coords + (columns,) for sample_batch,
    plane-major (the view moveaxis(planes, 0, -1) of (columns, reps) +
    n.coords), or with `norms` of shape (reps,) + n.coords for norm_batch,
    and the draw's uint64 `scratch` of shape (planes, reps) + n.coords."""
    fam = get_family(spec.family)
    cells = (reps,) + n.coords
    if norms:
        return np.empty(cells), np.empty((fam.norm_planes(spec),) + cells, dtype=np.uint64)
    out = np.moveaxis(np.empty((fam.columns(spec),) + cells), 0, -1)
    return out, np.empty((fam.scratch_planes(spec),) + cells, dtype=np.uint64)


def norm_batch(
    spec: DistributionSpec,
    n: MultiIndex,
    seed: int,
    reps: int,
    first_rep: int = 0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    keys: _DrawKeys | None = None,
) -> np.ndarray:
    """Realized cell norms of `reps` arrays, shape (reps,) + n.coords: the
    norms of sample_batch's vectors, with its rows and keys, and `out`,
    `scratch` (from draw_buffers(..., norms=True)) and `keys` as there."""
    return _draw(spec, n, seed, reps, first_rep, out, scratch, keys, norms=True)


def _draw(spec, n, seed, reps, first_rep, out, scratch, keys, norms) -> np.ndarray:
    """The body of sample_batch, and with `norms` of norm_batch: the family's
    vectors, or its norm_values, of the rows first_rep, ... into out."""
    check_reps(reps)
    fam = _checked_family(spec, n)
    if out is None:
        out, scratch = draw_buffers(spec, n, reps, norms)
    if keys is None:
        keys = _DrawKeys(seed, n)
    head = keys.heads(range(first_rep, first_rep + reps))
    fill = fam.norm_values if norms else fam.vectors
    fill(spec, n, head, keys.last, out, _front(scratch, reps))
    return out


def _front(scratch: np.ndarray, k: int) -> np.ndarray:
    """The scratch of a draw of k reps, (planes, k) + box, laid over the
    front of `scratch` (contiguous), so any run of its planes is one block."""
    box = scratch.shape[2:]
    size = len(scratch) * k * math.prod(box)
    return scratch.reshape(-1)[:size].reshape((len(scratch), k) + box)


def draw_chunks(
    spec: DistributionSpec,
    box: MultiIndex,
    seed: int,
    reps: int,
    norms: bool = False,
    out: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The `reps` arrays over `box` as (first rep, chunk) pairs in rep order,
    CHUNK_CELLS values (at least one rep) per chunk: the vectors of
    sample_batch, `columns` values per cell, or with `norms` the norms of
    norm_batch, one per cell.

    Every chunk is drawn with one scratch, and into one chunk buffer, both
    allocated once per draw, as are the draw's key constants (_DrawKeys), so
    a chunk holds until the next is drawn and its reader may overwrite it.
    With `out` (the shape of the whole draw), each chunk is drawn into its
    own rows of out instead.
    """
    check_reps(reps)
    values = box.size if norms else box.size * get_family(spec.family).columns(spec)
    k = min(max(1, CHUNK_CELLS // values), reps)
    draw = norm_batch if norms else sample_batch
    chunk, scratch = draw_buffers(spec, box, k, norms)
    keys = _DrawKeys(seed, box)
    for first in range(0, reps, k):
        m = min(k, reps - first)
        rows = chunk[:m] if out is None else out[first : first + m]
        yield first, draw(spec, box, seed, m, first_rep=first, out=rows, scratch=scratch, keys=keys)


def fixed_norms(spec: DistributionSpec, box: MultiIndex) -> np.ndarray | None:
    """Per-cell norms over the box when the family's norms are not random."""
    return _checked_family(spec, box).fixed_norms(spec, box)


def expect(spec: DistributionSpec, g: NormFunctional, box: MultiIndex) -> np.ndarray | None:
    """Per-cell E g(||X_i||) over the box in closed form, or None, whatever the
    spec's moment_mode."""
    return _checked_family(spec, box).expect(spec, g, box)


def mean(spec: DistributionSpec, box: MultiIndex) -> np.ndarray | None:
    """Per-cell mean vectors, broadcastable to the batch, or None when the
    family has no finite mean, which a centered series rejects."""
    return _checked_family(spec, box).mean(spec, box)


class NormSample:
    """The realized norms of `reps` arrays over one box.

    Callers that ask several questions of the same (spec, box, seed, reps)
    share one NormSample. Nothing is drawn until a question reads chunks(),
    so questions answered in closed form draw nothing. A pass that knows all
    its questions reads chunks() once, which draws each rep once and holds
    no more than a chunk; a caller that reads chunks() more than once calls
    hold() first, so the sample keeps its draw and every later pass slices
    it. The least and the largest norm are computed by the first
    norm_range() and kept: every draw of a sample gives the same norms. A
    sample is not shared across threads: every run is single-threaded.
    """

    def __init__(self, spec: DistributionSpec, box: MultiIndex, seed: int = 0, reps: int = 200):
        check_reps(reps)
        self.spec = spec
        self.box = box
        self.seed = seed
        self.reps = reps
        self._hold = False
        self._norms: np.ndarray | None = None
        self._range: tuple[float, float] | None = None

    def hold(self) -> None:
        """Keep the next draw, read-only, for every later chunks() pass to
        slice. Draws nothing."""
        self._hold = True

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The realized norms as read-only (first rep, norms of a run of reps)
        pairs in rep order: row_chunks of the held draw once there is one,
        else a new draw by draw_chunks, held when hold() asked for it. A
        chunk that is not held is valid until the next is asked for."""
        if self._norms is not None:
            yield from row_chunks(self._norms, self.box)
            return
        held = np.empty((self.reps,) + self.box.coords) if self._hold else None
        for first, norms in draw_chunks(self.spec, self.box, self.seed, self.reps, True, held):
            norms.flags.writeable = False
            yield first, norms
        if held is not None:
            held.flags.writeable = False
            self._norms = held

    def norm_range(self) -> tuple[float, float]:
        """The least and the largest realized norm (NaN if any norm is NaN),
        from one pass over chunks() the first time it is asked."""
        if self._range is None:
            lo, hi = np.inf, -np.inf
            for _, norms in self.chunks():
                lo, hi = np.minimum(lo, norms.min()), np.maximum(hi, norms.max())
            self._range = lo, hi
        return self._range

    def closed_form(self, g: NormFunctional) -> np.ndarray | None:
        """E g(||X_i||) per cell, shape box.coords, when the spec's
        moment_mode is "analytic" and the family has a closed form for g;
        else None. Draws nothing."""
        if self.spec.moment_mode != "analytic":
            return None
        return expect(self.spec, g, self.box)
