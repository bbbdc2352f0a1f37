"""Command-line front end: configure, run, and export diagnostics reproducibly.

Four commands: check-cui (tail-sup report over a truncation grid), poussin
(threshold search, convex gauge construction, moment and forward checks),
converge (mean-convergence series with trend and envelope verdicts), and
oracle-check (prefix-sum, schedule-average and gauge evaluation cross-checks
against brute force). Every command writes a manifest next to its outputs;
`replay` re-runs a manifest's command into a fresh directory. Data files are
byte-identical across replays; only the manifest's duration field varies.

Exit codes: 0 the run completed (scientific verdicts live in the output
files), 1 verification failure, 2 usage error, 3 domain or horizon error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import convergence, cui, poussin, rng
from .distributions import DistributionSpec, NormSample
from .errors import HorizonTooSmallError, PhiDomainError
from .lattice import (
    MultiIndex,
    box_maxima,
    dyadic_boxes,
    dyadic_square_schedule,
    prefix_sums_bruteforce,
    prefix_table,
    schedule_averages,
    schedule_profiles,
)

try:
    from . import __version__ as _pkg_version
except ImportError:  # pragma: no cover
    _pkg_version = "0.0.0"


# ---------------------------------------------------------------------------
# parsing helpers


def parse_horizon(text: str) -> MultiIndex:
    """"10000" -> box (10000,); "64x64" -> box (64, 64)."""
    try:
        coords = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad horizon {text!r}: use forms like 4096 or 64x64")
    return MultiIndex(coords)


def parse_a_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad a-grid {text!r}: comma-separated numbers expected")
    return grid

def parse_schedule(text: str) -> list[MultiIndex]:
    """Either the preset "dyadic:d,max_total" or explicit boxes "2;4x4;8x8"."""
    if text.startswith("dyadic:"):
        body = text[len("dyadic:"):]
        try:
            d_str, max_str = body.split(",")
            d, max_total = int(d_str), int(max_str)
        except ValueError:
            raise ValueError(
                f"bad schedule preset {text!r}: expected dyadic:<d>,<max_total>"
            )
        return dyadic_square_schedule(d, max_total=max_total)
    boxes = [parse_horizon(part) for part in text.split(";") if part]
    if not boxes:
        raise ValueError("schedule must list at least one box")
    return boxes


def parse_bound(text: str) -> convergence.BoundParams:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad bound {text!r}: expected eps,a or eps,a,C")
    try:
        eps, a = float(parts[0]), float(parts[1])
        C = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ValueError(f"bad bound {text!r}: numeric fields expected")
    return convergence.BoundParams(eps=eps, a=a, C=C)


def parse_eps_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad eps list {text!r}: comma-separated numbers expected")


def load_spec(path: str) -> DistributionSpec:
    raw = Path(path).read_text()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path} is not valid JSON: {exc}")
    return DistributionSpec.from_json(payload)


def _py(obj):
    """Recursively coerce numpy scalars/arrays, boxes and dataclasses (by their
    fields) into plain JSON types."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, MultiIndex):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _py(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_py(payload), indent=2, sort_keys=True) + "\n")


def write_manifest(
    out_dir: Path, command: str, config: dict, seed: int, outputs: list[str], t0: float
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": _pkg_version,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - t0,
    }
    write_json(out_dir / "manifest.json", manifest)


def _ensure_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# data commands: each maps its manifest config to its named data files, in
# manifest order; text is written as is, anything else through write_json.
# Library functions are looked up through their modules at call time, so a
# rebinding of a module attribute (as the benchmark tracer makes) is seen.


def _sample(config: dict) -> NormSample:
    spec = DistributionSpec.from_json(config["spec"])
    return NormSample(spec, parse_horizon(config["horizon"]), config["seed"], config["reps"])


def _check_cui_files(config: dict) -> dict:
    report = cui.build_cui_report(
        _sample(config), p=config["p"], a_grid=config["a_grid"], ge=config["ge"]
    )
    return {"cui_report.csv": report.to_csv_text(), "cui_report.json": report}


def _poussin_files(config: dict) -> dict:
    sample = _sample(config)
    sample.hold()  # the search, the calibration and both checks read one draw
    built = poussin.build_phi_from_cui(
        sample,
        j_max=config["j_max"],
        search_cap=config["search_cap"],
        n_max=config["n_max"],
    )
    props = poussin.verify_phi_properties(built.phi)
    moment = poussin.poussin_moment_check(sample, built.phi)
    forward = poussin.poussin_forward_check(sample, built.phi, config["eps"], moment)
    report = {
        "thresholds": built.thresholds,
        "n_max": built.n_max,
        "calibration_max_norm": built.calibration_max_norm,
        "phi_properties": props,
        # not the whole TailEstimate: the file has no low_reps key
        "moment_check": {
            "value": moment.value,
            "stderr": moment.stderr,
            "mode": moment.mode,
            "argmax_box": moment.argmax_box,
        },
        "forward_checks": forward,
    }
    lines = ["t,phi,ratio"]
    for t in range(built.phi.n_max + 1):
        value = int(built.phi.prefix[t])
        ratio = "" if t == 0 else repr(value / t)
        lines.append(f"{t},{value},{ratio}")
    return {
        "poussin_report.json": report,
        "phi.json": built.phi.to_json(),
        "phi.csv": "\n".join(lines) + "\n",
    }


def _converge_files(config: dict) -> dict:
    bound = config["bound"]
    cfg = convergence.ExperimentConfig(
        spec=DistributionSpec.from_json(config["spec"]),
        p=config["p"],
        n_schedule=tuple(parse_horizon(s) for s in config["schedule"]),
        reps=config["reps"],
        seed=config["seed"],
        bound_params=None
        if bound is None
        else convergence.BoundParams(bound["eps"], bound["a"], bound["C"]),
    )
    mode = config["mode"]
    if mode == "lp":
        series = convergence.run_lp_experiment(cfg)
    elif mode == "l1":
        series = convergence.run_l1_experiment(cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}: expected lp or l1")
    if len(series.points) >= convergence.MIN_TREND_POINTS:
        trend = convergence.trend_test(series)
    else:
        trend = None
    dom = convergence.bound_domination_check(series) if bound is not None else None
    return {
        "series.csv": series.to_csv_text(),
        "series.json": {"series": series.to_json(), "trend": trend, "bound_domination": dom},
    }


DATA_COMMANDS = {
    "check-cui": _check_cui_files,
    "poussin": _poussin_files,
    "converge": _converge_files,
}


def run_command(command: str, config: dict, out_dir: Path) -> int:
    """Run a data command from its manifest config: write its data files,
    then the manifest naming them. The config is first coerced to its JSON
    form, so a run and its replay compute from the same input."""
    t0 = time.perf_counter()
    config = _py(config)
    files = DATA_COMMANDS[command](config)
    for name, content in files.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            write_json(out_dir / name, content)
    write_manifest(out_dir, command, config, config["seed"], list(files), t0)
    return 0


def cmd_check_cui(args: argparse.Namespace) -> int:
    config = {
        "spec": load_spec(args.spec).to_json(),
        "p": args.p,
        "a_grid": parse_a_grid(args.a_grid),
        "horizon": args.horizon,
        "reps": args.reps,
        "seed": args.seed,
        "ge": bool(args.ge),
    }
    return run_command("check-cui", config, _ensure_out(args.out))


def cmd_poussin(args: argparse.Namespace) -> int:
    config = {
        "spec": load_spec(args.spec).to_json(),
        "horizon": args.horizon,
        "j_max": args.j_max,
        "search_cap": args.search_cap,
        "n_max": args.n_max,
        "eps": parse_eps_list(args.eps),
        "reps": args.reps,
        "seed": args.seed,
    }
    return run_command("poussin", config, _ensure_out(args.out))


def cmd_converge(args: argparse.Namespace) -> int:
    if args.mode == "l1" and args.p != 1.0:
        raise ValueError("l1 mode fixes p = 1; drop --p or pass --p 1")
    config = {
        "spec": load_spec(args.spec).to_json(),
        "mode": args.mode,
        "p": args.p,
        "schedule": parse_schedule(args.schedule),
        "reps": args.reps,
        "seed": args.seed,
        "bound": None if args.bound is None else parse_bound(args.bound),
    }
    return run_command("converge", config, _ensure_out(args.out))


# ---------------------------------------------------------------------------
# oracle-check


def _rand_int(key: np.uint64, idx: int, lo: int, hi: int) -> int:
    """Deterministic integer in [lo, hi] from one key substream."""
    bits = rng.substream(np.asarray([key], dtype=np.uint64), idx)
    u = rng.uniform01(rng.mix64(bits))[0]
    return lo + int(u * (hi - lo + 1))


def _prefix_case(trial: int, seed: int) -> Optional[dict]:
    """Compare sweep prefix sums, and M_k of every box [1, k] of the random
    box (incomparable boxes among them) from box_maxima, against brute force."""
    key = np.uint64(rng.derive_seed(seed, trial))
    d = _rand_int(key, 1, 1, 3)
    sides = tuple(_rand_int(key, 10 + ax, 1, 4) for ax in range(d))
    D = 1 if _rand_int(key, 2, 0, 1) == 0 else 4
    box = MultiIndex(sides)
    grids = np.meshgrid(
        *(np.arange(1, c + 1, dtype=np.uint64) for c in sides), indexing="ij"
    )
    cells = rng.cell_keys(int(key), grids)
    values = rng.normals(cells, D)
    fast = prefix_table(values, range(d))
    brute = prefix_sums_bruteforce(values)
    # M_k = max_{j <= k} ||S_j|| at every k, as the block max of brute norms
    norms = np.sqrt((brute * brute).sum(axis=-1))
    m_brute = np.empty_like(norms)
    for idx in np.ndindex(*sides):
        m_brute[idx] = norms[tuple(slice(0, c + 1) for c in idx)].max()
    boxes = [MultiIndex(tuple(c + 1 for c in idx)) for idx in np.ndindex(*sides)]
    q = np.sum(np.square(fast), axis=-1)
    m_fast = np.sqrt(box_maxima([(0, q[None])], 1, boxes)).reshape(sides)
    errors = {
        "prefix": float(np.abs(fast - brute).max()) / max(1.0, float(np.abs(brute).max())),
        "running_max": float(np.abs(m_fast - m_brute).max()) / max(1.0, float(m_brute.max())),
    }
    for kind, err in errors.items():
        if err > 1e-9:
            return {"kind": kind, "trial": trial, "d": d, "box": str(box), "D": D,
                    "relative_error": err}
    return None


def _schedule_case(trial: int, seed: int) -> Optional[dict]:
    """Compare the dyadic tail profile of a random box, with a leading rep
    axis, a weight and two truncation levels (strict or not), against
    brute-force block means; and two such queries, with other weights,
    levels and strictness, answered in one pass over chunks of one rep,
    against their one-query calls and against brute force."""
    key = np.uint64(rng.derive_seed(seed, 2_000_000 + trial))
    d = _rand_int(key, 1, 1, 3)
    sides = tuple(_rand_int(key, 10 + ax, 1, 5) for ax in range(d))
    reps = _rand_int(key, 2, 1, 3)
    ge = _rand_int(key, 3, 0, 1) == 1
    levels = (-0.5, 0.5)
    box = MultiIndex(sides)
    grids = np.meshgrid(
        *(np.arange(1, c + 1, dtype=np.uint64) for c in sides), indexing="ij"
    )
    # half-integer cells, so some sit exactly on a level and ge matters
    normals = rng.normals(rng.cell_keys(int(key), grids), reps)
    field = np.moveaxis(np.round(2.0 * normals) / 2.0, -1, 0)
    queries = [(np.abs, levels, ge), (np.square, (0.0, 1.0), not ge)]

    def brute(weight, grid, ge) -> np.ndarray:
        def block_means(n: MultiIndex, a: float) -> np.ndarray:
            block = field[(slice(None),) + tuple(slice(0, c) for c in n.coords)]
            kept = np.where(block >= a if ge else block > a, weight(block), 0.0)
            return kept.reshape(reps, -1).mean(axis=1)

        return np.stack(
            [np.stack([block_means(n, a) for n in dyadic_boxes(box)], axis=-1) for a in grid]
        )

    def relative_error(fast: np.ndarray, want: np.ndarray) -> float:
        return float(np.abs(fast - want).max()) / max(1.0, float(np.abs(want).max()))

    case = {"trial": trial, "d": d, "box": str(box), "reps": reps, "ge": ge}
    err = relative_error(schedule_averages(field, box, *queries[0]), brute(*queries[0]))
    if err > 1e-9:
        return {"kind": "schedule_average", **case, "relative_error": err}
    one_pass = schedule_profiles(((r, field[r : r + 1]) for r in range(reps)), reps, box, queries)
    for q, (got, query) in enumerate(zip(one_pass, queries)):
        err = relative_error(got, brute(*query))
        if not np.array_equal(got, schedule_averages(field, box, *query)) or err > 1e-9:
            return {"kind": "schedule_multi_query", **case, "query": q, "relative_error": err}
    return None


def _phi_case(trial: int, seed: int) -> Optional[dict]:
    """Compare gauge evaluation against direct slope summation and chords."""
    key = np.uint64(rng.derive_seed(seed, 1_000_000 + trial))
    n_max = _rand_int(key, 1, 2, 12)
    steps = np.array([_rand_int(key, 10 + k, 0, 3) for k in range(n_max)])
    u = np.cumsum(steps)
    phi = poussin.PhiFunction(u)
    for k in range(n_max + 1):
        direct = float(u[:k].sum())
        got = poussin.phi_eval(phi, float(k))
        if got != direct:
            return {
                "kind": "phi_integer_points",
                "trial": trial,
                "u": [int(v) for v in u],
                "k": k,
                "expected": direct,
                "got": got,
            }
    bits = rng.substream(np.asarray([key], dtype=np.uint64), 99)
    ts = np.sort(rng.uniform01(rng.mix64(bits + np.arange(3, dtype=np.uint64))) * n_max)
    t1, t2, t3 = (float(v) for v in ts)
    if t1 < t2 < t3:
        f1, f2, f3 = (poussin.phi_eval(phi, t) for t in (t1, t2, t3))
        chord = f1 + (f3 - f1) * (t2 - t1) / (t3 - t1)
        if f2 > chord + 1e-12:
            return {
                "kind": "phi_convexity",
                "trial": trial,
                "u": [int(v) for v in u],
                "triple": [t1, t2, t3],
                "value": f2,
                "chord": chord,
            }
    many = poussin.phi_eval_many(phi, np.arange(0, n_max + 1, dtype=np.float64))
    if not np.array_equal(many, phi.prefix.astype(np.float64)):
        return {
            "kind": "phi_vectorized",
            "trial": trial,
            "u": [int(v) for v in u],
        }
    return None


def run_oracle_check(config: dict, out_dir: Optional[Path]) -> int:
    t0 = time.perf_counter()
    trials = config["trials"]
    seed = config["seed"]
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    cases = [
        ("prefix", lambda trial: _prefix_case(trial, seed)),
        ("schedule_average", lambda trial: _schedule_case(trial, seed)),
        ("phi", lambda trial: _phi_case(trial, seed)),
    ]
    counterexample = None
    for trial in range(trials):
        for kind, case in cases:
            # a fast path that raises fails the check like one that is wrong;
            # it is not a usage error
            try:
                counterexample = case(trial)
            except Exception as exc:
                counterexample = {"kind": kind, "trial": trial, "error": repr(exc)}
            if counterexample is not None:
                break
        if counterexample is not None:
            break
    report = {
        "trials": trials,
        "seed": seed,
        "passed": counterexample is None,
        "counterexample": counterexample,
    }
    if out_dir is not None:
        write_json(out_dir / "oracle_report.json", report)
        write_manifest(
            out_dir, "oracle-check", config, seed, ["oracle_report.json"], t0
        )
    if counterexample is not None:
        print(json.dumps(_py(counterexample), sort_keys=True), file=sys.stderr)
        return 1
    print(f"oracle-check: {trials} trials passed")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    config = {"trials": args.trials, "seed": args.seed}
    out_dir = _ensure_out(args.out) if args.out else None
    return run_oracle_check(config, out_dir)


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args: argparse.Namespace) -> int:
    raw = Path(args.manifest).read_text()
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {args.manifest} is not valid JSON: {exc}")
    command = manifest.get("command")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ValueError("manifest has no config object")
    if command != "oracle-check" and command not in DATA_COMMANDS:
        raise ValueError(f"manifest command {command!r} is not replayable")
    out_dir = _ensure_out(args.out)
    try:
        if command == "oracle-check":
            return run_oracle_check(config, out_dir)
        return run_command(command, config, out_dir)
    except KeyError as exc:
        raise ValueError(
            f"manifest {args.manifest}: config has no key {exc.args[0]!r}"
        ) from None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro-lab",
        description="Tail diagnostics and mean-convergence experiments for "
        "random fields over d-dimensional index boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-cui", help="tail-sup report over a truncation grid")
    pc.add_argument("--spec", required=True, help="distribution spec JSON path")
    pc.add_argument("--p", type=float, default=1.0, help="moment order in (0, 1]")
    pc.add_argument(
        "--a-grid",
        default=",".join(f"{a:g}" for a in cui.DEFAULT_A_GRID),
        help="comma list of levels",
    )
    pc.add_argument("--horizon", default="4096", help="box, e.g. 4096 or 64x64")
    pc.add_argument("--reps", type=int, default=200)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--ge", action="store_true", help="use the indicator 1(||X|| >= a)")
    pc.add_argument("--out", required=True, help="output directory")
    pc.set_defaults(func=cmd_check_cui)

    pp = sub.add_parser("poussin", help="threshold search and convex gauge checks")
    pp.add_argument("--spec", required=True)
    pp.add_argument("--horizon", default="4096")
    pp.add_argument("--j-max", type=int, default=poussin.DEFAULT_J_MAX)
    pp.add_argument("--search-cap", type=int, default=poussin.DEFAULT_SEARCH_CAP)
    pp.add_argument("--n-max", type=int, default=None)
    pp.add_argument("--eps", default="0.5,0.1", help="comma list for forward checks")
    pp.add_argument("--reps", type=int, default=200)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_poussin)

    pv = sub.add_parser("converge", help="mean-convergence series along a schedule")
    pv.add_argument("--mode", choices=("lp", "l1"), required=True)
    pv.add_argument("--spec", required=True)
    pv.add_argument("--p", type=float, default=1.0, help="moment order (lp mode)")
    pv.add_argument(
        "--schedule",
        default="dyadic:1,4096",
        help='preset "dyadic:<d>,<max_total>" or explicit boxes "2;4x4;8x8"',
    )
    pv.add_argument("--reps", type=int, default=200)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--bound", default=None, help="eps,a for lp or eps,a,C for l1")
    pv.add_argument("--out", required=True)
    pv.set_defaults(func=cmd_converge)

    po = sub.add_parser("oracle-check", help="cross-check fast paths vs brute force")
    po.add_argument("--trials", type=int, default=50)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out", default=None, help="optional report directory")
    po.set_defaults(func=cmd_oracle_check)

    pr = sub.add_parser("replay", help="re-run a manifest into a fresh directory")
    pr.add_argument("--manifest", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (HorizonTooSmallError, PhiDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
