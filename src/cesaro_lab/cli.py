"""Command-line front end: configure, run, and export diagnostics reproducibly.

Three commands: check-cui (tail-sup report over a truncation grid), poussin
(threshold search, convex gauge construction, moment and forward checks),
and converge (mean-convergence series with trend and envelope verdicts).
Every command and every replay runs through `run_command`, which writes a
manifest next to the outputs: the command, its config, a sha256 digest of
each data file and the platform that computed them (Python, numpy, the
machine and the CPU features numpy dispatches to). `replay` re-runs a
manifest's command into a fresh directory and checks its files against those
digests. Data files are byte-identical across replays on one platform; only
the manifest's duration field varies. Another platform may round a
transcendental function's last bit otherwise (numpy picks vector kernels by
CPU), so there a differing file is reported, not failed. A run that fails
(exit 2 or 3) writes nothing, not even its output directory, and an output
directory that cannot be created is rejected before anything is computed.

Exit codes: 0 the run completed (scientific verdicts live in the output
files; a replay's files match its manifest, cannot be checked against it, or
differ on another platform), 1 a replay wrote other data files than its
manifest records, on the platform that recorded them, 2 usage error, 3 domain
or horizon error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version, convergence, cui, poussin
from .distributions import DistributionSpec, NormSample
from .errors import HorizonTooSmallError, PhiDomainError
from .lattice import MultiIndex, dyadic_square_schedule


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


def _py(obj, strict=False):
    """Recursively coerce numpy scalars/arrays, boxes and dataclasses (by their
    fields) into plain JSON types. JSON has no token for a non-finite float,
    so with strict each becomes the string protobuf's JSON mapping writes,
    "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, dict):
        return {k: _py(v, strict) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v, strict) for v in obj]
    if isinstance(obj, MultiIndex):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _py(getattr(obj, f.name), strict) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_py(v, strict) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if strict and not math.isfinite(x):
            return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
        return x
    return obj


def write_json(path: Path, payload: dict) -> None:
    """payload as strict JSON: a non-finite float that _py missed raises."""
    text = json.dumps(_py(payload, strict=True), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def write_manifest(
    out_dir: Path, command: str, config: dict, seed: int, outputs: list[str], t0: float
) -> dict:
    """Write and return the manifest of the data files `outputs` in out_dir,
    with a sha256 digest of each and the platform that computed them. Its
    imports are made here, after the command has run, so that importing the
    package costs no more."""
    import platform

    # CPython's own SHA-256: importing hashlib loads OpenSSL, whose pages
    # raised a converge run's peak RSS by 3.6 MB (11 %)
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256  # Python < 3.12
        except ImportError:
            from hashlib import sha256

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    machine = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        machine["NPY_DISABLE_CPU_FEATURES"] = os.environ["NPY_DISABLE_CPU_FEATURES"]
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": _pkg_version,
        "outputs": outputs,
        "outputs_sha256": {
            name: sha256((out_dir / name).read_bytes()).hexdigest() for name in outputs
        },
        "platform": machine,
        "duration_seconds": time.perf_counter() - t0,
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# commands: each maps its manifest config to its named data files, in
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
    cui.check_eps(config["eps"])  # before the search draws
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
    if bound is not None:
        # every field given, read or not: the manifest records it, and NaN is no JSON token
        convergence.check_bound(**{k: v for k, v in bound.items() if v is not None})
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
        "series.json": {"series": series, "trend": trend, "bound_domination": dom},
    }


# ---------------------------------------------------------------------------
# the one command path


COMMANDS = {
    "check-cui": _check_cui_files,
    "poussin": _poussin_files,
    "converge": _converge_files,
}

# the arguments a manifest holds in another form, each with its parser; a
# None (an optional flag left out) stays None
JSON_FORM = {
    "spec": lambda path: load_spec(path).to_json(),
    "a_grid": parse_a_grid,
    "eps": parse_eps_list,
    "schedule": parse_schedule,
    "bound": parse_bound,
}


def _check_out(out: str) -> None:
    """Raise ValueError unless `out` can be a directory to write in: its
    nearest existing ancestor (`out` itself, if it exists) must be a writable
    directory. Creates nothing."""
    path = Path(out).absolute()
    while not path.exists():
        path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK)):
        raise ValueError(f"--out {out}: {path} is not a writable directory")


def run_command(command: str, config: dict, out: str) -> dict:
    """Run a command from its manifest config into the directory `out`, and
    return the manifest written there. An
    `out` that cannot be created is rejected before the command runs; only
    once the command has computed its files is `out` created and are they
    written, then the manifest naming them, so a run that raises writes
    nothing. The config is first coerced to its JSON form, so a run and its
    replay compute from the same input."""
    t0 = time.perf_counter()
    _check_out(out)
    config = _py(config)
    files = COMMANDS[command](config)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            write_json(out_dir / name, content)
    return write_manifest(out_dir, command, config, config["seed"], list(files), t0)


def cmd_run(args: argparse.Namespace) -> None:
    """A command's config is its parsed arguments, in their JSON form."""
    config = {
        key: value if value is None or key not in JSON_FORM else JSON_FORM[key](value)
        for key, value in vars(args).items()
        if key not in ("command", "func", "out")
    }
    run_command(args.command, config, args.out)


# ---------------------------------------------------------------------------
# replay


def _check_config(manifest: str, config: dict) -> None:
    """Raise ValueError, naming the manifest and the key, when a config value
    is not of the JSON type that the commands write there (a number may be an
    integer, a boolean is neither). Keys that no command writes, such as an
    old manifest's "threads", are left alone."""
    num, null = (int, float), type(None)
    kinds = dict.fromkeys(("reps", "seed", "j_max", "search_cap"), int)
    kinds.update(spec=dict, horizon=str, mode=str, ge=bool, p=num, a_grid=[num], eps=[num],
                 schedule=[str], n_max=(int, null), bound=(dict, null))
    kinds.update({"bound.eps": num, "bound.a": num, "bound.C": (*num, null)})

    def fits(value, kind) -> bool:
        if isinstance(kind, list):
            return isinstance(value, list) and all(fits(v, kind[0]) for v in value)
        return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))

    bound = config.get("bound")
    members = [(f"bound.{k}", v) for k, v in bound.items()] if isinstance(bound, dict) else []
    for key, value in [*config.items(), *members]:
        if key in kinds and not fits(value, kinds[key]):
            raise ValueError(
                f"manifest {manifest}: config key {key!r} has the wrong type: {value!r}"
            )


def _check_replay(recorded: dict, replayed: dict) -> tuple[int, str]:
    """The exit code and verdict of a replay: its manifest `replayed` against
    the manifest `recorded` that it re-ran."""
    digests = recorded.get("outputs_sha256")
    if not isinstance(digests, dict):
        return 0, (
            "cannot verify: the manifest records no data-file digests (it predates them); "
            "draws made since then key their streams by another chain, so empirical "
            "files are not expected to match"
        )
    new = replayed["outputs_sha256"]
    files = [name for name in sorted(set(digests) | set(new)) if digests.get(name) != new.get(name)]
    if not files:
        return 0, f"byte-identical: {len(new)} data files match the manifest"
    old_platform, platform = recorded.get("platform"), replayed["platform"]
    if not isinstance(old_platform, dict):
        old_platform = {}
    keys = [k for k in sorted(set(old_platform) | set(platform)) if old_platform.get(k) != platform.get(k)]
    differ = "data files differ from the manifest: " + ", ".join(files)
    if not keys:
        return 1, differ + " (on the platform that recorded it)"
    return 0, differ + "; the platform differs in " + ", ".join(keys)


def cmd_replay(args: argparse.Namespace) -> int:
    raw = Path(args.manifest).read_text()
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {args.manifest} is not valid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {args.manifest} is not a JSON object")
    command = manifest.get("command")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"manifest {args.manifest} has no config object")
    # a tuple compares with ==, so a command that is a list is no TypeError
    if command not in tuple(COMMANDS):
        raise ValueError(f"manifest {args.manifest}: command {command!r} is not replayable")
    _check_config(args.manifest, config)
    try:
        replayed = run_command(command, config, args.out)
    except KeyError as exc:
        raise ValueError(
            f"manifest {args.manifest}: config has no key {exc.args[0]!r}"
        ) from None
    code, verdict = _check_replay(manifest, replayed)
    if code:
        print(f"error: replay of {args.manifest}: {verdict}", file=sys.stderr)
    else:
        print(f"replay of {args.manifest}: {verdict}")
    return code


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
    pc.set_defaults(func=cmd_run)

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
    pp.set_defaults(func=cmd_run)

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
    pv.set_defaults(func=cmd_run)

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
        return args.func(args) or 0
    except (HorizonTooSmallError, PhiDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
