"""Benchmark of the cesaro-lab CLI: four closed-loop workloads, end-to-end
metrics with tracing off, per-layer metrics from a separate traced run.

usage (from the repository root):
    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --workload all --seeds 0,1 [--seconds S] [--trace 0|1]

Each workload runs one CLI command after another from this process, each in
a fresh interpreter (benchmarks/child.py) that calls
`cesaro_lab.cli.main(argv)` from the checkout's src/. The workload seed is
passed to the command as --seed. Every run's outputs are checked (see
check_outputs) and must be byte-identical to the first run's and to one
`replay` of the first run's manifest, which ends each run and is timed with
the others because it repeats the same computation.

--trace 0 reports the end-to-end metrics:
    wall_s       median time inside cli.main(argv)
    peak_rss_mb  median ru_maxrss of the run's child process
    setup_s      median time for a fresh child to import cesaro_lab and parse
                 the spec (several set-ups per run)
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of layers.PER_LAYER: medians over the traced runs, except cli.cpu_s
(untraced runs) and trace.overhead_s (traced minus untraced wall of runs made
back to back).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print each metric by name with its
unit and sample count, and fail_rate as failed/attempted. Every child started
counts as attempted; one fails on a non-zero exit, a failed output check or
a digest that differs from the first run's. A fuller record (context block,
samples, sha256 digests) goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import Span  # noqa: E402

THREADS_ENV = "CESARO_LAB_THREADS"
REPS = 200
F64 = 8
SETUP_PER_STEP = 2  # set-up-only children after each measured run
DEADLINE_S = 170.0  # a whole invocation stays inside the 180 s a run may take

PARETO = {"family": "pareto_radial", "params": {"alpha": 3.0}}
PARETO_1D_EMPIRICAL = {**PARETO, "dim_D": 1, "moment_mode": "empirical"}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    spec: dict
    largest_array_bytes: int  # computed: reps x |largest box| x columns x 8 B
    env: dict = field(default_factory=dict)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "cui-grid-2d",
            ("check-cui", "--p", "0.5", "--horizon", "256x256", "--reps", str(REPS)),
            PARETO_1D_EMPIRICAL,
            REPS * 256 * 256 * F64,
        ),
        Workload(
            "poussin-search-1d",
            (
                "poussin", "--j-max", "16", "--search-cap", "8192",
                "--horizon", "4096", "--reps", str(REPS),
                # Not the default eps 0.5,0.1: the eps=0.1 forward check needs
                # phi(t)/t >= 10(K+1) with K ~ 0.3, but phi(t)/t < j_max = 16
                # everywhere and is only sure to reach 8 at the default n_max,
                # so some seeds (5, 15, 18, 27 of 0..29; 110) exit 3. With
                # eps=0.25 the need is 4(K+1) <= 8, met whenever K <= 1; the
                # work is the same, one tail query per eps.
                "--eps", "0.5,0.25",
            ),
            PARETO_1D_EMPIRICAL,
            REPS * 4096 * F64,
        ),
        Workload(
            "converge-lp-2d",
            (
                "converge", "--mode", "lp", "--p", "0.5",
                "--schedule", "dyadic:2,65536", "--reps", str(REPS),
            ),
            {**PARETO, "dim_D": 8},
            REPS * 65536 * 8 * F64,
            {THREADS_ENV: "2"},
        ),
        Workload(
            "converge-l1-gauss-3d",
            ("converge", "--mode", "l1", "--schedule", "dyadic:3,32768", "--reps", str(REPS)),
            {"family": "iid_gaussian", "params": {"sigma": 1.0}, "dim_D": 8},
            REPS * 32768 * 8 * F64,
        ),
    ]
}


# ---------------------------------------------------------------------------
# output checks


def _parse_csv(path: Path) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")


def _finite_nonneg(name: str, values) -> list[str]:
    return [
        f"{name}={v!r} is not finite and >= 0"
        for v in values
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0)
    ]


def check_outputs(out_dir: Path) -> tuple[dict[str, str], list[str]]:
    """sha256 of each data file listed in the manifest, and every check that
    failed. The invariants do not pin today's empirical verdicts."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        outputs = manifest["outputs"]
        parsed = {}
        digests = {}
        for name in outputs:
            path = out_dir / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            if name.endswith(".json"):
                parsed[name] = json.loads(path.read_text())
            elif name.endswith(".csv"):
                _parse_csv(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"unreadable outputs: {exc!r}"]

    errors: list[str] = []
    command = manifest.get("command")
    if command == "check-cui":
        report = parsed["cui_report.json"]
        errors += _finite_nonneg("tail_sup", report["tail_sup"])
        errors += _finite_nonneg("mean_sup", [report["mean_sup"]])
    elif command == "poussin":
        report = parsed["poussin_report.json"]
        th = report["thresholds"]
        if not th or any(b <= a for a, b in zip(th, th[1:])):
            errors.append(f"thresholds not strictly increasing: {th}")
        if not report["phi_properties"]["all_pass"]:
            errors.append("phi_properties.all_pass is false")
    elif command == "converge":
        trend = parsed["series.json"]["trend"]
        if not (trend and trend["passed"]):
            errors.append(f"trend did not pass: {trend}")
    else:
        errors.append(f"unexpected manifest command {command!r}")
    return digests, errors


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Starts children for one workload and seed, and keeps their tally."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.spec_path = tmp / "spec.json"
        self.spec_path.write_text(json.dumps(workload.spec))
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        self.env.update(workload.env)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, str] | None = None
        self.first_manifest: Path | None = None

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)

    def child(self, mode: str, argv: list[str] | None = None) -> dict | None:
        """Start one child and wait for it; None when it did not finish cleanly."""
        self.count += 1
        self.attempted += 1
        tag = f"{mode}-{self.count}"
        req = {
            "root": str(ROOT),
            "mode": mode,
            "spec": str(self.spec_path),
            "argv": argv or [],
            "result": str(self.tmp / f"{tag}.result.json"),
            "spans": str(self.tmp / f"{tag}.spans.json"),
        }
        req_path = self.tmp / f"{tag}.request.json"
        req_path.write_text(json.dumps(req))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(req_path)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self._fail(f"{tag}: killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self._fail(f"{tag}: child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        result = json.loads(Path(req["result"]).read_text())
        if mode == "trace":
            result["spans"] = [Span.from_json(s) for s in json.loads(Path(req["spans"]).read_text())]
        return result

    def command(self, mode: str, argv: list[str], out_dir: Path) -> dict | None:
        """Run one CLI command and check its outputs against the first run's."""
        result = self.child(mode, argv)
        if result is None:
            return None
        tag = f"{mode}-{self.count}"
        if result["exit_code"] != 0:
            self._fail(f"{tag}: cli exited {result['exit_code']}")
            return None
        digests, errors = check_outputs(out_dir)
        if errors:
            self._fail(f"{tag}: " + "; ".join(errors))
            return None
        if self.reference is None:
            self.reference = digests
            self.first_manifest = out_dir / "manifest.json"
        elif digests != self.reference:
            self._fail(f"{tag}: data files differ from the first run's: {digests}")
            return None
        return result

    def workload_run(self, mode: str) -> dict | None:
        out_dir = self.tmp / f"out-{self.count + 1}"
        argv = [
            *self.workload.argv,
            "--spec", str(self.spec_path),
            "--seed", str(self.seed),
            "--out", str(out_dir),
        ]
        return self.command(mode, argv, out_dir)

    def replay(self) -> dict | None:
        if self.first_manifest is None:
            return None
        out_dir = self.tmp / "replay"
        argv = ["replay", "--manifest", str(self.first_manifest), "--out", str(out_dir)]
        return self.command("run", argv, out_dir)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    runner = Runner(workload, seed, tmp, time.monotonic() + DEADLINE_S)
    try:
        runner.child("setup")  # warm-up: byte-compiles src/ and fills the page cache; not recorded
        setup: list[float] = []
        plain: list[dict] = []
        traced: list[dict] = []
        overheads: list[float] = []  # traced minus untraced wall, run back to back

        def record(result: dict | None, into: list[dict]) -> None:
            if result is not None:
                into.append(result)
                setup.append(result["setup_s"])

        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            untraced = runner.workload_run("run")
            record(untraced, plain)
            if trace:
                result = runner.workload_run("trace")
                record(result, traced)
                if untraced and result:
                    overheads.append(result["wall_s"] - untraced["wall_s"])
            # set-ups are spread over the run so that their median does not
            # hang on one moment of a shared machine
            setup += [r["setup_s"] for r in (runner.child("setup") for _ in range(SETUP_PER_STEP)) if r]
            step = time.monotonic() - t0
            # closed loop: start another step only if it should end within the
            # run length; the replay that ends the run follows, and the whole
            # invocation keeps well inside its deadline
            if time.monotonic() - start + step > seconds or runner.time_left() < 3 * step:
                break
        # the replay runs the same computation through cli.main, so it is
        # timed like the runs before it
        record(runner.replay(), plain)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "peak_rss_mb": [r["maxrss_kb"] * 1024 / 1e6 for r in plain],
        "setup_s": setup,
    }
    units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    if trace:
        per_run = [layer_metrics(r["spans"]) for r in traced]
        metrics = {name: _median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
        metrics["cli.cpu_s"] = _median([r["cpu_s"] for r in plain])
        metrics["trace.overhead_s"] = _median(overheads)
        reported = {name: {"value": metrics.get(name), "unit": unit} for name, unit, _ in PER_LAYER}
        samples["traced_wall_s"] = [r["wall_s"] for r in traced]
        units["traced_wall_s"] = "s"
    else:
        reported = {name: {"value": _median(samples[name]), "unit": units[name]} for name in units}
    correct = runner.failed == 0 and bool(plain) and (bool(traced) or not trace)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "metrics": reported,
        "samples": samples,
        "units": units,
        "digests": runner.reference or {},
        "context": context(workload),
    }


# ---------------------------------------------------------------------------
# reporting


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it
    (nearest-rank), or None when the sample count allows none."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def _llc() -> dict:
    """Largest-level cache of cpu0 as the kernel reports it."""
    best = {"level": None, "bytes": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        if best["level"] is None or level > best["level"]:
            best = {"level": level, "bytes": int(size.rstrip("KM")) * scale}
    return best


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(workload: Workload) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    llc = _llc()
    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "llc_level": llc["level"],
        "llc_bytes": llc["bytes"],
        "largest_array_bytes": workload.largest_array_bytes,
        "largest_array_bytes_is": "computed: reps x |largest box| x columns x 8 B",
    }


def report_lines(res: dict) -> list[str]:
    head = f"[{res['workload']} seed={res['seed']} trace={int(res['trace'])}]"
    lines = []
    for name, values in res["samples"].items():
        if not values:
            lines.append(f"{head} {name}: no samples")
            continue
        tail = tail_percentile(values)
        tail_text = (
            f" p{tail[0]:g}={tail[1]:.6g}" if tail else " (too few samples for a tail percentile)"
        )
        lines.append(
            f"{head} {name} median={statistics.median(values):.6g} {res['units'][name]}"
            f" n={len(values)}{tail_text}"
        )
    if res["trace"]:
        for name, metric in res["metrics"].items():
            n = len(res["samples"]["traced_wall_s"])
            lines.append(f"{head} {name} = {metric['value']} {metric['unit']} (median, n={n})")
    lines.append(f"{head} fail_rate = {res['failed']}/{res['attempted']} runs")
    digests = " ".join(f"{name}={d[:16]}" for name, d in sorted(res["digests"].items()))
    lines.append(f"{head} sha256 {digests}")
    ctx = res["context"]
    lines.append(
        f"{head} largest array {ctx['largest_array_bytes']} B (computed) vs "
        f"L{ctx['llc_level']} cache {ctx['llc_bytes']} B; rev {ctx['git_rev'][:12]}"
    )
    for err in res["errors"]:
        lines.append(f"{head} FAILED {err}")
    return lines


def save(res: dict) -> list[str]:
    """Write the full record; report data digests that changed since the last
    record of this workload and seed (a change between commits is declared
    in CHANGES.md, not failed here)."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    notes = []
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if old.get("digests") and res["digests"] and old["digests"] != res["digests"]:
            notes.append(
                f"[{res['workload']} seed={res['seed']}] data digests changed since rev "
                f"{old.get('context', {}).get('git_rev', 'unknown')[:12]}"
            )
    path.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default="0,1", help="comma list, with --workload all")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cesaro_lab" / "__init__.py").is_file():
        print(f"error: no cesaro_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(WORKLOADS[w], int(s)) for s in args.seeds.split(",") for w in WORKLOADS]
    else:
        plan = [(WORKLOADS[args.workload], args.seed)]
    results = []
    for workload, seed in plan:
        res = measure(workload, seed, args.seconds, bool(args.trace))
        for line in report_lines(res) + save(res):
            print(line, flush=True)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.seed{r['seed']}.{name}": m for r in results for name, m in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
