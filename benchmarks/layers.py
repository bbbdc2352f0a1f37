"""Which package functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is one package module. Only the public functions the metrics name
are wrapped; the small hashing helpers they call (`mix64`, `combine`,
`derive_seed`, ...) are not, because they run hundreds of times per draw and
a span each would swamp the time being measured. Their cost lands in the
self time of the wrapped caller.

Self time counts only children on the span's own thread. On converge-lp-2d
the schedule points run on a thread pool, so convergence.self_s there
includes the time run_lp_experiment waits for the pool, while the draws and
sweeps the workers make are counted in their own layers.
"""

from __future__ import annotations

import sys

from tracer import Span, outermost, self_times_ns

DRAWS = ("distributions.norm_batch", "distributions.sample_batch")

# (name, unit, better); BENCHMARK.json lists the same metrics. cli.cpu_s and
# trace.overhead_s come from the untraced companion runs, not from spans.
PER_LAYER = [
    ("rng.hash_s", "s", "lower"),
    ("rng.keys", "count", "lower"),
    ("rng.normals_s", "s", "lower"),
    ("distributions.draw_s", "s", "lower"),
    ("distributions.cells_drawn", "count", "lower"),
    ("distributions.redraw_ratio", "ratio", "lower"),
    ("distributions.bytes_out", "B", "lower"),
    ("lattice.prefix_s", "s", "lower"),
    ("lattice.prefix_bytes", "B-computed", "lower"),
    ("lattice.schedule_s", "s", "lower"),
    ("cui.tail_queries", "count", "lower"),
    ("cui.tail_self_s", "s", "lower"),
    ("poussin.search_s", "s", "lower"),
    ("poussin.check_s", "s", "lower"),
    ("convergence.self_s", "s", "lower"),
    ("convergence.batch_bytes_max", "B", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_keys(args, kwargs, result) -> dict:
    return {"keys": int(result.size)}


def _count_draw(args, kwargs, result) -> dict:
    box = _arg(args, kwargs, 1, "n")
    reps = _arg(args, kwargs, 3, "reps")
    return {"cells": int(reps) * box.size, "bytes": int(result.nbytes)}


def _count_sweep(args, kwargs, result) -> dict:
    field = _arg(args, kwargs, 0, "field")
    axes = _arg(args, kwargs, 1, "axes")
    # one read and one write of the array per axis swept
    return {"bytes": int(field.nbytes) * len(axes) * 2}


TARGETS = {
    "rng": [("cell_keys", _count_keys), ("substream", _count_keys), ("normals", None)],
    "distributions": [("norm_batch", _count_draw), ("sample_batch", _count_draw)],
    "lattice": [("prefix_table", _count_sweep), ("schedule_averages", None)],
    "cui": [("cesaro_tail_sup", None)],
    "poussin": [
        ("thresholds_from_cui", None),
        ("poussin_moment_check", None),
        ("poussin_forward_check", None),
    ],
    "convergence": [("run_lp_experiment", None), ("run_l1_experiment", None)],
    "cli": [("write_json", None), ("write_manifest", None)],
}


def install(tracer) -> None:
    """Wrap every target in every loaded cesaro_lab module namespace."""
    import cesaro_lab.cli  # noqa: F401  (loads every layer module)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cesaro_lab"]
    targets = [
        (sys.modules[f"cesaro_lab.{mod}"], fname, counter)
        for mod, fns in TARGETS.items()
        for fname, counter in fns
    ]
    tracer.install(modules, targets)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced run."""
    self_ns = self_times_ns(spans)

    def self_s(*names: str) -> float:
        return sum(self_ns[s.id] for s in spans if s.name in names) / 1e9

    def total_s(*names: str) -> float:
        return sum(s.duration_ns for s in outermost(spans, set(names))) / 1e9

    def attrs(key: str, *names: str) -> list[int]:
        return [s.attrs.get(key, 0) for s in spans if s.name in names]

    cells = attrs("cells", *DRAWS)
    return {
        "rng.hash_s": self_s("rng.cell_keys", "rng.substream"),
        "rng.keys": sum(attrs("keys", "rng.cell_keys", "rng.substream")),
        "rng.normals_s": self_s("rng.normals"),
        "distributions.draw_s": self_s(*DRAWS),
        "distributions.cells_drawn": sum(cells),
        "distributions.redraw_ratio": sum(cells) / max(cells) if cells else 0.0,
        "distributions.bytes_out": sum(attrs("bytes", *DRAWS)),
        "lattice.prefix_s": self_s("lattice.prefix_table"),
        "lattice.prefix_bytes": sum(attrs("bytes", "lattice.prefix_table")),
        "lattice.schedule_s": self_s("lattice.schedule_averages"),
        "cui.tail_queries": sum(1 for s in spans if s.name == "cui.cesaro_tail_sup"),
        "cui.tail_self_s": self_s("cui.cesaro_tail_sup"),
        "poussin.search_s": total_s("poussin.thresholds_from_cui"),
        "poussin.check_s": total_s("poussin.poussin_moment_check", "poussin.poussin_forward_check"),
        "convergence.self_s": self_s("convergence.run_lp_experiment", "convergence.run_l1_experiment"),
        "convergence.batch_bytes_max": max(attrs("bytes", "distributions.sample_batch"), default=0),
        "cli.write_s": total_s("cli.write_json", "cli.write_manifest"),
    }
