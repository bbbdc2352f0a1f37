"""Tests of the benchmark's tracer and of the layer counts it produces.

Run from the repository root:  python3 -m pytest benchmarks/tests
The last test makes two traced runs of every workload (about a minute).
"""

import json
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, outermost, self_times_ns  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_spans_nest_per_thread_and_self_times_are_nonnegative():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def outer_fn():
        for _ in range(3):
            leaf()
        time.sleep(0.01)

    outer = tracer.wrap("outer", outer_fn)
    root = tracer.wrap("root", lambda: [t.join(5) for t in threads])
    threads = [threading.Thread(target=outer) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        root()
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)

    by_id = {s.id: s for s in tracer.spans}
    assert len(tracer.spans) == 1 + 4 * 4
    for s in tracer.spans:
        if s.name == "leaf":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
        else:
            # spans started on worker threads never nest under the main
            # thread's open span
            assert s.parent is None
    assert all(v >= 0 for v in self_times_ns(tracer.spans).values())
    outer_self = [v for k, v in self_times_ns(tracer.spans).items() if by_id[k].name == "outer"]
    assert all(v >= 10_000_000 * 0.9 for v in outer_self)


def test_outermost_counts_nested_calls_once():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    inner()
    names = [s.name for s in outermost(tracer.spans, {"inner", "outer"})]
    assert sorted(names) == ["inner", "outer"]


def test_install_wraps_every_binding_and_uninstall_restores():
    import cesaro_lab.cui
    import cesaro_lab.poussin

    original = cesaro_lab.cui.cesaro_tail_sup
    assert cesaro_lab.poussin.cesaro_tail_sup is original
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cesaro_lab.cui.cesaro_tail_sup is not original
        assert cesaro_lab.poussin.cesaro_tail_sup is cesaro_lab.cui.cesaro_tail_sup
        assert cesaro_lab.convergence.prefix_table is cesaro_lab.lattice.prefix_table
        assert cesaro_lab.convergence.prefix_table.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cesaro_lab.cui.cesaro_tail_sup is original
    assert cesaro_lab.poussin.cesaro_tail_sup is original


# Counts at workload seed 0; they depend only on the workload definitions.
SEED0_COUNTS = {
    "cui-grid-2d": {
        "distributions.cells_drawn": 8 * 200 * 256 * 256,
        "distributions.redraw_ratio": 8.0,
        "cui.tail_queries": 8,
        "convergence.batch_bytes_max": 0,
    },
    "poussin-search-1d": {
        "distributions.cells_drawn": 229 * 200 * 4096,
        "distributions.redraw_ratio": 229.0,
        "cui.tail_queries": 226,
        "convergence.batch_bytes_max": 0,
    },
    "converge-lp-2d": {
        "distributions.cells_drawn": 200 * sum(4**k for k in range(1, 9)),
        "distributions.redraw_ratio": 1.333,
        "cui.tail_queries": 0,
        "convergence.batch_bytes_max": 838_860_800,
    },
    "converge-l1-gauss-3d": {
        "distributions.cells_drawn": 200 * sum(8**k for k in range(1, 6)),
        "distributions.redraw_ratio": 1.143,
        "cui.tail_queries": 0,
        "convergence.batch_bytes_max": 419_430_400,
    },
}


@pytest.mark.parametrize("name", sorted(SEED0_COUNTS))
def test_traced_counts_repeat_and_match_seed0(name):
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"test-{name}-", dir=run.OUT))
    try:
        runner = run.Runner(run.WORKLOADS[name], 0, tmp, time.monotonic() + 170)
        results = [runner.workload_run("trace") for _ in range(2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert runner.errors == []
    counts = []
    for result in results:
        spans = result["spans"]
        assert all(v >= 0 for v in self_times_ns(spans).values())
        metrics = layers.layer_metrics(spans)
        counts.append({key: metrics[key] for key in SEED0_COUNTS[name]})
    assert counts[0] == counts[1]
    got = dict(counts[0], **{
        "distributions.redraw_ratio": round(counts[0]["distributions.redraw_ratio"], 3)
    })
    assert got == SEED0_COUNTS[name]
    if name == "converge-lp-2d":
        # the thread pool really ran: draws happened off the main thread
        threads = {s.thread for s in results[0]["spans"] if s.name in layers.DRAWS}
        assert len(threads) == 2


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
