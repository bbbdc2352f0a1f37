"""One measured run in a fresh interpreter; started by run.py, not by hand.

usage: python3 benchmarks/child.py REQUEST.json

The request names a mode ("setup", "run" or "trace"), the spec file, the CLI
argv and where to write the result. Every mode first imports cesaro_lab from
the checkout's src/ and parses the spec; that span is setup_s. "run" then
times `cesaro_lab.cli.main(argv)`; "trace" does the same with the layer
functions wrapped and writes the spans when the command returns.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    src = Path(req["root"]) / "src"
    sys.path.insert(0, str(src))
    from cesaro_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"cesaro_lab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.load_spec(req["spec"])
    result = {"setup_s": time.perf_counter() - T0}

    if req["mode"] != "setup":
        tracer = None
        if req["mode"] == "trace":
            import layers
            from tracer import Tracer

            tracer = Tracer()
            layers.install(tracer)
        c0 = time.process_time()
        w0 = time.perf_counter()
        code = cli.main(req["argv"])
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        result["exit_code"] = code
        if tracer is not None:
            spans = [s.to_json() for s in tracer.spans]
            Path(req["spans"]).write_text(json.dumps(spans))

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
