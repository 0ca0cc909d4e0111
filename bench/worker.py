"""One benchmark pass in a fresh process, so every module cache starts cold.

Usage (run by ``run.py``, one JSON request as the only argument):

    python3 bench/worker.py '{"phase": "pass", "trace": false, "params": {...}}'

The worker imports matchtop from ``src/`` of the checkout it lives in,
builds the catalog tables, stamps ``t_ready`` on the monotonic clock just
before the first workload call, runs one pass (``phase`` "pass") or stops
there (``phase`` "setup"), checks the outputs and prints one JSON line.

A pass also reports its speed-probe timings (see probe.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (same directory)
from probe import SpeedProbe  # noqa: E402


def _import_matchtop():
    import matchtop
    from matchtop import catalog, cli, complexes, graphs, homology, manifold, verify  # noqa: F401

    origin = Path(matchtop.__file__).resolve().parent
    if origin != SRC / "matchtop":
        raise SystemExit(f"matchtop imported from {origin}, not from {SRC}")
    return matchtop


def main(request: dict) -> dict:
    mt = _import_matchtop()
    params = request["params"]
    inputs = workloads.prepare(mt, params)
    tracer = None
    if request.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        setup_span = tracer.begin("bench.setup")
    # the catalog tables every CLI invocation builds lazily
    mt.catalog.exceptional_table()
    mt.catalog.disconnected_ball_table()
    mt.catalog.catalog_names()
    if tracer is not None:
        tracer.end(setup_span)
    out = {"t_ready": time.perf_counter()}
    if request["phase"] == "setup":
        return out

    if tracer is not None:
        pass_span = tracer.begin("bench.pass")
    start = time.perf_counter()
    with SpeedProbe() as probe:
        latencies, outputs = workloads.run_pass(mt, params, inputs, probe, tracer)
    out["wall_s"] = time.perf_counter() - start - probe.spent
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probe_s"] = probe.typical()
    out["probe_samples"] = len(probe.samples)
    if tracer is not None:
        tracer.end(pass_span)
        tracer.uninstall()
    out["item_s"] = latencies
    failures = workloads.check(mt, params, inputs, outputs)
    out["failures"] = failures
    # a join case fails at most once; a search is one item
    out["failed_items"] = (len(failures) if params["workload"] == "join-arith"
                           else int(bool(failures)))
    if params["workload"] != "join-arith" and outputs["stdout"]:
        out["graphs_examined"] = json.loads(outputs["stdout"])["graphs_examined"]
    if tracer is not None:
        spans = tracer.spans
        pass_s = spans[pass_span][2] - spans[pass_span][1]
        out["traced_total_s"] = pass_s + spans[setup_span][2] - spans[setup_span][1]
        out["traced_wall_s"] = pass_s - probe.spent
        out["layer_self_total_s"] = tracer.layer_self_total()
        out["layers"] = tracer.layer_metrics(out.get("graphs_examined", 0))
        out["span_count"] = len(spans)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
