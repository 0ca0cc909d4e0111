"""The three benchmark workloads: their inputs, one pass, and its checks.

Every workload is a closed loop with one client: one process runs one item
at a time and starts the next only when the previous one has returned.

* ``search-closed`` -- ``matchtop verify --target closed-2-manifold`` over
  every graph with at most 11 edges and 10 vertices.  One item is the whole
  search.  ``graphs.canonical_form`` does nearly all the work.
* ``search-disconnected`` -- ``matchtop verify --target
  disconnected-complex --max-edges 9``.  One item is the whole search; its
  cost is a few canonical forms of very symmetric disjoint unions.
* ``join-arith`` -- a fixed sample of the sphere/ball join cases (disjoint
  unions of at most four basic graphs, under 200,000 faces, dimension at
  most 7).  One item is one case: ``matching_complex``, ``check_manifold``
  at p = 2, then ``classify`` at (2, 3).  Link analysis and homology do
  nearly all the work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

SEARCH_ARGV = {
    "search-closed": {
        "full": ["verify", "--target", "closed-2-manifold", "--max-edges", "11"],
        "tiny": ["verify", "--target", "closed-2-manifold", "--max-edges", "6"],
    },
    "search-disconnected": {
        "full": ["verify", "--target", "disconnected-complex", "--max-edges", "9"],
        "tiny": ["verify", "--target", "disconnected-complex", "--max-edges", "5"],
    },
}

# Join sample: the cases sorted by face count are split at SMALL_FACES; every
# ``small_stride``-th small case and the middle case of every
# ``large_stride`` large ones (stride 0: none) run in ascending face count,
# as criterion 6 runs them.  The sample does not depend on the seed: a seeded
# draw moved the pass time by 6-9% between seeds (neighbouring large cases
# differ a lot in cost) and item_ms_p50 by 11%, and a seeded order moved
# item_ms_tail by 18% (link classes are cached across cases, so the tail
# depends on which case pays for them first).
JOIN_SAMPLE = {
    "full": {"small_stride": 2, "large_stride": 10},
    "tiny": {"small_stride": 24, "large_stride": 0},
}
SMALL_FACES = 2048
JOIN_FACE_CAP = 200_000
JOIN_DIM_CAP = 7
JOIN_PRIMES = (2, 3)

WORKLOADS = ("join-arith", "search-closed", "search-disconnected")


def basics(gr):
    """The basic graphs: P2, P3, C5, K32, the banner and the spiders 2..8."""
    return ([gr.path(2), gr.path(3), gr.cycle(5), gr.complete_bipartite(3, 2),
             gr.banner()] + [gr.spider(k) for k in range(2, 9)])


def join_cases(mt):
    """Every join case as (face count, combo): a multiset of at most four
    indices into ``basics`` whose join has fewer than JOIN_FACE_CAP faces
    and predicted dimension at most JOIN_DIM_CAP."""
    gr, cx, catalog = mt.graphs, mt.complexes, mt.catalog
    bs = basics(gr)
    counts = [len(cx.matching_complex(g).faces()) for g in bs]
    out = []
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(len(bs)), size):
            faces = 1
            for i in combo:
                faces *= counts[i]
            if faces >= JOIN_FACE_CAP:
                continue
            g = gr.disjoint_union([bs[i] for i in combo])
            if catalog.predict(g).predicted_dimension > JOIN_DIM_CAP:
                continue
            out.append((faces, combo))
    out.sort()
    return out


def join_sample(cases, small_stride: int, large_stride: int):
    """The sample of ``join_cases`` (which is sorted by face count)."""
    small = [c for f, c in cases if f <= SMALL_FACES]
    large = [c for f, c in cases if f > SMALL_FACES]
    return small[::small_stride] + (large[large_stride // 2::large_stride]
                                    if large_stride else [])


def workload_params(workload: str, size: str, mt) -> dict:
    """Everything a pass needs, as plain JSON data."""
    if workload in SEARCH_ARGV:
        return {"workload": workload, "argv": SEARCH_ARGV[workload][size]}
    if workload == "join-arith":
        sample = join_sample(join_cases(mt), **JOIN_SAMPLE[size])
        return {"workload": workload, "cases": [list(c) for c in sample],
                "primes": list(JOIN_PRIMES), **JOIN_SAMPLE[size]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass, inside a fresh worker process


def prepare(mt, params):
    """Untimed per-pass input: the join cases as graphs."""
    if params["workload"] != "join-arith":
        return None
    bs = basics(mt.graphs)
    return [mt.graphs.disjoint_union([bs[i] for i in c]) for c in params["cases"]]


def run_pass(mt, params, inputs, probe, tracer=None):
    """Run the workload once; returns (item latencies in s, raw outputs).
    Time the speed probe spent inside an item is not charged to it."""
    if params["workload"] == "join-arith":
        return _join_pass(mt, inputs, params["primes"], probe, tracer)
    buf = io.StringIO()
    start, spent = time.perf_counter(), probe.spent
    with contextlib.redirect_stdout(buf):
        try:
            code = mt.cli.main(list(params["argv"]))
        except Exception as exc:  # an exception is a failed item, not a crash
            code = f"exception: {exc!r}"
    latency = time.perf_counter() - start - (probe.spent - spent)
    return [latency], {"code": code, "stdout": buf.getvalue()}


def _join_pass(mt, graphs, primes, probe, tracer):
    cx, mf = mt.complexes, mt.manifold
    pair = tuple(primes)
    latencies, outputs = [], []
    for i, g in enumerate(graphs):
        if tracer is not None:
            tracer.case = i
        start, spent = time.perf_counter(), probe.spent
        try:
            M = cx.matching_complex(g)
            verdict = mf.check_manifold(M, pair[0])
            got = (str(mf.classify(M, verdict, pair)), verdict.dimension)
        except Exception as exc:  # an exception is a failed item, not a crash
            got = (f"exception: {exc!r}", None)
        latencies.append(time.perf_counter() - start - (probe.spent - spent))
        outputs.append(got)
    return latencies, outputs


def check(mt, params, inputs, outputs):
    """Failures of one pass: a list of {"graph6", "detail"}, empty if right."""
    gr = mt.graphs
    if params["workload"] == "join-arith":
        failures = []
        for g, (klass, dim) in zip(inputs, outputs):
            pred = mt.catalog.predict(g)
            want = (str(pred.predicted_class), pred.predicted_dimension)
            if (klass, dim) != want:
                failures.append({"graph6": gr.to_graph6(g),
                                 "detail": f"got {klass} dim {dim}, want {want[0]} dim {want[1]}"})
        return failures

    failures = []
    if outputs["code"] != 0:
        failures.append({"graph6": "", "detail": f"exit code {outputs['code']}"})
    if not outputs["stdout"]:
        return failures
    report = json.loads(outputs["stdout"])
    spec = report["spec"]
    if report["verdict"] != "Match":
        failures.append({"graph6": "", "detail": f"verdict {report['verdict']}"})
    for key in ("extra", "missing"):
        failures += [{"graph6": k, "detail": key} for k in report[key]]
    failures += [{"graph6": a["graph6"], "detail": a["detail"]} for a in report["anomalies"]]
    expected = mt.catalog.expected_search_hits(
        spec["target"], spec["max_edges"], spec["max_vertices"], spec["connected_only"])
    if expected is not None:
        want = {name: cls for name, _, cls in expected}
        got = {h["name"]: h["class"] for h in report["hits"]}
        for name in sorted(set(want) | set(got), key=str):
            if want.get(name) != got.get(name):
                g6 = next((h["graph6"] for h in report["hits"] if h["name"] == name), "")
                failures.append({"graph6": g6, "detail": f"{name}: got {got.get(name)}, "
                                                         f"want {want.get(name)}"})
    else:
        # disconnected-complex: every hit must really have a disconnected
        # matching complex, and the hits must be exactly the predicted set
        want = {e["graph6"] for e in report["expected"]}
        got = {h["graph6"] for h in report["hits"]}
        failures += [{"graph6": k, "detail": "hit set differs from prediction"}
                     for k in sorted(want ^ got)]
        for h in report["hits"]:
            M = mt.complexes.matching_complex(gr.from_graph6(h["graph6"]))
            if h["class"] != "DisconnectedComplex" or mt.complexes.is_connected(M):
                failures.append({"graph6": h["graph6"], "detail": f"class {h['class']}"})
    return failures
