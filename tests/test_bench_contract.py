"""The benchmark's contract with the package: ``bench/tracing.py`` wraps the
public functions of matchtop's modules and reads some of their arguments by
position, so a signature change shows only in traced benchmark runs.  This
runs a small traced pass in-process."""

import contextlib
import importlib.util
import io
from pathlib import Path

import matchtop
from matchtop import cli
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import manifold as mf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_joins_and_search_run_and_leave_spans():
    tracing = _tracing()
    joins = [(gr.path(3), gr.cycle(5)), (gr.path(2), gr.banner()),
             (gr.spider(3), gr.complete_bipartite(3, 2))]
    matchtop.clear_caches()  # so the homology of every link shape is traced
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for case, graphs in enumerate(joins):
            tracer.case = case
            M = cx.matching_complex(gr.disjoint_union(graphs))
            verdict = mf.check_manifold(M, 2)
            mf.classify(M, verdict, (2, 3))
            if verdict.is_manifold:
                mf.boundary_complex(M, 2)
        with contextlib.redirect_stdout(io.StringIO()):
            # at 6 edges the hit 3P3 is keyed by its canonical form; at 5 the
            # levels and the search need none
            code = cli.main(["verify", "--target", "closed-2-manifold", "--max-edges", "6"])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    assert {name for name, _ in tracing.PER_LAYER} - set(metrics) == {"trace.overhead_frac"}
    named = {span[0] for span in tracer.spans}
    assert {"complexes.matching_complex", "manifold.check_manifold",
            "manifold.classify", "manifold.boundary_complex",
            "homology.betti_reduced", "homology.betti_for_facets",
            "graphs.canonical_form", "verify.run_search", "cli.main"} <= named
    assert tracer.keys["homology.betti_for_facets"]
    assert {span[5] for span in tracer.spans if span[0].startswith("homology.")} >= {2, 3}
    assert not hasattr(mf.check_manifold, "__wrapped__")  # uninstalled
