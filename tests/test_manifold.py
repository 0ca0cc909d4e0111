import hashlib
import json
import os
import random

from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop import manifold as mf

import oracle_utils
from test_acceptance import _join_arithmetic_cases
from test_complexes import cycle_complex


def M_of(*graphs):
    return cx.matching_complex(gr.disjoint_union(graphs) if len(graphs) > 1 else graphs[0])


def test_torus_verdict():
    M = M_of(gr.complete_bipartite(4, 3))
    for p in (2, 3):
        v = mf.check_manifold(M, p)
        assert v.status == mf.STATUS_CLOSED and v.dimension == 2
    assert str(mf.classify(M)) == "Torus"


def test_buchsbaum_counterexample_not_manifold():
    M = M_of(gr.star(3), gr.path(2))
    v = mf.check_manifold(M, 2)
    assert v.status == mf.STATUS_NOT_MANIFOLD
    assert v.witness_face == (3,)
    assert v.witness_betti.b(0) == 2


def test_spider3_ball():
    M = M_of(gr.spider(3))
    v = mf.check_manifold(M, 2)
    assert v.status == mf.STATUS_WITH_BOUNDARY and v.dimension == 2
    assert str(mf.classify(M, v)) == "Ball(2)"


def test_not_pure_shortcircuit():
    M = M_of(gr.path(4))
    assert mf.check_manifold(M, 2).status == mf.STATUS_NOT_PURE
    assert mf.check_manifold(cx.from_facets([], []), 2).status == mf.STATUS_NOT_PURE


def test_empty_complex_is_minus_one_sphere():
    empty = cx.from_facets([], [()])
    v = mf.check_manifold(empty, 2)
    assert v.status == mf.STATUS_CLOSED and v.dimension == -1
    assert str(mf.classify(empty, v)) == "Sphere(-1)"


def test_point_is_zero_ball():
    M = M_of(gr.path(2))
    v = mf.check_manifold(M, 2)
    assert v.status == mf.STATUS_CLOSED and v.dimension == 0
    assert str(mf.classify(M, v)) == "Ball(0)"


def test_two_points_are_zero_sphere():
    M = M_of(gr.path(3))
    assert str(mf.classify(M)) == "Sphere(0)"


def test_path_complexes_are_one_balls():
    for g in (gr.disjoint_union([gr.path(2), gr.path(2)]),
              gr.disjoint_union([gr.path(3), gr.path(2)]),
              gr.path(5), gr.banner()):
        M = cx.matching_complex(g)
        v = mf.check_manifold(M, 2)
        assert v.status == mf.STATUS_WITH_BOUNDARY and v.dimension == 1
        assert str(mf.classify(M, v)) == "Ball(1)"


def test_boundary_of_banner_path():
    M = M_of(gr.banner())
    bd = mf.boundary_complex(M, 2)
    assert bd.complex.labels == (1, 3)
    assert bd.component_count == 2


def test_boundary_of_closed_is_empty():
    M = M_of(gr.complete_bipartite(3, 2))
    bd = mf.boundary_complex(M, 2)
    assert bd.component_count == 0
    assert bd.complex.is_empty_only()


def test_annulus_has_two_boundary_circles():
    entry = {e.name: e for e in catalog.exceptional_table()}["annulus_8e"]
    M = cx.matching_complex(entry.graph)
    bd = mf.boundary_complex(M, 2)
    assert bd.component_count == 2
    assert str(mf.classify(M)) == "Annulus"


def test_moebius_and_torus_minus_disk():
    table = {e.name: e for e in catalog.exceptional_table()}
    for name in ("moebius_c7", "moebius_8e", "moebius_9e", "moebius_10e"):
        M = cx.matching_complex(table[name].graph)
        assert str(mf.classify(M)) == "MoebiusStrip"
        assert mf.boundary_complex(M, 2).component_count == 1
    for name in ("torus_disk_9e", "torus_disk_10e", "torus_disk_11e"):
        M = cx.matching_complex(table[name].graph)
        assert str(mf.classify(M)) == "TorusMinusDisk"
        assert mf.boundary_complex(M, 2).component_count == 1


def test_sphere_labels():
    assert str(mf.classify(M_of(gr.path(3), gr.path(3), gr.path(3)))) == "Sphere(2)"
    assert str(mf.classify(M_of(gr.path(3), gr.cycle(5)))) == "Sphere(2)"
    assert str(mf.classify(M_of(gr.path(3), gr.complete_bipartite(3, 2)))) == "Sphere(2)"


def test_verdicts_field_independent_on_catalog():
    graphs = [e.graph for e in catalog.exceptional_table()]
    graphs += [g for _, g, _ in catalog.disconnected_ball_table()]
    for g in graphs:
        M = cx.matching_complex(g)
        assert mf.check_manifold(M, 2).status == mf.check_manifold(M, 3).status


def test_catalog_betti_field_independent():
    graphs = [e.graph for e in catalog.exceptional_table()]
    graphs += [g for _, g, _ in catalog.disconnected_ball_table()]
    for g in graphs:
        M = cx.matching_complex(g)
        vectors = {p: hm.betti_reduced(M, p) for p in (2, 3, 5)}
        assert vectors[2].betti == vectors[3].betti == vectors[5].betti


def test_boundary_cross_check_runs_clean():
    for entry in catalog.exceptional_table():
        M = cx.matching_complex(entry.graph)
        v = mf.check_manifold(M, 2)
        mf.boundary_complex(M, 2, v)  # CrossCheckMismatchError would fail this


def test_join_rule_for_spheres_and_balls():
    spheres = [M_of(gr.path(3)), M_of(gr.cycle(5)), M_of(gr.complete_bipartite(3, 2))]
    balls = [M_of(gr.path(2)), M_of(gr.banner()), M_of(gr.spider(3))]
    rng = random.Random(31)
    for _ in range(12):
        xs = rng.choice(spheres), rng.choice(spheres + balls)
        a, b = xs
        joined = cx.join(a, b)
        cls = mf.classify(joined)
        a_ball = any(a is x for x in balls)
        b_ball = any(b is x for x in balls)
        if a_ball or b_ball:
            assert cls.label == "Ball"
        else:
            assert cls.label == "Sphere"


def test_closed_manifolds_have_no_proper_closed_subcomplex():
    for M in (cycle_complex(6), M_of(gr.complete_bipartite(4, 3))):
        facets = M.facets()
        rng = random.Random(32)
        for _ in range(10):
            k = rng.randint(1, len(facets) - 1)
            subset = rng.sample(facets, len(facets) - k)
            sub = cx.from_facets(M.labels, subset)
            if not cx.is_connected(sub) or sub.dimension != M.dimension:
                continue
            assert mf.check_manifold(sub, 2).status != mf.STATUS_CLOSED


def test_face_class_cache_consistency():
    # the same complex analyzed twice gives identical tables
    M = M_of(gr.complete_bipartite(4, 3))
    first = mf._face_classes(M, 2)[0]
    second = mf._face_classes(M, 2)[0]
    assert first == second
    assert all(v == "S" for v in first.values())


def test_witness_present_exactly_for_not_manifold():
    rng = random.Random(41)
    for _ in range(120):
        nv = rng.randint(3, 8)
        facets = [tuple(rng.sample(range(nv), 3)) for _ in range(rng.randint(2, 8))]
        c = cx.from_facets(range(nv), facets)
        v = mf.check_manifold(c, 2)
        if v.status == mf.STATUS_NOT_MANIFOLD:
            assert v.witness_face is not None and v.witness_betti is not None
            assert c.has_face(v.witness_face)
        else:
            assert v.witness_face is None and v.witness_betti is None


def test_manifold_report_shape():
    M = M_of(gr.complete_bipartite(4, 3))
    report = mf.manifold_report(M)
    assert report["status"] == "ClosedManifold"
    assert report["class"] == "Torus"
    assert report["f_vector"] == [12, 36, 24]
    assert report["boundary_components"] == 0
    assert [r["betti"] for r in report["betti"]] == [[0, 2, 1], [0, 2, 1]]
    assert report["cross_check_status"] == "ClosedManifold"

    M = M_of(gr.spider(3))
    report = mf.manifold_report(M)
    assert report["class"] == "Ball(2)"
    assert report["acyclic"] and report["boundary_is_sphere"]


def test_vertex_count_bounds_on_manifold_complexes():
    # manifold matching complexes of dimension d != 2 seen here have at most
    # 3d + 3 vertices; dimension-2 ones at most 12
    cases = [
        M_of(gr.path(3), gr.path(3)),
        M_of(gr.cycle(5)),
        M_of(gr.complete_bipartite(3, 2)),
        M_of(gr.spider(4)),
        M_of(gr.path(2), gr.path(3), gr.path(3)),
        M_of(gr.complete_bipartite(4, 3)),
        M_of(gr.spider(3)),
    ]
    for M in cases:
        v = mf.check_manifold(M, 2)
        assert v.is_manifold
        if v.dimension == 2:
            assert M.vertex_count <= 12
        else:
            assert M.vertex_count <= 3 * v.dimension + 3


# ---------------------------------------------------------------------------
# the memoized top-down link analysis


GOLDEN_REPORTS = os.path.join(os.path.dirname(__file__), "golden_manifold_reports.json")


def test_reports_match_golden_for_every_catalog_name():
    # captured before the link analysis was rewritten top-down
    reports = {name: mf.manifold_report(cx.matching_complex(catalog.named_graph(name)), (2, 3))
               for name in catalog.catalog_names()}
    with open(GOLDEN_REPORTS) as fh:
        assert reports == json.load(fh)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest().startswith("f34b32fa9976928d")


def _classes_by_labels(c, p):
    return {frozenset(c.labels_of(m)): cls for m, cls in mf._face_classes(c, p)[0].items()}


def test_face_classes_match_facet_scan_oracle_on_joins():
    cases = list(_join_arithmetic_cases(face_cap=400))
    assert len(cases) >= 100
    for g, _ in cases:
        M = cx.matching_complex(g)
        for p in (2, 3):
            assert _classes_by_labels(M, p) == oracle_utils.oracle_face_classes(M.facets(), p), \
                gr.to_graph6(g)


def test_face_classes_match_facet_scan_oracle_on_random_pure_complexes():
    rng = random.Random(42)
    for _ in range(60):
        nv = rng.randint(3, 9)
        size = rng.randint(1, min(4, nv))
        facets = [tuple(rng.sample(range(nv), size)) for _ in range(rng.randint(1, 10))]
        c = cx.from_facets(range(nv), facets)
        for p in (2, 3):
            assert _classes_by_labels(c, p) == oracle_utils.oracle_face_classes(c.facets(), p)


def test_one_link_analysis_per_complex(monkeypatch):
    calls = []
    real = mf._classify_link
    monkeypatch.setattr(mf, "_classify_link", lambda *a: calls.append(a) or real(*a))
    for g in (gr.spider(3), gr.complete_bipartite(4, 3),
              {e.name: e for e in catalog.exceptional_table()}["torus_disk_9e"].graph):
        M = cx.matching_complex(g)
        verdict = mf.check_manifold(M, 2)
        analysed = len(calls)
        assert analysed >= len(M.faces()) - 1  # every nonempty face of M, at least
        mf.classify(M, verdict, (2, 3))
        mf.boundary_complex(M, 2, verdict)
        assert mf.check_manifold(M, 2) == verdict
        assert len(calls) == analysed
        calls.clear()
