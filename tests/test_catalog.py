import itertools
import math

import pytest

from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import manifold as mf
from matchtop import verify
from matchtop.errors import InvalidParameterError

import oracle_utils


def test_recognize_basics():
    assert str(catalog.recognize_basic(gr.path(3))) == "P3"
    assert str(catalog.recognize_basic(gr.path(2))) == "P2"
    assert str(catalog.recognize_basic(gr.cycle(5))) == "C5"
    assert str(catalog.recognize_basic(gr.complete_bipartite(3, 2))) == "K32"
    assert str(catalog.recognize_basic(gr.banner())) == "Gamma"
    assert str(catalog.recognize_basic(gr.spider(5))) == "Spider(5)"
    assert catalog.recognize_basic(gr.cycle(4)) is None
    assert catalog.recognize_basic(gr.complete(4)) is None


def test_spider_legs_agree_with_canonical_forms():
    # every connected class within 10 edges, on up to the 11 vertices of
    # Sp5, then the larger spiders themselves
    spiders = {gr.canonical_form(gr.spider(k), 11): k for k in range(2, 6)}
    classes = oracle_utils.connected_graph_classes(10, 11)
    for g in (g for level in classes for g in level):
        assert catalog._spider_legs(g) == spiders.get(gr.canonical_form(g, 11))
    for k in range(2, 9):
        assert catalog._spider_legs(gr.spider(k)) == k


def test_spider2_reported_as_spider_named_p5():
    kind = catalog.recognize_basic(gr.path(5))
    assert str(kind) == "Spider(2)"
    assert kind.name == "P5"


def test_recognize_requires_connected_no_isolated():
    with pytest.raises(InvalidParameterError):
        catalog.recognize_basic(gr.disjoint_union([gr.path(2), gr.path(2)]))
    with pytest.raises(InvalidParameterError):
        catalog.recognize_basic(gr.Graph(3, [(0, 1)]))


def test_exceptional_table_checksums():
    table = catalog.exceptional_table()
    assert len(table) == 10
    for entry in table:
        assert entry.graph.vertex_count == entry.vertices
        assert len(entry.graph.edges) == entry.edges
    by_name = {e.name: e for e in table}
    assert (by_name["annulus_8e"].vertices, by_name["annulus_8e"].edges) == (7, 8)
    assert (by_name["torus_disk_11e"].vertices, by_name["torus_disk_11e"].edges) == (7, 11)


def test_exceptional_classes_verify():
    for entry in catalog.exceptional_table():
        M = cx.matching_complex(entry.graph)
        assert str(mf.classify(M)) == str(entry.expected_class), entry.name


def test_predictions_basic_arithmetic():
    p = catalog.predict(gr.disjoint_union(
        [gr.path(3), gr.cycle(5), gr.complete_bipartite(3, 2)]))
    assert str(p.predicted_class) == "Sphere(4)" and p.predicted_dimension == 4
    p = catalog.predict(gr.disjoint_union([gr.path(2), gr.banner(), gr.spider(3)]))
    assert str(p.predicted_class) == "Ball(5)" and p.predicted_dimension == 5
    p = catalog.predict(gr.complete_bipartite(4, 3))
    assert p.kind == "exceptional" and p.exceptional_name == "K43"
    assert str(p.predicted_class) == "Torus"
    assert catalog.predict(gr.cycle(6)).kind == "none"


def test_dimension_arithmetic_matches_the_kind_counts():
    # predict_for_kinds sums matching numbers; the reference counts each kind
    kinds = [catalog.BasicGraphKind(k) for k in ("P2", "P3", "C5", "K32", "Gamma")]
    kinds += [catalog.BasicGraphKind("Spider", d) for d in range(2, 9)]
    for size in range(5):
        for combo in itertools.combinations_with_replacement(kinds, size):
            label, dim = oracle_utils.oracle_predict_for_kinds(combo)
            pred = catalog.predict_for_kinds(combo)
            assert pred.predicted_class == mf.ManifoldClass(label, dim), combo
            assert pred.predicted_dimension == dim


def test_prediction_matches_computation_small_unions():
    basics = [gr.path(2), gr.path(3), gr.cycle(5), gr.complete_bipartite(3, 2),
              gr.banner(), gr.spider(2), gr.spider(3)]
    for combo in itertools.combinations_with_replacement(range(len(basics)), 2):
        g = gr.disjoint_union([basics[i] for i in combo])
        pred = catalog.predict(g)
        M = cx.matching_complex(g)
        verdict = mf.check_manifold(M, 2)
        got = mf.classify(M, verdict)
        assert str(got) == str(pred.predicted_class), (combo, str(got))
        assert verdict.dimension == pred.predicted_dimension


def test_crosspolytope_f_vectors():
    for ell in range(1, 6):
        M = cx.matching_complex(gr.disjoint_union([gr.path(3)] * ell))
        fv = cx.f_vector(M).positive
        expected = tuple(2 ** (k + 1) * math.comb(ell, k + 1) for k in range(ell))
        assert fv == expected


def test_spider_facet_structure():
    for k in range(2, 7):
        M = cx.matching_complex(gr.spider(k))
        facets = M.facets()
        assert len(facets) == k + 1
        assert all(len(f) == k for f in facets)
        # one facet (the outer-tip matching) meets every other in k-1 vertices
        core = [f for f in facets if all(len(set(f) & set(g)) == k - 1
                                         for g in facets if g != f)]
        assert len(core) == 1


def test_disconnected_ball_table_verifies():
    for name, g, _ in catalog.disconnected_ball_table():
        M = cx.matching_complex(g)
        v = mf.check_manifold(M, 2)
        assert v.status == mf.STATUS_WITH_BOUNDARY and v.dimension == 2, name
        assert str(mf.classify(M, v)) == "Ball(2)", name
        pred = catalog.predict(g)
        assert str(pred.predicted_class) == "Ball(2)", name
        assert pred.kind == "basic", name  # unions of basics, read as such


def test_named_graph_resolution():
    assert catalog.named_graph("K43") == gr.complete_bipartite(4, 3)
    assert catalog.named_graph("C7-matching") == gr.cycle(7)
    assert catalog.named_graph("gamma") == gr.banner()
    assert catalog.named_graph("Sp3") == gr.spider(3)
    assert (gr.canonical_form(catalog.named_graph("2P3"))
            == gr.canonical_form(gr.disjoint_union([gr.path(3), gr.path(3)])))
    with pytest.raises(InvalidParameterError):
        catalog.named_graph("no-such-graph")
    assert "k43" in catalog.catalog_names()


def test_expected_hits_budget_filtering():
    hits = catalog.expected_search_hits("1-sphere", 6, 10, False)
    assert sorted(name for name, _, _ in hits) == ["2P3", "C5", "K32"]
    hits = catalog.expected_search_hits("1-sphere", 5, 10, False)
    assert sorted(name for name, _, _ in hits) == ["2P3", "C5"]
    hits = catalog.expected_search_hits("2-manifold-with-boundary", 11, 10, True)
    assert len(hits) == 9
    hits = catalog.expected_search_hits("2-manifold-with-boundary", 11, 10, False)
    assert len(hits) == 18
    assert catalog.expected_search_hits("disconnected-complex", 8, 10, False) is None


# The hand-written expectations the computed ones replaced, at full budget:
# (name, canonical graph6, class) per target.
_SPHERES_2 = [
    ("3P3", "H???Xb?", "Sphere(2)"),
    ("P3+C5", "G?Che?", "Sphere(2)"),
    ("P3+K32", "G?B@po", "Sphere(2)"),
]
_WITH_BOUNDARY_2 = [
    ("Sp3", "F@Q?w", "Ball(2)"),
    ("annulus_8e", "F?NF_", "Annulus"),
    ("moebius_c7", "F@Ue?", "MoebiusStrip"),
    ("moebius_8e", "F@pTG", "MoebiusStrip"),
    ("moebius_9e", "FHQ[o", "MoebiusStrip"),
    ("moebius_10e", "FBY^?", "MoebiusStrip"),
    ("torus_disk_9e", "F?]u_", "TorusMinusDisk"),
    ("torus_disk_10e", "F?]v_", "TorusMinusDisk"),
    ("torus_disk_11e", "F?^v_", "TorusMinusDisk"),
    ("3P2", "E@Q?", "Ball(2)"),
    ("2P2+P3", "F?Ce?", "Ball(2)"),
    ("P2+P5", "F@@KO", "Ball(2)"),
    ("P2+Gamma", "FG?[o", "Ball(2)"),
    ("P2+2P3", "G??He?", "Ball(2)"),
    ("P2+C5", "F_Ch_", "Ball(2)"),
    ("P2+K32", "F_?xo", "Ball(2)"),
    ("P3+P5", "G??XU?", "Ball(2)"),
    ("P3+Gamma", "G??ZCo", "Ball(2)"),
]
PINNED_EXPECTED_HITS = {
    "1-sphere": [
        ("2P3", "E?N?", "Sphere(1)"),
        ("C5", "DLo", "Sphere(1)"),
        ("K32", "DFw", "Sphere(1)"),
    ],
    "2-sphere": _SPHERES_2,
    "closed-2-manifold": _SPHERES_2 + [("K43", "F?~v_", "Torus")],
    "2-manifold-with-boundary": _WITH_BOUNDARY_2,
    "connected-2-manifold-with-boundary": _WITH_BOUNDARY_2,
}


@pytest.mark.parametrize("target", sorted(PINNED_EXPECTED_HITS))
def test_computed_expected_hits_equal_the_pinned_lists(target):
    pinned = [(name, g6, cls, gr.from_graph6(g6))
              for name, g6, cls in PINNED_EXPECTED_HITS[target]]
    for max_edges in range(1, 16):
        for max_vertices in (6, 8, 10, 12):
            for connected_only in (False, True):
                want = sorted(
                    (name, g6, cls) for name, g6, cls, g in pinned
                    if len(g.edges) <= max_edges and g.vertex_count <= max_vertices
                    and (gr.is_connected_graph(g) or not connected_only))
                got = sorted((name, gr.canonical_form(g).decode(), cls)
                             for name, g, cls in catalog.expected_search_hits(
                                 target, max_edges, max_vertices, connected_only))
                assert got == want, (max_edges, max_vertices, connected_only)


def test_expected_hits_reject_an_unknown_target():
    with pytest.raises(InvalidParameterError):
        catalog.expected_search_hits("klein-bottle", 8, 10, False)
