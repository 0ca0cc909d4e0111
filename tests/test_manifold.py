import hashlib
import json
import os
import random

import matchtop
import pytest
from hypothesis import example, given, settings, strategies as st
from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop import manifold as mf
from matchtop.errors import CrossCheckMismatchError

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


def _distinct_links(c):
    """The normalized facets of the link of every nonempty face, found by
    scanning all facets."""
    shapes = set()
    for face in c.faces() - {0}:
        link = [f & ~face for f in c.facet_masks if f & face == face]
        verts = sorted({v for f in link for v in range(c.vertex_count) if f >> v & 1})
        shapes.add(tuple(sorted(sum(1 << i for i, v in enumerate(verts) if f >> v & 1)
                                for f in link)))
    return shapes


def _shifted(c):
    """A copy of c with other labels in the same order: the same shapes."""
    return cx.from_facets([v + 100 for v in c.labels],
                          [[v + 100 for v in f] for f in c.facets()])


def test_one_link_analysis_per_complex(monkeypatch):
    calls = []
    real = mf._classify_link
    monkeypatch.setattr(mf, "_classify_link", lambda *a: calls.append(a) or real(*a))
    for g in (gr.spider(3), gr.complete_bipartite(4, 3),
              {e.name: e for e in catalog.exceptional_table()}["torus_disk_9e"].graph):
        matchtop.clear_caches()  # the shape table is process-wide
        M = cx.matching_complex(g)
        assert len(mf._face_classes(M, 2)[0]) == len(M.faces()) - 1
        assert 0 < len(calls) <= len(_distinct_links(M))  # once per link shape
        verdict = mf.check_manifold(M, 2)
        analysed = len(calls)
        mf.classify(M, verdict, (2, 3))
        mf.boundary_complex(M, 2, verdict)
        assert mf.check_manifold(M, 2) == verdict
        assert len(calls) == analysed
        # another complex of the same shapes reuses every record
        copy = _shifted(M)
        assert mf.check_manifold(copy, 2).status == verdict.status
        assert mf.classify(copy) == mf.classify(M)
        assert len(mf._face_classes(copy, 2)[0]) == len(M.faces()) - 1
        assert len(calls) == analysed
        calls.clear()


def _analysis(c):
    """Everything the link analysis decides about c, at both primes."""
    return ([mf._face_classes(c, p) for p in (2, 3)],
            [mf.check_manifold(c, p) for p in (2, 3)],
            mf.classify(c))


def test_shared_shape_table_is_order_independent():
    # fresh complexes each run, so only the process-wide tables carry over
    joins = [g for g, _ in _join_arithmetic_cases(face_cap=400)][::6]
    rng = random.Random(45)
    randoms = []
    for _ in range(30):
        nv = rng.randint(3, 8)
        size = rng.randint(1, min(4, nv))
        randoms.append((nv, [rng.sample(range(nv), size) for _ in range(rng.randint(1, 9))]))

    def fresh():
        return ([cx.matching_complex(g) for g in joins]
                + [cx.from_facets(range(nv), facets) for nv, facets in randoms])

    matchtop.clear_caches()
    forward = [_analysis(c) for c in fresh()]
    matchtop.clear_caches()
    backward = [_analysis(c) for c in reversed(fresh())][::-1]
    alone = []
    for c in fresh():
        matchtop.clear_caches()
        alone.append(_analysis(c))
    assert len(forward) == len(joins) + len(randoms) >= 40
    assert forward == backward == alone
    assert any(v.status == mf.STATUS_NOT_MANIFOLD for _, vs, _ in forward for v in vs)


def test_walk_leaves_the_face_table():
    # the table the walk leaves against the top-down closure of the facets
    rng = random.Random(46)
    cases = [cx.matching_complex(g) for g, _ in _join_arithmetic_cases(face_cap=400)][::4]
    for _ in range(30):
        nv = rng.randint(3, 9)
        size = rng.randint(1, min(4, nv))
        cases.append(cx.from_facets(range(nv), [rng.sample(range(nv), size)
                                                for _ in range(rng.randint(1, 10))]))
    for c in cases:
        mf._face_classes(c, 2)
        assert c.faces_by_size() == cx._faces_by_size(c.facet_masks)


def test_one_face_table_per_complex_for_both_primes(monkeypatch):
    built = {}
    real = cx._faces_by_size

    def counting(facet_masks):
        key = tuple(facet_masks)
        built[key] = built.get(key, 0) + 1
        return real(facet_masks)

    monkeypatch.setattr(cx, "_faces_by_size", counting)
    monkeypatch.setattr(hm, "_faces_by_size", counting)
    matchtop.clear_caches()
    k43 = cx.matching_complex(gr.complete_bipartite(4, 3))
    assert len(k43.facet_masks) == 24 and hm._core(k43.facet_masks) == k43.facet_masks
    report = mf.manifold_report(k43, (2, 3))
    assert report["class"] == "Torus" and report["cross_check_status"] == "ClosedManifold"
    assert built.get(k43.facet_masks, 0) <= 1
    annulus = cx.matching_complex(catalog.named_graph("annulus_8e"))
    core = tuple(hm._core(annulus.facet_masks))  # a 4-cycle: 8 faces
    assert sum(map(len, real(core).values())) == 8 and core != annulus.facet_masks
    assert mf.manifold_report(annulus, (2, 3))["class"] == "Annulus"
    assert built.get(core, 0) <= 1
    assert built.get(annulus.facet_masks, 0) <= 1


def _relabelled(c, rng):
    perm = list(range(c.vertex_count))
    rng.shuffle(perm)
    return cx.from_facets(range(c.vertex_count), [[perm[v] for v in f] for f in c.facets()])


def test_shared_link_shapes_match_oracle_under_relabelling():
    # two copies of a random pure complex, sometimes glued at a vertex, under
    # random relabellings: one link shape shows up in several vertex orders
    rng = random.Random(44)
    faces_seen = witnesses = 0
    for _ in range(16):
        nv = rng.randint(3, 6)
        size = rng.randint(2, min(3, nv))
        base = [rng.sample(range(nv), size) for _ in range(rng.randint(2, 6))]
        glue = rng.random() < 0.5
        copy = [[0 if glue and v == 0 else v + nv for v in f] for f in base]
        c = cx.from_facets(range(2 * nv), base + copy)
        for M in (c, _relabelled(c, rng), _relabelled(c, rng)):
            faces_seen += len(M.faces()) - 1
            for p in (2, 3):
                oracle = oracle_utils.oracle_face_classes(M.facets(), p)
                assert _classes_by_labels(M, p) == oracle
                verdict = mf.check_manifold(M, p)
                failing = [f for f, cls in oracle.items() if cls == "?"]
                if not failing:
                    continue
                worst = min(failing, key=lambda f: (len(f), sorted(f)))
                link = [tuple(sorted(set(f) - worst)) for f in M.facets() if worst <= set(f)]
                assert verdict.status == mf.STATUS_NOT_MANIFOLD
                assert verdict.witness_face == tuple(sorted(worst))
                b = verdict.witness_betti
                assert (b.minus_one, list(b.betti)) == oracle_utils.oracle_betti(link, p)
                witnesses += 1
    assert witnesses >= 20 and faces_seen > 500


def test_one_boundary_span_per_complex_and_prime(monkeypatch):
    spans, built = [], []
    real_span, real_boundary = mf._span, mf._boundary
    monkeypatch.setattr(mf, "_span", lambda c, f: spans.append(c) or real_span(c, f))
    monkeypatch.setattr(mf, "_boundary", lambda c, p: built.append(p) or real_boundary(c, p))
    table = {e.name: e for e in catalog.exceptional_table()}
    for g in (gr.spider(3), table["annulus_8e"].graph, table["moebius_c7"].graph):
        M = cx.matching_complex(g)
        for _ in range(2):
            verdict = mf.check_manifold(M, 2)
            mf.classify(M, verdict, (2, 3))
            mf.boundary_complex(M, 2, verdict)
            mf.boundary_complex(M, 3)
            mf.manifold_report(M, (2, 3))
            mf.manifold_report(M, (3, 2))
        assert len(spans) == 2 and all(c is M for c in spans)  # one per prime
        assert sorted(built) == [2, 3]  # one cofacet cross-check per prime
        spans.clear()
        built.clear()


def _one_cofacet_closure(c):
    """The old second route to the boundary: every face of a (d-1)-face
    lying in exactly one facet."""
    count = {}
    for f in c.facet_masks:
        for v in range(c.vertex_count):
            if f >> v & 1:
                count[f ^ 1 << v] = count.get(f ^ 1 << v, 0) + 1
    closure = cx._faces_by_size([r for r, n in count.items() if n == 1])
    return set().union(*closure.values())


def _points(n):
    return cx.from_facets(range(n), [(v,) for v in range(n)])


def test_boundary_facets_agree_with_closed_one_cofacet_ridges():
    cases = [cx.matching_complex(g) for g, _ in _join_arithmetic_cases(face_cap=400)]
    cases += [cx.matching_complex(catalog.named_graph(name)) for name in catalog.catalog_names()]
    cases += [_points(1), _points(2)]
    with_boundary = 0
    for M in cases:
        for p in (2, 3):
            verdict = mf.check_manifold(M, p)
            if not verdict.is_manifold:
                continue
            balls = {f for f, cls in mf._face_classes(M, p)[0].items() if cls == "B"}
            assert _one_cofacet_closure(M) == balls
            bd = mf.boundary_complex(M, p, verdict).complex
            if verdict.status == mf.STATUS_WITH_BOUNDARY:
                with_boundary += 1
                assert {M.mask_of(f) for f in bd.facets()} == \
                    {f for f in balls if not any(f & g == f != g for g in balls)}
            else:
                assert not balls and bd.is_empty_only()
    assert with_boundary >= 100


@pytest.mark.parametrize("build", [
    lambda: M_of(gr.spider(3)),
    lambda: cx.matching_complex(catalog.named_graph("annulus_8e")),
    lambda: _points(1),
    lambda: _points(2),
])
def test_boundary_cross_check_catches_a_corrupted_boundary(build):
    M = build()
    verdict = mf.check_manifold(M, 2)
    facets, bd = M._cache.get(("boundary_span", 2), (set(), None))
    if facets:  # one boundary facet marked interior
        corrupted = set(facets)
        corrupted.remove(min(facets))
    else:  # a closed complex given a boundary facet
        corrupted = {M.facet_masks[0]}
    M._cache[("boundary_span", 2)] = (corrupted, bd)
    with pytest.raises(CrossCheckMismatchError):
        mf.boundary_complex(M, 2, verdict)


RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def test_shape_records_are_kept_per_prime():
    # the apex link of a cone over RP^2 fails at p = 2 and is acyclic at
    # p = 3, so a record shared between the primes would misclassify it
    cone = [f + (6,) for f in RP2]
    matchtop.clear_caches()
    for p in (3, 2, 3):
        c = cx.from_facets(range(7), cone)
        classes = _classes_by_labels(c, p)
        assert classes == oracle_utils.oracle_face_classes(c.facets(), p)
        assert classes[frozenset([6])] == {2: "?", 3: "B"}[p]
        if p == 2:
            assert mf._face_classes(c, 2)[1][c.mask_of([6])].p == 2


# ---------------------------------------------------------------------------
# the verdict per shape against the per-face walk


def _outcomes(c, walk, pairs=((2, 3), (3, 2))):
    """Verdict, boundary facets and class at each (prime, cross-check prime)
    pair; with ``walk`` the shape summary is patched to send every complex
    through the walk."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        if walk:
            mp.setattr(mf, "_shape_summary", lambda rec, shapes, p: (True,) * 5)
        for p, q in pairs:
            verdict = mf.check_manifold(c, p)
            bd = None
            if verdict.is_manifold:
                try:
                    got = mf.boundary_complex(c, p, verdict)
                    bd = (got.complex.labels, got.complex.facets(), got.component_count)
                except CrossCheckMismatchError:
                    bd = "mismatch"
            out.append((verdict, bd, mf.classify(c, verdict, (p, q))))
    return out


def test_shape_summary_matches_the_walk_on_joins_and_catalog():
    # the criterion-6 joins at the primes criterion 6 uses, every catalog
    # graph at both
    cases = [(g, ((2, 3),)) for g, _ in _join_arithmetic_cases()]
    cases += [(catalog.named_graph(name), ((2, 3), (3, 2))) for name in catalog.catalog_names()]
    walked = 0
    for g, pairs in cases:
        M = cx.matching_complex(g)
        got = _outcomes(M, False, pairs)
        assert got == _outcomes(cx.matching_complex(g), True, pairs), gr.to_graph6(g)
        if got[0][0].is_manifold:
            assert ("face_classes", 2) not in M._cache  # no face was walked
        else:
            walked += 1
    assert len(cases) >= 350 and walked >= 5


# a pseudomanifold whose ball faces are not closed under subfaces: the cone
# over an octahedron with a triangle hung at a vertex
_OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
_HUNG_CONE = [f + (8,) for f in _OCTAHEDRON + [(0, 6, 7)]]


@st.composite
def _pure_facets(draw):
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d + 1, 8))
    return draw(st.lists(st.sets(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1),
                         min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_pure_facets())
@example([f + (6,) for f in RP2])  # at p = 3 an acyclic apex link that is no ball
@example(_HUNG_CONE)
@example([(0, 1, 2, 3), (0, 1, 4, 5)])  # two tetrahedra pinched along an edge
def test_shape_summary_matches_the_walk_on_random_pure_complexes(facets):
    assert (_outcomes(cx.from_facets(None, facets), walk=False)
            == _outcomes(cx.from_facets(None, facets), walk=True))


def test_shape_summary_flags_read_only_the_record_classes(monkeypatch):
    # the flags depend on the classes of the vertex links alone; a
    # classifier that calls {∅} a ball and a point a sphere breaks the
    # closure of the ball faces of an edge: a vertex (link: a point) is
    # not a ball face, but the edge (link: {∅}) is
    def swapped(k, masks, p):
        return {(0,): "B", (1,): "S"}.get(masks, "S"), None

    monkeypatch.setattr(mf, "_classify_link", swapped)
    monkeypatch.setattr(mf, "_shapes", {})
    shapes = mf._shapes.setdefault(2, {})
    edge = mf._record(shapes, (0b11,), 2)
    fail, ball, broken, _, _ = mf._shape_summary(edge, shapes, 2)
    assert (fail, broken) == (False, True)
    # within a point, the point itself is a maximal ball face whose link
    # {∅} is no point: the two routes to the boundary disagree
    point = shapes[(1,)]
    assert mf._shape_summary(point, shapes, 2) == (False, True, False, True, True)


def test_a_face_table_per_shape_for_both_primes(monkeypatch):
    built = {}
    real = cx._faces_by_size

    def counting(facet_masks):
        key = tuple(facet_masks)
        built[key] = built.get(key, 0) + 1
        return real(facet_masks)

    monkeypatch.setattr(cx, "_faces_by_size", counting)
    monkeypatch.setattr(hm, "_faces_by_size", counting)
    matchtop.clear_caches()
    k43 = cx.matching_complex(gr.complete_bipartite(4, 3))
    hexagon = cx.link(k43, k43.labels[:1]).facet_masks  # a vertex link: M(K32)
    assert sum(map(len, real(hexagon).values())) == 12
    assert mf.manifold_report(k43, (2, 3))["class"] == "Torus"
    assert built[hexagon] == 1
    assert built[k43.facet_masks] == 1
    # the second prime of a report builds no face table at all
    for name in ("K43", "annulus_8e", "moebius_c7", "Sp3"):
        counts = []
        for pair in ((2, 2), (2, 3)):
            matchtop.clear_caches()
            built.clear()
            mf.manifold_report(cx.matching_complex(catalog.named_graph(name)), pair)
            counts.append(dict(built))
        assert counts[0] == counts[1], name
