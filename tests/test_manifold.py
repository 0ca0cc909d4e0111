import contextlib
import hashlib
import importlib.util
import itertools
import json
import os
import random
from pathlib import Path

import matchtop
import pytest
from hypothesis import example, given, settings, strategies as st
from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop import manifold as mf
from matchtop import verify
from matchtop.errors import InvalidParameterError

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
        bd = mf.boundary_complex(M, 2)
        assert bd.complex.is_empty_only() == (v.status == mf.STATUS_CLOSED)


def test_boundary_complex_needs_a_manifold():
    pinched = M_of(gr.star(3), gr.path(2))
    ball = M_of(gr.spider(3))
    for p in (2, 3):
        with pytest.raises(InvalidParameterError, match=f"NotManifold at p = {p}$"):
            mf.boundary_complex(pinched, p)
        assert mf.boundary_complex(ball, p).component_count == 1


def test_classify_checks_the_complex_before_its_boundary():
    # a verdict of another complex: the boundary count is read only after
    # the complex's own verdict, so classify raises as boundary_complex does
    pinched = M_of(gr.star(3), gr.path(2))
    ball = M_of(gr.spider(3))
    with pytest.raises(InvalidParameterError, match="^no boundary for status NotManifold at p = 2$"):
        mf.classify(pinched, mf.check_manifold(ball, 2))


def test_boundary_complex_is_a_frozen_record():
    K = M_of(gr.banner())
    bd = mf.BoundaryComplex(K, 2)
    twin = mf.BoundaryComplex(M_of(gr.banner()), 2)
    assert bd == twin and hash(bd) == hash(twin)
    assert bd != mf.BoundaryComplex(K, 1)
    assert repr(bd) == f"BoundaryComplex(complex={K!r}, component_count=2)"
    for field in ("complex", "component_count"):
        with pytest.raises(AttributeError):
            setattr(bd, field, None)


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
    # the same complex read off the link-shape entries twice gives identical
    # tables, and a fresh copy of it the same table again
    M = M_of(gr.complete_bipartite(4, 3))
    first = _record_classes(M, 2)
    assert _record_classes(M, 2) == first == _record_classes(M_of(gr.complete_bipartite(4, 3)), 2)
    assert len(first) == len(M.faces()) - 1
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
            assert c.mask_of(v.witness_face) in c.faces()
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


@pytest.mark.parametrize("p_pair", [(2, 3, 5), (2,), ()])
@pytest.mark.parametrize("read", [mf.classify, mf.manifold_report])
def test_a_p_pair_holds_two_primes(read, p_pair):
    M = M_of(gr.complete_bipartite(4, 3))
    with pytest.raises(InvalidParameterError, match="two primes"):
        read(M, p_pair=p_pair)
    assert read(M, p_pair=(3, 3))  # two equal primes stay allowed


@pytest.mark.parametrize("prime", ["2", "7"])
@pytest.mark.parametrize("read", [
    lambda M, p: mf.check_manifold(M, p),
    lambda M, p: mf.classify(M, None, (p, "3")),
    lambda M, p: verify.SearchSpec("1-sphere", p=p),
], ids=["check_manifold", "classify", "SearchSpec"])
def test_a_prime_given_as_a_string_is_named_as_one(read, prime):
    # "2 is not prime" would be false of the number the string spells
    M = M_of(gr.cycle(5))
    with pytest.raises(InvalidParameterError) as err:
        read(M, prime)
    assert str(err.value) == f"{prime!r} is not prime"


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


def _record_classes(c, p):
    """{face mask: class} for every nonempty face of a pure complex, read
    off the link-shape entries: a face is a vertex i of the complex's shape
    plus a face of lk(i) above i, whose class is that of its link's entry."""
    classes = {}

    def expand(face, shape, pos, start):
        for i in range(start, len(pos)):
            child, idx = mf._child(shape, i)
            classes[face | pos[i]] = mf._class(child, p)
            expand(face | pos[i], child, [pos[j] for j in idx], sum(j < i for j in idx))

    used, norm = cx._reindex(c.facet_masks)
    pos = [1 << v for v in range(c.vertex_count) if used >> v & 1]
    expand(0, cx._facts_of(norm), pos, 0)
    return classes


def _link_memos():
    """(children built, link shapes ranked at 2) over the whole table.
    Every child is the one entry of its facet set."""
    children = [child for e in cx._facts.values() for child, _ in e.get("children", {}).values()]
    assert all(child is cx._facts[child["facets"]] for child in children)
    return len(children), sum(2 in child for child in {id(c): c for c in children}.values())


def _work_in(monkeypatch, name, module, work):
    """The ``(entry facets, argument)`` of every call of ``manifold.<name>``
    that calls ``module.<work>``, the first step of its build: the calls
    that build, where one that finds its memo returns it as is."""
    done, inside = [], []
    real, real_work = getattr(mf, name), getattr(module, work)

    def call(entry, arg):
        inside.append([entry["facets"], arg, False])
        try:
            return real(entry, arg)
        finally:
            facets, arg, worked = inside.pop()
            if worked:
                done.append((facets, arg))

    def step(*args):
        if inside:
            inside[-1][2] = True
        return real_work(*args)

    monkeypatch.setattr(mf, name, call)
    monkeypatch.setattr(module, work, step)
    return done


def _child_builds(monkeypatch):
    """The (shape facets, vertex) of every vertex link ``_child`` builds,
    each a re-index of the link's facets."""
    return _work_in(monkeypatch, "_child", cx, "_reindex")


def _classes_by_labels(c, p):
    return {frozenset(c.labels_of(m)): cls for m, cls in _record_classes(c, p).items()}


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
    # each link shape is one entry, classified once at a prime off the
    # Betti numbers it keeps, ranked once, and each of its vertex links is
    # built once into it
    ranked = _work_in(monkeypatch, "_class", hm, "_join_factors")  # _betti's first step
    built = _child_builds(monkeypatch)
    for g in (gr.spider(3), gr.complete_bipartite(4, 3),
              {e.name: e for e in catalog.exceptional_table()}["torus_disk_9e"].graph):
        matchtop.clear_caches()  # the shape table is process-wide
        M = cx.matching_complex(g)
        assert len(_record_classes(M, 2)) == len(M.faces()) - 1
        assert 0 < len(ranked) == len(set(ranked)) <= len(_distinct_links(M))  # once per link shape
        assert 0 < _link_memos()[1] <= len(_distinct_links(M))
        assert len(built) == len(set(built)) == _link_memos()[0]
        verdict = mf.check_manifold(M, 2)
        analysed = len(ranked), len(built), _link_memos()
        mf.classify(M, verdict, (2, 3))
        mf.boundary_complex(M, 2)
        assert mf.check_manifold(M, 2) == verdict
        assert (len(ranked), len(built), _link_memos()) == analysed
        # another complex of the same shapes reuses every entry
        copy = _shifted(M)
        assert mf.check_manifold(copy, 2).status == verdict.status
        assert mf.classify(copy) == mf.classify(M)
        assert len(_record_classes(copy, 2)) == len(M.faces()) - 1
        assert (len(ranked), len(built), _link_memos()) == analysed
        ranked.clear()
        built.clear()


def test_join_link_build_counts_pinned(monkeypatch):
    # criterion 6 on the small joins, from a cold shape table: a join
    # shape is folded from its factors' summaries, so vertex links are built
    # only for shapes the split leaves whole, and a join's boundary is
    # folded from its factors' boundaries, so none is walked
    built = _child_builds(monkeypatch)
    matchtop.clear_caches()
    for g, _ in _join_arithmetic_cases(face_cap=400):
        M = cx.matching_complex(g)
        mf.classify(M, mf.check_manifold(M, 2))
    assert len(built) == len(set(built)) == _link_memos()[0] == 107
    assert sum("summary" in e for e in cx._facts.values()) == 120


def test_one_join_split_per_facet_set_pinned(monkeypatch):
    # the ranks and the shape summaries read one memoized split: from cold
    # caches no facet set is walked twice, and a disconnected graph's
    # complex is never walked once built, as matching_complex records its
    # split from the graph's components.  The walks left are link shapes
    # and the components' own complexes; three link shapes are the facets
    # of a later case's join, walked before that case builds it
    walked = []
    real = cx._split
    monkeypatch.setattr(cx, "_split", lambda facets: walked.append(facets) or real(facets))
    matchtop.clear_caches()
    born = set()
    for g, _ in _join_arithmetic_cases(face_cap=400):
        M = cx.matching_complex(g)
        if len(gr.connected_components(g)[0]) > 1:
            born.add(M.facet_masks)
            assert "split" in cx._facts[M.facet_masks]
        before = len(walked)
        mf.classify(M, mf.check_manifold(M, 2))
        assert not born & set(walked[before:])
    assert len(walked) == len(set(walked)) == 22
    assert len(born) == 101


def test_a_folded_boundary_is_spanned_only_when_read(monkeypatch):
    # criterion 6 on the small joins: the verdict, classify and
    # manifold_report take a folded join's boundary count and Betti numbers
    # from its factors and never span it; boundary_complex spans it once,
    # from the ridges in exactly one facet, and keeps it for every prime.
    # Each span counts the ridges of its facets once
    spanned = []
    real = cx._ridge_cofacets
    monkeypatch.setattr(cx, "_ridge_cofacets", lambda facets: spanned.append(facets) or real(facets))
    matchtop.clear_caches()
    folded = []
    for g, _ in _join_arithmetic_cases(face_cap=400):
        M = cx.matching_complex(g)
        verdict = mf.check_manifold(M, 2)
        mf.classify(M, verdict)
        mf.manifold_report(M)
        if (verdict.status == mf.STATUS_WITH_BOUNDARY
                and cx._join_factors(cx._facts_of(M.facet_masks))):
            folded.append(M)
    assert len(folded) >= 40
    assert not {M.facet_masks for M in folded} & set(spanned)
    for M in folded:
        spanned.clear()
        bd = mf.boundary_complex(M, 2)
        assert spanned == [M.facet_masks]
        used, masks = cx._reindex([r for r, n in real(M.facet_masks).items() if n == 1])
        assert bd == mf.BoundaryComplex(cx.Complex(M.labels_of(used), masks), bd.component_count)
        for p in (2, 3):
            assert mf.boundary_complex(M, p) == bd
        assert spanned == [M.facet_masks]


def test_no_folded_join_boundary_is_walked(monkeypatch):
    # criterion 6 on the small joins: a join with boundary takes its
    # verdict, component count and boundary Betti numbers from its factors,
    # so no verdict is taken of its boundary, only of those of the factors;
    # every verdict, check_manifold's and the boundary checks', is a
    # _verdict of a facet set, memoized or not.  A factor's boundary has a
    # lower dimension than the join's, so no facet set that a case checks
    # for a factor is the facet set of that case's boundary
    checked = []
    real = mf._verdict
    monkeypatch.setattr(mf, "_verdict",
                        lambda entry, p: checked.append(entry["facets"]) or real(entry, p))
    matchtop.clear_caches()
    folded = 0
    for g, _ in _join_arithmetic_cases(face_cap=400):
        M = cx.matching_complex(g)
        before = len(checked)
        verdict = mf.check_manifold(M, 2)
        mf.classify(M, verdict)
        if (verdict.status == mf.STATUS_WITH_BOUNDARY
                and cx._join_factors(cx._facts_of(M.facet_masks))):
            bd = mf.boundary_complex(M, 2).complex
            assert bd.facet_masks not in checked[before:]
            folded += 1
    assert folded >= 40
    boundaries = {e["span"][1]["facets"] for e in cx._facts.values() if e.get("span")}
    assert boundaries & set(checked)  # the factors' are


def test_each_prime_is_checked_once_per_public_call(monkeypatch):
    # criterion 6's pair of calls on the small joins: check_manifold checks
    # its prime and classify its two, and nothing below them checks again
    cases = [g for g, _ in _join_arithmetic_cases(face_cap=400)]
    checks = []
    real = hm._checked
    monkeypatch.setattr(hm, "_checked", lambda p: checks.append(p) or real(p))
    matchtop.clear_caches()
    statuses = set()
    for g in cases:
        M = cx.matching_complex(g)
        checks.clear()
        verdict = mf.check_manifold(M, 2)
        mf.classify(M, verdict, (2, 3))
        assert checks == [2, 2, 3], g
        statuses.add(verdict.status)
    assert {mf.STATUS_CLOSED, mf.STATUS_WITH_BOUNDARY} <= statuses


def test_clear_caches_empties_the_factor_boundaries():
    matchtop.clear_caches()
    M = cx.matching_complex(gr.disjoint_union([gr.path(3), gr.path(2)]))
    assert mf.classify(M) == mf.ManifoldClass("Ball", 1)
    assert any("span" in e for e in cx._facts.values())
    matchtop.clear_caches()
    assert not any("span" in e for e in cx._facts.values())


def test_fold_boundary_makes_one_product_per_factor(monkeypatch):
    # the closed form multiplies one polynomial per factor, P(∂K) or P(K),
    # checked or not, and builds no product of the factors themselves
    products = []
    real = mf._times
    monkeypatch.setattr(mf, "_times", lambda a, b: products.append(a) or real(a, b))
    folded = 0
    for g, _ in _join_arithmetic_cases(face_cap=2048):
        factors = cx._join_factors(cx._facts_of(cx.matching_complex(g).facet_masks))
        if factors is None:
            continue
        for q in (2, 3, 5):
            for check in (False, True):
                products.clear()
                folded += mf._fold_boundary(factors, q, check) is not None
                assert len(products) == len(factors), (gr.to_graph6(g), q, check)
    assert folded >= 300


def _reached(root):
    """Every object reachable from root through containers, complexes and
    dataclass records."""
    seen, todo = {}, [root]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (int, float, str, bytes, type(None))):
            continue
        seen[id(x)] = x
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple, set, frozenset)):
            todo += x
        elif isinstance(x, cx.Complex):
            todo += [getattr(x, slot) for slot in x.__slots__]
        elif hasattr(x, "__dataclass_fields__"):
            todo += [getattr(x, f) for f in x.__dataclass_fields__]
    return list(seen.values())


def _analysed(M):
    """What the public functions say of M: its verdicts at 2 and 3, its
    class, its report and, for a manifold, its boundary."""
    verdict = mf.check_manifold(M, 2)
    got = [verdict, mf.check_manifold(M, 3), mf.classify(M, verdict), mf.manifold_report(M)]
    return got + ([mf.boundary_complex(M, 2)] if verdict.is_manifold else [])


def test_clear_caches_releases_every_link_shape_record():
    # a complex is a plain value, its labels and facets, and every memo
    # (verdicts, face table, boundary span and Betti numbers, link-shape
    # children and summaries) is kept per facet set in complexes._facts, so once the
    # process tables are cleared a live complex reaches no memo at all, and
    # analysing it again says the same: a folded join, a spanned annulus, a
    # closed surface and a non-manifold
    assert cx.Complex.__slots__ == ("labels", "facet_masks")
    matchtop.clear_caches()
    table = {e.name: e for e in catalog.exceptional_table()}
    live = [M_of(gr.path(3), gr.path(2)), M_of(table["annulus_8e"].graph),
            M_of(gr.complete_bipartite(4, 3)), M_of(gr.star(3), gr.path(2))]
    first = [_analysed(M) for M in live]
    assert {got[0].status for got in first} == {mf.STATUS_WITH_BOUNDARY, mf.STATUS_CLOSED,
                                               mf.STATUS_NOT_MANIFOLD}
    memos = [x for e in cx._facts.values() for x in _reached(e)
             if not isinstance(x, (tuple, frozenset))]
    assert sum("summary" in e for e in cx._facts.values()) >= 10
    assert all(any(slot in cx._facts[M.facet_masks] for slot in ("verdict", "table", "span"))
               for M in live)
    matchtop.clear_caches()
    assert not cx._facts
    for M in live:
        reached = {id(x) for x in _reached(M)}
        assert not any(id(memo) in reached for memo in memos)
    assert [_analysed(M) for M in live] == first


def test_boundary_component_counts_match_the_facet_oracle():
    # the count is β̃_0 + 1 of the boundary, folded or ranked; the oracle
    # merges the boundary's facets that share a vertex
    joins = [M_of(g) for g, _ in _join_arithmetic_cases(face_cap=2048)]
    report = verify.run_search(verify.SearchSpec("2-manifold-with-boundary", max_edges=10))
    hits = [M_of(gr.from_graph6(h["graph6"])) for h in report.hits]
    named = [M_of(catalog.named_graph(name)) for name in catalog.catalog_names()]
    counts = {}
    for kind, cases in (("joins", joins), ("hits", hits), ("named", named)):
        for M in cases:
            for p in (2, 3):
                if mf.check_manifold(M, p).is_manifold:
                    bd = mf.boundary_complex(M, p)
                    assert bd.component_count == oracle_utils.oracle_facet_components(
                        bd.complex.facets()), (kind, M.facet_masks, p)
                    counts.setdefault(kind, set()).add(bd.component_count)
    assert len(joins) == 233 and len(hits) >= 10
    assert {0, 1} <= counts["joins"] and {1, 2} <= counts["hits"] and {0, 1, 2} <= counts["named"]


# sha256 of the rows of _join_rows, pinned before the boundary fold became
# one pass: criterion 6 beyond the golden catalog reports
JOIN_DIGEST = "6d0c6900effaefa504c7701eeec58fcaa11d0d0d4d48162cd62f4c12451df0a6"


def test_join_boundaries_match_the_pinned_digest():
    # criterion 6 under 2,048 faces: manifold_report at (2, 3), and the
    # boundary (its count and facets) and its Betti numbers at 2, 3 and 5
    rows = []
    for g, _ in _join_arithmetic_cases(face_cap=2048):
        M = M_of(g)
        row = [gr.to_graph6(g), mf.manifold_report(M, (2, 3))]
        for q in (2, 3, 5):
            bd = mf.boundary_complex(M, q)
            row.append([q, bd.component_count, sorted(bd.complex.facets())])
            b = mf._boundary_betti(cx._facts_of(M.facet_masks), q)
            row.append([b.p, b.minus_one, list(b.betti)])
        rows.append(row)
    assert len(rows) == 233
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == JOIN_DIGEST


def _analysis(c):
    """Everything the link analysis decides about c, at both primes."""
    return ([_record_classes(c, p) for p in (2, 3)],
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


def test_only_faces_by_size_builds_a_face_table(monkeypatch):
    # from cold tables the verdict builds no face table of the complex;
    # Complex.faces_by_size() builds it once, through
    # complexes._faces_by_size, into the facet set's complexes._facts entry
    built = []
    real = cx._faces_by_size
    monkeypatch.setattr(cx, "_faces_by_size",
                        lambda facet_masks: built.append(tuple(facet_masks)) or real(facet_masks))
    rng = random.Random(46)
    cases = [cx.matching_complex(g) for g, _ in _join_arithmetic_cases(face_cap=400)][::4]
    for _ in range(30):
        nv = rng.randint(3, 9)
        size = rng.randint(1, min(4, nv))
        cases.append(cx.from_facets(range(nv), [rng.sample(range(nv), size)
                                                for _ in range(rng.randint(1, 10))]))
    for c in cases:
        matchtop.clear_caches()
        built.clear()
        mf.check_manifold(c, 2)
        assert tuple(c.facet_masks) not in built
        built.clear()
        assert c.faces_by_size() == real(c.facet_masks)
        assert c.faces_by_size() is cx._facts[c.facet_masks]["table"]
        assert built == [tuple(c.facet_masks)]


def _bench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_face_table_per_facet_set(monkeypatch):
    # a face table is built once per facet set, whatever complex, prime or
    # route asks for it: Complex.faces_by_size(), the f-vector and the
    # ranks all read the one in the facet set's complexes._facts entry
    built = []
    real = cx._faces_by_size
    monkeypatch.setattr(cx, "_faces_by_size",
                        lambda facet_masks: built.append(tuple(facet_masks)) or real(facet_masks))
    # a cold pass of the join-arith benchmark: the verdict at 2, the class at (2, 3)
    workloads = _bench_workloads()
    graphs = workloads.prepare(matchtop, workloads.workload_params("join-arith", "full", matchtop))
    matchtop.clear_caches()
    built.clear()
    for g in graphs:
        M = cx.matching_complex(g)
        mf.classify(M, mf.check_manifold(M, 2), (2, 3))
    assert len(graphs) == 130
    assert len(built) == len(set(built)) == 13
    # every catalog graph's report, and its boundary at a second prime
    matchtop.clear_caches()
    built.clear()
    for name in catalog.catalog_names():
        M = cx.matching_complex(catalog.named_graph(name))
        mf.manifold_report(M, (2, 3))
        with contextlib.suppress(InvalidParameterError):
            mf.boundary_complex(M, 3)
    assert len(catalog.catalog_names()) == 51
    assert len(built) == len(set(built)) == 66
    # a complex that is its own core and no join: its report's f-vector
    # and both primes' ranks read one table
    matchtop.clear_caches()
    built.clear()
    k43 = cx.matching_complex(gr.complete_bipartite(4, 3))
    assert len(k43.facet_masks) == 24 and hm._core(k43.facet_masks) == k43.facet_masks
    report = mf.manifold_report(k43, (2, 3))
    assert report["class"] == "Torus" and report["cross_check_status"] == "ClosedManifold"
    assert built.count(k43.facet_masks) == 1
    # a smaller core that is no join is ranked re-indexed, from one table
    # that both primes read
    moebius = cx.matching_complex(catalog.named_graph("moebius_8e"))
    core = tuple(hm._core(moebius.facet_masks))
    assert (len(moebius.facet_masks), len(core)) == (9, 7)
    assert hm._join_factors(cx._facts_of(core)) is None
    assert mf.manifold_report(moebius, (2, 3))["class"] == "MoebiusStrip"
    assert built.count(tuple(cx._reindex(core)[1])) == 1
    assert built.count(moebius.facet_masks) == 1


def test_a_facet_set_travels_as_its_entry(monkeypatch):
    # a cold pass of the join-arith benchmark: the verdict at 2, the class
    # at (2, 3).  Inside the package a facet set is passed as its entry, so
    # the table is looked up only by the public functions and where a new
    # facet set is made: a split, a child, a core, a span.  Looking a facet
    # set up again by its facets in every private function that reads a
    # memo makes 4,940 lookups here
    workloads = _bench_workloads()
    graphs = workloads.prepare(matchtop, workloads.workload_params("join-arith", "full", matchtop))
    looked = []
    real = cx._facts_of

    def counting(facets):
        looked.append(facets)
        return real(facets)

    monkeypatch.setattr(cx, "_facts_of", counting)
    monkeypatch.setattr(hm, "_facts_of", counting)
    matchtop.clear_caches()
    for g in graphs:
        M = cx.matching_complex(g)
        mf.classify(M, mf.check_manifold(M, 2), (2, 3))
    assert len(graphs) == 130
    assert len(looked) == 573
    # every factor of a split and every child is the one entry of its facets
    reached = [x for e in cx._facts.values()
               for x in [*(e.get("split") or ()), *(c for c, _ in e.get("children", {}).values())]]
    assert len(reached) > 100
    assert all(x is cx._facts[x["facets"]] for x in reached)
    assert not any("shape" in e for e in cx._facts.values())


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


def test_one_boundary_span_per_facet_set(monkeypatch):
    # the span is counted and re-indexed once per facet set, whatever the
    # prime and the labels, and each complex labels it as its own
    counted = []
    real_count = cx._ridge_cofacets
    monkeypatch.setattr(cx, "_ridge_cofacets", lambda f: counted.append(f) or real_count(f))
    table = {e.name: e for e in catalog.exceptional_table()}
    for g in (gr.spider(3), table["annulus_8e"].graph, table["moebius_c7"].graph):
        matchtop.clear_caches()
        M = cx.matching_complex(g)
        for c in (M, _shifted(M), M):
            verdict = mf.check_manifold(c, 2)
            mf.classify(c, verdict, (2, 3))
            bd = mf.boundary_complex(c, 2)
            assert mf.boundary_complex(c, 3) == bd
            mf.manifold_report(c, (2, 3))
            mf.manifold_report(c, (3, 2))
            used, span = cx._facts[M.facet_masks]["span"]
            assert span is cx._facts[span["facets"]]
            assert bd.complex == cx.Complex(c.labels_of(used), span["facets"])
        assert counted == [M.facet_masks]  # one ridge count per facet set
        counted.clear()


def test_a_second_prime_ranks_no_boundary_for_the_count(monkeypatch):
    # β̃_0 + 1 of the boundary counts its components at every prime, so
    # once classify has ranked the boundary at 2, the count at 3 reads it:
    # boundary_complex at 3 ranks nothing beyond the verdict at 3
    ranked = []
    real = hm._betti_from_faces
    monkeypatch.setattr(hm, "_betti_from_faces",
                        lambda by_size, p, d: ranked.append(p) or real(by_size, p, d))
    for name, count in (("moebius_c7", 1), ("annulus_8e", 2)):
        matchtop.clear_caches()
        M = cx.matching_complex(catalog.named_graph(name))
        mf.classify(M, mf.check_manifold(M, 2), (2, 3))
        assert mf.check_manifold(M, 3).status == mf.STATUS_WITH_BOUNDARY
        ranked.clear()
        assert mf.boundary_complex(M, 3).component_count == count
        assert ranked == [], name


def test_complexes_with_equal_facets_keep_their_own_labels():
    # the memos are kept per facet set without labels: two complexes with
    # equal facets and other labels each get the witness and the boundary
    # in their own labels, whichever is analysed first
    table = {e.name: e for e in catalog.exceptional_table()}
    statuses = set()
    for M in (M_of(gr.star(3), gr.path(2)), M_of(table["annulus_8e"].graph)):
        copy = _shifted(M)
        assert copy.facet_masks == M.facet_masks and copy.labels != M.labels
        want = {}
        for c in (M, copy):
            matchtop.clear_caches()
            want[c.labels] = [_witness_and_boundary(c, p) for p in (2, 3)]
        assert want[M.labels] != want[copy.labels]
        for order in ((M, copy), (copy, M)):
            matchtop.clear_caches()
            for c in order:
                assert [_witness_and_boundary(c, p) for p in (2, 3)] == want[c.labels]
        statuses |= {status for status, _ in want[M.labels]}
    assert statuses == {mf.STATUS_NOT_MANIFOLD, mf.STATUS_WITH_BOUNDARY}


def _witness_and_boundary(c, p):
    """The status and witness face of c at p and, for a manifold, its
    boundary."""
    verdict = mf.check_manifold(c, p)
    if not verdict.is_manifold:
        assert verdict.witness_face
        return verdict.status, verdict.witness_face
    return verdict.status, mf.boundary_complex(c, p)


def _one_cofacet_closure(c):
    """A second route to the ball faces: every face of a (d-1)-face lying
    in exactly one facet, the ridges counted here by vertex position."""
    count = {}
    for f in c.facet_masks:
        for v in range(c.vertex_count):
            if f >> v & 1:
                count[f ^ 1 << v] = count.get(f ^ 1 << v, 0) + 1
    closure = cx._faces_by_size([r for r, n in count.items() if n == 1])
    return set().union(*closure.values())


def _points(n):
    return cx.from_facets(range(n), [(v,) for v in range(n)])


def _assert_boundary(M, p, balls):
    """The boundary of the manifold M at p against its ball faces (label
    sets): its facets are the maximal ones, {∅} when there is none, and
    its component count is that of its 1-skeleton."""
    bd = mf.boundary_complex(M, p)
    comps, isolated = gr.connected_components(cx.one_skeleton(bd.complex))
    assert bd.component_count == len(comps) + len(isolated)
    if balls:
        assert {frozenset(f) for f in bd.complex.facets()} == \
            {f for f in balls if not any(f < g for g in balls)}
    else:
        assert bd.complex.is_empty_only() and bd.component_count == 0
    return bd.component_count


def test_boundary_facets_agree_with_closed_one_cofacet_ridges():
    cases = [cx.matching_complex(g) for g, _ in _join_arithmetic_cases(face_cap=400)]
    cases += [cx.matching_complex(catalog.named_graph(name)) for name in catalog.catalog_names()]
    cases += [_points(1), _points(2)]
    with_boundary = 0
    components = set()
    for M in cases:
        for p in (2, 3):
            verdict = mf.check_manifold(M, p)
            if not verdict.is_manifold:
                continue
            balls = {f for f, cls in _record_classes(M, p).items() if cls == "B"}
            assert _one_cofacet_closure(M) == balls
            components.add(_assert_boundary(M, p, {frozenset(M.labels_of(f)) for f in balls}))
            with_boundary += verdict.status == mf.STATUS_WITH_BOUNDARY
    assert with_boundary >= 100 and {0, 1, 2} <= components


RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def test_link_classes_are_kept_per_prime(monkeypatch):
    # the apex link of a cone over RP^2 fails at p = 2 and is acyclic at
    # p = 3, so a class shared between the primes would misclassify it.
    # The shape's one entry keeps a Betti vector per prime, which its class
    # is read off, and its children, which do not depend on the prime, are
    # built on the first pass only
    cone = [f + (6,) for f in RP2]
    built = _child_builds(monkeypatch)
    matchtop.clear_caches()
    passes = []
    for p in (3, 2, 3):
        c = cx.from_facets(range(7), cone)
        classes = _classes_by_labels(c, p)
        assert classes == oracle_utils.oracle_face_classes(c.facets(), p)
        assert classes[frozenset([6])] == {2: "?", 3: "B"}[p]
        verdict = mf.check_manifold(c, p)
        if p == 2:
            assert verdict.witness_face == (6,) and verdict.witness_betti.p == 2
        else:
            assert verdict.witness_face == (0,)  # the least ball vertex
        passes.append(len(built))
    assert passes[0] == len(set(built)) == _link_memos()[0] > 0 and passes == passes[:1] * 3
    apex = cx._facts[cx._reindex([sum(1 << v for v in f) for f in RP2])[1]]
    assert {2, 3} <= set(apex) and {p: mf._class(apex, p) for p in (3, 2)} == {3: "B", 2: "?"}


# ---------------------------------------------------------------------------
# the verdict per shape against the facet-scan verdict


def _matches_oracle(c, p):
    """The verdict of c at p, asserted equal to ``oracle_verdict``."""
    verdict = mf.check_manifold(c, p)
    b = verdict.witness_betti
    assert verdict.p == p and (b is None or b.p == p)
    got = (verdict.status, verdict.dimension, verdict.witness_face,
           None if b is None else (b.minus_one, list(b.betti)))
    assert got == oracle_utils.oracle_verdict(c.facets(), p)
    return verdict


def test_verdict_matches_the_oracle_verdict_on_joins_and_catalog():
    # the small criterion-6 joins at the prime criterion 6 uses, every
    # catalog graph at both
    cases = [(g, (2,)) for g, _ in _join_arithmetic_cases(face_cap=400)]
    cases += [(catalog.named_graph(name), (2, 3)) for name in catalog.catalog_names()]
    failed = 0
    for g, primes in cases:
        M = cx.matching_complex(g)
        for p in primes:
            failed += _matches_oracle(M, p).status == mf.STATUS_NOT_MANIFOLD
    assert len(cases) >= 150 and failed >= 5


# a pseudomanifold whose ball faces are not closed under subfaces: the cone
# over an octahedron with a triangle hung at a vertex
_OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
_HUNG_CONE = [f + (8,) for f in _OCTAHEDRON + [(0, 6, 7)]]
_CONE_RP2 = [f + (6,) for f in RP2]  # at p = 3 an acyclic apex link that is no ball
_SUSPENSION_RP2 = [f + (a,) for f in RP2 for a in (6, 7)]
# the least failing face is the edge (5, 6), whose link is two edges; vertex
# 0 lies only in a larger failing face, the triangle (0, 1, 2) in three
# tetrahedra
_FAILS_ABOVE_A_LARGER_FAILURE = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 11),
                                 (5, 6, 7, 8), (5, 6, 9, 10)]
# the cone over RP^2 x I (each prism abc x {0, 1} cut into three tetrahedra
# by the vertex order): at p = 3 every link is a sphere or acyclic and the
# maximal ball faces are the ridges in one facet, but the boundary fails
# at the apex, whose link there is two copies of RP^2
_CONE_RP2_X_I = [t + (12,) for a, b, c in map(sorted, RP2)
                 for t in ((a, b, c, c + 6), (a, b, b + 6, c + 6), (a, a + 6, b + 6, c + 6))]


@st.composite
def _pure_facets(draw):
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d + 1, 8))
    return draw(st.lists(st.sets(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1),
                         min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_pure_facets())
@example(_CONE_RP2)
@example(_SUSPENSION_RP2)
@example(_HUNG_CONE)
@example(_FAILS_ABOVE_A_LARGER_FAILURE)
@example(_CONE_RP2_X_I)
@example([(0, 1, 2, 3), (0, 1, 4, 5)])  # two tetrahedra pinched along an edge
def test_verdict_matches_the_oracle_verdict_on_random_pure_complexes(facets):
    for p in (2, 3, 5):
        _matches_oracle(cx.from_facets(None, facets), p)


@st.composite
def _small_pure_facets(draw):
    d = draw(st.integers(0, 2))
    n = draw(st.integers(d + 1, 6))
    return draw(st.lists(st.sets(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1),
                         min_size=1, max_size=5))


@st.composite
def _coned_facets(draw):
    """Random pure facets joined with {∅}, a point (a cone), two points (a
    suspension) or a small random pure complex, on the vertices from 8."""
    facets = [tuple(f) for f in draw(_pure_facets())]
    other = draw(st.sampled_from([[()], [(8,)], [(8,), (9,)]])
                 | _small_pure_facets().map(lambda fs: [tuple(v + 8 for v in f) for f in fs]))
    return [f + g for f in facets for g in other]


def _joined(facets, apexes):
    return [tuple(f) + (a,) for f in facets for a in apexes]


@settings(max_examples=150, deadline=None)
@given(_coned_facets())
@example(_joined(_CONE_RP2, (20,)))
@example(_joined(_CONE_RP2, (20, 21)))
@example(_joined(_FAILS_ABOVE_A_LARGER_FAILURE, (20,)))
@example(_joined(_FAILS_ABOVE_A_LARGER_FAILURE, (20, 21)))
@example(_joined(_HUNG_CONE, (20, 21)))
def test_verdict_matches_the_oracle_verdict_on_random_joins(facets):
    # a join's summary is folded from its factors, and the witness descent
    # builds its children on the way down: from a cold shape table, and
    # again on fresh complexes from the table the first round filled
    matchtop.clear_caches()
    for _ in range(2):
        for p in (2, 3, 5):
            _matches_oracle(cx.from_facets(None, facets), p)


@settings(max_examples=150, deadline=None)
@given(_coned_facets())
@example(_CONE_RP2)
@example(_SUSPENSION_RP2)
@example(_HUNG_CONE)
@example(_CONE_RP2_X_I)
def test_ball_faces_are_closed_without_a_failing_link(facets):
    # the lemma of _shape_summary: without a failing link, every subface of
    # a ball face is a ball face
    for p in (2, 3, 5):
        classes = oracle_utils.oracle_face_classes(facets, p)
        if "?" in classes.values():
            continue
        balls = {f for f, cls in classes.items() if cls == "B"}
        assert all(f - {v} in balls for f in balls if len(f) > 1 for v in f)


# an annulus (boundary: two triangles) and the 5-vertex Moebius strip
# (boundary: one pentagon)
_ANNULUS = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]
_MOEBIUS = [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]


@settings(max_examples=150, deadline=None)
@given(_coned_facets())
@example(_ANNULUS)
@example(_MOEBIUS)
@example([(0, 1), (2, 3)])  # two segments: four boundary points
@example([(0, 1, 2, 3), (4, 5, 6, 7)])  # boundary: two 2-spheres
@example(_CONE_RP2_X_I)
def test_boundary_facets_are_the_oracle_maximal_ball_faces_on_random_pure_complexes(facets):
    c = cx.from_facets(None, facets)
    for p in (2, 3, 5):
        if mf.check_manifold(c, p).is_manifold:
            classes = oracle_utils.oracle_face_classes(c.facets(), p)
            _assert_boundary(c, p, {f for f, cls in classes.items() if cls == "B"})


def test_shape_summary_flags_read_only_the_record_classes(monkeypatch):
    # the summary of a shape that is no join depends on the classes of its
    # vertex links alone.  (A join's is folded by the Künneth rule, which
    # these fake classifiers break, so the shapes here are no joins: two
    # segments, two points and a point.)  A classifier that calls {∅} a
    # ball and a point a sphere makes the vertex of a point a maximal ball
    # face whose link {∅} is no point: the two routes to the boundary
    # disagree
    def swapped(entry, p):
        return {(0,): "B", (1,): "S"}.get(entry["facets"], "S")

    monkeypatch.setattr(mf, "_class", swapped)
    monkeypatch.setattr(cx, "_facts", {})
    segments = cx._facts_of((0b0011, 0b1100))
    assert mf._join_factors(segments) is None
    assert mf._shape_summary(segments, 2) == (0, True, True, False, 1)
    point = cx._facts[(1,)]
    assert mf._shape_summary(point, 2) == (0, True, True, True, 1)
    points = cx._facts_of((0b01, 0b10))
    assert mf._join_factors(points) is None
    assert mf._shape_summary(points, 2) == (0, True, True, True, 1)
    # one that calls {∅} failing fails the vertex of a point (size 1) and
    # so each segment (size 2), the least failing faces of two segments;
    # the witness's Betti numbers are still read off its link's facets
    monkeypatch.setattr(mf, "_class", lambda entry, p: "?" if entry["facets"] == (0,) else "S")
    monkeypatch.setattr(cx, "_facts", {})
    verdict = mf.check_manifold(cx.from_facets(None, [(4, 5), (6, 7)]), 2)
    assert (verdict.witness_face, verdict.witness_betti) == ((4, 5), hm.BettiVector(2, 1, ()))
    assert cx._facts[(0b0011, 0b1100)]["summary"][2][0] == 2
    assert cx._facts[(1,)]["summary"][2] == (1, False, False, False, 1)


_FACTORS = {"RP2": RP2, "boundary of a triangle": [(0, 1), (1, 2), (0, 2)],
            "triangle": [(0, 1, 2)], "point": [(0,)], "two points": [(0,), (1,)],
            "two segments": [(0, 1), (2, 3)]}


def _summary(c, p):
    """The summary of c's shape, from a cold shape table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cx, "_facts", {})
        shape = cx._facts_of(cx._reindex(c.facet_masks)[1])
        return shape, mf._shape_summary(shape, p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_small_pure_facets(), st.sampled_from(sorted(_FACTORS.values()))),
                min_size=2, max_size=3))
@example([RP2, [(0,)]])
@example([RP2, _FACTORS["two segments"]])
@example([_FACTORS["boundary of a triangle"]] * 2)  # one factor to the split
@example([[(0,)], [(0,), (1,)], _FACTORS["triangle"]])
def test_join_summary_folds_as_the_vertex_link_loop(factors):
    # the fold lemma of _shape_summary: a join's summary folded from its
    # factors equals the one its vertex-link loop reads off, which a split
    # that finds one factor leaves as the only path.  The loop stops at the
    # first failing vertex link, so with a failing face only fail and
    # non_ball are exact on both sides
    joined = cx.from_facets(None, factors[0])
    for facets in factors[1:]:
        joined = cx.join(joined, cx.from_facets(None, facets))
    for p in (2, 3, 5):
        shape, folded = _summary(joined, p)
        if mf._join_factors(shape) is not None:
            assert "children" not in shape  # no vertex link built
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mf, "_join_factors", lambda f: None)
            _, loop = _summary(joined, p)
        if loop[0]:
            assert (folded[0], folded[4]) == (loop[0], loop[4])
        else:
            assert folded == loop


def _graph_facets(edges):
    """The facets of the matching complex of the graph with these edges."""
    n = 1 + max(max(e) for e in edges)
    return cx.matching_complex(gr.Graph(n, sorted(edges))).facets()


_PAIRS = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] < e[1])


def _boundary_routes(facets):
    """Everything the boundary decides about the complex with these facets,
    on a fresh copy: the verdict, boundary facets and component count at 2,
    3 and 5, and the class at (2, 3) and (3, 5); and the boundaries of
    splitting manifolds that check_manifold saw."""
    matchtop.clear_caches()  # so no route reads the memos of another
    M = cx.from_facets(None, facets)
    entry = cx._facts_of(M.facet_masks)
    splits = cx._join_factors(entry) is not None
    walked = []
    got = []
    real = mf._verdict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mf, "_verdict",
                      lambda entry, p: walked.append(entry["facets"]) or real(entry, p))
        for p in (2, 3, 5):
            verdict = mf.check_manifold(M, p)
            got.append((verdict.status, verdict.witness_face, verdict.witness_betti))
            if verdict.is_manifold:
                bd = mf.boundary_complex(M, p)
                got.append((sorted(bd.complex.facets()), bd.component_count))
                got.append([mf._boundary_betti(entry, q) for q in (2, 3, 5)])
        got += [mf.classify(M, mf.check_manifold(M, a), (a, b)) for a, b in ((2, 3), (3, 5))]
    with_boundary = [mf.boundary_complex(M, p).complex for p in (2, 3, 5)
                     if mf.check_manifold(M, p).status == mf.STATUS_WITH_BOUNDARY]
    return got, [bd for bd in with_boundary if splits and bd.facet_masks in walked]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(_small_pure_facets(),
                          st.lists(_PAIRS, min_size=1, max_size=6, unique=True).map(_graph_facets)),
                min_size=2, max_size=3))
@example([[(0,)], _FACTORS["boundary of a triangle"]])  # a cone over a circle
@example([[(0,)], [(0, 1)]])  # a point and a ball: a triangle
@example([[(0,)], [(0,)], [(0,), (1,)]])  # two points and S⁰: a square
@example([[(0,), (1,)], _FACTORS["triangle"]])  # the suspension of a ball
@example([_CONE_RP2_X_I, [(0,)]])  # a factor whose boundary is not closed at 3
@example([_CONE_RP2, [(0,)], [(0,), (1,)]])
def test_folded_join_boundaries_match_the_explicit_path(factors):
    # the fold of _fold_boundary against the span, its check_manifold and
    # its ranks, which take over with the fold patched off.  The rule is an
    # iff, so a join with boundary is always folded and its boundary never
    # walked: a point whose boundary were void, not {∅}, would fail here
    joined = cx.from_facets(None, factors[0])
    for facets in factors[1:]:
        joined = cx.join(joined, cx.from_facets(None, facets))
    folded, walked = _boundary_routes(joined.facets())
    assert walked == []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mf, "_fold_boundary", lambda *a, **kw: None)
        explicit, _ = _boundary_routes(joined.facets())
    assert folded == explicit


def _restriction(c, subset):
    """The subcomplex of c induced on the labels ``subset``."""
    return cx.from_facets(subset, [[lab for lab in f if lab in subset] for f in c.facets()])


def _skeleton(c, k):
    """The faces of c of dimension at most k."""
    return cx.from_facets(c.labels, [face for f in c.facets()
                                     for face in itertools.combinations(f, min(len(f), k + 1))])


def _subcomplex(c, facet_masks):
    """The subcomplex of c with the given facets (masks of c), on its own
    vertex set."""
    used, masks = cx._reindex(facet_masks)
    return cx.Complex(c.labels_of(used), masks)


def test_witness_faces_are_least_by_position_and_by_labels():
    # the descent picks the least face by positions; every constructor
    # keeps labels in position order, so that is the least by labels
    rng = random.Random(47)
    complexes = []
    for _ in range(40):
        labels = rng.sample(range(-50, 50), rng.randint(3, 8))
        size = rng.randint(1, min(4, len(labels)))
        facets = [rng.sample(labels, size) for _ in range(rng.randint(1, 8))]
        c = cx.from_facets(labels, facets)
        complexes += [c, cx.from_facets(None, facets)]
        face = c.labels_of(c.facet_masks[0])
        complexes += [cx.link(c, face[:1]), cx.link(c, face), cx.join(c, complexes[-1]),
                      _restriction(c, rng.sample(labels, len(labels) // 2 + 1)),
                      _skeleton(c, rng.randint(0, c.dimension)),
                      _subcomplex(c, rng.sample(c.facet_masks, 1 + len(c.facet_masks) // 2))]
    for name in catalog.catalog_names():
        complexes.append(cx.matching_complex(catalog.named_graph(name)))
    for c in complexes:
        assert list(c.labels) == sorted(c.labels)
    assert len(complexes) > 300


def test_a_face_table_per_shape_for_both_primes(monkeypatch):
    built = {}
    real = cx._faces_by_size

    def counting(facet_masks):
        key = tuple(facet_masks)
        built[key] = built.get(key, 0) + 1
        return real(facet_masks)

    monkeypatch.setattr(cx, "_faces_by_size", counting)
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
