import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import matchtop
from matchtop import catalog, homology, manifold
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import verify
from matchtop.errors import GuardExceededError, InvalidParameterError

import oracle_utils


def spec(**kw):
    kw.setdefault("target", "1-sphere")
    return verify.SearchSpec(**kw)


def test_enumerate_two_edges():
    gs = list(verify.enumerate_graphs(spec(max_edges=2)))
    assert len(gs) == 3
    canon = {gr.canonical_form(g) for g in gs}
    assert canon == {
        gr.canonical_form(gr.path(2)),
        gr.canonical_form(gr.path(3)),
        gr.canonical_form(gr.disjoint_union([gr.path(2), gr.path(2)])),
    }


def test_enumerate_connected_three_edges():
    gs = list(verify.enumerate_graphs(spec(max_edges=3, connected_only=True)))
    assert len(gs) == 5
    canon = {gr.canonical_form(g) for g in gs}
    expected = {gr.canonical_form(g) for g in (
        gr.path(2), gr.path(3), gr.path(4), gr.star(3), gr.cycle(3))}
    assert canon == expected


def test_enumeration_contains_k43():
    # K43 has matching number 3: the capped levels of criterion 4 hold it
    levels = verify.connected_graph_classes(12, 10, 3)
    keys = {gr.canonical_form(g) for g in levels[12]}
    assert gr.canonical_form(gr.complete_bipartite(4, 3)) in keys


def test_enumeration_counts_match_labeled_oracle():
    # independent count: all labeled graphs on <= 6 vertices, no isolated
    # vertices, <= 5 edges, quotiented by canonical form
    expected = set()
    for n in range(2, 7):
        for edges in oracle_utils.labeled_graphs_on(n):
            if not edges or len(edges) > 5:
                continue
            g = gr.Graph(n, edges)
            if g.has_isolated_vertices:
                continue
            expected.add(gr.canonical_form(g))
    mine = {gr.canonical_form(g)
            for g in verify.enumerate_graphs(spec(max_edges=5, max_vertices=6))}
    assert mine == expected


def test_graphs_enumerated_exactly_once():
    seen = set()
    for g in verify.enumerate_graphs(spec(max_edges=5)):
        key = gr.canonical_form(g)
        assert key not in seen
        seen.add(key)
        assert not g.has_isolated_vertices


def test_guard():
    with pytest.raises(GuardExceededError):
        list(verify.enumerate_graphs(spec(max_edges=13)))
    with pytest.raises(GuardExceededError):
        verify.run_search(spec(max_vertices=11))
    # force lifts the guard (tiny run so it stays fast)
    list(verify.enumerate_graphs(spec(max_edges=2, max_vertices=11, force=True)))


def test_forced_budget_beyond_canonical_cap():
    # 11 vertices exceeds canonical_form's default cap; the search must pass
    # its own vertex budget through
    report = verify.run_search(spec(target="disconnected-complex", max_edges=10,
                                    max_vertices=11, connected_only=True, force=True))
    assert report.verdict == "Match"
    assert any(h["vertices"] == 11 for h in report.hits)


@pytest.mark.parametrize("budget", [
    {"max_edges": -1}, {"max_edges": 0}, {"max_vertices": 0}, {"max_vertices": 1},
])
def test_nonsensical_budget_rejected(budget):
    with pytest.raises(InvalidParameterError):
        spec(**budget)


@pytest.mark.parametrize("primes", [
    {"cross_check_prime": 0}, {"cross_check_prime": 1}, {"p": 4}, {"p": 0},
])
def test_non_prime_search_primes_rejected(primes):
    with pytest.raises(InvalidParameterError):
        spec(target="disconnected-complex", **primes)


def test_unknown_target_rejected():
    with pytest.raises(InvalidParameterError):
        verify.run_search(spec(target="klein-bottle"))


def test_search_one_sphere_small_budget():
    report = verify.run_search(spec(max_edges=5))
    assert report.verdict == "Match"
    assert [h["name"] for h in report.hits] == ["2P3", "C5"]
    assert not report.anomalies


def test_search_disconnected_complex_matches_graph_side_rule():
    report = verify.run_search(spec(target="disconnected-complex", max_edges=8))
    assert report.verdict == "Match"
    # spot checks: stars, the 4-cycle and the 4-clique appear, the 5-cycle not
    hit_keys = {h["graph6"] for h in report.hits}
    assert gr.canonical_graph6(gr.cycle(4)) in hit_keys
    assert gr.canonical_graph6(gr.complete(4)) in hit_keys
    assert gr.canonical_graph6(gr.path(3)) in hit_keys
    assert gr.canonical_graph6(gr.cycle(5)) not in hit_keys


def test_search_boundary_surfaces_with_disconnected_graphs():
    # at <= 8 edges the hits are the small connected surface graphs plus the
    # entire disconnected 2-ball table
    report = verify.run_search(spec(target="2-manifold-with-boundary", max_edges=8))
    assert report.verdict == "Match"
    names = sorted(h["name"] for h in report.hits)
    assert names == sorted([
        "Sp3", "annulus_8e", "moebius_c7", "moebius_8e",
        "3P2", "2P2+P3", "P2+P5", "P2+Gamma", "P2+2P3",
        "P2+C5", "P2+K32", "P3+P5", "P3+Gamma",
    ])
    assert all(h["class"] == "Ball(2)" for h in report.hits
               if "P" in h["name"] and h["name"] not in ("Sp3",))


def test_report_determinism_and_sorting():
    r1 = verify.run_search(spec(max_edges=5))
    r2 = verify.run_search(spec(max_edges=5))
    assert r1.to_dict(include_timing=False) == r2.to_dict(include_timing=False)
    edges = [h["edges"] for h in r1.hits]
    assert edges == sorted(edges)


def test_report_json_schema():
    report = verify.run_search(spec(max_edges=4))
    data = report.to_dict()
    assert set(data) >= {"spec", "hits", "expected", "verdict", "anomalies",
                         "note", "elapsed_ms"}
    for h in data["hits"]:
        assert set(h) >= {"graph6", "class", "betti_p2", "betti_p3"}


def test_property_suite_clean():
    report = verify.property_suite(seed=0, trials=60)
    assert report["failures"] == []
    assert all(count == 60 for count in report["checks"].values())


@pytest.mark.parametrize("trials", [0, -3])
def test_property_suite_rejects_fewer_than_one_trial(trials):
    with pytest.raises(InvalidParameterError, match="trials"):
        verify.property_suite(seed=0, trials=trials)


def test_property_suite_deterministic():
    a = verify.property_suite(seed=123, trials=20)
    b = verify.property_suite(seed=123, trials=20)
    assert a == b


def test_disconnection_rule_exhaustive_small():
    # complex disconnected exactly when the graph-side rule predicts it,
    # for every class with at most 8 edges
    for g in verify.enumerate_graphs(spec(max_edges=8)):
        M = cx.matching_complex(g)
        assert cx.is_connected(M) == (not verify._expects_disconnected(g)), gr.to_graph6(g)


# ---------------------------------------------------------------------------
# matching-number pruning


@pytest.mark.parametrize("connected_only", [False, True])
@pytest.mark.parametrize("target", ["1-sphere", "2-sphere", "closed-2-manifold",
                                    "2-manifold-with-boundary"])
def test_pruned_search_matches_unpruned_oracle(target, connected_only, monkeypatch):
    s = spec(target=target, max_edges=9, connected_only=connected_only)
    pruned = verify.run_search(s)
    with monkeypatch.context() as m:
        m.setattr(verify.SearchSpec, "matching_cap", lambda self: None)  # uncapped
        oracle = verify.run_search(s)
    assert oracle.pruning is None
    assert pruned.pruning["rule"] == f"matching number <= {2 if target == '1-sphere' else 3}"
    assert pruned.graphs_examined < oracle.graphs_examined
    a = pruned.to_dict(include_timing=False)
    b = oracle.to_dict(include_timing=False)
    for d in (a, b):
        del d["graphs_examined"], d["pruning"]
    assert a == b


@pytest.mark.parametrize("connected_only", [False, True])
@pytest.mark.parametrize("target", ["1-sphere", "2-sphere", "closed-2-manifold",
                                    "2-manifold-with-boundary",
                                    "connected-2-manifold-with-boundary"])
def test_ridge_prefilter_matches_no_prefilter(target, connected_only, monkeypatch):
    # every graph the prefilter rejects is rejected by check_manifold too,
    # without an anomaly: the reports are the same
    s = spec(target=target, max_edges=9, connected_only=connected_only)
    filtered = verify.run_search(s)
    with monkeypatch.context() as m:
        m.setattr(verify, "_ridge_prefilter", lambda facets, d, boundary: True)
        unfiltered = verify.run_search(s)
    assert filtered.to_dict(include_timing=False) == unfiltered.to_dict(include_timing=False)


def test_sphere_only_targets_reject_the_torus():
    # K43 is the only closed non-sphere surface within the search budgets,
    # and its 12 edges lie beyond the 2-sphere search of criterion 3
    k43 = gr.complete_bipartite(4, 3)
    assert verify._evaluate(k43, "2-sphere", 2, 3) is None
    torus = verify._evaluate(k43, "closed-2-manifold", 2, 3)
    assert torus.is_hit and torus.klass == "Torus" and torus.anomaly is None


@st.composite
def _graphs_up_to_8(draw):
    """A graph on 1-8 vertices with any edge subset, disconnected included."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return n, (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(_graphs_up_to_8())
@example((1, []))  # M = {∅}, the (-1)-sphere
@example((2, [(0, 1)]))  # a point: d = 0
@example((4, [(0, 1), (1, 2), (2, 3), (0, 3)]))  # C4: two disjoint segments
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))  # C5: a circle
@example((7, [(i, 4 + j) for i in range(4) for j in range(3)]))  # K43: a torus
@example((7, [(i, (i + 1) % 7) for i in range(7)]))  # C7: a Moebius strip
@example((8, [(0, 1), (2, 3), (4, 5), (6, 7)]))  # 4P2: a 3-simplex
@example((8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]))  # P3+P2+P3: a 3-ball
def test_ridge_prefilter_passes_every_manifold(case):
    # the prefilter is a necessary condition in any dimension, with or
    # without boundary, disconnected graphs included
    n, pairs = case
    g = gr.Graph(n, pairs)
    v = manifold.check_manifold(cx.matching_complex(g), 2)
    if v.is_manifold:
        boundary = v.status == manifold.STATUS_WITH_BOUNDARY
        assert verify._ridge_prefilter(verify._facet_masks(g), v.dimension, boundary)


def test_pruning_entry_pinned():
    closed = verify.run_search(spec(target="closed-2-manifold", max_edges=10))
    assert closed.to_dict(include_timing=False)["pruning"] == {
        "rule": "matching number <= 3",
        "connected_classes_kept": sum([1, 1, 3, 5, 12, 30, 74, 173, 364, 595]),
        "augmentations_pruned": 4958,
    }
    disconnected = verify.run_search(spec(target="disconnected-complex", max_edges=5))
    assert disconnected.to_dict(include_timing=False)["pruning"] is None
    assert disconnected.spec.matching_cap() is None


def test_pruned_multisets_are_the_unpruned_ones_within_the_cap():
    s = spec(max_edges=8)
    everything = {gr.canonical_form(g) for g in verify.enumerate_graphs(s)
                  if gr.matching_number(g) <= 3}
    pruned = [gr.canonical_form(g) for g in verify.enumerate_graphs(s, 3)]
    assert len(pruned) == len(set(pruned))
    assert set(pruned) == everything


# ---------------------------------------------------------------------------
# canonical-deletion prefilter


def _level_forms(levels):
    return [sorted(gr.canonical_form(g) for g in level) for level in levels]


def test_prefilter_matches_dedupe_only_oracle(monkeypatch):
    budgets = ((10, None), (10, 2), (10, 3))
    specs = (spec(target="closed-2-manifold", max_edges=10),
             spec(target="disconnected-complex", max_edges=8))
    verify.clear_caches()
    try:
        with monkeypatch.context() as m:
            # every child reaches the canonical-form dedupe
            m.setattr(verify, "_is_canonical_deletion", lambda adj, u, v: True)
            oracle_levels = [_level_forms(verify.connected_graph_classes(e, 10, cap))
                             for e, cap in budgets]
            oracle_reports = [verify.run_search(s).to_dict(include_timing=False)
                              for s in specs]
    finally:
        verify.clear_caches()  # no oracle level outlives the test
    levels = [_level_forms(verify.connected_graph_classes(e, 10, cap))
              for e, cap in budgets]
    assert levels == oracle_levels
    reports = [verify.run_search(s).to_dict(include_timing=False) for s in specs]
    assert reports == oracle_reports


@st.composite
def _connected_edge_perm(draw):
    n = draw(st.integers(2, 8))
    # a random spanning tree plus random further edges
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    g = gr.Graph(n, tree + extra)
    edge = draw(st.sampled_from(g.edges))
    perm = draw(st.permutations(range(n)))
    return g, edge, perm


@settings(max_examples=300, deadline=None)
@given(_connected_edge_perm())
# two triangles joined by a bridge, the edge of top key: not removable
@example((gr.Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
          (2, 3), [5, 4, 3, 2, 1, 0]))
def test_canonical_deletion_invariant_under_relabelling(case):
    g, (u, v), perm = case
    h = gr.relabel(g, perm)
    assert (verify._is_canonical_deletion(list(g.adj), u, v)
            == verify._is_canonical_deletion(list(h.adj), perm[u], perm[v]))
    # some removable edge ranks highest, so every class has a parent
    assert any(verify._is_canonical_deletion(list(g.adj), a, b) for a, b in g.edges)


def test_prefilter_canonicalizes_each_class_about_once(monkeypatch):
    calls = 0
    real = gr.canonical_form

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    verify.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(gr, "canonical_form", counting)
        levels = verify.connected_graph_classes(11, 10, 3)
    # 2,065 classes; without the prefilter all 20,182 children within the
    # cap are canonicalized
    assert sum(map(len, levels)) == 2065
    assert calls < 3000


def test_cross_check_prime_equal_to_p_is_no_cross_check():
    assert spec().cross_check_prime == 3
    assert spec().to_dict()["cross_check_prime"] == 3
    same = spec(p=3)
    assert same.cross_check_prime is None
    assert same.to_dict()["cross_check_prime"] is None
    assert spec(p=3, cross_check_prime=2).cross_check_prime == 2
    report = verify.run_search(spec(max_edges=5, p=3))
    assert report.spec.cross_check_prime is None
    assert report.verdict == "Match"


def test_betti_keys_named_after_the_primes():
    report = verify.run_search(spec(max_edges=5, p=3))
    assert report.hits
    for h in report.hits:
        M = cx.matching_complex(gr.from_graph6(h["graph6"]))
        assert [k for k in h if k.startswith("betti")] == ["betti_p3"]
        assert h["betti_p3"] == homology.betti_reduced(M, 3).to_list()
    report = verify.run_search(spec(max_edges=5, p=5, cross_check_prime=7))
    assert report.hits
    for h in report.hits:
        M = cx.matching_complex(gr.from_graph6(h["graph6"]))
        assert [k for k in h if k.startswith("betti")] == ["betti_p5", "betti_p7"]
        assert h["betti_p5"] == homology.betti_reduced(M, 5).to_list()
        assert h["betti_p7"] == homology.betti_reduced(M, 7).to_list()


def test_clear_caches_keeps_reports():
    s = spec(target="2-manifold-with-boundary", max_edges=7)
    before = verify.run_search(s).to_dict(include_timing=False)
    big = cx.matching_complex(gr.spider(9))
    big_betti = homology.betti_reduced(big, 2)
    catalog.predict(gr.cycle(5))  # fills the small-basics table
    catalog.catalog_names()  # fills the name registry
    tables = (catalog._exceptional_graphs, catalog._disconnected_balls,
              catalog._small_basics, catalog._registry)
    caches = (verify._LEVELS, homology._betti_cache, homology._cores, manifold._shapes)
    assert all(caches)
    for table in tables:
        assert table.cache_info().currsize > 0
    matchtop.clear_caches()
    assert not any(caches)
    for table in tables:
        assert table.cache_info().currsize == 0
    assert verify.run_search(s).to_dict(include_timing=False) == before
    assert homology.betti_reduced(cx.matching_complex(gr.spider(9)), 2) == big_betti
