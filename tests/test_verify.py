import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import matchtop
from matchtop import catalog, homology, manifold
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import verify
from matchtop.errors import GuardExceededError, InvalidParameterError

import oracle_utils
from test_acceptance import _join_arithmetic_cases


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
    levels = oracle_utils.connected_graph_classes(12, 10, 3)
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
    # budgets must be integers: a float or a string would fail later with a
    # raw TypeError, and a bool is no count
    {"max_edges": 3.5}, {"max_vertices": "10"}, {"max_edges": True},
    # "no" is truthy: a non-bool force would lift the edge/vertex guard
    {"max_edges": 13, "force": "no"}, {"max_vertices": 11, "force": 1}, {"force": None},
])
def test_nonsensical_budget_rejected(budget):
    with pytest.raises(InvalidParameterError):
        spec(**budget)


@pytest.mark.parametrize("cap", [0, -1, 1.5, True])
def test_matching_cap_below_one_rejected(cap):
    # P2, the seed of every level, has nu = 1: a cap of 0 would keep it and
    # its children, P4 (nu = 2) among them
    with pytest.raises(InvalidParameterError, match="matching_cap"):
        oracle_utils.connected_graph_classes(3, 10, cap)
    for connected_only in (True, False):
        with pytest.raises(InvalidParameterError, match="matching_cap"):
            list(verify.enumerate_graphs(spec(max_edges=3, connected_only=connected_only), cap))


@pytest.mark.parametrize("max_vertices", [1, 0, -1, 2.0])
def test_level_vertex_budget_below_two_rejected(max_vertices):
    # P2, the seed of every level, has 2 vertices
    with pytest.raises(InvalidParameterError, match="max_vertices"):
        oracle_utils.connected_graph_classes(2, max_vertices)


@pytest.mark.parametrize("connected_only", ["no", 1, None])
def test_non_bool_connected_only_rejected(connected_only):
    # "no" is truthy: it would run a connected-only search and report "no"
    with pytest.raises(InvalidParameterError, match="connected_only"):
        spec(max_edges=5, connected_only=connected_only)


@pytest.mark.parametrize("primes", [
    {"cross_check_prime": 0}, {"cross_check_prime": 1}, {"p": 4}, {"p": 0},
])
def test_non_prime_search_primes_rejected(primes):
    with pytest.raises(InvalidParameterError):
        spec(target="disconnected-complex", **primes)


def test_unknown_target_rejected():
    with pytest.raises(InvalidParameterError):
        verify.run_search(spec(target="klein-bottle"))


def test_spec_with_unknown_target_rejected():
    # before any graph is enumerated or a cap read off the target
    with pytest.raises(InvalidParameterError, match="unknown search target"):
        verify.SearchSpec("klein-bottle", max_edges=3)


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
    assert gr.canonical_form(gr.cycle(4)).decode() in hit_keys
    assert gr.canonical_form(gr.complete(4)).decode() in hit_keys
    assert gr.canonical_form(gr.path(3)).decode() in hit_keys
    assert gr.canonical_form(gr.cycle(5)).decode() not in hit_keys


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


@pytest.mark.parametrize("trials", [0, -3, 2.5])
def test_property_suite_rejects_fewer_than_one_trial(trials):
    with pytest.raises(InvalidParameterError, match="trials"):
        verify.property_suite(seed=0, trials=trials)


def test_property_suite_failure_names_its_trial(monkeypatch):
    monkeypatch.setattr(cx, "is_flag", lambda M: False)
    failures = verify.property_suite(seed=0, trials=2)["failures"]
    assert [(f["check"], f["trial"]) for f in failures] == [("flag", 0), ("flag", 1)]


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
                                    "2-manifold-with-boundary", "disconnected-complex"])
def test_pruned_search_matches_unpruned_oracle(target, connected_only, monkeypatch):
    s = spec(target=target, max_edges=9, connected_only=connected_only)
    pruned = verify.run_search(s)
    with monkeypatch.context() as m:
        # a graph has no more matching edges than edges: this cap never binds
        m.setattr(verify.SearchSpec, "matching_cap", lambda self: self.max_edges)
        oracle = verify.run_search(s)
    assert oracle.pruning["augmentations_pruned"] == 0
    cap = 2 if target in ("1-sphere", "disconnected-complex") else 3
    assert pruned.pruning["rule"] == f"matching number <= {cap}"
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
        # the stub passes every graph on with the row's own status
        status = catalog._MANIFOLD_TARGETS[target][1]
        m.setattr(verify, "_ridge_prefilter", lambda g, d: status)
        unfiltered = verify.run_search(s)
    assert filtered.to_dict(include_timing=False) == unfiltered.to_dict(include_timing=False)


def test_sphere_only_targets_reject_the_torus():
    # K43 is the only closed non-sphere surface within the search budgets,
    # and its 12 edges lie beyond the 2-sphere search of criterion 3
    k43 = gr.complete_bipartite(4, 3)
    assert verify._evaluate(k43, "2-sphere", 2, 3) is None
    entry, anomaly = verify._evaluate(k43, "closed-2-manifold", 2, 3)
    assert entry["class"] == "Torus" and anomaly is None


@st.composite
def _graphs_up_to(draw, max_n=8):
    """A graph on 1 to max_n vertices with any edge subset, disconnected
    included."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return n, (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(_graphs_up_to())
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
    # without boundary, disconnected graphs included, and the status it
    # allows is the manifold's own
    n, pairs = case
    g = gr.Graph(n, pairs)
    v = manifold.check_manifold(cx.matching_complex(g), 2)
    if v.is_manifold:
        assert verify._ridge_prefilter(g, v.dimension) == v.status


def _prefilter_matches_the_oracle(g):
    # the one status the walk returns is the one kind the oracle accepts
    for d in range(-1, 5):
        status = verify._ridge_prefilter(g, d)
        for boundary, kind in ((False, manifold.STATUS_CLOSED),
                               (True, manifold.STATUS_WITH_BOUNDARY)):
            assert ((status == kind)
                    == oracle_utils.oracle_ridge_prefilter(g, d, boundary)), (g, d, boundary)


def test_ridge_prefilter_matches_the_facet_oracle_on_every_class():
    classes = [g for level in oracle_utils.connected_graph_classes(8, 10) for g in level]
    assert len(classes) == 358
    for g in classes:
        _prefilter_matches_the_oracle(g)


@settings(max_examples=300, deadline=None)
@given(_graphs_up_to())
@example((1, []))  # d = -1: no edge
@example((3, [(0, 1), (0, 2), (1, 2)]))  # K3, d = 0: pairwise meeting edges
@example((4, [(0, 1), (0, 2), (0, 3)]))  # K1,3, d = 0
@example((4, [(0, 1), (2, 3)]))  # 2P2, d = 1: a segment, each end in 1 facet
@example((6, [(0, 1), (2, 3), (4, 5)]))  # 3P2, d = 1: a 3-matching
def test_ridge_prefilter_matches_the_facet_oracle(case):
    _prefilter_matches_the_oracle(gr.Graph(*case))


def test_ridge_prefilter_small_dimensions():
    # the empty ridge is not counted, so for d <= 0 only the facet size is
    # checked; each ridge of 3P2 at d = 1 avoids two disjoint edges, and at
    # d = 2 it is a triangle, each ridge in 1 facet
    closed, with_boundary = manifold.STATUS_CLOSED, manifold.STATUS_WITH_BOUNDARY
    cases = {
        ((1, ()), -1): closed,
        ((2, ((0, 1),)), -1): None,
        ((3, ((0, 1), (0, 2), (1, 2))), 0): closed,
        ((4, ((0, 1), (0, 2), (0, 3))), 0): closed,
        ((4, ((0, 1), (2, 3))), 0): None,
        ((4, ((0, 1), (2, 3))), 1): with_boundary,
        ((6, ((0, 1), (2, 3), (4, 5))), 1): None,
        ((6, ((0, 1), (2, 3), (4, 5))), 2): with_boundary,
    }
    for ((n, pairs), d), want in cases.items():
        g = gr.Graph(n, pairs)
        assert verify._ridge_prefilter(g, d) == want, (g, d)
        for boundary, kind in ((False, closed), (True, with_boundary)):
            assert (oracle_utils.oracle_ridge_prefilter(g, d, boundary)
                    is (want == kind)), (g, d, boundary)


@settings(max_examples=300, deadline=None)
@given(_graphs_up_to())
@example((1, []))
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]))  # P5: the pendant slot is free
@example((7, [(i, 4 + j) for i in range(4) for j in range(3)]))  # K43
def test_free_pairs_match_brute_maximum_matchings(case):
    n, pairs = case
    g = gr.Graph(n, pairs)
    brute = oracle_utils.brute_matchings(g)
    nu = max(map(len, brute))
    uncovered = [set(range(n + 1)) - {x for i in m for x in g.edges[i]}
                 for m in brute if len(m) == nu]
    free = verify._free_pairs(g, gr.matching_number(g))
    for u in range(n + 1):
        for w in range(n + 1):
            assert bool(free[u] >> w & 1) == any(
                u in f and w in f for f in uncovered), (u, w)


def test_inherited_free_pairs_match_the_full_walk(monkeypatch):
    # every parent of the levels gets its masks from its own parent's and
    # the matchings through its last edge; the full walk agrees
    real = verify._free_pairs
    walks = {"full": 0, "inherited": 0}

    def checked(g, nu, origin=None):
        rows = real(g, nu, origin)
        if origin is None:
            walks["full"] += 1
        else:
            walks["inherited"] += 1
            assert rows == real(g, nu), (g.edges, origin[1:])
        return rows

    verify.clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(verify, "_free_pairs", checked)
            for cap in (None, 2, 3):
                verify._levels(11, 10, cap)
    finally:
        verify.clear_caches()  # no checked level outlives the test
    # the root P2 of each cap is walked in full, every other parent inherits
    assert walks == {"full": 3, "inherited": 4542}


@st.composite
def _connected_addition(draw):
    g = draw(_connected(max_extra=4))
    n = g.vertex_count
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n + 1)
             if v == n or not g.adj[u] >> v & 1]
    return g, draw(st.sampled_from(pairs))


@settings(max_examples=300, deadline=None)
@given(_connected_addition())
@example((gr.path(4), (0, 3)))  # inner, nu unchanged: C4
@example((gr.path(3), (0, 2)))  # inner, nu unchanged: K3
@example((gr.Graph(4, [(0, 1), (2, 3), (1, 2)]), (0, 2)))  # inner, nu unchanged: the paw
@example((gr.star(3), (1, 2)))  # inner, nu rises: a triangle with a pendant
@example((gr.path(3), (1, 3)))  # pendant, nu unchanged: K1,3
@example((gr.path(3), (0, 3)))  # pendant, nu rises: P4
@example((gr.path(2), (0, 2)))  # pendant from the root
def test_free_pairs_through_the_new_edge_match_brute_matchings(case):
    # the masks of P + (u, v) built from P's, inner and pendant additions,
    # with and without a rise in nu, against the brute maximum matchings
    p, (u, v) = case
    n = p.vertex_count
    g = gr.Graph(n + (v == n), p.edges + ((u, v),))
    nu_p, nu = gr.matching_number(p), gr.matching_number(g)
    origin = (verify._free_pairs(p, nu_p), g.edges.index((u, v)), nu - nu_p, v == n)
    free = verify._free_pairs(g, nu, origin)
    brute = oracle_utils.brute_matchings(g)
    slots = g.vertex_count + 1
    uncovered = [set(range(slots)) - {x for i in m for x in g.edges[i]}
                 for m in brute if len(m) == nu]
    for a in range(slots):
        for b in range(slots):
            assert bool(free[a] >> b & 1) == any(
                a in f and b in f for f in uncovered), (a, b)


@settings(max_examples=300, deadline=None)
@given(_graphs_up_to(9))
@example((6, [(0, 1), (2, 3), (4, 5)]))  # 3P2: a triangle
@example((7, [(i, 4 + j) for i in range(4) for j in range(3)]))  # K43: a torus
def test_matching_number_three_gives_a_connected_complex(case):
    # the lemma of the module docstring: a maximum matching spans a clique
    # of the 1-skeleton that every other edge is adjacent to
    g = gr.Graph(*case)
    if gr.matching_number(g) >= 3:
        assert verify._skeleton_connected(g)
        assert not verify._expects_disconnected(g)


def test_pruning_entry_pinned():
    closed = verify.run_search(spec(target="closed-2-manifold", max_edges=10))
    assert closed.to_dict(include_timing=False)["pruning"] == {
        "rule": "matching number <= 3",
        "connected_classes_kept": sum([1, 1, 3, 5, 12, 30, 74, 173, 364, 595]),
        "augmentations_pruned": 4958,
    }
    # nu >= 3 makes M(G) connected, so the disconnected search is capped at
    # 2; test_pruned_search_matches_unpruned_oracle checks it loses no hit
    disconnected = verify.run_search(spec(target="disconnected-complex", max_edges=5))
    assert disconnected.to_dict(include_timing=False)["pruning"] == {
        "rule": "matching number <= 2",
        "connected_classes_kept": 20,
        "augmentations_pruned": 5,
    }
    assert disconnected.spec.matching_cap() == 2


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
            # every child reaches the canonical-form dedupe, and shares one
            # invariant bucket with every other child of its level: neither
            # the row's leaf rule nor the canonical-deletion test drops one
            m.setattr(verify, "_leaf_row", lambda n, leaves, u: -1)
            m.setattr(verify, "_canonical_child", lambda parent, u, v: 0)
            oracle_levels = [_level_forms(oracle_utils.connected_graph_classes(e, 10, cap))
                             for e, cap in budgets]
            oracle_reports = [verify.run_search(s).to_dict(include_timing=False)
                              for s in specs]
    finally:
        verify.clear_caches()  # no oracle level outlives the test
    levels = [_level_forms(oracle_utils.connected_graph_classes(e, 10, cap))
              for e, cap in budgets]
    assert levels == oracle_levels
    reports = [verify.run_search(s).to_dict(include_timing=False) for s in specs]
    assert reports == oracle_reports


def test_orbit_pruning_matches_unpruned_levels(monkeypatch):
    def build():
        verify.clear_caches()
        out = []
        for cap in (None, 2, 3):
            lv = verify._levels(11, 10, cap)
            out.append(([[g.edges for g in level] for level in lv.graphs[:12]],
                        lv.nu[:12], lv.pruned[:12]))
        return out

    try:
        with monkeypatch.context() as m:
            # every vertex its own twin class and no parent automorphism: each
            # addition that passes the canonical-deletion test reaches the
            # canonical-form dedupe
            m.setattr(gr, "_twins", lambda adj: list(range(len(adj))))
            m.setattr(gr, "_automorphisms", lambda g: [])
            oracle = build()
    finally:
        verify.clear_caches()  # no oracle level outlives the test
    assert build() == oracle


def test_level_graphs_equal_their_checked_builds():
    # each accepted child is built without the constructor's checks, from
    # its parent's sorted edges and the new pair
    levels = oracle_utils.connected_graph_classes(11, 10, 3)
    assert sum(map(len, levels)) > 1000
    for level in levels:
        for g in level:
            checked = gr.Graph(g.vertex_count, reversed(g.edges))
            assert (g.vertex_count, g.edges, g.adj, g.has_isolated_vertices) == (
                checked.vertex_count, checked.edges, checked.adj, checked.has_isolated_vertices)


@st.composite
def _connected(draw, max_extra=None):
    n = draw(st.integers(2, 8))
    # a random spanning tree plus random further edges
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    extra = (draw(st.lists(st.sampled_from(rest), unique=True, max_size=max_extra))
             if rest else [])
    return gr.Graph(n, tree + extra)


def _parent(g):
    return verify._Parent(g, sum(1 << x for x in range(g.vertex_count) if g.degree(x) == 1))


@st.composite
def _connected_edge_perm(draw):
    g = draw(_connected())
    edge = draw(st.sampled_from(g.edges))
    perm = draw(st.permutations(range(g.vertex_count)))
    return g, edge, perm


@settings(max_examples=300, deadline=None)
@given(_connected_edge_perm())
# two triangles joined by a bridge, the edge of top key: not removable
@example((gr.Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
          (2, 3), [5, 4, 3, 2, 1, 0]))
def test_canonical_deletion_invariant_under_relabelling(case):
    g, (u, v), perm = case
    h = oracle_utils.relabel(g, perm)
    assert (oracle_utils.is_canonical_deletion(list(g.adj), u, v)
            == oracle_utils.is_canonical_deletion(list(h.adj), perm[u], perm[v]))
    # some removable edge ranks highest, so every class has a parent
    assert any(oracle_utils.is_canonical_deletion(list(g.adj), a, b) for a, b in g.edges)


@settings(max_examples=300, deadline=None)
# few edges beyond a spanning tree, so that bridges and leaves are common
@given(_connected(max_extra=3), st.booleans())
# a triangle with a path 0-3-5-4: adding (3, 4) makes two triangles joined
# by the bridge (0, 3), which has top key and stays a bridge
@example(gr.Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 5), (4, 5)]), True)
def test_per_parent_verdicts_match_the_oracle(g, room):
    # every addition the generator makes to a connected parent, the pendant
    # slot v == n included unless the parent is at the vertex budget: the
    # row's leaf rule and the canonical-deletion test together
    n = g.vertex_count
    parent = _parent(g)
    for u in range(n):
        row = verify._leaf_row(n, parent.leaves, u)
        for v in range(u + 1, n + 1 if room else n):
            if g.adj[u] >> v & 1:
                continue
            adj = list(g.adj) + [0]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            want = (oracle_utils.degree_invariant(adj)
                    if oracle_utils.is_canonical_deletion(adj, u, v) else None)
            got = verify._canonical_child(parent, u, v) if row >> v & 1 else None
            assert got == want, (u, v)


@settings(max_examples=300, deadline=None)
@given(_connected(max_extra=3))
@example(gr.Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]))
def test_bridge_sides_match_the_oracle(g):
    # the side of edge (a, b) is what a reaches without it, 0 exactly when
    # b is among that
    parent = _parent(g)
    for i, (a, b) in enumerate(g.edges):
        got = oracle_utils.oracle_reachable(g.edges[:i] + g.edges[i + 1:], a)
        assert parent.side(i) == (0 if b in got else sum(1 << x for x in got))


def test_skeleton_connected_matches_the_complex():
    for level in oracle_utils.connected_graph_classes(7, 10):
        for g in level:
            assert verify._skeleton_connected(g) == cx.is_connected(cx.matching_complex(g))


def _counting(monkeypatch, name, module=gr):
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_prefilter_canonicalizes_each_class_about_once(monkeypatch):
    forms = _counting(monkeypatch, "canonical_form")
    searches = _counting(monkeypatch, "_automorphisms")
    tests = _counting(monkeypatch, "_canonical_child", verify)
    parents = _counting(monkeypatch, "_Parent", verify)
    real = verify._free_pairs
    full_walks = [0]

    def free_pairs(g, nu, origin=None):
        full_walks[0] += origin is None
        return real(g, nu, origin)

    monkeypatch.setattr(verify, "_free_pairs", free_pairs)
    verify.clear_caches()
    levels = oracle_utils.connected_graph_classes(11, 10, 3)
    # 2,065 classes.  Of the 20,182 children within the cap, the twin-orbit
    # rule leaves 13,621 and the leaf rule 5,218 for the canonical-deletion
    # test; without the invariant buckets the 2,484 that pass it would all
    # be canonicalized.
    # 187 parents have two children in one bucket and so an automorphism
    # search, which drops the repeats within one of their orbits: 200 forms
    # remain, against 1,161 without the orbit pruning
    assert sum(map(len, levels)) == 2065
    assert tests[0] == 5218
    assert searches[0] == 187
    assert forms[0] == 200
    # the 1,258 parents are the classes up to 10 edges; every maximum
    # matching is walked only for the root P2, and the 161 parents whose
    # every addition fails the cap, twin or leaf mask build no _Parent
    assert sum(map(len, levels[:11])) == 1258
    assert full_walks[0] == 1
    assert parents[0] == 1258 - 161


_CLASSES_TO_6 = [g for level in oracle_utils.connected_graph_classes(6, 10) for g in level]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_CLASSES_TO_6), min_size=2, max_size=3))
@example([gr.path(2), gr.path(2)])  # 2K2, the one union on 4 vertices
@example([gr.path(3), gr.path(2)])
@example([gr.complete(4), gr.cycle(4), gr.star(3)])
def test_search_rejects_every_union_exactly(parts):
    # the disconnected-complex search rejects such a union by its skeleton,
    # and nothing predicts it disconnected: the join of the components'
    # complexes is connected
    g = gr.disjoint_union(parts)
    assert verify._skeleton_connected(g)
    assert not verify._expects_disconnected(g)
    assert cx.is_connected(cx.matching_complex(g))


# sha256 of run_search(...).to_json(include_timing=False)
REPORT_DIGESTS = {
    ("1-sphere", 8):
        "0c3daf7625a2ea52f5725f7c0f8e0dac12932c7b13d821dc951c5ab501982042",
    ("2-sphere", 10):
        "a12c0bcc292322d39e4ac5483286fbda5a8c9ec63a43e23f0c0cdce832f6f757",
    ("closed-2-manifold", 11):
        "f09226d370a219224c9be0ea2aa5dfb8150f9e31e8ab019c3daa2963dde15113",
    ("2-manifold-with-boundary", 11):
        "f061dfcc3902a73dc46764fbec478588d455be92519dc0c30f6020130b73aced",
    ("disconnected-complex", 9):
        "3b51f71f484113331da63f9b46c1aed287bd326e94f6dc204682a3ca36e38b82",
}


@pytest.mark.parametrize("target,max_edges", sorted(REPORT_DIGESTS))
def test_search_reports_pinned(target, max_edges):
    report = verify.run_search(spec(target=target, max_edges=max_edges))
    digest = hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[target, max_edges]


def test_search_call_counts_pinned(monkeypatch):
    forms = _counting(monkeypatch, "canonical_form")
    unions = _counting(monkeypatch, "disjoint_union")
    verify.clear_caches()
    report = verify.run_search(spec(target="disconnected-complex", max_edges=9))
    # the levels within the cap nu <= 2 need no form, 56 key the hits and
    # predictions; the unions are the pairs of nu = 1 components, built and
    # rejected by their skeleton.  Under a cap that never binds the search
    # examines 1,807 graphs with 306 forms and finds the same report apart
    # from the counts (test_pruned_search_matches_unpruned_oracle)
    assert forms[0] == 56
    assert unions[0] == 23
    assert report.graphs_examined == 131


def test_closed_search_call_counts_pinned(monkeypatch):
    # the benchmark's search-closed workload
    forms = _counting(monkeypatch, "canonical_form")
    unions = _counting(monkeypatch, "disjoint_union")
    complexes = _counting(monkeypatch, "matching_complex", cx)
    verify.clear_caches()
    report = verify.run_search(spec(target="closed-2-manifold", max_edges=11))
    # 200 forms build the levels (see above), 6 key the hits and the
    # expected graphs
    assert forms[0] == 206
    assert unions[0] == 318
    # only the graphs that pass the ridge prefilter build a complex
    assert complexes[0] == 3
    assert report.graphs_examined == 2370


def test_ridge_prefilter_lists_no_facets(monkeypatch):
    # the prefilter reads the ridges' cofacets off the graph: it lists no
    # maximal matching and counts no ridge of a facet list, so over the
    # closed-surface search only its 3 survivors' complexes list facets.
    # It runs once per examined graph, whatever the status it returns
    matchtop.clear_caches()  # so no component walk is served by the walk table
    facets = _counting(monkeypatch, "_maximal_matching_masks")
    ridges = _counting(monkeypatch, "_ridge_cofacets", cx)
    prefilter, evaluate = verify._ridge_prefilter, verify._evaluate
    survivors = []
    rejected_walks = [0]
    calls = [0]

    def counted_prefilter(g, d):
        calls[0] += 1
        before = facets[0], ridges[0]
        status = prefilter(g, d)
        assert (facets[0], ridges[0]) == before
        if status == manifold.STATUS_CLOSED:
            survivors.append(g)
        return status

    def counted_evaluate(g, *args):
        before, kept = facets[0], len(survivors)
        out = evaluate(g, *args)
        if len(survivors) == kept:
            rejected_walks[0] += facets[0] - before
        return out

    monkeypatch.setattr(verify, "_ridge_prefilter", counted_prefilter)
    monkeypatch.setattr(verify, "_evaluate", counted_evaluate)
    report = verify.run_search(spec(target="closed-2-manifold", max_edges=11))
    assert report.graphs_examined == 2370
    assert calls[0] == 2370
    assert len(survivors) == 3
    assert rejected_walks[0] == 0


@st.composite
def _graph_perm(draw):
    n, pairs = draw(_graphs_up_to())
    return gr.Graph(n, pairs), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(_graph_perm())
# neighbour sums of 256, beyond one byte per vertex
@example((gr.complete(17), list(range(16, -1, -1))))
@example((gr.star(18), [18] + list(range(18))))  # 19 vertices
def test_invariant_unchanged_by_relabelling(case):
    g, perm = case
    inv = oracle_utils.degree_invariant(list(g.adj))
    assert inv == oracle_utils.degree_invariant(list(oracle_utils.relabel(g, perm).adj))
    # the generator keeps the spare slot of a non-pendant child as an
    # isolated vertex
    assert inv == oracle_utils.degree_invariant(list(g.adj) + [0])


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


def _caches_at_import():
    """{"module.name": dict} for every module-level dict of the package that
    a fresh interpreter holds empty after ``import matchtop``: the caches
    ``matchtop.clear_caches()`` must empty, the next one added included."""
    src = Path(matchtop.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, matchtop\n"
         "print(json.dumps(sorted(f'{m[9:]}.{k}' for m, mod in sys.modules.items()\n"
         "    if m.startswith('matchtop.') for k, v in vars(mod).items()\n"
         "    if type(v) is dict and not v and not k.startswith('__'))))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = {}
    for name in json.loads(proc.stdout):
        module, attr = name.split(".")
        out[name] = getattr(sys.modules[f"matchtop.{module}"], attr)
    return out


def test_clear_caches_keeps_reports():
    s = spec(target="2-manifold-with-boundary", max_edges=7)
    before = verify.run_search(s).to_dict(include_timing=False)
    big = cx.matching_complex(gr.spider(9))
    big_betti = homology.betti_reduced(big, 2)
    cx.matching_complex(gr.disjoint_union([gr.path(3), gr.cycle(5)]))  # fills the walk table
    catalog.predict(gr.cycle(5))  # fills the small-basics table
    catalog.catalog_names()  # fills the name registry
    tables = (catalog._exceptional_graphs, catalog._disconnected_balls,
              catalog._small_basics, catalog._registry)
    caches = _caches_at_import()
    assert {"complexes._facts", "complexes._walks", "verify._LEVELS"} <= set(caches)
    assert all(caches.values()), [name for name, cache in caches.items() if not cache]
    for table in tables:
        assert table.cache_info().currsize > 0
    matchtop.clear_caches()
    assert not any(caches.values()), [name for name, cache in caches.items() if cache]
    for table in tables:
        assert table.cache_info().currsize == 0
    assert verify.run_search(s).to_dict(include_timing=False) == before
    assert homology.betti_reduced(cx.matching_complex(gr.spider(9)), 2) == big_betti


def test_one_table_keeps_what_is_known_per_facet_set():
    # a facet set's split, Betti numbers at each prime, link-shape children
    # and summaries, verdicts, boundary span and boundary Betti numbers are
    # kept in its one complexes._facts entry, and no other package dict
    # fills but the table of component walks, which maps graphs, not facet
    # sets
    caches = _caches_at_import()
    matchtop.clear_caches()
    sphere, ball = (cx.matching_complex(gr.disjoint_union(parts))
                    for parts in ([gr.path(3), gr.cycle(5)], [gr.spider(3), gr.path(2)]))
    recorded = {M.facet_masks: cx._facts[M.facet_masks]["split"] for M in (sphere, ball)}
    for M, cls in ((sphere, "Sphere(2)"), (ball, "Ball(3)")):
        assert str(manifold.classify(M, manifold.check_manifold(M, 2), (2, 3))) == cls
    assert {name for name, cache in caches.items() if cache} == {"complexes._facts",
                                                                 "complexes._walks"}
    for facets, split in recorded.items():
        assert len(split) == 2 and cx._facts[facets]["split"] is split
    factors = [factor for split in recorded.values() for factor in split]
    assert any(all(isinstance(e.get(p), homology.BettiVector) for p in (2, 3)) and "summary" in e
               for e in factors)
    # the factor M(spider 3) keeps its boundary span, and the point its ∂ = {∅}
    spider, point = recorded[ball.facet_masks]
    assert spider["span"] and point["span"][0] == 0 and point["span"][1] is cx._facts[(0,)]
    assert all(set(cx._facts[M.facet_masks]["verdict"]) == {2} for M in (sphere, ball))
    # the entry format, after the small criterion-6 joins and a closed
    # search: its facets, a few named slots and the Betti vector under each
    # prime; a verdict keeps its witness as a mask, not as labels, and a
    # summary keeps flags and sizes, no Betti vector
    for g, _ in _join_arithmetic_cases(face_cap=400):
        M = cx.matching_complex(g)
        manifold.classify(M, manifold.check_manifold(M, 2), (2, 3))
    verify.run_search(spec(target="closed-2-manifold", max_edges=9))
    slots = {"facets", "split", "table", "children", "summary", "verdict", "span",
             "boundary_betti"}
    for facets, entry in cx._facts.items():
        assert entry["facets"] is facets
        assert all(k in slots or type(k) is int and homology._is_prime(k) for k in entry), facets
        assert all(type(v[2]) in (int, type(None)) for v in entry.get("verdict", {}).values())
        assert all(type(x) in (int, bool) for got in entry.get("summary", {}).values()
                   for x in got)
