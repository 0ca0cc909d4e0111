import itertools
import math
import random
from unittest import mock

import matchtop
import pytest
from hypothesis import example, given, settings, strategies as st

from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import manifold as mf
from matchtop import verify
from matchtop.errors import (
    FaceNotInComplexError,
    TooLargeError,
    VoidComplexError,
)

import oracle_utils


def random_graph(rng, n_max=9, m_max=12):
    while True:
        n = rng.randint(2, n_max)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(1, min(m_max, len(pairs)))
        g = gr.Graph(n, rng.sample(pairs, m))
        if not g.has_isolated_vertices:
            return g


def cycle_complex(n):
    return cx.from_facets(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_complex(n):
    return cx.from_facets(range(n), [(i, i + 1) for i in range(n - 1)])


def test_from_facets_absorption_and_corner_cases():
    c = cx.from_facets([0, 1], [(0, 1), (1,)])
    assert c.facets() == [(0, 1)]
    empty = cx.from_facets([], [()])
    assert empty.is_empty_only() and empty.dimension == -1


def test_no_void_complex():
    # every complex has the empty face, so no facets is no complex
    for labels in ([], None, [0, 1]):
        with pytest.raises(VoidComplexError):
            cx.from_facets(labels, [])


def test_from_facets_idempotent():
    c = cx.from_facets(None, [(0, 1, 2), (1, 2), (3,)])
    again = cx.from_facets(c.labels, c.facets())
    assert again == c


def test_matching_complex_k32_is_hexagon():
    M = cx.matching_complex(gr.complete_bipartite(3, 2))
    assert M.vertex_count == 6 and M.dimension == 1
    assert gr.canonical_form(cx.one_skeleton(M)) == gr.canonical_form(gr.cycle(6))


def test_matching_complex_banner_is_path():
    M = cx.matching_complex(gr.banner())
    assert M.vertex_count == 5 and M.dimension == 1
    assert gr.canonical_form(cx.one_skeleton(M)) == gr.canonical_form(gr.path(5))


def test_matching_complex_k4_three_disjoint_edges():
    M = cx.matching_complex(gr.complete(4))
    assert M.vertex_count == 6
    assert sorted(len(f) for f in M.facets()) == [2, 2, 2]
    assert not cx.is_connected(M)


def test_matching_complex_of_edgeless_graph():
    g = gr.Graph(3, [])
    M = cx.matching_complex(g)
    assert M.is_empty_only()


def test_matching_complex_checks_the_face_cap_first(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("maximal matchings enumerated past the face cap")

    cx.clear_caches()  # a walk served by the walk table would hide a late check
    monkeypatch.setattr(gr, "_maximal_matching_masks", enumerate_nothing)
    g = gr.Graph(2 * (cx.FACE_VERTEX_CAP + 1),
                 [(2 * i, 2 * i + 1) for i in range(cx.FACE_VERTEX_CAP + 1)])
    with pytest.raises(TooLargeError):
        cx.matching_complex(g)


def test_link_examples():
    cx.clear_caches()
    tri = cx.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    lk = cx.link(tri, [0])
    assert set(lk.labels) == {1, 2}
    assert lk.facets() == [(1,), (2,)]
    full = cx.from_facets(range(3), [(0, 1, 2)])
    assert cx.link(full, [0, 1, 2]).is_empty_only()
    M = cx.matching_complex(gr.cycle(6))
    assert cx.link(M, []) == M
    with pytest.raises(FaceNotInComplexError):
        cx.link(tri, [0, 1, 2])
    assert "table" not in cx._facts.get(tri.facet_masks, {})  # the face check scans the facets


def test_link_equals_avoided_subgraph_complex():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng)
        M = cx.matching_complex(g)
        face = rng.choice(gr.enumerate_matchings(g))
        lk = cx.link(M, face)
        sub, index_map = gr.subgraph_avoiding(g, face)
        M2 = cx.matching_complex(sub)
        assert {index_map[l] for l in lk.labels} == set(M2.labels)
        mapped = {frozenset(index_map[l] for l in f) for f in lk.facets()}
        assert mapped == {frozenset(f) for f in M2.facets()}


def test_join_identity_and_squares():
    empty = cx.from_facets([], [()])
    M = cx.matching_complex(gr.cycle(5))
    assert cx.join(M, empty) == M
    s0 = cx.matching_complex(gr.path(3))
    square = cx.join(s0, s0)
    assert square.dimension == 1
    assert gr.canonical_form(cx.one_skeleton(square)) == gr.canonical_form(gr.cycle(4))


def test_union_complex_equals_join():
    rng = random.Random(6)
    for _ in range(60):
        g1 = random_graph(rng, n_max=6, m_max=7)
        g2 = random_graph(rng, n_max=6, m_max=7)
        direct = cx.matching_complex(gr.disjoint_union([g1, g2]))
        joined = cx.join(cx.matching_complex(g1), cx.matching_complex(g2))
        assert direct == joined


@st.composite
def _disjoint_unions(draw):
    """A disjoint union of 2-4 random graphs, edgeless and one-edge ones
    included, its vertices permuted so that the parts' labels interleave."""
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5)) if pairs else []
        parts.append(gr.Graph(n, edges))
    g = gr.disjoint_union(parts)
    return oracle_utils.relabel(g, draw(st.permutations(range(g.vertex_count))))


@settings(max_examples=200, deadline=None)
@given(_disjoint_unions())
@example(gr.disjoint_union([gr.path(2), gr.path(2)]))
@example(gr.Graph(7, [(0, 6), (1, 5), (1, 3), (2, 4)]))
@example(gr.Graph(4, [(1, 2)]))
def test_graph_born_joins_match_the_walk(g):
    # the facets built per component are the whole graph's maximal
    # matchings, and the split recorded with them is the walk's
    M = cx.matching_complex(g)
    assert M.facet_masks == tuple(sorted(gr._maximal_matching_masks(g)))
    walked = cx._split(M.facet_masks)
    parts = len(gr.connected_components(g)[0])
    if parts > 1:
        # the same factors, each the one entry of its facet set
        recorded = cx._facts[M.facet_masks]["split"]
        assert len(walked) == parts
        assert all(a is b is cx._facts[a["facets"]] for a, b in zip(recorded, walked, strict=True))
    else:
        assert walked is None
    assert cx._join_factors(cx._facts_of(M.facet_masks)) == walked


@st.composite
def _connected_graphs(draw):
    """A connected graph on 2 to 4 vertices: a random tree with up to two
    more edges, its vertices permuted, so that one shape comes with
    several numberings."""
    n = draw(st.integers(2, 4))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = sorted(set(itertools.combinations(range(n), 2)) - edges)
    if rest:
        edges |= set(draw(st.lists(st.sampled_from(rest), unique=True, max_size=2)))
    return oracle_utils.relabel(gr.Graph(n, sorted(edges)), draw(st.permutations(range(n))))


def _walked(parts):
    """The matching complex of the union of parts and the number of walks
    its build made."""
    with mock.patch.object(gr, "_maximal_matching_masks",
                           wraps=gr._maximal_matching_masks) as walk:
        M = cx.matching_complex(gr.disjoint_union(parts))
    return M, walk.call_count


@settings(max_examples=150, deadline=None)
@given(st.lists(_connected_graphs(), min_size=1, max_size=3).flatmap(
    lambda shapes: st.lists(st.sampled_from(shapes), min_size=1, max_size=3)))
@example([gr.path(3)] * 3)
@example([gr.path(2), gr.Graph(2, [(0, 1)]), gr.Graph(3, [(0, 2), (1, 2)]), gr.path(3)])
def test_component_walks_match_brute_maximal_matchings(parts):
    # cold, each distinct component numbering is walked once; warm, in
    # either order, none is (a connected graph is walked for itself each
    # time); every build has the brute-force facets and records the walk's
    # split
    cx.clear_caches()
    for order, cold in ((parts, True), (parts[::-1], False), (parts, False)):
        g = gr.disjoint_union(order)
        M, walks = _walked(order)
        assert walks == (1 if len(order) == 1 else len({h.edges for h in order}) if cold else 0)
        assert sorted(M.facets()) == sorted(oracle_utils.brute_maximal_matchings(g))
        recorded = cx._facts.get(M.facet_masks, {}).get("split")
        assert recorded == cx._split(M.facet_masks)
        assert (recorded is None) == (len(order) == 1)


def test_one_walk_per_component_shape():
    matchtop.clear_caches()
    p2, p3, c5 = gr.path(2), gr.path(3), gr.cycle(5)
    walks = sum(_walked(parts)[1] for parts in ([p3, p3, p3], [p3, c5], [c5, c5, p2]))
    assert walks == 3 and len(cx._walks) == 3
    matchtop.clear_caches()
    assert not cx._walks


def test_a_connected_graph_gives_no_join():
    # the lemma of _join_factors: L(G) is connected, so the walk finds one
    # component and no split
    levels = oracle_utils.connected_graph_classes(7, 8)
    assert sum(map(len, levels[2:])) > 100
    for level in levels[2:]:
        for g in level:
            assert cx._split(cx.matching_complex(g).facet_masks) is None


def test_join_dimension_adds():
    c1 = cx.matching_complex(gr.cycle(5))
    c2 = cx.matching_complex(gr.complete_bipartite(3, 2))
    assert cx.join(c1, c2).dimension == c1.dimension + c2.dimension + 1


def test_f_vector_and_euler():
    M = cx.matching_complex(gr.complete_bipartite(4, 3))
    fv = cx.f_vector(M)
    assert fv.positive == (12, 36, 24)
    assert fv.counts[0] == 1
    assert fv.euler_characteristic() == 0
    tri = cx.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    assert cx.f_vector(tri).positive == (3, 3)
    assert cx.f_vector(tri).euler_characteristic() == 0
    M = cx.matching_complex(gr.spider(3))
    assert cx.f_vector(M).positive == (6, 9, 4)
    assert cx.f_vector(M).euler_characteristic() == 1


def test_flag_property_random():
    rng = random.Random(9)
    for _ in range(200):
        assert cx.is_flag(cx.matching_complex(random_graph(rng)))


def test_flag_counterexamples():
    hollow = cx.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    assert not cx.is_flag(hollow)
    full = cx.from_facets(range(4), [(0, 1, 2, 3)])
    assert cx.is_flag(full)


def test_connectivity_and_diameter():
    assert not cx.is_connected(cx.matching_complex(gr.cycle(4)))
    assert cx.diameter(cx.matching_complex(gr.cycle(4))) == math.inf
    assert cx.diameter(cycle_complex(6)) == 3
    rng = random.Random(10)
    checked = 0
    while checked < 200:
        M = cx.matching_complex(random_graph(rng))
        if not cx.is_connected(M):
            continue
        assert cx.diameter(M) <= 4
        checked += 1


@st.composite
def _complexes(draw):
    """A complex on 0-8 labels from random faces, so unused labels, {∅}
    and faces that are not maximal all occur."""
    n = draw(st.integers(0, 8))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=4) if n else st.just(set()),
                          min_size=1, max_size=6))
    return cx.from_facets(range(n), faces)


@settings(max_examples=300, deadline=None)
@given(_complexes(), _complexes())
@example(cx.from_facets((), [()]), cx.from_facets(range(3), [(0, 1), (2,)]))
@example(cx.from_facets(range(3), [(0, 1), (2,)]), cx.from_facets((), [()]))
@example(cx.from_facets([4, 9], [(4,), (9,)]), cx.from_facets([-2, 5, 7], [(-2, 5, 7)]))
def test_join_is_every_union_of_facets(c1, c2):
    # the labels of c2 move past those of c1, and the facets are all unions
    # of a facet of each, with no redundant one to absorb
    offset = c1.labels[-1] + 1 - c2.labels[0] if c1.labels and c2.labels else 0
    labels = c1.labels + tuple(lab + offset for lab in c2.labels)
    unions = [f1 + tuple(lab + offset for lab in f2) for f1 in c1.facets() for f2 in c2.facets()]
    assert cx.join(c1, c2) == cx.from_facets(labels, unions)


@settings(max_examples=300, deadline=None)
@given(_complexes())
@example(cx.from_facets(range(3), [()]))
@example(cx.from_facets(range(5), [(0, 1, 2), (2, 4)]))
def test_one_skeleton_matches_the_face_table(c):
    pairs = [tuple(gr._bits(m)) for m in cx._faces_by_size(c.facet_masks).get(2, ())]
    assert cx.one_skeleton(c) == gr.Graph(c.vertex_count, pairs)


def test_skeleton_questions_build_no_face_table():
    # the 1-skeleton comes off the facets, so none of these needs the faces
    cx.clear_caches()
    M = cx.matching_complex(gr.disjoint_union([gr.complete_bipartite(4, 3), gr.path(3)]))
    cx.is_connected(M)
    cx.diameter(M)
    cx.is_flag(M)
    cx.has_induced_path6(M)
    assert not any("table" in entry for entry in cx._facts.values())


def test_induced_path6():
    rng = random.Random(12)
    for _ in range(200):
        assert not cx.has_induced_path6(cx.matching_complex(random_graph(rng)))
    assert cx.has_induced_path6(path_complex(6))
    assert cx.has_induced_path6(cycle_complex(7))
    assert not cx.has_induced_path6(cycle_complex(6))


def test_purity():
    assert not cx.is_pure(cx.matching_complex(gr.path(4)))
    assert cx.is_pure(cx.matching_complex(gr.complete_bipartite(3, 2)))


def test_faces_match_powerset_oracle():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, n_max=7, m_max=9)
        M = cx.matching_complex(g)
        expected = oracle_utils.brute_faces(M.facets())
        got = {frozenset(M.labels_of(m)) for m in M.faces()}
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 70).flatmap(lambda used: st.lists(
    st.integers(0, 1 << 70).map(lambda m: m & used), min_size=1, max_size=6)))
def test_reindex_matches_position_list(masks):
    used = 0
    for m in masks:
        used |= m
    positions = [i for i in range(used.bit_length()) if used >> i & 1]
    want = sorted(sum(1 << j for j, i in enumerate(positions) if m >> i & 1) for m in masks)
    assert cx._reindex(masks) == (used, tuple(want))


def test_the_constructor_cuts_its_masks_back():
    # the path {01, 12} given with a redundant, unsorted mask is the path
    path = cx.Complex([0, 1, 2], [3, 1, 6])
    assert path.facet_masks == (3, 6)
    assert path == cx.from_facets([0, 1, 2], [(0, 1), (1, 2)])
    assert mf.check_manifold(path, 2).status == mf.STATUS_WITH_BOUNDARY
    assert cx.Complex([], [0]).is_empty_only()
