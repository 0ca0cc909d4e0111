import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop.errors import (
    BadDimensionError,
    BadSubsetError,
    FaceNotInComplexError,
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
    void = cx.from_facets([], [])
    assert void.is_void
    with pytest.raises(VoidComplexError):
        void.dimension
    empty = cx.from_facets([], [()])
    assert empty.is_empty_only() and empty.dimension == -1


def test_from_facets_idempotent():
    c = cx.from_facets(None, [(0, 1, 2), (1, 2), (3,)])
    again = cx.from_facets(c.labels, c.facets())
    assert again == c


def test_matching_complex_k32_is_hexagon():
    M = cx.matching_complex(gr.complete_bipartite(3, 2))
    assert M.vertex_count == 6 and M.dimension == 1
    assert cx.are_isomorphic(M, cycle_complex(6))


def test_matching_complex_banner_is_path():
    M = cx.matching_complex(gr.banner())
    assert M.vertex_count == 5 and M.dimension == 1
    assert cx.are_isomorphic(M, path_complex(5))


def test_matching_complex_k4_three_disjoint_edges():
    M = cx.matching_complex(gr.complete(4))
    assert M.vertex_count == 6
    assert sorted(len(f) for f in M.facets()) == [2, 2, 2]
    assert not cx.is_connected(M)


def test_matching_complex_of_edgeless_graph():
    g = gr.Graph(3, [])
    M = cx.matching_complex(g)
    assert M.is_empty_only()


def test_link_examples():
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
    assert "faces" not in tri._cache  # the face check scans the facets


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
    assert cx.are_isomorphic(square, cycle_complex(4))


def test_union_complex_equals_join():
    rng = random.Random(6)
    for _ in range(60):
        g1 = random_graph(rng, n_max=6, m_max=7)
        g2 = random_graph(rng, n_max=6, m_max=7)
        direct = cx.matching_complex(gr.disjoint_union([g1, g2]))
        joined = cx.join(cx.matching_complex(g1), cx.matching_complex(g2))
        assert direct == joined


def test_join_dimension_adds():
    c1 = cx.matching_complex(gr.cycle(5))
    c2 = cx.matching_complex(gr.complete_bipartite(3, 2))
    assert cx.join(c1, c2).dimension == c1.dimension + c2.dimension + 1


def test_f_vector_and_euler():
    M = cx.matching_complex(gr.complete_bipartite(4, 3))
    fv = cx.f_vector(M)
    assert fv.positive == (12, 36, 24)
    assert fv.counts[0] == 1
    assert cx.euler_characteristic(M) == 0
    tri = cx.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    assert cx.f_vector(tri).positive == (3, 3)
    assert cx.euler_characteristic(tri) == 0
    M = cx.matching_complex(gr.spider(3))
    assert cx.f_vector(M).positive == (6, 9, 4)
    assert cx.euler_characteristic(M) == 1
    with pytest.raises(VoidComplexError):
        cx.f_vector(cx.from_facets([], []))


def test_flag_property_random():
    rng = random.Random(9)
    for _ in range(200):
        assert cx.is_flag(cx.matching_complex(random_graph(rng)))


def test_flag_counterexamples():
    hollow = cx.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    assert not cx.is_flag(hollow)
    assert cx.missing_faces(hollow) == [(0, 1, 2)]
    full = cx.from_facets(range(4), [(0, 1, 2, 3)])
    assert cx.is_flag(full)
    assert cx.missing_faces(full) == []


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


def test_induced_path6():
    rng = random.Random(12)
    for _ in range(200):
        assert not cx.has_induced_path6(cx.matching_complex(random_graph(rng)))
    assert cx.has_induced_path6(path_complex(6))
    assert cx.has_induced_path6(cycle_complex(7))
    assert not cx.has_induced_path6(cycle_complex(6))


def test_induced_subcomplex_matches_subgraph():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng)
        M = cx.matching_complex(g)
        k = rng.randint(1, len(g.edges))
        labels = sorted(rng.sample(range(len(g.edges)), k))
        sub = cx.induced_subcomplex(M, labels)
        verts = sorted({v for i in labels for v in g.edges[i]})
        vmap = {v: j for j, v in enumerate(verts)}
        spanned = gr.Graph(len(verts),
                               [(vmap[g.edges[i][0]], vmap[g.edges[i][1]]) for i in labels])
        M2 = cx.matching_complex(spanned)
        relabel = {new: old for new, old in enumerate(labels)}
        assert {frozenset(relabel[l] for l in f) for f in M2.facets()} == \
            {frozenset(f) for f in sub.facets()}
    with pytest.raises(BadSubsetError):
        cx.induced_subcomplex(cycle_complex(4), [9])


def test_purity_and_skeleton():
    assert not cx.is_pure(cx.matching_complex(gr.path(4)))
    assert cx.is_pure(cx.matching_complex(gr.complete_bipartite(3, 2)))
    full = cx.from_facets(range(4), [(0, 1, 2, 3)])
    skel = cx.skeleton(full, 1)
    assert len(skel.faces_by_size()[2]) == 6 and skel.dimension == 1
    with pytest.raises(BadDimensionError):
        cx.skeleton(full, 4)


def test_faces_match_powerset_oracle():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, n_max=7, m_max=9)
        M = cx.matching_complex(g)
        expected = oracle_utils.brute_faces(M.facets())
        got = {frozenset(M.labels_of(m)) for m in M.faces()}
        assert got == expected


def test_complex_isomorphism_invariance():
    M = cx.matching_complex(gr.complete_bipartite(3, 2))
    shifted = cx.from_facets([l + 5 for l in M.labels],
                             [tuple(l + 5 for l in f) for f in M.facets()])
    assert cx.are_isomorphic(M, shifted)
    assert not cx.are_isomorphic(M, path_complex(6))


def test_export_formats():
    c = cx.from_facets([2, 5, 7], [(2, 5), (7,)])
    text = cx.to_text(c)
    assert text.splitlines()[0] == "dim 1 2"
    assert "2 5" in text
    data = cx.to_json(c)
    assert '"labels": [2, 5, 7]' in data


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 70).flatmap(lambda used: st.tuples(
    st.just(used),
    st.lists(st.integers(0, 1 << 70).map(lambda m: m & used), min_size=1, max_size=6),
    st.booleans())))
def test_reindex_matches_position_list(case):
    used, masks, give_used = case
    if not give_used:
        used = 0
        for m in masks:
            used |= m
    positions = [i for i in range(used.bit_length()) if used >> i & 1]
    want = sorted(sum(1 << j for j, i in enumerate(positions) if m >> i & 1) for m in masks)
    assert cx._reindex(masks, used if give_used else 0) == (used, tuple(want))
