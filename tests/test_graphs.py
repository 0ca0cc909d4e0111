import random

import pytest
from hypothesis import example, given, settings, strategies as st

from matchtop import complexes as cx, graphs as gr, verify
from matchtop.errors import (
    DuplicateEdgeError,
    FormatError,
    LoopEdgeError,
    NotAMatchingError,
    TooLargeError,
    VertexOutOfRangeError,
)

import oracle_utils


def test_new_graph_normalizes():
    g = gr.Graph(3, [(1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert not g.has_isolated_vertices


def test_new_graph_rejects_loops_duplicates_range():
    with pytest.raises(LoopEdgeError):
        gr.Graph(2, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        gr.Graph(4, [(0, 1), (1, 0)])
    with pytest.raises(VertexOutOfRangeError):
        gr.Graph(2, [(0, 2)])


def test_isolated_vertex_flag():
    assert gr.Graph(3, [(0, 1)]).has_isolated_vertices
    assert not gr.Graph(2, [(0, 1)]).has_isolated_vertices


def test_named_families():
    assert gr.path(3).edges == ((0, 1), (1, 2))
    assert len(gr.cycle(5).edges) == 5
    assert len(gr.complete(4).edges) == 6
    assert len(gr.complete_bipartite(3, 2).edges) == 6
    assert gr.star(3).degree(0) == 3
    b = gr.banner()
    assert b.vertex_count == 5 and len(b.edges) == 5
    sp = gr.spider(3)
    assert sp.vertex_count == 7 and len(sp.edges) == 6
    assert sp.degree(0) == 3


def test_spider2_is_path5():
    assert gr.canonical_form(gr.spider(2)) == gr.canonical_form(gr.path(5))


def test_disjoint_union():
    u = gr.disjoint_union([gr.path(3), gr.path(3)])
    assert u.vertex_count == 6 and len(u.edges) == 4
    assert gr.disjoint_union([]).vertex_count == 0
    u = gr.disjoint_union([gr.path(2), gr.banner()])
    assert u.vertex_count == 7 and len(u.edges) == 6


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20).flatmap(lambda k: st.integers(0, (1 << k) - 1)))
@example(0)
@example((1 << 11) - 1)  # the last mask of the table
@example(1 << 11)  # the first one walked
def test_bits_table_matches_the_walk(mask):
    want = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert list(gr._bits(mask)) == list(gr._bit_walk(mask)) == want


def test_enumerate_matchings_small():
    assert gr.enumerate_matchings(gr.path(2)) == [(), (0,)]
    ms = gr.enumerate_matchings(gr.complete(4))
    assert len(ms) == 10
    by_size = {}
    for m in ms:
        by_size[len(m)] = by_size.get(len(m), 0) + 1
    assert by_size == {0: 1, 1: 6, 2: 3}


def test_enumerate_matchings_ordering():
    ms = gr.enumerate_matchings(gr.cycle(5))
    assert ms == sorted(ms, key=lambda t: (len(t), t))


def _maximal(g):
    """The maximal matchings as edge-index tuples, by size then lex order."""
    return sorted((tuple(gr._bits(m)) for m in gr._maximal_matching_masks(g)),
                  key=lambda t: (len(t), t))


@pytest.mark.parametrize("build", [
    lambda: gr.complete(4),
    lambda: gr.complete_bipartite(4, 3),
    lambda: gr.cycle(7),
    lambda: gr.spider(3),
])
def test_matchings_against_brute_force(build):
    g = build()
    assert sorted(gr.enumerate_matchings(g)) == sorted(oracle_utils.brute_matchings(g))
    assert _maximal(g) == oracle_utils.brute_maximal_matchings(g)


@st.composite
def _small_graphs(draw, n_min=1, n_max=8):
    """A graph on n_min to n_max vertices with any edge subset, so
    disconnected graphs, isolated vertices and edgeless graphs all occur."""
    n = draw(st.integers(n_min, n_max))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return gr.Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_maximal_matchings_match_brute_force(g):
    # the pruned recursion against filtering every edge subset
    assert _maximal(g) == oracle_utils.brute_maximal_matchings(g)
    # and the conflict masks it reads against pairwise vertex sharing
    assert g.edge_conflicts() == tuple(sum(1 << j for j, f in enumerate(g.edges) if set(e) & set(f))
                                       for e in g.edges)


def test_k43_matching_counts():
    ms = gr.enumerate_matchings(gr.complete_bipartite(4, 3))
    counts = {}
    for m in ms:
        counts[len(m)] = counts.get(len(m), 0) + 1
    assert counts == {0: 1, 1: 12, 2: 36, 3: 24}
    # alternating sum of the nonempty counts: 12 - 36 + 24 = 0
    assert 12 - 36 + 24 == 0


def test_equimatchable():
    assert gr.is_equimatchable(gr.spider(3))
    assert max(len(m) for m in _maximal(gr.spider(3))) == 3
    assert not gr.is_equimatchable(gr.path(4))
    sizes = {len(m) for m in _maximal(gr.path(4))}
    assert sizes == {1, 2}
    assert gr.is_equimatchable(gr.complete_bipartite(3, 2))


def test_equimatchable_iff_matching_complex_pure():
    # the maximal matchings are the facets: M(G) is pure exactly when G is
    # equimatchable, for every class within 8 edges
    for g in verify.enumerate_graphs(verify.SearchSpec("1-sphere", max_edges=8)):
        assert gr.is_equimatchable(g) == cx.is_pure(cx.matching_complex(g)), gr.to_graph6(g)


def test_constructor_parameter_errors():
    from matchtop.errors import InvalidParameterError
    for bad in (lambda: gr.path(0), lambda: gr.cycle(2), lambda: gr.complete(0),
                lambda: gr.complete_bipartite(0, 1), lambda: gr.star(0),
                lambda: gr.spider(1)):
        with pytest.raises(InvalidParameterError):
            bad()


def test_subgraph_avoiding_c5():
    sub, index_map = gr.subgraph_avoiding(gr.cycle(5), [0])
    assert gr.canonical_form(sub) == gr.canonical_form(gr.path(3))
    assert len(index_map) == 2


def test_subgraph_avoiding_empty_matching_drops_isolated():
    g = gr.Graph(4, [(0, 1)])
    sub, index_map = gr.subgraph_avoiding(g, [])
    assert sub.vertex_count == 2 and sub.edges == ((0, 1),)
    assert index_map == {0: 0}


def test_subgraph_avoiding_k43():
    sub, _ = gr.subgraph_avoiding(gr.complete_bipartite(4, 3), [0])
    assert gr.canonical_form(sub) == gr.canonical_form(gr.complete_bipartite(3, 2))


def test_subgraph_avoiding_rejects_non_matching():
    with pytest.raises(NotAMatchingError):
        gr.subgraph_avoiding(gr.path(3), [0, 1])


def test_subgraph_avoiding_no_incidences_property():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 9)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(1, min(10, len(all_pairs)))
        g = gr.Graph(n, rng.sample(all_pairs, m))
        matchings = gr.enumerate_matchings(g)
        matching = rng.choice(matchings)
        sub, index_map = gr.subgraph_avoiding(g, matching)
        banned = {v for i in matching for v in g.edges[i]}
        for old in index_map:
            assert not banned & set(g.edges[old])
        assert len(index_map) == len(sub.edges)


@settings(max_examples=200, deadline=None)
@given(st.lists(_small_graphs(0, 5), max_size=4))
@example([])
@example([gr.Graph(0, []), gr.Graph(2, []), gr.path(2)])
@example([gr.Graph(3, [(0, 2)]), gr.Graph(1, []), gr.cycle(3)])
def test_disjoint_union_equals_the_checked_graph(parts):
    # the trusted build against the constructor that checks and sorts
    u = gr.disjoint_union(parts)
    pairs, offset = [], 0
    for g in parts:
        pairs += [(a + offset, b + offset) for a, b in g.edges]
        offset += g.vertex_count
    checked = gr.Graph(offset, pairs)
    assert u == checked
    assert u.edges == checked.edges and u.adj == checked.adj
    assert u.has_isolated_vertices == checked.has_isolated_vertices


def test_connected_components():
    comps, isolated = gr.connected_components(gr.disjoint_union([gr.path(3), gr.path(3)]))
    assert len(comps) == 2 and not isolated
    comps, _ = gr.connected_components(gr.cycle(7))
    assert len(comps) == 1
    comps, _ = gr.connected_components(gr.disjoint_union([gr.banner(), gr.path(2)]))
    assert sorted(len(c.edges) for c in comps) == [1, 5]
    comps, isolated = gr.connected_components(gr.Graph(3, [(0, 2)]))
    assert isolated == [1] and len(comps) == 1


@settings(max_examples=300, deadline=None)
@given(_small_graphs(0, 9))
@example(gr.Graph(0, []))
@example(gr.Graph(1, []))
@example(gr.Graph(5, [(0, 4), (1, 3)]))
def test_components_match_the_merging_oracle(g):
    parts = oracle_utils.oracle_components(g.vertex_count, g.edges)
    comps, isolated = gr.connected_components(g)
    assert isolated == [p[0] for p in parts if len(p) == 1]
    expected = []
    for part in (p for p in parts if len(p) > 1):
        idx = {v: j for j, v in enumerate(part)}
        expected.append(gr.Graph(len(part), [(idx[u], idx[v]) for u, v in g.edges if u in idx]))
    assert comps == expected
    assert gr.is_connected_graph(g) == (len(parts) == 1)


def test_canonical_form_examples():
    assert gr.canonical_form(gr.spider(2)) == gr.canonical_form(gr.path(5))
    assert gr.canonical_form(gr.star(3)) != gr.canonical_form(gr.path(4))
    with pytest.raises(TooLargeError):
        gr.canonical_form(gr.path(11))


def test_canonical_form_relabeling_invariance():
    rng = random.Random(11)
    for g in [gr.cycle(6), gr.complete_bipartite(3, 2), gr.spider(3),
              gr.disjoint_union([gr.path(3), gr.path(3), gr.path(3)])]:
        base = gr.canonical_form(g)
        for _ in range(100):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert gr.canonical_form(oracle_utils.relabel(g, perm)) == base


def test_canonical_form_separates_all_small_graphs():
    # on <= 5 vertices, canonical forms must induce exactly the partition
    # into isomorphism classes given by the brute-force minimum labeling
    for n in range(1, 6):
        mine = {}
        brute = {}
        for edges in oracle_utils.labeled_graphs_on(n):
            g = gr.Graph(n, edges)
            mine.setdefault(gr.canonical_form(g), set()).add(edges)
            brute.setdefault(oracle_utils.brute_canonical(g), set()).add(edges)
        assert set(map(frozenset, mine.values())) == set(map(frozenset, brute.values()))


def test_five_vertex_class_count():
    canon = {gr.canonical_form(gr.Graph(5, e))
             for e in oracle_utils.labeled_graphs_on(5)}
    assert len(canon) == 34


def test_graph6_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 12)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        k = rng.randint(0, len(all_pairs))
        g = gr.Graph(n, rng.sample(all_pairs, k))
        assert gr.from_graph6(gr.to_graph6(g)) == g


def test_graph6_long_form_header():
    g = gr.Graph(70, [(i, i + 1) for i in range(69)])
    s = gr.to_graph6(g)
    assert s.startswith("~")
    assert gr.from_graph6(s) == g


def test_graph6_known_values():
    assert gr.to_graph6(gr.complete(4)) == "C~"
    # 5-cycle bits packed by hand: 101001 100100 -> 'h', 'c'
    assert gr.to_graph6(gr.cycle(5)) == "Dhc"
    assert gr.from_graph6("C~") == gr.complete(4)
    with pytest.raises(FormatError):
        gr.from_graph6("")
    with pytest.raises(FormatError):
        gr.from_graph6("D")  # truncated payload
    # non-ASCII characters are rejected, not read as '?' (graph6 value 0)
    for s in ("é", "Aé", "C~é", "Dh\u00e9"):
        with pytest.raises(FormatError):
            gr.from_graph6(s)


def test_edge_list_round_trip_and_errors():
    g = gr.complete_bipartite(3, 2)
    assert gr.parse_edge_list(oracle_utils.format_edge_list(g)) == g
    with pytest.raises(FormatError) as exc:
        gr.parse_edge_list("2 1\n0 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        gr.parse_edge_list("2 2\n0 1\n")
    with pytest.raises(FormatError) as exc:
        gr.parse_edge_list("hello\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        gr.parse_edge_list("-1 0")
    assert exc.value.line == 1
    # a header past the cap is refused before any vertex is allocated
    with pytest.raises(FormatError) as exc:
        gr.parse_edge_list(f"{gr.EDGE_LIST_VERTEX_CAP + 1} 0")
    assert exc.value.line == 1


# Header and endpoint integers are drawn from a small range, so no vertex
# count is large enough to allocate a big adjacency list; arbitrary text
# tokens are at most four characters for the same reason.
_int = st.integers(-5, 30).map(str)
_line = st.one_of(st.tuples(_int, _int).map(" ".join),
                  st.lists(st.one_of(_int, st.text(max_size=4)), max_size=3).map(" ".join))


@st.composite
def _edge_list_text(draw):
    lines = draw(st.lists(_line, max_size=6))
    m = draw(st.one_of(st.just(str(len(lines))), _int))
    head = draw(st.one_of(st.tuples(_int, st.just(m)).map(" ".join), _line))
    return "\n".join([head] + lines)


@settings(max_examples=300, deadline=None)
@given(_edge_list_text())
def test_parse_edge_list_raises_only_format_error(text):
    try:
        g = gr.parse_edge_list(text)
    except FormatError:
        return
    assert gr.parse_edge_list(oracle_utils.format_edge_list(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(st.characters(min_codepoint=60, max_codepoint=130))))
def test_from_graph6_raises_only_format_error(text):
    try:
        g = gr.from_graph6(text)
    except FormatError:
        return
    assert gr.from_graph6(gr.to_graph6(g)) == g
