"""Canonical forms: pinned bytes and class counts, invariance on twin-rich
graphs (stars, complete and complete bipartite graphs), where the search
branches on one vertex per twin class, and the bytes of the search as first
written."""

import hashlib
import itertools

from hypothesis import example, given, settings, strategies as st

from matchtop import graphs as gr
from matchtop import verify

import oracle_utils

# connected classes with m = 1..10 edges and at most 10 vertices
CONNECTED_CLASS_COUNTS = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2087]
CANONICAL_DIGEST = "e7b19973e5e93cbbae267a2dede9e51ef249c75620ec771f00e29289ac27d779"


def test_connected_class_counts_and_canonical_bytes_pinned():
    levels = oracle_utils.connected_graph_classes(10, 10)
    assert [len(level) for level in levels[1:]] == CONNECTED_CLASS_COUNTS
    forms = [sorted(gr.canonical_form(g) for g in level) for level in levels]
    h = hashlib.sha256()
    for level in forms:
        for form in level:
            h.update(form + b"\n")
    assert h.hexdigest() == CANONICAL_DIGEST


# ---------------------------------------------------------------------------
# twin-rich inputs


@st.composite
def _star_plus_edges(draw, max_n):
    k = draw(st.integers(2, max_n - 2))
    # non-edges of the star, plus pendant edges to one new vertex
    extra = list(itertools.combinations(range(1, k + 1), 2))
    extra += [(u, k + 1) for u in range(k + 1)]
    chosen = draw(st.lists(st.sampled_from(extra), min_size=1, max_size=2,
                           unique=True))
    n = k + 2 if any(v == k + 1 for _, v in chosen) else k + 1
    return gr.Graph(n, list(gr.star(k).edges) + chosen)


@st.composite
def _random_graph(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return gr.Graph(n, [p for p, k in zip(pairs, keep) if k])


def _twin_rich_piece(max_n):
    return st.one_of(
        st.integers(1, max_n - 1).map(gr.star),
        st.integers(1, max_n - 1).flatmap(
            lambda a: st.integers(1, max_n - a).map(
                lambda b: gr.complete_bipartite(a, b))),
        st.integers(1, max_n).map(gr.complete),
        _star_plus_edges(max_n),
        # regular without twins: in a union of two cycles of different
        # lengths, refinement leaves inequivalent vertices in one cell
        st.integers(3, max_n).map(gr.cycle),
    )


@st.composite
def _union_of_pieces(draw, max_n):
    pieces = draw(st.lists(_twin_rich_piece(max_n), min_size=2, max_size=3))
    union = []
    for piece in pieces:
        if sum(p.vertex_count for p in union) + piece.vertex_count <= max_n:
            union.append(piece)
    return gr.disjoint_union(union)


def twin_rich_graphs(max_n):
    """Stars, complete (bipartite) graphs, stars plus one or two edges,
    cycles, disjoint unions of these, and random graphs, on at most max_n
    vertices."""
    return st.one_of(_twin_rich_piece(max_n), _union_of_pieces(max_n),
                     _random_graph(max_n))


_PETERSEN = gr.Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, 5 + i) for i in range(5)])
_CUBE = gr.Graph(8, [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k])
_C10_1_3 = gr.Graph(10, [(i, (i + s) % 10) for i in range(10) for s in (1, 3)])


@st.composite
def _graph_perm(draw):
    g = draw(twin_rich_graphs(10))
    return g, draw(st.permutations(range(g.vertex_count)))


@settings(max_examples=300, deadline=None)
@given(_graph_perm())
@example((gr.disjoint_union([gr.cycle(3), gr.cycle(4)]), list(range(6, -1, -1))))
@example((gr.disjoint_union([gr.star(3), gr.cycle(4)]), list(range(7, -1, -1))))
# twin-free and vertex-transitive: refinement splits nothing, so these keep
# the most leaves
@example((_PETERSEN, list(range(9, -1, -1))))
@example((gr.disjoint_union([gr.cycle(5), gr.cycle(5)]), list(range(9, -1, -1))))
@example((_CUBE, list(range(7, -1, -1))))
@example((_C10_1_3, list(range(9, -1, -1))))
def test_canonical_form_relabeling_invariance_twin_rich(case):
    g, perm = case
    assert gr.canonical_form(oracle_utils.relabel(g, perm)) == gr.canonical_form(g)


@settings(max_examples=300, deadline=None)
@given(twin_rich_graphs(12))
# twins: the leaves of a star, both sides of K33
@example(gr.star(6))
@example(gr.complete_bipartite(3, 3))
# a symmetric union that twins do not prune
@example(gr.disjoint_union([gr.path(3)] * 3))
# many refinement passes
@example(gr.path(10))
# regular: refinement splits nothing
@example(_PETERSEN)
def test_canonical_form_matches_the_every_cell_oracle(g):
    # the packed counts against fresh cells and the integer leaves give the
    # bytes of tuples against every cell and list-of-bits leaves
    assert gr.canonical_form(g, 12) == oracle_utils.oracle_canonical_form(g)


@settings(max_examples=150, deadline=None)
@given(st.lists(twin_rich_graphs(6), min_size=2, max_size=2))
def test_canonical_form_separates_twin_rich(pair):
    g1, g2 = pair
    same = gr.canonical_form(g1) == gr.canonical_form(g2)
    assert same == (oracle_utils.brute_canonical(g1) == oracle_utils.brute_canonical(g2))


# ---------------------------------------------------------------------------
# matching-number pruning of the enumeration

# connected classes with matching number <= 3, m = 1..10 edges, <= 10 vertices
PRUNED_CLASS_COUNTS = [1, 1, 3, 5, 12, 30, 74, 173, 364, 595]


@settings(max_examples=200, deadline=None)
@given(twin_rich_graphs(7))
@example(gr.complete_bipartite(3, 3))
@example(gr.star(6))
@example(gr.cycle(6))  # no twins: every generator comes from a leaf
@example(gr.path(5))
def test_automorphisms_generate_the_brute_force_group(g):
    n = g.vertex_count
    gens = gr._automorphisms(g)
    edges = {frozenset(e) for e in g.edges}
    for perm in gens:
        assert sorted(perm) == list(range(n))
        assert {frozenset((perm[u], perm[v])) for u, v in g.edges} == edges
    group = oracle_utils.oracle_automorphisms(n, g.edges)
    # the orbits on vertex pairs are those of the whole group
    for u, v in itertools.combinations(range(n), 2):
        want = {(min(p[u], p[v]), max(p[u], p[v])) for p in group}
        assert verify._orbit(gens, u, v) == want, (u, v)


def test_pruned_levels_are_the_unpruned_levels_within_the_cap():
    full = oracle_utils.connected_graph_classes(10, 10)
    for cap in (2, 3):
        pruned = oracle_utils.connected_graph_classes(10, 10, matching_cap=cap)
        for m in range(11):
            # the same representatives in the same order, so the same forms
            assert pruned[m] == [g for g in full[m] if gr.matching_number(g) <= cap]
    counts = [len(level) for level in oracle_utils.connected_graph_classes(10, 10, 3)[1:]]
    assert counts == PRUNED_CLASS_COUNTS


@settings(max_examples=200, deadline=None)
@given(_random_graph(8))
def test_matching_number_is_the_largest_matching(g):
    assert gr.matching_number(g) == max(len(m) for m in gr.enumerate_matchings(g))
