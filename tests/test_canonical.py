"""Canonical forms: pinned bytes and class counts, invariance on twin-rich
graphs (stars, complete and complete bipartite graphs), where the search
branches on one vertex per twin class, and the bytes of the search as first
written."""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import verify
from matchtop.errors import InvalidParameterError

import oracle_utils

# connected classes with m = 1..10 edges and at most 10 vertices
CONNECTED_CLASS_COUNTS = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2087]
CANONICAL_DIGEST = "b953ce0013c8b45390382dd42385f0af2784d9ff8c0a49f52db65e00f172d3c3"


def _colored(g, colors):
    """The colored canonical form that ``complexes._incidence_canon`` keys on."""
    return gr._canonical_form(g, gr.CANONICAL_VERTEX_CAP, colors)


def test_connected_class_counts_and_canonical_bytes_pinned():
    levels = verify.connected_graph_classes(10, 10)
    assert [len(level) for level in levels[1:]] == CONNECTED_CLASS_COUNTS
    forms = [sorted(gr.canonical_form(g) for g in level) for level in levels]
    h = hashlib.sha256()
    for level in forms:
        for form in level:
            h.update(form + b"\n")
    # colour the canonical labelling, not the representative the enumeration
    # happens to keep, so the digest depends on the classes alone
    for level in forms:
        for form in level:
            g = gr.from_graph6(form.decode())
            colors = [v % 2 for v in range(g.vertex_count)]
            h.update(_colored(g, colors) + b"\n")
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
def _graph_perm_colors(draw):
    g = draw(twin_rich_graphs(10))
    n = g.vertex_count
    perm = draw(st.permutations(range(n)))
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return g, perm, colors


@settings(max_examples=300, deadline=None)
@given(_graph_perm_colors())
@example((gr.disjoint_union([gr.cycle(3), gr.cycle(4)]), list(range(6, -1, -1)), [0] * 7))
@example((gr.disjoint_union([gr.star(3), gr.cycle(4)]), list(range(7, -1, -1)), [0] * 8))
# twin-free and vertex-transitive: refinement splits nothing, so these keep
# the most leaves
@example((_PETERSEN, list(range(9, -1, -1)), [0] * 10))
@example((gr.disjoint_union([gr.cycle(5), gr.cycle(5)]), list(range(9, -1, -1)), [0] * 10))
@example((_CUBE, list(range(7, -1, -1)), [0] * 8))
@example((_C10_1_3, list(range(9, -1, -1)), [0] * 10))
def test_canonical_form_relabeling_invariance_twin_rich(case):
    g, perm, colors = case
    h = gr.relabel(g, perm)
    assert gr.canonical_form(h) == gr.canonical_form(g)
    moved = [0] * g.vertex_count
    for v, c in enumerate(colors):
        moved[perm[v]] = c
    assert _colored(h, moved) == _colored(g, colors)


@st.composite
def _graph_maybe_colored(draw):
    g = draw(twin_rich_graphs(12))
    n = g.vertex_count
    colors = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return g, colors


@settings(max_examples=300, deadline=None)
@given(_graph_maybe_colored())
# twins: the leaves of a star, both sides of K33
@example((gr.star(6), None))
@example((gr.complete_bipartite(3, 3), None))
@example((gr.complete_bipartite(3, 3), [0, 1, 1, 0, 0, 1]))
# a symmetric union that twins do not prune
@example((gr.disjoint_union([gr.path(3)] * 3), None))
# many refinement passes
@example((gr.path(10), None))
@example((gr.path(10), [1] * 5 + [0] * 5))
# regular: refinement splits nothing
@example((_PETERSEN, None))
def test_canonical_form_matches_the_every_cell_oracle(case):
    # the packed counts against fresh cells and the integer leaves give the
    # bytes of tuples against every cell and list-of-bits leaves
    g, colors = case
    assert gr._canonical_form(g, 12, colors) == oracle_utils.oracle_canonical_form(g, colors)


@settings(max_examples=150, deadline=None)
@given(st.lists(twin_rich_graphs(6), min_size=2, max_size=2))
def test_canonical_form_separates_twin_rich(pair):
    g1, g2 = pair
    same = gr.canonical_form(g1) == gr.canonical_form(g2)
    assert same == (oracle_utils.brute_canonical(g1) == oracle_utils.brute_canonical(g2))


def test_differently_colored_twins_not_merged():
    # The leaves of a star are twins.  Color a of them 0, the center 1 and
    # the other leaves 2: colors order the labeling, so the center lands at
    # position a, and the forms must differ exactly when a does.
    for k in range(2, 10):
        g = gr.star(k)
        forms = set()
        for a in range(k + 1):
            colors = [1] + [0] * a + [2] * (k - a)
            form = _colored(g, colors)
            forms.add(form)
            # which leaves carry which color does not matter
            shuffled = [1] + [2] * (k - a) + [0] * a
            assert _colored(g, shuffled) == form
        assert len(forms) == k + 1


# ---------------------------------------------------------------------------
# matching-number pruning of the enumeration

# connected classes with matching number <= 3, m = 1..10 edges, <= 10 vertices
PRUNED_CLASS_COUNTS = [1, 1, 3, 5, 12, 30, 74, 173, 364, 595]


def test_pruned_levels_are_the_unpruned_levels_within_the_cap():
    full = verify.connected_graph_classes(10, 10)
    for cap in (2, 3):
        pruned = verify.connected_graph_classes(10, 10, matching_cap=cap)
        for m in range(11):
            # the same representatives in the same order, so the same forms
            assert pruned[m] == [g for g in full[m] if gr.matching_number(g) <= cap]
    counts = [len(level) for level in verify.connected_graph_classes(10, 10, 3)[1:]]
    assert counts == PRUNED_CLASS_COUNTS


@settings(max_examples=200, deadline=None)
@given(_random_graph(8))
def test_matching_number_is_the_largest_matching(g):
    assert gr.matching_number(g) == max(len(m) for m in gr.enumerate_matchings(g))


# ---------------------------------------------------------------------------
# colored forms


def test_color_list_of_the_wrong_length_rejected():
    # too few colors would label only part of C4, too many would index
    # past its vertices
    c4 = gr.cycle(4)
    for count in (3, 5):
        with pytest.raises(InvalidParameterError):
            _colored(c4, [0] * count)
    assert _colored(c4, [0] * 4) == gr.canonical_form(c4)


def test_colored_forms_collide_but_incidence_keys_carry_the_counts():
    # A star on k leaves, center last.  Color 0 on the first a leaves and
    # color 1 on the other leaves and the center, the shape of the coloring
    # complexes._incidence_canon uses with a vertices and k + 1 - a facets:
    # the bytes are the same for every a.
    k = 4
    g = gr.Graph(k + 1, [(v, k) for v in range(k)])
    forms = {_colored(g, [0] * a + [1] * (k + 1 - a))
             for a in range(1, k + 1)}
    assert len(forms) == 1
    # The star with a = k is the incidence graph of a (k-1)-simplex.  Its
    # key carries the counts, so no input with other counts can share it.
    simplex = cx.from_facets(None, [tuple(range(k))])
    key = cx._incidence_canon(simplex)
    assert key == b"%d,1:" % k + forms.pop()
    other = cx.from_facets(None, [(0, 1), (1, 2)])  # 3 vertices, 2 facets
    assert cx._incidence_canon(other).startswith(b"3,2:")
    assert cx._incidence_canon(other) != key
