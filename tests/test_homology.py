import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop.errors import BadDimensionError, InvalidParameterError, VoidComplexError

import oracle_utils
from test_complexes import cycle_complex, path_complex, random_graph


def betti_tuple(c, p):
    b = hm.betti_reduced(c, p)
    return b.minus_one, list(b.betti)


def test_field_prime_validation():
    hm.FieldPrime(2)
    hm.FieldPrime(65521)
    with pytest.raises(InvalidParameterError):
        hm.FieldPrime(4)
    with pytest.raises(InvalidParameterError):
        hm.FieldPrime(1)
    with pytest.raises(InvalidParameterError):
        hm.FieldPrime(65537)  # prime, but over the 2^16 cap


def test_boundary_matrix_single_edge():
    c = cx.from_facets([0, 1], [(0, 1)])
    d1 = hm.boundary_matrix(c, 1, 3)
    assert d1.dense() == [[2], [1]]  # -1 and +1 mod 3 against increasing rows
    d0 = hm.boundary_matrix(c, 0, 3)
    assert d0.dense() == [[1, 1]]  # augmentation row of ones
    assert d0.rank() == 1 and d1.rank() == 1


def test_boundary_squared_is_zero():
    rng = random.Random(21)
    for _ in range(25):
        M = cx.matching_complex(random_graph(rng, n_max=8, m_max=10))
        if M.dimension < 1:
            continue
        for p in (2, 3):
            for k in range(1, M.dimension + 1):
                upper = hm.boundary_matrix(M, k, p).dense()
                lower = hm.boundary_matrix(M, k - 1, p).dense()
                rows = len(lower)
                cols = len(upper[0]) if upper else 0
                for i in range(rows):
                    for j in range(cols):
                        s = sum(lower[i][t] * upper[t][j] for t in range(len(upper)))
                        assert s % p == 0


def test_boundary_matrix_triangle_rank():
    full = cx.from_facets(range(3), [(0, 1, 2)])
    assert hm.boundary_matrix(full, 2, 2).rank() == 1
    with pytest.raises(BadDimensionError):
        hm.boundary_matrix(full, 3, 2)


def test_betti_examples():
    M = cx.matching_complex(gr.complete_bipartite(4, 3))
    assert betti_tuple(M, 3) == (0, [0, 2, 1])
    assert betti_tuple(M, 2) == (0, [0, 2, 1])
    assert betti_tuple(M, 5) == (0, [0, 2, 1])
    M = cx.matching_complex(gr.cycle(5))
    assert betti_tuple(M, 2) == (0, [0, 1])
    full = cx.from_facets(range(5), [tuple(range(5))])
    for p in (2, 3, 7):
        assert betti_tuple(full, p) == (0, [0, 0, 0, 0, 0])
    empty = cx.from_facets([], [()])
    assert betti_tuple(empty, 2) == (1, [])
    with pytest.raises(VoidComplexError):
        hm.betti_reduced(cx.from_facets([], []), 2)


def test_sphere_and_ball_predicates():
    M = cx.matching_complex(gr.disjoint_union([gr.path(3), gr.path(3)]))
    assert hm.has_sphere_homology(M, 1, 2)
    M = cx.matching_complex(gr.spider(4))
    assert hm.has_ball_homology(M, 2)
    assert not hm.has_sphere_homology(M, 3, 2)
    hexagon_minus = cx.from_facets(range(6), [(i, i + 1) for i in range(5)])
    assert not hm.has_sphere_homology(hexagon_minus, 1, 2)
    assert hm.has_ball_homology(hexagon_minus, 2)
    empty = cx.from_facets([], [()])
    assert hm.has_sphere_homology(empty, -1, 2)
    assert not hm.has_ball_homology(empty, 2)
    assert not hm.has_sphere_homology(cx.from_facets([], []), -1, 2)


def test_euler_poincare_consistency():
    rng = random.Random(22)
    for _ in range(40):
        M = cx.matching_complex(random_graph(rng))
        chi = cx.euler_characteristic(M)
        for p in (2, 3):
            b = hm.betti_reduced(M, p)
            alt = sum((-1) ** k * v for k, v in enumerate(b.betti)) - b.minus_one
            assert alt == chi - 1


def test_join_of_spheres_is_sphere():
    pieces = {
        0: cx.matching_complex(gr.path(3)),
        1: cx.matching_complex(gr.cycle(5)),
    }
    rng = random.Random(23)
    for _ in range(10):
        d1 = rng.choice([0, 1])
        d2 = rng.choice([0, 1])
        joined = cx.join(pieces[d1], pieces[d2])
        for p in (2, 3):
            assert hm.has_sphere_homology(joined, d1 + d2 + 1, p)


def test_oracle_agreement_random():
    rng = random.Random(24)
    for _ in range(25):
        M = cx.matching_complex(random_graph(rng, n_max=7, m_max=9))
        for p in (2, 3, 5):
            assert betti_tuple(M, p) == tuple(oracle_utils.oracle_betti(M.facets(), p))


def test_oracle_agreement_golden():
    golden = [
        cx.from_facets(range(4), [tuple(range(4))]),          # solid tetrahedron
        cx.from_facets(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        cycle_complex(6),
        path_complex(5),
        cx.matching_complex(gr.cycle(7)),                      # Moebius strip
        cx.matching_complex(gr.disjoint_union([gr.path(3)] * 3)),
    ]
    for c in golden:
        for p in (2, 3, 5):
            mine = betti_tuple(c, p)
            ref = oracle_utils.oracle_betti(c.facets(), p)
            assert mine == (ref[0], ref[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), max_size=8), min_size=1, max_size=8))
def test_arbitrary_facets_match_brute_faces_and_oracle_betti(facets):
    # any facet list on up to 8 vertices: redundant, non-pure and non-flag
    # complexes included, {∅} when every drawn face is empty
    c = cx.from_facets(None, facets)
    assert {frozenset(c.labels_of(m)) for m in c.faces()} == oracle_utils.brute_faces(facets)
    for p in (2, 3, 5):
        assert betti_tuple(c, p) == oracle_utils.oracle_betti(c.facets(), p)


def test_large_complexes_match_catalog_prediction():
    # complexes of more than 2,048 faces, against the sphere or ball vector
    # of the dimension that the join arithmetic predicts
    for g in (gr.disjoint_union([gr.complete_bipartite(3, 2)] * 3),
              gr.disjoint_union([gr.spider(4), gr.spider(4)]),
              gr.spider(9)):
        M = cx.matching_complex(g)
        assert sum(map(len, hm._faces_by_size(M.facet_masks).values())) > 2048
        pred = catalog.predict(g)
        d = pred.predicted_dimension
        assert d == M.dimension
        top = 1 if pred.predicted_class.label == "Sphere" else 0
        for p in (2, 3):
            b = hm.betti_for_facets(M.vertex_count, M.facet_masks, p)
            assert (b.minus_one, b.betti) == (0, (0,) * d + (top,))


def test_rank_helpers_against_oracle():
    rng = random.Random(25)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = [[rng.randint(0, 6) for _ in range(cols)] for _ in range(rows)]
        for p in (2, 3, 5, 7):
            expect = oracle_utils.naive_rank_mod_p(mat, p)
            if p == 2:
                ints = []
                for j in range(cols):
                    v = 0
                    for i in range(rows):
                        if mat[i][j] % 2:
                            v |= 1 << i
                    ints.append(v)
                assert hm._rank_gf2(ints) == expect
            else:
                assert hm._rank_modp(_sparse_columns(mat), p) == expect


def _sparse_columns(mat):
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat[0]))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 7]),
       st.integers(1, 9).flatmap(lambda rows: st.lists(
           st.lists(st.integers(-20, 20), min_size=rows, max_size=rows),
           min_size=1, max_size=9)))
def test_sparse_rank_matches_naive_elimination(p, columns):
    mat = [list(row) for row in zip(*columns)]  # the drawn lists are columns
    assert hm._rank_modp(_sparse_columns(mat), p) == oracle_utils.naive_rank_mod_p(mat, p)


def test_large_non_sphere_torus_join_circle_and_point():
    # the torus joined with S^1 and S^0
    M = cx.matching_complex(gr.disjoint_union(
        [gr.complete_bipartite(4, 3), gr.complete_bipartite(3, 2), gr.path(3)]))
    by_size = hm._faces_by_size(M.facet_masks)
    assert sum(map(len, by_size.values())) == 2846
    for p in (2, 3, 5):
        for b in (hm.betti_for_facets(M.vertex_count, M.facet_masks, p),
                  hm._betti_from_faces(by_size, p, M.dimension)):
            assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 2, 1))


def test_large_non_sphere_torus_join_two_circles():
    # the torus joined with two circles
    M = cx.matching_complex(gr.disjoint_union(
        [gr.complete_bipartite(4, 3), gr.complete_bipartite(3, 2), gr.complete_bipartite(3, 2)]))
    by_size = hm._faces_by_size(M.facet_masks)
    assert sum(map(len, by_size.values())) == 12336
    for p in (2, 3):
        for b in (hm.betti_for_facets(M.vertex_count, M.facet_masks, p),
                  hm._betti_from_faces(by_size, p, M.dimension)):
            assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 0, 2, 1))


def _face_set_betti(facet_masks, p):
    # the oracle of the core: rank the full face table of the given facets
    d = max(m.bit_count() for m in facet_masks) - 1
    return hm._betti_from_faces(hm._faces_by_size(facet_masks), p, d)


_PAIRS = [(i, j) for i in range(8) for j in range(i + 1, 8)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sets(st.sampled_from(_PAIRS), min_size=1, max_size=9).map(
        lambda edges: cx.matching_complex(gr.Graph(8, sorted(edges)))),
    st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=8), min_size=1, max_size=8).map(
        lambda facets: cx.from_facets(None, facets))))
def test_core_matches_face_set_path(c):
    # matching complexes of graphs with at most 9 edges, and arbitrary
    # (non-flag, non-pure) complexes
    core = hm._core(c.facet_masks)
    assert core and 0 not in core
    assert max(m.bit_count() for m in core) <= c.dimension + 1
    assert sorted(hm._core(core)) == sorted(core)
    for p in (2, 3, 5):
        assert (hm.betti_for_facets(c.vertex_count, c.facet_masks, p)
                == _face_set_betti(c.facet_masks, p))


def test_core_of_simplex_cone_and_spider_is_one_vertex():
    simplex = cx.from_facets(range(5), [tuple(range(5))])
    cone = cx.from_facets(range(6), [(i, (i + 1) % 5, 5) for i in range(5)])
    spider = cx.matching_complex(gr.spider(9))
    for c in (simplex, cone, spider):
        assert [m.bit_count() for m in hm._core(c.facet_masks)] == [1]


def test_core_keeps_sphere_joins_without_dominated_vertex():
    for parts in ([gr.complete_bipartite(3, 2)] * 3,
                  [gr.path(3), gr.cycle(5), gr.complete_bipartite(3, 2)]):
        M = cx.matching_complex(gr.disjoint_union(parts))
        assert sorted(hm._core(M.facet_masks)) == sorted(M.facet_masks)


# ---------------------------------------------------------------------------
# ranks per join factor


def _boundary_simplex(n):
    return cx.from_facets(range(n), list(itertools.combinations(range(n), n - 1)))


_TWO_POINTS = cx.from_facets(range(2), [(0,), (1,)])
_POINT = cx.from_facets(range(1), [(0,)])
_NON_FLAG = [_boundary_simplex(3), _boundary_simplex(4), cycle_complex(4),
             cycle_complex(5), _TWO_POINTS]


def _join_all(factors):
    out = factors[0]
    for c in factors[1:]:
        out = cx.join(out, c)
    return out


_FACTOR = st.one_of(
    st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=3), min_size=1, max_size=4).map(
        lambda facets: cx.from_facets(None, facets)),
    st.sampled_from(_NON_FLAG))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(_FACTOR, min_size=1, max_size=3).map(_join_all),
    _FACTOR.map(lambda c: cx.join(c, _POINT)),
    st.just(_boundary_simplex(3))))
def test_join_factors_match_face_set_path(c):
    core = tuple(hm._core(c.facet_masks))
    factors = hm._join_factors(core)
    # vertex-disjoint factors whose join is the core
    spans = [functools.reduce(operator.or_, part) for part in factors]
    assert sum(m.bit_count() for m in spans) == functools.reduce(operator.or_, spans).bit_count()
    joined = [0]
    for part in factors:
        joined = [a | b for a in joined for b in part]
    assert sorted(joined) == sorted(core)
    for p in (2, 3, 5):
        assert (hm.betti_for_facets(c.vertex_count, c.facet_masks, p)
                == hm._betti_from_faces(hm._faces_by_size(c.facet_masks), p, c.dimension))


def test_join_factors_peel_only_whole_components():
    tri = _boundary_simplex(3)
    # three one-vertex components, none a join factor on its own
    assert hm._join_factors(tri.facet_masks) == [list(tri.facet_masks)]
    assert len(hm._join_factors(cx.join(tri, tri).facet_masks)) == 1
    assert len(hm._join_factors(cx.join(tri, _TWO_POINTS).facet_masks)) == 2
    assert len(hm._join_factors(cycle_complex(4).facet_masks)) == 2  # S^0 * S^0
    octahedron = cx.matching_complex(gr.disjoint_union([gr.path(3)] * 3))
    assert len(hm._join_factors(octahedron.facet_masks)) == 3


def test_each_join_factor_shape_is_ranked_once_per_prime(monkeypatch):
    ranked = []
    real = hm._betti_from_faces
    monkeypatch.setattr(hm, "_betti_from_faces",
                        lambda by_size, p, d: ranked.append(p) or real(by_size, p, d))
    hm.clear_caches()
    # the join of three hexagons: one factor shape, three times
    M = cx.matching_complex(gr.disjoint_union([gr.complete_bipartite(3, 2)] * 3))
    for p in (2, 3, 2):
        b = hm.betti_reduced(M, p)
        assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 0, 1))
    assert ranked == [2, 3]
