import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from matchtop import catalog
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop import manifold as mf
from matchtop.errors import InvalidParameterError

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
    # an int prime is checked on every call, not remembered, so a valid 2
    # lets no 2.0 or True through after it
    point = cx.from_facets(None, [(0,)])
    assert hm.betti_reduced(point, 2).is_ball()
    for bad in (2.0, True, "2", 1, 4, 65537):
        for check in (mf.check_manifold, hm.betti_reduced):
            with pytest.raises(InvalidParameterError):
                check(point, bad)


def _boundary_columns(c, size, p):
    """The boundary columns of the faces of the given size, over the rows
    of the faces one vertex smaller, as the odd-prime ranks build them."""
    by_size = c.faces_by_size()
    index = {m: i for i, m in enumerate(by_size[size - 1])}
    return [hm._column(m, index, p) for m in by_size[size]]


def test_boundary_matrix_single_edge():
    c = cx.from_facets([0, 1], [(0, 1)])
    d1 = _boundary_columns(c, 2, 3)
    assert d1 == [{0: 2, 1: 1}]  # -1 and +1 mod 3 against increasing rows
    assert hm._rank_modp(d1, 3) == 1
    assert betti_tuple(c, 3) == (0, [0, 0])  # the augmentation has rank 1 too


def test_boundary_squared_is_zero():
    rng = random.Random(21)
    for _ in range(25):
        M = cx.matching_complex(random_graph(rng, n_max=8, m_max=10))
        if M.dimension < 1:
            continue
        for p in (2, 3):
            for size in range(2, M.dimension + 2):
                lower = _boundary_columns(M, size - 1, p) if size > 2 else None
                for col in _boundary_columns(M, size, p):
                    if lower is None:  # the augmentation sums the coefficients
                        assert sum(col.values()) % p == 0
                        continue
                    total = {}
                    for row, v in col.items():
                        for r, w in lower[row].items():
                            total[r] = total.get(r, 0) + v * w
                    assert all(s % p == 0 for s in total.values())


def test_boundary_matrix_triangle_rank():
    full = cx.from_facets(range(3), [(0, 1, 2)])
    assert hm._rank_modp(_boundary_columns(full, 3, 2), 2) == 1
    assert max(full.faces_by_size()) == 3  # no 3-face: d_3 has no column


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


def test_sphere_and_ball_predicates():
    M = cx.matching_complex(gr.disjoint_union([gr.path(3), gr.path(3)]))
    assert hm.betti_reduced(M, 2).is_sphere(1)
    M = cx.matching_complex(gr.spider(4))
    assert hm.betti_reduced(M, 2).is_ball()
    assert not hm.betti_reduced(M, 2).is_sphere(3)
    hexagon_minus = cx.from_facets(range(6), [(i, i + 1) for i in range(5)])
    assert not hm.betti_reduced(hexagon_minus, 2).is_sphere(1)
    assert hm.betti_reduced(hexagon_minus, 2).is_ball()
    empty = cx.from_facets([], [()])
    assert hm.betti_reduced(empty, 2).is_sphere(-1)
    assert not hm.betti_reduced(empty, 2).is_ball()


def test_no_sphere_above_the_dimension():
    # beta_d of a d outside the Betti vector is 0, so no acyclic complex is
    # a sphere there
    point = cx.from_facets([0], [(0,)])
    triangle = cx.from_facets(range(3), [(0, 1, 2)])
    for c in (point, triangle):
        for d in (-2, c.dimension + 1, 4, 5):
            assert not hm.betti_reduced(c, 2).is_sphere(d)
    assert not hm.BettiVector(2, 0, (0, 0)).is_sphere(3)
    assert not hm.BettiVector(2, 1, ()).is_sphere(0)
    assert hm.BettiVector(3, 0, (0, 1)).is_sphere(1)
    assert hm.betti_reduced(cx.from_facets(range(2), [(0,), (1,)]), 2).is_sphere(0)


def test_euler_poincare_consistency():
    rng = random.Random(22)
    for _ in range(40):
        M = cx.matching_complex(random_graph(rng))
        chi = cx.f_vector(M).euler_characteristic()
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
            assert hm.betti_reduced(joined, p).is_sphere(d1 + d2 + 1)


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
        assert sum(map(len, cx._faces_by_size(M.facet_masks).values())) > 2048
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
    by_size = cx._faces_by_size(M.facet_masks)
    assert sum(map(len, by_size.values())) == 2846
    for p in (2, 3, 5):
        for b in (hm.betti_for_facets(M.vertex_count, M.facet_masks, p),
                  hm._betti_from_faces(by_size, p, M.dimension)):
            assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 2, 1))


def test_large_non_sphere_torus_join_two_circles():
    # the torus joined with two circles
    M = cx.matching_complex(gr.disjoint_union(
        [gr.complete_bipartite(4, 3), gr.complete_bipartite(3, 2), gr.complete_bipartite(3, 2)]))
    by_size = cx._faces_by_size(M.facet_masks)
    assert sum(map(len, by_size.values())) == 12336
    for p in (2, 3):
        for b in (hm.betti_for_facets(M.vertex_count, M.facet_masks, p),
                  hm._betti_from_faces(by_size, p, M.dimension)):
            assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 0, 2, 1))


def _face_set_betti(facet_masks, p):
    # the oracle of the core: rank the full face table of the given facets
    d = max(m.bit_count() for m in facet_masks) - 1
    return hm._betti_from_faces(cx._faces_by_size(facet_masks), p, d)


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


def _factors(facet_masks):
    """_join_factors of the entry of these facets."""
    return hm._join_factors(cx._facts_of(tuple(facet_masks)))


def _assert_split(facet_masks):
    """_join_factors of the facets is None, or the entries of factors on
    0..k-1 each whose join, laid side by side, has the complex's vertex and
    facet counts and face numbers."""
    factors = _factors(facet_masks)
    if factors is None:
        return
    assert len(factors) >= 2
    joined, offset = [0], 0
    for factor in factors:
        masks = factor["facets"]
        assert factor is cx._facts[masks]
        used = functools.reduce(operator.or_, masks)
        assert used & used + 1 == 0  # every position of 0..k-1
        joined = [a | b << offset for a in joined for b in masks]
        offset += used.bit_length()
    assert offset == functools.reduce(operator.or_, facet_masks).bit_count()
    assert len(joined) == len(facet_masks)
    sizes = [{k: len(v) for k, v in cx._faces_by_size(f).items()} for f in (joined, facet_masks)]
    assert sizes[0] == sizes[1]


# ac, ad, bc, bd, aw: no join, but a dominates w and the core is the 4-cycle
# ac, bc, bd, ad, which is S^0 * S^0
_CORE_SPLITS = cx.from_facets(None, ["ac", "ad", "bc", "bd", "aw"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(_FACTOR, min_size=1, max_size=3).map(_join_all),
    _FACTOR.map(lambda c: cx.join(c, _POINT)),
    st.just(_boundary_simplex(3))))
@example(_CORE_SPLITS)
def test_join_factors_match_face_set_path(c):
    _assert_split(c.facet_masks)
    _assert_split(tuple(hm._core(c.facet_masks)))
    for p in (2, 3, 5):
        assert (hm.betti_for_facets(c.vertex_count, c.facet_masks, p)
                == hm._betti_from_faces(cx._faces_by_size(c.facet_masks), p, c.dimension))


def test_join_factors_peel_only_whole_components():
    tri = _boundary_simplex(3)
    # three one-vertex components, none a join factor on its own
    assert _factors(tri.facet_masks) is None
    assert _factors(cx.join(tri, tri).facet_masks) is None
    assert len(_factors(cx.join(tri, _TWO_POINTS).facet_masks)) == 2
    assert len(_factors(cycle_complex(4).facet_masks)) == 2  # S^0 * S^0
    octahedron = cx.matching_complex(gr.disjoint_union([gr.path(3)] * 3))
    assert len(_factors(octahedron.facet_masks)) == 3
    # a split of the core that the facets do not show, into one S^0 twice
    assert _factors(_CORE_SPLITS.facet_masks) is None
    s0, other = _factors(hm._core(_CORE_SPLITS.facet_masks))
    assert s0 is other and s0["facets"] == (0b01, 0b10)


def test_each_join_factor_shape_is_ranked_once_per_prime(monkeypatch):
    ranked = []
    real = hm._betti_from_faces
    monkeypatch.setattr(hm, "_betti_from_faces",
                        lambda by_size, p, d: ranked.append(p) or real(by_size, p, d))
    cx.clear_caches()
    # the join of three hexagons: one factor shape, three times
    M = cx.matching_complex(gr.disjoint_union([gr.complete_bipartite(3, 2)] * 3))
    for p in (2, 3, 2):
        b = hm.betti_reduced(M, p)
        assert (b.minus_one, b.betti) == (0, (0, 0, 0, 0, 0, 1))
    assert ranked == [2, 3]
