"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and enforcing its budget.  Run with `pytest -s` to see the lines
as they complete."""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from matchtop import catalog, cli
from matchtop import complexes as cx
from matchtop import graphs as gr
from matchtop import homology as hm
from matchtop import manifold as mf
from matchtop import verify

import oracle_utils


@contextmanager
def criterion(number, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL "
              f"after {time.perf_counter() - t0:.1f}s")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {number} ({name}): PASS in {elapsed:.1f}s "
          f"(budget {budget_s}s)")
    assert elapsed < budget_s


def run_cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_torus_reproduction(capsys):
    with criterion(1, "torus reproduction", 1.0):
        code, data = run_cli_json(capsys, "manifold", "--name", "K43")
        assert code == 0
        assert data["status"] == "ClosedManifold"
        assert data["class"] == "Torus"
        assert data["f_vector"] == [12, 36, 24]
        betti = {entry["p"]: entry["betti"] for entry in data["betti"]}
        assert betti == {2: [0, 2, 1], 3: [0, 2, 1]}


def test_criterion_2_one_spheres_exhaustive():
    with criterion(2, "1-sphere search, <= 6 edges", 5.0):
        report = verify.run_search(verify.SearchSpec(target="1-sphere", max_edges=6))
        assert report.verdict == "Match"
        names = sorted(h["name"] for h in report.hits)
        assert names == ["2P3", "C5", "K32"]
        # the three matching complexes are the 4-, 5- and 6-cycles
        for h, cycle_len in zip(sorted(report.hits, key=lambda h: h["edges"]), (4, 5, 6)):
            M = cx.matching_complex(gr.from_graph6(h["graph6"]))
            # a 1-dimensional complex is its 1-skeleton
            assert M.dimension == 1
            assert gr.canonical_form(cx.one_skeleton(M)) == gr.canonical_form(gr.cycle(cycle_len))
        assert not report.anomalies


def test_criterion_3_two_spheres_exhaustive():
    with criterion(3, "2-sphere search, <= 8 edges", 60.0):
        report = verify.run_search(verify.SearchSpec(target="2-sphere", max_edges=8))
        assert report.verdict == "Match"
        assert sorted(h["name"] for h in report.hits) == ["3P3", "P3+C5", "P3+K32"]
        assert not report.anomalies


def test_criterion_4_closed_two_manifolds_exhaustive():
    with criterion(4, "closed-2-manifold search, <= 12 edges", 1800.0):
        report = verify.run_search(
            verify.SearchSpec(target="closed-2-manifold", max_edges=12))
        assert report.verdict == "Match"
        got = {h["name"]: h["class"] for h in report.hits}
        assert got == {"3P3": "Sphere(2)", "P3+C5": "Sphere(2)",
                       "P3+K32": "Sphere(2)", "K43": "Torus"}
        assert not report.anomalies


def test_criterion_5_boundary_surfaces_exhaustive():
    with criterion(5, "connected 2-manifold-with-boundary search, <= 11 edges",
                   1800.0):
        report = verify.run_search(verify.SearchSpec(
            target="connected-2-manifold-with-boundary",
            max_edges=11, connected_only=True))
        assert report.verdict == "Match"
        got = {h["name"]: h["class"] for h in report.hits}
        assert got == {
            "Sp3": "Ball(2)",
            "annulus_8e": "Annulus",
            "moebius_c7": "MoebiusStrip",
            "moebius_8e": "MoebiusStrip",
            "moebius_9e": "MoebiusStrip",
            "moebius_10e": "MoebiusStrip",
            "torus_disk_9e": "TorusMinusDisk",
            "torus_disk_10e": "TorusMinusDisk",
            "torus_disk_11e": "TorusMinusDisk",
        }
        assert len(report.hits) == 9
        assert not report.anomalies


def _join_arithmetic_cases(face_cap=200_000, dim_cap=7):
    basics = [gr.path(2), gr.path(3), gr.cycle(5), gr.complete_bipartite(3, 2),
              gr.banner()] + [gr.spider(k) for k in range(2, 9)]
    counts = [len(cx.matching_complex(g).faces()) for g in basics]
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(len(basics)), size):
            product = 1
            for i in combo:
                product *= counts[i]
            if product >= face_cap:
                continue
            g = gr.disjoint_union([basics[i] for i in combo])
            pred = catalog.predict(g)
            if pred.predicted_dimension > dim_cap:
                continue
            yield g, pred


def test_criterion_6_sphere_ball_arithmetic():
    with criterion(6, "sphere/ball join arithmetic, multisets of <= 4 basics",
                   600.0):
        checked = 0
        for g, pred in _join_arithmetic_cases():
            M = cx.matching_complex(g)
            verdict = mf.check_manifold(M, 2)
            got = mf.classify(M, verdict)
            assert str(got) == str(pred.predicted_class), gr.to_graph6(g)
            assert verdict.dimension == pred.predicted_dimension, gr.to_graph6(g)
            checked += 1
        assert checked >= 300  # the cap keeps the universe finite, not tiny


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites, 500 trials", 300.0):
        report = verify.property_suite(seed=20_240_817, trials=500)
        assert report["failures"] == []
        assert set(report["checks"]) == set(verify.PROPERTY_CHECKS)
        assert all(n == 500 for n in report["checks"].values())


def _random_complex(rng):
    """A random complex with at most 200 faces: either a matching complex or
    arbitrary random facets on <= 10 vertices."""
    while True:
        if rng.random() < 0.5:
            n = rng.randint(2, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rng.randint(1, min(12, len(pairs)))
            g = gr.Graph(n, rng.sample(pairs, m))
            if g.has_isolated_vertices:
                continue
            c = cx.matching_complex(g)
        else:
            nv = rng.randint(8, 12)
            facets = []
            for _ in range(rng.randint(4, 14)):
                size = rng.randint(2, min(6, nv))
                facets.append(tuple(rng.sample(range(nv), size)))
            c = cx.from_facets(range(nv), facets)
        if len(c.faces()) <= 200:
            return c


def test_criterion_8_homology_oracle():
    with criterion(8, "homology vs independent elimination oracle", 60.0):
        rng = random.Random(88)
        cases = [_random_complex(rng) for _ in range(50)]
        cases += [
            cx.from_facets(range(5), [tuple(range(5))]),      # solid 4-simplex
            cx.from_facets(range(5), list(itertools.combinations(range(5), 4))),
            cx.matching_complex(gr.cycle(7)),                  # Moebius strip
        ]
        for n in range(3, 9):                                  # cycle complexes
            cases.append(cx.from_facets(range(n), [(i, (i + 1) % n) for i in range(n)]))
        for ell in range(1, 6):                                # crosspolytope boundaries
            cases.append(cx.matching_complex(gr.disjoint_union([gr.path(3)] * ell)))
        for c in cases:
            for p in (2, 3, 5):
                mine = hm.betti_reduced(c, p)
                minus_one, betti = oracle_utils.oracle_betti(c.facets(), p)
                assert (mine.minus_one, list(mine.betti)) == (minus_one, betti)


def test_criterion_9_negative_control():
    with criterion(9, "non-manifold witness for star plus edge", 1.0):
        g = gr.disjoint_union([gr.star(3), gr.path(2)])
        M = cx.matching_complex(g)
        verdict = mf.check_manifold(M, 2)
        assert verdict.status == "NotManifold"
        assert verdict.witness_face == (3,)
        assert verdict.witness_betti is not None
        assert verdict.witness_betti.b(0) == 2
        assert str(mf.classify(M, verdict)) == "NotManifold"
