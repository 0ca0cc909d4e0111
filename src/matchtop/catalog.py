"""The finite graph catalogs behind the classification.

Two families drive everything.  The basic sphere graphs {P3, C5, K32} have
matching complexes S^0, C_5 and C_6; the basic ball graphs {P2, Gamma,
Sp_k} have matching complexes that are balls.  Disjoint unions of basics
give spheres and balls of predictable dimension.  Beyond those, a short
list of exceptional connected graphs (digitized here as explicit edge
lists) produce the torus and the classified surfaces with boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs as gr
from .errors import InvalidParameterError
from .manifold import ManifoldClass


@dataclass(frozen=True)
class BasicGraphKind:
    """One of P2, P3, C5, K32, Gamma, or Spider(k)."""

    kind: str
    legs: int | None = None

    def __str__(self):
        if self.kind == "Spider":
            return f"Spider({self.legs})"
        return self.kind

    @property
    def note(self) -> str | None:
        if self.kind == "Spider" and self.legs == 2:
            return "isomorphic to P5"
        return None

    @property
    def is_ball_family(self) -> bool:
        return self.kind in ("P2", "Gamma", "Spider")


def _canon(g):
    return gr.canonical_form(g)


_SMALL_BASICS = None


def _small_basics():
    global _SMALL_BASICS
    if _SMALL_BASICS is None:
        _SMALL_BASICS = {
            _canon(gr.path(2)): BasicGraphKind("P2"),
            _canon(gr.path(3)): BasicGraphKind("P3"),
            _canon(gr.cycle(5)): BasicGraphKind("C5"),
            _canon(gr.complete_bipartite(3, 2)): BasicGraphKind("K32"),
            _canon(gr.banner()): BasicGraphKind("Gamma"),
        }
    return _SMALL_BASICS


def _spider_legs(g: gr.Graph) -> int | None:
    """k if g is a spider with k length-2 legs (k >= 2), else None."""
    n = g.vertex_count
    if n < 5 or n % 2 == 0 or len(g.edges) != n - 1:
        return None
    k = (n - 1) // 2
    for center in range(n):
        if g.degree(center) != k:
            continue
        tips = set()
        ok = True
        for mid in g.neighbors(center):
            if g.degree(mid) != 2:
                ok = False
                break
            others = [w for w in g.neighbors(mid) if w != center]
            tip = others[0]
            if g.degree(tip) != 1:
                ok = False
                break
            tips.add(tip)
        if ok and len(tips) == k:
            return k
    return None


def recognize_basic(g: gr.Graph) -> BasicGraphKind | None:
    """Identify a connected graph as a basic sphere or ball graph."""
    if g.has_isolated_vertices:
        raise InvalidParameterError("graph has isolated vertices")
    if not gr.is_connected_graph(g):
        raise InvalidParameterError("recognize_basic expects a connected graph")
    if len(g.edges) <= 6 and g.vertex_count <= 6:
        kind = _small_basics().get(_canon(g))
        if kind is not None:
            return kind
    k = _spider_legs(g)
    if k is not None and k >= 2:
        return BasicGraphKind("Spider", k)
    return None


# ---------------------------------------------------------------------------
# exceptional graphs (explicit edge lists; the seven-vertex ones are drawn
# with the documented numbering below)


@dataclass(frozen=True)
class ExceptionalEntry:
    name: str
    graph: gr.Graph
    expected_class: ManifoldClass
    vertices: int
    edges: int
    description: str


def _c7_plus(chords):
    pairs = [(i, (i + 1) % 7) for i in range(7)] + list(chords)
    return gr.Graph(7, pairs)


def _exceptional_graphs():
    annulus = gr.Graph(
        7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]
    )
    torus_disk_9e = gr.Graph(
        7, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]
    )
    torus_disk_10e = gr.Graph(
        7,
        [(0, 1), (0, 3), (0, 6), (1, 2), (1, 5), (2, 4), (2, 6), (3, 5), (4, 5), (5, 6)],
    )
    torus_disk_11e = gr.Graph(
        7,
        [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 6),
         (4, 5), (5, 6)],
    )
    return [
        ExceptionalEntry(
            "K43", gr.complete_bipartite(4, 3), ManifoldClass("Torus"), 7, 12,
            "complete bipartite graph on 4+3 vertices; matching complex is a torus",
        ),
        ExceptionalEntry(
            "Sp3", gr.spider(3), ManifoldClass("Ball", 2), 7, 6,
            "spider with three length-2 legs; matching complex is a 2-ball",
        ),
        ExceptionalEntry(
            "annulus_8e", annulus, ManifoldClass("Annulus"), 7, 8,
            "two 4-cycles sharing one vertex",
        ),
        ExceptionalEntry(
            "moebius_c7", gr.cycle(7), ManifoldClass("MoebiusStrip"), 7, 7,
            "the 7-cycle",
        ),
        ExceptionalEntry(
            "moebius_8e", _c7_plus([(1, 5)]), ManifoldClass("MoebiusStrip"), 7, 8,
            "7-cycle with one distance-3 chord",
        ),
        ExceptionalEntry(
            "moebius_9e", _c7_plus([(0, 4), (1, 5)]), ManifoldClass("MoebiusStrip"),
            7, 9, "7-cycle with two rotated distance-3 chords",
        ),
        ExceptionalEntry(
            "moebius_10e", _c7_plus([(0, 4), (1, 5), (2, 6)]),
            ManifoldClass("MoebiusStrip"), 7, 10,
            "7-cycle with three rotated distance-3 chords",
        ),
        ExceptionalEntry(
            "torus_disk_9e", torus_disk_9e, ManifoldClass("TorusMinusDisk"), 7, 9,
            "7 vertices, 9 edges; matching complex is a torus minus an open disk",
        ),
        ExceptionalEntry(
            "torus_disk_10e", torus_disk_10e, ManifoldClass("TorusMinusDisk"), 7, 10,
            "7 vertices, 10 edges; matching complex is a torus minus an open disk",
        ),
        ExceptionalEntry(
            "torus_disk_11e", torus_disk_11e, ManifoldClass("TorusMinusDisk"), 7, 11,
            "7 vertices, 11 edges; matching complex is a torus minus an open disk",
        ),
    ]


_EXCEPTIONAL = None


def exceptional_table():
    global _EXCEPTIONAL
    if _EXCEPTIONAL is None:
        _EXCEPTIONAL = _exceptional_graphs()
    return list(_EXCEPTIONAL)


def _union(*parts):
    return gr.disjoint_union(parts)


_DISCONNECTED_BALLS = None


def disconnected_ball_table():
    """Disconnected graphs whose matching complexes are 2-balls (cones and
    suspensions over the path and cycle complexes)."""
    global _DISCONNECTED_BALLS
    if _DISCONNECTED_BALLS is None:
        p2, p3 = gr.path(2), gr.path(3)
        _DISCONNECTED_BALLS = [
            ("3P2", _union(p2, p2, p2), "a single triangle"),
            ("2P2+P3", _union(p2, p2, p3), "two triangles glued along an edge"),
            ("P2+P5", _union(p2, gr.path(5)), "cone over a 4-vertex path"),
            ("P2+Gamma", _union(p2, gr.banner()), "cone over a 5-vertex path"),
            ("P2+2P3", _union(p2, p3, p3), "cone over a 4-cycle"),
            ("P2+C5", _union(p2, gr.cycle(5)), "cone over a 5-cycle"),
            ("P2+K32", _union(p2, gr.complete_bipartite(3, 2)), "cone over a 6-cycle"),
            ("P3+P5", _union(p3, gr.path(5)), "suspension of a 4-vertex path"),
            ("P3+Gamma", _union(p3, gr.banner()), "suspension of a 5-vertex path"),
        ]
    return list(_DISCONNECTED_BALLS)


# ---------------------------------------------------------------------------
# named graphs for the CLI


def _registry():
    reg = {}
    for n in range(2, 9):
        reg[f"p{n}"] = lambda n=n: gr.path(n)
    for n in range(3, 9):
        reg[f"c{n}"] = lambda n=n: gr.cycle(n)
    for n in range(3, 6):
        reg[f"k{n}"] = lambda n=n: gr.complete(n)
    reg["k13"] = lambda: gr.star(3)
    reg["k32"] = lambda: gr.complete_bipartite(3, 2)
    reg["k43"] = lambda: gr.complete_bipartite(4, 3)
    reg["gamma"] = gr.banner
    reg["banner"] = gr.banner
    for k in range(2, 9):
        reg[f"sp{k}"] = lambda k=k: gr.spider(k)
    for entry in exceptional_table():
        reg[entry.name.lower()] = lambda e=entry: e.graph
    for name, g, _ in disconnected_ball_table():
        reg[name.lower()] = lambda g=g: g
    reg["2p3"] = lambda: _union(gr.path(3), gr.path(3))
    reg["3p3"] = lambda: _union(gr.path(3), gr.path(3), gr.path(3))
    reg["p3+c5"] = lambda: _union(gr.path(3), gr.cycle(5))
    reg["p3+k32"] = lambda: _union(gr.path(3), gr.complete_bipartite(3, 2))
    reg["k13+p2"] = lambda: _union(gr.star(3), gr.path(2))
    reg["k13_p2"] = reg["k13+p2"]
    return reg


_REGISTRY = None


def named_graph(name: str) -> gr.Graph:
    """Resolve a catalog name (case-insensitive; '-matching' suffix ignored)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    key = name.strip().lower()
    if key.endswith("-matching"):
        key = key[: -len("-matching")]
    key = key.replace("_{", "").replace("}", "").replace(",", "")
    if key not in _REGISTRY:
        raise InvalidParameterError(f"unknown graph name {name!r}")
    return _REGISTRY[key]()


def catalog_names():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# closed-form predictions


@dataclass(frozen=True)
class Prediction:
    kind: str  # "basic" | "exceptional" | "none"
    decomposition: tuple | None = None  # BasicGraphKind per component
    exceptional_name: str | None = None
    predicted_class: ManifoldClass | None = None
    predicted_dimension: int | None = None

    def to_dict(self):
        return {
            "kind": self.kind,
            "decomposition": [str(k) for k in self.decomposition]
            if self.decomposition is not None else None,
            "exceptional_name": self.exceptional_name,
            "class": str(self.predicted_class) if self.predicted_class else None,
            "dimension": self.predicted_dimension,
        }


NO_PREDICTION = Prediction("none")


def predict_for_kinds(kinds) -> Prediction:
    """Sphere/ball dimension arithmetic for a multiset of basic components.

    With i copies of P2, j of Gamma, k_d spiders with d legs, l of P3, m of
    C5 and n of K32, the matching complex is a sphere of dimension
    l + 2m + 2n - 1 when i + j + sum(k_d) = 0, and otherwise a ball of
    dimension i + 2j + sum(d * k_d) + l + 2m + 2n - 1.
    """
    kinds = tuple(kinds)
    i = sum(1 for k in kinds if k.kind == "P2")
    j = sum(1 for k in kinds if k.kind == "Gamma")
    spider_sum = sum(k.legs for k in kinds if k.kind == "Spider")
    n_ball = i + j + sum(1 for k in kinds if k.kind == "Spider")
    sphere_part = (
        sum(1 for k in kinds if k.kind == "P3")
        + 2 * sum(1 for k in kinds if k.kind == "C5")
        + 2 * sum(1 for k in kinds if k.kind == "K32")
    )
    if n_ball == 0:
        dim = sphere_part - 1
        return Prediction("basic", kinds, None, ManifoldClass("Sphere", dim), dim)
    dim = i + 2 * j + spider_sum + sphere_part - 1
    return Prediction("basic", kinds, None, ManifoldClass("Ball", dim), dim)


def predict(g: gr.Graph) -> Prediction:
    """Predicted manifold type of the matching complex, if the graph is a
    disjoint union of basics or matches a cataloged exceptional graph."""
    if g.has_isolated_vertices:
        raise InvalidParameterError("predict expects no isolated vertices")
    comps, _ = gr.connected_components(g)
    kinds = []
    for comp in comps:
        kind = recognize_basic(comp)
        if kind is None:
            kinds = None
            break
        kinds.append(kind)
    if kinds is not None:
        return predict_for_kinds(kinds)
    if g.vertex_count <= gr.CANONICAL_VERTEX_CAP:
        key = _canon(g)
        for entry in exceptional_table():
            if key == _canon(entry.graph):
                return Prediction(
                    "exceptional", None, entry.name, entry.expected_class,
                    2 if entry.expected_class.dimension is None else entry.expected_class.dimension,
                )
        for name, graph, _ in disconnected_ball_table():
            if key == _canon(graph):
                return Prediction("exceptional", None, name, ManifoldClass("Ball", 2), 2)
    return NO_PREDICTION


# ---------------------------------------------------------------------------
# expected hit sets for the exhaustive searches


def expected_search_hits(target: str, max_edges: int, max_vertices: int,
                         connected_only: bool):
    """The cataloged graphs a search should find, filtered to the budget.

    Returns None for targets whose expectation is computed per graph
    (disconnected-complex)."""
    p3 = gr.path(3)
    if target == "1-sphere":
        entries = [
            ("2P3", _union(p3, p3), ManifoldClass("Sphere", 1)),
            ("C5", gr.cycle(5), ManifoldClass("Sphere", 1)),
            ("K32", gr.complete_bipartite(3, 2), ManifoldClass("Sphere", 1)),
        ]
    elif target == "2-sphere":
        entries = [
            ("3P3", _union(p3, p3, p3), ManifoldClass("Sphere", 2)),
            ("P3+C5", _union(p3, gr.cycle(5)), ManifoldClass("Sphere", 2)),
            ("P3+K32", _union(p3, gr.complete_bipartite(3, 2)), ManifoldClass("Sphere", 2)),
        ]
    elif target == "closed-2-manifold":
        entries = [
            ("3P3", _union(p3, p3, p3), ManifoldClass("Sphere", 2)),
            ("P3+C5", _union(p3, gr.cycle(5)), ManifoldClass("Sphere", 2)),
            ("P3+K32", _union(p3, gr.complete_bipartite(3, 2)), ManifoldClass("Sphere", 2)),
            ("K43", gr.complete_bipartite(4, 3), ManifoldClass("Torus")),
        ]
    elif target in ("2-manifold-with-boundary", "connected-2-manifold-with-boundary"):
        entries = [(e.name, e.graph, e.expected_class) for e in exceptional_table()
                   if e.name != "K43"]
        if not connected_only:
            entries += [(name, g, ManifoldClass("Ball", 2))
                        for name, g, _ in disconnected_ball_table()]
    elif target == "disconnected-complex":
        return None
    else:
        raise InvalidParameterError(f"unknown search target {target!r}")
    kept = []
    for name, g, cls in entries:
        if len(g.edges) > max_edges or g.vertex_count > max_vertices:
            continue
        if connected_only and not gr.is_connected_graph(g):
            continue
        kept.append((name, g, str(cls)))
    return kept


def clear_caches():
    global _SMALL_BASICS, _EXCEPTIONAL, _DISCONNECTED_BALLS, _REGISTRY
    _SMALL_BASICS = _EXCEPTIONAL = _DISCONNECTED_BALLS = _REGISTRY = None
