"""The finite graph catalogs behind the classification.

Two families drive everything.  The basic sphere graphs {P3, C5, K32} have
matching complexes S^0, C_5 and C_6; the basic ball graphs {P2, Gamma,
Sp_k} have matching complexes that are balls.  Disjoint unions of basics
give spheres and balls of predictable dimension.  Beyond those, a short
list of exceptional connected graphs (digitized here as explicit edge
lists) produce the torus and the classified surfaces with boundary.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import graphs as gr
from .errors import InvalidParameterError
from .manifold import STATUS_CLOSED, STATUS_WITH_BOUNDARY, ManifoldClass


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
    def name(self) -> str:
        """The name in a union's name: Spider(2) is P5, Spider(k) is Spk."""
        if self.kind == "Spider":
            return "P5" if self.legs == 2 else f"Sp{self.legs}"
        return self.kind

    @property
    def graph(self) -> gr.Graph:
        if self.kind == "Spider":
            return gr.spider(self.legs)
        return _SMALL_BASIC_GRAPHS[self.kind]()


# in naming order; the spiders follow, by leg count
_SMALL_BASIC_GRAPHS = {
    "P2": lambda: gr.path(2),
    "P3": lambda: gr.path(3),
    "C5": lambda: gr.cycle(5),
    "K32": lambda: gr.complete_bipartite(3, 2),
    "Gamma": gr.banner,
}


@functools.cache
def _small_basics():
    kinds = [BasicGraphKind(k) for k in _SMALL_BASIC_GRAPHS]
    return {gr.canonical_form(k.graph): k for k in kinds}


def _spider_legs(g: gr.Graph) -> int | None:
    """k if the connected graph g is a spider with k length-2 legs (k >= 2),
    else None.

    Such a g has n = 2k + 1 vertices, n - 1 edges, one vertex of degree k,
    k of degree 2 and k leaves, each leaf next to a vertex of degree 2; and
    these make g a spider.  Two leaves next to one vertex of degree 2 would
    be a component of their own, so the k leaf edges take one end of each
    vertex of degree 2, and the k edges of the centre take the other."""
    n = g.vertex_count
    k = (n - 1) // 2
    if k < 2 or n != 2 * k + 1 or len(g.edges) != n - 1:
        return None
    deg = [a.bit_count() for a in g.adj]
    if sorted(deg) != [1] * k + [2] * k + [k]:
        return None
    if any(deg[a.bit_length() - 1] != 2 for a, d in zip(g.adj, deg) if d == 1):
        return None
    return k


def recognize_basic(g: gr.Graph) -> BasicGraphKind | None:
    """Identify a connected graph as a basic sphere or ball graph."""
    if g.has_isolated_vertices:
        raise InvalidParameterError("graph has isolated vertices")
    if not gr.is_connected_graph(g):
        raise InvalidParameterError("recognize_basic expects a connected graph")
    if len(g.edges) <= 6 and g.vertex_count <= 6:
        kind = _small_basics().get(gr.canonical_form(g))
        if kind is not None:
            return kind
    k = _spider_legs(g)
    if k is not None:
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


@functools.cache
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
    return (
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
    )


def exceptional_table():
    return list(_exceptional_graphs())


def _union(*parts):
    return gr.disjoint_union(parts)


@functools.cache
def _disconnected_balls():
    p2, p3 = gr.path(2), gr.path(3)
    return (
        ("3P2", _union(p2, p2, p2), "a single triangle"),
        ("2P2+P3", _union(p2, p2, p3), "two triangles glued along an edge"),
        ("P2+P5", _union(p2, gr.path(5)), "cone over a 4-vertex path"),
        ("P2+Gamma", _union(p2, gr.banner()), "cone over a 5-vertex path"),
        ("P2+2P3", _union(p2, p3, p3), "cone over a 4-cycle"),
        ("P2+C5", _union(p2, gr.cycle(5)), "cone over a 5-cycle"),
        ("P2+K32", _union(p2, gr.complete_bipartite(3, 2)), "cone over a 6-cycle"),
        ("P3+P5", _union(p3, gr.path(5)), "suspension of a 4-vertex path"),
        ("P3+Gamma", _union(p3, gr.banner()), "suspension of a 5-vertex path"),
    )


def disconnected_ball_table():
    """Disconnected graphs whose matching complexes are 2-balls (cones and
    suspensions over the path and cycle complexes)."""
    return list(_disconnected_balls())


# ---------------------------------------------------------------------------
# named graphs for the CLI


@functools.cache
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


def named_graph(name: str) -> gr.Graph:
    """Resolve a catalog name (case-insensitive; '-matching' suffix ignored)."""
    key = name.strip().lower()
    if key.endswith("-matching"):
        key = key[: -len("-matching")]
    key = key.replace("_{", "").replace("}", "").replace(",", "")
    reg = _registry()
    if key not in reg:
        raise InvalidParameterError(f"unknown graph name {name!r}")
    return reg[key]()


def catalog_names():
    return sorted(_registry())


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

    M(G + H) = M(G) * M(H) and dim M(G) = nu(G) - 1, so the join is a
    sphere of dimension sum(nu(part)) - 1 when every part is P3, C5 or K32,
    and a ball of that dimension otherwise.  As nu is 1 on P2 and P3, 2 on
    C5, K32 and Gamma, and d on Sp_d: with i copies of P2, j of Gamma, k_d
    spiders with d legs, l of P3, m of C5 and n of K32, it is a sphere of
    dimension l + 2m + 2n - 1 when i + j + sum(k_d) = 0, and otherwise a
    ball of dimension i + 2j + sum(d * k_d) + l + 2m + 2n - 1.
    """
    kinds = tuple(kinds)
    dim = sum(gr.matching_number(k.graph) for k in kinds) - 1
    label = "Sphere" if all(k.kind in ("P3", "C5", "K32") for k in kinds) else "Ball"
    return Prediction("basic", kinds, None, ManifoldClass(label, dim), dim)


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
        key = gr.canonical_form(g)
        for entry in exceptional_table():
            if key == gr.canonical_form(entry.graph):
                return Prediction(
                    "exceptional", None, entry.name, entry.expected_class,
                    2 if entry.expected_class.dimension is None else entry.expected_class.dimension,
                )
    return NO_PREDICTION


# ---------------------------------------------------------------------------
# expected hit sets for the exhaustive searches


# the search targets with a manifold of dimension d as hits:
# name -> (dimension d, the manifold status of a hit, sphere only)
_MANIFOLD_TARGETS = {
    "1-sphere": (1, STATUS_CLOSED, True),
    "2-sphere": (2, STATUS_CLOSED, True),
    "closed-2-manifold": (2, STATUS_CLOSED, False),
    "2-manifold-with-boundary": (2, STATUS_WITH_BOUNDARY, False),
    "connected-2-manifold-with-boundary": (2, STATUS_WITH_BOUNDARY, False),
}

_CLOSED_LABELS = ("Sphere", "Torus")


def _basic_unions(nu: int):
    """Every multiset of basics, in naming order, whose matching numbers
    add up to nu."""
    kinds = [BasicGraphKind(k) for k in _SMALL_BASIC_GRAPHS]
    kinds += [BasicGraphKind("Spider", k) for k in range(2, nu + 1)]
    nus = [gr.matching_number(k.graph) for k in kinds]

    def rec(start, left, acc):
        if left == 0:
            yield acc
        for i in range(start, len(kinds)):
            if nus[i] <= left:
                yield from rec(i, left - nus[i], acc + (kinds[i],))

    return rec(0, nu, ())


def _union_name(kinds) -> str:
    """'3P3', 'P2+C5', 'P3+P5': repeated parts counted, in naming order."""
    parts = []
    for name, grp in itertools.groupby(k.name for k in kinds):
        n = len(list(grp))
        parts.append(f"{n}{name}" if n > 1 else name)
    return "+".join(parts)


def expected_search_hits(target: str, max_edges: int, max_vertices: int,
                         connected_only: bool):
    """The cataloged graphs a search should find, filtered to the budget.

    A manifold target is a row (d, status, sphere_only) of the search
    table.  Since dim M(G) = nu(G) - 1, its candidates are the disjoint
    unions of basics whose matching numbers add up to d + 1, each with
    the class ``predict_for_kinds`` gives it, and in dimension 2 also the
    exceptional graphs that are not basics themselves.  A candidate is
    kept when its class has the row's status (closed for the labels in
    ``_CLOSED_LABELS``, a sphere or the torus, and with boundary for any
    other) and, for sphere-only targets, when it is a sphere.  Returns
    None for targets whose expectation is computed per graph
    (disconnected-complex)."""
    if target == "disconnected-complex":
        return None
    if target not in _MANIFOLD_TARGETS:
        raise InvalidParameterError(f"unknown search target {target!r}")
    d, status, sphere_only = _MANIFOLD_TARGETS[target]
    entries = [(_union_name(kinds), gr.disjoint_union([k.graph for k in kinds]),
                predict_for_kinds(kinds).predicted_class)
               for kinds in _basic_unions(d + 1)]
    if d == 2:
        entries += [(e.name, e.graph, e.expected_class) for e in exceptional_table()
                    if recognize_basic(e.graph) is None]
    kept = []
    for name, g, cls in entries:
        if len(g.edges) > max_edges or g.vertex_count > max_vertices:
            continue
        if connected_only and not gr.is_connected_graph(g):
            continue
        if (STATUS_CLOSED if cls.label in _CLOSED_LABELS else STATUS_WITH_BOUNDARY) != status:
            continue
        if sphere_only and cls.label != "Sphere":
            continue
        kept.append((name, g, str(cls)))
    return kept


def clear_caches():
    for table in (_small_basics, _exceptional_graphs, _disconnected_balls, _registry):
        table.cache_clear()
