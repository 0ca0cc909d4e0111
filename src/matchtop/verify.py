"""Exhaustive, isomorphism-free searches over small graphs.

Connected isomorphism classes are generated level by level on edge count
(adding an edge between existing vertices or a pendant edge, with exact
canonical-form rejection); arbitrary graphs are nondecreasing multisets of
connected classes, which need no further deduplication.  Search targets
apply cheap combinatorial prefilters before the full homology checks, and
reports compare the hit set against the catalog's expectations.

Since dim M(G) = nu(G) - 1, where nu is the matching number, a target of
dimension d can only be hit by graphs with nu = d + 1.  The searches for
those targets therefore enumerate only graphs with nu <= d + 1: children
whose nu exceeds the cap are dropped from the generation frontier before
they are canonicalized, and the components of a disjoint union share the
budget, since nu adds up over components.  The disconnected-complex search
has no dimension and enumerates everything; that uncapped enumeration is
also the oracle the pruned searches are tested against.

A bounded search only confirms a classification within its edge/vertex
budget; nothing is claimed about larger graphs.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import catalog, complexes as cx, graphs as gr, manifold as mf
from .errors import GuardExceededError, InvalidParameterError
from .homology import betti_reduced
from .manifold import STATUS_CLOSED, STATUS_WITH_BOUNDARY

GUARD_MAX_EDGES = 12
GUARD_MAX_VERTICES = 10

BOUNDED_SEARCH_NOTE = (
    "exhaustive only within the stated edge/vertex budget; "
    "no claim is made about graphs beyond it"
)

_TARGET_ALIASES = {
    "connected-2-manifold-with-boundary": "2-manifold-with-boundary",
}

TARGETS = (
    "1-sphere",
    "2-sphere",
    "closed-2-manifold",
    "2-manifold-with-boundary",
    "disconnected-complex",
)

# dim M(G) = nu(G) - 1, so a target of dimension d needs nu = d + 1
_MATCHING_CAPS = {
    "1-sphere": 2,
    "2-sphere": 3,
    "closed-2-manifold": 3,
    "2-manifold-with-boundary": 3,
}


@dataclass(frozen=True)
class SearchSpec:
    target: str
    max_edges: int = 12
    max_vertices: int = 10
    connected_only: bool = False
    p: int = 2
    cross_check_prime: int | None = 3
    force: bool = False

    def __post_init__(self):
        if self.max_edges < 1:
            raise InvalidParameterError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.max_vertices < 2:
            raise InvalidParameterError(
                f"max_vertices must be >= 2, got {self.max_vertices}")
        if self.cross_check_prime == self.p:
            # the same prime twice is no cross-check
            object.__setattr__(self, "cross_check_prime", None)

    def normalized_target(self) -> str:
        t = _TARGET_ALIASES.get(self.target, self.target)
        if t not in TARGETS:
            raise InvalidParameterError(f"unknown search target {self.target!r}")
        return t

    def matching_cap(self) -> int | None:
        """The largest matching number a hit can have, or None when the
        target has no dimension to bound it."""
        return _MATCHING_CAPS.get(self.normalized_target())

    def to_dict(self):
        return {
            "target": self.target,
            "max_edges": self.max_edges,
            "max_vertices": self.max_vertices,
            "connected_only": self.connected_only,
            "p": self.p,
            "cross_check_prime": self.cross_check_prime,
        }


def _check_guard(spec: SearchSpec):
    if spec.force:
        return
    if spec.max_edges > GUARD_MAX_EDGES or spec.max_vertices > GUARD_MAX_VERTICES:
        raise GuardExceededError(
            f"budget {spec.max_edges} edges / {spec.max_vertices} vertices exceeds "
            f"the guard ({GUARD_MAX_EDGES}/{GUARD_MAX_VERTICES}); pass force to lift"
        )


# ---------------------------------------------------------------------------
# enumeration

@dataclass
class _Levels:
    graphs: list  # connected classes with 0 edges, 1 edge, ...
    nu: list  # their matching numbers when capped, zeros when not
    pruned: list  # children dropped by the cap while building each level


_LEVELS: dict = {}  # (max_vertices, matching cap or None) -> _Levels


def _free_pairs(g: gr.Graph, nu: int):
    """Per vertex u, the mask of vertices w such that some maximum matching
    of g (of size nu) covers neither u nor w.  The masks include the vertex
    n = g.vertex_count a pendant edge would add, which no matching covers."""
    full = (1 << (g.vertex_count + 1)) - 1
    out = [0] * (g.vertex_count + 1)
    for matching in gr.maximal_matchings(g):
        if len(matching) == nu:
            free = full
            for i in matching:
                u, v = g.edges[i]
                free &= ~(1 << u | 1 << v)
            for u in gr._bits(free):
                out[u] |= free
    return out


def _levels(max_edges: int, max_vertices: int, cap: int | None) -> _Levels:
    lv = _LEVELS.get((max_vertices, cap))
    if lv is None:
        lv = _LEVELS[(max_vertices, cap)] = _Levels(
            [[], [gr.path(2)]], [[], [0 if cap is None else 1]], [0, 0])
    levels = lv.graphs
    while len(levels) <= max_edges:
        seen = {}
        pruned = 0
        for g, nu in zip(levels[-1], lv.nu[-1]):
            n = g.vertex_count
            # v == n is the pendant edge to a new vertex n
            top = n + 1 if n < max_vertices else n
            # adding (u, v) raises nu by one exactly when some maximum
            # matching misses both u and v
            free = _free_pairs(g, nu) if cap is not None else None
            for u in range(n):
                au = g.adj[u]
                fu = free[u] if free is not None else 0
                for v in range(u + 1, top):
                    if au >> v & 1:
                        continue
                    child_nu = nu
                    if fu >> v & 1:
                        if nu == cap:
                            pruned += 1
                            continue
                        child_nu += 1
                    child = gr.Graph(n + (v == n), g.edges + ((u, v),))
                    key = gr.canonical_form(child, max_vertices)
                    if key not in seen:
                        seen[key] = (child, child_nu)
        keys = sorted(seen)
        levels.append([seen[k][0] for k in keys])
        lv.nu.append([seen[k][1] for k in keys])
        lv.pruned.append(pruned)
    return lv


def connected_graph_classes(max_edges: int, max_vertices: int,
                            matching_cap: int | None = None):
    """Connected isomorphism classes by edge count, each exactly once.

    Every connected graph with m+1 edges loses either a cycle edge or a leaf
    edge to a connected graph with m edges, so augmenting by those two moves
    reaches everything.

    With a ``matching_cap``, only the classes with matching number at most
    the cap are generated: a child above the cap is dropped before it is
    canonicalized.  Nothing is lost, because adding an edge never lowers
    the matching number, so the connected parent (by one of the two moves
    above) of a class within the cap is within the cap as well.  The levels
    are then exactly the uncapped ones restricted to the cap, with the same
    representatives in the same order.
    """
    return _levels(max_edges, max_vertices, matching_cap).graphs[: max_edges + 1]


def enumerate_graphs(spec: SearchSpec, matching_cap: int | None = None):
    """Every isomorphism class of graphs without isolated vertices, with at
    most max_edges edges and max_vertices vertices, exactly once; with a
    ``matching_cap``, only those whose matching number is at most the cap."""
    _check_guard(spec)
    levels = connected_graph_classes(spec.max_edges, spec.max_vertices, matching_cap)
    comps = [g for level in levels[1:] for g in level]
    if spec.connected_only:
        yield from comps
        return
    # matching numbers add up over components (uncapped, all are 0)
    nus = _LEVELS[(spec.max_vertices, matching_cap)].nu
    comp_nu = [nu for level in nus[1: spec.max_edges + 1] for nu in level]
    nu_budget = matching_cap or 0

    def rec(start, edges_left, verts_left, nu_left, acc):
        for idx in range(start, len(comps)):
            g = comps[idx]
            if len(g.edges) > edges_left:
                break  # components are ordered by edge count
            if g.vertex_count > verts_left or comp_nu[idx] > nu_left:
                continue
            cur = acc + (g,)
            yield gr.disjoint_union(cur) if len(cur) > 1 else g
            yield from rec(idx, edges_left - len(g.edges),
                           verts_left - g.vertex_count, nu_left - comp_nu[idx], cur)

    yield from rec(0, spec.max_edges, spec.max_vertices, nu_budget, ())


def _pruning_summary(spec: SearchSpec) -> dict | None:
    """What the matching-number cap of a search removed, or None uncapped:
    the rule, the connected classes kept within the budget, and the
    children dropped from the generation frontier before canonicalization."""
    cap = spec.matching_cap()
    if cap is None:
        return None
    lv = _levels(spec.max_edges, spec.max_vertices, cap)
    return {
        "rule": f"matching number <= {cap}",
        "connected_classes_kept": sum(map(len, lv.graphs[1: spec.max_edges + 1])),
        "augmentations_pruned": sum(lv.pruned[: spec.max_edges + 1]),
    }


def clear_caches():
    _LEVELS.clear()


# ---------------------------------------------------------------------------
# target predicates


def _facet_masks(g: gr.Graph):
    out = []
    for matching in gr.maximal_matchings(g):
        m = 0
        for i in matching:
            m |= 1 << i
        out.append(m)
    return out


def _surface_prefilter(facets, closed: bool) -> bool:
    """Necessary conditions for a pure 2-complex to be a homology surface:
    every edge in one or two triangles, every vertex link a path or cycle."""
    pair_count = {}
    vertex_adj = {}
    for f in facets:
        vs = list(gr._bits(f))
        for a, b in itertools.combinations(vs, 2):
            pc = pair_count.get((a, b), 0) + 1
            if pc > 2:
                return False
            pair_count[(a, b)] = pc
        for v in vs:
            vertex_adj.setdefault(v, set()).update(w for w in vs if w != v)
    if closed and any(c != 2 for c in pair_count.values()):
        return False
    if not closed and all(c == 2 for c in pair_count.values()):
        return False
    # vertex links: degrees within the link <= 2 (== 2 when closed), connected
    for v, nbrs in vertex_adj.items():
        deg = {w: 0 for w in nbrs}
        edges = []
        for f in facets:
            if f >> v & 1:
                a, b = (w for w in gr._bits(f) if w != v)
                deg[a] += 1
                deg[b] += 1
                edges.append((a, b))
        if closed and any(d != 2 for d in deg.values()):
            return False
        if not closed and any(d > 2 for d in deg.values()):
            return False
        # connectivity of the link graph
        adj = {w: set() for w in nbrs}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        start = next(iter(nbrs))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nbrs):
            return False
    return True


def _skeleton_connected(g: gr.Graph) -> bool:
    """Connectivity of the matching complex's vertices-and-edges graph."""
    m = len(g.edges)
    if m <= 1:
        return True
    conf = g.edge_conflicts()
    full = (1 << m) - 1
    seen = 1
    frontier = [0]
    while frontier:
        i = frontier.pop()
        compatible = full & ~conf[i] & ~seen
        for j in gr._bits(compatible):
            seen |= 1 << j
            frontier.append(j)
    return seen == full


def _expects_disconnected(g: gr.Graph) -> bool:
    """Graph-side prediction of a disconnected matching complex: a 4-cycle,
    a 4-clique, or some edge incident to every other edge."""
    m = len(g.edges)
    if m >= 2:
        conf = g.edge_conflicts()
        full = (1 << m) - 1
        if any(c == full for c in conf):
            return True
    if g.vertex_count == 4 and m in (4, 6):
        if m == 4 and all(g.degree(v) == 2 for v in range(4)):
            return True
        if m == 6:
            return True
    return False


@dataclass
class _Evaluation:
    is_hit: bool
    klass: str = ""
    betti_p: list = field(default_factory=list)
    betti_q: list = field(default_factory=list)
    anomaly: str | None = None


def _evaluate(g: gr.Graph, target: str, p: int, q: int | None) -> _Evaluation | None:
    """None for cheap rejections; otherwise the full verdict for a survivor."""
    facets = _facet_masks(g)
    sizes = {f.bit_count() for f in facets}
    if target == "disconnected-complex":
        if _skeleton_connected(g):
            return None
        M = cx.matching_complex(g)
        bp = betti_reduced(M, p).to_list()
        bq = betti_reduced(M, q).to_list() if q else []
        return _Evaluation(True, "DisconnectedComplex", bp, bq)

    if target == "1-sphere":
        if sizes != {2}:
            return None
        deg = {}
        for f in facets:
            for v in gr._bits(f):
                deg[v] = deg.get(v, 0) + 1
        if len(deg) != len(g.edges) or any(d != 2 for d in deg.values()):
            return None
        if not _skeleton_connected(g):
            return None
        want_status, want_dim, want_sphere = STATUS_CLOSED, 1, True
    elif target == "2-sphere":
        if sizes != {3} or not _surface_prefilter(facets, closed=True):
            return None
        want_status, want_dim, want_sphere = STATUS_CLOSED, 2, True
    elif target == "closed-2-manifold":
        if sizes != {3} or not _surface_prefilter(facets, closed=True):
            return None
        want_status, want_dim, want_sphere = STATUS_CLOSED, 2, False
    elif target == "2-manifold-with-boundary":
        if sizes != {3} or not _surface_prefilter(facets, closed=False):
            return None
        want_status, want_dim, want_sphere = STATUS_WITH_BOUNDARY, 2, False
    else:
        raise InvalidParameterError(f"unknown search target {target!r}")

    M = cx.matching_complex(g)
    vp = mf.check_manifold(M, p)
    bp = betti_reduced(M, p)
    hit_p = vp.status == want_status and vp.dimension == want_dim
    if hit_p and want_sphere:
        hit_p = bp.is_sphere(want_dim)
    anomaly = None
    bq = None
    if q is not None:
        vq = mf.check_manifold(M, q)
        bq = betti_reduced(M, q)
        hit_q = vq.status == want_status and vq.dimension == want_dim
        if hit_q and want_sphere:
            hit_q = bq.is_sphere(want_dim)
        if vp.status != vq.status or hit_p != hit_q:
            anomaly = (
                f"verdict differs between GF({p}) ({vp.status}) and "
                f"GF({q}) ({vq.status})"
            )
    if not hit_p and anomaly is None:
        return None
    klass = str(mf.classify(M, vp, (p, q if q else p)))
    return _Evaluation(hit_p, klass, bp.to_list(),
                       bq.to_list() if bq is not None else [], anomaly)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SearchReport:
    spec: SearchSpec
    hits: list
    expected: list
    verdict: str
    extra: list
    missing: list
    anomalies: list
    graphs_examined: int
    elapsed_ms: int
    pruning: dict | None = None
    note: str = BOUNDED_SEARCH_NOTE

    def to_dict(self, include_timing=True):
        out = {
            "spec": self.spec.to_dict(),
            "hits": self.hits,
            "expected": self.expected,
            "verdict": self.verdict,
            "extra": self.extra,
            "missing": self.missing,
            "anomalies": self.anomalies,
            "graphs_examined": self.graphs_examined,
            "pruning": self.pruning,
            "note": self.note,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_timing=True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def run_search(spec: SearchSpec) -> SearchReport:
    """Apply the target predicate to every enumerated graph and compare the
    hits with the catalog's expectations."""
    _check_guard(spec)
    target = spec.normalized_target()
    q = spec.cross_check_prime
    t0 = time.perf_counter()
    hits = []
    anomalies = []
    examined = 0
    predicted_disconnected = {}
    for g in enumerate_graphs(spec, spec.matching_cap()):
        examined += 1
        canon = None
        if target == "disconnected-complex" and _expects_disconnected(g):
            canon = gr.canonical_form(g, spec.max_vertices)
            predicted_disconnected[canon] = g
        result = _evaluate(g, target, spec.p, q)
        if result is None:
            continue
        if canon is None:
            canon = gr.canonical_form(g, spec.max_vertices)
        if result.anomaly:
            anomalies.append({"graph6": canon.decode(), "detail": result.anomaly})
        if result.is_hit:
            hits.append((canon, g, result))
    hits.sort(key=lambda t: (len(t[1].edges), t[0]))

    if target == "disconnected-complex":
        expected_map = {k: (None, g, "DisconnectedComplex")
                        for k, g in predicted_disconnected.items()}
    else:
        expected_map = {}
        for name, g, cls in catalog.expected_search_hits(
                target, spec.max_edges, spec.max_vertices, spec.connected_only):
            expected_map[gr.canonical_form(g, spec.max_vertices)] = (name, g, cls)

    hit_keys = {k for k, _, _ in hits}
    extra = sorted(k.decode() for k in hit_keys - set(expected_map))
    missing = sorted(expected_map[k][0] or k.decode()
                     for k in set(expected_map) - hit_keys)
    if extra:
        verdict = "ExtraHit"
    elif missing:
        verdict = "MissingHit"
    else:
        verdict = "Match"

    hit_dicts = []
    for canon, g, result in hits:
        name = expected_map.get(canon, (None,))[0]
        hit = {
            "graph6": canon.decode(),
            "name": name,
            "class": result.klass,
            f"betti_p{spec.p}": result.betti_p,
        }
        if q is not None:
            hit[f"betti_p{q}"] = result.betti_q
        hit["vertices"] = g.vertex_count
        hit["edges"] = len(g.edges)
        hit_dicts.append(hit)
    expected_dicts = [
        {"name": name, "graph6": key.decode(), "class": cls if isinstance(cls, str) else str(cls)}
        for key, (name, g, cls) in sorted(expected_map.items())
    ]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SearchReport(spec, hit_dicts, expected_dicts, verdict, extra,
                        missing, anomalies, examined, elapsed, _pruning_summary(spec))


# ---------------------------------------------------------------------------
# randomized property suite


def _random_graph(rng: random.Random) -> gr.Graph:
    while True:
        n = rng.randint(2, 9)
        max_m = min(12, n * (n - 1) // 2)
        m = rng.randint(1, max_m)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
        g = gr.Graph(n, pairs)
        if not g.has_isolated_vertices:
            return g


def _link_matches_avoided_subgraph(g, face, M) -> bool:
    lk = cx.link(M, face)
    sub, index_map = gr.subgraph_avoiding(g, face)
    M2 = cx.matching_complex(sub)
    if {index_map[l] for l in lk.labels} != set(M2.labels):
        return False
    mapped = {frozenset(index_map[l] for l in facet) for facet in lk.facets()}
    return mapped == {frozenset(f) for f in M2.facets()}


PROPERTY_CHECKS = (
    "flag",
    "link-of-matching",
    "union-join",
    "no-induced-p6",
    "diameter",
    "disconnection",
)


def property_suite(seed: int, trials: int) -> dict:
    """Randomized checks of the structural facts the library leans on.

    Zero failures expected; any counterexample is reported with the graph6
    string and trial number for reproduction.
    """
    rng = random.Random(seed)
    failures = []
    ran = {name: 0 for name in PROPERTY_CHECKS}

    def record(check, g, detail=""):
        failures.append({
            "check": check,
            "graph6": gr.to_graph6(g),
            "detail": detail,
        })

    for trial in range(trials):
        g = _random_graph(rng)
        M = cx.matching_complex(g)

        ran["flag"] += 1
        if not cx.is_flag(M):
            record("flag", g)

        ran["link-of-matching"] += 1
        face = rng.choice(gr.enumerate_matchings(g))
        if not _link_matches_avoided_subgraph(g, face, M):
            record("link-of-matching", g, f"face {face}")

        ran["union-join"] += 1
        g2 = _random_graph(rng)
        joined = cx.join(M, cx.matching_complex(g2))
        direct = cx.matching_complex(gr.disjoint_union([g, g2]))
        if joined != direct:
            record("union-join", g, f"with {gr.to_graph6(g2)}")

        ran["no-induced-p6"] += 1
        if cx.has_induced_path6(M):
            record("no-induced-p6", g)

        ran["diameter"] += 1
        if cx.is_connected(M) and cx.diameter(M) > 4:
            record("diameter", g, f"diameter {cx.diameter(M)}")

        ran["disconnection"] += 1
        if cx.is_connected(M) != (not _expects_disconnected(g)):
            record("disconnection", g)

    return {
        "seed": seed,
        "trials": trials,
        "checks": ran,
        "failures": failures,
    }
