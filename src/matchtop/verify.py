"""Exhaustive, isomorphism-free searches over small graphs.

Connected isomorphism classes are generated level by level on edge count
(adding an edge between existing vertices or a pendant edge, with a
canonical-deletion prefilter, then canonical-form dedupe); arbitrary graphs
are nondecreasing multisets of connected classes, which need no further
deduplication.  Search targets apply a cheap combinatorial prefilter before
the full homology checks, and reports compare the hit set against the
catalog's expectations.

Every target but disconnected-complex is one row of ``_MANIFOLD_TARGETS``:
a homology manifold of dimension d, closed or with boundary, and whether
only spheres count.  All of them run one path.  The ridge prefilter keeps a
graph only if every facet of M(G) has d + 1 vertices and every ridge (a
facet minus one vertex) lies in at most 2 facets: a ridge's link is a set
of points, which has sphere or ball homology only as 2 points or 1.  A
closed target needs every ridge in exactly 2 facets, a target with boundary
some ridge in 1.  The survivors are checked by ``check_manifold`` at the
search prime (status, dimension d and, for sphere-only targets, sphere
homology), again at the cross-check prime, and named by ``classify``.  The
expected hits are computed by the catalog from the same row.

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
from .homology import FieldPrime, betti_reduced
from .manifold import STATUS_CLOSED, STATUS_WITH_BOUNDARY

GUARD_MAX_EDGES = 12
GUARD_MAX_VERTICES = 10

BOUNDED_SEARCH_NOTE = (
    "exhaustive only within the stated edge/vertex budget; "
    "no claim is made about graphs beyond it"
)

# name -> (dimension d, with boundary, sphere only)
_MANIFOLD_TARGETS = {
    "1-sphere": (1, False, True),
    "2-sphere": (2, False, True),
    "closed-2-manifold": (2, False, False),
    "2-manifold-with-boundary": (2, True, False),
    "connected-2-manifold-with-boundary": (2, True, False),
}

TARGETS = (*_MANIFOLD_TARGETS, "disconnected-complex")


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
        # a non-prime fails here, before any graph is enumerated
        FieldPrime(self.p)
        if self.cross_check_prime is not None:
            FieldPrime(self.cross_check_prime)
        if self.cross_check_prime == self.p:
            # the same prime twice is no cross-check
            object.__setattr__(self, "cross_check_prime", None)

    def matching_cap(self) -> int | None:
        """The largest matching number a hit can have: d + 1 for a target of
        dimension d (dim M(G) = nu(G) - 1), None for disconnected-complex,
        which has no dimension to bound it."""
        row = _MANIFOLD_TARGETS.get(self.target)
        return None if row is None else row[0] + 1

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


def _joined_without(adj, a: int, b: int) -> bool:
    """Whether b is reachable from a without the edge (a, b): the edge is
    then not a bridge."""
    seen = 1 << a
    frontier = adj[a] & ~(1 << b)
    while frontier:
        seen |= frontier
        if seen >> b & 1:
            return True
        nxt = 0
        for w in gr._bits(frontier):
            nxt |= adj[w]
        frontier = nxt & ~seen
    return False


def _is_canonical_deletion(adj, u: int, v: int) -> bool:
    """Whether the edge (u, v) of the connected graph with adjacency masks
    ``adj`` is removable and ranks highest among its removable edges.

    The removable edges are the pendant edges, or the non-bridges when there
    is no pendant edge: the two moves of ``connected_graph_classes`` undone.
    An edge ranks by the sorted pair of (degree, sum of neighbour degrees)
    over its two ends, which an isomorphism carries along with the edge.
    Isolated vertices in ``adj`` are ignored."""
    deg = [a.bit_count() for a in adj]
    nsum = {}

    def end(w):
        s = nsum.get(w)
        if s is None:
            s = nsum[w] = sum(deg[x] for x in gr._bits(adj[w]))
        return deg[w], s

    def key(a, b):
        ka, kb = end(a), end(b)
        return (ka, kb) if ka <= kb else (kb, ka)

    if 1 in deg:
        if deg[u] != 1 and deg[v] != 1:
            return False
        top = key(u, v)
        return all(key(w, adj[w].bit_length() - 1) <= top
                   for w, d in enumerate(deg) if d == 1)
    if not _joined_without(adj, u, v):
        return False
    top = key(u, v)
    for a in range(len(adj)):
        for b in gr._bits(adj[a] >> a + 1 << a + 1):
            if key(a, b) > top and _joined_without(adj, a, b):
                return False
    return True


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
            adj = list(g.adj) + [0]
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
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    keep = _is_canonical_deletion(adj, u, v)
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    if not keep:
                        continue
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
    representatives in the same order: a parent above the cap has no child
    within it.

    A child is canonicalized only when its added edge passes
    ``_is_canonical_deletion``: it is removable (a pendant edge, or a
    non-bridge when the child has no pendant edge) and its isomorphism-
    invariant key ranks highest among the child's removable edges (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Most
    children of a class are rejected there, and the canonical-form dedupe
    removes the rest of the repeats.  The prefilter loses no class: a class
    C with m+1 edges has a removable edge e of top key, and deleting e (with
    its leaf, for a pendant edge) leaves a connected graph with m edges
    within the cap and the vertex budget, isomorphic to some parent P of
    level m.  The isomorphism carries e to an addition on P whose child is
    C, and the key and removability are invariants, so that addition ranks
    highest in its child and passes.
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


def _ridge_prefilter(facets, d: int, boundary: bool) -> bool:
    """Necessary conditions for a homology d-manifold, closed or with
    boundary: every facet has d + 1 vertices, and every ridge lies in at
    most 2 facets, in exactly 2 when closed and in 1 for some ridge with
    boundary.  The empty ridge of a 0-dimensional complex bounds nothing
    and is not counted."""
    if any(f.bit_count() != d + 1 for f in facets):
        return False
    count = {}
    for f in facets:
        m = f
        while m:
            b = m & -m
            count[f ^ b] = count.get(f ^ b, 0) + 1
            m ^= b
    count.pop(0, None)
    per_ridge = set(count.values())
    return per_ridge <= {1, 2} and (1 in per_ridge) == boundary


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
    if target == "disconnected-complex":
        if _skeleton_connected(g):
            return None
        M = cx.matching_complex(g)
        bp = betti_reduced(M, p).to_list()
        bq = betti_reduced(M, q).to_list() if q is not None else []
        return _Evaluation(True, "DisconnectedComplex", bp, bq)

    d, boundary, sphere_only = _MANIFOLD_TARGETS[target]
    if not _ridge_prefilter(_facet_masks(g), d, boundary):
        return None
    want_status = STATUS_WITH_BOUNDARY if boundary else STATUS_CLOSED
    M = cx.matching_complex(g)

    def verdict(prime):
        v = mf.check_manifold(M, prime)
        b = betti_reduced(M, prime)
        hit = v.status == want_status and v.dimension == d and (
            not sphere_only or b.is_sphere(d))
        return v, b, hit

    vp, bp, hit_p = verdict(p)
    anomaly = None
    bq = None
    if q is not None:
        vq, bq, hit_q = verdict(q)
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
    target = spec.target
    if target not in TARGETS:
        raise InvalidParameterError(f"unknown search target {target!r}")
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
    string and trial number for reproduction.  ``trials`` must be at
    least 1, since a suite that ran no check proves nothing.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
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
