"""Exhaustive, isomorphism-free searches over small graphs.

Connected isomorphism classes are generated level by level on edge count
(adding an edge between existing vertices or a pendant edge, one addition
per orbit of the parent's automorphisms, with a canonical-deletion
prefilter, then a canonical-form dedupe among the children of different
parents that share an invariant); arbitrary graphs are nondecreasing
multisets of connected classes, which need no further deduplication.
Search targets apply a cheap combinatorial prefilter before the full
homology checks, and reports compare the hit set against the catalog's
expectations.

Every target but disconnected-complex is one row of the catalog's
``_MANIFOLD_TARGETS``: a homology manifold of dimension d, closed or with
boundary, and whether only spheres count.  All of them run one path.  The
ridge prefilter keeps a graph only if every facet of M(G) has d + 1
vertices and every ridge (a facet minus one vertex) lies in at most 2
facets: a ridge's link is a set of points, which has sphere or ball
homology only as 2 points or 1.  A closed target needs every ridge in
exactly 2 facets, a target with boundary some ridge in 1.  The facets of
M(G) are the maximal matchings of G, so M(G) is pure exactly when G is
equimatchable, and a homology manifold is pure.  The prefilter lists no
facet: it walks the matchings of at most d edges, each once, by
increasing edge index.  One that no edge avoids is a maximal matching
that is too small, and the graph is rejected.  If none is, and no ridge
(a d-matching) is avoided by two disjoint edges, then no (d + 2)-matching
exists, since one loses two disjoint edges to such a ridge, so every
(d + 1)-matching is maximal and M(G) is pure.  M(G) being flag, the
facets through a ridge are then exactly the ridge plus each edge that
avoids it, and the ridge is counted by its avoiding edges; one with more
than 2 fails either way.  For d <= 0 the empty ridge is not counted, as
in ``complexes._ridge_cofacets``: d = -1 takes a graph with no edge and
d = 0 one whose edges pairwise meet, both closed.  The survivors
are checked by ``check_manifold`` at the search prime (status, dimension d
and, for sphere-only targets, sphere homology), again at the cross-check
prime, and named by ``classify``.  The expected hits are computed by the
catalog from the same row.

Since dim M(G) = nu(G) - 1, where nu is the matching number, a target of
dimension d can only be hit by graphs with nu = d + 1.  Every search
therefore enumerates only graphs with nu at most a cap: children whose nu
exceeds it are dropped from the generation frontier before they are
canonicalized, and the components of a disjoint union share the budget,
since nu adds up over components.

If nu(G) >= 3, then M(G) is connected.  The edges of a maximum matching
are pairwise disjoint, so they span a clique of the 1-skeleton, and any
other edge meets at most two of them, one per endpoint, so it is adjacent
to a third.  Three consequences: every graph ``_expects_disconnected``
predicts has nu <= 2; every manifold hit of dimension >= 2 is connected,
which is why connected-2-manifold-with-boundary is an exact alias of
2-manifold-with-boundary; and every disconnected-complex hit has nu <= 2,
so that search has the cap 2.

A bounded search only confirms a classification within its edge/vertex
budget; nothing is claimed about larger graphs.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import time
from dataclasses import dataclass, fields

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

TARGETS = (*catalog._MANIFOLD_TARGETS, "disconnected-complex")


def _require_int(name: str, value, least: int):
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")


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
        if self.target not in TARGETS:
            raise InvalidParameterError(f"unknown search target {self.target!r}")
        _require_int("max_edges", self.max_edges, 1)
        _require_int("max_vertices", self.max_vertices, 2)
        for name in ("connected_only", "force"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidParameterError(f"{name} must be a bool, got {getattr(self, name)!r}")
        # a non-prime fails here, before any graph is enumerated
        FieldPrime(self.p)
        if self.cross_check_prime is not None:
            FieldPrime(self.cross_check_prime)
        if self.cross_check_prime == self.p:
            # the same prime twice is no cross-check
            object.__setattr__(self, "cross_check_prime", None)

    def matching_cap(self) -> int:
        """The largest matching number a hit can have: d + 1 for a target of
        dimension d (dim M(G) = nu(G) - 1), and 2 for disconnected-complex,
        since nu(G) >= 3 makes M(G) connected (see the module docstring)."""
        row = catalog._MANIFOLD_TARGETS.get(self.target)
        return 2 if row is None else row[0] + 1

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "force"}


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
    nu: list  # their matching numbers
    pruned: list  # children dropped by the cap while building each level
    origins: list  # per class of the last level, its origin (see _free_pairs)


_LEVELS: dict = {}  # (max_vertices, matching cap or None) -> _Levels


def _free_pairs(g: gr.Graph, nu: int, origin: tuple | None = None):
    """Per vertex u, the mask of vertices w such that some maximum matching
    of g (of size nu) covers neither u nor w.  The masks include the vertex
    n = g.vertex_count a pendant edge would add, which no matching covers.

    Without an ``origin``, every maximum matching is walked.  A class the
    level generator made from a parent P by adding the edge i = (u, v) has
    the origin ``(rows, i, rose, pendant)``: P's masks, the index of (u, v)
    in g, whether it raised the matching number, and whether v is the
    vertex it added.  The maximum matchings of g are P's and those through
    (u, v) when nu(g) = nu(P), and only those through (u, v) when nu(g) =
    nu(P) + 1.  So the masks start from P's (none when nu rose; for a
    pendant edge, every nonempty mask gains the new slot n, which no
    matching of P covers, and the slot's mask is P's slot mask with it),
    and only the matchings of nu - 1 edges avoiding u and v are walked.

    The matchings are walked each once, by increasing edge index; a branch
    ends when fewer edges remain addable than it still needs, since each
    addition takes one of them.  Every maximum matching is maximal, and no
    smaller maximal matching would contribute."""
    n = g.vertex_count
    conf = g.edge_conflicts()
    all_edges = (1 << len(g.edges)) - 1
    ends = [1 << u | 1 << v for u, v in g.edges]
    free = (1 << (n + 1)) - 1
    if origin is None:
        out = [0] * (n + 1)
        blocked = 0
    else:
        rows, i, rose, pendant = origin
        if rose:
            out = [0] * (n + 1)
        elif pendant:
            slot = 1 << n
            out = [r | slot if r else 0 for r in rows]
            out.append(rows[-1] | slot)
        else:
            out = rows.copy()
        nu -= 1
        free &= ~ends[i]
        blocked = conf[i]

    def rec(start, need, free, blocked):
        if not need:
            for u in gr._bits(free):
                out[u] |= free
            return
        addable = (all_edges & ~blocked) >> start << start
        while addable.bit_count() >= need:
            b = addable & -addable
            i = b.bit_length() - 1
            rec(i + 1, need - 1, free & ~ends[i], blocked | conf[i])
            addable ^= b

    rec(0, nu, free, blocked)
    return out


def _leaf_row(n: int, leaves: int, u: int) -> int:
    """The mask of the v whose child (u, v) passes the leaf rule of
    ``_levels``, for a parent on n vertices with the leaf mask ``leaves``."""
    others = leaves & ~(1 << u)
    if not others:
        return -1
    return 1 << n | (0 if others & others - 1 else others)


class _Parent:
    """A connected class as ``_canonical_child`` reads it, computed once
    for all its children, and only for a class with an addition that
    passes the row masks of ``_levels``: degrees, neighbour tuples, the
    leaf mask, vertex keys at the children's width, and each edge's bridge
    side on first use."""

    __slots__ = ("n", "adj", "edges", "deg", "nbrs", "w", "key", "leaves", "sides")

    def __init__(self, g: gr.Graph, leaves: int):
        self.n = g.vertex_count
        self.adj = g.adj
        self.edges = g.edges
        self.leaves = leaves
        # the slot n is the vertex a pendant edge would add
        self.deg = deg = [a.bit_count() for a in g.adj] + [0]
        self.nbrs = [tuple(gr._bits(a)) for a in g.adj] + [()]
        self.w = w = (2 * len(g.edges) + 2).bit_length()
        # degree << w | the sum of the neighbours' degrees
        self.key = key = [d << w for d in deg]
        for a, b in g.edges:
            key[a] += deg[b]
            key[b] += deg[a]
        self.sides = [None] * len(g.edges)

    def side(self, i: int) -> int:
        """For a bridge i = (a, b), the vertices reachable from a without
        it; 0 when the edge is no bridge."""
        s = self.sides[i]
        if s is None:
            a, b = self.edges[i]
            s = gr._reach(self.adj, self.adj[a] & ~(1 << b), 1 << a)
            s = self.sides[i] = 0 if s >> b & 1 else s
        return s


def _canonical_child(p: _Parent, u: int, v: int) -> int | None:
    """The invariant of the child that adds (u, v) to ``p``, or None when
    (u, v) is not the child's canonical deletion (see ``_levels``); v must
    be in ``_leaf_row(p.n, p.leaves, u)``."""
    n = p.n
    w = p.w
    deg = p.deg
    key = p.key.copy()
    key[u] += (1 << w) + deg[v] + 1
    key[v] += (1 << w) + deg[u] + 1
    for x in p.nbrs[u]:
        key[x] += 1
    for x in p.nbrs[v]:
        key[x] += 1
    w2 = 2 * w
    ku, kv = key[u], key[v]
    top = ku << w2 | kv if ku <= kv else kv << w2 | ku
    if v == n:
        # the pendant edges are the new one and those of the parent's
        # leaves other than u
        for a in gr._bits(p.leaves & ~(1 << u)):
            ka, kb = key[a], key[p.nbrs[a][0]]
            if (ka << w2 | kb if ka <= kb else kb << w2 | ka) > top:
                return None
    else:
        # no leaf, and (u, v) closes a cycle through every parent bridge
        # with u and v on different sides: the bridges of the child are the
        # others
        for i, (a, b) in enumerate(p.edges):
            ka, kb = key[a], key[b]
            if (ka << w2 | kb if ka <= kb else kb << w2 | ka) > top:
                s = p.side(i)
                if not s or (s >> u ^ s >> v) & 1:
                    return None
    inv = 0
    for k in sorted(key):
        inv = inv << w2 | k
    return inv


def _orbit(gens, u: int, v: int) -> set:
    """The orbit of the pair (u, v), u < v, under the group the vertex
    permutations ``gens`` generate, as pairs with the lesser vertex first."""
    orbit = {(u, v)}
    todo = [(u, v)]
    while todo:
        u, v = todo.pop()
        for perm in gens:
            a, b = perm[u], perm[v]
            pair = (a, b) if a < b else (b, a)
            if pair not in orbit:
                orbit.add(pair)
                todo.append(pair)
    return orbit


def _levels(max_edges: int, max_vertices: int, cap: int | None) -> _Levels:
    """The connected isomorphism classes on at most ``max_vertices``
    vertices by edge count, each exactly once, as ``_Levels.graphs``: kept
    in ``_LEVELS`` and extended on demand to at least ``max_edges``.

    Every connected graph with m+1 edges loses either a cycle edge or a leaf
    edge to a connected graph with m edges, so augmenting by those two moves
    reaches everything.

    With a matching ``cap``, only the classes with matching number at most
    the cap are generated: a child above the cap is dropped before it is
    canonicalized.  Nothing is lost, because adding an edge never lowers
    the matching number, so the connected parent (by one of the two moves
    above) of a class within the cap is within the cap as well.  The levels
    are then exactly the uncapped ones restricted to the cap, with the same
    representatives in the same order: a parent above the cap has no child
    within it.  The cap reads, per parent, the pairs (u, v) whose addition
    raises the matching number: those some maximum matching leaves both
    uncovered.  They are inherited (see ``_free_pairs``): a child P + uv
    has P's maximum matchings and those through uv when the matching
    number stays, and only those through uv when it rises, so each class
    keeps its parent's pairs and its new edge until it is a parent itself,
    and then walks only the matchings through that edge.  Every maximum
    matching is walked only for the root P2.  A budget below P2's, a cap
    below 1 or fewer than 2 vertices, is an ``InvalidParameterError``.

    A child is canonicalized only when its added edge passes
    ``_canonical_child``: it is removable (a pendant edge, or a non-bridge
    when the child has no pendant edge) and its isomorphism-invariant key
    ranks highest among the child's removable edges (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Most
    children of a class are rejected there, the orbit rule below drops
    most repeats among one parent's children, and the canonical-form
    dedupe removes the rest.  The prefilter loses no class: a class
    C with m+1 edges has a removable edge e of top key, and deleting e (with
    its leaf, for a pendant edge) leaves a connected graph with m edges
    within the cap and the vertex budget, isomorphic to some parent P of
    level m.  The isomorphism carries e to an addition on P whose child is
    C, and the key and removability are invariants, so that addition ranks
    highest in its child and passes.

    The test reads state computed once per parent, and only for a parent
    with an addition that survives the masks below.  A vertex's key is
    ``degree << w | sum of neighbour degrees``, w = (2m).bit_length() for
    the child's m edges; both numbers are at most 2m.  Adding (u, v)
    changes only the keys near it: u gains one degree and deg v + 1 of
    neighbour sum (v likewise), and each neighbour of u or of v gains 1.
    Only u and v change degree, so the child has a leaf unless every parent
    leaf is u or v, and a child with a leaf passes only by a pendant edge
    to the new vertex.  An edge between parent vertices is no bridge, the
    parent being connected, and a parent edge ab is a bridge of the child
    exactly when it is one of the parent whose side (the vertices reachable
    from a without ab) holds both of u and v or neither; otherwise (u, v)
    closes a cycle through it.  This leaf rule, the cap and the twin rule
    below are applied to all of u's additions at once, as masks of v, and
    only the survivors are tested one by one.

    Additions in one orbit of the parent's automorphism group give
    isomorphic children, and only the first of them, in the order u, then
    v, is kept; nothing else changes, since the cap, the canonical-deletion
    test and the invariant are invariants of the orbit.  Most of them go
    for free: swapping two twins (vertices with equal open or equal closed
    neighbourhoods) is an automorphism, so only additions (u, v) with u the
    first of its twin class and v the first of its own or the second of
    u's are made, each the least pair of its orbit under the twin swaps.
    The slot n is a class of its own.  A later child of the same parent
    that joins the bucket of an earlier one is dropped when its pair lies
    in the orbit of the earlier child's pair under the parent's
    automorphisms (``graphs._automorphisms``, computed at most once per
    parent, and only for such a parent).

    A child that passes is filed under its invariant, the sorted multiset
    of its vertex keys packed into one integer.  Only when a
    second child joins a bucket are the bucket's children canonicalized and
    deduplicated by form, the first child of each form kept.  This is
    exact: isomorphic children have equal invariants, so every repeat of a
    child lands in the child's own bucket, and a child still alone when
    the level ends is a class of its own that needs no canonical form.
    The orbit pruning drops only repeats that come after the first child
    of their class, so the same children are kept; a bucket that keeps a
    single class then sorts under the empty form instead of that class's
    form, but it is the only key of its invariant, so the order is the
    same.  A
    level is ordered by (invariant, form), the form empty for a lone child.
    Under a cap, a bucket may lose its children above the cap and keep a
    lone child without a form; nothing else within the cap shares that
    invariant, so the capped order is still the uncapped one restricted.
    """
    _require_int("max_vertices", max_vertices, 2)
    if cap is not None:
        _require_int("matching_cap", cap, 1)
    lv = _LEVELS.get((max_vertices, cap))
    if lv is None:
        lv = _LEVELS[(max_vertices, cap)] = _Levels(
            [[], [gr.path(2)]], [[], [1]], [0, 0], [None])
    levels = lv.graphs
    while len(levels) <= max_edges:
        # (invariant, canonical form) -> (child, nu, origin); a child whose
        # invariant no other child has shared yet sits under the empty form
        classes = {}
        shared = set()
        pruned = 0
        for g, nu, origin in zip(levels[-1], lv.nu[-1], lv.origins):
            n = g.vertex_count
            adj = g.adj
            # v == n is the pendant edge to a new vertex n
            top = n + 1 if n < max_vertices else n
            # adding (u, v) raises nu by one exactly when some maximum
            # matching misses both u and v
            free = _free_pairs(g, nu, origin)
            leaves = sum(1 << x for x, a in enumerate(adj) if a.bit_count() == 1)
            parent = None
            # one addition per orbit of the twin swaps: u first in its twin
            # class, v first in its own or second in u's; the slot n is a
            # class of its own
            twin = gr._twins(adj) + [n]
            firsts = sum(1 << x for x, t in enumerate(twin) if t == x)
            second = {}
            for x, t in enumerate(twin):
                if t != x:
                    second.setdefault(t, 1 << x)
            # invariant -> the pairs of this parent's children filed under it
            mine = {}
            gens = None
            for u in range(n):
                fu = free[u]
                # the additions (u, v), u < v < top, as one mask
                row = (1 << top) - (2 << u) & ~adj[u]
                if nu == cap:
                    pruned += (row & fu).bit_count()
                    row &= ~fu
                if twin[u] != u:
                    continue
                row &= (firsts | second.get(u, 0)) & _leaf_row(n, leaves, u)
                if not row:
                    continue
                if parent is None:
                    parent = _Parent(g, leaves)
                for v in gr._bits(row):
                    inv = _canonical_child(parent, u, v)
                    if inv is None:
                        continue
                    # a later child of this parent in the bucket of an earlier
                    # one repeats it when a parent automorphism maps the pairs
                    earlier = mine.setdefault(inv, [])
                    if earlier:
                        if gens is None:
                            gens = [perm + [n] for perm in gr._automorphisms(g)]
                        if gens and not _orbit(gens, u, v).isdisjoint(earlier):
                            continue
                    earlier.append((u, v))
                    # (u, v) is a new pair in range: only its place in the
                    # sorted edges is to be found
                    at = bisect.bisect(g.edges, (u, v))
                    edges = g.edges[:at] + ((u, v),) + g.edges[at:]
                    pendant = v == n
                    child_adj = list(adj) + [0] * pendant
                    child_adj[u] |= 1 << v
                    child_adj[v] |= 1 << u
                    rose = fu >> v & 1
                    child = (gr.Graph._trusted(n + pendant, edges, tuple(child_adj)),
                             nu + rose, (free, at, rose, pendant))
                    if inv not in shared:
                        first = classes.pop((inv, b""), None)
                        if first is None:
                            classes[inv, b""] = child
                            continue
                        shared.add(inv)
                        classes[inv, gr.canonical_form(first[0], max_vertices)] = first
                    classes.setdefault((inv, gr.canonical_form(child[0], max_vertices)), child)
        keys = sorted(classes)
        levels.append([classes[k][0] for k in keys])
        lv.nu.append([classes[k][1] for k in keys])
        lv.origins = [classes[k][2] for k in keys]
        lv.pruned.append(pruned)
    return lv


def enumerate_graphs(spec: SearchSpec, matching_cap: int | None = None):
    """Every isomorphism class of graphs without isolated vertices, with at
    most max_edges edges and max_vertices vertices, exactly once (only the
    connected ones when ``connected_only``); with a ``matching_cap``, only
    those whose matching number is at most the cap, which must be at
    least 1.

    A class with two or more components is the disjoint union of a
    nondecreasing multiset of connected classes, which needs no further
    deduplication; the components share the cap, since matching numbers
    add up over components."""
    _check_guard(spec)
    lv = _levels(spec.max_edges, spec.max_vertices, matching_cap)
    comps = [g for level in lv.graphs[1: spec.max_edges + 1] for g in level]
    if spec.connected_only:
        yield from comps
        return
    comp_nu = [nu for level in lv.nu[1: spec.max_edges + 1] for nu in level]

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

    # nu never exceeds the edge count
    nu_budget = spec.max_edges if matching_cap is None else matching_cap
    yield from rec(0, spec.max_edges, spec.max_vertices, nu_budget, ())


def _pruning_summary(spec: SearchSpec) -> dict:
    """What the matching-number cap of a search removed: the rule, the
    connected classes kept within the budget, and the children dropped from
    the generation frontier before canonicalization."""
    cap = spec.matching_cap()
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


def _ridge_prefilter(g: gr.Graph, d: int, boundary: bool) -> bool:
    """Necessary conditions on g for M(G) to be a homology d-manifold,
    closed or with boundary: every facet has d + 1 vertices (G is
    equimatchable, M(G) pure), and every ridge lies in at most 2 facets,
    in exactly 2 when closed and in 1 for some ridge with boundary.  Read
    off the edge conflicts, without listing a facet (see the module
    docstring): no matching of at most d edges may be maximal, and the
    edges avoiding a d-matching, its cofacets, are 1 or 2 that meet."""
    conf = g.edge_conflicts()
    full = (1 << len(g.edges)) - 1
    if d < 1:
        # the empty ridge is not counted: only the facet size is checked
        return not boundary and (not full if d == -1 else
                                 d == 0 and full != 0 and all(c == full for c in conf))
    one = False

    def walk(start, k, blocked):
        nonlocal one
        avoid = full & ~blocked
        if not avoid:
            return False  # a maximal matching of k <= d edges
        if k == d:
            rest = avoid & avoid - 1
            if not rest:
                one = True
                return boundary
            # two cofacets, which must meet
            return not rest & rest - 1 and conf[rest.bit_length() - 1] & avoid != rest
        for i in gr._bits(avoid >> start << start):
            if not walk(i + 1, k + 1, blocked | conf[i]):
                return False
        return True

    return walk(0, 0, 0) and one == boundary


def _skeleton_connected(g: gr.Graph) -> bool:
    """Connectivity of the matching complex's vertices-and-edges graph."""
    m = len(g.edges)
    if m <= 1:
        return True
    full = (1 << m) - 1
    return gr._reach([full ^ c for c in g.edge_conflicts()], 1) == full


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


def _entry(klass: str, M: cx.Complex, p: int, q: int | None) -> dict:
    """A hit's report fields: its class, then its reduced Betti numbers at
    p and, when cross-checked, at q."""
    entry = {"class": klass, f"betti_p{p}": betti_reduced(M, p).to_list()}
    if q is not None:
        entry[f"betti_p{q}"] = betti_reduced(M, q).to_list()
    return entry


def _evaluate(g: gr.Graph, target: str, p: int,
              q: int | None) -> tuple[dict | None, str | None] | None:
    """None for cheap rejections; otherwise ``(entry, anomaly)`` for a
    survivor: its report fields (see ``_entry``), None when it is no hit,
    and the disagreement between the two primes, None when they agree."""
    if target == "disconnected-complex":
        if _skeleton_connected(g):
            return None
        return _entry("DisconnectedComplex", cx.matching_complex(g), p, q), None

    d, boundary, sphere_only = catalog._MANIFOLD_TARGETS[target]
    if not _ridge_prefilter(g, d, boundary):
        return None
    want_status = STATUS_WITH_BOUNDARY if boundary else STATUS_CLOSED
    M = cx.matching_complex(g)

    def verdict(prime):
        v = mf.check_manifold(M, prime)
        hit = v.status == want_status and v.dimension == d and (
            not sphere_only or betti_reduced(M, prime).is_sphere(d))
        return v, hit

    vp, hit_p = verdict(p)
    anomaly = None
    if q is not None:
        vq, hit_q = verdict(q)
        if vp.status != vq.status or hit_p != hit_q:
            anomaly = (
                f"verdict differs between GF({p}) ({vp.status}) and "
                f"GF({q}) ({vq.status})"
            )
    if not hit_p:
        return None if anomaly is None else (None, anomaly)
    return _entry(str(mf.classify(M, vp, (p, q or p))), M, p, q), anomaly


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
    pruning: dict
    note: str = BOUNDED_SEARCH_NOTE

    def to_dict(self, include_timing=True):
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "elapsed_ms"}
        out["spec"] = self.spec.to_dict()
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
    q = spec.cross_check_prime
    t0 = time.perf_counter()
    # graph6 -> (name, class); disconnected-complex predicts its own below
    expected = {}
    for name, g, cls in catalog.expected_search_hits(
            target, spec.max_edges, spec.max_vertices, spec.connected_only) or ():
        expected[gr.canonical_form(g, spec.max_vertices).decode()] = (name, cls)
    hits = []
    anomalies = []
    examined = 0
    for g in enumerate_graphs(spec, spec.matching_cap()):
        examined += 1
        key = None
        if target == "disconnected-complex" and _expects_disconnected(g):
            key = gr.canonical_form(g, spec.max_vertices).decode()
            expected[key] = (None, "DisconnectedComplex")
        result = _evaluate(g, target, spec.p, q)
        if result is None:
            continue
        entry, anomaly = result
        if key is None:
            key = gr.canonical_form(g, spec.max_vertices).decode()
        if anomaly:
            anomalies.append({"graph6": key, "detail": anomaly})
        if entry is not None:
            hits.append({"graph6": key, "name": expected.get(key, (None,))[0], **entry,
                         "vertices": g.vertex_count, "edges": len(g.edges)})
    hits.sort(key=lambda h: (h["edges"], h["graph6"]))

    found = {h["graph6"] for h in hits}
    extra = sorted(found - expected.keys())
    missing = sorted(expected[k][0] or k for k in expected.keys() - found)
    verdict = "ExtraHit" if extra else "MissingHit" if missing else "Match"
    expected_dicts = [{"name": name, "graph6": key, "class": cls}
                      for key, (name, cls) in sorted(expected.items())]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SearchReport(spec, hits, expected_dicts, verdict, extra,
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
    _require_int("trials", trials, 1)
    rng = random.Random(seed)
    failures = []

    def record(check, g, detail=""):
        failures.append({
            "check": check,
            "trial": trial,
            "graph6": gr.to_graph6(g),
            "detail": detail,
        })

    for trial in range(trials):
        g = _random_graph(rng)
        M = cx.matching_complex(g)

        if not cx.is_flag(M):
            record("flag", g)

        face = rng.choice(gr.enumerate_matchings(g))
        if not _link_matches_avoided_subgraph(g, face, M):
            record("link-of-matching", g, f"face {face}")

        g2 = _random_graph(rng)
        joined = cx.join(M, cx.matching_complex(g2))
        direct = cx.matching_complex(gr.disjoint_union([g, g2]))
        if joined != direct:
            record("union-join", g, f"with {gr.to_graph6(g2)}")

        if cx.has_induced_path6(M):
            record("no-induced-p6", g)

        if cx.is_connected(M) and cx.diameter(M) > 4:
            record("diameter", g, f"diameter {cx.diameter(M)}")

        if cx.is_connected(M) != (not _expects_disconnected(g)):
            record("disconnection", g)

    return {
        "seed": seed,
        "trials": trials,
        # every check runs once per trial
        "checks": {name: trials for name in PROPERTY_CHECKS},
        "failures": failures,
    }
