"""Finite simplicial complexes stored by their maximal faces.

Vertices carry integer labels (for a matching complex, the edge indices of
the underlying graph) and faces are bitmasks over label *positions*, so set
operations are single-word arithmetic.  Every complex has the empty face:
the least one is ``{∅}`` (one empty facet, dimension -1), and a complex
with no faces at all (the void complex) cannot be built, since no matching
complex is void.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graphs as graphs_mod
from .errors import (
    BadSubsetError,
    FaceNotInComplexError,
    TooLargeError,
    VoidComplexError,
)

FACE_VERTEX_CAP = 64


class Complex:
    """Immutable simplicial complex; construct via :func:`from_facets`.

    A plain value: its labels and its facets.  What is derived from the
    facets alone, as the face table, is kept once per facet set in
    ``_facts``, so complexes with equal facets share it whatever their
    labels."""

    __slots__ = ("labels", "facet_masks")

    def __init__(self, labels, facet_masks):
        self.labels = tuple(labels)
        self.facet_masks = tuple(facet_masks)
        if not self.facet_masks:
            raise VoidComplexError("a complex needs a facet; [()] gives {∅}")
        if len(self.labels) > FACE_VERTEX_CAP:
            raise TooLargeError(
                f"{len(self.labels)} vertices exceeds face cap {FACE_VERTEX_CAP}"
            )

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        """Max facet size minus one; -1 for {∅}."""
        return max(m.bit_count() for m in self.facet_masks) - 1

    def is_empty_only(self) -> bool:
        """True for the complex {∅}."""
        return self.facet_masks == (0,)

    def position(self, label) -> int:
        if label not in self.labels:
            raise BadSubsetError(f"{label} is not a vertex label of this complex")
        return self.labels.index(label)

    def mask_of(self, face_labels) -> int:
        m = 0
        for lab in face_labels:
            m |= 1 << self.position(lab)
        return m

    def labels_of(self, mask: int):
        return tuple(self.labels[i] for i in graphs_mod._bits(mask))

    def faces(self) -> frozenset:
        """All faces as position bitmasks, including 0 for the empty face."""
        return frozenset().union(*self.faces_by_size().values(), (0,))

    def faces_by_size(self):
        """dict size -> sorted list of masks, sizes >= 1."""
        return _face_table(_facts_of(self.facet_masks))

    def facets(self):
        """Facets as sorted tuples of labels."""
        return [self.labels_of(m) for m in self.facet_masks]

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.labels == other.labels
            and self.facet_masks == other.facet_masks
        )

    def __hash__(self):
        return hash((self.labels, self.facet_masks))

    def __repr__(self):
        return f"Complex(labels={self.labels}, facets={self.facets()})"


def _faces_by_size(facet_masks) -> dict:
    """``{size: sorted masks}`` of every nonempty face under the given facets.

    Built from the top size down: the faces of size s are the facets of
    size s plus every face one vertex short of a face of size s + 1, so each
    face is reached from the level above and no face set is regrouped.
    """
    tops = {}
    for f in facet_masks:
        tops.setdefault(f.bit_count(), set()).add(f)
    out = {}
    above = ()
    for s in range(max(tops, default=0), 0, -1):
        level = tops.get(s, set())
        for f in above:
            m = f
            while m:
                b = m & -m
                level.add(f ^ b)
                m ^= b
        above = out[s] = sorted(level)
    return out


def _face_table(entry: dict) -> dict:
    """:func:`_faces_by_size` of an entry's facets, built once in its
    ``"table"`` slot."""
    if "table" not in entry:
        entry["table"] = _faces_by_size(entry["facets"])
    return entry["table"]


def _ridge_cofacets(facet_masks) -> dict:
    """``{ridge: number of facets through it}`` over the nonempty ridges,
    the faces one vertex short of a facet.  The empty ridge of a
    0-dimensional complex bounds nothing and is not counted."""
    count = {}
    for f in facet_masks:
        m = f
        while m:
            b = m & -m
            count[f ^ b] = count.get(f ^ b, 0) + 1
            m ^= b
    count.pop(0, None)
    return count


def _maximal(masks):
    """Inclusion-maximal masks, sorted; absorbs duplicates."""
    by_size = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    kept = []
    for s in sorted(by_size, reverse=True):
        level = by_size[s]
        if kept:
            level = [m for m in level if not any(m & big == m for big in kept)]
        kept.extend(level)
    kept.sort()
    return kept


def _reindex(masks):
    """Re-index masks onto the positions they use, ``used``, the union of
    the masks; returns ``(used, sorted new masks)``.

    Position i of the result is the i-th lowest position of ``used``, so
    ``labels_of(used)`` labels the new vertices.  Runs once per link shape
    and link vertex in the link analysis, where a link misses few positions
    of its parent: so each run of unused positions, highest first, is cut
    out of every mask with one shift, not each mask rebuilt bit by bit.
    """
    used = 0
    for m in masks:
        used |= m
    out = masks
    gaps = ~used & ((1 << used.bit_length()) - 1)
    while gaps:
        top = gaps.bit_length()  # one past the highest unused position
        run = top - (~gaps & ((1 << top) - 1)).bit_length()
        low = (1 << (top - run)) - 1
        out = [m & low | m >> run & ~low for m in out]
        gaps &= low
    return used, tuple(sorted(out))


def from_facets(labels, facet_list) -> Complex:
    """Build a complex from (possibly redundant) faces.

    ``labels`` may be None to use the sorted union of the given faces.
    ``[()]`` yields {∅}; an empty facet list raises
    :class:`VoidComplexError`, as every complex has the empty face.
    """
    facet_list = [tuple(f) for f in facet_list]
    if labels is None:
        labels = sorted({lab for f in facet_list for lab in f})
    else:
        known = set(labels)
        labels = sorted(known)
        for f in facet_list:
            for lab in f:
                if lab not in known:
                    raise BadSubsetError(f"face label {lab} not in labels")
    pos = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for f in facet_list:
        m = 0
        for lab in f:
            m |= 1 << pos[lab]
        masks.append(m)
    return Complex(labels, _maximal(masks))


def matching_complex(g: graphs_mod.Graph) -> Complex:
    """The complex whose vertices are the edges of g and whose faces are
    the matchings of g.  Isolated vertices of g contribute nothing and are
    ignored.  The face cap is checked before any matching is enumerated.

    A graph with two or more components that have edges is built as the
    join of their complexes, M(G₁ ⊔ G₂) = M(G₁) * M(G₂): the maximal
    matchings are walked once per component shape per process, kept as
    their entry in ``_walks`` under the component's edges as
    ``graphs._component`` numbers them, and the facets are the unions of
    one component facet each.  The split, the entries of the components'
    complexes in order of lowest edge index, each re-indexed, is recorded
    for :func:`_join_factors` as it is built.  It is the one that
    function's walk returns, by the lemma there: M(G) is flag, so the
    graph of vertices that never share a facet is the line graph L(G),
    whose components are the edge sets of G's components.  A connected graph costs one reachability check more than
    its walk alone, and its walk is not kept: a search meets each graph
    once, where keeping it cost the disconnected-complex search ~1%.
    """
    m = len(g.edges)
    if m > FACE_VERTEX_CAP:
        raise TooLargeError(f"{m} vertices exceeds face cap {FACE_VERTEX_CAP}")
    left = sum(1 << v for v, a in enumerate(g.adj) if a)
    comp = graphs_mod._reach(g.adj, left & -left)
    if comp == left:
        facets = graphs_mod._maximal_matching_masks(g)
        facets.sort()
        return Complex(range(m), facets)
    # the component of the lowest vertex holds the lowest edge, as edges
    # are sorted pairs
    facets, split = [0], []
    while comp:
        edges, indices = graphs_mod._component(g, comp)
        part = _walks.get(edges)
        if part is None:
            h = graphs_mod.Graph._trusted(comp.bit_count(), edges)
            part = _walks[edges] = _facts_of(tuple(sorted(graphs_mod._maximal_matching_masks(h))))
        local = part["facets"]
        low = indices[0]
        if indices[-1] - low == len(indices) - 1:  # a run of edges, as in a disjoint union
            spread = [f << low for f in local]
        else:
            spread = [sum(1 << indices[j] for j in graphs_mod._bits(f)) for f in local]
        facets = [f | e for e in spread for f in facets]
        split.append(part)
        left &= ~comp
        comp = graphs_mod._reach(g.adj, left & -left)
    facets.sort()
    facets = tuple(facets)
    _facts_of(facets)["split"] = split
    return Complex(range(m), facets)


def link(c: Complex, face_labels) -> Complex:
    """Faces disjoint from the given face whose union with it is a face.

    The result keeps only labels that occur in the link; link(c, ()) == c
    for complexes without unused labels.
    """
    mask = c.mask_of(face_labels)
    if not any(f & mask == mask for f in c.facet_masks):
        raise FaceNotInComplexError(f"{tuple(face_labels)} is not a face")
    if mask == 0:
        return c
    # every Complex holds an antichain of facets, and the facets F through
    # the face, less the face, are one too: F - σ ⊆ G - σ gives F ⊆ G
    used, masks = _reindex([f & ~mask for f in c.facet_masks if f & mask == mask])
    return Complex(c.labels_of(used), masks)


def join(c1: Complex, c2: Complex) -> Complex:
    """All unions of a face of c1 with a face of c2.

    The labels of c2 are shifted past those of c1 so the two vertex sets are
    disjoint.  {∅} is the identity.
    """
    if c1.labels and c2.labels:
        offset = c1.labels[-1] + 1 - c2.labels[0]
    else:
        offset = 0
    labels = c1.labels + tuple(lab + offset for lab in c2.labels)
    n1 = len(c1.labels)
    # unions of two antichains on disjoint positions are distinct and an
    # antichain themselves, so they need no _maximal
    facets = sorted(f1 | f2 << n1 for f1 in c1.facet_masks for f2 in c2.facet_masks)
    return Complex(labels, facets)


@dataclass(frozen=True)
class FVector:
    """Face counts (f_-1, f_0, ..., f_d); f_-1 is 1, the empty face."""

    counts: tuple

    @property
    def positive(self):
        """(f_0, ..., f_d), the part usually quoted."""
        return self.counts[1:]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * f for k, f in enumerate(self.positive))


def f_vector(c: Complex) -> FVector:
    by_size = c.faces_by_size()
    d = c.dimension
    return FVector((1,) + tuple(len(by_size.get(k + 1, ())) for k in range(d + 1)))


# ---------------------------------------------------------------------------
# 1-skeleton, flagness, induced paths


def _near(facet_masks, n: int) -> list:
    """For each of the n vertex positions, the union of the facets through
    it: the vertex's closed neighbourhood in the 1-skeleton, 0 when no facet
    uses it."""
    near = [0] * n
    for f in facet_masks:
        for v in graphs_mod._bits(f):
            near[v] |= f
    return near


# sorted facet masks -> their entry, everything the process knows about
# that facet set, with no labels in the key or the value; a Complex keeps
# nothing of its own.  Inside the package a facet set travels as its entry,
# so only the public functions and the sites that make a new facet set look
# one up.  The slots, each filled on first use:
# * "facets": the key itself;
# * "split": the join factors' entries, or None (_join_factors);
# * "table": the face table (_face_table);
# * p, a prime: the BettiVector at p (homology._betti);
# * "children": {vertex: (entry of its link, re-indexed, and the link's
#   vertices as positions here)} (manifold._child);
# * "summary": {p: the link-shape summary} (manifold._shape_summary);
# * "verdict": {p: (status, dimension, witness mask or None, witness
#   BettiVector or None)}, the witness a face of these facets' positions;
# * "span": the ridges in exactly one facet, re-indexed, as (used, their
#   entry), or None when there is none (manifold._boundary_span);
# * "boundary_betti": {p: the BettiVector of the boundary at p}.
_facts: dict = {}


def _facts_of(facet_masks: tuple) -> dict:
    """The entry of ``_facts`` for these facets, made on first use."""
    got = _facts.get(facet_masks)
    if got is None:
        got = _facts[facet_masks] = {"facets": facet_masks}
    return got


# a connected component's edges, numbered as ``graphs._component`` numbers
# them -> the entry of its maximal matchings as sorted edge masks: the walks
# of :func:`matching_complex`, one per component shape (a shape whose
# vertices come in another order is walked again)
_walks: dict = {}


def clear_caches():
    _facts.clear()
    _walks.clear()


def _join_factors(entry: dict):
    """The entries of the join factors of an entry's facets, each re-indexed
    onto 0..k-1, when there are two or more; else None.  Kept in its
    ``"split"`` slot: a matching complex of a disconnected graph has its
    split recorded by :func:`matching_complex`, and any other facet set is
    split by :func:`_split` on first use.

    Lemma.  A matching complex M(G) is flag, and two of its vertices never
    share a facet exactly when the two edges of G meet, so the graph that
    :func:`_split` walks is the line graph L(G).  Its components are the
    edge sets of G's components, and each of them splits off as a factor.
    The factors are therefore the components' complexes M(Gᵢ), in order of
    lowest edge index, each re-indexed, and a connected graph with two or
    more edges has a connected L(G), so its M(G) is no join.  The split
    ``matching_complex`` records is exactly the walk's: the same factors,
    the same masks, the same order.
    """
    if "split" not in entry:
        entry["split"] = _split(entry["facets"])
    return entry["split"]


def _split(facet_masks: tuple):
    """:func:`_join_factors` of the facets, walked, without the memo.

    Vertices in different factors of a join share a facet, so every factor
    is a union of components of the graph on vertices that never share a
    facet.  A component C is split off when the facets are exactly the
    unions of a restriction to C and a restriction to the rest, i.e. their
    number is the product of the two numbers of restrictions; the
    components that do not split stay together as one factor.  ∂Δ² has
    three one-vertex components, none of which splits, so it is no join.
    A vertex's neighbours in that graph are the used vertices outside
    :func:`_near` of it, and each component is one ``graphs._reach``.
    """
    used = 0
    for f in facet_masks:
        used |= f
    apart = [used & ~m for m in _near(facet_masks, used.bit_length())]
    factors = []
    rest = list(facet_masks)
    left = used
    while left:
        comp = graphs_mod._reach(apart, left & -left)
        if comp == used:  # one component: no split
            break
        left &= ~comp
        part = {f & comp for f in rest}
        other = {f & ~comp for f in rest}
        if len(part) * len(other) == len(rest):
            factors.append(sorted(part))
            rest = sorted(other)
    if rest != [0]:
        factors.append(rest)
    if len(factors) < 2:
        return None
    return [_facts_of(_reindex(factor)[1]) for factor in factors]


def one_skeleton(c: Complex) -> graphs_mod.Graph:
    """The vertices and edges of c, as a graph on vertex positions.  Two
    vertices span an edge when some facet holds both, so the edges are read
    off :func:`_near`, not off the face table."""
    near = _near(c.facet_masks, c.vertex_count)
    # -(2 << u) keeps the positions above u, so each pair comes once
    pairs = [(u, v) for u, m in enumerate(near) for v in graphs_mod._bits(m & -(2 << u))]
    return graphs_mod.Graph(c.vertex_count, pairs)


def is_connected(c: Complex) -> bool:
    """Connectivity of the 1-skeleton (isolated vertices count)."""
    skel = one_skeleton(c)
    if skel.vertex_count <= 1:
        return True
    return graphs_mod.is_connected_graph(skel)


def diameter(c: Complex):
    """Longest shortest path in the 1-skeleton; math.inf if disconnected."""
    skel = one_skeleton(c)
    n = skel.vertex_count
    if n == 0:
        return 0
    best = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in graphs_mod._bits(skel.adj[v]):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) < n:
            return math.inf
        best = max(best, max(dist.values()))
    return best


def _maximal_cliques(adj, n):
    """Bron-Kerbosch over bitmasks; yields clique masks (singletons included)."""
    out = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_pool = p | x
        b = pivot_pool & -pivot_pool
        piv = b.bit_length() - 1
        best = piv
        best_deg = (adj[piv] & p).bit_count()
        m = pivot_pool
        while m:
            bb = m & -m
            v = bb.bit_length() - 1
            dv = (adj[v] & p).bit_count()
            if dv > best_deg:
                best, best_deg = v, dv
            m ^= bb
        cands = p & ~adj[best]
        while cands:
            bb = cands & -cands
            v = bb.bit_length() - 1
            bk(r | bb, p & adj[v], x & adj[v])
            p ^= bb
            x |= bb
            cands ^= bb
    if n:
        bk(0, (1 << n) - 1, 0)
    return out


def is_flag(c: Complex) -> bool:
    """True when c is the clique complex of its own 1-skeleton."""
    if c.is_empty_only():
        return True
    skel = one_skeleton(c)
    cliques = set(_maximal_cliques(skel.adj, skel.vertex_count))
    return cliques == set(c.facet_masks)


def has_induced_path6(c: Complex) -> bool:
    """Does the 1-skeleton contain an induced path on six vertices?"""
    skel = one_skeleton(c)
    adj = skel.adj
    n = skel.vertex_count
    target = 6

    def extend(pathmask, last, first, length):
        if length == target:
            return True
        # candidates: neighbors of the endpoint, non-adjacent to the rest
        rest = pathmask & ~(1 << last)
        m = adj[last] & ~pathmask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if adj[v] & rest:
                continue
            if length + 1 == target and v < first:
                continue  # count each path once, by its endpoints
            if extend(pathmask | b, v, first, length + 1):
                return True
        return False

    for s in range(n):
        if extend(1 << s, s, s, 1):
            return True
    return False


# ---------------------------------------------------------------------------
# restrictions


def is_pure(c: Complex) -> bool:
    """All facets of equal size (true for {∅}, whose one facet is empty)."""
    sizes = {m.bit_count() for m in c.facet_masks}
    return len(sizes) <= 1
