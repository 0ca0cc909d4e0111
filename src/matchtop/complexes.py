"""Finite simplicial complexes stored by their maximal faces.

Vertices carry integer labels (for a matching complex, the edge indices of
the underlying graph) and faces are bitmasks over label *positions*, so set
operations are single-word arithmetic.  The complex ``{∅}`` (one empty face,
dimension -1) is distinguished from the void complex (no faces at all).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import graphs as graphs_mod
from .errors import (
    BadDimensionError,
    BadSubsetError,
    FaceNotInComplexError,
    TooLargeError,
    VoidComplexError,
)

FACE_VERTEX_CAP = 64


class Complex:
    """Immutable simplicial complex; construct via :func:`from_facets`."""

    __slots__ = ("labels", "facet_masks", "is_void", "_cache")

    def __init__(self, labels, facet_masks, is_void=False):
        self.labels = tuple(labels)
        self.facet_masks = tuple(facet_masks)
        self.is_void = is_void
        self._cache = {}
        if len(self.labels) > FACE_VERTEX_CAP:
            raise TooLargeError(
                f"{len(self.labels)} vertices exceeds face cap {FACE_VERTEX_CAP}"
            )

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        """Max facet size minus one; -1 for {∅}.  Undefined for void."""
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(m.bit_count() for m in self.facet_masks) - 1

    def is_empty_only(self) -> bool:
        """True for the complex {∅}."""
        return not self.is_void and self.facet_masks == (0,)

    def position(self, label) -> int:
        pos = self._cache.get("pos")
        if pos is None:
            pos = {lab: i for i, lab in enumerate(self.labels)}
            self._cache["pos"] = pos
        if label not in pos:
            raise BadSubsetError(f"{label} is not a vertex label of this complex")
        return pos[label]

    def mask_of(self, face_labels) -> int:
        m = 0
        for lab in face_labels:
            m |= 1 << self.position(lab)
        return m

    def labels_of(self, mask: int):
        return tuple(self.labels[i] for i in graphs_mod._bits(mask))

    def faces(self) -> frozenset:
        """All faces as position bitmasks, including 0 for the empty face."""
        got = self._cache.get("faces")
        if got is None:
            got = frozenset().union(*self.faces_by_size().values(),
                                    () if self.is_void else (0,))
            self._cache["faces"] = got
        return got

    def faces_by_size(self):
        """dict size -> sorted list of masks, sizes >= 1."""
        got = self._cache.get("by_size")
        if got is None:
            got = self._cache["by_size"] = _faces_by_size(self.facet_masks)
        return got

    def facets(self):
        """Facets as sorted tuples of labels."""
        return [self.labels_of(m) for m in self.facet_masks]

    def has_face(self, face_labels) -> bool:
        try:
            m = self.mask_of(face_labels)
        except BadSubsetError:
            return False
        return m in self.faces()

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.is_void == other.is_void
            and self.labels == other.labels
            and self.facet_masks == other.facet_masks
        )

    def __hash__(self):
        return hash((self.is_void, self.labels, self.facet_masks))

    def __repr__(self):
        if self.is_void:
            return "Complex(void)"
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


def _reindex(masks, used=0):
    """Re-index masks onto the positions set in ``used`` (default: the union
    of the masks), keeping their order; returns ``(used, sorted new masks)``.

    Position i of the result is the i-th lowest position of ``used``, so
    ``labels_of(used)`` labels the new vertices.  Runs once per link shape
    and link vertex in the link analysis, where a link misses few positions
    of its parent: so each run of unused positions, highest first, is cut
    out of every mask with one shift, not each mask rebuilt bit by bit.
    """
    if not used:
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
    An empty facet list yields the void complex; ``[()]`` yields {∅}.
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
    if not facet_list:
        return Complex(labels, (), is_void=True)
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
    ignored."""
    facets = []
    for matching in graphs_mod.maximal_matchings(g):
        m = 0
        for i in matching:
            m |= 1 << i
        facets.append(m)
    facets.sort()
    return Complex(range(len(g.edges)), facets)


def link(c: Complex, face_labels) -> Complex:
    """Faces disjoint from the given face whose union with it is a face.

    The result keeps only labels that occur in the link; link(c, ()) == c
    for complexes without unused labels.
    """
    if c.is_void:
        raise VoidComplexError("link of a face of the void complex")
    mask = c.mask_of(face_labels)
    if not any(f & mask == mask for f in c.facet_masks):
        raise FaceNotInComplexError(f"{tuple(face_labels)} is not a face")
    if mask == 0:
        return c
    used, masks = _reindex(_maximal(f & ~mask for f in c.facet_masks if f & mask == mask))
    return Complex(c.labels_of(used), masks)


def join(c1: Complex, c2: Complex) -> Complex:
    """All unions of a face of c1 with a face of c2.

    The labels of c2 are shifted past those of c1 so the two vertex sets are
    disjoint.  {∅} is the identity; a void factor gives a void result.
    """
    if c1.is_void or c2.is_void:
        return Complex((), (), is_void=True)
    if c1.labels and c2.labels:
        offset = c1.labels[-1] + 1 - c2.labels[0]
    else:
        offset = 0
    labels = c1.labels + tuple(lab + offset for lab in c2.labels)
    n1 = len(c1.labels)
    facets = []
    for f1 in c1.facet_masks:
        for f2 in c2.facet_masks:
            facets.append(f1 | f2 << n1)
    return Complex(labels, _maximal(facets))


@dataclass(frozen=True)
class FVector:
    """Face counts (f_-1, f_0, ..., f_d); f_-1 is 1 for any nonvoid complex."""

    counts: tuple

    @property
    def positive(self):
        """(f_0, ..., f_d), the part usually quoted."""
        return self.counts[1:]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * f for k, f in enumerate(self.positive))


def f_vector(c: Complex) -> FVector:
    if c.is_void:
        raise VoidComplexError("f-vector of the void complex")
    by_size = c.faces_by_size()
    d = c.dimension
    return FVector((1,) + tuple(len(by_size.get(k + 1, ())) for k in range(d + 1)))


def euler_characteristic(c: Complex) -> int:
    return f_vector(c).euler_characteristic()


# ---------------------------------------------------------------------------
# 1-skeleton, flagness, induced paths


def one_skeleton(c: Complex) -> graphs_mod.Graph:
    """The vertices and edges of c, as a graph on vertex positions."""
    if c.is_void:
        raise VoidComplexError("skeleton of the void complex")
    pairs = []
    for m in c.faces_by_size().get(2, ()):
        b = m & -m
        u = b.bit_length() - 1
        v = (m ^ b).bit_length() - 1
        pairs.append((u, v))
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
    if c.is_void or c.is_empty_only():
        return True
    skel = one_skeleton(c)
    cliques = set(_maximal_cliques(skel.adj, skel.vertex_count))
    return cliques == set(c.facet_masks)


def missing_faces(c: Complex):
    """Minimal non-faces, as sorted label tuples."""
    if c.is_void or c.is_empty_only():
        return []
    faces = c.faces()
    n = c.vertex_count
    found = set()
    for f in faces:
        for v in range(n):
            b = 1 << v
            if f & b:
                continue
            s = f | b
            if s in faces or s in found:
                continue
            m = s
            ok = True
            while m:
                bb = m & -m
                if (s ^ bb) not in faces:
                    ok = False
                    break
                m ^= bb
            if ok:
                found.add(s)
    return sorted(c.labels_of(s) for s in found)


def has_induced_path6(c: Complex) -> bool:
    """Does the 1-skeleton contain an induced path on six vertices?"""
    if c.is_void:
        return False
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


def induced_subcomplex(c: Complex, label_subset) -> Complex:
    """Restriction of c to the given vertex labels."""
    if c.is_void:
        raise VoidComplexError("restriction of the void complex")
    subset = sorted(set(label_subset))
    smask = 0
    for lab in subset:
        smask |= 1 << c.position(lab)
    _, masks = _reindex(_maximal(f & smask for f in c.facet_masks), smask)
    return Complex(subset, masks)


def is_pure(c: Complex) -> bool:
    """All facets of equal size (vacuously true for void and {∅})."""
    sizes = {m.bit_count() for m in c.facet_masks}
    return len(sizes) <= 1


def skeleton(c: Complex, k: int) -> Complex:
    """The k-skeleton: all faces of dimension at most k."""
    if c.is_void:
        raise VoidComplexError("skeleton of the void complex")
    if not 0 <= k <= c.dimension:
        raise BadDimensionError(f"k={k} outside 0..{c.dimension}")
    by_size = c.faces_by_size()
    keep = list(by_size.get(k + 1, ()))
    for size, masks in by_size.items():
        if size <= k:
            keep.extend(masks)
    if not keep:
        keep = [0]
    return Complex(c.labels, _maximal(keep))


# ---------------------------------------------------------------------------
# complex isomorphism via the vertex/facet incidence graph


def are_isomorphic(c1: Complex, c2: Complex) -> bool:
    if c1.is_void or c2.is_void:
        return c1.is_void == c2.is_void
    if c1.is_empty_only() or c2.is_empty_only():
        return c1.is_empty_only() == c2.is_empty_only()
    sig1 = (c1.vertex_count, sorted(m.bit_count() for m in c1.facet_masks))
    sig2 = (c2.vertex_count, sorted(m.bit_count() for m in c2.facet_masks))
    if sig1 != sig2:
        return False
    return _incidence_canon(c1) == _incidence_canon(c2)


def _incidence_canon(c: Complex) -> bytes:
    """A complete isomorphism invariant: the vertex and facet counts, then
    the colored canonical form of the vertex/facet incidence graph (whose
    bytes alone do not encode the color class sizes)."""
    n = c.vertex_count
    nf = len(c.facet_masks)
    if n + nf > FACE_VERTEX_CAP:
        raise TooLargeError("complex too large for exact isomorphism testing")
    pairs = []
    for j, f in enumerate(c.facet_masks):
        for p in graphs_mod._bits(f):
            pairs.append((p, n + j))
    g = graphs_mod.Graph(n + nf, pairs)
    colors = [0] * n + [1] * nf
    return b"%d,%d:" % (n, nf) + graphs_mod.canonical_form(
        g, max_vertices=n + nf, initial_classes=colors)


# ---------------------------------------------------------------------------
# export


def to_text(c: Complex) -> str:
    """"dim d n_facets" then one facet per line as sorted labels."""
    if c.is_void:
        return "void 0\n"
    lines = [f"dim {c.dimension} {len(c.facet_masks)}"]
    for facet in c.facets():
        lines.append(" ".join(str(lab) for lab in facet))
    return "\n".join(lines) + "\n"


def to_json(c: Complex) -> str:
    if c.is_void:
        return json.dumps({"labels": list(c.labels), "facets": None})
    return json.dumps(
        {"labels": list(c.labels), "facets": [list(f) for f in c.facets()]}
    )

