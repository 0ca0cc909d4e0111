"""Simple graphs on small integer vertex sets.

Everything downstream works with edge indices: the edges of a ``Graph`` are a
lexicographically sorted tuple of pairs ``(u, v)`` with ``u < v``, and an edge
is referred to by its position in that tuple.  Adjacency is kept as one
bitmask per vertex, and matchings are enumerated as bitmasks over edge
indices.
"""

from __future__ import annotations

import itertools

from .errors import (
    DuplicateEdgeError,
    FormatError,
    InvalidParameterError,
    LoopEdgeError,
    NotAMatchingError,
    TooLargeError,
    VertexOutOfRangeError,
)

# Exact canonicalization searches over labelings; keep inputs small by default.
CANONICAL_VERTEX_CAP = 10


class Graph:
    """Immutable simple undirected graph with indexed edges."""

    __slots__ = ("vertex_count", "edges", "adj", "has_isolated_vertices", "_conflicts")

    def __init__(self, vertex_count: int, pairs):
        if vertex_count < 0:
            raise InvalidParameterError("vertex_count must be >= 0")
        seen = set()
        norm = []
        for u, v in pairs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range 0..{vertex_count - 1}"
                )
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DuplicateEdgeError(f"edge ({u}, {v}) given twice")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        self.vertex_count = vertex_count
        self.edges = tuple(norm)
        adj = [0] * vertex_count
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self.has_isolated_vertices = any(a == 0 for a in adj)
        self._conflicts = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int):
        return _bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_conflicts(self):
        """Per edge index, the bitmask of edge indices sharing a vertex.

        The mask for edge i includes bit i itself.
        """
        if self._conflicts is None:
            m = len(self.edges)
            incident = [0] * self.vertex_count
            for i, (u, v) in enumerate(self.edges):
                incident[u] |= 1 << i
                incident[v] |= 1 << i
            self._conflicts = tuple(
                incident[u] | incident[v] for (u, v) in self.edges
            )
        return self._conflicts

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph({self.vertex_count}, {list(self.edges)})"


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# ---------------------------------------------------------------------------
# named families


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise InvalidParameterError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete needs n >= 1")
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameterError("complete_bipartite needs m, n >= 1")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    """Star with center 0 and n leaves."""
    return complete_bipartite(1, n)


def spider(k: int) -> Graph:
    """k paths of length two glued at a common end vertex (the center, 0).

    Leg i uses middle vertex 2i+1 and tip 2i+2, so the graph has 2k+1
    vertices and 2k edges.
    """
    if k < 2:
        raise InvalidParameterError("spider needs k >= 2")
    pairs = []
    for i in range(k):
        pairs.append((0, 2 * i + 1))
        pairs.append((2 * i + 1, 2 * i + 2))
    return Graph(2 * k + 1, pairs)


def banner() -> Graph:
    """A 4-cycle 0-1-2-3 with the pendant edge (3, 4)."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])


def disjoint_union(graphs) -> Graph:
    """Disjoint union; vertex offsets are applied left to right."""
    pairs = []
    offset = 0
    for g in graphs:
        pairs.extend((u + offset, v + offset) for (u, v) in g.edges)
        offset += g.vertex_count
    return Graph(offset, pairs)


def relabel(g: Graph, perm) -> Graph:
    """Apply the permutation old-vertex -> new-vertex."""
    perm = list(perm)
    if sorted(perm) != list(range(g.vertex_count)):
        raise InvalidParameterError("perm is not a permutation of the vertices")
    return Graph(g.vertex_count, [(perm[u], perm[v]) for (u, v) in g.edges])


# ---------------------------------------------------------------------------
# matchings


def _matching_mask(g: Graph, edge_indices) -> int:
    m = len(g.edges)
    mask = 0
    for i in edge_indices:
        if not 0 <= i < m:
            raise VertexOutOfRangeError(f"edge index {i} out of range")
        mask |= 1 << i
    conf = g.edge_conflicts()
    for i in _bits(mask):
        if conf[i] & mask & ~(1 << i):
            raise NotAMatchingError(f"edge {i} is incident to another chosen edge")
    return mask


def is_matching(g: Graph, edge_indices) -> bool:
    try:
        _matching_mask(g, edge_indices)
    except NotAMatchingError:
        return False
    return True


def enumerate_matchings(g: Graph):
    """All matchings of g, the empty one included, by size then lex order."""
    conf = g.edge_conflicts()
    m = len(g.edges)
    out = []

    def rec(start, chosen, blocked):
        out.append(chosen)
        for i in range(start, m):
            b = 1 << i
            if not blocked & b:
                rec(i + 1, chosen + (i,), blocked | conf[i])

    rec(0, (), 0)
    out.sort(key=lambda t: (len(t), t))
    return out


def maximal_matchings(g: Graph):
    """Matchings that no edge of g can extend, by size then lex order."""
    conf = g.edge_conflicts()
    m = len(g.edges)
    full = (1 << m) - 1
    out = []

    def rec(start, chosen, blocked):
        if blocked == full:
            out.append(chosen)
        for i in range(start, m):
            b = 1 << i
            if not blocked & b:
                rec(i + 1, chosen + (i,), blocked | conf[i])

    if m == 0:
        return [()]
    rec(0, (), 0)
    out.sort(key=lambda t: (len(t), t))
    return out


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (0 for a graph without edges)."""
    return max(len(t) for t in maximal_matchings(g))


def is_equimatchable(g: Graph) -> bool:
    """True when every maximal matching has the same size."""
    sizes = {len(t) for t in maximal_matchings(g)}
    return len(sizes) <= 1


def subgraph_avoiding(g: Graph, matching):
    """The subgraph spanned by edges not incident to the given matching.

    Isolated vertices are dropped.  Returns ``(graph, index_map)`` where
    index_map sends surviving old edge indices to new ones.
    """
    mask = _matching_mask(g, matching)
    conf = g.edge_conflicts()
    banned = 0
    for i in _bits(mask):
        banned |= conf[i]
    keep = [i for i in range(len(g.edges)) if not banned >> i & 1]
    verts = sorted({u for i in keep for u in g.edges[i]})
    vmap = {v: j for j, v in enumerate(verts)}
    sub = Graph(len(verts), [(vmap[g.edges[i][0]], vmap[g.edges[i][1]]) for i in keep])
    # Graph() re-sorts, but the kept pairs are already in lex order and the
    # vertex relabeling is monotone, so positions line up with `keep`.
    index_map = {old: new for new, old in enumerate(keep)}
    return sub, index_map


def connected_components(g: Graph):
    """Components as graphs (ordered by their sorted vertex sets) plus the
    list of isolated vertices."""
    seen = [False] * g.vertex_count
    comps = []
    isolated = []
    for v0 in range(g.vertex_count):
        if seen[v0]:
            continue
        if g.adj[v0] == 0:
            seen[v0] = True
            isolated.append(v0)
            continue
        stack = [v0]
        seen[v0] = True
        verts = []
        while stack:
            v = stack.pop()
            verts.append(v)
            for w in _bits(g.adj[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        verts.sort()
        vmap = {v: j for j, v in enumerate(verts)}
        vset = set(verts)
        pairs = [(vmap[u], vmap[v]) for (u, v) in g.edges if u in vset]
        comps.append((tuple(verts), Graph(len(verts), pairs)))
    comps.sort(key=lambda t: t[0])
    return [c for _, c in comps], isolated


def is_connected_graph(g: Graph) -> bool:
    comps, isolated = connected_components(g)
    return len(comps) + len(isolated) == 1


# ---------------------------------------------------------------------------
# exact canonical form
#
# The canonical form of a graph is the lexicographically least graph6 byte
# string over all vertex labelings.  The search refines an ordered partition
# of the vertices (iterated neighbor-count splitting, seeded by degrees) and
# branches only inside the first non-singleton cell.
#
# Within that cell it branches on one vertex per twin class.  Two vertices
# are twins when they have the same neighbors apart from each other (equal
# open or equal closed neighborhoods).  Swapping two twins is an automorphism
# that fixes every other vertex; twins in one cell also share their initial
# color, so the swap maps the partition at the node onto itself and the
# subtree below one twin onto the subtree below the other, leaf string for
# leaf string.  Skipping the second subtree therefore leaves the minimum, and
# the canonical form, unchanged, while stars and complete bipartite graphs no
# longer cost a factorial number of leaves.


def _cell_masks(cells):
    out = []
    for cell in cells:
        m = 0
        for v in cell:
            m |= 1 << v
        out.append(m)
    return out


def _equitable_refinement(adj, cells):
    while True:
        masks = _cell_masks(cells)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets = {}
            for v in cell:
                a = adj[v]
                sig = tuple((a & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        if not changed:
            return new_cells
        cells = new_cells


def _pack6(bits) -> bytes:
    out = bytearray()
    acc = 0
    k = 0
    for b in bits:
        acc = acc << 1 | b
        k += 1
        if k == 6:
            out.append(acc + 63)
            acc = 0
            k = 0
    if k:
        out.append((acc << (6 - k)) + 63)
    return bytes(out)


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise FormatError(f"graph too large for graph6: {n} vertices")


def canonical_form(g: Graph, max_vertices: int = CANONICAL_VERTEX_CAP,
                   initial_classes=None) -> bytes:
    """Canonical byte string, equal exactly for isomorphic graphs.

    The result is the graph6 encoding of the canonically labeled graph: the
    least upper-triangle bit string over the labelings explored.  Branching
    happens only inside the first non-singleton cell of the refined
    partition, on one vertex per twin class within that cell, and branches
    whose determined bit prefix already exceeds the best known string are
    cut.  ``initial_classes`` optionally assigns an integer color per
    vertex; only same-colored vertices may then be exchanged (used for
    canonicalizing vertex/facet incidence graphs).

    The colors order the labeling but are not encoded in the bytes, so the
    forms of two differently colored graphs can coincide (a star whose
    leaves are split between two colors gives the same bytes for every
    split).  Equal forms mean isomorphic colored graphs only for inputs
    whose color class sizes are already known to agree; callers comparing
    colored forms must key on those sizes as well.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise TooLargeError(f"{n} vertices exceeds canonicalization cap {max_vertices}")
    if n == 0:
        return _g6_header(0)
    adj = g.adj
    if initial_classes is None:
        cells = [list(range(n))]
    else:
        buckets = {}
        for v, c in enumerate(initial_classes):
            buckets.setdefault(c, []).append(v)
        cells = [buckets[c] for c in sorted(buckets)]
    cells = _equitable_refinement(adj, cells)
    # twin[v]: least vertex with the same open or the same closed neighborhood
    # (a vertex has nontrivial twins of at most one of the two kinds)
    open_rep, closed_rep = {}, {}
    twin = [min(open_rep.setdefault(adj[v], v),
                closed_rep.setdefault(adj[v] | 1 << v, v)) for v in range(n)]
    best = None

    def descend(cells, prefix_len, bits, tight):
        nonlocal best
        split_at = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                split_at = i
                break
        # extend the determined bit prefix over newly fixed positions
        fixed = len(cells) if split_at is None else split_at
        base = len(bits)
        for j in range(prefix_len, fixed):
            aj = adj[cells[j][0]]
            for i in range(j):
                b = aj >> cells[i][0] & 1
                if tight and best is not None:
                    bb = best[len(bits)]
                    if b > bb:
                        del bits[base:]
                        return
                    if b < bb:
                        tight = False
                bits.append(b)
        if split_at is None:
            if best is None or bits < best:
                best = bits[:]
            del bits[base:]
            return
        cell = cells[split_at]
        prefix = [c[0] for c in cells[:split_at]]
        shift = len(prefix) - 1
        keyed = sorted(
            (sum((adj[v] >> p & 1) << (shift - i) for i, p in enumerate(prefix)), v)
            for v in cell
        )
        branched = set()
        for key, v in keyed:
            if twin[v] in branched:
                continue  # same subtree as the twin already branched on
            branched.add(twin[v])
            if tight and best is not None:
                # the candidate's own column is determined before refining;
                # in sorted order the first too-large key ends the loop
                limit = len(bits)
                best_col = 0
                for i in range(split_at):
                    best_col = best_col << 1 | best[limit + i]
                if key > best_col:
                    break
            nc = cells[:split_at] + [[v], [w for w in cell if w != v]] \
                + cells[split_at + 1:]
            descend(_equitable_refinement(adj, nc), fixed, bits, tight)
        del bits[base:]

    descend(cells, 0, [], True)
    return _g6_header(n) + _pack6(best)


def canonical_graph6(g: Graph, max_vertices: int = CANONICAL_VERTEX_CAP) -> str:
    return canonical_form(g, max_vertices).decode("ascii")


def are_isomorphic(g1: Graph, g2: Graph, max_vertices: int = CANONICAL_VERTEX_CAP) -> bool:
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return False
    return canonical_form(g1, max_vertices) == canonical_form(g2, max_vertices)


# ---------------------------------------------------------------------------
# graph6 interchange


def to_graph6(g: Graph) -> str:
    bits = []
    for j in range(1, g.vertex_count):
        aj = g.adj[j]
        for i in range(j):
            bits.append(aj >> i & 1)
    return (_g6_header(g.vertex_count) + _pack6(bits)).decode("ascii")


def from_graph6(s: str) -> Graph:
    data = s.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    raw = data.encode("ascii", errors="replace")
    if not raw:
        raise FormatError("empty graph6 string")
    pos = 0
    if raw[0] == 126:
        if len(raw) < 4:
            raise FormatError("truncated graph6 size block")
        vals = [raw[i] - 63 for i in range(1, 4)]
        if any(v < 0 or v > 63 for v in vals):
            raise FormatError("bad graph6 size byte")
        n = vals[0] << 12 | vals[1] << 6 | vals[2]
        pos = 4
    else:
        n = raw[0] - 63
        if not 0 <= n <= 62:
            raise FormatError(f"bad graph6 size byte {raw[0]!r}")
        pos = 1
    need = (n * (n - 1) // 2 + 5) // 6
    body = raw[pos:]
    if len(body) != need:
        raise FormatError(f"graph6 payload has {len(body)} bytes, expected {need}")
    bits = []
    for byte in body:
        v = byte - 63
        if not 0 <= v <= 63:
            raise FormatError(f"bad graph6 payload byte {byte!r}")
        bits.extend(v >> k & 1 for k in range(5, -1, -1))
    pairs = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                pairs.append((i, j))
            idx += 1
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# plain edge-list text


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" (0-based vertex ids)."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("expected header 'n m'", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("non-integer header", line=1) from None
    if n < 0:
        raise FormatError(f"negative vertex count {n}", line=1)
    pairs = []
    ln = 1
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected 'u v'", line=ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer endpoint", line=ln) from None
        pairs.append((u, v))
    if len(pairs) != m:
        raise FormatError(f"header announced {m} edges, found {len(pairs)}", line=ln)
    try:
        return Graph(n, pairs)
    except (LoopEdgeError, DuplicateEdgeError, VertexOutOfRangeError) as exc:
        raise FormatError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for (u, v) in g.edges)
    return "\n".join(lines) + "\n"
