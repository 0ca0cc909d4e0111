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

# The most vertices an edge list may announce.  A graph with a matching
# complex has at most 128 non-isolated vertices (two per edge, at most 64
# edges), and to_graph6 builds n(n-1)/2 characters for n vertices.
EDGE_LIST_VERTEX_CAP = 1024


def _require_int(name: str, value, least: int | None = None):
    """Raise ``InvalidParameterError`` unless value is an int, not a bool,
    and at least ``least`` when that is given.  The package's one int
    check."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")


class Graph:
    """Immutable simple undirected graph with indexed edges."""

    __slots__ = ("vertex_count", "edges", "adj", "has_isolated_vertices", "_conflicts")

    def __init__(self, vertex_count: int, pairs):
        _require_int("vertex_count", vertex_count, 0)
        try:
            pairs = iter(pairs)
        except TypeError:
            raise InvalidParameterError(f"pairs {pairs!r} is not iterable") from None
        adj = [0] * vertex_count
        norm = []
        for pair in pairs:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edge {pair!r} is not a pair") from None
            _require_int("an endpoint", u)
            _require_int("an endpoint", v)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range 0..{vertex_count - 1}"
                )
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if adj[u] >> v & 1:
                raise DuplicateEdgeError(f"edge ({u}, {v}) given twice")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            norm.append((u, v))
        norm.sort()
        self.vertex_count = vertex_count
        self.edges = tuple(norm)
        self.adj = tuple(adj)
        self.has_isolated_vertices = not all(adj)
        self._conflicts = None

    @classmethod
    def _trusted(cls, vertex_count: int, edges: tuple, adj: tuple | None = None) -> Graph:
        """A graph on edges its caller built valid: a sorted tuple of pairs
        ``(u, v)`` with ``0 <= u < v < vertex_count``, none given twice,
        and, when given, their adjacency masks as a tuple.  Nothing is
        checked or re-sorted, so only code that derives the edges from
        another graph's calls this."""
        g = cls.__new__(cls)
        if adj is None:
            adj = [0] * vertex_count
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            adj = tuple(adj)
        g.vertex_count = vertex_count
        g.edges = edges
        g.adj = adj
        g.has_isolated_vertices = not all(adj)
        g._conflicts = None
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_conflicts(self):
        """Per edge index, the bitmask of edge indices sharing a vertex.

        The mask for edge i includes bit i itself.
        """
        if self._conflicts is None:
            incident = [0] * self.vertex_count
            bit = 1
            for u, v in self.edges:
                incident[u] |= bit
                incident[v] |= bit
                bit <<= 1
            self._conflicts = tuple([incident[u] | incident[v] for u, v in self.edges])
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
    """The set bits of ``mask`` in increasing order: a tuple from a table
    for masks below 2^11 (every vertex mask of a graph within the
    canonical-form cap, and the pendant slot), else a generator."""
    if mask < 2048:
        return _SMALL_BITS[mask]
    return _bit_walk(mask)


def _bit_walk(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# entry m lists the bits of m: the masks with top bit b are those below
# 2^b with b added
_SMALL_BITS = [()]
for _b in range(11):
    _SMALL_BITS += [t + (_b,) for t in _SMALL_BITS]
del _b


def _reach(adj, frontier: int, seen: int = 0) -> int:
    """The mask of the vertices reachable from the mask ``frontier`` over the
    adjacency masks ``adj``, ``frontier`` and ``seen`` included; the
    vertices in ``seen`` are not expanded."""
    while frontier:
        seen |= frontier
        nxt = 0
        for x in _bits(frontier):
            nxt |= adj[x]
        frontier = nxt & ~seen
    return seen


# ---------------------------------------------------------------------------
# named families


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    _require_int("path n", n, 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require_int("cycle n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _require_int("complete n", n, 1)
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> Graph:
    _require_int("complete_bipartite m", m, 1)
    _require_int("complete_bipartite n", n, 1)
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    """Star with center 0 and n leaves."""
    return complete_bipartite(1, n)


def spider(k: int) -> Graph:
    """k paths of length two glued at a common end vertex (the center, 0).

    Leg i uses middle vertex 2i+1 and tip 2i+2, so the graph has 2k+1
    vertices and 2k edges.
    """
    _require_int("spider k", k, 2)
    pairs = []
    for i in range(k):
        pairs.append((0, 2 * i + 1))
        pairs.append((2 * i + 1, 2 * i + 2))
    return Graph(2 * k + 1, pairs)


def banner() -> Graph:
    """A 4-cycle 0-1-2-3 with the pendant edge (3, 4)."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])


def disjoint_union(graphs) -> Graph:
    """Disjoint union; vertex offsets are applied left to right.  Each part
    is a valid graph and lies above the parts before it, so the offset
    edges come out sorted and distinct, and nothing is re-checked."""
    edges, adj = [], []
    offset = 0
    for g in graphs:
        edges.extend([(u + offset, v + offset) for u, v in g.edges])
        adj.extend([a << offset for a in g.adj])
        offset += g.vertex_count
    return Graph._trusted(offset, tuple(edges), tuple(adj))


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


def _maximal_matching_masks(g: Graph):
    """The matchings that no edge of g can extend, as edge bitmasks, in
    depth-first order.

    A branch may add only free edges from ``start`` on, so a free edge
    below ``start`` none of whose conflicting edges is still addable can
    never be blocked: no matching in that branch is maximal, and the branch
    ends there.
    """
    conf = g.edge_conflicts()
    full = (1 << len(g.edges)) - 1
    out = []

    def rec(start, chosen, blocked):
        if blocked == full:
            out.append(chosen)
            return
        free = full & ~blocked
        addable = free >> start << start
        low = free ^ addable
        while low:
            b = low & -low
            if not conf[b.bit_length() - 1] & addable:
                return
            low ^= b
        while addable:
            b = addable & -addable
            i = b.bit_length() - 1
            rec(i + 1, chosen | b, blocked | conf[i])
            addable ^= b

    rec(0, 0, 0)
    return out


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (0 for a graph without edges)."""
    return max(m.bit_count() for m in _maximal_matching_masks(g))


def is_equimatchable(g: Graph) -> bool:
    """True when every maximal matching has the same size.

    The maximal matchings of g are the facets of its matching complex, so
    M(G) is pure exactly when G is equimatchable; a homology manifold is
    pure.
    """
    sizes = {m.bit_count() for m in _maximal_matching_masks(g)}
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
    comps = []
    isolated = []
    seen = 0
    for v in range(g.vertex_count):
        if seen >> v & 1:
            continue
        if g.adj[v] == 0:
            isolated.append(v)
            continue
        comp = _reach(g.adj, 1 << v)
        seen |= comp
        comps.append(Graph._trusted(comp.bit_count(), _component(g, comp)[0]))
    return comps, isolated


def _component(g: Graph, comp: int):
    """``(edges, indices)``: the edges of the component of g on the vertex
    mask ``comp``, its vertices numbered in their order in g, as a sorted
    tuple, and the indices in g of its edges.  The numbering keeps the
    order of the vertices, so it keeps the order of the edges too: edge j
    of the component is edge indices[j] of g.  The edges name the
    component's shape up to that numbering, and ``Graph._trusted`` takes
    them as they are."""
    vmap = {u: j for j, u in enumerate(_bits(comp))}
    indices = [i for i, (u, _) in enumerate(g.edges) if comp >> u & 1]
    # from a list: the tuple of a generator is grown and shrunk in place,
    # which raised join-arith's peak RSS by ~0.2 MB
    edges = tuple([(vmap[g.edges[i][0]], vmap[g.edges[i][1]]) for i in indices])
    return edges, indices


def is_connected_graph(g: Graph) -> bool:
    n = g.vertex_count
    return n > 0 and _reach(g.adj, 1) == (1 << n) - 1


# ---------------------------------------------------------------------------
# exact canonical form
#
# The canonical form of a graph is the lexicographically least graph6 byte
# string over all vertex labelings.  The search refines an ordered partition
# of the vertices (iterated neighbor-count splitting, seeded by degrees) and
# branches only inside the first non-singleton cell.
#
# Refinement runs in whole passes.  A pass splits every cell by its vertices'
# neighbor counts in the fresh cells: every cell on the first pass, the
# individualized vertex and the rest of its old cell after branching, and
# afterwards the pieces of the cells the previous pass split.  That is exact,
# and it orders the pieces as counting against every cell would: within any
# cell, the counts against a cell the previous pass did not split are
# already equal (the previous pass split by them), so they neither split a
# cell nor order its pieces.  A vertex's counts are packed into one integer,
# one field of n.bit_length() bits per fresh cell, the first fresh cell
# highest, so the integer order is the order of the count tuples; they are
# accumulated over the fresh cells' neighbor lists, so a pass costs the
# degrees of the fresh cells.  A splitting queue that refines against one
# cell at a time (McKay & Piperno 2014) would reach the same partition with
# its cells in another order, and so other canonical bytes.
#
# Within that cell it branches on one vertex per twin class.  Two vertices
# are twins when they have the same neighbors apart from each other (equal
# open or equal closed neighborhoods).  Swapping two twins is an automorphism
# that fixes every other vertex.  The search starts from one cell and
# refinement commutes with automorphisms, so for twins in one cell the swap
# maps the partition at the node onto itself and the subtree below one twin
# onto the subtree below the other, leaf string for leaf string.  Skipping
# the second subtree therefore leaves the minimum, and the canonical form,
# unchanged, while stars and complete bipartite graphs no longer cost a
# factorial number of leaves.
#
# A leaf (a discrete partition, read as a labeling) is compared as one
# integer: its upper-triangle bit string, column by column with row 0
# highest.  The strings all have n(n-1)/2 bits, so the least integer is the
# least string; only the winner is packed to graph6.
#
# One traversal, ``_leaves``, serves two readers.  ``canonical_form`` keeps
# the least leaf.  ``_automorphisms`` compares every leaf with the first:
# two leaves with equal strings differ by an automorphism, and these with
# the twin swaps generate the whole group.  The twin classes, ``_twins``,
# are also read by the search generator in ``verify``, which makes one
# addition per orbit of a parent's automorphisms.


def _equitable_refinement(nbrs, cells, fresh):
    """Refine the ordered partition ``cells`` until a pass splits nothing;
    ``fresh`` lists the cells whose counts may still split another cell."""
    n = len(nbrs)
    width = n.bit_length()
    while fresh:
        count = [0] * n
        one = 1 << width * len(fresh)
        for cell in fresh:
            one >>= width
            for u in cell:
                for w in nbrs[u]:
                    count[w] += one
        new_cells = []
        fresh = []
        for cell in cells:
            if len(cell) > 1:
                keys = {count[v] for v in cell}
                if len(keys) > 1:
                    for key in sorted(keys):
                        piece = [v for v in cell if count[v] == key]
                        new_cells.append(piece)
                        fresh.append(piece)
                    continue
            new_cells.append(cell)
        if len(new_cells) == n:
            return new_cells  # discrete: nothing left to split
        cells = new_cells
    return cells


def _pack6(bits: str) -> bytes:
    """The graph6 payload of a string of '0' and '1': six bits per byte,
    the last byte padded with zeros."""
    bits += "0" * (-len(bits) % 6)
    return bytes(int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6))


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise FormatError(f"graph too large for graph6: {n} vertices")


def _twins(adj) -> list:
    """Per vertex, the least vertex with the same open or the same closed
    neighborhood (a vertex has nontrivial twins of at most one of the two
    kinds), for the adjacency masks ``adj``."""
    open_rep, closed_rep = {}, {}
    return [min(open_rep.setdefault(a, v), closed_rep.setdefault(a | 1 << v, v))
            for v, a in enumerate(adj)]


def _leaves(g: Graph, twin):
    """The leaves of the canonical search of g (at least one vertex), in
    search order, each as ``(string, pos)``: its upper-triangle bit string
    as an integer and pos[v] the position of vertex v.  ``pos`` is one
    list, overwritten at the next leaf."""
    n = g.vertex_count
    edges = g.edges
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    # the bit of the pair at positions i < j sits at top[j] - i
    length = n * (n - 1) // 2
    top = [length - 1 - j * (j - 1) // 2 for j in range(n)]
    pos = [0] * n

    def descend(cells):
        for split_at, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            for i, cell in enumerate(cells):
                pos[cell[0]] = i
            leaf = 0
            for u, v in edges:
                i, j = pos[u], pos[v]
                leaf |= 1 << (top[j] - i if i < j else top[i] - j)
            yield leaf, pos
            return
        branched = set()
        for v in cell:
            if twin[v] in branched:
                continue  # same subtree as the twin already branched on
            branched.add(twin[v])
            rest = [w for w in cell if w != v]
            yield from descend(_equitable_refinement(
                nbrs, cells[:split_at] + [[v], rest] + cells[split_at + 1:], [[v], rest]))

    cells = [list(range(n))]
    return descend(_equitable_refinement(nbrs, cells, cells))


def canonical_form(g: Graph, max_vertices: int = CANONICAL_VERTEX_CAP) -> bytes:
    """Canonical byte string, equal exactly for isomorphic graphs.

    The result is the graph6 encoding of the canonically labeled graph: the
    least upper-triangle bit string over the leaves explored.  Branching
    happens only inside the first non-singleton cell of the refined
    partition, on one vertex per twin class within that cell.  Refinement
    counts neighbors only in the cells the previous pass split, and each
    leaf (a discrete partition) is compared in full, as one integer.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise TooLargeError(f"{n} vertices exceeds canonicalization cap {max_vertices}")
    if n == 0:
        return _g6_header(0)
    best = min(leaf for leaf, _ in _leaves(g, _twins(g.adj)))
    # the leading 1 keeps the leading zeros of the string
    return _g6_header(n) + _pack6(bin(best | 1 << n * (n - 1) // 2)[3:])


def _automorphisms(g: Graph) -> list:
    """Generators of the automorphism group of g, each a list perm that
    sends vertex v to perm[v]: the transposition of each vertex with the
    least of its twins, and for each explored leaf of the canonical search
    whose bit string equals the first leaf's, the permutation that carries
    the labeling of that leaf to the first one's.

    They generate every automorphism.  An automorphism a maps the search
    tree without twin pruning onto itself, so it carries the first leaf to
    a leaf of that tree with the same string.  That leaf is the image of an
    explored leaf under twin swaps (the subtree below a skipped twin is the
    swap of the subtree below the twin branched on), and that explored leaf
    has the first leaf's string too.  So a is a product of twin swaps and a
    permutation found here.
    """
    n = g.vertex_count
    twin = _twins(g.adj)
    gens = []
    for v, t in enumerate(twin):
        if t != v:
            perm = list(range(n))
            perm[v], perm[t] = t, v
            gens.append(perm)
    if n:
        leaves = _leaves(g, twin)
        first, pos = next(leaves)
        at = [0] * n  # the vertex at each position of the first leaf
        for v, i in enumerate(pos):
            at[i] = v
        gens.extend([at[i] for i in pos] for leaf, pos in leaves if leaf == first)
    return gens


# ---------------------------------------------------------------------------
# graph6 interchange


def to_graph6(g: Graph) -> str:
    head = _g6_header(g.vertex_count)  # raises before the O(n^2) bits are built
    bits = "".join("01"[g.adj[j] >> i & 1]
                   for j in range(1, g.vertex_count) for i in range(j))
    return (head + _pack6(bits)).decode("ascii")


def from_graph6(s: str) -> Graph:
    data = s.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    if not data.isascii():
        raise FormatError("graph6 string has non-ASCII characters")
    raw = data.encode("ascii")
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
    if n > EDGE_LIST_VERTEX_CAP:
        raise FormatError(f"vertex count {n} exceeds {EDGE_LIST_VERTEX_CAP}", line=1)
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
