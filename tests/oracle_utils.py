"""Independent brute-force oracles and graph helpers used only by the tests.

The oracles share no code with the package internals: matchings come from
filtering all edge subsets, faces from powersets of facets, ranks from a
naive dense elimination, links from scanning every facet, and canonical
forms from trying every vertex permutation (or, for the fast search's
exact bytes, from the search as first written).  The one helper that reads
the package is :func:`connected_graph_classes`, the search's own levels as
the tests read them.
"""

from __future__ import annotations

import itertools

from matchtop import verify


def brute_matchings(g):
    """All matchings by checking every subset of edges for pairwise
    disjointness (subsets of at most half the vertex count, since a larger
    one always shares a vertex)."""
    edges = g.edges
    out = []
    for r in range(min(len(edges), g.vertex_count // 2) + 1):
        for combo in itertools.combinations(range(len(edges)), r):
            verts = [v for i in combo for v in edges[i]]
            if len(set(verts)) == len(verts):
                out.append(tuple(combo))
    return out


def brute_maximal_matchings(g):
    all_m = [frozenset(m) for m in brute_matchings(g)]
    sets = set(all_m)
    out = []
    for m in all_m:
        if not any(m < other for other in sets):
            out.append(tuple(sorted(m)))
    return sorted(out, key=lambda t: (len(t), t))


def brute_faces(facets):
    """All faces (as frozensets of labels) from facet label tuples."""
    out = set()
    for f in facets:
        f = tuple(f)
        for r in range(len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(f, r))
    return out


def naive_rank_mod_p(rows, p):
    """Textbook Gaussian elimination over GF(p) on a list-of-lists matrix."""
    mat = [[x % p for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(n_rows):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def oracle_betti(facets, p):
    """Reduced Betti numbers from scratch: powerset faces, dense boundary
    matrices with (-1)^i signs, naive elimination ranks.

    ``facets`` are label tuples; returns (beta_-1, [beta_0, ..., beta_d]).
    """
    faces = brute_faces(facets)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for lst in by_dim.values():
        lst.sort()
    d = max(by_dim)
    if d == -1:
        return 1, []
    ranks = {}
    ranks[0] = 1 if by_dim.get(0) else 0
    for k in range(1, d + 1):
        rows = by_dim.get(k - 1, [])
        cols = by_dim.get(k, [])
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for i, v in enumerate(f):
                sub = f[:i] + f[i + 1:]
                mat[index[sub]][j] = (-1) ** i % p
        ranks[k] = naive_rank_mod_p(mat, p)
    ranks[d + 1] = 0
    betti = [len(by_dim.get(k, [])) - ranks[k] - ranks[k + 1] for k in range(d + 1)]
    return 1 - ranks[0], betti


def oracle_face_classes(facets, p):
    """Link class of every nonempty face of a pure complex, each link found
    by scanning all facets: "S" when it has the reduced homology of a sphere
    of complementary dimension, "B" when it is acyclic, "?" otherwise.

    ``facets`` are label tuples; returns {frozenset of labels: class}.
    """
    facets = [frozenset(f) for f in facets]
    d = max(len(f) for f in facets) - 1
    memo = {}
    out = {}
    for face in brute_faces(facets):
        if not face:
            continue
        link = [f - face for f in facets if face <= f]
        relabel = {v: i for i, v in enumerate(sorted(set().union(*link)))}
        key = tuple(sorted(tuple(sorted(relabel[v] for v in f)) for f in link))
        if key not in memo:
            memo[key] = oracle_betti(key, p)
        minus_one, betti = memo[key]
        target = d - len(face)
        sphere = [1 if k == target else 0 for k in range(len(betti))]
        if minus_one == (1 if target == -1 else 0) and betti == sphere:
            out[face] = "S"
        elif minus_one == 0 and not any(betti):
            out[face] = "B"
        else:
            out[face] = "?"
    return out


def brute_canonical(g):
    """Minimum adjacency-bit tuple over every vertex permutation."""
    n = g.vertex_count
    best = None
    for perm in itertools.permutations(range(n)):
        bits = tuple(
            g.adj[perm[i]] >> perm[j] & 1
            for j in range(1, n)
            for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    return (n, best)


def oracle_canonical_form(g):
    """The canonical graph6 bytes by the search of ``graphs.canonical_form``
    as first written: every pass splits each cell by the tuple of its
    vertices' neighbour counts in every cell, and each leaf is compared as a
    list of bits.  The same partitions, twin rule and leaf order, so the
    same bytes, with none of the fast path's packing."""
    n = g.vertex_count
    adj = g.adj

    def refine(cells):
        while True:
            masks = [sum(1 << v for v in cell) for cell in cells]
            new_cells = []
            for cell in cells:
                buckets = {}
                for v in cell:
                    sig = tuple((adj[v] & m).bit_count() for m in masks)
                    buckets.setdefault(sig, []).append(v)
                new_cells.extend(buckets[sig] for sig in sorted(buckets))
            if len(new_cells) == len(cells):
                return new_cells
            cells = new_cells

    cells = refine([list(range(n))])
    twin = []
    for v in range(n):
        twin.append(min(w for w in range(n)
                        if adj[w] == adj[v] or adj[w] | 1 << w == adj[v] | 1 << v))
    best = None

    def descend(cells):
        nonlocal best
        split = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not split:
            order = [cell[0] for cell in cells]
            bits = [adj[order[j]] >> order[i] & 1 for j in range(n) for i in range(j)]
            if best is None or bits < best:
                best = bits
            return
        i = split[0]
        branched = set()
        for v in cells[i]:
            if twin[v] not in branched:
                branched.add(twin[v])
                rest = [w for w in cells[i] if w != v]
                descend(refine(cells[:i] + [[v], rest] + cells[i + 1:]))

    descend(cells)
    bits = best + [0] * (-len(best) % 6)
    payload = bytes(63 + int("".join(map(str, bits[k:k + 6])), 2)
                    for k in range(0, len(bits), 6))
    return bytes([63 + n]) + payload


def connected_graph_classes(max_edges, max_vertices, matching_cap=None):
    """The connected isomorphism classes by edge count, levels 0 to
    ``max_edges``, each exactly once (see ``verify._levels``)."""
    return verify._levels(max_edges, max_vertices, matching_cap).graphs[: max_edges + 1]


def relabel(g, perm):
    """The graph g with each vertex v renamed perm[v]."""
    return type(g)(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def format_edge_list(g):
    """g as the edge-list text ``parse_edge_list`` reads: "n m", then one
    line "u v" per edge."""
    rows = [(g.vertex_count, len(g.edges)), *g.edges]
    return "".join(f"{a} {b}\n" for a, b in rows)


def labeled_graphs_on(n):
    """Every labeled graph on exactly n vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield tuple(p for i, p in enumerate(pairs) if bits >> i & 1)


def oracle_components(n, edges):
    """The vertex sets of the components of the graph on range(n) with the
    given edges, as sorted lists in order of their least vertex: one set
    per vertex, merged across each edge."""
    parts = [{v} for v in range(n)]
    for u, v in edges:
        pu = next(p for p in parts if u in p)
        pv = next(p for p in parts if v in p)
        if pu is not pv:
            parts.remove(pv)
            pu |= pv
    return sorted(sorted(p) for p in parts)


def oracle_facet_components(facets):
    """The number of connected components of the complex with these facets
    (label tuples): each facet's vertex set is merged with every part it
    meets, so {∅}, which has no vertex, has none."""
    parts = []
    for f in facets:
        part = set(f)
        for other in [q for q in parts if q & part]:
            parts.remove(other)
            part |= other
        if part:
            parts.append(part)
    return len(parts)


def oracle_reachable(edges, start):
    """The set of vertices joined to ``start`` by the given edges: grown by
    whole passes over the edge list until a pass adds nothing."""
    got = {start}
    grown = True
    while grown:
        grown = False
        for u, v in edges:
            if (u in got) != (v in got):
                got |= {u, v}
                grown = True
    return got


def _bit_list(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _joined_without(adj, a, b):
    """Whether b is reachable from a without the edge (a, b): the edge is
    then not a bridge."""
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in _bit_list(adj[x]):
            if {x, y} != {a, b} and y not in seen:
                seen.add(y)
                stack.append(y)
    return b in seen


def _vertex_keys(adj):
    """Per vertex, the pair (degree, sum of neighbour degrees)."""
    deg = [a.bit_count() for a in adj]
    return [(deg[x], sum(deg[y] for y in _bit_list(a))) for x, a in enumerate(adj)]


def is_canonical_deletion(adj, u, v):
    """Whether the edge (u, v) of the connected graph with adjacency masks
    ``adj`` is removable and ranks highest among its removable edges, every
    degree, neighbour sum and bridge recomputed from scratch.

    The removable edges are the pendant edges, or the non-bridges when there
    is no pendant edge.  An edge ranks by the sorted pair of (degree, sum of
    neighbour degrees) over its two ends.  Isolated vertices are ignored."""
    keys = _vertex_keys(adj)
    edges = [(a, b) for a in range(len(adj)) for b in _bit_list(adj[a]) if a < b]
    pendant = [e for e in edges if 1 in (keys[e[0]][0], keys[e[1]][0])]
    removable = pendant or [e for e in edges if _joined_without(adj, *e)]
    if (min(u, v), max(u, v)) not in removable:
        return False
    top = sorted((keys[u], keys[v]))
    return all(sorted((keys[a], keys[b])) <= top for a, b in removable)


def degree_invariant(adj):
    """The sorted multiset of (degree, sum of neighbour degrees) over the
    vertices of the graph with adjacency masks ``adj``, packed into one
    integer of 2w bits per vertex with w = (2m).bit_length(); an isolated
    vertex packs as a leading zero."""
    keys = _vertex_keys(adj)
    w = sum(d for d, _ in keys).bit_length()
    out = 0
    for d, s in sorted(keys):
        out = out << 2 * w | d << w | s
    return out


def oracle_verdict(facets, p):
    """``(status, dimension, witness face, witness link Betti numbers)`` of
    the complex with these facets (label tuples), from the link class of
    every nonempty face (:func:`oracle_face_classes`).

    The witness of a non-manifold is, by the first rule that applies: the
    least failing face by (size, labels); the first subface missing from
    the ball faces (taken by size, then by position mask, with subfaces
    dropping the least vertex first); the least ball face by (size,
    labels) when the maximal ball faces are not all ridges; the boundary's
    own witness; the least ball face when the boundary has none.  The
    Betti numbers are (beta_-1, [beta_0, ...]) of the witness's link.
    """
    facets = [tuple(sorted(f)) for f in facets]
    sizes = {len(f) for f in facets}
    d = max(sizes) - 1
    if len(sizes) > 1:
        return "NotPure", d, None, None
    if d == -1:
        return "ClosedManifold", -1, None, None
    classes = oracle_face_classes(facets, p)

    def least(faces):
        return min(faces, key=lambda f: (len(f), sorted(f)))

    def failed_at(face):
        link = [tuple(sorted(set(f) - face)) for f in facets if face <= set(f)]
        return "NotManifold", d, tuple(sorted(face)), oracle_betti(link, p)

    failing = [f for f, cls in classes.items() if cls == "?"]
    if failing:
        return failed_at(least(failing))
    balls = {f for f, cls in classes.items() if cls == "B"}
    if not balls:
        return "ClosedManifold", d, None, None
    for f in sorted(balls, key=lambda f: (len(f), sorted(f, reverse=True))):
        for v in sorted(f):
            if len(f) > 1 and f - {v} not in balls:
                return failed_at(f - {v})
    maximal = [f for f in balls if not any(f < g for g in balls)]
    if any(len(f) != d for f in maximal):
        return failed_at(least(balls))
    sub = oracle_verdict(maximal, p)
    if sub[0] == "ClosedManifold":
        return "ManifoldWithBoundary", d, None, None
    if sub[2] is None:
        return failed_at(least(balls))
    return ("NotManifold", d) + sub[2:]


def oracle_automorphisms(n, edges):
    """Every automorphism of the graph on n vertices with the given edges,
    as a tuple perm sending vertex v to perm[v], by trying all n!
    permutations."""
    edge_set = {frozenset(e) for e in edges}
    return [perm for perm in itertools.permutations(range(n))
            if all(frozenset((perm[u], perm[v])) in edge_set for u, v in edges)]


def oracle_predict_for_kinds(kinds):
    """(label, dimension) of the join of the basic parts' matching complexes
    by counting each kind: with i copies of P2, j of Gamma, k_d spiders with
    d legs, l of P3, m of C5 and n of K32, a sphere of dimension
    l + 2m + 2n - 1 when i + j + sum(k_d) = 0, and otherwise a ball of
    dimension i + 2j + sum(d * k_d) + l + 2m + 2n - 1."""
    count = {kind: sum(1 for k in kinds if k.kind == kind)
             for kind in ("P2", "Gamma", "Spider", "P3", "C5", "K32")}
    sphere_part = count["P3"] + 2 * count["C5"] + 2 * count["K32"]
    if count["P2"] + count["Gamma"] + count["Spider"] == 0:
        return "Sphere", sphere_part - 1
    legs = sum(k.legs for k in kinds if k.kind == "Spider")
    return "Ball", count["P2"] + 2 * count["Gamma"] + legs + sphere_part - 1


def oracle_ridge_prefilter(g, d, boundary):
    """Whether every maximal matching of g has d + 1 edges and every
    nonempty ridge (a facet minus one edge) lies in 1 or 2 facets: in 2 at
    every ridge when closed, in 1 at some ridge with ``boundary``.  The
    facets are listed by brute force and each ridge's facets counted."""
    facets = brute_maximal_matchings(g)
    if any(len(f) != d + 1 for f in facets):
        return False
    count = {}
    for f in facets:
        for ridge in itertools.combinations(f, d) if d > 0 else ():
            count[ridge] = count.get(ridge, 0) + 1
    per_ridge = set(count.values())
    return per_ridge <= {1, 2} and (1 in per_ridge) == boundary
