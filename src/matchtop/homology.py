"""Reduced simplicial homology over prime fields.

Betti numbers come from ranks of boundary matrices: beta_k = nullity(d_k) -
rank(d_{k+1}), with d_0 the augmentation map, so beta_-1 is 1 exactly for the
complex {∅}.  Ranks come from the standard sparse column reduction of
computational topology (Edelsbrunner, Letscher & Zomorodian 2002): a column
is reduced against earlier pivots (its lowest nonzero row) until it is zero
or owns a new pivot.  Over GF(2) columns are bit-packed integers, over odd
primes {row: coefficient} dicts.  The maps are reduced from the top
dimension down, skipping the columns of faces that are already pivot rows
one dimension up, since those reduce to zero (clearing).

Only the core of a complex is ranked: dominated vertices are deleted
first (:func:`_core`), which keeps the homology at every prime.  The core
is then split into join factors, since over a field the reduced Betti
polynomial Σ β̃_i t^(i+1) of a join is the product of those of its factors
(Milnor 1956), and the matching complex of a disjoint union is the join of
theirs.  The split peels off one component at a time of the graph on
vertices that never share a facet: a component C is a factor when the
number of facets is the number of their restrictions to C times the
number of their restrictions to the rest; components that do not split
stay together as one factor.  Each factor is re-indexed and ranked once
per shape and prime in the process.  A core that is no join is ranked
from its face table, which for a complex that is its own core is the
complex's own, perhaps left by the link walk of :mod:`matchtop.manifold`.
The split and the table are keyed by the facets alone (or kept on the
complex), so the second prime reads the first one's.
On the 130-case join-arith benchmark the split cut the faces ranked per
pass from 208,642 to 26,861 at GF(2) and from 104,196 to 18,169 at GF(3).

Elementary collapses on faces did not pay for themselves once the ranks
used clearing: they walk every face and its cofaces, which costs more than
the columns they spare.  A strong collapse reads only the facets, one AND per vertex of
each facet, so the faces it removes are never built.  On the 130-case
join-arith benchmark (2-core machine, Python 3.11) it cut the faces ranked
per pass from 756,696 to 312,838 and the pass time from 3.01 to 1.96 s
(medians of twelve alternating pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, _faces_by_size, _maximal, _reindex
from .errors import BadDimensionError, InvalidParameterError, VoidComplexError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


@dataclass(frozen=True)
class FieldPrime:
    """A prime modulus for homology coefficients."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise InvalidParameterError(f"{self.p} is not prime")
        if self.p >= 1 << 16:
            raise InvalidParameterError("primes must be below 2^16")


def _prime_of(p) -> int:
    if isinstance(p, FieldPrime):
        return p.p
    return FieldPrime(p).p


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over GF(p).

    ``betti[k]`` is beta_k for k >= 0; ``minus_one`` is beta_-1 (1 only for
    the complex {∅}).
    """

    p: int
    minus_one: int
    betti: tuple

    def b(self, k: int) -> int:
        if k == -1:
            return self.minus_one
        if 0 <= k < len(self.betti):
            return self.betti[k]
        return 0

    def is_sphere(self, d: int) -> bool:
        if self.minus_one != (1 if d == -1 else 0):
            return False
        return all(v == (1 if k == d else 0) for k, v in enumerate(self.betti))

    def is_ball(self) -> bool:
        return self.minus_one == 0 and all(v == 0 for v in self.betti)

    def to_list(self):
        return list(self.betti)


class BoundaryMatrix:
    """The map from k-chains to (k-1)-chains in a fixed face ordering.

    Rows are the (k-1)-faces sorted by bitmask (for k = 0 the single
    augmentation row), columns the k-faces sorted by bitmask; the column of a
    face carries (-1)^i at the subface dropping its i-th smallest vertex.
    """

    def __init__(self, k, p, row_faces, col_faces, columns):
        self.k = k
        self.p = p
        self.row_faces = row_faces
        self.col_faces = col_faces
        self.columns = columns  # tuple of tuples of (row_index, coefficient)

    @property
    def shape(self):
        return (len(self.row_faces), len(self.col_faces))

    def dense(self):
        rows, cols = self.shape
        out = [[0] * cols for _ in range(rows)]
        for j, col in enumerate(self.columns):
            for i, coeff in col:
                out[i][j] = coeff
        return out

    def rank(self) -> int:
        return _rank_modp([dict(col) for col in self.columns], self.p)


def _column(mask: int, index, p: int) -> dict:
    """The boundary of a face mod p, as {row: coefficient}: (-1)^i at the
    index of the subface that drops its i-th smallest vertex."""
    col = {}
    sign = 1
    m = mask
    while m:
        b = m & -m
        col[index[mask ^ b]] = sign
        sign = p - sign
        m ^= b
    return col


def boundary_matrix(c: Complex, k: int, p) -> BoundaryMatrix:
    pp = _prime_of(p)
    if c.is_void:
        raise VoidComplexError("boundary matrix of the void complex")
    if not 0 <= k <= c.dimension:
        raise BadDimensionError(f"k={k} outside 0..{c.dimension}")
    by_size = c.faces_by_size()
    col_masks = by_size.get(k + 1, [])
    if k == 0:
        row_faces = ((),)
        columns = tuple(((0, 1),) for _ in col_masks)
        return BoundaryMatrix(
            0, pp, row_faces, tuple(c.labels_of(m) for m in col_masks), columns
        )
    row_masks = by_size.get(k, [])
    index = {m: i for i, m in enumerate(row_masks)}
    return BoundaryMatrix(
        k,
        pp,
        tuple(c.labels_of(m) for m in row_masks),
        tuple(c.labels_of(m) for m in col_masks),
        tuple(tuple(_column(cm, index, pp).items()) for cm in col_masks),
    )


# ---------------------------------------------------------------------------
# ranks


def _rank_gf2(cols, pivots=None) -> int:
    """Rank of a GF(2) matrix given as column bitmasks over row indices.

    ``pivots``, if given, receives the pivot row of every nonzero reduced
    column.
    """
    if pivots is None:
        pivots = {}
    for c in cols:
        while c:
            h = c.bit_length() - 1
            row = pivots.get(h)
            if row is None:
                pivots[h] = c
                break
            c ^= row
    return len(pivots)


def _rank_modp(cols, p: int, pivots=None) -> int:
    """Rank mod p of a matrix given as sparse columns ``{row: coefficient}``.

    Each column is reduced against the kept columns by its lowest (highest
    index) nonzero row until it is zero or that row is a new pivot; the
    column dicts are consumed.  ``pivots``, if given, receives the pivot
    rows as for :func:`_rank_gf2`.
    """
    if pivots is None:
        pivots = {}
    for col in cols:
        for r in [r for r, v in col.items() if not v % p]:
            del col[r]
        while col:
            low = max(col)
            got = pivots.get(low)
            if got is None:
                pivots[low] = (col, pow(col[low], p - 2, p))
                break
            piv, inv = got
            f = col[low] * inv % p
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    return len(pivots)


# ---------------------------------------------------------------------------
# betti numbers


def _core(facet_masks):
    """The maximal faces of the core of the complex with the given maximal
    faces: what is left when dominated vertices are deleted until none is.

    A vertex b is dominated when some a != b lies in every facet through b;
    deleting it is a strong deformation retraction (Barmak & Minian 2012),
    so the homology is unchanged at every prime.  Each round ANDs the facets
    through every vertex, then deletes in one walk every vertex dominated by
    one not yet deleted in this round: the faces through b after those
    deletions lie in the old facets through b, so that dominator still
    dominates.  The shrunk facets are cut back to the maximal ones, since a
    redundant mask through b that misses b's dominator would hide it.  Every
    facet keeps a vertex, so no mask is 0.
    """
    facets = facet_masks
    while True:
        inter = {}
        for f in facets:
            m = f
            while m:
                b = m & -m
                inter[b] = inter.get(b, f) & f
                m ^= b
        gone = 0
        for b in sorted(inter):
            if inter[b] & ~gone & ~b:
                gone |= b
        if not gone:
            return facets
        facets = _maximal(f & ~gone for f in facets)


def _betti_from_faces(by_size, p: int, pad_dim: int) -> BettiVector:
    """Direct matrix-rank computation from a face table ``{size: sorted
    masks}`` of the nonempty faces, as :func:`_faces_by_size` builds it."""
    if not by_size:
        return BettiVector(p, 1, (0,) * (pad_dim + 1) if pad_dim >= 0 else ())
    top = max(by_size)
    ranks = [0] * (top + 1)  # ranks[k] = rank of d_k; d_top has no columns
    ranks[0] = 1 if by_size.get(1) else 0
    cleared = {}  # pivot rows of d_{k+1}: columns of d_k that reduce to zero
    for k in range(top - 1, 0, -1):
        index = {m: i for i, m in enumerate(by_size[k])}
        cols = [cm for j, cm in enumerate(by_size[k + 1]) if j not in cleared]
        pivots = {}
        if p == 2:
            ints = []
            for cm in cols:
                v = 0
                m = cm
                while m:
                    b = m & -m
                    v |= 1 << index[cm ^ b]
                    m ^= b
                ints.append(v)
            _rank_gf2(ints, pivots)
        else:
            _rank_modp([_column(cm, index, p) for cm in cols], p, pivots)
        ranks[k] = len(pivots)
        cleared = pivots
    betti = []
    for k in range(top):
        f_k = len(by_size.get(k + 1, ()))
        betti.append(f_k - ranks[k] - ranks[k + 1])
    while len(betti) < pad_dim + 1:
        betti.append(0)
    return BettiVector(p, 1 - ranks[0], tuple(betti))


def _join_factors(facet_masks) -> list:
    """Join factors of the complex with the given maximal faces, each as the
    sorted restrictions of the facets to its vertices (positions unchanged).

    Vertices in different factors of a join share a facet, so every factor
    is a union of components of the graph on vertices that never share a
    facet.  A component C is split off when the facets are exactly the
    unions of a restriction to C and a restriction to the rest, i.e. their
    number is the product of the two numbers of restrictions; the
    components that do not split stay together as one factor.  ∂Δ² has
    three one-vertex components, none of which splits, so it is one factor.
    """
    used = 0
    near = {}  # vertex bit -> the vertices sharing a facet with it
    for f in facet_masks:
        used |= f
        m = f
        while m:
            b = m & -m
            near[b] = near.get(b, 0) | f
            m ^= b
    factors = []
    rest = list(facet_masks)
    left = used
    while left:
        comp = frontier = left & -left
        while frontier:
            b = frontier & -frontier
            new = used & ~near[b] & ~comp
            comp |= new
            frontier = (frontier ^ b) | new
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
    return factors


# facets -> (re-indexed join factors of their core, or None; face table,
# or None), for facets ranked without a Complex; emptied by clear_caches()
_cores: dict = {}
_betti_cache: dict = {}


def betti_for_facets(vertex_count: int, facet_masks, p: int) -> BettiVector:
    """Reduced Betti numbers for the complex with the given maximal faces.

    ``facet_masks`` must be inclusion-maximal and nonempty; (0,) denotes {∅}.
    ``vertex_count`` is not needed, since the faces are read off the masks.
    Only the core is ranked (see :func:`_core`): finding it costs one pass
    over the facets per round, while ranking the full complex costs its
    whole face table.  A core that is a join is ranked factor by factor
    (see :func:`_join_factors`).  Results are cached by the facet
    structure, and the Betti vector keeps the length of the original
    dimension.
    """
    return _betti(tuple(facet_masks), p, None)


def _betti(facet_masks: tuple, p: int, c: Complex | None) -> BettiVector:
    """:func:`betti_for_facets`; ``c``, if given, is a complex with these
    facets, whose face table is ranked when it is its own core and no join.

    Over a field the reduced Betti polynomial Σ β̃_i t^(i+1) (β̃_-1 at
    t^0) of a join is the product of those of its factors (Milnor 1956).
    So a core with two or more join factors multiplies the polynomials of
    its factors, each re-indexed and ranked through
    :func:`betti_for_facets`, once per factor shape and prime in the
    process."""
    if facet_masks == (0,):
        return BettiVector(p, 1, ())
    key = (facet_masks, p)
    got = _betti_cache.get(key)
    if got is None:
        d = max(m.bit_count() for m in facet_masks) - 1
        factors, by_size = _factored(facet_masks, c)
        if factors is None:
            got = _betti_from_faces(by_size, p, d)
        else:
            poly = [1]
            for k, masks in factors:
                b = betti_for_facets(k, masks, p)
                prod = [0] * (len(poly) + len(b.betti))
                for i, x in enumerate(poly):
                    for j, y in enumerate((b.minus_one,) + b.betti):
                        prod[i + j] += x * y
                poly = prod
            got = BettiVector(p, poly[0], tuple(poly[1:]) + (0,) * (d + 2 - len(poly)))
        _betti_cache[key] = got
    return got


def _factored(facet_masks: tuple, c: Complex | None):
    """``(factors, table)`` for the core of the complex with these facets:
    its join factors, each as (vertex count, re-indexed masks), and no
    table when there are two or more; else no factors and the core's face
    table, c's own when c is its own core.  Kept on c, or keyed by the
    facets alone, so every prime reads one core, one split and one
    table."""
    cache, key = (_cores, facet_masks) if c is None else (c._cache, "factored")
    got = cache.get(key)
    if got is None:
        core = tuple(_core(facet_masks))
        factors = _join_factors(core)
        if len(factors) > 1:
            got = ([(used.bit_count(), norm) for used, norm in map(_reindex, factors)], None)
        elif c is not None and core == facet_masks:
            got = (None, c.faces_by_size())
        else:
            got = (None, _faces_by_size(core))
        cache[key] = got
    return got


def betti_reduced(c: Complex, p) -> BettiVector:
    """Reduced Betti numbers of a nonvoid complex over GF(p)."""
    pp = _prime_of(p)
    if c.is_void:
        raise VoidComplexError("homology of the void complex")
    return _betti(c.facet_masks, pp, c)


def has_sphere_homology(c: Complex, d: int, p) -> bool:
    """All reduced homology vanishing except one dimension-d class.

    d = -1 means the complex {∅}.  The void complex fails every check.
    """
    if c.is_void:
        return False
    return betti_reduced(c, p).is_sphere(d)


def has_ball_homology(c: Complex, p) -> bool:
    """All reduced homology vanishing."""
    if c.is_void:
        return False
    return betti_reduced(c, p).is_ball()


def clear_caches():
    _betti_cache.clear()
    _cores.clear()
