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

p is checked once, at the public boundary, by :func:`_checked`, the
package's one prime check: ``betti_for_facets`` (and ``betti_reduced``
through it), the public functions of ``manifold`` and
``verify.SearchSpec`` call it before they look anything up, and the
internals below them take the checked int.  The ranks need a prime: the
mod-p reduction inverts a pivot entry c as c^(p-2), which is no inverse
for any other modulus.

A complex of dimension at most 1 is a graph, and is counted, not ranked
(:func:`_graph_betti`): with c components in its 1-skeleton, β̃₀ = c - 1
and β̃₁ = |E| - |V| + c.  This holds at every prime, as d₁ is the
incidence matrix of a graph, whose rank over any field is |V| - c.  The
matching complexes of the disconnected-complex search all have ν(G) <= 2,
so each of them is counted, before any split or core.

Any other complex is split before it is shrunk.  Over a field the reduced
Betti polynomial Σ β̃_i t^(i+1) of a join is the product of those of its
factors (Milnor 1956), and the matching complex of a disjoint union is the join of
theirs.  ``complexes._join_factors``, the one join split in the package,
peels off one component at a time of the graph on vertices that never
share a facet: a component C is a factor when the number of facets is the
number of their restrictions to C times the number of their restrictions
to the rest.  It is kept in the facet set's entry of ``complexes._facts``,
the one table of what the process knows per facet set, as the entries of
the factors, so the ranks at every prime and the manifold verdict read one
split and rank each factor in its own entry, and ``matching_complex``
records the split of a disconnected graph's complex, read off the graph's
components, as it builds it.  Any other complex ranks only its
core: dominated vertices are deleted (:func:`_core`), which keeps the
homology at every prime, and a smaller core is re-indexed and ranked as a
complex of its own, split in turn when it is a join.  A complex that is
its own core and no join is ranked from its face table, the one that
``complexes._face_table`` keeps in the same entry, and which
``Complex.faces_by_size()`` reads too.  Every result is kept there, under
its prime, by the facets alone: no ``Complex`` is passed in and none keeps
a memo, so complexes with equal facets and other labels share them all.
The public functions look the entry up once; below them a facet set is
passed as its entry.
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

from . import complexes
from .complexes import (Complex, _face_table, _facts_of, _join_factors, _maximal, _near,
                        _reindex)
from .errors import InvalidParameterError
from .graphs import _reach, _require_int


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


def _checked(p) -> int:
    """p, when it is an int prime below 2^16; else raises
    ``InvalidParameterError``.  The package's one prime check (see the
    module docstring)."""
    if not isinstance(p, int) or not _is_prime(p):
        raise InvalidParameterError(f"{p!r} is not prime")
    if p >= 1 << 16:
        raise InvalidParameterError("primes must be below 2^16")
    return p


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
        """beta_d = 1 and every other reduced Betti number 0; d = -1 is
        {∅}.  A d outside the vector is no sphere: its beta_d is 0."""
        if d == -1:
            return self.minus_one == 1 and not any(self.betti)
        return (self.minus_one == 0 and 0 <= d < len(self.betti)
                and all(v == (1 if k == d else 0) for k, v in enumerate(self.betti)))

    def is_ball(self) -> bool:
        return self.minus_one == 0 and all(v == 0 for v in self.betti)

    def to_list(self):
        return list(self.betti)


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


# ---------------------------------------------------------------------------
# ranks


def _rank_gf2(cols) -> dict:
    """The pivots of a GF(2) matrix given as column bitmasks over row
    indices, as ``{pivot row: reduced column}``; their number is the rank.
    """
    pivots = {}
    for c in cols:
        while c:
            h = c.bit_length() - 1
            row = pivots.get(h)
            if row is None:
                pivots[h] = c
                break
            c ^= row
    return pivots


def _rank_modp(cols, p: int) -> dict:
    """The pivots mod p of a matrix given as sparse columns ``{row:
    coefficient}``, as ``{pivot row: (reduced column, inverse of its pivot
    entry)}``; their number is the rank.  p must be a prime, as
    :func:`_checked` makes sure at the public boundary: the inverse is
    ``c^(p-2)`` by Fermat's little theorem.

    Each column is reduced against the kept columns by its lowest (highest
    index) nonzero row until it is zero or that row is a new pivot; the
    column dicts are consumed.
    """
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
    return pivots


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


def _betti_from_faces(by_size, p: int) -> BettiVector:
    """Reduced Betti numbers over GF(p), p prime, ranked directly from the
    face table ``{size: sorted masks}`` of a complex other than {∅}, as
    ``complexes._faces_by_size`` builds it; the vector has the table's
    dimension, its largest size less one.

    The maps are reduced from the top down, and the pivot rows of each
    clear the columns of the map below; d_0, the augmentation, has rank 1,
    as the table has vertices."""
    top = max(by_size)
    ranks = [0] * (top + 1)  # ranks[k] = rank of d_k; d_top has no columns
    ranks[0] = 1
    cleared = {}  # pivot rows of d_{k+1}: columns of d_k that reduce to zero
    for k in range(top - 1, 0, -1):
        index = {m: i for i, m in enumerate(by_size[k])}
        cols = [cm for j, cm in enumerate(by_size[k + 1]) if j not in cleared]
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
            cleared = _rank_gf2(ints)
        else:
            cleared = _rank_modp([_column(cm, index, p) for cm in cols], p)
        ranks[k] = len(cleared)
    return BettiVector(p, 0, tuple(len(by_size[k + 1]) - ranks[k] - ranks[k + 1]
                                   for k in range(top)))


def betti_for_facets(facet_masks, p: int) -> BettiVector:
    """Reduced Betti numbers for the complex with the given faces.

    ``facet_masks`` is a nonempty sequence of int masks >= 0; (0,) denotes
    {∅}.  A set that is not inclusion-maximal is cut back to its maximal
    masks, so it shares their entry.  A complex of dimension at most 1 is
    counted off its components, the same at every prime (see
    :func:`_graph_betti`).  A join is ranked factor by factor (see
    :func:`_join_factors`); any other complex ranks only its core (see
    :func:`_core`), which is split in turn when it is a join: finding the
    core costs one pass over the facets per round, while ranking the full
    complex costs its whole face table.
    Results are cached by the facet structure, and the Betti vector keeps
    the length of the original dimension.  p is checked by
    :func:`_checked`, and the masks too, before anything is looked up or
    ranked, so a bad call raises ``InvalidParameterError`` and leaves no
    memo.
    """
    p = _checked(p)
    masks = tuple(facet_masks)
    if not masks:
        raise InvalidParameterError("a complex needs a facet; (0,) gives {∅}")
    for m in masks:
        _require_int("a facet mask", m, 0)
    # a known key is used as it is: the package keys its entries by maximal
    # sets, so only a new set is cut back
    return _betti(complexes._facts.get(masks) or _facts_of(tuple(_maximal(masks))), p)


def _betti(entry: dict, p: int) -> BettiVector:
    """:func:`betti_for_facets` of an entry's facets, kept under p in the
    entry.

    In this order: a complex of dimension at most 1 is counted
    (:func:`_graph_betti`, exact at every prime); a join multiplies its
    factors' reduced Betti polynomials Σ β̃_i t^(i+1) (β̃_-1 at t^0), each
    factor's entry ranked here in turn (Milnor 1956); else a smaller core
    is re-indexed and ranked here as the one factor, split in turn if it
    is a join; else the entry's one face table is ranked."""
    facets = entry["facets"]
    if facets == (0,):
        return BettiVector(p, 1, ())
    got = entry.get(p)
    if got is None:
        # stops at the first facet of 3 vertices: a pure complex of a
        # higher dimension, as a join, pays one test
        if all(m.bit_count() <= 2 for m in facets):
            got = _graph_betti(facets, p)
        else:
            d = None  # a join's product has the length of its dimension plus 2
            factors = _join_factors(entry)
            if factors is None:
                core = tuple(_core(facets))
                if core == facets:
                    got = _betti_from_faces(_face_table(entry), p)
                else:  # rank the smaller core, maybe of a lower dimension, as the one factor
                    d = max(m.bit_count() for m in facets) - 1
                    factors = [_facts_of(_reindex(core)[1])]
            if got is None:
                poly = [1]
                for factor in factors:
                    poly = _times(poly, _poly(_betti(factor, p)))
                got = _from_poly(poly, p, len(poly) - 2 if d is None else d)
        entry[p] = got
    return got


def _graph_betti(facets, p: int) -> BettiVector:
    """The reduced Betti numbers of a complex of dimension 0 or 1, a graph
    with c components, counted: β̃₀ = c - 1 and, when it has an edge,
    β̃₁ = |E| - |V| + c.  The same at every prime, since d₁ is a graph's
    incidence matrix, whose rank over any field is |V| - c.  The components
    are those of the 1-skeleton that :func:`complexes._near` reads off the
    facets."""
    used = 0
    for f in facets:
        used |= f
    near = _near(facets, used.bit_length())
    c = 0
    left = used
    while left:
        left &= ~_reach(near, left & -left)
        c += 1
    edges = sum(f.bit_count() == 2 for f in facets)
    return BettiVector(p, 0, (c - 1, edges - used.bit_count() + c) if edges else (c - 1,))


def _poly(b: BettiVector) -> tuple:
    """The reduced Betti polynomial Σ β̃_i t^(i+1) of b, as its coefficients
    from t^0."""
    return (b.minus_one,) + b.betti


def _from_poly(poly, p: int, d: int) -> BettiVector:
    """The Betti vector at p of a complex of dimension d whose reduced Betti
    polynomial has the coefficients ``poly``."""
    return BettiVector(p, poly[0], tuple(poly[1:]) + (0,) * (d + 2 - len(poly)))


def _times(a, b) -> list:
    """The product of two polynomials given by their coefficients."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def betti_reduced(c: Complex, p) -> BettiVector:
    """Reduced Betti numbers of a complex over GF(p); p is checked by
    :func:`betti_for_facets`."""
    # by keyword: bench/tracing.py reads a traced call's facets and prime
    # at argument positions 1 and 2, else by name, and they sit at 0 and 1
    return betti_for_facets(facet_masks=c.facet_masks, p=p)
