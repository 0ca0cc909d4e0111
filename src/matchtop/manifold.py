"""Homology-manifold recognition and classification.

A pure d-complex is checked by the link condition: the link of every
nonempty face must have the reduced homology of a sphere or ball of
complementary dimension.  Faces with ball links form the boundary, which
must itself be a closed homology manifold one dimension down.
Classification then reads off Betti fingerprints at two primes together
with the number of boundary components; the surface types that actually
occur are separated by that data.

Links are computed top-down: the link of σ ∪ v is the link of v inside
the link of σ, so no face scans the facets of the whole complex.  Links
are memoized by shape (the link's facets re-indexed onto positions
0..k-1) in ``complexes._facts``, the process table of what is known per
facet set, and a shape is passed around as its entry there: the children
of a link depend only on its shape, so each distinct shape's entry keeps
them for the process, however many faces, complexes and primes have it,
and each is re-indexed once.  Its class at a prime is read off the Betti
numbers the same entry keeps, and only its summary is kept per prime.

The verdict is paid per shape, not per face.  A shape's entry keeps a
summary over its nonempty faces: the least size of a face whose link
fails, the least size of one whose link is not acyclic, whether some link
is a ball, and whether the maximal ball faces differ from the ridges in
exactly one facet.  Every nonempty face is a vertex plus a face of that
vertex's link, so the summary can be built from the summaries of the
vertex links.  A shape that is a join K * L (the matching complex of a
disjoint union is the join of its parts') is folded from the summaries of
the factors' entries that ``complexes._join_factors``, the split the ranks
read, returns, and builds no vertex link.  Fold lemma: the links of
J = K * L are lk_K α * lk_L β (lk ∅ the factor itself), and a join is a
sphere iff both sides are, acyclic iff either is, and fails otherwise,
since its reduced Betti polynomial is the product of its factors' (Milnor
1956).  So a face of J fails iff one side fails and the other is not
acyclic, and its least size is a sum of the factors' least failing and
least non-acyclic sizes, or one of them alone where the other factor
fails or is a sphere; the flags follow the same way (the proof is at ``_shape_summary``).  No face
is visited: a failing complex finds its least failing face by descending
through the children, which builds a join shape's vertex links only on the
way down, a closed one has no ball, and the boundary of any other is
spanned by the ridges in one facet, read off the one ridge count
``complexes._ridge_cofacets``.  A join's boundary is not walked either:
∂(K * L) = ∂K * L ∪ K * ∂L, so whether it is closed, its component count
and its Betti numbers are folded from the boundaries of the factors, each
kept once per factor shape in the same table (the proof is at
``_fold_boundary``); only a boundary the fold does not prove
closed is checked by ``check_manifold``, so its witnesses are unchanged.
Every memo is kept once per facet set, without labels, in that same
table: a complex is only its labels and facets.  A facet set's entry
keeps its verdict per prime as ``(status, dimension, witness mask or
None, witness Betti or None)``, its boundary span as ``(used, the
span's entry)``, the same at every prime and shared by complexes and join
factors alike, and its boundary's Betti numbers per prime, so
``clear_caches`` releases them all, the link-shape children and summaries
included.  Only the public functions attach labels, as they return:
``check_manifold`` labels the witness and ``boundary_complex`` the span,
through the positions it uses.  The
component count is one count, β̃_0 + 1 of the boundary (0 when closed),
folded or spanned alike, as β̃_0 counts the components less one at every
prime, so the boundary's Betti numbers at any prime already known serve.
``check_manifold``, ``boundary_complex``, ``classify`` and
``manifold_report`` analyse each facet set once, the last three read the
count through one guard and the boundary's Betti numbers through one
route, ``_boundary_betti``, and a folded join's boundary is spanned only
by ``boundary_complex``.  Each public function checks its primes once
and looks up the complex's entry once; the internals below it
(``_verdict``, ``_classify``, ``_fold_boundary``, ``_boundary_betti``,
``_component_count``) take the checked int and entries, not the complex,
and look up only the facet sets they make.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes as cx
from . import graphs as graphs_mod
from .complexes import Complex, _join_factors
from .errors import InvalidParameterError
from .homology import BettiVector, _betti, _checked, _from_poly, _poly, _times

STATUS_NOT_PURE = "NotPure"
STATUS_NOT_MANIFOLD = "NotManifold"
STATUS_CLOSED = "ClosedManifold"
STATUS_WITH_BOUNDARY = "ManifoldWithBoundary"


@dataclass(frozen=True)
class ManifoldVerdict:
    status: str
    dimension: int  # the complex's, pure or not; -1 for {∅}
    p: int
    witness_face: tuple | None = None  # labels of a face whose link fails
    witness_betti: BettiVector | None = None

    @property
    def is_manifold(self) -> bool:
        return self.status in (STATUS_CLOSED, STATUS_WITH_BOUNDARY)


@dataclass(frozen=True)
class BoundaryComplex:
    """The boundary ``complex`` of a homology manifold, spanned by its
    ridges in exactly one facet, and its ``component_count``."""

    complex: Complex
    component_count: int


@dataclass(frozen=True)
class ManifoldClass:
    """A classification label; dimension is carried for spheres and balls."""

    label: str
    dimension: int | None = None

    def __str__(self):
        if self.label in ("Sphere", "Ball") and self.dimension is not None:
            return f"{self.label}({self.dimension})"
        return self.label


NOT_MANIFOLD_CLASS = ManifoldClass("NotManifold")


# ---------------------------------------------------------------------------
# link analysis per shape

_INTERIOR = "S"
_BOUNDARY = "B"
_FAIL = "?"
_NEVER = float("inf")  # the fail of a shape with no failing face, in a fold


def _child(shape, i):
    """The child of a link shape's entry for its vertex i, built on first
    use in its ``"children"`` slot: the entry of lk(i), re-indexed, and the
    positions of its vertices in the shape."""
    children = shape.setdefault("children", {})
    got = children.get(i)
    if got is None:
        b = 1 << i
        used, norm = cx._reindex([f ^ b for f in shape["facets"] if f & b])
        got = children[i] = (cx._facts_of(norm), bytes(graphs_mod._bits(used)))
    return got


def _class(entry, p):
    """'S', 'B' or '?': a shape as a link at p, a sphere of the dimension
    its facets have, acyclic, or neither, read off the Betti numbers that
    the same entry keeps."""
    betti = _betti(entry, p)
    return (_INTERIOR if betti.is_sphere(entry["facets"][0].bit_count() - 1)
            else _BOUNDARY if betti.is_ball() else _FAIL)


def _shape_summary(shape, p):
    """The summary of a shape over its nonempty faces σ: ``(fail, ball,
    disagree, ball_vertex, non_ball)``.

    * fail: the least size of a σ whose link is '?', 0 when there is none;
    * ball: some lk σ is a ball;
    * disagree: for some σ, D(lk σ), where D(L) is "L is a ball with no
      ball vertex link" (σ is a maximal ball face) differing from "L is one
      point" (σ is a ridge in exactly one facet);
    * ball_vertex: some vertex link of the shape itself is a ball;
    * non_ball: the least size of a σ whose link is not acyclic, at most
      the facet size, as a facet's link {∅} is a sphere.

    Kept per prime in the ``"summary"`` slot of the shape's entry.  A
    shape that ``_join_factors`` splits is folded from the summaries of the
    factors' entries it returns, each classified as a link, and builds no
    vertex link.  Any other is read off its vertex links: every nonempty
    face is a vertex i plus a face τ of lk(i), with lk σ = lk_{lk(i)}(τ),
    so the summary is read off the vertex links themselves (τ = ∅, size
    1) and their own summaries (size + 1).  The loop stops at the first
    vertex link that fails, where non_ball is 1 and exact, so the flags
    are complete only when fail is 0.  They are read only then.

    Fold lemma.  The faces of J = K * L are the α ∪ β, α a face of K and β
    one of L, not both empty, and lk_J(α ∪ β) = lk_K α * lk_L β with lk ∅
    the factor itself.  Over a field the reduced Betti polynomial of a join
    is the product of its factors' (the rule ``homology._betti`` ranks
    joins by), so a join is a sphere iff both factors are, acyclic iff
    either is, and fails otherwise.  With c the classes of K and L as
    links, f their fails (∞ for 0) and n their non-balls:

    * lk σ fails iff one side fails and the other is not acyclic: for α, β
      nonempty at sizes f_K + n_L and n_K + f_L; for β = ∅ at n_K if c_L
      fails and f_K if c_L is a sphere; for α = ∅ the same swapped;
    * lk σ is not acyclic iff neither side is: n_K + n_L, n_K if c_L is
      not acyclic, n_L if c_K is not;
    * some lk σ is a ball iff K or L has a ball face link or is acyclic
      (then every nonempty face of the other has a ball link in J);
      lk_J(v) = lk_K(v) * L for a vertex v of K, so J has a ball vertex
      link iff K or L has one or is acyclic;
    * the flags are read only when J has no failing face.  Then neither
      has K or L, as a failing α of K gives the failing α ∪ (a facet of
      L), and neither fails itself, as K is the link in J of a facet of L.
      A join of two nonempty links, each a sphere or acyclic, is never one
      point, and never a ball without a ball vertex, as a vertex of one
      joined to the acyclic other is a ball vertex.  So D(lk σ) holds only
      where one side is {∅}, a facet's link, and lk σ is the other side:
      disagree_J is disagree_K or disagree_L or D(K) or D(L).

    Lemma: without a failing face the ball faces are closed under
    subfaces, so the maximal ones span the boundary.  If no nonempty face
    of a pure complex has a failing link at p, and τ is a nonempty face
    whose link L, of dimension k, has sphere homology, then no vertex of L
    has a ball link in L (lk_L(w) = lk(τ ∪ w)).  For k = 0, L is two points
    and each lk_L(w) is {∅}, a (-1)-sphere.  For k ≥ 1, the ridge links of
    L have one or two points and every other link of L is connected, so L
    is strongly connected and a nonzero top cycle z has every coefficient
    nonzero; no ridge of L lies in only one facet.  For a vertex w of L
    the facets of z through w, with w deleted, form a nonzero (k-1)-cycle
    of lk_L(w), which is therefore not acyclic.
    """
    known = shape.setdefault("summary", {})
    got = known.get(p)
    if got is not None:
        return got
    factors = _join_factors(shape)
    if factors is not None:
        joined = None
        for factor in factors:
            cls = _class(factor, p)
            fail, ball, disagree, ball_vertex, non_ball = _shape_summary(factor, p)
            disagree |= (cls == _BOUNDARY and not ball_vertex) != (factor["facets"] == (1,))
            part = (cls, fail or _NEVER, ball, disagree, ball_vertex, non_ball)
            joined = part if joined is None else _join_summary(joined, part)
        _, fail, ball, disagree, ball_vertex, non_ball = joined
        got = known[p] = (0 if fail == _NEVER else fail, ball, disagree, ball_vertex, non_ball)
        return got
    facets = shape["facets"]
    fail = 0
    ball = disagree = ball_vertex = False
    non_ball = facets[0].bit_count()
    # the facets use positions 0..k-1, and the greatest mask has the top one
    for i in range(facets[-1].bit_length()):
        child = _child(shape, i)[0]
        cls = _class(child, p)
        if cls == _FAIL:
            fail = non_ball = 1
            break
        sub = _shape_summary(child, p)
        if sub[0] and (not fail or sub[0] < fail):
            fail = sub[0] + 1
        is_ball = cls == _BOUNDARY
        non_ball = min(non_ball, sub[4] + 1 if is_ball else 1)
        ball_vertex |= is_ball
        ball |= is_ball or sub[1]
        disagree |= sub[2] or (is_ball and not sub[3]) != (child["facets"] == (1,))
    got = known[p] = (fail, ball, disagree, ball_vertex, non_ball)
    return got


def _join_summary(k, l):
    """The class and summary of K * L from those of K and L, each as
    ``(class, fail, ball, disagree, ball_vertex, non_ball)`` with fail
    ``_NEVER`` for none and D of the shape itself in disagree, by the fold
    lemma of :func:`_shape_summary`; D of the join is false."""
    ck, fk, bk, dk, vk, nk = k
    cl, fl, bl, dl, vl, nl = l
    fail = min(fk + nl, nk + fl,
               nl if ck == _FAIL else fl if ck == _INTERIOR else _NEVER,
               nk if cl == _FAIL else fk if cl == _INTERIOR else _NEVER)
    non_ball = min(nk + nl, nl if ck != _BOUNDARY else _NEVER, nk if cl != _BOUNDARY else _NEVER)
    acyclic = ck == _BOUNDARY or cl == _BOUNDARY
    cls = _BOUNDARY if acyclic else _INTERIOR if ck == cl == _INTERIOR else _FAIL
    return cls, fail, bk or bl or acyclic, dk or dl, vk or vl or acyclic, non_ball


def _fold_boundary(factors, q, check=False):
    """The reduced Betti polynomial at q of ∂J, as coefficients from t^0,
    folded from the entries of the join factors of a pure J; None where
    the fold gives no answer.  With ``check``, from J's verdict at q, which
    found no failing face, a ball and no disagree, it is also None unless
    the rule below proves ∂J a closed manifold at q.

    ∂X is the span of X's ridges in exactly one facet, each kept once in
    the factor's entry by :func:`_boundary_span`, with ∂(point) = {∅} and
    ∂(S⁰) void; P(X) = Σ β̃_i t^(i+1), P(void) = 0, P({∅}) = 1.

    Boundary fold lemma.  For pure K and L, ∂(K * L) = ∂K * L ∪ K * ∂L.
    (1) A ridge of K * L is a facet of one side joined to a ridge of the
    other, and lies in one facet iff that ridge does: the one-facet ridges
    are F(K) × R₁(L) ∪ R₁(K) × F(L), the empty ridge of a point included.
    So at any prime q: if ∂L is void, P(∂J) = P(∂K)·P(L) (the join rule);
    if K and L are both acyclic at q, ∂K * L and K * ∂L are acyclic and
    meet in ∂K * ∂L, so Mayer-Vietoris on the augmented chains gives
    P(∂J) = t·P(∂K)·P(∂L).  Closed form: with B the factors whose ∂ is not
    void, P(∂J) = t^(|B|-1) · Π_{K∈B} P(∂K) · Π_{K∉B} P(K) whenever B is
    not empty and |B| = 1 or every member of B is acyclic at q, by
    induction on the factors in order, as the join so far is acyclic once
    it holds a member of B; otherwise the fold gives no answer.  One pass,
    one product per factor.

    This answers exactly where folding pairwise, K the join of the factors
    so far, did: that answered where each member of B after the first is
    acyclic and so is the join before it, so the two differ only where the
    first member of B is not acyclic and a factor before the second, with
    a void ∂, is.  That cannot occur: every call follows a manifold verdict
    of J at some prime p, so at p every factor is a sphere with a void ∂
    or acyclic with a ∂ that is not (as the rule below shows), and a void-∂
    factor is a GF(p) homology sphere, whose reduced Euler characteristic
    ±1 is the same at every prime, while a GF(q)-acyclic complex has 0.

    The rule at p, for J with no failing face, a ball and no disagree: ∂J
    is a closed manifold iff every factor K has ∂K void or a closed
    manifold, and every acyclic K has a ∂K with sphere homology of
    dimension dim K - 1.  (2) lk_{∂M} σ = ∂(lk_M σ) for any pure M, as the
    one-facet ridges of M through σ, less σ, are those of lk_M σ.  (3) By
    the lemma of :func:`_shape_summary` the faces of ∂J are the faces with
    acyclic links and ∅.  Every factor is a link in J of a facet of the
    others, so it has no failing face and is a sphere or acyclic; a sphere
    has no ball face, so its ∂ is void, and an acyclic K has a ∂K that is
    not: a point has {∅}, and any other would make D(K), and so disagree,
    true.  So the faces of ∂J
    are the α ∪ β with α a face of ∂K or β one of ∂L, and every link of
    ∂J is, by (2), ∂(lk_K α * lk_L β), where each side is a sphere with a
    void ∂ or acyclic with ∂(lk_K α) = lk_{∂K} α.  (4) By (1) such a
    boundary has sphere homology of its dimension exactly when the acyclic
    sides have sphere boundaries of theirs.  If the rule holds, lk_{∂K} α
    is a sphere of dimension dim lk_K α - 1 where ∂K is closed (or α = ∅
    and K acyclic), so every link of ∂J is a sphere of its dimension.
    Conversely, for K acyclic and β a facet of L, lk_{∂J}(α ∪ β) =
    ∂(lk_K α) = lk_{∂K} α, and ∂K itself for α = ∅: a closed ∂J gives a
    closed ∂K with sphere homology of dimension dim K - 1.  So at p the
    fold answers whenever the rule holds: B is the acyclic factors, and
    there is one, as J has a ball.
    """
    poly, bounded, acyclic = [1], 0, True
    for factor in factors:
        facets = factor["facets"]
        span = _boundary_span(factor)
        betti = _betti(factor, q)
        if span is not None:
            betti_bd = _betti(span[1], q)
            if check and (_verdict(span[1], q)[0] != STATUS_CLOSED
                          or betti.is_ball() and not betti_bd.is_sphere(facets[0].bit_count() - 2)):
                return None
            bounded += 1
            acyclic &= betti.is_ball()
            betti = betti_bd
        poly = _times(poly, _poly(betti))
    return [0] * (bounded - 1) + poly if bounded and (bounded == 1 or acyclic) else None


def _least_failing_face(shape, size, pos, p):
    """``(mask, betti)`` of the least failing face of a shape by labels,
    given its least failing size and the masks of its positions.

    Labels are in position order, so least by labels is least by
    positions.  The descent takes the least vertex i whose link fails
    (size 1) or has least failing size size - 1, and continues in lk(i):
    a vertex below i lies in no failing face of this size, and a failing
    face of lk(i) with a vertex below i would give one that does.  A shape
    folded from its join factors builds its children here, on the way
    down."""
    face = 0
    while True:
        for i in range(len(pos)):
            child, idx = _child(shape, i)
            if _class(child, p) == _FAIL if size == 1 else _shape_summary(child, p)[0] == size - 1:
                break
        face |= pos[i]
        if size == 1:
            return face, _betti(child, p)
        shape, size, pos = child, size - 1, [pos[j] for j in idx]


def check_manifold(c: Complex, p) -> ManifoldVerdict:
    """Decide closed manifold / manifold with boundary / neither.

    Follows the link-condition definitions: every nonempty face's link must
    have sphere or ball homology of complementary dimension, and the faces
    with ball links (plus ∅) must form a closed homology manifold one
    dimension lower.  Non-pure input short-circuits to NotPure.  The
    verdict is kept once per facet set and prime, with its witness as a
    mask, in ``complexes._facts``; the witness is labelled here.

    The witness of a non-manifold is its least face (by size, then labels)
    whose link fails.  With none, it is the boundary's own witness when the
    maximal ball faces are the ridges in one facet, and otherwise the least
    vertex whose link is a ball.
    """
    pp = _checked(p)
    status, d, face, betti = _verdict(cx._facts_of(c.facet_masks), pp)
    return ManifoldVerdict(status, d, pp, None if face is None else c.labels_of(face), betti)


def _verdict(entry: dict, pp: int) -> tuple:
    """:func:`check_manifold` of an entry's facets at the checked prime pp,
    as ``(status, dimension, witness mask or None, witness Betti or
    None)``, kept in the entry's ``"verdict"`` slot."""
    known = entry.setdefault("verdict", {})
    got = known.get(pp)
    if got is None:
        got = known[pp] = _decide(entry, pp)
    return got


def _decide(entry: dict, pp: int) -> tuple:
    facets = entry["facets"]
    if facets == (0,):
        return STATUS_CLOSED, -1, None, None
    sizes = {m.bit_count() for m in facets}
    d = max(sizes) - 1
    if len(sizes) > 1:
        return STATUS_NOT_PURE, d, None, None
    used, norm = cx._reindex(facets)
    shape = entry if norm == facets else cx._facts_of(norm)  # a link shape on 0..k-1
    fail, ball, disagree, _, _ = _shape_summary(shape, pp)
    pos = [1 << v for v in graphs_mod._bits(used)]
    if fail:
        return STATUS_NOT_MANIFOLD, d, *_least_failing_face(shape, fail, pos, pp)
    if not ball:
        return STATUS_CLOSED, d, None, None
    if not disagree:
        # the ball faces are closed under subfaces (the lemma of
        # _shape_summary) and their maximal ones are the ridges in exactly
        # one facet
        factors = _join_factors(shape)
        poly = None if factors is None else _fold_boundary(factors, pp, check=True)
        if poly is not None:
            # a join whose boundary the rule of _fold_boundary proves
            # closed: its Betti numbers are folded, and nothing here spans it
            entry.setdefault("boundary_betti", {})[pp] = _from_poly(poly, pp, d - 1)
            return STATUS_WITH_BOUNDARY, d, None, None
        span_used, span = _boundary_span(entry)
        status, _, face, betti = _verdict(span, pp)
        if status == STATUS_CLOSED:
            return STATUS_WITH_BOUNDARY, d, None, None
        if face is not None:
            # the boundary's witness, mapped back onto these facets' positions
            back = [1 << v for v in graphs_mod._bits(span_used)]
            return STATUS_NOT_MANIFOLD, d, sum(back[i] for i in graphs_mod._bits(face)), betti
    # a boundary with boundary, or a maximal ball face below the ridges: the
    # least ball face, a vertex as the ball faces are closed under subfaces
    kids = (_child(shape, i)[0] for i in range(len(pos)))
    i, child = next((i, child) for i, child in enumerate(kids) if _class(child, pp) == _BOUNDARY)
    return STATUS_NOT_MANIFOLD, d, pos[i], _betti(child, pp)


def _boundary_span(entry: dict):
    """The span of the ridges of an entry's facets in exactly one facet,
    re-indexed by ``complexes._reindex``, as ``(used, its entry)``; None
    when there is none.  A manifold with a ball and no disagree, as in the
    verdict and a boundary, has one, and so does a point: {∅}, its empty
    ridge, which ``complexes._ridge_cofacets`` does not count.  Kept once
    for every prime in the entry's ``"span"`` slot, for a complex and a
    join factor alike."""
    if "span" not in entry:
        facets = entry["facets"]
        ridges = [0] if facets == (1,) else [
            r for r, n in cx._ridge_cofacets(facets).items() if n == 1]
        used, masks = cx._reindex(ridges)
        entry["span"] = (used, cx._facts_of(masks)) if ridges else None
    return entry["span"]


def _component_count(entry: dict, pp: int) -> int:
    """The number of boundary components of the facets, 0 for a closed
    manifold and β̃_0 + 1 of the boundary otherwise, folded or spanned
    alike.  As β̃_0 counts the components less one at every prime, the
    boundary's Betti numbers at any prime already known serve, and only
    with none are they found at pp.  Raises when the facets are no
    manifold at pp."""
    status = _verdict(entry, pp)[0]
    if status not in (STATUS_CLOSED, STATUS_WITH_BOUNDARY):
        raise InvalidParameterError(f"no boundary for status {status} at p = {pp}")
    if status == STATUS_CLOSED:
        return 0
    known = entry.get("boundary_betti")
    betti = next(iter(known.values())) if known else _boundary_betti(entry, pp)
    return betti.b(0) + 1


def boundary_complex(c: Complex, p) -> BoundaryComplex:
    """The boundary of a homology manifold: the subcomplex spanned by its
    ridges in exactly one facet, which are its maximal faces with ball
    links, and the number of its components.

    Both are the same at every prime.  The span is kept once per facet set,
    without labels, and labelled here through the positions it uses; a
    folded join's boundary is spanned only here, on the first call; the
    count is β̃_0 + 1 of the boundary at any prime.  A closed manifold's
    boundary is {∅} with zero components.  Raises when the verdict at p is
    not a manifold.
    """
    pp = _checked(p)
    entry = cx._facts_of(c.facet_masks)
    count = _component_count(entry, pp)
    if not count:
        return BoundaryComplex(cx.from_facets((), [()]), 0)
    used, span = _boundary_span(entry)
    return BoundaryComplex(Complex._trusted(c.labels_of(used), span["facets"]), count)


def _boundary_betti(entry: dict, q: int) -> BettiVector:
    """Reduced Betti numbers at q of the boundary of the manifold with an
    entry's facets, {∅} when it is closed: folded from the join factors by
    :func:`_fold_boundary`, or, for a complex that does not split or where
    the fold gives no answer, ranked on the span.  Kept per prime in the
    entry's ``"boundary_betti"`` slot."""
    known = entry.setdefault("boundary_betti", {})
    got = known.get(q)
    if got is None:
        factors = _join_factors(entry)
        poly = None if factors is None else _fold_boundary(factors, q)
        if poly is None:
            span = _boundary_span(entry)
            got = _betti(span[1], q) if span else BettiVector(q, 1, ())
        else:
            got = _from_poly(poly, q, entry["facets"][0].bit_count() - 2)
        known[q] = got
    return got


# ---------------------------------------------------------------------------
# classification


def classify(c: Complex, verdict: ManifoldVerdict | None = None, p_pair=(2, 3)) -> ManifoldClass:
    """Name the manifold type from Betti data at two primes.

    Closed surfaces separate into the sphere and the torus; surfaces with
    boundary into the disk, annulus, Moebius strip and punctured torus by
    (first Betti number, boundary component count).  A Ball label requires
    trivial homology *and* a sphere boundary; anything off the table comes
    back OtherSurface / OtherManifold.
    """
    p1, p2 = _primes(p_pair)
    entry = cx._facts_of(c.facet_masks)
    status, d = (_verdict(entry, p1)[:2] if verdict is None
                 else (verdict.status, verdict.dimension))
    return _classify(entry, status, d, p1, p2)


def _primes(p_pair) -> tuple:
    """The two checked primes of a ``p_pair``; raises unless it has two."""
    p_pair = tuple(p_pair)
    if len(p_pair) != 2:
        raise InvalidParameterError(f"p_pair needs two primes, not {len(p_pair)}")
    return tuple(_checked(q) for q in p_pair)


def _classify(entry: dict, status: str, d: int, p1: int, p2: int) -> ManifoldClass:
    """:func:`classify` of an entry's facets, given a verdict's status and
    dimension d, at the checked primes p1 and p2."""
    if status not in (STATUS_CLOSED, STATUS_WITH_BOUNDARY):
        return NOT_MANIFOLD_CLASS
    b1 = _betti(entry, p1)
    b2 = _betti(entry, p2)
    if status == STATUS_CLOSED:
        if b1.is_sphere(d) and b2.is_sphere(d):
            return ManifoldClass("Sphere", d)
        if d == 0 and b1.is_ball() and b2.is_ball():
            # a single point: the 0-ball
            return ManifoldClass("Ball", 0)
        if d == 2:
            if b1.b(1) == 2 == b2.b(1) and b1.b(2) == 1 == b2.b(2):
                return ManifoldClass("Torus")
            return ManifoldClass("OtherSurface")
        return ManifoldClass("OtherManifold")
    if b1.is_ball() and b2.is_ball():
        if (_boundary_betti(entry, p1).is_sphere(d - 1)
                and _boundary_betti(entry, p2).is_sphere(d - 1)):
            return ManifoldClass("Ball", d)
    if d == 2:
        fingerprint = (b1.b(1), b2.b(1), _component_count(entry, p1))
        if fingerprint == (1, 1, 1):
            return ManifoldClass("MoebiusStrip")
        if fingerprint == (1, 1, 2):
            return ManifoldClass("Annulus")
        if fingerprint == (2, 2, 1):
            return ManifoldClass("TorusMinusDisk")
        return ManifoldClass("OtherSurface")
    return ManifoldClass("OtherManifold")


def manifold_report(c: Complex, p_pair=(2, 3)) -> dict:
    """One-stop JSON-ready summary for a complex.

    With two equal primes each is listed once and there is no cross-check
    (``cross_check_status`` is None).
    """
    p1, p2 = _primes(p_pair)
    entry = cx._facts_of(c.facet_masks)
    status, d, face, witness_betti = _verdict(entry, p1)
    out = {
        "status": status,
        "dimension": d,
        "p": p1,
        "witness_face": list(c.labels_of(face)) if face else None,
        "witness_betti": witness_betti.to_list() if witness_betti else None,
    }
    fv = cx.f_vector(c)
    out["f_vector"] = list(fv.positive)
    out["euler_characteristic"] = fv.euler_characteristic()
    b1 = _betti(entry, p1)
    b2 = _betti(entry, p2)
    out["betti"] = [{"p": p1, "betti": b1.to_list()}]
    if p2 != p1:
        out["betti"].append({"p": p2, "betti": b2.to_list()})
    if status in (STATUS_CLOSED, STATUS_WITH_BOUNDARY):
        out["boundary_components"] = _component_count(entry, p1)
        out["acyclic"] = b1.is_ball() and b2.is_ball()
        if status == STATUS_WITH_BOUNDARY:
            out["boundary_is_sphere"] = all(_boundary_betti(entry, q).is_sphere(d - 1)
                                            for q in (p1, p2))
        # a single prime is no cross-check
        out["cross_check_status"] = _verdict(entry, p2)[0] if p2 != p1 else None
    else:
        out["boundary_components"] = None
    out["class"] = str(_classify(entry, status, d, p1, p2))
    return out
