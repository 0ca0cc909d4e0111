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
0..k-1) in a table shared by the whole process: the children of a link
and its class depend only on its shape, so each distinct shape is
re-indexed and classified once per prime and process, however many faces
and complexes have it; ``matchtop.clear_caches()`` empties the table.

The verdict is paid per shape, not per face.  Every nonempty face is a
vertex plus a face of that vertex's link, so a shape's record keeps a
summary over its nonempty faces built from the records of its vertex
links: the least size of a face whose link fails, whether some link is a
ball, and whether the maximal ball faces differ from the ridges in exactly
one facet.  No face is visited: a failing complex finds its least failing
face by descending through the records, a closed one has no ball, and the
boundary of any other is spanned by the ridges in one facet, read off the
one ridge count ``complexes._ridge_cofacets``.  The verdict is memoized on
the complex per prime, and a manifold with boundary keeps there the
boundary it proved closed, with its component count (the reachability
classes of ``graphs._reach`` over the boundary's ``complexes._near``
neighbourhoods), so ``check_manifold``, ``boundary_complex``,
``classify`` and ``manifold_report`` analyse each complex once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes as cx
from . import graphs as graphs_mod
from .complexes import Complex
from .errors import InvalidParameterError
from .homology import BettiVector, _prime_of, betti_for_facets, betti_reduced

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


def _classify_link(norm_count, norm_masks, p):
    """('S'|'B'|'?', betti) for a link with the given normalized facets.

    The expected dimension is read off the facets: in a pure complex the
    link of a face of size s is pure of dimension d - s.  The Betti numbers
    are cached by ``betti_for_facets`` on the facet structure, and the class
    is read off them.
    """
    betti = betti_for_facets(norm_count, norm_masks, p)
    if betti.is_sphere(max(m.bit_count() for m in norm_masks) - 1):
        return _INTERIOR, betti
    if betti.is_ball():
        return _BOUNDARY, betti
    return _FAIL, betti


# prime -> normalized facets -> [class, betti, facets, children, summary]:
# one record per link shape for the whole process; emptied by clear_caches()
_shapes: dict = {}


def clear_caches():
    _shapes.clear()


def _record(shapes, norm, k):
    rec = shapes.get(norm)
    if rec is None:
        rec = shapes[norm] = [None, None, norm, [None] * k, None]
    return rec


def _child(shapes, rec, i, p):
    """The child entry of a shape record for its vertex i: the record of
    lk(i) and the positions of its vertices in the parent.  The child is
    classified on creation."""
    b = 1 << i
    used, norm = cx._reindex([f ^ b for f in rec[2] if f & b])
    k = used.bit_count()
    child = _record(shapes, norm, k)
    if child[0] is None:
        child[0], child[1] = _classify_link(k, norm, p)
    entry = rec[3][i] = (child, bytes(graphs_mod._bits(used)))
    return entry


def _shape_summary(rec, shapes, p):
    """The summary of a shape over its nonempty faces σ, from its vertex
    links: ``(fail, ball, disagree, ball_vertex)``.

    * fail: the least size of a σ whose link is '?', 0 when there is none;
    * ball: some lk σ is a ball;
    * disagree: for some σ, "lk σ is a ball with no ball vertex link" (σ
      is a maximal ball face) differs from "lk σ is one point" (σ is a
      ridge in exactly one facet);
    * ball_vertex: some vertex link of the shape itself is a ball.

    Every nonempty face is a vertex i plus a face τ of lk(i), with lk σ =
    lk_{lk(i)}(τ), so the summary of a shape is read off its vertex links
    themselves (τ = ∅, size 1) and their own summaries (size + 1).
    Memoized on the record; it stops at the first vertex link that fails,
    so the other flags are complete only when fail is 0.  They are read
    only then.

    Without a failing face the ball faces are closed under subfaces, so
    the maximal ones span the boundary.  Lemma: if no nonempty face of a
    pure complex has a failing link at p, and τ is a nonempty face whose
    link L, of dimension k, has sphere homology, then no vertex of L has a
    ball link in L (lk_L(w) = lk(τ ∪ w)).  For k = 0, L is two points and
    each lk_L(w) is {∅}, a (-1)-sphere.  For k ≥ 1, the ridge links of L
    have one or two points and every other link of L is connected, so L
    is strongly connected and a nonzero top cycle z has every coefficient
    nonzero; no ridge of L lies in only one facet.  For a vertex w of L
    the facets of z through w, with w deleted, form a nonzero (k-1)-cycle
    of lk_L(w), which is therefore not acyclic.
    """
    got = rec[4]
    if got is not None:
        return got
    fail = 0
    ball = disagree = ball_vertex = False
    kids = rec[3]
    for i in range(len(kids)):
        child = (kids[i] or _child(shapes, rec, i, p))[0]
        if child[0] == _FAIL:
            fail = 1
            break
        sub = _shape_summary(child, shapes, p)
        if sub[0] and (not fail or sub[0] < fail):
            fail = sub[0] + 1
        is_ball = child[0] == _BOUNDARY
        ball_vertex |= is_ball
        ball |= is_ball or sub[1]
        disagree |= sub[2] or (is_ball and not sub[3]) != (child[2] == (1,))
    got = rec[4] = (fail, ball, disagree, ball_vertex)
    return got


def _least_failing_face(rec, size, pos):
    """``(mask, betti)`` of the least failing face of a shape by labels,
    given its least failing size and the masks of its positions.

    Labels are in position order, so least by labels is least by
    positions.  The descent takes the least vertex i whose link fails
    (size 1) or has least failing size size - 1, and continues in lk(i):
    a vertex below i lies in no failing face of this size, and a failing
    face of lk(i) with a vertex below i would give one that does.  The
    summaries read here were all computed, as no vertex link before the
    chosen one fails."""
    face = 0
    while True:
        for i, (child, idx) in enumerate(rec[3]):
            if child[0] == _FAIL if size == 1 else child[4][0] == size - 1:
                break
        face |= pos[i]
        if size == 1:
            return face, child[1]
        rec, size, pos = child, size - 1, [pos[j] for j in idx]


def check_manifold(c: Complex, p) -> ManifoldVerdict:
    """Decide closed manifold / manifold with boundary / neither.

    Follows the link-condition definitions: every nonempty face's link must
    have sphere or ball homology of complementary dimension, and the faces
    with ball links (plus ∅) must form a closed homology manifold one
    dimension lower.  Non-pure input short-circuits to NotPure.  The
    verdict is memoized on the complex.

    The witness of a non-manifold is its least face (by size, then labels)
    whose link fails.  With none, it is the boundary's own witness when the
    maximal ball faces are the ridges in one facet, and otherwise the least
    vertex whose link is a ball.
    """
    pp = _prime_of(p)
    key = ("verdict", pp)
    got = c._cache.get(key)
    if got is None:
        got = c._cache[key] = _verdict(c, pp)
    return got


def _verdict(c: Complex, pp: int) -> ManifoldVerdict:
    if c.is_empty_only():
        return ManifoldVerdict(STATUS_CLOSED, -1, pp)
    if not cx.is_pure(c):
        return ManifoldVerdict(STATUS_NOT_PURE, c.dimension, pp)
    d = c.dimension
    shapes = _shapes.setdefault(pp, {})
    used, norm = cx._reindex(c.facet_masks)
    rec = _record(shapes, norm, used.bit_count())
    fail, ball, disagree, _ = _shape_summary(rec, shapes, pp)
    pos = [1 << v for v in graphs_mod._bits(used)]
    if fail:
        face, betti = _least_failing_face(rec, fail, pos)
        return ManifoldVerdict(STATUS_NOT_MANIFOLD, d, pp, c.labels_of(face), betti)
    if not ball:
        return ManifoldVerdict(STATUS_CLOSED, d, pp)
    if not disagree:
        # the ball faces are closed under subfaces (the lemma of
        # _shape_summary) and their maximal ones are the ridges in exactly
        # one facet
        bd = _span(c, [r for r, n in cx._ridge_cofacets(c.facet_masks).items() if n == 1])
        sub = check_manifold(bd, pp)
        if sub.status == STATUS_CLOSED:
            near = cx._near(bd.facet_masks, bd.vertex_count)
            parts, left = 0, (1 << bd.vertex_count) - 1
            while left:
                left &= ~graphs_mod._reach(near, left & -left)
                parts += 1
            c._cache[("boundary", pp)] = BoundaryComplex(bd, parts)
            return ManifoldVerdict(STATUS_WITH_BOUNDARY, d, pp)
        if sub.witness_face is not None:
            return ManifoldVerdict(STATUS_NOT_MANIFOLD, d, pp, sub.witness_face, sub.witness_betti)
    # a boundary with boundary, or a maximal ball face below the ridges: the
    # least ball face, a vertex as the ball faces are closed under subfaces
    i, child = next((i, child) for i, (child, _) in enumerate(rec[3]) if child[0] == _BOUNDARY)
    return ManifoldVerdict(STATUS_NOT_MANIFOLD, d, pp, c.labels_of(pos[i]), child[1])


def _span(c: Complex, facet_masks) -> Complex:
    """The subcomplex with the given facets (masks of c), on its own vertex
    set."""
    used, masks = cx._reindex(facet_masks)
    return Complex(c.labels_of(used), masks)


def boundary_complex(c: Complex, p) -> BoundaryComplex:
    """The boundary of a homology manifold: the subcomplex spanned by its
    ridges in exactly one facet, which are its maximal faces with ball
    links, and the number of its components.

    The verdict at p built the boundary and kept it on the complex; a
    closed manifold's boundary is {∅} with zero components.  Raises when
    the verdict at p is not a manifold.
    """
    pp = _prime_of(p)
    verdict = check_manifold(c, pp)
    if not verdict.is_manifold:
        raise InvalidParameterError(f"no boundary for status {verdict.status} at p = {pp}")
    return c._cache.get(("boundary", pp)) or BoundaryComplex(cx.from_facets((), [()]), 0)


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
    p1, p2 = (_prime_of(q) for q in p_pair)
    if verdict is None:
        verdict = check_manifold(c, p1)
    if not verdict.is_manifold:
        return NOT_MANIFOLD_CLASS
    d = verdict.dimension
    b1 = betti_reduced(c, p1)
    b2 = betti_reduced(c, p2)
    if verdict.status == STATUS_CLOSED:
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
    bd = boundary_complex(c, p1)
    if b1.is_ball() and b2.is_ball():
        sphere_bd = betti_reduced(bd.complex, p1).is_sphere(d - 1) and \
            betti_reduced(bd.complex, p2).is_sphere(d - 1)
        if sphere_bd:
            return ManifoldClass("Ball", d)
    if d == 2:
        fingerprint = (b1.b(1), b2.b(1), bd.component_count)
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
    p1, p2 = (_prime_of(q) for q in p_pair)
    verdict = check_manifold(c, p1)
    out = {
        "status": verdict.status,
        "dimension": verdict.dimension,
        "p": verdict.p,
        "witness_face": list(verdict.witness_face) if verdict.witness_face else None,
        "witness_betti": verdict.witness_betti.to_list() if verdict.witness_betti else None,
    }
    fv = cx.f_vector(c)
    out["f_vector"] = list(fv.positive)
    out["euler_characteristic"] = fv.euler_characteristic()
    b1 = betti_reduced(c, p1)
    b2 = betti_reduced(c, p2)
    out["betti"] = [{"p": p1, "betti": b1.to_list()}]
    if p2 != p1:
        out["betti"].append({"p": p2, "betti": b2.to_list()})
    if verdict.is_manifold:
        bd = boundary_complex(c, p1)
        out["boundary_components"] = bd.component_count
        out["acyclic"] = b1.is_ball() and b2.is_ball()
        if verdict.status == STATUS_WITH_BOUNDARY:
            out["boundary_is_sphere"] = (
                betti_reduced(bd.complex, p1).is_sphere(verdict.dimension - 1)
                and betti_reduced(bd.complex, p2).is_sphere(verdict.dimension - 1)
            )
        # a single prime is no cross-check
        out["cross_check_status"] = check_manifold(c, p2).status if p2 != p1 else None
    else:
        out["boundary_components"] = None
    out["class"] = str(classify(c, verdict, (p1, p2)))
    return out
