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
links: some link fails, some link is a ball, the ball faces are not
closed under subfaces, or a maximal ball face is not a ridge in exactly
one facet.  With no failure and no ball the complex is closed; with balls
but none of the other three, the boundary facets are the ridges in one
facet, and the complex has boundary when their span is closed.  Only
otherwise, when the verdict needs a witness face, does the walk visit
every nonempty face once.  The face classes, the verdict and the boundary
(a complex kept with its facets) are memoized on the complex per prime, so
``check_manifold``, ``boundary_complex``, ``classify`` and
``manifold_report`` analyse each complex once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes as cx
from . import graphs as graphs_mod
from .complexes import Complex
from .errors import CrossCheckMismatchError, InvalidParameterError
from .homology import BettiVector, _prime_of, betti_for_facets, betti_reduced

STATUS_NOT_PURE = "NotPure"
STATUS_NOT_MANIFOLD = "NotManifold"
STATUS_CLOSED = "ClosedManifold"
STATUS_WITH_BOUNDARY = "ManifoldWithBoundary"


@dataclass(frozen=True)
class ManifoldVerdict:
    status: str
    dimension: int  # -2 when undefined (void / wildly non-pure input)
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
# face-by-face link analysis

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
    lk(i), the positions of its vertices in the parent, and the cut (how
    many of them lie below i).  The child is classified on creation."""
    b = 1 << i
    used, norm = cx._reindex([f ^ b for f in rec[2] if f & b])
    k = used.bit_count()
    child = _record(shapes, norm, k)
    if child[0] is None:
        child[0], child[1] = _classify_link(k, norm, p)
    entry = rec[3][i] = (child, bytes(graphs_mod._bits(used)), (used & (b - 1)).bit_count())
    return entry


def _shape_summary(rec, shapes, p):
    """Flags over the nonempty faces σ of a shape, from its vertex links:
    ``(fail, ball, broken, disagree, ball_vertex)``.

    * fail: some lk σ is '?';
    * ball: some lk σ is a ball;
    * broken: some lk σ is not a ball but has a ball vertex link (the link
      of a face one vertex larger), so the ball faces are not closed under
      subfaces;
    * disagree: for some σ, "lk σ is a ball with no ball vertex link" (σ
      is a maximal ball face) differs from "lk σ is one point" (σ is a
      ridge in exactly one facet);
    * ball_vertex: some vertex link of the shape itself is a ball.

    Every nonempty face is a vertex i plus a face τ of lk(i), with lk σ =
    lk_{lk(i)}(τ), so the flags of a shape are those of its vertex links
    themselves (τ = ∅) or-ed with their own summaries.  Memoized on the
    record; it stops at the first fail or broken flag, which decides
    nothing but "walk the faces", so the other flags may be incomplete
    then.
    """
    got = rec[4]
    if got is not None:
        return got
    fail = ball = broken = disagree = ball_vertex = False
    kids = rec[3]
    for i in range(len(kids)):
        child = (kids[i] or _child(shapes, rec, i, p))[0]
        if child[0] == _FAIL:
            fail = True
            break
        sub = _shape_summary(child, shapes, p)
        is_ball = child[0] == _BOUNDARY
        fail = sub[0]
        broken = sub[2] or (not is_ball and sub[4])
        if fail or broken:
            break
        ball_vertex |= is_ball
        ball |= is_ball or sub[1]
        disagree |= sub[3] or (is_ball and not sub[4]) != (child[2] == (1,))
    got = rec[4] = (fail, ball, broken, disagree, ball_vertex)
    return got


def _face_classes(c: Complex, p: int):
    """Map each nonempty face mask of a pure complex to 'S'/'B'/'?' by its
    link homology.

    Returns ``(classes, betti_of)``, the second holding the link Betti
    numbers of the failing faces; memoized on the complex.  Links are built
    top-down, depth first: lk(σ ∪ v) = lk_{lk σ}(v), so the facets of
    lk(σ ∪ v) are the facets of lk σ that contain v, with v removed.  A
    face is extended only by link vertices above its top vertex, so each
    face is visited once.

    The walk is memoized by link shape, in a table shared by the whole
    process.  Each distinct normalized link (its facets re-indexed onto
    positions 0..k-1) gets one record per prime: its class, its Betti
    numbers, its summary (see :func:`_shape_summary`) and, filled as they
    are first needed, its children, one per link vertex i.  A child is the shape of lk_{lk}(i), the positions of its
    vertices within the parent link, and the cut: how many of them lie below
    i.  A complex's own shape gets a record too, classified only when it
    turns up as a link.  A face carries its link's vertices as bits of the
    complex, so visiting a child is a lookup and a list of bits.  This is
    exact: the children of a link depend only on its shape, re-indexing
    keeps the vertex order, so "only link vertices above the top vertex"
    becomes "only child positions from the cut on", and a record's class
    depends on nothing but its facets.  Re-indexing and classification thus
    run once per shape and prime in the process, not once per face.
    """
    key = ("face_classes", p)
    got = c._cache.get(key)
    if got is not None:
        return got
    shapes = _shapes.setdefault(p, {})
    classes = {}
    betti_of = {}

    def walk(face, rec, pos, start):
        kids = rec[3]
        for i in range(start, len(pos)):
            child, idx, cut = kids[i] or _child(shapes, rec, i, p)
            sub = face | pos[i]
            classes[sub] = cls = child[0]
            if cls == _FAIL:
                betti_of[sub] = child[1]
            if cut < len(idx):
                walk(sub, child, [pos[j] for j in idx], cut)

    used, norm = cx._reindex(c.facet_masks)
    walk(0, _record(shapes, norm, used.bit_count()), [1 << v for v in graphs_mod._bits(used)], 0)
    del walk  # the recursive closure is a reference cycle; free it now
    got = (classes, betti_of)
    c._cache[key] = got
    return got


def _face_sort_key(c: Complex, mask: int):
    return (mask.bit_count(), c.labels_of(mask))


def check_manifold(c: Complex, p) -> ManifoldVerdict:
    """Decide closed manifold / manifold with boundary / neither.

    Follows the link-condition definitions: every nonempty face's link must
    have sphere or ball homology of complementary dimension, and the faces
    with ball links (plus ∅) must form a closed homology manifold one
    dimension lower.  Non-pure input short-circuits to NotPure.  The
    verdict is memoized on the complex.
    """
    pp = _prime_of(p)
    key = ("verdict", pp)
    got = c._cache.get(key)
    if got is None:
        got = c._cache[key] = _verdict(c, pp)
    return got


def _verdict(c: Complex, pp: int) -> ManifoldVerdict:
    if c.is_void:
        return ManifoldVerdict(STATUS_NOT_PURE, -2, pp)
    if c.is_empty_only():
        return ManifoldVerdict(STATUS_CLOSED, -1, pp)
    if not cx.is_pure(c):
        return ManifoldVerdict(STATUS_NOT_PURE, c.dimension, pp)
    d = c.dimension
    shapes = _shapes.setdefault(pp, {})
    used, norm = cx._reindex(c.facet_masks)
    fail, ball, broken, disagree, _ = _shape_summary(
        _record(shapes, norm, used.bit_count()), shapes, pp)
    if not fail and not ball:
        return ManifoldVerdict(STATUS_CLOSED, d, pp)
    if not (fail or broken or disagree):
        # the ball faces are closed under subfaces and their maximal ones
        # are the ridges in exactly one facet
        facets = _one_cofacet_ridges(c)
        bd = _span(c, facets)
        c._cache[("boundary_span", pp)] = (facets, bd)
        if check_manifold(bd, pp).status == STATUS_CLOSED:
            return ManifoldVerdict(STATUS_WITH_BOUNDARY, d, pp)
    # a failure, or a boundary that is not a closed manifold: walk the
    # faces for the witness
    classes, betti_of = _face_classes(c, pp)

    def failed_at(mask):
        return ManifoldVerdict(
            STATUS_NOT_MANIFOLD, d, pp,
            witness_face=c.labels_of(mask),
            witness_betti=betti_reduced(cx.link(c, c.labels_of(mask)), pp),
        )

    failures = [f for f, cls in classes.items() if cls == _FAIL]
    if failures:
        worst = min(failures, key=lambda m: _face_sort_key(c, m))
        return ManifoldVerdict(
            STATUS_NOT_MANIFOLD, d, pp,
            witness_face=c.labels_of(worst),
            witness_betti=betti_of[worst],
        )
    boundary = {f for f, cls in classes.items() if cls == _BOUNDARY}
    if not boundary:
        return ManifoldVerdict(STATUS_CLOSED, d, pp)
    covered = set()  # the codimension-1 subfaces of the boundary faces
    add = covered.add
    for f in boundary:
        m = f
        while m:
            b = m & -m
            add(f ^ b)
            m ^= b
    covered.discard(0)
    if not covered <= boundary:
        # the boundary faces must be closed under taking subfaces; the
        # first face (by size, then mask) with a missing subface is the
        # witness
        for f in sorted(boundary, key=lambda m: (m.bit_count(), m)):
            m = f
            while m:
                b = m & -m
                if f ^ b and f ^ b not in boundary:
                    return failed_at(f ^ b)
                m ^= b
    # a face of a downward-closed set is maximal exactly when it is not a
    # codimension-1 subface of another; the boundary complex is kept with
    # its facets on c, so its face table serves classify too
    facets = boundary - covered
    bd = _span(c, facets)
    c._cache[("boundary_span", pp)] = (facets, bd)
    if bd.dimension != d - 1 and d >= 1:
        return failed_at(min(boundary, key=lambda m: _face_sort_key(c, m)))
    sub = check_manifold(bd, pp)
    if sub.status == STATUS_CLOSED:
        return ManifoldVerdict(STATUS_WITH_BOUNDARY, d, pp)
    if sub.witness_face is None:
        # the boundary failed structurally (e.g. not pure); point at the
        # least boundary face instead
        return failed_at(min(boundary, key=lambda m: _face_sort_key(c, m)))
    return ManifoldVerdict(
        STATUS_NOT_MANIFOLD, d, pp,
        witness_face=sub.witness_face,
        witness_betti=sub.witness_betti,
    )


def _span(c: Complex, facet_masks) -> Complex:
    """The subcomplex with the given facets (masks of c), on its own vertex
    set."""
    used, masks = cx._reindex(facet_masks)
    return Complex(c.labels_of(used), masks)


def _one_cofacet_ridges(c: Complex) -> set:
    """The nonempty ridges of a pure complex that lie in exactly one facet;
    a 0-dimensional complex has the empty ridge, which bounds nothing."""
    cofacets = {}
    for f in c.facet_masks:
        m = f
        while m:
            b = m & -m
            ridge = f ^ b
            cofacets[ridge] = cofacets.get(ridge, 0) + 1
            m ^= b
    ridges = {r for r, n in cofacets.items() if n == 1}
    ridges.discard(0)
    return ridges


def boundary_complex(c: Complex, p, verdict: ManifoldVerdict | None = None) -> BoundaryComplex:
    """The boundary subcomplex, computed two ways that must agree.

    Route one: faces whose links have ball homology.  Route two: the
    (d-1)-faces lying in exactly one facet, which must be the facets of
    route one.  A mismatch raises CrossCheckMismatchError.  For closed
    manifolds the boundary is {∅} with zero components.  The result is
    memoized on the complex per prime, and it reuses the boundary complex
    that the verdict at that prime built and analysed.
    """
    pp = _prime_of(p)
    if verdict is None:
        verdict = check_manifold(c, pp)
    if not verdict.is_manifold:
        raise InvalidParameterError(f"no boundary for status {verdict.status}")
    if verdict.dimension == -1:
        return BoundaryComplex(cx.from_facets((), [()]), 0)
    key = ("boundary", pp)
    got = c._cache.get(key)
    if got is None:
        got = c._cache[key] = _boundary(c, pp)
    return got


def _boundary(c: Complex, pp: int) -> BoundaryComplex:
    # the verdict at pp builds the boundary; it is memoized unless the
    # caller's verdict came from another prime
    verdict = c._cache.get(("verdict", pp)) or check_manifold(c, pp)
    if not verdict.is_manifold:
        raise InvalidParameterError(f"no boundary for status {verdict.status} at p = {pp}")
    facets, bd = c._cache.get(("boundary_span", pp), (set(), None))
    # both families are downward closed and pure of dimension d - 1, so
    # they are equal exactly when their facets are
    if _one_cofacet_ridges(c) != facets:
        raise CrossCheckMismatchError(
            "link-homology boundary disagrees with facet-count boundary"
        )
    if bd is None:
        return BoundaryComplex(cx.from_facets((), [()]), 0)
    parts = []  # vertex masks of the components merged so far
    for f in bd.facet_masks:
        for m in [m for m in parts if m & f]:
            parts.remove(m)
            f |= m
        parts.append(f)
    return BoundaryComplex(bd, len(parts))


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
    bd = boundary_complex(c, p1, verdict)
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
    if c.is_void:
        out["class"] = str(NOT_MANIFOLD_CLASS)
        return out
    fv = cx.f_vector(c)
    out["f_vector"] = list(fv.positive)
    out["euler_characteristic"] = fv.euler_characteristic()
    b1 = betti_reduced(c, p1)
    b2 = betti_reduced(c, p2)
    out["betti"] = [{"p": p1, "betti": b1.to_list()}]
    if p2 != p1:
        out["betti"].append({"p": p2, "betti": b2.to_list()})
    if verdict.is_manifold:
        bd = boundary_complex(c, p1, verdict)
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
