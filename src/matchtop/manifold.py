"""Homology-manifold recognition and classification.

A pure d-complex is checked face by face: the link of every nonempty face
must have the reduced homology of a sphere or ball of complementary
dimension.  Faces with ball links form the boundary, which must itself be a
closed homology manifold one dimension down.  Classification then reads off
Betti fingerprints at two primes together with the number of boundary
components; the surface types that actually occur are separated by that data.

Links are computed top-down: the link of σ ∪ v is the link of v inside
the link of σ, so no face scans the facets of the whole complex.  The walk
is memoized by link shape (the link's facets re-indexed onto positions
0..k-1): the children of a link depend only on its shape, so each distinct
shape of a complex is re-indexed and classified once, however many faces
have it.  The face classes, the verdict and the boundary are memoized on
the complex per prime, so ``check_manifold``, ``boundary_complex``,
``classify`` and ``manifold_report`` analyse each complex once.
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


def _classify_link(norm_count, norm_masks, expected_dim, p):
    """('S'|'B'|'?', betti) for a link with the given normalized facets.

    The Betti numbers are cached by ``betti_for_facets`` on the facet
    structure, and the class is read off them.
    """
    betti = betti_for_facets(norm_count, norm_masks, p)
    if betti.is_sphere(expected_dim):
        return _INTERIOR, betti
    if betti.is_ball():
        return _BOUNDARY, betti
    return _FAIL, betti


def _face_classes(c: Complex, p: int):
    """Map each nonempty face mask to 'S'/'B'/'?' by its link homology.

    Returns ``(classes, betti_of)``, the second holding the link Betti
    numbers of the failing faces; memoized on the complex.  Links are built
    top-down, depth first: lk(σ ∪ v) = lk_{lk σ}(v), so the facets of
    lk(σ ∪ v) are the facets of lk σ that contain v, with v removed.  A
    face is extended only by link vertices above its top vertex, so each
    face is visited once.

    The walk is memoized by link shape.  Each distinct normalized link (its
    facets re-indexed onto positions 0..k-1) gets one record, local to this
    call: its class, its Betti numbers and, filled as they are first needed,
    its children, one per link vertex i.  A child is the shape of lk_{lk}(i),
    the positions of its vertices within the parent link, and the cut: how
    many of them lie below i.  A face carries its link's vertices as bits of
    the complex, so visiting a child is a lookup and a list of bits.  This is
    exact: the children of a link depend only on its shape, and re-indexing
    keeps the vertex order, so "only link vertices above the top vertex"
    becomes "only child positions from the cut on".  Re-indexing and
    classification thus run once per shape, not once per face.
    """
    key = ("face_classes", p)
    got = c._cache.get(key)
    if got is not None:
        return got
    classes = {}
    betti_of = {}
    shapes = {}  # normalized facets -> [class, betti, facets, dimension, children]

    def child_of(rec, i):
        b = 1 << i
        used, norm = cx._reindex([f ^ b for f in rec[2] if f & b])
        child = shapes.get(norm)
        if child is None:
            k = used.bit_count()
            cls, betti = _classify_link(k, norm, rec[3] - 1, p)
            child = shapes[norm] = [cls, betti, norm, rec[3] - 1, [None] * k]
        entry = rec[4][i] = (child, bytes(graphs_mod._bits(used)),
                             (used & (b - 1)).bit_count())
        return entry

    def walk(face, rec, pos, start):
        kids = rec[4]
        for i in range(start, len(pos)):
            child, idx, cut = kids[i] or child_of(rec, i)
            sub = face | pos[i]
            classes[sub] = cls = child[0]
            if cls == _FAIL:
                betti_of[sub] = child[1]
            if cut < len(idx):
                walk(sub, child, [pos[j] for j in idx], cut)

    used, norm = cx._reindex(c.facet_masks)
    root = [None, None, norm, c.dimension, [None] * used.bit_count()]
    walk(0, root, [1 << v for v in graphs_mod._bits(used)], 0)
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
    classes, betti_of = _face_classes(c, pp)
    failures = [f for f, cls in classes.items() if cls == _FAIL]
    if failures:
        worst = min(failures, key=lambda m: _face_sort_key(c, m))
        return ManifoldVerdict(
            STATUS_NOT_MANIFOLD, d, pp,
            witness_face=c.labels_of(worst),
            witness_betti=betti_of[worst],
        )
    boundary = [f for f, cls in classes.items() if cls == _BOUNDARY]
    if not boundary:
        return ManifoldVerdict(STATUS_CLOSED, d, pp)
    # the boundary faces must be closed under taking subfaces; the first
    # face (by size, then mask) with a missing subface is the witness
    boundary.sort(key=lambda m: (m.bit_count(), m))
    bset = set(boundary)
    for f in boundary:
        m = f
        while m:
            b = m & -m
            sub = f ^ b
            if sub and sub not in bset:
                return ManifoldVerdict(
                    STATUS_NOT_MANIFOLD, d, pp,
                    witness_face=c.labels_of(sub),
                    witness_betti=betti_reduced(cx.link(c, c.labels_of(sub)), pp),
                )
            m ^= b
    bd = _span(c, boundary)
    # kept as labels and facets, so the face table of the boundary's own
    # verdict below does not live as long as c
    c._cache[("boundary_span", pp)] = (bd.labels, bd.facet_masks)
    if bd.dimension != d - 1 and d >= 1:
        worst = min(boundary, key=lambda m: _face_sort_key(c, m))
        return ManifoldVerdict(
            STATUS_NOT_MANIFOLD, d, pp,
            witness_face=c.labels_of(worst),
            witness_betti=betti_reduced(cx.link(c, c.labels_of(worst)), pp),
        )
    sub = check_manifold(bd, pp)
    if sub.status != STATUS_CLOSED:
        witness = sub.witness_face
        witness_betti = sub.witness_betti
        if witness is None:
            # the boundary failed structurally (e.g. not pure); point at the
            # least boundary face instead
            worst = min(boundary, key=lambda m: _face_sort_key(c, m))
            witness = c.labels_of(worst)
            witness_betti = betti_reduced(cx.link(c, c.labels_of(worst)), pp)
        return ManifoldVerdict(
            STATUS_NOT_MANIFOLD, d, pp,
            witness_face=witness,
            witness_betti=witness_betti,
        )
    return ManifoldVerdict(STATUS_WITH_BOUNDARY, d, pp)


def _span(c: Complex, face_masks) -> Complex:
    """Subcomplex generated by a downward-closed set of nonempty faces, on
    its own vertex set.  A face of such a set is maximal exactly when it is
    not a codimension-1 subface of another face in the set."""
    faces = set(face_masks)
    covered = set()
    for f in faces:
        m = f
        while m:
            b = m & -m
            covered.add(f ^ b)
            m ^= b
    used, masks = cx._reindex([f for f in faces if f not in covered])
    return Complex(c.labels_of(used), masks)


def boundary_complex(c: Complex, p, verdict: ManifoldVerdict | None = None) -> BoundaryComplex:
    """The boundary subcomplex, computed two ways that must agree.

    Route one: faces whose links have ball homology.  Route two: the span of
    the (d-1)-faces lying in exactly one facet.  A mismatch raises
    CrossCheckMismatchError.  For closed manifolds the boundary is {∅} with
    zero components.  The result is memoized on the complex per prime, and
    it reuses the span that the verdict built.
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
    classes, _ = _face_classes(c, pp)
    ball_faces = {f for f, cls in classes.items() if cls == _BOUNDARY}
    cofacets = {}
    for f in c.facet_masks:
        m = f
        while m:
            b = m & -m
            ridge = f ^ b
            cofacets[ridge] = cofacets.get(ridge, 0) + 1
            m ^= b
    spanned = set()
    for r in (r for r, n in cofacets.items() if n == 1):
        stack = [r]
        while stack:
            f = stack.pop()
            if f and f not in spanned:
                spanned.add(f)
                m = f
                while m:
                    b = m & -m
                    stack.append(f ^ b)
                    m ^= b
    if spanned != ball_faces:
        raise CrossCheckMismatchError(
            "link-homology boundary disagrees with facet-count boundary"
        )
    if not ball_faces:
        return BoundaryComplex(cx.from_facets((), [()]), 0)
    span = c._cache.get(("boundary_span", pp))  # built by the verdict
    bd = Complex(*span) if span else _span(c, ball_faces)
    if bd.dimension == 0:
        comps = bd.vertex_count
    else:
        skel = cx.one_skeleton(bd)
        groups, isolated = graphs_mod.connected_components(skel)
        comps = len(groups) + len(isolated)
    return BoundaryComplex(bd, comps)


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
