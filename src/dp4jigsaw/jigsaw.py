"""Clemens-complex face polytopes and the jigsaw partition.

The boundary of the resolved surface is a chain of five components
A7 - A5 - A4 - A3 - A6, so the Clemens complex over each archimedean
place is a path with maximal edges labeled (57), (45), (34), (36).  With
q + 1 archimedean places (q the unit rank), maximal faces of the product
complex are (q+1)-tuples of edges: 4^(q+1) of them.

Each face carries a polytope in dimension 2q + 3 with coordinates
(a0, a_{0,1}, a_{0,2}, ..., a_{q,1}, a_{q,2}): three rows independent of
the face,

    a0 + sum_n a_{n,1} >= 0,   -a0 + sum_n a_{n,2} >= 0,   sum_n a_{n,2} <= 1,

plus one two-row block per place selected by the edge at that place.  The
face polytopes tile a single polytope P (per-place blocks collapse to
a_{n,1} <= 0, a_{n,2} >= 0), and (2q+3) * vol(P) = 1/(q! (q+2)!).  This
module computes the per-face volumes, verifies the partition exactly, and
exposes the cross-section census behind the mosaic pictures.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import IndexOutOfRange, NegativeRank, OutOfRange, PartitionFailure
from .geometry import (AffineForm, HPolytope, RationalCone, cone_contains_line,
                       exact_volume, interiors_disjoint, strictly_feasible)

#: Edge labels of the Clemens path, in path order A7-A5, A5-A4, A4-A3, A3-A6.
EDGE_LABELS = ("57", "45", "34", "36")

#: Per-place inequality block for each edge: two rows on (a_{n,1}, a_{n,2}).
#: The same pairs are the classes of the two boundary components spanning
#: each edge, in the (e_{n,1}, e_{n,2}) coordinates of the place: the
#: per-place effective-cone generators.  Evaluating them on a dual vector
#: reproduces the inequality block, which is why one table serves both.
EDGE_INEQUALITIES = {
    "57": ((-1, 0), (3, 1)),    # A5, A7
    "45": ((-3, -1), (2, 1)),   # A4, A5
    "34": ((-2, -1), (1, 1)),   # A3, A4
    "36": ((0, 1), (-1, -1)),   # A3, A6
}

DEFAULT_RANK_CAP = 3

#: The q = 1 face sometimes quoted as the one with empty interior.  The
#: inequality systems implemented here make the all-(36) face degenerate
#: instead; degenerate_face_report carries both so the discrepancy stays
#: visible instead of being silently resolved.
REFERENCE_EMPTY_INTERIOR_FACE_Q1 = ("57", "57")


def _check_edge(edge):
    if edge not in EDGE_INEQUALITIES:
        raise IndexOutOfRange(f"unknown Clemens edge label {edge!r}")


def _check_rank(q):
    if not isinstance(q, int) or q < 0:
        raise NegativeRank(f"unit rank must be a nonnegative integer, got {q!r}")


def face_key(face):
    """Stable string key for a face tuple, e.g. '57,36'."""
    return ",".join(face)


def all_faces(q):
    """All 4^(q+1) maximal faces, in deterministic order."""
    _check_rank(q)
    return [tuple(f) for f in product(EDGE_LABELS, repeat=q + 1)]


def ambient_dimension(q):
    return 2 * q + 3


def common_inequalities(q):
    """The three rows shared by every face polytope, in dimension 2q+3."""
    _check_rank(q)
    dim = ambient_dimension(q)
    row1 = [0] * dim
    row2 = [0] * dim
    row3 = [0] * dim
    row1[0] = 1
    row2[0] = -1
    for n in range(q + 1):
        row1[1 + 2 * n] = 1
        row2[2 + 2 * n] = 1
        row3[2 + 2 * n] = -1
    return [AffineForm.make(row1, 0), AffineForm.make(row2, 0), AffineForm.make(row3, 1)]


def face_inequalities(n, edge, q):
    """The two rows of the edge block at place n, embedded in dimension 2q+3."""
    _check_rank(q)
    _check_edge(edge)
    if not 0 <= n <= q:
        raise IndexOutOfRange(f"place index {n} not in 0..{q}")
    dim = ambient_dimension(q)
    forms = []
    for cs, ct in EDGE_INEQUALITIES[edge]:
        row = [0] * dim
        row[1 + 2 * n] = cs
        row[2 + 2 * n] = ct
        forms.append(AffineForm.make(row, 0))
    return forms


def face_polytope(face):
    """The polytope attached to a maximal face (a tuple of edge labels)."""
    q = len(face) - 1
    _check_rank(q)
    forms = common_inequalities(q)
    for n, edge in enumerate(face):
        forms.extend(face_inequalities(n, edge, q))
    return HPolytope(ambient_dimension(q), forms)


def union_polytope(q):
    """The polytope P tiled by the 4^(q+1) face polytopes."""
    _check_rank(q)
    dim = ambient_dimension(q)
    forms = common_inequalities(q)
    for n in range(q + 1):
        row_s = [0] * dim
        row_s[1 + 2 * n] = -1
        row_t = [0] * dim
        row_t[2 + 2 * n] = 1
        forms.append(AffineForm.make(row_s, 0))
        forms.append(AffineForm.make(row_t, 0))
    return HPolytope(dim, forms)


def alpha_closed_form(q):
    """The effective cone constant 1/(q! (q+2)!)."""
    _check_rank(q)
    return Fraction(1, factorial(q) * factorial(q + 2))


def effective_generators(face):
    """Generators of the effective cone attached to a face.

    Coordinates are (a0, e_{0,1}, e_{0,2}, ..., e_{q,1}, e_{q,2}): the two
    classes supported everywhere come first, then per place the classes of
    the edge's two boundary components.
    """
    q = len(face) - 1
    _check_rank(q)
    dim = ambient_dimension(q)
    a1 = [1] + [1, 0] * (q + 1)
    a2 = [-1] + [0, 1] * (q + 1)
    gens = [a1, a2]
    for n, edge in enumerate(face):
        _check_edge(edge)
        for ce1, ce2 in EDGE_INEQUALITIES[edge]:
            vec = [0] * dim
            vec[1 + 2 * n] = ce1
            vec[2 + 2 * n] = ce2
            gens.append(vec)
    return RationalCone.make(gens)


# ---------------------------------------------------------------------------
# Jigsaw verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JigsawReport:
    q: int
    per_face: dict
    union_volume: Fraction
    alpha_sum: Fraction
    alpha_closed: Fraction
    degenerate_faces: tuple
    disjointness_verified: bool

    def to_json_dict(self):
        return {
            "q": self.q,
            "faces": {face_key(f): str(v) for f, v in sorted(self.per_face.items())},
            "union_volume": str(self.union_volume),
            "alpha_sum": str(self.alpha_sum),
            "alpha_closed": str(self.alpha_closed),
            "degenerate_faces": sorted(face_key(f) for f in self.degenerate_faces),
            "disjointness_verified": self.disjointness_verified,
        }


class _FaceCache:
    """Volumes and pairwise-disjointness checks, deduplicated by symmetry.

    Permuting the places permutes coordinate blocks, so a face volume only
    depends on the multiset of its edges, and a pair check only on the
    multiset of per-place edge pairs.  This cuts the 4^(q+1) faces (and the
    quadratically many pairs) down to a handful of exact computations.
    """

    def __init__(self):
        self.polytopes = {}
        self.volumes = {}
        self.disjoint = {}

    def polytope(self, face):
        if face not in self.polytopes:
            self.polytopes[face] = face_polytope(face)
        return self.polytopes[face]

    def volume(self, face):
        key = tuple(sorted(face))
        if key not in self.volumes:
            self.volumes[key] = exact_volume(self.polytope(key))
        return self.volumes[key]

    def pair_disjoint(self, f, g):
        pairs = tuple(sorted(tuple(sorted((a, b))) for a, b in zip(f, g)))
        if pairs not in self.disjoint:
            f0 = tuple(p[0] for p in pairs)
            g0 = tuple(p[1] for p in pairs)
            self.disjoint[pairs] = interiors_disjoint(self.polytope(f0), self.polytope(g0))
        return self.disjoint[pairs]


def _require_rank_cap(q, allow_large):
    if q > DEFAULT_RANK_CAP:
        if not allow_large:
            raise OutOfRange(
                f"q={q} exceeds the default cap {DEFAULT_RANK_CAP}; "
                f"pass allow_large=True to proceed")
        warnings.warn(f"running jigsaw at q={q}: {4 ** (q + 1)} faces in "
                      f"dimension {2 * q + 3}; this may take a while")


def jigsaw_check(q, allow_large=False):
    """Verify the jigsaw partition at unit rank q and return the report.

    Checks, all in exact arithmetic: the face volumes sum to the union
    volume, distinct faces have disjoint interiors, and the normalized sum
    (2q+3) * vol(P) equals 1/(q! (q+2)!).  A failure raises
    PartitionFailure; it would mean an implementation bug.
    """
    _check_rank(q)
    _require_rank_cap(q, allow_large)
    cache = _FaceCache()
    faces = all_faces(q)
    per_face = {f: cache.volume(f) for f in faces}
    union_volume = exact_volume(union_polytope(q))
    total = sum(per_face.values(), Fraction(0))
    alpha = alpha_closed_form(q)
    alpha_sum = (2 * q + 3) * total

    if total != union_volume:
        raise PartitionFailure(
            f"face volumes sum to {total}, union volume is {union_volume}")
    disjoint = True
    for i, f in enumerate(faces):
        for g in faces[i + 1:]:
            if not cache.pair_disjoint(f, g):
                disjoint = False
                raise PartitionFailure(
                    f"faces {face_key(f)} and {face_key(g)} overlap with positive volume")
    if alpha_sum != alpha:
        raise PartitionFailure(
            f"normalized volume sum {alpha_sum} != closed form {alpha}")

    degenerate = tuple(f for f in faces if per_face[f] == 0)
    return JigsawReport(
        q=q,
        per_face=per_face,
        union_volume=union_volume,
        alpha_sum=alpha_sum,
        alpha_closed=alpha,
        degenerate_faces=degenerate,
        disjointness_verified=disjoint,
    )


def degenerate_faces(q, allow_large=False):
    """Faces with volume-zero polytopes, each with its cone diagnostic."""
    _check_rank(q)
    _require_rank_cap(q, allow_large)
    cache = _FaceCache()
    out = []
    for f in all_faces(q):
        if cache.volume(f) == 0:
            out.append((f, cone_contains_line(effective_generators(f))))
    return out


def degenerate_face_report(q, allow_large=False):
    """Compare the volume-zero faces against two independent diagnostics.

    The strict-feasibility oracle decides full-dimensionality by exact
    linear programming; the cone diagnostic tests whether the effective
    cone contains a line.  For q = 1 the report also records whether the
    reference face ((57),(57)) is among the degenerate ones - it is not
    under these inequality systems, and the report states the discrepancy
    rather than resolving it.
    """
    _check_rank(q)
    _require_rank_cap(q, allow_large)
    cache = _FaceCache()
    faces = all_faces(q)
    # Both verdicts depend only on the sorted face, as the volume does.
    keys = dict.fromkeys(tuple(sorted(f)) for f in faces)
    strict = {k: strictly_feasible(cache.polytope(k)) for k in keys}
    line = {k: cone_contains_line(effective_generators(k)).contains_line for k in keys}
    volume_zero = [f for f in faces if cache.volume(f) == 0]
    strict_zero = [f for f in faces if not strict[tuple(sorted(f))]]
    cone_line = [f for f in faces if line[tuple(sorted(f))]]
    report = {
        "q": q,
        "volume_zero_faces": sorted(face_key(f) for f in volume_zero),
        "strict_feasibility_zero_faces": sorted(face_key(f) for f in strict_zero),
        "cone_line_faces": sorted(face_key(f) for f in cone_line),
        "oracles_agree": sorted(volume_zero) == sorted(strict_zero),
    }
    if q == 1:
        ref = REFERENCE_EMPTY_INTERIOR_FACE_Q1
        report["reference_empty_interior_face"] = face_key(ref)
        report["reference_face_is_degenerate"] = ref in volume_zero
        report["note"] = (
            "The face (57),(57) is sometimes described as the empty-interior "
            "one at q=1; with the inequality blocks used here the degenerate "
            "face is (36),(36), whose effective cone contains a line.  Both "
            "diagnostics are reported; neither reading is asserted.")
    return report


# ---------------------------------------------------------------------------
# Pyramid form and cross-section census
# ---------------------------------------------------------------------------

def census_change_of_variables(q):
    """Matrix M with x = M y mapping census coordinates to face coordinates.

    y = (a0, a1, a2, u_{1,1}, u_{1,2}, ..., u_{q,1}, u_{q,2}) where
    a_i sums the per-place coordinates (with the sign of the first block
    flipped) and u_{n,i} keep places 1..q.  M is unimodular.
    """
    _check_rank(q)
    dim = ambient_dimension(q)
    m = [[0] * dim for _ in range(dim)]
    m[0][0] = 1
    # old a_{0,1} = -a1 + sum_{n>=1} u_{n,1); old a_{0,2} = a2 - sum u_{n,2}
    m[1][1] = -1
    m[2][2] = 1
    for n in range(1, q + 1):
        m[1][1 + 2 * n] = 1
        m[2][2 + 2 * n] = -1
        m[1 + 2 * n][1 + 2 * n] = -1
        m[2 + 2 * n][2 + 2 * n] = 1
    return m


def pyramid_polytope(q):
    """P' in coordinates (a0, a1, a2, u_{1,1}, ..., u_{q,2}): a pyramid
    with apex at the origin over the base at a2 = 1."""
    _check_rank(q)
    dim = ambient_dimension(q)

    def unit(i):
        row = [0] * dim
        row[i] = 1
        return row

    forms = [
        AffineForm.ge(unit(1), 0),                      # a1 >= 0
        AffineForm.make([1, -1] + [0] * (dim - 2), 0),  # a0 - a1 >= 0
        AffineForm.make([-1, 0, 1] + [0] * (dim - 3), 0),  # a2 - a0 >= 0
        AffineForm.ge(unit(2), 0),                      # a2 >= 0
        AffineForm.le(unit(2), 1),                      # a2 <= 1
    ]
    sum_u1 = [0] * dim
    sum_u2 = [0] * dim
    sum_u1[1] = 1
    sum_u2[2] = 1
    for n in range(1, q + 1):
        sum_u1[1 + 2 * n] = -1
        sum_u2[2 + 2 * n] = -1
        forms.append(AffineForm.ge(unit(1 + 2 * n), 0))
        forms.append(AffineForm.ge(unit(2 + 2 * n), 0))
    forms.append(AffineForm.make(sum_u1, 0))  # sum u_{n,1} <= a1
    forms.append(AffineForm.make(sum_u2, 0))  # sum u_{n,2} <= a2
    return HPolytope(dim, forms)


def pyramid_base_polytope(q):
    """P'_0, the base of the pyramid at a2 = 1, in dimension 2q + 2."""
    _check_rank(q)
    dim = 2 * q + 2

    def unit(i):
        row = [0] * dim
        row[i] = 1
        return row

    forms = [
        AffineForm.ge(unit(1), 0),                      # a1 >= 0
        AffineForm.make([1, -1] + [0] * (dim - 2), 0),  # a0 - a1 >= 0
        AffineForm.le(unit(0), 1),                      # a0 <= 1
    ]
    sum_u1 = [0] * dim
    sum_u2 = [0] * dim
    sum_u1[1] = 1
    for n in range(1, q + 1):
        sum_u1[2 * n] = -1
        sum_u2[1 + 2 * n] = -1
        forms.append(AffineForm.ge(unit(2 * n), 0))
        forms.append(AffineForm.ge(unit(1 + 2 * n), 0))
    forms.append(AffineForm.make(sum_u1, 0))  # sum u_{n,1} <= a1
    forms.append(AffineForm.make(sum_u2, 1))  # sum u_{n,2} <= 1
    return HPolytope(dim, forms)


@dataclass(frozen=True)
class SlicePiece:
    area: Fraction
    vertex_count: int
    vertices: tuple


@dataclass(frozen=True)
class SliceCensus:
    q: int
    a1: Fraction
    a0: Fraction
    pieces: dict
    positive_count: int
    total_area: Fraction
    union_verified: bool

    def to_json_dict(self):
        return {
            "q": self.q,
            "a1": str(self.a1),
            "a0": str(self.a0),
            "pieces": {
                face_key(f): {
                    "area": str(p.area),
                    "vertex_count": p.vertex_count,
                    "vertices": [[str(c) for c in v] for v in p.vertices],
                }
                for f, p in sorted(self.pieces.items())
            },
            "positive_count": self.positive_count,
            "total_area": str(self.total_area),
            "union_verified": self.union_verified,
        }


def slice_census(a1, a0, q=1):
    """Cross-section mosaic of the face polytopes at a2 = 1 and given (a0, a1).

    After the pyramid change of variables, each face polytope is sliced at
    the fixed (a0, a1, a2=1); for q = 1 the pieces are polygons in the
    remaining coordinates (u_{1,1}, u_{1,2}) that tile the rectangle
    [0, a1] x [0, 1].  Returns per-face areas and vertex counts plus the
    exact union check.
    """
    if q != 1:
        raise OutOfRange("the cross-section census is defined for q = 1")
    a1 = Fraction(a1)
    a0 = Fraction(a0)
    if not (0 < a1 <= a0 <= 1):
        raise OutOfRange("need 0 < a1 <= a0 <= 1")
    matrix = census_change_of_variables(q)
    pieces = {}
    positive = []
    total = Fraction(0)
    for face in all_faces(q):
        transformed = face_polytope(face).transform(matrix)
        piece = transformed.slice([(0, a0), (1, a1), (2, Fraction(1))])
        area = exact_volume(piece)
        pieces[face] = SlicePiece(area=area, vertex_count=len(piece.vertices),
                                  vertices=piece.vertices)
        total += area
        if area > 0:
            positive.append((face, piece))

    union_ok = total == a1
    # every piece must sit inside the rectangle [0, a1] x [0, 1] ...
    for _, piece in positive:
        for v in piece.vertices:
            if not (0 <= v[0] <= a1 and 0 <= v[1] <= 1):
                union_ok = False
    # ... and positive pieces must not overlap.
    for i, (_, p1) in enumerate(positive):
        for _, p2 in positive[i + 1:]:
            if not interiors_disjoint(p1, p2):
                union_ok = False
    return SliceCensus(
        q=q, a1=a1, a0=a0, pieces=pieces,
        positive_count=len(positive), total_area=total,
        union_verified=union_ok,
    )
