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
module certifies the partition, gives every face volume in closed form, and
exposes the cross-section census behind the mosaic pictures.

The fan.  At one place write (s, t) = (a_{n,1}, a_{n,2}).  The four edge
cones are consecutive cones of one unimodular fan in the quadrant
{s <= 0, t >= 0}, with rays

    rho0..rho4 = (0, 1), (-1, 3), (-1, 2), (-1, 1), (-1, 0),

(57) = rho0 rho1, (45) = rho1 rho2, (34) = rho2 rho3, (36) = rho3 rho4.
edge_fan reads each cone's two rays off EDGE_INEQUALITIES (the ray on the
boundary line of one row, pointing into the other row's half-plane) and
certifies five things: every ray lies in the quadrant, each cone has
det = +1 counterclockwise, consecutive cones share a ray, the first ray is
(0, 1) and the last is (-1, 0).  The angles of the rays then increase
strictly from pi/2 to pi, so the cones tile the quadrant with disjoint
interiors.  Two distinct faces differ at some place, so their polytopes
have disjoint interiors, and together they cover P, for every q.  The
quadrant condition is not implied by the other four: the unimodular chain
(0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0) meets them and winds past the
quadrant.

The volume.  In ray coordinates x >= 0 (a unimodular change, so volume is
kept) the three common rows read tau.x <= 1 and -sum s <= a0 <= sum t, an
a0-interval of length sigma.x, with

    tau = t(rho) = 1, 3, 2, 1, 0,    sigma = (s + t)(rho) = 1, 2, 1, 0, -1.

So vol = int_{x >= 0, tau.x <= 1} max(0, sigma.x) dx.  The integrand is
homogeneous of degree 1 in N = 2q + 2 variables, so the integral is
1/(2q+3)! times its Laplace transform int_{x >= 0} max(0, sigma.x)
e^{-tau.x} dx (Lawrence 1991; Barvinok 1993).  Each rho3 coordinate
(tau = 1, sigma = 0) integrates to 1.  Integrating out the m36
coordinates on rho4 (tau = 0, sigma = -1) leaves S^k / k! with
k = m36 + 1 and S the sigma-weighted sum over the rho0..rho2
coordinates, and int S^k/k! e^{-tau.x} is the z^k coefficient of
prod_j (tau_j - z sigma_j)^(-1) over those coordinates.  With the edge
multiplicities (m57, m45, m34, m36), the rays rho0, rho1, rho2 occur
e = (m57, m57 + m45, m45 + m34) times, their poles tau/sigma are
lambda = (1, 3/2, 2), and sigma(rho1) = 2 gives a factor 2^(-e_2):

    vol = 2^(-(m57 + m45)) / (2q+3)! * sum_{j1+j2+j3 = k}
          prod_i C(e_i + j_i - 1, j_i) lambda_i^(-e_i - j_i),

a factor with e_i = 0 being 1 at j_i = 0 and 0 otherwise.

The degenerate face.  Every term of the sum is nonnegative, and the term
with j_i = k is positive as soon as e_i > 0.  So a face has volume 0
exactly when e = (0, 0, 0), that is m57 = m45 = m34 = 0: the all-(36)
face, the only degenerate face for every q.  There sigma <= 0 on both
rays rho3, rho4, so the a0-interval has length 0 everywhere.

alpha_sum certifies the fan and sums the closed form over the C(q+4, 3)
edge multisets with multinomial weights.  jigsaw_check keeps a second
route for the union volume, exact_volume(union_polytope(q)); the
triangulated face volumes and the pairwise disjointness checks of
_FaceCache stay as the oracles the tests compare against.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, prod

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

#: The poles tau/sigma of the rays rho0, rho1, rho2 in the face-volume
#: formula (see the module docstring).
LAPLACE_POLES = (Fraction(1), Fraction(3, 2), Fraction(2))

#: Largest q that jigsaw_check and the degenerate-face diagnostics accept.
#: They list all 4^(q+1) faces, triangulate P in dimension 2q + 3 and solve
#: one exact LP per edge multiset.  `dp4 jigsaw` at q = 3, 4, 5, 6, 7 took
#: 2.9, 7.2, 15.7, 37.1 and 85.8 s on a 2-vCPU Xeon, at 30, 31, 33, 41 and
#: 71 MB peak RSS, and wrote a jigsaw.json of 9 KB, 42 KB, 190 KB, 862 KB
#: and 3.9 MB: each step in q costs 2.2-2.5x the time and 4x the faces, and
#: q = 6 is the last rank that runs in under a minute.  alpha_sum, which
#: lists edge multisets instead of faces, has no limit.
MAX_JIGSAW_RANK = 6

#: The published positive-piece counts of the q = 1 census, by a1.
PUBLISHED_PIECE_COUNTS = {Fraction(1, 5): 7, Fraction(2, 5): 11, Fraction(3, 5): 11}

#: The q = 1 face sometimes quoted as the one with empty interior.  The
#: inequality systems implemented here make the all-(36) face degenerate
#: instead (the only degenerate face for every q, by the closed form);
#: degenerate_face_report carries both so the discrepancy stays visible
#: instead of being silently resolved.
REFERENCE_EMPTY_INTERIOR_FACE_Q1 = ("57", "57")


def _check_edge(edge):
    if edge not in EDGE_INEQUALITIES:
        raise IndexOutOfRange(f"unknown Clemens edge label {edge!r}")


def _check_rank(q):
    if not isinstance(q, int) or q < 0:
        raise NegativeRank(f"unit rank must be a nonnegative integer, got {q!r}")


def _check_listed_rank(q):
    """_check_rank, and q <= MAX_JIGSAW_RANK for the routes that list every face."""
    _check_rank(q)
    if q > MAX_JIGSAW_RANK:
        raise OutOfRange(f"q = {q} is above MAX_JIGSAW_RANK = {MAX_JIGSAW_RANK}, "
                         f"the largest rank at which every face is listed; "
                         f"`dp4 alpha --q {q}` sums the closed form at any q")


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
    """Triangulated volumes and pairwise-disjointness checks, deduplicated by symmetry.

    Permuting the places permutes coordinate blocks, so a face volume only
    depends on the multiset of its edges, and a pair check only on the
    multiset of per-place edge pairs.  No production route calls this
    class: it is the triangulation and pairwise-disjointness reference that
    the tests compare face_volume and edge_fan against, and bench/layers.py
    wraps its volume and pair_disjoint methods by name.
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


def _ray(row, other):
    """The primitive ray on the boundary line of row, inside other's half-plane."""
    cs, ct = row
    g = gcd(cs, ct) or 1
    ray = (-ct // g, cs // g)
    side = other[0] * ray[0] + other[1] * ray[1]
    if side == 0:
        raise PartitionFailure(f"edge rows {row} and {other} do not span a cone")
    return ray if side > 0 else (-ray[0], -ray[1])


def edge_fan():
    """Certify that the edge cones tile the quadrant {s <= 0, t >= 0}.

    Returns the rays rho0..rho4 read off EDGE_INEQUALITIES, or raises
    PartitionFailure naming the first broken condition.  Why the five
    conditions prove the tiling is in the module docstring.
    """
    rays = []
    for edge in EDGE_LABELS:
        r1, r2 = EDGE_INEQUALITIES[edge]
        u, v = _ray(r1, r2), _ray(r2, r1)
        det = u[0] * v[1] - u[1] * v[0]
        if det < 0:
            u, v, det = v, u, -det
        if det != 1:
            raise PartitionFailure(f"edge cone ({edge}) has |det| = {det}, not 1")
        if any(s > 0 or t < 0 for s, t in (u, v)):
            raise PartitionFailure(f"edge cone ({edge}) leaves the quadrant s <= 0 <= t")
        if rays and rays[-1] != u:
            raise PartitionFailure(
                f"edge cone ({edge}) starts at {u}, not at the previous ray {rays[-1]}")
        rays.extend([v] if rays else [u, v])
    if rays[0] != (0, 1) or rays[-1] != (-1, 0):
        raise PartitionFailure(f"the edge fan runs from {rays[0]} to {rays[-1]}, "
                               f"not from (0, 1) to (-1, 0)")
    return tuple(rays)


def face_volume(m57, m45, m34, m36):
    """Volume of every face polytope with these edge multiplicities.

    The Laplace formula of the module docstring, in exact arithmetic; the
    rank is q = m57 + m45 + m34 + m36 - 1.
    """
    q = m57 + m45 + m34 + m36 - 1
    _check_rank(q)
    k = m36 + 1
    # With lambda = n/d, the factor lambda^(-e-j) = d^(e+j)/n^(e+j) times
    # n^(e+k) is the integer d^(e+j) n^(k-j), so the sum runs in integers.
    factors = []
    scale = 1
    for e, pole in zip((m57, m57 + m45, m45 + m34), LAPLACE_POLES):
        n, d = pole.numerator, pole.denominator
        scale *= n ** (e + k)
        if e == 0:
            factors.append([n ** k] + [0] * k)
        else:
            factors.append([comb(e + j - 1, j) * d ** (e + j) * n ** (k - j)
                            for j in range(k + 1)])
    f1, f2, f3 = factors
    total = sum(f1[j1] * f2[j2] * f3[k - j1 - j2]
                for j1 in range(k + 1) for j2 in range(k + 1 - j1))
    return Fraction(total, scale * 2 ** (m57 + m45) * factorial(2 * q + 3))


def multiplicities(face):
    """(m57, m45, m34, m36): how often each edge occurs in the face."""
    return tuple(face.count(edge) for edge in EDGE_LABELS)


def edge_multisets(q):
    """The multiplicities of all C(q+4, 3) edge multisets of size q + 1."""
    _check_rank(q)
    n = q + 1
    return [(a, b, c, n - a - b - c)
            for a in range(n + 1) for b in range(n + 1 - a) for c in range(n + 1 - a - b)]


def alpha_sum(q):
    """(2q+3) * vol(P) from the fan certificate and the closed face volumes.

    Each edge multiset stands for the multinomial number of faces that
    permute it.  Raises PartitionFailure when the fan certificate fails.
    """
    _check_rank(q)
    edge_fan()
    n = factorial(q + 1)
    total = sum((n // prod(map(factorial, m)) * face_volume(*m) for m in edge_multisets(q)),
                Fraction(0))
    return (2 * q + 3) * total


def _face_volumes(q):
    """Closed-form volume of each face, once per edge multiset."""
    volumes = {m: face_volume(*m) for m in edge_multisets(q)}
    return {f: volumes[multiplicities(f)] for f in all_faces(q)}


def jigsaw_check(q):
    """Verify the jigsaw partition at unit rank q and return the report.

    Checks, all in exact arithmetic: the edge fan tiles the quadrant (so
    distinct faces have disjoint interiors and cover P), the closed-form
    face volumes sum to the union volume triangulated on its own, and the
    normalized sum (2q+3) * vol(P) equals 1/(q! (q+2)!).  A failure raises
    PartitionFailure; it would mean an implementation bug.  Above
    MAX_JIGSAW_RANK it raises OutOfRange before any polytope is built.
    """
    _check_listed_rank(q)
    edge_fan()
    per_face = _face_volumes(q)
    union_volume = exact_volume(union_polytope(q))
    total = sum(per_face.values(), Fraction(0))
    alpha = alpha_closed_form(q)
    alpha_total = (2 * q + 3) * total

    if total != union_volume:
        raise PartitionFailure(
            f"face volumes sum to {total}, union volume is {union_volume}")
    if alpha_total != alpha:
        raise PartitionFailure(
            f"normalized volume sum {alpha_total} != closed form {alpha}")

    return JigsawReport(
        q=q,
        per_face=per_face,
        union_volume=union_volume,
        alpha_sum=alpha_total,
        alpha_closed=alpha,
        degenerate_faces=tuple(f for f, v in per_face.items() if v == 0),
        disjointness_verified=True,
    )


def degenerate_faces(q):
    """Faces with volume-zero polytopes, each with its cone diagnostic."""
    _check_listed_rank(q)
    return [(f, cone_contains_line(effective_generators(f)))
            for f, v in _face_volumes(q).items() if v == 0]


def degenerate_face_report(q):
    """Compare the volume-zero faces against two independent diagnostics.

    The volumes come from the closed form.  The strict-feasibility oracle
    decides full-dimensionality by exact linear programming; the cone
    diagnostic tests whether the effective cone contains a line.  For q = 1
    the report also records whether the reference face ((57),(57)) is among
    the degenerate ones - it is not under these inequality systems, and the
    report states the discrepancy rather than resolving it.
    """
    _check_listed_rank(q)
    per_face = _face_volumes(q)
    faces = list(per_face)
    # Both verdicts depend only on the sorted face, as the volume does.
    keys = dict.fromkeys(tuple(sorted(f)) for f in faces)
    strict = {k: strictly_feasible(face_polytope(k)) for k in keys}
    line = {k: cone_contains_line(effective_generators(k)).contains_line for k in keys}
    volume_zero = [f for f in faces if per_face[f] == 0]
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
