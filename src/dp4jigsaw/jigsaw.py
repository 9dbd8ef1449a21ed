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
face polytopes tile a single polytope P, whose block at every place is the
quadrant a_{n,1} <= 0 <= a_{n,2}, and (2q+3) * vol(P) = 1/(q! (q+2)!).  The
effective cone of a face is generated by its homogeneous rows (const 0), and
its census pieces are its rows pulled back and sliced: every row comes
from the rays of one fan.  This module certifies the partition, reads every
face volume off the edge fan, and exposes the cross-section census behind
the mosaic pictures.

The fan.  At one place write (s, t) = (a_{n,1}, a_{n,2}).  The edge cones
are consecutive cones of one unimodular fan in the quadrant
{s <= 0, t >= 0}, and the fan's rays FAN_RAYS are the only fan data:

    rho0..rho4 = (0, 1), (-1, 3), (-1, 2), (-1, 1), (-1, 0),

the cone of EDGE_LABELS[j] is rho_j rho_{j+1}, so (57) = rho0 rho1,
(45) = rho1 rho2, (34) = rho2 rho3, (36) = rho3 rho4.  The two rows of an
edge with rays u, v are derived: (-u_t, u_s), which vanishes on u, then
(v_t, -v_s), which vanishes on v.  Each takes the value det(u, v) on the
other ray, so the pair cuts out the cone exactly when det(u, v) > 0.
edge_fan certifies three things: each cone has det = +1, every ray lies
in the quadrant, and the rays run from (0, 1) to (-1, 0).  Consecutive
rays of the quadrant with det > 0 turn counterclockwise, so the angles of
the rays increase strictly from pi/2 to pi and the cones tile the
quadrant with disjoint interiors.  Two distinct faces differ at some
place, so their polytopes have disjoint interiors, and together they
cover P, for every q.  The quadrant condition is not implied by the other
two: the unimodular chain (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0) meets
them and winds past the quadrant.

The volume.  A face with edge multiplicities m_0..m_{r-1}, one per cone
of an r-cone fan, puts c_j = m_{j-1} + m_j coordinates on ray rho_j, with
m_{-1} = m_r = 0.  In ray coordinates x >= 0 (a unimodular change,
so volume is kept) the common rows read tau.x <= 1 and
-sum s <= a0 <= sum t, an a0-interval of length sigma.x, with
tau = t(rho) and sigma = (s + t)(rho).  So
vol = int_{x >= 0, tau.x <= 1} max(0, sigma.x) dx, and as the integrand
is homogeneous of degree 1 in 2q + 2 variables, vol is its Laplace
transform int_{x >= 0} max(0, sigma.x) e^{-tau.x} dx over (2q+3)!
(Lawrence 1991; Barvinok 1993).  Integrating out the coordinates on the
one ray with t = 0, (-1, 0), leaves max(0, S)^k / k!, with k = 1 + their
number and S the sigma-weighted sum of the rest.  If sigma >= 0 on every
ray with t > 0, then S >= 0, and expanding S^k / k! gives, with no
residues,

    vol = [z^k] prod_{t_j > 0} (t_j - z sigma_j)^(-c_j) / (2q+3)!.

face_volume reads this off edge_fan and refuses a ray t > 0 > s + t,
where S changes sign.  On the table's fan sigma = 1, 2, 1, 0, -1.

The degenerate face.  Every term of the expansion is nonnegative, and
the one taking all of z^k from a ray with sigma > 0 and c > 0 is
positive.  So a face has volume 0 exactly when every coordinate lies on
a ray with sigma <= 0, where the a0-interval has length 0.  On the
table's fan those are rho3, rho4: the all-(36) face, for every q.

The second route is duality, one 2 x 2 block per place.  A face's
homogeneous rows cut out the cone C dual to its effective cone E, and its
polytope is C cut by sum_n a_{n,2} <= 1, so it has an interior point
exactly when C does, that is, when E contains no line (Gordan 1873).  E is
generated by g1 = (1; 1, 0, ...), g2 = (-1; 0, 1, ...) and, at each place
with rays u, v, the edge rows alpha = (-u_t, u_s), beta = (v_t, -v_s).  As
det(u, v) = 1, mu alpha + nu beta = (-1, -1) for mu = -sigma(v) and
nu = -sigma(u), so lam = (1, 1, mu_0, nu_0, ..., mu_q, nu_q) sums the
generators to 0, and lam >= 0 exactly when every ray the face uses has
sigma <= 0.  Otherwise p_n = u + v, plus k = 1 + max(0, -sum_n sigma(u + v))
times the ray of larger sigma where that sigma is positive, lies inside
each cone, with sum_n sigma(p_n) > 0.  Over the doubled p_n,
a0 = sum t - sum s lies strictly between -2 sum s and 2 sum t, and dividing
by 1 + 2 sum t puts sum_n a_{n,2} below 1.  interior_certificate checks
the witness exactly, the point against every face row or lam against the
generators, so the verdict never rests on sigma alone and stays
independent of face_volume: a lam that fails raises PartitionFailure, and
a point that fails is reported as none, which the volume route flags.
degenerate_face_report runs it once per edge multiset; cone_contains_line,
pointedness by double description, is the tests' oracle for it.

Permuting the places permutes coordinate blocks, so a face's volume and
verdicts depend only on its edge multiset.  multiset_rows yields, on one
certified fan, a row per multiset, C(q+r, r-1) for an r-cone fan: its edges
in path order, the number of faces that permute them, and their
face_volume.  alpha_sum sums the rows as a stream; jigsaw_check keeps them
for its report and checks them against union_polytope(q).volume().  The
pyramid P' and its base P'_0 are P's rows pulled back to the census
coordinates.  The triangulated face volumes and the pairwise disjointness
checks of _FaceCache, the vertex-based strictly_feasible on each face
polytope, and hand-written inequality lists for P' and P'_0 stay as the
oracles the tests compare against.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import factorial, prod
from operator import mul

from .errors import IndexOutOfRange, NegativeRank, OutOfRange, PartitionFailure
# strictly_feasible and cone_contains_line are not called here: they are the
# tests' oracles for the strict-feasibility and cone-line columns, and
# bench/layers.py times them by these names.
from .geometry import (AffineForm, ConeLineDiagnostic, HPolytope, RationalCone,
                       cone_contains_line, fix_coordinates, interiors_disjoint,
                       pull_back, strictly_feasible)

#: Edge labels of the Clemens path, in path order A7-A5, A5-A4, A4-A3, A3-A6.
#: The cone of EDGE_LABELS[j] is spanned by FAN_RAYS[j] and FAN_RAYS[j + 1].
EDGE_LABELS = ("57", "45", "34", "36")

#: The rays rho0..rho4 of the edge fan, in (s, t) = (a_{n,1}, a_{n,2}).
FAN_RAYS = ((0, 1), (-1, 3), (-1, 2), (-1, 1), (-1, 0))

#: Largest q that jigsaw_check accepts.  Its report has one row per edge
#: multiset, C(q+4, 3), so the cap bounds only the triangulation of P in
#: dimension 2q + 3.  `dp4 jigsaw --format json` at q = 6 took 0.5-0.8 s in
#: fresh processes on a 2-vCPU Xeon, at a 19 MB peak RSS, for a 12 KB
#: jigsaw.json; at q = 7 it took 2.3-2.4 s, of which the triangulation of P
#: took 2.0 s.  Taking vol(P) by principal parts instead (ROADMAP item 1)
#: is what lifts the cap.
MAX_JIGSAW_RANK = 6

#: Largest q that alpha_sum accepts: it streams C(q+4, 3) face_volume calls,
#: each a product of series cut at degree k <= q + 2.  Fresh `dp4 alpha`
#: processes took 0.8, 10, 24-27, 30 and 40 s at q = 40, 80, 100, 105 and
#: 110 on a 2-vCPU Xeon, at a 17 MB peak RSS; the limit keeps a run under
#: half a minute.
MAX_ALPHA_RANK = 100

#: The published positive-piece counts of the q = 1 census, by a1.
PUBLISHED_PIECE_COUNTS = {Fraction(1, 5): 7, Fraction(2, 5): 11, Fraction(3, 5): 11}

#: The q = 1 face sometimes quoted as the one with empty interior.  The
#: inequality systems implemented here make the all-(36) face degenerate
#: instead (the only degenerate face for every q, by face_volume);
#: degenerate_face_report carries both so the discrepancy stays visible
#: instead of being silently resolved.
REFERENCE_EMPTY_INTERIOR_FACE_Q1 = ("57", "57")


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
    s, t = [1, 0] * (q + 1), [0, 1] * (q + 1)
    return [AffineForm.make([1] + s, 0), AffineForm.make([-1] + t, 0),
            AffineForm.make([0] + [-x for x in t], 1)]


def _place_rows(n, block, q):
    """A per-place block of rows on (a_{n,1}, a_{n,2}), embedded in dimension 2q+3."""
    return [AffineForm.make([0] * (1 + 2 * n) + [cs, ct] + [0] * (2 * (q - n)), 0)
            for cs, ct in block]


def _polytope_rows(blocks):
    """The common rows, then blocks[n] at each place n."""
    q = len(blocks) - 1
    return common_inequalities(q) + [form for n, block in enumerate(blocks)
                                     for form in _place_rows(n, block, q)]


def _edge_rays(edge):
    """The rays u, v of an edge's cone: FAN_RAYS[j] and FAN_RAYS[j + 1]."""
    if edge not in EDGE_LABELS:
        raise IndexOutOfRange(f"unknown Clemens edge label {edge!r}")
    j = EDGE_LABELS.index(edge)
    return FAN_RAYS[j:j + 2]


def _edge_block(edge):
    """The two rows of an edge on (s, t), derived from the rays u, v of its cone.

    (-u_t, u_s) vanishes on u and (v_t, -v_s) on v.  The same pairs are the
    classes of the two boundary components spanning the edge, in the
    (e_{n,1}, e_{n,2}) coordinates of the place: the per-place
    effective-cone generators.  Evaluating them on a dual vector reproduces
    the inequality block, which is why one pair serves both.
    """
    (us, ut), (vs, vt) = _edge_rays(edge)
    return (-ut, us), (vt, -vs)


def face_rows(face):
    """The rows of a face polytope: the common rows, then each place's edge block."""
    return _polytope_rows([_edge_block(edge) for edge in face])


def face_polytope(face):
    """The polytope attached to a maximal face (a tuple of edge labels)."""
    return HPolytope(ambient_dimension(len(face) - 1), face_rows(face))


#: The per-place block of the union P: the quadrant s <= 0 <= t.
QUADRANT = ((-1, 0), (0, 1))


def _union_rows(q):
    _check_rank(q)
    return _polytope_rows([QUADRANT] * (q + 1))


def union_polytope(q):
    """The polytope P tiled by the 4^(q+1) face polytopes."""
    return HPolytope(ambient_dimension(q), _union_rows(q))


def alpha_closed_form(q):
    """The effective cone constant 1/(q! (q+2)!)."""
    _check_rank(q)
    return Fraction(1, factorial(q) * factorial(q + 2))


def effective_generators(rows):
    """Generators of the effective cone attached to a face: the homogeneous face_rows.

    Coordinates are (a0, e_{0,1}, e_{0,2}, ..., e_{q,1}, e_{q,2}): the two
    classes supported everywhere come first, then per place the classes of
    the edge's two boundary components.
    """
    return RationalCone.make([f.coeffs for f in rows if f.const == 0])


# ---------------------------------------------------------------------------
# Jigsaw verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JigsawReport:
    q: int
    rows: tuple     # multiset_rows(q): (edges, faces, volume) per edge multiset
    union_volume: Fraction
    alpha_sum: Fraction
    alpha_closed: Fraction
    disjointness_verified: bool

    def to_json_dict(self):
        return {
            "q": self.q,
            "multisets": {face_key(edges): {"faces": n, "volume": str(v)}
                          for edges, n, v in self.rows},
            "union_volume": str(self.union_volume),
            "alpha_sum": str(self.alpha_sum),
            "alpha_closed": str(self.alpha_closed),
            "degenerate_multisets": [face_key(edges) for edges, _, v in self.rows if v == 0],
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
            self.volumes[key] = self.polytope(key).volume()
        return self.volumes[key]

    def pair_disjoint(self, f, g):
        pairs = tuple(sorted(tuple(sorted((a, b))) for a, b in zip(f, g)))
        if pairs not in self.disjoint:
            f0 = tuple(p[0] for p in pairs)
            g0 = tuple(p[1] for p in pairs)
            self.disjoint[pairs] = interiors_disjoint(self.polytope(f0), self.polytope(g0))
        return self.disjoint[pairs]


def edge_fan():
    """Certify that the edge cones tile the quadrant {s <= 0, t >= 0}.

    Returns FAN_RAYS, or raises PartitionFailure naming the first broken
    condition.  Why the three conditions prove the tiling is in the module
    docstring.
    """
    rays = FAN_RAYS
    if len(rays) != len(EDGE_LABELS) + 1:
        raise PartitionFailure(f"{len(rays)} fan rays for {len(EDGE_LABELS)} edge cones")
    for edge, u, v in zip(EDGE_LABELS, rays, rays[1:]):
        det = u[0] * v[1] - u[1] * v[0]
        if det != 1:
            raise PartitionFailure(f"edge cone ({edge}) has det = {det}, not +1")
        if any(s > 0 or t < 0 for s, t in (u, v)):
            raise PartitionFailure(f"edge cone ({edge}) leaves the quadrant s <= 0 <= t")
    if rays[0] != (0, 1) or rays[-1] != (-1, 0):
        raise PartitionFailure(f"the edge fan runs from {rays[0]} to {rays[-1]}, "
                               f"not from (0, 1) to (-1, 0)")
    return rays


def face_volume(m, rays=None):
    """Volume of every face polytope with edge multiplicities m.

    m has one entry per edge cone.  The z^k coefficient of the module
    docstring, read off the rays of edge_fan() in integers, at rank
    q = sum(m) - 1.  A caller that sums many faces certifies the fan once
    and passes its rays.  Raises PartitionFailure when the fan fails
    edge_fan or has t > 0 > s + t.
    """
    q = sum(m) - 1
    _check_rank(q)
    if rays is None:
        rays = edge_fan()
    slots = [a + b for a, b in zip((0, *m), (*m, 0))]
    k = 1 + sum(c for (_, t), c in zip(rays, slots, strict=True) if t == 0)
    # (t - z(s+t))^(-c) is t^(-c) times a factor that is 1 if s + t = 0 and
    # otherwise, times t^k, has the integer coefficients C(c+i-1, i)
    # (s+t)^i t^(k-i), each the last times (c+i)(s+t)/((i+1)t).
    scale, factors = 1, []
    for (s, t), c in zip(rays, slots):
        if t > 0 > s + t:
            raise PartitionFailure(f"ray {(s, t)} has t > 0 > s + t: the a0-interval "
                                   f"length changes sign, so [z^k] is not the volume")
        if t > 0 and c:
            scale *= t ** c
            if s + t:
                scale *= t ** k
                factors.append(list(accumulate(
                    range(k), lambda a, i: a * (c + i) * (s + t) // ((i + 1) * t),
                    initial=t ** k)))
    poly = [1]
    for f in factors[:-1]:
        poly = [sum(map(mul, poly, f[i::-1])) for i in range(k + 1)]
    total = sum(map(mul, poly, reversed(factors[-1]))) if factors else 0
    return Fraction(total, scale * factorial(2 * q + 3))


def multiplicities(face):
    """How often each edge of EDGE_LABELS occurs in the face."""
    return tuple(face.count(edge) for edge in EDGE_LABELS)


def multiset_rows(q):
    """Yield (edges, faces, volume) per multiset of q + 1 edges, on one certified fan.

    edges lists the multiset in path order, faces is the multinomial number
    of faces that permute it, and volume is their face_volume.  Raises
    PartitionFailure when edge_fan or face_volume refuses the fan.
    """
    _check_rank(q)
    rays, n = edge_fan(), factorial(q + 1)
    for edges in combinations_with_replacement(EDGE_LABELS, q + 1):
        m = multiplicities(edges)
        yield edges, n // prod(map(factorial, m)), face_volume(m, rays=rays)


def _volume_sum(rows):
    return sum((n * v for _, n, v in rows), Fraction(0))


def alpha_sum(q):
    """(2q+3) * vol(P) from the face volumes read off the edge fan.

    Above MAX_ALPHA_RANK it raises OutOfRange before any multiset is listed.
    """
    _check_rank(q)
    if q > MAX_ALPHA_RANK:
        raise OutOfRange(f"q = {q} is above MAX_ALPHA_RANK = {MAX_ALPHA_RANK}")
    return (2 * q + 3) * _volume_sum(multiset_rows(q))


def jigsaw_check(q):
    """Verify the jigsaw partition at unit rank q and return the report.

    Checks, all in exact arithmetic: the edge fan tiles the quadrant (so
    distinct faces have disjoint interiors and cover P), the face volumes
    read off it sum to the union volume triangulated on its own, and the
    normalized sum (2q+3) * vol(P) equals 1/(q! (q+2)!).  A failure raises
    PartitionFailure; it would mean an implementation bug.  Above
    MAX_JIGSAW_RANK it raises OutOfRange before any polytope is built.
    """
    _check_rank(q)
    if q > MAX_JIGSAW_RANK:
        raise OutOfRange(f"q = {q} is above MAX_JIGSAW_RANK = {MAX_JIGSAW_RANK}, "
                         f"the largest rank at which P is triangulated; `dp4 alpha` "
                         f"sums the face volumes to q = {MAX_ALPHA_RANK}")
    rows = tuple(multiset_rows(q))
    union_volume = union_polytope(q).volume()
    total = _volume_sum(rows)
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
        rows=rows,
        union_volume=union_volume,
        alpha_sum=alpha_total,
        alpha_closed=alpha,
        disjointness_verified=True,
    )


def interior_certificate(face):
    """The face's cone diagnostic, and a point strictly inside its polytope or None.

    sigma at each place's rays picks the witness, a line combination or a
    point, and it is checked exactly (see the module docstring).  The
    diagnostic carries the line combination, or as the separating
    functional the integer vector that the point scales down.  Raises
    PartitionFailure when the line combination fails its check.
    """
    rows = face_rows(face)
    rays = [_edge_rays(edge) for edge in face]
    sigmas = [(us + ut, vs + vt) for (us, ut), (vs, vt) in rays]
    if all(max(pair) <= 0 for pair in sigmas):
        lam = (1, 1) + tuple(x for su, sv in sigmas for x in (-sv, -su))
        gens = effective_generators(rows).generators
        sums = [sum(map(mul, lam, column)) for column in zip(*gens)]
        if min(lam) >= 0 and any(lam) and len(lam) == len(gens) and not any(sums):
            return ConeLineDiagnostic(lam, None), None
        raise PartitionFailure(f"face {face_key(face)}: the line combination {lam} "
                               f"fails its check, and sigma gives no interior point")
    k = 1 + max(0, -sum(map(sum, sigmas)))
    points = []
    for (u, v), (su, sv) in zip(rays, sigmas):
        w, sw = (u, su) if su >= sv else (v, sv)
        m = k if sw > 0 else 0
        points.append((u[0] + v[0] + m * w[0], u[1] + v[1] + m * w[1]))
    s_sum, t_sum = map(sum, zip(*points))
    witness = (t_sum - s_sum,) + tuple(2 * x for p in points for x in p)
    # <c, x/d> + b > 0 is <c, x> + b d > 0, since d > 0.
    d = 1 + abs(sum(witness[2::2]))
    inside = all(sum(map(mul, f.coeffs, witness)) + f.const * d > 0 for f in rows)
    return (ConeLineDiagnostic(None, witness),
            tuple(Fraction(x, d) for x in witness) if inside else None)


def degenerate_face_report(q, rows):
    """Compare the volume-zero edge multisets against the cone diagnostic.

    rows are multiset_rows(q), as jigsaw_check's report keeps them.
    interior_certificate runs once per row: a multiset is strictly feasible
    when its checked witness point exists, and its effective cone contains
    a line when the line combination does.  For q = 1 the report also
    records whether the reference face ((57),(57)) is among the degenerate
    ones - it is not under these inequality systems, and the report states
    the discrepancy rather than resolving it.
    """
    certified = [(face_key(edges), volume, *interior_certificate(edges))
                 for edges, _, volume in rows]
    volume_zero = [key for key, volume, _, _ in certified if volume == 0]
    strict_zero = [key for key, _, _, point in certified if point is None]
    cone_line = [key for key, _, diagnostic, _ in certified if diagnostic.contains_line]
    report = {
        "q": q,
        "volume_zero_multisets": volume_zero,
        "strict_feasibility_zero_multisets": strict_zero,
        "cone_line_multisets": cone_line,
        "oracles_agree": volume_zero == strict_zero,
    }
    if q == 1:
        ref = face_key(REFERENCE_EMPTY_INTERIOR_FACE_Q1)
        report["reference_empty_interior_face"] = ref
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


def _pyramid_rows(q):
    return pull_back(_union_rows(q), census_change_of_variables(q))


def pyramid_polytope(q):
    """P' in coordinates (a0, a1, a2, u_{1,1}, ..., u_{q,2}): P pulled back
    by census_change_of_variables, a pyramid with apex at the origin over
    the base at a2 = 1."""
    return HPolytope(ambient_dimension(q), _pyramid_rows(q))


def pyramid_base_polytope(q):
    """P'_0, the base of the pyramid at a2 = 1, in dimension 2q + 2."""
    return HPolytope(2 * q + 2, fix_coordinates(_pyramid_rows(q), {2: 1}))


@dataclass(frozen=True)
class SlicePiece:
    area: Fraction
    vertex_count: int
    vertices: tuple


@dataclass(frozen=True)
class SliceCensus:
    q: int
    a1: Fraction
    pieces: dict
    positive_count: int
    total_area: Fraction
    union_verified: bool

    def to_json_dict(self):
        return {
            "q": self.q,
            "a1": str(self.a1),
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


def census_rows():
    """Each q = 1 face's rows, pulled back by the pyramid change of variables."""
    matrix = census_change_of_variables(1)
    return {face: pull_back(face_rows(face), matrix) for face in all_faces(1)}


def slice_census(a1, rows=None):
    """Cross-section mosaic of the q = 1 face polytopes at a2 = 1 and a given a1.

    Each face's pulled-back rows (census_rows(), which a caller slicing many
    censuses passes as rows) are fixed at (a0, a1, a2=1); the pieces are
    polygons in the remaining coordinates (u_{1,1}, u_{1,2}) that tile the
    rectangle [0, a1] x [0, 1].  a0 enters only the common rows a1 <= a0 <=
    a2 (a test checks it), so every a0 in [a1, 1] gives the same pieces:
    a0 = (1 + a1) / 2 here.  Returns per-face areas and vertex counts plus
    the exact union check.
    """
    a1 = Fraction(a1)
    if not (0 < a1 <= 1):
        raise OutOfRange("need 0 < a1 <= 1")
    if rows is None:
        rows = census_rows()
    fixed = {0: (1 + a1) / 2, 1: a1, 2: 1}
    pieces = {}
    positive = []
    total = Fraction(0)
    for face, pulled in rows.items():
        piece = HPolytope(2, fix_coordinates(pulled, fixed))
        area = piece.volume()
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
        q=1, a1=a1, pieces=pieces,
        positive_count=len(positive), total_area=total,
        union_verified=union_ok,
    )
