"""Shared helpers of the test suite, and every second route that `dp4` does not run.

Here, or in the one test module that reads it, lives each oracle: points and
heights by gcd and triple loops over Z and Z[i], the torsor descent, simple
polytopes, the Picard lattice, brute-force routes for the kernels, and the
count report and the Euler product's norms built whole.
tests/test_src_is_production.py keeps them out of `src/`.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, gcd, isqrt
from operator import mul

import numpy as np

from dp4jigsaw import jigsaw
from dp4jigsaw import surface as S
from dp4jigsaw.constants import kronecker_symbol
from dp4jigsaw.errors import Dp4Error, DimensionMismatch, IndexOutOfRange, NotPrime
from dp4jigsaw.gaussian import GaussInt, exact_div
from dp4jigsaw.geometry import (AffineForm, HPolytope, _dd, _simplex,
                                cone_contains_line, fix_coordinates, pull_back)
from dp4jigsaw.geometry._intlinalg import (_scale_to_int, affine_rank, bareiss_det,
                                           clear_denominators, frac_det, int_rank,
                                           solve_square)
from dp4jigsaw.geometry.polytope import ConeLineDiagnostic, _full_dimensional
from dp4jigsaw.jigsaw import _FaceCache, all_faces
from dp4jigsaw.reporting import CSV_HEADER
from dp4jigsaw.torsor import enumerate_normalized, validate


#: sha256 of constants.json from `dp4 constant --field <label>` at the
#: default prime bound.  math.fsum over the same terms writes the same bytes.
CONSTANTS_DIGESTS = {
    "Q": "06e59c20997c277a0306221c35b1d3eb2e086a0d3b3fdf07b28bda8999e2b9bc",
    "Q(i)": "65e18ce2800bf2059f085153f6bfdc5e3386e38ffb8afd81104dd4b84f235129",
    "Q(sqrt-3)": "009a8fe19f0756727eed01056cdc34b69523cec29e699fa0d90e56e995ffd3d5",
    "Q(sqrt2)": "ddd7484d7231d6a7c04eed71e0d22ba093c0b48917d26bc3d67362e2e8ee9e36",
}


def random_unimodular(rng, dim, max_entry=3):
    """Random integer unimodular matrix with small entries (shear products)."""
    while True:
        m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(dim), 2)
            s = rng.choice([-1, 1])
            for k in range(dim):
                m[i][k] += s * m[j][k]
        if max(abs(x) for row in m for x in row) <= max_entry:
            return m


def box(bounds):
    """Axis-aligned box from [(lo, hi), ...]."""
    dim = len(bounds)
    unit = [[int(i == k) for i in range(dim)] for k in range(dim)]
    return HPolytope(dim, [form for e, (lo, hi) in zip(unit, bounds)
                           for form in (AffineForm.ge(e, lo), AffineForm.le(e, hi))])


def standard_simplex(dim, scale=1):
    rows = [AffineForm.ge([int(i == k) for i in range(dim)], 0) for k in range(dim)]
    return HPolytope(dim, rows + [AffineForm.le([1] * dim, scale)])


def product_polytope(p1, p2):
    """The Cartesian product, with block-embedded inequality rows."""
    d1, d2 = p1.dimension, p2.dimension
    rows = [AffineForm(form.coeffs + (0,) * d2, form.const) for form in p1.inequalities]
    rows += [AffineForm((0,) * d1 + form.coeffs, form.const) for form in p2.inequalities]
    return HPolytope(d1 + d2, rows)


def slice_polytope(p, fixed):
    """Substitute fixed coordinate values; polytope in the remaining coords."""
    indices = [i for i, _ in fixed]
    if len(set(indices)) != len(indices):
        raise DimensionMismatch("fixed indices must be distinct")
    if any(i < 0 or i >= p.dimension for i in indices):
        raise DimensionMismatch("fixed index outside ambient dimension")
    rows = fix_coordinates(p.inequalities, dict(fixed))
    return HPolytope(p.dimension - len(indices), rows)


def evaluate(form, point):
    """The exact value <coeffs, point> + const of an AffineForm."""
    return sum(Fraction(c) * Fraction(x) for c, x in zip(form.coeffs, point)) + form.const


def strictly_contains(p, point):
    """Does every inequality of p hold strictly at the point?"""
    if len(point) != p.dimension:
        raise DimensionMismatch("point length != dimension")
    return all(evaluate(form, point) > 0 for form in p.inequalities)


def transform_polytope(p, matrix):
    """Pull back along x = M y: the polytope {y : M y in p}."""
    return HPolytope(len(matrix[0]), pull_back(p.inequalities, matrix))


#: A square pyramid with its apex (3, 1, 2) off the square [0, 2]^2 x {0}:
#: four facets meet at the apex, so two facets can meet in a vertex alone.
#: (dim, rows) for HPolytope; its volume is 8/3.
OBLIQUE_PYRAMID = (3, [(0, 0, 1, 0), (2, 0, -3, 0), (-2, 0, 1, 4), (0, 2, -1, 0),
                       (0, -2, -1, 4)])


def _rank_triangulation(indices, face_dim, tight_sets, coords, memo):
    """Triangulate a face whose facets are the sets F & tight of affine rank dim F - 1.

    The facet rule by rank, a second route to polytope._triangulate_face,
    which takes the sets maximal under inclusion.
    """
    cached = memo.get(indices)
    if cached is not None:
        return cached
    if face_dim == 0:
        result = [tuple(indices)]
    else:
        base = min(indices)
        subfaces = {indices & tight for tight in tight_sets} - {indices, frozenset()}
        result = [simplex + (base,)
                  for sub in sorted(subfaces, key=sorted)
                  if base not in sub
                  and affine_rank([coords[i] for i in sub]) == face_dim - 1
                  for simplex in _rank_triangulation(sub, face_dim - 1, tight_sets,
                                                     coords, memo)]
    memo[indices] = result
    return result


def fraction_volume(dim, forms, vertices):
    """Oracle for polytope._volume: facets by rank, on the Fraction vertices."""
    if not _full_dimensional(dim, vertices):
        return Fraction(0)
    coords = list(vertices)  # sorted, so the triangulation is deterministic
    tight_sets = []
    for form in forms:
        tight = frozenset(i for i, v in enumerate(coords) if evaluate(form, v) == 0)
        if tight:
            tight_sets.append(tight)
    total = Fraction(0)
    for simplex in _rank_triangulation(frozenset(range(len(coords))), dim,
                                       tight_sets, coords, {}):
        apex = coords[simplex[-1]]
        matrix = [[coords[i][j] - apex[j] for j in range(dim)] for i in simplex[:-1]]
        total += abs(frac_det(matrix))
    return total / factorial(dim)


def null_space(matrix, dim):
    """A basis of {z in Q^dim : m z = 0 for every row m}, by reduced row echelon form."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        z = [Fraction(0)] * dim
        z[free] = Fraction(1)
        for r, col in enumerate(pivots):
            z[col] = -rows[r][free]
        basis.append(z)
    return basis


def row_values(rows, z):
    """The primitive integer vector of <h, z> over the rows: z modulo the lineality."""
    return clear_denominators([sum(map(mul, h, z)) for h in rows])


def brute_extreme_rays(dim, rows):
    """The extreme rays of {z : <h, z> >= 0 for h in rows}, each as its row_values.

    With r the rank of the rows, an extreme ray is cut out by r - 1 of them of
    rank r - 1: their null space is the lineality plus one direction w, and
    w or -w is a ray iff its row values all have one sign.  Every subset of
    r - 1 rows is tried.
    """
    rank = int_rank(rows)
    found = set()
    for subset in combinations(rows, rank - 1) if rank else ():
        basis = null_space(subset, dim)
        if len(basis) != dim - rank + 1:
            continue  # the subset has rank below r - 1
        w = next(v for v in (row_values(rows, z) for z in basis) if any(v))
        if min(w) >= 0:
            found.add(w)
        elif max(w) <= 0:
            found.add(tuple(-x for x in w))
    return found


def homogenized(forms):
    """(dim + 1, rows) of the homogenization cone of {x : forms}, as _vertices_dd builds it."""
    dim = len(forms[0].coeffs)
    return dim + 1, [(0,) * dim + (1,)] + [form.as_row() for form in forms]


def check_dd_cone(dim, rows):
    """Assert that dd_cone generates {z : <h, z> >= 0 for h in rows}.

    The lineality vectors are independent, tight on every row and as many
    as the cone's lineality needs; every ray meets every row and is extreme,
    with tight rows of rank dim - 1 - len(lineality); no two rays agree
    modulo the lineality.  At small sizes the rays are also every ray of
    brute_extreme_rays.
    """
    lineality, rays = _dd.dd_cone(dim, rows)  # read at call time, so a planted one is checked
    assert len(lineality) == int_rank(lineality) == dim - int_rank(rows)
    assert all(sum(map(mul, h, ell)) == 0 for h in rows for ell in lineality)
    for ray in rays:
        values = [sum(map(mul, h, ray)) for h in rows]
        assert min(values, default=0) >= 0
        tight = [h for h, value in zip(rows, values) if value == 0]
        assert int_rank(tight) == dim - 1 - len(lineality)
    found = {row_values(rows, ray) for ray in rays}
    assert len(found) == len(rays)
    if dim <= 6 and len(rows) <= 9:
        assert found == brute_extreme_rays(dim, rows)


def monte_carlo_volume(p, samples=1_000_000, seed=0):
    """Float hit-rate estimate of the volume; a sanity oracle, not a proof."""
    if not p.vertices:
        return 0.0
    verts = np.array([[float(x) for x in v] for v in p.vertices])
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    widths = hi - lo
    if np.any(widths == 0):
        return 0.0
    rng = np.random.RandomState(seed)
    pts = rng.uniform(lo, hi, size=(samples, p.dimension))
    ok = np.ones(samples, dtype=bool)
    for form in p.inequalities:
        vals = pts @ np.array([float(c) for c in form.coeffs]) + float(form.const)
        ok &= vals >= 0
    return float(ok.mean() * np.prod(widths))


def naive_torsor_count(b):
    """Oracle for torsor_count: scan a8 over its whole interval per pair (a1, a2)."""
    total = 0
    for a1 in range(1, b + 1):
        for a2 in range(1, b // a1 + 1):
            lo = -(b // a2)
            hi = (b - 1) // a2
            a8 = np.arange(lo, hi + 1, dtype=np.int64)
            total += 2 * int(((a8 * a2 + 1) % a1 == 0).sum())
    return total


def lifted_height_counts_loop(b):
    """Oracle for torsor.torsor_height_counts: one arange of a8 and one
    np.add.at per coprime pair (a1, a2), in plain Python loops."""
    hist = np.zeros(b + 1, dtype=np.int64)
    for a1 in range(1, b + 1):
        for a2 in range(1, b // a1 + 1):
            if gcd(a1, a2) != 1:
                continue
            lo = -(b // a2)
            hi = (b - 1) // a2
            r = (-pow(a2, -1, a1)) % a1
            first = lo + (r - lo) % a1
            a8 = np.arange(first, hi + 1, a1, dtype=np.int64)
            if a8.size == 0:
                continue
            # The a8 range keeps |y| <= b and |y + 1| <= b, so every h <= b.
            y = a2 * a8
            np.add.at(hist, np.maximum(a1 * a2, np.maximum(np.abs(y), np.abs(y + 1))), 2)
    return hist.cumsum()


def full_range_count(b):
    """Oracle: the per-a1 loop over the whole a2 range (a1, B // a1].

    O(B) memory at a1 = 1 and a Python pow table per a1; independent of the
    closed form, the hyperbola split and the vectorized inverses.
    """
    total = 4 * b  # the pair (1, 1)
    for a1 in range(1, isqrt(b) + 1):
        a2 = np.arange(a1 + 1, b // a1 + 1, dtype=np.int64)
        inv = np.array([pow(i, -1, a1) if gcd(i, a1) == 1 else -1
                        for i in range(a1)], dtype=np.int64)
        r = inv[a2 % a1]
        ok = r >= 0
        r = np.where(ok, (-r) % a1, 0)
        lo = -(b // a2)
        hi = (b - 1) // a2
        count = (hi - r) // a1 + (r - lo) // a1 + 1
        total += 4 * int(np.where(ok, np.maximum(count, 0), 0).sum())
    return total


def product_inverse_table(m):
    """Oracle for torsor._inverse_table: the spf product over the whole range 0..m-1.

    No mirror: every residue is filled as inv[spf(i)] * inv[i / spf(i)]
    from the inverses of all primes below m, each by pow.
    """
    if m == 1:
        return np.zeros(1, dtype=np.int64)
    spf = np.arange(m, dtype=np.int64)
    for p in range(2, isqrt(m - 1) + 1):
        if spf[p] == p:
            spf[p * p::p] = np.minimum(spf[p * p::p], p)
    cof = np.arange(m, dtype=np.int64) // np.maximum(spf, 1)
    inv = np.zeros(m, dtype=np.int64)
    inv[1] = 1
    for p in range(2, m):
        if spf[p] == p and gcd(p, m) == 1:
            inv[p] = pow(p, -1, m)
    lo = 2
    while lo < m:
        hi = min(2 * lo, m)
        inv[lo:hi] = inv[spf[lo:hi]] * inv[cof[lo:hi]] % m
        lo = hi
    inv[inv == 0] = -1
    return inv


def a8_side_counts_elementwise(a1, bound, inv):
    """Oracle for the a8 side of torsor._pair_counts_fast: the count per a8, over 1..M.

    Pairs (a2, +-a8) with K < a2 <= B // a1, one a1 >= 2; inv is the
    inverse table mod a1 (-1 for a non-unit).
    """
    k = isqrt(bound)
    a8 = np.arange(1, bound // (k + 1) + 1, dtype=np.int64)
    cap = bound // a1
    r = inv[a8 % a1]
    ok = r >= 0
    up = np.minimum((bound - 1) // a8, cap)
    un = np.minimum(bound // a8, cap)
    rp = (-r) % a1            # a2 class for +a8
    count = ((up - rp) // a1 - (k - rp) // a1
             + (un - r) // a1 - (k - r) // a1)
    return int(count[ok].sum())


def pair_counts_elementwise(a1, bound, inv):
    """Oracle for the a2 <= K side of torsor._pair_counts_fast: a8 solutions per a2 in (a1, K]."""
    a2 = np.arange(a1 + 1, isqrt(bound) + 1, dtype=np.int64)
    lo = -(bound // a2)
    hi = (bound - 1) // a2
    r = inv[a2 % a1]
    ok = r >= 0
    r = np.where(ok, (-r) % a1, 0)
    count = (hi - r) // a1 + (r - lo) // a1 + 1
    return int(np.where(ok, np.maximum(count, 0), 0).sum())


def enumerate_valid(coord_bound):
    """All valid torsor points with every |a_i| <= coord_bound (exhaustive)."""
    m = coord_bound
    points = []
    units = (1, -1)
    sign_combos = [(a3, a4, a5, a6, a7)
                   for a3 in units for a4 in units for a5 in units
                   for a6 in units for a7 in units]
    for a3, a4, a5, a6, a7 in sign_combos:
        c = a3 * a4 * a4 * a5 ** 3 * a7
        for a2 in range(-m, m + 1):
            for a8 in range(-m, m + 1):
                rest = -(a2 * a8 + c)
                # a1 * a9 = rest with both factors bounded
                for a1 in range(-m, m + 1):
                    if a1 == 0:
                        if rest == 0:
                            for a9 in range(-m, m + 1):
                                points.append(validate(
                                    (0, a2, a3, a4, a5, a6, a7, a8, a9)))
                        continue
                    if rest % a1 != 0:
                        continue
                    a9 = rest // a1
                    if abs(a9) <= m:
                        points.append(validate(
                            (a1, a2, a3, a4, a5, a6, a7, a8, a9)))
    return points


def edge_multisets(q):
    """The multiplicities of every multiset of q + 1 edges, in jigsaw.multiset_rows order."""
    return [jigsaw.multiplicities(edges)
            for edges in combinations_with_replacement(jigsaw.EDGE_LABELS, q + 1)]


def overlapping_faces(q):
    """Every pair of distinct faces whose interiors meet, by exact pairwise checks."""
    cache = _FaceCache()
    faces = all_faces(q)
    return [(f, g) for i, f in enumerate(faces) for g in faces[i + 1:]
            if not cache.pair_disjoint(f, g)]


#: The poles tau/sigma of the rays (0, 1), (-1, 3), (-1, 2) of the real fan.
REAL_FAN_POLES = (Fraction(1), Fraction(3, 2), Fraction(2))


def face_volume_fractions(m57, m45, m34, m36):
    """Oracle for jigsaw.face_volume on the real fan, summed in Fractions.

    The poles and the numbers of coordinates e on the rays with sigma > 0
    are written out here rather than read off jigsaw.edge_fan(); sigma = 2
    on (-1, 3) gives the factor 2^(-e_2).
    """
    q = m57 + m45 + m34 + m36 - 1
    k = m36 + 1
    factors = []
    for e, pole in zip((m57, m57 + m45, m45 + m34), REAL_FAN_POLES):
        if e == 0:
            factors.append([1] + [0] * k)
        else:
            inv = 1 / pole
            factors.append([comb(e + j - 1, j) * inv ** (e + j) for j in range(k + 1)])
    f1, f2, f3 = factors
    total = sum((f1[j1] * f2[j2] * f3[k - j1 - j2]
                 for j1 in range(k + 1) for j2 in range(k + 1 - j1)), Fraction(0))
    return total / (2 ** (m57 + m45) * factorial(2 * q + 3))


def dd_interior_certificate(face):
    """Oracle for jigsaw.interior_certificate: one double description per face.

    cone_contains_line decides the effective cone.  A separating functional
    u gives the candidate u / (1 + |sum_n u_{n,2}|), returned only if every
    face row is positive there; a line combination means there is no
    interior point.
    """
    rows = jigsaw.face_rows(face)
    diagnostic = cone_contains_line(jigsaw.effective_generators(rows))
    u = diagnostic.separating_functional
    if u is None:
        return diagnostic, None
    d = 1 + abs(sum(u[2::2]))
    inside = all(sum(map(mul, f.coeffs, u)) + f.const * d > 0 for f in rows)
    return diagnostic, tuple(Fraction(x, d) for x in u) if inside else None


def fraction_fix_coordinates(forms, values):
    """Oracle for polytope.fix_coordinates: the substitution in Fraction."""
    values = {i: Fraction(v) for i, v in values.items()}
    return [AffineForm.make([c for i, c in enumerate(f.coeffs) if i not in values],
                            f.const + sum(f.coeffs[i] * v for i, v in values.items()))
            for f in forms]


def fraction_det(matrix):
    """Oracle for _intlinalg.frac_det: the determinant as a Fraction, always."""
    scaled = []
    denom = 1
    for row in matrix:
        ints, mult = _scale_to_int(row)
        scaled.append(ints)
        denom *= mult
    return Fraction(bareiss_det(scaled), denom)


def lp_cone_contains_line(cone):
    """Oracle for cone_contains_line: pointedness by exact linear feasibility."""
    gens = cone.generators
    dim = len(gens[0])
    m = len(gens)
    # Feasibility of sum(lam_i g_i) = 0, sum(lam_i) = 1, lam >= 0.
    a_matrix = [[gens[i][j] for i in range(m)] for j in range(dim)]
    a_matrix.append([1] * m)
    b_vector = [0] * dim + [1]
    ok, cert = _simplex.feasible(a_matrix, b_vector)
    if ok:
        lam = clear_denominators(cert[:m])
        assert all(x >= 0 for x in lam) and any(lam)
        assert all(sum(lam[i] * gens[i][j] for i in range(m)) == 0 for j in range(dim))
        return ConeLineDiagnostic(tuple(lam), None)
    # Farkas (u, t): u.g_i + t <= 0 for all i, t > 0; so -u separates.
    u = cert[:dim]
    w = clear_denominators([-x for x in u])
    assert all(sum(w[j] * g[j] for j in range(dim)) > 0 for g in gens)
    return ConeLineDiagnostic(None, tuple(w))


def lp_strictly_feasible(p):
    """Oracle for strictly_feasible: the margin LP.

    Maximizes the margin t subject to <c,x> + b >= t per row and t <= 1;
    the polytope is full-dimensional iff the optimum is positive.
    """
    dim = p.dimension
    rows = [f.as_row() for f in p.inequalities]
    if not rows:
        return True
    m = len(rows)
    ncols = 2 * dim + 2 + m + 1
    a_matrix = []
    b_vector = []
    for i, row in enumerate(rows):
        c = list(row[:dim])
        line = c + [-x for x in c] + [-1, 1] + [0] * (m + 1)
        line[2 * dim + 2 + i] = -1
        a_matrix.append(line)
        b_vector.append(-row[dim])
    tline = [0] * (2 * dim) + [1, -1] + [0] * m + [1]
    a_matrix.append(tline)
    b_vector.append(1)
    cost = [0] * ncols
    cost[2 * dim] = -1
    cost[2 * dim + 1] = 1
    result = _simplex.solve_lp(cost, a_matrix, b_vector)
    assert result.status == _simplex.OPTIMAL
    return -result.objective > 0


def hand_pyramid_polytope(q):
    """Oracle for jigsaw.pyramid_polytope: P' from its own inequality list."""
    dim = jigsaw.ambient_dimension(q)

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


def hand_pyramid_base_polytope(q):
    """Oracle for jigsaw.pyramid_base_polytope: P'_0 from its own inequality list."""
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


# ---------------------------------------------------------------------------
# Points on the surface by gcd, and the triple loops that assume no normal form
# ---------------------------------------------------------------------------

class NotOnSurface(Dp4Error):
    """The point does not satisfy both defining equations."""


class OnBoundary(Dp4Error):
    """The point lies on the boundary line L = {x0 = x2 = x3 = 0}."""


class DegenerateCoordinates(Dp4Error):
    """Height is undefined when (x0, x2, x3) = (0, 0, 0)."""


def gaussian_add(z, w):
    """z + w: dp4 never adds Gaussian integers, so GaussInt has no __add__."""
    return GaussInt(z.re + w.re, z.im + w.im)


def gaussian_divides(w, z):
    """Does the nonzero Gaussian integer w divide z?"""
    num = z * w.conj()
    return num.re % w.norm() == 0 and num.im % w.norm() == 0


def gaussian_gcd(values):
    """A gcd of Gaussian integers (unique up to units), by Euclid with nearest quotients."""
    g = GaussInt(0, 0)
    for w in values:
        while w:  # g = q*w + r with N(r) <= N(w)/2
            num, n = g * w.conj(), w.norm()
            q = GaussInt((2 * num.re + n) // (2 * n), (2 * num.im + n) // (2 * n))
            g, w = w, g - q * w
    return g


def make_point(coords, ring=S.INTEGERS):
    """The ProjectivePoint of any nonzero 5-tuple: divided by its gcd, then canonical."""
    if len(coords) != 5:
        raise DimensionMismatch("projective points here have 5 coordinates")
    if not any(coords):
        raise DegenerateCoordinates("all coordinates are zero")
    if ring == S.INTEGERS:
        g = gcd(*coords)
        return S.ProjectivePoint.from_primitive(tuple(int(c) // g for c in coords), ring)
    coords = [c if isinstance(c, GaussInt) else GaussInt(int(c), 0) for c in coords]
    g = gaussian_gcd(coords)
    return S.ProjectivePoint.from_primitive(tuple(exact_div(c, g) for c in coords), ring)


def direct_count(bound, ring=S.INTEGERS):
    """surface.direct_counts at one bound."""
    return S.direct_counts([bound], ring=ring)[0]


def on_surface(pt):
    """surface.on_surface over Z and Z[i].  dp4 tests the forms at points over
    Z only, so GaussInt has no +, and the sum is taken here over Z[i]."""
    if pt.ring == S.INTEGERS:
        return S.on_surface(pt)
    x0, x1, x2, x3, x4 = pt.coords
    return not (x0 * x3 - x2 * x4 or gaussian_add(gaussian_add(x0 * x1, x1 * x3), x2 * x2))


def on_lines(pt):
    """The subset of the three lines containing the point."""
    if not on_surface(pt):
        raise NotOnSurface(f"{pt} does not satisfy the surface equations")
    return lines_through(*pt.coords)


def _size_and_gcd(pt):
    """(max |x|, |gcd|) over x0, x2, x3 on Z; with norms in place of |.| on Z[i]."""
    x = pt.coords[0], pt.coords[2], pt.coords[3]
    if pt.ring == S.INTEGERS:
        return max(map(abs, x)), gcd(*x)
    return max(c.norm() for c in x), gaussian_gcd(x).norm()


def is_integral(pt):
    """Is the coordinate ideal of (x0, x2, x3) the unit ideal?"""
    if S.LINE_L in on_lines(pt):
        raise OnBoundary(f"{pt} lies on the boundary line")
    return _size_and_gcd(pt)[1] == 1


def height(pt):
    """Log anticanonical height: product over places of max(|x0|, |x2|, |x3|)."""
    size, g = _size_and_gcd(pt)
    if not g:
        raise DegenerateCoordinates("height undefined: x0 = x2 = x3 = 0")
    return Fraction(size, g)


def heights_triple_z(bound):
    """Oracle for surface.direct_height_counts over Z: the height histogram of
    integral points off the lines, by a triple loop over (x0, x2, x3)."""
    hist = np.zeros(bound + 1, dtype=np.int64)
    for x0 in range(0, bound + 1):
        for x2 in range(1 if x0 == 0 else -bound, bound + 1):
            for x3 in range(-bound, bound + 1):
                s = x0 + x3
                if (x2 and s and (x2 * x2) % s == 0 and (x0 * x3) % x2 == 0
                        and gcd(x0, x2, x3) == 1):
                    hist[max(x0, abs(x2), abs(x3))] += 1
    return hist


def heights_triple_zi(bound):
    """The same oracle over Z[i], on canonical triples of N-height <= bound."""
    r = isqrt(bound)
    shell = [GaussInt(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
             if 0 < a * a + b * b <= bound]
    canon = [z for z in shell if z.re > 0 and z.im >= 0]
    zero = GaussInt(0, 0)
    hist = np.zeros(bound + 1, dtype=np.int64)
    for x0 in [zero] + canon:
        for x2 in (shell if x0 else canon):
            for x3 in shell + [zero]:
                s = gaussian_add(x0, x3)
                if (s and gaussian_divides(s, x2 * x2) and gaussian_divides(x2, x0 * x3)
                        and gaussian_gcd([x0, x2, x3]).norm() == 1):
                    hist[max(x0.norm(), x2.norm(), x3.norm())] += 1
    return hist


def lines_through(x0, x1, x2, x3, x4):
    """The subset of the three lines whose equations hold at a coordinate tuple."""
    out = set()
    if not (x0 or x2 or x3):
        out.add(S.LINE_L)
    if not (x1 or x2 or x3):
        out.add(S.LINE_LP)
    if not (x0 or x1 or x2):
        out.add(S.LINE_LPP)
    return out


def surface_mod_p(p):
    """(x, lines_through(*x)) for every x in P^4(F_p) on the surface: the
    tuple census that surface.count_mod_p runs on arrays.

    x runs over the canonical representatives, leading coordinate 1, as
    tuples of residues in [0, p), so a coordinate vanishes mod p exactly
    when it is 0.  NotPrime unless p is prime.
    """
    if p not in S.primes_up_to(p).tolist():
        raise NotPrime(f"{p} is not prime")
    for lead in range(5):
        for tail in product(range(p), repeat=4 - lead):
            x = (0,) * lead + (1,) + tail
            eq1, eq2 = S._forms(*x)
            if eq1 % p or eq2 % p:
                continue
            yield x, lines_through(*x)


def count_mod_p_tuples(p):
    """surface.count_mod_p by the tuple census: the points off L."""
    return sum(S.LINE_L not in lines for _, lines in surface_mod_p(p))


def line_count_mod_p(p):
    """|L(F_p)| = p + 1: points with x0 = x2 = x3 = 0, all on the surface."""
    return sum(S.LINE_L in lines for _, lines in surface_mod_p(p))


def surface_x2_zero_is_lines(p):
    """Exhaustive check that S intersected with {x2 = 0} is the three lines."""
    return all((x[2] == 0) == bool(lines) for x, lines in surface_mod_p(p))


# ---------------------------------------------------------------------------
# Descent from the torsor to the surface
# ---------------------------------------------------------------------------

def map_to_surface(point):
    """Descent to the surface; the image is primitive and canonical."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9 = point.a
    x0 = a2 * a3 * a4 * a5 * a6 * a7 * a8
    x1 = a1 ** 2 * a2 ** 2 * a3 ** 2 * a4 * a6 ** 3
    x2 = a1 * a2 * a3 ** 2 * a4 ** 2 * a5 ** 2 * a6 ** 2 * a7
    x3 = a1 * a3 * a4 * a5 * a6 * a7 * a9
    x4 = a7 * a8 * a9
    return make_point((x0, x1, x2, x3, x4))


def lifted_height(point):
    """max(|a2*a8|, |a1*a2*a3*a4*a5*a6|, |a1*a9|); equals the surface height."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9 = point.a
    return Fraction(max(abs(a2 * a8), abs(a1 * a2 * a3 * a4 * a5 * a6), abs(a1 * a9)))


def fibers_over_points(bound):
    """Group the normalized torsor points of height <= bound by surface image."""
    fibers = {}
    for point in enumerate_normalized(bound):
        fibers.setdefault(map_to_surface(point), []).append(point)
    return fibers


# ---------------------------------------------------------------------------
# Picard lattice of the resolved surface, a sequence of five blow-ups of the
# plane: Z^6 with basis (l0, ..., l5), l0 the pullback of a line class and
# l1..l5 the exceptional classes; the boundary components A3..A8 form a
# second basis.
# ---------------------------------------------------------------------------

#: deg(a_i) in the basis (l0, .., l5), for i = 1..9.
L_DEGREES = {
    1: (0, 0, 0, 0, 0, 1),      # l5
    2: (0, 0, 0, 0, 1, 0),      # l4
    3: (0, 1, -1, 0, 0, 0),     # l1 - l2
    4: (0, 0, 1, -1, 0, 0),     # l2 - l3
    5: (0, 0, 0, 1, 0, 0),      # l3
    6: (1, -1, 0, 0, -1, -1),   # l0 - l1 - l4 - l5
    7: (1, -1, -1, -1, 0, 0),   # l0 - l1 - l2 - l3
    8: (1, 0, 0, 0, -1, 0),     # l0 - l4
    9: (1, 0, 0, 0, 0, -1),     # l0 - l5
}

#: log anticanonical class -K - D = l0.
LOG_ANTICANONICAL_L = (1, 0, 0, 0, 0, 0)

#: Column j holds the l-coordinates of the boundary basis class [A_{j+3}].
_A_TO_L = [[L_DEGREES[i][r] for i in (3, 4, 5, 6, 7, 8)] for r in range(6)]


@dataclass(frozen=True)
class DivisorClass:
    """A Picard class in both coordinate systems, kept consistent."""

    coords_l: tuple
    coords_A: tuple

    @staticmethod
    def from_l(coords_l):
        coords_l = tuple(int(x) for x in coords_l)
        sol = solve_square(_A_TO_L, coords_l)
        assert sol is not None, "boundary classes must form a basis"
        assert all(x.denominator == 1 for x in sol), "base change must stay integral"
        return DivisorClass(coords_l, tuple(int(x) for x in sol))

    @staticmethod
    def from_A(coords_A):
        coords_A = tuple(int(x) for x in coords_A)
        return DivisorClass(tuple(sum(m * x for m, x in zip(row, coords_A))
                                  for row in _A_TO_L), coords_A)

    def __add__(self, other):
        return DivisorClass.from_l(tuple(a + b for a, b in zip(self.coords_l, other.coords_l)))

    def __rmul__(self, k):
        return DivisorClass.from_l(tuple(k * a for a in self.coords_l))


def generator_degree(i):
    """Degree of the Cox generator a_i, i = 1..9, in both bases."""
    if not 1 <= i <= 9:
        raise IndexOutOfRange(f"generator index {i} not in 1..9")
    return DivisorClass.from_l(L_DEGREES[i])


def torsor_monomial_degrees():
    """Degrees of the torsor-equation monomials a1*a9, a2*a8, a3*a4^2*a5^3*a7 (all l0)."""
    d = {i: generator_degree(i) for i in range(1, 10)}
    return d[1] + d[9], d[2] + d[8], d[3] + 2 * d[4] + 3 * d[5] + d[7]


# ---------------------------------------------------------------------------
# The count report and the Euler product's norms, each built whole
# ---------------------------------------------------------------------------

def whole_count_report(rows):
    """{file name: text} of counts.csv and counts.json, each built in one string:
    the CSV by one join, the JSON by json.dumps(sort_keys=True, indent=2)."""
    csv = [CSV_HEADER] + [",".join([
        str(r.bound), str(r.count), "" if r.predicted is None else repr(float(r.predicted)),
        "" if r.ratio is None else repr(float(r.ratio)), r.method, repr(float(r.elapsed)),
    ]) for r in rows]
    payload = {"counts": [{"B": str(r.bound), "count": r.count, "predicted": r.predicted,
                           "ratio": r.ratio, "method": r.method, "elapsed_s": r.elapsed}
                          for r in rows]}
    return {"counts.csv": "\n".join(csv) + "\n",
            "counts.json": json.dumps(payload, sort_keys=True, indent=2) + "\n"}


def whole_sieve_prime_norms(inv, bound):
    """Norms (with multiplicity) of the prime ideals of norm <= bound, from one
    sieve of 0..bound and one np.unique over every prime's class."""
    primes = S.primes_up_to(bound)
    if inv.degree == 1:
        return primes.tolist()
    d = inv.quad_disc
    period = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    _, first, cls = np.unique(primes % period, return_index=True, return_inverse=True)
    chi = np.array([kronecker_symbol(d, p) for p in primes[first].tolist()],
                   dtype=np.int8)[cls]
    norms = np.where(chi == -1, primes * primes, primes)
    return np.repeat(norms, np.where(chi == 1, 2, norms <= bound)).tolist()
