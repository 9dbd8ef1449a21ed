"""Exact rational polytopes: vertex enumeration, volumes, slices, cones.

All polytopes are closed and bounded; inequalities are normalized to
primitive integer rows <c, x> + b >= 0.  Vertices come from one route:
incremental double description of the homogenization cone, which also
reports emptiness and recession directions, with every vertex certified
by an integer rank check on its ray.  The brute-force active-set search
`_vertices_brute` is kept only as the reference the tests compare against.
Volumes come from a determinant triangulation fanned from a base vertex
over recursively triangulated facets, on the vertices scaled to integers.
The facets of a face are read off the vertex sets alone: the proper,
nonempty intersections of the face with the rows' tight sets that are
maximal under inclusion, with no rank check.
Full-dimensionality is read off the vertices; no linear program runs.
Cone pointedness by double description (cone_contains_line) serves only
the tests, as the oracle for the jigsaw's per-place cone certificates,
and the benchmark, which times it.

A polytope that is nonempty but not full-dimensional has volume exactly 0;
that is a meaningful output here, not an error.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from ..errors import DimensionMismatch, EmptyGeneratorList, UnboundedInput
from ._dd import dd_cone
from ._intlinalg import (affine_rank, clear_denominators, frac_det, int_rank,
                         primitive, solve_square)


@dataclass(frozen=True)
class AffineForm:
    """The halfspace <coeffs, x> + const >= 0, stored with integer entries."""

    coeffs: tuple
    const: int

    @staticmethod
    def make(coeffs, const):
        """Normalize rational input to a primitive integer row."""
        row = clear_denominators(list(coeffs) + [const])
        return AffineForm(tuple(row[:-1]), row[-1])

    @staticmethod
    def ge(coeffs, rhs=0):
        """<coeffs, x> >= rhs"""
        return AffineForm.make(coeffs, -Fraction(rhs))

    @staticmethod
    def le(coeffs, rhs=0):
        """<coeffs, x> <= rhs"""
        return AffineForm.make([-Fraction(c) for c in coeffs], Fraction(rhs))

    def as_row(self):
        return self.coeffs + (self.const,)


@dataclass(frozen=True)
class RationalCone:
    """A cone given by primitive integer generators."""

    generators: tuple

    @staticmethod
    def make(generators):
        gens = []
        for g in generators:
            vec = clear_denominators(g)
            if not any(vec):
                raise ValueError("cone generators must be nonzero")
            gens.append(vec)
        return RationalCone(tuple(gens))


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def _rows_of(forms):
    return [f.as_row() for f in forms]


def _vertices_brute(dim, rows):
    """Active-set search: solve every d-subset of rows, keep feasible points.

    The test suite's reference for `_vertices_dd`; no production code calls it.
    """
    coeff = [row[:dim] for row in rows]
    const = [row[dim] for row in rows]
    found = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        sol = solve_square([coeff[i] for i in subset], [-const[i] for i in subset])
        if sol is None:
            continue
        if all(sum(c * x for c, x in zip(coeff[i], sol)) + const[i] >= 0
               for i in range(len(rows))):
            found.add(sol)
    return found


def _vertices_dd(dim, rows):
    """Vertices via double description of the homogenization cone.

    Returns (vertex set, recession flag).  An empty polytope yields
    (empty set, False) regardless of homogeneous recession directions; a
    nonempty one with a line in it yields an empty vertex set and True.
    """
    t_row = tuple([0] * dim + [1])
    hom_rows = [t_row] + [tuple(row) for row in rows]
    lineality, rays = dd_cone(dim + 1, hom_rows)
    recession = bool(lineality) or any(ray[dim] <= 0 for ray in rays)
    # Primitive rays with t > 0 are the candidates, one per vertex x / t.
    candidates = {ray for ray in rays if ray[dim] > 0}
    if not candidates:
        return set(), False
    # Certify extremeness: a vertex must have d active rows of full rank.
    # Row (c, b) is active at x / t iff <c, x> + b t == 0, all in integers.
    certified = set()
    for ray in candidates:
        active = [row[:dim] for row in rows if sum(map(mul, row, ray)) == 0]
        if active and int_rank(active) == dim:
            certified.add(tuple(Fraction(x, ray[dim]) for x in ray[:dim]))
    return certified, recession


def _enumerate(dim, rows):
    """Sorted vertex tuple of {x : rows}, raising UnboundedInput."""
    if dim == 0:
        return ((),) if all(row[0] >= 0 for row in rows) else ()
    for row in rows:
        if not any(row[:dim]) and row[dim] < 0:
            return ()
    rows = [row for row in rows if any(row[:dim])]
    verts, recession = _vertices_dd(dim, rows)
    if recession:
        raise UnboundedInput(f"recession direction exists (dim={dim})")
    return tuple(sorted(verts))


def fix_coordinates(forms, values):
    """The rows with x_i = values[i] substituted, over the remaining coordinates.

    In integers: each row is scaled by D, the lcm of the values'
    denominators, so that every D x_i is an integer, then made primitive.
    """
    values = {i: Fraction(v) for i, v in values.items()}
    scale = lcm(*[v.denominator for v in values.values()])
    scaled = [(i, v.numerator * (scale // v.denominator)) for i, v in values.items()]
    rows = []
    for f in forms:
        row = primitive([c * scale for i, c in enumerate(f.coeffs) if i not in values]
                        + [f.const * scale + sum(f.coeffs[i] * x for i, x in scaled)])
        rows.append(AffineForm(row[:-1], row[-1]))
    return rows


def pull_back(forms, matrix):
    """The rows of {y : M y satisfies forms}: each row c becomes c M."""
    cols = range(len(matrix[0]))
    return [AffineForm.make([sum(c * row[j] for c, row in zip(f.coeffs, matrix))
                             for j in cols], f.const)
            for f in forms]


class HPolytope:
    """Bounded intersection of rational halfspaces.

    Construction normalizes and deduplicates the inequality rows, then runs
    vertex enumeration; unbounded input is rejected right away.  Instances
    are immutable and freely shareable.
    """

    __slots__ = ("dimension", "inequalities", "_vertices")

    def __init__(self, dimension, inequalities):
        if dimension < 0:
            raise DimensionMismatch("ambient dimension must be >= 0")
        forms = []
        seen = set()
        for ineq in inequalities:
            form = ineq if isinstance(ineq, AffineForm) else AffineForm.make(ineq[:-1], ineq[-1])
            if len(form.coeffs) != dimension:
                raise DimensionMismatch(
                    f"inequality length {len(form.coeffs)} != dimension {dimension}")
            if not any(form.coeffs) and form.const >= 0:
                continue  # trivially true
            if form.as_row() in seen:
                continue
            seen.add(form.as_row())
            forms.append(form)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "inequalities", tuple(forms))
        object.__setattr__(self, "_vertices",
                           _enumerate(dimension, _rows_of(forms)))

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    def __repr__(self):
        return (f"HPolytope(dim={self.dimension}, rows={len(self.inequalities)}, "
                f"vertices={len(self._vertices)})")

    @property
    def vertices(self):
        return self._vertices

    def volume(self):
        """Exact Lebesgue volume in the ambient dimension."""
        return _volume(self.dimension, self.inequalities, self._vertices)


# ---------------------------------------------------------------------------
# Volume by recursive facet triangulation
# ---------------------------------------------------------------------------

def _triangulate_face(indices, tight_sets, memo):
    """Triangulate the face with the given vertex-index set into simplices.

    The facets of a face F are the proper, nonempty sets F & tight that are
    maximal under inclusion; a face with one vertex is its own simplex.
    """
    cached = memo.get(indices)
    if cached is not None:
        return cached
    if len(indices) == 1:
        result = [tuple(indices)]
    else:
        base = min(indices)
        subs = {indices & tight for tight in tight_sets} - {indices, frozenset()}
        result = [simplex + (base,)
                  for sub in sorted(subs, key=sorted)
                  if base not in sub and not any(sub < other for other in subs)
                  for simplex in _triangulate_face(sub, tight_sets, memo)]
    memo[indices] = result
    return result


def _full_dimensional(dim, vertices):
    """True iff the vertices affinely span R^dim (so none means False)."""
    return len(vertices) > dim and affine_rank(list(vertices)) == dim


def _lattice(vertices):
    """(D, integer points D v): the vertices scaled by D, the lcm of their denominators."""
    scale = lcm(*[x.denominator for v in vertices for x in v])
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in v)
                   for v in vertices]


def _volume(dim, forms, vertices):
    """Triangulate D P, whose faces and ranks are P's, and divide by D^dim dim!."""
    scale, coords = _lattice(vertices)  # sorted, so the triangulation is deterministic
    if not _full_dimensional(dim, coords):
        return Fraction(0)
    tight_sets = []
    for form in forms:
        const = form.const * scale
        tight = frozenset(i for i, v in enumerate(coords)
                          if sum(map(mul, form.coeffs, v)) + const == 0)
        if tight:
            tight_sets.append(tight)
    total = 0  # frac_det of integer rows is an int
    for simplex in _triangulate_face(frozenset(range(len(coords))), tight_sets, {}):
        apex = coords[simplex[-1]]
        matrix = [[coords[i][j] - apex[j] for j in range(dim)] for i in simplex[:-1]]
        total += abs(frac_det(matrix))
    return Fraction(total, scale ** dim * factorial(dim))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _merged_rows_flat(p1, p2):
    rows = {}
    for form in p1.inequalities + p2.inequalities:
        rows.setdefault(form.as_row(), form)
    return list(rows.values())


def interiors_disjoint(p1, p2):
    """True iff the intersection polytope has exact volume 0.

    Volume 0 is equivalent to the intersection not being full-dimensional,
    which is what gets tested: opposite rows force the intersection into a
    hyperplane (or empty it) immediately; otherwise the intersection's
    vertex set is enumerated and its affine rank compared with the ambient
    dimension.
    """
    if p1.dimension != p2.dimension:
        raise DimensionMismatch("polytopes live in different dimensions")
    dim = p1.dimension
    forms = _merged_rows_flat(p1, p2)
    # <c,x> in [low, high] per direction c; low >= high kills the interior.
    bounds = {}
    for form in forms:
        coeffs = form.coeffs
        if not any(coeffs):
            if form.const < 0:
                return True  # empty intersection
            continue
        lead = coeffs[next(i for i, c in enumerate(coeffs) if c)]
        if lead > 0:
            entry = bounds.setdefault(coeffs, [None, None])
            low = -form.const
            if entry[0] is None or low > entry[0]:
                entry[0] = low
        else:
            canon = tuple(-c for c in coeffs)
            entry = bounds.setdefault(canon, [None, None])
            high = form.const
            if entry[1] is None or high < entry[1]:
                entry[1] = high
    for low, high in bounds.values():
        if low is not None and high is not None and low >= high:
            return True  # empty (>) or confined to a hyperplane (=)
    return not _full_dimensional(dim, _enumerate(dim, _rows_of(forms)))


@dataclass(frozen=True)
class ConeLineDiagnostic:
    """Outcome of the pointedness test for a rational cone.

    Exactly one of the two fields is set: a nonnegative nontrivial integer
    combination of the generators summing to zero (the cone contains a
    line), or an integer functional strictly positive on every generator
    (the cone is pointed).
    """

    line_combination: tuple
    separating_functional: tuple

    @property
    def contains_line(self):
        return self.line_combination is not None


def cone_contains_line(cone):
    """Decide pointedness of a rational cone by double description.

    Let s be the ray sum of the dual cone D = {u : <g, u> >= 0 for all g}.
    The cone is pointed iff some u has <g, u> > 0 for every g.  Such a u is
    interior to D, so D is full-dimensional, no nonzero g vanishes on all
    its rays, and <g, s> > 0: s decides, and separates.  Otherwise, by
    Gordan, {lam >= 0, sum(lam) = 1, sum(lam_i g_i) = 0} is a nonempty
    polytope, and any vertex of it is a line combination.
    """
    gens = cone.generators
    if not gens:
        raise EmptyGeneratorList("cone has no generators")
    dim = len(gens[0])
    _, rays = dd_cone(dim, gens)
    s = [sum(ray[j] for ray in rays) for j in range(dim)]
    if all(sum(g[j] * s[j] for j in range(dim)) > 0 for g in gens):
        return ConeLineDiagnostic(None, tuple(clear_denominators(s)))
    m = len(gens)
    rows = [AffineForm.ge([1] * m, 1), AffineForm.le([1] * m, 1)]
    rows += [AffineForm.ge([int(i == k) for i in range(m)], 0) for k in range(m)]
    for j in range(dim):
        coord = [g[j] for g in gens]
        rows += [AffineForm.ge(coord, 0), AffineForm.le(coord, 0)]
    lam = clear_denominators(HPolytope(m, rows).vertices[0])
    return ConeLineDiagnostic(tuple(lam), None)


def strictly_feasible(p):
    """Exact full-dimensionality oracle: does p have an interior point?

    A bounded polytope is the hull of its vertices, so it has an interior
    point iff it is nonempty and its vertices span the ambient space.
    """
    return _full_dimensional(p.dimension, p.vertices)
