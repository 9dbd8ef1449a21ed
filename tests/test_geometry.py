"""Exact-geometry tests: vertex enumeration, volumes, slices, cones.

Expected volumes for the Clemens face polytopes at q = 0 are frozen from
an independent 2-D oracle (see test_face_volume_oracle): the polytopes
project to (x, y)-regions whose a0-fiber is an interval of length x + y,
so the volume is the integral of x + y over the region; for a linear
integrand over a triangle that is area times the value at the centroid.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dp4jigsaw.errors import (DimensionMismatch, EmptyGeneratorList,
                              UnboundedInput)
from dp4jigsaw.geometry import (AffineForm, HPolytope, RationalCone,
                                cone_contains_line, interiors_disjoint,
                                strictly_feasible)
from dp4jigsaw import jigsaw
from dp4jigsaw.geometry.polytope import _lattice, _vertices_brute, _vertices_dd
from dp4jigsaw.geometry._simplex import feasible
from tests_support import (OBLIQUE_PYRAMID, box, check_dd_cone, evaluate,
                           fraction_volume, homogenized, lp_cone_contains_line,
                           lp_strictly_feasible, monte_carlo_volume,
                           product_polytope, random_unimodular, slice_polytope,
                           standard_simplex, transform_polytope)


def union_q0():
    # {a0 + x >= 0, y - a0 >= 0, y <= 1, x <= 0, y >= 0} in (a0, x, y)
    return HPolytope(3, [
        AffineForm.make([1, 1, 0], 0),
        AffineForm.make([-1, 0, 1], 0),
        AffineForm.le([0, 0, 1], 1),
        AffineForm.le([0, 1, 0], 0),
        AffineForm.ge([0, 0, 1], 0),
    ])


def q0_face(rows):
    forms = [
        AffineForm.make([1, 1, 0], 0),
        AffineForm.make([-1, 0, 1], 0),
        AffineForm.le([0, 0, 1], 1),
    ]
    for cs, ct in rows:
        forms.append(AffineForm.make([0, cs, ct], 0))
    return HPolytope(3, forms)


class TestVertexEnumeration:
    def test_unit_square(self):
        verts = box([(0, 1), (0, 1)]).vertices
        assert set(verts) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_q0_union_polytope(self):
        verts = union_q0().vertices
        assert set(verts) == {(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, -1, 1)}

    def test_degenerate_segment(self):
        p = HPolytope(2, [AffineForm.ge([1, 0], 0), AffineForm.le([1, 0], 0),
                          AffineForm.ge([0, 1], 0), AffineForm.le([0, 1], 1)])
        assert set(p.vertices) == {(0, 0), (0, 1)}

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedInput):
            HPolytope(2, [AffineForm.ge([1, 0], 0), AffineForm.ge([0, 1], 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HPolytope(3, [AffineForm.ge([1, 0], 0)])

    def test_empty_polytope_is_fine(self):
        p = HPolytope(2, [AffineForm.ge([1, 0], 1), AffineForm.le([1, 0], 0),
                          AffineForm.ge([0, 1], 0), AffineForm.le([0, 1], 1)])
        assert not p.vertices and p.volume() == 0


class TestVolume:
    def test_standard_4_simplex(self):
        assert standard_simplex(4).volume() == F(1, 24)

    def test_q0_union_volume(self):
        # tetrahedron determinant 1/6; also alpha / (2q+3) = (1/2)/3
        assert union_q0().volume() == F(1, 6)

    def test_q0_face_57(self):
        p = q0_face([(-1, 0), (3, 1)])
        assert p.volume() == F(5, 54)

    def test_volume_of_flat_is_zero(self):
        p = HPolytope(2, [AffineForm.ge([1, 0], 0), AffineForm.le([1, 0], 0),
                          AffineForm.ge([0, 1], 0), AffineForm.le([0, 1], 1)])
        assert p.volume() == 0


def triangle_integral_x_plus_y(v1, v2, v3):
    """Exact integral of x + y over a triangle: area times centroid value."""
    v1, v2, v3 = [tuple(map(F, v)) for v in (v1, v2, v3)]
    area = abs((v2[0] - v1[0]) * (v3[1] - v1[1])
               - (v3[0] - v1[0]) * (v2[1] - v1[1])) / 2
    cx = (v1[0] + v2[0] + v3[0]) / 3
    cy = (v1[1] + v2[1] + v3[1]) / 3
    return area * (cx + cy)


class TestFaceVolumeOracle:
    """Freeze the q = 0 face volumes against the 2-D fiber-length oracle."""

    CASES = {
        "57": ([(-1, 0), (3, 1)],
               [((0, 0), (F(-1, 3), 1), (0, 1))]),
        "45": ([(-3, -1), (2, 1)],
               [((0, 0), (F(-1, 3), 1), (F(-1, 3), F(2, 3))),
                ((F(-1, 2), 1), (F(-1, 3), F(2, 3)), (F(-1, 3), 1))]),
        "34": ([(-2, -1), (1, 1)],
               [((0, 0), (F(-1, 2), 1), (F(-1, 2), F(1, 2))),
                ((F(-1, 2), F(1, 2)), (-1, 1), (F(-1, 2), 1))]),
    }
    EXPECTED = {"57": F(5, 54), "45": F(7, 216), "34": F(1, 24)}

    @pytest.mark.parametrize("edge", sorted(CASES))
    def test_oracle_matches_volume(self, edge):
        rows, triangles = self.CASES[edge]
        oracle = sum(triangle_integral_x_plus_y(*t) for t in triangles)
        assert oracle == self.EXPECTED[edge]
        assert q0_face(rows).volume() == oracle

    def test_union_oracle(self):
        assert triangle_integral_x_plus_y((0, 0), (-1, 1), (0, 1)) == F(1, 6)


class TestSlice:
    def test_cube_slice(self):
        p = slice_polytope(box([(0, 1), (0, 1), (0, 1)]), [(2, F(1, 2))])
        assert p.volume() == 1
        assert set(p.vertices) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_empty_slice(self):
        p = slice_polytope(box([(0, 1), (0, 1), (0, 1)]), [(2, F(3, 2))])
        assert not p.vertices and p.volume() == 0

    def test_slice_validation(self):
        cube = box([(0, 1)] * 3)
        with pytest.raises(DimensionMismatch):
            slice_polytope(cube, [(0, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            slice_polytope(cube, [(3, 0)])

    def test_square_slice_is_a_unit_segment(self):
        assert slice_polytope(box([(0, 1)] * 2), [(0, F(1, 2))]).volume() == 1


class TestInteriorsDisjoint:
    def test_shared_edge(self):
        assert interiors_disjoint(box([(0, 1), (0, 1)]), box([(1, 2), (0, 1)]))

    def test_overlap(self):
        assert not interiors_disjoint(box([(0, 1), (0, 1)]),
                                      box([(F(1, 2), F(3, 2)), (0, 1)]))

    def test_q0_adjacent_faces(self):
        # reversed inequality -2x - y >= 0 against 2x + y >= 0
        assert interiors_disjoint(q0_face([(-3, -1), (2, 1)]),
                                  q0_face([(-2, -1), (1, 1)]))

    def test_self_not_disjoint_when_positive(self):
        p = box([(0, 1), (0, 1)])
        assert not interiors_disjoint(p, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            interiors_disjoint(box([(0, 1)]), box([(0, 1), (0, 1)]))


class TestConeContainsLine:
    def test_line_certificate(self):
        cone = RationalCone.make([(1, 1, 0), (-1, 0, 1), (0, 0, 1), (0, -1, -1)])
        diag = cone_contains_line(cone)
        assert diag.contains_line
        lam = diag.line_combination
        assert all(x >= 0 for x in lam) and any(lam)
        for j in range(3):
            assert sum(lam[i] * cone.generators[i][j] for i in range(4)) == 0

    def test_pointed_with_functional(self):
        cone = RationalCone.make([(1, 1, 0), (-1, 0, 1), (0, -1, 0), (0, 3, 1)])
        diag = cone_contains_line(cone)
        assert not diag.contains_line
        w = diag.separating_functional
        assert all(sum(w[j] * g[j] for j in range(3)) > 0 for g in cone.generators)
        # the reference functional evaluates as stated
        ref = (2, -1, 4)
        values = [sum(ref[j] * g[j] for j in range(3)) for g in cone.generators]
        assert values == [1, 2, 1, 1]

    def test_single_generator_pointed(self):
        assert not cone_contains_line(RationalCone.make([(1, 0)])).contains_line

    def test_empty_generators(self):
        with pytest.raises(EmptyGeneratorList):
            cone_contains_line(RationalCone(()))

    def test_xor_on_random_cones(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.randint(2, 4)
            gens = []
            while len(gens) < rng.randint(1, 6):
                g = tuple(rng.randint(-3, 3) for _ in range(dim))
                if any(g):
                    gens.append(g)
            diag = cone_contains_line(RationalCone.make(gens))
            assert (diag.line_combination is None) != (diag.separating_functional is None)


class TestVolumeInvariants:
    def test_unimodular_invariance(self):
        rng = random.Random(123)
        targets = [union_q0(), q0_face([(-1, 0), (3, 1)]),
                   standard_simplex(3), box([(0, 2), (-1, 1), (0, 1)])]
        for p in targets:
            v = p.volume()
            for _ in range(5):
                u = random_unimodular(rng, p.dimension)
                assert transform_polytope(p, u).volume() == v

    def test_product_volumes(self):
        rng = random.Random(5)
        for _ in range(8):
            d1 = rng.randint(1, 3)
            d2 = rng.randint(1, 3)
            b = box([(rng.randint(-2, 0), rng.randint(1, 3)) for _ in range(d1)])
            s = standard_simplex(d2, scale=rng.randint(1, 2))
            prod = product_polytope(b, s)
            assert prod.dimension <= 6
            assert prod.volume() == b.volume() * s.volume()

    def test_monte_carlo_consistency(self):
        from dp4jigsaw.jigsaw import union_polytope
        for p, seed in [(union_q0(), 11), (union_polytope(1), 12),
                        (product_polytope(box([(0, 1), (0, 2)]), standard_simplex(2)), 13)]:
            est = monte_carlo_volume(p, samples=1_000_000, seed=seed)
            exact = float(p.volume())
            assert abs(est - exact) / exact < 0.05

    def test_volume_nonnegative_random(self):
        rng = random.Random(99)
        for _ in range(25):
            dim = rng.randint(2, 4)
            rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) + (rng.randint(0, 3),)
                    for _ in range(rng.randint(2, 6))]
            rows += [tuple(1 if k == i else 0 for k in range(dim)) + (2,) for i in range(dim)]
            rows += [tuple(-1 if k == i else 0 for k in range(dim)) + (2,) for i in range(dim)]
            p = HPolytope(dim, [AffineForm.make(r[:-1], r[-1]) for r in rows])
            assert p.volume() >= 0


class TestHullReconstruction:
    def _is_redundant(self, p, idx):
        """LP check: can the polytope violate row idx when it is removed?"""
        rows = [f.as_row() for i, f in enumerate(p.inequalities) if i != idx]
        target = p.inequalities[idx].as_row()
        dim = p.dimension
        # feasibility of {other rows hold, <c,x> + b <= -1/den} scaled:
        # use <c,x> + b <= -eps as < 0 via integer scaling: -<c,x> - b - s = 1
        m = len(rows)
        a_matrix = []
        b_vector = []
        for i, row in enumerate(rows):
            slack = [0] * (m + 1)
            slack[i] = -1
            a_matrix.append(list(row[:dim]) + [-x for x in row[:dim]] + slack)
            b_vector.append(-row[dim])
        slack = [0] * (m + 1)
        slack[m] = -1
        a_matrix.append([-x for x in target[:dim]] + list(target[:dim]) + slack)
        b_vector.append(target[dim] + 1)
        ok, _ = feasible(a_matrix, b_vector)
        return not ok

    @pytest.mark.parametrize("maker", [union_q0,
                                       lambda: q0_face([(-1, 0), (3, 1)]),
                                       lambda: box([(0, 1), (0, 2), (0, 3)])])
    def test_vertices_satisfy_all_and_facets_are_tight(self, maker):
        p = maker()
        verts = p.vertices
        assert all(evaluate(f, v) >= 0 for f in p.inequalities for v in verts)
        if p.volume() > 0:
            for i, f in enumerate(p.inequalities):
                if self._is_redundant(p, i):
                    continue
                tight = [v for v in verts if evaluate(f, v) == 0]
                assert len(tight) >= p.dimension


class TestDualRoutes:
    def test_brute_matches_dd(self):
        rng = random.Random(2024)
        for _ in range(120):
            dim = rng.randint(2, 4)
            rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) + (rng.randint(-1, 3),)
                    for _ in range(rng.randint(dim, 8))]
            for i in range(dim):
                e = [0] * dim
                e[i] = 1
                rows.append(tuple(e) + (3,))
                rows.append(tuple(-x for x in e) + (3,))
            rows = [r for r in rows if any(r[:dim])]
            assert _vertices_brute(dim, rows) == _vertices_dd(dim, rows)[0]

    def test_strict_feasibility_matches_volume(self):
        cases = [union_q0(), q0_face([(0, 1), (-1, -1)]),
                 standard_simplex(3), box([(0, 1), (0, 0)])]
        for p in cases:
            assert strictly_feasible(p) == (p.volume() > 0)


# ---------------------------------------------------------------------------
# Property tests: the double description route against the brute-force
# reference, on random small inputs.  Derandomized and database-free, so the
# suite stays deterministic.
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None,
                             deadline=None)


def unit(dim, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(dim))


@st.composite
def clipped_rows(draw):
    """Random rows in dim 1..5 inside a box; some box sides may coincide."""
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=dim + 1, max_size=dim + 1).map(tuple)
    rows = draw(st.lists(row, max_size=7 - dim))
    for i in range(dim):
        lo = draw(st.integers(-3, 1))
        hi = lo + draw(st.integers(0, 3))  # hi == lo flattens the box
        rows.append(unit(dim, i) + (-lo,))
        rows.append(unit(dim, i, -1) + (hi,))
    for dup in draw(st.lists(st.sampled_from(rows), max_size=2)):
        rows.append(tuple(draw(st.integers(1, 2)) * x for x in dup))
    return dim, rows


@st.composite
def rows_through_a_point(draw):
    """Random rows, none clipped, all satisfied at one integer point."""
    dim = draw(st.integers(1, 5))
    point = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    rows = []
    for _ in range(draw(st.integers(0, 7 - dim))):
        c = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        slack = draw(st.integers(0, 2))
        rows.append(tuple(c) + (slack - sum(a * x for a, x in zip(c, point)),))
    return dim, rows


class TestSingleEnumeratorProperties:
    @PROPERTY_SETTINGS
    @given(clipped_rows())
    @example((2, [(1, 0, -1), (-1, 0, 0), (0, 1, 0), (0, -1, 1)]))  # empty
    @example((3, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 1),
                  (0, 0, 1, 0), (0, 0, -1, 1)]))  # flat square in 3-space
    @example((2, [(1, 1, 0), (2, 2, 0), (-1, 0, 1), (0, -1, 1), (0, 1, 1)]))  # duplicate
    def test_vertices_match_brute(self, case):
        dim, rows = case
        assert HPolytope(dim, rows).vertices == tuple(sorted(_vertices_brute(dim, rows)))

    @PROPERTY_SETTINGS
    @given(rows_through_a_point())
    @example((2, []))
    @example((2, [(1, 0, 0), (-1, 0, 0)]))  # a line through the origin
    @example((2, [(1, 0, 0), (0, 1, 0), (-1, -1, 1)]))  # bounded triangle
    def test_unbounded_iff_recession_direction(self, case):
        dim, rows = case
        # The recession cone {r : <c, r> >= 0} is nonzero iff its part in
        # the unit box has a vertex other than the origin.
        clipped = [row[:dim] + (0,) for row in rows]
        clipped += [unit(dim, i, s) + (1,) for i in range(dim) for s in (1, -1)]
        recedes = any(any(v) for v in _vertices_brute(dim, clipped))
        try:
            HPolytope(dim, rows)
            unbounded = False
        except UnboundedInput:
            unbounded = True
        assert unbounded == recedes


@st.composite
def cone_rows(draw):
    """Rows of a cone {z : <h, z> >= 0} at the jigsaw's sizes: dim 1..9, up to 12 rows.

    Some rows repeat another one scaled or negated, which makes degenerate
    rays and lineality.
    """
    dim = draw(st.integers(1, 9))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    rows = draw(st.lists(row, max_size=12))
    for copy in draw(st.lists(st.sampled_from(rows), max_size=12 - len(rows))) if rows else ():
        rows.append(tuple(draw(st.sampled_from([-1, 2])) * x for x in copy))
    return dim, rows


class TestDoubleDescription:
    """dd_cone, the only vertex enumerator, on random cones."""

    @PROPERTY_SETTINGS
    @given(cone_rows())
    @example((1, []))
    @example((2, [(1, 0), (-1, 0)]))  # a line: no rays
    @example((3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]))  # a plane's worth of lineality
    @example(homogenized(jigsaw.face_rows(("57", "36"))))
    @example(homogenized(jigsaw.face_rows(("36", "36"))))  # the flat face
    def test_rays_and_lineality(self, case):
        check_dd_cone(*case)


@st.composite
def cone_generators(draw):
    """Nonzero generators: the coefficient vectors of rows_through_a_point."""
    dim, rows = draw(rows_through_a_point())
    gens = [row[:dim] for row in rows if any(row[:dim])]
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else ():
        gens.append(tuple(-x for x in g))  # an opposite pair is a line
    if not gens:
        gens = [unit(dim, 0)]
    return gens


class TestDiagnosticsAgainstLinearPrograms:
    """The double-description verdicts against the simplex oracles."""

    @PROPERTY_SETTINGS
    @given(clipped_rows())
    @example((2, [(1, 0, -1), (-1, 0, 0), (0, 1, 0), (0, -1, 1)]))  # empty
    @example((3, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 1),
                  (0, 0, 1, 0), (0, 0, -1, 1)]))  # flat square in 3-space
    @example((1, [(1, 1), (-1, -1)]))  # a single point
    def test_strict_feasibility_matches_margin_lp(self, case):
        p = HPolytope(*case)
        assert strictly_feasible(p) == lp_strictly_feasible(p)

    @PROPERTY_SETTINGS
    @given(cone_generators())
    @example([(1, 0), (0, 1), (-1, -1)])  # lines through a 2-D fan
    @example([(1, 1, 0), (-1, 0, 1), (0, 0, 1), (0, -1, -1)])
    @example([(2, -1, 0), (0, 0, 3)])
    def test_cone_verdicts_match_feasibility_lp(self, gens):
        cone = RationalCone.make(gens)
        diag = cone_contains_line(cone)
        assert diag.contains_line == lp_cone_contains_line(cone).contains_line
        gens = cone.generators
        dim = len(gens[0])
        if diag.contains_line:
            lam = diag.line_combination
            assert diag.separating_functional is None
            assert len(lam) == len(gens) and all(x >= 0 for x in lam) and any(lam)
            assert all(sum(x * g[j] for x, g in zip(lam, gens)) == 0 for j in range(dim))
        else:
            w = diag.separating_functional
            assert all(sum(a * b for a, b in zip(w, g)) > 0 for g in gens)


class TestLatticeVolumeAgainstFractions:
    """The volume on the integer lattice D P against the same triangulation in Fractions."""

    @PROPERTY_SETTINGS
    @given(clipped_rows())
    @example((2, [(1, 0, -1), (-1, 0, 0), (0, 1, 0), (0, -1, 1)]))  # empty
    @example((3, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 1),
                  (0, 0, 1, 0), (0, 0, -1, 1)]))  # flat square in 3-space
    @example((2, [(2, 3, -1), (-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0)]))  # (1/2, 0), (0, 1/3)
    @example(OBLIQUE_PYRAMID)  # two facets meet in a vertex
    def test_clipped_rows(self, case):
        p = HPolytope(*case)
        assert p.volume() == fraction_volume(p.dimension, p.inequalities, p.vertices)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    @pytest.mark.parametrize("build", [jigsaw.union_polytope, jigsaw.pyramid_polytope,
                                       jigsaw.pyramid_base_polytope],
                             ids=["union", "pyramid", "pyramid_base"])
    def test_jigsaw_polytopes(self, build, q):
        p = build(q)
        assert p.volume() == fraction_volume(p.dimension, p.inequalities, p.vertices)

    def test_scale_is_the_lcm_of_the_denominators(self):
        # Denominators 2, 3 and 6: the lattice scale is 6, not their product 36.
        p = box([(0, F(1, 2)), (0, F(1, 3)), (0, F(1, 6))])
        scale, points = _lattice(p.vertices)
        assert scale == 6
        assert max(points) == (3, 2, 1)
        assert p.volume() == fraction_volume(3, p.inequalities, p.vertices) == F(1, 36)
