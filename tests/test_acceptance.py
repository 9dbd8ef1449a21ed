"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The q = 3 jigsaw stretch goal runs in every pass.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from dp4jigsaw import constants as C
from dp4jigsaw import jigsaw, reporting
from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T
from tests_support import (LOG_ANTICANONICAL_L, DivisorClass, box, direct_count,
                           enumerate_valid, fibers_over_points, generator_degree, height,
                           heights_triple_z, is_integral, lifted_height,
                           line_count_mod_p, make_point, map_to_surface,
                           monte_carlo_volume, on_lines, product_polytope,
                           random_unimodular, standard_simplex,
                           torsor_monomial_degrees, transform_polytope)


def report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 1. Jigsaw identity
# ---------------------------------------------------------------------------

def test_criterion_1_jigsaw_identity():
    alphas = {0: F(1, 2), 1: F(1, 6), 2: F(1, 48)}
    elapsed_q2 = None
    for q, alpha in alphas.items():
        t0 = time.perf_counter()
        rep = jigsaw.jigsaw_check(q)  # raises PartitionFailure on any mismatch
        dt = time.perf_counter() - t0
        assert rep.alpha_sum == alpha
        assert sum(rep.per_face.values(), F(0)) == rep.union_volume
        assert rep.disjointness_verified
        if q == 2:
            elapsed_q2 = dt
    assert elapsed_q2 < 60.0
    report(f"1: PASS - jigsaw alpha sums 1/2, 1/6, 1/48 exact; "
           f"q=2 in {elapsed_q2:.1f}s (< 60s)")


def test_criterion_1_stretch_q3():
    t0 = time.perf_counter()
    rep = jigsaw.jigsaw_check(3)
    dt = time.perf_counter() - t0
    assert rep.alpha_sum == F(1, math.factorial(3) * math.factorial(5))
    assert dt < 1800.0
    report(f"1 (stretch): PASS - q=3 alpha sum {rep.alpha_sum} in {dt:.0f}s")


# ---------------------------------------------------------------------------
# 2. Pyramid identity
# ---------------------------------------------------------------------------

def test_criterion_2_pyramid_identity():
    for q in (0, 1, 2):
        vol_p = jigsaw.pyramid_polytope(q).volume()
        vol_base = jigsaw.pyramid_base_polytope(q).volume()
        assert vol_p == vol_base / (2 * q + 3)
    report("2: PASS - vol(P') = vol(P'_0)/(2q+3) exactly for q = 0, 1, 2")


# ---------------------------------------------------------------------------
# 3. Slice census
# ---------------------------------------------------------------------------

def test_criterion_3_slice_census():
    expected = {F(1, 5): 7, F(2, 5): 11, F(3, 5): 11}
    for a1, count in expected.items():
        census = jigsaw.slice_census(a1)
        assert census.positive_count == count
        assert census.total_area == a1
        assert census.union_verified
        for piece in census.pieces.values():
            if piece.area > 0:
                assert piece.vertex_count in (3, 4)
    # a0 enters only the common rows a1 <= a0 <= a2 = 1, constant on the slice
    for pulled in jigsaw.census_rows().values():
        assert {(row.coeffs, row.const) for row in pulled if row.coeffs[0]} == {
            ((1, -1, 0, 0, 0), 0), ((-1, 0, 1, 0, 0), 0)}
    report("3: PASS - piece counts 7/11/11 at a1 = 1/5, 2/5, 3/5; "
           "3-4 vertices each; areas sum to a1; a0 only in a1 <= a0 <= a2")


# ---------------------------------------------------------------------------
# 4. Degenerate-face diagnostic
# ---------------------------------------------------------------------------

def test_criterion_4_degenerate_faces():
    expected = {0: ["36"], 1: ["36,36"], 2: ["36,36,36"]}
    reference_status = None
    for q, faces in expected.items():
        rep = jigsaw.degenerate_face_report(q)
        assert rep["volume_zero_faces"] == faces
        assert rep["strict_feasibility_zero_faces"] == faces  # independent oracle
        assert rep["oracles_agree"]
        assert rep["cone_line_faces"] == faces
        if q == 1:
            reference_status = rep["reference_face_is_degenerate"]
    agreement = "agrees" if reference_status else "DISAGREES"
    report("4: PASS - volume-zero sets match the strict-feasibility oracle "
           f"for q = 0, 1, 2; reference face (57),(57) {agreement} with the "
           "computed set (discrepancy reported, not asserted)")


# ---------------------------------------------------------------------------
# 5. Oracle equivalence of counts
# ---------------------------------------------------------------------------

def test_criterion_5_count_agreement():
    assert direct_count(1) == 4
    direct = S.direct_height_counts(2000)
    lifted = T.torsor_height_counts(2000)
    assert (direct == lifted).all()
    triple = heights_triple_z(200).cumsum()
    assert (triple == direct[:201]).all()
    report(f"5: PASS - torsor = direct for every B <= 2000 (N(2000) = "
           f"{int(direct[-1])}); the triple-loop oracle agrees to 200; N(1) = 4")


# ---------------------------------------------------------------------------
# 6. Descent checks
# ---------------------------------------------------------------------------

def test_criterion_6_descent():
    points = enumerate_valid(20)
    assert points
    for pt in points:
        image = map_to_surface(pt)
        assert S.on_surface(image)
        assert lifted_height(pt) == height(image)
        if pt.a[0] != 0 and pt.a[1] != 0:
            assert on_lines(image) == set()
            assert is_integral(image)
    fibers = fibers_over_points(50)
    assert len(fibers) == direct_count(50)
    assert {len(v) for v in fibers.values()} == {2}
    report(f"6: PASS - {len(points)} valid tuples with |a_i| <= 20 descend to "
           "integral off-line points with matching heights; all fibers over "
           "height <= 50 have size exactly 2")


# ---------------------------------------------------------------------------
# 7. Local densities
# ---------------------------------------------------------------------------

def test_criterion_7_local_densities():
    for p in (2, 3, 5, 7, 11, 13):
        assert S.count_mod_p(p) == p * p + p
        assert line_count_mod_p(p) == p + 1
    report("7: PASS - point counts mod p equal p^2 + p and |L(F_p)| = p + 1 "
           "for p in {2, 3, 5, 7, 11, 13}")


# ---------------------------------------------------------------------------
# 8. Euler product
# ---------------------------------------------------------------------------

def test_criterion_8_euler_product():
    t0 = time.perf_counter()
    res = C.finite_density_product(C.get_field("Q"), 10 ** 7)
    dt = time.perf_counter() - t0
    limit = 6 / math.pi ** 2
    assert abs(res.value - limit) < 1e-6
    assert res.tail_log_bound > 0
    assert res.limit_low <= limit <= res.limit_high
    assert dt < 30.0
    report(f"8: PASS - product over p <= 1e7 is {res.value:.9f}, within "
           f"{abs(res.value - limit):.1e} of 6/pi^2, tail bound "
           f"{res.tail_log_bound:.1e}, in {dt:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 9. Asymptotic trend
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def torsor_grid():
    fit_bounds = [int(b) for b in np.unique(
        np.round(np.logspace(4, 7, 20)).astype(np.int64))]
    decades = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    bounds = sorted(set(fit_bounds) | set(decades))
    t0 = time.perf_counter()
    counts = dict(zip(bounds, T.torsor_counts(bounds)))
    return fit_bounds, counts, time.perf_counter() - t0


def test_criterion_9_asymptotic_trend(torsor_grid):
    fit_bounds, counts, elapsed = torsor_grid
    c = C.leading_constant(C.get_field("Q")).c

    # (a) the normalized count at 1e6 lies in [0.5, 2] * c
    b = 10 ** 6
    ratio = counts[b] / (b * math.log(b) ** 2)
    assert 0.5 * c <= ratio <= 2.0 * c

    # (b) log-quadratic fit over the 20 log-spaced bounds recovers c2 within 25%
    fit = reporting.fit_log_quadratic([(b, counts[b]) for b in fit_bounds])
    rel = abs(fit.c2 - c) / c
    assert rel < 0.25

    # (c) reported trend of |ratio - c| at decade bounds
    trend = []
    for b in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
        r = counts[b] / (b * math.log(b) ** 2)
        trend.append((b, abs(r - c)))

    assert elapsed < 300.0  # one sweep for every bound, 1e7 included
    trend_str = ", ".join(f"B=1e{int(math.log10(b))}: {d:.3f}" for b, d in trend)
    report(f"9: PASS - ratio at 1e6 is {ratio / c:.3f}*c (in [0.5, 2]); "
           f"fitted c2 = {fit.c2:.4f} vs c = {c:.4f} (rel dev {rel:.3f} < 0.25); "
           f"|ratio - c| trend: {trend_str}; N(1e7) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Property suites (fixed seeds)
# ---------------------------------------------------------------------------

def test_criterion_10_property_suites():
    # base-change round trips
    rng = random.Random(4242)
    for i in range(1, 10):
        d = generator_degree(i)
        assert DivisorClass.from_A(d.coords_A).coords_l == d.coords_l
    for _ in range(1000):
        vec = tuple(rng.randint(-40, 40) for _ in range(6))
        assert DivisorClass.from_l(vec).coords_A == \
            DivisorClass.from_A(DivisorClass.from_l(vec).coords_A).coords_A

    # the three torsor monomials share the log anticanonical degree
    m1, m2, m3 = torsor_monomial_degrees()
    assert m1.coords_l == m2.coords_l == m3.coords_l == LOG_ANTICANONICAL_L

    # height scaling invariance
    base = (2, -2, 4, 6, 3)
    h = height(make_point(base))
    for _ in range(25):
        k = rng.choice([x for x in range(-9, 10) if x])
        assert height(make_point(tuple(k * c for c in base))) == h

    # permutation symmetry of face volumes at q = 1
    for face in jigsaw.all_faces(1):
        assert jigsaw.face_polytope(face).volume() == \
            jigsaw.face_polytope(face[::-1]).volume()

    # unimodular volume invariance
    p = jigsaw.union_polytope(0)
    v = p.volume()
    for _ in range(5):
        u = random_unimodular(rng, 3)
        assert transform_polytope(p, u).volume() == v

    # Monte-Carlo consistency within 5 relative percent
    for poly, seed in [(jigsaw.union_polytope(1), 101),
                       (product_polytope(box([(0, 1), (0, 2)]), standard_simplex(2)), 102)]:
        est = monte_carlo_volume(poly, samples=1_000_000, seed=seed)
        exact = float(poly.volume())
        assert abs(est - exact) / exact < 0.05

    report("10: PASS - base-change round trips, torsor monomial degrees, "
           "height scaling, permutation symmetry, unimodular invariance and "
           "Monte-Carlo consistency hold on fixed seeds")
