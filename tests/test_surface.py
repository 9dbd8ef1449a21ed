"""Surface membership, heights, direct counts, and mod-p densities."""

import random
from fractions import Fraction as F

import pytest

from dp4jigsaw import reporting
from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T
from dp4jigsaw.errors import NonpositiveBound, NotPrime, OutOfRange
from dp4jigsaw.gaussian import GaussInt
from tests_support import (DegenerateCoordinates, NotOnSurface, OnBoundary,
                           direct_count, height, heights_triple_z, heights_triple_zi,
                           is_integral, line_count_mod_p, make_point as mk, on_lines,
                           on_surface, surface_x2_zero_is_lines)


class TestParseRing:
    def test_every_listed_spelling_in_any_case(self):
        for ring, spellings in S.RING_SPELLINGS:
            for name in spellings:
                assert S.parse_ring(name) is ring
                assert S.parse_ring(f" {name.upper()} ") is ring

    def test_unknown_ring_lists_the_spellings(self):
        with pytest.raises(ValueError, match=r"'Q\(i\)'; accepted: Z, ZZ, .*Zi, Z\[i\]"):
            S.parse_ring("Q(i)")


class TestOnSurface:
    def test_singular_point_q1(self):
        assert S.on_surface(mk((0, 1, 0, 0, 0)))

    def test_integral_point(self):
        assert S.on_surface(mk((0, -1, 1, 1, 0)))

    def test_off_surface(self):
        assert not S.on_surface(mk((1, 1, 1, 1, 1)))


class TestOnLines:
    def test_q2_lies_on_all_three_lines(self):
        # Q2 = (0:0:0:0:1) has x0 = x1 = x2 = x3 = 0, so every line
        # condition holds; both extra lines pass through Q2.
        assert on_lines(mk((0, 0, 0, 0, 1))) == {S.LINE_L, S.LINE_LP, S.LINE_LPP}

    def test_point_off_lines(self):
        assert on_lines(mk((0, -1, 1, 1, 0))) == set()

    def test_point_on_lprime(self):
        assert on_lines(mk((1, 0, 0, 0, 0))) == {S.LINE_LP}

    def test_not_on_surface_raises(self):
        with pytest.raises(NotOnSurface):
            on_lines(mk((1, 1, 1, 1, 1)))


class TestIntegrality:
    def test_integral(self):
        assert is_integral(mk((0, -1, 1, 1, 0)))

    def test_not_integral(self):
        assert not is_integral(mk((2, -2, 4, 6, 3)))

    def test_integral_negative_coords(self):
        assert is_integral(mk((-2, 1, 1, 1, -2)))

    def test_boundary_raises(self):
        with pytest.raises(OnBoundary):
            is_integral(mk((0, 1, 0, 0, 0)))


class TestHeight:
    def test_examples(self):
        assert height(mk((0, -1, 1, 1, 0))) == 1
        assert height(mk((2, -2, 4, 6, 3))) == 3
        assert height(mk((0, -2, 2, 2, 0))) == 1

    def test_scaling_invariance(self):
        rng = random.Random(77)
        base = (2, -2, 4, 6, 3)
        h = height(mk(base))
        for _ in range(20):
            k = rng.choice([x for x in range(-7, 8) if x])
            assert height(mk(tuple(k * c for c in base))) == h

    def test_degenerate(self):
        with pytest.raises(DegenerateCoordinates):
            height(mk((0, 1, 0, 0, 0)))


class TestDirectCounts:
    def test_count_at_one(self):
        assert direct_count(1) == 4

    def test_count_below_one(self):
        assert direct_count(F(1, 2)) == 0

    def test_monotone(self):
        counts = S.direct_height_counts(60)
        assert all(counts[i] <= counts[i + 1] for i in range(60))

    def test_methods_agree_to_60(self):
        assert (heights_triple_z(60).cumsum() == S.direct_height_counts(60)).all()

    def test_pinned_1e5_equals_torsor(self):
        assert direct_count(10 ** 5) == 22747264 == T.torsor_count(10 ** 5)

    @pytest.mark.parametrize("ring", [S.INTEGERS, S.GAUSSIAN])
    def test_bound_above_limit_fails_before_any_work(self, monkeypatch, ring):
        def started(*args):
            raise AssertionError("counting started above MAX_DIRECT_BOUND")
        monkeypatch.setattr(S, "_divisor_sieve", started)
        monkeypatch.setattr(S, "_normal_form_zi", started)
        monkeypatch.setattr(S.np, "zeros", started)
        for call in (direct_count, S.direct_points):
            with pytest.raises(OutOfRange):
                call(S.MAX_DIRECT_BOUND + 1, ring=ring)

    @pytest.mark.parametrize("ring", [S.INTEGERS, S.GAUSSIAN])
    def test_shared_histogram_matches_single_counts(self, ring):
        bounds = [7, F(1, 2), 30, 1, F(61, 2), 7]
        counts = S.direct_counts(bounds, ring=ring)
        assert counts == [direct_count(b, ring=ring) for b in bounds]
        assert all(type(n) is int for n in counts)  # JSON-ready, no numpy scalars
        assert S.direct_counts([], ring=ring) == []

    def test_shared_histogram_checks_every_bound_first(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("counting started above MAX_DIRECT_BOUND")
        monkeypatch.setattr(S, "direct_height_counts", started)
        with pytest.raises(OutOfRange):
            S.direct_counts([10, S.MAX_DIRECT_BOUND + 1, 20])

    def test_nonpositive_bound(self):
        with pytest.raises(NonpositiveBound):
            direct_count(0)
        with pytest.raises(NonpositiveBound):
            direct_count(-3)

    def test_enumerated_points_valid(self):
        # more than 10^4 points at this bound
        pts = S.direct_points(200)
        assert len(pts) == direct_count(200) > 10 ** 4
        assert len(set(pts)) == len(pts)
        for pt in pts:
            assert S.on_surface(pt)
            assert on_lines(pt) == set()
            assert is_integral(pt)
            assert height(pt) <= 200

    @pytest.mark.parametrize("ring,bound", [(S.INTEGERS, 60), (S.GAUSSIAN, 10)])
    def test_points_equal_the_gcd_route(self, ring, bound, tmp_path):
        pts = S.direct_points(bound, ring=ring)
        assert [mk(pt.coords, ring=ring) for pt in pts] == pts
        assert pts == sorted(pts, key=lambda pt: (height(pt), str(pt)))
        stream = tmp_path / "points.txt"
        reporting.write_point_stream(stream, S.direct_points_with_heights(bound, ring=ring))
        assert stream.read_text().splitlines() == [f"{pt},{height(pt)}" for pt in pts]

    def test_point_stream_format(self, tmp_path):
        reporting.write_point_stream(tmp_path / "points.txt", S.direct_points_with_heights(1))
        lines = (tmp_path / "points.txt").read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            coords, h = line.rsplit(",", 1)
            assert len(coords.split(":")) == 5
            assert F(h) >= 1


class TestGaussianCounts:
    def test_count_at_one(self):
        # the four rational points times extra unit images
        assert direct_count(1, ring=S.GAUSSIAN) == 8

    def test_monotone_and_contains_rational_points(self):
        counts = S.direct_height_counts(10, ring=S.GAUSSIAN)
        rational = S.direct_height_counts(10)
        assert all(counts[i] <= counts[i + 1] for i in range(10))
        assert (counts >= rational).all()

    def test_normal_form_equals_triple_loop_to_30(self):
        hist = heights_triple_zi(30).cumsum()
        assert (S.direct_height_counts(30, ring=S.GAUSSIAN) == hist).all()

    def test_points_valid(self):
        pts = S.direct_points(5, ring=S.GAUSSIAN)
        assert len(pts) == direct_count(5, ring=S.GAUSSIAN)
        for pt in pts:
            assert on_surface(pt)
            assert on_lines(pt) == set()
            assert is_integral(pt)
            assert height(pt) <= 5

    def test_unit_scaling_gives_same_point(self):
        a = mk((GaussInt(0, 1), GaussInt(1, 1), GaussInt(2, 0),
                GaussInt(0, 0), GaussInt(1, 0)), ring=S.GAUSSIAN)
        b = mk((GaussInt(-1, 0), GaussInt(-1, 1), GaussInt(0, 2),
                GaussInt(0, 0), GaussInt(0, 1)), ring=S.GAUSSIAN)
        assert a == b


class TestModP:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts(self, p):
        assert S.count_mod_p(p) == p * p + p
        assert line_count_mod_p(p) == p + 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_x2_zero_cuts_out_the_lines(self, p):
        assert surface_x2_zero_is_lines(p)

    def test_not_prime(self):
        # all three read one census, which checks p first
        for census in (S.count_mod_p, line_count_mod_p, surface_x2_zero_is_lines):
            for n in (1, 6):
                with pytest.raises(NotPrime):
                    census(n)
