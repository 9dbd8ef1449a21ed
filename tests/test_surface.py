"""Surface membership, heights, direct counts, and mod-p densities."""

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from dp4jigsaw import reporting
from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T
from dp4jigsaw.errors import NonpositiveBound, NotPrime, OutOfRange
from dp4jigsaw.gaussian import GaussInt
from tests_support import (DegenerateCoordinates, NotOnSurface, OnBoundary,
                           direct_count, height, heights_triple_z, heights_triple_zi,
                           is_integral, count_mod_p_tuples, line_count_mod_p,
                           make_point as mk, on_lines, on_surface, surface_x2_zero_is_lines)


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

    @pytest.mark.parametrize("b", [1, 2, 10, 57, 300])
    def test_direct_kernel_in_tiny_blocks(self, monkeypatch, b):
        # blocks of 3 triples split the divisor pairs of one m
        monkeypatch.setattr(S, "DIRECT_BLOCK", 3)
        assert S.direct_height_counts(b).tolist() == T.torsor_height_counts(b).tolist()

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
                call(S.MAX_DIRECT_BOUND[ring] + 1, ring=ring)

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
            S.direct_counts([10, S.MAX_DIRECT_BOUND[S.INTEGERS] + 1, 20])

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
        reporting.write_lines(stream, (f"{pt},{h}" for h, pt in
                                       S.direct_points_with_heights(bound, ring=ring)))
        assert stream.read_text().splitlines() == [f"{pt},{height(pt)}" for pt in pts]

    def test_point_stream_format(self, tmp_path):
        reporting.write_lines(tmp_path / "points.txt",
                              (f"{pt},{h}" for h, pt in S.direct_points_with_heights(1)))
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

    def test_histogram_above_limit_fails_before_any_work(self, monkeypatch):
        class Scanned(Exception):
            pass

        def started(*args):
            raise Scanned(args)
        monkeypatch.setattr(S, "_normal_form_zi", started)
        limit = S.MAX_DIRECT_BOUND[S.GAUSSIAN]
        assert S.MAX_POINTS_BOUND[S.GAUSSIAN] <= limit < S.MAX_DIRECT_BOUND[S.INTEGERS]
        for call in (S.direct_height_counts, lambda b, ring: S.direct_counts([1, b], ring)):
            with pytest.raises(OutOfRange):
                call(limit + 1, ring=S.GAUSSIAN)
            with pytest.raises(Scanned):      # the limit itself is accepted
                call(limit, ring=S.GAUSSIAN)

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

    def test_census_equals_the_tuple_census(self):
        for p in S.primes_up_to(31).tolist():
            assert S.count_mod_p(p) == count_mod_p_tuples(p), p

    @pytest.mark.parametrize("block", [1, 30, 10 ** 5])
    def test_census_in_other_blocks(self, monkeypatch, block):
        # grids of one free coordinate; of four to one as p runs to 7; of all four
        monkeypatch.setattr(S, "CENSUS_BLOCK", block)
        for p in (2, 3, 5, 7, 11):
            assert S.count_mod_p(p) == p * p + p, p

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_x2_zero_cuts_out_the_lines(self, p):
        assert surface_x2_zero_is_lines(p)

    def test_not_prime(self, monkeypatch):
        # each census checks p before it evaluates the forms
        def evaluated(*x):
            raise AssertionError("the forms were evaluated for a p that is not prime")
        monkeypatch.setattr(S, "_forms", evaluated)
        for census in (S.count_mod_p, count_mod_p_tuples, line_count_mod_p,
                       surface_x2_zero_is_lines):
            for n in (1, 6):
                with pytest.raises(NotPrime):
                    census(n)

    @pytest.mark.parametrize("p,error", [(-3, NotPrime), (0, NotPrime), (1, NotPrime),
                                         (4, NotPrime), (87, NotPrime),
                                         (S.MAX_MODP_PRIME + 1, OutOfRange),
                                         (S.MAX_MODP_PRIME + 8, OutOfRange)])
    def test_refused_before_any_census_array(self, monkeypatch, p, error):
        def built(*args, **kwargs):
            raise AssertionError("the census built an array for a refused p")
        monkeypatch.setattr(S.np, "zeros", built)
        monkeypatch.setattr(S.np, "indices", built)
        monkeypatch.setattr(S, "_forms", built)
        with pytest.raises(error):
            S.count_mod_p(p)

    def test_the_sieve_matches_trial_division(self):
        assert S.primes_up_to(1).tolist() == S.primes_up_to(-3).tolist() == []
        assert S.primes_up_to(1000).tolist() == [
            n for n in range(2, 1001) if all(n % f for f in range(2, n))]


#: tracemalloc peaks, numpy's buffers included: count_mod_p(61) peaked at
#: 0.34 MB (its blocks hold p^2 = 3721 tuples; the 1.4e7 tuples of p^4 at
#: once would hold over 500 MB), and direct_height_counts(2 * 10**4) at
#: 5.06 MB, nearly all of it the divisor sieve of 1..B.
@pytest.mark.parametrize("call,arg,limit_mb", [
    (S.count_mod_p, 61, 1.0),
    (S.direct_height_counts, 2 * 10 ** 4, 6.0),
], ids=["census-61", "direct-2e4"])
def test_counting_checks_run_in_bounded_memory(call, arg, limit_mb):
    tracemalloc.start()
    try:
        call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2 ** 20, peak
