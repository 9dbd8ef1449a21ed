"""Torsor validation, descent to the surface, and count agreement."""

import io
import itertools
import math
import random
import time
from math import gcd, isqrt

import numpy as np
import pytest

from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T
from dp4jigsaw.errors import (EquationViolated, NonpositiveBound,
                              NonUnitMiddle, OutOfRange)
from tests_support import enumerate_valid, naive_torsor_count

mk = S.ProjectivePoint.make


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


class TestValidate:
    def test_accepts_examples(self):
        T.validate((1, 1, 1, 1, 1, 1, 1, 0, -1))
        T.validate((1, 1, 1, 1, 1, 1, 1, -2, 1))

    def test_equation_violated(self):
        with pytest.raises(EquationViolated):
            T.validate((1, 1, 1, 1, 1, 1, 1, 1, 1))

    def test_non_unit_middle(self):
        with pytest.raises(NonUnitMiddle):
            T.validate((1, 1, 2, 1, 1, 1, 1, 0, -1))

    def test_exhaustive_small_box_coprimality(self):
        """The equation forces the pairwise conditions; validate never trips."""
        pts = enumerate_valid(8)
        assert pts  # plenty of solutions in the box
        for pt in pts:
            a = pt.a
            assert gcd(a[0] * a[8], a[1] * a[7]) == 1
            assert gcd(a[0], a[1]) == 1
            assert gcd(a[0], a[7]) == 1
            assert gcd(a[1], a[8]) == 1


class TestDescent:
    def test_map_example_1(self):
        pt = T.map_to_surface(T.validate((1, 1, 1, 1, 1, 1, 1, 0, -1)))
        assert pt == mk((0, 1, 1, -1, 0))

    def test_map_example_2(self):
        pt = T.map_to_surface(T.validate((1, 1, 1, 1, 1, 1, 1, -2, 1)))
        assert pt == mk((-2, 1, 1, 1, -2))
        assert S.is_integral(pt) and S.height(pt) == 2

    def test_map_example_3(self):
        # substitution gives x1 = a1^2 a2^2 a3^2 a4 a6^3 = 4 here
        t = T.validate((1, 2, 1, 1, 1, 1, 1, -1, 1))
        pt = T.map_to_surface(t)
        assert pt == mk((-2, 4, 2, 1, -1))
        assert S.on_surface(pt)
        assert T.lifted_height(t) == S.height(pt) == 2

    def test_lifted_heights(self):
        assert T.lifted_height(T.validate((1, 1, 1, 1, 1, 1, 1, 0, -1))) == 1
        assert T.lifted_height(T.validate((1, 1, 1, 1, 1, 1, 1, -2, 1))) == 2
        assert T.lifted_height(T.validate((1, 1, 1, 1, 1, -1, 1, 0, -1))) == 1

    def test_exhaustive_small_box_descent(self):
        for pt in enumerate_valid(8):
            a = pt.a
            image = T.map_to_surface(pt)
            assert S.on_surface(image)
            assert T.lifted_height(pt) == S.height(image)
            if a[0] != 0 and a[1] != 0:
                assert S.on_lines(image) == set()
                assert S.is_integral(image)


class TestCounts:
    def test_count_at_one(self):
        assert T.torsor_count(1).count == 4

    def test_nonpositive(self):
        with pytest.raises(NonpositiveBound):
            T.torsor_count(0)

    def test_fast_equals_naive_to_300(self):
        for b in (1, 2, 3, 7, 20, 55, 137, 300):
            assert T.torsor_count(b).count == naive_torsor_count(b)

    def test_fast_equals_direct_to_300(self):
        lifted = T.torsor_height_counts(300)
        direct = S.direct_height_counts(300)
        assert (lifted == direct).all()

    def test_histogram_matches_pointwise_counts(self):
        hist = T.torsor_height_counts(50)
        for b in (1, 10, 37, 50):
            assert hist[b] == T.torsor_count(b).count

    def test_histogram_naive_matches_fast(self):
        hist = T.torsor_height_counts(120)
        assert hist[1:].tolist() == [naive_torsor_count(b) for b in range(1, 121)]

    def test_direct_equals_lifted_for_all_b_to_1e4(self):
        assert (S.direct_height_counts(10 ** 4)
                == T.torsor_height_counts(10 ** 4)).all()


class TestFastCounter:
    def test_inverse_table_matches_pow(self):
        for m in range(1, 401):
            expected = [pow(x, -1, m) if gcd(x, m) == 1 else -1 for x in range(m)]
            assert T._inverse_table(m).tolist() == expected, m

    def test_oracle_every_b_to_500(self):
        for b in range(1, 501):
            assert T.torsor_count(b).count == full_range_count(b), b

    def test_oracle_random_bounds(self):
        rng = random.Random(20260)
        for b in (rng.randint(500, 2 * 10 ** 5) for _ in range(50)):
            assert T.torsor_count(b).count == full_range_count(b), b

    def test_oracle_where_isqrt_changes(self):
        for n in range(1, 61):
            for b in (n * n - 1, n * n, n * n + 1):
                if b >= 1:
                    assert T.torsor_count(b).count == full_range_count(b), b

    def test_matches_height_counts_to_500(self):
        hist = T.torsor_height_counts(500)
        for b in range(1, 501):
            assert T.torsor_count(b).count == hist[b], b

    def test_pinned_1e6(self):
        assert T.torsor_count(10 ** 6).count == 311249256

    def test_max_bound_fits_int64(self):
        b = T.MAX_TORSOR_BOUND
        assert b * (2 * math.log(b) + 1) < 2 ** 63 - 1

    def test_bound_above_limit_fails_before_any_work(self, monkeypatch):
        def started(*args):
            raise AssertionError("counting started above MAX_TORSOR_BOUND")
        monkeypatch.setattr(T, "_divisor_sum", started)
        monkeypatch.setattr(T, "_inverse_table", started)
        with pytest.raises(OutOfRange):
            T.torsor_count(T.MAX_TORSOR_BOUND + 1)


class TestNormalizedPoints:
    def test_enumeration_matches_counts(self):
        count = sum(1 for _ in T.enumerate_normalized(40))
        assert count == 2 * T.torsor_count(40).count

    def test_enumeration_streams(self):
        t0 = time.perf_counter()
        first = list(itertools.islice(T.enumerate_normalized(10 ** 6), 10))
        assert len(first) == 10
        assert time.perf_counter() - t0 < 0.5

    def test_normalized_form(self):
        for norm in T.enumerate_normalized(15):
            a = norm.point.a
            assert a[0] >= 1 and a[1] >= 1
            assert a[2] == a[3] == a[4] == 1
            assert a[5] in (1, -1) and a[6] in (1, -1)

    def test_fiber_sizes_are_exactly_two(self):
        fibers = T.fibers_over_points(30)
        assert len(fibers) == S.direct_count(30).count
        assert {len(v) for v in fibers.values()} == {2}

    def test_fibers_cover_direct_points(self):
        fibers = T.fibers_over_points(25)
        assert set(fibers) == set(S.direct_points(25))

    def test_tuple_stream(self):
        buf = io.StringIO()
        T.write_tuple_stream(T.enumerate_normalized(2), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines and all(len(line.split(",")) == 9 for line in lines)
        for line in lines:
            T.validate(tuple(int(x) for x in line.split(",")))
