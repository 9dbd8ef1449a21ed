"""Torsor validation, descent to the surface, and count agreement."""

import io
import itertools
import math
import random
import time
from fractions import Fraction
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


class TestSharedSweep:
    """torsor_counts: one sweep for many bounds, with product-built inverses."""

    #: The 20 bounds of `dp4 fit` at its defaults, and N(B) at each, as the
    #: per-bound counter with one extended Euclid per residue gave them.
    FIT_GRID = [10000, 14384, 20691, 29764, 42813, 61585, 88587, 127427, 183298,
                263665, 379269, 545559, 784760, 1128838, 1623777, 2335721,
                3359818, 4832930, 6951928, 10000000]
    FIT_COUNTS = [1566424, 2401484, 3674212, 5613120, 8557672, 13025672, 19793332,
                  30035616, 45508648, 68863408, 104074060, 157096284, 236857148,
                  356728848, 536700064, 806656544, 1211235988, 1817084348,
                  2723600444, 4078947148]

    @staticmethod
    def pow_table(m):
        return [pow(x, -1, m) if gcd(x, m) == 1 else -1 for x in range(m)]

    def test_tables_across_a_block_boundary(self, monkeypatch):
        blocks = []  # (first modulus, last modulus, pairs) of each Euclid call
        euclid = T._euclid_inverses

        def record(m, x):
            blocks.append((int(m.min()), int(m.max()), m.size))
            return euclid(m, x)
        monkeypatch.setattr(T, "_euclid_inverses", record)
        for m, inv in T._inverse_tables(2000):
            if len(blocks) > 2:  # the third block has started
                break
            assert inv.tolist() == self.pow_table(m), m
        (first, end1, size1), (start2, end2, size2) = blocks[:2]
        assert first == 3  # no prime lies below 2
        assert start2 == end1 + 1 and m == end2 + 1
        assert max(size1, size2) <= T.EUCLID_BLOCK_PAIRS

    def test_tables_with_tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(T, "EUCLID_BLOCK_PAIRS", 40)  # pi(m) > 40 above 179
        moduli = []
        for m, inv in T._inverse_tables(400):
            assert inv.tolist() == self.pow_table(m), m
            moduli.append(m)
        assert moduli == list(range(2, 401))

    def test_random_unsorted_lists_with_duplicates(self):
        rng = random.Random(4711)
        for _ in range(4):
            bounds = [rng.randint(1, 3 * 10 ** 4) for _ in range(12)]
            bounds += rng.sample(bounds, 4)
            rng.shuffle(bounds)
            results = T.torsor_counts(bounds)
            assert [r.bound for r in results] == bounds
            counts = [r.count for r in results]
            assert counts == [full_range_count(b) for b in bounds], bounds
            assert counts == [T.torsor_count(b).count for b in bounds], bounds

    def test_where_isqrt_changes(self):
        bounds = [b for n in range(1, 61) for b in (n * n - 1, n * n, n * n + 1) if b]
        counts = [r.count for r in T.torsor_counts(bounds)]
        assert counts == [full_range_count(b) for b in bounds]
        assert counts == [T.torsor_count(b).count for b in bounds]

    def test_fit_grid_equals_the_per_bound_counts(self):
        grid = np.unique(np.round(np.logspace(4, 7, 20)).astype(np.int64)).tolist()
        assert grid == self.FIT_GRID
        results = T.torsor_counts(grid)
        assert [r.count for r in results] == self.FIT_COUNTS
        assert [r.elapsed for r in results] == sorted(r.elapsed for r in results)

    def test_fractional_and_empty_inputs(self):
        assert T.torsor_counts([]) == []
        assert [r.count for r in T.torsor_counts([Fraction(1, 2), 3, 1])] == [
            0, full_range_count(3), 4]

    def test_any_bound_above_limit_fails_before_any_work(self, monkeypatch):
        def started(*args):
            raise AssertionError("counting started with a bound above MAX_TORSOR_BOUND")
        for name in ("_divisor_sum", "_factor_tables", "_euclid_inverses",
                     "_inverse_table", "_inverse_tables", "_pair_counts_fast",
                     "_a8_side_counts"):
            monkeypatch.setattr(T, name, started)
        with pytest.raises(OutOfRange):
            T.torsor_counts([1e4, T.MAX_TORSOR_BOUND + 1])


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
