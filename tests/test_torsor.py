"""Torsor validation, descent to the surface, and count agreement."""

import itertools
import math
import os
import random
import threading
import time
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from dp4jigsaw import reporting
from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T
from dp4jigsaw.errors import (EquationViolated, NonpositiveBound,
                              NonUnitMiddle, OutOfRange)
from tests_support import (a8_side_counts_elementwise, direct_count,
                           enumerate_valid, fibers_over_points, full_range_count,
                           height, is_integral, lifted_height,
                           lifted_height_counts_loop, make_point as mk,
                           map_to_surface, naive_torsor_count, on_lines,
                           pair_counts_elementwise, product_inverse_table)


def class_blocks(lo, hi, rows):
    """(ys, classes) of the moduli lo..hi in blocks of rows, each from _class_rows."""
    tables = T._factor_tables(hi // 2)
    for start in range(lo, hi + 1, rows):
        ys = np.arange(start, min(start + rows, hi + 1), dtype=np.int64)
        yield ys, T._class_rows(ys, tables, T._Scratch())


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
        pt = map_to_surface(T.validate((1, 1, 1, 1, 1, 1, 1, 0, -1)))
        assert pt == mk((0, 1, 1, -1, 0))

    def test_map_example_2(self):
        pt = map_to_surface(T.validate((1, 1, 1, 1, 1, 1, 1, -2, 1)))
        assert pt == mk((-2, 1, 1, 1, -2))
        assert is_integral(pt) and height(pt) == 2

    def test_map_example_3(self):
        # substitution gives x1 = a1^2 a2^2 a3^2 a4 a6^3 = 4 here
        t = T.validate((1, 2, 1, 1, 1, 1, 1, -1, 1))
        pt = map_to_surface(t)
        assert pt == mk((-2, 4, 2, 1, -1))
        assert S.on_surface(pt)
        assert lifted_height(t) == height(pt) == 2

    def test_lifted_heights(self):
        assert lifted_height(T.validate((1, 1, 1, 1, 1, 1, 1, 0, -1))) == 1
        assert lifted_height(T.validate((1, 1, 1, 1, 1, 1, 1, -2, 1))) == 2
        assert lifted_height(T.validate((1, 1, 1, 1, 1, -1, 1, 0, -1))) == 1

    def test_exhaustive_small_box_descent(self):
        for pt in enumerate_valid(8):
            a = pt.a
            image = map_to_surface(pt)
            assert S.on_surface(image)
            assert lifted_height(pt) == height(image)
            if a[0] != 0 and a[1] != 0:
                assert on_lines(image) == set()
                assert is_integral(image)


class TestCounts:
    def test_count_at_one(self):
        assert T.torsor_count(1) == 4

    def test_nonpositive(self):
        with pytest.raises(NonpositiveBound):
            T.torsor_count(0)

    def test_fast_equals_naive_to_300(self):
        for b in (1, 2, 3, 7, 20, 55, 137, 300):
            assert T.torsor_count(b) == naive_torsor_count(b)

    def test_fast_equals_direct_to_300(self):
        lifted = T.torsor_height_counts(300)
        direct = S.direct_height_counts(300)
        assert (lifted == direct).all()

    def test_histogram_matches_pointwise_counts(self):
        hist = T.torsor_height_counts(50)
        for b in (1, 10, 37, 50):
            assert hist[b] == T.torsor_count(b)

    def test_histogram_naive_matches_fast(self):
        hist = T.torsor_height_counts(120)
        assert hist[1:].tolist() == [naive_torsor_count(b) for b in range(1, 121)]

    def test_direct_equals_lifted_for_all_b_to_1e4(self):
        assert (S.direct_height_counts(10 ** 4)
                == T.torsor_height_counts(10 ** 4)).all()

    def test_lifted_classes_match_pow(self):
        pairs = [(x, y) for x in range(1, 2001) for y in range(1, 2000 // x + 1)
                 if gcd(x, y) == 1]
        a1, a2 = np.array(pairs).T
        assert T._lifted_classes(a1, a2).tolist() == [-pow(y, -1, x) % x for x, y in pairs]

    def test_histogram_above_limit_fails_before_any_work(self, monkeypatch):
        def started(*args):
            raise AssertionError("the histogram started above MAX_DIRECT_BOUND")
        monkeypatch.setattr(T, "_flat_blocks", started)
        for walk in (T.torsor_height_counts, T.enumerate_normalized):   # --tuples too
            with pytest.raises(OutOfRange):
                walk(S.MAX_DIRECT_BOUND[S.INTEGERS] + 1)

    @pytest.mark.parametrize("b", [1, 2, 3, 10, 57, 300, 2000])
    def test_histogram_equals_the_per_pair_loop(self, b):
        assert T.torsor_height_counts(b).tolist() == lifted_height_counts_loop(b).tolist()

    @pytest.mark.parametrize("b", [1, 2, 10, 57, 300])
    def test_histogram_in_tiny_blocks(self, monkeypatch, b):
        # blocks of 3 items split the pairs of one a1, and the a8 of one pair,
        # across blocks
        monkeypatch.setattr(T, "HEIGHT_BLOCK", 3)
        assert T.torsor_height_counts(b).tolist() == lifted_height_counts_loop(b).tolist()


class TestFastCounter:
    def test_inverse_table_matches_pow(self):
        for m in range(1, 401):
            expected = [pow(x, -1, m) if gcd(x, m) == 1 else -1 for x in range(m)]
            assert T._inverse_table(m).tolist() == expected, m

    def test_oracle_every_b_to_500(self):
        for b in range(1, 501):
            assert T.torsor_count(b) == full_range_count(b), b

    def test_oracle_random_bounds(self):
        rng = random.Random(20260)
        for b in (rng.randint(500, 2 * 10 ** 5) for _ in range(50)):
            assert T.torsor_count(b) == full_range_count(b), b

    def test_oracle_where_isqrt_changes(self):
        # B = K^2 + K - 1 has M = K - 1 and B = K^2 + K has M = K, for odd and even K
        for n in list(range(1, 61)) + [99, 100]:
            for b in (n * n - 1, n * n, n * n + 1, n * n + n - 1, n * n + n, n * n + 2 * n):
                if b >= 1:
                    assert T.torsor_count(b) == full_range_count(b), b

    def test_matches_height_counts_to_500(self):
        hist = T.torsor_height_counts(500)
        for b in range(1, 501):
            assert T.torsor_count(b) == hist[b], b

    def test_pinned_1e6(self):
        assert T.torsor_count(10 ** 6) == 311249256

    def test_max_bound_fits_int64(self):
        b = T.MAX_TORSOR_BOUND
        assert b * (2 * math.log(b) + 1) < 2 ** 63 - 1
        # above S = K // 2: column products, column terms and the tail sums
        k = isqrt(b)
        s = k // 2
        assert k * s <= b // 2
        assert 16 * b < 2 ** 63 - 1
        for k in list(range(2, 2000)) + [isqrt(b)]:  # B <= K^2 + 2K <= 16 S^2
            assert k * k + 2 * k <= 16 * (k // 2) ** 2, k
        # the int32 columns: B // x for x > S, plus a class below K
        assert b // (s + 1) < 2 * k + 4 and 3 * k + 4 < 2 ** 31 - 1

    def test_bound_above_limit_fails_before_any_work(self, monkeypatch):
        def started(*args):
            raise AssertionError("counting started above MAX_TORSOR_BOUND")
        monkeypatch.setattr(T, "_divisor_sum", started)
        monkeypatch.setattr(T, "_class_rows", started)
        with pytest.raises(OutOfRange):
            T.torsor_count(T.MAX_TORSOR_BOUND + 1)


class TestResidueArithmetic:
    """Mirrored inverse tables and per-residue sums against elementwise oracles."""

    def test_mirrored_tables_equal_the_full_product(self):
        # test_inverse_table_matches_pow checks the same m against pow
        for m in range(1, 401):
            assert T._inverse_table(m).tolist() == product_inverse_table(m).tolist(), m

    def test_mirror_edges(self):
        assert T._inverse_table(2).tolist() == [-1, 1]
        assert T._inverse_table(3).tolist() == [-1, 1, 2]
        assert T._inverse_table(4).tolist() == [-1, 1, -1, 3]
        for m in range(4, 401, 2):  # m / 2 is its own mirror, and no unit
            assert T._inverse_table(m)[m // 2] == -1, m

    @staticmethod
    def block(lo, hi, n):
        """The _Block of the moduli lo..hi, one block, its classes over 0..n."""
        ((ys, base),) = class_blocks(lo, hi, hi - lo + 1)
        return T._Block(ys, base, n, T._Scratch())

    def test_class_sum_matches_a_scan(self):
        rng = random.Random(8128)
        block = self.block(2, 60, 360)      # at least one period of every row
        ys = block.ys.tolist()
        for _ in range(300):
            x, n = rng.randint(0, 500), rng.randint(0, 300)
            class_sum, units = block.class_sum(x, n).tolist(), block.units(n).tolist()
            for r, a1 in enumerate(ys):
                # the units from gcd: the block's weights are 0 up to x = a1
                scan = sum((x - c) // a1 + (x + c) // a1
                           for a8, c in enumerate(block.classes[r, 1:n + 1].tolist(), 1)
                           if gcd(a8, a1) == 1)
                assert class_sum[r] == scan, (a1, x, n)
                assert units[r] == sum(gcd(a8, a1) == 1 for a8 in range(1, n + 1))

    def test_per_row_arguments(self):
        # one x and one n per row, as rests passes B // y
        block = self.block(2, 60, 360)
        xs, ns = 1000 // block.ys, 300 - block.ys
        for r in range(block.ys.size):
            row = self.block(r + 2, r + 2, 360)
            assert block.period_sum(xs)[r] == row.period_sum(int(xs[r]))[0]
            assert block.class_sum(xs, ns)[r] == row.class_sum(int(xs[r]), int(ns[r]))[0]
            assert block.units(ns)[r] == row.units(int(ns[r]))[0]

    def test_period_sum_is_a_whole_period_of_class_sum(self):
        # the a8 up to t = a1 - 1 or a1 are one period: a1 is no unit
        block = self.block(2, 59, 59)
        for x in (0, 1, 57, 58, 3 * 59 + 2, 10 ** 6 + 29):
            period = block.period_sum(x).tolist()
            assert period == block.class_sum(x, block.ys - 1).tolist(), x
            assert period == block.class_sum(x, block.ys).tolist(), x

    def test_both_halves_match_the_elementwise_formulas(self):
        rng = random.Random(31337)
        cases = []
        for _ in range(200):
            b = rng.randint(4, 2 * 10 ** 5)
            cases.append((rng.randint(2, isqrt(b)), b))
        for k in (2, 3, 17, 100, 447):
            cases.append((k, k * k))                  # a1 = K > M = K - 1
            cases.append((k, k * k + 2 * k))          # a1 = K = M
        for b in (1000, 12345, 99999, 2 * 10 ** 5):
            m = b // (isqrt(b) + 1)
            cases += [(a1, b) for a1 in range(2, isqrt(b) + 1) if m % a1 == 0]
        seen = set()
        for a1, b in cases:
            # one chunk: the rows a1..a1 + R - 1 <= K over x = a1 + 1..K
            bound = T._Bound(b)
            k = bound.k
            block = self.block(a1, min(a1 + rng.randint(0, 3), k), k)
            shape, x = (block.ys.size, k - a1), slice(a1 + 1, k + 1)
            out = np.empty(shape, bound.over.dtype), np.empty(shape, bound.over.dtype)
            chunk = T._pair_counts_fast(block.ys[:, None].astype(bound.over.dtype),
                                        block.classes[:, x], bound, block.weights[:, x], out)
            rows = block.ys.tolist()
            assert chunk + int(block.rests(bound).sum()) == sum(
                pair_counts_elementwise(y, b, T._inverse_table(y))
                + a8_side_counts_elementwise(y, b, T._inverse_table(y)) for y in rows), (rows, b)
            for y in rows:
                if bound.m < y:
                    seen.add("M < a1")
                if bound.m % y == 0:
                    seen.add("M % a1 = 0")
                if y == bound.k:
                    seen.add("a1 = K")
        assert seen == {"M < a1", "M % a1 = 0", "a1 = K"}

    @pytest.mark.parametrize("b", [2 ** 31 - 1, 2 ** 31])
    def test_kernel_dtype_either_side_of_2_31(self, b):
        # int32 quotients and divisors below 2^31, int64 from it; the block
        # spans n = 2K + 2, so that its columns start above K and pairs
        # counts the rows alone
        bound = T._Bound(b)
        assert bound.over.dtype == (np.int32 if b < 2 ** 31 else np.int64)
        block = self.block(2, 6, 2 * bound.k + 2)
        assert block.pairs(bound) == sum(
            pair_counts_elementwise(y, b, T._inverse_table(y))
            + a8_side_counts_elementwise(y, b, T._inverse_table(y)) for y in range(2, 7))

    def test_rows_of_one_block_match_rows_alone(self):
        # rows past K, M = K - 1 and M = K, and a1 = K inside one block
        for b in (400, 419, 420, 30 ** 2 + 29, 1000):
            bound = T._Bound(b)
            block = self.block(2, 30, 31)
            rests = block.rests(bound).tolist()
            for r, a1 in enumerate(block.ys.tolist()):
                if a1 <= bound.k:
                    assert rests[r] == self.block(a1, a1, 31).rests(bound)[0], (b, a1)


class TestColumns:
    """Above S = max K // 2: classes off the tables mod y, and closed forms per a1."""

    @staticmethod
    def columns(lo, hi, s, n):
        """_columns of the rows y = lo..hi, or of the row y = 1 as _tail_pairs builds it."""
        work = T._Scratch()
        if lo == 1:
            y, one = np.ones(1, dtype=np.int64), np.ones((1, n + 1), dtype=np.int64)
            return y, T._columns(y, one - 1, one, s, n, work)
        ((ys, base),) = class_blocks(lo, hi, hi - lo + 1)
        block = T._Block(ys, base, n, T._Scratch())
        return ys, T._columns(ys, block.classes, block.weights, s, n, work)

    def test_column_classes_equal_pow(self):
        for k in range(2, 81):
            s = k // 2
            n = k + s                  # every row runs to a1 = K at least
            rows = [self.columns(1, 1, s, n)] + ([self.columns(2, s, s, n)] if s > 1 else [])
            for ys, (a1, classes, weights) in rows:
                for r, y in enumerate(ys.tolist()):
                    xs = range(s + 1 + int(ys[0]), n + 1)
                    assert a1[r].tolist() == [x - y for x in xs]
                    for x, c, w in zip(xs, classes[r].tolist(), weights[r].tolist()):
                        a = x - y
                        assert w == (a > s and gcd(x, a) == 1), (k, y, a)
                        if w:
                            u = pow(a, -1, y) if y > 1 else 1
                            assert (a * u - 1) % y == 0
                            assert c == (a * u - 1) // y == -pow(x, -1, a) % a, (k, y, a)

    def test_squarefree_divisors(self):
        a = np.array(list(range(2, 400)) + [9699690, 2 ** 20, 999983, 2 * 999983,
                                            3 ** 4 * 7 ** 2 * 101], dtype=np.int64)
        owner, d, mu = T._squarefree_divisors(a, S.primes_up_to(isqrt(int(a.max())) + 50))
        assert (np.diff(owner) >= 0).all()
        for i, n in enumerate(a.tolist()):
            primes, rest, p = [], n, 2
            while p * p <= rest:
                if rest % p == 0:
                    primes.append(p)
                    while rest % p == 0:
                        rest //= p
                p += 1
            primes += [rest] if rest > 1 else []
            expected = sorted((math.prod(c), (-1) ** len(c))
                              for r in range(len(primes) + 1)
                              for c in itertools.combinations(primes, r))
            rows = owner == i
            assert sorted(zip(d[rows].tolist(), mu[rows].tolist())) == expected, n
            if n < 400:
                phi = sum(gcd(x, n) == 1 for x in range(1, n + 1))
                assert int(np.dot(mu[rows], n // d[rows])) == phi, n

    @pytest.mark.parametrize("tail_block", [T.TAIL_BLOCK, 7])
    def test_columns_and_tail_equal_the_rows_above_s(self, monkeypatch, tail_block):
        monkeypatch.setattr(T, "TAIL_BLOCK", tail_block)
        for bounds in ([10 ** 4], [99999], [12345, 29999, 30000, 3 * 10 ** 4 + 173],
                       [5000, 100 ** 2, 101 ** 2 - 1, 101 ** 2 + 101]):
            states = [T._Bound(b) for b in bounds]
            n = states[-1].k
            s = n // 2
            work = T._Scratch()
            columns = [self.columns(lo, min(lo + 4, s), s, n) for lo in range(2, s + 1, 5)]
            tails = T._tail_pairs(states)
            for state, tail in zip(states, tails):
                k = state.k
                rows = 0
                for a1 in range(s + 1, k + 1):      # _Block.pairs of a row above S alone
                    ((ys, base),) = class_blocks(a1, a1, 1)
                    block = T._Block(ys, base, k, T._Scratch())
                    assert T._column_pairs(ys, *block.columns, state, work) == 0
                    rows += block.pairs(state)
                split = tail + sum(T._column_pairs(ys, *column, state, work)
                                   for ys, column in columns)
                assert split == rows, (bounds, state.b)

    def test_sweeps_with_s_equal_to_one(self, monkeypatch):
        # K = 2, 3: no row and no block; only the column y = 1 and the tail run
        ys = []
        column_pairs = T._column_pairs

        def record(rows, *args):
            ys.extend(rows.tolist())
            return column_pairs(rows, *args)
        monkeypatch.setattr(T, "_column_pairs", record)
        for b in range(4, 16):
            assert T.torsor_count(b) == full_range_count(b), b
        assert set(ys) == {1}
        assert T.torsor_count(16) == full_range_count(16)  # K = 4, S = 2
        assert set(ys) == {1, 2}

    def test_inverse_tables_only_up_to_s(self, monkeypatch):
        moduli = []
        class_rows = T._class_rows

        def record(ys, *args):
            moduli.extend(ys.tolist())
            return class_rows(ys, *args)
        monkeypatch.setattr(T, "_class_rows", record)
        monkeypatch.setattr(T, "FORK_MIN_MODULI", 10 ** 9)  # record in this process
        assert T.torsor_count(3 * 10 ** 7) == 13756575832
        # S = 5477 // 2 = 2738, against 5476 calls and 15001502 entries up to K
        assert sorted(moduli) == list(range(2, 2739))
        assert len(moduli) == 2737 and sum(moduli) == 3749690


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

    @staticmethod
    def inverses(ys, classes):
        """The inverse table mod each y off its row of classes, -1 for a non-unit."""
        return [[y - c if c else -1 for c in row[:y]]
                for y, row in zip(ys.tolist(), classes.tolist())]

    @pytest.fixture(scope="class")
    def oracles(self):
        """product_inverse_table(m) of every m = 2..2000, checked once against pow."""
        tables = {m: product_inverse_table(m).tolist() for m in range(2, 2001)}
        assert all(tables[m] == self.pow_table(m) for m in range(2, 2001))
        return tables

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 128])
    def test_block_tables_match_the_product_oracle(self, oracles, rows):
        moduli = []
        for ys, classes in class_blocks(2, 2000, rows):
            assert ys.size == min(rows, 2001 - ys[0])
            assert classes.shape == (ys.size, ys[-1])
            for y, inverse in zip(ys.tolist(), self.inverses(ys, classes)):
                assert inverse == oracles[y], (rows, y)
                moduli.append(y)
        assert moduli == list(range(2, 2001))

    def test_tables_across_a_block_boundary(self, monkeypatch):
        blocks = []  # (first modulus, last modulus, pairs) of each Euclid call
        euclid = T._euclid_inverses

        def record(m, x):
            blocks.append((int(m.min()), int(m.max()), m.size))
            return euclid(m, x)
        monkeypatch.setattr(T, "_euclid_inverses", record)
        for ys, classes in class_blocks(2, 2000, 7):
            if len(blocks) > 2:  # the third block has started
                break
            for y, inverse in zip(ys.tolist(), self.inverses(ys, classes)):
                assert inverse == self.pow_table(y), y
        (first, end1, size1), (start2, end2, size2) = blocks[:2]
        assert first == 4  # no prime lies at or below m // 2 for m < 4
        assert (end1, start2, end2) == (8, 9, 15) and ys[0] == end2 + 1  # blocks 2..8, 9..15
        primes = [2, 3, 5, 7]
        assert size1 == sum(p <= m // 2 for m in range(2, 9) for p in primes)
        assert size2 == sum(p <= m // 2 for m in range(9, 16) for p in primes)

    def test_tables_with_tiny_blocks(self, monkeypatch):
        # a tiny element budget: one modulus a block, the tables still exact
        moduli = []
        class_rows = T._class_rows

        def record(ys, *args):
            classes = class_rows(ys, *args)
            assert ys.size == 1
            assert self.inverses(ys, classes) == [self.pow_table(int(ys[0]))]
            moduli.extend(ys.tolist())
            return classes
        bounds = [10 ** 4, 12345, 99999, 101 ** 2 + 101]
        counts = T.torsor_counts(bounds)
        monkeypatch.setattr(T, "SHARE_BLOCK_ELEMENTS", 40)
        monkeypatch.setattr(T, "FORK_MIN_MODULI", 10 ** 9)     # record in this process
        monkeypatch.setattr(T, "_class_rows", record)
        assert T.torsor_counts(bounds) == counts == [full_range_count(b) for b in bounds]
        assert moduli == list(range(2, isqrt(max(bounds)) // 2 + 1))

    @pytest.mark.parametrize("s", [128, 129, 257])
    def test_s_on_either_side_of_a_block_edge(self, s):
        # SHARE_BLOCK = 128 moduli from y = 2: blocks end at 129 and 257
        # K = 2S with M = K - 1, and K = 2S + 1 = M
        bounds = [(2 * s) ** 2, (2 * s + 1) ** 2 + 2 * s]
        assert [isqrt(b) // 2 for b in bounds] == [s, s]
        assert T.torsor_counts(bounds) == [full_range_count(b) for b in bounds]

    def test_random_unsorted_lists_with_duplicates(self):
        rng = random.Random(4711)
        for _ in range(4):
            bounds = [rng.randint(1, 3 * 10 ** 4) for _ in range(12)]
            bounds += rng.sample(bounds, 4)
            rng.shuffle(bounds)
            counts = T.torsor_counts(bounds)
            assert counts == [full_range_count(b) for b in bounds], bounds
            assert counts == [T.torsor_count(b) for b in bounds], bounds

    def test_where_isqrt_changes(self):
        bounds = [b for n in range(1, 61) for b in (n * n - 1, n * n, n * n + 1) if b]
        counts = T.torsor_counts(bounds)
        assert counts == [full_range_count(b) for b in bounds]
        assert counts == [T.torsor_count(b) for b in bounds]

    def test_fit_grid_equals_the_per_bound_counts(self):
        grid = np.unique(np.round(np.logspace(4, 7, 20)).astype(np.int64)).tolist()
        assert grid == self.FIT_GRID
        assert T.torsor_counts(grid) == self.FIT_COUNTS

    @pytest.mark.parametrize("chunk", [1, 1 << 30])
    def test_any_row_chunk_gives_the_same_counts(self, monkeypatch, chunk):
        # one row a kernel call, or every row of a block in one call
        grid = [b for b in self.FIT_GRID if b <= 10 ** 5] + [99999, 10 ** 5, 317 ** 2 + 317]
        counts = T.torsor_counts(grid)
        assert counts[:7] == self.FIT_COUNTS[:7]
        monkeypatch.setattr(T, "ROW_CHUNK", chunk)
        assert T.torsor_counts(grid) == counts

    def test_the_buffer_size_is_restored(self):
        size = np.getbufsize()
        T.torsor_counts([10 ** 4, 3 * 10 ** 4])
        assert np.getbufsize() == size
        # a kernel error inside the divisions: a column of three moduli for two rows
        bound = T._Bound(10 ** 4)
        shape = 2, bound.k - 2
        out = np.zeros(shape, np.int32), np.zeros(shape, np.int32)
        with pytest.raises(ValueError):
            T._pair_counts_fast(np.array([[2], [3], [4]], np.int32), np.zeros(shape, np.int32),
                                bound, np.ones(shape, np.int32), out)
        assert np.getbufsize() == size

    def test_counts_are_python_ints(self):
        # a numpy integer would fail JSON output and could wrap around
        for n in T.torsor_counts([3, 10 ** 4, 3 * 10 ** 4]):
            assert type(n) is int

    def test_fractional_and_empty_inputs(self):
        assert T.torsor_counts([]) == []
        assert T.torsor_counts([Fraction(1, 2), 3, 1]) == [
            0, full_range_count(3), 4]

    def test_more_bounds_than_the_limit_fail_before_any_work(self, monkeypatch):
        bounds = list(range(1, T.MAX_SWEEP_BOUNDS + 1))
        counts = T.torsor_counts(bounds)
        assert T.torsor_counts(bounds[::-1] + bounds) == counts[::-1] + counts

        def built(*args):
            raise AssertionError("a _Bound was built for more than MAX_SWEEP_BOUNDS bounds")
        monkeypatch.setattr(T, "_Bound", built)
        with pytest.raises(OutOfRange):
            T.torsor_counts(bounds + [T.MAX_SWEEP_BOUNDS + 1])

    def test_any_bound_above_limit_fails_before_any_work(self, monkeypatch):
        def started(*args):
            raise AssertionError("counting started with a bound above MAX_TORSOR_BOUND")
        for name in ("_divisor_sum", "_factor_tables", "_euclid_inverses",
                     "_class_rows", "_inverse_table", "_Block",
                     "_pair_counts_fast", "_columns", "_column_pairs",
                     "_squarefree_divisors", "primes_up_to", "_tail_pairs", "_share_pairs",
                     "_forked", "_sweep"):
            monkeypatch.setattr(T, name, started)
        with pytest.raises(OutOfRange):
            T.torsor_counts([1e4, T.MAX_TORSOR_BOUND + 1])


def no_child_processes():
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedSweep:
    """_sweep: the moduli dealt to forked workers give the in-process counts."""

    @pytest.fixture
    def shares(self, monkeypatch):
        """Fork every sweep with K >= 2 into blocks of 4 moduli; record the shares.

        On a host with one CPU the affinity is widened to two, so that the
        forked route still runs.
        """
        monkeypatch.setattr(T, "FORK_MIN_MODULI", 2)
        monkeypatch.setattr(T, "SHARE_BLOCK", 4)
        if len(os.sched_getaffinity(0)) < 2:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        recorded = []
        forked = T._forked

        def record(states, shares, local):
            recorded.append(shares)
            return forked(states, shares, local)
        monkeypatch.setattr(T, "_forked", record)
        return recorded

    @staticmethod
    def in_process(bounds):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "FORK_MIN_MODULI", 10 ** 9)
            return T.torsor_counts(bounds)

    def test_fit_grid(self, shares, monkeypatch):
        monkeypatch.setattr(T, "SHARE_BLOCK", 128)
        grid = TestSharedSweep.FIT_GRID
        assert T.torsor_counts(grid) == TestSharedSweep.FIT_COUNTS
        assert self.in_process(grid) == TestSharedSweep.FIT_COUNTS
        assert len(shares) == 1
        assert no_child_processes()

    def test_n_3e7(self, shares, monkeypatch):
        monkeypatch.setattr(T, "SHARE_BLOCK", 128)
        assert T.torsor_count(3 * 10 ** 7) == 13756575832
        assert self.in_process([3 * 10 ** 7]) == [13756575832]
        assert len(shares) == 1
        assert no_child_processes()

    def test_the_tail_runs_while_the_workers_run(self, shares, monkeypatch):
        tail = T._tail_pairs
        seen = []

        def record(states):
            # a worker not yet reaped: waitid without WNOWAIT would reap it
            seen.append(os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT))
            return tail(states)
        monkeypatch.setattr(T, "_tail_pairs", record)
        assert T.torsor_count(60 ** 2) == full_range_count(60 ** 2)
        assert len(seen) == 1 and len(shares) == 1
        assert no_child_processes()

    def test_a_tail_error_still_reaps_the_workers(self, shares, monkeypatch):
        def fails(states):
            raise ArithmeticError("planted in the tail")
        monkeypatch.setattr(T, "_tail_pairs", fails)
        with pytest.raises(ArithmeticError, match="tail"):
            T.torsor_count(60 ** 2)
        assert len(shares) == 1
        assert no_child_processes()

    def test_random_unsorted_lists_with_duplicates(self, shares):
        rng = random.Random(1729)
        for _ in range(3):
            bounds = [rng.randint(1, 3 * 10 ** 4) for _ in range(10)]
            bounds += rng.sample(bounds, 4)
            rng.shuffle(bounds)
            assert T.torsor_counts(bounds) == self.in_process(bounds)
        assert len(shares) == 3
        assert no_child_processes()

    def test_where_isqrt_changes(self, shares):
        bounds = [b for n in range(1, 61) for b in (n * n - 1, n * n, n * n + 1) if b]
        counts = T.torsor_counts(bounds)
        assert counts == self.in_process(bounds)
        assert counts == [full_range_count(b) for b in bounds]
        # every modulus 2..S = 30 in exactly one block, the blocks dealt round-robin
        (dealt,) = shares
        blocks = sorted(block for share in dealt for block in share)
        assert blocks == [(lo, min(lo + 3, 30)) for lo in range(2, 31, 4)]
        assert all(share == blocks[w::len(dealt)] for w, share in enumerate(dealt))

    def test_no_more_workers_than_cpus(self, shares, monkeypatch):
        for cpus, bound, workers in ((64, 30 ** 2, 4), (3, 40 ** 2, 3), (1, 40 ** 2, 0)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            shares.clear()
            assert T.torsor_count(bound) == full_range_count(bound)
            assert [len(dealt) for dealt in shares] == ([workers] if workers else [])
        assert no_child_processes()

    def test_a_process_with_threads_does_not_fork(self, shares):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert T.torsor_count(40 ** 2) == full_range_count(40 ** 2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and shares == []

    def test_a_worker_error_reaches_the_caller(self, shares, monkeypatch):
        kernel = T._pair_counts_fast

        def planted(a1, *args):
            if 29 in a1:                  # the chunk of rows that holds a1 = 29
                raise ArithmeticError("planted in the worker of a1 = 29")
            return kernel(a1, *args)
        monkeypatch.setattr(T, "_pair_counts_fast", planted)
        with pytest.raises(ArithmeticError, match="a1 = 29"):
            T.torsor_count(60 ** 2)  # a row up to S = 30
        assert len(shares) == 1
        assert no_child_processes()

    def test_a_worker_that_dies_fails_the_sweep(self, shares, monkeypatch):
        kernel = T._pair_counts_fast

        def dies(a1, *args):
            if 29 in a1:
                os._exit(3)
            return kernel(a1, *args)
        monkeypatch.setattr(T, "_pair_counts_fast", dies)
        with pytest.raises(ChildProcessError):
            T.torsor_count(60 ** 2)
        assert no_child_processes()


class TestNormalizedPoints:
    def test_enumeration_matches_counts(self):
        count = sum(1 for _ in T.enumerate_normalized(40))
        assert count == 2 * T.torsor_count(40)

    def test_enumeration_streams(self):
        t0 = time.perf_counter()
        first = list(itertools.islice(T.enumerate_normalized(10 ** 6), 10))
        assert len(first) == 10
        assert time.perf_counter() - t0 < 0.5

    def test_normalized_form(self):
        for pt in T.enumerate_normalized(15):
            a = pt.a
            assert a[0] >= 1 and a[1] >= 1
            assert a[2] == a[3] == a[4] == 1
            assert a[5] in (1, -1) and a[6] in (1, -1)

    def test_fiber_sizes_are_exactly_two(self):
        fibers = fibers_over_points(30)
        assert len(fibers) == direct_count(30)
        assert {len(v) for v in fibers.values()} == {2}

    def test_fibers_cover_direct_points(self):
        fibers = fibers_over_points(25)
        assert set(fibers) == set(S.direct_points(25))

    def test_tuple_stream(self, tmp_path):
        reporting.write_lines(tmp_path / "tuples.txt", T.enumerate_normalized(2))
        lines = (tmp_path / "tuples.txt").read_text().strip().splitlines()
        assert lines and all(len(line.split(",")) == 9 for line in lines)
        for line in lines:
            T.validate(tuple(int(x) for x in line.split(",")))
