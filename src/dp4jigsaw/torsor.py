"""Universal-torsor parameterization of the integral points over Q.

Integral points off the lines lift to integer 9-tuples (a1, ..., a9) with

    a1*a9 + a2*a8 + a3*a4^2*a5^3*a7 = 0,      a3, ..., a7 units,

mapping back to the surface through fixed monomials in the a_i.  Over Q
the class group is trivial and there are no fundamental units, so sign
normalization (a1, ..., a5 > 0) realizes a fundamental domain and every
surface point has exactly two normalized lifts; hence

    N(B) = 1/2 * #{a1, a2 >= 1, a6, a7 = +-1, a8, a9 in Z :
                   a1*a9 + a2*a8 + a7 = 0,
                   max(|a2*a8|, a1*a2, |a1*a9|) <= B}.

The fast counter resolves the congruence a2*a8 = -a7 (mod a1) and counts
each residue class in O(1), in O(sqrt B) memory:

* the row a1 = 1 has no congruence and is a closed form in the divisor
  summatory function D(n) = sum_{k <= n} floor(n/k), itself evaluated in
  O(sqrt n) by the hyperbola identity;
* for a1 >= 2 the hyperbola split at K = isqrt(B) counts a8 per a2 for
  a2 <= K, and a2 per a8 for a2 > K, where |a8| <= M = B // (K + 1);
* both halves are one elementwise kernel (_pair_counts_fast).  Each a8
  counts the a2 in its class inside (K, min(top, cap)], cap = B // a1, and
  both tops reach cap exactly for a8 <= t = min((B-1) // cap, M).  With
  B = a1*cap + r0, 0 <= r0 < a1 <= K <= cap, (B-1) // cap is a1 when
  r0 > 0 and a1 - 1 when r0 = 0, and M = B // (K + 1) is K - 1 or K, so
  t is a1 - 1 or a1.  a8 = a1 is no unit mod a1, so the a8 terms over
  (t, M] are the a2 terms over (a1, K] (the same quotients, the same
  classes), less the term at K when M = K - 1; and the a8 up to t are one
  whole period of the classes, a closed form (_Block.period_sum);
* one sweep over a1 = 2..max K serves a whole list of bounds
  (torsor_counts).  Each a1 gets one periodic row of the classes
  -x^-1 mod a1 over 0..max K, with 0/1 unit weights (_Block), and every
  bound with K >= a1 counts from plain slices of it, with one weighted sum;
* each bound holds the quotients B // n and (B - 1) // n for n <= K once:
  they are the a8 range of a2 = n and the a2 limits of a8 = n;
* the terms at K of the a8 side depend on a8 mod a1 alone: they are
  summed per residue (_Block.class_sum);
* the inverse table mod m is built for the residues up to m // 2 and
  mirrored, inv[m - x] = m - inv[x].  Only the primes up to m // 2 go
  through an extended Euclid, one vectorized call over every (m, p) pair
  of a block of consecutive moduli; the composites are products of
  earlier entries, one vectorized step per level of a balanced
  factorization (_factor_tables);
* the moduli up to S (below) are built a block of consecutive moduli at
  a time, one row per modulus, in 2-D arrays of at most
  SHARE_BLOCK_ELEMENTS values: the half inverse tables, one product per
  factor level and one mirror for the block (_class_rows); the periodic
  classes, weights and unit counts (_Block); the columns (_columns), with
  every bound's column terms in one step (_column_pairs); and the closed
  forms of every bound as arrays over the block's rows (_Block.rests).
  The row kernel runs once per block and bound (_Block.pairs), and
  divides each row by its a1, a column (R, 1) of the block's moduli.
  numpy divides by a broadcast column on its loop for a scalar divisor
  (libdivide) only where a row is longer than half of np.getbufsize(), so
  every division by a column of moduli runs with the buffer cut to 16
  elements (_floor_divide_rows).  On a 2-vCPU host (numpy 2.4, rows of
  3163) that took 0.95 ns an element in int64 and 0.36 ns in int32,
  against 3.6 and 2.6 ns under the default buffer of 8192; the kernel
  runs in int32 below B = 2^31 (MAX_TORSOR_BOUND);
* the sweep is split at S = max K // 2.  A modulus a1 > S reads classes
  only at x = a1 + y with 1 <= y <= K - a1 <= S, and there the class comes
  off the table mod y, which the row of a1 = y builds anyway: with
  u = a1^-1 mod y, c = -x^-1 mod a1 = (a1*u - 1) / y, exact since
  a1*u = 1 (mod y), and in [1, a1) since y < a1 and u < y (u = 1 at y = 1).
  x is a unit mod a1 exactly when u exists, and u = x^-1 mod y is read off
  the row of y at x.  So each y <= S runs its row a1 = y and one column
  over a1 in (S, K - y] (_column_pairs).  As
  K < 2*a1 there, x = a1 + y's term of class_sum(K, M) is
  g = 2 - [c > K - a1] + [c >= 2*a1 - K], and the column sums
  w*(2f - [x <= M]*g + 1), the 2f being f at x = K when M = K - 1.  The a8
  up to a1 in class_sum(K, M) are one period, so each a1 > S adds
  period_sum(B // a1) - period_sum(K), with phi(a1) and the unit counts by
  inclusion-exclusion over the prime divisors of a1 (_tail_pairs).  Only the
  inverse tables up to S are built, a quarter of the entries;
* the moduli y <= S are independent: their _Blocks are dealt round-robin
  to forked workers, at most one per CPU the process may run on, and each
  worker returns one exact partial count per bound (_sweep).  Small
  sweeps, and hosts without fork, run the same share in the calling
  process.

Each bound's arrays hold O(sqrt B) values, and the count is integer
arithmetic throughout.  The tests check it against a naive scan of a8,
the kernel against the sum of the elementwise forms of the two halves,
the columns and closed forms above S against the kernel's rows there,
and the forked sweep against the in-process one.
"""

import os
import pickle
import signal
import threading
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CoprimalityBroken, EquationViolated, NonUnitMiddle, OutOfRange
from .surface import INTEGERS, MAX_DIRECT_BOUND, _flat_blocks, _int_bound, primes_up_to

#: Largest bound torsor_count takes (MAX_SWEEP_ROOTS refuses one bound
#: above about 1e14 first, for memory).  Its largest int64 intermediate is a
#: sum of class counts for one a1 and one bound (or a sum of floor(n/k) in
#: D(n)), at most the a1 = 1 row sum_{a2 <= B} (2B/a2 + 1), about
#: B * (2 ln B + 1); at B = 10^17 that is 7.9e18 < 2^63 - 1 = 9.2e18.  A
#: kernel call sums the rows a1 >= 2 of one _Block, each below
#: 2B(ln K + 1)/a1 + 2K.  Below B = 2^36 all rows together sum below
#: 2B(ln K + 1)^2 + 2K^2 < 2^45; from it on, max K >= 2^18 =
#: SHARE_BLOCK_ELEMENTS, so every _Block is a single row a1 >= 2 and a call
#: sums less than the a1 = 1 row.
#: Below B = 2^31 the kernel runs in int32: its quotients are at most B - 1,
#: B // x + c <= B // 3 + K as x > a1 >= 2 and the classes c are below a1,
#: and each weighted count is below 2B/(x*a1) + 2; the sum is int64.
#: A row's closed forms (_Block.rests) are below 2B + 10K: with y >= 2,
#: period_sum(B // y) <= 2B/y + 2y, and class_sum(K, M) is at most
#: M // y + 1 periods of period_sum(K) <= 2K + 2y and a part period below
#: K + y; the rows' sums with the kernel are Python ints.  An inverse-table
#: product is below S^2 <= B/4.  Above S = K // 2, a column product a1*u
#: is below K*S <= B/2, and B // a1^2 <= B // S^2 <= 16, so f < 2B/S^2
#: <= 32, a column term 2f + 1 - g is below 64, a block's column sum below
#: 64 * SHARE_BLOCK_ELEMENTS, and each a1 > S adds less than 32K in
#: _tail_pairs, under 16B in all.  The columns run in int32: there
#: B // x <= B // (S + 1) < 2K + 4 and a class is below K, so at B = 10^17
#: they stay below 3K + 4 = 9.5e8 < 2^31 = 2.1e9.  The O(B) running time
#: is the practical limit far below it.
MAX_TORSOR_BOUND = 10 ** 17

#: Most distinct bounds one sweep counts.  Each holds a _Bound, two arrays
#: of isqrt(B) quotients, from before the sweep to its end, and each adds
#: its kernel calls to every share.  Fresh `dp4 fit` over [1e4, 1e7] on a
#: 2-vCPU host took 0.64 s and 33.4 MB at 20 samples, 0.92 s and 33.8 MB
#: at 200, 3.1 s and 42 MB at 1000, and 5.6 s and 52 MB at 2000.
MAX_SWEEP_BOUNDS = 200

#: Largest sum of isqrt(B) over the distinct bounds of one sweep.  A _Bound
#: holds two arrays of isqrt(B) quotients, int64 from B = 2^31, and builds
#: them from a third: in a fresh process on a 2-vCPU host, _Bound(10^12)
#: alone raised VmHWM by 22.8 MB and _Bound(10^14) by 229 MB, about 24
#: bytes per unit of isqrt(B).  So one bound is refused above about 1e14,
#: where the O(B) sweep would run for days (N(1e9) took 3.6 s), and 200
#: bounds below 2^31, with int32 quotients, always pass.
MAX_SWEEP_ROOTS = 10 ** 7


@dataclass(frozen=True)
class TorsorPoint:
    """A valid integer solution of the torsor equation with unit middle."""

    a: tuple

    def __str__(self):
        return ",".join(str(x) for x in self.a)


def validate(values):
    """Check the torsor equation and unit conditions; return a TorsorPoint.

    The coprimality gcd(a1*a9, a2*a8) = 1 and the pairwise conditions on
    the indices 1, 2, 8, 9 follow from the equation; they are asserted,
    never imposed, and a failure means broken arithmetic.
    """
    a = tuple(int(x) for x in values)
    if len(a) != 9:
        raise EquationViolated("a torsor point has nine coordinates")
    a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    for v in (a3, a4, a5, a6, a7):
        if v not in (1, -1):
            raise NonUnitMiddle(f"a3..a7 must be units, got {a}")
    if a1 * a9 + a2 * a8 + a3 * a4 * a4 * a5 ** 3 * a7 != 0:
        raise EquationViolated(f"torsor equation fails for {a}")
    if gcd(a1 * a9, a2 * a8) != 1:
        raise CoprimalityBroken(f"gcd(a1*a9, a2*a8) != 1 for {a}")
    # non-adjacent pairs among the non-unit coordinates
    if gcd(a1, a2) != 1 or gcd(a1, a8) != 1 or gcd(a2, a9) != 1:
        raise CoprimalityBroken(f"pairwise coprimality fails for {a}")
    return TorsorPoint(a)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def _factor_tables(n):
    """(levels, primes) for 0..n: the composites as balanced products, and the primes.

    With Omega(i) the number of prime factors of i, counted with
    multiplicity, a composite i = u * v, u the product of its Omega(i) // 2
    smallest prime factors, lies in level L = 1, 2, ... when
    2^(L-1) < Omega(i) <= 2^L.  Then u and v have at most 2^(L-1) prime
    factors each, so they are 1, primes or composites of earlier levels.
    levels[L - 1] = (i, u, v) over that level, ascending in i.
    """
    spf = np.arange(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    index = np.arange(n + 1, dtype=np.intp)
    cof = index // np.maximum(spf, 1)    # i = spf[i] * cof[i], cof[i] <= i / 2
    primes = np.flatnonzero((spf == index) & (index >= 2))
    omega = np.zeros(n + 1, dtype=np.intp)
    lo = 2
    while lo <= n:                       # cof of [lo, 2 lo) lies below lo
        hi = min(2 * lo, n + 1)
        omega[lo:hi] = omega[cof[lo:hi]] + 1
        lo = hi
    u = np.ones(n + 1, dtype=np.intp)
    prefix = u                           # product of the j smallest prime factors
    for j in range(1, int(omega.max()) // 2 + 1):
        prefix = spf * prefix[cof]
        take = omega // 2 == j
        u[take] = prefix[take]
    levels = []
    top = 1
    while top < omega.max():
        i = np.flatnonzero((omega > top) & (omega <= 2 * top))
        levels.append((i, u[i], i // u[i]))
        top *= 2
    return levels, primes


def _euclid_inverses(m, x):
    """x^-1 mod m pairwise over the arrays (m, x), with 0 < x < m; -1 if none.

    Extended Euclid on every pair at once: (r0, r1) are the remainders of
    (m, x) and t0 * x = r0 (mod m); a pair leaves the active set when r1
    reaches 0, with r0 = gcd(x, m).
    """
    m = m.astype(np.int64)
    inv = np.full(m.size, -1, dtype=np.int64)
    idx = np.arange(m.size)
    r0, r1 = m, x.astype(np.int64)
    t0, t1 = np.zeros(m.size, dtype=np.int64), np.ones(m.size, dtype=np.int64)
    while idx.size:
        live = np.flatnonzero(r1)
        if live.size < idx.size:
            unit = (r1 == 0) & (r0 == 1)
            inv[idx[unit]] = t0[unit] % m[idx[unit]]
            idx, r0, r1, t0, t1 = idx[live], r0[live], r1[live], t0[live], t1[live]
        q, r = np.divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return inv


def _floor_divide_rows(divisor, *arrays):
    """array //= divisor in place for each of arrays, divisor a column (R, 1).

    numpy divides by a scalar divisor on a fast loop (libdivide: division
    by an invariant integer), and a broadcast column is a scalar to each
    row's inner loop only when the row is not buffered, that is when it is
    longer than half of np.getbufsize().  So the buffer is cut to 16
    elements for the divisions alone: ufuncs that cast run slower under it.
    """
    old = np.setbufsize(16)
    try:
        for array in arrays:
            array //= divisor
    finally:
        np.setbufsize(old)


def _class_rows(ys, tables):
    """classes[r, x] = -x^-1 mod ys[r] for x < ys[r] where a unit, else 0; shape (R, max ys).

    ys are consecutive moduli >= 2; a row's entries at x >= ys[r] are
    meaningless.  The inverses inv[x] = x^-1 mod y are built only up to
    y // 2, for every row at once: the primes from one _euclid_inverses
    call over every (y, p) pair of the block, then each level of composites
    as a product inv[u] * inv[v] mod y of earlier entries, one vectorized
    step per level for the block.  A non-unit is held as 0, so a product
    with a non-unit factor stays 0.  The class of x <= y // 2 is
    y - inv[x], and of the top half the mirror y - inv[y - x] = inv[y - x],
    as y - x is a unit exactly when x is.  As y steps by one per row, the
    entries inv[r, y - x] of the columns x >= x0 lie on one line of fixed
    stride in the flat table, so the mirror reads the block through one
    sliding window view of the table reversed.  tables is _factor_tables(n)
    for some n >= max ys // 2.
    """
    levels, primes = tables
    m = ys[:, None]
    rows, top = ys.size, int(ys[-1])
    # rows zeros, which the mirror reads past row 0, then the table
    flat = np.zeros(rows + rows * top, dtype=np.int64)
    inv = flat[rows:].reshape(rows, top)
    inv[:, 1] = 1
    count = np.searchsorted(primes, ys // 2, "right")     # primes <= y // 2
    p = primes[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)]
    inv[np.repeat(np.arange(rows), count), p] = np.maximum(
        _euclid_inverses(np.repeat(ys, count), p), 0)
    half = top // 2 + 1
    for i, u, v in levels:
        size = int(np.searchsorted(i, half - 1, "right"))
        if not size:
            break
        product = inv[:, u[:size]] * inv[:, v[:size]]
        quotient = product.copy()
        _floor_divide_rows(m, quotient)
        product -= quotient * m             # product % m
        inv[:, i[:size]] = product
    classes = np.empty((rows, top), dtype=np.int64)
    low = np.subtract(m, inv[:, :half], out=classes[:, :half])
    low *= inv[:, :half] > 0
    # inv[r, y - x] at x = x0 + t is flat[rows + r*(top + 1) + ys[0] - x0 - t]
    x0 = int(ys[0]) // 2 + 1
    last = flat.size - 1 - rows - int(ys[0]) + x0       # that entry from the end, at r = t = 0
    mirror = sliding_window_view(flat[::-1], top - x0)[last::-(top + 1)][:rows]
    np.copyto(classes[:, x0:], mirror, where=np.arange(x0, top) > m // 2)
    return classes


def _inverse_table(m):
    """inv[i] = i^-1 mod m where gcd(i, m) = 1, else -1, from _class_rows."""
    if m == 1:
        return np.zeros(1, dtype=np.int64)
    classes = _class_rows(np.array([m]), _factor_tables(m // 2))[0]
    return np.where(classes > 0, m - classes, -1)


#: Most values in each 2-D array of a block of moduli (a _Block): the
#: block takes max(1, min(SHARE_BLOCK, SHARE_BLOCK_ELEMENTS // (max K + 1)))
#: consecutive moduli, so that its classes and weights, inverse tables and
#: Euclid pairs, columns and the kernel's temporaries for one bound each
#: hold at most about this many values while max K < 2^18, and one row of
#: max K + 1 values from there on.  On a 2-vCPU host, one worker's
#: share (every other block) in fresh processes, medians of 7 interleaved
#: runs, CPU time: 2^16, 2^17, 2^18 and 2^19 took 0.164, 0.145, 0.141 and
#: 0.150 s at N(3e7), and 0.107, 0.088, 0.087 and 0.093 s on the fit grid;
#: the share of N(1e9) took 5.9, 4.4, 3.6 and 3.3 s (medians of 3), with a
#: traced peak of 2.7, 4.7, 8.6 and 16.4 MB.
SHARE_BLOCK_ELEMENTS = 1 << 18


class _Block:
    """The classes of consecutive moduli a1 = y <= S, one row each, for a whole sweep.

    classes[r, x] = -x^-1 mod y for 0 <= x <= n, or 0 where gcd(x, y) > 1,
    and weights[r, x] is 1 on the units x > y, 0 elsewhere: one periodic
    pair of rows that both halves of every bound slice, and the block's
    columns (_columns, of S = n // 2) read.  The weights are 0 up to x = y,
    so that all the rows run the kernel over one range of x.  base is
    _class_rows(ys, ...).  Both are int32, as the classes are below y, and
    every method but pairs returns one value per row.
    """

    def __init__(self, ys, base, n):
        self.ys = ys
        unit = base > 0
        width = n + 1
        size = (ys.size + 1) * width             # a row's last period spills into the next
        classes = np.empty(size, dtype=np.int32)
        weights = np.empty(size, dtype=np.int32)
        for r, y in enumerate(ys.tolist()):
            q = -(-width // y)
            at = slice(r * width, r * width + q * y)
            classes[at].reshape(q, y)[:] = base[r, :y]
            weights[at].reshape(q, y)[:] = unit[r, :y]
            weights[r * width:r * width + y] = 0
        self.classes = classes[:ys.size * width].reshape(ys.size, width)
        self.weights = weights[:ys.size * width].reshape(ys.size, width)
        # the units of row r in 1..j, with 0 no unit: cum[rows[r] + j] - cum[rows[r]]
        self.cum = np.cumsum(unit.reshape(-1), dtype=np.int64)
        self.rows = np.arange(ys.size) * base.shape[1]
        self.start = self.cum[self.rows]
        self.phi = self._cum(ys - 1)
        self.columns = _columns(ys, self.classes, self.weights, n // 2, n)

    def _cum(self, j):
        """The units in 1..j of each row, 0 <= j < y."""
        return self.cum[self.rows + j] - self.start

    def units(self, n):
        """The units among 1..n."""
        q, r = np.divmod(n, self.ys)
        return q * self.phi + self._cum(r)

    def period_sum(self, x):
        """Sum over the units a8 of one period of (x - c)//y + (x + c)//y, c its class.

        With x = q*y + s, a unit class c in [1, y) gives
        2q - [c > s] + [c >= y - s].  Over one period c runs through all
        the units, which the map u -> y - u permutes, so a period sums to
        (2q - 1)*phi + 2*cum[s].
        """
        q, s = np.divmod(x, self.ys)
        return (2 * q - 1) * self.phi + 2 * self._cum(s)

    def class_sum(self, x, n):
        """The sum of period_sum(x) over the units a8 in 1..n instead of one period.

        The whole periods come from period_sum.  The part period, residues
        1..r = n % y, is counted directly when 2r <= y, else as a period
        less its complement r+1..y-1.  The mirror x -> y - x, c -> y - c
        maps the complement onto 1..y-1-r with the same summand
        [c > s] - [c >= y - s] (0 on the non-units, c = 0), so every row
        counts a prefix 1..L, L <= y // 2, of its classes, all in one step.
        """
        y = self.ys
        q, s = np.divmod(x, y)
        periods, r = np.divmod(n, y)
        upper = 2 * r > y
        length = np.where(upper, y - 1 - r, r)
        width = int(length.max())
        c = self.classes[:, 1:width + 1]
        inside = np.arange(width) < length[:, None]
        count = ((c > s[:, None]).sum(axis=1, where=inside)
                 - (c >= (y - s)[:, None]).sum(axis=1, where=inside))
        part = 2 * q * self._cum(length) - count
        return (periods + upper) * self.period_sum(x) + np.where(upper, -part, part)

    def rests(self, bound):
        """Each row's count less its _pair_counts_fast dot product, for one _Bound.

        units(K) - units(y) + period_sum(B // y) - class_sum(K, M), less
        f(K) when M = K - 1 for the rows y < K, whose kernel sum counts
        the a8 = K term twice (_pair_counts_fast); at y >= K the weight at
        x = K is 0.
        """
        k, y = bound.k, self.ys
        rest = (self.units(k) - self.phi + self.period_sum(bound.b // y)
                - self.class_sum(k, bound.m))
        if bound.m < k:
            c, w = self.classes[:, k], self.weights[:, k]
            f = (bound.under[k - 1] - c) // y + (bound.over[k - 1] + c) // y
            rest -= f * w
        return rest

    def pairs(self, bound):
        """The pairs of the rows a1 = y <= K and of their columns, for one _Bound; an int.

        The rows y < K go to one _pair_counts_fast call over x = ys[0] + 1..K:
        the weights are 0 up to x = y in every row.  The divisor column
        takes the bound's dtype.
        """
        k, ys = bound.k, self.ys
        rests = self.rests(bound)[:np.searchsorted(ys, k, "right")]   # the rows y <= K
        total = _column_pairs(ys, *self.columns, bound) + int(rests.sum())
        below = int(np.searchsorted(ys, k))                           # the rows y < K
        if below:
            x = slice(int(ys[0]) + 1, k + 1)
            total += _pair_counts_fast(ys[:below, None].astype(bound.over.dtype),
                                       self.classes[:below, x], bound, self.weights[:below, x])
        return total


def _pair_counts_fast(a1, classes, bound, weights):
    """Twice the weighted kernel sum of the rows a1 >= 2 of a block, for one _Bound; an int.

    The kernel is, per row a1 and x in (x0 - 1, K] with class
    c = classes[r, x - x0], f(x) = ((B-1)//x - c)//a1 + (B//x + c)//a1,
    weighted 0 where gcd(a1, x) > 1 or x <= a1.  For a2 = x <= K it counts
    the a8 of a2*a8 = -1 (mod a1) with a2*a8 in [-B, B-1], less one.  For
    a8 = x <= M it counts the a2 of the classes of +-a8 up to (B-1)//a8 and
    B//a8; the a2 up to K are taken off with class_sum(K, M), and the a8 up
    to t, whose a2 range is cut at B // a1 instead, are one period_sum
    (module docstring).  So the weighted sum serves the pair side once and
    the a8 side once, and each row's _Block.rests adds the closed forms and
    takes f(K) off once when M = K - 1.  a1 is the rows' moduli as a
    column (R, 1) in the dtype of the bound's quotients, and classes and
    weights are (R, K - x0 + 1).  classes is the second positional
    argument, as bench/layers.py reads its length.
    """
    k = bound.k
    x0 = k - classes.shape[1] + 1
    count = bound.under[x0 - 1:k] - classes
    over = bound.over[x0 - 1:k] + classes
    _floor_divide_rows(a1, count, over)
    count += over
    count *= weights
    return 2 * int(count.sum(dtype=np.int64))


def _divisor_sum(n):
    """D(n) = sum_{k=1..n} floor(n/k) = 2 sum_{k <= sqrt n} floor(n/k) - isqrt(n)^2."""
    r = isqrt(n)
    return 2 * int((n // np.arange(1, r + 1, dtype=np.int64)).sum()) - r * r


class _Bound:
    """One bound's share of the sweep: its quotients and its a1 = 1 row.

    over[i] = B // (i + 1) and under[i] = (B - 1) // (i + 1) for i < K serve
    both halves: as -lo and hi of the a8 range of a2 = i + 1 <= K, and as
    the a2 limits of -a8 and +a8 for a8 = i + 1 <= M = B // (K + 1) <= K.
    They are int32 when B < 2^31 (MAX_TORSOR_BOUND), else int64.
    """

    def __init__(self, b):
        self.b = b
        self.k = isqrt(b)
        self.m = b // (self.k + 1)
        # the row a1 = 1, with the pair (1, 1); 0 < B < 1 has no pairs
        self.pairs = _divisor_sum(b - 1) + _divisor_sum(b) if b else 0
        n = np.arange(1, self.k + 1, dtype=np.int32 if b < 2 ** 31 else np.int64)
        self.over = b // n
        self.under = (b - 1) // n


def _columns(ys, classes, weights, s, n):
    """(a1, classes, weights) of the columns of the rows ys, on x = S+1+ys[0]..n, S = s.

    All three are 2-D, one row per y and one column per x, so that every
    row reads the same quotients of x.  In row y, a1 = x - y, and
    classes = -x^-1 mod a1 = (a1*u - 1) / y with u = a1^-1 mod y = x^-1
    mod y = y - the row class of x: the rows' periodic classes at the same
    x.  weights are 1 where u exists and a1 > S, 0 elsewhere (a
    meaningless class): the leading a1 <= S of each row are not its
    column.  All three are int32 (MAX_TORSOR_BOUND), and a1*u and its
    quotient by y are formed in int64, on numpy's loop for a scalar divisor
    (_floor_divide_rows).
    """
    x0 = s + 1 + int(ys[0])
    m = ys[:, None]
    a1 = (np.arange(x0, n + 1) - m).astype(np.int32)
    product = (m - classes[:, x0:]) * a1 - 1
    _floor_divide_rows(m, product)
    return a1, product.astype(np.int32), weights[:, x0:] * (a1 > s)


def _column_pairs(ys, a1, classes, weights, bound):
    """The _pair_counts_fast terms at x = a1 + y, a1 in (S, K - y], of each row y; an int.

    a1, classes and weights are _columns(ys, ...), cut here at x <= K.
    Every row reads the same quotients (B-1) // x and B // x.  As K < 2*a1,
    x's term of class_sum(K, M) is g = 2 - [c > K - a1] + [c >= 2*a1 - K],
    and each a1 gets w*(2f - g + 1), with f the kernel form, or w*(f + 1)
    at x = K, the last column, when M = K - 1; one step for the block, in
    int32 (MAX_TORSOR_BOUND).
    """
    k = bound.k
    x0 = int(a1[0, 0] + ys[0]) if a1.size else k + 1
    size = k - x0 + 1                       # x = x0..K
    if size <= 0:
        return 0
    a1, c, w = a1[:, :size], classes[:, :size], weights[:, :size]
    f = ((bound.under[x0 - 1:k].astype(np.int32) - c) // a1
         + (bound.over[x0 - 1:k].astype(np.int32) + c) // a1)
    rest = k - a1
    terms = w * (2 * f - 1 + (c > rest) - (c >= a1 - rest))     # w*(2f - g + 1)
    dot = int(terms.sum())
    if bound.m < k:
        dot -= int((terms[:, -1] - w[:, -1] * (f[:, -1] + 1)).sum())
    return dot


def _squarefree_divisors(a, primes):
    """(owner, d, mu): each squarefree divisor d of each a[owner], mu = Moebius(d).

    Sorted by owner.  Trial division by primes (an array), every prime up
    to sqrt(max a) among them, leaves each a[i] at most one prime factor
    besides, and each prime factor p of a[i] doubles its rows: d -> d*p
    with mu negated.
    """
    owner = np.arange(a.size)
    d = np.ones(a.size, dtype=np.int64)
    mu = np.ones(a.size, dtype=np.int64)
    rest = a.copy()
    for p in primes.tolist() + [None]:
        # p = None: the prime factor left in rest, if any
        hit = rest > 1 if p is None else rest % p == 0
        rows = hit[owner]
        factor = rest[owner[rows]] if p is None else p
        owner = np.concatenate((owner, owner[rows]))
        d = np.concatenate((d, d[rows] * factor))
        mu = np.concatenate((mu, -mu[rows]))
        while p is not None and hit.any():
            rest[hit] //= p
            hit = rest % p == 0
    order = np.argsort(owner, kind="stable")
    return owner[order], d[order], mu[order]


#: Moduli a1 > S per block of _tail_pairs, which holds about 2^omega(a1)
#: divisor rows per modulus.  At N(1e9) the tail's traced peak was 7.3 MB
#: with all of (S, K] in one block, 3.1 MB at 4096 moduli a block and
#: 1.05 MB at 1024; at N(3e7) it took 12 ms, against 10 ms at 4096.
TAIL_BLOCK = 1 << 10


def _tail_pairs(states):
    """The pairs of the column y = 1 and the closed forms of a1 in (S, K], one int per state.

    Each a1 > S adds period_sum(B // a1) - period_sum(K)
    = 2(q - 1)*phi(a1) + 2*units(r) - 2*units(K - a1), with q, r =
    divmod(B // a1, a1) and units(j) the units mod a1 in 1..j: sums of
    mu(d)*(j // d) over the squarefree divisors d of a1, taken per block of
    TAIL_BLOCK moduli, with one sieve of primes for all.  At y = 1, u = 1.
    """
    n = states[-1].k
    s = n // 2
    y, one = np.ones(1, dtype=np.int64), np.ones((1, n + 1), dtype=np.int32)
    columns = _columns(y, one - 1, one, s, n)       # every x is a unit mod 1, u = 1
    totals = [_column_pairs(y, *columns, state) for state in states]
    primes = primes_up_to(isqrt(n))
    for lo in range(s + 1, n + 1, TAIL_BLOCK):
        a1 = np.arange(lo, min(lo + TAIL_BLOCK, n + 1), dtype=np.int64)
        owner, d, mu = _squarefree_divisors(a1, primes)
        starts = np.searchsorted(owner, np.arange(a1.size))
        phi = np.add.reduceat(mu * (a1[owner] // d), starts)
        for i, state in enumerate(states):
            size = min(max(state.k - lo + 1, 0), a1.size)     # a1 = lo..K
            rows = owner.size if size == a1.size else int(starts[size])
            top, o, dd = a1[:size], owner[:rows], d[:rows]
            q, r = np.divmod(state.b // top, top)
            units = np.add.reduceat(mu[:rows] * (r[o] // dd - (state.k - top)[o] // dd),
                                    starts[:size])    # units(r) - units(K - a1)
            totals[i] += 2 * int(np.dot(q - 1, phi[:size]) + units.sum())
    return totals


#: Most consecutive moduli y in one _Block, the unit dealt to a sweep
#: worker.  Dealt round-robin, the workers' shares differ by about one
#: block's work; 32 to 256 timed the same on a 2-vCPU host, medians of 9
#: interleaved forked sweeps: 0.23 s at N(3e7) and 0.20 to 0.22 s on the
#: fit grid.
SHARE_BLOCK = 128

#: Smallest largest K = isqrt(B) of a sweep that is split across forked
#: workers; smaller sweeps run in the calling process.  On a 2-vCPU host, in
#: fresh `dp4 torsor-count --timings` processes (medians of 11, the counting
#: call's elapsed_s, pinned to one CPU with taskset for in process), one
#: bound B = K^2 took 21 ms in process and 28 ms forked at K = 1200, 29 and
#: 32 ms at K = 1500, 43 and 44 ms at K = 2000, 93 and 73 ms at K = 3162,
#: and 199 and 143 ms at K = 5000.  While the second CPU was busy, forking
#: lost at every K up to 5000.
FORK_MIN_MODULI = 2000


def _share_pairs(states, blocks):
    """The pairs of the rows a1 = y and the columns y in the (lo, hi) ranges of blocks.

    One int per state.  states are _Bound objects ascending in K, and
    blocks ascend up to hi <= S = states[-1].k // 2, one _Block each.  The
    share builds its own factor tables.
    """
    n = states[-1].k
    ks = [state.k for state in states]
    tables = _factor_tables(blocks[-1][1] // 2)
    totals = [0] * len(states)
    for lo, hi in blocks:
        ys = np.arange(lo, hi + 1, dtype=np.int64)
        block = _Block(ys, _class_rows(ys, tables), n)
        for i in range(bisect_left(ks, lo), len(states)):
            totals[i] += block.pairs(states[i])
    return totals


def _run_share(read, write, states, blocks):
    """A forked worker's body: write (True, its share) or (False, the error),
    pickled, to the pipe's write end, then leave by os._exit, so that none of
    the parent's exit handlers or buffered output runs here."""
    status = 1
    try:
        os.close(read)
        try:
            result = (True, _share_pairs(states, blocks))
        except Exception as exc:  # the parent re-raises it
            result = (False, exc)
        with os.fdopen(write, "wb") as out:
            out.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _forked(states, shares, local):
    """[local(states)] + [_share_pairs(states, blocks) for blocks in shares].

    Each share runs in a forked worker of its own, and local runs here
    while they do.  A worker's error, or local's, is raised here, and no
    worker outlives the call: on any error the others are killed, and every
    one is reaped.  The workers are bare os.fork children: importing
    multiprocessing alone added 0.8 MB to the peak RSS of a dp4 process.
    """
    pids, pipes = [], []
    try:
        for blocks in shares:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(read, write, states, blocks)   # never returns
                pids.append(pid)
            finally:
                os.close(write)
        results = [local(states)]
        for pipe in pipes:
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                raise ChildProcessError("a torsor sweep worker exited without "
                                        "a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _sweep(states):
    """The pairs with a1 = 2..max K for each of states (ascending in K >= 2).

    The moduli y = 2..S, S = max K // 2, each with its row a1 = y and its
    column, go in _Blocks (SHARE_BLOCK_ELEMENTS), dealt round-robin to one
    forked worker per CPU the process may run on, at most one per block;
    the column y = 1 and the a1 > S closed forms (_tail_pairs) run here
    while the workers run, and the exact partial counts are added here.
    Below FORK_MIN_MODULI, with one CPU, without fork, or in a process that
    runs threads (which a fork does not copy), one share takes every block
    in this process.
    """
    n = states[-1].k
    s = n // 2
    rows = max(1, min(SHARE_BLOCK, SHARE_BLOCK_ELEMENTS // (n + 1)))
    blocks = [(lo, min(lo + rows - 1, s)) for lo in range(2, s + 1, rows)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(blocks))
    if not blocks:
        parts = [_tail_pairs(states)]
    elif (n < FORK_MIN_MODULI or workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        parts = [_tail_pairs(states), _share_pairs(states, blocks)]
    else:
        parts = _forked(states, [blocks[w::workers] for w in range(workers)], _tail_pairs)
    return [sum(column) for column in zip(*parts)]


def torsor_counts(bounds):
    """N(B) via the torsor parameterization for every B in bounds, in order.

    Count pairs (a1, a2) with a1 < a2, a1*a2 <= B; the
    (a1, a2) <-> (a2, a1) swap symmetry of the solution set halves the
    work and keeps a1 <= K = isqrt(B).
      a1 = 1: sum_{a2=2..B} ((B-1)//a2 + B//a2 + 1) = D(B-1) + D(B) - B,
        plus B for the pair (1, 1): its 2B values of a8, halved as it is
        its own swap image.
      a1 >= 2: count the a8 class per a2 <= K and, since a2 > K forces
        1 <= |a8| <= B // (K + 1), the a2 class per a8, both in one
        kernel (_pair_counts_fast).
    One sweep over a1 = 2..max K serves every bound: each a1 up to
    S = max K // 2 gets one inverse table and one periodic class array, and
    every bound with K >= a1 counts from it; each a1 > S reads its classes
    off the tables mod y = x - a1 <= S (_column_pairs) and adds a closed
    form (_tail_pairs).  The moduli are split across forked workers
    (_sweep), so every bound's count completes at the end of the sweep.
    Every bound is checked first: one above MAX_TORSOR_BOUND, more than
    MAX_SWEEP_BOUNDS distinct bounds, or distinct bounds whose isqrt sum
    passes MAX_SWEEP_ROOTS, raise OutOfRange before any work.
    """
    ints = [_int_bound(b, MAX_TORSOR_BOUND) for b in bounds]
    distinct = sorted(set(ints))
    if len(distinct) > MAX_SWEEP_BOUNDS:
        raise OutOfRange(f"at most {MAX_SWEEP_BOUNDS} distinct bounds a sweep, "
                         f"got {len(distinct)}")
    roots = sum(map(isqrt, distinct))
    if roots > MAX_SWEEP_ROOTS:
        raise OutOfRange(f"the isqrt(B) of a sweep's distinct bounds must sum to at most "
                         f"{MAX_SWEEP_ROOTS} (one B up to about 1e14), got {roots}")
    states = list(map(_Bound, distinct))
    pairs = {state.b: state.pairs for state in states}
    live = [state for state in states if state.k >= 2]
    if live:
        for state, share in zip(live, _sweep(live)):
            pairs[state.b] += share
    return [4 * pairs[b] for b in ints]  # 4 = swap symmetry x units / |mu_K|


def torsor_count(bound):
    """N(B) via the torsor parameterization: torsor_counts([bound])[0]."""
    return torsor_counts([bound])[0]


#: Items per block of torsor_height_counts: candidate pairs (a1, a2), then
#: values of a8, added into the histogram with one np.add.at a block.  On a
#: 2-vCPU host 2^12, 2^13 and 2^14 items a block took 3.6, 2.6 and 2.3 ms at
#: B = 2000, the default of dp4 compare, and 4.2, 3.5 and 3.0 s at B = 1e6
#: (1.6e8 values of a8), with traced peaks of 31, 32 and 34 MB, nearly all
#: of it in arrays of length B.
HEIGHT_BLOCK = 1 << 13


def _lifted_classes(a1, a2):
    """-a2^-1 mod a1 pairwise over the coprime arrays (a1, a2); 0 where a1 = 1."""
    classes = np.zeros(a1.size, dtype=np.int64)
    mod = np.flatnonzero(a1 > 1)
    classes[mod] = a1[mod] - _euclid_inverses(a1[mod], a2[mod] % a1[mod])
    return classes


def _lifted_pairs(b):
    """Yield (a1, a2, first, sizes) arrays a block at a time: every lift with a7 = +1.

    Each coprime pair (a1, a2) with a1*a2 <= b runs its a8 over one
    progression first + a1*k, k < size, of class -a2^-1 mod a1
    (_lifted_classes, one extended Euclid over the coprime pairs of a
    block), inside -(b // a2) <= a8 <= (b - 1) // a2, where |y| <= b and
    |y + 1| <= b for y = a2*a8; every height max(a1*a2, |y|, |y + 1|) is
    therefore <= b.  The candidate pairs ascend in a1, then a2, HEIGHT_BLOCK
    at a time, so the memory stays O(b + HEIGHT_BLOCK).
    """
    for i, rank in _flat_blocks(b // np.arange(1, b + 1), HEIGHT_BLOCK):
        a1, a2 = i + 1, rank + 1     # a2 = 1..b // a1
        coprime = np.gcd(a1, a2) == 1
        a1, a2 = a1[coprime], a2[coprime]
        lo = -(b // a2)
        first = lo + (_lifted_classes(a1, a2) - lo) % a1
        yield a1, a2, first, np.maximum(((b - 1) // a2 - first) // a1 + 1, 0)


def torsor_height_counts(bound):
    """Cumulative N(b) for all b <= bound, from one walk over the lifts.

    The a8 of the pairs of _lifted_pairs, HEIGHT_BLOCK at a time, add 2 at
    their heights (each lift and its negation in a7, a8, a9) in one
    np.add.at a block, so no block costs O(b).  A bound above
    MAX_DIRECT_BOUND over Z, the range of its only caller dp4 compare,
    raises OutOfRange before any array is built.
    """
    b = _int_bound(bound, MAX_DIRECT_BOUND[INTEGERS])
    hist = np.zeros(b + 1, dtype=np.int64)
    for a1, a2, first, sizes in _lifted_pairs(b):
        for j, k in _flat_blocks(sizes, HEIGHT_BLOCK):
            y = a2[j] * (first[j] + a1[j] * k)
            np.add.at(hist, np.maximum(a1[j] * a2[j], np.maximum(np.abs(y), np.abs(y + 1))), 2)
    return hist.cumsum()


def _lifts(a1, a2, first, size):
    """The points of one pair of _lifted_pairs: a7 = +1, then a7 = -1, each
    ascending in a8, with a6 = +1 then -1.  The a7 = -1 lifts are the
    a7 = +1 lifts with a8 and a9 negated: a2*a8 runs over [1 - b, b] in the
    class of +1 mod a1, not over [-b, b - 1] in that of -1."""
    last = first + a1 * (size - 1)
    for a7, a8s in ((1, range(first, last + 1, a1)), (-1, range(-last, 1 - first, a1))):
        for a8 in a8s:
            a9 = -(a2 * a8 + a7) // a1
            for a6 in (1, -1):
                yield validate((a1, a2, 1, 1, 1, a6, a7, a8, a9))


def enumerate_normalized(bound):
    """Every torsor point with a1, a2 >= 1, a3 = a4 = a5 = 1 and height <= bound.

    An iterator over the pairs (a1, a2) of the walk of torsor_height_counts,
    in its order (_lifts).  A bound above MAX_DIRECT_BOUND over Z raises
    OutOfRange here, before any point is made.
    """
    walk = _lifted_pairs(_int_bound(bound, MAX_DIRECT_BOUND[INTEGERS]))
    return (point for block in walk for pair in zip(*(column.tolist() for column in block))
            for point in _lifts(*pair))
