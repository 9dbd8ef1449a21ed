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
  whole period of the classes, a closed form (_Residues.period_sum);
* one sweep over a1 = 2..max K serves a whole list of bounds
  (torsor_counts).  Each a1 gets one periodic array of the classes
  -x^-1 mod a1 over 0..max K, with 0/1 unit weights (_Residues), and every
  bound with K >= a1 counts from plain slices of it, with one dot product
  against the weights;
* each bound holds the quotients B // n and (B - 1) // n for n <= K once:
  they are the a8 range of a2 = n and the a2 limits of a8 = n;
* the terms at K of the a8 side depend on a8 mod a1 alone: they are
  summed per residue (_Residues.class_sum);
* the inverse table mod m is built for the residues up to m // 2 and
  mirrored, inv[m - x] = m - inv[x].  Only the primes up to m // 2 go
  through an extended Euclid, one vectorized call over every (m, p) pair
  of a block of consecutive moduli; the composites are products of
  earlier entries, one vectorized step per level of a balanced
  factorization (_factor_tables);
* the sweep is split at S = max K // 2.  A modulus a1 > S reads classes
  only at x = a1 + y with 1 <= y <= K - a1 <= S, and there the class comes
  off the table mod y, which the row of a1 = y builds anyway: with
  u = a1^-1 mod y, c = -x^-1 mod a1 = (a1*u - 1) / y, exact since
  a1*u = 1 (mod y), and in [1, a1) since y < a1 and u < y (u = 1 at y = 1).
  x is a unit mod a1 exactly when u exists.  So each y <= S runs its row
  a1 = y and one column over a1 in (S, K - y] (_column_pairs).  As
  K < 2*a1 there, x = a1 + y's term of class_sum(K, M) is
  g = 2 - [c > K - a1] + [c >= 2*a1 - K], and the column sums
  w*(2f - [x <= M]*g + 1), the 2f being f at x = K when M = K - 1.  The a8
  up to a1 in class_sum(K, M) are one period, so each a1 > S adds
  period_sum(B // a1) - period_sum(K), with phi(a1) and the unit counts by
  inclusion-exclusion over the prime divisors of a1 (_tail_pairs).  Only the
  inverse tables up to S are built, a quarter of the entries;
* the moduli y <= S are independent: blocks of SHARE_BLOCK consecutive
  moduli are dealt round-robin to forked workers, at most one per CPU the
  process may run on, and each worker returns one exact partial count per
  bound (_sweep).  Small sweeps, and hosts without fork, run the same share
  in the calling process.

Each bound's arrays hold O(sqrt B) values, and the count is integer
arithmetic throughout.  The tests check it against a naive scan of a8,
the kernel against the sum of the elementwise forms of the two halves,
the columns and closed forms above S against the kernel's rows there,
and the forked sweep against the in-process one.
"""

import os
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import CoprimalityBroken, EquationViolated, NonUnitMiddle
from .surface import MAX_DIRECT_BOUND, CountResult, _int_bound

#: Largest bound torsor_count accepts.  Its largest int64 intermediate is a
#: dot product of class counts for one a1 and one bound (or a sum of
#: floor(n/k) in D(n)), at most the a1 = 1 row sum_{a2 <= B} (2B/a2 + 1),
#: about B * (2 ln B + 1); at B = 10^17 that is 7.9e18 < 2^63 - 1 = 9.2e18.
#: The per-residue sums, and their multiples by the number of whole periods
#: of a8, are Python ints; an inverse-table product is below K^2 <= B.
#: Above S = K // 2, a column product a1*u is below K*S <= B/2, and
#: B // a1^2 <= B // S^2 <= 16, so f < 2B/S^2 <= 32, a column term
#: 2f + 1 - g is below 64, and each a1 > S adds less than 32K in
#: _tail_pairs, under 16B in all.  The O(B) running time is the practical
#: limit far below it.
MAX_TORSOR_BOUND = 10 ** 17


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

#: Most (modulus, prime) pairs that one batched Euclid call takes on.  Its
#: dozen int64 work arrays then stay near 1 MB; at 2^15 pairs they added
#: 5 MB to the peak RSS of N(3e7) and saved no time.
EUCLID_BLOCK_PAIRS = 1 << 13


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


def _inverse_table(m, tables=None, prime_inv=None):
    """inv[i] = i^-1 mod m where gcd(i, m) = 1, else -1.

    Only the residues up to m // 2 are built: the primes from prime_inv,
    then each level of composites as a product inv[u] * inv[v] mod m of
    earlier entries, one vectorized step per level.  A non-unit is held as
    0 while filling, so a product with a non-unit factor stays 0; it becomes
    -1.  The top half is the mirror inv[m - i] = m - inv[i], and m - i is a
    unit exactly when i is.  tables is _factor_tables(n) for some
    n >= m // 2, and prime_inv the inverses of the primes up to m // 2, in
    order, from _euclid_inverses (-1 for a prime dividing m).  Given m
    alone, both are built here.
    """
    if m == 1:
        return np.zeros(1, dtype=np.int64)
    half = m // 2
    if tables is None:
        tables = _factor_tables(half)
        prime_inv = _euclid_inverses(np.full(tables[1].size, m), tables[1])
    levels, primes = tables
    inv = np.zeros(m, dtype=np.int64)
    inv[1] = 1
    inv[primes[:prime_inv.size]] = np.maximum(prime_inv, 0)
    for i, u, v in levels:
        size = np.searchsorted(i, half, "right")
        if not size:
            break
        inv[i[:size]] = inv[u[:size]] * inv[v[:size]] % m
    low = inv[:half + 1]
    low[low == 0] = -1
    mirror = inv[m - half - 1:0:-1]        # inv[m - i] for i = half + 1..m - 1
    inv[half + 1:] = np.where(mirror > 0, m - mirror, -1)
    return inv


def _inverse_tables(k, lo=2, tables=None):
    """Yield (m, _inverse_table(m)) for m = lo..k, from one set of tables.

    tables is _factor_tables(n) for some n >= k // 2, built here if not
    given.  The inverses of the primes up to m // 2 come from one
    _euclid_inverses call per block of consecutive moduli, each block at
    most EUCLID_BLOCK_PAIRS (m, p) pairs (or one modulus, if that alone has
    more).
    """
    if tables is None:
        tables = _factor_tables(k // 2)
    primes = tables[1]
    below = np.searchsorted(primes, np.arange(k + 2) // 2, "right")  # primes <= m // 2
    offset = np.concatenate(([0], np.cumsum(below)))     # pairs of moduli < m
    m = lo
    while m <= k:
        end = int(np.searchsorted(offset, offset[m] + EUCLID_BLOCK_PAIRS, "right")) - 1
        end = min(max(end, m + 1), k + 1)
        start = offset[m]
        mods = np.repeat(np.arange(m, end), below[m:end])
        pos = np.arange(offset[end] - start) - np.repeat(offset[m:end] - start,
                                                        below[m:end])
        inv = _euclid_inverses(mods, primes[pos])
        for j in range(m, end):
            yield j, _inverse_table(j, tables,
                                    inv[offset[j] - start:offset[j + 1] - start])
        m = end


def _periodic(table, n):
    """table repeated over 0..n: out[x] = table[x % table.size]."""
    out = np.empty(n + 1, dtype=table.dtype)
    q = (n + 1) // table.size
    out[:q * table.size].reshape(q, table.size)[:] = table
    out[q * table.size:] = table[:n + 1 - q * table.size]
    return out


class _Residues:
    """The a2 class of every a8 (and a8 class of every a2) for one a1 >= 2.

    classes[x] = -x^-1 mod a1 for 0 <= x <= n, or 0 where gcd(x, a1) > 1,
    and weights[x] is 1 on the units, 0 elsewhere: one periodic pair of
    arrays that both halves of every bound slice.  n >= a1, so that they
    hold a whole period.  cum[j] counts the units in 0..j.
    """

    def __init__(self, a1, inv, n):
        unit = inv > 0
        self.a1 = a1
        self.cum = np.cumsum(unit)
        self.phi = int(self.cum[-1])
        self.classes = _periodic(np.where(unit, a1 - inv, 0), n)
        self.weights = _periodic(unit.astype(np.int64), n)

    def units(self, n):
        """The units among 1..n."""
        q, r = divmod(n, self.a1)
        return q * self.phi + int(self.cum[r])

    def period_sum(self, x):
        """Sum over the units a8 of one period of (x - c)//a1 + (x + c)//a1, c its class.

        With x = q*a1 + s, a unit class c in [1, a1) gives
        2q - [c > s] + [c >= a1 - s].  Over one period c runs through all
        the units, which the map u -> a1 - u permutes, so a period sums to
        (2q - 1)*phi + 2*cum[s].
        """
        q, s = divmod(x, self.a1)
        return (2 * q - 1) * self.phi + 2 * int(self.cum[s])

    def class_sum(self, x, n):
        """The sum of period_sum(x) over the units a8 in 1..n instead of one period.

        The whole periods come from period_sum.  The part period, residues
        1..n % a1, is counted directly, or as a period less its
        complement, whichever is shorter.  Python ints throughout.
        """
        a1 = self.a1
        q, s = divmod(x, a1)
        periods, r = divmod(n, a1)
        if 2 * r <= a1:
            lo, hi, sign = 1, r + 1, 1
        else:
            lo, hi, sign = r + 1, a1, -1
            periods += 1
        c = self.classes[lo:hi]
        part = (2 * q * int(self.cum[hi - 1] - self.cum[lo - 1])
                - int(np.count_nonzero(c > s)) + int(np.count_nonzero(c >= a1 - s)))
        return periods * self.period_sum(x) + sign * part


def _pair_counts_fast(a1, classes, bound, residues):
    """Pairs (a2, a8) with a1 < a2, both halves, for one a1 >= 2 and one _Bound; an int.

    The kernel is, per x in (a1, K] with class c = classes[x - a1 - 1],
    f(x) = ((B-1)//x - c)//a1 + (B//x + c)//a1, weighted 0 where
    gcd(a1, x) > 1.  For a2 = x <= K it counts the a8 of a2*a8 = -1
    (mod a1) with a2*a8 in [-B, B-1], less one.  For a8 = x <= M it counts
    the a2 of the classes of +-a8 up to (B-1)//a8 and B//a8; the a2 up to K
    are taken off with class_sum(K, M), and the a8 up to t, whose a2 range
    is cut at B // a1 instead, are one period_sum (module docstring).  So
    the dot product serves the pair side once and the a8 side once, less
    f(K) when M = K - 1.  classes is residues.classes[a1 + 1:K + 1], passed,
    not sliced here, so that its length is the kernel's element count
    (bench/layers.py reads it).
    """
    k, m = bound.k, bound.m
    count = (bound.under[a1:k] - classes) // a1 + (bound.over[a1:k] + classes) // a1
    weights = residues.weights[a1 + 1:k + 1]
    dot = 2 * int(np.dot(count, weights))
    if m < k and count.size:
        dot -= int(count[-1] * weights[-1])
    return (dot + residues.units(k) - residues.units(a1)
            + residues.period_sum(bound.b // a1) - residues.class_sum(k, m))


def _divisor_sum(n):
    """D(n) = sum_{k=1..n} floor(n/k) = 2 sum_{k <= sqrt n} floor(n/k) - isqrt(n)^2."""
    r = isqrt(n)
    return 2 * int((n // np.arange(1, r + 1, dtype=np.int64)).sum()) - r * r


class _Bound:
    """One bound's share of the sweep: its quotients and its a1 = 1 row.

    over[i] = B // (i + 1) and under[i] = (B - 1) // (i + 1) for i < K serve
    both halves: as -lo and hi of the a8 range of a2 = i + 1 <= K, and as
    the a2 limits of -a8 and +a8 for a8 = i + 1 <= M = B // (K + 1) <= K.
    """

    def __init__(self, b):
        self.b = b
        self.k = isqrt(b)
        self.m = b // (self.k + 1)
        # the row a1 = 1, with the pair (1, 1); 0 < B < 1 has no pairs
        self.pairs = _divisor_sum(b - 1) + _divisor_sum(b) if b else 0
        n = np.arange(1, self.k + 1, dtype=np.int64)
        self.over = b // n
        self.under = (b - 1) // n


def _column(y, inv, s, n):
    """(a1, classes, weights) of the column y: a1 = S+1..n-y, S = s, x = a1 + y.

    classes[i] = -x^-1 mod a1 = (a1*u - 1) / y with u = a1^-1 mod y read off
    inv, the inverse table mod y (inv = [1] at y = 1), and weights[i] is 1
    where u exists, 0 elsewhere (a meaningless class).  y <= s < a1.
    """
    a1 = np.arange(s + 1, n - y + 1, dtype=np.int64)
    start = (s + 1) % y
    u = _periodic(np.concatenate((inv[start:], inv[:start])), a1.size - 1)  # inv[a1 % y]
    return a1, (a1 * u - 1) // y, (u > 0).astype(np.int64)


def _column_pairs(y, a1, classes, weights, bound):
    """The _pair_counts_fast terms at x = a1 + y of every a1 in (S, K - y], for one _Bound.

    a1, classes and weights are _column(y, ...), cut here at a1 <= K - y.
    As K < 2*a1, x's term of class_sum(K, M) is
    g = 2 - [c > K - a1] + [c >= 2*a1 - K], and each a1 gets
    w*(2f - g + 1), with f the kernel form, or w*(f + 1) at x = K when
    M = K - 1; an int.
    """
    k = bound.k
    size = k - y - (int(a1[0]) - 1) if a1.size else 0
    if size <= 0:
        return 0
    a1, c, w = a1[:size], classes[:size], weights[:size]
    f = (bound.under[k - size:] - c) // a1 + (bound.over[k - size:] + c) // a1
    rest = k - a1
    g = 2 - (c > rest) + (c >= a1 - rest)
    dot = int(np.dot(2 * f - g + 1, w))
    if bound.m < k:
        dot -= int(w[-1] * (f[-1] - g[-1]))
    return dot


def _squarefree_divisors(a):
    """(owner, d, mu): each squarefree divisor d of each a[owner], mu = Moebius(d).

    Sorted by owner.  Trial division by the primes up to sqrt(max a) leaves
    each a[i] at most one prime factor above them, and each prime factor p
    of a[i] doubles its rows: d -> d*p with mu negated.
    """
    owner = np.arange(a.size)
    d = np.ones(a.size, dtype=np.int64)
    mu = np.ones(a.size, dtype=np.int64)
    rest = a.copy()
    for p in _factor_tables(isqrt(int(a.max())))[1].tolist() + [None]:
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
    TAIL_BLOCK moduli.  At y = 1, u = 1.
    """
    n = states[-1].k
    s = n // 2
    column = _column(1, np.ones(1, dtype=np.int64), s, n)
    totals = [_column_pairs(1, *column, state) for state in states]
    for lo in range(s + 1, n + 1, TAIL_BLOCK):
        a1 = np.arange(lo, min(lo + TAIL_BLOCK, n + 1), dtype=np.int64)
        owner, d, mu = _squarefree_divisors(a1)
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


#: Consecutive moduli y per block dealt to a sweep worker.  Dealt
#: round-robin, the workers' shares differ by about one block's work; 32 to
#: 256 timed the same at N(3e7) and on the fit grid on a 2-vCPU host.
SHARE_BLOCK = 128

#: Smallest largest K = isqrt(B) of a sweep that is split across forked
#: workers; smaller sweeps run in the calling process.  On a 2-vCPU host,
#: medians of 31 runs of one bound B = K^2: 28 ms in process and 36 ms
#: forked at K = 400, 37 ms both at K = 500, and 64 ms and 56 ms at K = 800.
FORK_MIN_MODULI = 500


def _share_pairs(states, blocks):
    """The pairs of the rows a1 = y and the columns y in the (lo, hi) ranges of blocks.

    One int per state.  states are _Bound objects ascending in K, and
    blocks ascend up to hi <= S = states[-1].k // 2.  The share builds its
    own factor tables and Euclid blocks.
    """
    n = states[-1].k
    ks = [state.k for state in states]
    tables = _factor_tables(blocks[-1][1] // 2)
    totals = [0] * len(states)
    for lo, hi in blocks:
        for y, inv in _inverse_tables(hi, lo, tables):
            residues = _Residues(y, inv, n)
            column = _column(y, inv, n // 2, n)
            for i in range(bisect_left(ks, y), len(states)):
                state = states[i]
                totals[i] += (_pair_counts_fast(y, residues.classes[y + 1:state.k + 1],
                                                state, residues)
                              + _column_pairs(y, *column, state))
    return totals


def _run_share(conn, states, blocks):
    """A worker's body: send (True, its share) or (False, the error) to conn."""
    try:
        result = (True, _share_pairs(states, blocks))
    except Exception as exc:  # the parent re-raises it
        result = (False, exc)
    conn.send(result)
    conn.close()


def _forked(states, shares):
    """_share_pairs(states, blocks) for each blocks in shares, one forked worker each.

    Returns the results in order.  A worker's error is raised here, and no
    worker outlives the call: on any error the others are terminated, and
    every one is joined.
    """
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    workers, pipes = [], []
    try:
        for blocks in shares:
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            worker = ctx.Process(target=_run_share, args=(send, states, blocks),
                                 daemon=True)
            worker.start()
            workers.append(worker)
            send.close()
        results = []
        for recv in pipes:
            try:
                ok, value = recv.recv()
            except EOFError:
                raise ChildProcessError("a torsor sweep worker exited without "
                                        "a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for recv in pipes:
            recv.close()


def _sweep(states):
    """The pairs with a1 = 2..max K for each of states (ascending in K >= 2).

    The moduli y = 2..S, S = max K // 2, each with its row a1 = y and its
    column, go in blocks of SHARE_BLOCK consecutive moduli, dealt
    round-robin to one forked worker per CPU the process may run on, at
    most one per block; the column y = 1 and the a1 > S closed forms
    (_tail_pairs) run here, and the exact partial counts are added here.
    Below FORK_MIN_MODULI, with one CPU, without fork, or in a process that
    runs threads (which a fork does not copy), one share takes every block
    in this process.
    """
    n = states[-1].k
    s = n // 2
    blocks = [(lo, min(lo + SHARE_BLOCK - 1, s)) for lo in range(2, s + 1, SHARE_BLOCK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(blocks))
    if not blocks:
        shares = []
    elif (n < FORK_MIN_MODULI or workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        shares = [_share_pairs(states, blocks)]
    else:
        shares = _forked(states, [blocks[w::workers] for w in range(workers)])
    return [sum(column) for column in zip(_tail_pairs(states), *shares)]


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
    (_sweep), so every bound's count completes at the end of the sweep,
    and every result's elapsed is the time of the whole call.  Every bound
    is checked first: one above MAX_TORSOR_BOUND raises OutOfRange before
    any work.
    """
    t0 = time.perf_counter()
    ints = [_int_bound(b, MAX_TORSOR_BOUND) for b in bounds]
    states = list(map(_Bound, sorted(set(ints))))
    pairs = {state.b: state.pairs for state in states}
    live = [state for state in states if state.k >= 2]
    if live:
        for state, share in zip(live, _sweep(live)):
            pairs[state.b] += share
    elapsed = time.perf_counter() - t0
    # 4 = swap symmetry x units / |mu_K|
    return [CountResult(bound=Fraction(bound), count=4 * pairs[b],
                        method="torsor-fast", elapsed=elapsed)
            for bound, b in zip(bounds, ints)]


def torsor_count(bound):
    """N(B) via the torsor parameterization: torsor_counts([bound])[0]."""
    return torsor_counts([bound])[0]


#: Least items per block of torsor_height_counts: candidate pairs (a1, a2),
#: then values of a8.  A block also takes at least B // 16 items, so that
#: its one bincount of length B + 1 stays a small part of its work.  At
#: B = 2000, the default of dp4 compare, it took 5 ms and added 0.25 MB to
#: the peak RSS (2.0 MB at 2^14 items a block, 5.1 MB at 2^16).  At B = 1e6
#: (1.4e7 pairs, 1.6e8 values of a8) it took 11 s with a traced peak of
#: 48 MB, 40 MB of it in arrays of length B; 2^14 items a block at every B
#: took 19.5 s there.
HEIGHT_BLOCK = 1 << 12


def _flat_blocks(sizes, block):
    """Walk the sequence in which owner i repeats sizes[i] times, block items
    at a time; yield each block's owners and ranks (0..sizes[i]-1 per owner)."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], "right")
        owners = np.arange(first, last + 1)
        owner = np.repeat(owners, np.minimum(ends[owners], hi) - np.maximum(starts[owners], lo))
        yield owner, np.arange(lo, hi, dtype=np.int64) - starts[owner]


def torsor_height_counts(bound):
    """Cumulative N(b) for all b <= bound, from one sweep over solutions.

    Each coprime pair (a1, a2) with a1*a2 <= bound runs its a8 over one
    progression mod a1, of class -a2^-1 (one pow per pair), inside
    -(b // a2) <= a8 <= (b - 1) // a2, where |y| <= b and |y + 1| <= b for
    y = a2*a8; every height max(a1*a2, |y|, |y + 1|) is therefore <= b.  The
    pairs, and then their values of a8, are taken max(HEIGHT_BLOCK, b // 16)
    at a time, so the memory stays O(b + HEIGHT_BLOCK).  A bound above
    MAX_DIRECT_BOUND, the range of its only caller dp4 compare, raises
    OutOfRange before any array is built.
    """
    b = _int_bound(bound, MAX_DIRECT_BOUND)
    block = max(HEIGHT_BLOCK, b // 16)
    hist = np.zeros(b + 1, dtype=np.int64)
    for i, rank in _flat_blocks(b // np.arange(1, b + 1), block):
        a1, a2 = i + 1, rank + 1     # a2 = 1..b // a1
        coprime = np.gcd(a1, a2) == 1
        a1, a2 = a1[coprime], a2[coprime]
        lo = -(b // a2)
        r = -np.array([pow(y, -1, x) for x, y in zip(a1.tolist(), a2.tolist())],
                      dtype=np.int64) % a1
        first = lo + (r - lo) % a1
        sizes = np.maximum(((b - 1) // a2 - first) // a1 + 1, 0)
        for j, k in _flat_blocks(sizes, block):
            y = a2[j] * (first[j] + a1[j] * k)
            hist += np.bincount(np.maximum(a1[j] * a2[j], np.maximum(np.abs(y), np.abs(y + 1))),
                                minlength=b + 1)
    return (2 * hist).cumsum()


def enumerate_normalized(bound):
    """Yield every torsor point with a1, a2 >= 1, a3 = a4 = a5 = 1 and height <= bound."""
    b = _int_bound(bound)
    for a1 in range(1, b + 1):
        for a2 in range(1, b // a1 + 1):
            if gcd(a1, a2) != 1:
                continue
            for a7 in (1, -1):
                # y = a2*a8 must satisfy |y| <= B and |y + a7| <= B
                y_lo, y_hi = (-b, b - 1) if a7 == 1 else (1 - b, b)
                lo = -(-y_lo // a2)  # ceil
                hi = y_hi // a2
                r = (-a7 * pow(a2, -1, a1)) % a1
                first = lo + (r - lo) % a1
                for a8 in range(first, hi + 1, a1):
                    a9 = -(a2 * a8 + a7) // a1
                    for a6 in (1, -1):
                        yield validate((a1, a2, 1, 1, 1, a6, a7, a8, a9))


def write_tuple_stream(points, stream):
    for point in points:
        stream.write(f"{point}\n")
