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
  a2 <= K (_pair_counts_fast), and a2 per a8 for a2 > K, where
  |a8| <= M = B // (K + 1) (_a8_side_counts);
* one sweep over a1 = 2..max K serves a whole list of bounds
  (torsor_counts).  Each a1 gets one periodic array of the classes
  -x^-1 mod a1 over 0..max K, with 0/1 unit weights (_Residues), and every
  bound with K >= a1 counts both halves from plain slices of it, with dot
  products against the weights;
* each bound holds the quotients B // n and (B - 1) // n for n <= K once:
  they are the a8 range of a2 = n and the a2 limits of a8 = n;
* on the a8 side, the terms at K, and the terms of the a8 whose a2 range
  is cut at B // a1, depend on a8 mod a1 alone: they are summed per
  residue, a whole period in closed form (_Residues.class_sum);
* the inverse table mod m is built for the residues up to m // 2 and
  mirrored, inv[m - x] = m - inv[x].  Only the primes up to m // 2 go
  through an extended Euclid, one vectorized call over every (m, p) pair
  of a block of consecutive moduli; the composites are products of
  earlier entries, one vectorized step per level of a balanced
  factorization (_factor_tables, built once per sweep).

Each bound's arrays hold O(sqrt B) values, and the count is integer
arithmetic throughout.  The tests check it against a naive scan of a8
and against the elementwise form of each half.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import CoprimalityBroken, EquationViolated, NonUnitMiddle
from .surface import INTEGERS, CountResult, ProjectivePoint, _int_bound

#: Largest bound torsor_count accepts.  Its largest int64 intermediate is a
#: dot product of class counts for one a1 and one bound (or a sum of
#: floor(n/k) in D(n)), at most the a1 = 1 row sum_{a2 <= B} (2B/a2 + 1),
#: about B * (2 ln B + 1); at B = 10^17 that is 7.9e18 < 2^63 - 1 = 9.2e18.
#: The per-residue sums, and their multiples by the number of whole periods
#: of a8, are Python ints; an inverse-table product is below K^2 <= B.  The
#: O(B) running time is the practical limit far below it.
MAX_TORSOR_BOUND = 10 ** 17


@dataclass(frozen=True)
class TorsorPoint:
    """A valid integer solution of the torsor equation with unit middle."""

    a: tuple

    def __str__(self):
        return ",".join(str(x) for x in self.a)


@dataclass(frozen=True)
class NormalizedTorsorPoint:
    """A torsor point with a1, a2 >= 1 and a3 = a4 = a5 = 1."""

    point: TorsorPoint


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


def normalize_check(point):
    """Wrap a TorsorPoint that is already in normalized form."""
    a = point.a
    if not (a[0] >= 1 and a[1] >= 1 and a[2] == a[3] == a[4] == 1):
        raise EquationViolated(f"{a} is not in normalized form")
    return NormalizedTorsorPoint(point)


def map_to_surface(point):
    """Descent to the surface; the image is primitive and canonical."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9 = point.a
    x0 = a2 * a3 * a4 * a5 * a6 * a7 * a8
    x1 = a1 ** 2 * a2 ** 2 * a3 ** 2 * a4 * a6 ** 3
    x2 = a1 * a2 * a3 ** 2 * a4 ** 2 * a5 ** 2 * a6 ** 2 * a7
    x3 = a1 * a3 * a4 * a5 * a6 * a7 * a9
    x4 = a7 * a8 * a9
    return ProjectivePoint.make((x0, x1, x2, x3, x4), ring=INTEGERS)


def lifted_height(point):
    """max(|a2*a8|, |a1*a2*a3*a4*a5*a6|, |a1*a9|); equals the surface height."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9 = point.a
    return Fraction(max(abs(a2 * a8), abs(a1 * a2 * a3 * a4 * a5 * a6), abs(a1 * a9)))


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


def _inverse_tables(k):
    """Yield (m, _inverse_table(m)) for m = 2..k, from one set of tables.

    The inverses of the primes up to m // 2 come from one _euclid_inverses
    call per block of consecutive moduli, each block at most
    EUCLID_BLOCK_PAIRS (m, p) pairs (or one modulus, if that alone has more).
    """
    tables = _factor_tables(k // 2)
    primes = tables[1]
    below = np.searchsorted(primes, np.arange(k + 2) // 2, "right")  # primes <= m // 2
    offset = np.concatenate(([0], np.cumsum(below)))     # pairs of moduli < m
    m = 2
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

    def class_sum(self, x, n):
        """Sum over the units a8 in 1..n of (x - c)//a1 + (x + c)//a1, c its class.

        With x = q*a1 + s, a unit class c in [1, a1) gives
        2q - [c > s] + [c >= a1 - s].  Over one period c runs through all
        the units, which the map u -> a1 - u permutes, so a period sums to
        (2q - 1)*phi + 2*cum[s].  The part period, residues 1..n % a1, is
        counted directly, or as a period less its complement, whichever is
        shorter.  Python ints throughout.
        """
        a1 = self.a1
        q, s = divmod(x, a1)
        period = (2 * q - 1) * self.phi + 2 * int(self.cum[s])
        periods, r = divmod(n, a1)
        if 2 * r <= a1:
            lo, hi, sign = 1, r + 1, 1
        else:
            lo, hi, sign = r + 1, a1, -1
            periods += 1
        c = self.classes[lo:hi]
        part = (2 * q * int(self.cum[hi - 1] - self.cum[lo - 1])
                - int(np.count_nonzero(c > s)) + int(np.count_nonzero(c >= a1 - s)))
        return periods * period + sign * part


def _pair_counts_fast(a1, classes, bound, residues):
    """Solutions a8 of a2*a8 = -1 (mod a1) with a2*a8 in [-B, B-1], a1 < a2 <= K.

    Summed over a2 for one a1 >= 2 and one _Bound; an int.  classes is
    residues.classes[a1 + 1:K + 1], the a8 class c of each a2, and the
    count is floor((hi - c)/a1) - ceil((lo - c)/a1) + 1 with
    hi = (B-1) // a2 and lo = -(B // a2); a2 with gcd(a1, a2) > 1 has
    weight 0.  classes is passed, not sliced here, so that its length is
    the kernel's element count (bench/layers.py reads it).
    """
    k = bound.k
    count = (bound.under[a1:k] - classes) // a1 + (bound.over[a1:k] + classes) // a1
    return (int(np.dot(count, residues.weights[a1 + 1:k + 1]))
            + residues.units(k) - residues.units(a1))


def _a8_side_counts(a1, bound, residues):
    """Pairs (a2, +-a8) with K < a2 <= B // a1, for one a1 >= 2; an int.

    Each unit a8 in 1..M, M = B // (K + 1), counts the a2 in its class
    (c for +a8, a1 - c for -a8) inside (K, min(top, cap)], where
    cap = B // a1 and top is (B-1) // a8 for +a8 and B // a8 for -a8.  That
    is (min(top+, cap) - c)//a1 + (min(top-, cap) + c)//a1 less the same
    with K for both tops.  Both tops reach cap exactly for a8 <= (B-1) // cap,
    where the count depends on a8 mod a1 alone, as does the K term for
    every a8: residues.class_sum takes those.  Above it neither min binds.
    """
    b, m = bound.b, bound.m
    cap = b // a1
    t = min((b - 1) // cap, m)
    c = residues.classes[t + 1:m + 1]
    count = (bound.under[t:m] - c) // a1 + (bound.over[t:m] + c) // a1
    return (int(np.dot(count, residues.weights[t + 1:m + 1]))
            + residues.class_sum(cap, t) - residues.class_sum(bound.k, m))


def _divisor_sum(n):
    """D(n) = sum_{k=1..n} floor(n/k) = 2 sum_{k <= sqrt n} floor(n/k) - isqrt(n)^2."""
    r = isqrt(n)
    return 2 * int((n // np.arange(1, r + 1, dtype=np.int64)).sum()) - r * r


class _Bound:
    """One bound's share of the sweep: its quotients and running pair count.

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


def torsor_counts(bounds):
    """N(B) via the torsor parameterization for every B in bounds, in order.

    Count pairs (a1, a2) with a1 < a2, a1*a2 <= B; the
    (a1, a2) <-> (a2, a1) swap symmetry of the solution set halves the
    work and keeps a1 <= K = isqrt(B).
      a1 = 1: sum_{a2=2..B} ((B-1)//a2 + B//a2 + 1) = D(B-1) + D(B) - B,
        plus B for the pair (1, 1): its 2B values of a8, halved as it is
        its own swap image.
      a1 >= 2, a2 <= K: count the a8 class per a2 (_pair_counts_fast).
      a1 >= 2, a2 > K: |a2*a8| <= B forces 1 <= |a8| <= B // (K + 1)
        (_a8_side_counts).
    One sweep over a1 = 2..max K serves every bound: each a1 gets one
    inverse table and one periodic class array, and every bound with
    K >= a1 counts its two halves from it.  A result's elapsed is the time
    from the start of the call until its bound's count was complete.
    Every bound is checked first: one above MAX_TORSOR_BOUND raises
    OutOfRange before any work.
    """
    t0 = time.perf_counter()
    ints = [_int_bound(b, MAX_TORSOR_BOUND) for b in bounds]
    done = {}  # b -> (pairs, elapsed)
    live = []
    for state in map(_Bound, sorted(set(ints))):
        if state.k < 2:
            done[state.b] = (state.pairs, time.perf_counter() - t0)
        else:
            live.append(state)
    if live:
        n = live[-1].k
        for a1, inv in _inverse_tables(n):
            residues = _Residues(a1, inv, n)
            for state in live:
                state.pairs += _pair_counts_fast(
                    a1, residues.classes[a1 + 1:state.k + 1], state, residues)
                state.pairs += _a8_side_counts(a1, state, residues)
                if state.k == a1:
                    done[state.b] = (state.pairs, time.perf_counter() - t0)
            live = [state for state in live if state.k > a1]
    # 4 = swap symmetry x units / |mu_K|
    return [CountResult(bound=Fraction(bound), count=4 * done[b][0], ring=INTEGERS,
                        method="torsor-fast", elapsed=done[b][1])
            for bound, b in zip(bounds, ints)]


def torsor_count(bound):
    """N(B) via the torsor parameterization: torsor_counts([bound])[0]."""
    return torsor_counts([bound])[0]


def torsor_height_counts(bound):
    """Cumulative N(b) for all b <= bound, from one sweep over solutions."""
    b = _int_bound(bound)
    hist = np.zeros(b + 1, dtype=np.int64)
    for a1 in range(1, b + 1):
        for a2 in range(1, b // a1 + 1):
            if gcd(a1, a2) != 1:
                continue
            lo = -(b // a2)
            hi = (b - 1) // a2
            r = (-pow(a2, -1, a1)) % a1
            first = lo + (r - lo) % a1
            a8 = np.arange(first, hi + 1, a1, dtype=np.int64)
            if a8.size == 0:
                continue
            # The a8 range keeps |y| <= b and |y + 1| <= b, so every h <= b.
            y = a2 * a8
            np.add.at(hist, np.maximum(a1 * a2, np.maximum(np.abs(y), np.abs(y + 1))), 2)
    return hist.cumsum()


def enumerate_normalized(bound):
    """Yield every normalized torsor point with lifted height <= bound."""
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
                        yield normalize_check(
                            validate((a1, a2, 1, 1, 1, a6, a7, a8, a9)))


def fibers_over_points(bound):
    """Group normalized torsor points of height <= bound by surface image."""
    fibers = {}
    for norm in enumerate_normalized(bound):
        image = map_to_surface(norm.point)
        fibers.setdefault(image, []).append(norm)
    return fibers


def write_tuple_stream(points, stream):
    for norm in points:
        stream.write(str(norm.point) + "\n")
