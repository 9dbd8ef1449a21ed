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
  a2 <= K, and a2 per a8 for a2 > K, where |a8| <= B // (K + 1);
* modular inverses come from one vectorized extended Euclid per a1.

Every array holds at most about sqrt(B) int64 values.  The tests check it
against a naive scan of a8.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import CoprimalityBroken, EquationViolated, NonUnitMiddle
from .surface import INTEGERS, CountResult, ProjectivePoint, _int_bound

#: Largest bound torsor_count accepts.  Its largest int64 intermediate is a
#: sum of class counts for one a1 (or of floor(n/k) in D(n)), each at most
#: the a1 = 1 row sum_{a2 <= B} (2B/a2 + 1), about B * (2 ln B + 1); at
#: B = 10^17 that is 7.9e18 < 2^63 - 1 = 9.2e18.  The O(B) running time is
#: the practical limit far below it.
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

def _inverse_table(m):
    """inv[i] = i^-1 mod m where gcd(i, m) = 1, else -1.

    Extended Euclid on every residue at once: (r0, r1) are the remainders
    of (m, i) and t0 * i = r0 (mod m); a residue leaves the active set when
    r1 reaches 0, with r0 = gcd(i, m).
    """
    inv = np.full(m, -1, dtype=np.int64)
    idx = np.arange(m, dtype=np.int64)
    r0, r1 = np.full(m, m, dtype=np.int64), idx.copy()
    t0, t1 = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    while idx.size:
        live = np.flatnonzero(r1)
        if live.size < idx.size:
            unit = (r1 == 0) & (r0 == 1)
            inv[idx[unit]] = t0[unit] % m
            idx, r0, r1, t0, t1 = idx[live], r0[live], r1[live], t0[live], t1[live]
        q, r = np.divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return inv


def _pair_counts_fast(a1, a2_arr, bound, inv):
    """Solutions a8 of a2*a8 = -1 (mod a1) with a2*a8 in [-B, B-1], per a2.

    Vectorized over the a2 array for one fixed a1, with inv its
    _inverse_table; pairs with gcd(a1, a2) > 1 contribute zero.
    """
    lo = -(bound // a2_arr)           # ceil(-B / a2)
    hi = (bound - 1) // a2_arr        # floor((B-1) / a2)
    r = inv[a2_arr % a1]
    ok = r >= 0
    r = np.where(ok, (-r) % a1, 0)
    count = (hi - r) // a1 + (r - lo) // a1 + 1  # floor((hi-r)/a1) - ceil((lo-r)/a1) + 1
    return np.where(ok, np.maximum(count, 0), 0)


def _divisor_sum(n):
    """D(n) = sum_{k=1..n} floor(n/k) = 2 sum_{k <= sqrt n} floor(n/k) - isqrt(n)^2."""
    r = isqrt(n)
    return 2 * int((n // np.arange(1, r + 1, dtype=np.int64)).sum()) - r * r


def torsor_count(bound):
    """N(B) via the torsor parameterization.

    Count pairs (a1, a2) with a1 < a2, a1*a2 <= B; the
    (a1, a2) <-> (a2, a1) swap symmetry of the solution set halves the
    work and keeps a1 <= K = isqrt(B).
      a1 = 1: sum_{a2=2..B} ((B-1)//a2 + B//a2 + 1) = D(B-1) + D(B) - B,
        plus B for the pair (1, 1): its 2B values of a8, halved as it is
        its own swap image.
      a1 >= 2, a2 <= K: count the a8 class per a2 (_pair_counts_fast).
      a1 >= 2, a2 > K: |a2*a8| <= B forces 1 <= |a8| <= B // (K + 1); each
        a8 counts its a2 class -a8^-1 (mod a1) inside
        (K, min(limit(a8), B // a1)], where limit(a8) is (B-1)//a8 for
        a8 > 0 and B//|a8| for a8 < 0.
    B above MAX_TORSOR_BOUND raises OutOfRange before any work.
    """
    t0 = time.perf_counter()
    b = _int_bound(bound, MAX_TORSOR_BOUND)
    if b < 1:
        total = 0
    else:
        k = isqrt(b)
        pairs = _divisor_sum(b - 1) + _divisor_sum(b)  # a1 = 1, with the pair (1, 1)
        a8 = np.arange(1, b // (k + 1) + 1, dtype=np.int64)
        top_pos = (b - 1) // a8       # a2 limit for +a8
        top_neg = b // a8             # a2 limit for -a8
        for a1 in range(2, k + 1):
            inv = _inverse_table(a1)
            a2 = np.arange(a1 + 1, k + 1, dtype=np.int64)
            pairs += int(_pair_counts_fast(a1, a2, b, inv).sum())
            cap = b // a1
            r = inv[a8 % a1]
            ok = r >= 0
            up = np.minimum(top_pos, cap)
            un = np.minimum(top_neg, cap)
            rp = (-r) % a1            # a2 class for +a8
            count = ((up - rp) // a1 - (k - rp) // a1
                     + (un - r) // a1 - (k - r) // a1)
            pairs += int(count[ok].sum())
        total = 4 * pairs  # swap symmetry x units / |mu_K|
    return CountResult(bound=Fraction(bound), count=int(total), ring=INTEGERS,
                       method="torsor-fast", elapsed=time.perf_counter() - t0)


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
            y = a2 * a8
            h = np.maximum(a1 * a2, np.maximum(np.abs(y), np.abs(y + 1)))
            counts = np.bincount(h[h <= b], minlength=b + 1)
            hist += 2 * counts
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
