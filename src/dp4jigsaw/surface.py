"""Points on the quartic del Pezzo surface x0*x3 = x2*x4, x0*x1 + x1*x3 + x2^2 = 0.

Membership over Z and Z[i], the direct counts and listings of integral
points off the lines, and one census of the residue tuples mod p on the
surface.

On the surface, x2 = 0 cuts out precisely the three lines (checked
exhaustively mod every prime p <= 13 in the test suite), so off them
x2 != 0, s = x0 + x3 != 0, x1 = -x2^2 / s and x4 = x0 * x3 / x2.  Over any
ring of integers s is then a unit: a prime P dividing s divides x2^2, so
x2, so x0*x3 and x0 + x3, so x0 and x3, against integrality.  Scaling by
1/s gives each point one representative in the normal form

    x3 = 1 - x0,      x1 = -x2^2,      x4 = x0 * (1 - x0) / x2,

that is, one pair (x0, x2) with x2 != 0 and x2 | x0(1 - x0), of height
max(|x0|, |x2|, |1 - x0|) (norms over Z[i]).  Over Z, x0 = m + 1 and
x0 = -m share x0(1 - x0) = -m(m + 1), so with x2 = +-d each divisor d of
m(m + 1) gives 4 points of height max(m + 1, d); m = 0 (x0 in {0, 1})
admits every d:

    N(B) = 4B + 4 * sum_{m=1}^{B-1} tau_B(m(m + 1)),

tau_B counting divisors up to B (an additive divisor sum; Ingham 1927).
The tests check both rings against triple loops over (x0, x2, x3) that
assume no normal form, and the points against gcd-normalized heights; those
oracles, with the Gaussian gcd they need, live beside the tests.
"""

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import gaussian
from .errors import NonpositiveBound, NotPrime, OutOfRange
from .gaussian import GaussInt

LINE_L = "L"       # x0 = x2 = x3 = 0, the boundary line through both singularities
LINE_LP = "L'"     # x1 = x2 = x3 = 0
LINE_LPP = "L''"   # x0 = x1 = x2 = 0


@dataclass(frozen=True)
class GroundRing:
    kind: str


INTEGERS = GroundRing("rational-integers")
GAUSSIAN = GroundRing("gaussian-integers")


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


#: The spellings parse_ring accepts for each ring, in any letter case.
RING_SPELLINGS = ((INTEGERS, ("Z", "ZZ", "int", "rational-integers")),
                  (GAUSSIAN, ("Zi", "Z[i]", "gaussian", "gaussian-integers")))


def parse_ring(text):
    key = text.strip().lower()
    for ring, spellings in RING_SPELLINGS:
        if key in (name.lower() for name in spellings):
            return ring
    accepted = ", ".join(name for _, spellings in RING_SPELLINGS for name in spellings)
    raise ValueError(f"unknown ground ring {text!r}; accepted: {accepted}")


@dataclass(frozen=True)
class ProjectivePoint:
    """A primitive 5-tuple in canonical form for its ground ring."""

    ring: GroundRing
    coords: tuple

    @staticmethod
    def from_primitive(coords, ring):
        """The canonical form of a nonzero primitive tuple over Z or Z[i].

        No gcd is taken: the first nonzero coordinate is made positive over
        Z, and its canonical associate (re > 0, im >= 0) over Z[i].
        """
        lead = next(c for c in coords if c)
        if ring.kind == "rational-integers":
            return ProjectivePoint(ring, tuple(-c for c in coords) if lead < 0 else coords)
        _, unit = gaussian.canonical_associate(lead)
        return ProjectivePoint(ring, tuple(c * unit for c in coords))

    def __str__(self):
        return ":".join(str(c) for c in self.coords)


def _forms(x0, x1, x2, x3, x4):
    """The two defining forms of the surface at a coordinate tuple."""
    return x0 * x3 - x2 * x4, x0 * x1 + x1 * x3 + x2 * x2


def _lines(x0, x1, x2, x3, x4):
    """The subset of the three lines whose equations hold at a coordinate tuple."""
    out = set()
    if not (x0 or x2 or x3):
        out.add(LINE_L)
    if not (x1 or x2 or x3):
        out.add(LINE_LP)
    if not (x0 or x1 or x2):
        out.add(LINE_LPP)
    return out


def on_surface(pt):
    """Do both defining equations vanish at the point?"""
    return not any(_forms(*pt.coords))


@dataclass(frozen=True)
class CountResult:
    bound: Fraction
    count: int
    method: str
    elapsed: float


def _int_bound(bound, limit=None):
    b = Fraction(bound)
    if b <= 0:
        raise NonpositiveBound(f"bound must be positive, got {bound}")
    if limit is not None and int(b) > limit:
        raise OutOfRange(f"bound must be <= {limit}, got {bound}")
    return int(b)  # heights are positive integers, so floor is exact


# ---------------------------------------------------------------------------
# Direct counting in the normal form x0 + x3 = 1
# ---------------------------------------------------------------------------

#: Largest bound the direct counter accepts.  The divisor sieve of 1..B
#: has E = sum_{n <= B} d(n) ~ B (ln B + 2 gamma - 1) int32 entries, built
#: from about five int32 arrays of length E and an int64 argsort: 28 bytes
#: per entry, E = 1.4e7 and a peak RSS near 370 MB at B = 10^6; the
#: histogram adds 8 (B + 1) bytes.  Over Z[i], O(B^2) time binds first.
MAX_DIRECT_BOUND = 10 ** 6


#: Largest bound at which direct_points_with_heights lists the points, per
#: ring.  The whole keyed list is built and sorted in memory: the peak RSS of
#: `dp4 count --points` was 231 MB at B = 3e3, 881 MB at 1e4 and 3.16 GB at
#: 3e4 over Z, and 252 MB at 1e3 and 895 MB at 3e3 over Z[i].  Each limit
#: keeps the peak under 1 GB.
MAX_POINTS_BOUND = {INTEGERS: 10 ** 4, GAUSSIAN: 3 * 10 ** 3}


def _divisor_sieve(n):
    """Divisors of 1..n in CSR form: those of k are flat[start[k]:start[k + 1]].

    Each k is listed once per multiple j*k <= n; sorting by the multiple
    groups the lists.
    """
    k = np.arange(1, n + 1, dtype=np.int32)
    reps = n // k
    div = np.repeat(k, reps)
    first = np.repeat(np.cumsum(reps, dtype=np.int32) - reps, reps)
    mult = div * (np.arange(div.size, dtype=np.int32) - first + 1)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(mult, minlength=n + 1), out=start[1:])
    return div[np.argsort(mult)], start


def _normal_form_z(bound):
    """Yield (m, d), d the divisors <= bound of m(m + 1) (all of 1..bound at m = 0).

    m and m + 1 are coprime, so the divisors of m(m + 1) are products of theirs.
    """
    flat, start = _divisor_sieve(bound)
    yield 0, np.arange(1, bound + 1, dtype=np.int64)
    for m in range(1, bound):
        d = np.multiply.outer(flat[start[m]:start[m + 1]],
                              flat[start[m + 1]:start[m + 2]], dtype=np.int64).ravel()
        yield m, d[d <= bound]


def _normal_form_zi(bound):
    """Yield (x0, x3 = 1 - x0, re, im), re + im*i the x2 | x0*x3 of norm <= bound.

    x2 | p exactly when p*conj(x2) is divisible by N(x2) in both parts.
    """
    r = isqrt(bound)
    re, im = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    norm = re * re + im * im
    keep = (norm > 0) & (norm <= bound)
    re, im, norm = re[keep], im[keep], norm[keep]
    for a, b in [(0, 0)] + list(zip(re.tolist(), im.tolist())):
        if (1 - a) ** 2 + b * b > bound:
            continue
        x0 = GaussInt(a, b)
        x3 = gaussian.ONE - x0
        p = x0 * x3
        ok = (((p.re * re + p.im * im) % norm == 0)
              & ((p.im * re - p.re * im) % norm == 0))
        yield x0, x3, re[ok], im[ok]


def direct_height_counts(bound, ring=INTEGERS):
    """Cumulative counts N(b) for all integer b <= bound, as an array."""
    b = _int_bound(bound, MAX_DIRECT_BOUND)
    hist = np.zeros(b + 1, dtype=np.int64)
    if ring == INTEGERS:
        for m, d in _normal_form_z(b):
            np.add.at(hist, np.maximum(d, m + 1), 4)
    elif ring == GAUSSIAN:
        for x0, x3, re, im in _normal_form_zi(b):
            np.add.at(hist, np.maximum(re * re + im * im,
                                       max(x0.norm(), x3.norm())), 1)
    else:
        raise ValueError("direct counts run over Z or Z[i]")
    return hist.cumsum()


def direct_counts(bounds, ring=INTEGERS, keyed=None):
    """direct_count for every bound, in order, from one histogram at the largest.

    keyed, if given, is direct_points_with_heights at the largest bound.  It
    lists exactly the points counted, so the histogram is that of its
    heights, and nothing is enumerated again; elapsed then leaves the
    listing out.  Every elapsed is the time of the whole call.  A bound
    above MAX_DIRECT_BOUND raises OutOfRange before any work.
    """
    t0 = time.perf_counter()
    ints = [_int_bound(b, MAX_DIRECT_BOUND) for b in bounds]
    if not ints:
        return []
    if keyed is None:
        counts = direct_height_counts(max(bounds, key=Fraction), ring=ring)
    else:
        counts = np.bincount([h for h, _ in keyed], minlength=max(ints) + 1).cumsum()
    elapsed = time.perf_counter() - t0
    return [CountResult(bound=Fraction(bound), count=int(counts[b]),
                        method="direct-divisor", elapsed=elapsed)
            for bound, b in zip(bounds, ints)]


def direct_points_with_heights(bound, ring=INTEGERS):
    """(height, point) for every integral point off the lines with height <= bound.

    Points are in canonical form, sorted by height, then by text.  A
    normal-form tuple is primitive (x0 + x3 = 1), so it only takes its
    canonical sign or unit, and its height comes with the enumerated pair.
    A bound above MAX_POINTS_BOUND raises OutOfRange before any work.
    """
    b = _int_bound(bound, MAX_POINTS_BOUND.get(ring))
    if ring == INTEGERS:
        keyed = [(max(m + 1, k), ProjectivePoint.from_primitive(
                     (x0, -x2 * x2, x2, 1 - x0, x0 * (1 - x0) // x2), ring))
                 for m, d in _normal_form_z(b) for x0 in (m + 1, -m)
                 for k in d.tolist() for x2 in (k, -k)]
    elif ring == GAUSSIAN:
        keyed = [(max(x0.norm(), x2.norm(), x3.norm()), ProjectivePoint.from_primitive(
                     (x0, -(x2 * x2), x2, x3, gaussian.exact_div(x0 * x3, x2)), ring))
                 for x0, x3, re, im in _normal_form_zi(b)
                 for x2 in map(GaussInt, re.tolist(), im.tolist())]
    else:
        raise ValueError("direct counts run over Z or Z[i]")
    return sorted(keyed, key=lambda hp: (hp[0], str(hp[1])))


def direct_points(bound, ring=INTEGERS):
    """The points of direct_points_with_heights, in the same order."""
    return [pt for _, pt in direct_points_with_heights(bound, ring)]


# ---------------------------------------------------------------------------
# Counting modulo p
# ---------------------------------------------------------------------------

def _surface_mod_p(p):
    """(x, _lines(*x)) for every x in P^4(F_p) on the surface.

    x runs over the canonical representatives, leading coordinate 1, as
    tuples of residues in [0, p), so a coordinate vanishes mod p exactly
    when it is 0.  NotPrime unless p is prime.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    for lead in range(5):
        for tail in itertools.product(range(p), repeat=4 - lead):
            x = (0,) * lead + (1,) + tail
            eq1, eq2 = _forms(*x)
            if eq1 % p or eq2 % p:
                continue
            yield x, _lines(*x)


def count_mod_p(p):
    """|{x in P^4(F_p) : both equations hold, x not on L}|; equals p^2 + p."""
    return sum(LINE_L not in lines for _, lines in _surface_mod_p(p))


# ---------------------------------------------------------------------------
# Point stream
# ---------------------------------------------------------------------------

def write_point_stream(keyed, stream):
    """Write (height, point) pairs one a line, as 'x0:x1:x2:x3:x4,H'."""
    for h, pt in keyed:
        stream.write(f"{pt},{h}\n")
