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
from dataclasses import dataclass
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


def on_surface(pt):
    """Do both defining equations vanish at the point (over Z: GaussInt has no +)?"""
    return not any(_forms(*pt.coords))


def _int_bound(bound, limit=None):
    if not bound > 0:
        raise NonpositiveBound(f"bound must be positive, got {bound}")
    b = int(bound)  # heights are positive integers, so floor is exact
    if limit is not None and b > limit:
        raise OutOfRange(f"bound must be <= {limit}, got {bound}")
    return b


def primes_up_to(n):
    """All primes <= n, ascending, from one sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64)


# ---------------------------------------------------------------------------
# Direct counting in the normal form x0 + x3 = 1
# ---------------------------------------------------------------------------

#: Largest bound the direct counter accepts, per ring.  Over Z, the divisor
#: sieve of 1..B has E = sum_{n <= B} d(n) ~ B (ln B + 2 gamma - 1) int32
#: entries, built from about five int32 arrays of length E and an int64
#: argsort: 28 bytes per entry, E = 1.4e7 and a peak RSS near 370 MB at
#: B = 10^6; the histogram adds 8 (B + 1) bytes.  A fresh `dp4 compare`
#: took 0.76-0.86 s with a 60 MB peak RSS (VmHWM) at B = 1e5 and 7.9-8.7 s
#: with 375 MB at 1e6, on a 2-vCPU host; the sieve sets both peaks.  Over Z[i] the x0 scan tests each x2 of norm <= B
#: for each of ~pi B values of x0: fresh `dp4 count --ring Zi` took 0.49,
#: 1.3, 3.3, 24 and 48 s at B = 1e3, 3e3, 5e3, 1e4 and (no limit) 2e4, with
#: peaks of 29-39 MB.  Both limits keep a count under half a minute.
MAX_DIRECT_BOUND = {INTEGERS: 10 ** 6, GAUSSIAN: 10 ** 4}


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


#: Triples (m, u, v) per block of the direct kernel over Z.  Each block adds
#: its heights into the histogram with one np.add.at, so no block costs
#: O(B).  On a 2-vCPU host 2^12, 2^13 and 2^14 triples a block took 1.9,
#: 1.8 and 1.8 ms at B = 2000, 0.22, 0.21 and 0.19 s at 1e5, and 3.4, 3.0
#: and 3.6 s at 1e6 (1.4e8 triples); the divisor sieve sets the traced peak,
#: 29 MB at 1e5.
DIRECT_BLOCK = 1 << 13


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


def _normal_form_blocks(bound):
    """Yield arrays (m, d) a block at a time: each m in 0..bound - 1 with each
    divisor d of m(m + 1), d <= bound at m = 0; the caller drops d > bound.

    m and m + 1 are coprime, so for m >= 1 the divisors of m(m + 1) are the
    d = uv over the triples (m, u | m, v | m + 1), walked DIRECT_BLOCK at a
    time through the sieve's CSR rows.
    """
    flat, start = _divisor_sieve(bound)
    yield np.zeros(bound, dtype=np.int64), np.arange(1, bound + 1, dtype=np.int64)
    tau = np.diff(start)                    # tau[k] divisors of k, k = 0..bound
    upper = tau[2:bound + 1]                # of m + 1, m = 1..bound - 1
    for i, rank in _flat_blocks(tau[1:bound] * upper, DIRECT_BLOCK):
        m = i + 1
        u, v = np.divmod(rank, upper[i])
        yield m, flat[start[m] + u].astype(np.int64) * flat[start[m + 1] + v]


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
    b = _int_bound(bound, MAX_DIRECT_BOUND.get(ring))
    hist = np.zeros(b + 2, dtype=np.int64)     # hist[b + 1] takes the heights above b
    if ring == INTEGERS:
        for m, d in _normal_form_blocks(b):
            heights = np.maximum(d, m + 1)
            np.add.at(hist, np.minimum(heights, b + 1, out=heights), 4)
    elif ring == GAUSSIAN:
        for x0, x3, re, im in _normal_form_zi(b):
            np.add.at(hist, np.maximum(re * re + im * im,
                                       max(x0.norm(), x3.norm())), 1)
    else:
        raise ValueError("direct counts run over Z or Z[i]")
    return hist[:-1].cumsum()


def direct_counts(bounds, ring=INTEGERS, keyed=None):
    """N(B) for every B in bounds, in order, from one histogram at the largest.

    keyed, if given, is direct_points_with_heights at the largest bound.  It
    lists exactly the points counted, so the histogram is that of its
    heights, and nothing is enumerated again.  A bound above the ring's
    MAX_DIRECT_BOUND raises OutOfRange before any work.
    """
    ints = [_int_bound(b, MAX_DIRECT_BOUND.get(ring)) for b in bounds]
    if not ints:
        return []
    if keyed is None:
        counts = direct_height_counts(max(bounds), ring=ring)
    else:
        counts = np.bincount([h for h, _ in keyed], minlength=max(ints) + 1).cumsum()
    return counts[ints].tolist()


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
                 for ms, ds in _normal_form_blocks(b)
                 for m, k in zip(ms.tolist(), ds.tolist()) if k <= b
                 for x0 in (m + 1, -m) for x2 in (k, -k)]
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

#: Largest prime count_mod_p accepts.  The census evaluates the forms on
#: numpy blocks of p^w <= CENSUS_BLOCK residue tuples, about p^(4 - w) of
#: them: on a 2-vCPU host it took 23 ms at p = 31, 0.23 s at p = 61 and
#: 0.80 s at p = 89 (`dp4 modp --p 89`: 1.2 s, 30 MB peak RSS).  The limit
#: stays until a structural count of the points can check a larger census:
#: the tuple census in the tests, one tuple at a time, takes 0.47 s at
#: p = 31 and 19-26 s at p = 89.  Above sqrt(CENSUS_BLOCK) = 90.5 the grid
#: holds one coordinate, and a block p tuples.
MAX_MODP_PRIME = 89

#: Most residue tuples per block of the census mod p: the last w free
#: coordinates run over one grid of p^w <= CENSUS_BLOCK tuples, at least
#: p^2 for every p <= MAX_MODP_PRIME.  At p = 89, 2^12 (a grid of p tuples)
#: took 8.1 s, and 2^13, 2^14 and 2^16 took 0.80, 0.81 and 0.75 s, with a
#: traced peak of 0.73 MB.
CENSUS_BLOCK = 1 << 13


def count_mod_p(p):
    """|{x in P^4(F_p) : both equations hold, x not on L}|; equals p^2 + p.

    The census runs over the canonical representatives of P^4(F_p), leading
    coordinate 1, as residues in [0, p), so a coordinate vanishes mod p
    exactly when it is 0, and x is on L exactly when x0 | x2 | x3 is 0.
    For each leading position, the last w free coordinates run over one
    grid of p^w <= CENSUS_BLOCK tuples, the others one value at a time, and
    _forms is evaluated on the grid's arrays.  A p above MAX_MODP_PRIME
    raises OutOfRange, and a p that is not prime NotPrime, before any array
    is built.
    """
    if p > MAX_MODP_PRIME:
        raise OutOfRange(f"p must be <= {MAX_MODP_PRIME}, got {p}")
    if p not in primes_up_to(p).tolist():
        raise NotPrime(f"{p} is not prime")
    grid = 1
    while grid < 4 and p ** (grid + 1) <= CENSUS_BLOCK:
        grid += 1
    count = 0
    for lead in range(5):
        width = min(grid, 4 - lead)
        x = np.zeros((5, p ** width), dtype=np.int64)
        x[lead] = 1
        x[5 - width:] = np.indices((p,) * width).reshape(width, p ** width)
        for head in itertools.product(range(p), repeat=4 - lead - width):
            x[lead + 1:5 - width] = np.reshape(head, (-1, 1))
            eq1, eq2 = _forms(*x)
            count += np.count_nonzero((eq1 % p == 0) & (eq2 % p == 0)
                                      & ((x[0] | x[2] | x[3]) != 0))
    return count
