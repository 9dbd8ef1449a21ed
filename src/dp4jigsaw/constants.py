"""Number-field invariants and the predicted leading constant.

The counting asymptotic is N(B) ~ c * B * (log B)^(2+2q) with

    c = alpha * rho_K / |Delta_K| * prod_v omega_v,

alpha = 1/(q! (q+2)!) from the jigsaw, rho_K the residue of the Dedekind
zeta function at 1, omega_v = 4 at real places, 4 pi^2 at complex places,
and 1 - 1/Np^2 at finite places (so the finite product is 1/zeta_K(2)).

Invariants are user-supplied or taken from a small built-in table; nothing
here computes regulators or class numbers.  zeta_K(2) is exact for Q,
factors as zeta(2) * L(2, chi_D) for quadratic fields (Kronecker symbol
classification of split/inert/ramified primes), and must be supplied
otherwise.  All floating evaluation carries explicit error bounds.
"""

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInvariants, OutOfRange, UnsupportedField
from .jigsaw import alpha_closed_form
from .surface import primes_up_to

#: generous bound on the relative error of the float assembly itself
FLOAT_ASSEMBLY_RELERR = 1e-14

#: Terms per block of the streamed L(2, chi) sum.  At the default 1e6 terms
#: over d = -4 (5e5 live terms), on a 2-vCPU host, 2^11, 2^13 and 2^16 terms
#: a block took 6.7, 5.3 and 6.9 ms into _exact_sum, with traced peaks of
#: 0.17, 0.57 and 4.3 MB.
L2_BLOCK = 1 << 13

#: Numbers per segment of the Euler product's prime sieve.  Over Q(i), 2^16
#: a segment had a traced peak of 0.5 MB and took 11 ms at N = 1e6 and
#: 0.76 s at 5e7; 2^18 had 1.9 MB, 11 ms and 0.56 s.
PRIME_SEGMENT = 1 << 16

#: Largest prime bound N the Euler product accepts.  The segmented sieve
#: holds O(sqrt N + PRIME_SEGMENT) numbers, so the bound limits time, not
#: memory: on a 2-vCPU host `dp4 constant` took 0.23, 0.40 and 1.36 s at
#: N = 1e6, 1e7, 5e7 over Q, and its peak RSS stayed at 29.7 MB (30.3 MB
#: over Q(i)), the level of `dp4 modp`.  With one sieve of 0..N it had
#: peaked at 34, 66 and 190 MB (37, 87 and 286 MB over Q(i)).
MAX_PRIME_BOUND = 5 * 10 ** 7

#: Largest period |d| whose character table L(2, chi_d) builds, one Python
#: Kronecker symbol per residue.  On a 2-vCPU host: 0.26 s and a 35 MB peak
#: RSS at |d| = 1e5 + 3, 2.0 s and 54 MB at 1e6 + 3, 8.2 s and 123 MB at 4e6 + 37.
MAX_L2_PERIOD = 10 ** 6


@dataclass(frozen=True)
class FieldInvariants:
    label: str
    r1: int
    r2: int
    abs_disc: int
    regulator: float
    class_number: int
    mu: int
    zeta2: float = None
    quad_disc: int = None

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.r1 + self.r2 < 1:
            raise InvalidInvariants("need r1, r2 >= 0 with r1 + r2 >= 1")
        if self.abs_disc < 1 or self.class_number < 1 or self.mu < 2 or self.mu % 2:
            raise InvalidInvariants("|disc| >= 1, h >= 1, |mu| even and >= 2")
        if self.regulator <= 0:
            raise InvalidInvariants("regulator must be positive")
        if self.quad_disc is not None and self.degree != 2:
            raise InvalidInvariants("quad_disc only makes sense for quadratic fields")
        if self.quad_disc == 0:
            raise InvalidInvariants("quad_disc must be a nonzero discriminant")

    @property
    def q(self):
        return self.r1 + self.r2 - 1

    @property
    def degree(self):
        return self.r1 + 2 * self.r2

    @staticmethod
    def from_json_dict(data):
        return FieldInvariants(
            label=data["label"], r1=int(data["r1"]), r2=int(data["r2"]),
            abs_disc=int(data["abs_disc"]), regulator=float(data["regulator"]),
            class_number=int(data["class_number"]), mu=int(data["mu"]),
            zeta2=float(data["zeta2"]) if data.get("zeta2") is not None else None,
            quad_disc=int(data["quad_disc"]) if data.get("quad_disc") is not None else None,
        )

    def to_json_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


BUILTIN_FIELDS = {
    "Q": FieldInvariants("Q", r1=1, r2=0, abs_disc=1, regulator=1.0,
                         class_number=1, mu=2),
    "Q(i)": FieldInvariants("Q(i)", r1=0, r2=1, abs_disc=4, regulator=1.0,
                            class_number=1, mu=4, quad_disc=-4),
    "Q(sqrt-3)": FieldInvariants("Q(sqrt-3)", r1=0, r2=1, abs_disc=3, regulator=1.0,
                                 class_number=1, mu=6, quad_disc=-3),
    "Q(sqrt2)": FieldInvariants("Q(sqrt2)", r1=2, r2=0, abs_disc=8,
                                regulator=math.log(1.0 + math.sqrt(2.0)),
                                class_number=1, mu=2, quad_disc=8),
}


def get_field(label):
    if label not in BUILTIN_FIELDS:
        raise UnsupportedField(
            f"unknown field {label!r}; built-ins: {sorted(BUILTIN_FIELDS)}")
    return BUILTIN_FIELDS[label]


def load_field(path):
    """FieldInvariants from a JSON file; any unreadable input is InvalidInvariants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return FieldInvariants.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidInvariants(f"cannot read field invariants from {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Elementary constants
# ---------------------------------------------------------------------------

def rho_K(inv):
    """Residue of zeta_K at 1: 2^r1 (2 pi)^r2 R h / (|mu| sqrt|Delta|)."""
    return (2.0 ** inv.r1 * (2.0 * math.pi) ** inv.r2 * inv.regulator
            * inv.class_number) / (inv.mu * math.sqrt(inv.abs_disc))


def omega_arch(inv):
    """Product of archimedean densities: 4 per real place, 4 pi^2 per complex."""
    return 4.0 ** inv.r1 * (4.0 * math.pi ** 2) ** inv.r2


def kronecker_symbol(d, n):
    """Kronecker symbol (d/n) for n >= 0."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % n
    # Jacobi symbol (a/n) for odd n by quadratic reciprocity; (a/1) = 1, as a = 0 there.
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Euler products and zeta values
# ---------------------------------------------------------------------------

#: np.frexp writes a finite double as f * 2^e with 1/2 <= |f| < 1 and e in
#: [-1073, 1024]: the sum's accumulators hold one bin per e.
FREXP_MIN_EXPONENT, FREXP_BINS = -1073, 2098

#: Most terms one _exact_sum takes.  A term's significand M = f * 2^53 is an
#: integer below 2^53 in magnitude, split as M = H * 2^26 + L with
#: -2^27 <= H < 2^27 and 0 <= L < 2^26.  Any partial sum of n of the H is
#: an integer of magnitude at most n * 2^27, so float64 adds n <= 2^26 of
#: them exactly, in any order; the L, held as L / 2^26 in [0, 1), have room
#: to spare.
EXACT_SUM_TERMS = 1 << 26


def _exact_sum(arrays):
    """The sum of every entry of the float64 arrays, exactly rounded.

    Exactly rounded, it is the double that math.fsum returns (Shewchuk, DCG
    1997), whatever the blocking and the order of the terms.  Each term is
    M * 2^(e - 53) with an integer M below 2^53; the two halves of M are
    summed per exponent e with np.bincount, every partial sum exact in
    float64 (EXACT_SUM_TERMS), and the per-exponent totals are combined as
    Python ints and rounded once (per-exponent accumulators: Neal, "Fast
    exact summation using small and large superaccumulators", 2015).
    """
    high = np.zeros(FREXP_BINS)
    low = np.zeros(FREXP_BINS)
    count = 0
    for terms in arrays:
        fraction, exponent = np.frexp(terms)
        fraction *= 2.0 ** 27              # M / 2^26, exactly
        whole = np.floor(fraction)         # H
        fraction -= whole                  # L / 2^26, exactly
        exponent -= FREXP_MIN_EXPONENT
        high += np.bincount(exponent, whole, FREXP_BINS)
        low += np.bincount(exponent, fraction, FREXP_BINS)
        count += terms.size
    assert count <= EXACT_SUM_TERMS, count
    low *= 2.0 ** 26
    bins = np.flatnonzero((high != 0) | (low != 0))
    if not bins.size:
        return 0.0
    base = int(bins[0])
    total = sum(((int(high[e]) << 26) + int(low[e])) << int(e - base) for e in bins)
    return float(Fraction(total) * Fraction(2) ** (base + FREXP_MIN_EXPONENT - 53))


def _prime_segments(n):
    """The primes <= n, ascending, as one int64 array per PRIME_SEGMENT numbers.

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 1977): the primes
    up to sqrt(n) strike their multiples from one segment at a time, so the
    memory is O(sqrt(n) + PRIME_SEGMENT), not O(n).
    """
    base = primes_up_to(math.isqrt(n)).tolist()
    for lo in range(0, n + 1, PRIME_SEGMENT):
        hi = min(lo + PRIME_SEGMENT, n + 1)
        sieve = np.ones(hi - lo, dtype=bool)
        sieve[:max(2 - lo, 0)] = False
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            sieve[start - lo::p] = False
        yield np.flatnonzero(sieve) + lo


def _norm_segments(inv, bound):
    """Norms (with multiplicity) of the prime ideals of norm <= bound, one
    int64 array per segment of rational primes, in the order of the primes."""
    if inv.degree == 1:
        yield from _prime_segments(bound)
        return
    if inv.degree != 2 or inv.quad_disc is None:
        raise UnsupportedField(
            f"prime classification needs Q or a quadratic field with quad_disc; "
            f"got {inv.label}")
    # chi_d(p) = (d/p) splits p in two ideals of norm p (1), ramifies it (0)
    # or leaves it inert, of norm p^2 (-1).  On odd n, n -> (d/n) has period
    # |d| for d = 0, 1 mod 4 (on every n) and 4|d| otherwise, where 2 is
    # alone in its class; so the symbol is taken once per class of primes
    # mod the period, at its first prime, into a table of min(period,
    # bound + 1) bytes (4, 3 and 8 for the built-in quadratic fields).
    d = inv.quad_disc
    period = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    chi = np.full(min(period, bound + 1), 2, dtype=np.int8)   # 2: not taken yet
    for primes in _prime_segments(bound):
        cls = primes % period
        fresh = chi[cls] == 2
        new, first = np.unique(cls[fresh], return_index=True)
        chi[new] = [kronecker_symbol(d, p) for p in primes[fresh][first].tolist()]
        seg = chi[cls]
        norms = np.where(seg == -1, primes * primes, primes)
        yield np.repeat(norms, np.where(seg == 1, 2, norms <= bound))


@dataclass(frozen=True)
class EulerProductResult:
    value: float
    prime_bound: int
    factor_count: int
    tail_log_bound: float   # 0 <= -log(limit/value) <= this
    limit_low: float
    limit_high: float


def finite_density_product(inv, prime_bound):
    """prod_{Np <= bound} (1 - 1/Np^2) with a rigorous tail estimate.

    The limit over all primes is 1/zeta_K(2); the reported bracket
    [limit_low, limit_high] contains it.  Tail: each rational prime above
    the bound carries at most two ideals of norm >= p, and inert primes
    above sqrt(bound) at most one of norm p^4-ish, giving
    -log(tail product) <= 2/X + X^(-3/2) (<= 1/X over Q).
    """
    if prime_bound < 2:
        raise OutOfRange("prime_bound must be >= 2")
    if prime_bound > MAX_PRIME_BOUND:
        raise OutOfRange(f"prime_bound must be <= {MAX_PRIME_BOUND}, got {prime_bound}")
    factor_count = 0

    def terms():
        nonlocal factor_count
        for norms in _norm_segments(inv, prime_bound):
            factor_count += norms.size
            yield np.log1p(-1.0 / norms.astype(np.float64) ** 2)

    # one exactly rounded sum over the terms of every segment
    value = math.exp(_exact_sum(terms()))
    if inv.degree == 1:
        tail = 1.0 / prime_bound
    else:
        tail = 2.0 / prime_bound + prime_bound ** -1.5
    return EulerProductResult(
        value=value, prime_bound=prime_bound, factor_count=factor_count,
        tail_log_bound=tail,
        limit_low=value * math.exp(-tail) * (1 - FLOAT_ASSEMBLY_RELERR),
        limit_high=value * (1 + FLOAT_ASSEMBLY_RELERR),
    )


def dirichlet_l2(d, terms=10 ** 6):
    """L(2, chi_d) for a fundamental discriminant d, with tail bound.

    Direct summation of the periodic character over its live terms, the n
    <= terms with chi(n) != 0 (exact zeros cannot move an exactly rounded
    sum): n = r + period * k over the residues r in 1..period with chi(r)
    != 0, at most L2_BLOCK terms a block, into one _exact_sum, so the
    blocking cannot change the value.  Abel summation bounds the tail by
    2 * max|partial sums| / terms^2.  A period above MAX_L2_PERIOD raises
    OutOfRange before the table is built.
    """
    period = abs(d)
    if period > MAX_L2_PERIOD:
        raise OutOfRange(f"L(2, chi_d) needs |d| <= {MAX_L2_PERIOD}, got d = {d}; "
                         "supply zeta2 for this field")
    chi_period = np.array([kronecker_symbol(d, n) for n in range(period)],
                          dtype=np.float64)
    chi = np.roll(chi_period, -1)          # chi(r) at r = 1..period
    live = np.flatnonzero(chi)
    width = min(live.size, L2_BLOCK)       # residues a block, in rows of one period
    rows = L2_BLOCK // width

    def blocks():
        for lo in range(0, live.size, width):
            cols = live[lo:lo + width]
            first = (period * np.arange(rows, dtype=np.float64)[:, None] + (cols + 1.0)).ravel()
            signs = np.tile(chi[cols], rows)
            for k in range(0, terms // period + 1, rows):
                n = first + period * k     # ascending, exact
                top = np.searchsorted(n, terms, "right")
                yield signs[:top] / n[:top] ** 2

    value = _exact_sum(blocks())
    partial_max = float(np.max(np.abs(np.cumsum(chi_period))))
    tail = 2.0 * max(partial_max, 1.0) / terms ** 2
    return value, tail


def dedekind_zeta2(inv):
    """(zeta_K(2), absolute error bound)."""
    if inv.zeta2 is not None:
        return float(inv.zeta2), abs(inv.zeta2) * FLOAT_ASSEMBLY_RELERR
    if inv.degree == 1:
        z = math.pi ** 2 / 6.0
        return z, z * FLOAT_ASSEMBLY_RELERR
    if inv.degree == 2 and inv.quad_disc is not None:
        lval, ltail = dirichlet_l2(inv.quad_disc)
        z = (math.pi ** 2 / 6.0) * lval
        return z, (math.pi ** 2 / 6.0) * ltail + z * FLOAT_ASSEMBLY_RELERR
    raise UnsupportedField(
        f"zeta_K(2) unavailable for {inv.label}: supply zeta2 explicitly")


# ---------------------------------------------------------------------------
# Leading constant
# ---------------------------------------------------------------------------

_SYMBOLIC_C = {
    "Q": "12/pi^2",
    "Q(i)": "3*pi/(4*G)   [G = Catalan]",
}

_SYMBOLIC_RHO = {
    "Q": "1",
    "Q(i)": "pi/4",
    "Q(sqrt-3)": "pi/(3*sqrt(3))",
    "Q(sqrt2)": "log(1+sqrt(2))/sqrt(2)",
}


@dataclass(frozen=True)
class ConstantBreakdown:
    label: str
    alpha: Fraction
    rho: float
    arch_product: float
    finite_product: float
    c: float
    log_exponent: int
    b_exponent: int
    rel_error: float
    symbolic: dict

    def to_json_dict(self):
        return {**asdict(self), "alpha": str(self.alpha)}

    def predicted_count(self, bound):
        """c * B * (log B)^(2+2q); the main term of the counting asymptotic."""
        b = float(bound)
        if b <= 1.0:
            raise OutOfRange("predicted_count needs B > 1")
        return self.c * b * math.log(b) ** self.log_exponent


def leading_constant(inv):
    """Assemble c = alpha * rho / |Delta| * omega_arch * (1/zeta_K(2))."""
    q = inv.q
    alpha = alpha_closed_form(q)
    rho = rho_K(inv)
    arch = omega_arch(inv)
    zeta2, zeta2_err = dedekind_zeta2(inv)
    finite = 1.0 / zeta2
    c = float(alpha) * rho / inv.abs_disc * arch * finite
    rel = FLOAT_ASSEMBLY_RELERR + (zeta2_err / zeta2 if zeta2 else 0.0)
    symbolic = {
        "alpha": str(alpha),
        "rho": _SYMBOLIC_RHO.get(inv.label, "2^r1 (2 pi)^r2 R h / (|mu| sqrt|Delta|)"),
        "arch_product": f"4^{inv.r1} * (4 pi^2)^{inv.r2}",
        "finite_product": "6/pi^2" if inv.degree == 1 else "1/zeta_K(2)",
        "c": _SYMBOLIC_C.get(inv.label,
                             "alpha * rho / |Delta| * 4^r1 (4 pi^2)^r2 / zeta_K(2)"),
    }
    return ConstantBreakdown(
        label=inv.label, alpha=alpha, rho=rho, arch_product=arch,
        finite_product=finite, c=c, log_exponent=2 + 2 * q,
        b_exponent=2 * q + 3, rel_error=rel, symbolic=symbolic,
    )
