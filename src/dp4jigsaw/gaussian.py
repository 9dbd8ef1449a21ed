"""Gaussian integer arithmetic: exact, Euclidean, unit-aware.

Just enough ring theory for point counting over Z[i]: norms, nearest
division, gcd, and canonical associates (the unique associate with
re > 0, im >= 0, so projective representatives are well defined).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class GaussInt:
    re: int
    im: int

    def __add__(self, other):
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussInt(self.re * other, self.im * other)
        return GaussInt(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return GaussInt(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def is_unit(self):
        return self.norm() == 1

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
UNITS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))


def _round_quotient(num, den):
    # nearest integer to num/den, den > 0
    return (2 * num + den) // (2 * den)


def divmod_nearest(z, w):
    """Euclidean division: z = q*w + r with N(r) <= N(w)/2."""
    if not w:
        raise ZeroDivisionError("division by zero Gaussian integer")
    num = z * w.conj()
    n = w.norm()
    q = GaussInt(_round_quotient(num.re, n), _round_quotient(num.im, n))
    return q, z - q * w


def divides(w, z):
    """Does w divide z in Z[i]?"""
    if not w:
        return not z
    num = z * w.conj()
    n = w.norm()
    return num.re % n == 0 and num.im % n == 0


def exact_div(z, w):
    num = z * w.conj()
    n = w.norm()
    assert num.re % n == 0 and num.im % n == 0
    return GaussInt(num.re // n, num.im // n)


def gcd(z, w):
    """A Gaussian gcd (unique up to units)."""
    while w:
        _, r = divmod_nearest(z, w)
        z, w = w, r
    return z


def gcd_many(values):
    g = ZERO
    for v in values:
        g = gcd(g, v)
        if g.norm() == 1:
            return g
    return g


def canonical_associate(z):
    """The unique associate with re > 0, im >= 0 (z must be nonzero)."""
    assert z
    for u in UNITS:
        c = z * u
        if c.re > 0 and c.im >= 0:
            return c, u
    raise AssertionError("unreachable")


def elements_of_norm_up_to(bound):
    """All nonzero Gaussian integers of norm <= bound."""
    out = []
    r = int(bound ** 0.5) + 1
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            if (a or b) and a * a + b * b <= bound:
                out.append(GaussInt(a, b))
    return out
