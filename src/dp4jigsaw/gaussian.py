"""Gaussian integer arithmetic: exact and unit-aware.

Just enough ring theory for point counting over Z[i]: norms, exact
division, and canonical associates (the unique associate with re > 0,
im >= 0, so projective representatives are well defined).  The normal
form needs no gcd; the Euclidean gcd lives beside the tests' oracles.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class GaussInt:
    re: int
    im: int

    def __sub__(self, other):
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussInt(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return GaussInt(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ONE = GaussInt(1, 0)
UNITS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))


def exact_div(z, w):
    num = z * w.conj()
    n = w.norm()
    assert num.re % n == 0 and num.im % n == 0
    return GaussInt(num.re // n, num.im // n)


def canonical_associate(z):
    """The unique associate with re > 0, im >= 0 (z must be nonzero)."""
    assert z
    for u in UNITS:
        c = z * u
        if c.re > 0 and c.im >= 0:
            return c, u
    raise AssertionError("unreachable")
