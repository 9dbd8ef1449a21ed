"""Exact linear algebra over the integers and rationals.

Everything in the geometry layer funnels through these helpers: content
normalization of integer vectors, fraction-free (Bareiss) determinants and
ranks, and small dense solves over Fraction.  Integer input stays in int:
scaling builds no Fraction for an int entry.  No floating point anywhere.
"""

from fractions import Fraction
from math import gcd, lcm


def content(vec):
    """gcd of all entries (0 for the zero vector)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def primitive(vec):
    """Divide an integer vector by its content, keeping orientation."""
    g = content(vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _scale_to_int(vec):
    """(integer vector, m): a rational vector times m, the lcm of its denominators."""
    if all(type(x) is int for x in vec):
        return list(vec), 1
    fracs = [x if type(x) in (int, Fraction) else Fraction(x) for x in vec]
    mult = lcm(*[f.denominator for f in fracs])
    return [f.numerator * (mult // f.denominator) for f in fracs], mult


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    return primitive(_scale_to_int(vec)[0])


def bareiss_det(matrix):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def int_rank(matrix):
    """Rank of an integer matrix, by fraction-free elimination."""
    m = [list(row) for row in matrix if any(row)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(cols):
        pivot_row = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, len(m)):
            f = m[i][col]
            for j in range(col, cols):
                m[i][j] = (pivot * m[i][j] - f * m[row][j]) // prev
        prev = pivot
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def affine_rank(points):
    """Dimension of the affine hull of a list of rational points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return int_rank([_scale_to_int(row)[0] for row in diffs])  # row scaling keeps rank


def frac_det(matrix):
    """Exact determinant of a square matrix with rational entries."""
    scaled = []
    denom = 1
    for row in matrix:
        ints, mult = _scale_to_int(row)
        scaled.append(ints)
        denom *= mult
    return Fraction(bareiss_det(scaled), denom)


def solve_square(matrix, rhs):
    """Solve a square rational system exactly; None if singular.

    Gaussian elimination over Fraction; fine at the sizes used here (n <= 10).
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col] / pivot
                for j in range(col, n + 1):
                    a[i][j] -= f * a[col][j]
    return tuple(a[i][n] / a[i][i] for i in range(n))
