"""Shared helpers for the test suite, including the oracles that only tests use."""

from fractions import Fraction
from math import comb, factorial

import numpy as np

from dp4jigsaw import jigsaw
from dp4jigsaw.jigsaw import _FaceCache, all_faces
from dp4jigsaw.torsor import validate


def random_unimodular(rng, dim, max_entry=3):
    """Random integer unimodular matrix with small entries (shear products)."""
    while True:
        m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(dim), 2)
            s = rng.choice([-1, 1])
            for k in range(dim):
                m[i][k] += s * m[j][k]
        if max(abs(x) for row in m for x in row) <= max_entry:
            return m


def monte_carlo_volume(p, samples=1_000_000, seed=0):
    """Float hit-rate estimate of the volume; a sanity oracle, not a proof."""
    if p.is_empty():
        return 0.0
    verts = np.array([[float(x) for x in v] for v in p.vertices])
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    widths = hi - lo
    if np.any(widths == 0):
        return 0.0
    rng = np.random.RandomState(seed)
    pts = rng.uniform(lo, hi, size=(samples, p.dimension))
    ok = np.ones(samples, dtype=bool)
    for form in p.inequalities:
        vals = pts @ np.array([float(c) for c in form.coeffs]) + float(form.const)
        ok &= vals >= 0
    return float(ok.mean() * np.prod(widths))


def naive_torsor_count(b):
    """Oracle for torsor_count: scan a8 over its whole interval per pair (a1, a2)."""
    total = 0
    for a1 in range(1, b + 1):
        for a2 in range(1, b // a1 + 1):
            lo = -(b // a2)
            hi = (b - 1) // a2
            a8 = np.arange(lo, hi + 1, dtype=np.int64)
            total += 2 * int(((a8 * a2 + 1) % a1 == 0).sum())
    return total


def enumerate_valid(coord_bound):
    """All valid torsor points with every |a_i| <= coord_bound (exhaustive)."""
    m = coord_bound
    points = []
    units = (1, -1)
    sign_combos = [(a3, a4, a5, a6, a7)
                   for a3 in units for a4 in units for a5 in units
                   for a6 in units for a7 in units]
    for a3, a4, a5, a6, a7 in sign_combos:
        c = a3 * a4 * a4 * a5 ** 3 * a7
        for a2 in range(-m, m + 1):
            for a8 in range(-m, m + 1):
                rest = -(a2 * a8 + c)
                # a1 * a9 = rest with both factors bounded
                for a1 in range(-m, m + 1):
                    if a1 == 0:
                        if rest == 0:
                            for a9 in range(-m, m + 1):
                                points.append(validate(
                                    (0, a2, a3, a4, a5, a6, a7, a8, a9)))
                        continue
                    if rest % a1 != 0:
                        continue
                    a9 = rest // a1
                    if abs(a9) <= m:
                        points.append(validate(
                            (a1, a2, a3, a4, a5, a6, a7, a8, a9)))
    return points


def overlapping_faces(q):
    """Every pair of distinct faces whose interiors meet, by exact pairwise checks."""
    cache = _FaceCache()
    faces = all_faces(q)
    return [(f, g) for i, f in enumerate(faces) for g in faces[i + 1:]
            if not cache.pair_disjoint(f, g)]


def face_volume_fractions(m57, m45, m34, m36):
    """Oracle for jigsaw.face_volume: the Laplace formula summed in Fractions."""
    q = m57 + m45 + m34 + m36 - 1
    k = m36 + 1
    factors = []
    for e, pole in zip((m57, m57 + m45, m45 + m34), jigsaw.LAPLACE_POLES):
        if e == 0:
            factors.append([1] + [0] * k)
        else:
            inv = 1 / pole
            factors.append([comb(e + j - 1, j) * inv ** (e + j) for j in range(k + 1)])
    f1, f2, f3 = factors
    total = sum((f1[j1] * f2[j2] * f3[k - j1 - j2]
                 for j1 in range(k + 1) for j2 in range(k + 1 - j1)), Fraction(0))
    return total / (2 ** (m57 + m45) * factorial(2 * q + 3))
