#!/usr/bin/env python3
"""Counting integral points two ways, plus the mod-p densities.

Solving the surface equations for x1 and x4,

    x1 = -x2^2/(x0 + x3),   x4 = x0*x3/x2,

turns points into triples (x0, x2, x3) with unit gcd, x2 | x0*x3 and
(x0 + x3) | x2^2.  At an integral point x0 + x3 is even a unit, so every
point has one representative in the normal form x3 = 1 - x0, and the
direct counter only runs over pairs (x0, x2) with x2 | x0*(1 - x0).  The
torsor route instead counts integer solutions of a1*a9 + a2*a8 + a7 = 0
below the lifted height; both must agree bound by bound, and they do.
(The test suite also checks both against a triple loop over (x0, x2, x3)
that assumes no normal form.)
"""

import time

from dp4jigsaw import surface as S
from dp4jigsaw import torsor as T

print("the four integral points of height 1 (stream format):")
for h, pt in S.direct_points_with_heights(1):
    print(f"  {pt},{h}")

print("\npoint counts over Z, two routes:")
print("  B     normal  torsor")
bounds = (1, 10, 100)
for d, f in zip(S.direct_counts(bounds), T.torsor_counts(bounds)):
    print(f"  {d.bound!s:<5} {d.count:<7} {f.count}")

print("\npoint counts over Z[i] in the normal form:")
for d in S.direct_counts((1, 5, 20), ring=S.GAUSSIAN):
    print(f"  N({d.bound}) = {d.count}")

print("\nper-B agreement of normal-form and torsor counts up to 2000:", end=" ")
agree = (S.direct_height_counts(2000) == T.torsor_height_counts(2000)).all()
print("exact" if agree else "BROKEN")

print("\nthe fast path scales; N(B) for large B:")
for b in (10 ** 5, 10 ** 6, 10 ** 7):
    t0 = time.perf_counter()
    n = T.torsor_count(b).count
    print(f"  N({b:>8}) = {n:>12}   ({time.perf_counter() - t0:.1f}s)")

print("\npoints modulo p (always p^2 + p off the boundary line L):")
for p in (2, 3, 5, 7, 11, 13):
    print(f"  p = {p:>2}: {S.count_mod_p(p):>4} = {p}^2 + {p}")
