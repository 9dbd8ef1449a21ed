#!/usr/bin/env python3
"""Cross sections of the q = 1 jigsaw: mosaics in a rectangle.

After a unimodular change of variables the sixteen face polytopes live
over a pyramid base with coordinates (a0, a1, u11, u12).  Fixing (a0, a1)
slices each face to a polygon in (u11, u12); the positive pieces tile the
rectangle [0, a1] x [0, 1].  The picture changes as a1 crosses 1/3 and
1/2: 7 pieces below 1/3, then 11.  a0 enters only the rows a1 <= a0 <= 1
that every face shares, so the census takes one a0 in [a1, 1].
"""

from fractions import Fraction as F

from dp4jigsaw import jigsaw

for a1 in (F(1, 5), F(2, 5), F(3, 5)):
    census = jigsaw.slice_census(a1)
    print(f"\na1 = {a1}: {census.positive_count} positive pieces, "
          f"total area {census.total_area} (rectangle is {a1} x 1)")
    for face, piece in sorted(census.pieces.items()):
        if piece.area > 0:
            shape = {3: "triangle", 4: "quadrilateral"}[piece.vertex_count]
            print(f"  ({face[0]}),({face[1]}): area {str(piece.area):>8}  {shape}")
    print(f"  union check (tiling, containment, disjointness): "
          f"{census.union_verified}")

print("\nThe census does not depend on where a0 sits inside [a1, 1]:")
rows = {(row.coeffs, row.const) for pulled in jigsaw.census_rows().values()
        for row in pulled if row.coeffs[0]}
print(f"  the rows that read a0 (a0, a1, a2, u11, u12; const): {sorted(rows)}")
print("  a0 - a1 >= 0 and a2 - a0 >= 0, common to all 16 faces")
