"""Incremental double description for rational polyhedral cones.

Computes a generating set (lineality basis + extreme rays) of
{z in R^n : <h, z> >= 0 for all rows h}, entirely over the integers:
rays are kept as primitive integer vectors, so no Fraction arithmetic
happens inside the hot loop.

Extreme-ray adjacency uses the combinatorial test on tight-row bitmasks.
Before that scan, a pair whose common tight-row mask has fewer than
dim - 2 - len(lineality) bits is skipped: two adjacent extreme rays of a
cone with that lineality share tight rows of rank dim - 2 - len(lineality),
so they share at least that many rows (Fukuda and Prodon, "Double
description method revisited", 1996).  The skip is only a necessary
condition, and drops no adjacent pair because every mask is exact.
Callers that need certified extremeness (vertex enumeration) re-verify
candidates with an active-set rank check afterwards.
"""

from operator import mul

from ._intlinalg import primitive


def _dot(h, v):
    return sum(map(mul, h, v))


def dd_cone(dim, rows):
    """Return (lineality, rays) for the cone {z : <h, z> >= 0 for h in rows}.

    Both lists hold primitive integer vectors.  The cone equals
    span(lineality) + cone(rays).
    """
    lineality = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays = []  # entries [vector, tight-row bitmask]
    for idx, h in enumerate(rows):
        bit = 1 << idx
        pivot = None
        for k, ell in enumerate(lineality):
            if _dot(h, ell) != 0:
                pivot = k
                break
        if pivot is not None:
            ell = lineality.pop(pivot)
            s = _dot(h, ell)
            if s < 0:
                ell = tuple(-x for x in ell)
                s = -s
            new_lineality = []
            for v in lineality:
                t = _dot(h, v)
                if t != 0:
                    v = primitive([a * s - b * t for a, b in zip(v, ell)])
                new_lineality.append(v)
            lineality = new_lineality
            new_rays = []
            for vec, mask in rays:
                t = _dot(h, vec)
                if t != 0:
                    vec = primitive([a * s - b * t for a, b in zip(vec, ell)])
                new_rays.append([vec, mask | bit])
            # The pivot survives as a ray: tight on every earlier row
            # (it came from the lineality space), strictly feasible for h.
            new_rays.append([ell, bit - 1])
            rays = new_rays
            continue

        plus, zero, minus = [], [], []
        for vec, mask in rays:
            t = _dot(h, vec)
            if t > 0:
                plus.append((vec, mask, t))
            elif t == 0:
                zero.append([vec, mask | bit])
            else:
                minus.append((vec, mask, t))
        if not minus:
            rays = [[vec, mask] for vec, mask, _ in plus] + zero
            continue

        all_masks = [m for _, m, _ in plus] + [m for _, m in zero] + [m for _, m, _ in minus]
        min_common = dim - 2 - len(lineality)
        new_rays = [[vec, mask] for vec, mask, _ in plus] + zero
        seen = {vec for vec, _ in new_rays}
        for vp, mp, tp in plus:
            for vm, mm, tm in minus:
                common = mp & mm
                if common.bit_count() < min_common:
                    continue
                # the pair's own masks contain common; a third one rules it out
                if len([mk for mk in all_masks if mk & common == common]) > 2:
                    continue
                combo = primitive([tp * a - tm * b for a, b in zip(vm, vp)])
                if not any(combo) or combo in seen:
                    continue
                seen.add(combo)
                # exact tight set: h and the rows of common are tight, and the
                # rest are tested, since an undershooting mask would poison
                # later adjacency tests
                mask = common | bit
                for k in range(idx):
                    if not common >> k & 1 and _dot(rows[k], combo) == 0:
                        mask |= 1 << k
                new_rays.append([combo, mask])
        rays = new_rays
    return lineality, [tuple(vec) for vec, _ in rays]
