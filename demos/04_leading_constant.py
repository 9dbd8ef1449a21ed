#!/usr/bin/env python3
"""The predicted constant c and how the real counts approach it.

c = alpha * rho_K / |Delta_K| * prod_v omega_v, with alpha from the jigsaw,
rho_K the residue of zeta_K at 1, omega_v = 4 or 4*pi^2 at infinite places
and 1 - 1/Np^2 at finite ones (the finite product is 1/zeta_K(2)).  Over Q
this gives 12/pi^2 and N(B) ~ c B (log B)^2.
"""

import math

import numpy as np

from dp4jigsaw import constants as C
from dp4jigsaw import reporting
from dp4jigsaw import torsor as T

for label in ("Q", "Q(i)", "Q(sqrt-3)", "Q(sqrt2)"):
    inv = C.get_field(label)
    b = C.leading_constant(inv)
    print(f"{label:>10}:  c = {b.c:.6f}  ({b.symbolic['c']})"
          f"   N(B) ~ c B (log B)^{b.log_exponent}")

print("\nEuler product over Q, truncated:")
for bound in (10 ** 3, 10 ** 5, 10 ** 7):
    res = C.finite_density_product(C.get_field("Q"), bound)
    print(f"  primes <= {bound:>8}: {res.value:.9f}"
          f"   (limit 6/pi^2 = {6 / math.pi ** 2:.9f},"
          f" tail bound {res.tail_log_bound:.1e})")

print("\nfit of real torsor counts against c2 (log B)^2 + c1 log B + c0:")
bounds = [int(x) for x in np.round(np.logspace(4, 6.5, 12))]
samples = list(zip(bounds, T.torsor_counts(bounds)))
fit = reporting.fit_log_quadratic(samples)
c = C.leading_constant(C.get_field("Q")).c
print(f"  over B in [{bounds[0]}, {bounds[-1]}]:"
      f"  c2 = {fit.c2:.4f}  vs  c = {c:.4f}"
      f"  (relative deviation {abs(fit.c2 - c) / c:.1%})")

print("\nratio N(B) / (c B log^2 B) drifting toward 1:")
bounds = [10 ** 4, 10 ** 5, 10 ** 6]
for b, n in zip(bounds, T.torsor_counts(bounds)):
    print(f"  B = {b:>7}: {n / (c * b * math.log(b) ** 2):.4f}")
