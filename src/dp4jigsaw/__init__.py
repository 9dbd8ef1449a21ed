"""Exact verification of the Clemens-complex jigsaw identities and
integral-point counts on a singular quartic del Pezzo surface.

Subpackages and modules:

* ``geometry`` - exact rational polytopes: vertex enumeration, volumes,
  slices, cone pointedness.
* ``picard`` - degrees of the nine Cox generators in two bases.
* ``jigsaw`` - face polytopes of the Clemens complex, the partition
  identities, cross-section censuses.
* ``surface`` - points on the surface over Z, Z[i] and prime fields,
  heights, direct counts, mod-p counts.
* ``torsor`` - the torsor parameterization over Q and the fast counter.
* ``constants`` - number-field invariants and the predicted constant.
* ``reporting`` / ``cli`` - artifacts and the ``dp4`` command.
"""

from .constants import (ConstantBreakdown, FieldInvariants, finite_density_product,
                        leading_constant, omega_arch, predicted_count, rho_K)
from .jigsaw import (JigsawReport, alpha_closed_form, face_polytope, jigsaw_check,
                     slice_census, union_polytope)
from .surface import (CountResult, GroundRing, ProjectivePoint, count_mod_p,
                      direct_count, height, is_integral, on_lines, on_surface)
from .torsor import (TorsorPoint, lifted_height, map_to_surface, torsor_count,
                     torsor_counts, validate)

__version__ = "0.1.0"
