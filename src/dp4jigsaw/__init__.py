"""Exact verification of the Clemens-complex jigsaw identities and
integral-point counts on a singular quartic del Pezzo surface.

Subpackages and modules:

* ``geometry`` - exact rational polytopes: vertex enumeration, volumes,
  slices, cone pointedness.
* ``picard`` - degrees of the nine Cox generators in two bases.
* ``jigsaw`` - face polytopes of the Clemens complex, the partition
  identities, cross-section censuses.
* ``surface`` - points on the surface over Z and Z[i], heights, direct
  counts, mod-p counts from one census of residue tuples.
* ``torsor`` - the torsor parameterization over Q and the fast counter.
* ``constants`` - number-field invariants and the predicted constant.
* ``reporting`` / ``cli`` - artifacts and the ``dp4`` command.

Import the submodules themselves: the package re-exports nothing, so that
``dp4 jigsaw``, ``alpha`` and ``slices`` start without numpy and the
numpy-backed ``constants``, ``surface`` and ``torsor``.
"""

__version__ = "0.1.0"
