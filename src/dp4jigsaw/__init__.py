"""Exact verification of the Clemens-complex jigsaw identities and
integral-point counts on a singular quartic del Pezzo surface.

Subpackages and modules:

* ``geometry`` - exact rational polytopes: vertex enumeration, volumes,
  slices, cone pointedness.
* ``jigsaw`` - face polytopes of the Clemens complex, the partition
  identities, cross-section censuses.
* ``gaussian`` - Gaussian integers: exact division, canonical associates.
* ``surface`` - points on the surface over Z and Z[i], direct counts and
  listings, mod-p counts from one census of residue tuples.
* ``torsor`` - the torsor parameterization over Q and the fast counter.
* ``constants`` - number-field invariants and the predicted constant.
* ``reporting`` / ``cli`` - artifacts and the ``dp4`` command.

Every top-level function and class here is reachable from ``dp4``, but
for the few that the benchmark pins; the second routes that the tests
compare against live in tests/tests_support.py.

Import the submodules themselves: the package re-exports nothing, so that
``dp4 jigsaw``, ``alpha`` and ``slices`` start without numpy and the
numpy-backed ``constants``, ``surface`` and ``torsor``.
"""

__version__ = "0.1.0"
