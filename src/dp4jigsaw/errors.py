"""Exception types shared across the package."""


class Dp4Error(Exception):
    """Base class for all package-specific errors."""


# --- exact geometry ---

class UnboundedInput(Dp4Error):
    """An H-polytope has a recession direction; only bounded input is supported."""


class DimensionMismatch(Dp4Error):
    """Vector or inequality length does not match the ambient dimension."""


class EmptyGeneratorList(Dp4Error):
    """A cone operation received no generators."""


# --- Picard lattice / jigsaw ---

class IndexOutOfRange(Dp4Error):
    """Generator or place index outside its admissible range."""


class NegativeRank(Dp4Error):
    """Unit rank q must be a nonnegative integer."""


class OutOfRange(Dp4Error):
    """A numeric argument violates its stated range."""


# --- surface arithmetic ---

class NotPrime(Dp4Error):
    """A prime argument failed a primality check."""


class NonpositiveBound(Dp4Error):
    """Count bounds must be positive."""


# --- torsor ---

class EquationViolated(Dp4Error):
    """The 9-tuple does not satisfy a1*a9 + a2*a8 + a3*a4^2*a5^3*a7 = 0."""


class NonUnitMiddle(Dp4Error):
    """Coordinates a3..a7 must be units (+1 or -1) for integral torsor points."""


class CoprimalityBroken(Dp4Error):
    """gcd(a1*a9, a2*a8) != 1; impossible for a valid tuple, so an arithmetic bug."""


# --- constants ---

class InvalidInvariants(Dp4Error):
    """Number-field invariants are inconsistent."""


class UnsupportedField(Dp4Error):
    """zeta_K(2) is not available for this field and was not supplied."""


# --- CLI / reporting ---

class ConfigInvalid(Dp4Error):
    """A run configuration failed validation."""


class IdentityFailed(Dp4Error):
    """An identity checked by a subcommand does not hold."""


class PartitionFailure(IdentityFailed):
    """A jigsaw identity failed; this signals an implementation bug."""


class DegenerateDesignMatrix(Dp4Error):
    """Least-squares design matrix is rank deficient or has too few samples."""


class IoFailure(Dp4Error):
    """Report emission refused or failed."""
