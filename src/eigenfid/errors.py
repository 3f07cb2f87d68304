"""Exception types shared across the package.

Every validation failure raises one of these rather than a bare ValueError,
so callers (and the CLI) can map numerical problems to exit codes without
string matching.
"""


class EigenfidError(Exception):
    """Base class for all package errors."""


class NonHermitianInput(EigenfidError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class DimensionMismatch(EigenfidError):
    """Operands have incompatible dimensions."""


class InvalidDimension(EigenfidError):
    """Operation defined only for a specific dimension (usually d=2)."""


class InvalidOrder(EigenfidError):
    """Schatten order p must be positive."""


class CPViolation(EigenfidError):
    """Complete-positivity check failed beyond tolerance."""


class TruncationError(EigenfidError):
    """Truncated sum lost too much weight; widen the support window."""


class InvalidMean(EigenfidError):
    """Drive mean photon number outside the operation's domain."""


class UnsupportedParameters(EigenfidError):
    """Requested distribution parameters cannot be realized exactly."""


class ApproximationDomain(EigenfidError):
    """Parameters outside the validity domain of the series approximation."""


class NonpositiveMeanEnergy(EigenfidError):
    """Mean energy above ground must be positive for this bound."""


class SchemaError(UnsupportedParameters):
    """A document or sweep-config field is outside its schema or domain.

    Raised by the JSON loaders and by SweepConfig alike, with a
    JSON-pointer-style path to the offending field (for example
    /nbar_grid/1), so an error reads the same whichever way the config came in.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class BudgetTooSmall(SchemaError):
    """A split config's budget leaves a gate less than one photon (at /concat_grid/j)."""
