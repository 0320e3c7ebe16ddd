"""Exception types raised by the toolkit.

Every validation error carries the violated bound and the offending
magnitude in its message so failures are diagnosable from logs alone.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(ToolkitError):
    """Matrix is not Hermitian within tolerance."""


class NotPositive(ToolkitError):
    """Matrix has an eigenvalue below the allowed floor."""


class TraceNotOne(ToolkitError):
    """Matrix trace deviates from 1 beyond tolerance."""


class DimensionMismatch(ToolkitError):
    """Operands live on spaces of different dimension."""


class InvalidJoint(ToolkitError):
    """Joint distribution entries are negative or do not sum to 1."""


class BadSubsystemIndex(ToolkitError):
    """Partial trace requested over a nonexistent subsystem."""


class AlphabetMismatch(ToolkitError):
    """Channel/source/distribution alphabets are incompatible."""


class LengthMismatch(ToolkitError):
    """Sequences that must share a length do not."""


class DimOverflow(ToolkitError):
    """A tensor-product dimension exceeds the configured cap."""


class EnumerationOverflow(ToolkitError):
    """An exhaustive enumeration exceeds the configured cap."""


class SolverDiverged(ToolkitError):
    """Iterative solver failed to make progress."""


class ProfileOutOfRange(ToolkitError):
    """Correlation-length profile violates its admissibility window."""


class NonBinarySource(ToolkitError):
    """Operation requires a binary sender alphabet."""


class ZeroMutualInformation(ToolkitError):
    """Correlated source carries no mutual information."""


class Indeterminate(ToolkitError):
    """Separation distance fell in the dead band between the thresholds."""


class NoSeparatingPrecode(ToolkitError):
    """The separation test found the encoder pair not separable: no pre-code exists."""


class KeySetMismatch(ToolkitError):
    """Pre-code message set does not match the inner code key set."""


class InvalidArgument(ToolkitError):
    """A library call's argument lies outside its allowed range."""


class SpecParseError(ToolkitError):
    """Input spec file is malformed."""
