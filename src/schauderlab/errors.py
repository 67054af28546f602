"""Exception hierarchy for the laboratory.

Plain ``ValueError`` is used for malformed arguments (wrong parity, negative
lengths, out-of-range exponents); the classes below mark failures that carry
domain meaning and that callers may want to catch individually.
"""


class SchauderLabError(Exception):
    """Base class for all laboratory-specific failures."""


class RegionEscapesDomainError(SchauderLabError):
    """A requested ball is not contained in the open box."""


class UnresolvableCutoffError(SchauderLabError):
    """Cutoff transition band thinner than the resolvable minimum (4h)."""


class MisalignedStepError(SchauderLabError):
    """Difference-quotient step is not an integer multiple of the grid spacing."""


class SupportViolationError(SchauderLabError):
    """A test function's support reaches too close to the box boundary."""


class KernelUnderResolvedError(SchauderLabError):
    """Mollifier radius below 2h; the kernel cannot be sampled faithfully."""


class EmptyRegionError(SchauderLabError):
    """Norm requested over a region with no (or too few) valid nodes."""


class StencilOverflowError(SchauderLabError):
    """A derivative stencil does not fit between the region and the boundary."""


class NotEllipticError(SchauderLabError):
    """Symmetric part of the coefficient matrix fails positivity at some node."""

    def __init__(self, message, node=None, eigenvalue=None):
        super().__init__(message)
        self.node = node
        self.eigenvalue = eigenvalue


class SolverStagnationError(SchauderLabError):
    """Linear solver failed to reach the required residual."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IncompatibleEnsembleError(SchauderLabError):
    """Ensemble members disagree on grid or ellipticity certification."""


class InadmissibleExponentsError(SchauderLabError, ValueError):
    """Integrability exponents outside the admissible range; also a
    ValueError, as for any malformed argument."""

    def __init__(self, message, failing_term=None):
        super().__init__(message)
        self.failing_term = failing_term


class GridTooCoarseError(SchauderLabError):
    """Nested regions or radius chains cannot be resolved at this spacing."""


class PreconditionFailureError(SchauderLabError):
    """An implication's hypothesis is unverified; distinct from a falsified
    conclusion, which is reported as a finding rather than raised."""


class DataRegularityMissingError(SchauderLabError):
    """An operation needs a regularity certificate the data does not carry."""


class NoBlowupPairError(SchauderLabError):
    """Constant field: no seminorm-maximizing pair exists."""


class InsufficientShellsError(SchauderLabError):
    """Growth fit needs at least three populated shells."""


class InsufficientScalesError(SchauderLabError):
    """Scale scan needs at least four scales."""


class DegreeUndetectedError(SchauderLabError):
    """No derivative order up to the cap annihilates the field (expected for
    superpolynomial fields)."""


class NotHarmonicParametersError(SchauderLabError):
    """Exponential-times-sine parameters violate |a| = |b| or a.b = 0."""


class CalibrationRequiredError(SchauderLabError):
    """Smallness threshold not calibrated for this configuration."""
