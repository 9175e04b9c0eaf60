"""Exception types shared across the package."""


class OmegaContError(Exception):
    """Base class for all library failures."""


class SchemaError(OmegaContError, ValueError):
    """JSON input does not match its schema."""


class MalformedGeneratorError(OmegaContError, ValueError):
    """Generator rule would produce a degenerate or non-discrete point set."""


class PathDomainError(OmegaContError, ValueError):
    """Parameter value outside the domain of a path."""


class PathGeometryError(OmegaContError, ValueError):
    """Path fails a geometric precondition (open loop, point on curve, ...)."""


class GermDomainError(OmegaContError, ValueError):
    """Evaluation point outside the safe disk of a germ."""


class TailAccuracyError(OmegaContError):
    """Truncated tail estimate exceeds tolerance at the requested radius."""


class ShiftTooLargeError(OmegaContError, ValueError):
    """Recentering shift exceeds half the certified radius."""


class CenterMismatchError(OmegaContError, ValueError):
    """Binary germ operation on germs with incompatible centers."""


class PathTouchesOmegaError(OmegaContError):
    """Continuation path meets the singular set."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class RadiusCollapseError(OmegaContError):
    """Certified radius fell below the hard floor during continuation."""

    def __init__(self, message, t=None, trace=None):
        super().__init__(message)
        self.t = t
        self.trace = trace or []


class StepFailureError(OmegaContError):
    """Adaptive stepping could not make progress."""


class DenominatorVanishedError(OmegaContError):
    """Vector-field denominator hit zero: both points lie in the zero set.

    Witnesses failure of addition stability (or an illegal path).
    """

    def __init__(self, message, zeta=None, t=None):
        super().__init__(message)
        self.zeta = zeta
        self.t = t


class HomotopyBuildError(OmegaContError):
    """Precondition violation while assembling a symmetric homotopy."""


class HomotopyInvariantError(OmegaContError):
    """Constructed grid fails a defining invariant beyond tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
