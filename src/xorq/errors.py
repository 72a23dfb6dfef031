"""Exception types shared across the package."""


class XorqError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(XorqError):
    pass


class NotHermitianError(XorqError):
    pass


class DimensionMismatchError(XorqError):
    pass


class BadPermutationError(XorqError):
    pass


class NotAPermutationError(XorqError):
    pass


class TraceNormExceededError(XorqError):
    """Raised when a candidate game matrix has trace norm above 1."""

    def __init__(self, norm: float):
        super().__init__(f"trace norm {norm:.12g} exceeds 1")
        self.norm = norm


class ZeroGameError(XorqError):
    pass


class TooLargeError(XorqError):
    pass


class BadArgsError(XorqError):
    pass


class PreconditionViolatedError(XorqError):
    pass


class FormatError(XorqError):
    """Raised on malformed serialized files."""


class SeesawError(XorqError):
    """A see-saw invariant failed: a half-step or state step lowered the
    value, or an effective operator lost Hermiticity."""


class SdpError(XorqError):
    pass


class InfeasibleError(SdpError):
    """Primal infeasibility, with a Farkas-style dual ray as certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class UnboundedError(SdpError):
    pass


class MaxIterationsError(SdpError):
    """Iteration cap hit with no usable iterate at all."""
