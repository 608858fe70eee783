"""Exception taxonomy. Each class names the violated assumption or the
numerical failure mode; messages carry the offending values."""


class PeakcovError(Exception):
    """Base class for all library errors."""


class NoConvergence(PeakcovError):
    """An iterative numerical routine exhausted its budget."""


class NotSymmetric(PeakcovError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class Singular(PeakcovError):
    """A linear solve met a numerically singular matrix."""


class DimensionMismatch(PeakcovError):
    """Operands do not conform."""


class Unobservable(PeakcovError):
    """The (A, C) pair is not observable."""


class Uncontrollable(PeakcovError):
    """The (A, Q^{1/2}) pair is not controllable."""


class RNotPositiveDefinite(PeakcovError):
    """Measurement-noise covariance R must be symmetric positive definite."""


class QNotPSD(PeakcovError):
    """Process-noise covariance Q must be symmetric positive semidefinite."""


class CovarianceNotPSD(PeakcovError):
    """A covariance argument (e.g. the initial covariance) is not PSD."""


class NotErgodic(PeakcovError):
    """The loss transition matrix does not have a unique stationary law."""


class NotStable(PeakcovError):
    """A certificate was requested for a configuration with rho >= 1."""


class ProblemFormatError(PeakcovError):
    """A problem file failed to parse; message is field-addressed."""
