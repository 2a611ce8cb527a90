"""Exception hierarchy shared by all breather modules."""


class BreatherError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BreatherError):
    """A transform was evaluated outside its domain of convergence.

    Raised when an untruncated susceptibility is evaluated at or below the
    imaginary-axis line where its Fourier-Laplace integral stops converging.
    Truncated (compact-memory) models are entire and never raise this.
    """


class ModelError(BreatherError):
    """The requested operation needs a different material model variant."""


class DegenerateError(BreatherError):
    """A leading coefficient or decay exponent degenerated to zero."""


class NoConvergence(BreatherError):
    """Iterative refinement failed to reach the requested tolerance."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class DerivativeSingular(BreatherError):
    """Newton derivative vanished (or nearly so) at the current iterate."""


class ZeroOnContour(BreatherError):
    """The dispersion function has a (near-)zero on a winding contour."""


class QuadratureNotConverged(BreatherError):
    """Adaptive contour quadrature did not settle near an integer."""


class SpectrumError(BreatherError):
    """The resolvent formulas degenerate: the frequency sits on spectrum."""


class SingularSystem(BreatherError):
    """The assembled finite-difference system is numerically singular."""


class OverflowGuard(BreatherError):
    """Scaled arithmetic was exhausted (magnitude beyond representable)."""


class ZeroFrequency(BreatherError):
    """An operation divided by a vanishing mixed-multiple frequency."""


class ResolventViolation(BreatherError):
    """A cone point failed the resolvent-set membership test."""

    def __init__(self, n, nu, classification):
        super().__init__(
            f"frequency at (n, nu) = ({n}, {nu}) is not in the resolvent set "
            f"(classified as {classification})"
        )
        self.n = n
        self.nu = nu
        self.classification = classification


class SolverError(BreatherError):
    """A linear solve inside the recursion failed."""


class ConfigError(BreatherError):
    """A JSON configuration file is malformed or inconsistent."""


class DivergenceWarning(UserWarning):
    """Per-level norms of the recursion grew for several consecutive levels."""
