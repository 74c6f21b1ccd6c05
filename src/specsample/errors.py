# Exception hierarchy shared by all modules.


class SpectralError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SpectralError):
    """Invalid input data (bad model, state, or file contents)."""


class UnsortedEigenvalues(ValidationError):
    pass


class NonPositiveWeight(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NumericalError(SpectralError):
    """Evaluation failed for numerical reasons (pole hits, infinite roots)."""


class PoleProximity(NumericalError):
    """Evaluation point too close to a pole of the function."""


class ZeroOfF(NumericalError):
    """Evaluation point too close to a zero of the Borel transform."""


class InconsistentNodes(NumericalError):
    """Supplied nodes do not solve the secular equation for the coupling."""


class NormalizationRequired(ValidationError):
    """Operation needs a model with unit total weight."""


class PoleMismatch(ValidationError):
    """Partial-fraction poles disagree with the model's pole set."""


class NotAZero(ValidationError):
    """Blaschke factor swap requires a genuine zero of the function."""


class RealPoint(ValidationError):
    """Blaschke factor swap requires a non-real point."""


class InsufficientCoefficients(ValidationError):
    """Jacobi parameter sequences too short for the requested degree."""


class QZero(NumericalError):
    """Second-kind polynomial vanishes at an evaluation point."""


class QuadratureNonConvergence(NumericalError):
    """Successive quadrature refinements disagree beyond tolerance."""
