"""Exception hierarchy shared across the package."""


class GraphregError(Exception):
    """Base class for all library errors."""


class DescriptorMismatch(GraphregError):
    """Operands live over different algebras."""


class NotEssentialDomain(GraphregError):
    """Domain has a nontrivial orthogonal complement."""


class NotOrthogonallyClosed(GraphregError):
    """Submodule differs from its double orthogonal complement."""


class NotGraphRegular(GraphregError):
    """Operator failed the graph-regularity test."""


class NotNormal(GraphregError):
    """Functional calculus requires a normal triple (a == a_*)."""


class NonCommutingPair(GraphregError):
    """Joint diagonalization residual too large."""


class AxiomsFailed(GraphregError):
    """Triple violates the defining operator identities."""


class KernelNotTrivial(GraphregError):
    """1 - z*z has a nontrivial kernel."""


class NonFiniteValue(GraphregError):
    """A computed value is NaN or infinite; the message names the stage."""


class ExprSyntaxError(GraphregError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DeclarationMismatch(GraphregError):
    """Numerically detected class differs from the declared one."""


class InconclusiveClassification(GraphregError):
    """None of the detector patterns fired for this point."""


class UnverifiedDeclaration(GraphregError):
    """Symbol used before its declarations were verified."""


class ClassCheckFailed(GraphregError):
    """A matrix entry failed its declared function-class check."""


class CircleRoot(GraphregError):
    """Spectral factorization hit a root too close to the unit circle."""


class NotCoprime(GraphregError):
    """Polynomial pair shares a nontrivial common factor."""


class NotRealFactor(GraphregError):
    """Spectral factor of a real symbol kept more than rounding in its
    imaginary part."""


class InnerRoot(GraphregError):
    """Denominator polynomial has a root inside the open unit disc."""


class LambdaInSpectrum(GraphregError):
    """Requested resolvent point is (numerically) in the spectrum."""


class EpsilonBelowGrid(GraphregError):
    """Window width not resolvable on the current grid."""


class BadParameters(GraphregError):
    """Invalid command or experiment parameters: a size or value out of
    range, or not finite."""
