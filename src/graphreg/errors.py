"""Exception hierarchy shared across the package."""


class GraphregError(Exception):
    """Base class for all library errors.  Every concrete error derives
    from exactly one of the two bases below, which fix its CLI exit
    code."""


class InputError(GraphregError):
    """The input cannot be used: bad text, parameters or a precondition
    the caller must meet.  The CLI exits 1."""


class CheckFailed(GraphregError):
    """A check ran on usable input and failed.  The CLI exits 2."""


class DescriptorMismatch(CheckFailed):
    """Operands live over different algebras."""


class NotEssentialDomain(CheckFailed):
    """Domain has a nontrivial orthogonal complement."""


class NotGraphRegular(CheckFailed):
    """Operator failed the graph-regularity test."""


class NotNormal(CheckFailed):
    """Functional calculus requires a normal triple (a == a_*)."""


class NonCommutingPair(CheckFailed):
    """Joint diagonalization residual too large."""


class AxiomsFailed(CheckFailed):
    """Triple violates the defining operator identities."""


class KernelNotTrivial(CheckFailed):
    """1 - z*z has a nontrivial kernel."""


class NonFiniteValue(CheckFailed):
    """A computed value is NaN or infinite; the message names the stage."""


class ExprSyntaxError(InputError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DeclarationMismatch(CheckFailed):
    """Numerically detected class differs from the declared one."""


class InconclusiveClassification(CheckFailed):
    """None of the detector patterns fired for this point."""


class UnverifiedDeclaration(CheckFailed):
    """Symbol used before its declarations were verified."""


class ClassCheckFailed(CheckFailed):
    """A matrix entry failed its declared function-class check."""


class FactorizationFailed(CheckFailed):
    """Spectral factorization failed its residual checks; the message
    names each failing residual."""


class NotCoprime(CheckFailed):
    """Polynomial pair shares a nontrivial common factor."""


class InnerRoot(CheckFailed):
    """Denominator polynomial has a root inside the open unit disc."""


class LambdaInSpectrum(InputError):
    """Requested resolvent point is (numerically) in the spectrum."""


class EpsilonBelowGrid(CheckFailed):
    """Window width not resolvable on the current grid."""


class BadParameters(InputError):
    """Invalid command or experiment parameters: a size or value out of
    range, or not finite."""
