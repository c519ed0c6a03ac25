"""
The exception hierarchy of srt. Every error the package raises on purpose is
an ``SrtError``; the CLI reports it as one line with exit code 1 and lets any
other exception propagate as a bug. Each class also keeps a builtin base:
``ValueError`` for bad or unsupported input, ``ArithmeticError`` for questions
the arithmetic cannot answer, ``RuntimeError`` for runs that cannot finish.
"""


class SrtError(Exception):
    """Base class of every error srt raises on purpose."""


class UsageError(SrtError):
    """Carries a one-line remedy for the user."""


class PreconditionViolated(SrtError, ValueError):
    """An argument violates a documented precondition."""


class Unsupported(SrtError, ValueError):
    """The input lies outside the domain the mathematics covers."""


class ContextError(SrtError, ValueError):
    """Local field contexts that are invalid or do not match."""


class DegenerateCover(SrtError, ValueError):
    pass


class TruncationUnderflow(SrtError, ValueError):
    pass


class InsufficientData(SrtError, ValueError):
    pass


class CaseMismatch(SrtError, ValueError):
    pass


class InadmissibleValuation(SrtError, ValueError):
    pass


class InvalidProfile(SrtError, ValueError):
    pass


class MissingLabel(SrtError, ValueError):
    pass


class InvalidTree(SrtError, ValueError):
    pass


class NoSolution(SrtError, ValueError):
    pass


class PrecisionError(SrtError, ArithmeticError):
    """Raised when a question cannot be answered at the tracked precision."""


class NoNthRoot(SrtError, ArithmeticError):
    pass


class ResourceLimit(SrtError, RuntimeError):
    pass
