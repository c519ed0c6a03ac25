"""
The exception hierarchy of srt. Every error the package raises on purpose is
an ``SrtError``; the CLI reports it as one line with exit code 1 and lets any
other exception propagate as a bug. Each class also keeps a builtin base:
``ValueError`` for bad or unsupported input, ``ArithmeticError`` for questions
the arithmetic cannot answer, ``RuntimeError`` for runs that cannot finish.

The domains of the paper's parameters are decided once, by the rules in
``srt.valuation`` that every library entry and the CLI call: ``check_p``
(an odd prime int) and ``check_q`` (a prime int) raise ``Unsupported``, and
``check_nu`` (an int >= 1) raises ``PreconditionViolated``. ``vp`` raises
``PreconditionViolated`` for a p that is no prime int.
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
    """No n-th root exists in the field. The filtration peel of the root
    engine raises it with no message and the unit part it peeled as `unit`;
    the message, which prints that unit, is built only when it is shown.
    Any other refusal has a message and no unit."""

    def __init__(self, *args, unit=None):
        super().__init__(*args)
        self.unit = unit

    def __str__(self):
        w = self.unit
        if w is None:
            return super().__str__()
        p = w.ctx.p
        # p/(p-1) is in lowest terms, as str(Fraction(p, p - 1)) prints it
        return (
            f"{w!r} is not a {p}-th power: y^{p} misses it at a level prime "
            f"to {p} below {p}/{p - 1}"
        )


class ResourceLimit(SrtError, RuntimeError):
    pass
