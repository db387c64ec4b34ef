"""Exception hierarchy and the CLI exit-code contract.

Exit codes: 0 success (computed FAIL verdicts are still success), 1 for
computation errors on valid input, 2 for theorem violations (these signal a
kernel bug and must never occur on correct code), 3 for input errors.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_THEOREM_VIOLATION = 2
EXIT_INPUT = 3


class FibrekitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = EXIT_COMPUTATION


class InputError(FibrekitError):
    """The caller handed us something invalid: bad generators, mismatched
    rings, a malformed input file, a command that needs data the file
    does not provide."""

    exit_code = EXIT_INPUT


class ParseError(InputError):
    """Input-file syntax or semantic error with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.bare_message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class RingMismatchError(InputError):
    """Operands live in different rings."""


class MissingReductionError(InputError):
    """The requested operation needs a candidate reduction J and none was given."""


class ComputationError(FibrekitError):
    """Valid input, but the requested value cannot be produced."""

    exit_code = EXIT_COMPUTATION


class NotYetPolynomialError(ComputationError):
    """The Hilbert function has not stabilized inside the computed window."""


class NotAReductionError(ComputationError):
    """J is certified not a reduction: no r has I_{n+1} = J * I_n from n = r on."""


class UndeterminedSumError(ComputationError):
    """An infinite length sum whose tail is not certified to vanish past
    the claimed reduction number; refusing to truncate silently."""


class InfiniteLengthError(ComputationError):
    """A length that must be finite is not (non-cofinite ideal where a
    Hilbert filtration requires colength to be finite)."""


class ContainmentError(ComputationError):
    """quotient_length(big, small) was called with small not inside big."""


class TheoremViolationError(FibrekitError):
    """A proved statement failed on computed data. This is a bug signal:
    either in the kernel or in the caller's preconditions, never a normal
    outcome."""

    exit_code = EXIT_THEOREM_VIOLATION


class InternalInconsistencyError(TheoremViolationError):
    """Two internal routes to the same quantity disagreed."""
