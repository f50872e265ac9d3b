"""Exception hierarchy shared across the package."""


class AffeqError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AffeqError, ValueError):
    """Malformed or out-of-contract arguments (bad indices, shapes, signs)."""


class PreconditionError(AffeqError):
    """A documented precondition of an operation does not hold.

    ``report`` is the condition checker's report when the precondition is
    that an assignment passes the checker, and None otherwise.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class EmbeddabilityError(AffeqError):
    """Distance data is not isometrically embeddable in the requested dimension.

    Carries the report naming the first violated embeddability condition.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"not embeddable: condition ({report.first_failed_condition}) fails, "
            f"witness={report.witness_subset}, residual={report.residual}"
        )


class NoBaseSimplexError(AffeqError):
    """No (d+1)-subset has a nonvanishing determinant (condition (9) fails)."""


class RatioSignError(AffeqError):
    """The determinant ratio is nonpositive, so no valid scale factor exists
    (condition (11) infeasibility signal)."""


class ReconstructionError(AffeqError):
    """Reconstruction residual exceeded tolerance; flags a checker/tolerance
    inconsistency rather than a user input problem."""


class InternalInconsistencyError(AffeqError):
    """Two independent decision procedures disagree; indicates a bug, not a
    property of the input."""


class InstanceFormatError(InputError):
    """Instance file cannot be parsed; carries a line-level diagnostic."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
