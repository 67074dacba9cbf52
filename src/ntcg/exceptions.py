"""Exception types shared across the package."""


class ContractViolation(RuntimeError):
    """A guarantee the algorithm relies on failed at runtime.

    Raised when an iterative kernel exceeds its proven iteration cap, a
    line search exhausts its trial budget, or a step-size discriminant that
    the accuracy conditions keep positive turns nonpositive.  Any of these
    indicates an inconsistent operator or broken inexactness assumptions
    rather than an ordinary numerical failure.
    """


class LibSVMFormatError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno
