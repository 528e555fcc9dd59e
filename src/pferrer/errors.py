"""Exception hierarchy shared by all modules."""


class FerrerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FerrerError):
    """A raw diagram tree failed validation; ``path`` is a JSON-path string."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{message} at {path}")
        self.path = path


class NonUniformDepth(ValidationError):
    pass


class NotDecreasing(ValidationError):
    pass


class NonPositiveLeaf(ValidationError):
    pass


class BadJSON(FerrerError):
    """The diagram input is not UTF-8 JSON, is nested too deeply to parse, or
    holds a numeral past the interpreter's limit on int conversion."""


class UnreadableFile(FerrerError):
    """The diagram file cannot be opened or read; the message names the path."""


class DepthMismatch(FerrerError):
    pass


class SingletonDiagram(FerrerError):
    pass


class DepthOne(FerrerError):
    pass


class NotSquarefree(FerrerError):
    pass


class CertificateFailure(FerrerError):
    """A constructed divisor witness failed to divide; signals an internal bug."""


class TooManyGenerators(FerrerError):
    pass


class NotPLinearShape(FerrerError):
    """A Hilbert series does not have the shape of a quotient by an ideal
    generated in one degree with the claimed height."""


class CountOutOfRange(FerrerError):
    pass


class NotClosedUnderDivision(FerrerError):
    pass


class NotMVector(FerrerError):
    """Input sequence starts with h_0 != 1 or violates the Macaulay growth bound."""

    def __init__(self, index: int, bound: int):
        super().__init__("h_0 must be 1" if index == 0 else f"h_{index} <= {bound} is violated")
        self.index = index
        self.bound = bound


class BadHVector(FerrerError):
    """An h-vector entry is negative or cannot be parsed as an integer."""


class BadFlags(FerrerError):
    """Command-line arguments are missing, unknown, malformed or out of range."""


class BadLimits(FerrerError, ValueError):
    """$FERRER_LIMITS is not a JSON object of known non-negative integer limits."""


class Infeasible(FerrerError):
    """A requested pure resolution type has no integral Betti numbers."""


class InconsistentReport(FerrerError):
    """A report's fields break a relation the closed forms guarantee."""

    def __init__(self, relation: str):
        super().__init__(f"the report violates {relation}")
        self.relation = relation


class SizeLimitExceeded(FerrerError):
    pass
