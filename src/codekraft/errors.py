"""Exception types shared across the library."""


class CodeError(Exception):
    """Base class for all codekraft errors."""


class EmptyWordError(CodeError):
    """The null string is not a word and cannot appear in a code."""


class UnknownSymbolError(CodeError):
    """A character outside the alphabet was encountered."""

    def __init__(self, symbol: str, line: int | None = None):
        self.symbol = symbol
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"symbol {symbol!r} is not in the alphabet{where}")


class MixedAlphabetsError(CodeError):
    """Values over different alphabets were combined."""


class EmptyCodeError(CodeError):
    """The operation requires a nonempty code."""


class ResourceLimitError(CodeError):
    """An enumeration exceeded its configured cap.

    Raised instead of truncating silently; ``limit`` is the cap that was
    exceeded and ``count`` the size that tripped it (when known).
    """

    def __init__(self, message: str, limit: int | None = None, count: int | None = None):
        self.limit = limit
        self.count = count
        super().__init__(message)


class CertificateError(CodeError):
    """A certificate the library built failed its own check.

    This is a bug in the library, never bad input, so it is deliberately
    not a :class:`ValueError`.
    """


class NotRefinementError(CodeError):
    """A pair of codes required to be refinement-ordered is not."""


class ChainViolationError(CodeError):
    """A chain failed strict descent or exact Kraft equality.

    ``index`` is the position of the first offending adjacent pair.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class CodeFileError(CodeError):
    """A code file is malformed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class MissingAlphabetError(CodeFileError):
    """A code file declares no alphabet."""
