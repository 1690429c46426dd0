"""Domain error types shared across the package.

The CLI maps every :class:`DomainError` to exit code 1 and reports the
error's :attr:`name`, so error names here are part of the tool's contract.
The name is the class name, unless a class sets ``name`` itself, as
:class:`ParseError` does.
"""


class DomainError(Exception):
    """Base class for failures that are part of an operation's contract."""

    @property
    def name(self):
        return type(self).__name__


class ParseError(DomainError):
    """Malformed input text; reported as "SyntaxError" with a byte offset."""

    name = "SyntaxError"

    def __init__(self, message, offset, expected=frozenset()):
        super().__init__(message)
        self.offset = offset
        self.expected = frozenset(expected)


class UnboundVariable(DomainError):
    pass


class InvalidSchemaVariables(DomainError):
    pass


class NotPrenex(DomainError):
    pass


class BudgetExceeded(DomainError):
    """A finite search was inconclusive, or a construction would go over its
    budget; never stands for a truth value."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class DivisionByZero(DomainError):
    pass


class NotACode(DomainError):
    pass


class IndexOutOfRange(DomainError):
    pass


class ZeroElement(DomainError):
    pass


class IllFormed(DomainError):
    pass


class ArityMismatch(DomainError):
    pass


class UnknownName(DomainError):
    pass


class NotCoprime(DomainError):
    pass


class BadSubset(DomainError):
    pass


class EmptySet(DomainError):
    pass


class SearchSpaceTooLarge(DomainError):
    def __init__(self, required, cap):
        # a space of thousands of digits is reported by its power of two
        size = required if required < 2 ** 64 else f"at least 2^{required.bit_length() - 1}"
        super().__init__(
            f"search needs {size} colorings but the enumeration cap is {cap}"
        )
        self.required = required
        self.cap = cap


class ShapeMismatch(DomainError):
    pass


class InvalidPartitionFile(DomainError):
    pass
