"""Domain error types shared across the package, and the helpers with which
the two text readers, formula.parse and recfun.parse_def, build ParseErrors.

The CLI maps every :class:`DomainError` to exit code 1 and reports the
error's :attr:`name`, so error names here are part of the tool's contract.
The name is the class name, unless a class sets ``name`` itself, as
:class:`ParseError` does.  This module imports nothing.
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


# Deepest nesting a reader accepts: each parenthesized formula or term,
# negation, quantifier body or open combinator is a level, and a chain of
# ->, &, | or + is none.  The readers use no interpreter frame per level, but
# the compiled evaluators still use one per tree level, so the budget stays
# until evaluation runs without recursion.
_MAX_NESTING = 100


def _tokenize(text, token_re, expected):
    """The (token, position) pairs of text, one anchored match of \\s*(token)
    each; a stray character is a ParseError that names the expected tokens."""
    tokens, end = [], 0
    while m := token_re.match(text, end):
        tokens.append((m[1], m.start(1)))
        end = m.end()
    rest = text[end:].lstrip()
    if rest:
        off = len(text[:-len(rest)].encode("utf-8"))
        raise ParseError(f"unexpected character {rest[0]!r} at byte {off}",
                         offset=off, expected=expected)
    return tokens


def _byte_offset(text, tokens, i):
    """The UTF-8 byte offset of tokens[i] in text, or of the end of text
    when i is past the last token."""
    pos = tokens[i][1] if i < len(tokens) else len(text)
    return len(text[:pos].encode("utf-8"))


def _check_nesting(depth, text, tokens, opened_at):
    """ParseError when a form opened at tokens[opened_at] would nest deeper
    than _MAX_NESTING levels, at depth levels already open."""
    if depth == _MAX_NESTING:
        off = _byte_offset(text, tokens, opened_at)
        raise ParseError(
            f"at byte {off}: nesting deeper than {_MAX_NESTING} levels",
            offset=off,
        )


def _index(text, tokens, i):
    """The number tokens[i] spells after its x, if any; a ParseError at that
    token when it has more digits than int() reads."""
    digits = tokens[i][0].lstrip("x")
    try:
        return int(digits)
    except ValueError:
        off = _byte_offset(text, tokens, i)
        raise ParseError(f"at byte {off}: an index of {len(digits)} digits is too long to read",
                         offset=off) from None
