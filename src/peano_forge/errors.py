"""Domain error types shared across the package, the natural-number check,
and the helpers with which formula.parse and recfun.parse_def build ParseErrors.

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
    """The r^N colorings of a search are more than the enumeration cap.
    required, r^N itself, is built when read: it can have billions of
    digits, and the message needs its size only."""

    def __init__(self, r, N, cap):
        # a space of 2^64 or more is named as at least 2^low, with low
        # exact when r is a power of two or r^N has under 2^17 bits
        low = N * (r.bit_length() - 1)
        if low < 1 << 16:  # then r^N < 2^(low + N) <= 2^(2 low) is built
            low = (r ** N).bit_length() - 1
        size = r ** N if low < 64 else f"at least 2^{low}"
        super().__init__(f"search needs {size} colorings but the enumeration cap is {_shown(cap)}")
        self.r, self.N, self.cap = r, N, cap

    @property
    def required(self):
        return self.r ** self.N


class ShapeMismatch(DomainError):
    pass


class InvalidPartitionFile(DomainError):
    pass


def _shown(x):
    """repr(x); an int of over 640 digits, which str may refuse, by its size."""
    if type(x) is int and abs(x) >= 10 ** 640:
        return f"{'-' * (x < 0)}<an int of at least 2^{abs(x).bit_length() - 1}>"
    return repr(x)


def _natural(x, name=None):
    """x, when it is an int >= 0 and no bool; otherwise a ValueError in one
    of two forms, as the call names its argument or not."""
    if type(x) is int and x >= 0:
        return x
    raise ValueError(f"not a natural number: {_shown(x)}" if name is None
                     else f"{name} must be a natural number, got {_shown(x)}")


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
