"""Prime-power Goedel coding.

Symbol codes follow the fixed table ('0'->1, '1'->2, '+'->3, '*'->4, '='->5,
'('->6, ')'->7, '->'->8, '!'->9, 'forall'->10, x_i -> 11+i); a token string
a1...an is coded as 2^#a1 * 3^#a2 * ... * p_n^#an.  Sequence codes carry a +1
exponent shift so element 0 survives; set codes use the bare exponents and
therefore exclude element 0.
"""

from __future__ import annotations

from math import isqrt, log2

from .errors import BudgetExceeded, IndexOutOfRange, NotACode, ZeroElement
from .formula import (
    Add,
    And,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    Lt,
    Mul,
    Not,
    One,
    Or,
    Term,
    Var,
    Zero,
    _fresh_index,
    _of_kind,
    free_vars,
)

# ---------------------------------------------------------------------------
# Primes and the bounded search operator
# ---------------------------------------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _naturals(*xs):
    """ValueError unless each of xs is a natural number, an int >= 0."""
    for x in xs:
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"expected a natural number, got {x!r}")


def nth_prime(n):
    """The n-th prime, zero-indexed (p_0 = 2)."""
    if not isinstance(n, int) or n < 0:  # tested inline: decoding calls this per prime
        _naturals(n)
    while len(_PRIMES) <= n:
        c = _PRIMES[-1] + 2
        while not _trial_prime(c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[n]


def _trial_prime(c):
    # _PRIMES always covers every prime up to sqrt(c) while growing one by one
    for p in _PRIMES:
        if p * p > c:
            return True
        if c % p == 0:
            return False
    return True


def bounded_mu(g, bound):
    """Least y < bound with g(y) true; bound itself when there is none."""
    _naturals(bound)
    for y in range(bound):
        if g(y):
            return y
    return bound


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def pair(x, y):
    """The pairing bijection (x+y)(x+y+1)/2 + y."""
    _naturals(x, y)
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z):
    """Inverse of pair, via triangular-number inversion."""
    _naturals(z)
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

SYMBOL_CODES = {
    "0": 1,
    "1": 2,
    "+": 3,
    "·": 4,
    "=": 5,
    "(": 6,
    ")": 7,
    "→": 8,
    "¬": 9,
    "∀": 10,
}

_CODE_SYMBOLS = {c: s for s, c in SYMBOL_CODES.items()}


def token_code(tok):
    if tok in SYMBOL_CODES:
        return SYMBOL_CODES[tok]
    if len(tok) > 1 and tok[0] == "x" and tok[1:].isdigit():
        return 11 + int(tok[1:])
    raise ValueError(f"unknown symbol {tok!r}")


# ---------------------------------------------------------------------------
# The symbol stream of a term or formula, and the one code builder
# ---------------------------------------------------------------------------


def _symbols(node, kind):
    """Symbol codes of a term (kind Term) or of a formula (kind Formula).

    A formula is written in the coding alphabet (=, ->, !, forall), so this
    walk is the one place where the abbreviations are spelled out:

        t1 < t2     !forall xk !((t1 + (xk + 1)) = t2), k the least index
                    not free in the atom
        a & b       !(a -> !b)
        a | b       (!a -> b)
        exists v a  !forall v !a

    The walk runs on an explicit stack of nodes and pending tokens, so deep
    trees cost neither recursion nor list copies.  While the sides of an
    atom are written only term nodes may occur; None on the stack marks
    where they end."""
    tokens = []
    stack = [_of_kind(node, kind)]
    in_term = kind is Term
    while stack:
        x = stack.pop()
        t = type(x)
        if t is str:
            tokens.append(x)
        elif x is None:
            in_term = False
        elif in_term:
            if t is Zero:
                tokens.append("0")
            elif t is One:
                tokens.append("1")
            elif t is Var:
                tokens.append(f"x{x.index}")
            elif t is Add or t is Mul:
                tokens.append("(")
                stack += (")", x.right, "+" if t is Add else "·", x.left)
            else:
                raise TypeError(f"not a term: {x!r}")
        elif t is Eq:
            stack += (None, x.right, "=", x.left)
            in_term = True
        elif t is Lt:
            k = f"x{_fresh_index(free_vars(x))}"
            tokens += ("¬", "∀", k, "¬", "(")
            stack += (None, x.right, "=", ")", ")", "1", "+", k, "(", "+", x.left)
            in_term = True
        elif t is Not:
            tokens.append("¬")
            stack.append(x.body)
        elif t is ForAll:
            tokens += ("∀", f"x{x.var}")
            stack.append(x.body)
        elif t is Exists:
            tokens += ("¬", "∀", f"x{x.var}", "¬")
            stack.append(x.body)
        elif t is Implies:
            tokens.append("(")
            stack += (")", x.right, "→", x.left)
        elif t is And:
            tokens += ("¬", "(")
            stack += (")", x.right, "¬", "→", x.left)
        elif t is Or:
            tokens += ("(", "¬")
            stack += (")", x.right, "→", x.left)
        else:
            raise TypeError(f"not a formula: {x!r}")
    return [token_code(tok) for tok in tokens]


# largest code _power_product builds, in bits (32 MiB)
_MAX_CODE_BITS = 1 << 28


def _power_product(exps, start=0):
    """p_start^e_0 * p_(start+1)^e_1 * ...: every code is built here.  The
    code has at most sum e_i * bitlen(p_i) bits; BudgetExceeded, before any
    multiplication, when that bound is over _MAX_CODE_BITS."""
    nth_prime(start + len(exps))  # _PRIMES now holds every prime used
    primes = _PRIMES[start:start + len(exps)]
    bits = sum(e * p.bit_length() for e, p in zip(exps, primes))
    if bits > _MAX_CODE_BITS:
        raise BudgetExceeded(
            f"a code of up to {bits} bits is over the budget of {_MAX_CODE_BITS} bits")
    code = 1
    for p, e in zip(primes, exps):
        code *= p ** e
    return code


def encode_formula(f):
    """Goedel code of the formula's symbol string in the coding alphabet."""
    return _power_product(_symbols(f, Formula))


def encode_term(t):
    """Goedel code of a term's symbol string."""
    return _power_product(_symbols(t, Term))


def desugar(f):
    """The formula in the coding alphabet (=, ->, !, forall only): its
    symbol string read back, so decode_formula(encode_formula(f)) ==
    desugar(f) by construction.  The rewrite rules are those of _symbols."""
    return _parse(_symbols(f, Formula))


_M61 = (1 << 61) - 1  # a Mersenne prime: a residue filter for pure powers


def _pure_power(a, p):
    """f with a == p^f, or None.  f is read off the size of a (its bit
    length and top 60 bits), then checked modulo 2^61-1 in linear time
    before the exact power is built."""
    n = a.bit_length()
    shift = max(n - 60, 0)
    f = round((shift + log2(a >> shift)) / log2(p))
    if pow(p, f, _M61) == a % _M61 and p**f == a:
        return f
    return None


def _remove_factor(a, p):
    """(a / p^e, e) for the maximal e: the one exponent extractor.

    p = 2 is read from the trailing zero bits.  For an odd p an up pass
    divides by p, p^2, p^4, ... while they divide; the first that does not
    leaves r = a mod p^(2^J), whose p-adic valuation is exactly the exponent
    still in a, so the down pass runs on the small r and a is divided once
    more.  Big-number division is quadratic in CPython, so before the first
    divisor over 1 kbit a is tested once for being a pure power of p, which
    ends the last prime of a code in one exponentiation."""
    if p == 2:
        e = (a & -a).bit_length() - 1
        return a >> e, e
    e = 0
    powers = []
    pk = p
    while True:
        if 1024 < pk.bit_length() <= 2048:  # the first divisor over 1 kbit
            f = _pure_power(a, p)
            if f is not None:
                return 1, e + f
        q, r = divmod(a, pk)
        if r:
            break
        a = q
        e += 1 << len(powers)
        powers.append(pk)
        pk *= pk
    rest = 1
    for j in range(len(powers) - 1, -1, -1):
        q, s = divmod(r, powers[j])
        if s == 0:
            r = q
            rest *= powers[j]
            e += 1 << j
    return (a // rest if rest > 1 else a), e


def _contiguous_exponents(a):
    """Exponent list of a under p_0, p_1, ...; a gap in the prime support
    (or a < 1) is NotACode."""
    if a < 1:
        raise NotACode("codes are positive")
    exps = []
    i = 0
    while a > 1:
        a, e = _remove_factor(a, nth_prime(i))
        if e == 0:
            raise NotACode(f"gap in prime support at p_{i}")
        exps.append(e)
        i += 1
    return exps


def _close(stack):
    # the node that ")" completes on top of stack, popping "(" left op right;
    # None when the top does not read so
    if len(stack) < 4 or stack[-4] != "(":
        return None
    left, op, right = stack[-3:]
    if op == "→" and isinstance(left, Formula) and isinstance(right, Formula):
        node = Implies(left, right)
    elif op == "+" and isinstance(left, Term) and isinstance(right, Term):
        node = Add(left, right)
    elif op == "·" and isinstance(left, Term) and isinstance(right, Term):
        node = Mul(left, right)
    else:
        return None
    del stack[-4:]
    return node


def decode_formula(code):
    """Inverse of encode_formula on the desugared alphabet.  NotACode on a
    prime-support gap or an ungrammatical string."""
    return _parse(_contiguous_exponents(code))


def _parse(exps):
    """The formula whose symbol codes are exps; NotACode when they spell
    none."""
    if not exps:
        raise NotACode("the empty string is not a formula")
    # Shift-reduce: every term and formula of the alphabet is complete at its
    # last token, so it is reduced there and nothing is ever retried.  The
    # stack holds symbols, nodes, and the bare index of a quantifier variable.
    stack = []
    tok = None
    for e in exps:
        prev, tok = tok, _CODE_SYMBOLS.get(e)
        if tok is None:  # exponents are >= 1, so this is the variable x_(e-11)
            if prev == "∀":
                stack.append(e - 11)
                continue
            x = Var(e - 11)
        elif tok == "0":
            x = Zero()
        elif tok == "1":
            x = One()
        elif tok != ")" or (x := _close(stack)) is None:
            stack.append(tok)
            continue
        # x is complete: fold it into the constructs that it closes
        while stack:
            top = stack[-1]
            if isinstance(x, Term):
                if top != "=" or len(stack) < 2 or not isinstance(stack[-2], Term):
                    break
                x = Eq(stack[-2], x)
                del stack[-2:]
            elif top == "¬":
                x = Not(x)
                stack.pop()
            elif type(top) is int:
                x = ForAll(top, x)
                del stack[-2:]
            else:
                break
        stack.append(x)
    if not isinstance(stack[0], Formula):
        raise NotACode("token string is not a formula")
    if len(stack) > 1:
        raise NotACode("trailing symbols after a complete formula")
    return stack[0]


# ---------------------------------------------------------------------------
# Sequence codes
# ---------------------------------------------------------------------------


def encode_seq(xs):
    """Code of a finite list: the empty list is 1, otherwise the product of
    p_i^(xs[i]+1)."""
    exps = [x + 1 for x in xs]
    if not all(isinstance(e, int) and e >= 1 for e in exps):
        raise ValueError("sequence elements must be naturals")
    return _power_product(exps)


def decode_seq(a):
    """Element list of a sequence code; NotACode when a is not in Seq."""
    return [e - 1 for e in _contiguous_exponents(a)]


def _seq_exponents(a):
    """Exponent list of a sequence code ([] for 1); None when a is not in
    Seq.  The accessors below all decode through here, once per argument."""
    try:
        return _contiguous_exponents(a)
    except NotACode:
        return None


def is_seq_code(a):
    """Membership in Seq: 1, or a > 1 with contiguous prime support."""
    return _seq_exponents(a) is not None


def seq_long(a):
    """Last prime index of a sequence code (length-1 for nonempty lists);
    0 for a = 1 and for non-sequence numbers."""
    exps = _seq_exponents(a)
    return len(exps) - 1 if exps else 0


def seq_at(a, x):
    """Element x of a sequence code: the exponent of p_x, minus one."""
    if not isinstance(x, int):
        raise ValueError(f"expected an integer index, got {x!r}")
    exps = _seq_exponents(a)
    if not exps:
        raise IndexOutOfRange(f"{a} is not a nonempty sequence code")
    if not 0 <= x < len(exps):
        raise IndexOutOfRange(f"index {x} out of range for length {len(exps)}")
    return exps[x] - 1


def seq_concat(a, b):
    """Concatenation code a*b = a times prod p_(Long(a)+x+1)^((b)_x+1); the
    empty code 1 is an identity on both sides so * stays total."""
    if a == 1:
        return b
    if b == 1:
        return a
    la = seq_long(a)
    exps = _seq_exponents(b)
    if not exps:
        raise IndexOutOfRange(f"{b} is not a nonempty sequence code")
    return a * _power_product(exps, la + 1)


# ---------------------------------------------------------------------------
# Set codes (bare exponents, so element 0 cannot be represented)
# ---------------------------------------------------------------------------


def encode_set(xs):
    """Code of a strictly increasing list of naturals >= 1 as prod p_i^a_i.
    Element 0 would vanish from the code and is rejected."""
    prev = 0
    for i, x in enumerate(xs):
        if not isinstance(x, int) or x < 0:
            raise ValueError("set elements must be naturals")
        if x == 0:
            raise ZeroElement("element 0 cannot be set-coded")
        if x <= prev and i > 0:
            raise ValueError("set elements must be strictly increasing")
        prev = x
    return _power_product(xs)


def decode_set(a):
    """Exponent list of a set code (NotACode on a prime-support gap)."""
    return _contiguous_exponents(a)
