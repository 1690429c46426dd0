"""Prime-power Goedel coding of numbers: primes, pairing, and the codes of
finite sequences and sets.

A list e_0, ..., e_(n-1) is coded as p_0^e_0 * ... * p_(n-1)^e_(n-1).
Sequence codes carry a +1 exponent shift so element 0 survives; set codes
use the bare exponents and therefore exclude element 0.  The codes of
symbols, terms and formulas are built on these in formula.py.

Coding runs in sub-quadratic time, although CPython before 3.12 divides big
ints in quadratic time: a long code is multiplied up a balanced product tree,
read back block by block down remainder trees (D. J. Bernstein, "Fast
multiplication and its applications", 2008), and every division by a big
divisor goes to _divmod, a recursive division built on Karatsuba products
(Burnikel & Ziegler, "Fast Recursive Division", 1998).
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, log2

from .errors import BudgetExceeded, IndexOutOfRange, NotACode, ZeroElement, _natural, _shown


# ---------------------------------------------------------------------------
# Primes and the bounded search operator
# ---------------------------------------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def nth_prime(n):
    """The n-th prime, zero-indexed (p_0 = 2)."""
    if type(n) is not int or n < 0:  # tested inline: decoding calls this per prime
        _natural(n)
    while len(_PRIMES) <= n:
        _sieve_next_segment()
    return _PRIMES[n]


def _sieve_next_segment():
    # appends the primes in (q, 2q], q the largest known prime, by the sieve
    # of Eratosthenes: the segment holds a prime (Bertrand's postulate), and
    # _PRIMES holds every prime up to sqrt(2q), whose multiples it strikes
    lo, hi = _PRIMES[-1] + 1, 2 * _PRIMES[-1]
    flags = bytearray(b"\1") * (hi - lo + 1)
    for p in _PRIMES:
        if p * p > hi:
            break
        first = -lo % p  # offset of p's first multiple in the segment, never p: lo > p
        flags[first::p] = bytes(len(range(first, len(flags), p)))
    _PRIMES.extend(compress(range(lo, hi + 1), flags))


def bounded_mu(g, bound):
    """Least y < bound with g(y) true; bound itself when there is none."""
    _natural(bound, "bound")
    for y in range(bound):
        if g(y):
            return y
    return bound


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def pair(x, y):
    """The pairing bijection (x+y)(x+y+1)/2 + y."""
    _natural(x), _natural(y)
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z):
    """Inverse of pair, via triangular-number inversion."""
    _natural(z)
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


# ---------------------------------------------------------------------------
# The one code builder
# ---------------------------------------------------------------------------

# largest code _power_product builds, in bits (32 MiB)
_MAX_CODE_BITS = 1 << 28
# codes of more primes are multiplied up a product tree
_TREE_PRIMES = 256


def _power_product(exps, start=0):
    """p_start^e_0 * p_(start+1)^e_1 * ...: every code is built here.  The
    code has at most sum e_i * bitlen(p_i) bits; BudgetExceeded, before any
    multiplication, when that bound is over _MAX_CODE_BITS."""
    nth_prime(start + len(exps))  # _PRIMES now holds every prime used
    primes = _PRIMES[start:start + len(exps)]
    bits = sum(e * p.bit_length() for e, p in zip(exps, primes))
    if bits > _MAX_CODE_BITS:
        n = bits.bit_length()  # past 3 * 640 bits str may refuse it, so it is named as 2^n
        size = f"2^{n}" if n > 3 * 640 else bits
        raise BudgetExceeded(
            f"a code of up to {size} bits is over the budget of {_MAX_CODE_BITS} bits")
    if len(exps) > _TREE_PRIMES:
        return _product(list(map(pow, primes, exps)))
    code = 1
    for p, e in zip(primes, exps):
        code *= p ** e
    return code


def _pair_up(xs):
    # the next level of a balanced product tree: neighbours multiplied in
    # pairs, an odd last one carried up
    return [x * y for x, y in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]


def _product(xs):
    """The product of xs, in the time of a few products of its size; a
    running product would multiply the whole code once per factor."""
    while len(xs) > 1:
        xs = _pair_up(xs)
    return xs[0] if xs else 1


def _product_tree(xs):
    """The levels of the balanced product tree over xs, leaves first."""
    levels = [xs]
    while len(xs) > 1:
        xs = _pair_up(xs)
        levels.append(xs)
    return levels


# ---------------------------------------------------------------------------
# Division and exponent extraction
# ---------------------------------------------------------------------------

# _divmod leaves divisors of at most _DIV_MIN_BITS bits and quotients of at
# most _DIV_LEAF_BITS bits to the builtin divmod
_DIV_MIN_BITS = 1 << 13
_DIV_LEAF_BITS = 4000


def _divmod(a, b):
    """divmod(a, b) for a >= 0 and b > 0 in the time of a few Karatsuba
    products (Burnikel & Ziegler): a is cut into base-2^n digits, n the bit
    length of b, which are divided one at a time from the top by the
    recursive 2n-by-n step."""
    n = b.bit_length()
    if n <= _DIV_MIN_BITS or a.bit_length() - n <= _DIV_LEAF_BITS:
        return divmod(a, b)
    digits = []
    _split(a, n, -(-a.bit_length() // n), digits)
    q = []
    r = 0
    for d in reversed(digits):
        x, r = _div2n1n(r << n | d, b, n)
        q.append(x)
    q.reverse()
    return _join(q, n, 0, len(q)), r


# The helpers of _divmod are module-level functions: nested closures that
# call themselves would be reference cycles, kept alive until the next
# collection together with the big ints they hold.


def _split(x, n, k, out):
    # append the k base-2^n digits of x to out, lowest first
    if k == 1:
        out.append(x)
        return
    h = k >> 1
    hi = x >> h * n
    _split(x ^ hi << h * n, n, h, out)
    _split(hi, n, k - h, out)


def _join(digits, n, lo, hi):
    # the number whose base-2^n digits, lowest first, are digits[lo:hi]
    if hi - lo == 1:
        return digits[lo]
    mid = (lo + hi) >> 1
    return _join(digits, n, mid, hi) << (mid - lo) * n | _join(digits, n, lo, mid)


def _div2n1n(a, b, n):
    # divmod(a, b) for b of exactly n bits and a < 2^n * b
    if a.bit_length() - n <= _DIV_LEAF_BITS:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12, a3, b, b1, b2, n):
    # divmod(a12 * 2^n + a3, b) for b = b1 * 2^n + b2 and a quotient below 2^n
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


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
    more.  Before the first divisor over 1 kbit a is tested once for being a
    pure power of p, which ends the last prime of a code in one
    exponentiation; from the first divisor over _DIV_MIN_BITS on, every
    division goes to _divmod."""
    if p == 2:
        e = (a & -a).bit_length() - 1
        return a >> e, e
    e = 0
    powers = []
    pk = p
    div = divmod
    while True:
        n = pk.bit_length()
        if n > 1024:
            if n <= 2048:  # the first divisor over 1 kbit
                f = _pure_power(a, p)
                if f is not None:
                    return 1, e + f
            elif n > _DIV_MIN_BITS:
                div = _divmod
        q, r = div(a, pk)
        if r:
            break
        a = q
        e += 1 << len(powers)
        powers.append(pk)
        pk *= pk
    rest = 1
    for j in range(len(powers) - 1, -1, -1):
        q, s = div(r, powers[j])
        if s == 0:
            r = q
            rest *= powers[j]
            e += 1 << j
    return (div(a, rest)[0] if rest > 1 else a), e


# the bounds of the single-prime steps of _contiguous_exponents
_BLOCKS_AFTER = 16
_BLOCKS_MIN_BITS = 1 << 16


def _contiguous_exponents(a):
    """Exponent list of a under p_0, p_1, ...; a gap in the prime support
    (or a < 1) is NotACode.

    One loop reads every code.  The first _BLOCKS_AFTER primes, and every
    prime once the cofactor has at most _BLOCKS_MIN_BITS bits, are removed
    one at a time.  Otherwise a is read in a block of up to twice as many
    primes as the block before (for the first block, the _BLOCKS_AFTER
    single primes), as many as a's bit length allows: a is reduced down the
    remainder tree of the block's p^K, with K one more than the largest
    exponent among those earlier primes.  A leaf residue below p^K holds the
    exponent of p in full, and a residue 0 sends p to _remove_factor on a
    itself.  a is then divided by the block's prime powers at once; the
    first p that does not divide a ends the block.  Either step is followed
    by the one gap check."""
    if type(a) is not int:  # an int below 1 is no code, anything else no natural
        _natural(a)
    if a < 1:
        raise NotACode("codes are positive")
    exps = []
    size = _BLOCKS_AFTER
    while a > 1:
        i = len(exps)
        if i < _BLOCKS_AFTER or a.bit_length() <= _BLOCKS_MIN_BITS:
            a, e = _remove_factor(a, nth_prime(i))
            if e:
                exps.append(e)
        else:
            k = max(exps[-size:]) + 1
            nth_prime(i + 2 * size)
            room = a.bit_length() // k  # sum of bitlen(p) over the block
            primes = []
            for p in _PRIMES[i:i + 2 * size]:
                room -= p.bit_length()
                if room < 0 and primes:
                    break
                primes.append(p)
            levels = _product_tree([p ** k for p in primes])
            residues = [a]
            while levels:  # each level is dropped once it has been used
                residues = [_divmod(residues[j >> 1], m)[1] for j, m in enumerate(levels.pop())]
            powers = []
            for p, r in zip(primes, residues):
                if r:
                    e = _remove_factor(r, p)[1]
                    if e == 0:
                        break
                    powers.append(p ** e)
                else:
                    a, e = _remove_factor(a, p)
                exps.append(e)
            a = _divmod(a, _product(powers))[0]
            size = len(primes)
        if e == 0 and a > 1:
            raise NotACode(f"gap in prime support at p_{len(exps)}")
    return exps


# ---------------------------------------------------------------------------
# Sequence codes
# ---------------------------------------------------------------------------


def encode_seq(xs):
    """Code of a finite list: the empty list is 1, otherwise the product of
    p_i^(xs[i]+1)."""
    if not all(type(x) is int and x >= 0 for x in xs):  # _natural's test, with its own message
        raise ValueError("sequence elements must be naturals")
    return _power_product([x + 1 for x in xs])


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
    if type(x) is not int:  # a negative int is out of range, anything else no natural
        _natural(x)
    exps = _seq_exponents(a)
    if not exps:
        raise IndexOutOfRange(f"{_shown(a)} is not a nonempty sequence code")
    if not 0 <= x < len(exps):
        raise IndexOutOfRange(f"index {_shown(x)} out of range for length {len(exps)}")
    return exps[x] - 1


def seq_concat(a, b):
    """Concatenation code a*b = a times prod p_(Long(a)+x+1)^((b)_x+1); the
    empty code 1 is an identity on both sides.  Any other b must be a
    nonempty sequence code, even when a = 1."""
    _natural(a), _natural(b)
    if b == 1:
        return a
    exps = _seq_exponents(b)
    if not exps:
        raise IndexOutOfRange(f"{_shown(b)} is not a nonempty sequence code")
    if a == 1:
        return b
    return a * _power_product(exps, seq_long(a) + 1)


# ---------------------------------------------------------------------------
# Set codes (bare exponents, so element 0 cannot be represented)
# ---------------------------------------------------------------------------


def encode_set(xs):
    """Code of a strictly increasing list of naturals >= 1 as prod p_i^a_i.
    Element 0 would vanish from the code and is rejected."""
    prev = 0
    for i, x in enumerate(xs):
        if type(x) is not int or x < 0:  # _natural's test, with its own message
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
