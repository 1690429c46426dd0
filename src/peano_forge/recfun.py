"""Partial/primitive recursive function calculus: definition trees, arity
checking, a fuel-bounded evaluator, an s-expression reader, and a standard
library of hand-built search-free definitions.

Fuel accounting: one unit per node visit plus one per minimization step, so
BudgetExhausted outcomes are machine-independent.  The evaluator never claims
a function value is undefined; a search that does not finish within fuel is
reported as BudgetExhausted.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import ArityMismatch, IllFormed, NotCoprime, ParseError, UnknownName

# ---------------------------------------------------------------------------
# Definition trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PRDef:
    pass


@dataclass(frozen=True)
class ZeroFn(PRDef):
    """The unary constant-zero function."""


@dataclass(frozen=True)
class Succ(PRDef):
    pass


@dataclass(frozen=True)
class Proj(PRDef):
    i: int
    n: int


@dataclass(frozen=True)
class Comp(PRDef):
    f: PRDef
    gs: tuple

    def __post_init__(self):
        object.__setattr__(self, "gs", tuple(self.gs))


@dataclass(frozen=True)
class PrimRec(PRDef):
    """h(xs, 0) = base(xs); h(xs, y+1) = step(xs, y, h(xs, y))."""

    base: PRDef
    step: PRDef


@dataclass(frozen=True)
class BoundedMu(PRDef):
    """Least y below the last argument with g(args, y) = 0, defaulting to
    the bound itself when no witness exists."""

    g: PRDef


@dataclass(frozen=True)
class Mu(PRDef):
    """Unbounded least-zero search; the only source of partiality."""

    g: PRDef


def arity(d):
    """The unique arity of a well-formed tree; IllFormed otherwise."""
    if isinstance(d, (ZeroFn, Succ)):
        return 1
    if isinstance(d, Proj):
        if not 1 <= d.i <= d.n:
            raise IllFormed(f"projection index {d.i} outside 1..{d.n}")
        return d.n
    if isinstance(d, Comp):
        fa = arity(d.f)
        if len(d.gs) != fa:
            raise IllFormed(
                f"composition head takes {fa} arguments, got {len(d.gs)} inner functions"
            )
        inner = {arity(g) for g in d.gs}
        if len(inner) != 1:
            raise IllFormed("inner functions of a composition disagree on arity")
        return inner.pop()
    if isinstance(d, PrimRec):
        fa = arity(d.base)
        ga = arity(d.step)
        if ga != fa + 2:
            raise IllFormed(
                f"recursion step must take {fa + 2} arguments, takes {ga}"
            )
        return fa + 1
    if isinstance(d, BoundedMu):
        ga = arity(d.g)
        if ga < 2:
            raise IllFormed("bounded search needs an argument to bound it")
        return ga - 1
    if isinstance(d, Mu):
        ga = arity(d.g)
        if ga < 1:
            raise IllFormed("search predicate needs the search variable")
        return ga - 1
    raise IllFormed(f"not a definition node: {d!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    value: int


@dataclass(frozen=True)
class Undefined:
    """Semantic non-termination; never produced by the evaluator (it cannot
    prove divergence), present so outcomes mirror the calculus."""


@dataclass(frozen=True)
class BudgetExhausted:
    pass


class _OutOfFuel(Exception):
    pass


def eval_def(d, args, fuel):
    """Evaluate d on args within the given fuel.

    Returns Value(v) when the result is found in time and BudgetExhausted
    otherwise; composition is strict in every argument.
    """
    k = arity(d)
    if len(args) != k:
        raise ArityMismatch(f"definition takes {k} arguments, got {len(args)}")
    cell = [fuel]
    try:
        return Value(_ev(d, tuple(args), cell))
    except _OutOfFuel:
        return BudgetExhausted()


def _ev(d, args, cell):
    cell[0] -= 1
    if cell[0] < 0:
        raise _OutOfFuel
    tp = type(d)
    if tp is ZeroFn:
        return 0
    if tp is Succ:
        return args[0] + 1
    if tp is Proj:
        return args[d.i - 1]
    if tp is Comp:
        vals = tuple(_ev(g, args, cell) for g in d.gs)
        return _ev(d.f, vals, cell)
    if tp is PrimRec:
        xs = args[:-1]
        acc = _ev(d.base, xs, cell)
        for i in range(args[-1]):
            acc = _ev(d.step, xs + (i, acc), cell)
        return acc
    if tp is BoundedMu or tp is Mu:
        for y in range(args[-1]) if tp is BoundedMu else itertools.count():
            cell[0] -= 1
            if cell[0] < 0:
                raise _OutOfFuel
            if _ev(d.g, args + (y,), cell) == 0:
                return y
        return args[-1]  # only the bounded search runs out
    raise IllFormed(f"not a definition node: {d!r}")


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

_SEXPR_TOKEN = re.compile(r"[()]|[a-z_]+|\d+")
_SEXPR_WS = re.compile(r"\s*")


def _sexpr_tokens(text):
    tokens = []
    pos = 0
    while True:
        pos = _SEXPR_WS.match(text, pos).end()
        if pos >= len(text):
            break
        m = _SEXPR_TOKEN.match(text, pos)
        if m is None:
            off = len(text[:pos].encode("utf-8"))
            raise ParseError(
                f"unexpected character {text[pos]!r} at byte {off}",
                offset=off,
                expected=frozenset({"(", ")", "atom"}),
            )
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


def parse_def(text):
    """Read a definition from the s-expression DSL: atoms zero, succ,
    (proj i n); combinators (comp f g1 ... gk), (primrec f g), (mu g),
    (bmu g).  Structural violations raise IllFormed."""
    tokens = _sexpr_tokens(text)

    def fail(pos, what):
        off = (len(text[: tokens[pos][1]].encode("utf-8"))
               if pos < len(tokens) else len(text.encode("utf-8")))
        raise ParseError(f"at byte {off}: expected {what}",
                         offset=off, expected=frozenset({what}))

    def need(pos):
        if pos >= len(tokens):
            fail(pos, "more input")
        return tokens[pos][0]

    def read(pos):
        tok = need(pos)
        if tok == "zero":
            return ZeroFn(), pos + 1
        if tok == "succ":
            return Succ(), pos + 1
        if tok != "(":
            fail(pos, "definition")
        head = need(pos + 1)
        if head == "proj":
            i_tok, n_tok = need(pos + 2), need(pos + 3)
            if not (i_tok.isdigit() and n_tok.isdigit()):
                fail(pos + 2, "two integers")
            if need(pos + 4) != ")":
                fail(pos + 4, ")")
            return Proj(int(i_tok), int(n_tok)), pos + 5
        if head == "comp":
            f, p = read(pos + 2)
            gs = []
            while need(p) != ")":
                g, p = read(p)
                gs.append(g)
            if not gs:
                raise IllFormed("composition needs at least one inner function")
            return Comp(f, tuple(gs)), p + 1
        if head == "primrec":
            base, p = read(pos + 2)
            step, p = read(p)
            if need(p) != ")":
                fail(p, ")")
            return PrimRec(base, step), p + 1
        if head in ("mu", "bmu"):
            g, p = read(pos + 2)
            if need(p) != ")":
                fail(p, ")")
            return (Mu(g) if head == "mu" else BoundedMu(g)), p + 1
        fail(pos + 1, "proj, comp, primrec, mu, or bmu")

    d, p = read(0)
    if p != len(tokens):
        fail(p, "end of input")
    arity(d)  # surfaces IllFormed for structurally bad trees
    return d


# ---------------------------------------------------------------------------
# Standard library
# ---------------------------------------------------------------------------


def _c(f, *gs):
    return Comp(f, gs)


def _diag(f2):
    """f2(x, x) as a unary function."""
    return _c(f2, Proj(1, 1), Proj(1, 1))


def _build_stdlib():
    zero = ZeroFn()
    succ = Succ()
    id1 = Proj(1, 1)
    one1 = _c(succ, zero)                       # x -> 1
    two1 = _c(succ, one1)                       # x -> 2
    zero3 = _c(zero, Proj(1, 3))                # arity-3 constant 0
    one3 = _c(succ, zero3)

    add = PrimRec(id1, _c(succ, Proj(3, 3)))    # add(x, y); ~y steps
    # step add(acc, x): recursion runs on the second argument, so each of the
    # y iterations costs ~x instead of ~acc
    mul = PrimRec(zero, _c(add, Proj(3, 3), Proj(1, 3)))
    pred = _diag(PrimRec(zero, Proj(2, 3)))
    sub = PrimRec(id1, _c(pred, Proj(3, 3)))    # truncated x - y
    sub_rev = _c(sub, Proj(2, 2), Proj(1, 2))   # y - x
    max_ = _c(add, sub, Proj(2, 2))             # (x - y) + y
    min_ = _c(sub, Proj(1, 2), sub)             # x - (x - y)
    fact2 = PrimRec(one1, _c(mul, Proj(3, 3), _c(succ, Proj(2, 3))))
    factorial = _diag(fact2)

    sg = _diag(PrimRec(zero, one3))             # 0 if x == 0 else 1
    sgbar = _c(sub, one1, id1)                  # 1 if x == 0 else 0
    diff = _c(add, sub, sub_rev)                # |x - y|
    eq01 = _c(sgbar, diff)
    lt01 = _c(sg, sub_rev)                      # x < y
    gt01 = _c(sg, sub)                          # x > y
    ge2 = _c(sg, _c(pred, id1))                 # x >= 2

    # rm(d, x) = x mod d for d >= 1: carry the running remainder, reset at d
    s3 = _c(succ, Proj(3, 3))
    rm = PrimRec(zero, _c(mul, s3, _c(lt01, s3, Proj(1, 3))))
    divides01 = _c(sgbar, rm)                   # divides01(d, x) = [d | x]

    # ceil-free isqrt: least s with (s+1)^2 > x, searched below x+1
    s_next = _c(succ, Proj(3, 3))
    square = _c(mul, s_next, s_next)
    isq = _c(BoundedMu(_c(sgbar, _c(gt01, square, Proj(1, 3)))),
             id1, _c(succ, id1))

    # least proper divisor of x at most isqrt(x), else the bound itself
    div_bound = _c(succ, isq)
    found_div = _c(sgbar, _c(mul,
                             _c(ge2, Proj(3, 3)),
                             _c(divides01, Proj(3, 3), Proj(1, 3))))
    least_div = _c(BoundedMu(found_div), id1, div_bound)
    is_prime = _c(mul, ge2, _c(eq01, least_div, div_bound))

    # next prime after p searched below 2p+2; Bertrand guarantees a witness
    next_bound = _c(succ, _c(succ, _c(add, id1, id1)))
    is_next = _c(sgbar, _c(mul,
                           _c(gt01, Proj(3, 3), Proj(1, 3)),
                           _c(is_prime, Proj(3, 3))))
    next_prime = _c(BoundedMu(is_next), id1, next_bound)
    nth_prime = _diag(PrimRec(two1, _c(next_prime, Proj(3, 3))))

    # pair(x, y) = triangular(x+y) + y, with the triangular sum built by
    # recursion so no halving is needed
    tri = _diag(PrimRec(zero, _c(add, Proj(3, 3), _c(succ, Proj(2, 3)))))
    pair = _c(add, _c(tri, _c(add, Proj(1, 2), Proj(2, 2))), Proj(2, 2))

    return {
        "add": add,
        "mul": mul,
        "pred": pred,
        "sub_trunc": sub,
        "max": max_,
        "min": min_,
        "factorial": factorial,
        "is_prime": is_prime,
        "nth_prime": nth_prime,
        "pair": pair,
    }


_STDLIB = _build_stdlib()


def stdlib(name):
    """A search-free definition for a named arithmetic function."""
    try:
        return _STDLIB[name]
    except KeyError:
        raise UnknownName(f"no stdlib definition named {name!r}") from None


def stdlib_names():
    return sorted(_STDLIB)


# ---------------------------------------------------------------------------
# Bezout inverses
# ---------------------------------------------------------------------------


def bezout_inverse(x, y):
    """The z < y with x*z = 1 (mod y) for coprime x, y >= 1 (0 when y = 1)."""
    if x < 1 or y < 1 or math.gcd(x, y) != 1:
        raise NotCoprime(f"{x} and {y} are not coprime naturals")
    return pow(x, -1, y)
