"""Partial/primitive recursive function calculus: definition trees, arity
checking, a fuel-bounded evaluator, an s-expression reader, and a standard
library of hand-built search-free definitions.

Fuel accounting: one unit per node visit plus one per minimization step, so
BudgetExhausted outcomes are machine-independent.  The evaluator never claims
a function value is undefined; a search that does not finish within fuel is
reported as BudgetExhausted.

A combinator is built only from definitions, and Proj from natural ints;
arities are checked when a tree compiles.

Only exhaustion is observable: the outcome is a Value exactly when the total
cost is at most the fuel.  So the evaluator charges a computation whose cost
it knows in one step, and the least sufficient fuel is that of a walk node
by node.  Each definition object is compiled once into closures, kept on the
object; compiling checks arities once per distinct node, and arity reads
the compiled form.  Nodes whose value and cost are affine in their
arguments (ZeroFn, Succ, Proj and compositions of them) are computed by
formula.  A PrimRec whose step adds a fixed amount to the accumulator at a
fixed cost (add, mul) charges its loop at once, and one whose step ignores
the accumulator at a fixed cost (pred, sg) returns its last step directly.
The looping functions a composition applies are memoized for the rest of
the call with the cost they were charged, at most _MEMO_CAP entries at a
time.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple

from .errors import (ArityMismatch, IllFormed, NotCoprime, ParseError, UnknownName,
                     _byte_offset, _check_nesting, _index, _natural, _shown, _tokenize)
from .tree import Node, _compiled, _of_kind

# ---------------------------------------------------------------------------
# Definition trees
# ---------------------------------------------------------------------------


class PRDef(Node):
    __slots__ = ()
    _refusal = IllFormed, "not a definition node"


class ZeroFn(PRDef):
    """The unary constant-zero function."""

    __slots__ = ()


class Succ(PRDef):
    __slots__ = ()


class Proj(PRDef):
    __slots__ = ("i", "n")
    _kinds = (int, int)


class Comp(PRDef):
    __slots__ = ("f", "gs")
    _kinds = (PRDef, (PRDef,))


class PrimRec(PRDef):
    """h(xs, 0) = base(xs); h(xs, y+1) = step(xs, y, h(xs, y))."""

    __slots__ = ("base", "step")
    _kinds = (PRDef, PRDef)


class BoundedMu(PRDef):
    """Least y below the last argument with g(args, y) = 0, defaulting to
    the bound itself when no witness exists."""

    __slots__ = ("g",)
    _kinds = (PRDef,)


class Mu(PRDef):
    """Unbounded least-zero search; the only source of partiality."""

    __slots__ = ("g",)
    _kinds = (PRDef,)


def arity(d):
    """The unique arity of a well-formed tree; IllFormed otherwise."""
    return _compiled(_of_kind(d, PRDef), _compile).arity


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class Value(Node):
    __slots__ = ("value",)


class Undefined(Node):
    """Semantic non-termination; never produced by the evaluator (it cannot
    prove divergence), present so outcomes mirror the calculus."""

    __slots__ = ()


class BudgetExhausted(Node):
    __slots__ = ()


class _OutOfFuel(Exception):
    pass


# entries one evaluation may keep in its memo before the memo is cleared
_MEMO_CAP = 4096


def eval_def(d, args, fuel):
    """Evaluate d on args (naturals) within the given fuel.

    Returns Value(v) when the result is found in time and BudgetExhausted
    otherwise; composition is strict in every argument.
    """
    code = _compiled(_of_kind(d, PRDef), _compile)
    args = tuple(args)
    if len(args) != code.arity:
        raise ArityMismatch(f"definition takes {code.arity} arguments, got {len(args)}")
    for x in args:
        _natural(x)
    _natural(fuel, "fuel")
    call = [fuel, {}]  # fuel left, and the memo of this evaluation
    try:
        return Value(code.run(args, call))
    except _OutOfFuel:
        return BudgetExhausted()


# The compiled form of a node: its arity; run(args, call), which returns the
# value and charges the node's cost to call[0]; summary, None or the pair
# (value, cost) of coefficient tuples (c0, c1, ..., ck), each standing for
# c0 + c1*x1 + ... + ck*xk over the naturals x1..xk; and loops, whether run
# can iterate, so that remembering its results can pay.
_Code = namedtuple("_Code", "arity run summary loops")


def _compile(d, take):
    """The compiled form of one node, built by tree._compiled.  It takes
    the form of each child it needs, checking the node's arities as it goes:
    the head, then the inner-function count, then each inner function."""
    tp = type(d)
    if tp is ZeroFn:
        return _summarized(1, (0, 0), (1, 0))
    if tp is Succ:
        return _summarized(1, (1, 1), (1, 0))
    if tp is Proj:
        if not 1 <= d.i <= d.n:
            raise IllFormed(f"projection index {d.i} outside 1..{d.n}")
        return _summarized(d.n, _unit(d.n, d.i), _unit(d.n, 0))
    if tp is Comp:
        f = take(d.f)
        if len(d.gs) != f.arity:
            raise IllFormed(
                f"composition head takes {f.arity} arguments, got {len(d.gs)} inner functions"
            )
        gs = [take(g) for g in d.gs]
        if len({g.arity for g in gs}) != 1:
            raise IllFormed("inner functions of a composition disagree on arity")
        k = gs[0].arity
        if f.summary and all(g.summary for g in gs):
            # f's value and cost are affine in the values of the gs, which
            # are affine in the arguments
            gv = [g.summary[0] for g in gs]
            cost = _compose(f.summary[1], gv, k)
            for g in gs:
                cost = _plus(cost, g.summary[1])
            return _summarized(k, _compose(f.summary[0], gv, k),
                               _plus(cost, _unit(k, 0)))
        # the head sees the values of the gs, which recur across the
        # iterations of an enclosing loop where its own arguments do not
        head = _memoized(f.run) if f.loops else f.run
        run = _comp(head, [g.run for g in gs])
        return _Code(k, run, None, f.loops or any(g.loops for g in gs))
    if tp is PrimRec:
        base = take(d.base)
        step = take(d.step)
        n = base.arity
        if step.arity != n + 2:
            raise IllFormed(
                f"recursion step must take {n + 2} arguments, takes {step.arity}"
            )
        # step coefficients: constant, xs (n of them), i, acc; a step whose
        # cost reads neither i nor acc costs the same on every iteration
        if step.summary and not any(step.summary[1][n + 1:]):
            sv, sc = step.summary
            per_step = sc[:n + 1] + (0,)  # over (xs, y)
            if sv[n + 1] == 0 and sv[n + 2] == 1:
                # accumulating: h(xs, y) = base(xs) + y*gain(xs)
                gain = sv[:n + 1] + (0,)
                if base.summary and not any(gain[1:]) and not any(per_step[1:]):
                    bv, bc = base.summary
                    return _summarized(n + 1, bv + (gain[0],),
                                       (bc[0] + 1,) + bc[1:] + (per_step[0],))
                run = _accumulate(base.run, gain, per_step)
                return _Code(n + 1, run, None, base.loops)
            if sv[n + 2] == 0:
                # forgetting: h(xs, y) = step(xs, y-1, .) once y > 0
                last = (sv[0] - sv[n + 1],) + sv[1:n + 2]
                run = _forget(base.run, last, per_step)
                return _Code(n + 1, run, None, base.loops)
        return _Code(n + 1, _primrec(base.run, step.run), None, True)
    g = take(d.g)  # BoundedMu or Mu
    if tp is BoundedMu and g.arity < 2:
        raise IllFormed("bounded search needs an argument to bound it")
    if g.arity < 1:
        raise IllFormed("search predicate needs the search variable")
    return _Code(g.arity - 1, _search(g.run, tp is BoundedMu), None, True)


def _unit(k, j):
    """Coefficients of x_j over k arguments (j = 0: the constant 1)."""
    return (0,) * j + (1,) + (0,) * (k - j)


def _plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _compose(outer, inner, k):
    """Coefficients of outer(inner_1(x), ..., inner_m(x)) over x."""
    out = (outer[0],) + (0,) * k
    for a, g in zip(outer[1:], inner):
        out = _plus(out, tuple(a * c for c in g))
    return out


def _affine(c):
    """A function from an argument tuple to c0 + c1*x1 + ... + ck*xk."""
    c0 = c[0]
    terms = [(j - 1, cj) for j, cj in enumerate(c) if j and cj]
    if not terms:
        return lambda a: c0
    if len(terms) == 1:
        (j, cj), = terms
        if cj == 1:
            return lambda a: a[j] + c0
        return lambda a: cj * a[j] + c0
    return lambda a: c0 + sum([cj * a[j] for j, cj in terms])


def _summarized(k, value, cost):
    """A node computed and charged by its affine value and cost forms."""
    val = _affine(value)
    if any(cost[1:]):
        price = _affine(cost)

        def run(a, call):
            call[0] -= price(a)
            if call[0] < 0:
                raise _OutOfFuel
            return val(a)
    else:
        c = cost[0]

        def run(a, call):
            call[0] -= c
            if call[0] < 0:
                raise _OutOfFuel
            return val(a)
    return _Code(k, run, (value, cost), False)


def _memoized(run):
    """run with its results remembered for the rest of one evaluation; a
    hit charges the cost the first evaluation was charged."""
    def memo_run(a, call):
        memo = call[1]
        key = (run, a)
        hit = memo.get(key)
        if hit is None:
            left = call[0]
            v = run(a, call)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = (v, left - call[0])
            return v
        v, cost = hit
        call[0] -= cost
        if call[0] < 0:
            raise _OutOfFuel
        return v
    return memo_run


def _comp(f, gs):
    def run(a, call):
        call[0] -= 1
        if call[0] < 0:
            raise _OutOfFuel
        return f(tuple([g(a, call) for g in gs]), call)
    return run


def _accumulate(base, gain, per_step):
    """h(xs, y) = base(xs) + y*gain(xs), y steps of cost per_step(xs)."""
    gain, per_step = _affine(gain), _affine(per_step)

    def run(a, call):
        y = a[-1]
        call[0] -= 1 + y * per_step(a)
        if call[0] < 0:
            raise _OutOfFuel
        return base(a[:-1], call) + y * gain(a)
    return run


def _forget(base, last, per_step):
    """h(xs, 0) = base(xs), h(xs, y) = last(xs, y) for y > 0, y steps of
    cost per_step(xs); base is evaluated either way, as the loop would."""
    last, per_step = _affine(last), _affine(per_step)

    def run(a, call):
        y = a[-1]
        call[0] -= 1 + y * per_step(a)
        if call[0] < 0:
            raise _OutOfFuel
        v = base(a[:-1], call)
        return last(a) if y else v
    return run


def _primrec(base, step):
    def run(a, call):
        call[0] -= 1
        if call[0] < 0:
            raise _OutOfFuel
        xs = a[:-1]
        acc = base(xs, call)
        for i in range(a[-1]):
            acc = step(xs + (i, acc), call)
        return acc
    return run


def _search(g, bounded):
    def run(a, call):
        call[0] -= 1
        if call[0] < 0:
            raise _OutOfFuel
        for y in range(a[-1]) if bounded else itertools.count():
            call[0] -= 1
            if call[0] < 0:
                raise _OutOfFuel
            if g(a + (y,), call) == 0:
                return y
        return a[-1]  # only the bounded search runs out
    return run


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

_SEXPR_TOKEN = re.compile(r"\s*([()]|[a-z_]+|\d+)")
_SEXPR_EXPECTED = frozenset({"(", ")", "atom"})
_ATOMS = {"zero": ZeroFn, "succ": Succ}
_COMBINATORS = {"comp": Comp, "primrec": PrimRec, "mu": Mu, "bmu": BoundedMu}


def parse_def(text):
    """Read a definition from the s-expression DSL: atoms zero, succ,
    (proj i n); combinators (comp f g1 ... gk), (primrec f g), (mu g),
    (bmu g).  Structural violations raise IllFormed.  One pass from left to
    right keeps the combinators still open on a stack."""
    tokens = _tokenize(text, _SEXPR_TOKEN, _SEXPR_EXPECTED)

    def fail(pos, what):
        off = _byte_offset(text, tokens, pos)
        raise ParseError(f"at byte {off}: expected {what}",
                         offset=off, expected=frozenset({what}))

    def need(pos):
        if pos >= len(tokens):
            fail(pos, "more input")
        return tokens[pos][0]

    forms = []  # (head, parts read so far) of each open combinator, innermost last
    pos = 0
    while True:
        tok = need(pos)
        if tok in _ATOMS:
            d, pos = _ATOMS[tok](), pos + 1
        elif tok != "(":
            fail(pos, "definition")
        else:
            _check_nesting(len(forms), text, tokens, pos)
            head = need(pos + 1)
            if head in _COMBINATORS:
                forms.append((head, []))
                pos += 2
                continue
            if head != "proj":
                fail(pos + 1, "proj, comp, primrec, mu, or bmu")
            i_tok, n_tok = need(pos + 2), need(pos + 3)
            if not (i_tok.isdigit() and n_tok.isdigit()):
                fail(pos + 2, "two integers")
            if need(pos + 4) != ")":
                fail(pos + 4, ")")
            d, pos = Proj(_index(text, tokens, pos + 2), _index(text, tokens, pos + 3)), pos + 5
        # d is complete: it is the next part of the innermost form, and each
        # form that a ")" then closes is the next part of the one around it
        while forms:
            head, parts = forms[-1]
            parts.append(d)
            closed = need(pos) == ")"
            if head == "primrec" and len(parts) == 1 or head == "comp" and not closed:
                break
            if not closed:
                fail(pos, ")")
            if head == "comp" and len(parts) == 1:
                raise IllFormed("composition needs at least one inner function")
            forms.pop()
            build = _COMBINATORS[head]
            d = build(parts[0], parts[1:]) if head == "comp" else build(*parts)
            pos += 1
        if not forms:
            if pos != len(tokens):
                fail(pos, "end of input")
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
    _natural(x), _natural(y)
    if x < 1 or y < 1 or math.gcd(x, y) != 1:
        raise NotCoprime(f"{_shown(x)} and {_shown(y)} are not coprime naturals")
    return pow(x, -1, y)
