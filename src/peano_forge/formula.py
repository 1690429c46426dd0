"""Syntax and standard-model semantics for the first-order language of
arithmetic: constants 0 and 1, binary + and *, relations = and <, the
propositional connectives, and quantifiers over variables x0, x1, ...;
and the Goedel codes of its terms and formulas, built on godel's number codes.
A node is built only from the terms, formulas and indices its rule takes.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    InvalidSchemaVariables,
    NotACode,
    NotPrenex,
    ParseError,
    UnboundVariable,
    _byte_offset,
    _check_nesting,
    _index,
    _natural,
    _tokenize,
)
from .godel import _contiguous_exponents, _power_product
from .tree import Node, _compiled, _folded, _of_kind, _plan, _printer, _subnodes

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


class Syntax(Node):  # a term or a formula
    __slots__ = ()
    _refusal = TypeError, "not an AST node"


class Term(Syntax):
    __slots__ = ()
    _refusal = TypeError, "not a term"


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)
    _kinds = (int,)


class Add(Term):
    __slots__ = ("left", "right")
    _kinds = (Term, Term)


class Mul(Term):
    __slots__ = ("left", "right")
    _kinds = (Term, Term)


class Formula(Syntax):
    __slots__ = ()
    _refusal = TypeError, "not a formula"


class Eq(Formula):
    __slots__ = ("left", "right")
    _kinds = (Term, Term)


class Lt(Formula):
    __slots__ = ("left", "right")
    _kinds = (Term, Term)


class Not(Formula):
    __slots__ = ("body",)
    _kinds = (Formula,)


class And(Formula):
    __slots__ = ("left", "right")
    _kinds = (Formula, Formula)


class Or(Formula):
    __slots__ = ("left", "right")
    _kinds = (Formula, Formula)


class Implies(Formula):
    __slots__ = ("left", "right")
    _kinds = (Formula, Formula)


class ForAll(Formula):
    __slots__ = ("var", "body")
    _kinds = (int, Formula)


class Exists(Formula):
    __slots__ = ("var", "body")
    _kinds = (int, Formula)


class QuantClass(Node):
    """Prenex classification: kind is "Sigma" or "Pi", level counts the
    maximal alternating blocks of unbounded quantifiers."""

    __slots__ = ("kind", "level")


def numeral(n):
    """The term 1+1+...+1 (n ones, left-nested); 0 is the constant 0."""
    if n == 0:
        return Zero()
    t = One()
    for _ in range(n - 1):
        t = Add(t, One())
    return t


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(forall\b|exists\b|x\d+|->|[01+*=<!&|()])")
_EOF = "<end of input>"
_END = "end of input"  # as a ParseError lists it among the expected tokens


_EXPECTED_TOKENS = frozenset(
    {"0", "1", "+", "*", "=", "<", "->", "!", "&", "|",
     "(", ")", "forall", "exists", "x<i>"}
)


def _unexpected(text, tokens, i, expected):
    """The ParseError for tokens[i] (or the end), naming the tokens that
    could have stood there."""
    found = tokens[i][0] if i < len(tokens) else _EOF
    off = _byte_offset(text, tokens, i)
    return ParseError(
        f"at byte {off}: found {found!r}, expected one of: {', '.join(sorted(expected))}",
        offset=off,
        expected=frozenset(expected),
    )


# How tightly each operator on _parse's stack binds.  "(" opens a group
# where a formula may start, "[" one inside a term, and the kind of text
# (Formula or Term) lies under all of them.  Prefix operators bind tighter
# than the connectives and looser than = and <, so their body is the next
# unary formula.  An arriving operator pops those that bind at least as
# tightly (-> only tighter ones: it groups to the right); ")" and the end
# pop all of them down to a group.
_POWER = {Formula: -1, Term: -1, "(": 0, "[": 0, ")": 1, _END: 1, "->": 1,
          "|": 2, "&": 3, "!": 4, "forall": 4, "exists": 4, "=": 5, "<": 5,
          "+": 6, "*": 7}
_BUILD = {"->": Implies, "|": Or, "&": And, "forall": ForAll, "exists": Exists,
          "=": Eq, "<": Lt, "+": Add, "*": Mul}

# The tokens that may follow an operand, by the innermost operator under
# the operand's + and *: "=" (or "<") once an atom is complete, "formula"
# after a complete formula, "(" for a left-hand term just inside a group,
# "lhs" for any other left-hand term, and "[" or Term inside a term.
_FOLLOW = {
    "=": {"+", "*", "&", "|", "->", ")", _END},
    "formula": {"&", "|", "->", ")", _END},
    "(": {"+", "*", "=", "<", ")"},
    "lhs": {"+", "*", "=", "<"},
    "[": {"+", "*", ")"},
    Term: {"+", "*", _END},
}


def _parse(text, want):
    """The Formula or Term (want) that text spells, read in one pass from
    left to right with an operand and an operator stack: Dijkstra's
    shunting-yard, with Pratt's prefix operators.  What a group opened
    where a formula may start holds makes it a formula or a term, so no
    token is read twice."""
    tokens = _tokenize(text, _TOKEN_RE, _EXPECTED_TOKENS)
    toks = list(map(itemgetter(0), tokens))
    toks.append(_END)
    out, ops = [], [want]
    depth = 0  # the "(", "[", "!" and quantifiers on ops
    lead = want is Formula  # may a formula start at toks[i]?
    i = 0
    while True:
        # prefix operators and opening parentheses, then 0, 1 or a variable
        t = toks[i]
        while t == "(" or lead and (t == "!" or t == "forall" or t == "exists"):
            opened = i
            if t != "(" and t != "!":  # a quantifier's variable goes to out
                i += 1
                if toks[i][0] != "x":
                    raise _unexpected(text, tokens, i, {"variable"})
                out.append(_index(text, tokens, i))
            _check_nesting(depth, text, tokens, opened)
            depth += 1
            ops.append(t if lead else "[")
            i += 1
            t = toks[i]
        if t == "0":
            out.append(Zero())
        elif t == "1":
            out.append(One())
        elif t[0] == "x":
            out.append(Var(_index(text, tokens, i)))
        else:
            raise _unexpected(text, tokens, i, {"0", "1", "(", "variable"})
        i += 1
        # closing parentheses, then one binary operator or the end
        while True:
            t = toks[i]
            k = -1
            m = ops[-1]
            while m == "+" or m == "*":
                k -= 1
                m = ops[k]
            if m == "<":
                m = "="
            elif m != "=" and m != "[" and m is not Term:
                m = ("(" if m == "(" else "lhs") if isinstance(out[-1], Term) else "formula"
            if t not in _FOLLOW[m]:
                # an error names what must come next, never a binary operator
                if m == "=" or m == "formula":  # either ")" or the end
                    expected = {")" if "(" in ops else _END}
                else:
                    expected = _FOLLOW[m] & {"=", "<", ")", _END}
                raise _unexpected(text, tokens, i, expected)
            floor = _POWER[t] + (t == "->")
            while True:
                power = _POWER[ops[-1]]
                if power < floor:
                    break
                op = ops.pop()
                x = out.pop()
                if power == 4:
                    depth -= 1
                    if op == "!":
                        out.append(Not(x))
                        continue
                out[-1] = _BUILD[op](out[-1], x)
            if t != ")" and t != _END:
                break
            if ops[-1] is want:
                if t == _END:
                    return out[0]
                raise _unexpected(text, tokens, i, {_END})
            if t == _END:
                raise _unexpected(text, tokens, i, {")"})
            ops.pop()
            depth -= 1
            i += 1
        ops.append(t)
        lead = floor < 4  # after &, | or ->
        i += 1


def parse(text):
    """Parse formula text into its AST; raises ParseError on bad input."""
    return _parse(text, Formula)


def parse_term(text):
    """Parse a bare term (used by tooling; formulas go through parse)."""
    return _parse(text, Term)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


# operator of each binary node, as render prints it
_BINARY = {Add: "+", Mul: "*", Eq: "=", Lt: "<", And: "&", Or: "|", Implies: "->"}

# each node class, with the format render prints it in
_RENDER = {
    Zero: "0", One: "1", Var: "x{}", Not: "!{}",
    ForAll: "forall x{} ({})", Exists: "exists x{} ({})",
    **{cls: f"({{}} {op} {{}})" for cls, op in _BINARY.items()},
}


def _fold(node, visit):
    """Bottom-up fold over a term or formula: visit(x, args) runs once for
    every distinct node x, children first, where args lists the fields of x
    in declaration order with each child node replaced by its result (a
    variable index passes through)."""
    return _folded(_of_kind(node, Syntax), _subnodes, lambda x, take: visit(
        x, [v if type(v) is int else take(v) for v in x._values()]))


@_printer
def render(node):
    """Fully parenthesized canonical text; parse(render(f)) == f."""
    return _fold(node, lambda x, args: _RENDER[type(x)].format(*args))


@_printer
def ast_text(node):
    """Compact constructor-style rendering of an AST, e.g. Eq(Zero, Zero)."""
    def visit(x, args):
        name = type(x).__name__
        return f"{name}({', '.join(map(str, args))})" if args else name
    return _fold(node, visit)


def to_json(node):
    """Tagged-union JSON export with fields "kind" and "args"."""
    return _fold(node, lambda x, args: {"kind": type(x).__name__.lower(), "args": args})


# ---------------------------------------------------------------------------
# Variables and substitution
# ---------------------------------------------------------------------------


def _scope(node, kept):
    """The free variables of node and its binders (the variables its
    quantifiers bind), by one explicit-stack walk.  The two sets of each
    quantifier's body are kept in kept[id(quantifier)] and read from there,
    and a shared node is walked once per quantifier body it lies in."""
    free, binders, seen, stack, outer = set(), set(), set(), [node], []
    while True:
        while stack:
            x = stack.pop()
            tp = type(x)
            if tp is Var:
                free.add(x.index)
            elif tp is not Zero and tp is not One and id(x) not in seen:
                seen.add(id(x))
                if tp in _BINARY:
                    stack += (x.right, x.left)
                elif tp is Not:
                    stack.append(x.body)
                else:  # a quantifier
                    binders.add(x.var)
                    outer.append((x, free, binders, seen, stack))
                    free, binders = kept.get(id(x)) or (set(), set())
                    seen, stack = set(), [] if id(x) in kept else [x.body]
        if not outer:
            return free, binders
        (q, free, binders, seen, stack), body = outer.pop(), (free, binders)
        kept[id(q)] = body
        free |= body[0] - {q.var}
        binders |= body[1]


def term_vars(t):
    """All variable indices occurring in a term."""
    return _scope(_of_kind(t, Term), {})[0]


def free_vars(f):
    """Variable indices with at least one free occurrence; empty iff sentence."""
    return _scope(_of_kind(f, Syntax), {})[0]


def _fresh_index(used):
    i = 0
    while i in used:
        i += 1
    return i


class _Under(tuple):
    # (node, renamings): node as substitute plans it where more than x_v -> t
    # is in force; renamings maps variables to the terms that replace them
    __slots__ = ()


def _under(nodes, renamings, entries):
    # the _Under entry of each of nodes under renamings, made once per pair
    return [entries.setdefault((id(c), id(renamings)), _Under((c, renamings))) for c in nodes]


def substitute(f, v, t):
    """Capture-avoiding substitution of term t for free occurrences of x_v.

    When a quantifier would capture a variable of t, its bound variable is
    renamed to the smallest index unused in both operands.  The renamings in
    force travel with the one pass (simultaneous substitution: Stoughton,
    "Substitution revisited", 1988), so no renamed body is walked again.
    """
    _of_kind(f, Syntax), _natural(v), _of_kind(t, Term)
    scopes = {}  # id(quantifier) -> _scope of its body, walked when first needed
    # id(entry) -> (variable, body entry) of a quantifier that changes, and
    # (id(node), id(renamings)) -> the _Under entry of node under renamings
    kept = {}
    t_vars = None  # term_vars(t), once a quantifier needs them

    def children(e):
        nonlocal t_vars
        x, tp, renamings = e, type(e), None
        if tp is _Under:
            x, renamings = e
            tp = type(x)
            if tp is not ForAll and tp is not Exists:
                return () if tp is Var else _under(x._values(), renamings, kept)
        elif tp is not ForAll and tp is not Exists:
            return () if tp is Var else x._values()
        # decided when first met, so no body is substituted in vain: the
        # body takes the renamings in force of its free variables but var
        var = x.var
        if renamings is None and var == v:
            return ()
        free, binders = scopes.get(id(x)) or scopes.setdefault(id(x), _scope(x.body, scopes))
        if renamings is None:  # x_v -> t alone, and var is not v
            renamings, names = {v: t}, {v} & free
        else:
            names = renamings.keys() & free - {var}
        inner = dict(zip(names, map(renamings.get, names)))
        if v in inner:
            t_vars = term_vars(t) if t_vars is None else t_vars
            if var in t_vars:  # renamed to an index that none of these hold
                renamed = {r.index for r in inner.values() if r is not t}
                inner[var] = Var(_fresh_index(free | binders | t_vars | renamed))
                var = inner[var].index
        if not inner:
            return ()
        inner = None if list(inner) == [v] else renamings if inner == renamings else inner
        body = x.body if inner is None else _under((x.body,), inner, kept)[0]
        kept[id(e)] = var, body
        return (body,)

    def visit(e, take):
        x, tp = e, type(e)
        if tp is Var or tp is Zero or tp is One:
            return t if tp is Var and x.index == v else x
        if tp is _Under:
            x, renamings = e
            tp = type(x)
            if tp is Var:
                return renamings.get(x.index, x)
            if tp is not ForAll and tp is not Exists:
                values = _under(x._values(), renamings, kept)
                return tp(*map(take, values)) if values else x
        if tp is ForAll or tp is Exists:
            return tp(kept[id(e)][0], take(kept[id(e)][1])) if id(e) in kept else x
        return tp(*map(take, x._values()))
    return _folded(f, children, visit)


def induction_instance(phi, x, params):
    """Instance of the induction schema for phi with induction variable x_x
    and parameter variables params (universally closed, outermost first)."""
    if x in params:
        raise InvalidSchemaVariables(
            f"induction variable x{x} also appears in the parameter list"
        )
    if len(set(params)) != len(params):
        raise InvalidSchemaVariables("duplicate parameter variables")
    base = substitute(phi, x, Zero())
    step = ForAll(x, Implies(phi, substitute(phi, x, Add(Var(x), One()))))
    out = Implies(And(base, step), ForAll(x, phi))
    for p in reversed(list(params)):
        out = ForAll(p, out)
    return out


# ---------------------------------------------------------------------------
# Prenex classification
# ---------------------------------------------------------------------------


def _bounded_parts(f):
    """Decompose bounded-quantifier sugar: returns (var, bound term,
    inclusive, matrix) or None.  Patterns: forall v (v<t -> psi) and
    exists v (v<t & psi), where the guard v<t may also be written
    v<t | v=t or v=t | v<t (inclusive), with v not free in t."""
    t = type(f)
    if not (t is ForAll and type(f.body) is Implies or t is Exists and type(f.body) is And):
        return None
    v, lt = f.var, f.body.left
    inclusive = type(lt) is Or
    if inclusive:
        lt, eq = lt.left, lt.right
        if type(lt) is Eq:
            lt, eq = eq, lt
        if type(eq) is not Eq or type(eq.left) is not Var or eq.left.index != v:
            return None
    if (type(lt) is not Lt or type(lt.left) is not Var or lt.left.index != v
            or inclusive and lt.right != eq.right):
        return None
    return None if v in term_vars(lt.right) else (v, lt.right, inclusive, f.body.right)


def classify_prenex(f):
    """Sigma/Pi level of a prenex formula, counting maximal alternating
    blocks of unbounded quantifiers; bounded-quantifier sugar belongs to the
    matrix.  Quantifier-free formulas are Sigma(0) (= Pi(0)) by convention."""
    blocks = []
    g = _of_kind(f, Formula)
    while isinstance(g, (ForAll, Exists)) and _bounded_parts(g) is None:
        kind = "E" if isinstance(g, Exists) else "A"
        if not blocks or blocks[-1] != kind:
            blocks.append(kind)
        g = g.body
    # bounded sugar is part of the matrix; any other quantifier is not
    if any((type(x) is ForAll or type(x) is Exists) and _bounded_parts(x) is None
           for x in _plan(g, _subnodes)[0]):
        raise NotPrenex("unbounded quantifier occurs under a connective")
    if not blocks:
        return QuantClass("Sigma", 0)
    return QuantClass("Sigma" if blocks[0] == "E" else "Pi", len(blocks))


# ---------------------------------------------------------------------------
# Evaluation over the standard model
# ---------------------------------------------------------------------------


def _check_env(env):
    # a list would be indexed by variable, and None fail as no mapping
    if not isinstance(env, dict):
        raise TypeError(f"env must be a dict, got {type(env).__name__}")


def eval_term(t, env):
    """Value of a term under env, a dict (variable index -> natural)."""
    _check_env(env)
    try:
        return _compiled(_of_kind(t, Term), _compile)(env)
    except KeyError as exc:
        raise UnboundVariable(f"x{exc.args[0]} is not bound") from None


def eval_nat(f, env, budget):
    """Truth value of f in the standard model under env.

    Bounded-quantifier sugar is evaluated exactly.  A genuinely unbounded
    quantifier is searched over 0..budget: a universal falsified or an
    existential witnessed within the range returns exactly; otherwise
    BudgetExceeded is raised (the search was inconclusive, never a value).

    A quantifier-free f may also be evaluated with a variable bound to an
    int64 array: the connectives then combine elementwise, and they stop
    early only when their left side is the bool that decides them.
    """
    _check_env(env)
    _natural(budget, "budget")
    try:
        return _compiled(_of_kind(f, Formula), _compile)(env, budget)
    except KeyError as exc:
        raise UnboundVariable(f"x{exc.args[0]} is not bound") from None


_VECTORIZE_MIN = 32
_INT64_LIMIT = 2 ** 62


def _bounding_terms(f):
    """The compiled forms of the atom sides and product factors of f, a
    compiled formula, or None when f holds a quantifier.  As + and * are
    monotone on the naturals, their values bound every term value in f,
    even next to a zero."""
    order = _plan(f, _subnodes)[0]
    if any(type(x) is ForAll or type(x) is Exists for x in order):
        return None
    return [_compiled(t, _compile) for x in order if type(x) in (Eq, Lt, Mul)
            for t in (x.left, x.right)]


# numpy, imported by a quantifier the first time it vectorizes a range: the
# import costs more than most CLI commands take to run
np = None

# a vectorized range is checked in int64 chunks that double from
# _FIRST_CHUNK values up to _VECTOR_CHUNK, so an early witness stops the
# search soon and memory stays bounded for large bounds
_FIRST_CHUNK = 1 << 12
_VECTOR_CHUNK = 1 << 20


def _chunks(count):
    lo, size = 0, _FIRST_CHUNK
    while lo < count:
        hi = min(lo + size, count)
        yield np.arange(lo, hi, dtype=np.int64)
        lo, size = hi, min(2 * size, _VECTOR_CHUNK)


def _compile(x, take):
    """The evaluator of one node, built by _compiled: run(env) is the value
    of a term and run(env, budget) the truth value of a formula, as eval_nat
    gives it; an unbound variable is a KeyError.  Each guard is matched here,
    and each quantifier's matrix scanned."""
    tp = type(x)
    if tp is Zero or tp is One:
        return (lambda env: 0) if tp is Zero else (lambda env: 1)
    if tp is Var:
        return itemgetter(x.index)
    if tp is Add or tp is Mul or tp is Eq or tp is Lt:
        left, right = take(x.left), take(x.right)
        if tp is Add:
            return lambda env: left(env) + right(env)
        if tp is Mul:
            return lambda env: left(env) * right(env)
        if tp is Eq:
            return lambda env, budget: left(env) == right(env)
        return lambda env, budget: left(env) < right(env)
    if tp is Not:
        body = take(x.body)
        return lambda env, budget: body(env, budget) ^ True
    if tp is And or tp is Or or tp is Implies:
        left, right = take(x.left), take(x.right)
        if tp is And:
            return lambda env, budget: (False if (a := left(env, budget)) is False
                                        else a & right(env, budget))
        if tp is Or:
            return lambda env, budget: (True if (a := left(env, budget)) is True
                                        else a | right(env, budget))
        return lambda env, budget: (True if (a := left(env, budget)) is False
                                    else (a ^ True) | right(env, budget))
    universal = tp is ForAll
    v, bound, inclusive, matrix = _bounded_parts(x) or (x.var, None, False, x.body)
    if bound is not None:
        bound = take(bound)
    body = take(matrix)
    terms = _bounding_terms(matrix)

    def run(env, budget):
        global np
        # exact check over v in 0..count-1, one value or, where each of terms
        # is below 2^62 with v at its largest value, one int64 chunk at a
        # time: body then returns an array, or a bool where the value does
        # not depend on v
        count = budget + 1 if bound is None else bound(env) + inclusive
        env2 = {**env, v: count - 1}
        values = range(count)
        try:
            fits = count > _VECTORIZE_MIN and terms and all(t(env2) < _INT64_LIMIT for t in terms)
        except KeyError:  # an unbound variable, which the loop names
            fits = False
        if fits:
            if np is None:
                import numpy as np
            values = _chunks(count)
        for val in values:
            env2[v] = val
            r = body(env2, budget)
            if type(r) is not bool:
                r = bool(r.all() if universal else r.any())
            if r is not universal:
                return r
        if bound is None:  # no value in 0..budget decided it
            raise BudgetExceeded(f"quantifier search over x{v} inconclusive "
                                 f"within budget {budget}")
        return universal
    return run


def euclid_div(b, a):
    """The unique pair (s, r) with b == a*s + r and r < a, for naturals b and
    a; a must be nonzero."""
    _natural(b), _natural(a)
    if a == 0:
        raise DivisionByZero("division by zero")
    return divmod(b, a)


# ---------------------------------------------------------------------------
# Goedel coding of terms and formulas
# ---------------------------------------------------------------------------

# The code #a of each symbol a of the coding alphabet, in which ·, →, ¬ and ∀
# stand for *, ->, ! and forall; x_i's code is 11 + i.  A symbol string
# a1...an is coded as 2^#a1 * 3^#a2 * ... * p_n^#an.
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


class _Pending:
    """A quantifier's index on the stack of _from_symbols, apart from the
    codes there."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _symbols(node, kind):
    """Symbol codes of a term (kind Term) or of a formula (kind Formula).

    A formula is written in the coding alphabet (=, ->, !, forall), so this
    walk is the one place where the abbreviations are spelled out:

        t1 < t2     !forall xk !((t1 + (xk + 1)) = t2), k the least index
                    not free in the atom
        a & b       !(a -> !b)
        a | b       (!a -> b)
        exists v a  !forall v !a

    The walk runs on an explicit stack of nodes, codes to write and None, the
    end of an atom's sides (a tree holds no int or None where a node
    belongs), so deep trees cost neither recursion nor list copies.  Once
    the sides are written, k is read off the variable codes they wrote."""
    codes = []
    # codes ( ) = 1 + * ! -> and a < atom's placeholder -1 for x_k, which no code equals
    open_, close, eq, one, plus, times, neg, arrow, slot = 6, 7, 5, 2, 3, 4, 9, 8, -1
    stack = [_of_kind(node, kind)]
    # None outside the sides of an atom; in them -1, or where a < atom's codes begin
    sides = -1 if kind is Term else None
    while stack:
        x = stack.pop()
        t = type(x)
        if t is int:
            codes.append(x)
        elif x is None:
            if sides >= 0:
                k = 11 + _fresh_index({c - 11 for c in codes[sides:]})
                codes[sides + 2] = codes[codes.index(-1, sides + 3)] = k
            sides = None
        elif sides is not None:
            if t is Zero:
                codes.append(1)
            elif t is One:
                codes.append(2)
            elif t is Var:
                codes.append(11 + x.index)
            else:  # + or *
                codes.append(6)  # (
                stack += (close, x.right, plus if t is Add else times, x.left)
        elif t is Eq:
            stack += (None, x.right, eq, x.left)
            sides = -1
        elif t is Lt:
            sides = len(codes)
            codes += (9, 10, -1, 9, 6)  # ! forall x_k ! (
            stack += (None, x.right, eq, close, close, one, plus, slot, open_, plus, x.left)
        elif t is Not:
            codes.append(9)
            stack.append(x.body)
        elif t is ForAll or t is Exists:
            v = 11 + x.var
            codes += (10, v) if t is ForAll else (9, 10, v, 9)
            stack.append(x.body)
        elif t is Implies:
            codes.append(6)
            stack += (close, x.right, arrow, x.left)
        elif t is And:
            codes += (9, 6)
            stack += (close, x.right, neg, arrow, x.left)
        else:  # |
            codes += (6, 9)
            stack += (close, x.right, arrow, x.left)
    return codes


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
    return _from_symbols(_symbols(f, Formula))


def _close(stack):
    # the node that ")" completes on top of stack, popping "(" left op right;
    # None when the top does not read so
    if len(stack) < 4 or stack[-4] != 6:  # (
        return None
    left, op, right = stack[-3:]
    if op == 8 and isinstance(left, Formula) and isinstance(right, Formula):  # ->
        node = Implies(left, right)
    elif (op == 3 or op == 4) and isinstance(left, Term) and isinstance(right, Term):  # + or *
        node = (Add if op == 3 else Mul)(left, right)
    else:
        return None
    del stack[-4:]
    return node


def decode_formula(code):
    """Inverse of encode_formula on the desugared alphabet.  NotACode on a
    prime-support gap or an ungrammatical string."""
    return _from_symbols(_contiguous_exponents(code))


def _from_symbols(exps):
    """The formula whose symbol codes are exps; NotACode when they spell
    none."""
    if not exps:
        raise NotACode("the empty string is not a formula")
    # Shift-reduce: every term and formula of the alphabet is complete at its
    # last symbol, so it is reduced there and nothing is ever retried.  The
    # stack holds codes, nodes, and each quantifier's index in a _Pending.
    stack = []
    for e in exps:
        if e > 10:  # the variable x_(e-11)
            if stack and stack[-1] == 10:  # after forall
                stack.append(_Pending(e - 11))
                continue
            x = Var(e - 11)
        elif e == 1:
            x = Zero()
        elif e == 2:
            x = One()
        elif e != 7 or (x := _close(stack)) is None:
            stack.append(e)
            continue
        # x is complete: fold it into the constructs that it closes
        while stack:
            top = stack[-1]
            if isinstance(x, Term):
                if top != 5 or len(stack) < 2 or not isinstance(stack[-2], Term):  # =
                    break
                x = Eq(stack[-2], x)
                del stack[-2:]
            elif top == 9:  # !
                x = Not(x)
                stack.pop()
            elif type(top) is _Pending:
                x = ForAll(top.value, x)
                del stack[-2:]
            else:
                break
        stack.append(x)
    if not isinstance(stack[0], Formula):
        raise NotACode("token string is not a formula")
    if len(stack) > 1:
        raise NotACode("trailing symbols after a complete formula")
    return stack[0]
