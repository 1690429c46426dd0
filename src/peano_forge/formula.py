"""Syntax and standard-model semantics for the first-order language of
arithmetic: constants 0 and 1, binary + and *, relations = and <, the
propositional connectives, and quantifiers over variables x0, x1, ...
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    InvalidSchemaVariables,
    NotPrenex,
    ParseError,
    UnboundVariable,
)
from .tree import Node, _compiled, _folded, _plan

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


class Term(Node):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)


class Add(Term):
    __slots__ = ("left", "right")


class Mul(Term):
    __slots__ = ("left", "right")


class Formula(Node):
    __slots__ = ()


class Eq(Formula):
    __slots__ = ("left", "right")


class Lt(Formula):
    __slots__ = ("left", "right")


class Not(Formula):
    __slots__ = ("body",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


class ForAll(Formula):
    __slots__ = ("var", "body")


class Exists(Formula):
    __slots__ = ("var", "body")


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

# Deepest nesting parse accepts.  Each level (a parenthesized formula or
# term, a negation, a quantifier body, the right side of ->) costs the parser
# at most seven interpreter frames, so 100 levels stay well inside the default
# recursion limit of 1000 even when parse is called from deep in a stack.
_MAX_NESTING = 100

_TOKEN_RE = re.compile(r"forall\b|exists\b|x\d+|->|[01+*=<!&|()]")
_WS_RE = re.compile(r"\s*")
_EOF = "<end of input>"


_EXPECTED_TOKENS = frozenset(
    {"0", "1", "+", "*", "=", "<", "->", "!", "&", "|",
     "(", ")", "forall", "exists", "x<i>"}
)


def _tokenize(text, token_re, expected):
    """The (token, position) pairs of text, read with token_re; a character
    that starts no token is a ParseError that names the expected tokens."""
    tokens = []
    pos = 0
    while True:
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            return tokens
        m = token_re.match(text, pos)
        if m is None:
            off = _byte_offset(text[:pos], tokens, len(tokens))  # end of text read
            raise ParseError(
                f"unexpected character {text[pos]!r} at byte {off}",
                offset=off,
                expected=expected,
            )
        tokens.append((m.group(), pos))
        pos = m.end()


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


class _Retry(Exception):
    """Internal backtracking signal; never escapes parse()."""


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text, _TOKEN_RE, _EXPECTED_TOKENS)
        self.pos = 0
        self.depth = 0
        self.far_pos = 0
        self.far_expected = set()

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else _EOF

    def _fail(self, expected):
        if self.pos > self.far_pos:
            self.far_pos = self.pos
            self.far_expected = set(expected)
        elif self.pos == self.far_pos:
            self.far_expected |= set(expected)
        raise _Retry

    def _expect(self, tok):
        if self._peek() != tok:
            self._fail({tok})
        self.pos += 1

    def _nested(self, rule, opened_at):
        # run rule for one nesting level; opened_at indexes its opening token
        _check_nesting(self.depth, self.text, self.tokens, opened_at)
        self.depth += 1
        try:
            return rule()
        finally:
            self.depth -= 1

    def error(self):
        found = self.tokens[self.far_pos][0] if self.far_pos < len(self.tokens) else _EOF
        exp = ", ".join(sorted(self.far_expected))
        off = _byte_offset(self.text, self.tokens, self.far_pos)
        return ParseError(
            f"at byte {off}: found {found!r}, expected one of: {exp}",
            offset=off,
            expected=frozenset(self.far_expected),
        )

    def formula(self):
        return self._implication()

    def _variable(self):
        tok = self._peek()
        if tok is _EOF or tok[0] != "x" or len(tok) < 2:
            self._fail({"variable"})
        self.pos += 1
        return int(tok[1:])

    def _implication(self):
        # right-associative: read the chain, then fold it from the right
        parts = [self._disjunction()]
        while self._peek() == "->":
            self.pos += 1
            parts.append(self._disjunction())
        f = parts.pop()
        while parts:
            f = Implies(parts.pop(), f)
        return f

    def _disjunction(self):
        f = self._conjunction()
        while self._peek() == "|":
            self.pos += 1
            f = Or(f, self._conjunction())
        return f

    def _conjunction(self):
        f = self._unary()
        while self._peek() == "&":
            self.pos += 1
            f = And(f, self._unary())
        return f

    def _unary(self):
        # quantifiers bind tightly: their body is the next unary formula,
        # so binary connectives after a quantified group stay outside it
        tok = self._peek()
        start = self.pos
        if tok == "!":
            self.pos += 1
            return Not(self._nested(self._unary, start))
        if tok in ("forall", "exists"):
            self.pos += 1
            v = self._variable()
            body = self._nested(self._unary, start)
            return ForAll(v, body) if tok == "forall" else Exists(v, body)
        return self._primary()

    def _primary(self):
        # "(" may open a grouped formula or a parenthesized left-hand term
        if self._peek() == "(":
            saved = self.pos
            self.pos += 1
            try:
                f = self._nested(self.formula, saved)
                self._expect(")")
                return f
            except _Retry:
                self.pos = saved
        return self._atom()

    def _atom(self):
        t1 = self.term()
        tok = self._peek()
        if tok not in ("=", "<"):
            self._fail({"=", "<"})
        self.pos += 1
        t2 = self.term()
        return Eq(t1, t2) if tok == "=" else Lt(t1, t2)

    def term(self):
        t = self._product()
        while self._peek() == "+":
            self.pos += 1
            t = Add(t, self._product())
        return t

    def _product(self):
        t = self._term_primary()
        while self._peek() == "*":
            self.pos += 1
            t = Mul(t, self._term_primary())
        return t

    def _term_primary(self):
        tok = self._peek()
        if tok == "0":
            self.pos += 1
            return Zero()
        if tok == "1":
            self.pos += 1
            return One()
        if tok is not _EOF and tok[0] == "x" and len(tok) > 1:
            self.pos += 1
            return Var(int(tok[1:]))
        if tok == "(":
            self.pos += 1
            t = self._nested(self.term, self.pos - 1)
            self._expect(")")
            return t
        self._fail({"0", "1", "(", "variable"})


def _parse_with(text, rule):
    p = _Parser(text)
    try:
        node = rule(p)
        if p.pos != len(p.tokens):
            p._fail({"end of input"})
        return node
    except _Retry:
        raise p.error() from None


def parse(text):
    """Parse formula text into its AST; raises ParseError on bad input."""
    return _parse_with(text, _Parser.formula)


def parse_term(text):
    """Parse a bare term (used by tooling; formulas go through parse)."""
    return _parse_with(text, _Parser.term)


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


def _children(x):
    # the fields of an AST node but a variable index (Var's and a
    # quantifier's first field, when it is an int); none of any other object
    if type(x) not in _RENDER:
        return ()
    values = x._values()
    return values[1:] if type(x) in (Var, ForAll, Exists) and type(values[0]) is int else values


def _fold(node, visit):
    """Bottom-up fold: visit(x, args) runs once for every distinct node x,
    children first, where args lists the fields of x in declaration order
    with each child node replaced by its result (the variable index of Var
    and of a quantifier passes through as an int)."""
    def step(x, take):
        tp = type(x)
        if tp not in _RENDER:
            raise TypeError(f"not an AST node: {x!r}")
        values = x._values()
        if (tp is Var or tp is ForAll or tp is Exists) and type(values[0]) is int:
            return visit(x, [values[0], *map(take, values[1:])])
        return visit(x, list(map(take, values)))
    return _folded(node, _children, step)


def render(node):
    """Fully parenthesized canonical text; parse(render(f)) == f."""
    return _fold(node, lambda x, args: _RENDER[type(x)].format(*args))


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


def _vars(node, free):
    """Variable indices of node: the free ones, or all (bound ones too).
    Each subtree waits on an explicit stack with the variables bound above
    it (none when all are wanted), so deep trees cost no recursion."""
    found = set()
    stack = [(node, frozenset())]
    while stack:
        x, bound = stack.pop()
        t = type(x)
        if t is Var:
            if x.index not in bound:
                found.add(x.index)
        elif t in _BINARY:
            stack += ((x.right, bound), (x.left, bound))
        elif t is Not:
            stack.append((x.body, bound))
        elif t is ForAll or t is Exists:
            if free:
                bound = bound | {x.var}
            else:
                found.add(x.var)
            stack.append((x.body, bound))
        elif t is not Zero and t is not One:
            raise TypeError(f"not an AST node: {x!r}")
    return found


def term_vars(t):
    """All variable indices occurring in a term."""
    return _vars(t, True)


def free_vars(f):
    """Variable indices with at least one free occurrence; empty iff sentence."""
    return _vars(f, True)


def _fresh_index(used):
    i = 0
    while i in used:
        i += 1
    return i


def substitute(f, v, t):
    """Capture-avoiding substitution of term t for free occurrences of x_v.

    When a quantifier would capture a variable of t, its bound variable is
    renamed to the smallest index unused in both operands.
    """
    kept = {}  # quantifier id -> its new variable and the body to take

    def children(x):
        tp = type(x)
        if tp is not ForAll and tp is not Exists:
            if tp not in _RENDER:
                raise TypeError(f"not an AST node: {x!r}")
            return () if tp is Var else x._values()
        # decided when first met, so no body is substituted in vain; a
        # renamed body is planned in the place of the body
        if x.var == v or v not in free_vars(x.body):
            return ()
        if x.var not in term_vars(t):
            kept[id(x)] = x.var, x.body
        else:
            fresh = _fresh_index(_vars(x.body, False) | term_vars(t) | {x.var})
            kept[id(x)] = fresh, substitute(x.body, x.var, Var(fresh))
        return kept[id(x)][1:]

    def visit(x, take):
        tp = type(x)
        if tp is Var or tp is Zero or tp is One:
            return t if tp is Var and x.index == v else x
        if tp is ForAll or tp is Exists:
            return tp(kept[id(x)][0], take(kept[id(x)][1])) if id(x) in kept else x
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
    try:
        return None if v in term_vars(lt.right) else (v, lt.right, inclusive, f.body.right)
    except TypeError:  # a non-node in the bound: no guard, and compiling names it
        return None


def _check_matrix_node(x, args):
    # bounded sugar is part of the matrix; any other quantifier is not
    if (type(x) is ForAll or type(x) is Exists) and _bounded_parts(x) is None:
        raise NotPrenex("unbounded quantifier occurs under a connective")


def classify_prenex(f):
    """Sigma/Pi level of a prenex formula, counting maximal alternating
    blocks of unbounded quantifiers; bounded-quantifier sugar belongs to the
    matrix.  Quantifier-free formulas are Sigma(0) (= Pi(0)) by convention."""
    blocks = []
    g = f
    while isinstance(g, (ForAll, Exists)) and _bounded_parts(g) is None:
        kind = "E" if isinstance(g, Exists) else "A"
        if not blocks or blocks[-1] != kind:
            blocks.append(kind)
        g = g.body
    _fold(g, _check_matrix_node)
    if not blocks:
        return QuantClass("Sigma", 0)
    return QuantClass("Sigma" if blocks[0] == "E" else "Pi", len(blocks))


# ---------------------------------------------------------------------------
# Evaluation over the standard model
# ---------------------------------------------------------------------------


def _of_kind(x, kind):
    """x, when it is a Term or a Formula as kind asks; TypeError otherwise."""
    if not isinstance(x, kind):
        raise TypeError(f"not a {kind.__name__.lower()}: {x!r}")
    return x


def eval_term(t, env):
    """Value of a term under env (variable index -> natural)."""
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
    order = _plan(f, _children)[0]
    for x in order:
        if type(x) not in _RENDER:  # a variable index that is no int
            raise TypeError(f"not an AST node: {x!r}")
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
    gives it; an unbound variable is a KeyError.  Each child's kind is checked
    here, each guard matched and each quantifier's matrix scanned."""
    tp = type(x)
    if tp is Zero or tp is One:
        return (lambda env: 0) if tp is Zero else (lambda env: 1)
    if tp is Var:
        return itemgetter(x.index)
    if tp is Add or tp is Mul or tp is Eq or tp is Lt:
        left, right = take(_of_kind(x.left, Term)), take(_of_kind(x.right, Term))
        if tp is Add:
            return lambda env: left(env) + right(env)
        if tp is Mul:
            return lambda env: left(env) * right(env)
        if tp is Eq:
            return lambda env, budget: left(env) == right(env)
        return lambda env, budget: left(env) < right(env)
    if tp is Not:
        body = take(_of_kind(x.body, Formula))
        return lambda env, budget: body(env, budget) ^ True
    if tp is And or tp is Or or tp is Implies:
        left, right = take(_of_kind(x.left, Formula)), take(_of_kind(x.right, Formula))
        if tp is And:
            return lambda env, budget: (False if (a := left(env, budget)) is False
                                        else a & right(env, budget))
        if tp is Or:
            return lambda env, budget: (True if (a := left(env, budget)) is True
                                        else a | right(env, budget))
        return lambda env, budget: (True if (a := left(env, budget)) is False
                                    else (a ^ True) | right(env, budget))
    if tp is not ForAll and tp is not Exists:
        raise TypeError(f"not a {'term' if isinstance(x, Term) else 'formula'}: {x!r}")
    universal = tp is ForAll
    v, bound, inclusive, matrix = _bounded_parts(x) or (x.var, None, False, x.body)
    if bound is not None:
        bound = take(_of_kind(bound, Term))
    body = take(_of_kind(matrix, Formula))
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
    """The unique pair (s, r) with b == a*s + r and r < a; a must be nonzero."""
    if a == 0:
        raise DivisionByZero("division by zero")
    return divmod(b, a)
