"""Independent brute-force oracles.

These deliberately share no code with the engine: colorings are enumerated
as plain products with no pruning (one oracle skips the non-canonical
ones), qualifying sets are checked by scanning every subset size,
recursive-function trees are run by a plain walk that counts fuel step by
step, prime exponents are found by dividing by one prime at a time,
formulas are rewritten into the coding alphabet by one recursive call per
subformula, formulas are evaluated by one recursive call per subformula,
every range one value at a time, and terms are substituted by one
recursive call per subformula.  The reference text parser is the
backtracking recursive-descent parser that the engine's one-pass parser
replaced, kept as it was; it shares only the engine's tokenizer, its byte
offsets and its nesting check.  The reference symbol reader is the Goedel
decoder's reader as it was when it spelled each code as a token string.
The reference capture-avoiding substitution is the engine's as it was
before one scope walk replaced its per-quantifier calls: it asks for the
free variables of each quantifier's body and substitutes each renamed body
again; it shares only the plan of tree._folded.  The reference definition
reader is recfun.parse_def as it was when it called itself once per nesting
level; it shares only the engine's tokenizer, byte offsets, index reader and
nesting check.
"""

from itertools import combinations, product

from peano_forge.errors import (
    IllFormed,
    InvalidSchemaVariables,
    NotACode,
    ParseError,
    _byte_offset,
    _check_nesting,
    _index,
    _tokenize,
)
from peano_forge.formula import (
    _EOF,
    _EXPECTED_TOKENS,
    _TOKEN_RE,
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
)
from peano_forge.tree import _folded


def has_qualifying_set(m, n, k, large, color_of):
    for size in range(k, m + 1):
        for H in combinations(range(m), size):
            if large and len(H) < min(H):
                continue
            colors = {color_of[s] for s in combinations(H, n)}
            if len(colors) == 1:
                return True
    return False


def first_homogeneous(P, k, large):
    """The fields (set, color, size, relatively large) of the first
    homogeneous set in combinations order among the largest of size >= k
    (with |H| >= min H when large); None when there is none.  Every subset
    is listed, from size m down."""
    color_of = P.as_dict()
    for size in range(P.m, k - 1, -1):
        for H in combinations(range(P.m), size):
            if large and size < H[0]:
                continue
            colors = {color_of[s] for s in combinations(H, P.n)}
            if len(colors) == 1:
                return H, colors.pop(), size, size >= H[0]
    return None


def largest_monochromatic_clique(P):
    """The size of the largest set whose pairs all share one color, for a
    pair coloring P: a plain recursive branch and bound on vertex sets, one
    graph per color."""
    def grow(joined, cand, size):
        best = size
        for v in sorted(cand):
            if size + len(cand) <= best:
                break
            cand = cand - {v}
            best = max(best, grow(joined, cand & joined[v], size + 1))
        return best

    best = 0
    for c in range(P.r):
        joined = {v: set() for v in range(P.m)}
        for (a, b), color in P.items():
            if color == c:
                joined[a].add(b)
                joined[b].add(a)
        best = max(best, grow(joined, set(range(P.m)), 0))
    return best


def naive_counterexample(m, k, r, n, large=False):
    """First coloring (in plain base-r product order) with no qualifying
    homogeneous set; None if the arrow relation holds."""
    subs = list(combinations(range(m), n))
    for assignment in product(range(r), repeat=len(subs)):
        color_of = dict(zip(subs, assignment))
        if not has_qualifying_set(m, n, k, large, color_of):
            return color_of
    return None


def naive_first_canonical(m, k, r, n, large=False):
    """First coloring with no qualifying homogeneous set, in plain base-r
    product order over the n-subsets in colex order (the last subset varies
    fastest), among the canonical ones: no color exceeds by more than one
    the largest color before it.  Returned as the tuple of colors in
    colex order; None if the arrow relation holds."""
    subs = sorted(combinations(range(m), n), key=lambda s: s[::-1])
    for assignment in product(range(r), repeat=len(subs)):
        top = -1
        for c in assignment:
            if c > top + 1:
                break
            top = max(top, c)
        else:
            if not has_qualifying_set(m, n, k, large, dict(zip(subs, assignment))):
                return assignment
    return None


def naive_arrow(m, k, r, n, large=False):
    return naive_counterexample(m, k, r, n, large) is None


def naive_min_witness(k, r, n, large, max_m):
    for m in range(max(k, n), max_m + 1):
        if naive_arrow(m, k, r, n, large):
            return m
    return None


def factorial_mu_prime_chain(length):
    """The prime sequence via least-witness search below p!+1, the
    definitional route (practical only for small indexes)."""
    import math

    from peano_forge import bounded_mu

    def is_prime(x):
        if x < 2:
            return False
        d = 2
        while d * d <= x:
            if x % d == 0:
                return False
            d += 1
        return True

    primes = [2]
    while len(primes) < length:
        p = primes[-1]
        nxt = bounded_mu(lambda x: x > p and is_prime(x), math.factorial(p) + 1)
        primes.append(nxt)
    return primes


class _Starved(Exception):
    pass


def pr_fuel_eval(d, args, fuel):
    """(value, fuel used) of definition tree d on args, walked node by node
    with one unit per node visit and one per minimization step; None when
    the walk needs more than fuel."""
    used = 0

    def tick():
        nonlocal used
        used += 1
        if used > fuel:
            raise _Starved

    def walk(d, args):
        tick()
        kind = type(d).__name__
        if kind == "ZeroFn":
            return 0
        if kind == "Succ":
            return args[0] + 1
        if kind == "Proj":
            return args[d.i - 1]
        if kind == "Comp":
            return walk(d.f, [walk(g, args) for g in d.gs])
        if kind == "PrimRec":
            xs = list(args[:-1])
            acc = walk(d.base, xs)
            for i in range(args[-1]):
                acc = walk(d.step, xs + [i, acc])
            return acc
        if kind in ("BoundedMu", "Mu"):
            y = 0
            while kind == "Mu" or y < args[-1]:
                tick()
                if walk(d.g, list(args) + [y]) == 0:
                    return y
                y += 1
            return args[-1]
        raise TypeError(f"not a definition node: {d!r}")

    try:
        return walk(d, list(args)), used
    except _Starved:
        return None


def prime_exponents(a):
    """(exps, gap) for a positive a: the exponents of 2, 3, 5, ... in a, up to
    the first prime that does not divide what is left of a while that is
    above 1; gap is that prime's index, or None when nothing is left.  Plain
    trial division: one prime and one division by it at a time, the primes
    found by trial division too."""
    exps = []
    p = 2
    while a > 1:
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        if e == 0:
            return exps, len(exps)
        exps.append(e)
        p += 1
        while any(p % d == 0 for d in range(2, p)):
            p += 1
    return exps, None


def desugared(f):
    """f rewritten into =, ->, ! and forall, the textbook way: one recursive
    call per subformula, building the rewritten tree directly."""
    from peano_forge.formula import Add, Eq, ForAll, Implies, Not, One, Var

    kind = type(f).__name__
    if kind == "Eq":
        return f
    if kind == "Lt":
        used = _term_vars(f.left) | _term_vars(f.right)
        k = min(set(range(len(used) + 1)) - used)
        return Not(ForAll(k, Not(Eq(Add(f.left, Add(Var(k), One())), f.right))))
    if kind == "Not":
        return Not(desugared(f.body))
    if kind == "ForAll":
        return ForAll(f.var, desugared(f.body))
    if kind == "Exists":
        return Not(ForAll(f.var, Not(desugared(f.body))))
    a, b = desugared(f.left), desugared(f.right)
    if kind == "And":
        return Not(Implies(a, Not(b)))
    if kind == "Or":
        return Implies(Not(a), b)
    if kind == "Implies":
        return Implies(a, b)
    raise TypeError(f"not a formula: {f!r}")


def substituted(f, v, t):
    """f with term t for the free occurrences of x_v, the textbook way: one
    recursive call per subformula.  A quantifier over x_w with x_v free in
    its body and x_w in t first has x_w renamed to the smallest index that
    occurs nowhere in its body or in t and is not w."""
    from peano_forge.formula import Var

    kind = type(f).__name__
    if kind == "Var":
        return t if f.index == v else f
    if kind in ("Zero", "One"):
        return f
    if kind == "Not":
        return type(f)(substituted(f.body, v, t))
    if kind not in ("ForAll", "Exists"):
        return type(f)(substituted(f.left, v, t), substituted(f.right, v, t))
    if f.var == v or v not in _variables(f.body, free=True):
        return f
    var, body = f.var, f.body
    if var in _variables(t, free=True):
        used = _variables(body, free=False) | _variables(t, free=True) | {var}
        var = min(set(range(len(used) + 1)) - used)
        body = substituted(body, f.var, Var(var))
    return type(f)(var, substituted(body, v, t))


def _variables(node, free):
    # indices of the free variables of a term or formula, or of all of them
    kind = type(node).__name__
    if kind == "Var":
        return {node.index}
    if kind in ("Zero", "One"):
        return set()
    if kind == "Not":
        return _variables(node.body, free)
    if kind in ("ForAll", "Exists"):
        inner = _variables(node.body, free)
        return inner - {node.var} if free else inner | {node.var}
    return _variables(node.left, free) | _variables(node.right, free)


def eval_formula(f, env, budget):
    """Truth value of a formula in the standard model, the plain way:
    short-circuit connectives, and every quantifier checked one value at a
    time up from 0.  Bounded sugar (forall v (guard -> a), exists v (guard
    & a) with guard v<t, v<t | v=t or v=t | v<t, x_v not in t) ranges below
    or up to t; any other quantifier searches 0..budget and raises
    BudgetExceeded when no value there decides it."""
    from peano_forge import BudgetExceeded

    kind = type(f).__name__
    if kind in ("Eq", "Lt"):
        a, b = _term_value(f.left, env), _term_value(f.right, env)
        return a == b if kind == "Eq" else a < b
    if kind == "Not":
        return not eval_formula(f.body, env, budget)
    if kind == "And":
        return eval_formula(f.left, env, budget) and eval_formula(f.right, env, budget)
    if kind == "Or":
        return eval_formula(f.left, env, budget) or eval_formula(f.right, env, budget)
    if kind == "Implies":
        return not eval_formula(f.left, env, budget) or eval_formula(f.right, env, budget)
    if kind not in ("ForAll", "Exists"):
        raise TypeError(f"not a formula: {f!r}")
    universal = kind == "ForAll"
    sugar = bounded_sugar(f)
    if sugar is None:
        values, body = range(budget + 1), f.body
    else:
        t, inclusive, body = sugar
        values = range(_term_value(t, env) + inclusive)
    for x in values:
        r = eval_formula(body, {**env, f.var: x}, budget)
        if r != universal:
            return r
    if sugar is None:
        raise BudgetExceeded(
            f"quantifier search over x{f.var} inconclusive within budget {budget}")
    return universal


def bounded_sugar(f):
    # (t, inclusive, matrix) of bounded-quantifier sugar, or None
    body = f.body
    if type(body).__name__ != ("Implies" if type(f).__name__ == "ForAll" else "And"):
        return None
    guard = body.left
    if type(guard).__name__ == "Lt":
        lt, eq = guard, None
    elif type(guard).__name__ == "Or":
        atoms = {type(guard.left).__name__: guard.left, type(guard.right).__name__: guard.right}
        if set(atoms) != {"Lt", "Eq"}:
            return None
        lt, eq = atoms["Lt"], atoms["Eq"]
    else:
        return None

    def is_v(t):
        return type(t).__name__ == "Var" and t.index == f.var

    if not is_v(lt.left) or eq is not None and not (is_v(eq.left) and eq.right == lt.right):
        return None
    if f.var in _term_vars(lt.right):
        return None
    return lt.right, eq is not None, body.right


def _term_value(t, env):
    from peano_forge import UnboundVariable

    kind = type(t).__name__
    if kind == "Zero":
        return 0
    if kind == "One":
        return 1
    if kind == "Var":
        if t.index not in env:
            raise UnboundVariable(f"x{t.index} is not bound")
        return env[t.index]
    a, b = _term_value(t.left, env), _term_value(t.right, env)
    return a + b if kind == "Add" else a * b


def _term_vars(t):
    kind = type(t).__name__
    if kind == "Var":
        return {t.index}
    if kind in ("Add", "Mul"):
        return _term_vars(t.left) | _term_vars(t.right)
    return set()


_SYMBOL = {"Zero": 1, "One": 2, "Add": 3, "Mul": 4, "Eq": 5, "Implies": 8,
           "Not": 9, "ForAll": 10}


def symbol_codes(node):
    """Symbol codes of a term or of a formula over =, ->, ! and forall, by
    the table 0 1 + * = ( ) -> ! forall = 1..10 and x_i = 11 + i."""
    kind = type(node).__name__
    if kind == "Var":
        return [11 + node.index]
    if kind in ("Zero", "One"):
        return [_SYMBOL[kind]]
    if kind == "Not":
        return [_SYMBOL[kind]] + symbol_codes(node.body)
    if kind == "ForAll":
        return [_SYMBOL[kind], 11 + node.var] + symbol_codes(node.body)
    left, right = symbol_codes(node.left), symbol_codes(node.right)
    if kind == "Eq":
        return left + [_SYMBOL[kind]] + right
    return [6] + left + [_SYMBOL[kind]] + right + [7]  # ( left op right )


# --- reference text parser -----------------------------------------------

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


def reference_parse(text):
    """What formula.parse returned before it read text in one pass."""
    return _parse_with(text, _Parser.formula)


def reference_parse_term(text):
    """What formula.parse_term returned before it read text in one pass."""
    return _parse_with(text, _Parser.term)


# --- reference symbol reader ----------------------------------------------

_CODE_SYMBOLS = {1: "0", 2: "1", 3: "+", 4: "·", 5: "=", 6: "(", 7: ")", 8: "→", 9: "¬",
                 10: "∀"}


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


def reference_read(exps):
    """The formula whose symbol codes are exps; NotACode when they spell
    none.  formula._from_symbols as it was when it read each code as a token."""
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


# --- reference substitution -----------------------------------------------

_BINARY = (Add, Mul, Eq, Lt, And, Or, Implies)
_NODES = (Zero, One, Var, Not, ForAll, Exists, *_BINARY)


def _vars(node, free):
    """Variable indices of node: the free ones, or all (bound ones too).
    Each subtree waits on an explicit stack with the variables bound above
    it (none when all are wanted), so deep trees cost no recursion; an inner
    node is walked once per such set, so a shared one is not walked again."""
    found, seen = set(), set()
    stack = [(node, frozenset())]
    while stack:
        x, bound = stack.pop()
        t = type(x)
        if t is Var:
            if x.index not in bound:
                found.add(x.index)
            continue
        if t is Zero or t is One or (key := (id(x), bound)) in seen:
            continue
        seen.add(key)
        if t in _BINARY:
            stack += ((x.right, bound), (x.left, bound))
        elif t is Not:
            stack.append((x.body, bound))
        elif t is ForAll or t is Exists:
            if free:
                bound = bound | {x.var}
            else:
                found.add(x.var)
            stack.append((x.body, bound))
        else:
            raise TypeError(f"not an AST node: {x!r}")
    return found


def _fresh_index(used):
    i = 0
    while i in used:
        i += 1
    return i


def reference_substitute(f, v, t):
    """Capture-avoiding substitution of term t for free occurrences of x_v.

    When a quantifier would capture a variable of t, its bound variable is
    renamed to the smallest index unused in both operands.
    """
    kept = {}  # quantifier id -> its new variable and the body to take
    t_vars = None  # term_vars(t), once a quantifier needs them

    def children(x):
        nonlocal t_vars
        tp = type(x)
        if tp is not ForAll and tp is not Exists:
            if tp not in _NODES:
                raise TypeError(f"not an AST node: {x!r}")
            return () if tp is Var else x._values()
        # decided when first met, so no body is substituted in vain; a
        # renamed body is planned in the place of the body
        if x.var == v or v not in _vars(x.body, True):
            return ()
        t_vars = _vars(t, True) if t_vars is None else t_vars
        if x.var not in t_vars:
            kept[id(x)] = x.var, x.body
        else:
            fresh = _fresh_index(_vars(x.body, False) | t_vars | {x.var})
            kept[id(x)] = fresh, reference_substitute(x.body, x.var, Var(fresh))
        return kept[id(x)][1:]

    def visit(x, take):
        tp = type(x)
        if tp is Var or tp is Zero or tp is One:
            return t if tp is Var and x.index == v else x
        if tp is ForAll or tp is Exists:
            return tp(kept[id(x)][0], take(kept[id(x)][1])) if id(x) in kept else x
        return tp(*map(take, x._values()))
    return _folded(f, children, visit)


def reference_induction_instance(phi, x, params):
    """induction_instance as it was, over reference_substitute."""
    if x in params:
        raise InvalidSchemaVariables(
            f"induction variable x{x} also appears in the parameter list"
        )
    if len(set(params)) != len(params):
        raise InvalidSchemaVariables("duplicate parameter variables")
    base = reference_substitute(phi, x, Zero())
    step = ForAll(x, Implies(phi, reference_substitute(phi, x, Add(Var(x), One()))))
    out = Implies(And(base, step), ForAll(x, phi))
    for p in reversed(list(params)):
        out = ForAll(p, out)
    return out


# --- reference definition reader ------------------------------------------

def reference_parse_def(text):
    """What recfun.parse_def returned before it read text in one pass.

    Read a definition from the s-expression DSL: atoms zero, succ,
    (proj i n); combinators (comp f g1 ... gk), (primrec f g), (mu g),
    (bmu g).  Structural violations raise IllFormed."""
    # imported on call: the benchmark loads these oracles in each set-up
    # process, and most of its workloads never load recfun
    from peano_forge.recfun import (_SEXPR_EXPECTED, _SEXPR_TOKEN, BoundedMu, Comp, Mu,
                                    PrimRec, Proj, Succ, ZeroFn, arity)
    tokens = _tokenize(text, _SEXPR_TOKEN, _SEXPR_EXPECTED)

    def fail(pos, what):
        off = _byte_offset(text, tokens, pos)
        raise ParseError(f"at byte {off}: expected {what}",
                         offset=off, expected=frozenset({what}))

    def need(pos):
        if pos >= len(tokens):
            fail(pos, "more input")
        return tokens[pos][0]

    depth = 0

    def read(pos):
        nonlocal depth
        tok = need(pos)
        if tok == "zero":
            return ZeroFn(), pos + 1
        if tok == "succ":
            return Succ(), pos + 1
        if tok != "(":
            fail(pos, "definition")
        _check_nesting(depth, text, tokens, pos)
        depth += 1
        try:
            return form(pos)
        finally:
            depth -= 1

    def form(pos):
        # one parenthesized form, opened at tokens[pos]
        head = need(pos + 1)
        if head == "proj":
            i_tok, n_tok = need(pos + 2), need(pos + 3)
            if not (i_tok.isdigit() and n_tok.isdigit()):
                fail(pos + 2, "two integers")
            if need(pos + 4) != ")":
                fail(pos + 4, ")")
            return Proj(_index(text, tokens, pos + 2), _index(text, tokens, pos + 3)), pos + 5
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
