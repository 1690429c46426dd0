"""Independent expectations for the benchmark's correctness gate.

Nothing here calls into peano_forge: primes come from a sieve, Goedel codes
are rebuilt as plain products of prime powers, formulas are desugared and
tokenized by a separate walk, and recursive-function trees are run by a
separate evaluator with the same fuel rule (one unit per node visit and one
per minimization step).  Ramsey verdicts rest on known values: the
pigeonhole principle for n = 1, R(3,3) = 6, R(4,4) = 18 and the 3-uniform
R(4,4;3) = 13.
"""

from __future__ import annotations

import math


def sieve(limit):
    """Primality flags for 0..limit."""
    flags = [True] * (limit + 1)
    flags[0] = False
    if limit >= 1:
        flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(range(i * i, limit + 1, i))
    return flags


class Primes:
    """The first primes, grown by re-sieving a doubled range on demand."""

    def __init__(self):
        self._limit = 1 << 10
        self._list = [p for p, ok in enumerate(sieve(self._limit)) if ok]

    def __getitem__(self, i):
        while i >= len(self._list):
            self._limit *= 2
            self._list = [p for p, ok in enumerate(sieve(self._limit)) if ok]
        return self._list[i]


PRIMES = Primes()


def code_of(exponents):
    """prod p_i ** e_i over the listed exponents."""
    code = 1
    for i, e in enumerate(exponents):
        code *= PRIMES[i] ** e
    return code


def seq_code(xs):
    return code_of([x + 1 for x in xs])


def pair(x, y):
    s = x + y
    return s * (s + 1) // 2 + y


def colex_subsets(m, n):
    from itertools import combinations
    return sorted(combinations(range(m), n), key=lambda s: s[::-1])


def partition_code(m, n, colors):
    """The three-step partition code: subset sequence code, paired with the
    color, all listed in colex order as one sequence code."""
    return seq_code([pair(seq_code(list(s)), c)
                     for s, c in zip(colex_subsets(m, n), colors)])


# --- formulas -------------------------------------------------------------

SYMBOL = {"0": 1, "1": 2, "+": 3, "*": 4, "=": 5, "(": 6, ")": 7,
          "->": 8, "!": 9, "forall": 10}


def _kind(node):
    return type(node).__name__


def _term_vars(t):
    k = _kind(t)
    if k == "Var":
        return {t.index}
    if k in ("Add", "Mul"):
        return _term_vars(t.left) | _term_vars(t.right)
    return set()


def desugar(f, ast):
    """The coding-alphabet form of f, built with the constructors in ast:
    t1<t2 -> !forall xk !(t1+(xk+1) = t2) with k the least index free of
    both terms, exists -> !forall !, a&b -> !(a -> !b), a|b -> (!a -> b)."""
    k = _kind(f)
    if k == "Eq":
        return f
    if k == "Lt":
        used = _term_vars(f.left) | _term_vars(f.right)
        v = next(i for i in range(len(used) + 1) if i not in used)
        return ast.Not(ast.ForAll(v, ast.Not(ast.Eq(
            ast.Add(f.left, ast.Add(ast.Var(v), ast.One())), f.right))))
    if k == "Not":
        return ast.Not(desugar(f.body, ast))
    if k == "And":
        return ast.Not(ast.Implies(desugar(f.left, ast),
                                   ast.Not(desugar(f.right, ast))))
    if k == "Or":
        return ast.Implies(ast.Not(desugar(f.left, ast)), desugar(f.right, ast))
    if k == "Implies":
        return ast.Implies(desugar(f.left, ast), desugar(f.right, ast))
    if k == "ForAll":
        return ast.ForAll(f.var, desugar(f.body, ast))
    if k == "Exists":
        return ast.Not(ast.ForAll(f.var, ast.Not(desugar(f.body, ast))))
    raise TypeError(f"not a formula: {f!r}")


def tokens(node, out):
    """Symbol codes of a term or a desugared formula, appended to out."""
    k = _kind(node)
    if k in ("Zero", "One"):
        out.append(SYMBOL["0" if k == "Zero" else "1"])
    elif k == "Var":
        out.append(11 + node.index)
    elif k in ("Add", "Mul"):
        out.append(SYMBOL["("])
        tokens(node.left, out)
        out.append(SYMBOL["+" if k == "Add" else "*"])
        tokens(node.right, out)
        out.append(SYMBOL[")"])
    elif k == "Eq":
        tokens(node.left, out)
        out.append(SYMBOL["="])
        tokens(node.right, out)
    elif k == "Not":
        out.append(SYMBOL["!"])
        tokens(node.body, out)
    elif k == "Implies":
        out.append(SYMBOL["("])
        tokens(node.left, out)
        out.append(SYMBOL["->"])
        tokens(node.right, out)
        out.append(SYMBOL[")"])
    elif k == "ForAll":
        out.extend((SYMBOL["forall"], 11 + node.var))
        tokens(node.body, out)
    else:
        raise TypeError(f"outside the coding alphabet: {node!r}")
    return out


def numeral_term_code(n):
    """Code of the token string of numeral(n) = ((1 + 1) + ...) + 1 without
    building the nested term: n-1 opening parentheses, then 1, then
    "+ 1 )" n-1 times."""
    if n == 0:
        return code_of([SYMBOL["0"]])
    toks = [SYMBOL["("]] * (n - 1) + [SYMBOL["1"]]
    toks += [SYMBOL["+"], SYMBOL["1"], SYMBOL[")"]] * (n - 1)
    return code_of(toks)


# --- recursive functions --------------------------------------------------


class _OutOfFuel(Exception):
    pass


def pr_eval(d, args, fuel):
    """The value of tree d on args, or None when the run needs more fuel."""
    spent = 0

    def tick():
        nonlocal spent
        spent += 1
        if spent > fuel:
            raise _OutOfFuel

    def ev(d, args):
        tick()
        k = _kind(d)
        if k == "ZeroFn":
            return 0
        if k == "Succ":
            return args[0] + 1
        if k == "Proj":
            return args[d.i - 1]
        if k == "Comp":
            return ev(d.f, tuple(ev(g, args) for g in d.gs))
        if k == "PrimRec":
            acc = ev(d.base, args[:-1])
            for i in range(args[-1]):
                acc = ev(d.step, args[:-1] + (i, acc))
            return acc
        if k in ("BoundedMu", "Mu"):
            y = 0
            while k == "Mu" or y < args[-1]:
                tick()
                if ev(d.g, args + (y,)) == 0:
                    return y
                y += 1
            return y
        raise TypeError(f"not a definition node: {d!r}")

    try:
        return ev(d, tuple(args))
    except _OutOfFuel:
        return None


def fast_growing(n, x):
    """f_0(x) = x+2, f_1(x) = 2x+2, f_2(x) = 2^(x+2) - 2, and f_{n+1}(x)
    iterates f_n x times from 2."""
    if n == 0:
        return x + 2
    if n == 1:
        return 2 * x + 2
    if n == 2:
        return (1 << (x + 2)) - 2
    v = 2
    for _ in range(x):
        v = fast_growing(n - 1, v)
    return v


# --- partition calculus ---------------------------------------------------

# Least m with m -> (k)^n_2, for the (k, n) the benchmark uses.
RAMSEY_2 = {(3, 2): 6, (4, 2): 18, (4, 3): 13}


def arrow_holds(m, k, r, n):
    """m -> (k)^n_r for the instances with a known answer."""
    if n == 1:
        return m > r * (k - 1)
    if r != 2:
        raise KeyError((m, k, r, n))
    return m >= RAMSEY_2[(k, n)]


def ph_holds(m, k, r, n):
    """m ->* (k)^n_r where the answer is known: false wherever the plain
    relation fails, and true for m = 6, k = 3, n = 2, r = 2, since a
    monochromatic triangle on {0..5} has a least element of at most 3, its
    own size."""
    if not arrow_holds(m, k, r, n):
        return False
    if (m, k, r, n) == (6, 3, 2, 2):
        return True
    raise KeyError((m, k, r, n))
