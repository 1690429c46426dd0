"""Shared builders for the test suite: seeded random AST generators, the
number-theory formulas used as evaluation subjects, and the values that no
natural-number argument takes."""

import functools

import pytest

from peano_forge import (
    Add,
    And,
    BoundedMu,
    Comp,
    Eq,
    Exists,
    ForAll,
    Implies,
    Lt,
    Mu,
    Mul,
    Not,
    One,
    Or,
    PrimRec,
    Proj,
    Succ,
    Var,
    Zero,
    ZeroFn,
    arity,
)


def random_term(rng, depth, max_var=3):
    if depth <= 0:
        return rng.choice([Zero(), One(), Var(rng.randrange(max_var + 1))])
    kind = rng.randrange(5)
    if kind == 0:
        return Zero()
    if kind == 1:
        return One()
    if kind == 2:
        return Var(rng.randrange(max_var + 1))
    left = random_term(rng, depth - 1, max_var)
    right = random_term(rng, depth - 1, max_var)
    return Add(left, right) if kind == 3 else Mul(left, right)


def random_formula(rng, depth, max_var=3):
    if depth <= 0:
        t1 = random_term(rng, 1, max_var)
        t2 = random_term(rng, 1, max_var)
        return Eq(t1, t2) if rng.random() < 0.5 else Lt(t1, t2)
    kind = rng.randrange(8)
    if kind == 0:
        return Eq(random_term(rng, depth, max_var), random_term(rng, depth, max_var))
    if kind == 1:
        return Lt(random_term(rng, depth, max_var), random_term(rng, depth, max_var))
    if kind == 2:
        return Not(random_formula(rng, depth - 1, max_var))
    if kind in (3, 4, 5):
        ctor = (And, Or, Implies)[kind - 3]
        return ctor(random_formula(rng, depth - 1, max_var),
                    random_formula(rng, depth - 1, max_var))
    ctor = ForAll if kind == 6 else Exists
    return ctor(rng.randrange(max_var + 1), random_formula(rng, depth - 1, max_var))


def messy_formula(rng, depth, max_var=4):
    """A random_formula over x0..x<max_var>, where about one node in seven
    is a subtree made before it, so the result is a DAG, not a tree."""
    pool = {"term": [], "formula": []}

    def make(kind, depth):
        if pool[kind] and rng.random() < 0.15:
            return rng.choice(pool[kind])
        if kind == "term":
            if depth <= 0 or rng.random() < 0.3:
                x = rng.choice([Zero(), One(), Var(rng.randrange(max_var + 1))])
            else:
                x = rng.choice([Add, Mul])(make("term", depth - 1), make("term", depth - 1))
        else:
            k = rng.randrange(8) if depth > 0 else rng.randrange(2)
            if k < 2:
                x = (Eq, Lt)[k](make("term", 2), make("term", 2))
            elif k == 2:
                x = Not(make("formula", depth - 1))
            elif k < 6:
                x = (And, Or, Implies)[k - 3](make("formula", depth - 1),
                                              make("formula", depth - 1))
            else:
                x = (ForAll, Exists)[k - 6](rng.randrange(max_var + 1), make("formula", depth - 1))
        pool[kind].append(x)
        return x
    return make("formula", depth), make("term", 2)


def capturing_formula(rng, v, t_vars, depth, max_var=4):
    """A messy_formula under depth quantifiers, each over a variable of t
    or another, with x_v free in every body, so that substituting a term
    with variables t_vars for x_v renames them in nested scopes."""
    f, _ = messy_formula(rng, rng.randint(0, 3), max_var)
    for _ in range(depth):
        w = rng.choice(sorted(t_vars) + [rng.randrange(max_var + 1)])
        atom = rng.choice([Eq, Lt])(Var(v), Var(rng.randrange(max_var + 1)))
        f = rng.choice([ForAll, Exists])(w, rng.choice([And, Or, Implies])(
            *rng.sample([f, atom], 2)))
    return f


def le_guard(v, t):
    """The v <= t bounded-quantifier guard, written as v < t | v = t."""
    return Or(Lt(Var(v), t), Eq(Var(v), t))


def divides_formula(x_var, y_var, z_var):
    """x | y as exists z <= y (x*z = y)."""
    return Exists(z_var, And(le_guard(z_var, Var(y_var)),
                             Eq(Mul(Var(x_var), Var(z_var)), Var(y_var))))


def prim_formula():
    """Primality of x0: x0 != 0 and x0 != 1 and every divisor below it is
    itself or 1 (divisor variable x1, product witness x2)."""
    body = Implies(divides_formula(1, 0, 2),
                   Or(Eq(Var(0), Var(1)), Eq(Var(1), One())))
    return And(Not(Eq(Var(0), Zero())),
               And(Not(Eq(Var(0), One())),
                   ForAll(1, Implies(le_guard(1, Var(0)), body))))


def irred_formula():
    """Irreducibility of x0 over divisors >= 1: every such divisor is 1 or
    x0 itself; the divisor search is bounded by x0."""
    body = Implies(Lt(Zero(), Var(1)),
                   Implies(divides_formula(1, 0, 2),
                           Or(Eq(Var(1), One()), Eq(Var(1), Var(0)))))
    return ForAll(1, Implies(le_guard(1, Var(0)), body))


def sieve(limit):
    """Primality table for 0..limit by the classic sieve."""
    flags = [True] * (limit + 1)
    flags[0] = False
    if limit >= 1:
        flags[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


def random_prdef(rng, target_arity, depth, mu=False):
    """A random definition of the requested arity, Mu-free unless mu."""
    if depth <= 0 or rng.random() < 0.3:
        if target_arity == 1 and rng.random() < 0.5:
            return rng.choice([ZeroFn(), Succ()])
        return Proj(rng.randint(1, target_arity), target_arity)
    kind = rng.randrange(4 if mu else 3)
    if kind == 0:
        inner_arity = rng.randint(1, 3)
        f = random_prdef(rng, inner_arity, depth - 1, mu)
        gs = tuple(random_prdef(rng, target_arity, depth - 1, mu)
                   for _ in range(inner_arity))
        return Comp(f, gs)
    if kind == 1 and target_arity >= 2:
        base = random_prdef(rng, target_arity - 1, depth - 1, mu)
        step = random_prdef(rng, target_arity + 1, depth - 1, mu)
        return PrimRec(base, step)
    ctor = Mu if kind == 3 else BoundedMu
    return ctor(random_prdef(rng, target_arity + 1, depth - 1, mu))


def random_valid_prdef(rng, depth=3, mu=False):
    while True:
        d = random_prdef(rng, rng.randint(1, 3), depth, mu)
        try:
            arity(d)
        except Exception:
            continue
        return d


def recursion_defect(reason):
    """Marks a test of a known RecursionError input as a strict xfail, so the
    change that mends the input has to turn it into a plain test.

    pytest renders each of the about 1000 frames of a RecursionError for the
    report, seconds per test, so the error is raised again with one frame."""
    def mark(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                return test(*args, **kwargs)
            except RecursionError as exc:
                message = str(exc)
            raise RecursionError(message)
        return pytest.mark.xfail(strict=True, raises=RecursionError, reason=reason)(run)
    return mark


# a bool, a float, a str, None, a negative int, and one of 5000 digits, past
# the interpreter's default limit on int-to-str conversions
NOT_NATURALS = (True, 1.5, "1", None, -1, -10 ** 5000)


def shown(x):
    """x as a refusal names it: an int of over 640 digits by its size."""
    return "-<an int of at least 2^16609>" if x == -10 ** 5000 else repr(x)
