import copy
import math
import pickle
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peano_forge import (
    Add,
    And,
    ArityMismatch,
    BoundedMu,
    BudgetExceeded,
    BudgetExhausted,
    Comp,
    Eq,
    Exists,
    FastGrowingBudget,
    ForAll,
    Formula,
    HomogReport,
    IllFormed,
    Implies,
    Lt,
    Mu,
    Mul,
    Not,
    NotCoprime,
    One,
    Or,
    PRDef,
    ParseError,
    Partition,
    PrimRec,
    Proj,
    QuantClass,
    Succ,
    Term,
    Undefined,
    UnknownName,
    Value,
    Var,
    Zero,
    ZeroFn,
    arity,
    bezout_inverse,
    eval_def,
    eval_nat,
    eval_term,
    parse_def,
    stdlib,
    stdlib_names,
)
from peano_forge.formula import Node, numeral
from helpers import NOT_NATURALS, random_prdef, random_valid_prdef, recursion_defect, shown, sieve
from oracles import pr_fuel_eval, reference_parse_def

ADD = PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 3),)))
FUEL = 10 ** 8


# --- arity ---

def test_arity_examples():
    assert arity(Succ()) == 1
    assert arity(Proj(2, 3)) == 3
    assert arity(PrimRec(ZeroFn(), Comp(Succ(), (Proj(3, 3),)))) == 2
    assert arity(ADD) == 2
    assert arity(Mu(Proj(2, 2))) == 1
    assert arity(Mu(Comp(Succ(), (ZeroFn(),)))) == 0


def test_arity_rejects_ill_formed():
    for d, message in (
        (Proj(4, 3), "projection index 4 outside 1..3"),
        (Comp(ADD, (Proj(1, 1),)),
         "composition head takes 2 arguments, got 1 inner functions"),
        (Comp(ADD, (Proj(1, 1), Proj(1, 2))),
         "inner functions of a composition disagree on arity"),
        (PrimRec(ZeroFn(), Proj(1, 2)), "recursion step must take 3 arguments, takes 2"),
        (BoundedMu(Proj(1, 1)), "bounded search needs an argument to bound it"),
        (Mu(Mu(Comp(Succ(), (ZeroFn(),)))), "search predicate needs the search variable"),
        # two defects: the head is checked before the inner-function count,
        # and the count before the inner functions themselves
        (Comp(PrimRec(ZeroFn(), Proj(1, 2)), (Proj(4, 3),)),
         "recursion step must take 3 arguments, takes 2"),
        (Comp(ADD, (Proj(4, 3),)),
         "composition head takes 2 arguments, got 1 inner functions"),
    ):
        with pytest.raises(IllFormed, match=re.escape(message)):
            arity(d)
    # a part that is no definition is refused when its combinator is built,
    # so arity meets only definitions; a root that is none is refused there
    for build, message in ((lambda: Comp(Succ(), ("zero",)), "not a definition node: 'zero'"),
                           (lambda: Comp(None, ()), "not a definition node: None"),
                           # inner functions that are not iterable are refused
                           # as one bad item, not by tuple()'s TypeError
                           (lambda: Comp(Succ(), None), "not a definition node: None"),
                           (lambda: Comp(Succ(), 5), "not a definition node: 5"),
                           (lambda: PrimRec(ZeroFn(), Zero()), "not a definition node: Zero()"),
                           (lambda: Mu(Proj), f"not a definition node: {Proj!r}"),
                           (lambda: BoundedMu(1), "not a definition node: 1"),
                           (lambda: PRDef(), "not a definition node: PRDef()"),
                           (lambda: arity("zero"), "not a definition node: 'zero'")):
        with pytest.raises(IllFormed) as info:
            build()
        assert str(info.value) == message
    for i, n, bad in (("1", 2, "'1'"), (True, 1, "True"), (1, -1, "-1"), (1.0, 1, "1.0"),
                      (1, None, "None")):
        with pytest.raises(ValueError) as info:
            Proj(i, n)
        assert str(info.value) == f"not a natural number: {bad}"


def _doubling_dag(levels):
    """x -> x * 2**levels as d = Comp(add, (d, d)) over Proj(1, 1), each
    level's two inner functions being one shared node."""
    add = PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 3),)))
    d = Proj(1, 1)
    for _ in range(levels):
        d = Comp(add, (d, d))
    return d


def test_shared_dag_value_and_least_fuel():
    # 2**40 paths through 46 distinct nodes; add(x, y) costs 2 + 3y.  The
    # outcomes are named before they are asserted, as the repr of such a
    # tree in a failure report would be 2**40 nodes long.
    for levels in (8, 40):
        d = _doubling_dag(levels)
        fuel, value = 1, 3  # Proj(1, 1) on 3
        for _ in range(levels):
            fuel, value = 1 + 2 * fuel + 2 + 3 * value, 2 * value
        k, enough, short = arity(d), eval_def(d, [3], fuel), eval_def(d, [3], fuel - 1)
        assert (k, enough, short) == (1, Value(3 * 2 ** levels), BudgetExhausted())
        if levels == 8:
            walked = pr_fuel_eval(d, [3], fuel)
            assert walked == (value, fuel)


def test_compile_runs_once_per_distinct_node(monkeypatch):
    import peano_forge.recfun as rf
    compiled = []
    compile_node = rf._compile
    monkeypatch.setattr(rf, "_compile",
                        lambda d, take: compiled.append(d) or compile_node(d, take))
    d = _doubling_dag(40)
    k, out = arity(d), eval_def(d, [1], 10 ** 20)
    assert (k, out) == (1, Value(2 ** 40))
    assert len(compiled) == 46 and len({id(n) for n in compiled}) == 46
    k = arity(d)
    assert k == 1 and len(compiled) == 46


def test_deep_chain_compiles_without_recursion():
    # the forms of a 600-level chain are built from an explicit stack
    d = Proj(1, 1)
    for _ in range(600):
        d = Comp(Succ(), (d,))
    assert eval_def(d, [0], 1201) == Value(600)
    assert eval_def(d, [0], 1200) == BudgetExhausted()


@recursion_defect("ROADMAP item 3: a node with no closed-form summary "
                  "recurses once per level at run time")
def test_deep_chain_without_a_summary_evaluates():
    # factorial has no affine summary, so each of the 600 levels is a frame
    d = Proj(1, 1)
    for _ in range(600):
        d = Comp(stdlib("factorial"), (d,))
    assert eval_def(d, [1], 10 ** 9) == Value(1)


# --- evaluation ---

def test_eval_examples():
    assert eval_def(ADD, [2, 3], FUEL) == Value(5)
    assert eval_def(Mu(Comp(Succ(), (ZeroFn(),))), [], 1000) == BudgetExhausted()
    g = parse_def("(bmu (comp succ (proj 3 3)))")  # never zero: defaults to bound
    assert eval_def(g, [0, 10], FUEL) == Value(10)


def test_bounded_mu_least_zero():
    # g(x, b, y) = 0 iff y >= 2, via truncated subtraction 2 - y
    two = parse_def("(comp succ (comp succ zero))")
    pred = parse_def("(comp (primrec zero (proj 2 3)) (proj 1 1) (proj 1 1))")
    sub = PrimRec(Proj(1, 1), Comp(pred, (Proj(3, 3),)))
    g = Comp(sub, (Comp(two, (Proj(1, 3),)), Proj(3, 3)))
    assert eval_def(BoundedMu(g), [0, 10], FUEL) == Value(2)


def test_eval_arity_mismatch():
    with pytest.raises(ArityMismatch):
        eval_def(ADD, [2], FUEL)


def test_eval_rejects_non_naturals():
    for bad in NOT_NATURALS:
        for args in ([2, bad], [bad, 0]):
            with pytest.raises(ValueError) as info:
                eval_def(ADD, args, FUEL)
            assert str(info.value) == f"not a natural number: {shown(bad)}"
        with pytest.raises(ValueError) as info:
            eval_def(ADD, [2, 3], bad)
        assert str(info.value) == f"fuel must be a natural number, got {shown(bad)}"


def test_mu_total_when_zero_exists():
    assert eval_def(parse_def("(mu (proj 2 2))"), [9], 1000) == Value(0)


def test_composition_strictness():
    # one inner function diverges, so the composition never returns a value
    zero2 = Comp(ZeroFn(), (Proj(1, 2),))
    one2 = Comp(Succ(), (zero2,))
    diverge1 = Mu(Comp(Succ(), (Comp(ZeroFn(), (Proj(1, 2),)),)))
    assert arity(diverge1) == 1
    h = Comp(ADD, (Comp(Succ(), (Proj(1, 1),)), diverge1))
    for fuel in (10, 100, 1000, 10000):
        assert eval_def(h, [3], fuel) == BudgetExhausted()


def test_fuel_monotonicity_and_totality_on_random_trees():
    rng = random.Random(31337)
    checked = 0
    for _ in range(100):
        d = random_valid_prdef(rng)
        args = [rng.randrange(4) for _ in range(arity(d))]
        fuel = 1000
        out = eval_def(d, args, fuel)
        while not isinstance(out, Value) and fuel < 10 ** 8:
            fuel *= 10
            out = eval_def(d, args, fuel)
        assert isinstance(out, Value), "search-free tree must be total"
        assert eval_def(d, args, 2 * fuel) == out
        assert eval_def(d, args, 4 * fuel) == out
        checked += 1
    assert checked == 100


def _least_fuel(d, args, fuel, value):
    """fuel is the least that evaluates d on args, to value."""
    assert eval_def(d, args, fuel) == Value(value), (args, fuel)
    assert eval_def(d, args, fuel - 1) == BudgetExhausted(), (args, fuel)


def _matches_oracle(d, args, fuel):
    """eval_def agrees with the step-by-step oracle in value and least
    sufficient fuel, or exhausts with it at fuel."""
    out = pr_fuel_eval(d, args, fuel)
    if out is None:
        assert eval_def(d, args, fuel) == BudgetExhausted(), (d, args)
    else:
        _least_fuel(d, args, out[1], out[0])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.booleans())
def test_eval_matches_fuel_oracle_on_random_trees(seed, mu):
    rng = random.Random(seed)
    d = random_valid_prdef(rng, depth=rng.randint(1, 4), mu=mu)
    _matches_oracle(d, [rng.randrange(6) for _ in range(arity(d))], 20000)


def test_eval_matches_fuel_oracle_on_stdlib():
    for name in stdlib_names():
        d = stdlib(name)
        small = range(5) if name in ("factorial", "nth_prime") else range(8)
        if arity(d) == 1:
            for x in small:
                _matches_oracle(d, [x], 10 ** 6)
        else:
            for x in small:
                for y in small:
                    _matches_oracle(d, [x, y], 10 ** 6)


def test_closed_form_fuel_of_add_and_mul():
    # each loop is charged at once, but the least sufficient fuel is that of
    # running it step by step: add's step costs 3, mul's step costs 5 + 3x
    add, mul = stdlib("add"), stdlib("mul")
    for x in range(31):
        for y in range(31):
            _least_fuel(add, [x, y], 2 + 3 * y, x + y)
            _least_fuel(mul, [x, y], 2 + y * (5 + 3 * x), x * y)
    big = 10 ** 6
    _least_fuel(mul, [big, big], 2 + big * (5 + 3 * big), big * big)


def test_exhausts_at_every_fuel_below_the_least():
    # the outcome is exact at every fuel, not only at the least and one
    # less: these calls run out inside compositions, accumulating loops and
    # general loops, each at the first node whose charge passes the fuel
    calls = [("mul", [3, 4]), ("pred", [5]), ("factorial", [3]), ("is_prime", [7]),
             ("max", [2, 5])]
    cases = [(stdlib(name), args) for name, args in calls]
    rng = random.Random(4242)
    while len(cases) < len(calls) + 20:
        d = random_valid_prdef(rng, depth=rng.randint(1, 4))
        args = [rng.randrange(6) for _ in range(arity(d))]
        if pr_fuel_eval(d, args, 2000) is not None:
            cases.append((d, args))
    for d, args in cases:
        value, least = pr_fuel_eval(d, args, 2000)
        for fuel in range(least):
            assert eval_def(d, args, fuel) == BudgetExhausted(), (d, args, fuel)
        assert eval_def(d, args, least) == Value(value), (d, args)


def test_memo_cap_keeps_fuel_exact(monkeypatch):
    import peano_forge.recfun as rf
    # step(x, i, acc) = sub_trunc(i, x): one memoized call per step, each
    # with new arguments, so the memo fills and is cleared twice
    sub = stdlib("sub_trunc")
    loop = PrimRec(ZeroFn(), Comp(sub, (Proj(2, 3), Proj(1, 3))))
    _matches_oracle(loop, [1, 2 * rf._MEMO_CAP + 1], 10 ** 6)
    # with a tiny cap the memo is cleared between hits
    monkeypatch.setattr(rf, "_MEMO_CAP", 3)
    for n in range(5):
        _matches_oracle(stdlib("nth_prime"), [n], 10 ** 6)
    _matches_oracle(loop, [2, 40], 10 ** 6)


def test_a_kept_form_is_read_only_by_its_compiler():
    # a formula that eval_nat has compiled fails as a definition exactly as
    # a fresh one does, alone or inside a definition: a root is checked
    # before its kept form is read, and a definition cannot hold a formula
    def outcomes(f):
        out = []
        for call in (lambda: eval_def(f, [], 10), lambda: arity(f),
                     lambda: arity(Comp(Succ(), (f,)))):
            with pytest.raises(Exception) as info:
                call()
            out.append((type(info.value), str(info.value)))
        return out

    fresh = outcomes(Eq(Zero(), Zero()))
    assert fresh == [(IllFormed, "not a definition node: Eq(left=Zero(), right=Zero())")] * 3
    f = Eq(Zero(), Zero())
    assert eval_nat(f, {}, 10) is True
    assert outcomes(f) == fresh
    assert eval_nat(f, {}, 10) is True


def _node_classes():
    found, stack = set(), [Node]
    while stack:
        for cls in stack.pop().__subclasses__():
            found.add(cls)
            stack.append(cls)
    return found


def test_evaluated_definitions_still_pickle():
    d = stdlib("nth_prime")
    eval_def(d, [3], FUEL)
    clone = pickle.loads(pickle.dumps(d))
    assert clone == d and eval_def(clone, [3], FUEL) == Value(7)
    # one instance of every node class, compiled and hashed: a pickle or a
    # deep copy rebuilds it from its fields and carries neither cache
    leaves = [cls() for cls in (Zero, One, ZeroFn, Succ, Undefined, BudgetExhausted)]
    zz = Eq(Zero(), Zero())
    nodes = leaves + [
        Var(0), Add(Var(0), One()), Mul(Var(1), Zero()), Eq(Var(0), Zero()),
        Lt(Zero(), Var(2)), Not(zz), Or(zz, Eq(Var(0), Zero())), Implies(zz, zz),
        And(zz, Eq(One(), One())), ForAll(0, Eq(Var(0), Var(0))), Exists(1, zz),
        QuantClass("Pi", 2), Proj(2, 3), Comp(Succ(), (ZeroFn(),)), ADD,
        BoundedMu(Proj(2, 2)), Mu(Proj(2, 2)), Value(7),
        HomogReport((0, 1, 2), 1, 3, True),
        FastGrowingBudget(max_result_bits=8, max_iterations=100),
        Partition(4, 2, 2, [0, 1, 0, 1, 0, 1]),
    ]
    # a kind (Term, Formula, ...) is never built
    assert {type(x) for x in nodes} == {c for c in _node_classes() if "_refusal" not in vars(c)}
    for x in nodes:
        if isinstance(x, PRDef):
            arity(x)
        outcome = _evaluated(x)
        assert outcome is None or getattr(x, "_code", None) is not None
        h = hash(x)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y is not x
            assert getattr(y, "_code", None) is None and getattr(y, "_hash", None) is None
            assert y == x and hash(y) == h
            assert _evaluated(y) == outcome


def _evaluated(x):
    """The outcome of evaluating a term or formula node x under a fixed env,
    which compiles it; None for any other node."""
    env = {0: 3, 1: 4, 2: 5}
    try:
        if isinstance(x, Term):
            return eval_term(x, env)
        if isinstance(x, Formula):
            return eval_nat(x, env, 10)
    except BudgetExceeded as exc:
        return str(exc)
    return None


def test_deep_and_shared_nodes_pickle_copy_and_print():
    # a deep chain and a deep sum: pickle, deepcopy and repr run on explicit
    # stacks, so none of them recurses once per level
    d = Proj(1, 1)
    for _ in range(600):
        d = Comp(stdlib("factorial"), (d,))
    n = numeral(3000)
    for x, text in ((d, "Comp(f=" * 600 + "Proj(i=1, n=1)" + ",))" * 600),
                    (n, "Add(left=" * 2999 + "One()" + ", right=One())" * 2999)):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y is not x and y == x
        head = repr(stdlib("factorial"))
        assert repr(x).replace(f"Comp(f={head}, gs=(", "Comp(f=") == text
    # 16 levels of d = Comp(add, (d, d)): a pickle names each of its 22
    # distinct nodes once, and the copy shares them as d does
    sizes = []
    for levels in (8, 16):
        d = _doubling_dag(levels)
        sizes.append(len(pickle.dumps(d)))
    assert sizes[1] - sizes[0] < sizes[0]
    clone = pickle.loads(pickle.dumps(d))
    assert clone == d and clone.gs[0] is clone.gs[1]


def test_reprs_match_the_dataclass_ones():
    assert repr(stdlib("pred")) == (
        "Comp(f=PrimRec(base=ZeroFn(), step=Proj(i=2, n=3)), "
        "gs=(Proj(i=1, n=1), Proj(i=1, n=1)))")
    assert repr(Comp(Succ(), [ZeroFn()])) == "Comp(f=Succ(), gs=(ZeroFn(),))"
    assert repr(QuantClass("Sigma", 0)) == "QuantClass(kind='Sigma', level=0)"
    assert repr(Value(7)) == "Value(value=7)"
    assert repr(HomogReport((0, 1, 2), 1, 3, True)) == (
        "HomogReport(set=(0, 1, 2), color=1, size=3, relatively_large=True)")
    assert repr(FastGrowingBudget(max_result_bits=8, max_iterations=100)) == (
        "FastGrowingBudget(max_result_bits=8, max_iterations=100)")


def test_repr_passes_on_a_value_error_not_about_digits():
    # only an int past the digit limit turns a ValueError into BudgetExceeded
    class Unprintable:
        def __repr__(self):
            raise ValueError("no text")

    with pytest.raises(ValueError, match="^no text$"):
        repr(Value(Unprintable()))


def test_eq_and_hash_of_a_shared_dag():
    # 40 levels of d = Comp(add, (d, d)): 2^40 paths through 46 distinct
    # nodes, each of which == and hash meet once
    d, twin, lower = _doubling_dag(40), _doubling_dag(40), _doubling_dag(39)
    start = time.perf_counter()
    assert d == twin and hash(d) == hash(twin) and d != lower
    assert time.perf_counter() - start < 1.0


# --- DSL ---

def test_parse_def_examples():
    assert parse_def("(primrec (proj 1 1) (comp succ (proj 3 3)))") == ADD
    assert parse_def("(comp succ zero)") == Comp(Succ(), (ZeroFn(),))
    assert parse_def("(mu (proj 2 2))") == Mu(Proj(2, 2))
    assert parse_def(" ( bmu ( proj 2 2 ) ) ") == BoundedMu(Proj(2, 2))


def test_parse_def_errors():
    with pytest.raises(ParseError):
        parse_def("(comp succ")
    with pytest.raises(ParseError):
        parse_def("(frob zero)")
    with pytest.raises(ParseError):
        parse_def("zero zero")
    with pytest.raises(IllFormed):
        parse_def("(comp succ zero zero)")
    with pytest.raises(IllFormed):
        parse_def("(proj 3 2)")
    # each message names the byte and what was expected there
    for text, off, what in (("(proj a 1)", 6, "two integers"),
                            ("(proj 1 1 1)", 10, ")"),
                            ("(primrec zero succ succ)", 19, ")"),
                            ("(mu succ zero)", 9, ")"),
                            ("(bmu succ zero)", 10, ")"),
                            ("(proj 1", 7, "more input"),
                            ("(frob)", 1, "proj, comp, primrec, mu, or bmu"),
                            ("(comp succ zero) succ", 17, "end of input"),
                            (")", 0, "definition")):
        with pytest.raises(ParseError) as ei:
            parse_def(text)
        assert str(ei.value) == f"at byte {off}: expected {what}", text
        assert (ei.value.offset, ei.value.expected) == (off, frozenset({what})), text
    for text in ("(comp succ)", "(comp (comp succ) zero"):
        with pytest.raises(IllFormed, match="^composition needs at least one inner function$"):
            parse_def(text)


def test_parse_def_nesting_budget():
    # 100 nested forms parse and evaluate inside pytest's own stack; one
    # more is a ParseError at the byte offset of the form that opens it
    def nest(k):
        return "(comp succ " * k + "(proj 1 1)" + ")" * k
    assert eval_def(parse_def(nest(99)), [5], FUEL) == Value(104)
    with pytest.raises(ParseError) as ei:
        parse_def(nest(100))
    assert ei.value.offset == 1100
    assert str(ei.value) == "at byte 1100: nesting deeper than 100 levels"


def test_parse_def_does_not_recurse_per_level():
    # 99 nested forms are read with 40 frames to spare above the caller: the
    # open forms are kept on a stack, not in one call per level
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    expected = Proj(1, 1)
    for _ in range(99):
        expected = Comp(Succ(), (expected,))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        d = parse_def("(comp succ " * 99 + "(proj 1 1)" + ")" * 99)
    finally:
        sys.setrecursionlimit(old)
    assert d == expected


def _sexpr(d):
    t = type(d)
    if t is ZeroFn or t is Succ:
        return "zero" if t is ZeroFn else "succ"
    if t is Proj:
        return f"(proj {d.i} {d.n})"
    if t is Comp:
        return "(comp " + " ".join(map(_sexpr, (d.f, *d.gs))) + ")"
    if t is PrimRec:
        return f"(primrec {_sexpr(d.base)} {_sexpr(d.step)})"
    return f"({'mu' if t is Mu else 'bmu'} {_sexpr(d.g)})"


def _read_outcome(read, text):
    try:
        return read(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "offset", None), getattr(e, "expected", None)


def test_parse_def_matches_the_recursive_reader():
    # the one-pass reader returns the recursive reader's definition, or
    # raises its exception with the same message, offset and expected set
    rng = random.Random(23)
    vocab = ["(", ")", "zero", "succ", "proj", "comp", "primrec", "mu", "bmu",
             "0", "1", "2", "3", "12", "x", "\u0663", "\u00b2"]
    spaces = [" ", "  ", "\n", "\t", "\u00a0"]

    def spell(tokens):
        return "".join(tok + rng.choice(spaces) for tok in tokens)

    texts = []
    for _ in range(2000):
        d = random_prdef(rng, rng.randint(1, 3), rng.randint(0, 4), mu=rng.random() < 0.5)
        tokens = _sexpr(d).replace("(", "( ").replace(")", " )").split()
        texts.append(spell(tokens))
        i = rng.randrange(len(tokens))
        texts.append(spell(tokens[:i] + tokens[i + 1:]))
        texts.append(spell(tokens[:i] + [rng.choice(vocab)] + tokens[i:]))
        replaced = tokens[:i] + [rng.choice(vocab)] + tokens[i + 1:]
        texts.append(spell(replaced))
        texts.append(spell(tokens[:i]))
        texts.append(spell(replaced[:rng.randint(i, len(tokens))]))
    for _ in range(2000):
        texts.append(spell(rng.choice(vocab) for _ in range(rng.randint(0, 12))))
    for k in (99, 100, 101):
        for opener, closer in (("(comp succ ", ")"), ("(mu ", ")"), ("(primrec zero ", ")"),
                               ("(comp ", " zero)")):
            texts.append(opener * k + "(proj 1 1)" + closer * k)
            texts.append(opener * k + "succ" + closer * (k - 1))
    # every token prefix of a few bad texts, at the top and at the budget
    for text in ("(proj x 1)", "(proj 1 x)", "(primrec zero (proj 2 2) succ)",
                 "(comp (comp succ) zero)", "(bmu (proj 1 x))"):
        tokens = text.replace("(", "( ").replace(")", " )").split()
        for outer in ("", "(comp succ " * 100):
            texts += [outer + spell(tokens[:i]) for i in range(len(tokens) + 1)]
    for index in ("9" * 5000, "\u0663", "\u0661\u0662", "\uff11"):
        texts += [f"(proj {index} 1)", f"(proj 1 {index})", f"(comp succ (proj {index} 3))"]
    assert len(texts) >= 10000
    mismatches = [t for t in texts if _read_outcome(parse_def, t) != _read_outcome(reference_parse_def, t)]
    assert mismatches == []


def test_parse_def_index_too_long_to_read():
    # int() reads at most sys.get_int_max_str_digits() digits (4300 by
    # default); a longer projection index is a ParseError at its token
    import sys
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter reads an int of any length")
    with pytest.raises(ParseError) as ei:
        parse_def("(proj " + "9" * 5000 + " 1)")
    assert ei.value.offset == 6
    assert str(ei.value) == "at byte 6: an index of 5000 digits is too long to read"


# --- standard library ---

def test_stdlib_names_complete():
    assert set(stdlib_names()) == {
        "add", "mul", "pred", "sub_trunc", "max", "min",
        "factorial", "is_prime", "nth_prime", "pair",
    }
    with pytest.raises(UnknownName):
        stdlib("ackermann")


def test_stdlib_binary_tables():
    ops = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "max": max,
        "min": min,
        "sub_trunc": lambda a, b: max(0, a - b),
    }
    for name, fn in ops.items():
        d = stdlib(name)
        for a in range(0, 51, 3):
            for b in range(0, 51, 3):
                assert eval_def(d, [a, b], FUEL) == Value(fn(a, b)), (name, a, b)


def test_stdlib_examples():
    assert eval_def(stdlib("mul"), [6, 7], FUEL) == Value(42)
    assert eval_def(stdlib("factorial"), [5], FUEL) == Value(120)
    assert eval_def(stdlib("nth_prime"), [3], FUEL) == Value(7)


def test_stdlib_pred_factorial():
    pred = stdlib("pred")
    for x in (0, 1, 2, 17):
        assert eval_def(pred, [x], FUEL) == Value(max(0, x - 1))
    fact = stdlib("factorial")
    for n in range(8):
        assert eval_def(fact, [n], FUEL) == Value(math.factorial(n))


def test_stdlib_primes_against_sieve():
    flags = sieve(100)
    isp = stdlib("is_prime")
    for x in range(0, 101):
        assert eval_def(isp, [x], FUEL) == Value(1 if flags[x] else 0), x
    primes = [x for x, f in enumerate(sieve(200)) if f]
    npr = stdlib("nth_prime")
    for i in (0, 1, 2, 5, 11):
        assert eval_def(npr, [i], 10 ** 9) == Value(primes[i])


def test_stdlib_pair_matches_closed_form():
    from peano_forge import pair as pair_fn
    d = stdlib("pair")
    for x in range(0, 21, 4):
        for y in range(0, 21, 4):
            assert eval_def(d, [x, y], FUEL) == Value(pair_fn(x, y))


def test_stdlib_is_search_free():
    def has_mu(d):
        if isinstance(d, Mu):
            return True
        if isinstance(d, Comp):
            return has_mu(d.f) or any(has_mu(g) for g in d.gs)
        if isinstance(d, PrimRec):
            return has_mu(d.base) or has_mu(d.step)
        if isinstance(d, BoundedMu):
            return has_mu(d.g)
        return False

    for name in stdlib_names():
        assert not has_mu(stdlib(name)), name


# --- Bezout ---

def test_bezout_examples():
    assert bezout_inverse(3, 7) == 5
    assert bezout_inverse(1, 1) == 0
    with pytest.raises(NotCoprime):
        bezout_inverse(4, 6)
    with pytest.raises(NotCoprime):
        bezout_inverse(0, 3)


def test_bezout_exhaustive():
    for x in range(1, 201):
        for y in range(1, 201):
            if math.gcd(x, y) != 1:
                continue
            z = bezout_inverse(x, y)
            assert 0 <= z < y or (y == 1 and z == 0)
            assert (x * z) % y == 1 % y
