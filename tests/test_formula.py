import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from peano_forge import (
    Add,
    And,
    BudgetExceeded,
    DivisionByZero,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    InvalidSchemaVariables,
    Lt,
    Mul,
    Not,
    NotPrenex,
    One,
    Or,
    ParseError,
    QuantClass,
    Term,
    UnboundVariable,
    Var,
    Zero,
    ast_text,
    classify_prenex,
    eval_nat,
    eval_term,
    euclid_div,
    free_vars,
    induction_instance,
    numeral,
    parse,
    parse_term,
    render,
    substitute,
    term_vars,
    to_json,
)
from helpers import (
    NOT_NATURALS,
    capturing_formula,
    le_guard,
    messy_formula,
    prim_formula,
    random_formula,
    random_term,
    recursion_defect,
    shown,
    sieve,
)
from oracles import (
    bounded_sugar,
    eval_formula,
    reference_induction_instance,
    reference_parse,
    reference_parse_term,
    reference_substitute,
    substituted,
)


# --- parsing ---

def test_parse_examples():
    assert parse("0 = 0") == Eq(Zero(), Zero())
    assert parse("forall x0 (x0 < x0 + 1)") == ForAll(0, Lt(Var(0), Add(Var(0), One())))
    assert parse("exists x1 (x0 = x1 * (1+1))") == Exists(
        1, Eq(Var(0), Mul(Var(1), Add(One(), One()))))


def test_parse_connectives_and_precedence():
    assert parse("!(0 = 0)") == Not(Eq(Zero(), Zero()))
    assert parse("(0 = 0) & (1 = 1)") == And(Eq(Zero(), Zero()), Eq(One(), One()))
    assert parse("(0 = 0) -> (0 < 1)") == Implies(Eq(Zero(), Zero()), Lt(Zero(), One()))
    assert parse("0 + 1 * 1 = 1") == Eq(Add(Zero(), Mul(One(), One())), One())
    assert parse("(0 + 1) * 1 = 1") == Eq(Mul(Add(Zero(), One()), One()), One())


def test_parse_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as ei:
        parse("(0 =")
    assert ei.value.offset == 4
    assert ei.value.expected
    with pytest.raises(ParseError) as ei:
        parse("0 = $")
    assert ei.value.offset == 4
    with pytest.raises(ParseError):
        parse("forall y0 (0 = 0)")
    with pytest.raises(ParseError):
        parse("0 = 0 0")


def test_tokenizer_reads_each_token_once_and_names_a_stray_character():
    # one match per token, each where the last one ended; the first
    # character that starts no token is named at its UTF-8 byte offset
    text = " forall\tx12 (x3 ->\n !x0 = 1)  "
    assert fm_tokenize(text) == [("forall", 1), ("x12", 8), ("(", 12), ("x3", 13),
                                 ("->", 16), ("!", 20), ("x0", 21), ("=", 24), ("1", 26),
                                 (")", 27)]
    assert fm_tokenize("") == [] and fm_tokenize(" \n ") == []
    for text, char, off in (("0 = $", "$", 4), ("0 = é 1", "é", 4), ("é = 0", "é", 0),
                            ("0 =\u00a0é", "é", 5), ("forallx = 0", "f", 0),
                            ("0 = 0 # 0 = 0", "#", 6)):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == f"unexpected character {char!r} at byte {off}", text
        assert ei.value.offset == off and "x<i>" in ei.value.expected
    from peano_forge import parse_def
    with pytest.raises(ParseError, match=r"^unexpected character 'é' at byte 6$"):
        parse_def("(succ é)")


def test_tokenizer_reads_a_long_whitespace_run_in_linear_time():
    # a run of whitespace that no token follows is read once, not rescanned
    # from each of its characters (200000^2/2 steps would take minutes)
    from peano_forge import Succ, parse_def
    n = 200_000
    start = time.perf_counter()
    assert parse("0 = 1" + " " * n) == Eq(Zero(), One())
    assert type(parse_def("succ" + "\n" * n)) is Succ
    for call, text in ((parse, "0 = 1" + " " * n + "$"), (parse_def, "succ" + " " * n + "$")):
        with pytest.raises(ParseError) as ei:
            call(text)
        assert str(ei.value) == f"unexpected character '$' at byte {len(text) - 1}"
    assert time.perf_counter() - start < 1.0


def fm_tokenize(text):
    from peano_forge.errors import _tokenize
    from peano_forge.formula import _EXPECTED_TOKENS, _TOKEN_RE
    return _tokenize(text, _TOKEN_RE, _EXPECTED_TOKENS)


def test_parse_nesting_budget():
    # every kind of nesting level is accepted up to the budget without a
    # RecursionError, here deep inside pytest's own stack, and one level
    # more is a ParseError at the byte offset of the token that opens it
    from peano_forge.errors import _MAX_NESTING as n
    for nest, opened_at in (
        (lambda k: "(" * k + "0 = 0" + ")" * k, n),
        (lambda k: "(" * k + "x0" + ")" * k + " = 0", n),
        (lambda k: "0 = " + "(" * k + "0" + ")" * k, 4 + n),
        (lambda k: "!" * k + "0 = 0", n),
        (lambda k: "forall x0 " * k + "0 = 0", 10 * n),
    ):
        parse(nest(n))
        with pytest.raises(ParseError) as ei:
            parse(nest(n + 1))
        assert ei.value.offset == opened_at
        assert str(ei.value) == f"at byte {opened_at}: nesting deeper than {n} levels"
    # a chain of -> is read by a loop and folded to the right, so its length
    # is not a nesting level
    f = Eq(Zero(), Zero())
    for _ in range(150):
        f = Implies(Eq(Zero(), Zero()), f)
    chain = parse("0 = 0 -> " * 150 + "0 = 0")
    assert chain == f
    assert render(chain) == "((0 = 0) -> " * 150 + "(0 = 0)" + ")" * 150


def test_render_examples():
    assert render(Eq(Zero(), Zero())) == "(0 = 0)"
    assert render(numeral(2)) == "(1 + 1)"
    assert render(ForAll(0, Lt(Var(0), Add(Var(0), One())))) == "forall x0 ((x0 < (x0 + 1)))"


def test_parse_render_round_trip_random():
    rng = random.Random(20260809)
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 5))
        assert parse(render(f)) == f


def test_parse_term_round_trip_random():
    rng = random.Random(20261018)
    for _ in range(300):
        t = random_term(rng, rng.randint(0, 5))
        assert parse_term(render(t)) == t


def test_parse_term_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as info:
        parse_term("x0 * (1 + )")
    assert info.value.offset == 10
    assert info.value.expected == frozenset({"0", "1", "(", "variable"})
    with pytest.raises(ParseError) as info:
        parse_term("1 + x0 = 1")  # a formula is no term
    assert (info.value.offset, info.value.expected) == (7, frozenset({"end of input"}))


def _parse_outcome(read, text):
    # the AST read returns, or the text, offset and expected set of its error
    try:
        return repr(read(text))
    except ParseError as e:
        return str(e), e.offset, e.expected


_TOKENS = ["0", "1", "+", "*", "=", "<", "->", "!", "&", "|", "(", ")",
           "forall", "exists", "x0", "x1"]


def _mutated(rng, text):
    # text with one to three tokens deleted, inserted or replaced
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(3)
        if edit == 1 or not tokens:
            tokens.insert(j, rng.choice(_TOKENS))
        elif edit == 0:
            del tokens[min(j, len(tokens) - 1)]
        else:
            tokens[min(j, len(tokens) - 1)] = rng.choice(_TOKENS)
    return " ".join(tokens)


def test_parse_matches_the_reference_parser():
    # the one-pass parser gives the backtracking parser's AST, or its error
    # text, offset and expected set, on every text read as a formula and
    # as a term
    rng = random.Random(20261019)
    texts = []
    for _ in range(600):
        texts.append(render(random_formula(rng, rng.randint(0, 4))))
        texts.append(render(random_term(rng, rng.randint(0, 4))))
        texts.append(_mutated(rng, render(random_formula(rng, rng.randint(0, 3)))))
        texts.append(_mutated(rng, render(random_term(rng, rng.randint(0, 3)))))
        texts.append(" ".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 12))))
    from peano_forge.errors import _MAX_NESTING as n
    for k in (n - 1, n, n + 1):
        for prefix in ("(", "!", "forall x0 ", "x0 = (", "(x0 + "):
            for tail in ("0 = 0", "x0", "x0) = 1", "", "0 = 0" + ")" * k, "x0" + ")" * k + " = 1"):
                texts.append(prefix * k + tail)
    reduced = ["0", "+", "=", "&", "->", "!", "(", ")", "forall", "x0"]
    for length in range(5):
        texts.extend(" ".join(t) for t in itertools.product(reduced, repeat=length))
    for text in texts:
        assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text), text
        assert _parse_outcome(parse_term, text) == _parse_outcome(reference_parse_term, text), text


def test_parse_checks_each_opener_once(monkeypatch):
    # one pass: a left-hand term inside d parentheses opens d levels, each
    # checked once (backtracking at each "(" checked d(d+3)/2 of them)
    import peano_forge.formula as fm
    calls = []
    check = fm._check_nesting

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(fm, "_check_nesting", counted)
    for d in (10, 50, 99):
        calls.clear()
        assert parse("(" * d + "x0" + ")" * d + " = 1") == Eq(Var(0), One())
        assert len(calls) == d


def test_an_index_too_long_to_read_is_a_parse_error():
    # int() reads at most sys.get_int_max_str_digits() digits (4300 by
    # default); a longer index is a ParseError at its token, not a ValueError
    import sys
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter reads an int of any length")
    digits = "9" * 5000
    for text, offset in ((f"x{digits} = 0", 0), (f"forall x{digits} (0 = 0)", 7)):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.offset == offset
        assert str(ei.value) == f"at byte {offset}: an index of 5000 digits is too long to read"


def test_printers_walk_deep_trees():
    # the parser's loop builds this flat sum left-nested, 1500 levels deep;
    # the printers walk it without recursion (parse(render(f)) would exceed
    # the nesting budget, and == on such a tree recurses, so no round trip)
    f = parse("0 = 1" + " + 1" * 1500)
    assert render(f) == "(0 = " + "(" * 1500 + "1" + " + 1)" * 1500 + ")"
    assert ast_text(f) == "Eq(Zero, " + "Add(" * 1500 + "One" + ", One)" * 1500 + ")"
    one = {"kind": "one", "args": []}
    node = to_json(f)
    assert node["kind"] == "eq" and node["args"][0] == {"kind": "zero", "args": []}
    node = node["args"][1]
    for _ in range(1500):
        assert node["kind"] == "add" and node["args"][1] == one
        node = node["args"][0]
    assert node == one


def test_printers_reject_non_nodes():
    # a node cannot hold a non-node where a term or a formula belongs (see
    # test_nodes_check_their_fields_when_built), so only the root is checked
    for bad in (3, None, "0", QuantClass("Pi", 1)):
        for call in (render, ast_text, to_json, free_vars, lambda f: substitute(f, 0, One())):
            with pytest.raises(TypeError) as info:
                call(bad)
            assert str(info.value) == f"not an AST node: {bad!r}"


def test_printers_name_an_index_past_the_digit_limit():
    # the interpreter refuses to write an int of more than
    # sys.get_int_max_str_digits() digits (4300 by default); the printers
    # name such an index by its size instead of raising its ValueError
    import sys
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter writes ints of any length")
    from peano_forge import desugar
    big = Var(10 ** 5000)  # 16610 bits
    for f in (Eq(Zero(), big), desugar(Lt(big, One())), ForAll(10 ** 5000, Eq(big, Zero()))):
        for printer in (render, ast_text, repr):
            with pytest.raises(BudgetExceeded, match=r"^an int of at least 2\^16609 has more"):
                printer(f)
    assert render(Eq(Zero(), Var(10 ** 500))) == f"(0 = x{10 ** 500})"
    assert repr(Var(10 ** 500)) == f"Var(index={10 ** 500})"


# --- numerals ---

def test_numeral_shape():
    assert numeral(0) == Zero()
    assert numeral(1) == One()
    assert numeral(3) == Add(Add(One(), One()), One())
    assert eval_term(numeral(17), {}) == 17


def test_eq_and_hash_at_any_depth():
    chain = "0 = 0" + " & 0 = 0" * 1500
    for build in (lambda: numeral(3000), lambda: parse(chain)):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
    assert numeral(3000) != numeral(2999)
    assert parse(chain) != parse(chain[:-1] + "1")


def test_eq_and_hash_of_a_shared_dag():
    # 40 levels of f = f & f: 2^40 paths through 41 distinct nodes
    def dag():
        f = Eq(Var(0), Zero())
        for _ in range(40):
            f = And(f, f)
        return f
    f, twin = dag(), dag()
    assert f == twin and hash(f) == hash(twin)
    assert f != And(twin.left, Eq(Var(0), One()))


# --- free variables ---

def test_free_vars():
    assert free_vars(Eq(Var(0), Var(1))) == {0, 1}
    assert free_vars(ForAll(0, Eq(Var(0), Zero()))) == set()
    assert free_vars(ForAll(0, Eq(Var(0), Var(1)))) == {1}


# --- substitution ---

def test_substitute_basic():
    assert substitute(Eq(Var(0), Zero()), 0, One()) == Eq(One(), Zero())
    got = substitute(ForAll(0, Eq(Var(0), Var(1))), 1, numeral(2))
    assert got == ForAll(0, Eq(Var(0), Add(One(), One())))


def test_substitute_capture_renames_to_smallest_fresh():
    got = substitute(ForAll(1, Eq(Var(1), Var(0))), 0, Var(1))
    assert got == ForAll(2, Eq(Var(2), Var(1)))


def test_substitution_sound_on_standard_model():
    rng = random.Random(404)
    checked = 0
    for _ in range(250):
        f = random_formula(rng, rng.randint(0, 3))
        v = rng.randrange(4)
        n = rng.randrange(4)
        env = {i: rng.randrange(4) for i in range(4) if i != v}
        try:
            lhs = eval_nat(substitute(f, v, numeral(n)), env, 40)
            rhs = eval_nat(f, {**env, v: n}, 40)
        except BudgetExceeded:
            continue
        assert lhs == rhs, (f, v, n, env)
        checked += 1
    assert checked > 100


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_substitute_matches_the_plain_oracle(seed):
    # variables x0-x4 in both operands, so quantifiers capture variables of
    # the term and are renamed; the induction instance is built on it
    rng = random.Random(seed)
    f = random_formula(rng, rng.randint(0, 4), max_var=4)
    t = random_term(rng, rng.randint(0, 2), max_var=4)
    v = rng.randrange(5)
    assert substitute(f, v, t) == substituted(f, v, t)
    params = rng.sample([p for p in range(5) if p != v], rng.randint(0, 2))
    step = ForAll(v, Implies(f, substituted(f, v, Add(Var(v), One()))))
    expected = Implies(And(substituted(f, v, Zero()), step), ForAll(v, f))
    for p in reversed(params):
        expected = ForAll(p, expected)
    assert induction_instance(f, v, params) == expected


def _outcome(call):
    # ("value", what call() returns), or the type and text of what it raises
    try:
        return "value", call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_substitute_matches_the_reference_on_messy_input(seed):
    # DAGs and capture in nested scopes, under a live quantifier and under
    # none.  The value, or the exception's type and message, is the
    # reference's, the walk that one scope walk replaced.
    rng = random.Random(seed)
    t_picks = [Var(1), Add(Var(1), One()), Add(Var(2), Var(3)), Zero()]
    cases = []
    for i in range(300):
        v, t = rng.randrange(5), rng.choice(t_picks)
        if i % 2:
            f, _ = messy_formula(rng, rng.randint(0, 5))
        else:
            f = capturing_formula(rng, v, {1, 2, 3}, rng.randint(1, 5))
        cases.append((f, v, t))
    for f, v, t in cases:
        assert _outcome(lambda: substitute(f, v, t)) == _outcome(
            lambda: reference_substitute(f, v, t)), (f, v, t)
        params = [p for p in range(3) if p != v][:rng.randrange(3)]
        assert _outcome(lambda: induction_instance(f, v, params)) == _outcome(
            lambda: reference_induction_instance(f, v, params)), (f, v, params)


def test_substitute_checks_its_term_where_the_variable_is_not_free():
    # t is checked as a root, before the walk: a t that is no term is
    # refused even where no x_v occurs free, and so never lands in the tree;
    for f in (Eq(Var(0), Zero()), Eq(Zero(), Zero()), ForAll(0, Eq(Var(0), Zero()))):
        for t in (None, 5, Eq(Zero(), Zero())):
            with pytest.raises(TypeError) as info:
                substitute(f, 0, t)
            assert str(info.value) == f"not a term: {t!r}"
    # so is a variable that is no natural int, which no tree can hold free
    for v in ("0", -1, [1], True):
        with pytest.raises(ValueError) as info:
            substitute(ForAll(1, Eq(Var(0), Zero())), v, One())
        assert str(info.value) == f"not a natural number: {v!r}"


def test_substitute_and_induction_on_deep_trees():
    # 1500 and 3000 levels deep; == on such trees recurses, so the results
    # are compared as text
    t = Add(Var(1), One())
    for f in (parse("x0 = 0" + " & x0 = 0" * 1500),
              parse("x0 = 1" + " + x0" * 1500),
              Eq(Var(0), numeral(3000))):
        phi = render(f)
        assert render(substitute(f, 0, t)) == phi.replace("x0", "(x1 + 1)")
        base, step = phi.replace("x0", "0"), phi.replace("x0", "(x0 + 1)")
        assert render(induction_instance(f, 0, [1])) == (
            f"forall x1 ((({base} & forall x0 (({phi} -> {step}))) -> forall x0 ({phi})))")


def test_nested_renamings_run_once_each(monkeypatch):
    # each of the 1500 quantifiers over x1 would capture the x1 substituted
    # for x0, so each is renamed to x2, once
    import peano_forge.formula as fm
    f = Eq(Var(0), Var(1))
    for _ in range(1500):
        f = ForAll(1, f)
    renamings = []
    fresh_index = fm._fresh_index
    monkeypatch.setattr(fm, "_fresh_index", lambda used: renamings.append(1) or fresh_index(used))
    got = substitute(f, 0, Var(1))
    assert len(renamings) == 1500
    assert render(got) == "forall x2 (" * 1500 + "(x1 = x2)" + ")" * 1500


def test_shared_subformulas_are_walked_once():
    # 16 nested Ands over one Eq, each with its two sides the same object:
    # 19 distinct nodes, and 262143 nodes when walked as a tree
    import peano_forge.formula as fm
    dag = Eq(Var(0), Zero())
    for _ in range(16):
        dag = And(dag, dag)
    visited = []
    fm._fold(dag, lambda x, args: visited.append(x))
    assert len(visited) == 19 and len({id(x) for x in visited}) == 19
    assert classify_prenex(dag) == QuantClass("Sigma", 0)
    got = substitute(dag, 0, One())
    for _ in range(16):
        assert type(got) is And and got.left is got.right
        got = got.left
    assert got == Eq(One(), Zero())
    node = to_json(dag)  # one shared dict for the node object met twice
    assert node["args"][0] is node["args"][1]
    # the renamed body is a DAG that substitute builds, walked once per node
    dag = Eq(Var(0), Var(1))
    for _ in range(10):
        dag = And(dag, dag)
    got = substitute(ForAll(1, dag), 0, Var(1))
    assert type(got) is ForAll and got.var == 2
    got = got.body
    for _ in range(10):
        assert type(got) is And and got.left is got.right
        got = got.left
    assert got == Eq(Var(1), Var(2))


def test_a_renamed_body_stays_shared_under_inner_quantifiers(monkeypatch):
    # 16 levels of L = forall x3 L & forall x4 L under forall x1, where x1 is
    # renamed: both inner quantifiers keep the renamings in force, so their
    # shared body is planned once under them, not once per path (2^16)
    import peano_forge.tree as tree
    planned, plan = [], tree._plan

    def counted(node, children):
        order, shared = plan(node, children)
        planned.append(len(order))
        return order, shared
    monkeypatch.setattr(tree, "_plan", counted)
    body = Eq(Var(0), Var(1))
    for _ in range(16):
        body = And(ForAll(3, body), ForAll(4, body))
    got = substitute(ForAll(1, body), 0, Var(1))
    assert planned == [3 * 16 + 4] and got.var == 2
    got = got.body
    for _ in range(16):
        assert got.left.body is got.right.body and (got.left.var, got.right.var) == (3, 4)
        got = got.left.body
    assert got == Eq(Var(1), Var(2))


def test_variable_sets_walk_a_shared_dag_once(monkeypatch):
    # 16 nested Ands over one Eq, each with its two sides the same object:
    # each walk looks every distinct inner node up in _BINARY once per
    # quantifier body it lies in, 17 times here, where a walk of the tree
    # would look up 131071 nodes
    import peano_forge.formula as fm
    met = []

    class Counted(dict):
        def __contains__(self, t):
            met.append(t)
            return dict.__contains__(self, t)
    monkeypatch.setattr(fm, "_BINARY", Counted(fm._BINARY))
    dag = Eq(Var(0), Var(1))
    for _ in range(16):
        dag = And(dag, dag)

    def lookups(call):
        met.clear()
        result = call()
        return result, len(met)
    assert lookups(lambda: free_vars(dag)) == ({0, 1}, 17)
    assert lookups(lambda: fm._scope(dag, {})) == (({0, 1}, set()), 17)
    assert lookups(lambda: free_vars(And(ForAll(1, dag), dag))) == ({0, 1}, 36)
    t = Var(2)
    for _ in range(16):
        t = Add(t, t)
    assert lookups(lambda: term_vars(t)) == ({2}, 16)
    # the scope walk of the body, then term_vars of the term (a leaf is no
    # lookup); a renaming reads the same walk's sets and walks nothing again
    got, n = lookups(lambda: substitute(ForAll(1, dag), 0, One()))
    assert n == 17 and got.body.left is got.body.right
    got, n = lookups(lambda: substitute(ForAll(1, dag), 0, Var(1)))
    assert n == 17 and got.var == 2 and got.body.left is got.body.right


def test_nested_capture_is_linear(monkeypatch):
    # n nested forall x1 (f & x0 = x1): substituting x1 + 1 for x0 renames
    # every quantifier, each once.  One scope walk serves them all (3n
    # lookups: each level's ForAll, And and Eq but the root's ForAll, plus
    # one for term_vars of x1 + 1), and one plan of 5n + 3 entries; the
    # induction instance renames nothing and takes two such passes
    import peano_forge.formula as fm
    import peano_forge.tree as tree
    met, planned, renamings = [], [], []

    class Counted(dict):
        def __contains__(self, t):
            met.append(t)
            return dict.__contains__(self, t)
    monkeypatch.setattr(fm, "_BINARY", Counted(fm._BINARY))
    plan, fresh_index = tree._plan, fm._fresh_index

    def counted(node, children):
        order, shared = plan(node, children)
        planned.append(len(order))
        return order, shared
    monkeypatch.setattr(tree, "_plan", counted)
    monkeypatch.setattr(fm, "_fresh_index", lambda used: renamings.append(1) or fresh_index(used))
    for n in (100, 200, 400):
        f = Eq(Var(0), Var(1))
        for _ in range(n):
            f = ForAll(1, And(f, Eq(Var(0), Var(1))))
        met.clear(), planned.clear(), renamings.clear()
        got = substitute(f, 0, Add(Var(1), One()))
        assert (len(renamings), len(met), planned) == (n, 3 * n + 1, [5 * n + 3])
        assert render(got).startswith("forall x2 ((forall x2 ((") and got.var == 2
        met.clear(), planned.clear(), renamings.clear()
        induction_instance(f, 0, [1])
        assert (len(renamings), len(met), planned) == (0, 6 * n + 1, [5 * n + 3] * 2)


def test_hashing_a_growing_formula_plans_only_the_new_nodes(monkeypatch):
    # a node's hash is kept, and planning stops at kept hashes, so hashing
    # each step of a growing chain plans only the node the step adds
    import peano_forge.tree as tree
    planned, plan = [], tree._plan

    def counted(node, children):
        order, shared = plan(node, children)
        planned.append(len(order))
        return order, shared
    monkeypatch.setattr(tree, "_plan", counted)
    f, g = Eq(Var(0), Zero()), Eq(Zero(), Var(1))
    hash(f)
    for _ in range(3000):
        planned.clear()
        f = And(f, g)
        hash(f)
        assert planned and sum(planned) <= 4
    # equal chains built apart still hash alike
    twin = parse("x0 = 0" + " & 0 = x1" * 3000)
    assert twin == f and hash(twin) == hash(f)


# --- induction schema ---

def test_induction_instance_no_params():
    phi = Eq(Var(0), Var(0))
    inst = induction_instance(phi, 0, [])
    base = Eq(Zero(), Zero())
    step = ForAll(0, Implies(phi, Eq(Add(Var(0), One()), Add(Var(0), One()))))
    assert inst == Implies(And(base, step), ForAll(0, phi))
    assert free_vars(inst) == set()


def test_induction_instance_with_param():
    phi = Lt(Zero(), Add(Var(0), Var(1)))
    inst = induction_instance(phi, 0, [1])
    assert isinstance(inst, ForAll) and inst.var == 1
    assert free_vars(inst) == set()


def test_induction_instance_second_example():
    phi = Lt(Zero(), Add(Var(0), One()))
    inst = induction_instance(phi, 0, [])
    base = Lt(Zero(), Add(Zero(), One()))
    step = ForAll(0, Implies(phi, Lt(Zero(), Add(Add(Var(0), One()), One()))))
    assert inst == Implies(And(base, step), ForAll(0, phi))


def test_induction_rejects_overlapping_variables():
    with pytest.raises(InvalidSchemaVariables):
        induction_instance(Eq(Var(0), Var(1)), 0, [0])
    with pytest.raises(InvalidSchemaVariables):
        induction_instance(Eq(Var(0), Var(1)), 0, [1, 1])


# --- prenex classification ---

def test_classify_examples():
    assert classify_prenex(Exists(0, Eq(Var(0), Zero()))) == QuantClass("Sigma", 1)
    assert classify_prenex(ForAll(0, Exists(1, Lt(Var(0), Var(1))))) == QuantClass("Pi", 2)
    bounded = ForAll(0, Implies(Lt(Var(0), numeral(5)), Eq(Var(0), Var(0))))
    assert classify_prenex(bounded) == QuantClass("Sigma", 0)


def test_classify_blocks_merge():
    f = ForAll(0, ForAll(1, Exists(2, Eq(Var(0), Var(1)))))
    assert classify_prenex(f) == QuantClass("Pi", 2)
    g = Exists(0, ForAll(1, Exists(2, Eq(Var(0), Var(2)))))
    assert classify_prenex(g) == QuantClass("Sigma", 3)


def test_classify_bounded_in_matrix_absorbed():
    matrix = Exists(1, And(le_guard(1, Var(0)), Eq(Var(1), Var(0))))
    f = ForAll(0, matrix)
    # the leading quantifier is unbounded, the inner one is sugar
    assert classify_prenex(f) == QuantClass("Pi", 1)


def test_classify_rejects_quantifier_under_connective():
    with pytest.raises(NotPrenex):
        classify_prenex(And(ForAll(0, Eq(Var(0), Var(0))), Eq(Zero(), Zero())))
    with pytest.raises(NotPrenex):
        classify_prenex(Not(Exists(0, Eq(Var(0), Zero()))))


def test_classify_long_chain_without_recursion():
    # the parser builds a 1500-long & chain 1500 levels deep; the matrix
    # check walks it on an explicit stack, bare and under bounded sugar
    chain = parse("0 = 0" + " & 0 = 0" * 1500)
    assert classify_prenex(chain) == QuantClass("Sigma", 0)
    bounded = ForAll(0, Implies(parse("x0 < 1 + 1"), chain))
    assert classify_prenex(bounded) == QuantClass("Sigma", 0)
    assert classify_prenex(ForAll(1, bounded)) == QuantClass("Pi", 1)
    with pytest.raises(NotPrenex):
        classify_prenex(And(chain, Exists(1, Eq(Var(1), Zero()))))


def test_classify_rejects_a_root_that_is_no_formula():
    # the root is checked as eval_nat and desugar check it; no node below
    # it can be anything but a term or a formula
    for node, message in ((Var(0), "not a formula: Var(index=0)"),
                          (Add(One(), One()), "not a formula: Add(left=One(), right=One())"),
                          (None, "not a formula: None"),
                          (5, "not a formula: 5")):
        with pytest.raises(TypeError) as info:
            classify_prenex(node)
        assert str(info.value) == message


def test_classify_inclusive_guard_with_deep_bounds():
    # the two copies of t in x0 < t | x0 = t are separate 1500-level sums,
    # which _bounded_parts compares with == on an explicit stack
    def t():
        return parse_term("1" + " + 1" * 1500)
    f = ForAll(0, Implies(Or(Lt(Var(0), t()), Eq(Var(0), t())), Eq(Zero(), Zero())))
    assert classify_prenex(f) == QuantClass("Sigma", 0)


def test_classify_stable_under_renaming():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        depth = rng.randint(0, 3)
        matrix = random_formula(rng, 1, max_var=2)
        f = matrix
        shifted = matrix
        for i in range(depth):
            ctor = ForAll if rng.random() < 0.5 else Exists
            f = ctor(i, f)
            shifted = ctor(i + 10, substitute(shifted, i, Var(i + 10)))
        try:
            assert classify_prenex(f) == classify_prenex(shifted)
        except NotPrenex:
            continue  # generated matrix happened to contain a quantifier
        checked += 1
    assert checked > 80


# --- evaluation ---

def test_eval_term_examples():
    assert eval_term(numeral(3), {}) == 3
    assert eval_term(Add(Var(0), Mul(Var(1), Var(1))), {0: 2, 1: 3}) == 11
    assert eval_term(Mul(Zero(), Var(0)), {0: 9}) == 0
    with pytest.raises(UnboundVariable):
        eval_term(Var(5), {})


def test_eval_nat_prim_and_divides():
    assert eval_nat(prim_formula(), {0: 7}, 10) is True
    assert eval_nat(prim_formula(), {0: 8}, 10) is False
    from helpers import divides_formula
    div = divides_formula(0, 1, 2)
    assert eval_nat(div, {0: 3, 1: 12}, 10) is True
    assert eval_nat(div, {0: 5, 1: 12}, 10) is False


def test_eval_nat_budget_exceeded_is_not_an_answer():
    f = Exists(0, Eq(Var(0), Add(Var(0), One())))
    with pytest.raises(BudgetExceeded):
        eval_nat(f, {}, 100)
    g = ForAll(0, Or(Eq(Var(0), Var(0)), Lt(Var(0), Zero())))
    with pytest.raises(BudgetExceeded):
        eval_nat(g, {}, 100)


def test_eval_nat_budget_must_be_a_natural():
    # a budget that is no natural is refused before any search, never
    # reported as an inconclusive one
    f = parse("exists x1 (x1 = x0)")
    for budget in NOT_NATURALS:
        with pytest.raises(ValueError) as info:
            eval_nat(f, {0: 0}, budget)
        assert str(info.value) == f"budget must be a natural number, got {shown(budget)}"
    assert eval_nat(f, {0: 0}, 0) is True


def test_env_must_be_a_dict():
    # a list was indexed by variable, and None failed inside the evaluator;
    # the values are not checked, so an int64 array may stand for one
    for env in ([5], (5,), None, 5):
        for call in (lambda: eval_term(Var(0), env), lambda: eval_nat(Eq(Var(0), Zero()), env, 3)):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == f"env must be a dict, got {type(env).__name__}"
    assert eval_term(Var(0), {0: 5}) == 5


def test_eval_nat_unbounded_early_exit():
    # witnessed existential and falsified universal settle exactly
    assert eval_nat(Exists(0, Eq(Var(0), numeral(5))), {}, 100) is True
    assert eval_nat(ForAll(0, Lt(Var(0), numeral(5))), {}, 100) is False


def test_eval_nat_vector_path_matches_scalar():
    # same bounded formula evaluated above and below the vectorize threshold
    body = Implies(divides(1, 0, 2), Or(Eq(Var(0), Var(1)), Eq(Var(1), One())))
    f = ForAll(1, Implies(le_guard(1, Var(0)), body))
    flags = sieve(200)
    for p in (2, 4, 29, 97, 143, 199):
        assert eval_nat(And(Not(Eq(Var(0), Zero())),
                            And(Not(Eq(Var(0), One())), f)), {0: p}, 10) == flags[p]


def test_guards_are_matched_once_per_quantifier_node(monkeypatch):
    # a bounded guard is matched, and the matrix scanned for the terms that
    # bound it, when its quantifier compiles, not each time the quantifier
    # is evaluated, and a compiled formula compiles no more
    import peano_forge.formula as fm
    matched, scanned, compiled = [], [], []
    bounded_parts, bounding_terms = fm._bounded_parts, fm._bounding_terms
    compile_node = fm._compile
    monkeypatch.setattr(fm, "_bounded_parts", lambda f: matched.append(f) or bounded_parts(f))
    monkeypatch.setattr(fm, "_bounding_terms", lambda f: scanned.append(f) or bounding_terms(f))
    monkeypatch.setattr(fm, "_compile",
                        lambda x, take: compiled.append(x) or compile_node(x, take))
    # x0 is a sum of two squares: the inner product x2 * x2 has x2 in both
    # factors, so neither range is decided by one divmod
    f = parse("exists x1 ((x1 < x0 | x1 = x0) & "
              "exists x2 ((x2 < x0 | x2 = x0) & x1 * x1 + x2 * x2 = x0))")
    flags = [any(a * a + b * b == x for a in range(x + 1) for b in range(x + 1))
             for x in range(12)]
    assert [eval_nat(f, {0: x}, 10) for x in range(2, 12)] == flags[2:]
    assert len(matched) == 2 and len({id(q) for q in matched}) == 2
    assert len(scanned) == 2 and len({id(m) for m in scanned}) == 2
    assert compiled
    compiled.clear()
    assert [eval_nat(f, {0: x}, 10) for x in range(2, 12)] == flags[2:]
    assert len(matched) == 2 and len(scanned) == 2 and compiled == []


def test_kind_errors_name_the_misplaced_node():
    # a term where a formula belongs, or the reverse, or a non-node, is a
    # TypeError naming the node when the node that would hold it is built;
    # the root of a call is checked by the call, by the evaluator as by the
    # Goedel coder; d is a definition that has run
    from peano_forge import Comp, Succ, ZeroFn, encode_formula, encode_term, eval_def
    zz, x0 = Eq(Zero(), Zero()), Var(0)
    d = Comp(Succ(), (ZeroFn(),))
    assert eval_def(d, [0], 10).value == 1
    builds = [
        (lambda: Not(x0), "not a formula: Var(index=0)"),
        (lambda: Eq(zz, Zero()), f"not a term: {zz!r}"),
        (lambda: Add(One(), zz), f"not a term: {zz!r}"),
        (lambda: Or(zz, x0), "not a formula: Var(index=0)"),
        (lambda: Implies(x0, Lt(Zero(), Zero())), "not a formula: Var(index=0)"),
        (lambda: Not(5), "not a formula: 5"),
        (lambda: Exists(1, One()), "not a formula: One()"),
        (lambda: And(zz, d), f"not a formula: {d!r}"),
        (lambda: Add(5, Zero()), "not a term: 5"),
        (lambda: Mul(x0, 5), "not a term: 5"),
        (lambda: Add(One(), "1"), "not a term: '1'"),
        (lambda: Lt(x0, d), f"not a term: {d!r}"),
        (lambda: Eq(zz, 5), f"not a term: {zz!r}"),  # fields in order
        (lambda: Formula(), "not a formula: Formula()"),
        (lambda: Term(), "not a term: Term()"),
    ]
    for build, message in builds:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message
    roots = [(node, "formula", call) for node in (x0, Add(One(), One()), d, None, "1")
             for call in (lambda f: eval_nat(f, {0: 1}, 1), encode_formula)]
    roots += [(node, "term", call) for node in (zz, d, None, "1")
              for call in (lambda t: eval_term(t, {0: 1}), encode_term)]
    for node, kind, call in roots:
        with pytest.raises(TypeError) as info:
            call(node)
        assert str(info.value) == f"not a {kind}: {node!r}"
    assert eval_nat(Or(zz, Eq(x0, x0)), {0: 1}, 1) is True


def test_a_variable_index_is_checked_when_built():
    # an index such as "a" never reaches a bounded matrix: the Var that
    # would hold it is refused, as is a quantifier over it
    for build in (lambda: Var("a"), lambda: ForAll("a", Eq(Zero(), Zero()))):
        with pytest.raises(ValueError, match=r"^not a natural number: 'a'$"):
            build()


def test_junk_trees_are_refused_when_built():
    # each is refused where the node at fault is built, with the error of
    # the field's kind, before a walk or the coder could answer or misname it
    from peano_forge import Proj, arity, encode_term
    cases = [
        (lambda: render(Var(Zero())), ValueError, "not a natural number: Zero()"),
        (lambda: eval_term(Var(-1), {-1: 4}), ValueError, "not a natural number: -1"),
        (lambda: encode_term(Var(-1)), ValueError, "not a natural number: -1"),
        (lambda: free_vars(Eq(Var("a"), Zero())), ValueError, "not a natural number: 'a'"),
        (lambda: substitute(Eq(Var(0), Zero()), 0, None), TypeError, "not a term: None"),
        (lambda: arity(Proj("1", 2)), ValueError, "not a natural number: '1'"),
        (lambda: arity(Proj(True, 1)), ValueError, "not a natural number: True"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def _field_refusal(rule, value):
    # (error type, message) for value in a field of rule, or None when it fits
    from peano_forge import IllFormed, PRDef
    if rule == "index":
        ok = type(value) is int and value >= 0
        return None if ok else (ValueError, f"not a natural number: {value!r}")
    kind, error, text = {"term": (Term, TypeError, "not a term"),
                         "formula": (Formula, TypeError, "not a formula"),
                         "def": (PRDef, IllFormed, "not a definition node")}[rule]
    return None if isinstance(value, kind) else (error, f"{text}: {value!r}")


def _formation_rules():
    # each constructor with the rule of each field, written out here apart
    # from the classes' own declarations; "defs" is a tuple of definitions
    from peano_forge import BoundedMu, Comp, Mu, PrimRec, Proj, Succ, ZeroFn
    binary = {cls: ("term", "term") for cls in (Add, Mul, Eq, Lt)}
    binary.update({cls: ("formula", "formula") for cls in (And, Or, Implies)})
    return {Zero: (), One: (), Var: ("index",), Not: ("formula",), ForAll: ("index", "formula"),
            Exists: ("index", "formula"), **binary, ZeroFn: (), Succ: (),
            Proj: ("index", "index"), Comp: ("def", "defs"), PrimRec: ("def", "def"),
            BoundedMu: ("def",), Mu: ("def",)}


def _field_values(rule):
    # a value that fits rule about half the time, and any value otherwise:
    # nodes of each kind, None, bools, strings, floats and ints of any sign
    from peano_forge import Comp, Proj, Succ, ZeroFn
    kinds = {"term": [Zero(), One(), Var(0), Var(7), Add(One(), Var(1))],
             "formula": [Eq(Zero(), One()), Lt(Var(0), One()), Not(Eq(Var(1), Var(2))),
                         ForAll(1, Eq(Var(1), Zero()))],
             "def": [ZeroFn(), Succ(), Proj(1, 2), Comp(Succ(), (ZeroFn(),))]}
    fits = st.integers(0, 12) if rule == "index" else st.sampled_from(kinds[rule])
    junk = [None, True, False, "", "x1", "0", 1.0, -0.0, [1], QuantClass("Pi", 1)]
    anything = st.sampled_from(sum(kinds.values(), junk)) | st.integers(-3, 12)
    return fits | anything


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_constructor_refuses_or_builds_a_well_formed_node(data):
    # random field values go to every constructor: the build is refused with
    # the error of the first field (or tuple item) that does not fit its
    # rule, or it gives a node that holds the values, and a term or formula
    # that the parser reads back from its text
    rules = _formation_rules()
    cls = data.draw(st.sampled_from(sorted(rules, key=lambda c: c.__name__)))
    values = [data.draw(st.lists(_field_values("def"), max_size=3) if rule == "defs"
                        else _field_values(rule)) for rule in rules[cls]]
    refusal = None
    for rule, value in zip(rules[cls], values):
        for item in value if rule == "defs" else [value]:
            refusal = refusal or _field_refusal("def" if rule == "defs" else rule, item)
    if refusal is not None:
        with pytest.raises(Exception) as info:
            cls(*values)
        assert (type(info.value), str(info.value)) == refusal
        return
    x = cls(*values)
    assert list(x._values()) == [tuple(v) if type(v) is list else v for v in values]
    if isinstance(x, Formula):
        assert parse(render(x)) == x
    elif isinstance(x, Term):
        assert parse_term(render(x)) == x


_RECURSION_DEFECT = "ROADMAP item 3: a compiled form spends one frame per tree level"


@recursion_defect(_RECURSION_DEFECT)
def test_eval_nat_long_and_chain():
    assert eval_nat(parse("0 = 0" + " & 0 = 0" * 1500), {}, 5) is True


@recursion_defect(_RECURSION_DEFECT)
def test_eval_nat_long_flat_sum():
    assert eval_nat(parse("0 = 1" + " + 1" * 1500), {}, 5) is False


@recursion_defect(_RECURSION_DEFECT)
def test_eval_term_deep_numeral():
    assert eval_term(numeral(3000), {}) == 3000


@recursion_defect(_RECURSION_DEFECT)
def test_eval_nat_bounded_forall_with_a_long_bound():
    # forall x0 ((x0 < t | x0 = t) -> 0 = 0), t a sum of 1500 additions
    t = parse_term("1" + " + 1" * 1500)
    guard = Or(Lt(Var(0), t), Eq(Var(0), t))
    assert eval_nat(ForAll(0, Implies(guard, Eq(Zero(), Zero()))), {}, 5) is True


def test_evaluation_depth_matches_the_tree_depth():
    # a compiled form spends one interpreter frame per tree level, as the
    # recursive evaluator did, so 800 levels fit inside pytest's own stack
    chain = parse("0 = 0" + " & 0 = 0" * 800)
    assert eval_nat(chain, {}, 5) is True
    assert eval_term(numeral(800), {}) == 800
    f = ForAll(0, Implies(Lt(Var(0), numeral(800)), chain))
    assert eval_nat(f, {}, 5) is True


def divides(x_var, y_var, z_var):
    from helpers import divides_formula
    return divides_formula(x_var, y_var, z_var)


def quantifier_free(f):
    if isinstance(f, (ForAll, Exists)):
        return False
    if isinstance(f, Not):
        return quantifier_free(f.body)
    if isinstance(f, (And, Or, Implies)):
        return quantifier_free(f.left) and quantifier_free(f.right)
    return True


def spy_numpy_path(monkeypatch):
    """A list that grows each time a range is handed to numpy: _chunks runs
    once for each such range, and for no other."""
    import peano_forge.formula as fm
    real, vector = fm._chunks, []

    def spy(count):
        vector.append(count)
        return real(count)

    monkeypatch.setattr(fm, "_chunks", spy)
    return vector


def test_vector_and_scalar_paths_agree(monkeypatch):
    import peano_forge.formula as fm
    rng = random.Random(777)
    cases = []
    for _ in range(150):
        body = random_formula(rng, rng.randint(0, 2), max_var=2)
        if not quantifier_free(body):
            continue
        quant = ForAll if rng.random() < 0.5 else Exists
        combine = Implies if quant is ForAll else And
        f = quant(0, combine(le_guard(0, numeral(rng.randint(33, 80))), body))
        env = {1: rng.randrange(5), 2: rng.randrange(5)}
        cases.append((f, env))
    # products of values near 2**31 straddle the int64 guard 2**62, so both
    # the numpy path and its exact big-integer fallback are compared
    near = (2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1)
    body = Or(Lt(Mul(Var(1), Var(2)), Mul(Var(0), Var(1))), Eq(Var(0), numeral(3)))
    straddle = []
    for a in near:
        for b in near:
            straddle.append((ForAll(0, Implies(le_guard(0, numeral(40)), body)), {1: a, 2: b}))
            straddle.append((Exists(0, And(le_guard(0, numeral(40)), Not(body))), {1: a, 2: b}))
    cases += straddle
    vector = spy_numpy_path(monkeypatch)
    fast, took_vector = [], []
    for f, env in cases:
        before = len(vector)
        fast.append(eval_nat(f, env, 5))
        took_vector.append(len(vector) > before)
    assert took_vector[-len(straddle):] == [env[1] * env[2] < 2 ** 62 for _, env in straddle]
    monkeypatch.setattr(fm, "_VECTORIZE_MIN", 10 ** 9)  # force the exact loop
    slow = [eval_nat(f, env, 5) for f, env in cases]
    assert fast == slow


def test_unbound_variable_in_bounded_matrix():
    # x1 is free in the matrix and missing from env, below and above the
    # count at which the numpy path is tried
    import peano_forge.formula as fm
    for n in (fm._VECTORIZE_MIN // 2, fm._VECTORIZE_MIN * 2):
        for quant, combine in ((ForAll, Implies), (Exists, And)):
            f = quant(0, combine(le_guard(0, numeral(n)), Lt(Var(0), Var(1))))
            with pytest.raises(UnboundVariable):
                eval_nat(f, {}, 5)


def test_unbound_variable_behind_a_false_premise():
    # x9 is never read: the premise 0 = 1 is false for every x0, so the
    # range holds whether or not numpy is tried (more than 32 values)
    for n in (16, 64):
        body = Implies(Eq(Zero(), One()), Eq(Var(9), Zero()))
        f = ForAll(0, Implies(le_guard(0, numeral(n)), body))
        assert eval_nat(f, {}, 5) is True


def test_unbounded_quantifiers_agree_across_paths(monkeypatch):
    # unbounded quantifiers search 0..budget through the same range check
    # as bounded ones, so above 32 values they take the numpy path; the
    # answers and the BudgetExceeded messages match the exact loop
    import peano_forge.formula as fm
    shapes = [parse("exists x1 (x1 + x1 = x0 + x0 + 1)"),
              parse("exists x1 (x1 * x1 = x0)"),
              parse("forall x1 !(x1 * x1 = x0)")]

    def outcomes():
        out = []
        for f in shapes:
            for budget in (5, 31, 32, 33, 100):
                for x in (0, 1, 4, 7, 36, 49, 50, 10000):
                    try:
                        out.append(eval_nat(f, {0: x}, budget))
                    except BudgetExceeded as exc:
                        out.append(str(exc))
        return out

    vector = spy_numpy_path(monkeypatch)
    fast = outcomes()
    assert vector  # the numpy path ran
    monkeypatch.setattr(fm, "_VECTORIZE_MIN", 10 ** 9)  # force the exact loop
    vector.clear()
    slow = outcomes()
    assert not vector
    assert fast == slow
    assert "quantifier search over x1 inconclusive within budget 100" in slow
    assert True in slow and False in slow


def test_numpy_is_imported_by_the_first_vectorized_range():
    # in a fresh process, Prim at x = 97 answers with no numpy: its divisor
    # search is decided by one divmod and its outer range holds a quantifier.
    # The square test at x = 31 bounds its range by 32 values and stays
    # scalar; at x = 100 the range x2 * x2 = x0 runs on numpy
    import os
    import subprocess
    import sys

    import peano_forge
    path = [os.path.dirname(os.path.dirname(peano_forge.__file__)),
            os.path.dirname(__file__)]
    probe = ("import sys; from helpers import prim_formula; "
             "from peano_forge import eval_nat, parse; "
             "square = parse('exists x2 ((x2 < x0 | x2 = x0) & x2 * x2 = x0)'); "
             "print([(eval_nat(f, {0: x}, 10), 'numpy' in sys.modules) "
             "for f, x in ((prim_formula(), 97), (square, 31), (square, 100))])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert (proc.returncode, proc.stdout) == (
        0, "[(True, False), (False, False), (True, True)]\n")


def test_numpy_chunks_double_up_to_the_chunk_size(monkeypatch):
    # chunks grow from 2^12 values, so an early witness stops the search
    # after about twice its position; a range of at most 2^12 values is one
    # chunk.  The spy reads each chunk the range check takes from _chunks.
    import peano_forge.formula as fm
    f = parse("exists x1 (x1 = x0)")
    real, lengths = fm._chunks, []

    def spy(count):
        for chunk in real(count):
            lengths.append(len(chunk))
            yield chunk

    monkeypatch.setattr(fm, "_chunks", spy)
    monkeypatch.setattr(fm, "_VECTOR_CHUNK", 1 << 14)

    def chunk_lengths(x, budget):
        lengths.clear()
        try:
            fm.eval_nat(f, {0: x}, budget)
        except BudgetExceeded:
            pass
        return lengths

    assert chunk_lengths(0, 10 ** 7) == [4096]
    assert chunk_lengths(3, 10 ** 7) == [4096]
    assert chunk_lengths(5000, 10 ** 7) == [4096, 8192]
    assert chunk_lengths(50000, 10 ** 7) == [4096, 8192, 16384, 16384, 16384]
    assert chunk_lengths(10 ** 6, 2500) == [2501]
    assert chunk_lengths(10 ** 6, 4095) == [4096]
    assert chunk_lengths(10 ** 6, 4096) == [4096, 1]


def range_depth(f):
    """Nesting depth of the quantifier ranges of f; 3 when a bounded
    quantifier's bound reads a variable, which a random env may set near
    2^31."""
    if isinstance(f, (ForAll, Exists)):
        sugar = bounded_sugar(f)
        if sugar is None:
            return 1 + range_depth(f.body)
        return 3 if free_vars(sugar[0]) else 1 + range_depth(sugar[2])
    if isinstance(f, Not):
        return range_depth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return max(range_depth(f.left), range_depth(f.right))
    return 0


def outcome(evaluate, f, env, budget):
    try:
        r = evaluate(f, env, budget)
    except (BudgetExceeded, UnboundVariable) as exc:
        return type(exc).__name__, str(exc)
    return type(r).__name__, r


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_eval_nat_matches_the_plain_oracle(seed):
    # the numpy path shares its connectives with the scalar one, so both are
    # checked against an evaluator that shares no code with formula: a random
    # formula inside one or two quantifiers, bounded ones (bounds 0-80, all
    # three guard spellings) or unbounded ones (budgets 5-100), each over a
    # variable the formula reads where it has one.  At most two ranges are
    # nested, so each case stays small.  Env values near 2^31 have products
    # on both sides of the int64 guard 2^62, negative ones, which eval_nat
    # does not refuse, make products that int64 would wrap, and some
    # variables stay unbound.
    import peano_forge.formula as fm
    rng = random.Random(seed)
    f = random_formula(rng, rng.randint(0, 4), max_var=3)
    env = {v: rng.choice((rng.randint(0, 6), 2 ** 31 - 1 + rng.randint(0, 2),
                          -rng.randint(1, 6), -2 ** 31 - rng.randint(0, 2)))
           for v in range(4) if rng.random() < 0.9}
    budget = rng.randint(5, 100)
    for _ in range(min(rng.randint(1, 2), 2 - range_depth(f))):
        quant = rng.choice((ForAll, Exists))
        v = rng.choice(sorted(free_vars(f)) or [rng.randrange(4)])
        if rng.random() < 0.3:
            f = quant(v, f)
        else:
            t = numeral(rng.randint(0, 80))
            guard = rng.choice((Lt(Var(v), t), Or(Lt(Var(v), t), Eq(Var(v), t)),
                                Or(Eq(Var(v), t), Lt(Var(v), t))))
            f = quant(v, (Implies if quant is ForAll else And)(guard, f))
    assume(range_depth(f) <= 2)
    expected = outcome(eval_formula, f, env, budget)
    assert outcome(eval_nat, f, env, budget) == expected
    vectorize_min = fm._VECTORIZE_MIN
    fm._VECTORIZE_MIN = 10 ** 9  # force the exact loop
    try:
        assert outcome(eval_nat, f, env, budget) == expected
    finally:
        fm._VECTORIZE_MIN = vectorize_min


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_divmod_ranges_match_the_plain_oracle(seed):
    # a bounded range over A * x_v = T is decided by one divmod, and gives
    # the oracle's value, or its exception type and message, in all four
    # orientations: A, T and the bound read variables that may be unbound,
    # and a quarter of the cases each leave x4 unbound in A, x5 in T, or
    # both, so the message names the side the evaluator reads first.  A may
    # be 0, T may be 0 or put the witness exactly at the bound (0, 1, 2 or
    # a small term), under both guards in all three spellings.  The
    # range may sit under ! and inside an outer bounded or unbounded
    # quantifier.  Variables outside the bound may hold values near 2^31,
    # or -6, which eval_nat does not refuse.
    import peano_forge.formula as fm
    rng = random.Random(seed)
    v = rng.randrange(4)
    others = [w for w in range(4) if w != v]

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([Zero(), One(), numeral(2), Var(rng.choice(others))])
        return rng.choice([Add, Mul])(term(depth - 1), term(depth - 1))

    bound = rng.choice([numeral(0), numeral(1), numeral(2), Var(rng.choice(others)), term(1)])
    a = Zero() if rng.random() < 0.2 else term(2)
    t = rng.choice([Zero(), term(2), Mul(a, bound), Add(Mul(bound, a), One())])
    hide = rng.randrange(4)
    if hide & 1:
        a = Add(a, Var(4))
    if hide & 2:
        t = Add(Var(5), t)
    x = Var(v)
    product = rng.choice([Mul(a, x), Mul(x, a)])
    matrix = rng.choice([Eq(product, t), Eq(t, product)])
    assert fm._product_parts(v, matrix) is not None
    guard = rng.choice([Lt(x, bound), Or(Lt(x, bound), Eq(x, bound)),
                        Or(Eq(x, bound), Lt(x, bound))])
    quant = rng.choice((ForAll, Exists))
    f = quant(v, (Implies if quant is ForAll else And)(guard, matrix))
    if rng.random() < 0.3:
        f = Not(f)
    budget = rng.randint(0, 8)
    if rng.random() < 0.4:  # inside an outer quantifier
        u, outer = rng.randrange(4), rng.choice((ForAll, Exists))
        if rng.random() < 0.5:
            f = outer(u, f)
        else:
            guard = rng.choice([Lt(Var(u), numeral(rng.randint(0, 6))),
                                Or(Lt(Var(u), numeral(3)), Eq(Var(u), numeral(3)))])
            f = outer(u, (Implies if outer is ForAll else And)(guard, f))
    small = term_vars(bound)  # the oracle scans the range the bound gives
    values = (0, 1, 2, 6, -6, 2 ** 31 + rng.randint(-1, 1))
    env = {w: rng.choice((0, 1, 2, 3) if w in small else values)
           for w in range(4) if rng.random() < 0.85}
    assert outcome(eval_nat, f, env, budget) == outcome(eval_formula, f, env, budget)


def test_divmod_ranges_scan_values_that_are_no_int():
    # eval_nat does not refuse a float in env, and a float range is scanned:
    # 0.1 * 3 is the witness, though divmod(0.1 * 3, 0.1) leaves a remainder
    f = parse("exists x2 ((x2 < x0 | x2 = x0) & x1 * x2 = x3)")
    env = {0: 5, 1: 0.1, 3: 0.1 * 3}
    assert divmod(env[3], env[1])[1] != 0
    assert eval_nat(f, env, 0) is True
    assert eval_formula(f, env, 0) is True


def test_eval_nat_big_values_fall_back_exactly(monkeypatch):
    # term bounds overflow int64, forcing the exact big-integer path
    big = 2 ** 70
    f = Exists(0, And(le_guard(0, Var(1)), Eq(Var(0), Var(1))))
    assert eval_nat(f, {1: 40}, 0) is True
    g = ForAll(0, Implies(le_guard(0, numeral(40)),
                          Lt(Mul(Var(1), Var(0)), Mul(Var(1), numeral(50)))))
    assert eval_nat(g, {1: big}, 0) is True
    # each side is 0, but the factor x0 * x0 = 2^124 is not below 2^62, so
    # each 40- or 41-value range runs value by value, not on int64 arrays
    vector = spy_numpy_path(monkeypatch)
    eq = Eq(Mul(Mul(Zero(), Var(1)), Mul(Var(0), Var(0))), One())
    with pytest.raises(BudgetExceeded, match="^quantifier search over x1 "
                                             "inconclusive within budget 40$"):
        eval_nat(ForAll(1, Not(eq)), {0: 2 ** 62}, 40)
    guard = Lt(Var(1), numeral(40))
    assert eval_nat(ForAll(1, Implies(guard, Not(eq))), {0: 2 ** 62}, 5) is True
    assert eval_nat(Exists(1, And(guard, eq)), {0: 2 ** 62}, 5) is False
    assert vector == []


def test_negative_env_values_stay_off_the_numpy_path(monkeypatch):
    # the gate bounds each term by its value at the top of the range, which
    # holds only where every variable is a natural.  With x2 = -1, x3 = -51
    # the product is negative at x1 = 39 but 2^50 * 17 * 16 * 34 > 2^63 at
    # x1 = 17, which int64 would wrap to a positive value.
    vector = spy_numpy_path(monkeypatch)
    f = parse("forall x1 (x1 < x0 -> x5 * (x1 * (x1 + x2) * (x1 + x3)) < x4)")
    env = {0: 40, 2: -1, 3: -51, 5: 2 ** 50, 4: 1}
    assert eval_formula(f, env, 0) is True
    assert eval_nat(f, env, 0) is True
    # an env value below -2^63 is no int64 at all
    f = parse("exists x1 (x1 < x3 & x1 * x1 + x0 = x2)")
    env = {0: -2 ** 70, 2: -2 ** 70 + 1600, 3: 50}
    assert eval_formula(f, env, 0) is True
    assert eval_nat(f, env, 0) is True
    assert vector == []


def test_natural_unbounded_ranges_take_the_numpy_path(monkeypatch):
    # the unbounded ranges of the benchmark's calculus mix read naturals
    # only, so each of them still runs on int64 chunks
    odd_even = Exists(1, Eq(Add(Var(1), Var(1)), Add(Add(Var(0), Var(0)), One())))
    square = Exists(1, Eq(Mul(Var(1), Var(1)), Var(0)))
    vector = spy_numpy_path(monkeypatch)
    with pytest.raises(BudgetExceeded):
        eval_nat(odd_even, {0: 99}, 2499)
    assert eval_nat(square, {0: 399 * 399}, 500) is True
    assert vector == [2500, 501]


# --- Euclid division ---

def test_euclid_examples():
    assert euclid_div(0, 5) == (0, 0)
    assert euclid_div(17, 5) == (3, 2)
    with pytest.raises(DivisionByZero):
        euclid_div(3, 0)


def test_euclid_rejects_non_naturals():
    # a negative argument would give a pair outside the contract, such as
    # divmod(5, -2) == (-3, -1) with r < 0
    for b, a, bad in ((5, -2, "-2"), (-5, 2, "-5"), (-1, 0, "-1"),
                      (1.0, 2, "1.0"), (4, "2", "'2'"), (None, 1, "None")):
        with pytest.raises(ValueError) as info:
            euclid_div(b, a)
        assert str(info.value) == f"not a natural number: {bad}"
    for bad in NOT_NATURALS:
        for b, a in ((bad, 2), (5, bad)):
            with pytest.raises(ValueError) as info:
                euclid_div(b, a)
            assert str(info.value) == f"not a natural number: {shown(bad)}"
    with pytest.raises(DivisionByZero, match="^division by zero$"):
        euclid_div(0, 0)


def test_euclid_total_and_unique_exhaustive():
    for a in range(1, 101):
        for b in range(0, 1001, 7):
            s, r = euclid_div(b, a)
            assert b == a * s + r and r < a
            matches = [(sp, rp) for rp in range(a)
                       for sp in ((b - rp) // a,)
                       if a * sp + rp == b]
            assert matches == [(s, r)]
