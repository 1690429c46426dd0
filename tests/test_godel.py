import gc
import itertools
import random
import sys
from math import log2

import pytest
from hypothesis import given, settings, strategies as st

from peano_forge import (
    Add,
    And,
    BudgetExceeded,
    Eq,
    Exists,
    ForAll,
    Implies,
    IndexOutOfRange,
    Lt,
    Mul,
    Not,
    NotACode,
    One,
    Or,
    Var,
    Zero,
    ZeroElement,
    bounded_mu,
    decode_formula,
    decode_seq,
    decode_set,
    desugar,
    encode_formula,
    encode_seq,
    encode_set,
    encode_term,
    eval_nat,
    is_seq_code,
    nth_prime,
    numeral,
    pair,
    parse,
    render,
    seq_at,
    seq_concat,
    seq_long,
    unpair,
)
from peano_forge import formula, godel
from peano_forge.formula import SYMBOL_CODES
from helpers import NOT_NATURALS, random_formula, shown, sieve
from oracles import (
    desugared,
    factorial_mu_prime_chain,
    prime_exponents,
    reference_read,
    symbol_codes,
)


# --- primes ---

def test_nth_prime_values():
    assert nth_prime(0) == 2
    assert nth_prime(3) == 7
    assert nth_prime(9) == 29


def test_nth_prime_agrees_with_sieve():
    flags = sieve(600)
    expected = [x for x, is_p in enumerate(flags) if is_p]
    for i in range(100):
        assert nth_prime(i) == expected[i]


def test_prime_table_matches_an_independent_sieve(monkeypatch):
    # perfbench/expect.py calls nothing in peano_forge.  The table is grown
    # from the twelve primes it starts with and from the first two alone
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expect.py")
    spec = importlib.util.spec_from_file_location("expect", path)
    expect = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(expect)
    limit = 10 ** 6
    expected = [x for x, is_p in enumerate(expect.sieve(limit)) if is_p]
    for table in (godel._PRIMES[:12], [2, 3]):
        monkeypatch.setattr(godel, "_PRIMES", table)
        assert nth_prime(len(expected)) > limit
        assert godel._PRIMES[:len(expected)] == expected


def test_factorial_bounded_mu_definition_matches():
    # the definitional route (search below p!+1) cross-checks the sieve path
    chain = factorial_mu_prime_chain(9)
    assert chain == [nth_prime(i) for i in range(9)]


# --- bounded mu ---

def test_bounded_mu():
    assert bounded_mu(lambda y: y >= 5, 10) == 5
    assert bounded_mu(lambda y: False, 7) == 7
    assert bounded_mu(lambda y: True, 7) == 0


# --- pairing ---

def test_pair_values():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(1, 2) == 8
    assert unpair(0) == (0, 0)
    assert unpair(8) == (1, 2)


def test_pair_bijection_samples():
    for x in range(0, 501, 25):
        for y in range(0, 501, 25):
            assert unpair(pair(x, y)) == (x, y)
    for z in range(0, 125001, 997):
        x, y = unpair(z)
        assert pair(x, y) == z


# --- formula codec ---

def test_encode_golden_values():
    assert encode_formula(Eq(Zero(), Zero())) == 2430
    assert encode_term(Var(0)) == 2 ** 11


def test_encode_term_deep_numeral():
    # numeral(1000) nests 999 additions; its token string is built here
    tokens = ["("] * 999 + ["1"] + ["+", "1", ")"] * 999
    code = 1
    for i, tok in enumerate(tokens):
        code *= nth_prime(i) ** SYMBOL_CODES[tok]
    assert encode_term(numeral(1000)) == code


def test_lt_encodes_as_its_desugared_form():
    f = Lt(Zero(), One())
    assert encode_formula(f) == encode_formula(desugar(f))


def test_desugar_shapes():
    assert desugar(Lt(Var(1), Var(2))) == Not(
        ForAll(0, Not(Eq(Add(Var(1), Add(Var(0), One())), Var(2)))))
    a, b = Eq(Zero(), Zero()), Eq(One(), One())
    assert desugar(And(a, b)) == Not(Implies(a, Not(b)))
    assert desugar(Or(a, b)) == Implies(Not(a), b)
    assert desugar(Exists(3, a)) == Not(ForAll(3, Not(a)))


def test_decode_golden_and_rejections():
    assert decode_formula(2430) == Eq(Zero(), Zero())
    with pytest.raises(NotACode):
        decode_formula(2 ** 11)  # a term is not a formula
    # "( 0 -> 0 )": the ")" closes no term and no formula
    code = 1
    for i, tok in enumerate(["(", "0", "→", "0", ")"]):
        code *= nth_prime(i) ** SYMBOL_CODES[tok]
    with pytest.raises(NotACode, match="^token string is not a formula$"):
        decode_formula(code)
    with pytest.raises(NotACode):
        decode_formula(2 * 3)  # "00"
    with pytest.raises(NotACode):
        decode_formula(5)  # gap in prime support
    with pytest.raises(NotACode):
        decode_formula(0)


def test_formula_codec_round_trip_random():
    rng = random.Random(20260810)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 4))
        assert decode_formula(encode_formula(f)) == desugar(f)


def test_decode_deep_formula():
    # the term nests 999 additions; == on it would recurse, so compare text
    f = Eq(numeral(1000), Zero())
    assert render(decode_formula(encode_formula(f))) == render(f)


DEEP_CHAINS = (
    "0 = 0" + " & 0 = 0" * 1500,
    "0 = 0" + " -> 0 = 0" * 1500,
    "0 < 1" + " + 1" * 1500,
)


def test_deep_chains_round_trip():
    # 1500 levels, past the interpreter's recursion limit: desugar walks an
    # explicit stack; == would recurse, so compare text
    for text in DEEP_CHAINS:
        f = parse(text)
        assert render(decode_formula(encode_formula(f))) == render(desugar(f))


def test_encode_term_rejects_non_terms():
    # a root that is no term is refused by the coder; a term that would hold
    # a formula is refused when it is built
    for bad in (Eq(Zero(), Zero()), 3):
        with pytest.raises(TypeError, match=r"^not a term: "):
            encode_term(bad)
    with pytest.raises(TypeError, match=r"^not a term: Eq\(left=Zero\(\), right=Zero\(\)\)$"):
        Add(One(), Eq(Zero(), Zero()))


@given(st.lists(st.integers(1, 14), max_size=12))
def test_decode_formula_accepts_exactly_its_own_codes(symbols):
    # any string over the symbol codes: either NotACode, or a formula whose
    # encoding is that very code
    code = 1
    for i, e in enumerate(symbols):
        code *= nth_prime(i) ** e
    try:
        f = decode_formula(code)
    except NotACode:
        return
    assert encode_formula(f) == code


def test_reader_matches_the_token_reader_on_every_short_code():
    # every string of up to 4 symbol codes from 1..13 (the alphabet and x0,
    # x1, x2) reads to the same AST, or the same NotACode message, as the
    # reader that spelled each code as a token string
    def outcome(read, exps):
        try:
            return read(exps)
        except NotACode as e:
            return str(e)
    for n in range(5):
        for exps in map(list, itertools.product(range(1, 14), repeat=n)):
            assert outcome(formula._from_symbols, exps) == outcome(reference_read, exps), exps


def test_none_inside_a_tree_is_named_like_any_non_node():
    # a None never gets into a tree, so the writer never meets one where its
    # end-of-atom marker could be taken for it: the node that would hold it
    # is refused, and a None root is named by the call
    for build, message in ((lambda: Mul(Var(0), None), "not a term: None"),
                           (lambda: Add(One(), None), "not a term: None"),
                           (lambda: Not(None), "not a formula: None")):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message
    for call in (encode_formula, desugar, lambda f: eval_nat(f, {0: 1}, 1)):
        with pytest.raises(TypeError, match=r"^not a formula: None$"):
            call(None)
    with pytest.raises(TypeError, match=r"^not a term: None$"):
        encode_term(None)


def test_a_huge_variable_index_is_over_the_code_budget():
    # x_(10^5000) is a natural index whose code needs about 2^16610 bits:
    # BudgetExceeded before anything is multiplied, and the message names
    # the bound as a power of 2, as str would refuse its 5000 digits
    for call in (lambda: encode_term(Var(10 ** 5000)),
                 lambda: encode_formula(ForAll(10 ** 5000, Eq(Zero(), Zero())))):
        with pytest.raises(BudgetExceeded, match=r"^a code of up to 2\^16611 bits is over "):
            call()
    # a bound is printed in full only if str prints it under any digit
    # limit, the least of which is 640: 501 digits are, 701 are not
    for index, size in ((10 ** 500, r"2\d{500}"), (10 ** 700, r"2\^2327")):
        with pytest.raises(BudgetExceeded, match=rf"^a code of up to {size} bits is over "):
            encode_term(Var(index))
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(BudgetExceeded, match=r"^a code of up to 2\d{500} bits is over "):
                encode_term(Var(10 ** 500))
        finally:
            sys.set_int_max_str_digits(limit)


def test_a_variable_index_past_the_digit_limit_is_named_by_its_size():
    # the interpreter refuses to write an int of more than
    # sys.get_int_max_str_digits() digits (4300 by default, 640 at least): a
    # natural index is coded, or refused as too large, without being
    # written, and a bad index of over 640 digits is named by its size when
    # its node is built, on any interpreter
    with pytest.raises(BudgetExceeded, match=r"^a code of up to 2\^16611 bits is over "):
        encode_formula(Eq(Var(10 ** 5000), Zero()))
    name = r"^not a natural number: -<an int of at least 2\^16609>$"
    for build in (lambda: Var(-10 ** 5000), lambda: Var(-(2 ** 16609)),
                  lambda: ForAll(-10 ** 5000, Eq(Zero(), Zero()))):
        with pytest.raises(ValueError, match=name):
            build()
    with pytest.raises(ValueError, match=r"^not a natural number: -<an int of at least 2\^2126>$"):
        Var(-10 ** 640)
    with pytest.raises(ValueError, match=rf"^not a natural number: -{10 ** 640 - 1}$"):
        Var(1 - 10 ** 640)


def test_a_variable_index_is_a_natural_int():
    # Var("1") spells x1 but is no x1: an index that is no natural int is
    # refused when its node is built, so the coder only meets indices it
    # can code; the fields of a node are checked in order
    for index in ("1", -1, True, 1.0, None, Zero()):
        for build in (lambda: Var(index), lambda: ForAll(index, Eq(Zero(), Zero()))):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"not a natural number: {index!r}"
    with pytest.raises(ValueError, match="^not a natural number: '2'$"):
        Exists("2", None)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(0, 15))
def test_desugar_and_encode_match_the_oracle_rewrite(seed, depth, max_var):
    # desugar reads back what the encoder writes, so round trips cannot see
    # a wrong rewrite; the oracle rewrites the tree on its own
    f = random_formula(random.Random(seed), depth, max_var)
    plain = desugared(f)
    assert desugar(f) == plain
    code = 1
    for i, c in enumerate(symbol_codes(plain)):
        code *= nth_prime(i) ** c
    assert encode_formula(f) == code


# --- the exponent extractor ---

def _extract(code):
    try:
        return godel._contiguous_exponents(code)
    except NotACode as err:
        return str(err)


def _code(exps, start=0):
    code = 1
    for i, e in enumerate(exps, start):
        code *= nth_prime(i) ** e
    return code


PERTURBATIONS = ("none", "gap", "plus_one", "minus_one", "no_p0", "pure_odd", "next_prime")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 2 ** 8), max_size=11),
    st.integers(1, 2 ** 8) | st.integers(2 ** 10, 2 ** 12),
    st.sampled_from(PERTURBATIONS),
    st.integers(1, 3),
)
def test_exponent_extractor_matches_trial_division(body, tail, how, k):
    # a tail exponent of 2^10 or more on an odd prime takes the pure-power
    # path (its up pass reaches a 1 kbit divisor); trial division by one p at
    # a time is the reference, so exponents stay below 2^13
    exps = body + [tail]
    code = _code(exps)
    if how == "gap":  # p_len is skipped
        code *= nth_prime(len(exps) + k) ** k
    elif how == "plus_one":
        code += 1
    elif how == "minus_one":
        code -= 1
    elif how == "no_p0":
        code >>= exps[0]
    elif how == "pure_odd":  # must read as a gap at p_0
        code = nth_prime(k + len(body)) ** tail
    elif how == "next_prime":  # p^tail times the next prime is no pure power
        code *= nth_prime(len(exps))
    found, gap = prime_exponents(code)
    expected = found if gap is None else f"gap in prime support at p_{gap}"
    assert _extract(code) == expected
    if how == "pure_odd":
        assert expected == "gap in prime support at p_0"


def test_exponent_extractor_large_exponents(monkeypatch):
    # exponents up to 2^17, checked against the lists they were built from;
    # the pure-power check must end every code whose last exponent is large,
    # and must never end one whose large exponent is not last
    ended = []
    pure_power = godel._pure_power

    def spy(a, p):
        f = pure_power(a, p)
        ended.append(f is not None)
        return f

    monkeypatch.setattr(godel, "_pure_power", spy)
    rng = random.Random(17)
    for big in (2 ** 17, 2 ** 17 - 1, rng.randint(2 ** 10, 2 ** 17)):
        exps = [rng.randint(1, 40) for _ in range(rng.randint(1, 8))]
        ended.clear()
        assert _extract(_code(exps + [big])) == exps + [big]
        assert ended == [True]
        ended.clear()
        assert _extract(_code(exps + [big, 1])) == exps + [big, 1]
        assert ended == [False]
        assert _extract(_code([big], start=len(exps) + 1)) == "gap in prime support at p_0"


# --- recursive division and the block decoder ---

DIVISION_SHAPES = ("random", "prime_power", "exact", "smaller", "ones", "top_digit")


def _operands(shape, abits, bbits, seed):
    rng = random.Random(seed)
    b = rng.getrandbits(bbits) | 1 << bbits - 1
    a = rng.getrandbits(abits)
    if shape == "prime_power":
        p = nth_prime(rng.randrange(1, 40))
        b = p ** max(1, round(bbits / log2(p)))
    elif shape == "exact":
        a = b * rng.getrandbits(abits)
    elif shape == "smaller":
        a %= b
    elif shape == "ones":  # long runs of equal digits force quotient corrections
        a, b = (1 << abits) - 1, (1 << bbits) - 1 - ((1 << rng.randrange(bbits)) >> 1)
    elif shape == "top_digit":  # the top half of a equals the top half of b
        a = (b << abits) - 1 - rng.getrandbits(bbits)
    return a, b


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(DIVISION_SHAPES), st.integers(0, 3000), st.integers(1, 1500),
       st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 7, 64)), st.sampled_from((1, 32, 256)))
def test_divmod_matches_builtin_below_lowered_limits(shape, abits, bbits, seed, leaf, least):
    # small leaf and divisor limits make small operands recurse deeply
    a, b = _operands(shape, abits, bbits, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(godel, "_DIV_LEAF_BITS", leaf)
        mp.setattr(godel, "_DIV_MIN_BITS", least)
        assert godel._divmod(a, b) == divmod(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIVISION_SHAPES),
       st.sampled_from((0, 4000, 9000, 20000, 60000)), st.integers(0, 200),
       st.sampled_from((100, 8192, 8193, 12000, 30000)), st.integers(0, 2 ** 32 - 1))
def test_divmod_matches_builtin_at_its_limits(shape, abits, jitter, bbits, seed):
    # quotients and divisors on both sides of the leaf and divisor limits
    a, b = _operands(shape, abits + bbits + jitter - 100, bbits, seed)
    assert godel._divmod(a, b) == divmod(a, b)


def test_divmod_makes_no_reference_cycles():
    # a cycle would keep the big ints it reaches alive until a collection
    rng = random.Random(41)
    a, b = rng.getrandbits(1 << 20), rng.getrandbits(1 << 19) | 1 << (1 << 19) - 1
    gc.collect()
    gc.disable()
    try:
        q, r = godel._divmod(a, b)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert q * b + r == a and 0 <= r < b


def _extract_with(code, after, min_bits=0):
    # _contiguous_exponents with blocks from p_after on while the cofactor
    # has over min_bits bits; min_bits = 2^62 removes every prime one at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(godel, "_BLOCKS_AFTER", after)
        mp.setattr(godel, "_BLOCKS_MIN_BITS", min_bits)
        return _extract(code)


BLOCK_PERTURBATIONS = ("none", "gap_inside", "gap_after", "junk_tail", "plus_one")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 9) | st.integers(10, 300), min_size=1, max_size=120),
    st.integers(1, 12),
    st.sampled_from(BLOCK_PERTURBATIONS),
    st.integers(0, 2 ** 32 - 1),
)
def test_block_decoder_matches_one_prime_at_a_time(exps, after, how, seed):
    # blocks end inside and past the support, exponents above every one seen
    # before send a leaf to _remove_factor, a cofactor that shrinks to
    # min_bits goes back to single primes, and gaps give the same message
    rng = random.Random(seed)
    code = _code(exps)
    if how == "gap_inside":  # p_i removed
        i = rng.randrange(len(exps))
        code //= nth_prime(i) ** exps[i]
    elif how == "gap_after":  # p_len skipped
        code *= nth_prime(len(exps) + rng.randint(1, 40)) ** rng.randint(1, 20)
    elif how == "junk_tail":
        code *= rng.getrandbits(rng.randint(1, 4000)) | 1
    elif how == "plus_one":
        code += 1
    expected = _extract_with(code, 1, 1 << 62)
    assert _extract_with(code, after) == expected
    assert _extract_with(code, after, rng.randint(0, code.bit_length())) == expected
    if how == "none":
        assert expected == exps


def test_long_codes_are_read_by_blocks(monkeypatch):
    # a long code takes the block branch after its first _BLOCKS_AFTER primes,
    # a short one never does; only that branch builds a product tree
    calls = []
    tree = godel._product_tree

    def spy(xs):
        calls.append(xs[0])  # p^K for the block's first prime p
        return tree(xs)

    monkeypatch.setattr(godel, "_product_tree", spy)
    rng = random.Random(43)
    exps = [rng.randint(1, 12) for _ in range(3000)]
    exps[2000] = 5000
    assert godel._contiguous_exponents(godel._power_product(exps)) == exps
    assert calls and calls[0] % nth_prime(godel._BLOCKS_AFTER) == 0
    seen = len(calls)
    assert decode_seq(encode_seq(list(range(100)))) == list(range(100))
    assert len(calls) == seen


def test_power_product_tree_matches_the_loop():
    # above _TREE_PRIMES primes the code is multiplied up a product tree
    rng = random.Random(44)
    for n in (godel._TREE_PRIMES, godel._TREE_PRIMES + 1, 1001):
        exps = [rng.randint(1, 60) for _ in range(n)]
        assert godel._power_product(exps) == _code(exps)
        assert godel._power_product(exps, 7) == _code(exps, start=7)


# --- sequence codes ---

def test_encode_seq_values():
    assert encode_seq([]) == 1
    assert encode_seq([0]) == 2
    assert encode_seq([3, 1]) == 144


def test_encode_seq_rejects_non_naturals_before_computing():
    # each element is checked before x + 1 is formed, so a str or a None is
    # named like a float or a negative, not by the operator it would break
    for xs in (["a"], [None], [0.5], [-1], [2, "3"], [1, None, 2], [[1]], [True],
               [-10 ** 5000]):
        with pytest.raises(ValueError, match="^sequence elements must be naturals$"):
            encode_seq(xs)


def test_seq_long_values():
    assert seq_long(1) == 0
    assert seq_long(144) == 1
    assert seq_long(encode_seq([7])) == 0
    assert seq_long(10) == 0  # 10 = 2 * 5 is not in Seq
    assert seq_long(0) == 0 and seq_long(-3) == 0
    assert not is_seq_code(10) and not is_seq_code(0) and not is_seq_code(-3)


def test_seq_at_values():
    assert seq_at(144, 0) == 3
    assert seq_at(144, 1) == 1
    assert seq_at(encode_seq([0]), 0) == 0
    with pytest.raises(IndexOutOfRange):
        seq_at(144, 2)
    with pytest.raises(IndexOutOfRange):
        seq_at(1, 0)
    for not_seq in (10, 0, -3):
        with pytest.raises(IndexOutOfRange, match=f"^{not_seq} is not a nonempty"):
            seq_at(not_seq, 0)


def test_seq_concat():
    assert seq_concat(encode_seq([3]), encode_seq([1])) == 144
    assert seq_concat(1, 144) == 144
    assert seq_concat(144, 1) == 144
    # a non-sequence left side is multiplied onto as if its Long were 0
    assert seq_concat(10, 144) == 10 * 3 ** 4 * 5 ** 2
    assert seq_concat(0, 144) == 0
    for not_seq in (10, 0):
        for a in (144, 1):  # the empty code on the left is no shortcut
            with pytest.raises(IndexOutOfRange, match=f"^{not_seq} is not a nonempty"):
                seq_concat(a, not_seq)
    rng = random.Random(5)
    for _ in range(200):
        xs = [rng.randrange(20) for _ in range(rng.randrange(5))]
        ys = [rng.randrange(20) for _ in range(rng.randrange(5))]
        code = seq_concat(encode_seq(xs), encode_seq(ys))
        assert code == encode_seq(xs + ys)
        assert decode_seq(code) == xs + ys


def test_seq_concat_takes_natural_ints_only():
    # checked before the empty code 1 is taken for an identity, which once
    # returned the other argument as it was
    assert seq_concat(1, 1) == 1
    assert seq_concat(10, 1) == 10
    for a, b in ((1, 2.5), (True, 5), (1, -3), (2.5, 1), (144, True), (-3, 144)):
        with pytest.raises(ValueError, match="^not a natural number: "):
            seq_concat(a, b)


def test_seq_concat_associative_at_list_level():
    rng = random.Random(6)
    for _ in range(60):
        lists = [[rng.randrange(9) for _ in range(rng.randrange(4))] for _ in range(3)]
        a, b, c = (encode_seq(xs) for xs in lists)
        assert decode_seq(seq_concat(seq_concat(a, b), c)) == sum(lists, [])


def test_seq_round_trip_and_remark_identity():
    rng = random.Random(7)
    for _ in range(200):
        xs = [rng.randrange(51) for _ in range(rng.randrange(9))]
        a = encode_seq(xs)
        assert is_seq_code(a)
        assert decode_seq(a) == xs
        if xs:
            prod = 1
            for i in range(seq_long(a) + 1):
                prod *= nth_prime(i) ** (seq_at(a, i) + 1)
            assert prod == a


# --- set codes ---

def test_encode_set_values():
    assert encode_set([1]) == 2
    assert encode_set([2, 3]) == 2 ** 2 * 3 ** 3
    with pytest.raises(ZeroElement):
        encode_set([0, 1])
    with pytest.raises(ValueError):
        encode_set([3, 2])


def test_encode_set_rejects_negative_elements():
    # a negative element would be a negative exponent, and the code a float
    for xs in ([-1], [-1, 2], [-2, 3], [2, -1], [True], [1, -10 ** 5000]):
        with pytest.raises(ValueError, match="^set elements must be naturals$"):
            encode_set(xs)
    with pytest.raises(ZeroElement):
        encode_set([0, -1])


def test_bad_arguments_raise_rather_than_answer():
    # each of these returned a number: a negative index read from the end of
    # a list, a negative or fractional exponent made a float, a negative
    # pair argument collided with the code of (0, 0)
    with pytest.raises(IndexOutOfRange, match="index -1 out of range for length 3"):
        seq_at(encode_seq([3, 1, 4]), -1)
    for call in (lambda: nth_prime(-1), lambda: nth_prime(1.5), lambda: pair(-1, 0),
                 lambda: pair(2, -1), lambda: pair(0.5, 1), lambda: unpair(-1),
                 lambda: encode_seq([0.5]), lambda: encode_set([1, 2.5]),
                 lambda: bounded_mu(lambda y: False, -3), lambda: seq_at(144, 1.0)):
        with pytest.raises(ValueError):
            call()
    assert bounded_mu(lambda y: False, 0) == 0


def test_every_entry_point_refuses_what_is_no_natural():
    # one rule for every public call: a bool, float, str, None or negative
    # int is refused with a ValueError, "not a natural number: x" or "name
    # must be a natural number, got x", and an int of 5000 digits is named
    # by its size, never by the interpreter's int-to-str limit.  A code, or
    # a sequence index, may be any int: one below 1, or below 0, meets the
    # call's own failure.  euclid_div, eval_nat, eval_def, fast_growing and
    # the arrow relations have tests of their own
    from peano_forge import (NotCoprime, Partition, Proj, bezout_inverse, decode_partition,
                             encode_partition, find_homogeneous, substitute)
    P = Partition.from_function(4, 1, 2, lambda s: s[0] % 2)
    f = Eq(Var(0), Zero())
    calls = [  # (call, the argument's name, the outcome for a negative int)
        (nth_prime, None, ValueError),
        (lambda x: bounded_mu(lambda y: True, x), "bound", ValueError),
        (lambda x: pair(x, 1), None, ValueError),
        (lambda x: pair(1, x), None, ValueError),
        (unpair, None, ValueError),
        (Var, None, ValueError),
        (lambda x: ForAll(x, f), None, ValueError),
        (lambda x: Exists(x, f), None, ValueError),
        (lambda x: substitute(f, x, One()), None, ValueError),
        (lambda x: Proj(x, 2), None, ValueError),
        (lambda x: Proj(1, x), None, ValueError),
        (lambda x: bezout_inverse(x, 3), None, ValueError),
        (lambda x: bezout_inverse(3, x), None, ValueError),
        (lambda x: find_homogeneous(P, x), "k", ValueError),
        (lambda x: decode_partition(encode_partition(P), x, 1, 2), "m", ValueError),
        (lambda x: decode_partition(encode_partition(P), 4, x, 2), "n", ValueError),
        (lambda x: decode_partition(encode_partition(P), 4, 1, x), "r", ValueError),
        (decode_seq, None, NotACode),
        (decode_set, None, NotACode),
        (decode_formula, None, NotACode),
        (lambda x: decode_partition(x, 4, 1, 2), None, NotACode),
        (lambda x: seq_at(x, 0), None, IndexOutOfRange),
        (lambda x: seq_at(144, x), None, IndexOutOfRange),
        (is_seq_code, None, False),
        (seq_long, None, 0),
    ]
    for call, name, negative in calls:
        for bad in NOT_NATURALS:
            if type(bad) is int and negative is not ValueError:
                if type(negative) is type:
                    with pytest.raises(negative) as info:
                        call(bad)
                    assert "Exceeds the limit" not in str(info.value)
                else:
                    assert call(bad) == negative
                continue
            with pytest.raises(ValueError) as info:
                call(bad)
            assert type(info.value) is ValueError and str(info.value) == (
                f"not a natural number: {shown(bad)}" if name is None
                else f"{name} must be a natural number, got {shown(bad)}"), (call, bad)
    # 0 is a natural: each of these refuses it with its own failure
    for call, error in ((lambda: bezout_inverse(0, 3), NotCoprime), (lambda: decode_seq(0), NotACode),
                        (lambda: decode_partition(encode_partition(P), 0, 1, 2), NotACode)):
        with pytest.raises(error):
            call()


def test_codes_over_the_size_budget_are_refused(monkeypatch):
    # the bound sum e_i * bitlen(p_i) is checked before any multiplication
    with pytest.raises(BudgetExceeded, match="^a code of up to 268435458 bits is over "
                                             "the budget of 268435456 bits$"):
        godel._power_product([2 ** 27 + 1])  # bitlen(2) = 2
    with pytest.raises(BudgetExceeded):
        encode_seq([1, 2 ** 28])
    with pytest.raises(BudgetExceeded):
        encode_set([2 ** 28])
    with pytest.raises(BudgetExceeded):  # 3^(2^27 + 1) after the shift
        seq_concat(2, 1 << (2 ** 27 + 1))
    # at the budget a code is built, one bit over it is not
    monkeypatch.setattr(godel, "_MAX_CODE_BITS", 2 * 10 + 3 * 5)
    assert godel._power_product([10, 0, 5]) == 2 ** 10 * 5 ** 5
    with pytest.raises(BudgetExceeded):
        godel._power_product([10, 1, 5])


def test_decode_set():
    assert decode_set(108) == [2, 3]
    assert decode_set(2) == [1]
    with pytest.raises(NotACode):
        decode_set(5)
