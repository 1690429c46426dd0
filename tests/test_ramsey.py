import math
import random
from itertools import combinations, product

import pytest

from peano_forge import (
    BadSubset,
    BudgetExceeded,
    EmptySet,
    FastGrowingBudget,
    HomogReport,
    InvalidPartitionFile,
    NotACode,
    Partition,
    SearchSpaceTooLarge,
    ShapeMismatch,
    arrow,
    ceil_sqrt,
    check_subset_criterion,
    combine,
    decode_partition,
    encode_partition,
    fast_growing,
    find_counterexample,
    find_homogeneous,
    is_homogeneous,
    is_relatively_large,
    min_witness,
    partition_from_text,
    partition_to_text,
    ph_arrow,
    product_partition,
    raise_arity,
)
from helpers import NOT_NATURALS, shown
from oracles import (
    first_homogeneous,
    largest_monochromatic_clique,
    naive_arrow,
    naive_first_canonical,
    naive_min_witness,
)

CYCLE5 = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def pentagon():
    """The classic triangle-free 2-coloring of the pairs of {0..4}."""
    return Partition.from_function(5, 2, 2, lambda s: 0 if s in CYCLE5 else 1)


def random_partition(rng, m, n, r):
    return Partition.from_function(m, n, r, lambda s: rng.randrange(r))


# --- Partition basics ---

def test_partition_validation():
    with pytest.raises(ShapeMismatch):
        Partition(3, 4, 2, [])
    with pytest.raises(ShapeMismatch):
        Partition(4, 2, 2, [0] * 5)
    with pytest.raises(ShapeMismatch):
        Partition(4, 2, 2, [2] * 6)
    with pytest.raises(ShapeMismatch, match="^need at least one color$"):
        Partition(3, 2, 0, [0, 0, 0])
    for colors in ({(0, 1): 0, (0, 2): 0}, {(0, 1): 0, (0, 2): 0, (1, 3): 0}):
        with pytest.raises(ShapeMismatch, match="^coloring must cover exactly the n-subsets$"):
            Partition(3, 2, 2, colors)
    P = Partition(4, 2, 2, [0, 1, 0, 1, 0, 1])
    assert P.color((0, 1)) == 0
    with pytest.raises(BadSubset):
        P.color((0, 5))
    assert repr(P) == "Partition(m=4, n=2, r=2)"


def test_partition_fields_are_ints():
    # a colour, m, n or r that is no int is a ShapeMismatch, never a raw
    # TypeError or a float taken for the int it equals (subsets_colex's
    # cache holds 3.0 and 3 as one key)
    for colors, bad in ((["a", 0, 1], "'a'"), ([1.0, 0, 1], "1.0"), ([0, None, 1], "None"),
                        ([True, 0, 1], "True")):
        with pytest.raises(ShapeMismatch) as info:
            Partition(3, 2, 2, colors)
        assert str(info.value) == f"color {bad} outside 0..1"
    with pytest.raises(ShapeMismatch, match=r"^color 1\.0 outside 0\.\.1$"):
        Partition(3, 2, 2, {(0, 1): 0, (0, 2): 1.0, (1, 2): 0})
    for m, n, r in ((3.0, 2, 2), (3, 2.0, 2), (3, 2, "2"), (3, True, 2)):
        with pytest.raises(ShapeMismatch) as info:
            Partition(m, n, r, [0, 0, 0])
        assert str(info.value) == f"m, n and r must be ints, got {m!r}, {n!r}, {r!r}"


def test_partition_is_immutable():
    P = Partition(4, 2, 2, [0, 1, 0, 1, 0, 1])
    with pytest.raises(AttributeError):
        P.m = 5
    with pytest.raises(AttributeError):
        del P.colors
    Q = Partition(4, 2, 2, [0, 1, 0, 1, 0, 1])
    assert (P.m, P.colors) == (4, (0, 1, 0, 1, 0, 1))
    assert P == Q and hash(P) == hash(Q) and P != Partition(4, 2, 2, [0] * 6)


def test_partition_from_dict_round_trip():
    P = pentagon()
    assert Partition(5, 2, 2, P.as_dict()) == P


# --- homogeneity and largeness ---

def test_is_homogeneous_examples():
    P = pentagon()
    assert is_homogeneous(P, (0, 1)) is True  # single subset
    const = Partition.from_function(5, 2, 3, lambda s: 2)
    assert is_homogeneous(const, (0, 2, 3, 4)) is True
    Q = Partition.from_function(5, 2, 2, lambda s: 0 if s == (0, 1) else 1)
    assert is_homogeneous(Q, (0, 1, 2)) is False


def test_is_homogeneous_validates_subset():
    P = pentagon()
    with pytest.raises(BadSubset):
        is_homogeneous(P, (3,))  # too small
    with pytest.raises(BadSubset):
        is_homogeneous(P, (1, 7))
    with pytest.raises(BadSubset):
        is_homogeneous(P, (2, 1))


def test_is_relatively_large():
    assert is_relatively_large((0, 5)) is True
    assert is_relatively_large((3, 4, 5)) is True
    assert is_relatively_large((4, 5, 6)) is False
    with pytest.raises(EmptySet):
        is_relatively_large(())
    # H is read as a set: (3, 3, 3) is {3}, one element, not three, and
    # the order of the elements does not matter
    assert is_relatively_large((3, 3, 3)) is False
    assert is_relatively_large((3, 3, 3, 0)) is True
    assert is_relatively_large((8, 1)) is is_relatively_large({1, 8}) is True
    assert is_relatively_large([5, 3]) is False


def test_rank_inverts_subsets_colex():
    from peano_forge.ramsey import _rank, subsets_colex
    for m in range(13):
        for n in range(m + 1):
            for i, s in enumerate(subsets_colex(m, n)):
                assert _rank(s) == i, (m, n, s)


def test_color_reads_the_subset_at_its_rank():
    rng = random.Random(33)
    for n, m, r in product((1, 2, 3, 4), (4, 6, 8), (1, 3, 300)):
        P = random_partition(rng, m, n, r)
        for s, c in P.as_dict().items():
            assert P.color(s) == P.color(list(s)) == c


def test_points_must_be_ints():
    # a bool, a float, a string or None is no point, and a set must be an
    # iterable: each is a BadSubset naming it, never a raw TypeError or a
    # float read as the int it equals
    P = pentagon()
    bad = (((False, True), "set elements must be ints, got False"),
           ((0.0, 1.0, 2.0), "set elements must be ints, got 0.0"),
           ((0, 1.0), "set elements must be ints, got 1.0"),
           (("a", "b"), "set elements must be ints, got 'a'"),
           ("ab", "set elements must be ints, got 'a'"),
           ((None, 1), "set elements must be ints, got None"),
           ((0, 1, None), "set elements must be ints, got None"),
           (5, "a set must be an iterable of ints, got 5"),
           (None, "a set must be an iterable of ints, got None"),
           (10 ** 700, "a set must be an iterable of ints, got <an int of at least 2^2325>"))
    for H, message in bad:
        for check in (P.color, lambda H: is_homogeneous(P, H),
                      lambda H: check_subset_criterion(P, H), is_relatively_large):
            with pytest.raises(BadSubset) as info:
                check(H)
            assert str(info.value) == message, (H, check)
    for H, message in (((0, 1, 2), "(0, 1, 2) is not an n-subset of the ground set"),
                       ((3,), "(3,) is not an n-subset of the ground set"),
                       ((1, 0), "set must be sorted and duplicate-free"),
                       ((0, 5), "elements must lie in 0..4")):
        with pytest.raises(BadSubset) as info:
            P.color(H)
        assert str(info.value) == message


def test_color_reads_list_no_subsets():
    # reading colors by rank lists no subsets: on an (m, n) met nowhere
    # else, these leave the cache of subsets_colex empty
    from peano_forge.ramsey import subsets_colex
    rng = random.Random(34)
    colors = [rng.randrange(2) for _ in range(math.comb(11, 3))]
    text = "11 3 2\n" + "".join(f"{a} {b} {c} : {colors[i]}\n" for i, (a, b, c) in
                                enumerate(sorted(combinations(range(11), 3), key=lambda s: s[::-1])))
    subsets_colex.cache_clear()
    P = Partition(11, 3, 2, colors)
    assert P.color((2, 5, 9)) == colors[math.comb(2, 1) + math.comb(5, 2) + math.comb(9, 3)]
    assert is_homogeneous(P, (0, 1, 2)) is True
    assert is_homogeneous(P, tuple(range(11))) is False
    assert check_subset_criterion(P, tuple(range(11))) is False
    assert partition_from_text(text) == P
    find_homogeneous(P, 3, require_large=True)
    assert subsets_colex.cache_info().currsize == 0


def test_find_homogeneous():
    const = Partition.from_function(6, 2, 2, lambda s: 0)
    rep = find_homogeneous(const, 3, require_large=True)
    assert rep is not None and rep.relatively_large and rep.size >= 3
    assert rep.set == tuple(range(6))  # maximal-first search
    assert find_homogeneous(pentagon(), 3) is None
    P = random_partition(random.Random(1), 5, 2, 3)
    rep = find_homogeneous(P, 2)
    assert rep is not None and rep.size >= 2
    with pytest.raises(BadSubset, match=r"^need k >= n, got k=1, n=2$"):
        find_homogeneous(P, 1)
    # {5, 6, 7} is the largest homogeneous set but too small for its minimum,
    # so a relatively large search skips it and goes on to {1, 2}
    P = Partition.from_function(8, 1, 5, lambda s: (0, 1, 1, 2, 3, 4, 4, 4)[s[0]])
    assert find_homogeneous(P, 2) == HomogReport((5, 6, 7), 4, 3, False)
    assert find_homogeneous(P, 2, require_large=True) == HomogReport((1, 2), 1, 2, True)
    assert find_homogeneous(P, 3, require_large=True) is None


def test_find_homogeneous_matches_the_subset_listing_oracle():
    # a seeded grid of random colorings and of two-block ones, which have
    # many large homogeneous sets: every k from n to m + 1, both values of
    # require_large, report for report
    rng = random.Random(32)
    checked = 0
    for n, top in ((1, 10), (2, 10), (3, 9), (4, 9)):
        for m in range(n, top + 1):
            for r, block, _ in product((1, 2, 3), (False, True), range(6)):
                cut = rng.randint(0, m)

                def color(s):
                    if block and (s[-1] < cut or s[0] >= cut):
                        return int(s[0] >= cut) % r
                    return rng.randrange(r)

                P = Partition.from_function(m, n, r, color)
                for k in range(n, m + 2):
                    for large in (False, True):
                        want = first_homogeneous(P, k, large)
                        want = None if want is None else HomogReport(*want)
                        assert find_homogeneous(P, k, require_large=large) == want, \
                            (P.colors, k, large)
                        checked += 1
    assert checked > 13000


def test_find_homogeneous_reads_colors_of_any_size():
    # the rows compare colors as ints of any size: renaming the colors
    # injectively, past a byte and past a machine word, the reports keep
    # their sets
    rng = random.Random(35)
    for n, m, r in product((1, 2, 3), (3, 5, 7), (1, 2, 3)):
        P = random_partition(rng, m, n, r)
        for names, q in (((255, 0, 128), 256), ((257, 2 ** 70, 0), 2 ** 70 + 1)):
            Q = Partition(m, n, q, [names[c] for c in P.colors])
            for k, large in product(range(n, m + 1), (False, True)):
                want = find_homogeneous(P, k, require_large=large)
                if want is not None:
                    want = HomogReport(want.set, names[want.color], want.size,
                                       want.relatively_large)
                assert find_homogeneous(Q, k, require_large=large) == want, (Q.colors, k)


def test_find_homogeneous_answers_where_listing_subsets_cannot():
    # listing subsets from size m down, as the search once did, tries about
    # 2^60 candidate sets on the 60-point counterexample (past 10 minutes)
    # and about 2^40 on 40 random points
    cex = find_counterexample(60, 3, 30, 1, cap=None)
    assert find_homogeneous(cex, 3) is None
    assert find_homogeneous(pentagon(), 3) is None
    P = random_partition(random.Random(40), 40, 2, 2)
    rep = find_homogeneous(P, 2)
    assert is_homogeneous(P, rep.set)
    assert rep.size == len(rep.set) == largest_monochromatic_clique(P)
    assert find_homogeneous(P, rep.size + 1) is None
    # 5000 levels deep, on an explicit stack
    const = Partition(5000, 1, 1, [0] * 5000)
    assert find_homogeneous(const, 1) == HomogReport(tuple(range(5000)), 0, 5000, True)


# --- the arrow relations against the dumb oracle ---

def test_arrow_golden_values():
    assert arrow(6, 3, 2, 2) is True
    assert arrow(5, 3, 2, 2) is False
    for m in (3, 5, 8):
        assert arrow(m, 3, 1, 2) is (3 <= m)


def test_arrow_matches_naive_oracle_on_grid():
    for n in (1, 2):
        for r in (1, 2):
            for k in range(n, 4):
                for m in range(k, 6):
                    want = naive_arrow(m, k, r, n)
                    assert arrow(m, k, r, n) == want, (m, k, r, n)


def test_ph_matches_naive_oracle_on_grid():
    for n in (1, 2):
        for r in (1, 2):
            for k in range(n, 4):
                for m in range(k, 6):
                    want = naive_arrow(m, k, r, n, large=True)
                    assert ph_arrow(m, k, r, n) == want, (m, k, r, n)


def test_arrow_matches_oracle_more_colors_and_arity():
    # exercises canonical-coloring pruning beyond two colors and pair arity
    for m in range(3, 6):
        assert arrow(m, 3, 3, 2) == naive_arrow(m, 3, 3, 2), m
        assert ph_arrow(m, 3, 3, 2) == naive_arrow(m, 3, 3, 2, large=True), m
    for m in range(4, 6):
        assert arrow(m, 4, 2, 3) == naive_arrow(m, 4, 2, 3), m
        assert ph_arrow(m, 4, 2, 3) == naive_arrow(m, 4, 2, 3, large=True), m


PENTAGON_CEX_TEXT = (
    "5 2 2\n"
    "0 1 : 0\n0 2 : 0\n1 2 : 1\n0 3 : 1\n1 3 : 0\n"
    "2 3 : 1\n0 4 : 1\n1 4 : 1\n2 4 : 0\n3 4 : 0\n"
)


def test_counterexample_is_valid_and_deterministic():
    cex = find_counterexample(5, 3, 2, 2)
    assert cex is not None
    assert find_homogeneous(cex, 3) is None
    # both color classes of the unique extremal coloring are pentagons
    class0 = [s for s, c in cex.items() if c == 0]
    assert len(class0) == 5
    # frozen bytes: the first canonical counterexample never changes
    assert partition_to_text(cex) == PENTAGON_CEX_TEXT
    assert find_counterexample(5, 3, 2, 2, jobs=8) == cex
    assert find_counterexample(5, 3, 2, 2, jobs=3) == cex


def test_ph_counterexample_deterministic_across_jobs():
    a = find_counterexample(5, 3, 2, 2, large=True, jobs=1)
    b = find_counterexample(5, 3, 2, 2, large=True, jobs=8)
    assert a == b


def test_first_counterexample_matches_first_canonical_oracle():
    # the search may prune, but its answer is the first canonical coloring
    # in plain product order; k = n and r = 1 are in the grid
    checked = 0
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for m in range(n, 11):
                if r ** math.comb(m, n) > 2 ** 15:
                    continue
                for k in range(n, m + 1):
                    for large in (False, True):
                        cex = find_counterexample(m, k, r, n, large=large)
                        got = None if cex is None else cex.colors
                        assert got == naive_first_canonical(m, k, r, n, large), (m, k, r, n, large)
                        checked += 1
    assert checked > 500


# The first counterexamples of the benchmark's first-hit instances, one digit
# per subset in colex order.  The benchmark accepts any valid counterexample,
# so these pin the enumeration order on instances deep enough to prune.
FIRST_HIT_GOLDENS = {
    (12, 4, 2, 2, True):
        "000001001101000010001100000010000011110111010111011010011110101000",
    (13, 4, 2, 2, True):
        "000001001101000010001100000010001011101100110110111010011101101000"
        "111101010000",
    (10, 4, 2, 3, False):
        "000100110000110111000100100101011000100110110100011100010111101010"
        "010101001100100111100001001110010101001010111011100100",
    (11, 4, 2, 2, False):
        "0000010011010000100011000000100000111100110101111010100",
    (12, 3, 6, 1, False): "001122334455",
    # both from the search without the vertex symmetry cut: the Ramsey one
    # is deep in the order (1.3 million nodes there), and the PH one would
    # change if the cut swapped vertices above k, which PH does not allow
    (12, 4, 2, 2, False):
        "000001001101000010001100000110000101110000110110011001011110100100",
    (12, 4, 3, 2, True):
        "000001001100112001122001211100121112002111111002111111200222111111",
}


def test_first_hit_goldens():
    for (m, k, r, n, large), want in FIRST_HIT_GOLDENS.items():
        cex = find_counterexample(m, k, r, n, large=large, cap=None)
        assert "".join(map(str, cex.colors)) == want, (m, k, r, n, large)
        assert find_homogeneous(cex, k, require_large=large) is None, (m, k, r, n, large)


def test_three_color_triangle_free_pairs_on_twelve_points():
    # R(3, 3, 3) = 17, so a counterexample exists; the search without the
    # vertex symmetry cut does not reach it in 20 s, so these colors are
    # those of the search with the cut, checked for validity but with no
    # older reference to compare against
    cex = find_counterexample(12, 3, 3, 2, cap=None)
    assert find_homogeneous(cex, 3) is None
    assert "".join(map(str, cex.colors)) == (
        "001012021110000100012121102020010122200202111212022100022201120001")


def test_pair_closers_match_the_trigger_table():
    # at every rank of seeded random pair colorings, and in every color, the
    # ranks that the graph search excludes are those the trigger table
    # excludes for the same monochromatic mask
    from peano_forge.ramsey import _build_triggers, _pair_closers, subsets_colex
    rng = random.Random(28)
    checked = 0
    for large in (False, True):
        for k in range(3, 7):
            for r in (1, 2, 3):
                for m in (k + 1, 9, 12):
                    triggers = _build_triggers(m, 2, k, large)
                    pairs = subsets_colex(m, 2)
                    for _ in range(2):
                        nb = [[0] * m for _ in range(r)]
                        cls = [0] * r
                        for pos, (a, b) in enumerate(pairs):
                            for c in range(r):
                                mono = cls[c] | 1 << pos
                                want = 0
                                for prefix, last in triggers[pos]:
                                    if prefix & mono == prefix:
                                        want |= last
                                got = _pair_closers(nb[c], a, b, k, large) << math.comb(b, 2)
                                assert got == want, (m, k, r, large, pos, c)
                                checked += 1
                            c = rng.randrange(r)
                            cls[c] |= 1 << pos
                            nb[c][a] |= 1 << b
                            nb[c][b] |= 1 << a
    assert checked > 10000


def test_pair_search_matches_the_trigger_search():
    # every instance with m <= 12, both searches with the vertex symmetry
    # cut; k = 2 holds before either search runs
    from peano_forge.ramsey import _build_triggers, _couples, _scan, _scan_pairs
    checked = 0
    for m in range(2, 13):
        for k in range(2, m + 1):
            for r in (1, 2, 3):
                for large in (False, True):
                    if k == 2:
                        assert find_counterexample(m, k, r, 2, large, cap=None) is None
                    else:
                        want = _scan(r, _build_triggers(m, 2, k, large), _couples(m, 2, k, large))
                        assert _scan_pairs(m, k, r, large) == want, (m, k, r, large)
                    checked += 1
    assert checked > 390


def test_symmetry_cut_keeps_the_first_counterexample():
    # the search with the lex-leader cut against the trigger search with no
    # couples, which is the plain canonical search: pairs with m <= 12 and
    # r <= 3, PH pairs with r = 3 up to m = 14 (where swapping vertices above
    # k would change the first hit), and triples up to m = 10.  Ramsey
    # (12, 4, 2) and (12, 3, 3) take the plain search seconds or more; the
    # goldens above cover them
    from peano_forge.ramsey import _build_triggers, _scan
    instances = [(m, k, r, 2, large) for m in range(3, 13) for k in range(3, m + 1)
                 for r in (1, 2, 3) for large in (False, True)
                 if large or (m, k, r) not in {(12, 4, 2), (12, 3, 3)}]
    instances += [(m, k, 3, 2, True) for m in (13, 14) for k in range(3, m + 1)]
    instances += [(m, k, r, 3, large) for m in range(4, 11) for k in range(4, m + 1)
                  for r in (1, 2, 3) for large in (False, True)]
    for m, k, r, n, large in instances:
        want = _scan(r, _build_triggers(m, n, k, large), [()] * math.comb(m, n))
        cex = find_counterexample(m, k, r, n, large, cap=None)
        assert (None if cex is None else cex.colors) == want, (m, k, r, n, large)
    assert len(instances) > 500


def test_point_colorings_match_the_trigger_search():
    # Ramsey point colorings are decided by pigeonhole; the trigger search,
    # with the vertex symmetry cut, is the reference; k = 1 holds before
    # either runs
    from peano_forge.ramsey import _build_triggers, _couples, _scan
    checked = 0
    for m in range(1, 15):
        for k in range(1, m + 1):
            for r in range(1, 7):
                want = None if k == 1 else _scan(r, _build_triggers(m, 1, k, False),
                                                 _couples(m, 1, k, False))
                cex = find_counterexample(m, k, r, 1, cap=None)
                assert (None if cex is None else cex.colors) == want, (m, k, r)
                checked += 1
    assert checked > 600


def test_point_colorings_past_the_reach_of_search():
    # 30^61 colorings: no search reaches these, pigeonhole does
    assert arrow(61, 3, 30, 1, cap=None) is True
    cex = find_counterexample(60, 3, 30, 1, cap=None)
    assert cex.colors == tuple(i // 2 for i in range(60))
    assert min_witness(3, 30, 1, max_m=70, cap=None) == 61
    # the cap still bounds the search space a relation names
    with pytest.raises(SearchSpaceTooLarge) as ei:
        arrow(13, 3, 6, 1)
    assert ei.value.required == 6 ** 13


def test_search_arguments_must_be_ints(monkeypatch):
    # refused by name before any work: a float would reach range() or color
    # points with floats, a bool would run the whole search, and an int of
    # 5000 digits is named by its size
    from peano_forge import ramsey

    def unreached(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(ramsey, "_build_triggers", unreached)
    monkeypatch.setattr(ramsey, "_scan_pairs", unreached)
    good = {"m": 5, "k": 3, "r": 2, "n": 2}
    for name in good:
        for bad in NOT_NATURALS:
            args = {**good, name: bad}
            for fn in (find_counterexample, arrow, ph_arrow):
                with pytest.raises(ValueError) as info:
                    fn(**args)
                assert str(info.value) == f"{name} must be a natural number, got {shown(bad)}"
    good = {"k": 3, "r": 2, "n": 1, "max_m": 10}
    for name in good:
        for bad in NOT_NATURALS:
            with pytest.raises(ValueError) as info:
                min_witness(**{**good, name: bad})
            assert str(info.value) == f"{name} must be a natural number, got {shown(bad)}"
    for cap in NOT_NATURALS:
        if cap is None:  # no cap
            continue
        with pytest.raises(ValueError) as info:
            arrow(6, 3, 2, 2, cap=cap)
        assert str(info.value) == f"the enumeration cap must be a natural number, got {shown(cap)}"


def test_one_subset_qualifying_sets_and_one_color():
    # the oracle grid covers these cases only on small m; here m is beyond it
    # k = n makes every n-subset a qualifying set on its own, so no rank can
    # take any color: the relation holds however large the search space
    for m, r, n in ((1, 1, 1), (5, 3, 1), (6, 2, 2), (7, 3, 3), (12, 3, 2)):
        assert arrow(m, n, r, n, cap=None) is True
        assert ph_arrow(m, n, r, n, cap=None) is True
    assert arrow(40, 2, 3, 2, cap=None) is True
    # Paris-Harrington with n = 1 and k = 1: the sets {0} and {1} qualify alone
    assert ph_arrow(16, 1, 3, 1, cap=None) is True
    # one color: a qualifying set always lies inside the one color class
    for m, k, n in ((16, 3, 1), (14, 4, 2), (10, 5, 3)):
        for large in (False, True):
            assert find_counterexample(m, k, 1, n, large=large) is None


def test_a_one_subset_qualifying_set_ends_the_trigger_build(monkeypatch):
    # ph_arrow(40, 3, 3, 3) has 63,248,058 minimal qualifying sets, far too
    # many to list; with k = n the first, {0, 1, 2}, is one 3-subset and
    # settles the relation, so the family is never read, nor for k = n = 2
    from peano_forge import ramsey

    def unread(*args):
        raise AssertionError("the qualifying sets were read")

    monkeypatch.setattr(ramsey, "_qualifying_sets", unread)
    assert ph_arrow(40, 3, 3, 3, cap=None) is True
    assert ph_arrow(40, 2, 3, 2, cap=None) is True


def test_import_loads_no_process_pool():
    # the search is serial, so importing the package must not pull in the
    # process-pool machinery (it also costs every CLI start-up)
    import os
    import subprocess
    import sys

    import peano_forge
    src = os.path.dirname(os.path.dirname(peano_forge.__file__))
    probe = ("import sys, peano_forge; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_commands_load_no_numpy(tmp_path):
    # numpy is imported only when a bounded range is vectorized, so neither
    # the package import nor these commands pay for it; nor do they load
    # dataclasses, json (only decode seq --json and check-homog print it),
    # or a layer that they do not use
    import os
    import subprocess
    import sys

    import peano_forge
    src = os.path.dirname(os.path.dirname(peano_forge.__file__))
    (tmp_path / "add.pr").write_text("(primrec (proj 1 1) (comp succ (proj 3 3)))\n")
    for args, out, unused in (
        (["-c", "import peano_forge"], "", ("formula", "godel", "ramsey", "recfun")),
        (["-m", "peano_forge", "pair", "1", "2"], "8\n", ("formula", "tree", "ramsey", "recfun")),
        (["-m", "peano_forge", "ramsey", "--m", "6", "--k", "3", "--r", "2", "--n", "2"],
         "true\n", ("formula", "godel", "recfun")),
        (["-m", "peano_forge", "parse", "forall x1 (x1 < x0 -> exists x2 (x2 < x1 & x0 = x2))"],
         "ForAll(1, Implies(Lt(Var(1), Var(0)), Exists(2, And(Lt(Var(2), Var(1)), "
         "Eq(Var(0), Var(2))))))\n", ("ramsey", "recfun")),
        (["-m", "peano_forge", "pr-eval", "add.pr", "2", "3"], "5\n", ("formula", "godel", "ramsey")),
        (["-m", "peano_forge", "fastgrow", "2", "3"], "30\n", ("formula", "godel", "recfun")),
    ):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        modules = {line.rsplit("|", 1)[-1].strip()
                   for line in proc.stderr.splitlines() if line.startswith("import time:")}
        loaded = {m.split(".")[0] for m in modules}
        assert (proc.returncode, proc.stdout) == (0, out), args
        assert "peano_forge" in loaded and "numpy" not in loaded, args
        assert not loaded & {"dataclasses", "json"}, args
        assert not modules & {f"peano_forge.{m}" for m in unused}, args


def test_search_space_cap():
    with pytest.raises(SearchSpaceTooLarge) as ei:
        arrow(6, 3, 2, 2, cap=100)
    assert ei.value.required == 2 ** 15
    assert ei.value.cap == 100
    with pytest.raises(SearchSpaceTooLarge) as ei:
        arrow(200, 3, 2, 2)
    assert ei.value.required == 2 ** 19900  # exact, though printed as a power of two
    assert "at least 2^19900 colorings" in str(ei.value)
    for cap in (-1, 1.5, "100"):
        with pytest.raises(ValueError, match="^the enumeration cap must be a natural number"):
            arrow(6, 3, 2, 2, cap=cap)


def test_min_witness():
    assert min_witness(3, 2, 2, "ramsey", max_m=10) == 6
    assert min_witness(2, 1, 1, "ramsey", max_m=10) == 2
    assert min_witness(3, 2, 2, "ph", max_m=10) == 6
    assert min_witness(4, 2, 2, "ramsey", max_m=8) is None  # R(4,4) = 18
    with pytest.raises(SearchSpaceTooLarge):
        min_witness(4, 2, 2, "ramsey", max_m=10)  # m=9 needs 2^36 colorings


def test_min_witness_checks_its_cap_before_any_search():
    # max_m = 1 leaves no m to search, and the cap is still refused
    for cap in (-5, 1.5, "100"):
        for max_m in (1, 10):
            with pytest.raises(ValueError, match="^the enumeration cap must be a natural number"):
                min_witness(3, 2, 2, "ramsey", max_m=max_m, cap=cap)
    assert min_witness(3, 2, 2, "ramsey", max_m=1, cap=None) is None
    with pytest.raises(ValueError):
        min_witness(3, 2, 2, "frobnicate", max_m=5)
    with pytest.raises(ValueError, match="^subset size n must be at least 1$"):
        find_counterexample(3, 2, 2, 0)


def test_ph_min_witnesses_match_oracle_goldens():
    # golden values computed by the in-repo brute-force oracle
    golden = {(2, 1, 1): 2, (2, 2, 1): 3, (3, 2, 1): 5, (3, 2, 2): 6}
    for (k, r, n), want in golden.items():
        assert naive_min_witness(k, r, n, True, 8) == want
        assert min_witness(k, r, n, "ph", max_m=8) == want


def test_arrow_monotone_in_ground_size():
    for n in (1, 2):
        for k in range(n, 4):
            prev_r = prev_ph = False
            for m in range(k, 7):
                cur_r = arrow(m, k, 2, n)
                cur_ph = ph_arrow(m, k, 2, n)
                assert not (prev_r and not cur_r)
                assert not (prev_ph and not cur_ph)
                assert not (cur_ph and not cur_r)  # ph strengthens ramsey
                prev_r, prev_ph = cur_r, cur_ph


# --- reduction constructions ---

def test_product_partition():
    rng = random.Random(11)
    P0 = random_partition(rng, 7, 2, 3)
    P1 = random_partition(rng, 7, 2, 2)
    P = product_partition(P0, P1)
    assert P.r == 6
    for _ in range(300):
        size = rng.randint(2, 7)
        H = tuple(sorted(rng.sample(range(7), size)))
        want = is_homogeneous(P0, H) and is_homogeneous(P1, H)
        assert is_homogeneous(P, H) == want
    const = Partition.from_function(7, 2, 1, lambda s: 0)
    Q = product_partition(P0, const)
    for size in (2, 3, 4):
        for H in combinations(range(7), size):
            assert is_homogeneous(Q, H) == is_homogeneous(P0, H)
    with pytest.raises(ShapeMismatch):
        product_partition(P0, random_partition(rng, 6, 2, 2))


def test_check_subset_criterion_equals_homogeneity():
    rng = random.Random(12)
    for _ in range(200):
        P = random_partition(rng, 6, 2, rng.randint(1, 3))
        size = rng.randint(3, 6)
        H = tuple(sorted(rng.sample(range(6), size)))
        assert check_subset_criterion(P, H) == is_homogeneous(P, H)
    assert check_subset_criterion(pentagon(), tuple(range(5))) is False
    with pytest.raises(BadSubset):
        check_subset_criterion(pentagon(), (0, 1))


def test_ceil_sqrt():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(7) == 3
    for r in range(0, 200):
        s = ceil_sqrt(r)
        assert s * s >= r and (s == 0 or (s - 1) * (s - 1) < r)
    for r in range(7, 200):
        assert r >= 1 + 2 * ceil_sqrt(r)


def test_raise_arity_constant_case():
    const = Partition.from_function(6, 2, 4, lambda s: 3)
    P2 = raise_arity(const)
    assert set(P2.colors) == {0}


def test_raise_arity_equivalence_exhaustive():
    rng = random.Random(13)
    for m in range(4, 9):
        for r in range(1, 10):
            P = random_partition(rng, m, 2, r)
            P2 = raise_arity(P)
            assert P2.n == 3 and P2.m == m
            assert P2.r == 1 + 2 * ceil_sqrt(r)
            assert len(set(P2.colors)) <= 1 + 2 * ceil_sqrt(r)
            for size in range(4, m + 1):
                for H in combinations(range(m), size):
                    assert is_homogeneous(P2, H) == is_homogeneous(P, H), (m, r, H)


def test_raise_arity_preconditions():
    with pytest.raises(ShapeMismatch):
        raise_arity(Partition.from_function(3, 2, 2, lambda s: 0))


def test_combine_mixed_arities():
    rng = random.Random(14)
    P0 = random_partition(rng, 7, 1, 3)
    P1 = random_partition(rng, 7, 2, 4)
    C = combine([P0, P1])
    assert C.m == 7 and C.n == 2
    for size in range(3, 8):
        for H in combinations(range(7), size):
            want = is_homogeneous(P0, H) and is_homogeneous(P1, H)
            assert is_homogeneous(C, H) == want, H
    # the color count is the product of the raised counts; the classical
    # prod max(r_i, 7) bound is logged for comparison, not asserted
    chain_bound = (1 + 2 * ceil_sqrt(3)) * 4
    assert C.r == chain_bound
    print(f"combine colors: got {C.r}, classical bound {max(3, 7) * max(4, 7)}")


def test_combine_singleton_and_errors():
    rng = random.Random(15)
    P = random_partition(rng, 6, 2, 3)
    assert combine([P]) == P
    with pytest.raises(ShapeMismatch):
        combine([])
    with pytest.raises(ShapeMismatch):
        combine([P, random_partition(rng, 5, 2, 2)])
    with pytest.raises(ShapeMismatch):
        combine([random_partition(rng, 4, 3, 2), random_partition(rng, 4, 2, 2)])


# --- fast-growing hierarchy ---

def test_fast_growing_values():
    assert fast_growing(0, 5) == 7
    assert fast_growing(1, 3) == 8
    assert fast_growing(3, 2) == 65534
    for x in range(0, 101, 9):
        assert fast_growing(1, x) == 2 * x + 2
    for x in range(15):
        assert fast_growing(2, x) >= 2 ** x


def test_fast_growing_budget():
    tight = FastGrowingBudget(max_result_bits=10 ** 6, max_iterations=10 ** 6)
    with pytest.raises(BudgetExceeded) as ei:
        fast_growing(3, 5, tight)
    assert ei.value.iterations is not None and ei.value.iterations > 10 ** 6
    with pytest.raises(BudgetExceeded):
        fast_growing(2, 50, FastGrowingBudget(max_result_bits=16,
                                              max_iterations=10 ** 9))
    with pytest.raises(ValueError):
        FastGrowingBudget(0, 5)
    with pytest.raises(BudgetExceeded) as ei:
        fast_growing(3000, 1)  # 3000 levels deep: the budget stops it, not the stack
    assert ei.value.iterations > 10 ** 6  # the default max_iterations
    for n, x in ((-1, 3), (1, -5)):
        with pytest.raises(ValueError):
            fast_growing(n, x)


def test_fast_growing_takes_natural_ints_only():
    # a level or argument that is no natural int is refused (1.5 would run
    # as a level), and a budget field that is no positive int gets the
    # budget's own ValueError, not the TypeError of a comparison
    for bad in NOT_NATURALS:
        for n, x in ((bad, 3), (1, bad)):
            with pytest.raises(ValueError) as info:
                fast_growing(n, x)
            assert str(info.value) == f"not a natural number: {shown(bad)}"
    for bits, iterations in (("a", 3), (3, 1.0), (0, 5), (8, None), (True, 5)):
        with pytest.raises(ValueError) as info:
            FastGrowingBudget(bits, iterations)
        assert str(info.value) == ("budget fields must be positive ints, got "
                                   f"{bits!r}, {iterations!r}")


# --- partition coding ---

def test_partition_codec_round_trip():
    rng = random.Random(16)
    shapes = [(3, 1), (4, 1), (5, 1), (7, 1), (3, 2)]
    for _ in range(60):
        m, n = shapes[rng.randrange(len(shapes))]
        r = rng.randint(1, 4)
        P = random_partition(rng, m, n, r)
        assert decode_partition(encode_partition(P), m, n, r) == P


def test_partition_codec_round_trip_wide_subsets():
    # subset codes grow double-exponentially with n, so one instance each
    rng = random.Random(61)
    for m, n in ((4, 2), (3, 3)):
        P = random_partition(rng, m, n, 3)
        assert decode_partition(encode_partition(P), m, n, 3) == P


def test_partition_codec_single_subset():
    P = Partition.from_function(2, 2, 2, lambda s: 1)
    code = encode_partition(P)
    from peano_forge import seq_long
    assert seq_long(code) == 0  # one-element sequence code
    assert decode_partition(code, 2, 2, 2) == P


def test_partition_codec_header_mismatch():
    P = Partition.from_function(4, 1, 2, lambda s: s[0] % 2)
    code = encode_partition(P)
    with pytest.raises(NotACode):
        decode_partition(code, 4, 1, 1)  # color out of range
    with pytest.raises(NotACode):
        decode_partition(code, 5, 1, 2)  # wrong subset count
    with pytest.raises(NotACode):
        decode_partition(code, 4, 1, 0)
    # C(20000, 10000) has 6019 digits, past what str() of an int allows
    with pytest.raises(NotACode, match=r"^code lists 4 subsets, "
                                       r"header demands <an int of at least 2\^19992>$"):
        decode_partition(code, 20000, 10000, 2)


def test_partition_codec_tamper_never_silently_reshapes():
    rng = random.Random(17)
    from peano_forge import nth_prime
    for _ in range(25):
        P = random_partition(rng, 4, 1, 3)
        code = encode_partition(P)
        tampered = code * nth_prime(rng.randrange(6))
        try:
            Q = decode_partition(tampered, 4, 1, 3)
        except NotACode:
            continue
        assert (Q.m, Q.n, Q.r) == (4, 1, 3)


# --- partition files ---

def test_partition_file_round_trip():
    P = pentagon()
    text = partition_to_text(P)
    assert partition_from_text(text) == P
    assert text.splitlines()[0] == "5 2 2"


def test_partition_file_line_order_irrelevant():
    lines = partition_to_text(pentagon()).splitlines()
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    assert partition_from_text("\n".join(shuffled)) == pentagon()
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 7)
        n, r = rng.randint(1, m), rng.randint(1, 4)
        colors = [rng.randrange(r) for _ in range(math.comb(m, n))]
        body = partition_to_text(Partition(m, n, r, colors)).splitlines()[1:]
        rng.shuffle(body)
        text = "\n".join([f"{m} {n} {r}", *(rng.choice(["", " ", "\t"]) + ln for ln in body)])
        assert partition_from_text(text) == Partition(m, n, r, colors)


def test_partition_file_rejects_garbage():
    with pytest.raises(InvalidPartitionFile):
        partition_from_text("")
    with pytest.raises(InvalidPartitionFile):
        partition_from_text("5 2\n")
    good = partition_to_text(pentagon())
    first_line = good.splitlines()[1]
    with pytest.raises(InvalidPartitionFile):
        partition_from_text(good + first_line + "\n")  # duplicate subset
    with pytest.raises(InvalidPartitionFile):
        partition_from_text("\n".join(good.splitlines()[:-1]) + "\n")  # missing
    with pytest.raises(InvalidPartitionFile):
        partition_from_text(good.replace(": 0", ": 9", 1))  # color range
    # superscript digits are digits to str.isdigit but not to int()
    for bad in ("5 2 ²\n" + good.split("\n", 1)[1],
                good.replace("0 1 :", "0 ¹ :", 1),
                good.replace(": 0", ": ²", 1)):
        with pytest.raises(InvalidPartitionFile):
            partition_from_text(bad)
    # each message names what is wrong, and where
    for text, message in (
        ("", "empty partition file"),
        ("3 4 2\n", "impossible header m=3 n=4 r=2"),
        ("3 2 0\n", "impossible header m=3 n=2 r=0"),
        ("3 2 2\n0 1 0\n", "missing ':' in line '0 1 0'"),
        ("3 2 2\n1 0 : 0\n", "subset not ascending in line '1 0 : 0'"),
        ("3 2 2\n1 1 : 0\n", "subset not ascending in line '1 1 : 0'"),
        ("3 2 2\n0 3 : 0\n", "subset outside the ground set: '0 3 : 0'"),
        ("3 2 2\n0 1 : 2\n", "color 2 outside 0..1"),
        ("3 2 2\n0 1 : 0\n0 2 : 1\n", "2 subsets listed, 3 required"),
        ("3 2 2\n0 1 : 0\n0 1 : 1\n", "duplicate subset (0, 1)"),
        ("20000 10000 2\n", "0 subsets listed, <an int of at least 2^19992> required"),
        # lines out of colex order, read ahead of a missing rank
        ("3 2 2\n0 2 : 1\n0 1 : 0\n0 2 : 0\n", "duplicate subset (0, 2)"),
        ("3 2 2\n1 2 : 0\n0 2 : 1\n0 2 : 1\n", "duplicate subset (0, 2)"),
        ("3 2 2\n1 2 : 0\n0 2 : 1\n", "2 subsets listed, 3 required"),
    ):
        with pytest.raises(InvalidPartitionFile) as ei:
            partition_from_text(text)
        assert str(ei.value) == message, text


def test_partition_file_is_read_a_block_at_a_time(monkeypatch, tmp_path):
    # a text is split into lines a block at a time, a file a line at a time,
    # and lines in colex order go straight to the colors: reading the
    # constant pair partition of 150 points (11175 lines; 4 KB blocks of
    # text) peaks below 3 times what the result keeps, where holding every
    # line at once peaked at 23 times.  The lines split at any line
    # boundary, as str.splitlines splits them.
    import tracemalloc

    import peano_forge.ramsey as ramsey
    from peano_forge import read_partition, write_partition
    monkeypatch.setattr(ramsey, "_BLOCK", 1 << 12)
    P = Partition(150, 2, 2, [0] * math.comb(150, 2))
    text = partition_to_text(P)
    path = tmp_path / "constant.part"
    write_partition(P, path)
    for read in (lambda: partition_from_text(text), lambda: read_partition(path)):
        tracemalloc.start()
        try:
            Q = read()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Q == P
        assert peak < 3 * kept, (peak, kept)
    lines = text.splitlines()
    mixed = "\r\n".join(lines[:3000]).replace("\n1 ", "\x0c1 ")
    mixed += "\r\n" + "\u2028".join(lines[3000:])
    assert partition_from_text(mixed) == P
