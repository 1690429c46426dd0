"""Finite partition calculus: homogeneous and relatively large sets, the
largest found by one branch and bound for every n, the Ramsey and
Paris-Harrington arrow relations decided by exhaustive search over canonical
colorings, the reduction constructions (product, subset criterion, arity
raising, combining), partition Goedel coding, and the fast-growing hierarchy.

Two cases are decided without search.  When k = n, a qualifying set has a
single n-subset, which is homogeneous in any coloring, so the relation holds
for every m >= n, Ramsey and Paris-Harrington alike.  Ramsey point colorings
(n = 1) are decided by pigeonhole: m -> (k)^1_r holds iff m > r(k - 1), and
otherwise the first counterexample gives point i the color i // (k - 1), as
the depth-first scan fills color 0, then 1, and so on without backtracking.

Search strategy: colorings are enumerated depth first as base-r counters
over the n-subsets in colexicographic order, restricted to canonical
colorings (colors first appear in increasing order), which preserves the
universally quantified check while cutting the space by up to r!.  The
search checks forward (Haralick & Elliott, 1980): when all but the last
n-subset of a qualifying set share color c, c is struck from the last one,
and a branch is abandoned as soon as some uncolored subset has no color
left, so a completed leaf is a counterexample.  This cuts only branches that
hold no counterexample, so the enumeration order, and with it the first
counterexample, is that of the plain search.  For Paris-Harrington point
colorings and for every n >= 3 the qualifying sets are listed once into a
table of these triggers.  Pairs (n = 2) are searched on graphs instead, a
bitset of neighbours per color and vertex: coloring (a, b) with c strikes c
from each pair (y, b), a < y < b, whose qualifying set is then c but for
(y, b), found as a c-clique below a joined to a, y and b.  These are the
same exclusions, so the node sequence and the first counterexample are
those of the table, which is never built for pairs.

Both searches also break vertex symmetry by the lex-leader rule (Crawford,
Ginsberg, Luks & Roy, 1996) on adjacent swaps, the cheap form Codish, Miller,
Prosser & Stuckey (2019) use for Ramsey graphs.  Let x be the first
counterexample and p a permutation of the vertices that maps qualifying sets
to qualifying sets: any one for Ramsey, and for Paris-Harrington any one
that moves only vertices of {0..k}, since a set with min H <= k qualifies
iff |H| >= k.  Then p(x) is a counterexample too, and recoloring it
canonically lowers it at most, so x <= p(x).  The swap of t and t + 1
exchanges the colors of each subset holding t + 1 but not t and its
partner, the same subset with t in place of t + 1, which ranks lower.  So
while the couples of a swap met so far agree, a subset it moves takes no
color below its partner's.  This cuts only colorings above one of their
images, never the first counterexample.  The search runs in one process;
the jobs argument is accepted without effect.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .errors import (
    BadSubset,
    BudgetExceeded,
    EmptySet,
    InvalidPartitionFile,
    NotACode,
    SearchSpaceTooLarge,
    ShapeMismatch,
    _natural,
    _shown,
)
from .tree import Node

DEFAULT_ENUM_CAP = 2 ** 30  # the most colorings, r^C(m, n), an arrow search may face


@lru_cache(maxsize=None)
def subsets_colex(m, n):
    """All n-subsets of {0..m-1} in colexicographic order."""
    return tuple(sorted(combinations(range(m), n), key=lambda s: s[::-1]))


def _rank(S):
    """The colex rank of the ascending tuple S, its index in
    subsets_colex(m, len(S)) for any m above its elements."""
    return sum(map(math.comb, S, range(1, len(S) + 1)))


class Partition(Node):
    """Total r-coloring of the n-element subsets of {0..m-1}, whose points
    are ints.

    Colors are stored as a tuple indexed by colex rank, the order of
    subsets_colex, and a subset's color is read at its rank; a mapping from
    subsets to colors is accepted too.  Instances are immutable.
    """

    __slots__ = ("m", "n", "r", "colors")

    def __init__(self, m, n, r, colors):
        # an int only: lru_cache would take 3.0 for 3 in subsets_colex
        if not all(type(x) is int for x in (m, n, r)):
            raise ShapeMismatch(f"m, n and r must be ints, got {m!r}, {n!r}, {r!r}")
        if n < 1 or n > m:
            raise ShapeMismatch(f"need 1 <= n <= m, got n={n}, m={m}")
        if r < 1:
            raise ShapeMismatch("need at least one color")
        if isinstance(colors, dict):
            subs = subsets_colex(m, n)
            if set(colors) != set(subs):
                raise ShapeMismatch("coloring must cover exactly the n-subsets")
            colors = tuple(colors[s] for s in subs)
        else:
            colors = tuple(colors)
            if len(colors) != math.comb(m, n):
                raise ShapeMismatch(
                    f"expected {_shown(math.comb(m, n))} colors, got {len(colors)}"
                )
        for c in colors:
            if type(c) is not int or not 0 <= c < r:
                raise ShapeMismatch(f"color {c!r} outside 0..{r - 1}")
        self._init(m, n, r, colors)

    @classmethod
    def from_function(cls, m, n, r, fn):
        return cls(m, n, r, [fn(s) for s in subsets_colex(m, n)])

    def color(self, subset):
        S = _check_subset(subset, self.m)
        if len(S) != self.n:
            raise BadSubset(f"{S} is not an n-subset of the ground set")
        return self.colors[_rank(S)]

    def items(self):
        return zip(subsets_colex(self.m, self.n), self.colors)

    def as_dict(self):
        return dict(self.items())

    def __repr__(self):
        return f"Partition(m={self.m}, n={self.n}, r={self.r})"


class HomogReport(Node):
    __slots__ = ("set", "color", "size", "relatively_large")


# ---------------------------------------------------------------------------
# Homogeneity
# ---------------------------------------------------------------------------


def _points(H):
    """H as a tuple of ints; otherwise BadSubset, which names what is wrong."""
    try:
        H = tuple(H)
    except TypeError:
        raise BadSubset(f"a set must be an iterable of ints, got {_shown(H)}") from None
    for x in H:
        if type(x) is not int:
            raise BadSubset(f"set elements must be ints, got {x!r}")
    return H


def _check_subset(H, m):
    """H as a tuple of ints, ascending and in 0..m-1; otherwise BadSubset."""
    H = _points(H)
    if any(H[i] >= H[i + 1] for i in range(len(H) - 1)):
        raise BadSubset("set must be sorted and duplicate-free")
    if H and (H[0] < 0 or H[-1] >= m):
        raise BadSubset(f"elements must lie in 0..{m - 1}")
    return H


def is_homogeneous(P, H):
    """True iff all n-subsets of H receive one color; needs |H| >= n."""
    H = _check_subset(H, P.m)
    if len(H) < P.n:
        raise BadSubset(f"set of size {len(H)} has no {P.n}-subsets")
    colors, it = P.colors, combinations(H, P.n)
    first = colors[_rank(next(it))]
    return all(colors[_rank(s)] == first for s in it)


def is_relatively_large(H):
    """card(H) >= min(H), H read as a set of ints in any order; the empty set
    has no minimum."""
    H = set(_points(H))
    if not H:
        raise EmptySet("relative largeness needs a nonempty set")
    return len(H) >= min(H)


def find_homogeneous(P, k, require_large=False):
    """The first set in combinations order among the largest homogeneous H
    with |H| >= k (and |H| >= min H when require_large); None when there is
    none.  A depth-first branch and bound (Carraghan & Pardalos, 1990)
    grows H in lexicographic order over the mask cand of the vertices above
    its last that keep it homogeneous, in its color once |H| = n.  Each
    (n-1)-subset T of H met with color c strikes from cand the vertices u
    outside the mask of the u above T with T + {u} colored c, one mask per
    (T, c) built on first use and kept for the call.  It drops a branch that
    cannot beat the best size so far and records a set only when it does,
    so the set kept is the first of the final size."""
    if _natural(k, "k") < P.n:
        raise BadSubset(f"need k >= n, got k={k}, n={P.n}")
    n, colors = P.n, P.colors
    top = [math.comb(u, n) for u in range(P.m)]  # T + {u} ranks _rank(T) + top[u]
    rows = {}  # (c, _rank(T)) -> the mask of the u above T with T + {u} colored c
    binary = bytes.maketrans(b"\0\1", b"01")
    best, found = k - 1, None
    H, stack, cand = [], [], (1 << P.m) - 1
    while True:
        if not cand or len(H) + cand.bit_count() <= best:
            if not H:
                return found
            H.pop()
            cand = stack.pop()
            continue
        H.append((cand & -cand).bit_length() - 1)
        cand &= cand - 1
        stack.append(cand)
        if len(H) == n:
            color = colors[_rank(H)]
            subs = combinations(H, n - 1)
        else:  # past n, the only n-subsets T + {u} not yet checked hold the new vertex
            subs = (T + (H[-1],) for T in combinations(H[:-1], n - 2)) if len(H) > n > 1 else ()
        for T in subs if cand else ():  # cand holds a u above H, so T + {u} is ranked
            key = color, _rank(T)
            row = rows.get(key)
            if row is None:  # a digit per u from lo up, "1" where T + {u} is colored c
                lo, base = (T[-1] + 1 if T else 0), key[1]
                # a first read at index 0 keeps itemgetter's result a tuple
                got = itemgetter(0, *map(base.__add__, top[lo:]))(colors)
                digits = bytes(map(color.__eq__, got)).translate(binary)
                row = rows[key] = int(digits[::-1], 2) >> 1 << lo
            cand &= row
        if len(H) > best and (not require_large or H[0] <= len(H)):
            best, found = len(H), HomogReport(tuple(H), color, len(H), len(H) >= H[0])


def check_subset_criterion(P, H):
    """True iff every (n+1)-subset of H is homogeneous; agrees with
    is_homogeneous whenever |H| >= n+1."""
    H = _check_subset(H, P.m)
    if len(H) < P.n + 1:
        raise BadSubset(f"need at least {P.n + 1} elements, got {len(H)}")
    return all(is_homogeneous(P, S) for S in combinations(H, P.n + 1))


# ---------------------------------------------------------------------------
# Arrow relations by exhaustive canonical search
# ---------------------------------------------------------------------------


def _qualifying_sets(m, n, k, large):
    """The minimal family whose monochromaticity certifies the relation, in
    order: all k-subsets for plain Ramsey; for the relatively-large variant,
    the sets {a} + rest with |set| = max(k, a), since any qualifying H
    contains one of these.  A generator: the family can be far too large to
    hold."""
    if not large:
        yield from combinations(range(m), k)
        return
    for a in range(m):
        size = max(k, a)
        if size > m - a:
            break
        for rest in combinations(range(a + 1, m), size - 1):
            yield (a,) + rest


def _build_triggers(m, n, k, large):
    """Each qualifying set as the mask of its n-subsets' colex ranks, filed
    for forward checking: triggers[q] pairs the mask of every rank but the
    last, for the sets whose second-largest rank is q, with the mask of their
    last ranks.  k > n, so every qualifying set has two ranks or more."""
    bit = {s: 1 << i for i, s in enumerate(subsets_colex(m, n))}
    triggers = [{} for _ in bit]
    for cand in _qualifying_sets(m, n, k, large):
        mask = sum(map(bit.__getitem__, combinations(cand, n)))
        last = 1 << mask.bit_length() - 1
        prefix = mask ^ last
        filed = triggers[prefix.bit_length() - 1]
        filed[prefix] = filed.get(prefix, 0) | last
    return [tuple(filed.items()) for filed in triggers]


def _couples(m, n, k, large):
    """The vertex swaps of the lex-leader cut, filed by rank: for each
    n-subset S, one (1 << t, partner rank) per swap t <-> t + 1 that moves S,
    that is, per element t + 1 of S with t not in S; the partner is S with
    t + 1 replaced by t, ranked C(t, i) lower for t + 1 the i-th element.
    Every swap keeps the Ramsey qualifying sets; a Paris-Harrington one
    keeps them only inside {0..k}, where min H <= k bounds |H| by k."""
    top = k if large else m - 1
    return [tuple((1 << e - 1, pos - math.comb(e - 1, i)) for i, e in enumerate(S)
                  if 0 < e <= top and (i == 0 or S[i - 1] != e - 1))
            for pos, S in enumerate(subsets_colex(m, n))]


def _scan(r, triggers, couples):
    """Depth-first search for the first counterexample coloring in canonical
    enumeration order; None when every coloring is pruned.

    The search state is, per color c, the mask cls[c] of the ranks colored c
    and the mask exc[c] of the later ranks where c would complete a
    monochromatic qualifying set.  Coloring rank pos with c adds to exc[c]
    the last ranks of the sets filed under pos whose other ranks are all c,
    and fails at once when some later rank is then excluded in every color.
    The mask eq holds the swaps of couples under which the colors so far are
    unchanged: a rank that such a swap moves takes no color below its
    partner's, and a larger one unties the swap.  Each level keeps the state
    it started from, and backtracking restores that copy."""
    N = len(triggers)
    colors = [0] * N
    limits = [0] * N
    cls_at = [None] * N
    exc_at = [None] * N
    eq_at = [0] * N
    cls = [0] * r
    exc = [0] * r
    eq = -1  # every swap tied
    pos = trial = limit = 0
    while True:
        if trial > limit:
            pos -= 1
            if pos < 0:
                return None
            trial = colors[pos] + 1
            limit = limits[pos]
            cls = cls_at[pos]
            exc = exc_at[pos]
            eq = eq_at[pos]
            continue
        excluded = exc[trial]
        if excluded >> pos & 1:
            trial += 1
            continue
        mono = cls[trial] | 1 << pos
        new = 0
        for prefix, last in triggers[pos]:
            if prefix & mono == prefix:
                new |= last
        new &= ~excluded
        next_exc = exc
        if new:
            next_exc = exc.copy()
            next_exc[trial] = excluded | new
            for e in next_exc:
                new &= e
            if new:  # a newly excluded rank has no color left
                trial += 1
                continue
        colors[pos] = trial
        limits[pos] = limit
        cls_at[pos] = cls
        exc_at[pos] = exc
        eq_at[pos] = eq
        for bit, partner in couples[pos]:
            if eq & bit and trial > colors[partner]:
                eq ^= bit
        cls = cls.copy()
        cls[trial] = mono
        exc = next_exc
        # canonical: the next rank may use one color above the largest so far
        if trial == limit and limit < r - 1:
            limit += 1
        pos += 1
        if pos == N:
            return tuple(colors)
        trial = 0  # lex-leader: no color below a tied partner's
        for bit, partner in couples[pos]:
            if eq & bit and colors[partner] > trial:
                trial = colors[partner]


def _joined(cand, j, nb, want):
    """The vertices of the mask want joined in nb to every vertex of some
    j-clique of the mask cand."""
    if not j:
        return want
    got = 0
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        w = want & nb[v] & ~got
        if w:  # cand now holds the vertices above v
            got |= w if j == 1 else _joined(cand & nb[v], j - 1, nb, w)
            if got == want:
                break
    return got


def _pair_closers(nb, a, b, k, large):
    """With nb[v] the mask of the vertices joined to v in color c by the
    pairs ranked below (a, b), and (a, b) colored c, the vertices y in (a, b)
    for which every pair but (y, b) of some qualifying set with third-largest
    element a and largest b is colored c; k >= 3.  Such a set is
    L + {a, y, b}, with L a clique below a whose vertices are all joined to
    a, y and b."""
    # the pairs ranked below (a, b) join a to vertices below b only, and b
    # to vertices below a only
    X = nb[a] >> a + 1 << a + 1
    if not X:
        return 0
    T = nb[a] & nb[b]
    if not large:
        return _joined(T, k - 3, nb, X)
    if k <= 3 and a <= 3:  # {a, y, b} qualifies
        return X
    # L = {s} + a (t - 1)-clique above s, where |L| = max(k, s) - 3 = t
    got = 0
    while T:
        low = T & -T
        T ^= low
        s = low.bit_length() - 1
        t = max(k, s) - 3
        w = X & nb[s] & ~got
        if t and w:
            got |= w if t == 1 else _joined(T & nb[s], t - 1, nb, w)
            if got == X:
                break
    return got


def _scan_pairs(m, k, r, large):
    """_scan for n = 2, in the same enumeration order, on graphs: nb[c][v] is
    the mask of the vertices joined to v in color c.  Coloring (a, b) with c
    excludes c from the pairs (y, b) that _pair_closers names, the contiguous
    ranks from C(b, 2) on; these are the last ranks of the qualifying sets
    that _build_triggers files under (a, b).  The bits of a pair are set when
    it is colored and cleared when the search backtracks over it; k >= 3.
    The couples of (a, b) are worked out in place: swap b - 1 moves it when
    a < b - 1, partner (a, b - 1) at rank pos - (b - 1), and swap a - 1 when
    a >= 1, partner (a - 1, b) at rank pos - 1."""
    pairs = subsets_colex(m, 2)
    N = len(pairs)
    colors = [0] * N
    limits = [0] * N
    exc_at = [None] * N
    eq_at = [0] * N
    nb = [[0] * m for _ in range(r)]
    exc = [0] * r
    eq = (1 << (k if large else m - 1)) - 1  # the swaps of _couples, all tied
    pos = trial = limit = 0
    a, b = pairs[0]
    while True:
        if trial > limit:
            pos -= 1
            if pos < 0:
                return None
            a, b = pairs[pos]
            trial = colors[pos]
            nbc = nb[trial]
            nbc[a] ^= 1 << b
            nbc[b] ^= 1 << a
            trial += 1
            limit = limits[pos]
            exc = exc_at[pos]
            eq = eq_at[pos]
            continue
        excluded = exc[trial]
        if excluded >> pos & 1:
            trial += 1
            continue
        nbc = nb[trial]
        new = _pair_closers(nbc, a, b, k, large) << b * (b - 1) // 2 & ~excluded
        next_exc = exc
        if new:
            next_exc = exc.copy()
            next_exc[trial] = excluded | new
            for e in next_exc:
                new &= e
            if new:  # a newly excluded rank has no color left
                trial += 1
                continue
        colors[pos] = trial
        limits[pos] = limit
        exc_at[pos] = exc
        eq_at[pos] = eq
        if eq:
            if a < b - 1 and eq >> b - 1 & 1 and trial > colors[pos - b + 1]:
                eq ^= 1 << b - 1
            if a and eq >> a - 1 & 1 and trial > colors[pos - 1]:
                eq ^= 1 << a - 1
        nbc[a] |= 1 << b
        nbc[b] |= 1 << a
        exc = next_exc
        if trial == limit and limit < r - 1:
            limit += 1
        pos += 1
        if pos == N:
            return tuple(colors)
        a, b = pairs[pos]
        trial = 0
        if eq:  # lex-leader: no color below a tied partner's
            if a < b - 1 and eq >> b - 1 & 1:
                trial = colors[pos - b + 1]
            if a and eq >> a - 1 & 1 and colors[pos - 1] > trial:
                trial = colors[pos - 1]


def _validate_arrow_params(m, k, r, n):
    # before any work: a float or a bool would run the search, or color
    # points with floats
    _natural(m, "m"), _natural(k, "k"), _natural(r, "r"), _natural(n, "n")
    if n < 1:
        raise ValueError("subset size n must be at least 1")
    if not n <= k <= m:
        raise ValueError(f"need n <= k <= m, got n={_shown(n)}, k={_shown(k)}, m={_shown(m)}")
    if r < 1:
        raise ValueError("need at least one color")


def find_counterexample(m, k, r, n, large=False, jobs=1, cap=DEFAULT_ENUM_CAP):
    """The first (in canonical enumeration order) coloring of [m]^n with r
    colors admitting no qualifying homogeneous set, or None when the arrow
    relation holds.  jobs is accepted without effect: the search is serial."""
    _validate_arrow_params(m, k, r, n)
    if cap is not None:
        _natural(cap, "the enumeration cap")
    N = math.comb(m, n)
    # r^N >= 2^(N (bit length of r - 1)), over the cap once that power has
    # more bits than the cap; short of it, r^N has under twice the cap's bits
    if cap is not None and (N * (r.bit_length() - 1) >= cap.bit_length() or r ** N > cap):
        raise SearchSpaceTooLarge(r, N, cap)
    if k == n:  # a qualifying set is one n-subset, homogeneous in any coloring
        return None
    if n == 1 and not large:  # pigeonhole: r classes of k - 1 points at most
        if m > r * (k - 1):
            return None
        colors = [i // (k - 1) for i in range(m)]
    elif n == 2:
        colors = _scan_pairs(m, k, r, large)
    else:
        colors = _scan(r, _build_triggers(m, n, k, large), _couples(m, n, k, large))
    if colors is None:
        return None
    return Partition(m, n, r, colors)


def arrow(m, k, r, n, jobs=1, cap=DEFAULT_ENUM_CAP):
    """The Ramsey relation m -> (k)^n_r, decided by pigeonhole for n = 1 and
    by full enumeration otherwise."""
    return find_counterexample(m, k, r, n, large=False, cap=cap) is None


def ph_arrow(m, k, r, n, jobs=1, cap=DEFAULT_ENUM_CAP):
    """The Paris-Harrington relation m ->* (k)^n_r: the homogeneous set must
    additionally be relatively large."""
    return find_counterexample(m, k, r, n, large=True, cap=cap) is None


def min_witness(k, r, n, relation="ramsey", max_m=32, jobs=1, cap=DEFAULT_ENUM_CAP):
    """Least m <= max_m satisfying the chosen relation, else None."""
    if relation not in ("ramsey", "ph"):
        raise ValueError("relation must be 'ramsey' or 'ph'")
    _natural(k, "k"), _natural(r, "r"), _natural(n, "n"), _natural(max_m, "max_m")
    if cap is not None:  # also where max_m leaves no m to search
        _natural(cap, "the enumeration cap")
    rel = arrow if relation == "ramsey" else ph_arrow
    for m in range(max(k, n), max_m + 1):
        if rel(m, k, r, n, cap=cap):
            return m
    return None


# ---------------------------------------------------------------------------
# Reduction constructions
# ---------------------------------------------------------------------------


def product_partition(P0, P1):
    """Pair coloring flattened as P0(a)*r1 + P1(a): homogeneous for the
    product iff homogeneous for both factors."""
    if (P0.m, P0.n) != (P1.m, P1.n):
        raise ShapeMismatch("partitions must share ground size and arity")
    colors = tuple(c0 * P1.r + c1 for c0, c1 in zip(P0.colors, P1.colors))
    return Partition(P0.m, P0.n, P0.r * P1.r, colors)


def ceil_sqrt(r):
    """Least s with s*s >= r."""
    if r == 0:
        return 0
    return math.isqrt(r - 1) + 1


def raise_arity(P):
    """Lift an arity-e partition to arity e+1 with at most 1 + 2*ceil_sqrt(r)
    colors, preserving homogeneity for every set of more than e+1 elements.

    With P(a) = s*Q(a) + R(a) for s = ceil_sqrt(r), the tuple b (first e
    elements b') is colored 0 when b is homogeneous for P, (0, R(b')) when b
    is homogeneous for Q but not P, and (1, Q(b')) otherwise; the pairs are
    flattened injectively to 1..2s.
    """
    e, m, r = P.n, P.m, P.r
    if e < 1 or m < e + 2:
        raise ShapeMismatch(f"need ground size >= {e + 2} to raise arity {e}")
    s = ceil_sqrt(r)
    colors = []
    for b in subsets_colex(m, e + 1):
        sub_colors = [P.colors[_rank(a)] for a in combinations(b, e)]
        if all(c == sub_colors[0] for c in sub_colors):
            colors.append(0)
            continue
        quots = [c // s for c in sub_colors]
        bp_color = P.colors[_rank(b[:e])]
        if all(q == quots[0] for q in quots):
            colors.append(1 + bp_color % s)
        else:
            colors.append(1 + s + bp_color // s)
    return Partition(m, e + 1, 1 + 2 * s, colors)


def combine(partitions):
    """One partition of arity max(e_i) equivalent, on every set of more than
    max(e_i) elements, to simultaneous homogeneity for all the inputs; built
    by raising arities to a common value and taking the product."""
    ps = list(partitions)
    if not ps:
        raise ShapeMismatch("nothing to combine")
    m = ps[0].m
    if any(p.m != m for p in ps):
        raise ShapeMismatch("partitions must share the ground set")
    e = max(p.n for p in ps)
    if any(p.n > p.m - 2 for p in ps):
        raise ShapeMismatch("arities must leave room to raise (e <= m-2)")
    if len(ps) == 1:
        return ps[0]
    raised = []
    for p in ps:
        while p.n < e:
            p = raise_arity(p)
        raised.append(p)
    out = raised[0]
    for p in raised[1:]:
        out = product_partition(out, p)
    return out


# ---------------------------------------------------------------------------
# Fast-growing hierarchy
# ---------------------------------------------------------------------------


class FastGrowingBudget(Node):
    __slots__ = ("max_result_bits", "max_iterations")

    def __init__(self, max_result_bits, max_iterations):
        if not all(type(x) is int and x >= 1 for x in (max_result_bits, max_iterations)):
            raise ValueError("budget fields must be positive ints, got "
                             f"{max_result_bits!r}, {max_iterations!r}")
        self._init(max_result_bits, max_iterations)


DEFAULT_FAST_BUDGET = FastGrowingBudget(max_result_bits=1_000_000,
                                        max_iterations=1_000_000)


def fast_growing(n, x, budget=DEFAULT_FAST_BUDGET):
    """f_0(x) = x+2 and f_{n+1}(x) = f_n iterated x times starting at 2.

    Iterations are counted as applications of the base step f_0 that the
    definition unfolds to, so budgets are machine-independent; exceeding
    either budget raises BudgetExceeded carrying the partial count.
    """
    _natural(n), _natural(x)
    steps = 0
    stack = []  # [level, applications left] of each f_level being unfolded
    level, v = n, x  # the pending application f_level(v)
    while True:
        if level >= 2:
            stack.append([level, v])
            v = 2
        else:
            # f_0 is one base step; x base steps from 2 give f_1(x) = 2x + 2
            steps += 1 if level == 0 else v
            v = v + 2 if level == 0 else 2 * v + 2
            if steps > budget.max_iterations or v.bit_length() > budget.max_result_bits:
                raise BudgetExceeded(
                    f"fast-growing evaluation exceeded its budget after {steps} base steps",
                    iterations=steps,
                )
        while stack and stack[-1][1] == 0:
            stack.pop()
        if not stack:
            return v
        stack[-1][1] -= 1
        level = stack[-1][0] - 1


# ---------------------------------------------------------------------------
# Partition Goedel coding
# ---------------------------------------------------------------------------

# godel is loaded by these two functions only, so the search commands start
# without it


def encode_partition(P):
    """Three-step coding: every n-subset becomes a sequence code, every
    (subset code, color) pair is fused with the pairing function, and the
    resulting list (subsets in colex order) becomes one sequence code."""
    from .godel import encode_seq, pair
    items = [pair(encode_seq(list(sub)), c) for sub, c in P.items()]
    return encode_seq(items)


def decode_partition(code, m, n, r):
    """Exact inverse of encode_partition for a matching (m, n, r) header."""
    from .godel import decode_seq, unpair
    _natural(m, "m"), _natural(n, "n"), _natural(r, "r")
    if n < 1 or n > m or r < 1:
        raise NotACode("impossible header")
    elems = decode_seq(code)
    if len(elems) != math.comb(m, n):  # checked before any subsets materialize
        raise NotACode(f"code lists {len(elems)} subsets, "
                       f"header demands {_shown(math.comb(m, n))}")
    subs = subsets_colex(m, n)
    colors = []
    for expected, item in zip(subs, elems):
        sub_code, c = unpair(item)
        if tuple(decode_seq(sub_code)) != expected:
            raise NotACode("subset codes do not match the colex enumeration")
        if not 0 <= c < r:
            raise NotACode(f"color {c} outside 0..{r - 1}")
        colors.append(c)
    return Partition(m, n, r, colors)


# ---------------------------------------------------------------------------
# Partition file format
# ---------------------------------------------------------------------------


def partition_to_text(P):
    """Text form: header "m n r", then one "i1 ... in : c" line per subset."""
    lines = [f"{P.m} {P.n} {P.r}"]
    for sub, c in P.items():
        lines.append(" ".join(str(i) for i in sub) + f" : {c}")
    return "\n".join(lines) + "\n"


def partition_from_text(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InvalidPartitionFile("empty partition file")
    header = lines[0].split()
    if len(header) != 3 or not all(w.isdecimal() for w in header):
        raise InvalidPartitionFile(f"bad header line: {lines[0]!r}")
    m, n, r = (int(w) for w in header)
    if n < 1 or n > m or r < 1:
        raise InvalidPartitionFile(f"impossible header m={m} n={n} r={r}")
    seen = {}
    for ln in lines[1:]:
        left, sep, right = ln.partition(":")
        if not sep:
            raise InvalidPartitionFile(f"missing ':' in line {ln!r}")
        parts = left.split()
        if len(parts) != n or not all(w.isdecimal() for w in parts):
            raise InvalidPartitionFile(f"bad subset in line {ln!r}")
        sub = tuple(int(w) for w in parts)
        if any(sub[i] >= sub[i + 1] for i in range(n - 1)):
            raise InvalidPartitionFile(f"subset not ascending in line {ln!r}")
        if sub[-1] >= m:
            raise InvalidPartitionFile(f"subset outside the ground set: {ln!r}")
        color_text = right.strip()
        if not color_text.isdecimal():
            raise InvalidPartitionFile(f"bad color in line {ln!r}")
        c = int(color_text)
        if c >= r:
            raise InvalidPartitionFile(f"color {c} outside 0..{r - 1}")
        rank = _rank(sub)
        if rank in seen:
            raise InvalidPartitionFile(f"duplicate subset {sub}")
        seen[rank] = c
    # the subsets are distinct, ascending and inside 0..m-1, so C(m, n) of
    # them are all the n-subsets, ranked 0..C(m, n) - 1
    if len(seen) != math.comb(m, n):
        raise InvalidPartitionFile(f"{len(seen)} subsets listed, "
                                   f"{_shown(math.comb(m, n))} required")
    return Partition(m, n, r, [seen[i] for i in range(len(seen))])


def read_partition(path):
    with open(path, "r", encoding="utf-8") as fh:
        return partition_from_text(fh.read())


def write_partition(P, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(partition_to_text(P))
