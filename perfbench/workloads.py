"""The four workloads: seeded op lists with independent checks.

Each builder turns a seed into a fixed list of ops.  An op calls the library
through the API it is handed (plain or traced), and its check compares the
result with an expectation from expect.py or tests/oracles.py, computed once
on first use and outside the timed region.  The generators live here rather
than in tests/ so that a change to the test helpers cannot move the
benchmark's inputs.

Why each workload (see README.md for the layer table):
- search: ramsey does nearly all the work; it mixes exhaustive "true"
  verdicts, deep first-hit "false" verdicts, many ms-scale instances, and the
  large instances again at jobs=2, so node cuts and process-pool changes both
  show.
- calculus: recfun and formula do the work, with no search or coding; half
  of the evaluator ops repeat sub-results (nth_prime) and half never do
  (factorial), so a memo shows on one and not on the other.
- codes: godel reads and writes in encode/decode pairs; decoding costs
  100-400x encoding, and keeping both in one mix shows a decode speed-up
  that slows encoding.
- cli: one `python -m peano_forge` process at a time, the only workload
  where interpreter start and `import numpy` dominate.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass

import expect

FUEL = 10 ** 9          # enough for every stdlib op the calculus mix runs
TREE_FUEL = 20_000      # random trees: some finish, some exhaust it
WORKLOADS = ("search", "calculus", "codes", "cli")


class WrongAnswer(Exception):
    """An op returned something other than its expected result."""


@dataclass
class Op:
    kind: str
    call: object             # call(api) -> result
    check: object            # check(result or expected exception)
    errors: tuple = ()       # exception types that are an expected outcome
    first_hit: bool = False  # a first-hit instance run serially and at jobs=2
    argv: tuple = ()         # CLI arguments, for the cli workload


def _short(x):
    s = repr(x)
    return s if len(s) < 120 else s[:117] + "..."


def equals(expected):
    """A check comparing with expected(), evaluated on first use."""
    memo = []

    def check(result):
        if not memo:
            memo.append(expected())
        if result != memo[0]:
            raise WrongAnswer(f"got {_short(result)}, expected {_short(memo[0])}")
    return check


def _is(exc_type):
    def check(result):
        if not isinstance(result, exc_type):
            raise WrongAnswer(f"got {_short(result)}, expected {exc_type.__name__}")
    return check


def build(name, seed, pf, workdir, oracles):
    """The op list of one workload and its known-defect probes."""
    import random
    rng = random.Random(f"{name}:{seed}")
    if name == "search":
        ops, probes = _search(rng, pf, oracles), []
    elif name == "calculus":
        ops, probes = _calculus(rng, pf), []
    elif name == "codes":
        ops, probes = _codes(rng, pf)
    elif name == "cli":
        ops, probes = _cli(rng, pf, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops, probes


# --- search -----------------------------------------------------------------


def _search(rng, pf, oracles):
    ops = []
    verified = {}

    def counterexample_check(m, k, r, n, large):
        holds = (expect.ph_holds if large else expect.arrow_holds)(m, k, r, n)

        def check(P):
            if holds:
                if P is not None:
                    raise WrongAnswer(f"counterexample for a true relation {(m, k, r, n)}")
                return
            if P is None or (P.m, P.n, P.r) != (m, n, r):
                raise WrongAnswer(f"expected a counterexample for {(m, k, r, n)}, got {P!r}")
            key = (m, k, r, n, large, P.colors)
            if key not in verified:
                color_of = dict(zip(expect.colex_subsets(m, n), P.colors))
                verified[key] = (len(color_of) == len(P.colors)
                                 and all(0 <= c < r for c in P.colors)
                                 and not oracles.has_qualifying_set(m, n, k, large, color_of))
            if not verified[key]:
                raise WrongAnswer(f"coloring for {(m, k, r, n)} has a qualifying set")
        return check

    def add(fn, m, k, r, n, jobs=1, large=False, first_hit=False, count=1):
        for _ in range(count):
            kind = f"{fn}({m},{k},{r},{n}) jobs={jobs}"
            if fn == "find_counterexample":
                call = (lambda api, a=(m, k, r, n), l=large, j=jobs:
                        api.find_counterexample(*a, large=l, jobs=j, cap=None))
                check = counterexample_check(m, k, r, n, large)
            else:
                holds = (expect.ph_holds if fn == "ph_arrow" else expect.arrow_holds)(m, k, r, n)
                call = (lambda api, f=fn, a=(m, k, r, n), j=jobs:
                        getattr(api, f)(*a, jobs=j, cap=None))
                check = equals(lambda h=holds: h)
            ops.append(Op(kind, call, check, first_hit=first_hit))

    def pick(lo, hi):
        return rng.randint(lo, hi)

    # exhaustive "true" verdicts: pigeonhole, whose cost does not depend on m
    # once m > r(k-1), so the seed picks m freely
    add("arrow", pick(13, 15), 3, 6, 1)
    add("arrow", pick(13, 15), 3, 6, 1, jobs=2)
    # deep first-hit "false" verdicts, serially and at jobs=2
    for jobs in (1, 2):
        add("find_counterexample", 13, 4, 2, 2, jobs=jobs, large=True, first_hit=True)
        add("find_counterexample", 10, 4, 2, 3, jobs=jobs, first_hit=True)
        add("find_counterexample", 12, 4, 2, 2, jobs=jobs, large=True, first_hit=True)
    # many ms-scale instances
    for _ in range(10):
        add("arrow", pick(10, 12), 4, 3, 1)
    for _ in range(2):
        add("arrow", pick(11, 13), 3, 5, 1)
    for _ in range(15):
        add("arrow", pick(9, 11), 3, 4, 1)
        add("arrow", pick(9, 11), 5, 2, 1)
    add("find_counterexample", 11, 4, 2, 2, count=10)
    add("ph_arrow", 10, 4, 2, 2, count=10)
    add("ph_arrow", 11, 4, 2, 2, count=10)
    # nine ~20 ms ops with eight slower ones above them: op_p90_ms is read
    # inside this block
    add("arrow", 10, 4, 2, 3, count=8)
    add("arrow", 6, 3, 2, 2, count=5)
    add("find_counterexample", 5, 3, 2, 2, count=5)
    for relation, k, r, n, max_m, least in (("ph", 3, 2, 2, 8, 6),
                                            ("ramsey", 3, 2, 2, 8, 6),
                                            ("ramsey", 3, 4, 1, 12, 9)):
        for _ in range(5):
            ops.append(Op(f"min_witness({k},{r},{n},{relation})",
                          lambda api, a=(k, r, n, relation, max_m):
                              api.min_witness(*a, cap=None),
                          equals(lambda v=least: v)))
    return ops


# --- calculus ---------------------------------------------------------------

PRIM_TEXT = ("!(x0 = 0) & !(x0 = 1) & forall x1 (x1 < x0 | x1 = x0 -> "
             "(exists x2 ((x2 < x0 | x2 = x0) & x1 * x2 = x0) -> x0 = x1 | x1 = 1))")
IRRED_TEXT = ("forall x1 (x1 < x0 | x1 = x0 -> (0 < x1 -> "
              "(exists x2 ((x2 < x0 | x2 = x0) & x1 * x2 = x0) -> x1 = 1 | x1 = x0)))")


def _number_theory_asts(pf):
    """The ASTs PRIM_TEXT and IRRED_TEXT denote, built with constructors."""
    V, O, Z = pf.Var, pf.One(), pf.Zero()

    def le(v, t):
        return pf.Or(pf.Lt(V(v), t), pf.Eq(V(v), t))

    divides = pf.Exists(2, pf.And(le(2, V(0)), pf.Eq(pf.Mul(V(1), V(2)), V(0))))
    prim = pf.And(pf.And(pf.Not(pf.Eq(V(0), Z)), pf.Not(pf.Eq(V(0), O))),
                  pf.ForAll(1, pf.Implies(le(1, V(0)), pf.Implies(
                      divides, pf.Or(pf.Eq(V(0), V(1)), pf.Eq(V(1), O))))))
    irred = pf.ForAll(1, pf.Implies(le(1, V(0)), pf.Implies(pf.Lt(Z, V(1)), pf.Implies(
        divides, pf.Or(pf.Eq(V(1), O), pf.Eq(V(1), V(0)))))))
    return prim, irred


def random_def(rng, pf, k, depth):
    """A random well-formed, search-free definition of arity k."""
    if depth <= 0 or rng.random() < 0.3:
        if k == 1 and rng.random() < 0.5:
            return pf.ZeroFn() if rng.random() < 0.5 else pf.Succ()
        return pf.Proj(rng.randint(1, k), k)
    kind = rng.randrange(3)
    if kind == 0:
        j = rng.randint(1, 3)
        return pf.Comp(random_def(rng, pf, j, depth - 1),
                       tuple(random_def(rng, pf, k, depth - 1) for _ in range(j)))
    if kind == 1 and k >= 2:
        return pf.PrimRec(random_def(rng, pf, k - 1, depth - 1),
                          random_def(rng, pf, k + 1, depth - 1))
    return pf.BoundedMu(random_def(rng, pf, k + 1, depth - 1))


def _calculus(rng, pf):
    ops = []
    flags = expect.sieve(1000)
    primes = [p for p, ok in enumerate(flags) if ok]

    def value_check(v):
        return equals(lambda: pf.Value(v))

    def eval_op(kind, d, args, fuel, check):
        ops.append(Op(kind, lambda api: api.eval_def(d, args, fuel), check))

    # sub-results repeat inside nth_prime, never inside factorial
    for n in range(11):
        eval_op(f"nth_prime({n})", pf.stdlib("nth_prime"), [n], FUEL, value_check(primes[n]))
    for n in range(10):
        eval_op(f"factorial({n})", pf.stdlib("factorial"), [n], FUEL,
                value_check(math.factorial(n)))
    # a prime makes the divisor searches run to the end and a composite
    # stops them early, so the mix holds a fixed number of each, stratified
    small_primes = primes[:24]
    xs = [small_primes[2 * i + rng.randrange(2)] for i in range(12)]
    xs += [2 * (4 * i + rng.randrange(4)) for i in range(13)]
    for x in xs:
        eval_op("is_prime", pf.stdlib("is_prime"), [x], FUEL, value_check(int(flags[x])))
    # table rows of fixed cost, so the seed does not move ops across op_p50_ms
    row = rng.choice((6, 7))
    for y in range(12):
        eval_op("mul", pf.stdlib("mul"), [row, y], FUEL, value_check(row * y))
    row = rng.choice((10, 11))
    for y in range(20):
        eval_op("max", pf.stdlib("max"), [row, y], FUEL, value_check(max(row, y)))
    for _ in range(30):
        k = rng.randint(1, 3)
        d = random_def(rng, pf, k, 3)
        args = [rng.randrange(5) for _ in range(k)]

        def expected(d=d, args=args):
            v = expect.pr_eval(d, args, TREE_FUEL)
            return pf.BudgetExhausted() if v is None else pf.Value(v)
        eval_op("random tree", d, args, TREE_FUEL, equals(expected))

    # the same definitions on starvation fuel: expected BudgetExhausted
    for name, n in (("nth_prime", 8), ("factorial", 7), ("is_prime", 97)):
        fuel = rng.randrange(2000, 4000)

        def expected(d=pf.stdlib(name), n=n, fuel=fuel):
            v = expect.pr_eval(d, [n], fuel)
            return pf.BudgetExhausted() if v is None else pf.Value(v)
        eval_op(f"{name}({n}) short of fuel", pf.stdlib(name), [n], fuel, equals(expected))

    prim, irred = _number_theory_asts(pf)
    for text, ast in ((PRIM_TEXT, prim), (IRRED_TEXT, irred)):
        ops.append(Op("parse", lambda api, t=text: api.parse(t), equals(lambda a=ast: a)))
    # x above 32 takes the numpy path for the inner bounded quantifiers as
    # well as the scalar outer loop; x up to 32 runs scalar only.  A prime
    # runs the outer loop to the end and an even x stops it at 2; the even
    # block holds the middle of the whole mix, so op_p50_ms is read among
    # near-equal ops.
    xs = rng.sample([p for p in primes if p < 32], 8)
    xs += [2 * rng.randrange(2, 16) for _ in range(8)]
    for lo in range(32, 800, 24):
        xs.append(rng.choice([p for p in primes if lo <= p < lo + 24]))
        xs += [2 * rng.randrange(lo // 2, (lo + 24) // 2) for _ in range(2)]
    for formula, name in ((prim, "Prim"), (irred, "Irred")):
        for x in xs:
            ops.append(Op(f"eval_nat {name}",
                          lambda api, f=formula, x=x: api.eval_nat(f, {0: x}, 10),
                          equals(lambda x=x: flags[x])))
    V = pf.Var
    odd_even = pf.Exists(1, pf.Eq(pf.Add(V(1), V(1)), pf.Add(pf.Add(V(0), V(0)), pf.One())))
    square = pf.Exists(1, pf.Eq(pf.Mul(V(1), V(1)), V(0)))
    for _ in range(3):
        x, budget = rng.randrange(100), rng.randrange(1500, 2500)
        ops.append(Op("eval_nat unbounded, budget runs out",
                      lambda api, x=x, b=budget: api.eval_nat(odd_even, {0: x}, b),
                      _is(pf.BudgetExceeded), errors=(pf.BudgetExceeded,)))
        s = rng.randrange(200, 400)
        ops.append(Op("eval_nat unbounded, witnessed",
                      lambda api, x=s * s: api.eval_nat(square, {0: x}, 500),
                      equals(lambda: True)))
    for n, x in ((0, rng.randrange(100)), (1, rng.randrange(100)), (2, rng.randrange(8)),
                 (2, rng.randrange(8, 17)), (3, 2), (3, rng.randrange(2))):
        ops.append(Op(f"fast_growing({n},{x})", lambda api, a=(n, x): api.fast_growing(*a),
                      equals(lambda a=(n, x): expect.fast_growing(*a))))
    return ops


# --- codes ------------------------------------------------------------------


def random_term(rng, pf, depth, max_var=3):
    if depth <= 0:
        kind = rng.randrange(3)
    else:
        kind = rng.randrange(5)
    if kind == 0:
        return pf.Zero()
    if kind == 1:
        return pf.One()
    if kind == 2:
        return pf.Var(rng.randrange(max_var + 1))
    ctor = pf.Add if kind == 3 else pf.Mul
    return ctor(random_term(rng, pf, depth - 1, max_var), random_term(rng, pf, depth - 1, max_var))


def random_formula(rng, pf, depth, max_var=3):
    kind = rng.randrange(2) if depth <= 0 else rng.randrange(8)
    if kind < 2:
        d = max(depth, 1)
        ctor = pf.Eq if kind == 0 else pf.Lt
        return ctor(random_term(rng, pf, d, max_var), random_term(rng, pf, d, max_var))
    if kind == 2:
        return pf.Not(random_formula(rng, pf, depth - 1, max_var))
    if kind < 6:
        ctor = (pf.And, pf.Or, pf.Implies)[kind - 3]
        return ctor(random_formula(rng, pf, depth - 1, max_var),
                    random_formula(rng, pf, depth - 1, max_var))
    ctor = pf.ForAll if kind == 6 else pf.Exists
    return ctor(rng.randrange(max_var + 1), random_formula(rng, pf, depth - 1, max_var))


def _codes(rng, pf):
    ops = []
    for _ in range(500):
        f = random_formula(rng, pf, rng.randint(0, 4))
        plain = expect.desugar(f, pf)
        code = expect.code_of(expect.tokens(plain, []))
        ops.append(Op("encode_formula", lambda api, f=f: api.encode_formula(f),
                      equals(lambda c=code: c)))
        ops.append(Op("decode_formula", lambda api, c=code: api.decode_formula(c),
                      equals(lambda p=plain: p)))
    for _ in range(50):
        t = random_term(rng, pf, rng.randint(0, 4))
        ops.append(Op("encode_term", lambda api, t=t: api.encode_term(t),
                      equals(lambda t=t: expect.code_of(expect.tokens(t, [])))))
    for length in range(10, 101, 5):
        xs = [rng.randrange(51) for _ in range(length)]
        code = expect.seq_code(xs)
        i = rng.randrange(length)
        ops += [
            Op("encode_seq", lambda api, xs=xs: api.encode_seq(xs), equals(lambda c=code: c)),
            Op("decode_seq", lambda api, c=code: api.decode_seq(c), equals(lambda xs=xs: xs)),
            Op("seq_at", lambda api, c=code, i=i: api.seq_at(c, i), equals(lambda v=xs[i]: v)),
            Op("seq_long", lambda api, c=code: api.seq_long(c), equals(lambda n=length: n - 1)),
        ]
    for _ in range(10):
        a = [rng.randrange(51) for _ in range(rng.randint(10, 30))]
        b = [rng.randrange(51) for _ in range(rng.randint(10, 30))]
        ops.append(Op("seq_concat",
                      lambda api, a=expect.seq_code(a), b=expect.seq_code(b): api.seq_concat(a, b),
                      equals(lambda ab=a + b: expect.seq_code(ab))))
    for _ in range(20):
        xs, x = [], 0
        for _ in range(rng.randint(5, 30)):
            x += rng.randint(1, 5)
            xs.append(x)
        code = expect.code_of(xs)
        ops.append(Op("encode_set", lambda api, xs=xs: api.encode_set(xs), equals(lambda c=code: c)))
        ops.append(Op("decode_set", lambda api, c=code: api.decode_set(c), equals(lambda xs=xs: xs)))
    for i in range(200):
        scale = 10 ** 6 if i % 4 else 2 ** 96
        x, y = rng.randrange(scale), rng.randrange(scale)
        z = expect.pair(x, y)
        ops.append(Op("pair", lambda api, x=x, y=y: api.pair(x, y), equals(lambda z=z: z)))
        ops.append(Op("unpair", lambda api, z=z: api.unpair(z), equals(lambda xy=(x, y): xy)))
    # partition codes from 10 kbit to 1 Mbit; (9,1,3) and (4,2,3) are the
    # Mbit-class decodes
    for m, n, r in ((3, 2, 3), (7, 1, 3), (8, 1, 3), (9, 1, 3), (4, 2, 3)):
        colors = tuple(rng.randrange(r) for _ in range(math.comb(m, n)))
        P = pf.Partition(m, n, r, colors)
        code = expect.partition_code(m, n, colors)
        ops.append(Op(f"encode_partition({m},{n},{r})",
                      lambda api, P=P: api.encode_partition(P), equals(lambda c=code: c)))
        ops.append(Op(f"decode_partition({m},{n},{r})",
                      lambda api, c=code, h=(m, n, r): api.decode_partition(c, *h).colors,
                      equals(lambda c=colors: c)))
    n = 1000
    probes = [Op(f"encode_term(numeral({n}))",
                 lambda api: api.encode_term(pf.numeral(n)),
                 equals(lambda: expect.numeral_term_code(n)))]
    return ops, probes


# --- cli --------------------------------------------------------------------


class CliExit(Exception):
    """A CLI process exited nonzero."""


def cli_runner(workdir):
    """run(argv) -> stdout of one `python -m peano_forge` process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "peano_forge", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CliExit(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout
    return run


def _in_process(pf, argv):
    """stdout of cli.main(argv) in this process; the reference output."""
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pf.cli.main(list(argv))
    if code != 0:
        raise WrongAnswer(f"in-process reference failed with exit {code}: {argv}")
    return out.getvalue()


def _big_decimal(n):
    # the benchmark prints exact codes past the interpreter's 4300-digit
    # default; the limit is restored so the library still runs under it
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{n}\n"
    finally:
        sys.set_int_max_str_digits(old)


def _cli(rng, pf, workdir):
    import peano_forge.cli  # noqa: F401  (pf.cli is the reference)
    run = cli_runner(workdir)
    add_pr = os.path.join(workdir, "add.pr")
    with open(add_pr, "w", encoding="utf-8") as fh:
        fh.write("(primrec (proj 1 1) (comp succ (proj 3 3)))\n")
    homog = os.path.join(workdir, "homog.part")
    P = pf.Partition(6, 2, 2, [rng.randrange(2) for _ in range(15)])
    pf.write_partition(P, homog)

    small = os.path.join(workdir, "small.part")
    small_colors = [rng.randrange(2) for _ in range(4)]
    pf.write_partition(pf.Partition(4, 1, 2, small_colors), small)
    small_code = expect.partition_code(4, 1, small_colors)
    f = random_formula(rng, pf, 3)
    f_text = pf.render(f)
    f_code = expect.code_of(expect.tokens(expect.desugar(f, pf), []))
    xs = [rng.randrange(51) for _ in range(rng.randint(3, 12))]
    x, y = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    a, b = rng.randrange(50), rng.randrange(50)
    H = sorted(rng.sample(range(6), 3))
    S = sorted(rng.sample(range(1, 60), 5))
    ramsey = ["--m", "6", "--k", "3", "--r", "2", "--n", "2"]
    # (argv, an independent fact about the expected stdout, or None)
    commands = [
        (["pair", str(x), str(y)], f"{expect.pair(x, y)}\n"),
        (["unpair", str(expect.pair(y, x))], f"{y} {x}\n"),
        (["parse", f_text], None),
        (["parse", f_text, "--json"], None),
        (["encode", "formula", f_text], f"{f_code}\n"),
        (["decode", "formula", str(f_code)], None),
        (["encode", "seq", *map(str, xs)], f"{expect.seq_code(xs)}\n"),
        (["decode", "seq", str(expect.seq_code(xs))], " ".join(map(str, xs)) + "\n"),
        (["decode", "seq", str(expect.seq_code(xs)), "--json"], None),
        (["encode", "set", *map(str, (1, 3, 4, 8))], f"{expect.code_of([1, 3, 4, 8])}\n"),
        (["decode", "set", str(expect.code_of(S))], " ".join(map(str, S)) + "\n"),
        (["encode", "partition", small], f"{small_code}\n"),
        (["decode", "partition", str(small_code), "4", "1", "2"], None),
        (["pr-eval", add_pr, str(a), str(b)], f"{a + b}\n"),
        (["ramsey", *ramsey], "true\n"),
        (["ramsey", *ramsey, "--jobs", "1"], "true\n"),
        (["ph", *ramsey, "--jobs", "1"], "true\n"),
        (["ramsey", "--find-min", "--k", "3", "--r", "2", "--n", "2", "--max-m", "7"], "6\n"),
        (["check-homog", homog, *map(str, H)], None),
        (["fastgrow", "3", "2"], f"{expect.fast_growing(3, 2)}\n"),
    ]
    ops = []
    for argv, fact in commands:
        def expected(argv=argv, fact=fact):
            out = _in_process(pf, argv)
            if fact is not None and out != fact:
                raise WrongAnswer(f"in-process {argv[0]} printed {out!r}, expected {fact!r}")
            return out
        ops.append(Op(f"cli {argv[0]}", lambda api, argv=argv: run(argv), equals(expected),
                      argv=tuple(argv)))

    # known defects: both exit 2 on the 4300-digit int/str limit today
    cex = os.path.join(workdir, "defect322.part")
    colors = [rng.randrange(2) for _ in range(3)]
    pf.write_partition(pf.Partition(3, 2, 2, colors), cex)
    probes = [
        Op("cli encode partition (3,2,2)", lambda api: run(["encode", "partition", cex]),
           equals(lambda: _big_decimal(expect.partition_code(3, 2, colors)))),
        Op("cli encode seq 20000", lambda api: run(["encode", "seq", "20000"]),
           equals(lambda: _big_decimal(expect.seq_code([20000])))),
    ]
    return ops, probes
