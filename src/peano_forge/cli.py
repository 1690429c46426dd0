"""Batch command-line front end.

Exit codes: 0 success; 1 for a domain error, printed as
``error: <name>: <text>`` with the error's ``name`` (an unreadable file is
``error: <text>``), and for ``pr-eval``'s ``budget-exhausted`` on stdout; 2
for a usage error, which is argparse's own message, or ``usage error: <text>``
for a ValueError that a command raises.  All big numbers cross the boundary
as decimal strings.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError


def _enum_cap():
    from . import ramsey
    raw = os.environ.get("PEANO_FORGE_ENUM_CAP")
    if raw is None:
        return ramsey.DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PEANO_FORGE_ENUM_CAP must be an integer, got {raw!r}")


def _build_parser():
    # each handler imports the layers it uses, so building the parser loads
    # none and a process pays only for its own command
    p = argparse.ArgumentParser(
        prog="peano-forge",
        description="Workbench for the language of arithmetic: parsing, "
                    "Goedel coding, recursive-function evaluation, and finite "
                    "partition search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("parse", help="parse a formula and print its AST")
    q.set_defaults(handler=_cmd_parse)
    q.add_argument("text")
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("encode", help="Goedel-encode a formula, seq, set, or partition")
    q.set_defaults(handler=_cmd_encode)
    kinds = q.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("formula")
    k.add_argument("text")
    k = kinds.add_parser("seq")
    k.add_argument("elements", nargs="*", type=int)
    k = kinds.add_parser("set")
    k.add_argument("elements", nargs="+", type=int)
    k = kinds.add_parser("partition")
    k.add_argument("file")

    q = sub.add_parser("decode", help="decode a Goedel code; - reads it from stdin")
    q.set_defaults(handler=_cmd_decode)
    kinds = q.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("formula")
    k.add_argument("code")
    k = kinds.add_parser("seq")
    k.add_argument("code")
    k.add_argument("--json", action="store_true")
    k = kinds.add_parser("set")
    k.add_argument("code")
    k = kinds.add_parser("partition")
    k.add_argument("code")
    k.add_argument("m", type=int)
    k.add_argument("n", type=int)
    k.add_argument("r", type=int)

    q = sub.add_parser("pr-eval", help="evaluate a recursive-function definition file")
    q.set_defaults(handler=_cmd_pr_eval)
    q.add_argument("file")
    q.add_argument("args", nargs="*")
    q.add_argument("--fuel", type=int, default=1_000_000)

    for name in ("ramsey", "ph"):
        q = sub.add_parser(name, help=f"decide the {name} arrow relation")
        q.set_defaults(handler=_cmd_arrow, large=name == "ph")
        q.add_argument("--m", type=int)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--find-min", action="store_true")
        q.add_argument("--max-m", type=int)
        q.add_argument("--jobs", type=int, default=1,
                       help="accepted without effect: the search runs in one process")
        q.add_argument("--counterexample", metavar="FILE",
                       help="write the first counterexample partition here")

    q = sub.add_parser("check-homog", help="report homogeneity of a set for a partition file")
    q.set_defaults(handler=_cmd_check_homog)
    q.add_argument("file")
    q.add_argument("elements", nargs="+", type=int)

    q = sub.add_parser("pair")
    q.set_defaults(handler=_cmd_pair)
    q.add_argument("x")
    q.add_argument("y")

    q = sub.add_parser("unpair")
    q.set_defaults(handler=_cmd_unpair)
    q.add_argument("z")

    q = sub.add_parser("fastgrow", help="evaluate the fast-growing hierarchy")
    q.set_defaults(handler=_cmd_fastgrow)
    q.add_argument("n", type=int)
    q.add_argument("x", type=int)
    # None stands for DEFAULT_FAST_BUDGET's field, read by _cmd_fastgrow
    q.add_argument("--max-iterations", type=int)
    q.add_argument("--max-bits", type=int)
    return p


def _nat(text):
    if not text.isdecimal():
        raise ValueError(f"expected a natural number, got {text!r}")
    return int(text)


def _json_text(f):
    # json.dumps(formula.to_json(f)) byte for byte, written by the iterative
    # fold: the json encoder recurses once per level of the tree
    from . import formula
    def visit(x, args):
        kind = type(x).__name__.lower()
        return f'{{"kind": "{kind}", "args": [{", ".join(map(str, args))}]}}'
    return formula._fold(f, visit)


def _cmd_parse(args):
    from . import formula
    f = formula.parse(args.text)
    if args.json:
        return 0, _json_text(f) + "\n"
    return 0, formula.ast_text(f) + "\n"


def _cmd_encode(args):
    if args.kind == "formula":
        from . import formula
        code = formula.encode_formula(formula.parse(args.text))
        return 0, f"{code}\n"
    if args.kind == "partition":
        from . import ramsey
        P = ramsey.read_partition(args.file)
        return 0, f"{ramsey.encode_partition(P)}\n"
    from . import godel
    if args.kind == "seq":
        return 0, f"{godel.encode_seq(args.elements)}\n"
    return 0, f"{godel.encode_set(args.elements)}\n"


def _cmd_decode(args):
    # a code of over 128 KiB of digits is past the length limit of one
    # command-line argument, so "-" reads it from stdin
    code = _nat(sys.stdin.read().strip() if args.code == "-" else args.code)
    if args.kind == "partition":
        from . import ramsey
        P = ramsey.decode_partition(code, args.m, args.n, args.r)
        return 0, ramsey.partition_to_text(P)
    if args.kind == "formula":
        from . import formula
        return 0, formula.render(formula.decode_formula(code)) + "\n"
    from . import godel
    if args.kind == "seq":
        elements = godel.decode_seq(code)
        if args.json:
            import json
            doc = {"code": str(code), "elements": elements}
            return 0, json.dumps(doc) + "\n"
        return 0, " ".join(str(x) for x in elements) + "\n"
    elements = godel.decode_set(code)
    return 0, " ".join(str(x) for x in elements) + "\n"


def _cmd_pr_eval(args):
    from . import recfun
    with open(args.file, "r", encoding="utf-8") as fh:
        d = recfun.parse_def(fh.read())
    values = [_nat(a) for a in args.args]
    outcome = recfun.eval_def(d, values, args.fuel)
    if isinstance(outcome, recfun.Value):
        return 0, f"{outcome.value}\n"
    return 1, "budget-exhausted\n"


def _cmd_arrow(args):
    if args.n > args.k:
        raise ValueError(f"need n <= k, got n={args.n}, k={args.k}")
    from . import ramsey
    cap = _enum_cap()
    if args.find_min:
        if args.max_m is None:
            raise ValueError("--find-min needs --max-m")
        m = ramsey.min_witness(args.k, args.r, args.n,
                               relation="ph" if args.large else "ramsey",
                               max_m=args.max_m, cap=cap)
        return 0, ("none" if m is None else str(m)) + "\n"
    if args.m is None:
        raise ValueError("give --m, or --find-min with --max-m")
    cex = ramsey.find_counterexample(args.m, args.k, args.r, args.n,
                                     large=args.large, cap=cap)
    if cex is None:
        return 0, "true\n"
    if args.counterexample:
        ramsey.write_partition(cex, args.counterexample)
    return 0, "false\n"


def _cmd_check_homog(args):
    import json

    from . import ramsey
    P = ramsey.read_partition(args.file)
    H = tuple(args.elements)
    homogeneous = ramsey.is_homogeneous(P, H)
    color = P.color(H[: P.n]) if homogeneous else None
    doc = {
        "set": list(H),
        "size": len(H),
        "homogeneous": homogeneous,
        "color": color,
        "relatively_large": ramsey.is_relatively_large(H),
    }
    return 0, json.dumps(doc) + "\n"


def _cmd_fastgrow(args):
    from . import ramsey
    default = ramsey.DEFAULT_FAST_BUDGET
    bits, iterations = args.max_bits, args.max_iterations
    budget = ramsey.FastGrowingBudget(
        max_result_bits=default.max_result_bits if bits is None else bits,
        max_iterations=default.max_iterations if iterations is None else iterations)
    return 0, f"{ramsey.fast_growing(args.n, args.x, budget)}\n"


def _cmd_pair(args):
    from . import godel
    return 0, f"{godel.pair(_nat(args.x), _nat(args.y))}\n"


def _cmd_unpair(args):
    from . import godel
    x, y = godel.unpair(_nat(args.z))
    return 0, f"{x} {y}\n"


def main(argv=None):
    # codes are exact decimals of any length, so the interpreter's int/str
    # digit limit is lifted while a command runs and restored afterwards
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return _main(argv)
    old = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return _main(argv)
    finally:
        set_digits(old)


def _main(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own: 0 for --help, 2 for a bad argument
        return exc.code
    try:
        exit_code, text = args.handler(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return exit_code


def run():
    raise SystemExit(main())
