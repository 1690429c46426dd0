import io
import json
import random
import sys
import tracemalloc

import pytest

from peano_forge import Partition, desugar, parse, partition_to_text, render, to_json
from peano_forge.cli import main, run
from helpers import random_formula


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse ---

def test_parse_golden(capsys):
    code, out, err = run_cli(capsys, "parse", "(0 = 0)")
    assert (code, out) == (0, "Eq(Zero, Zero)\n")


def test_parse_syntax_error(capsys):
    code, out, err = run_cli(capsys, "parse", "(0 =")
    assert code == 1
    assert "SyntaxError" in err and "byte 4" in err


def test_parse_json(capsys):
    code, out, err = run_cli(capsys, "parse", "--json", "(0 < 1)")
    assert code == 0
    assert json.loads(out) == {
        "kind": "lt",
        "args": [{"kind": "zero", "args": []}, {"kind": "one", "args": []}],
    }
    # the text is written without the json module, byte for byte as it writes it
    rng = random.Random(4242)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 4))
        code, out, err = run_cli(capsys, "parse", "--json", render(f))
        assert (code, out, err) == (0, json.dumps(to_json(f)) + "\n", "")


def test_parse_deep_nesting_is_a_syntax_error(capsys):
    # the parser's nesting budget, not the interpreter's recursion limit,
    # turns these away
    for text in ("(" * 3000 + "0 = 0" + ")" * 3000, "!" * 3000 + "0 = 0"):
        code, out, err = run_cli(capsys, "parse", text)
        assert (code, out) == (1, "")
        assert err == "error: SyntaxError: at byte 100: nesting deeper than 100 levels\n"


# --- encode / decode ---

def test_deep_flat_sum_parses_encodes_and_decodes(capsys):
    # flat text, but the parser builds it 1500 levels deep; its code has
    # about 114000 digits, past the int/str limit that main lifts
    text = "0 = 1" + " + 1" * 1500
    code, out, err = run_cli(capsys, "parse", text)
    assert (code, err) == (0, "")
    assert out.startswith("Eq(Zero, " + "Add(" * 1500 + "One, One)")
    # past the recursion of Python's json encoder too
    code, out, err = run_cli(capsys, "parse", "--json", text)
    one = '{"kind": "one", "args": []}'
    expected = ('{"kind": "eq", "args": [{"kind": "zero", "args": []}, '
                + '{"kind": "add", "args": [' * 1500 + one + f", {one}]}}" * 1500 + "]}\n")
    assert (code, out, err) == (0, expected, "")
    code, out, err = run_cli(capsys, "encode", "formula", text)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "decode", "formula", out.strip())
    assert (code, out, err) == (0, render(parse(text)) + "\n", "")


def test_parse_json_memory_stays_near_the_output(capsys):
    # each level's partial text is dropped once its parent has used it; kept
    # for every level of this 3000-deep sum, the partial texts took 250 MB
    text = "0 = 1" + " + 1" * 3000
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "parse", "--json", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err, len(out)) == (0, "", 168084)
    assert peak < 16 * 2**20


def test_deep_connective_chains_encode(capsys):
    # 1500-long chains of & and -> and a 1500-deep term under <: the rewrite
    # into the coding alphabet must not recurse once per level
    for text in ("0 = 0" + " & 0 = 0" * 1500, "0 = 0" + " -> 0 = 0" * 1500,
                 "0 < 1" + " + 1" * 1500):
        code, out, err = run_cli(capsys, "encode", "formula", text)
        assert (code, err) == (0, "")
        assert out.strip().isdecimal()


def test_decode_reads_a_long_code_from_stdin(capsys, monkeypatch):
    # the code of a 700-long &-chain has 134654 digits, past the 128 KiB
    # limit of one command-line argument, so it goes through stdin as
    # through a pipe; it is read back block by block
    text = "0 = 0" + " & 0 = 0" * 700
    code, out, err = run_cli(capsys, "encode", "formula", text)
    assert (code, err, len(out)) == (0, "", 134655)
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, err = run_cli(capsys, "decode", "formula", "-")
    assert (code, out, err) == (0, render(desugar(parse(text))) + "\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("144\n"))
    assert run_cli(capsys, "decode", "seq", "-") == (0, "3 1\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("-1"))
    assert run_cli(capsys, "decode", "seq", "-")[0] == 2


def test_encode_decode_formula(capsys):
    code, out, _ = run_cli(capsys, "encode", "formula", "(0 = 0)")
    assert (code, out) == (0, "2430\n")
    code, out, _ = run_cli(capsys, "decode", "formula", "2430")
    assert (code, out) == (0, "(0 = 0)\n")


def test_encode_decode_seq(capsys):
    code, out, _ = run_cli(capsys, "encode", "seq", "3", "1")
    assert (code, out) == (0, "144\n")
    code, out, _ = run_cli(capsys, "decode", "seq", "144")
    assert (code, out) == (0, "3 1\n")
    code, out, _ = run_cli(capsys, "decode", "seq", "144", "--json")
    assert (code, out) == (0, '{"code": "144", "elements": [3, 1]}\n')


def test_encode_decode_set(capsys):
    code, out, _ = run_cli(capsys, "encode", "set", "2", "3")
    assert (code, out) == (0, "108\n")
    code, out, _ = run_cli(capsys, "decode", "set", "108")
    assert (code, out) == (0, "2 3\n")


def test_encode_set_negative_is_a_usage_error(capsys):
    assert run_cli(capsys, "encode", "set", "--", "-1", "2") == (
        2, "", "usage error: set elements must be naturals\n")
    code, out, err = run_cli(capsys, "encode", "set", "0", "2")
    assert (code, out) == (1, "") and err.startswith("error: ZeroElement: ")


def test_decode_not_a_code(capsys):
    code, out, err = run_cli(capsys, "decode", "formula", "2048")
    assert code == 1 and "NotACode" in err


def test_run_exits_with_the_code_of_main(capsys, monkeypatch):
    # the console script's entry point
    for argv, status, out in ((["pair", "1", "2"], 0, "8\n"), (["decode", "formula", "2048"], 1, "")):
        monkeypatch.setattr(sys, "argv", ["peano-forge", *argv])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == status
        assert capsys.readouterr().out == out


def test_encode_decode_partition(capsys, tmp_path):
    P = Partition.from_function(4, 1, 2, lambda s: s[0] % 2)
    path = tmp_path / "p.part"
    path.write_text(partition_to_text(P))
    code, out, _ = run_cli(capsys, "encode", "partition", str(path))
    assert code == 0
    value = out.strip()
    code, out, _ = run_cli(capsys, "decode", "partition", value, "4", "1", "2")
    assert (code, out) == (0, partition_to_text(P))


def big_decimal(n):
    """str(n) past the interpreter's default 4300-digit int/str limit."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return str(n)
    old = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return str(n)
    finally:
        set_digits(old)


def digit_limit():
    get_digits = getattr(sys, "get_int_max_str_digits", None)
    return get_digits() if get_digits else None


def test_encode_decode_seq_beyond_digit_limit(capsys):
    limit = digit_limit()
    code, out, err = run_cli(capsys, "encode", "seq", "20000")
    assert (code, out, err) == (0, big_decimal(2 ** 20001) + "\n", "")
    assert len(out) == 6022  # 6021 digits and the newline
    code, out, _ = run_cli(capsys, "decode", "seq", out.strip())
    assert (code, out) == (0, "20000\n")
    assert digit_limit() == limit  # restored once main returns


def test_encode_decode_partition_beyond_digit_limit(capsys, tmp_path):
    P = Partition(3, 2, 2, [0, 0, 0])
    path = tmp_path / "p322.part"
    path.write_text(partition_to_text(P))
    # subsets (0,1), (0,2), (1,2) have seq codes 18, 54, 108; paired with
    # color 0 they give 171, 1485, 5886, each shifted by one as an exponent
    expected = 2 ** 172 * 3 ** 1486 * 5 ** 5887
    code, out, err = run_cli(capsys, "encode", "partition", str(path))
    assert (code, out, err) == (0, big_decimal(expected) + "\n", "")
    assert len(out.strip()) == 4876
    code, out, _ = run_cli(capsys, "decode", "partition", out.strip(), "3", "2", "2")
    assert (code, out) == (0, partition_to_text(P))


# --- pr-eval ---

ADD_SRC = "(primrec (proj 1 1) (comp succ (proj 3 3)))\n"


def test_pr_eval_add(capsys, tmp_path):
    path = tmp_path / "add.pr"
    path.write_text(ADD_SRC)
    code, out, _ = run_cli(capsys, "pr-eval", str(path), "2", "3")
    assert (code, out) == (0, "5\n")


def test_pr_eval_budget(capsys, tmp_path):
    path = tmp_path / "diverge.pr"
    path.write_text("(mu (comp succ zero))\n")
    code, out, _ = run_cli(capsys, "pr-eval", str(path), "--fuel", "100")
    assert (code, out) == (1, "budget-exhausted\n")


def test_pr_eval_negative_fuel_is_a_usage_error(capsys, tmp_path):
    # a fuel that is no natural is refused, never run out of at once
    path = tmp_path / "add.pr"
    path.write_text(ADD_SRC)
    assert run_cli(capsys, "pr-eval", str(path), "2", "3", "--fuel", "-1") == (
        2, "", "usage error: fuel must be a natural number, got -1\n")
    assert run_cli(capsys, "pr-eval", str(path), "2", "3", "--fuel", "0") == (
        1, "budget-exhausted\n", "")


def test_pr_eval_arity_mismatch(capsys, tmp_path):
    path = tmp_path / "add.pr"
    path.write_text(ADD_SRC)
    code, out, err = run_cli(capsys, "pr-eval", str(path), "2")
    assert code == 1 and "ArityMismatch" in err


def test_pr_eval_deep_nesting_is_a_syntax_error(capsys, tmp_path):
    path = tmp_path / "deep.pr"
    for depth, expected in ((100, (0, "100\n", "")), (3000, (
            1, "", "error: SyntaxError: at byte 1100: nesting deeper than 100 levels\n"))):
        path.write_text("(comp succ " * depth + "zero" + ")" * depth)
        assert run_cli(capsys, "pr-eval", str(path), "0") == expected


def test_pr_eval_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pr-eval", str(tmp_path / "nope.pr"), "1")
    assert code == 1 and err


# --- ramsey / ph ---

def test_ramsey_true(capsys):
    code, out, _ = run_cli(capsys, "ramsey", "--m", "6", "--k", "3", "--r", "2",
                           "--n", "2", "--jobs", "1")
    assert (code, out) == (0, "true\n")


def test_ramsey_false_with_counterexample(capsys, tmp_path):
    cex = tmp_path / "cex.part"
    code, out, _ = run_cli(capsys, "ramsey", "--m", "5", "--k", "3", "--r", "2",
                           "--n", "2", "--jobs", "1", "--counterexample", str(cex))
    assert (code, out) == (0, "false\n")
    text = cex.read_text()
    assert text.splitlines()[0] == "5 2 2"
    from peano_forge import find_homogeneous, partition_from_text
    assert find_homogeneous(partition_from_text(text), 3) is None


def test_ramsey_find_min(capsys):
    code, out, _ = run_cli(capsys, "ramsey", "--find-min", "--k", "3", "--r", "2",
                           "--n", "2", "--max-m", "10", "--jobs", "1")
    assert (code, out) == (0, "6\n")


def test_ramsey_output_identical_across_jobs(capsys):
    results = []
    for jobs in ("1", "8"):
        code, out, _ = run_cli(capsys, "ramsey", "--m", "5", "--k", "3", "--r", "2",
                               "--n", "2", "--jobs", jobs)
        results.append((code, out))
    assert results[0] == results[1]


def test_ph_true(capsys):
    code, out, _ = run_cli(capsys, "ph", "--m", "6", "--k", "3", "--r", "2",
                           "--n", "2", "--jobs", "1")
    assert (code, out) == (0, "true\n")


def test_ph_find_min(capsys):
    code, out, _ = run_cli(capsys, "ph", "--find-min", "--k", "3", "--r", "2",
                           "--n", "2", "--max-m", "10", "--jobs", "1")
    assert (code, out) == (0, "6\n")
    code, out, _ = run_cli(capsys, "ph", "--find-min", "--k", "4", "--r", "2",
                           "--n", "2", "--max-m", "8", "--jobs", "1")
    assert (code, out) == (0, "none\n")


def test_arrow_usage_errors(capsys, monkeypatch):
    assert run_cli(capsys, "ramsey", "--find-min", "--k", "3", "--r", "2", "--n", "2") == (
        2, "", "usage error: --find-min needs --max-m\n")
    monkeypatch.setenv("PEANO_FORGE_ENUM_CAP", "abc")
    assert run_cli(capsys, "ph", "--m", "6", "--k", "3", "--r", "2", "--n", "2") == (
        2, "", "usage error: PEANO_FORGE_ENUM_CAP must be an integer, got 'abc'\n")


def test_negative_enum_cap_is_a_usage_error(capsys, monkeypatch):
    # a cap that is no natural is refused, never reported as a space too large
    monkeypatch.setenv("PEANO_FORGE_ENUM_CAP", "-5")
    assert run_cli(capsys, "ramsey", "--m", "3", "--k", "2", "--r", "2", "--n", "1") == (
        2, "", "usage error: the enumeration cap must be a natural number, got -5\n")
    # also where --max-m leaves no m to search
    assert run_cli(capsys, "ramsey", "--find-min", "--k", "3", "--r", "2", "--n", "2",
                   "--max-m", "1") == (
        2, "", "usage error: the enumeration cap must be a natural number, got -5\n")
    monkeypatch.setenv("PEANO_FORGE_ENUM_CAP", "0")
    code, out, err = run_cli(capsys, "ramsey", "--m", "3", "--k", "2", "--r", "2", "--n", "1")
    assert (code, out) == (1, "") and err.startswith("error: SearchSpaceTooLarge: ")


def test_ramsey_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("PEANO_FORGE_ENUM_CAP", "100")
    code, out, err = run_cli(capsys, "ramsey", "--m", "6", "--k", "3", "--r", "2",
                             "--n", "2", "--jobs", "1")
    assert code == 1
    assert "SearchSpaceTooLarge" in err
    assert "32768" in err and "100" in err  # required space and cap printed


def test_ramsey_cap_exceeded_huge_space_stays_short(capsys):
    # 2^C(200,2) has about 6000 digits; it is reported by its power of two
    code, out, err = run_cli(capsys, "ramsey", "--m", "200", "--k", "3", "--r", "2",
                             "--n", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "SearchSpaceTooLarge" in err and "2^19900" in err


def test_ramsey_usage_errors(capsys):
    code, out, err = run_cli(capsys, "ramsey", "--k", "3", "--r", "2", "--n", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "ramsey", "--m", "5", "--k", "1", "--r", "2",
                             "--n", "2")
    assert code == 2  # n > k
    code, out, err = run_cli(capsys, "ramsey", "--m", "2", "--k", "3", "--r", "2",
                             "--n", "2")
    assert code == 2  # k > m
    code, out, err = run_cli(capsys, "ramsey", "--m", "5", "--k", "3", "--r", "0",
                             "--n", "2")
    assert code == 2  # no colors
    code, out, err = run_cli(capsys, "fastgrow", "1", "3", "--max-bits", "0")
    assert code == 2


# --- check-homog ---

def constant_partition_file(tmp_path):
    P = Partition.from_function(6, 2, 2, lambda s: 0)
    path = tmp_path / "const.part"
    path.write_text(partition_to_text(P))
    return path


def pentagon_file(tmp_path):
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    P = Partition.from_function(5, 2, 2, lambda s: 0 if s in cycle else 1)
    path = tmp_path / "pentagon.part"
    path.write_text(partition_to_text(P))
    return path


def test_check_homog_constant(capsys, tmp_path):
    path = constant_partition_file(tmp_path)
    code, out, _ = run_cli(capsys, "check-homog", str(path), "3", "4", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"set": [3, 4, 5], "size": 3, "homogeneous": True,
                   "color": 0, "relatively_large": True}


def test_check_homog_pentagon(capsys, tmp_path):
    path = pentagon_file(tmp_path)
    code, out, _ = run_cli(capsys, "check-homog", str(path), "0", "1", "2")
    doc = json.loads(out)
    assert code == 0 and doc["homogeneous"] is False and doc["color"] is None


def test_check_homog_not_large(capsys, tmp_path):
    path = constant_partition_file(tmp_path)
    code, out, _ = run_cli(capsys, "check-homog", str(path), "4", "5")
    doc = json.loads(out)
    assert doc["relatively_large"] is False and doc["homogeneous"] is True


def test_check_homog_bad_subset(capsys, tmp_path):
    path = constant_partition_file(tmp_path)
    code, out, err = run_cli(capsys, "check-homog", str(path), "9")
    assert code == 1 and "BadSubset" in err


# --- pair / unpair / fastgrow ---

def test_pair_unpair(capsys):
    code, out, _ = run_cli(capsys, "pair", "1", "2")
    assert (code, out) == (0, "8\n")
    code, out, _ = run_cli(capsys, "unpair", "8")
    assert (code, out) == (0, "1 2\n")


def test_fastgrow(capsys):
    code, out, _ = run_cli(capsys, "fastgrow", "3", "2")
    assert (code, out) == (0, "65534\n")
    code, out, err = run_cli(capsys, "fastgrow", "3", "5")
    assert code == 1 and "BudgetExceeded" in err


def test_fastgrow_deep_level_is_a_budget_error(capsys):
    # level 3000 unfolds 3000 levels deep before its budget runs out
    code, out, err = run_cli(capsys, "fastgrow", "3000", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: BudgetExceeded: ") and err.count("\n") == 1


# --- exit-code contract ---

def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["parse"]) == 2
    assert main(["no-such-command"]) == 2


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "peano_forge", "encode", "formula", "(0 = 0)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "2430\n")
    proc = subprocess.run(
        [sys.executable, "-m", "peano_forge", "parse", "(0 ="],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1 and "SyntaxError" in proc.stderr


def test_oversized_codes_are_refused_before_they_are_built(tmp_path):
    # each of these codes would have 10^12 bits or more; the size bound is
    # checked before anything is multiplied.  The process runs under a
    # 1 GiB address-space limit, so a code that is built anyway fails here
    # instead of exhausting memory.
    import resource
    import subprocess

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "p2012.part"
    path.write_text(partition_to_text(Partition(20, 1, 2, [i % 2 for i in range(20)])))
    for argv in (["encode", "seq", "99999999999999999999"],
                 ["encode", "formula", "x99999999999999999999999 = 0"],
                 ["encode", "partition", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "peano_forge", *argv],
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=limit_memory)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr.startswith("error: BudgetExceeded: "), argv
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.endswith(" bits is over the budget of 268435456 bits\n")


def test_malformed_inputs_never_raise(capsys, tmp_path):
    bad = tmp_path / "bad.part"
    bad.write_text("not a partition\n")
    sup = tmp_path / "sup.part"
    sup.write_text("5 2 ²\n")
    for argv in (
        ["parse", "((("],
        ["decode", "formula", "0"],
        ["decode", "seq", "10"],
        ["encode", "set", "0"],
        ["check-homog", str(bad), "1"],
        ["pr-eval", str(bad)],
        ["pair", "-3", "4"],
        ["pair", "²", "1"],
        ["check-homog", str(sup), "1"],
    ):
        code = main(argv)
        capsys.readouterr()
        assert code in (1, 2), argv
    # a superscript digit is no natural, and no digit of a partition file
    assert run_cli(capsys, "pair", "²", "1") == (
        2, "", "usage error: expected a natural number, got '²'\n")
    code, out, err = run_cli(capsys, "check-homog", str(sup), "1")
    assert (code, out) == (1, "") and "InvalidPartitionFile" in err
    # each file reader's message is printed as it is raised
    (tmp_path / "empty.pr").write_text("(comp succ)\n")
    assert run_cli(capsys, "pr-eval", str(tmp_path / "empty.pr"), "0") == (
        1, "", "error: IllFormed: composition needs at least one inner function\n")
    (tmp_path / "colon.part").write_text("3 2 2\n0 1 0\n")
    assert run_cli(capsys, "check-homog", str(tmp_path / "colon.part"), "0", "1") == (
        1, "", "error: InvalidPartitionFile: missing ':' in line '0 1 0'\n")


# --- start-up and the package surface ---

# the names the package exported at its eager imports, by defining module
EXPORTS = {
    "errors": [
        "ArityMismatch", "BadSubset", "BudgetExceeded", "DivisionByZero", "DomainError",
        "EmptySet", "IllFormed", "IndexOutOfRange", "InvalidPartitionFile",
        "InvalidSchemaVariables", "NotACode", "NotCoprime", "NotPrenex", "ParseError",
        "SearchSpaceTooLarge", "ShapeMismatch", "UnboundVariable", "UnknownName",
        "ZeroElement"],
    "formula": [
        "Add", "And", "Eq", "Exists", "ForAll", "Formula", "Implies", "Lt", "Mul", "Not",
        "One", "Or", "QuantClass", "SYMBOL_CODES", "Term", "Var", "Zero", "ast_text",
        "classify_prenex", "decode_formula", "desugar", "encode_formula", "encode_term",
        "eval_nat", "eval_term", "euclid_div", "free_vars", "induction_instance",
        "numeral", "parse", "parse_term", "render", "substitute", "term_vars", "to_json"],
    "godel": [
        "bounded_mu", "decode_seq", "decode_set", "encode_seq", "encode_set",
        "is_seq_code", "nth_prime", "pair", "seq_at", "seq_concat", "seq_long", "unpair"],
    "ramsey": [
        "DEFAULT_ENUM_CAP", "FastGrowingBudget", "HomogReport", "Partition", "arrow",
        "ceil_sqrt", "check_subset_criterion", "combine", "decode_partition",
        "encode_partition", "fast_growing", "find_counterexample", "find_homogeneous",
        "is_homogeneous", "is_relatively_large", "min_witness", "partition_from_text",
        "partition_to_text", "ph_arrow", "product_partition", "raise_arity",
        "read_partition", "subsets_colex", "write_partition"],
    "recfun": [
        "BoundedMu", "BudgetExhausted", "Comp", "Mu", "PRDef", "PrimRec", "Proj", "Succ",
        "Undefined", "Value", "ZeroFn", "arity", "bezout_inverse", "eval_def", "parse_def",
        "stdlib", "stdlib_names"],
}


def test_package_surface():
    import importlib
    import peano_forge
    names = sorted(n for module_names in EXPORTS.values() for n in module_names)
    assert sorted(peano_forge.__all__) == names
    for module, module_names in EXPORTS.items():
        layer = importlib.import_module(f"peano_forge.{module}")
        assert getattr(peano_forge, module) is layer
        for name in module_names:
            assert getattr(peano_forge, name) is getattr(layer, name), name
    star = {}
    exec("from peano_forge import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    assert all(star[n] is getattr(peano_forge, n) for n in names)
    # public names: the exports and the modules they come from, and cli,
    # which importing peano_forge.cli binds
    assert [n for n in dir(peano_forge) if not n.startswith("_")] == sorted(
        names + [*EXPORTS, "tree", "cli"])
    assert "__version__" in dir(peano_forge)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        peano_forge.nope
    assert not hasattr(peano_forge, "cli_main")


def test_commands_load_only_their_layers(tmp_path):
    # sys.modules of a child process after one command, not -X importtime,
    # which does not see imports through importlib
    import os
    import subprocess

    import peano_forge
    (tmp_path / "add.pr").write_text(ADD_SRC)
    (tmp_path / "p.part").write_text("3 2 2\n0 1 : 0\n0 2 : 1\n1 2 : 0\n")
    src = os.path.dirname(os.path.dirname(peano_forge.__file__))
    base = {"peano_forge", "peano_forge.cli", "peano_forge.errors"}
    godel = base | {"peano_forge.godel"}
    formula = godel | {"peano_forge.formula", "peano_forge.tree"}
    recfun = base | {"peano_forge.tree", "peano_forge.recfun"}
    # ramsey imports godel only to code partitions
    ramsey = base | {"peano_forge.tree", "peano_forge.ramsey"}
    probe = ("import json, sys\n{}\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'peano_forge')))")
    run = "from peano_forge.cli import main\nmain({!r})"
    for code, loaded in (
        ("import peano_forge", {"peano_forge"}),
        (run.format(["parse", "forall x1 (x1 < x0)"]), formula),
        (run.format(["parse", "--json", "0 = 1"]), formula),
        (run.format(["pr-eval", "add.pr", "2", "3"]), recfun),
        (run.format(["pair", "1", "2"]), godel),
        (run.format(["unpair", "8"]), godel),
        (run.format(["encode", "seq", "1", "2"]), godel),
        (run.format(["decode", "set", "90"]), godel),
        (run.format(["encode", "formula", "0 = 0"]), formula),
        (run.format(["decode", "formula", "2430"]), formula),
        (run.format(["ramsey", "--m", "5", "--k", "3", "--r", "2", "--n", "2"]), ramsey),
        (run.format(["ph", "--m", "8", "--k", "3", "--r", "2", "--n", "2"]), ramsey),
        (run.format(["check-homog", "p.part", "0", "1"]), ramsey),
        (run.format(["fastgrow", "2", "3"]), ramsey),
        (run.format(["encode", "partition", "p.part"]), ramsey | godel),
        (run.format(["decode", "partition", "1", "3", "2", "2"]), ramsey | godel),
        (run.format(["--help"]), base),
    ):
        proc = subprocess.run([sys.executable, "-c", probe.format(code)], cwd=tmp_path,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, (code, proc.stderr)
        assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded, code
