"""Workbench for the first-order language of arithmetic: formula syntax and
evaluation, prime-power Goedel coding, a recursive-function calculus, and a
finite partition-calculus engine with exhaustive Ramsey and Paris-Harrington
search.

Each public name is imported from its module on first access (PEP 562), so
`import peano_forge` loads none of them and a command loads only what it
uses."""

# the public names, by defining module; each module is also a package
# attribute (`tree` defines no public name but is one)
_EXPORTS = {
    "errors": """ArityMismatch BadSubset BudgetExceeded DivisionByZero DomainError
        EmptySet IllFormed IndexOutOfRange InvalidPartitionFile InvalidSchemaVariables
        NotACode NotCoprime NotPrenex ParseError SearchSpaceTooLarge ShapeMismatch
        UnboundVariable UnknownName ZeroElement""",
    "formula": """Add And Eq Exists ForAll Formula Implies Lt Mul Not One Or QuantClass
        SYMBOL_CODES Term Var Zero ast_text classify_prenex decode_formula desugar
        encode_formula encode_term eval_nat eval_term euclid_div free_vars
        induction_instance numeral parse parse_term render substitute term_vars
        to_json""",
    "godel": """bounded_mu decode_seq decode_set encode_seq encode_set is_seq_code
        nth_prime pair seq_at seq_concat seq_long unpair""",
    "ramsey": """DEFAULT_ENUM_CAP FastGrowingBudget HomogReport Partition arrow ceil_sqrt
        check_subset_criterion combine decode_partition encode_partition fast_growing
        find_counterexample find_homogeneous is_homogeneous is_relatively_large
        min_witness partition_from_text partition_to_text ph_arrow product_partition
        raise_arity read_partition subsets_colex write_partition""",
    "recfun": """BoundedMu BudgetExhausted Comp Mu PRDef PrimRec Proj Succ Undefined
        Value ZeroFn arity bezout_inverse eval_def parse_def stdlib stdlib_names""",
    "tree": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime logs (and
    # importlib.import_module does not); importing a submodule binds it here
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
