"""Expressions with recurring block sizes, counter-check automata, and a
polynomial-time emptiness decision with verifiable certificates.

Importing the package loads none of its modules: each public name, and each
module as an attribute (``countercheck.emptiness``), loads its module on
first access, so a command pays only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "cca": (
        "CCA", "Configuration", "Transition", "export", "has_run_prefix", "hat", "import_json",
        "initial_configuration", "is_simple", "partition", "replay", "simplify", "split_by_checks",
        "step", "write_export",
    ),
    "emptiness": ("AcceptingWitness", "decide", "is_empty", "verify_witness"),
    "exponents": ("ClassFlags", "classify", "decompose_prefix", "sample"),
    "expr": ("OmegaTExpr", "ParseError", "RegExpr", "TExpr", "parse_omega_t", "pretty", "substitute_t_with_star"),
    "logic": (
        "block_formula", "blockset_formula", "emit_phi", "free_vars", "is_regexp_formula", "pretty_formula",
        "t_condition",
    ),
    "nfa": ("NFA", "accepts", "thompson"),
    "reference": (
        "brute_force_witness", "build_potential_witness_nfa", "build_prefix_nfa", "decide_by_product",
        "scan_path", "witness_nfa_state_count",
    ),
    "translate": ("AutomatonSet", "compile_expression", "compile_omega", "compile_t", "merge"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "harness"}

__all__ = sorted(_HOME)


def _load(module: str):
    # __import__ rather than importlib.import_module, so that -X importtime
    # lists the module
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_load(_HOME[name]), name)
    elif name in _MODULES:
        value = _load(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
