"""Expressions with recurring block sizes, counter-check automata, and a
polynomial-time emptiness decision with verifiable certificates."""

__version__ = "0.1.0"

from .cca import (
    CCA,
    Configuration,
    Transition,
    export,
    has_run_prefix,
    hat,
    import_json,
    initial_configuration,
    is_simple,
    partition,
    simplify,
    split_by_checks,
    step,
)
from .emptiness import (
    AcceptingWitness,
    brute_force_witness,
    build_potential_witness_nfa,
    build_prefix_nfa,
    decide,
    is_empty,
    verify_witness,
)
from .exponents import ClassFlags, classify, decompose_prefix, sample
from .expr import OmegaTExpr, ParseError, RegExpr, TExpr, parse_omega_t, pretty, substitute_t_with_star
from .logic import block_formula, blockset_formula, emit_phi, is_regexp_formula, pretty_formula, t_condition
from .nfa import NFA, intersect, thompson
from .translate import AutomatonSet, compile_expression, compile_omega, compile_t, merge

__all__ = [
    "CCA",
    "Configuration",
    "Transition",
    "AcceptingWitness",
    "AutomatonSet",
    "ClassFlags",
    "NFA",
    "OmegaTExpr",
    "ParseError",
    "RegExpr",
    "TExpr",
    "block_formula",
    "blockset_formula",
    "brute_force_witness",
    "build_potential_witness_nfa",
    "build_prefix_nfa",
    "classify",
    "compile_expression",
    "compile_omega",
    "compile_t",
    "decide",
    "decompose_prefix",
    "emit_phi",
    "export",
    "has_run_prefix",
    "hat",
    "import_json",
    "initial_configuration",
    "intersect",
    "is_empty",
    "is_regexp_formula",
    "is_simple",
    "merge",
    "parse_omega_t",
    "partition",
    "pretty",
    "pretty_formula",
    "sample",
    "simplify",
    "split_by_checks",
    "step",
    "substitute_t_with_star",
    "t_condition",
    "thompson",
    "verify_witness",
]
