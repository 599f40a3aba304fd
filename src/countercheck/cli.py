"""Command-line frontend.

Subcommands: parse, compile, empty, dot, simulate, formula, classify,
verify, fuzz.  Wherever an expression is accepted, ``--automaton FILE``
substitutes a JSON automaton instead.  Exit codes: 0 success, 1 failed
check (fuzz disagreement, invalid witness), 2 usage or parse errors,
3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .cca import CCA, export, has_run_prefix, import_json, is_simple, simplify
from .emptiness import InternalCheckError, decide, verify_witness, witness_from_json
from .exponents import classify, parse_generator
from .expr import ParseError, parse_omega_t, pretty
from .harness import run_fuzz
from .logic import emit_phi, pretty_formula
from .translate import Trace, compile_expression


SCHEMA_HEADER = (
    "# schema: star-relaxed core conjoined with one recurrent-block-size"
    " condition per ^T site; the conjunction is a documented"
    " approximation, not asserted language-equal"
)


def _infer_alphabet(text: str) -> str:
    letters = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "^":
            i += 2
            continue
        if c.islower() and c not in letters:
            letters.append(c)
        i += 1
    return "".join(sorted(letters)) or "a"


def _load_expression(args) -> tuple[Optional[CCA], Optional[object]]:
    """(automaton, expression); exactly one is set."""
    if getattr(args, "automaton", None):
        with open(args.automaton, "r", encoding="utf-8") as handle:
            return import_json(handle.read()), None
    if not args.expression:
        raise ParseError("an expression or --automaton FILE is required", 0)
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    return None, parse_omega_t(args.expression, alphabet)


def _automaton_for(args) -> CCA:
    automaton, expression = _load_expression(args)
    if automaton is not None:
        return automaton
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    return compile_expression(expression, alphabet)


def cmd_parse(args) -> int:
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    tree = parse_omega_t(args.expression, alphabet)
    print(pretty(tree))
    return 0


def cmd_compile(args) -> int:
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    tree = parse_omega_t(args.expression, alphabet)
    trace: Optional[Trace] = [] if args.intermediate else None
    automaton = compile_expression(tree, alphabet, trace)
    if trace is not None:
        for label, auto_set in trace:
            print(f"== {label} ({len(auto_set.automata)} automata) ==")
            for member in auto_set.automata:
                print(export(member, "json"))
    print(export(automaton, "json"))
    return 0


def cmd_empty(args) -> int:
    automaton = _automaton_for(args)
    report = decide(automaton)
    if report.empty:
        print("EMPTY")
    else:
        print("NONEMPTY")
        print(json.dumps(report.witness.to_json_dict(), indent=2))
    return 0


def cmd_dot(args) -> int:
    print(export(_automaton_for(args), "dot"))
    return 0


def cmd_simulate(args) -> int:
    automaton = _automaton_for(args)
    run = has_run_prefix(automaton, args.word, args.eps)
    if run is None:
        print("ABSENT")
    else:
        print("PRESENT")
        for config in run.configurations:
            print(f"  {config.state} {list(config.counters)}")
    return 0


def cmd_formula(args) -> int:
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    tree = parse_omega_t(args.expression, alphabet)
    formula = emit_phi(tree)
    style = "ascii" if args.ascii else "unicode"
    print(SCHEMA_HEADER)
    print(pretty_formula(formula, style=style, expand_macros=args.expand_macros))
    return 0


def cmd_classify(args) -> int:
    flags = classify(parse_generator(args.generator))
    print(
        f"bounded={str(flags.bounded).lower()}"
        f" strictly_unbounded={str(flags.strictly_unbounded).lower()}"
        f" T={str(flags.t_holds).lower()}"
    )
    return 0


def cmd_verify(args) -> int:
    with open(args.automaton, "r", encoding="utf-8") as handle:
        automaton = import_json(handle.read())
    with open(args.witness, "r", encoding="utf-8") as handle:
        witness = witness_from_json(handle.read())
    simple = automaton if is_simple(automaton) else simplify(automaton)
    if verify_witness(simple, witness):
        print("WITNESS OK")
        return 0
    print("WITNESS INVALID")
    return 1


def cmd_fuzz(args) -> int:
    report = run_fuzz(args.seed, args.cases, args.depth, log=lambda msg: print(msg))
    print(
        f"fuzz: {report.cases - len(report.failures)}/{report.cases} cases agree"
        f" ({report.nonempty} nonempty)"
    )
    if not report.failures:
        return 0
    for index, small, reason in report.failures:
        print(f"-- minimized failing automaton (case {index}: {reason}) --")
        print(export(small, "json"))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countercheck",
        description="expressions with recurring block sizes, their automata, and certified emptiness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def expression_command(name: str, help_text: str, automaton_input: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expression", nargs="?" if automaton_input else None, default=None)
        p.add_argument("--alphabet", help="letters of the alphabet, e.g. 'ab'")
        if automaton_input:
            p.add_argument("--automaton", help="JSON automaton file instead of an expression")
        return p

    expression_command("parse", "parse and reprint an expression").set_defaults(func=cmd_parse)

    p = expression_command("compile", "compile an expression to an automaton")
    p.add_argument("--intermediate", action="store_true", help="dump all intermediate automaton sets")
    p.set_defaults(func=cmd_compile)

    p = expression_command("empty", "decide emptiness, printing a witness when nonempty", True)
    p.set_defaults(func=cmd_empty)

    p = expression_command("dot", "emit the automaton in DOT format", True)
    p.set_defaults(func=cmd_dot)

    p = expression_command("simulate", "search for a run prefix consuming a word", True)
    p.add_argument("--word", required=True)
    p.add_argument("--eps", type=int, default=None, help="silent-step budget between letters")
    p.set_defaults(func=cmd_simulate)

    p = expression_command("formula", "emit the second-order formula for an expression")
    p.add_argument("--expand-macros", action="store_true")
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("classify", help="limit properties of an exponent generator")
    p.add_argument("generator", help="e.g. staircase, const:5, ramp:1:1, interleave(const:1,ramp:2:1)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="re-verify a witness against an automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="randomized pipeline-versus-oracle agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--depth", type=int, default=40)
    p.set_defaults(func=cmd_fuzz)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalCheckError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: expression nests too deeply to process", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
