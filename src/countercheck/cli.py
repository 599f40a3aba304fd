"""Command-line frontend.

Subcommands: parse, compile, empty, dot, simulate, formula, classify,
verify, fuzz.  Wherever an expression is accepted, ``--automaton FILE``
substitutes a JSON automaton instead.  Exit codes: 0 success, 1 failed
check (fuzz disagreement, invalid witness), 2 usage or parse errors,
3 internal invariant violation, 141 when the reader of stdout closes it
early.

A subcommand imports the modules only it needs (``emptiness``, ``logic``,
``exponents``, ``harness``) when it runs, so the other commands never load
them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .cca import CCA, InternalCheckError, has_run_prefix, import_json, simplify, write_export
from .expr import OmegaTExpr, ParseError, parse_omega_t, pretty, refused_letter
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


def _parse(args) -> tuple[OmegaTExpr, str]:
    """(tree, alphabet) of the expression argument; the alphabet is the
    one given, every character of it a lowercase letter, or else the
    expression's own letters."""
    bad = refused_letter(args.alphabet or "")
    if bad is not None:
        raise ValueError(f"--alphabet: {bad!r} is not a lowercase letter")
    alphabet = args.alphabet or _infer_alphabet(args.expression)
    return parse_omega_t(args.expression, alphabet), alphabet


def _automaton_for(args) -> CCA:
    if args.automaton:
        with open(args.automaton, "r", encoding="utf-8") as handle:
            return import_json(handle.read())
    if not args.expression:
        raise ParseError("an expression or --automaton FILE is required", 0)
    return compile_expression(*_parse(args))


def _print_export(a: CCA, format: str) -> None:
    """``print(export(a, format))``, written to stdout piece by piece."""
    write_export(a, format, sys.stdout)
    sys.stdout.write("\n")


def cmd_parse(args) -> int:
    print(pretty(_parse(args)[0]))
    return 0


def cmd_compile(args) -> int:
    tree, alphabet = _parse(args)
    trace: Optional[Trace] = [] if args.intermediate else None
    automaton = compile_expression(tree, alphabet, trace)
    if trace is not None:
        for label, auto_set in trace:
            print(f"== {label} ({len(auto_set.automata)} automata) ==")
            for member in auto_set.automata:
                _print_export(member, "json")
    _print_export(automaton, "json")
    return 0


def cmd_empty(args) -> int:
    from .emptiness import decide

    automaton = _automaton_for(args)
    report = decide(automaton)
    if report.empty:
        print("EMPTY")
    else:
        print("NONEMPTY")
        json.dump(report.witness.to_json_dict(), sys.stdout, indent=2)
        print()
    return 0


def cmd_dot(args) -> int:
    _print_export(_automaton_for(args), "dot")
    return 0


def cmd_simulate(args) -> int:
    automaton = _automaton_for(args)
    run = has_run_prefix(automaton, args.word)
    if run is None:
        print("ABSENT")
    else:
        print("PRESENT")
        for config in run.configurations:
            print(f"  {config.state} {list(config.counters)}")
    return 0


def cmd_formula(args) -> int:
    from .logic import emit_phi, pretty_formula

    formula = emit_phi(_parse(args)[0])
    style = "ascii" if args.ascii else "unicode"
    text = pretty_formula(formula, style=style, expand_macros=args.expand_macros)
    print(SCHEMA_HEADER)
    print(text)
    return 0


def cmd_classify(args) -> int:
    from .exponents import classify, parse_generator

    flags = classify(parse_generator(args.generator))
    print(
        f"bounded={str(flags.bounded).lower()}"
        f" strictly_unbounded={str(flags.strictly_unbounded).lower()}"
        f" T={str(flags.t_holds).lower()}"
    )
    return 0


def cmd_verify(args) -> int:
    from .emptiness import verify_witness, witness_from_json

    with open(args.automaton, "r", encoding="utf-8") as handle:
        automaton = import_json(handle.read())
    with open(args.witness, "r", encoding="utf-8") as handle:
        witness = witness_from_json(handle.read())
    if verify_witness(simplify(automaton), witness):
        print("WITNESS OK")
        return 0
    print("WITNESS INVALID")
    return 1


def cmd_fuzz(args) -> int:
    from .harness import run_fuzz

    report = run_fuzz(args.seed, args.cases, args.depth, log=lambda msg: print(msg))
    print(
        f"fuzz: {report.cases - len(report.failures)}/{report.cases} cases agree"
        f" ({report.nonempty} nonempty)"
    )
    if not report.failures:
        return 0
    for index, small, reason in report.failures:
        print(f"-- minimized failing automaton (case {index}: {reason}) --")
        _print_export(small, "json")
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
        status = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone, as `| head` does: end quietly with
        # the status a filter killed by SIGPIPE gets, and point stdout at
        # the null device so that the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as err:  # ParseError and CCAError among them
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalCheckError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input too deep to process: a long operator chain or deep nesting", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large to process", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
