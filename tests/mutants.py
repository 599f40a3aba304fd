"""A catalogue of deliberate faults, each with the tests that must catch it.

Each entry names a file under ``src/``, an exact snippet of it, the
snippet's replacement, and the pytest node ids that must fail once the
replacement is in place.  Run it as::

    python tests/mutants.py

It copies ``src/`` and ``tests/`` to a temporary directory, checks that the
killers pass there unmutated, then applies one mutant at a time to a fresh
copy and runs that mutant's killers with ``PYTHONPATH`` pointing at the
copy.  It exits 1 when a snippet does not occur exactly once in its file,
when a killer fails on the unmutated copy, or when a mutant survives.  The
checkout itself is never written.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]


CATALOGUE = (
    Mutant(
        "breadth_first_run skips the goal test on the initial state",
        "src/countercheck/nfa.py",
        "goal = initial if is_final(initial) else None",
        "goal = None",
        ("tests/test_cca.py::test_run_prefix_empty_word_is_initial_configuration",),
    ),
    Mutant(
        "breadth_first_run follows successors in reverse order",
        "src/countercheck/nfa.py",
        "for label, target in successors(here):",
        "for label, target in reversed(tuple(successors(here))):",
        ("tests/test_nfa.py::test_breadth_first_run_follows_the_order_of_its_successors",),
    ),
    Mutant(
        "has_run_prefix advances the position on a silent step",
        "src/countercheck/cca.py",
        "yield t, (t.target, pos)\n",
        "yield t, (t.target, pos + 1)\n",
        ("tests/test_cca.py::test_run_prefix_budget_beyond_states_changes_nothing",),
    ),
    Mutant(
        "has_run_prefix lets a letter step read any letter",
        "src/countercheck/cca.py",
        "elif t.label == word[pos]:",
        "else:",
        ("tests/test_cca.py::test_run_prefix_on_compiled_automaton",),
    ),
    Mutant(
        "the printer leaves a concatenation's right operand at level 2 unwrapped",
        "src/countercheck/expr.py",
        'return f"{_wrap(lt, ll, 2)} {_wrap(rt, rl, 3)}", 2',
        'return f"{_wrap(lt, ll, 2)} {_wrap(rt, rl, 2)}", 2',
        ("tests/test_expr.py::test_parse_pretty_round_trip_500",),
    ),
    Mutant(
        "the oracle searches one transition more than its depth",
        "src/countercheck/reference.py",
        "if used >= depth:",
        "if used > depth:",
        ("tests/test_emptiness.py::test_brute_force_depth_bounds_the_transitions",),
    ),
    Mutant(
        "the automaton constructor accepts an unknown operation",
        "src/countercheck/cca.py",
        "if op not in _OPS:",
        "if False:",
        ("tests/test_cca.py::test_constructor_names_the_offending_transition[op]",),
    ),
    Mutant(
        "the automaton constructor accepts a no-op on a counter other than 1",
        "src/countercheck/cca.py",
        "if op == NO_OP and counter != 1:",
        "if False:",
        ("tests/test_cca.py::test_constructor_names_the_offending_transition[no-op-counter]",),
    ),
    Mutant(
        "simplify names carriers without skipping names already taken",
        "src/countercheck/cca.py",
        "while carrier in taken:",
        "while False:",
        ("tests/test_cca.py::test_simplify_names_carriers_around_taken_names",),
    ),
    Mutant(
        "adjacency leaves lists of several transitions unsorted",
        "src/countercheck/cca.py",
        "if len(ts) > 1:",
        "if False:",
        ("tests/test_translate.py::test_compile_exports_and_formulas_are_pinned",),
    ),
    Mutant(
        "the formula printer swaps the existential and universal glyphs",
        "src/countercheck/logic.py",
        'glyph["exists"], glyph["forall"]',
        'glyph["forall"], glyph["exists"]',
        ("tests/test_logic.py::test_printing_of_random_formulas_is_pinned",),
    ),
    Mutant(
        "the formula printer keys its memo by a node's class, not its identity",
        "src/countercheck/logic.py",
        "key = id(g)",
        "key = type(g)",
        (
            "tests/test_logic.py::test_golden_t_condition",
            "tests/test_logic.py::test_printing_of_random_formulas_is_pinned",
        ),
    ),
    Mutant(
        "the shared block formula is drawn under another name than its block set binds",
        "src/countercheck/logic.py",
        "blocks[block_x] = block_formula(e, block_x)",
        'blocks[block_x] = block_formula(e, block_x + "1")',
        (
            "tests/test_logic.py::test_golden_t_condition",
            "tests/test_logic.py::test_t_condition_builds_its_block_formula_once",
        ),
    ),
    Mutant(
        "the shape table files the infinite quantifier as a set binder",
        "src/countercheck/logic.py",
        "ExistsOmega: FO_BINDER",
        "ExistsOmega: SO_BINDER",
        ("tests/test_logic.py::test_t_condition_closed",),
    ),
    Mutant(
        "variable accounting counts an atom's letter as a set name",
        "src/countercheck/logic.py",
        'elif field != "letter":',
        "else:",
        ("tests/test_logic.py::test_match_formula_base_shape",),
    ),
    Mutant(
        "the every-name walk drops a first-order binder's variable",
        "src/countercheck/logic.py",
        "return bf - {f.var}, bs, names | {f.var}",
        "return bf - {f.var}, bs, names",
        ("tests/test_logic.py::test_printing_of_random_formulas_is_pinned",),
    ),
    Mutant(
        "the every-name walk drops a set binder's variable",
        "src/countercheck/logic.py",
        "return bf, bs - {f.var}, names | {f.var}",
        "return bf, bs - {f.var}, names",
        ("tests/test_logic.py::test_printing_of_random_formulas_is_pinned",),
    ),
    Mutant(
        "an in_loop row drops the check-k kill, so a pump loop may pass a check",
        "src/countercheck/reference.py",
        "                for s in checks:\n                    row[s] = ()\n",
        "                pass\n",
        (
            "tests/test_emptiness.py::test_layered_search_matches_product_reference",
            "tests/test_emptiness.py::test_reference_answers_are_pinned",
        ),
    ),
    Mutant(
        "seek_check numbers its next phase with no check-k state",
        "src/countercheck/reference.py",
        "            if movers:\n",
        "            if True:\n",
        (
            "tests/test_emptiness.py::test_structure_nfa_state_count_matches_the_built_nfa",
            "tests/test_emptiness.py::test_the_dead_table_exit_is_exact",
        ),
    ),
    Mutant(
        "_structure_ids returns the ids numbered so far without building their rows",
        "src/countercheck/reference.py",
        "    while i < len(table.phases):\n        table.row(i)\n        i += 1\n",
        "",
        (
            "tests/test_emptiness.py::test_structure_nfa_state_count_matches_the_built_nfa",
            "tests/test_emptiness.py::test_the_structure_count_does_not_depend_on_which_reader_built_rows_first",
        ),
    ),
    Mutant(
        "the references' partition test ignores the check layers, so a table short of a check kind is walked",
        "src/countercheck/reference.py",
        "self._reaches = all(kinds)\n",
        "self._reaches = all(kinds[: 1 + len(part.inc)])\n",
        (
            "tests/test_emptiness.py::test_a_dead_table_builds_nothing",
            "tests/test_emptiness.py::test_a_table_whose_reachable_states_lack_a_kind_builds_nothing",
        ),
    ),
    Mutant(
        "the references' partition test also fails a live table with one lettered state",
        "src/countercheck/reference.py",
        "self._reaches = all(kinds)\n",
        "self._reaches = all(kinds) and len(part.lettered) > 1\n",
        (
            "tests/test_emptiness.py::test_the_reachable_exit_is_exact",
            "tests/test_emptiness.py::test_reference_answers_are_pinned",
        ),
    ),
    Mutant(
        "the references skip the partition test, so a table short of a kind is walked",
        "src/countercheck/reference.py",
        "self._reaches = all(kinds)\n",
        "self._reaches = True\n",
        (
            "tests/test_emptiness.py::test_a_dead_table_builds_nothing",
            "tests/test_emptiness.py::test_a_table_whose_reachable_states_lack_a_kind_builds_nothing",
        ),
    ),
    Mutant(
        "the product reference also answers None on a live table with one lettered state",
        "src/countercheck/reference.py",
        "    if not table.reaches_every_kind():\n        return None\n    simple = table.a\n",
        "    if not table.reaches_every_kind() or len(table.part.lettered) < 2:\n"
        "        return None\n    simple = table.a\n",
        (
            "tests/test_emptiness.py::test_layered_search_matches_product_reference",
            "tests/test_emptiness.py::test_layered_search_matches_product_reference_on_4000_automata",
        ),
    ),
    Mutant(
        "the references' reachable walk stops after one step",
        "src/countercheck/reference.py",
        "                            queue.append(t.target)\n",
        "                            pass\n",
        ("tests/test_emptiness.py::test_the_reachable_exit_is_exact",),
    ),
    Mutant(
        "the references' reachable exit ignores the check kinds",
        "src/countercheck/reference.py",
        "kinds = (part.lettered, *part.inc, *part.check)",
        "kinds = (part.lettered, *part.inc)",
        (
            "tests/test_emptiness.py::test_the_reachable_exit_is_exact",
            "tests/test_emptiness.py::test_a_table_whose_reachable_states_lack_a_kind_builds_nothing",
        ),
    ),
    Mutant(
        "the product search orders a two-way move by phase id instead of repr",
        "src/countercheck/reference.py",
        "afters if repr(phases[j]) < repr(phases[k]) else (k, j)",
        "afters if j < k else (k, j)",
        (
            "tests/test_emptiness.py::test_product_reference_breaks_ties_in_repr_order",
            "tests/test_emptiness.py::test_reference_answers_are_pinned",
        ),
    ),
    Mutant(
        "an oracle phase set keeps the ids it should leave",
        "src/countercheck/reference.py",
        "return phases & ~leave | join",
        "return phases | join",
        (
            "tests/test_emptiness.py::test_reference_answers_are_pinned",
            "tests/test_emptiness.py::test_brute_force_equals_naive_enumeration",
        ),
    ),
    Mutant(
        "the product reference shares one phase table across automata in a module global",
        "src/countercheck/reference.py",
        "    return _product(_Table(simplify(a)))\n",
        """    global _shared
    simple = simplify(a)
    if "_shared" not in globals() or _shared.a.counters != simple.counters:
        _shared = _Table(simple)
    return _product(_shared)
""",
        (
            "tests/test_emptiness.py::test_the_references_keep_no_state_between_calls",
            "tests/test_emptiness.py::test_the_phase_table_serves_only_its_own_automaton",
        ),
    ),
    Mutant(
        "the decision's module imports the phase table from the references",
        "src/countercheck/emptiness.py",
        "def __getattr__(name: str):",
        "from .reference import _Table\n\n\ndef __getattr__(name: str):",
        ("tests/test_package.py::test_importing_emptiness_leaves_the_references_unloaded",),
    ),
    Mutant(
        "the anchor loop stops two short of the best total, not at its (total, anchor)",
        "src/countercheck/emptiness.py",
        "if (bound, t) > best[:2]:",
        "if bound + 2 > best[0]:",
        ("tests/test_relations.py::test_subdividing_every_transition_doubles_a_shortest_witness",),
    ),
    Mutant(
        "a witness pairs the opens of its loops with the closes of other counters",
        "src/countercheck/emptiness.py",
        "pairs = tuple(zip(loops[::2], loops[1::2]))",
        "pairs = tuple(zip(loops[: len(loops) // 2], loops[len(loops) // 2 :]))",
        ("tests/test_emptiness.py::test_a_witness_reads_its_marks_in_witness_order",),
    ),
    Mutant(
        "a certificate's check-free loop ignores avoid",
        "src/countercheck/emptiness.py",
        "yield _walk(succ, here, here, avoid[i])",
        "yield _walk(succ, here, here)",
        (
            "tests/test_emptiness.py::test_pumped_certificates_raise_every_counter_at_its_checks",
            "tests/test_acceptance.py::test_criterion_2_certificate_soundness",
        ),
    ),
    Mutant(
        "the shrinker reads a final state named by the empty string as absent",
        "src/countercheck/harness.py",
        "if a.final is not None:",
        "if a.final:",
        ("tests/test_emptiness.py::test_shrinking_keeps_a_final_state_named_by_the_empty_string",),
    ),
    Mutant(
        "the fuzz oracle searches to the depth alone, not to the witness's length",
        "src/countercheck/harness.py",
        "depth if report.empty else max(depth, len(report.witness.path))",
        "depth",
        ("tests/test_emptiness.py::test_examine_runs_the_oracle_once_past_its_depth_and_verifies_its_hit",),
    ),
    Mutant(
        "the candidate filter drops a component whose check-k states are not lettered",
        "src/countercheck/emptiness.py",
        "if all(row)}",
        "if all(row) and all(any(names[c] in part.lettered for c in layer) for layer in row[n + 1 :])}",
        (
            "tests/test_emptiness.py::test_layered_search_matches_product_reference",
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
            "tests/test_emptiness.py::test_a_component_short_of_an_ingredient_decides_empty_without_a_spread",
        ),
    ),
    Mutant(
        "the decision runs its breadth-first pass on a partition short of a kind",
        "src/countercheck/emptiness.py",
        "    if not all(kinds):\n        return None\n",
        "",
        ("tests/test_emptiness.py::test_a_decision_short_of_a_kind_runs_no_breadth_first_pass",),
    ),
    Mutant(
        "the reachability check counts only lettered states as reached ingredients",
        "src/countercheck/emptiness.py",
        "dist.keys().isdisjoint(states)",
        "dist.keys().isdisjoint(states & part.lettered)",
        (
            "tests/test_emptiness.py::test_layered_search_matches_product_reference",
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
        ),
    ),
    Mutant(
        "forced-chain detection accepts a component with two states in one layer",
        "src/countercheck/emptiness.py",
        "if any(len(layer) > 1 for layer in row[1:]):",
        "if sum(map(len, row[1:])) > 2 * n + 1:",
        (
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
            "tests/test_emptiness.py::test_layered_search_matches_product_reference_on_4000_automata",
        ),
    ),
    Mutant(
        "forced-chain detection never fires",
        "src/countercheck/emptiness.py",
        "if any(len(layer) > 1 for layer in row[1:]):",
        "if any(len(layer) > -1 for layer in row[1:]):",
        ("tests/test_emptiness.py::test_spreads_per_decision",),
    ),
    Mutant(
        "a forced total drops d+(anchor, p1)",
        "src/countercheck/emptiness.py",
        "depth = dist[names[u]] + into[u] + middle",
        "depth = dist[names[u]] + middle",
        (
            "tests/test_emptiness.py::test_ladder_certificates_are_pinned",
            "tests/test_emptiness.py::test_layered_search_matches_product_reference_on_4000_automata",
        ),
    ),
    Mutant(
        "forced middle walks are kept past MAX_WITNESS",
        "src/countercheck/emptiness.py",
        "if middle >= MAX_WITNESS:",
        "if middle < 0:",
        ("tests/test_emptiness.py::test_a_refused_decision_holds_memory_linear_in_the_automaton",),
    ),
    Mutant(
        "the backward sweep still covers forced candidates",
        "src/countercheck/emptiness.py",
        "    if free:\n        joined = [[s for row in free for s in row[i]]",
        "    if candidates:\n        joined = [[s for row in candidates.values() for s in row[i]]",
        ("tests/test_emptiness.py::test_spreads_per_decision",),
    ),
    Mutant(
        "the anchor loop forgets the forced candidates' best",
        "src/countercheck/emptiness.py",
        "    # forward, anchor by anchor, while the bound can still win\n",
        "    # forward, anchor by anchor, while the bound can still win\n"
        "    if bounds:\n"
        "        best = (math.inf, -1, None, None)\n",
        ("tests/test_relations.py::test_a_silent_initial_choice_takes_the_shorter_certificate",),
    ),
    Mutant(
        "a spread stops at the first of its targets, not the last",
        "src/countercheck/emptiness.py",
        "left = len(targets)",
        "left = min(len(targets), 1)",
        (
            "tests/test_emptiness.py::test_ladder_certificates_are_pinned",
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
        ),
    ),
    Mutant(
        "a spread walks its whole component past its last target",
        "src/countercheck/emptiness.py",
        "left = len(targets)",
        "left = -1",
        ("tests/test_emptiness.py::test_states_settled_per_decision_stay_below_twice_the_certificate",),
    ),
    Mutant(
        "a sweep keeps every layer's full table of seeds",
        "src/countercheck/emptiness.py",
        "origins.append({s: origin[s] for _, s in seeds})",
        "origins.append(origin)",
        ("tests/test_emptiness.py::test_a_refused_sweep_holds_memory_linear_in_the_automaton",),
    ),
    Mutant(
        "the witness limit is checked on the least backward bound alone",
        "src/countercheck/emptiness.py",
        "    if total + 1 > MAX_WITNESS:\n",
        "    if False:\n",
        ("tests/test_emptiness.py::test_a_witness_over_the_limit_is_refused_at_its_exact_length",),
    ),
    Mutant(
        "the forward sweep's limit lets a later name win one state longer than the best",
        "src/countercheck/emptiness.py",
        "limit = best[0] - depth - (1 if t > best[1] else 0)",
        "limit = best[0] - depth + (1 if t > best[1] else 0)",
        (
            "tests/test_emptiness.py::test_shortest_witness_lengths_agree",
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
        ),
    ),
    Mutant(
        "the forward sweep's limit lets a later name win at the best's length",
        "src/countercheck/emptiness.py",
        "limit = best[0] - depth - (1 if t > best[1] else 0)",
        "limit = best[0] - depth - (0 if t > best[1] else 0)",
        ("tests/test_relations.py::test_a_silent_initial_choice_takes_the_shorter_certificate",),
    ),
    Mutant(
        "verify_witness admits indexes up to one past the path's end",
        "src/countercheck/emptiness.py",
        "n = len(w.path) - 1",
        "n = len(w.path) + 1",
        (
            "tests/test_emptiness.py::test_witness_rejects_a_mark_outside_its_path",
            "tests/test_cli.py::test_verify_rejects_tampered_witness",
        ),
    ),
    Mutant(
        "adjacency is derived again on every call",
        "src/countercheck/cca.py",
        'kept = self.__dict__.get("_adjacency")',
        "kept = None",
        (
            "tests/test_cca.py::test_an_automaton_derives_its_graph_once",
            "tests/test_emptiness.py::test_examine_derives_one_graph_per_simple_case",
        ),
    ),
    Mutant(
        "is_simple classifies again instead of reading the kept classification",
        "src/countercheck/cca.py",
        "return _classification(a) is not None",
        "return not _classify(a)[3]",
        ("tests/test_cca.py::test_an_automaton_derives_its_graph_once",),
    ),
    Mutant(
        "simplify classifies a fresh automaton that is not simple twice",
        "src/countercheck/cca.py",
        'if a.__dict__.get("_partition"):',
        "if _classification(a):",
        ("tests/test_cca.py::test_an_automaton_derives_its_graph_once",),
    ),
    Mutant(
        "simplify rebuilds a simple automaton instead of returning it",
        "src/countercheck/cca.py",
        "    if not offending:\n        return a\n",
        "",
        (
            "tests/test_cca.py::test_an_automaton_derives_its_graph_once",
            "tests/test_emptiness.py::test_examine_derives_one_graph_per_simple_case",
        ),
    ),
    Mutant(
        "simplify leaves a letter-reading carrier out of the handed lettered set",
        "src/countercheck/cca.py",
        "lettered.add(carrier)",
        "pass",
        ("tests/test_cca.py::test_simplify_hands_over_the_partition_and_adjacency_a_twin_derives",),
    ),
    Mutant(
        "simplify hands a split state's choices over in carrier order, unsorted",
        "src/countercheck/cca.py",
        "        choices.sort()  # s.10 before s.2\n",
        "",
        ("tests/test_cca.py::test_simplify_hands_over_the_partition_and_adjacency_a_twin_derives",),
    ),
    Mutant(
        "verify_witness checks every step against the targets of the first state it gathered",
        "src/countercheck/emptiness.py",
        "reached = targets.get(here)",
        "reached = next(iter(targets.values()), None)",
        (
            "tests/test_emptiness.py::test_hand_built_witness_verifies",
            "tests/test_emptiness.py::test_random_witnesses_are_pinned",
        ),
    ),
    Mutant(
        "verify_witness leaves the refusal of a non-simple automaton to partition",
        "src/countercheck/emptiness.py",
        '    if not is_simple(a):\n        raise CCAError("witness verification requires a simple automaton")\n',
        "",
        ("tests/test_emptiness.py::test_the_graph_memo_never_serves_a_stale_graph",),
    ),
    Mutant(
        "partition classifies again instead of reading the kept classification",
        "src/countercheck/cca.py",
        "part = _classification(a)",
        'part = _classify(a) and a.__dict__["_partition"]',
        ("tests/test_cca.py::test_an_automaton_derives_its_graph_once",),
    ),
    Mutant(
        "classification files a check-k state in counter k-1's slot",
        "src/countercheck/cca.py",
        "check[t.counter].add(s)",
        "check[t.counter - 1].add(s)",
        (
            "tests/test_cca.py::test_classify_check_state",
            "tests/test_emptiness.py::test_partition_matches_the_state_kinds",
        ),
    ),
    Mutant(
        "the DOT export quotes names without escaping them",
        "src/countercheck/cca.py",
        r"""text.replace("\\", "\\\\").replace('"', '\\"')""",
        "text",
        ("tests/test_cca.py::test_export_dot_escapes_names",),
    ),
    Mutant(
        "the JSON writer writes a comma before the first transition",
        "src/countercheck/cca.py",
        'lead = "\\n"  # before each transition',
        'lead = ",\\n"  # before each transition',
        ("tests/test_cca.py::test_json_writer_matches_json_dumps",),
    ),
    Mutant(
        "the DOT writer drops the start edge",
        "src/countercheck/cca.py",
        '    write(f"\\n  {start} -> {names[a.initial]};")\n',
        "",
        (
            "tests/test_cca.py::test_export_atom_a_dot",
            "tests/test_cca.py::test_export_dot_escapes_names",
        ),
    ),
    Mutant(
        "empty writes its certificate without the final line break",
        "src/countercheck/cli.py",
        "json.dump(report.witness.to_json_dict(), sys.stdout, indent=2)\n        print()\n",
        "json.dump(report.witness.to_json_dict(), sys.stdout, indent=2)\n",
        ("tests/test_cli.py::test_empty_certificate_is_its_json_dumps_and_a_line_break",),
    ),
    Mutant(
        "emit_phi builds a condition for every ^T site, not one per body",
        "src/countercheck/logic.py",
        "if shape not in made:",
        "if True:",
        ("tests/test_logic.py::test_emit_builds_one_condition_per_distinct_body",),
    ),
    Mutant(
        "unfold_macros leaves its self-referring closure bound",
        "src/countercheck/logic.py",
        "        del go  # the closure refers to itself",
        "        pass  # the closure refers to itself",
        ("tests/test_translate.py::test_compiling_and_printing_leave_no_cyclic_garbage",),
    ),
    Mutant(
        "the ^T walk records a body after the ^T nodes inside it",
        "src/countercheck/expr.py",
        """        if type(x) is T:
            found.append(x.body)
        for value in x._values(x):
            if type(value) in _RELAX:  # a prefix's regular expression has no ^T
                walk(value)
""",
        """        for value in x._values(x):
            if type(value) in _RELAX:  # a prefix's regular expression has no ^T
                walk(value)
        if type(x) is T:
            found.append(x.body)
""",
        ("tests/test_expr.py::test_t_subexpressions_document_order",),
    ),
    Mutant(
        "the block layer refuses a nested ^w with the prefix layer's message",
        "src/countercheck/expr.py",
        """_BLOCK_REFUSALS = {"omega": "'^w' cannot be nested"}""",
        "_BLOCK_REFUSALS = _REGEX_REFUSALS",
        ("tests/test_expr.py::test_stratifier_refusals_are_pinned[nested-omega]",),
    ),
    Mutant(
        "the ^T relaxation keeps ^T",
        "src/countercheck/expr.py",
        "| {T: Star}",
        "| {T: T}",
        ("tests/test_expr.py::test_substitute_t_with_star_paper_case",),
    ),
    Mutant(
        "the random generators draw the right operand first",
        "src/countercheck/harness.py",
        """    left = _random_tree(rng, depth - 1, alphabet, allow_empty, layer)
    if kind in ("star", "t"):
        return layer[kind](left)
    return layer[kind](left, _random_tree(rng, depth - 1, alphabet, allow_empty, layer))
""",
        """    if kind in ("star", "t"):
        return layer[kind](_random_tree(rng, depth - 1, alphabet, allow_empty, layer))
    right = _random_tree(rng, depth - 1, alphabet, allow_empty, layer)
    return layer[kind](_random_tree(rng, depth - 1, alphabet, allow_empty, layer), right)
""",
        ("tests/test_cca.py::test_run_prefixes_and_printing_are_pinned",),
    ),
    Mutant(
        "merge pads a narrower member on its initial state, not its loop-back target",
        "src/countercheck/translate.py",
        "rows += _loops(m.entry, m.counters + 1, top)",
        "rows += _loops(m.initial, m.counters + 1, top)",
        (
            "tests/test_translate.py::test_merge_pads_a_prefixed_member_on_its_cycle",
            "tests/test_translate.py::test_compiled_verdicts_match_the_expressions_1000_random",
        ),
    ),
    Mutant(
        "merge of an automaton set pads each member on its initial state",
        "src/countercheck/translate.py",
        "_Member(list(a.states), a.initial, _entry(a), a.final, a.counters, list(a.transitions))",
        "_Member(list(a.states), a.initial, a.initial, a.final, a.counters, list(a.transitions))",
        ("tests/test_translate.py::test_merge_pads_a_prefixed_member_on_its_cycle",),
    ),
    Mutant(
        "renaming apart draws fresh names in id order, not name order",
        "src/countercheck/translate.py",
        "fresh = dict(zip(sorted(p.names), names.take(len(p.names))))",
        "fresh = dict(zip(p.names, names.take(len(p.names))))",
        ("tests/test_translate.py::test_rename_apart_lifts_counters_as_shift_does",),
    ),
    Mutant(
        "the row walk does not accumulate a piece's counter offset",
        "src/countercheck/translate.py",
        "stack.append((sub, shift + sub_shift, offset + sub_offset))",
        "stack.append((sub, shift + sub_shift, sub_offset))",
        ("tests/test_translate.py::test_rename_apart_lifts_counters_as_shift_does",),
    ),
    Mutant(
        "the third mix variant drops the loops on the right operand's final state",
        "src/countercheck/translate.py",
        "_loops(fa, 2, n + 1) + _loops(fb, n + 2, total),",
        "_loops(fa, 2, n + 1),",
        ("tests/test_translate.py::test_compile_mix_shapes",),
    ),
    Mutant(
        "node equality ignores the class",
        "src/countercheck/expr.py",
        "if other.__class__ is self.__class__:",
        "if isinstance(other, Node):",
        ("tests/test_nodes.py::test_nodes_of_different_classes_with_equal_fields_differ",),
    ),
    Mutant(
        "the compiled __init__ sets each field from the parameter of its mirror image",
        "src/countercheck/expr.py",
        '_set(self, {name!r}, {name})" for name in cls._fields)',
        '_set(self, {name!r}, {value})" for name, value in zip(cls._fields, reversed(cls._fields)))',
        ("tests/test_logic.py::test_printing_of_random_formulas_is_pinned",),
    ),
    Mutant(
        "a record's compiled __init__ skips its class's __post_init__",
        "src/countercheck/expr.py",
        'if hasattr(cls, "__post_init__") else ""',
        'if False else ""',
        ("tests/test_cca.py::test_constructor_names_the_offending_transition",),
    ),
    Mutant(
        "cli imports harness when it is imported, not when fuzz runs",
        "src/countercheck/cli.py",
        "from .translate import Trace, compile_expression\n",
        "from .harness import run_fuzz\nfrom .translate import Trace, compile_expression\n",
        ("tests/test_package.py::test_an_emptiness_command_loads_only_what_it_runs",),
    ),
    Mutant(
        "main turns a reader that leaves early into a usage error",
        "src/countercheck/cli.py",
        "return 141",
        "return 2",
        (
            "tests/test_cli.py::test_a_reader_that_leaves_early_ends_the_command_quietly",
            "tests/test_cli.py::test_a_reader_that_leaves_during_an_export_ends_the_command_quietly",
        ),
    ),
    Mutant(
        "cli imports emptiness when it is imported, not when empty or verify runs",
        "src/countercheck/cli.py",
        "from .expr import OmegaTExpr",
        "from .emptiness import decide\nfrom .expr import OmegaTExpr",
        ("tests/test_package.py::test_commands_without_a_decision_leave_emptiness_unloaded",),
    ),
    Mutant(
        "the leaf walk drops an interleave's second operand",
        "src/countercheck/exponents.py",
        "todo += (g.second, g.first)",
        "todo += (g.first,)",
        ("tests/test_exponents.py::test_classify_interleaved_single_recurring_size",),
    ),
    Mutant(
        "an interleave's operands split at its first top-level comma",
        "src/countercheck/exponents.py",
        "refusal = err\n                    continue\n",
        "raise\n",
        ("tests/test_acceptance.py::test_generator_specs_parse_back",),
    ),
    Mutant(
        "is_bounded ignores a staircase leaf",
        "src/countercheck/exponents.py",
        "isinstance(leaf, (Ramp, Staircase))",
        "isinstance(leaf, Ramp)",
        ("tests/test_exponents.py::test_classify_staircase",),
    ),
)


def _copy(into: Path) -> Path:
    """A copy of the sources and tests under ``into``; returns its root."""
    root = into / "tree"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, root / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
    return root


def _run(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True
    )


def _pytest(root: Path, killers: tuple[str, ...]) -> subprocess.CompletedProcess:
    return _run(root, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers])


def check_snippets() -> list[str]:
    """One line per catalogue entry whose snippet does not occur exactly once."""
    problems = []
    for m in CATALOGUE:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            problems.append(f"{m.name}: snippet occurs {found} times in {m.path}")
    return problems


def main() -> int:
    problems = check_snippets()
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="countercheck-mutants-") as scratch:
        base = _copy(Path(scratch) / "base")
        where = _run(base, ["-c", "import countercheck; print(countercheck.__file__)"])
        if not where.stdout.startswith(str(base)):
            print(f"the copy does not import its own sources: {where.stdout}{where.stderr}")
            return 1
        killers = tuple(sorted({k for m in CATALOGUE for k in m.killers}))
        clean = _pytest(base, killers)
        if clean.returncode != 0:
            print(f"the killers fail without a mutant:\n{clean.stdout}{clean.stderr}")
            return 1
        survivors = 0
        for index, m in enumerate(CATALOGUE):
            root = _copy(Path(scratch) / str(index))
            target = root / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
            done = _pytest(root, m.killers)
            # pytest exits 1 when tests fail; other codes mean it could not run them
            if done.returncode == 1:
                print(f"killed    {m.name}")
                continue
            survivors += 1
            verdict = "SURVIVED" if done.returncode == 0 else f"ERROR {done.returncode}"
            print(f"{verdict:9} {m.name}\n{done.stdout}{done.stderr}")
    print(f"{len(CATALOGUE) - survivors}/{len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
