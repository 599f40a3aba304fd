"""Acceptance checks: one test per assurance the artifact ships with.

Every test prints a single summary line (visible under ``pytest -s`` or
``-rA``); a failed assertion is the fail signal.
"""
import hashlib
import random
import time
from pathlib import Path

import pytest

from countercheck import exponents as xp
from countercheck import expr as ex
from countercheck.cca import has_run_prefix
from countercheck.emptiness import verify_witness
from countercheck.harness import examine, random_formula, random_simple_cca, random_texpr
from countercheck.logic import (
    Bounding,
    Not,
    Unbounding,
    block_formula,
    blockset_formula,
    emit_phi,
    pretty_formula,
    t_condition,
)
from countercheck.nfa import accepts
from countercheck.reference import build_prefix_nfa
from countercheck.translate import compile_expression, compile_t, member_count
from countercheck.emptiness import decide

from conftest import expected_counters, is_closed

GOLDEN = Path(__file__).parent / "golden"
AGREEMENT_SEED = 7
AGREEMENT_CASES = 200
AGREEMENT_DEPTH = 40

REFERENCE_TABLE = [
    ("(a^T b)^w", False),
    ("((a*b)* a^T b)^w", False),
    ("(a* b)^w", False),
    ("((a+b)^T b)^w", False),
    ("0^w", True),
    ("(0 a)^w", True),
]


@pytest.fixture(scope="module")
def agreement_outcomes():
    start = time.monotonic()
    outcomes = []
    for index in range(AGREEMENT_CASES):
        rng = random.Random(AGREEMENT_SEED * 1_000_003 + index)
        automaton = random_simple_cca(rng)
        assert len(automaton.states) <= 8
        assert automaton.counters <= 2
        assert len(automaton.transitions) <= 14
        outcomes.append(examine(automaton, AGREEMENT_DEPTH))
    return outcomes, time.monotonic() - start


def test_criterion_1_oracle_agreement(agreement_outcomes):
    outcomes, elapsed = agreement_outcomes
    disagreements = [o.failure for o in outcomes if o.failure]
    assert disagreements == []
    assert elapsed < 60.0
    nonempty = sum(1 for o in outcomes if not o.empty)
    assert 0 < nonempty < AGREEMENT_CASES
    print(
        f"criterion 1 (oracle agreement): PASS — {AGREEMENT_CASES} cases, "
        f"0 disagreements, {nonempty} nonempty, {elapsed:.1f}s"
    )


def test_criterion_2_certificate_soundness(agreement_outcomes):
    outcomes, _ = agreement_outcomes
    nonempty = [o for o in outcomes if not o.empty]
    assert nonempty, "the sample must exercise nonempty languages"
    for o in nonempty:
        assert o.witness is not None
        assert verify_witness(o.simple, o.witness)
        assert accepts(build_prefix_nfa(o.simple), o.witness.path)
    print(
        f"criterion 2 (certificate soundness): PASS — {len(nonempty)}/{len(nonempty)}"
        " nonempty decisions re-verified"
    )


def test_criterion_3_structure_nfa_size_bound(agreement_outcomes):
    outcomes, _ = agreement_outcomes
    assert all(o.bound_ok for o in outcomes)
    print(
        f"criterion 3 (witness-structure NFA size bound): PASS — "
        f"{len(outcomes)}/{len(outcomes)} instances within bound"
    )


def test_criterion_4_reference_decision_table():
    timings = []
    for text, should_be_empty in REFERENCE_TABLE:
        tree = ex.parse_omega_t(text, "ab")
        start = time.monotonic()
        automaton = compile_expression(tree, "ab")
        report = decide(automaton)
        elapsed = time.monotonic() - start
        assert report.empty == should_be_empty, text
        assert elapsed < 5.0, (text, elapsed)
        timings.append(elapsed)
    print(
        f"criterion 4 (reference decision table): PASS — {len(REFERENCE_TABLE)} decisions,"
        f" slowest {max(timings):.2f}s"
    )


def test_criterion_5_counter_arithmetic():
    rng = random.Random(31)
    checked = 0
    attempts = 0
    while checked < 300:
        attempts += 1
        assert attempts < 5000
        tree = random_texpr(rng, depth=5)
        if member_count(tree) > 30:
            continue
        expected = expected_counters(tree)
        result = compile_t(tree, frozenset("ab"))
        assert all(m.counters == expected for m in result.automata), ex.pretty(tree)
        checked += 1
    print(f"criterion 5 (counter arithmetic): PASS — {checked}/{checked} expressions match")


def test_criterion_6_exponent_classifier():
    table = [
        (xp.Staircase(), xp.ClassFlags(False, False, True)),
        (xp.Interleave(xp.Constant(1), xp.Ramp(2, 1)), xp.ClassFlags(False, False, False)),
        (xp.Constant(5), xp.ClassFlags(True, False, False)),
        (xp.Ramp(1, 1), xp.ClassFlags(False, True, False)),
    ]
    for generator, expected in table:
        assert xp.classify(generator) == expected, generator
    print("criterion 6 (exponent classifier): PASS — 4/4 flag triples exact")


def _generators_to_depth_3():
    leaves = [
        xp.Constant(1),
        xp.Constant(3),
        xp.Ramp(1, 1),
        xp.Ramp(2, 2),
        xp.Staircase(),
        xp.PeriodicList((1, 2)),
    ]
    depth2 = leaves + [xp.Interleave(a, b) for a in leaves for b in leaves]
    return depth2 + [xp.Interleave(a, b) for a in depth2 for b in depth2]


def test_criterion_7_prefix_decomposition():
    generators = _generators_to_depth_3()
    prefix_len = 200
    for gen in generators:
        d = xp.decompose_prefix(gen, prefix_len)
        assert sorted(d.stream("BT") + d.stream("S")) == list(range(1, prefix_len + 1))
        vanishing = xp.vanishing_values(gen)
        recurring = xp.recurring_values(gen)
        for j in d.stream("S"):
            assert xp.sample(gen, j) in vanishing
        for j in d.stream("BT"):
            assert xp.sample(gen, j) in recurring
    print(
        f"criterion 7 (prefix decomposition): PASS — {len(generators)} generators"
         f" at prefix length {prefix_len}"
    )


def _spec(gen) -> str:
    """The spec ``parse_generator`` reads back as ``gen``."""
    if isinstance(gen, xp.Interleave):
        return f"interleave({_spec(gen.first)},{_spec(gen.second)})"
    if isinstance(gen, xp.Constant):
        return f"const:{gen.value}"
    if isinstance(gen, xp.Ramp):
        return f"ramp:{gen.start}:{gen.step}"
    if isinstance(gen, xp.PeriodicList):
        return "periodic:" + ",".join(map(str, gen.values))
    assert isinstance(gen, xp.Staircase)
    return "staircase"


def test_generator_specs_parse_back():
    # a periodic list of two sizes holds a top-level comma wherever it
    # stands in an interleave
    generators = _generators_to_depth_3()
    for gen in generators:
        assert xp.parse_generator(_spec(gen)) == gen, _spec(gen)
    print(f"generator specs: PASS — {len(generators)} specs parse back")


def test_exponent_classes_are_pinned():
    # the flags, which of the sizes 1-40 recur or vanish, and the labels of
    # a 60-index prefix, for every generator of depth at most 3
    digest = hashlib.sha256()
    generators = _generators_to_depth_3()
    for gen in generators:
        flags = xp.classify(gen)
        recurring = xp.recurring_values(gen)
        vanishing = xp.vanishing_values(gen)
        digest.update(repr((flags.bounded, flags.strictly_unbounded, flags.t_holds)).encode())
        digest.update(bytes(v in recurring for v in range(1, 41)))
        digest.update(bytes(v in vanishing for v in range(1, 41)))
        digest.update(" ".join(xp.decompose_prefix(gen, 60).labels).encode() + b"\n")
    assert len(generators) == 1806
    assert digest.hexdigest() == "c7f2744cd6ede5f8fb92199fd9c98a32ef9bbb1a29f1f1f29cfe377ef6e7ed2f"
    print(f"exponent classes: PASS — {len(generators)} generators match the pin")


def test_criterion_8_simulation_probes():
    automaton = compile_expression(ex.parse_omega_t("(a^T b)^w", "ab"), "ab")
    for word in ("ab", "aab", "abab", "aabab"):
        assert has_run_prefix(automaton, word) is not None, word
    assert has_run_prefix(automaton, "ba") is None
    print("criterion 8 (simulation probes): PASS — 4 accepted prefixes, 1 rejected")


def test_criterion_9_formula_emission():
    goldens = [
        (t_condition(ex.RSym("a")), "t_condition_a.txt"),
        (block_formula(ex.RSym("a"), "X"), "block_a_X.txt"),
        (blockset_formula(ex.RSym("a"), "Y"), "blockset_a_Y.txt"),
    ]
    for formula, name in goldens:
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert pretty_formula(formula) + "\n" == expected, name

    for text, _ in REFERENCE_TABLE:
        assert is_closed(emit_phi(ex.parse_omega_t(text, "ab"))), text

    rng = random.Random(99)
    for _ in range(50):
        body = random_formula(rng, depth=3)
        assert pretty_formula(Not(Unbounding("X", body)), expand_macros=True) == pretty_formula(
            Bounding("X", body), expand_macros=True
        )
    print(
        "criterion 9 (formula emission): PASS — 3 goldens byte-identical,"
        f" {len(REFERENCE_TABLE)} emissions closed, 50 duality checks"
    )
