import hashlib
import random
import time
from pathlib import Path

import pytest

from countercheck import emptiness
from countercheck.cca import CCA, CCAError, CHECK, INC, NO_OP, Transition, hat, is_simple, simplify, state_kinds
from countercheck.cli import main
from countercheck.emptiness import (
    AcceptingWitness,
    brute_force_witness,
    build_potential_witness_nfa,
    build_prefix_nfa,
    decide,
    decide_by_product,
    is_empty,
    scan_path,
    verify_witness,
    witness_from_json,
    witness_nfa_state_bound,
)
from countercheck.expr import parse_omega_t
from countercheck.harness import random_simple_cca, run_fuzz
from countercheck.nfa import accepts, nonempty_witness
from countercheck.translate import compile_expression

from conftest import atom_a, atom_empty, flat_word


def closed_atom() -> CCA:
    """Simplified loop-back closure of the one-letter atom."""
    return simplify(hat(atom_a()))


def kind_state(a: CCA, kind: str, counter=None) -> str:
    kinds = state_kinds(a)
    for s in sorted(a.states):
        k = kinds[s]
        if k.kind == kind and (counter is None or k.counter == counter):
            return s
    raise AssertionError(f"no {kind} state")


# --------------------------------------------------------------------------
# witness verification

def hand_witness() -> tuple[CCA, AcceptingWitness]:
    a = closed_atom()
    pump = kind_state(a, "inc", 1)
    reset = kind_state(a, "check", 1)
    path = ("s0", "s1", pump, "s1", pump, "s1", reset, "s0")
    return a, AcceptingWitness(path, begin=0, pairs=((2, 4),), checks=(6,), end=7)


def test_hand_built_witness_verifies():
    a, w = hand_witness()
    assert verify_witness(a, w)


def test_witness_rejects_equal_loop_endpoints():
    a, w = hand_witness()
    bad = AcceptingWitness(w.path, w.begin, ((2, 2),), w.checks, w.end)
    assert not verify_witness(a, bad)


def test_witness_rejects_check_inside_loop():
    a = closed_atom()
    pump = kind_state(a, "inc", 1)
    reset = kind_state(a, "check", 1)
    path = ("s0", "s1", pump, "s1", reset, "s0", "s1", pump, "s1", reset, "s0")
    # the pump pair spans a counter-1 reset at position 4
    bad = AcceptingWitness(path, begin=0, pairs=((2, 7),), checks=(9,), end=10)
    assert not verify_witness(a, bad)


def test_witness_rejects_nonwalk_path():
    a, w = hand_witness()
    broken = ("s0", "s0") + w.path[2:]
    assert not verify_witness(a, AcceptingWitness(broken, w.begin, w.pairs, w.checks, w.end))


def test_witness_rejects_silent_anchor():
    a, w = hand_witness()
    # position 1 is the silent choice state, so no letter can fire there
    shifted = AcceptingWitness(w.path[:7] + ("s1",), 1, w.pairs, w.checks, 7)
    assert not verify_witness(a, shifted)


def test_witness_rejects_wrong_arity():
    a, w = hand_witness()
    assert not verify_witness(a, AcceptingWitness(w.path, w.begin, (), w.checks, w.end))


def test_witness_requires_simple_automaton():
    with pytest.raises(Exception):
        verify_witness(hat(atom_a()), hand_witness()[1])


def test_witness_json_round_trip():
    _, w = hand_witness()
    import json

    assert witness_from_json(json.dumps(w.to_json_dict())) == w


# --------------------------------------------------------------------------
# brute-force search

def test_brute_force_finds_atom_witness():
    a = closed_atom()
    w = brute_force_witness(a, 10)
    assert w is not None
    assert verify_witness(a, w)


def test_brute_force_empty_atom():
    assert brute_force_witness(simplify(hat(atom_empty())), 40) is None


def test_brute_force_missing_check_counter():
    # two counters but only counter 1 is ever checked
    a = CCA(
        states=frozenset({"p", "q", "r"}),
        alphabet=frozenset("a"),
        initial="p",
        counters=2,
        transitions=frozenset(
            {
                Transition("p", "a", "q", 1, INC),
                Transition("q", None, "r", 2, INC),
                Transition("r", None, "p", 1, CHECK),
            }
        ),
    )
    assert is_simple(a)
    for depth in (10, 40, 80):
        assert brute_force_witness(a, depth) is None
    assert is_empty(a)


def test_scan_path_matches_hand_witness():
    a, w = hand_witness()
    recovered = scan_path(a, list(w.path))
    assert recovered is not None
    assert verify_witness(a, recovered)
    assert recovered == w
    # the phases move on before they stay, so on the walk taken twice the
    # earliest marks win
    twice = w.path + w.path[1:]
    assert scan_path(a, twice) == AcceptingWitness(twice, w.begin, w.pairs, w.checks, w.end)


def test_brute_force_depth_zero():
    assert brute_force_witness(closed_atom(), 0) is None


# --------------------------------------------------------------------------
# the witness-structure NFA

def test_structure_nfa_size_bound(rng):
    for _ in range(40):
        a = random_simple_cca(rng)
        n1 = build_potential_witness_nfa(a)
        assert len(n1.states) <= witness_nfa_state_bound(a)
        # only phases the scan reaches are built; accept is always kept
        reached, todo = {n1.initial}, [n1.initial]
        while todo:
            here = todo.pop()
            for source, _, target in n1.transitions:
                if source == here and target not in reached:
                    reached.add(target)
                    todo.append(target)
        assert n1.states - {("accept",)} <= reached


def test_structure_nfa_trivial_when_no_lettered_states():
    a = simplify(hat(atom_empty()))
    n1 = build_potential_witness_nfa(a)
    assert len(n1.states) == 2
    assert nonempty_witness(n1) is None


def test_structure_nfa_nonempty_for_closed_atom():
    n1 = build_potential_witness_nfa(closed_atom())
    assert nonempty_witness(n1) is not None


def test_prefix_nfa_accepts_walks():
    a = closed_atom()
    pre = build_prefix_nfa(a)
    pump = kind_state(a, "inc", 1)
    reset = kind_state(a, "check", 1)
    assert accepts(pre, ("s0",))
    assert accepts(pre, ("s0", "s1", pump, "s1", reset, "s0"))
    assert not accepts(pre, ("s0", "s0"))
    assert not accepts(pre, ("s1",))
    assert not accepts(pre, ())


# --------------------------------------------------------------------------
# the decision procedure

def test_is_empty_of_closed_empty_atom():
    assert is_empty(hat(atom_empty()))


def test_compiled_recurring_block_language_nonempty():
    auto = compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")
    report = decide(auto)
    assert not report.empty
    assert verify_witness(report.simple, report.witness)
    assert accepts(build_prefix_nfa(report.simple), report.witness.path)


def test_compiled_figure_language_nonempty():
    auto = compile_expression(parse_omega_t("((a*b)* a^T b)^w", "ab"), "ab")
    assert not is_empty(auto)


def test_decide_simplifies_internally():
    auto = hat(atom_a())
    assert not is_simple(auto)
    report = decide(auto)
    assert not report.empty
    assert is_simple(report.simple)


def test_pipeline_witness_matches_brute_force_shortest():
    a = closed_atom()
    report = decide(a)
    direct = brute_force_witness(a, len(report.witness.path))
    assert direct is not None
    assert len(direct.path) == len(report.witness.path)


def test_brute_force_confirms_compiled_example():
    # the shortest witness here takes 85 transitions (both searches agree),
    # so depth 90 suffices while 40 is genuinely too shallow
    auto = simplify(compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab"))
    assert brute_force_witness(auto, 40) is None
    w = brute_force_witness(auto, 90)
    assert w is not None
    assert verify_witness(auto, w)
    assert len(w.path) == len(decide(auto).witness.path) == 86


# --------------------------------------------------------------------------
# the agreement property (the full 200-case run lives in the acceptance suite)

def test_oracle_agreement_sample():
    report = run_fuzz(seed=20240817, cases=80, depth=40)
    assert not report.failures
    assert 0 < report.nonempty < 80


def naive_witness_exists(a: CCA, depth: int) -> bool:
    """Enumerate every state path with at most ``depth`` transitions."""
    adjacency = a.adjacency()

    def walk(path: list) -> bool:
        if scan_path(a, path) is not None:
            return True
        if len(path) - 1 >= depth:
            return False
        return any(walk(path + [t.target]) for t in adjacency[path[-1]])

    return walk([a.initial])


def test_brute_force_equals_naive_enumeration(rng):
    for _ in range(120):
        a = random_simple_cca(rng, max_states=5, max_transitions=9)
        expected = naive_witness_exists(a, 11)
        assert (brute_force_witness(a, 11) is not None) == expected
        if expected:
            assert not is_empty(a)


def test_shortest_witness_lengths_agree(rng):
    # both searches are breadth-first, so on a nonempty automaton they find
    # certificates of the same minimal length
    seen_nonempty = 0
    for _ in range(150):
        a = random_simple_cca(rng)
        report = decide(a)
        if report.empty:
            continue
        seen_nonempty += 1
        direct = brute_force_witness(a, len(report.witness.path))
        assert direct is not None
        assert len(direct.path) == len(report.witness.path)
    assert seen_nonempty > 0


def test_monotone_under_added_transitions(rng):
    for _ in range(60):
        a = random_simple_cca(rng)
        before = is_empty(a)
        extra = set()
        names = sorted(a.states)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice((NO_OP, INC, CHECK))
            extra.add(
                Transition(
                    rng.choice(names),
                    rng.choice((None, "a", "b")),
                    rng.choice(names),
                    1 if op == NO_OP else rng.randint(1, a.counters),
                    op,
                )
            )
        bigger = CCA(
            a.states, a.alphabet, a.initial, a.counters, a.transitions | extra, a.final
        )
        after = is_empty(bigger)
        if not before:
            assert not after


# --------------------------------------------------------------------------
# ordered versus unordered check positions

def _unordered_witness_exists(a: CCA, depth: int) -> bool:
    """Witness search where the per-counter check positions after the last
    loop may appear in any order (one position per counter, all strictly
    between the last loop exit and the anchor's return)."""
    from countercheck.emptiness import _partition  # test-only access

    part = _partition(a)
    n = a.counters
    everything = frozenset(range(1, n + 1))

    def advance(tokens, letter):
        out = set()
        for token in tokens:
            role = token[0]
            if role == "pre":
                out.add(token)
                if letter in part.lettered:
                    out.add(("begun", letter, 1))
            elif role == "begun":
                _, anchor, k = token
                out.add(token)
                if letter in part.inc[k - 1]:
                    out.add(("looping", anchor, k, letter))
            elif role == "looping":
                _, anchor, k, pump = token
                if letter not in part.check[k - 1]:
                    out.add(token)
                if letter == pump:
                    out.add(("begun", anchor, k + 1) if k < n else ("collect", anchor, everything))
            elif role == "collect":
                _, anchor, missing = token
                out.add(token)
                hit = frozenset(k for k in missing if letter in part.check[k - 1])
                if hit:
                    rest = missing - hit
                    out.add(("anchor", anchor) if not rest else ("collect", anchor, rest))
            elif role == "anchor":
                out.add(token)
                if letter == token[1]:
                    out.add(("done",))
            else:
                out.add(token)
        return frozenset(out)

    frontier = advance(frozenset({("pre",)}), a.initial)
    seen = {(a.initial, frontier)}
    queue = [((a.initial, frontier), 0)]
    adjacency = a.adjacency()
    while queue:
        (state, tokens), used = queue.pop(0)
        if ("done",) in tokens:
            return True
        if used >= depth:
            continue
        for t in adjacency[state]:
            nxt = advance(tokens, t.target)
            node = (t.target, nxt)
            if node not in seen:
                seen.add(node)
                queue.append((node, used + 1))
    return False


def test_unordered_checks_do_not_change_emptiness(rng):
    agree = disagree_needing_extension = 0
    for _ in range(80):
        a = random_simple_cca(rng)
        if _unordered_witness_exists(a, 40):
            assert not is_empty(a)
            if brute_force_witness(a, 40) is None:
                disagree_needing_extension += 1
            else:
                agree += 1
    assert agree > 0


# --------------------------------------------------------------------------
# the layered search against the product reference

def test_layered_search_matches_product_reference():
    rng = random.Random(20261018)
    nonempty = 0
    for _ in range(400):
        a = random_simple_cca(
            rng, max_states=rng.randint(5, 12), max_counters=3, max_transitions=rng.randint(8, 20)
        )
        report = decide(a)
        reference, structure = decide_by_product(a)
        assert report.empty == (reference is None)
        assert len(structure.states) <= witness_nfa_state_bound(report.simple)
        if reference is not None:
            nonempty += 1
            assert len(report.witness.path) == len(reference.path)
            assert verify_witness(report.simple, report.witness)
            assert verify_witness(report.simple, scan_path(report.simple, report.witness.path))
    assert nonempty >= 30


def test_product_reference_decides_non_simple_input():
    witness, _ = decide_by_product(hat(atom_a()))
    report = decide(hat(atom_a()))
    assert witness is not None and len(witness.path) == len(report.witness.path)
    assert decide_by_product(hat(atom_empty()))[0] is None


def refuse_the_product(monkeypatch, *names):
    """Make ``intersect``, wherever it is looked up, and the named
    ``emptiness`` functions fail when called."""
    import countercheck.emptiness as emptiness
    import countercheck.nfa as nfa

    def refuse(*_):
        raise AssertionError("the product was built")

    monkeypatch.setattr(nfa, "intersect", refuse)
    monkeypatch.setattr(emptiness, "intersect", refuse, raising=False)
    for name in names:
        monkeypatch.setattr(emptiness, name, refuse)


def test_decide_never_builds_the_product(monkeypatch):
    refuse_the_product(monkeypatch, "build_potential_witness_nfa", "_structure_nfa", "shortest_product_run")
    assert not decide(compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")).empty


def test_decide_by_product_never_calls_intersect(monkeypatch):
    expected = decide_by_product(closed_atom())
    refuse_the_product(monkeypatch)
    assert decide_by_product(closed_atom()) == expected
    assert expected[0] is not None
    assert decide_by_product(hat(atom_empty()))[0] is None


@pytest.mark.parametrize(
    "text, length", [("((a+b)(a+b)^T b)^w", 283), ("(((a+b)+(a+b))^T b)^w", 204)]
)
def test_large_compiled_rungs_decided_quickly(text, length):
    # the materialized product of these takes minutes or runs out of memory
    start = time.perf_counter()
    report = decide(compile_expression(parse_omega_t(text, "ab"), "ab"))
    assert time.perf_counter() - start < 10.0
    assert not report.empty
    assert verify_witness(report.simple, report.witness)
    assert len(report.witness.path) == length
    # eleven counters: the scan's marks slice into many loop pairs
    assert verify_witness(report.simple, scan_path(report.simple, report.witness.path))


# the hand-written ladder, smallest to largest, with its shortest witness
# lengths (None: empty); it reaches 15 counters and 183 simple states
LADDER = (
    ("(a 0)^w", None),
    ("(a^T)^w", 36),
    ("(a b)^w", 38),
    ("(a* b)^w", 68),
    ("(a^T b)^w", 86),
    ("b (a^T b)^w", 88),
    ("((a^T 0)^T b)^w", None),
    ("(a (b 0)^T)^w", None),
    ("(a^T b)^w + (b^T a)^w", 86),
    ("(a + b)^w", 35),
    ("((a^T b)^T)^w", 148),
    ("((a b^T)* a)^w", 180),
    ("((a^T b)^T a)^w", 212),
    ("(a^T b + a b^T)^w", 132),
    ("((a^T b + a b^T)^T a)^w", 279),
)


def test_product_reference_agrees_on_the_ladder():
    # the random automata are rarely nonempty with more than two counters;
    # these rungs have 3 to 15
    for text, length in LADDER:
        report = decide(compile_expression(parse_omega_t(text, "ab"), "ab"))
        reference, _ = decide_by_product(report.simple)
        assert report.empty == (reference is None) == (length is None), text
        if reference is not None:
            assert len(reference.path) == len(report.witness.path) == length, text
            assert verify_witness(report.simple, scan_path(report.simple, reference.path)), text


def twin_cycles(left: str, right: str, stray: str = "") -> CCA:
    """A silent choice into two copies of one witness cycle, named by the
    prefixes ``left`` and ``right``; ``stray`` names a third copy that
    nothing reaches."""
    transitions = {Transition("i", None, f"{left}0", 1, NO_OP), Transition("i", None, f"{right}0", 1, NO_OP)}
    cycles = (left, right, stray) if stray else (left, right)
    for c in cycles:
        transitions |= {
            Transition(f"{c}0", "a", f"{c}1", 1, NO_OP),
            Transition(f"{c}1", None, f"{c}2", 1, NO_OP),
            Transition(f"{c}1", None, f"{c}3", 1, NO_OP),
            Transition(f"{c}2", None, f"{c}1", 1, INC),
            Transition(f"{c}3", None, f"{c}0", 1, CHECK),
        }
    states = frozenset({"i"} | {f"{c}{j}" for c in cycles for j in range(4)})
    return CCA(states, frozenset("a"), "i", 1, frozenset(transitions))


def test_equal_witnesses_go_to_the_smallest_anchor_name():
    # in the last input the unreachable x0..x3 sort between the anchors
    for left, right, stray, anchor in (("x", "y", "", "x0"), ("x", "w", "", "w0"), ("y", "w", "x", "w0")):
        report = decide(twin_cycles(left, right, stray))
        w = report.witness
        assert w.path[w.begin] == anchor
        assert len(w.path) == 9
        assert w == decide(twin_cycles(left, right, stray)).witness
        assert not set(w.path) & {f"{stray}{j}" for j in range(4)}


GOLDEN = Path(__file__).parent / "golden"


def ladder_transcript(capsys) -> str:
    """``countercheck empty`` on every ladder rung, as one transcript."""
    lines = []
    for text, _ in LADDER:
        code = main(["empty", text])
        lines.append(f"$ countercheck empty {text!r}\n{capsys.readouterr().out}exit {code}\n")
    return "".join(lines)


def test_ladder_certificates_are_pinned(capsys):
    # the certificates are part of the interface: byte for byte
    expected = (GOLDEN / "ladder_empty.txt").read_text(encoding="utf-8")
    assert ladder_transcript(capsys) == expected


def test_random_witnesses_are_pinned():
    # every witness, not only its length; retuning random_simple_cca
    # changes the cases, and the digest with them
    rng = random.Random(424242)
    digest = hashlib.sha256()
    nonempty = 0
    for _ in range(2000):
        a = random_simple_cca(
            rng, max_states=rng.randint(5, 12), max_counters=3, max_transitions=rng.randint(8, 20)
        )
        witness = decide(a).witness
        nonempty += witness is not None
        digest.update(repr(witness).encode())
    assert nonempty >= 150
    assert digest.hexdigest() == "bf51e2bedc45ad9b80bbafaa68ec215af27f2d25d7a6ba2a16a12dc5c792833f"


def test_long_certificate_under_the_limit_is_returned():
    report = decide(compile_expression(parse_omega_t(flat_word(40), "ab"), "ab"))
    assert not report.empty
    assert len(report.witness.path) == 15_960 <= emptiness.MAX_WITNESS
    assert verify_witness(report.simple, report.witness)


def test_witness_limit_never_refuses_an_answer_that_fits(monkeypatch):
    for text, length in LADDER:
        if length is None:
            continue
        a = compile_expression(parse_omega_t(text, "ab"), "ab")
        expected = decide(a).witness
        with monkeypatch.context() as patched:
            patched.setattr(emptiness, "MAX_WITNESS", length)
            assert decide(a).witness == expected, text
    monkeypatch.setattr(emptiness, "MAX_WITNESS", 20)
    with pytest.raises(CCAError, match="more than 20"):
        decide(compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab"))


def test_examine_runs_the_oracle_once_when_it_finds_the_witness(monkeypatch):
    from countercheck import harness

    calls = []

    def counted(a, depth=40):
        calls.append(depth)
        return brute_force_witness(a, depth)

    monkeypatch.setattr(harness, "brute_force_witness", counted)
    outcome = harness.examine(closed_atom(), 40)
    assert outcome.failure is None and not outcome.empty
    assert len(outcome.witness.path) <= 40
    assert calls == [40]


def test_fuzz_examine_catches_a_layered_search_off_the_reference(monkeypatch):
    from dataclasses import replace

    from countercheck import harness

    auto = closed_atom()
    assert harness.examine(auto).failure is None
    report = decide(auto)
    longer = replace(report.witness, path=report.witness.path + ("s1",))
    monkeypatch.setattr(harness, "decide", lambda a: replace(report, witness=longer))
    assert "shortest length" in harness.examine(auto).failure
    monkeypatch.setattr(harness, "decide", lambda a: replace(report, empty=True, witness=None))
    assert "verdict" in harness.examine(auto).failure
