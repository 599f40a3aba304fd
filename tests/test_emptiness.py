import bisect
import gc
import hashlib
import json
import math
import random
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from countercheck import emptiness, reference
from countercheck.cca import (
    CCA,
    CCAError,
    CHECK,
    INC,
    MAX_COUNTERS,
    NO_OP,
    InternalCheckError,
    Transition,
    hat,
    import_json,
    is_simple,
    partition,
    replay,
    simplify,
)
from countercheck.cli import main
from countercheck.emptiness import AcceptingWitness, decide, is_empty, verify_witness, witness_from_json
from countercheck.expr import parse_omega_t
from countercheck.harness import random_omega_expr, random_simple_cca, run_fuzz
from countercheck.nfa import accepts
from countercheck.reference import (
    brute_force_witness,
    build_potential_witness_nfa,
    build_prefix_nfa,
    decide_by_product,
    scan_path,
    witness_nfa_state_bound,
    witness_nfa_state_count,
)
from countercheck.translate import compile_expression

from conftest import (
    LADDER,
    anchored_in_a_forced_component,
    atom_a,
    atom_empty,
    flat_word,
    intersect,
    nonempty_witness,
    shortest_accepting_run,
    twin_of,
)


def closed_atom() -> CCA:
    """Simplified loop-back closure of the one-letter atom."""
    return simplify(hat(atom_a()))


def kind_state(a: CCA, kind: str, counter: int) -> str:
    """The first inc-``counter`` or check-``counter`` state, by name."""
    states = getattr(partition(a), kind)[counter - 1]
    if not states:
        raise AssertionError(f"no {kind} state")
    return min(states)


# the names ``reference`` took over from ``emptiness``
MOVED = (
    "_SCAN", "_ACCEPT", "build_potential_witness_nfa", "_structure_nfa",
    "witness_nfa_state_bound", "witness_nfa_state_count", "build_prefix_nfa", "_decode",
    "decide_by_product", "brute_force_witness", "scan_path", "_scan",
)


def test_the_references_live_in_their_own_module():
    for name in MOVED:
        assert name not in vars(emptiness), name
        assert name in vars(reference), name
    # the one alias answers from ``reference`` and keeps no copy
    assert emptiness.brute_force_witness is reference.brute_force_witness
    assert "brute_force_witness" not in vars(emptiness)
    with pytest.raises(AttributeError):
        emptiness.decide_by_product


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
    assert witness_from_json(json.dumps(w.to_json_dict())) == w


@pytest.mark.parametrize(
    "marks, pairs, checks",
    [
        ((0, 1, 2, 3, 4), ((1, 2),), (3,)),
        ((0, 1, 2, 3, 4, 5, 6, 7), ((1, 2), (3, 4)), (5, 6)),
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), ((1, 2), (3, 4), (5, 6)), (7, 8, 9)),
    ],
)
def test_a_witness_reads_its_marks_in_witness_order(marks, pairs, checks):
    # begin, then open and close for each counter, then check 1..N, then end
    path = [f"s{i}" for i in marks]
    assert AcceptingWitness.from_marks(path, list(marks)) == AcceptingWitness(
        tuple(path), marks[0], pairs, checks, marks[-1]
    )


# --------------------------------------------------------------------------
# the accepting run a certificate promises: pumping its check-free loops
# makes every counter's values at its checks grow without bound

def pumped(w: AcceptingWitness, rounds: int) -> tuple[list[str], list[int]]:
    """The state path of ``w``'s prefix and ``rounds`` rounds, round r
    walking the witness from its anchor back to the anchor with each
    check-free loop ``path[open_k..close_k]`` repeated r times; and the
    index of the path where each round starts, then of its last state."""
    path = list(w.path[: w.begin])
    starts = []
    for r in range(1, rounds + 1):
        starts.append(len(path))
        cut = w.begin
        for loop_in, loop_out in w.pairs:
            path += w.path[cut:loop_in] + w.path[loop_in:loop_out] * r
            cut = loop_out
        path += w.path[cut : w.end]
    starts.append(len(path))
    path.append(w.path[w.end])
    return path, starts


def test_pumped_certificates_raise_every_counter_at_its_checks():
    # read off the search before verify_witness sees the certificate; from
    # round 1 a counter may carry a value from the prefix into the anchor,
    # so the rise is asked from round 2 on
    rng = random.Random(20261101)
    automata = [random_simple_cca(rng, max_counters=2 + i % 2) for i in range(4000)]
    for text in [rung for rung, _ in LADDER] + [flat_word(8)]:
        automata.append(compile_expression(parse_omega_t(text, "ab"), "ab"))
    rounds, nonempty = 5, 0
    for a in automata:
        simple = simplify(a)
        w = emptiness._shortest_witness(simple)
        if w is None:
            continue
        nonempty += 1
        path, starts = pumped(w, rounds)
        run = replay(simple, path)  # raises unless the path is a run from the initial state
        highest = {}  # (round - 1, k): the largest value a check on counter k reads in the round
        for i, t in enumerate(run.steps):
            r = bisect.bisect_right(starts, i) - 1
            if r >= 0 and t.op == CHECK:
                key = (r, t.counter)
                highest[key] = max(highest.get(key, 0), run.configurations[i].counters[t.counter - 1])
        for k in range(1, simple.counters + 1):
            values = [highest.get((r, k)) for r in range(1, rounds)]
            assert None not in values and values == sorted(set(values)), (simple, w, k, values)
    assert nonempty >= 500


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


def test_brute_force_depth_bounds_the_transitions():
    # the shortest witness has 8 states, so 7 transitions
    w = brute_force_witness(closed_atom(), 7)
    assert w is not None and len(w.path) == 8
    assert brute_force_witness(closed_atom(), 6) is None


def dead_tables() -> list[CCA]:
    """Three simple two-counter automata whose phase table cannot accept:
    no lettered state, no inc-2 state, no check-2 state."""
    def ring(ops: list[tuple[str | None, int, str]]) -> CCA:
        names = [f"r{i}" for i in range(len(ops))]
        transitions = frozenset(
            Transition(names[i], label, names[(i + 1) % len(names)], k, op)
            for i, (label, k, op) in enumerate(ops)
        )
        return CCA(frozenset(names), frozenset("a"), "r0", 2, transitions)

    return [
        ring([(None, 1, INC), (None, 2, INC), (None, 1, CHECK), (None, 2, CHECK)]),
        ring([("a", 1, NO_OP), (None, 1, INC), (None, 1, CHECK), (None, 2, CHECK)]),
        ring([("a", 1, NO_OP), (None, 1, INC), (None, 2, INC), (None, 1, CHECK)]),
    ]


def test_the_dead_table_exit_is_exact():
    # the references' O(N) test against the table itself: dead iff no row the
    # structure count builds leads to accept
    from countercheck.reference import _ACCEPT_ID, _Table, _cannot_accept, _structure_ids  # test-only access

    rng = random.Random(20261022)
    cases = [random_simple_cca(rng, max_counters=3) for _ in range(2000)]
    cases += [decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple for text, _ in LADDER]
    cases += dead_tables()
    dead = 0
    for a in cases:
        table = _Table(a)
        reached = _structure_ids(table)
        accepting = any(_ACCEPT_ID in afters for i in reached for afters in table.rows[i].values())
        assert _cannot_accept(partition(a)) == (not accepting)
        dead += not accepting
    assert all(_cannot_accept(partition(a)) for a in dead_tables())
    assert 200 <= dead <= len(cases) - 200


def test_a_dead_table_builds_nothing(monkeypatch):
    # every reader builds the scan phase's row first, so a table that
    # builds no row is walked by nothing
    def refused(*args):
        raise AssertionError("a phase table was built")

    monkeypatch.setattr(reference._Table, "row", refused)
    for a in dead_tables():
        assert brute_force_witness(a, 40) is None
        assert decide_by_product(a) is None
        with pytest.raises(CCAError):
            brute_force_witness(a, -1)
    with pytest.raises(AssertionError, match="phase table"):
        brute_force_witness(closed_atom(), 40)
    with pytest.raises(AssertionError, match="phase table"):
        decide_by_product(closed_atom())


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


def spec_row(phase: tuple, part, n: int) -> dict:
    """The states that do more than keep ``phase``, each with the phases it
    leads to, a move-on listed before a stay: the phase table's rows over
    phase tuples, as the module's comment states them."""
    role = phase[0]
    if role == "scan":
        return {s: (("seek_inc", 1, s), phase) for s in part.lettered}
    if role == "seek_inc":
        _, k, t = phase
        return {s: (("in_loop", k, t, s), phase) for s in part.inc[k - 1]}
    if role == "in_loop":
        _, k, t, p = phase
        after = ("seek_inc", k + 1, t) if k < n else ("seek_check", 1, t)
        return {p: (after, phase), **dict.fromkeys(part.check[k - 1], ())}
    if role == "seek_check":
        _, k, t = phase
        after = ("seek_check", k + 1, t) if k < n else ("await_anchor", t)
        return dict.fromkeys(part.check[k - 1], (after, phase))
    if role == "await_anchor":
        return {phase[1]: (("accept",),)}
    return {}


def test_structure_nfa_state_count_matches_the_built_nfa():
    # the size-bound check counts the phases instead of building the NFA;
    # the ladder's rungs up to 43 states bring 3 to 9 counters
    from countercheck.reference import _Table, _structure_ids  # test-only access

    rng = random.Random(20261020)
    cases = [random_simple_cca(rng, max_counters=3) for _ in range(300)]
    for text, _ in LADDER[:-2]:
        cases.append(decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple)
    for a in cases:
        assert witness_nfa_state_count(a) == len(build_potential_witness_nfa(a).states)
        # the count reads the numbered phases alone; they must be what a
        # closure of the spec's rows over every state reaches
        part = partition(a)
        phases, todo = {("scan",), ("accept",)}, [("scan",)]
        while todo:
            phase = todo.pop()
            row = spec_row(phase, part, a.counters)
            for s in a.states:
                for after in row.get(s, (phase,)):
                    if after not in phases:
                        phases.add(after)
                        todo.append(after)
        table = _Table(a)
        assert set(table.phases[i] for i in _structure_ids(table)) == phases
        assert len(table.phases) == len(phases)
        # and every row, read back through the phases, is the spec's row,
        # its entries and each entry's order alike
        for i, row in enumerate(table.rows):
            back = [(s, tuple(table.phases[j] for j in afters)) for s, afters in row.items()]
            assert back == list(spec_row(table.phases[i], part, a.counters).items())


def test_the_structure_count_does_not_depend_on_which_reader_built_rows_first(monkeypatch):
    # ``examine`` counts on the table whose rows the product search built
    # first; a fresh table, built by the count alone, must give the same
    from countercheck import harness
    from countercheck.reference import _Table, _product, _structure_ids  # test-only access

    counted = []

    def recorded(table):
        built = sum(row is not None for row in table.rows)
        ids = _structure_ids(table)
        counted.append((built, len(ids)))
        return ids

    monkeypatch.setattr(harness, "_structure_ids", recorded)
    rng = random.Random(20261021)
    shared = 0
    for _ in range(2000):
        a = random_simple_cca(rng, max_states=12, max_counters=3)
        counted.clear()
        harness.examine(a)
        [(built, count)] = counted
        assert count == witness_nfa_state_count(a)
        shared += built > 1
    assert shared >= 1000
    # the ladder's rungs, where the oracle is too slow, through the product
    # search and the count as ``examine`` calls them
    rungs = 0
    for text, _ in LADDER[:-2]:
        a = decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple
        table = _Table(a)
        _product(table)
        rungs += sum(row is not None for row in table.rows) > 1
        assert len(_structure_ids(table)) == witness_nfa_state_count(a)
    assert rungs >= 10


def test_partition_matches_the_state_kinds(rng):
    def state_kinds(a: CCA) -> dict:
        """Each state's (op, counter) when it fires exactly one transition,
        else None; derived apart from the partition's own pass."""
        kinds = {s: None for s in a.states}
        for s in a.states:
            out = [t for t in a.transitions if t.source == s]
            if len(out) == 1:
                kinds[s] = (out[0].op, out[0].counter)
        return kinds

    for _ in range(500):
        a = random_simple_cca(rng, max_counters=3)
        kinds = state_kinds(a)
        part = partition(a)
        for k in range(1, a.counters + 1):
            assert part.inc[k - 1] == {s for s, kind in kinds.items() if kind == (INC, k)}
            assert part.check[k - 1] == {s for s, kind in kinds.items() if kind == (CHECK, k)}
        adjacency = a.adjacency()
        assert part.lettered == {s for s in a.states if any(t.label is not None for t in adjacency[s])}
    branching = CCA(
        frozenset({"s", "t"}),
        frozenset("a"),
        "s",
        1,
        frozenset({Transition("s", "a", "t", 1, NO_OP), Transition("s", None, "s", 1, NO_OP)}),
    )
    with pytest.raises(CCAError, match="simple automaton"):
        partition(branching)


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
    part = partition(a)
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
        reference = decide_by_product(a)
        assert report.empty == (reference is None)
        structure = build_potential_witness_nfa(report.simple)
        assert len(structure.states) <= witness_nfa_state_bound(report.simple)
        if reference is not None:
            nonempty += 1
            assert len(report.witness.path) == len(reference.path)
            assert verify_witness(report.simple, report.witness)
            assert verify_witness(report.simple, scan_path(report.simple, report.witness.path))
    assert nonempty >= 30


def test_product_reference_matches_the_materialized_product():
    # the reference searches the product of the structure NFA and the path
    # NFA without building either; it must find the run the built product's
    # own shortest-run search finds.  The random automata are rarely
    # nonempty with two counters, so the ladder's rungs up to 43 states
    # (3 to 9 counters) join them; the built products of the last two take
    # seconds.
    rng = random.Random(20261019)
    cases = [
        random_simple_cca(
            rng, max_states=rng.randint(5, 12), max_counters=3, max_transitions=rng.randint(8, 20)
        )
        for _ in range(300)
    ]
    for text, _ in LADDER[:-2]:
        cases.append(decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple)
    nonempty = 0
    for a in cases:
        run = shortest_accepting_run(intersect(build_potential_witness_nfa(a), build_prefix_nfa(a)))
        expected = None if run is None else reference._decode(*run, a.counters)
        assert decide_by_product(a) == expected
        nonempty += expected is not None
    assert nonempty >= 30


def reference_answers(a: CCA) -> tuple:
    return decide_by_product(a), brute_force_witness(a, 40), witness_nfa_state_count(a)


def test_reference_answers_are_pinned():
    # both references' tie-breaks and the structure count, byte for byte;
    # the ladder's rungs bring 3 to 9 counters, where the oracle is too slow
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    nonempty = 0
    for _ in range(2000):
        answers = reference_answers(random_simple_cca(rng, max_states=12, max_counters=3))
        nonempty += answers[0] is not None
        digest.update(repr(answers).encode())
    for text, _ in LADDER[:-2]:
        a = decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple
        digest.update(repr((decide_by_product(a), witness_nfa_state_count(a))).encode())
    assert nonempty == 203
    assert digest.hexdigest() == "97b472910e4ad989cbd42c275b5fc596e3c647fd06aac18a551c60ef6bdff8fd"


def test_the_phase_table_serves_only_its_own_automaton():
    # the references share one numbered phase table per automaton; it must
    # answer for no other automaton, even one with as many counters, stay
    # off the automaton and die with it
    first, second = closed_atom(), simplify(hat(atom_empty()))
    assert first.counters == second.counters
    expected = {id(a): reference_answers(twin_of(a)) for a in (first, second)}
    assert expected[id(first)] != expected[id(second)]
    for a in (first, second, first):
        assert reference_answers(a) == expected[id(a)]
        assert set(vars(a)) - set(vars(twin_of(a))) == {"_adjacency", "_partition"}
    gone = weakref.ref(first)
    del a, first
    gc.collect()
    assert gone() is None


def test_the_references_keep_no_state_between_calls():
    # every call builds its own phase table and drops it on return, so no
    # name of the module is added or rebound
    from countercheck import harness

    names = dict(vars(reference))
    for a in (closed_atom(), simplify(hat(atom_empty()))):
        reference_answers(a)
        build_potential_witness_nfa(a)
        harness.examine(a)
    assert vars(reference).keys() == names.keys()
    assert [name for name, value in vars(reference).items() if value is not names[name]] == []


def test_the_references_under_threads():
    # three threads put the three references to the same automata in the
    # same order while the interpreter switches between them as often as it
    # can; every answer must be the one a lone call gives
    import sys
    import threading

    rng = random.Random(20261025)
    autos = [random_simple_cca(rng, max_states=12, max_counters=3) for _ in range(300)]
    calls = (decide_by_product, lambda a: brute_force_witness(a, 40), witness_nfa_state_count)
    expected = [[call(a) for a in autos] for call in calls]
    assert 0 < sum(w is not None for w in expected[0]) < len(autos)
    results: dict = {}

    def work(k: int) -> None:
        results[k] = all([calls[k](a) for a in autos] == expected[k] for _ in range(15))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {0: True, 1: True, 2: True}


def repr_order_automaton() -> CCA:
    """Two equally short witnesses from a silent fork at ``s``: one through
    the anchor ``p``, one through ``q'``.  ``p`` sorts first by name, but
    ``repr("q'")`` opens with a double quote and sorts before ``repr("p")``."""
    transitions = {Transition("s", None, "p", 1, NO_OP), Transition("s", None, "q'", 1, NO_OP)}
    for anchor in ("p", "q'"):
        hub, pump, reset = anchor + ".h", anchor + ".i", anchor + ".c"
        transitions |= {
            Transition(anchor, "a", hub, 1, NO_OP),
            Transition(hub, None, pump, 1, NO_OP),
            Transition(hub, None, reset, 1, NO_OP),
            Transition(pump, None, hub, 1, INC),
            Transition(reset, "b", anchor, 1, CHECK),
        }
    states = frozenset({t.source for t in transitions})
    return CCA(states, frozenset("ab"), "s", 1, frozenset(transitions))


def phase_order_automaton() -> CCA:
    """A random automaton on which trying each letter's move-on before its
    stay, instead of ordering the two phases by repr, gives another witness
    of the same length."""
    transitions = {
        Transition("q0", "b", "q1", 1, CHECK),
        Transition("q1", None, "q0", 1, NO_OP),
        Transition("q1", None, "q2", 1, NO_OP),
        Transition("q2", "b", "q4", 1, NO_OP),
        Transition("q3", "b", "q5", 1, INC),
        Transition("q4", "b", "q5", 1, INC),
        Transition("q5", None, "q0", 1, NO_OP),
        Transition("q5", None, "q3", 1, NO_OP),
    }
    return CCA(frozenset(f"q{i}" for i in range(6)), frozenset("ab"), "q0", 1, frozenset(transitions))


@pytest.mark.parametrize("build", [repr_order_automaton, phase_order_automaton])
def test_product_reference_breaks_ties_in_repr_order(build):
    a = build()
    assert is_simple(a)
    run = shortest_accepting_run(intersect(build_potential_witness_nfa(a), build_prefix_nfa(a)))
    expected = reference._decode(*run, a.counters)
    assert decide_by_product(a) == expected
    assert len(decide(a).witness.path) == len(expected.path)
    if build is repr_order_automaton:
        assert expected.path[1] == "q'"


def test_product_reference_decides_non_simple_input():
    witness = decide_by_product(hat(atom_a()))
    report = decide(hat(atom_a()))
    assert witness is not None and len(witness.path) == len(report.witness.path)
    assert decide_by_product(hat(atom_empty())) is None


def refuse_the_product(monkeypatch, *names):
    """Make the named ``reference`` functions fail when called.  The product
    NFA itself is built only by ``conftest.intersect``, which no code of the
    package can reach."""

    def refuse(*_):
        raise AssertionError("the product was built")

    for name in names:
        monkeypatch.setattr(reference, name, refuse)


def test_decide_never_builds_the_product(monkeypatch):
    refuse_the_product(
        monkeypatch, "build_potential_witness_nfa", "_structure_nfa", "build_prefix_nfa", "breadth_first_run"
    )
    assert not decide(compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")).empty


def test_decide_by_product_never_calls_intersect(monkeypatch):
    expected = decide_by_product(closed_atom())
    refuse_the_product(monkeypatch, "build_potential_witness_nfa", "_structure_nfa", "build_prefix_nfa")
    assert decide_by_product(closed_atom()) == expected
    assert expected is not None
    assert decide_by_product(hat(atom_empty())) is None


# --------------------------------------------------------------------------
# the candidate filter: a witness lies in one strongly connected component
# that holds every ingredient, so without one the answer comes before any
# spread

def refuse_spreads(monkeypatch):
    def refuse(*_):
        raise AssertionError("a spread ran")

    monkeypatch.setattr(emptiness, "_spread", refuse)


def two_counter_cycle(check_2_on_cycle: bool) -> CCA:
    """A JSON automaton: from ``p``, a check-2 state, into a cycle through
    the lettered ``s0`` whose silent hub ``h`` pumps counters 1 and 2
    without passing a check and leaves through the check-1 state ``c1``,
    back to ``s0`` directly or through the check-2 state ``c2``."""
    rows = [
        ("p", "eps", "s0", 2, "check"),
        ("s0", "a", "h", 1, "no_op"),
        ("h", "eps", "i1", 1, "no_op"),
        ("h", "eps", "i2", 1, "no_op"),
        ("h", "eps", "c1", 1, "no_op"),
        ("i1", "eps", "h", 1, "inc"),
        ("i2", "eps", "h", 2, "inc"),
    ]
    if check_2_on_cycle:
        rows += [("c1", "eps", "c2", 1, "check"), ("c2", "eps", "s0", 2, "check")]
    else:
        rows += [("c1", "eps", "s0", 1, "check")]
    return automaton_of_rows(rows, "p", 2)


def automaton_of_rows(rows: list, initial: str, counters: int) -> CCA:
    """The JSON automaton over the alphabet {a} whose transitions are
    ``rows`` of (from, label, to, counter, op) and whose states are their
    sources."""
    keys = ("from", "label", "to", "counter", "op")
    data = {
        "states": sorted({row[0] for row in rows}),
        "alphabet": ["a"],
        "initial": initial,
        "final": None,
        "counters": counters,
        "transitions": [dict(zip(keys, row)) for row in rows],
    }
    return import_json(json.dumps(data))


def test_an_unreachable_ingredient_decides_empty_without_a_spread(monkeypatch):
    # no transition enters the check-3 state of (a 0)^w
    a = compile_expression(parse_omega_t("(a 0)^w", "ab"), "ab")
    refuse_spreads(monkeypatch)
    assert decide(a).empty


def test_a_component_short_of_an_ingredient_decides_empty_without_a_spread(monkeypatch):
    # the cycle holds every ingredient but a check-2 state: p, on the way
    # in, is the only one; with c2 on the cycle the language is nonempty
    short = two_counter_cycle(check_2_on_cycle=False)
    assert partition(short).check[1] == {"p"}
    assert not decide(two_counter_cycle(check_2_on_cycle=True)).empty
    assert brute_force_witness(short) is None
    refuse_spreads(monkeypatch)
    assert decide(short).empty


# --------------------------------------------------------------------------
# the work of a decision: spreads, and the states they settle

def counted_spreads(monkeypatch) -> list:
    """The number of states each later ``_spread`` call settles, one entry
    per call."""
    spread = emptiness._spread
    settled: list = []

    def counted(*args):
        cost, origin = spread(*args)
        settled.append(sum(c is not None for c in cost))
        return cost, origin

    monkeypatch.setattr(emptiness, "_spread", counted)
    return settled


def chain_of(factors: int) -> str:
    """The expression ``(a^T b a^T b ...)^w`` with ``factors`` factors."""
    return "(" + " ".join(["a^T b"] * factors) + ")^w"


@pytest.mark.parametrize(
    "text, counters, spreads",
    [
        (flat_word(1), 1, 2),
        (flat_word(8), 15, 2),
        (flat_word(20), 39, 2),
        ("(a^T b)^w", 5, 2),
        (chain_of(10), 59, 2),
        ("(a + b)^w", 3, 14),
    ],
    ids=["flat_word(1)", "flat_word(8)", "flat_word(20)", "(a^T b)^w", "chain_of(10)", "(a + b)^w"],
)
def test_spreads_per_decision(monkeypatch, text, counters, spreads):
    # a component with one inc-k and one check-k state for every k is
    # decided by walking its chain once and by two spreads, one backward
    # from its inc-1 state and one forward from its check-N state, whatever
    # N is, and no sweep runs when every candidate is such; (a + b)^w has
    # two check states for one counter, so it takes the 2N+1 backward
    # spreads and 2N+1 forward spreads for the one anchor its bounds leave
    a = decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple
    assert a.counters == counters
    settled = counted_spreads(monkeypatch)
    decide(a)
    assert len(settled) == spreads


def test_states_settled_per_decision_stay_below_twice_the_certificate(monkeypatch):
    # every spread stops at the last state of the layer the next one reads,
    # so a decision settles fewer states than its spreads run to their end
    # would: on flat words, decided by the two spreads of their forced
    # component, and on mixes, which have none and are swept; a flat word
    # also settles fewer than half as many states as its certificate holds
    spread = emptiness._spread
    settled, whole = [], []

    def counted(graph, seeds, targets, limit=math.inf):
        cost, origin = spread(graph, seeds, targets, limit)
        settled.append(sum(c is not None for c in cost))
        everything = spread(graph, seeds, range(len(graph)), limit)[0]
        whole.append(sum(c is not None for c in everything))
        return cost, origin

    monkeypatch.setattr(emptiness, "_spread", counted)
    mixes = ["(" + "(a+b)" * k + ")^w" for k in (2, 3, 4)]
    for text in [flat_word(letters) for letters in (2, 3, 4, 8, 12, 16, 20)] + mixes:
        settled.clear()
        whole.clear()
        report = decide(compile_expression(parse_omega_t(text, "ab"), "ab"))
        assert sum(settled) < sum(whole), text
        if text not in mixes:
            assert 2 * sum(settled) < len(report.witness.path), text


def test_a_refused_decision_holds_memory_linear_in_the_automaton(monkeypatch):
    # an (a^T b) chain of m factors simplifies to about 19m states with
    # N = 6m - 1, so a search that kept every spread of a sweep would hold
    # about 4x the memory for 2x the factors (3.7x read); the graph is
    # derived before the peak is read, so the peak is the search's alone
    monkeypatch.setattr(emptiness, "MAX_WITNESS", 1000)
    peaks = []
    for factors in (10, 20):
        text = "(" + " ".join(["a^T b"] * factors) + ")^w"
        a = simplify(compile_expression(parse_omega_t(text, "ab"), "ab"))
        partition(a)
        tracemalloc.start()
        try:
            with pytest.raises(CCAError, match="^a shortest witness has at least "):
                decide(a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 2.5, peaks


def test_a_refused_sweep_holds_memory_linear_in_the_automaton(monkeypatch):
    # the (a^T b) chains above are forced and decided without a sweep; a
    # trailing (a + b) gives their component two check states for one
    # counter, so it is swept backward, and a sweep that kept every
    # spread's seeds would hold about 3x the memory for 2x the factors
    monkeypatch.setattr(emptiness, "MAX_WITNESS", 1000)
    peaks = []
    for factors in (10, 20):
        text = "(" + " ".join(["a^T b"] * factors) + " (a + b))^w"
        a = simplify(compile_expression(parse_omega_t(text, "ab"), "ab"))
        partition(a)
        tracemalloc.start()
        try:
            with pytest.raises(CCAError, match="^a shortest witness has at least "):
                decide(a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 2.5, peaks


def test_counters_without_states_cost_no_memory_of_their_own():
    # the closed atom with MAX_COUNTERS counters, of which only counter 1
    # has inc and check states: the partition files states by counter, so
    # the other counters share one empty slot (a set per counter peaked at
    # 4.5 MB here)
    h = hat(atom_a())
    a = CCA(h.states, h.alphabet, h.initial, MAX_COUNTERS, h.transitions, h.final)
    tracemalloc.start()
    try:
        assert decide(a).empty
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_a_witness_over_the_limit_is_refused_at_its_exact_length(monkeypatch):
    # the backward bound admits this case under a limit of 10 states; its
    # shortest witness has 13
    a = random_simple_cca(random.Random(337), max_counters=3)
    assert len(decide(a).witness.path) == 13
    for limit in (10, 12):
        with monkeypatch.context() as patched:
            patched.setattr(emptiness, "MAX_WITNESS", limit)
            with pytest.raises(CCAError, match=f"^a shortest witness has 13 states, more than {limit}$"):
                decide(a)
    monkeypatch.setattr(emptiness, "MAX_WITNESS", 13)
    assert len(decide(a).witness.path) == 13


def test_a_forced_witness_over_the_limit_is_refused_before_its_path_is_built(monkeypatch):
    # flat_word(8) is decided through one forced component, whose chain is
    # walked once: N loops and the 2N - 1 segments between them.  A refusal
    # walks nothing more, and an answer only the anchor's two ends, since its
    # certificate reuses the chain's walks
    a = decide(compile_expression(parse_omega_t(flat_word(8), "ab"), "ab")).simple
    n, length = a.counters, 632
    walk = emptiness._walk
    walks = []

    def counted(*args):
        walks.append(args[1:3])
        return walk(*args)

    monkeypatch.setattr(emptiness, "_walk", counted)
    for limit in (length - 1, length // 2):
        walks.clear()
        with monkeypatch.context() as patched:
            patched.setattr(emptiness, "MAX_WITNESS", limit)
            with pytest.raises(CCAError, match=f"^a shortest witness has at least {length} states, more than {limit}$"):
                decide(a)
        assert len(walks) == 3 * n - 1
    monkeypatch.setattr(emptiness, "MAX_WITNESS", length)
    walks.clear()
    assert len(decide(a).witness.path) == length
    assert len(walks) == 3 * n + 1


def test_layered_search_matches_product_reference_on_4000_automata():
    rng = random.Random(20261020)
    nonempty = forced = 0
    for _ in range(4000):
        a = random_simple_cca(
            rng, max_states=rng.randint(5, 12), max_counters=3, max_transitions=rng.randint(8, 20)
        )
        report = decide(a)
        expected = decide_by_product(a)
        assert report.empty == (expected is None)
        if expected is not None:
            nonempty += 1
            assert len(report.witness.path) == len(expected.path)
            forced += anchored_in_a_forced_component(report)
    assert nonempty >= 300 and forced >= 100


def test_layered_search_matches_product_reference_on_1000_compiled_trees():
    # the product search takes seconds on each of the few automata above
    # 1000 simple states; decide still re-verifies their certificates
    rng = random.Random(20261021)
    compared = nonempty = forced = 0
    for _ in range(1000):
        report = decide(compile_expression(random_omega_expr(rng, 4), "ab"))
        if len(report.simple.states) > 1000:
            continue
        compared += 1
        expected = decide_by_product(report.simple)
        assert report.empty == (expected is None)
        if expected is not None:
            nonempty += 1
            assert len(report.witness.path) == len(expected.path)
            forced += anchored_in_a_forced_component(report)
    assert compared >= 970 and nonempty >= 800 and forced >= 600


def tied_components(single: str, double: str, entered: tuple[str, ...]) -> CCA:
    """A JSON automaton: the silent initial state ``i`` enters the cycles
    of the lettered anchors in ``entered``.  Each cycle pumps counter 1 at
    a silent hub and closes in 8 steps.  ``single``'s passes one check-1
    state, ``c``, and then the lettered ``z``, which is nearer to ``c`` than
    ``single`` is and so gives ``single`` a backward bound of 7;
    ``double``'s passes either of two check-1 states."""
    rows = [("i", "eps", anchor, 1, "no_op") for anchor in entered]
    for anchor in (single, double):
        rows += [
            (anchor, "a", anchor + "p", 1, "no_op"),
            (anchor + "p", "eps", anchor + "x", 1, "inc"),
            (anchor + "x", "eps", anchor + "p", 1, "no_op"),
        ]
    rows += [
        (single + "x", "eps", "c", 1, "no_op"),
        ("c", "eps", "z", 1, "check"),
        ("z", "a", single, 1, "no_op"),
        (double + "x", "eps", "c1", 1, "no_op"),
        (double + "x", "eps", "c2", 1, "no_op"),
        ("c1", "eps", "y", 1, "check"),
        ("c2", "eps", "y", 1, "check"),
        ("y", "eps", double, 1, "no_op"),
    ]
    return automaton_of_rows(rows, "i", 1)


@pytest.mark.parametrize("single, double", [("a1", "a2"), ("a2", "a1")])
def test_of_two_tied_components_the_smaller_anchor_name_wins(single, double):
    # single's component has one inc-1 and one check-1 state, so its chain
    # is read off its row and its anchors' totals come from walking it and
    # two spreads; double's anchor is swept after them, bounded by the best
    # they give
    for anchor in (single, double):
        alone = decide(tied_components(single, double, (anchor,))).witness
        assert (alone.path[alone.begin], len(alone.path)) == (anchor, 9)
    report = decide(tied_components(single, double, (single, double)))
    assert (report.witness.path[report.witness.begin], len(report.witness.path)) == ("a1", 9)
    assert anchored_in_a_forced_component(report) == (single == "a1")


# the two largest rungs, with their shortest witness lengths; the benchmark
# does not time them
LARGE_RUNGS = (("((a+b)(a+b)^T b)^w", 283), ("(((a+b)+(a+b))^T b)^w", 204))


@pytest.mark.parametrize("text, length", LARGE_RUNGS)
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


def test_product_reference_agrees_on_the_ladder():
    # the random automata are rarely nonempty with more than two counters;
    # these rungs have 3 to 15
    for text, length in LADDER + LARGE_RUNGS:
        report = decide(compile_expression(parse_omega_t(text, "ab"), "ab"))
        start = time.perf_counter()
        reference = decide_by_product(report.simple)
        assert time.perf_counter() - start < 10.0, text
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


@pytest.mark.parametrize("letters, length", [(12, 1428), (40, 15_960)])
def test_scan_path_marks_certificates_longer_than_the_recursion_limit(letters, length):
    report = decide(compile_expression(parse_omega_t(flat_word(letters), "ab"), "ab"))
    assert len(report.witness.path) == length
    marked = scan_path(report.simple, report.witness.path)
    assert marked is not None and marked.path == report.witness.path
    assert verify_witness(report.simple, marked)


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


def test_shrinking_keeps_a_final_state_named_by_the_empty_string(monkeypatch):
    # a final state is absent only when it is None; the shrinker must not
    # read the empty name as absent and delete the state
    from countercheck import harness

    monkeypatch.setattr(harness, "_fails", lambda a, depth: True)
    a = CCA(
        frozenset({"s", "", "x"}),
        frozenset("a"),
        "s",
        1,
        frozenset({Transition("s", "a", "s", 1, NO_OP)}),
        final="",
    )
    small = harness.shrink_failure(a)
    assert (small.states, small.transitions, small.final) == ({"s", ""}, frozenset(), "")


def test_examine_runs_the_oracle_once_when_it_finds_the_witness(monkeypatch):
    from countercheck import harness

    calls = []

    def counted(table, depth):
        calls.append(depth)
        return reference._brute_force(table, depth)

    monkeypatch.setattr(harness, "_brute_force", counted)
    outcome = harness.examine(closed_atom(), 40)
    assert outcome.failure is None and not outcome.empty
    assert len(outcome.witness.path) <= 40
    assert calls == [40]


def test_examine_runs_the_oracle_once_past_its_depth_and_verifies_its_hit(monkeypatch):
    from countercheck import harness

    calls = []
    verified = []

    def counted(table, depth):
        calls.append(depth)
        return reference._brute_force(table, depth)

    def verify(a, w):
        verified.append(w)
        return verify_witness(a, w)

    monkeypatch.setattr(harness, "_brute_force", counted)
    monkeypatch.setattr(harness, "verify_witness", verify)
    simple = simplify(compile_expression(parse_omega_t("(a b)^w", "ab"), "ab"))
    outcome = harness.examine(simple, 10)
    assert outcome.failure is None and not outcome.empty
    assert len(outcome.witness.path) == 38
    # one search to the witness's length, not one to the depth and a retry
    assert calls == [38]
    assert len(verified) == 1 and len(verified[0].path) == 38


def test_fuzz_examine_catches_a_layered_search_off_the_reference(monkeypatch):
    from countercheck import harness
    from countercheck.emptiness import AcceptingWitness, EmptinessReport

    auto = closed_atom()
    assert harness.examine(auto).failure is None
    report = decide(auto)
    w = report.witness
    longer = AcceptingWitness(w.path + ("s1",), w.begin, w.pairs, w.checks, w.end)
    monkeypatch.setattr(harness, "decide", lambda a: EmptinessReport(False, longer, report.simple))
    assert "shortest length" in harness.examine(auto).failure
    monkeypatch.setattr(harness, "decide", lambda a: EmptinessReport(True, None, report.simple))
    assert "verdict" in harness.examine(auto).failure


def test_examine_reports_a_structure_nfa_over_its_size_bound(monkeypatch):
    from countercheck import harness

    auto = closed_atom()
    outcome = harness.examine(auto)
    assert outcome.bound_ok and outcome.failure is None
    monkeypatch.setattr(harness, "witness_nfa_state_bound", lambda a: witness_nfa_state_count(a) - 1)
    outcome = harness.examine(auto)
    assert not outcome.bound_ok
    assert outcome.failure == "structure NFA exceeded its size bound"


@pytest.mark.parametrize("name", ["decide", "_product", "_brute_force"])
def test_examine_reports_an_internal_check_error_as_the_case_failure(capsys, monkeypatch, name):
    # from the layered search, the product reference or the oracle alike:
    # the case fails, and fuzz goes on to shrink and summarise
    from countercheck import harness

    def broken(*args):
        raise InternalCheckError("planted")

    monkeypatch.setattr(harness, name, broken)
    assert harness.examine(closed_atom()).failure == "internal check failed: planted"
    assert main(["fuzz", "--seed", "1", "--cases", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"case {i}: internal check failed: planted" for i in range(2)]
    assert lines[2].startswith("fuzz: 0/2 cases agree")
    assert lines[3] == "-- minimized failing automaton (case 0: internal check failed: planted) --"


def test_examine_builds_one_phase_table_per_case(monkeypatch):
    # the product reference, the structure count and the oracle share it
    from countercheck import harness

    built = []

    class Counted(reference._Table):
        __slots__ = ()

        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(reference, "_Table", Counted)
    monkeypatch.setattr(harness, "_Table", Counted)
    rng = random.Random(20261026)
    for a in [closed_atom(), *(random_simple_cca(rng, max_counters=3) for _ in range(200))]:
        built.clear()
        assert harness.examine(a).failure is None
        assert built == [a]


def counted_graphs(monkeypatch) -> list:
    """Record, from here on, each automaton whose adjacency is derived
    anew: a ``CCA.adjacency`` call that returns a dict no earlier call
    returned."""
    derived = []
    seen: list = []  # the dicts returned so far, kept alive so ids stay unique
    derive = CCA.adjacency

    def counted(a):
        graph = derive(a)
        if not any(graph is old for old in seen):
            seen.append(graph)
            derived.append(a)
        return graph

    monkeypatch.setattr(CCA, "adjacency", counted)
    return derived


def test_examine_derives_one_graph_per_simple_case(monkeypatch):
    from countercheck import harness

    auto = closed_atom()
    verified = []

    def verify(a, w):
        verified.append(w)
        return verify_witness(a, w)

    monkeypatch.setattr(harness, "verify_witness", verify)
    derived = counted_graphs(monkeypatch)
    outcome = harness.examine(auto)
    assert outcome.failure is None and not outcome.empty and verified
    # decide, the reference, the count, the oracle and the verification
    # share one graph
    assert derived == [auto]
    # a non-simple automaton: its own graph, then its simplification's
    compiled = compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")
    assert not is_simple(compiled)
    report = decide(compiled)
    assert derived == [auto, compiled, report.simple]
    # deciding the simplification again derives nothing
    assert decide(report.simple) == report
    assert derived == [auto, compiled, report.simple]


def test_the_graph_memo_never_serves_a_stale_graph(monkeypatch):
    rng = random.Random(20261022)
    autos = [random_simple_cca(rng, max_counters=3) for _ in range(60)]
    autos += [closed_atom(), compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")]
    # an equal automaton that is another object keeps no graph yet
    expected = [decide(twin_of(b)) for b in autos]
    assert any(r.empty for r in expected) and not all(r.empty for r in expected)
    for a, b, b_expected in zip(autos, autos[1:] + autos[:1], expected[1:] + expected[:1]):
        decide(a)
        assert decide(b) == b_expected
    # an equal automaton that is another object gets its own graph
    derived = counted_graphs(monkeypatch)
    for a, a_expected in zip(autos, expected):
        twin = twin_of(a)
        assert twin == a and twin is not a and hash(twin) == hash(a)
        decide(a)
        derived.clear()
        assert decide(twin) == a_expected
        assert derived[0] is twin
    # the simplification's partition is never lent to the non-simple
    # automaton it came from
    compiled = autos[-1]
    report = decide(compiled)
    with pytest.raises(CCAError, match="^witness verification requires a simple automaton$"):
        verify_witness(compiled, report.witness)


def test_the_graph_memo_keeps_no_automaton_alive():
    # the graph an automaton keeps refers to no automaton, so the last
    # reference going frees it at once
    import weakref

    auto = closed_atom()
    assert not decide(auto).empty
    ref = weakref.ref(auto)
    del auto
    assert ref() is None


def test_the_graph_memo_under_threads():
    # four threads decide the same automata in different orders while the
    # interpreter switches between them as often as it can; no automaton
    # has derived its graph before
    import sys
    import threading

    rng = random.Random(20261023)
    autos = [twin_of(random_simple_cca(rng, max_counters=3)) for _ in range(40)]
    assert all(tuple(vars(a)) == a._fields for a in autos)
    expected = [decide(twin_of(a)) for a in autos]
    results: dict = {}

    def work(offset: int) -> None:
        order = autos[offset:] + autos[:offset]
        results[offset] = [decide(a) for a in order] == expected[offset:] + expected[:offset]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 7, 19, 31)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {0: True, 7: True, 19: True, 31: True}
