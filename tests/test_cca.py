import hashlib
import json
import random
import re

import pytest

from countercheck import cca
from countercheck.cca import CCA, CHECK, INC, NO_OP, Configuration, Transition
from countercheck.emptiness import is_empty
from countercheck.translate import compile_expression
from countercheck.expr import parse_omega_t, pretty
from countercheck.harness import random_omega_expr, random_regex, random_simple_cca, random_texpr
from countercheck.nfa import breadth_first_run

from conftest import atom_a, atom_empty, random_general_cca, twin_of


def two_counter_host(*transitions, states=("s", "t", "u"), initial="s") -> CCA:
    return CCA(
        states=frozenset(states),
        alphabet=frozenset("ab"),
        initial=initial,
        counters=2,
        transitions=frozenset(transitions),
    )


# --------------------------------------------------------------------------
# step relation

def test_step_inc():
    t = Transition("s", "a", "t", 2, INC)
    a = two_counter_host(t)
    assert cca.step(a, Configuration("s", (2, 5)), t) == Configuration("t", (2, 6))


def test_step_check_zeroes():
    t = Transition("s", None, "t", 1, CHECK)
    a = two_counter_host(t)
    assert cca.step(a, Configuration("s", (2, 5)), t) == Configuration("t", (0, 5))


def test_step_no_op():
    t = Transition("s", "b", "t", 1, NO_OP)
    a = two_counter_host(t)
    assert cca.step(a, Configuration("s", (2, 5)), t) == Configuration("t", (2, 5))


def test_step_rejects_wrong_source():
    t = Transition("s", "a", "t", 1, NO_OP)
    a = two_counter_host(t)
    with pytest.raises(cca.CCAError):
        cca.step(a, Configuration("t", (0, 0)), t)


def test_step_never_blocked_by_counters(rng):
    for _ in range(50):
        a = random_general_cca(rng)
        adjacency = a.adjacency()
        config = cca.initial_configuration(a)
        for _ in range(20):
            out = adjacency[config.state]
            if not out:
                break
            config = cca.step(a, config, out[0])  # any matching transition applies


def test_check_leaves_exact_zero(rng):
    for _ in range(30):
        a = random_general_cca(rng)
        config = cca.initial_configuration(a)
        adjacency = a.adjacency()
        for _ in range(25):
            out = adjacency[config.state]
            if not out:
                break
            t = out[rng.randrange(len(out))]
            config = cca.step(a, config, t)
            if t.op == CHECK:
                assert config.counters[t.counter - 1] == 0


def test_constructor_validates_no_op_counter():
    with pytest.raises(cca.CCAError):
        two_counter_host(Transition("s", "a", "t", 2, NO_OP))


@pytest.mark.parametrize(
    "alphabet, shown",
    [(["eps"], "'eps'"), (["a", "bc"], "'bc'"), ([""], "''"), (["a", 1], "1"), (["ab", "eps"], "'ab'")],
)
def test_an_alphabet_entry_is_one_character(alphabet, shown):
    # "eps" is the JSON form's silent label, and words are read one
    # character at a time, so no letter is longer
    with pytest.raises(cca.CCAError, match=f"^alphabet entry {shown} is not one character$"):
        CCA(frozenset({"s"}), frozenset(alphabet), "s", 1, frozenset())
    for letter in ('"', "ß", "e"):
        CCA(frozenset({"s"}), frozenset({letter}), "s", 1, frozenset())


def test_constructor_validates_counter_range():
    with pytest.raises(cca.CCAError):
        two_counter_host(Transition("s", "a", "t", 3, INC))


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            Transition("x", "a", "t", 1, NO_OP),
            "transition Transition(source='x', label='a', target='t', counter=1, op='no_op')"
            " references unknown states",
        ),
        (
            Transition("s", "b", "x", 2, CHECK),
            "transition Transition(source='s', label='b', target='x', counter=2, op='check')"
            " references unknown states",
        ),
        (
            Transition("s", "c", "t", 1, NO_OP),
            "transition Transition(source='s', label='c', target='t', counter=1, op='no_op')"
            " reads a letter outside the alphabet",
        ),
        (
            Transition("s", None, "t", 0, INC),
            "transition Transition(source='s', label=None, target='t', counter=0, op='inc')"
            " touches counter 0 of 2",
        ),
        (
            Transition("t", "a", "t", 3, CHECK),
            "transition Transition(source='t', label='a', target='t', counter=3, op='check')"
            " touches counter 3 of 2",
        ),
        (
            Transition("s", "a", "s", 2, "reset"),
            "transition Transition(source='s', label='a', target='s', counter=2, op='reset')"
            " has unknown operation 'reset'",
        ),
        (
            Transition("t", None, "t", 2, NO_OP),
            "no_op transitions must use counter 1:"
            " Transition(source='t', label=None, target='t', counter=2, op='no_op')",
        ),
    ],
    ids=["source", "target", "letter", "counter-0", "counter-N+1", "op", "no-op-counter"],
)
def test_constructor_names_the_offending_transition(bad, message):
    # the set-containment checks must report exactly what the loop reports
    good = (Transition("s", "a", "t", 1, NO_OP), Transition("t", None, "u", 2, INC))
    two_counter_host(*good)
    with pytest.raises(cca.CCAError) as caught:
        two_counter_host(*good, bad)
    assert str(caught.value) == message


# --------------------------------------------------------------------------
# simplicity and classification

def test_atom_a_is_simple():
    assert cca.is_simple(atom_a())


def test_two_lettered_transitions_not_simple():
    a = two_counter_host(
        Transition("s", "a", "t", 1, NO_OP), Transition("s", "b", "u", 1, NO_OP)
    )
    assert not cca.is_simple(a)


def test_silent_choice_fan_is_simple():
    a = two_counter_host(
        Transition("s", None, "s", 1, NO_OP),
        Transition("s", None, "t", 1, NO_OP),
        Transition("s", None, "u", 1, NO_OP),
    )
    assert cca.is_simple(a)


def test_classify_check_state():
    a = two_counter_host(Transition("s", "a", "t", 2, CHECK))
    part = cca.partition(a)
    assert part.check[1] == {"s"}
    assert "s" not in part.check[0] and "s" not in part.inc[0] | part.inc[1]


def test_classify_sym_state():
    a = two_counter_host(Transition("s", "a", "t", 1, NO_OP))
    part = cca.partition(a)
    assert part.lettered == {"s"}
    assert not any(part.inc) and not any(part.check)


def test_classify_choice_and_stuck():
    a = two_counter_host(
        Transition("s", None, "t", 1, NO_OP), Transition("s", None, "u", 1, NO_OP)
    )
    adjacency = a.adjacency()
    part = cca.partition(a)
    assert not part.lettered and not any(part.inc) and not any(part.check)
    # a choice state has out-edges, a stuck state none
    assert adjacency["s"] and not adjacency["t"]


def test_classify_requires_simple():
    a = two_counter_host(
        Transition("s", "a", "t", 1, NO_OP), Transition("s", "b", "u", 1, NO_OP)
    )
    with pytest.raises(cca.CCAError, match="simple automaton"):
        cca.partition(a)


def test_simple_transition_determined_by_endpoints(rng):
    from countercheck.harness import random_simple_cca

    for _ in range(40):
        a = random_simple_cca(rng)
        for s in a.states:
            targets = [t.target for t in a.adjacency()[s]]
            assert len(targets) == len(set(targets))


# --------------------------------------------------------------------------
# simplify

def test_simplify_keeps_simple_automata():
    a = atom_a()
    assert cca.simplify(a) is a
    empty = atom_empty()
    assert cca.simplify(empty) is empty


def test_simplify_splits_offending_state():
    a = two_counter_host(
        Transition("s", "a", "t", 1, INC), Transition("s", "b", "u", 1, CHECK)
    )
    simple = cca.simplify(a)
    assert cca.is_simple(simple)
    assert len(simple.states) == len(a.states) + 2
    part = cca.partition(simple)
    assert simple.adjacency()["s"]
    assert "s" not in part.lettered | set().union(*part.inc, *part.check)
    carried = {(t.label, t.target, t.counter, t.op) for t in simple.transitions if t.source != "s"}
    assert ("a", "t", 1, INC) in carried and ("b", "u", 1, CHECK) in carried


def test_simplify_names_carriers_around_taken_names():
    # s.0 and s.2 exist, so the carriers of s are s.1, s.3 and s.4, given in
    # sort_key order: the silent transition first, then a, then b
    out_of_s = (
        Transition("s", "b", "t", 1, NO_OP),
        Transition("s", None, "t", 1, INC),
        Transition("s", "a", "s.0", 1, CHECK),
    )
    out_of_t = (Transition("t", "a", "s.2", 1, NO_OP), Transition("t", "a", "t", 1, INC))
    a = CCA(
        states=frozenset({"s", "s.0", "s.2", "t"}),
        alphabet=frozenset("ab"),
        initial="s",
        counters=1,
        transitions=frozenset(out_of_s + out_of_t),
    )
    simple = cca.simplify(a)
    assert simple.states == a.states | {"s.1", "s.3", "s.4", "t.0", "t.1"}
    assert simple.transitions == {
        Transition("s", None, "s.1", 1, NO_OP),
        Transition("s.1", None, "t", 1, INC),
        Transition("s", None, "s.3", 1, NO_OP),
        Transition("s.3", "a", "s.0", 1, CHECK),
        Transition("s", None, "s.4", 1, NO_OP),
        Transition("s.4", "b", "t", 1, NO_OP),
        Transition("t", None, "t.0", 1, NO_OP),
        Transition("t.0", "a", "s.2", 1, NO_OP),
        Transition("t", None, "t.1", 1, NO_OP),
        Transition("t.1", "a", "t", 1, INC),
    }


def test_simplify_state_growth_bound(rng):
    for _ in range(40):
        a = random_general_cca(rng)
        simple = cca.simplify(a)
        assert len(simple.states) <= len(a.states) + len(a.transitions)


def _word_set(a: CCA, max_len: int) -> set[str]:
    words = {""}
    frontier = [""]
    alphabet = sorted(a.alphabet)
    found = set()
    while frontier:
        word = frontier.pop()
        if cca.has_run_prefix(a, word) is not None:
            found.add(word)
            if len(word) < max_len:
                frontier.extend(word + c for c in alphabet)
    return found


def test_simplify_preserves_run_prefixes_100_random(rng):
    for _ in range(100):
        a = random_general_cca(rng, max_states=6, max_counters=2)
        simple = cca.simplify(a)
        assert _word_set(a, 4) == _word_set(simple, 4)


def many_carriers() -> CCA:
    """An automaton whose state ``s`` fires twelve transitions, silent and
    lettered ones mixed, so ``sort_key`` orders them and their carriers
    skip the taken ``s.1`` and ``s.11`` and run past ``s.9``.  ``t.u`` mixes
    a silent check with a letter, ``s.11`` makes silent choices and ``s.1``
    and ``x`` fire one transition each."""
    out_of_s = [
        Transition("s", None, "x", 1, INC),
        Transition("s", None, "x", 2, INC),
        Transition("s", None, "x", 1, CHECK),
        Transition("s", None, "x", 2, CHECK),
        Transition("s", None, "t.u", 1, NO_OP),
        Transition("s", None, "s.1", 1, NO_OP),
        Transition("s", "a", "x", 1, NO_OP),
        Transition("s", "b", "x", 1, NO_OP),
        Transition("s", "a", "s.1", 1, INC),
        Transition("s", "b", "s.1", 2, CHECK),
        Transition("s", "a", "t.u", 2, INC),
        Transition("s", "a", "s", 1, NO_OP),
    ]
    others = [
        Transition("s.1", "b", "s", 1, NO_OP),
        Transition("s.11", None, "s", 1, NO_OP),
        Transition("s.11", None, "x", 1, NO_OP),
        Transition("t.u", None, "s", 2, CHECK),
        Transition("t.u", "a", "x", 1, NO_OP),
        Transition("x", None, "s", 2, INC),
    ]
    return CCA(
        states=frozenset({"s", "s.1", "s.11", "t.u", "x"}),
        alphabet=frozenset("ab"),
        initial="s",
        counters=2,
        transitions=frozenset(out_of_s + others),
    )


def assert_handed_over(a: CCA) -> None:
    """``simplify(a)`` keeps the partition and adjacency an equal twin,
    which validates its fields, derives from scratch; an unsplit state
    keeps its tuple of ``a``'s adjacency."""
    simple = cca.simplify(a)
    if simple is a:
        return
    kept = vars(simple)
    assert tuple(kept) == (*CCA._fields, "_adjacency", "_partition")
    twin = twin_of(simple)
    assert kept["_partition"] == cca.partition(twin)
    assert kept["_adjacency"] == twin.adjacency()
    for s, out in a.adjacency().items():
        if kept["_adjacency"][s] == out:
            assert kept["_adjacency"][s] is out


def test_simplify_hands_over_the_partition_and_adjacency_a_twin_derives():
    rng = random.Random(20261024)
    wide = many_carriers()
    assert_handed_over(wide)
    graph = cca.simplify(wide).adjacency()
    # s.0, s.2 ... s.10, then s.12 and s.13 past the taken s.11, in name order
    carriers = [f"s.{i}" for i in (0, *range(2, 11), 12, 13)]
    assert [t.target for t in graph["s"]] == sorted(carriers)
    assert [t.target for t in graph["s"]][:4] == ["s.0", "s.10", "s.12", "s.13"]
    assert graph["t.u"] == tuple(Transition("t.u", None, f"t.u.{i}", 1, NO_OP) for i in (0, 1))
    split = 0
    for _ in range(2000):
        a = random_general_cca(rng, max_states=rng.randint(2, 8), max_counters=3)
        split += not cca.is_simple(a)
        assert_handed_over(a)
    for _ in range(500):
        a = compile_expression(random_omega_expr(rng, 3), "ab")
        split += not cca.is_simple(a)
        assert_handed_over(a)
    assert split >= 1800  # most of the 2500 are split


# --------------------------------------------------------------------------
# hat

def test_hat_adds_loop_back():
    a = atom_a()
    closed = cca.hat(a)
    assert len(closed.transitions) == 3
    assert Transition("s1", None, "s0", 1, CHECK) in closed.transitions


def test_hat_twice_adds_nothing():
    once = cca.hat(atom_a())
    assert cca.hat(once).transitions == once.transitions


def test_hat_of_empty_atom_stays_empty():
    closed = cca.hat(atom_empty())
    assert len(closed.transitions) == 1
    assert is_empty(closed)


def test_hat_requires_final():
    a = two_counter_host(Transition("s", "a", "t", 1, NO_OP))
    with pytest.raises(cca.CCAError):
        cca.hat(a)


# --------------------------------------------------------------------------
# run prefixes and block splitting

def test_run_prefix_empty_word_is_initial_configuration():
    a = atom_a()
    run = cca.has_run_prefix(a, "")
    assert run.configurations == (cca.initial_configuration(a),)
    assert run.steps == ()


def test_run_prefix_on_compiled_automaton():
    auto = compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")
    assert cca.has_run_prefix(auto, "ab") is not None
    assert cca.has_run_prefix(auto, "ba") is None


def test_run_prefix_rejects_on_hat_of_atom():
    closed = cca.hat(atom_a())
    assert cca.has_run_prefix(closed, "ba") is None
    assert cca.has_run_prefix(closed, "aa") is not None


def _uncapped_run_prefix(a: CCA, word: str, eps_budget: int):
    """A run-prefix search over (state, position, silent steps) triples,
    with at most ``eps_budget`` silent steps before each letter."""
    adjacency = a.adjacency()

    def successors(node):
        state, pos, eps_used = node
        for t in adjacency[state]:
            if t.label is None:
                if eps_used < eps_budget and pos < len(word):
                    yield t, (t.target, pos, eps_used + 1)
            elif pos < len(word) and t.label == word[pos]:
                yield t, (t.target, pos + 1, 0)

    run = breadth_first_run((a.initial, 0, 0), lambda node: node[1] == len(word), successors)
    return None if run is None else run[0]


def test_run_prefix_budget_beyond_states_changes_nothing(rng):
    # a shortest run never takes |S| silent steps in one gap, so a search
    # that counts them finds the pair search's run at every budget from
    # |S| - 1 up
    autos = [random_general_cca(rng, max_states=6, max_counters=2) for _ in range(40)]
    autos += [cca.simplify(a) for a in autos[:10]]
    autos.append(compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab"))
    for a in autos:
        letters = sorted(a.alphabet)
        words = ["", *letters, *(x + y + z for x in letters for y in letters for z in letters)]
        size = len(a.states)
        for word in words:
            run = cca.has_run_prefix(a, word)
            steps = None if run is None else run.steps
            for budget in (size - 1, size, 3 * size):
                assert steps == _uncapped_run_prefix(a, word, budget)


def test_run_prefix_search_is_bounded_by_the_states(monkeypatch):
    # `abb` has no run prefix, so the search dequeues every node it can
    # reach: at most one (state, position) pair per state and letter
    dequeued = []
    search = cca.breadth_first_run

    def counted(initial, is_final, successors):
        def counting(node):
            dequeued.append(node)
            return successors(node)

        return search(initial, is_final, counting)

    monkeypatch.setattr(cca, "breadth_first_run", counted)
    a = compile_expression(parse_omega_t("(a^T b)^w", "ab"), "ab")
    size = len(a.states)
    assert cca.has_run_prefix(a, "abb") is None
    assert 0 < len(dequeued) <= size * len("abb")


def _steps(a: CCA, *hops) -> cca.RunPrefix:
    path = [a.initial] + [t.target for t in hops]
    configs = [cca.initial_configuration(a)]
    for t in hops:
        configs.append(cca.step(a, configs[-1], t))
    return cca.RunPrefix(tuple(configs), tuple(hops))


def test_split_single_block():
    a = CCA(
        states=frozenset({"p", "q"}),
        alphabet=frozenset("ab"),
        initial="p",
        counters=1,
        transitions=frozenset(
            {
                Transition("p", "a", "q", 1, NO_OP),
                Transition("q", "b", "p", 1, INC),
                Transition("p", None, "p", 1, CHECK),
            }
        ),
    )
    ta = Transition("p", "a", "q", 1, NO_OP)
    tb = Transition("q", "b", "p", 1, INC)
    tc = Transition("p", None, "p", 1, CHECK)
    run = _steps(a, ta, tb, tc)
    assert cca.split_by_checks(a, run) == ["ab"]
    run2 = _steps(a, ta, tb, tc, ta, tb, tc)
    assert cca.split_by_checks(a, run2) == ["ab", "ab"]
    run3 = _steps(a, ta, tb, tc, tc)
    assert cca.split_by_checks(a, run3) == ["ab", ""]


def test_split_residue():
    a = cca.hat(atom_a())
    simple = cca.simplify(a)
    run = cca.has_run_prefix(simple, "a")
    blocks, residue = cca.split_with_residue(simple, run)
    assert blocks == []
    assert residue == "a"


def test_split_rejects_foreign_prefix():
    a = atom_a()
    bogus = cca.RunPrefix((Configuration("s1", (0,)),), ())
    with pytest.raises(cca.CCAError):
        cca.split_by_checks(a, bogus)


# --------------------------------------------------------------------------
# serialization

def test_export_empty_atom_json():
    data = json.loads(cca.export(atom_empty(), "json"))
    assert len(data["states"]) == 2
    assert data["transitions"] == []
    assert data["counters"] == 1


def test_export_atom_a_dot():
    assert cca.export(atom_a(), "dot") == "\n".join([
        "digraph cca {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        '  "s0" [shape=circle];',
        '  "s1" [shape=doublecircle];',
        '  __start -> "s0";',
        '  "s0" -> "s1" [label="a/1:no_op"];',
        '  "s1" -> "s1" [label="ε/1:inc"];',
        "}",
    ])


class Pieces:
    """A text stream that keeps each written piece apart."""

    def __init__(self):
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("format, edge, start_edges", [("json", '"from"', 0), ("dot", " -> ", 1)])
def test_write_export_writes_one_transition_per_piece(format, edge, start_edges):
    a = compile_expression(parse_omega_t("((a+b)(a+b)(a+b))^w", "ab"), "ab")
    stream = Pieces()
    cca.write_export(a, format, stream)
    assert "".join(stream.pieces) == cca.export(a, format)
    assert sum(piece.count(edge) for piece in stream.pieces) == len(a.transitions) + start_edges
    assert max(piece.count(edge) for piece in stream.pieces) == 1


def test_export_dot_escapes_names():
    # a JSON automaton may name a state with a quote, a backslash, or the
    # start point's name; each node ID must decode to its state alone
    names = ('p"q', "r\\", "__start")
    a = CCA(
        states=frozenset(names),
        alphabet=frozenset({"a", '"'}),
        initial="__start",
        counters=1,
        transitions=frozenset(
            {Transition("__start", '"', 'p"q', 1, NO_OP), Transition('p"q', None, "r\\", 1, INC)}
        ),
        final="r\\",
    )
    quoted = r'"((?:[^"\\]|\\.)*)"'

    def decoded(text: str) -> list[str]:
        return [re.sub(r"\\(.)", r"\1", x) for x in re.findall(quoted, text)]

    lines = cca.export(a, "dot").splitlines()
    nodes = [line for line in lines if "[shape=" in line and "point" not in line]
    assert sorted(x for line in nodes for x in decoded(line)) == sorted(names)
    (start,) = [line.split()[0] for line in lines if "shape=point" in line]
    assert start not in names
    (entry,) = [line for line in lines if line.split()[0] == start and "->" in line]
    assert decoded(entry) == ["__start"]
    edges = [decoded(line) for line in lines if "->" in line and line != entry]
    assert sorted(edges) == [['__start', 'p"q', '"/1:no_op'], ['p"q', "r\\", "ε/1:inc"]]


def test_json_round_trip_handmade():
    a = cca.hat(atom_a())
    assert cca.import_json(cca.export(a, "json")) == a


def test_json_round_trip_random(rng):
    for _ in range(25):
        a = random_general_cca(rng)
        assert cca.import_json(cca.export(a, "json")) == a


def test_json_writer_matches_json_dumps():
    from random import Random

    from countercheck.harness import random_omega_expr

    def same(a: CCA) -> None:
        assert cca.export(a, "json") == json.dumps(cca.to_json_dict(a), indent=2)

    for seed in range(200):
        a = compile_expression(random_omega_expr(Random(seed), 3), "ab")
        same(a)
        same(cca.simplify(a))
    same(atom_empty())
    assert atom_empty().final is not None
    same(two_counter_host())
    same(cca.hat(atom_a()))
    assert cca.hat(atom_a()).final == "s1"
    same(random_general_cca(Random(1)))
    assert random_general_cca(Random(1)).final is None
    odd = ('q"1', "q\\2", "qé", "日本", "tab\there")
    same(
        CCA(
            states=frozenset(odd),
            alphabet=frozenset({"a", "ß", '"'}),
            initial=odd[0],
            counters=2,
            transitions=frozenset(
                {
                    Transition(odd[0], "ß", odd[1], 1, NO_OP),
                    Transition(odd[1], '"', odd[2], 2, INC),
                    Transition(odd[2], None, odd[3], 2, CHECK),
                    Transition(odd[3], "a", odd[0], 1, NO_OP),
                    Transition(odd[3], None, odd[4], 1, CHECK),
                }
            ),
            final=odd[3],
        )
    )


def test_export_unknown_format():
    with pytest.raises(cca.CCAError):
        cca.export(atom_a(), "yaml")
    stream = Pieces()
    with pytest.raises(cca.CCAError, match="yaml"):
        cca.write_export(atom_a(), "yaml", stream)
    assert stream.pieces == []  # refused before anything is written


def test_export_is_deterministic(rng):
    a = random_general_cca(rng)
    assert cca.export(a, "json") == cca.export(a, "json")
    assert cca.export(a, "dot") == cca.export(a, "dot")


def transitions_with_counter(counter) -> list[dict]:
    """The transitions of ``atom_a``'s JSON form, the first touching ``counter``."""
    first, *rest = cca.to_json_dict(atom_a())["transitions"]
    return [dict(first, counter=counter), *rest]


@pytest.mark.parametrize(
    "field, value",
    [
        ("states", "s0s1"),
        ("alphabet", "ab"),
        ("transitions", {"from": "s0"}),
        ("states", ["s0", 1]),
        ("initial", 0),
        ("final", ["s1"]),
        ("counters", "2"),
        ("counters", True),
        ("transitions", transitions_with_counter(1.9)),
        ("transitions", transitions_with_counter(True)),
        ("transitions", transitions_with_counter(json.loads("1e400"))),
    ],
)
def test_json_import_rejects_wrong_types(field, value):
    data = cca.to_json_dict(atom_a())
    data[field] = value
    with pytest.raises(cca.CCAError, match="malformed automaton JSON"):
        cca.from_json_dict(data)


def test_json_import_rejects_non_string_transition_names():
    data = cca.to_json_dict(atom_a())
    data["transitions"][0]["to"] = ["s1"]
    with pytest.raises(cca.CCAError, match="malformed automaton JSON"):
        cca.from_json_dict(data)
    with pytest.raises(cca.CCAError, match="malformed automaton JSON"):
        cca.import_json("[]")


def test_an_automaton_derives_its_graph_once(monkeypatch):
    passes, walks = [], []
    classify, adjacency = cca._classify, cca.CCA.adjacency

    def derive(a):
        if "_adjacency" not in vars(a):
            walks.append(a)
        return adjacency(a)

    monkeypatch.setattr(cca, "_classify", lambda a: passes.append(a) or classify(a))
    monkeypatch.setattr(cca.CCA, "adjacency", derive)
    a = cca.hat(atom_a())
    simple = cca.simplify(a)
    # simplify of an automaton that is not simple is one classification
    # pass, which also finds the states it splits, and the only walk
    assert passes == [a] and walks == [a]
    # the simple form is handed its partition and adjacency, after its
    # fields, and is never walked or classified: each reader returns the
    # object it was given
    kept = vars(simple)
    assert tuple(kept) == (*cca.CCA._fields, "_adjacency", "_partition")
    graph, part = kept["_adjacency"], kept["_partition"]
    assert simple.adjacency() is graph and cca.partition(simple) is part
    assert cca.is_simple(simple) and cca.simplify(simple) is simple
    # s0 fires one transition and keeps its tuple; s1 is split
    assert graph["s0"] is a.adjacency()["s0"]
    assert [t.target for t in graph["s1"]] == ["s1.0", "s1.1"]
    assert graph["s1.0"] == (cca.Transition("s1.0", None, "s0", 1, CHECK),)
    assert part == cca.Partition(frozenset({"s0"}), (frozenset({"s1.1"}),), (frozenset({"s1.0"}),))
    assert passes == [a] and walks == [a]
    assert a.adjacency() is a.adjacency()
    assert not cca.is_simple(a) and not cca.is_simple(a)
    with pytest.raises(cca.CCAError, match="requires a simple automaton"):
        cca.partition(a)
    assert passes == [a] and walks == [a]
    # the states to split are not kept, so simplifying again is one more
    # pass over the kept adjacency
    again = cca.simplify(a)
    assert again == simple and again.adjacency() == graph and cca.partition(again) == part
    assert passes == [a, a] and walks == [a]
    # what an automaton keeps is outside its fields: an equal twin compares
    # and hashes alike and derives its own in one pass, and a simple
    # automaton is its own simplification without a second
    twin = twin_of(simple)
    assert twin == simple and hash(twin) == hash(simple) and repr(twin) == repr(simple)
    assert cca.simplify(twin) is twin
    assert passes == [a, a, twin] and walks == [a, twin]
    assert twin.adjacency() == graph and twin.adjacency() is not graph
    assert cca.partition(twin) == part and cca.partition(twin) is not part
    assert cca.simplify(twin) is twin
    assert passes == [a, a, twin] and walks == [a, twin]


def test_partition_slots_are_disjoint(rng):
    from countercheck.harness import random_simple_cca

    for _ in range(20):
        a = random_simple_cca(rng)
        adjacency = a.adjacency()
        part = cca.partition(a)
        assert cca.partition(a) is part
        assert len(part.inc) == len(part.check) == a.counters
        slots = [*part.inc, *part.check]
        assert sum(map(len, slots)) == len(set().union(*slots))
        assert part.lettered | set().union(*slots) <= a.states
        # every state in no set fires silent no-op choices only, or nothing
        for s in sorted(a.states - part.lettered - set().union(*slots)):
            assert all(t.label is None and t.op == NO_OP for t in adjacency[s])


def test_empty_partition_slots_are_one_object(rng):
    from countercheck.harness import random_simple_cca

    part = cca.partition(two_counter_host(Transition("s", "a", "t", 1, NO_OP)))
    assert part.lettered == {"s"}
    assert part.inc == part.check == (frozenset(), frozenset())
    empties = {id(slot) for slot in (*part.inc, *part.check)}
    for _ in range(20):
        part = cca.partition(random_simple_cca(rng))
        empties |= {id(slot) for slot in (part.lettered, *part.inc, *part.check) if not slot}
    assert len(empties) == 1


def test_run_prefixes_and_printing_are_pinned():
    # which run prefix the search returns, and how each expression layer
    # prints, byte for byte
    rng = random.Random(1212)
    runs = hashlib.sha256()
    found = absent = 0
    for index in range(240):
        a = random_simple_cca(rng) if index % 2 else random_general_cca(rng)
        for word in ("", "a", "b", "ab", "ba", "aab", "abab"):
            run = cca.has_run_prefix(a, word)
            found += run is not None
            absent += run is None
            runs.update(repr(run).encode())
    assert found > 500 and absent > 500
    printed = hashlib.sha256()
    for generate in (random_regex, random_texpr, random_omega_expr):
        for _ in range(200):
            printed.update(pretty(generate(rng, 5)).encode() + b"\n")
    assert runs.hexdigest() == "ea6d09bdcf440deb5b0d5ec60380984358c0785d86bae03d82df5495c7a3879f"
    assert printed.hexdigest() == "79a156c692bcfe20da8f43c8a5ae9ebbe8d6fe236882880a7b475d19e8a4ee6a"
