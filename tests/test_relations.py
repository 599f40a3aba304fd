"""Metamorphic relations of the emptiness decision: changes to an automaton
whose effect on the answer is known without deciding it again.

* Splitting every transition in two by a fresh silent state turns a
  shortest witness of L states into one of 2L - 1, and keeps an empty
  language empty.
* Adding states that nothing reaches, with edges among them and into the
  reachable part, leaves the certificate as it was.
* Entering through a chain of k fresh silent states puts the chain before
  the certificate and shifts every mark by k; an empty language stays
  empty.
* Putting one prefix before every name, which keeps the names' order,
  renames the certificate and changes nothing else.
* A fresh silent initial choice between two automata with the same
  counters and disjoint names puts the choice before the shorter one's
  certificate, of equal ones the one whose names come first: a shortest
  witness of min(L1, L2) + 1 states, and EMPTY when both are empty.

Each of the first four relations runs on 2000 seeded random automata, the
smaller rungs of the ladder and the flat words of up to 20 letters; the new
states of the second and third relations are named before every old name
and after it.  The last runs on pairs of the 2000 with equal counter
counts.
"""
import random

import pytest

from countercheck.cca import CCA, NO_OP, Transition, is_simple
from countercheck.emptiness import AcceptingWitness, decide, verify_witness
from countercheck.expr import parse_omega_t
from countercheck.harness import random_simple_cca
from countercheck.translate import compile_expression

from conftest import LADDER, anchored_in_a_forced_component, flat_word


@pytest.fixture(scope="module")
def corpus() -> list[CCA]:
    rng = random.Random(20261024)
    cases = [random_simple_cca(rng, max_counters=3) for _ in range(2000)]
    texts = [text for text, _ in LADDER[:-2]] + [flat_word(n) for n in range(1, 21)]
    cases += [decide(compile_expression(parse_omega_t(text, "ab"), "ab")).simple for text in texts]
    return cases


def subdivided(a: CCA) -> CCA:
    """``a`` with every transition split by a fresh state: the first half
    keeps the transition's label and operation, the second is a silent
    no-op into the old target."""
    transitions = set()
    for i, t in enumerate(sorted(a.transitions, key=Transition.sort_key)):
        middle = f"~{i}"
        transitions.add(Transition(t.source, t.label, middle, t.counter, t.op))
        transitions.add(Transition(middle, None, t.target, 1, NO_OP))
    middles = {t.source for t in transitions} - a.states
    assert len(middles) == len(a.transitions)
    return CCA(a.states | middles, a.alphabet, a.initial, a.counters, frozenset(transitions), a.final)


def renamed(a: CCA, prefix: str) -> CCA:
    """``a`` with ``prefix`` before every state's name, which keeps the
    order of the names."""
    name = {s: prefix + s for s in a.states}
    transitions = {Transition(name[t.source], t.label, name[t.target], t.counter, t.op) for t in a.transitions}
    return CCA(
        frozenset(name.values()), a.alphabet, name[a.initial], a.counters, frozenset(transitions), name.get(a.final)
    )


def with_unreachable_copy(a: CCA, prefix: str) -> CCA:
    """``a`` beside a renamed copy of itself that nothing reaches, and a
    silent hub, reached by nothing either, into the copy's states and into
    ``a``'s own."""
    copy = renamed(a, prefix)
    hub = prefix + "hub"
    entries = {Transition(hub, None, s, 1, NO_OP) for s in [*sorted(copy.states), *sorted(a.states)[:3]]}
    states = a.states | copy.states | {hub}
    assert len(states) == 2 * len(a.states) + 1
    return CCA(frozenset(states), a.alphabet, a.initial, a.counters, a.transitions | copy.transitions | entries, a.final)


def with_silent_entry(a: CCA, chain: list[str]) -> CCA:
    """``a`` entered through the fresh states ``chain``, the first of them
    initial, each a silent no-op into the next and the last into ``a``'s
    initial state."""
    assert not a.states & set(chain)
    entry = {Transition(s, None, t, 1, NO_OP) for s, t in zip(chain, [*chain[1:], a.initial])}
    return CCA(a.states | set(chain), a.alphabet, chain[0], a.counters, a.transitions | entry, a.final)


def with_initial_choice(a: CCA, b: CCA, choice: str) -> CCA:
    """``a`` and ``b``, whose names are disjoint and whose counter counts
    are equal, behind the fresh initial state ``choice``, a silent no-op
    into each one's initial state."""
    assert a.counters == b.counters and not a.states & b.states and choice not in a.states | b.states
    entry = {Transition(choice, None, a.initial, 1, NO_OP), Transition(choice, None, b.initial, 1, NO_OP)}
    return CCA(
        a.states | b.states | {choice},
        a.alphabet | b.alphabet,
        choice,
        a.counters,
        a.transitions | b.transitions | frozenset(entry),
    )


def behind(w: AcceptingWitness, chain: list[str]) -> AcceptingWitness:
    """``w`` with the states ``chain`` before it and every mark shifted."""
    k = len(chain)
    return AcceptingWitness(
        (*chain, *w.path),
        w.begin + k,
        tuple((i + k, j + k) for i, j in w.pairs),
        tuple(i + k for i in w.checks),
        w.end + k,
    )


def test_the_corpus_is_simple_and_mixed(corpus):
    assert all(is_simple(a) for a in corpus)
    nonempty = sum(not decide(a).empty for a in corpus)
    assert 150 <= nonempty <= len(corpus) - 150


def test_subdividing_every_transition_doubles_a_shortest_witness(corpus):
    for a in corpus:
        b = subdivided(a)
        assert is_simple(b)
        before, after = decide(a), decide(b)
        assert after.empty == before.empty
        if before.empty:
            continue
        assert len(after.witness.path) == 2 * len(before.witness.path) - 1
        # every mark sits on a state of ``a``, so dropping the new states
        # leaves a witness of ``a``
        w = after.witness
        assert all(i % 2 == 0 for i in (w.begin, *sum(w.pairs, ()), *w.checks, w.end))
        halved = AcceptingWitness(
            w.path[::2],
            w.begin // 2,
            tuple((i // 2, j // 2) for i, j in w.pairs),
            tuple(i // 2 for i in w.checks),
            w.end // 2,
        )
        assert verify_witness(a, halved)


@pytest.mark.parametrize("prefix", ["!", "~"])
def test_unreachable_states_leave_the_certificate_alone(corpus, prefix):
    # "!" names the new states before every old one, "~" after
    for a in corpus:
        b = with_unreachable_copy(a, prefix)
        assert is_simple(b)
        before, after = decide(a), decide(b)
        assert (after.empty, after.witness) == (before.empty, before.witness)


@pytest.mark.parametrize("prefix", ["!", "~"])
@pytest.mark.parametrize("k", [1, 3])
def test_a_silent_entry_chain_comes_before_the_certificate(corpus, prefix, k):
    chain = [f"{prefix}{i}" for i in range(k)]
    for a in corpus:
        before, after = decide(a), decide(with_silent_entry(a, chain))
        assert after.empty == before.empty
        if before.empty:
            continue
        assert after.witness == behind(before.witness, chain)


def test_an_order_preserving_renaming_renames_the_certificate(corpus):
    for a in corpus:
        before, after = decide(a), decide(renamed(a, "x"))
        assert after.empty == before.empty
        if before.empty:
            continue
        w = before.witness
        renamed_path = tuple("x" + s for s in w.path)
        assert after.witness == AcceptingWitness(renamed_path, w.begin, w.pairs, w.checks, w.end)


def test_a_silent_initial_choice_takes_the_shorter_certificate(corpus):
    # every pair of neighbours among the seeded automata with one counter
    # count, and of neighbours among the nonempty ones; "x" names the first
    # operand before the second's "y", so the first wins a tie
    groups: dict[int, list[CCA]] = {}
    for a in corpus[:2000]:
        groups.setdefault(a.counters, []).append(a)
    pairs = []
    for group in groups.values():
        live = [a for a in group if not decide(a).empty]
        pairs += [*zip(group, group[1:]), *zip(live, live[1:])]
    kinds = set()
    for a, b in pairs:
        x, y = renamed(a, "x"), renamed(b, "y")
        operands = [decide(x), decide(y)]
        after = decide(with_initial_choice(x, y, "!"))
        nonempty = [r for r in operands if not r.empty]
        assert after.empty == (not nonempty)
        if not nonempty:
            continue
        shorter = min(nonempty, key=lambda r: len(r.witness.path))
        assert after.witness == behind(shorter.witness, ["!"])
        if len(nonempty) == 2:
            forced = [anchored_in_a_forced_component(r) for r in operands]
            kinds.add((*forced, forced[operands.index(shorter)]))
    # both operands nonempty, exactly one winner forced, and either of them
    # the shorter, besides pairs of two forced and of two free winners
    assert {(True, False, True), (True, False, False), (False, True, True), (False, True, False)} <= kinds
    assert {(True, True, True), (False, False, False)} <= kinds
