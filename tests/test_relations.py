"""Metamorphic relations of the emptiness decision: changes to an automaton
whose effect on the answer is known without deciding it again.

* Splitting every transition in two by a fresh silent state turns a
  shortest witness of L states into one of 2L - 1, and keeps an empty
  language empty.
* Adding states that nothing reaches, with edges among them and into the
  reachable part, leaves the certificate as it was.

Each relation runs on 2000 seeded random automata, the smaller rungs of the
ladder and the flat words of up to 20 letters.
"""
import random

import pytest

from countercheck.cca import CCA, NO_OP, Transition, is_simple
from countercheck.emptiness import AcceptingWitness, decide, verify_witness
from countercheck.expr import parse_omega_t
from countercheck.harness import random_simple_cca
from countercheck.translate import compile_expression

from conftest import LADDER, flat_word


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


def with_unreachable_copy(a: CCA, prefix: str) -> CCA:
    """``a`` beside a renamed copy of itself that nothing reaches, and a
    silent hub, reached by nothing either, into the copy's states and into
    ``a``'s own."""
    name = {s: prefix + s for s in a.states}
    hub = prefix + "hub"
    copy = {Transition(name[t.source], t.label, name[t.target], t.counter, t.op) for t in a.transitions}
    entries = {Transition(hub, None, s, 1, NO_OP) for s in [*name.values(), *sorted(a.states)[:3]]}
    states = a.states | set(name.values()) | {hub}
    assert len(states) == 2 * len(a.states) + 1
    return CCA(frozenset(states), a.alphabet, a.initial, a.counters, a.transitions | copy | entries, a.final)


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
