import random

import pytest

from countercheck.cca import CCA, CHECK, INC, NO_OP, Transition
from countercheck.logic import free_vars
from countercheck.nfa import NFA, _closure, shortest_accepting_run


def atom_empty(alphabet="ab") -> CCA:
    return CCA(
        states=frozenset({"s0", "s1"}),
        alphabet=frozenset(alphabet),
        initial="s0",
        counters=1,
        transitions=frozenset(),
        final="s1",
    )


def atom_a(alphabet="ab") -> CCA:
    return CCA(
        states=frozenset({"s0", "s1"}),
        alphabet=frozenset(alphabet),
        initial="s0",
        counters=1,
        transitions=frozenset(
            {Transition("s0", "a", "s1", 1, NO_OP), Transition("s1", None, "s1", 1, INC)}
        ),
        final="s1",
    )


def twin_of(a: CCA) -> CCA:
    """An automaton equal to ``a`` that is another object, built from its
    fields: it keeps nothing ``a`` has derived."""
    return CCA(a.states, a.alphabet, a.initial, a.counters, a.transitions, a.final)


def random_general_cca(rng: random.Random, max_states=6, max_counters=2, alphabet=("a", "b")) -> CCA:
    """Arbitrary (usually non-simple) automaton for normalization tests."""
    n = rng.randint(2, max_states)
    counters = rng.randint(1, max_counters)
    names = [f"r{i}" for i in range(n)]
    transitions = set()
    for _ in range(rng.randint(1, 2 * n)):
        label = rng.choice(alphabet) if rng.random() < 0.5 else None
        op = rng.choice((NO_OP, INC, CHECK))
        counter = 1 if op == NO_OP else rng.randint(1, counters)
        transitions.add(Transition(rng.choice(names), label, rng.choice(names), counter, op))
    return CCA(
        states=frozenset(names),
        alphabet=frozenset(alphabet),
        initial=names[0],
        counters=counters,
        transitions=frozenset(transitions),
    )


def accepts_extension(n: NFA, word) -> bool:
    """True when ``word`` is a prefix of some word ``n`` accepts."""
    adjacency = n.adjacency()
    incoming: dict = {s: [] for s in n.states}
    for source, _, target in n.transitions:
        incoming[target].append(source)
    productive = set(n.finals)
    stack = list(n.finals)
    while stack:
        for p in incoming[stack.pop()]:
            if p not in productive:
                productive.add(p)
                stack.append(p)
    frontier = _closure(adjacency, frozenset({n.initial}))
    for letter in word:
        frontier = _closure(
            adjacency,
            frozenset(t for s in frontier for lab, t in adjacency[s] if lab == letter),
        )
        if not frontier:
            return False
    return bool(frontier & productive)


def nonempty_witness(n: NFA):
    """A shortest accepted word, or None when the language is empty."""
    run = shortest_accepting_run(n)
    return None if run is None else run[0]


def flat_word(letters: int) -> str:
    """The expression ``(a b a b ...)^w`` with ``letters`` letters; its
    shortest witness has about 10 * letters**2 states."""
    return "(" + " ".join("ab"[i % 2] for i in range(letters)) + ")^w"


def is_closed(f) -> bool:
    """True when the formula has no free variable."""
    fo, so = free_vars(f)
    return not fo and not so


@pytest.fixture
def rng():
    return random.Random(20240817)
