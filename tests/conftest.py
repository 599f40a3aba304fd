import random

import pytest

from countercheck import expr as ex
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


def satisfies_final_contract(a: CCA) -> bool:
    """Every transition leaving the final state is its silent counter-1
    increment self-loop."""
    final = a.final
    if final is None:
        return False
    loop = Transition(final, None, final, 1, INC)
    return all(t == loop for t in a.transitions if t[0] == final)


def expected_counters(e: ex.TExpr) -> int:
    """Counter count the rules assign, recomputed from the tree shape."""
    if isinstance(e, (ex.Empty, ex.Sym)):
        return 1
    if isinstance(e, (ex.Cat, ex.Sum)):
        return expected_counters(e.left) + expected_counters(e.right) + 1
    if isinstance(e, ex.Star):
        return expected_counters(e.body) + 1
    return expected_counters(e.body) + 2


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
