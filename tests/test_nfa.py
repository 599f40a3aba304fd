import itertools
import random

import pytest

from countercheck.expr import RAlt, RCat, REmpty, RSym
from countercheck.harness import random_regex
from countercheck.nfa import NFA, accepts, breadth_first_run, thompson
from countercheck.translate import FreshNames

from conftest import accepts_extension, intersect, nonempty_witness, shortest_accepting_run


def matches(e, word: str) -> bool:
    """Brute-force regular-expression matcher used as the oracle."""
    if isinstance(e, REmpty):
        return False
    if isinstance(e, RSym):
        return word == e.letter
    if isinstance(e, RAlt):
        return matches(e.left, word) or matches(e.right, word)
    if isinstance(e, RCat):
        return any(
            matches(e.left, word[:i]) and matches(e.right, word[i:])
            for i in range(len(word) + 1)
        )
    if word == "":
        return True
    return any(
        matches(e.body, word[:i]) and matches(e, word[i:]) for i in range(1, len(word) + 1)
    )


def all_words(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def test_thompson_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(60):
        e = random_regex(rng, depth=4, alphabet=("a", "b"))
        machine = thompson(e, frozenset("ab"), FreshNames("n"))
        for word in all_words("ab", 4):
            assert accepts(machine, word) == matches(e, word), (e, word)


def test_thompson_empty_language():
    machine = thompson(REmpty(), frozenset("ab"), FreshNames("n"))
    assert not accepts(machine, "")
    assert not accepts(machine, "a")


def test_accepts_extension():
    machine = thompson(RCat(RSym("a"), RSym("b")), frozenset("ab"), FreshNames("n"))
    assert accepts_extension(machine, "")
    assert accepts_extension(machine, "a")
    assert not accepts_extension(machine, "b")
    assert not accepts_extension(machine, "abb")


def letter_nfa(pairs, initial, finals, alphabet="xy") -> NFA:
    states = {initial, *finals}
    for s, _, t in pairs:
        states |= {s, t}
    return NFA(
        states=frozenset(states),
        alphabet=frozenset(alphabet),
        transitions=frozenset(pairs),
        initial=initial,
        finals=frozenset(finals),
    )


def universal(alphabet="xy") -> NFA:
    return letter_nfa([("u", c, "u") for c in alphabet], "u", ["u"], alphabet)


def random_letter_nfa(rng, size=2, alphabet="xy") -> NFA:
    names = [f"p{i}" for i in range(size)]
    pairs = []
    for _ in range(rng.randint(1, 2 * size)):
        pairs.append((rng.choice(names), rng.choice(alphabet), rng.choice(names)))
    finals = [s for s in names if rng.random() < 0.5] or [names[-1]]
    return letter_nfa(pairs, names[0], finals, alphabet)


def test_intersect_with_universal_is_identity_on_words():
    rng = random.Random(3)
    n = random_letter_nfa(rng, size=3)
    product = intersect(n, universal())
    for _ in range(50):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
        assert accepts(product, word) == accepts(n, word)


def test_intersect_with_empty_is_empty():
    rng = random.Random(4)
    n = random_letter_nfa(rng, size=3)
    void = letter_nfa([], "v", [])
    # an automaton with no finals accepts nothing
    product = intersect(n, void)
    assert nonempty_witness(product) is None


def test_intersect_matches_brute_force_membership():
    rng = random.Random(5)
    for _ in range(40):
        n1 = random_letter_nfa(rng, size=2)
        n2 = random_letter_nfa(rng, size=2)
        product = intersect(n1, n2)
        assert len(product.states) == len(n1.states) * len(n2.states)
        for word in all_words("xy", 4):
            assert accepts(product, word) == (accepts(n1, word) and accepts(n2, word))


def test_intersect_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        intersect(universal("xy"), universal("xz"))


def test_intersect_rejects_silent_edges():
    silent = letter_nfa([("u", None, "u")], "u", ["u"])
    with pytest.raises(ValueError):
        intersect(silent, universal())


def test_nonempty_unreachable_finals():
    n = letter_nfa([("p0", "x", "p0")], "p0", ["far"])
    assert nonempty_witness(n) is None


def test_nonempty_single_accepting_state_gives_empty_word():
    n = letter_nfa([], "p0", ["p0"])
    assert nonempty_witness(n) == ()


def test_nonempty_witness_is_accepted_and_shortest():
    rng = random.Random(6)
    for _ in range(40):
        n = random_letter_nfa(rng, size=3)
        word = nonempty_witness(n)
        if word is None:
            assert not any(accepts(n, w) for w in all_words("xy", 5))
        else:
            assert accepts(n, "".join(word))
            shorter = [w for w in all_words("xy", len(word) - 1)] if word else []
            assert not any(accepts(n, w) for w in shorter)


def test_shortest_run_follows_sorted_adjacency():
    # the search sorts each state's edges once as it indexes them; its runs
    # must be those of a breadth-first search over the sorted adjacency
    from collections import deque

    def reference(n):
        adjacency = n.adjacency()
        parents = {n.initial: None}
        queue = deque([n.initial])
        goal = n.initial if n.initial in n.finals else None
        while queue and goal is None:
            here = queue.popleft()
            for label, target in adjacency[here]:
                if target not in parents:
                    parents[target] = (here, label)
                    if target in n.finals:
                        goal = target
                        break
                    queue.append(target)
        if goal is None:
            return None
        word, path = [], [goal]
        while parents[path[-1]] is not None:
            here, label = parents[path[-1]]
            word.append(label)
            path.append(here)
        return tuple(reversed(word)), tuple(reversed(path))

    rng = random.Random(8)
    for _ in range(60):
        n = random_letter_nfa(rng, size=5)
        assert shortest_accepting_run(n) == reference(n)


def test_breadth_first_run_follows_the_order_of_its_successors():
    # two runs of two edges reach f; the search keeps the one whose first
    # edge comes first from ``successors``, whatever the labels' sort order
    graph = {"s": [("y", "r"), ("x", "q")], "q": [("x", "f")], "r": [("x", "f")], "f": []}
    assert breadth_first_run("s", "f".__eq__, graph.__getitem__) == (("y", "x"), ("s", "r", "f"))
    graph["s"].reverse()
    assert breadth_first_run("s", "f".__eq__, graph.__getitem__) == (("x", "x"), ("s", "q", "f"))
    # a generator serves as well as a list
    assert breadth_first_run("s", "f".__eq__, lambda here: iter(graph[here])) == (
        ("x", "x"),
        ("s", "q", "f"),
    )
