"""Classical NFAs: construction from regular expressions, membership,
shortest runs.

One NFA type serves two jobs: word-level automata for regular expressions
(built by the Thompson construction, with silent edges), and the paper's
two automata over a counter-check automaton's state set, which
``reference`` builds (always silent-free).  State labels are arbitrary
hashables; every public operation iterates in a deterministic order.

``breadth_first_run`` finds shortest runs by breadth-first search over any
graph given by a successor function that yields each state's edges already
in tie-break order.  It finds a counter-check automaton's run
prefixes (``cca.has_run_prefix``): there the nodes are (state, position)
pairs and each edge's label is the transition it fires.  The product
reference (``reference.decide_by_product``) runs a search loop of its own
over the product of the paper's two automata, built on the fly, and
follows each node's edges in ``_edge_key``'s order, the order
``NFA.adjacency`` sorts them in.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Optional

from .expr import RAlt, RCat, REmpty, Record, RSym, RegExpr

State = Hashable
Label = Optional[Hashable]  # None is the silent label


def _edge_key(edge: tuple) -> tuple:
    """Sort key of a (label, target) pair: silent edges first, then by repr."""
    label, target = edge
    return (label is not None, repr(label), repr(target))


class NFA(Record):
    states: frozenset
    alphabet: frozenset
    transitions: frozenset  # (source, label-or-None, target)
    initial: State
    finals: frozenset

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        if not self.finals <= self.states:
            raise ValueError("final states missing from state set")
        for source, label, target in self.transitions:
            if source not in self.states or target not in self.states:
                raise ValueError(f"transition {(source, label, target)} references unknown states")
            if label is not None and label not in self.alphabet:
                raise ValueError(f"transition label {label!r} outside the alphabet")

    def adjacency(self) -> dict:
        out = {s: [] for s in self.states}
        for source, label, target in self.transitions:
            out[source].append((label, target))
        return {s: tuple(sorted(ts, key=_edge_key)) for s, ts in out.items()}


# --------------------------------------------------------------------------
# Thompson construction

def thompson(regex: RegExpr, alphabet: frozenset, fresh: Callable[[], str]) -> NFA:
    """Linear-size NFA with silent edges for a regular expression.

    ``fresh`` supplies globally unique state names, so the result can be
    spliced into larger automata without renaming.
    """
    states: set = set()
    transitions: set = set()

    def new() -> str:
        s = fresh()
        states.add(s)
        return s

    def build(e: RegExpr) -> tuple[str, str]:
        if isinstance(e, REmpty):
            return new(), new()
        if isinstance(e, RSym):
            start, end = new(), new()
            transitions.add((start, e.letter, end))
            return start, end
        if isinstance(e, RCat):
            ls, le = build(e.left)
            rs, re = build(e.right)
            transitions.add((le, None, rs))
            return ls, re
        if isinstance(e, RAlt):
            start, end = new(), new()
            ls, le = build(e.left)
            rs, re = build(e.right)
            transitions.update({(start, None, ls), (start, None, rs), (le, None, end), (re, None, end)})
            return start, end
        start, end = new(), new()
        bs, be = build(e.body)
        transitions.update({(start, None, bs), (be, None, end), (start, None, end), (be, None, bs)})
        return start, end

    initial, final = build(regex)
    del build  # the closure refers to itself; unbinding it leaves no cycle to collect
    return NFA(
        states=frozenset(states),
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial=initial,
        finals=frozenset({final}),
    )


# --------------------------------------------------------------------------
# membership (subset simulation with silent closure)

def _closure(adjacency: dict, seeds: frozenset) -> frozenset:
    result = set(seeds)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for label, target in adjacency[s]:
            if label is None and target not in result:
                result.add(target)
                stack.append(target)
    return frozenset(result)


def accepts(n: NFA, word) -> bool:
    adjacency = n.adjacency()
    frontier = _closure(adjacency, frozenset({n.initial}))
    for letter in word:
        frontier = _closure(
            adjacency,
            frozenset(t for s in frontier for lab, t in adjacency[s] if lab == letter),
        )
        if not frontier:
            return False
    return bool(frontier & n.finals)


# --------------------------------------------------------------------------
# shortest runs

def breadth_first_run(initial, is_final: Callable, successors: Callable) -> Optional[tuple[tuple, tuple]]:
    """Breadth-first (word, state path) from ``initial`` to a state
    ``is_final`` accepts, or None.

    ``successors`` yields the (label, target) pairs leaving a state in
    tie-break order: the search follows them in the order given, and the
    first pair to reach a state is the one its run keeps.  Callers order
    them as ``_edge_key`` does, silent labels first, then by the repr of
    the label and of the target, so results are reproducible across runs.
    """
    parents: dict = {initial: None}
    queue = deque([initial])
    goal = initial if is_final(initial) else None
    while queue and goal is None:
        here = queue.popleft()
        for label, target in successors(here):
            if target in parents:
                continue
            parents[target] = (here, label)
            if is_final(target):
                goal = target
                break
            queue.append(target)
    if goal is None:
        return None
    word: list = []
    path = [goal]
    node = goal
    while parents[node] is not None:
        node, label = parents[node]
        word.append(label)
        path.append(node)
    word.reverse()
    path.reverse()
    return tuple(word), tuple(path)

