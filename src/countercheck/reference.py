"""Cross-checks for the emptiness decision: the references that
``emptiness.decide`` is compared with, none of them on its path.

* ``decide_by_product`` is the paper's construction, kept as the reference
  the fuzzer compares ``decide`` with: ``build_potential_witness_nfa``
  accepts exactly the words over the state set that carry witness structure,
  ``build_prefix_nfa`` exactly the realizable state paths, and their product
  is empty iff the language of the automaton is.  The reference builds
  neither NFA: it searches their product breadth-first, reading the
  structure side from the phase table and the path side from the graph,
  and hands the search each node's edges already in the product's
  tie-break order.  ``witness_nfa_state_count`` counts the structure NFA's
  states by walking the same table, for the size-bound check, without
  building it.
* ``brute_force_witness`` gives the same answer by a direct search over
  paths and serves as the independent oracle; ``scan_path`` marks a
  witness on one path.

All of them follow one table of witness phases (see the comment above
``_next_phases``).  Imports run one way: this module takes the witness
record and its checker from ``emptiness``, which imports nothing from here.
"""
from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Optional

from .cca import CCA, CCAError, InternalCheckError, Partition, partition
from .emptiness import AcceptingWitness, _partition, _simple, _verify
from .nfa import NFA, accepts, breadth_first_run


# --------------------------------------------------------------------------
# the witness phases: one table for the structure NFA, the product reference,
# the brute-force oracle and the path scan
#
# A witness is read off a state sequence left to right.  Reading state s,
#
#   ("scan",)             moves on to ("seek_inc", 1, s) if s is lettered;
#   ("seek_inc", k, t)    moves on to ("in_loop", k, t, s) if s is inc-k;
#   ("in_loop", k, t, p)  moves on to ("seek_inc", k + 1, t) if s is p,
#                         to ("seek_check", 1, t) instead when k = N;
#   ("seek_check", k, t)  moves on to ("seek_check", k + 1, t) if s is check-k,
#                         to ("await_anchor", t) instead when k = N;
#   ("await_anchor", t)   moves on to ("accept",) if s is t.
#
# Every phase also stays, except ("in_loop", k, ...) on a check-k state,
# ("await_anchor", t) on t, and ("accept",), which has no move.  The
# positions of the moves-on are the witness's marks, in the order begin,
# open1, close1, ..., openN, closeN, check1, ..., checkN, end.  Neither
# ``verify_witness`` nor ``decide`` reads this table, so a wrong move shows
# up as a disagreement with them.

_SCAN = ("scan",)
_ACCEPT = ("accept",)


def _next_phases(phase: tuple, s: str, part: Partition, n: int) -> tuple[tuple, ...]:
    """The phases reached from ``phase`` by reading state ``s``, a move-on
    listed before a stay."""
    role = phase[0]
    if role == "scan":
        return (("seek_inc", 1, s), phase) if s in part.lettered else (phase,)
    if role == "seek_inc":
        _, k, t = phase
        return (("in_loop", k, t, s), phase) if s in part.inc[k - 1] else (phase,)
    if role == "in_loop":
        _, k, t, p = phase
        if s in part.check[k - 1]:
            return ()
        if s != p:
            return (phase,)
        return (("seek_inc", k + 1, t) if k < n else ("seek_check", 1, t), phase)
    if role == "seek_check":
        _, k, t = phase
        if s not in part.check[k - 1]:
            return (phase,)
        return (("seek_check", k + 1, t) if k < n else ("await_anchor", t), phase)
    if role == "await_anchor":
        return (_ACCEPT,) if s == phase[1] else (phase,)
    return ()


def _witness(path, marks: list[int]) -> AcceptingWitness:
    """The witness on ``path`` whose marks, in table order, are ``marks``."""
    n = (len(marks) - 2) // 3
    loops = marks[1 : 2 * n + 1]
    pairs = tuple(zip(loops[::2], loops[1::2]))
    return AcceptingWitness(tuple(path), marks[0], pairs, tuple(marks[2 * n + 1 : -1]), marks[-1])


# --------------------------------------------------------------------------
# the witness-structure NFA (reads state sequences as words)

def build_potential_witness_nfa(a: CCA) -> NFA:
    """NFA over the automaton's state set accepting words with witness
    structure, realizable or not.

    Its states are the phases of the table above that ``("scan",)``
    reaches, and its transitions are their moves; ``("accept",)`` is kept
    even when no phase reaches it.  The state count is bounded by
    2 + 2*N*|S| + N*|S|^2 + |S|.
    """
    part = _partition(a, "the witness-structure NFA")
    return _structure_nfa(a, part)


def _structure_phases(a: CCA, part: Partition) -> set:
    """The phases ``("scan",)`` reaches, plus ``("accept",)``: the states of
    the witness-structure NFA.

    By the table, a state that is neither lettered, inc nor check only
    keeps a phase or ends it, so the walk reads the other states alone.
    """
    n = a.counters
    movers = part.lettered.union(*part.inc, *part.check)
    phases = {_SCAN, _ACCEPT}
    todo = [_SCAN]
    while todo:
        phase = todo.pop()
        for s in movers:
            for after in _next_phases(phase, s, part, n):
                if after not in phases:
                    phases.add(after)
                    todo.append(after)
    return phases


def _structure_nfa(a: CCA, part: Partition) -> NFA:
    n = a.counters
    phases = _structure_phases(a, part)
    return NFA(
        states=frozenset(phases),
        alphabet=frozenset(a.states),
        transitions=frozenset(
            (phase, s, after)
            for phase in phases
            for s in a.states
            for after in _next_phases(phase, s, part, n)
        ),
        initial=_SCAN,
        finals=frozenset({_ACCEPT}),
    )


def witness_nfa_state_bound(a: CCA) -> int:
    s = len(a.states)
    return 2 + 2 * a.counters * s + a.counters * s * s + s


def witness_nfa_state_count(a: CCA) -> int:
    """The number of states of ``build_potential_witness_nfa(a)``, counted
    by walking the phase table without building the NFA."""
    part = _partition(a, "the witness-structure NFA")
    return len(_structure_phases(a, part))


def build_prefix_nfa(a: CCA) -> NFA:
    """NFA over the state set accepting exactly the realizable state paths.

    No transition is ever disabled by counter values, so a word is a
    realizable path iff it starts at the initial state and follows edges.
    """
    entry = ("path", None)
    states = {entry} | {("path", s) for s in a.states}
    transitions = {(entry, a.initial, ("path", a.initial))}
    for t in a.transitions:
        transitions.add((("path", t.source), t.target, ("path", t.target)))
    return NFA(
        states=frozenset(states),
        alphabet=frozenset(a.states),
        transitions=frozenset(transitions),
        initial=entry,
        finals=frozenset(("path", s) for s in a.states),
    )


# --------------------------------------------------------------------------
# the product reference: the paper's construction, kept for cross-checks

def _decode(word: tuple[str, ...], product_path: tuple, n: int) -> AcceptingWitness:
    """The witness an accepted product run marks: the positions where its
    structure phase changes."""
    steps = zip(product_path, product_path[1:])
    marks = [i for i, (before, after) in enumerate(steps) if before[0] != after[0]]
    if len(marks) != 3 * n + 2:
        raise InternalCheckError("accepted product run has no witness structure")
    return _witness(word, marks)


def decide_by_product(a: CCA) -> Optional[AcceptingWitness]:
    """Decide emptiness the paper's way: intersect the witness-structure NFA
    with the path NFA and decode a shortest accepting run.

    Neither NFA is built.  A breadth-first search runs over the product's
    nodes ``(phase, ("path", s))``, reading each state ``u`` the graph
    leads to from ``s`` with the phase table, and creates only the nodes it
    reaches.  The nodes, letters and tie-break are those of
    ``intersect(build_potential_witness_nfa(a), build_prefix_nfa(a))``, so
    the run is the one a search of that product finds: each node's edges
    come out ordered by the repr of their letter, then of their phase,
    which is ``nfa._edge_key``'s order, with each state's letters sorted
    once per call.  Returns the re-verified shortest witness, or None when
    the language is empty.  This is the reference ``decide`` is fuzzed
    against, not the production path.
    """
    simple = _simple(a)
    adjacency, part = simple.adjacency(), partition(simple)
    n = simple.counters
    letters_of: dict = {}  # the letters leaving each state, in repr order

    def successors(node: tuple):
        phase, (_, s) = node
        if s not in letters_of:
            targets = {simple.initial} if s is None else {t.target for t in adjacency[s]}
            letters_of[s] = sorted(targets, key=repr)
        for u in letters_of[s]:
            # every target of letter u ends in ("path", u), and no tuple's
            # repr is a prefix of another's, so ordering the phases by repr
            # orders the targets as ``_edge_key`` does
            afters = _next_phases(phase, u, part, n)
            if len(afters) == 2 and repr(afters[1]) < repr(afters[0]):
                afters = afters[::-1]
            for after in afters:
                yield u, (after, ("path", u))

    run = breadth_first_run((_SCAN, ("path", None)), lambda node: node[0] == _ACCEPT, successors)
    if run is None:
        return None
    witness = _decode(*run, n)
    if not _verify(simple, witness, part):
        raise InternalCheckError("decoded witness failed verification")
    if not accepts(build_prefix_nfa(simple), witness.path):
        raise InternalCheckError("decoded witness path is not a realizable path")
    return witness


# --------------------------------------------------------------------------
# brute-force oracle

def brute_force_witness(a: CCA, depth: int = 40) -> Optional[AcceptingWitness]:
    """Search all state paths of at most ``depth`` transitions for an
    embedded witness.

    Exhaustive path enumeration is folded into a breadth-first search over
    (state, phase set) pairs, where a path's phase set holds every phase of
    the witness-phase table its states can reach: two paths reaching the
    same pair admit exactly the same witness completions, so deduplicating
    them discards no answers, and the first path whose set holds
    ``("accept",)`` is a shortest one.  ``scan_path`` then marks it.
    """
    part = _partition(a, "the brute-force search")
    adjacency = a.adjacency()
    if depth < 0:
        raise CCAError("depth must be nonnegative")
    n = a.counters
    # one table entry recurs in many phase sets, so each is computed once
    moves: dict[str, dict] = {s: {} for s in a.states}

    def step(phases: frozenset, s: str) -> frozenset:
        row = moves[s]
        for phase in phases.difference(row):
            row[phase] = _next_phases(phase, s, part, n)
        return frozenset(chain.from_iterable(map(row.__getitem__, phases)))

    start = (a.initial, step(frozenset({_SCAN}), a.initial))
    parents: dict = {start: None}
    queue = deque([(start, 0)])
    goal = start if _ACCEPT in start[1] else None
    while queue and goal is None:
        (node, used) = queue.popleft()
        if used >= depth:
            continue
        state, frontier = node
        for t in adjacency[state]:
            node2 = (t.target, step(frontier, t.target))
            if node2 in parents:
                continue
            parents[node2] = node
            if _ACCEPT in node2[1]:
                goal = node2
                break
            queue.append((node2, used + 1))
    if goal is None:
        return None

    path = []
    node = goal
    while node is not None:
        path.append(node[0])
        node = parents[node]
    path.reverse()
    witness = _scan(path, part, n)
    if witness is None:
        raise InternalCheckError("path search found an embedding the scan cannot recover")
    return witness


def scan_path(a: CCA, path: list[str] | tuple[str, ...]) -> Optional[AcceptingWitness]:
    """Mark one concrete path with a witness, or None when it embeds none.

    Depth-first over the witness-phase table from ``("scan",)``, one state
    of the path per step, trying a move-on before a stay and remembering
    dead ends; usable on paths from any source.
    """
    part = _partition(a, "the path scan")
    return _scan(path, part, a.counters)


def _scan(path, part: Partition, n: int) -> Optional[AcceptingWitness]:
    # an explicit stack, one frame per path state, since a path may be
    # longer than the interpreter's recursion limit; a frame holds the
    # successors of its (phase, i) not yet tried, and a frame whose
    # successors all fail marks its pair dead
    dead: set = set()
    stack: list = []
    phase, i, marks = _SCAN, 0, []
    while phase != _ACCEPT:
        if i < len(path) and (phase, i) not in dead:
            stack.append((phase, i, marks, iter(_next_phases(phase, path[i], part, n))))
        while stack:
            here, j, upto, untried = stack[-1]
            after = next(untried, None)
            if after is not None:
                phase, i, marks = after, j + 1, upto if after == here else upto + [j]
                break
            dead.add((here, j))
            stack.pop()
        else:
            return None
    return _witness(path, marks)
