"""Cross-checks for the emptiness decision: the references that
``emptiness.decide`` is compared with, none of them on its path.

* ``decide_by_product`` is the paper's construction, kept as the reference
  the fuzzer compares ``decide`` with: ``build_potential_witness_nfa``
  accepts exactly the words over the state set that carry witness structure,
  ``build_prefix_nfa`` exactly the realizable state paths, and their product
  is empty iff the language of the automaton is.  The reference builds
  neither NFA: one breadth-first loop searches their product, reading the
  structure side from the phase rows and the path side from the graph,
  and follows each node's edges in the product's tie-break order.
  ``witness_nfa_state_count`` counts the structure NFA's states for the
  size-bound check without building it: it builds the row of every
  numbered phase and reads the table's size.
* ``brute_force_witness`` gives the same answer by a direct search over
  paths and serves as the independent oracle; ``scan_path`` marks a
  witness on one path.

All of them follow one table of witness phases, kept as one row per phase
(see the comment above ``_Table.row``).  The rows are built over phase
numbers on first use, and a phase is numbered only when a built row leads
to it, so the numbered phases are those that ``("scan",)`` reaches.
Every reader takes the automaton alone, and a table reads the state
partition the automaton keeps (``cca.partition``), so any automaton that
is not simple is refused there.  A table belongs to the call that builds
it: each function here builds its own, and ``harness.examine`` builds one
per fuzz case and hands it to the readers it calls.  The module keeps no
state between calls.  Imports run one way: this module takes only the
public witness record and its checker, ``verify_witness``, from
``emptiness``, which imports nothing from here.
"""
from __future__ import annotations

from collections import deque
from typing import Optional

from .cca import CCA, CCAError, InternalCheckError, partition, simplify
from .emptiness import AcceptingWitness, verify_witness
from .nfa import NFA


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
# open1, close1, ..., openN, closeN, check1, ..., checkN, end, which is the
# order ``AcceptingWitness.from_marks`` reads.  Neither
# ``verify_witness`` nor ``decide`` reads this table, so a wrong move shows
# up as a disagreement with them.

_SCAN = ("scan",)
_ACCEPT = ("accept",)
_SCAN_ID, _ACCEPT_ID = 0, 1


class _Table:
    """The witness phases of the simple automaton ``a``, numbered as rows
    lead to them, with the rows built so far over their ids; ``part`` is
    the partition ``a`` keeps, and any other automaton is refused.  Whether
    the states reachable from the initial state hold every kind a witness
    needs is worked out on the first request and kept
    (``reaches_every_kind``)."""

    __slots__ = ("a", "part", "phases", "ids", "rows", "_reaches")

    def __init__(self, a: CCA):
        self.a, self.part = a, partition(a)
        self.phases = [_SCAN, _ACCEPT]  # id -> phase
        self.ids = {_SCAN: _SCAN_ID, _ACCEPT: _ACCEPT_ID}  # phase -> id
        self.rows: list = [None, {}]  # id -> row over ids, None until used
        self._reaches: Optional[bool] = None

    def reaches_every_kind(self) -> bool:
        """Whether the states reachable from the initial state hold a
        lettered state and, for every counter k, an inc-k and a check-k
        state.  Every witness path starts at the initial state and visits
        one of each, so without them the language is empty, and the
        references answer None as their exhaustive searches would, without
        a search or a row.  Worked out on the first call and kept.

        The partition is tested first, and a missing kind answers without a
        walk.  That test is exact: no phase that ``("scan",)`` reaches is
        ``("accept",)`` iff a kind is missing.  Every route from scan to
        accept reads a lettered anchor (scan's only move-on), then for each
        k an inc-k state (seek_inc k's only move-on) and a check-k state
        (seek_check k's only move-on), so a missing kind leaves accept out
        of reach.  When all of them exist, every reached phase can still
        reach accept: scan moves on at a lettered t; seek_inc k at an inc-k
        p; in_loop k at p itself, which fires one transition and so is no
        check-k state; seek_check k at a check-k state; await_anchor at t.
        The table reads states as letters, so the graph does not matter.
        The walk is the table's own, over the adjacency, so the references
        read nothing of the decision's search.
        """
        if self._reaches is None:
            a, part = self.a, self.part
            kinds = (part.lettered, *part.inc, *part.check)
            self._reaches = all(kinds)
            if self._reaches:
                adjacency = a.adjacency()
                reached = {a.initial}
                queue = [a.initial]
                for here in queue:  # the queue grows behind the loop
                    for t in adjacency[here]:
                        if t.target not in reached:
                            reached.add(t.target)
                            queue.append(t.target)
                self._reaches = not any(reached.isdisjoint(states) for states in kinds)
        return self._reaches

    # The table is kept as one *row* per phase: the states that do more
    # than keep the phase, each with the ids of the phases it leads to,
    # move-on before stay.  Every other state keeps the phase; accept has
    # no move.  A row is built on first use, and a move-on phase is
    # numbered there once some state of the row moves to it, so every
    # numbered phase is scan, accept or a phase scan reaches.  The call
    # that builds a table owns it; ``harness.examine`` builds one per case
    # for the product search, the structure count and the oracle in turn.
    def row(self, i: int) -> dict[str, tuple[int, ...]]:
        """The row of phase ``i`` over ids, built on the first call."""
        rows = self.rows
        row = rows[i]
        if row is not None:
            return row
        phases, ids, part = self.phases, self.ids, self.part
        phase = phases[i]
        role = phase[0]
        row = rows[i] = {}
        if role == "scan" or role == "seek_inc":
            # one move-on per state: ("seek_inc", 1, s) or ("in_loop", k, t, s)
            if role == "scan":
                movers, head = part.lettered, ("seek_inc", 1)
            else:
                movers, head = part.inc[phase[1] - 1], ("in_loop", *phase[1:])
            for s in movers:
                on = (*head, s)
                j = ids.get(on)
                if j is None:
                    j = ids[on] = len(phases)
                    phases.append(on)
                    rows.append(None)
                row[s] = (j, i)
        elif role == "in_loop" or role == "seek_check":
            # one move-on for the row; in_loop's p is inc-k, so never check-k
            _, k, t = phase[:3]
            last = k == self.a.counters
            checks = part.check[k - 1]
            if role == "in_loop":
                movers, on = phase[3:], ("seek_check", 1, t) if last else ("seek_inc", k + 1, t)
            else:
                movers, on = checks, ("await_anchor", t) if last else ("seek_check", k + 1, t)
            if movers:
                j = ids.get(on)
                if j is None:
                    j = ids[on] = len(phases)
                    phases.append(on)
                    rows.append(None)
                for s in movers:
                    row[s] = (j, i)
            if role == "in_loop":
                for s in checks:
                    row[s] = ()
        elif role == "await_anchor":
            row[phase[1]] = (_ACCEPT_ID,)
        return row


def _structure_ids(table: _Table) -> range:
    """The ids of the structure NFA's states, with their rows built.  A
    phase is numbered only when a built row leads to it, so the numbered
    phases are exactly scan, accept and the phases scan reaches: building
    the row of each one in id order numbers the rest, and the ids are
    ``range(len(table.phases))``, whichever reader built rows first."""
    i = 0
    while i < len(table.phases):
        table.row(i)
        i += 1
    return range(len(table.phases))


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
    return _structure_nfa(_Table(a))


def _structure_nfa(table: _Table) -> NFA:
    a = table.a
    reached = _structure_ids(table)
    phases, rows = table.phases, table.rows
    return NFA(
        states=frozenset(phases[i] for i in reached),
        alphabet=frozenset(a.states),
        transitions=frozenset(
            (phases[i], s, phases[j])
            for i in reached
            if i != _ACCEPT_ID
            for s in a.states
            for j in rows[i].get(s, (i,))
        ),
        initial=_SCAN,
        finals=frozenset({_ACCEPT}),
    )


def witness_nfa_state_bound(a: CCA) -> int:
    s = len(a.states)
    return 2 + 2 * a.counters * s + a.counters * s * s + s


def witness_nfa_state_count(a: CCA) -> int:
    """The number of states of ``build_potential_witness_nfa(a)``, counted
    off the phase table without building the NFA."""
    return len(_structure_ids(_Table(a)))


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
    return AcceptingWitness.from_marks(word, marks)


def decide_by_product(a: CCA) -> Optional[AcceptingWitness]:
    """Decide emptiness the paper's way: intersect the witness-structure NFA
    with the path NFA and decode a shortest accepting run.

    Neither NFA is built.  One breadth-first loop runs over the product's
    nodes, a phase id with a path state ``s``, reading each state ``u`` the
    graph leads to from ``s`` off the phase's row, and creates only the
    nodes it reaches; each node's parent is the node it was reached from,
    and the word is read back from the states of the run's nodes.  The
    nodes, letters and tie-break are those of the synchronous product of
    ``build_potential_witness_nfa(a)`` and ``build_prefix_nfa(a)``, so the
    run is the one a breadth-first search of that product, built in full,
    finds: each node's edges are followed in the repr order of their
    letter, then of their phase, which is ``nfa._edge_key``'s order, with
    each state's letters sorted and each pair of phases one letter leads to
    ordered once per call.  Returns the shortest witness, or None when the
    language is empty.  The witness is re-verified by ``verify_witness``,
    whose path check passes exactly the words ``build_prefix_nfa`` accepts.
    The answer is None without a search, and without a row, when
    ``_Table.reaches_every_kind`` is False.  This is the reference
    ``decide`` is fuzzed against, not the production path.
    """
    return _product(_Table(simplify(a)))


def _product(table: _Table) -> Optional[AcceptingWitness]:
    if not table.reaches_every_kind():
        return None
    simple = table.a
    adjacency = simple.adjacency()
    phases, rows, row = table.phases, table.rows, table.row
    letters_of: dict = {None: (simple.initial,)}  # each state's letters, in repr order
    # each two-way move with its phases in repr order, worked out once:
    # every target of letter u ends in path state u, and no tuple's repr is
    # a prefix of another's, so this orders the targets as ``_edge_key`` does
    ordered: dict = {}
    start = (_SCAN_ID, None)
    parent = {start: None}
    queue = [start]
    for node in queue:  # the queue grows behind the loop
        i, s = node
        letters = letters_of.get(s)
        if letters is None:
            letters = letters_of[s] = sorted({t.target for t in adjacency[s]}, key=repr)
        entries = rows[i] or row(i)
        for u in letters:
            afters = entries.get(u, (i,))
            if len(afters) == 2:
                pair = ordered.get(afters)
                if pair is None:
                    j, k = afters
                    pair = ordered[afters] = afters if repr(phases[j]) < repr(phases[k]) else (k, j)
                afters = pair
            for j in afters:
                after = (j, u)
                if after in parent:
                    continue
                parent[after] = node
                if j == _ACCEPT_ID:
                    return _read_back(simple, parent, after)
                queue.append(after)
    return None


def _read_back(simple: CCA, parent: dict, goal: tuple) -> AcceptingWitness:
    """The verified witness of the product run that ``parent`` leads back
    from ``goal``; the word is the path states of the run's nodes."""
    run = [goal]
    while parent[run[-1]] is not None:
        run.append(parent[run[-1]])
    run.reverse()
    witness = _decode(tuple(s for _, s in run[1:]), run, simple.counters)
    if not verify_witness(simple, witness):
        raise InternalCheckError("decoded witness failed verification")
    return witness


# --------------------------------------------------------------------------
# brute-force oracle

def brute_force_witness(a: CCA, depth: int = 40) -> Optional[AcceptingWitness]:
    """Search all state paths of at most ``depth`` transitions for an
    embedded witness.

    Exhaustive path enumeration is folded into a breadth-first search over
    (state, phase set) pairs, where a path's phase set is a bit vector whose
    bit i is set when its states can reach phase i of the witness-phase
    table: two paths reaching the same pair admit exactly the same witness
    completions, so deduplicating them discards no answers, and the first
    path whose set holds ``("accept",)`` is a shortest one.  ``scan_path``
    then marks it.  The answer is None without a search, and without a
    row, when ``_Table.reaches_every_kind`` is False.
    """
    table = _Table(a)
    if depth < 0:
        raise CCAError("depth must be nonnegative")
    return _brute_force(table, depth)


def _brute_force(table: _Table, depth: int) -> Optional[AcceptingWitness]:
    if not table.reaches_every_kind():
        return None
    a, rows = table.a, table.rows
    adjacency = a.adjacency()
    # a phase set changes only at the ids whose row lists the state read:
    # ``moving[s]`` masks those ids among the phases met so far.  The same
    # such ids recur with one state in many sets, so each (state, ids)
    # pair's change is computed once: the ids that leave the set and the
    # ids that join it, which are met then
    moving: dict = {}
    met = 0
    changes: dict = {}

    def meet(i: int) -> None:
        nonlocal met
        bit = 1 << i
        met |= bit
        for s in table.row(i):
            moving[s] = moving.get(s, 0) | bit

    def step(phases: int, s: str) -> int:
        hit = phases & moving.get(s, 0)
        if not hit:
            return phases
        change = changes.get((s, hit))
        if change is None:
            after, rest = 0, hit
            while rest:
                low = rest & -rest
                rest ^= low
                for j in rows[low.bit_length() - 1][s]:
                    after |= 1 << j
                    if not met >> j & 1:
                        meet(j)
            change = changes[s, hit] = (hit & ~after, after & ~hit)
        leave, join = change
        return phases & ~leave | join

    accept = 1 << _ACCEPT_ID
    meet(_SCAN_ID)
    start = (a.initial, step(1 << _SCAN_ID, a.initial))
    parents: dict = {start: None}
    queue = deque([(start, 0)])
    goal = start if start[1] & accept else None
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
            if node2[1] & accept:
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
    witness = _scan(path, table)
    if witness is None:
        raise InternalCheckError("path search found an embedding the scan cannot recover")
    return witness


def scan_path(a: CCA, path: list[str] | tuple[str, ...]) -> Optional[AcceptingWitness]:
    """Mark one concrete path with a witness, or None when it embeds none.

    Depth-first over the witness-phase table from ``("scan",)``, one state
    of the path per step, trying a move-on before a stay and remembering
    dead ends; usable on paths from any source.
    """
    return _scan(path, _Table(a))


def _scan(path, table: _Table) -> Optional[AcceptingWitness]:
    # an explicit stack, one frame per path state, since a path may be
    # longer than the interpreter's recursion limit; a frame holds the
    # successors of its (phase id, i) not yet tried, and a frame whose
    # successors all fail marks its pair dead
    row = table.row
    dead: set = set()
    stack: list = []
    phase, i, marks = _SCAN_ID, 0, []
    while phase != _ACCEPT_ID:
        if i < len(path) and (phase, i) not in dead:
            stack.append((phase, i, marks, iter(row(phase).get(path[i], (phase,)))))
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
    return AcceptingWitness.from_marks(path, marks)
