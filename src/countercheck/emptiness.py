"""Deciding language emptiness of counter-check automata.

Nonemptiness is equivalent to the existence of a finite *accepting witness*
inside the set of realizable state paths: a path that returns to an anchor
state, contains one pumpable increment loop per counter (free of that
counter's checks), then one check position per counter in counter order, and
finally revisits the anchor.  All conditions mention states only, never
counter values, so the question is one about the automaton's graph:

* ``decide`` runs a layered shortest-path search over that graph and
  returns a shortest witness (see the comment above ``_shortest_witness``);
* ``decide_by_product`` is the paper's construction, kept as the reference
  the fuzzer compares ``decide`` with: ``build_potential_witness_nfa``
  accepts exactly the words over the state set that carry witness structure,
  ``build_prefix_nfa`` exactly the realizable state paths, and their product
  is empty iff the language of the automaton is.

Every nonempty answer is an :class:`AcceptingWitness` that is re-verified
before it is returned; ``brute_force_witness`` provides the same answer by
a direct search over paths and serves as the independent oracle.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cca import CCA, CCAError, is_simple, simplify, state_kinds
from .nfa import NFA, accepts, intersect, shortest_accepting_run


class InternalCheckError(RuntimeError):
    """A decoded certificate failed re-verification; this is a bug, never a
    legitimate outcome."""


@dataclass(frozen=True)
class AcceptingWitness:
    path: tuple[str, ...]
    begin: int
    pairs: tuple[tuple[int, int], ...]  # one (loop entry, loop exit) per counter
    checks: tuple[int, ...]  # ordered check positions, one per counter
    end: int

    def to_json_dict(self) -> dict:
        return {
            "path": list(self.path),
            "begin": self.begin,
            "pairs": [list(p) for p in self.pairs],
            "checks": list(self.checks),
            "end": self.end,
        }


def witness_from_json(text: str) -> AcceptingWitness:
    data = json.loads(text)
    try:
        return AcceptingWitness(
            path=tuple(data["path"]),
            begin=int(data["begin"]),
            pairs=tuple((int(b), int(e)) for b, e in data["pairs"]),
            checks=tuple(int(c) for c in data["checks"]),
            end=int(data["end"]),
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed witness JSON: {err}") from None


# --------------------------------------------------------------------------
# state bookkeeping for simple automata

@dataclass(frozen=True)
class _Partition:
    lettered: frozenset[str]  # states firing a lettered transition
    inc: tuple[frozenset[str], ...]  # per counter, 1-based at index k-1
    check: tuple[frozenset[str], ...]


def _partition(a: CCA, adjacency: Optional[dict] = None) -> _Partition:
    if adjacency is None:
        adjacency = a.adjacency()
    inc: list[set[str]] = [set() for _ in range(a.counters)]
    check: list[set[str]] = [set() for _ in range(a.counters)]
    for s, kind in state_kinds(a, adjacency).items():
        if kind.kind == "inc":
            inc[kind.counter - 1].add(s)
        elif kind.kind == "check":
            check[kind.counter - 1].add(s)
    lettered = frozenset(
        s for s, out in adjacency.items() if any(t.label is not None for t in out)
    )
    return _Partition(lettered, tuple(map(frozenset, inc)), tuple(map(frozenset, check)))


# --------------------------------------------------------------------------
# verification

def verify_witness(a: CCA, w: AcceptingWitness) -> bool:
    """Check every witness condition against a simple automaton.

    Reads only the state path, never counter values.
    """
    if not is_simple(a):
        raise CCAError("witness verification requires a simple automaton")
    n = len(w.path) - 1
    if n < 0 or len(w.pairs) != a.counters or len(w.checks) != a.counters:
        return False
    indexes = [w.begin, *(i for pair in w.pairs for i in pair), *w.checks, w.end]
    if any(not isinstance(i, int) or i < 0 or i > n for i in indexes):
        return False
    if any(left >= right for left, right in zip(indexes, indexes[1:])):
        return False

    # realizable path from the initial state
    if w.path[0] != a.initial:
        return False
    edges = {(t.source, t.target) for t in a.transitions}
    if any((s, t) not in edges for s, t in zip(w.path, w.path[1:])):
        return False

    part = _partition(a)
    anchor = w.path[w.begin]
    if anchor not in part.lettered:
        return False
    if w.path[w.end] != anchor:
        return False
    for counter, (loop_in, loop_out) in enumerate(w.pairs, start=1):
        if w.path[loop_in] != w.path[loop_out]:
            return False
        if w.path[loop_in] not in part.inc[counter - 1]:
            return False
        if any(
            w.path[j] in part.check[counter - 1] for j in range(loop_in, loop_out + 1)
        ):
            return False
    for counter, position in enumerate(w.checks, start=1):
        if w.path[position] not in part.check[counter - 1]:
            return False
    return True


# --------------------------------------------------------------------------
# the witness-structure NFA (reads state sequences as words)

def build_potential_witness_nfa(a: CCA) -> NFA:
    """NFA over the automaton's state set accepting words with witness
    structure, realizable or not.

    State roles: ``scan`` before the anchor guess; ``seek_inc``/``in_loop``
    guess and close each counter's pump loop; ``seek_check`` collects the
    ordered check positions; ``await_anchor`` waits for the anchor state to
    recur.  The state count is bounded by 2 + 2*N*|S| + N*|S|^2 + |S|.
    """
    if not is_simple(a):
        raise CCAError("the witness-structure NFA requires a simple automaton")
    part = _partition(a)
    everything = sorted(a.states)
    n = a.counters

    scan = ("scan",)
    accept = ("accept",)
    states = {scan, accept}
    transitions = set()

    for s in everything:
        transitions.add((scan, s, scan))
    for anchor in sorted(part.lettered):
        states.add(("seek_inc", 1, anchor))
        transitions.add((scan, anchor, ("seek_inc", 1, anchor)))
        for k in range(1, n + 1):
            seek = ("seek_inc", k, anchor)
            states.add(seek)
            for s in everything:
                transitions.add((seek, s, seek))
            for pump in sorted(part.inc[k - 1]):
                loop = ("in_loop", k, anchor, pump)
                states.add(loop)
                transitions.add((seek, pump, loop))
                for s in everything:
                    if s not in part.check[k - 1]:
                        transitions.add((loop, s, loop))
                after = ("seek_check", 1, anchor) if k == n else ("seek_inc", k + 1, anchor)
                states.add(after)
                transitions.add((loop, pump, after))
        for k in range(1, n + 1):
            seek = ("seek_check", k, anchor)
            states.add(seek)
            for s in everything:
                transitions.add((seek, s, seek))
            after = ("await_anchor", anchor) if k == n else ("seek_check", k + 1, anchor)
            states.add(after)
            for c in sorted(part.check[k - 1]):
                transitions.add((seek, c, after))
        waiting = ("await_anchor", anchor)
        for s in everything:
            if s != anchor:
                transitions.add((waiting, s, waiting))
        transitions.add((waiting, anchor, accept))

    return NFA(
        states=frozenset(states),
        alphabet=frozenset(a.states),
        transitions=frozenset(transitions),
        initial=scan,
        finals=frozenset({accept}),
    )


def witness_nfa_state_bound(a: CCA) -> int:
    s = len(a.states)
    return 2 + 2 * a.counters * s + a.counters * s * s + s


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

def _decode(word: tuple[str, ...], product_path: tuple) -> AcceptingWitness:
    begin = end = None
    pairs: list[tuple[int, int]] = []
    open_loop = None
    checks: list[int] = []
    for i, (before, after) in enumerate(zip(product_path, product_path[1:])):
        q, q2 = before[0], after[0]
        if q == q2:
            continue
        role = q[0]
        if role == "scan":
            begin = i
        elif role == "seek_inc":
            open_loop = i
        elif role == "in_loop":
            pairs.append((open_loop, i))
        elif role == "seek_check":
            checks.append(i)
        elif role == "await_anchor":
            end = i
    if begin is None or end is None:
        raise InternalCheckError("accepted product run has no witness structure")
    return AcceptingWitness(tuple(word), begin, tuple(pairs), tuple(checks), end)


def decide_by_product(a: CCA) -> tuple[Optional[AcceptingWitness], NFA]:
    """Decide emptiness the paper's way: intersect the witness-structure NFA
    with the path NFA and decode a shortest accepting run.

    Returns the re-verified shortest witness (None when the language is
    empty) and the structure NFA that was built.  The full product costs
    O(N·|S|²·|E|) transitions, so this is the reference ``decide`` is fuzzed
    against, not the production path.
    """
    simple = a if is_simple(a) else simplify(a)
    structure = build_potential_witness_nfa(simple)
    prefixes = build_prefix_nfa(simple)
    run = shortest_accepting_run(intersect(structure, prefixes))
    if run is None:
        return None, structure
    witness = _decode(*run)
    if not verify_witness(simple, witness):
        raise InternalCheckError("decoded witness failed verification")
    if not accepts(prefixes, witness.path):
        raise InternalCheckError("decoded witness path is not a realizable path")
    return witness, structure


# --------------------------------------------------------------------------
# the decision procedure: a layered shortest-witness search
#
# A witness path splits at its marked positions into segments, so the length
# of a shortest one is the least
#
#   d0(init, t) + d+(t, p1) + L1(p1) + d+(p1, p2) + ... + LN(pN)
#               + d+(pN, c1) + d+(c1, c2) + ... + d+(cN, t)
#
# over lettered anchors t, inc-k states pk and check-k states ck.  d0 is the
# breadth-first distance over walks of length >= 0, d+ over walks of length
# >= 1, and Lk(p) the shortest closed walk at p that avoids the check-k
# states.  Everything after d0 is a closed walk through t, so it stays in
# t's strongly connected component.  For one anchor the least closed walk
# takes 2N+1 breadth-first spreads, each seeded with the costs of the
# previous layer: O(N·(|S|+|E|)).  One backward pass of the same spreads,
# ending at any anchor instead of at t, bounds every anchor from below, so
# only anchors whose bound can still win are searched, and none when the
# language is empty.  No table outlives the call.

def _search_tree(succ: dict, root: str) -> tuple[dict, dict]:
    """Breadth-first distances and parents from ``root``."""
    dist = {root: 0}
    parent: dict = {root: None}
    queue = deque([root])
    while queue:
        here = queue.popleft()
        for there in succ[here]:
            if there not in dist:
                dist[there] = dist[here] + 1
                parent[there] = here
                queue.append(there)
    return dist, parent


def _components(succ: dict, root: str) -> dict[str, str]:
    """Strongly connected component of every state reachable from ``root``,
    named by one of its members (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    component: dict[str, str] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    work: list = []

    def visit(s: str) -> None:
        index[s] = low[s] = len(index)
        stack.append(s)
        on_stack.add(s)
        work.append((s, iter(succ[s])))

    visit(root)
    while work:
        here, successors = work[-1]
        for there in successors:
            if there not in index:
                visit(there)
                break
            if there in on_stack:
                low[here] = min(low[here], index[there])
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[here])
            if low[here] == index[here]:
                while True:
                    s = stack.pop()
                    on_stack.discard(s)
                    component[s] = here
                    if s == here:
                        break
    return component


def _walk(succ: dict, source: str, target: str, avoid=frozenset()) -> Optional[list[str]]:
    """A shortest walk of at least one step from ``source`` to ``target``
    that enters no state of ``avoid``, both ends included; breadth-first
    with successors in adjacency order, so the first shortest walk wins."""
    parent: dict = {}
    queue = deque([source])
    while queue and target not in parent:
        here = queue.popleft()
        for there in succ[here]:
            if there not in parent and there not in avoid:
                parent[there] = here
                queue.append(there)
    if target not in parent:
        return None
    walk = [target]
    here = parent[target]
    while here != source:
        walk.append(here)
        here = parent[here]
    walk.append(source)
    walk.reverse()
    return walk


def _spread(succ: dict, seeds: list, limit: float = math.inf) -> dict[str, tuple[int, str]]:
    """Least ``c + d+(u, v)`` over the seeds ``(c, u)`` for every state v,
    with the seed u that attains it; costs above ``limit`` are not explored.

    A breadth-first search bucketed by cost.  Of equal costs the first to
    reach v wins: seeds are expanded in the order given, before the states
    they reach, and successors in adjacency order.
    """
    buckets: dict[int, list] = {}
    for cost, seed in seeds:
        if cost < limit:
            buckets.setdefault(cost + 1, []).extend((there, seed) for there in succ[seed])
    reached: dict[str, tuple[int, str]] = {}
    level = min(buckets, default=0)
    while buckets and level <= limit:
        grown = []
        for here, seed in buckets.pop(level, ()):
            if here not in reached:
                reached[here] = (level, seed)
                grown += [(there, seed) for there in succ[here] if there not in reached]
        if grown and level < limit:
            buckets.setdefault(level + 1, []).extend(grown)
        level += 1
    return reached


@dataclass(frozen=True)
class EmptinessReport:
    empty: bool
    witness: Optional[AcceptingWitness]
    simple: CCA


def _shortest_witness(a: CCA) -> Optional[AcceptingWitness]:
    """The layered search on a simple automaton.

    Tie-breaks: of the anchors with the least total the smallest name wins.
    Its chain of inc and check states is traced back from the anchor
    through the seed each spread recorded, every layer's seeds in name
    order; each segment between them is the walk :func:`_walk` finds.
    """
    adjacency = a.adjacency()
    part = _partition(a, adjacency)
    succ = {s: tuple(t.target for t in out) for s, out in adjacency.items()}
    n = a.counters
    dist, parent = _search_tree(succ, a.initial)
    component = _components(succ, a.initial)
    # closed walks never leave a component, so they only need these edges
    local = {
        s: tuple(there for there in succ[s] if component[there] == component[s])
        for s in sorted(component)
    }
    back: dict[str, list[str]] = {s: [] for s in local}
    for s, targets in local.items():
        for there in targets:
            back[there].append(s)
    anchors = sorted(part.lettered & component.keys())
    inc = [sorted(part.inc[k] & component.keys()) for k in range(n)]
    check = [sorted(part.check[k] & component.keys()) for k in range(n)]
    loops: dict[tuple[int, str], Optional[list[str]]] = {}

    def loop(k: int, p: str) -> Optional[list[str]]:
        if (k, p) not in loops:
            loops[k, p] = _walk(local, p, p, part.check[k])
        return loops[k, p]

    def pumped(reached: dict, k: int) -> list[tuple[int, str]]:
        return [
            (reached[p][0] + len(loop(k, p)) - 1, p)
            for p in inc[k]
            if p in reached and loop(k, p) is not None
        ]

    def checked(reached: dict, k: int) -> list[tuple[int, str]]:
        return [(reached[c][0], c) for c in check[k] if c in reached]

    # backward: the least closed walk from each anchor to any anchor
    reached = _spread(back, [(0, t) for t in anchors])
    for k in reversed(range(n)):
        reached = _spread(back, checked(reached, k))
    for k in reversed(range(n)):
        reached = _spread(back, pumped(reached, k))
    bounds = sorted((dist[t] + reached[t][0], t) for t in anchors if t in reached)

    # forward, anchor by anchor, while the bound can still win
    best = None  # (total, anchor, the anchor's 2N+1 spreads)
    for bound, t in bounds:
        if best is not None and (bound, t) > best[:2]:
            break  # neither this anchor nor a later one can beat the best
        # a later name has to be strictly shorter to win
        limit = math.inf if best is None else best[0] - dist[t] - (1 if t > best[1] else 0)
        spreads = [_spread(local, [(0, t)], limit)]
        for k in range(n):
            spreads.append(_spread(local, pumped(spreads[-1], k), limit))
        for k in range(n):
            spreads.append(_spread(local, checked(spreads[-1], k), limit))
        if t in spreads[-1]:
            total = dist[t] + spreads[-1][t][0]
            if best is None or (total, t) < best[:2]:
                best = (total, t, spreads)
    if best is None:
        return None

    total, t, spreads = best
    chain = [t]
    for reached in reversed(spreads):
        chain.append(reached[chain[-1]][1])
    chain.reverse()  # t, p1..pN, c1..cN, t
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    begin = len(path) - 1
    pairs = []
    for k, (here, pump) in enumerate(zip(chain, chain[1 : n + 1])):
        path += _walk(local, here, pump)[1:]
        opened = len(path) - 1
        path += loop(k, pump)[1:]
        pairs.append((opened, len(path) - 1))
    checks = []
    for here, there in zip(chain[n:], chain[n + 1 :]):
        path += _walk(local, here, there)[1:]
        checks.append(len(path) - 1)
    end = checks.pop()
    if len(path) - 1 != total:
        raise InternalCheckError("certificate length differs from the layered minimum")
    return AcceptingWitness(tuple(path), begin, tuple(pairs), tuple(checks), end)


def decide(a: CCA) -> EmptinessReport:
    """Decide emptiness; every nonempty answer carries a verified shortest
    witness."""
    simple = a if is_simple(a) else simplify(a)
    witness = _shortest_witness(simple)
    if witness is None:
        return EmptinessReport(True, None, simple)
    if not verify_witness(simple, witness):
        raise InternalCheckError("layered witness failed verification")
    return EmptinessReport(False, witness, simple)


def is_empty(a: CCA) -> bool:
    return decide(a).empty


# --------------------------------------------------------------------------
# brute-force oracle
#
# Progress tokens walk the witness conditions directly:
#   ("pre",)                   before the anchor guess
#   ("begun", t, k)            anchor t fixed; seeking counter k's pump state
#   ("looping", t, k, p)       inside counter k's loop anchored at p
#   ("checks", t, k)           loops done; seeking counter k's check position
#   ("anchor", t)              checks done; waiting to reread t
#   ("done",)                  complete witness embedded

_PRE = ("pre",)
_DONE = ("done",)


def _advance_tokens(tokens: frozenset, letter: str, part: _Partition, n: int) -> frozenset:
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
                out.add(("begun", anchor, k + 1) if k < n else ("checks", anchor, 1))
        elif role == "checks":
            _, anchor, k = token
            out.add(token)
            if letter in part.check[k - 1]:
                out.add(("checks", anchor, k + 1) if k < n else ("anchor", anchor))
        elif role == "anchor":
            out.add(token)
            if letter == token[1]:
                out.add(_DONE)
        else:
            out.add(token)
    return frozenset(out)


def brute_force_witness(a: CCA, depth: int = 40) -> Optional[AcceptingWitness]:
    """Search all state paths of at most ``depth`` transitions for an
    embedded witness.

    Exhaustive path enumeration is folded into a breadth-first search over
    (state, progress-token set) pairs: two paths reaching the same pair admit
    exactly the same witness completions, so deduplicating them discards no
    answers and a shortest embedding path is found first.
    """
    if not is_simple(a):
        raise CCAError("the brute-force search requires a simple automaton")
    if depth < 0:
        raise CCAError("depth must be nonnegative")
    part = _partition(a)
    n = a.counters
    adjacency = a.adjacency()

    start_frontier = _advance_tokens(frozenset({_PRE}), a.initial, part, n)
    start = (a.initial, start_frontier)
    parents: dict = {start: None}
    queue = deque([(start, 0)])
    goal = start if _DONE in start_frontier else None
    while queue and goal is None:
        (node, used) = queue.popleft()
        if used >= depth:
            continue
        state, frontier = node
        for t in adjacency[state]:
            frontier2 = _advance_tokens(frontier, t.target, part, n)
            node2 = (t.target, frontier2)
            if node2 in parents:
                continue
            parents[node2] = node
            if _DONE in frontier2:
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
    witness = scan_path(a, path)
    if witness is None:
        raise InternalCheckError("path search found an embedding the scan cannot recover")
    return witness


def scan_path(a: CCA, path: list[str] | tuple[str, ...]) -> Optional[AcceptingWitness]:
    """Dynamic scan of one concrete path for a witness index assignment.

    Depth-first over progress tokens with memoized dead ends; independent of
    the NFA pipeline and usable on paths from any source.
    """
    if not is_simple(a):
        raise CCAError("the path scan requires a simple automaton")
    part = _partition(a)
    n = a.counters
    dead: set = set()

    def run(token, i, acc) -> Optional[dict]:
        if (token, i) in dead:
            return None
        if i == len(path):
            dead.add((token, i))
            return None
        letter = path[i]
        role = token[0]
        if role == "anchor" and letter == token[1]:
            return dict(acc, end=i)
        moves = []
        if role == "pre":
            if letter in part.lettered:
                moves.append((("begun", letter, 1), {"begin": i}))
            moves.append((token, {}))
        elif role == "begun":
            _, anchor, k = token
            if letter in part.inc[k - 1]:
                moves.append((("looping", anchor, k, letter), {f"open{k}": i}))
            moves.append((token, {}))
        elif role == "looping":
            _, anchor, k, pump = token
            if letter == pump:
                nxt = ("begun", anchor, k + 1) if k < n else ("checks", anchor, 1)
                moves.append((nxt, {f"close{k}": i}))
            if letter not in part.check[k - 1]:
                moves.append((token, {}))
        elif role == "checks":
            _, anchor, k = token
            if letter in part.check[k - 1]:
                nxt = ("checks", anchor, k + 1) if k < n else ("anchor", anchor)
                moves.append((nxt, {f"check{k}": i}))
            moves.append((token, {}))
        else:  # anchor, letter != t
            moves.append((token, {}))
        for nxt, updates in moves:
            result = run(nxt, i + 1, {**acc, **updates})
            if result is not None:
                return result
        dead.add((token, i))
        return None

    assignment = run(_PRE, 0, {})
    if assignment is None:
        return None
    return AcceptingWitness(
        path=tuple(path),
        begin=assignment["begin"],
        pairs=tuple((assignment[f"open{k}"], assignment[f"close{k}"]) for k in range(1, n + 1)),
        checks=tuple(assignment[f"check{k}"] for k in range(1, n + 1)),
        end=assignment["end"],
    )
