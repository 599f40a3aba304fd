"""Deciding language emptiness of counter-check automata.

Nonemptiness is equivalent to the existence of a finite *accepting witness*
inside the set of realizable state paths: a path that returns to an anchor
state, contains one pumpable increment loop per counter (free of that
counter's checks), then one check position per counter in counter order, and
finally revisits the anchor.  All conditions mention states only, never
counter values, so the question is one about the automaton's graph, and
``decide`` answers it by a layered shortest-path search over that graph that
returns a shortest witness (see the comment above ``_shortest_witness``).
Every nonempty answer is an :class:`AcceptingWitness` that is re-verified
before it is returned.

Every entry point reads the automaton's adjacency and state partition
(lettered, inc-k and check-k states) from ``cca``, which derives both once
per automaton and keeps them on it, so the entry points a fuzz case calls
in turn on one automaton share one graph.

This module holds the decision alone.  The cross-checks, the paper's
product construction and the brute-force oracle, are in ``reference``,
which imports the witness record and its checker from here; this module
imports nothing from it, so ``empty`` and ``verify`` never load it.
"""
from __future__ import annotations

import json
import math
from collections import deque
from typing import Optional

from .cca import CCA, CCAError, InternalCheckError, Partition, is_simple, partition, simplify
from .expr import Record


class AcceptingWitness(Record):
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
    """The witness a JSON object describes; ``ValueError`` unless its path
    is a list of state names and every index a JSON integer."""
    data = json.loads(text)

    def index(value) -> int:
        if type(value) is not int:
            raise TypeError(f"index {value!r} is not an integer")
        return value

    try:
        path = data["path"]
        if not isinstance(path, list) or not all(isinstance(s, str) for s in path):
            raise TypeError("path is not a list of state names")
        return AcceptingWitness(
            path=tuple(path),
            begin=index(data["begin"]),
            pairs=tuple((index(b), index(e)) for b, e in data["pairs"]),
            checks=tuple(index(c) for c in data["checks"]),
            end=index(data["end"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed witness JSON: {err}") from None


# --------------------------------------------------------------------------
# the simple automaton and its partition

def _partition(a: CCA, purpose: str) -> Partition:
    """The partition of a simple automaton; a ``CCAError`` naming
    ``purpose`` for any other automaton."""
    if not is_simple(a):
        raise CCAError(f"{purpose} requires a simple automaton")
    return partition(a)


def _simple(a: CCA) -> CCA:
    """The simple automaton a decision works on: ``a`` itself, found by
    the kept classification without ``simplify``'s walk, or its
    simplification."""
    return a if is_simple(a) else simplify(a)


# --------------------------------------------------------------------------
# verification

def verify_witness(a: CCA, w: AcceptingWitness) -> bool:
    """Check every witness condition against a simple automaton.

    Reads only the state path, never counter values.
    """
    part = _partition(a, "witness verification")
    return _verify(a, w, part)


def _verify(a: CCA, w: AcceptingWitness, part: Partition) -> bool:
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
# t's strongly connected component, and only a *candidate* component, one
# holding a lettered state and an inc-k and a check-k state for every k,
# can hold a witness.  Without a candidate the language is empty, decided
# before any spread; the search then covers the candidates alone.  For one
# anchor the least closed walk takes 2N+1 breadth-first spreads, each
# seeded with the costs of the previous layer: O(N·(|S|+|E|)).  One
# backward pass of the same spreads over the candidates, ending at any
# anchor instead of at t, bounds every anchor from below, so only anchors
# whose bound can still win are searched, and none when the language is
# empty.  A least bound above MAX_WITNESS states refuses the input before
# any forward spread.
#
# One breadth-first pass from the initial state, successors in adjacency
# order, finds the reachable states with their distances and parents.  They
# are then numbered in name order: succ[i] lists the numbers of i's
# successors in adjacency order, and every table is a list indexed by state
# number, so "smallest name" and "name order" are index order.  Names come
# back only when the witness is built.  No table outlives the call.

# the longest certificate, in states, that a decision may return: n = 100
# letters of the flat word (a b a b ...)^w need 99,900, decided in about
# 3 s at 42 MB on a 2-vCPU machine; a shortest witness grows about as
# 10·n², so longer ones soon take minutes
MAX_WITNESS = 100_000


def _breadth_first(adjacency: dict, initial: str) -> tuple[dict, dict]:
    """The breadth-first parents (None at ``initial``) and distances of
    the states reachable from ``initial``, successors in adjacency order."""
    parent = {initial: None}
    dist = {initial: 0}
    queue = [initial]
    for here in queue:  # the queue grows behind the loop
        further = dist[here] + 1
        for t in adjacency[here]:
            there = t.target
            if there not in parent:
                parent[there] = here
                dist[there] = further
                queue.append(there)
    return parent, dist


def _components(succ: list, root: int) -> list:
    """Strongly connected component of every state reachable from ``root``,
    named by one of its members (iterative Tarjan); None elsewhere."""
    size = len(succ)
    index: list = [None] * size
    low = [0] * size
    component: list = [None] * size
    on_stack = [False] * size
    stack: list[int] = []
    work: list = []
    visited = 0

    def visit(s: int) -> None:
        nonlocal visited
        index[s] = low[s] = visited
        visited += 1
        stack.append(s)
        on_stack[s] = True
        work.append((s, iter(succ[s])))

    visit(root)
    while work:
        here, successors = work[-1]
        for there in successors:
            if index[there] is None:
                visit(there)
                break
            if on_stack[there]:
                low[here] = min(low[here], index[there])
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[here])
            if low[here] == index[here]:
                while True:
                    s = stack.pop()
                    on_stack[s] = False
                    component[s] = here
                    if s == here:
                        break
    return component


def _walk(succ: list, source: int, target: int, avoid=frozenset()) -> Optional[list[int]]:
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


def _spread(succ: list, seeds: list, limit: float = math.inf) -> tuple[list, list]:
    """Least ``c + d+(u, v)`` over the seeds ``(c, u)`` for every state v,
    and the seed u that attains it (None where v is not reached); costs
    above ``limit`` are not explored.

    A breadth-first search by cost level that marks a state when it is
    first pushed.  Level l + 1 takes the seeds of cost l first, in the order
    given, then the growth of level l in order, successors in adjacency
    order, so of equal costs the first to reach v wins.
    """
    cost: list = [None] * len(succ)
    origin: list = [None] * len(succ)
    injections: dict[int, list[int]] = {}
    for c, u in seeds:
        if c < limit:
            injections.setdefault(c + 1, []).append(u)
    frontier: list[int] = []
    level = 0
    while injections or frontier:
        if not frontier:
            level = min(injections)
        if level > limit:
            break
        grown = []
        for u in injections.pop(level, ()):
            for v in succ[u]:
                if cost[v] is None:
                    cost[v] = level
                    origin[v] = u
                    grown.append(v)
        for here in frontier:
            u = origin[here]
            for v in succ[here]:
                if cost[v] is None:
                    cost[v] = level
                    origin[v] = u
                    grown.append(v)
        frontier = grown
        level += 1
    return cost, origin


class EmptinessReport(Record):
    empty: bool
    witness: Optional[AcceptingWitness]
    simple: CCA


def _shortest_witness(a: CCA, part: Partition) -> Optional[AcceptingWitness]:
    """The layered search on a simple automaton.

    Tie-breaks: of the anchors with the least total the smallest name wins.
    Its chain of inc and check states is traced back from the anchor
    through the seed each spread recorded, every layer's seeds in name
    order; each segment between them is the walk :func:`_walk` finds.
    Raises ``CCAError`` when no witness has at most ``MAX_WITNESS`` states.
    """
    adjacency = a.adjacency()
    parent, dist = _breadth_first(adjacency, a.initial)
    # a witness visits a lettered state and, for every k, an inc-k and a
    # check-k state, all in one strongly connected component: first each
    # must be reachable, then one component must hold them all
    if any(dist.keys().isdisjoint(states) for states in (part.lettered, *part.inc, *part.check)):
        return None
    names = sorted(dist)
    number = {s: i for i, s in enumerate(names)}
    succ = [tuple(number[t.target] for t in adjacency[s]) for s in names]
    n = a.counters
    component = _components(succ, number[a.initial])

    def holders(states: frozenset[str]) -> set[int]:
        return {component[number[s]] for s in states if s in number}

    candidates = holders(part.lettered)
    for k in range(n):
        if not candidates:
            break
        candidates &= holders(part.inc[k]) & holders(part.check[k])
    if not candidates:
        return None

    # closed walks only need the edges inside the candidates; the pass that
    # takes them also numbers each candidate's members in name order
    local: list[tuple[int, ...]] = [()] * len(succ)
    back: list[list[int]] = [[] for _ in succ]
    members_of: dict[int, list[int]] = {root: [] for root in candidates}
    at: dict[int, int] = {}
    for here, root in enumerate(component):
        if root in members_of:
            local[here] = out = tuple(there for there in succ[here] if component[there] == root)
            for there in out:
                back[there].append(here)
            members = members_of[root]
            at[here] = len(members)
            members.append(here)

    def numbers(states: frozenset[str]) -> list[int]:
        found = (number[s] for s in states if s in number)
        return sorted(s for s in found if component[s] in members_of)

    anchors = numbers(part.lettered)
    inc = [numbers(part.inc[k]) for k in range(n)]
    check = [numbers(part.check[k]) for k in range(n)]
    avoid = [frozenset(c) for c in check]
    loops: dict[tuple[int, int], Optional[list[int]]] = {}

    def loop(k: int, p: int) -> Optional[list[int]]:
        if (k, p) not in loops:
            loops[k, p] = _walk(local, p, p, avoid[k])
        return loops[k, p]

    def pumped(cost: list, k: int, incs: list, members) -> list[tuple[int, int]]:
        return [
            (cost[p] + len(loop(k, members[p])) - 1, p)
            for p in incs[k]
            if cost[p] is not None and loop(k, members[p]) is not None
        ]

    def checked(cost: list, k: int, checks: list) -> list[tuple[int, int]]:
        return [(cost[c], c) for c in checks[k] if cost[c] is not None]

    # backward: the least closed walk from each anchor to any anchor
    cost = _spread(back, [(0, t) for t in anchors])[0]
    for k in reversed(range(n)):
        cost = _spread(back, checked(cost, k, check))[0]
    for k in reversed(range(n)):
        cost = _spread(back, pumped(cost, k, inc, range(len(succ))))[0]
    bounds = sorted((dist[names[t]] + cost[t], t) for t in anchors if cost[t] is not None)
    if bounds and bounds[0][0] + 1 > MAX_WITNESS:
        raise CCAError(
            f"a shortest witness has at least {bounds[0][0] + 1} states, more than {MAX_WITNESS}"
        )

    # forward, anchor by anchor, while the bound can still win; each
    # anchor's spreads run on its component's block alone: the members, their
    # successors inside it and its inc-k and check-k members, all renumbered
    blocks: dict[int, tuple] = {}

    def block(root: int) -> tuple:
        if root not in blocks:
            members = members_of[root]
            blocks[root] = (
                members,
                [tuple(at[there] for there in local[s]) for s in members],
                [[at[p] for p in ps if component[p] == root] for ps in inc],
                [[at[c] for c in cs if component[c] == root] for cs in check],
            )
        return blocks[root]

    best = None  # (total, anchor, the anchor's 2N+1 spreads, its block's members)
    for bound, t in bounds:
        if best is not None and (bound, t) > best[:2]:
            break  # neither this anchor nor a later one can beat the best
        # a later name has to be strictly shorter to win
        depth = dist[names[t]]
        limit = math.inf if best is None else best[0] - depth - (1 if t > best[1] else 0)
        members, sub, incs, checks = block(component[t])
        start = at[t]
        spreads = [_spread(sub, [(0, start)], limit)]
        for k in range(n):
            spreads.append(_spread(sub, pumped(spreads[-1][0], k, incs, members), limit))
        for k in range(n):
            spreads.append(_spread(sub, checked(spreads[-1][0], k, checks), limit))
        closing = spreads[-1][0][start]
        if closing is not None:
            total = depth + closing
            if best is None or (total, t) < best[:2]:
                best = (total, t, spreads, members)
    if best is None:
        return None

    total, t, spreads, members = best
    chain = [at[t]]
    for _, origin in reversed(spreads):
        chain.append(origin[chain[-1]])
    chain = [members[j] for j in reversed(chain)]  # t, p1..pN, c1..cN, t
    prefix = [names[t]]
    while parent[prefix[-1]] is not None:
        prefix.append(parent[prefix[-1]])
    path = [number[s] for s in reversed(prefix)]
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
    return AcceptingWitness(
        tuple(names[i] for i in path), begin, tuple(pairs), tuple(checks), end
    )


def decide(a: CCA) -> EmptinessReport:
    """Decide emptiness; every nonempty answer carries a verified shortest
    witness."""
    simple = _simple(a)
    part = partition(simple)
    witness = _shortest_witness(simple, part)
    if witness is None:
        return EmptinessReport(True, None, simple)
    if not _verify(simple, witness, part):
        raise InternalCheckError("layered witness failed verification")
    return EmptinessReport(False, witness, simple)


def is_empty(a: CCA) -> bool:
    return decide(a).empty


# the benchmark's oracle check still reads ``emptiness.brute_force_witness``;
# ROADMAP item 5 points it at ``reference`` and deletes this alias
def __getattr__(name: str):
    if name == "brute_force_witness":
        from .reference import brute_force_witness

        return brute_force_witness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
