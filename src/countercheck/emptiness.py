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

Every entry point takes the automaton alone and reads its adjacency and
state partition (lettered, inc-k and check-k states) from ``cca``, which
derives both once per automaton and keeps them on it, so the entry points
a fuzz case calls in turn on one automaton share one graph.  ``decide``
starts from ``simplify``, which returns a simple automaton itself.

This module holds the decision alone.  The cross-checks, the paper's
product construction and the brute-force oracle, are in ``reference``,
which imports the witness record and its checker from here; this module
imports nothing from it, so ``empty`` and ``verify`` never load it.
"""
from __future__ import annotations

import itertools
import json
import math
from typing import Iterator, Optional

from .cca import CCA, CCAError, InternalCheckError, is_simple, partition, simplify
from .expr import Record


class AcceptingWitness(Record):
    path: tuple[str, ...]
    begin: int
    pairs: tuple[tuple[int, int], ...]  # one (loop entry, loop exit) per counter
    checks: tuple[int, ...]  # ordered check positions, one per counter
    end: int

    @classmethod
    def from_marks(cls, path, marks: list[int]) -> AcceptingWitness:
        """The witness on ``path`` whose marks are ``marks``, in witness
        order: begin, then open and close for each counter, then check 1..N,
        then end."""
        n = (len(marks) - 2) // 3
        loops = marks[1 : 2 * n + 1]
        pairs = tuple(zip(loops[::2], loops[1::2]))
        return cls(tuple(path), marks[0], pairs, tuple(marks[2 * n + 1 : -1]), marks[-1])

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
# verification

def verify_witness(a: CCA, w: AcceptingWitness) -> bool:
    """Check every witness condition against a simple automaton.

    Reads only the state path, never counter values.
    """
    if not is_simple(a):
        raise CCAError("witness verification requires a simple automaton")
    part = partition(a)
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
# t's strongly connected component.  One filing pass gives every component
# with an anchor its row of the layer table: its anchors, its inc-1..inc-N
# and its check-1..check-N states, each layer in name order.  Only a
# *candidate*, a component with no empty layer, can hold a witness; without
# one the language is empty, decided before any spread, and the search
# then covers the candidates alone.
#
# A candidate whose inc and check layers hold one state each is *forced*:
# every witness through it runs along the same p1..pN, c1..cN, read off its
# row.  So the middle of every such witness, L1(p1) + d+(p1, p2) + ... +
# d+(c(N-1), cN), is one sum, found by walking that chain once, segment by
# segment, and one backward spread from p1 and one forward spread from cN
# give every anchor t of the component its d+(t, p1) and d+(cN, t), hence
# its exact total: two spreads per forced candidate, whatever N is.  The
# walks are kept for the best forced candidate so far, which builds its
# certificate from them, and only up to MAX_WITNESS states, so a refused
# chain holds no more than the graph.
#
# Every other candidate's closed walks are one sweep: 2N+1 breadth-first
# spreads through the layers in witness order, each seeded with the costs
# at the layer the one before reached, plus Lk at an inc-k layer:
# O(N·(|S|+|E|)).  Swept backward over those candidates' layers at once,
# from every anchor back to any anchor, the sweep bounds each of their
# anchors from below, so once the forced totals seed the best, only anchors
# whose bound can still beat it are swept forward, and none when the
# language is empty.  The least bound, a forced anchor's counted as if it
# had been swept (d+(cN, the nearest anchor) in place of d+(cN, t)),
# refuses the input before any forward sweep when it is above MAX_WITNESS
# states.  A sweep keeps only the spread it is seeding from and, per layer,
# the seed of each state it reached there, which is all that tracing the
# winner's chain back reads; the loop memo keeps lengths, and the winner's
# loops are walked again when its path is built.  Every state is in at most
# two layers, so besides the certificate a decision holds O(|S|+|E|),
# whatever N is.  What follows a spread reads its costs only at the states
# of the next layer, so every spread stops once it has marked the last of
# them.  The winner's exact length is refused when it exceeds MAX_WITNESS,
# before its path is built.
#
# One breadth-first pass from the initial state, successors in adjacency
# order, finds the reachable states with their distances and parents.  They
# are then numbered in name order: succ[i] lists the numbers of i's
# successors in adjacency order, every layer lists state numbers and every
# per-state array is indexed by them, so "smallest name" and "name order"
# are index order.  Names come back only when the witness is built.  A
# forward sweep runs on the same numbering, over the edges inside the
# candidates alone, so it never leaves its anchor's component.

# the longest certificate, in states, that a decision may return: n = 100
# letters of the flat word (a b a b ...)^w need 99,900, and `countercheck
# empty` prints them in 0.18-0.24 s at 19 MB on a 2-vCPU machine; a
# shortest witness grows about as 10·n², so the certificate, not the
# search, is what the limit bounds
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
    queue = [source]
    for here in queue:  # the queue grows behind the loop
        for there in succ[here]:
            if there in parent or there in avoid:
                continue
            parent[there] = here
            if there == target:  # marked once, so the search is done
                walk = [target]
                while here != source:
                    walk.append(here)
                    here = parent[here]
                walk.append(source)
                walk.reverse()
                return walk
            queue.append(there)
    return None


def _spread(succ: list, seeds: list, targets, limit: float = math.inf) -> tuple[list, list]:
    """Least ``c + d+(u, v)`` over the seeds ``(c, u)`` for every state v,
    and the seed u that attains it (None where v is not reached); costs
    above ``limit`` are not explored.

    A breadth-first search by cost level that marks a state when it is
    first pushed.  Level l + 1 takes the seeds of cost l first, in the order
    given, then the growth of level l in order, successors in adjacency
    order, so of equal costs the first to reach v wins.  A mark is final,
    so the search returns as soon as the last of ``targets``, distinct
    states, is marked: its cost and seed at every target are those of the
    full spread, and the states it has not reached yet stay None.
    """
    cost: list = [None] * len(succ)
    origin: list = [None] * len(succ)
    injections: dict[int, list[int]] = {}
    for c, u in seeds:
        if c < limit:
            injections.setdefault(c + 1, []).append(u)
    wanted = bytearray(len(succ))
    for v in targets:
        wanted[v] = 1
    left = len(targets)
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
                    if wanted[v]:
                        left -= 1
                        if not left:
                            return cost, origin
        for here in frontier:
            u = origin[here]
            for v in succ[here]:
                if cost[v] is None:
                    cost[v] = level
                    origin[v] = u
                    grown.append(v)
                    if wanted[v]:
                        left -= 1
                        if not left:
                            return cost, origin
        frontier = grown
        level += 1
    return cost, origin


def _sweep(
    graph: list, row: list, ends, loop, backward: bool = False, limit: float = math.inf
) -> tuple[list, list, list[dict]]:
    """The least closed walks over ``graph`` from ``ends`` back to them
    through ``row``'s layers in witness order, inc-1..inc-N then
    check-1..check-N, or in reverse over reversed edges.

    Each spread stops at the last state of its layer; its costs there,
    plus ``loop(k, p)`` at an inc-k layer (None: p has no loop free of
    check-k), seed the next.  Returns the last spread's costs and seeds,
    and per layer, in sweep order, a dict from its reached states to their
    seeds.
    """
    n = (len(row) - 1) // 2
    seeds = [(0, e) for e in ends]
    origins = []
    for i in range(2 * n, 0, -1) if backward else range(1, 2 * n + 1):
        cost, origin = _spread(graph, seeds, row[i], limit)
        seeds = [(cost[s], s) for s in row[i] if cost[s] is not None]
        origins.append({s: origin[s] for _, s in seeds})
        if i <= n:
            lengths = [loop(i - 1, s) for _, s in seeds]
            seeds = [(c + m, s) for (c, s), m in zip(seeds, lengths) if m is not None]
    return (*_spread(graph, seeds, ends, limit), origins)


def _segments(succ: list, chain: list[int], avoid: list) -> Iterator[Optional[list[int]]]:
    """The walks of a witness along ``chain``, p1..pN then c1..cN, in
    order: at each pk the shortest closed walk that enters no state of
    ``avoid[k - 1]`` (None when there is none), and from each state of the
    chain to the next the walk :func:`_walk` finds."""
    for i, here in enumerate(chain):
        if i < len(avoid):
            yield _walk(succ, here, here, avoid[i])
        if i + 1 < len(chain):
            yield _walk(succ, here, chain[i + 1])


class EmptinessReport(Record):
    empty: bool
    witness: Optional[AcceptingWitness]
    simple: CCA


def _shortest_witness(a: CCA) -> Optional[AcceptingWitness]:
    """The layered search on a simple automaton.

    Tie-breaks: of the anchors with the least total the smallest name wins.
    Its chain of inc and check states is read off its component's row when
    every inc and check layer there holds one state, and is otherwise
    traced back from the anchor through the seed each spread recorded,
    every layer's seeds in name order; each segment between them is the
    walk :func:`_walk` finds.  Raises ``CCAError`` when a shortest witness
    has more than ``MAX_WITNESS`` states.
    """
    part = partition(a)
    adjacency = a.adjacency()
    parent, dist = _breadth_first(adjacency, a.initial)
    # a witness visits a lettered state and, for every k, an inc-k and a
    # check-k state, all in one strongly connected component: first each
    # must be reachable, then one component must hold them all
    kinds = (part.lettered, *part.inc, *part.check)
    if any(dist.keys().isdisjoint(states) for states in kinds):
        return None
    names = sorted(dist)
    number = {s: i for i, s in enumerate(names)}
    succ = [tuple(number[t.target] for t in adjacency[s]) for s in names]
    n = a.counters
    component = _components(succ, number[a.initial])

    # the layer table: one row per component with an anchor, its layers
    # of anchors, inc-1..inc-N and check-1..check-N states, each in name
    # order; a candidate is a component with no empty layer
    table: dict[int, list[list[int]]] = {}
    for i, states in enumerate(kinds):
        for s in sorted(number[s] for s in states if s in number):
            row = table.get(component[s])
            if row is None and not i:
                row = table[component[s]] = [[] for _ in kinds]
            if row is not None:
                row[i].append(s)
    candidates = {root: row for root, row in table.items() if all(row)}
    if not candidates:
        return None

    # closed walks only need the edges inside the candidates
    local: list[tuple[int, ...]] = [()] * len(succ)
    back: list[list[int]] = [[] for _ in succ]
    for here, root in enumerate(component):
        if root in candidates:
            local[here] = out = tuple(there for there in succ[here] if component[there] == root)
            for there in out:
                back[there].append(here)

    # the check-k states a loop at an inc-k state avoids
    avoid = [frozenset(s for row in candidates.values() for s in row[i]) for i in range(n + 1, 2 * n + 1)]

    # the forced candidates: every witness runs through the one chain of
    # their row, so each is walked once and spread from at both ends
    best = (math.inf, -1, None, None)  # (total, anchor, its chain p1..cN, the walks between)
    floor = math.inf  # the least backward bound of a forced anchor
    free = []  # the other candidates' rows
    for row in candidates.values():
        if any(len(layer) > 1 for layer in row[1:]):
            free.append(row)
            continue
        chain = [layer[0] for layer in row[1:]]
        middle, kept = 0, []
        for walk in _segments(local, chain, avoid):
            if walk is None:
                break  # some pk has no loop free of check-k: no witness here
            middle += len(walk) - 1
            if kept is not None:
                kept.append(walk)
                if middle >= MAX_WITNESS:
                    kept = None  # too long to be returned: its length will do
        else:
            into = _spread(back, [(0, chain[0])], row[0])[0]
            out = _spread(local, [(0, chain[-1])], row[0])[0]
            nearest = min(out[u] for u in row[0])
            for u in row[0]:
                depth = dist[names[u]] + into[u] + middle
                floor = min(floor, depth + nearest)
                if (depth + out[u], u) < best[:2]:
                    best = (depth + out[u], u, chain, kept)

    loops: dict[tuple[int, int], Optional[int]] = {}  # lengths only

    def loop(k: int, p: int) -> Optional[int]:
        if (k, p) not in loops:
            walk = _walk(local, p, p, avoid[k])
            loops[k, p] = None if walk is None else len(walk) - 1
        return loops[k, p]

    # backward over every other candidate's layers at once: the least
    # closed walk from each anchor to any anchor
    bounds = []
    if free:
        joined = [[s for row in free for s in row[i]] for i in range(len(kinds))]
        cost = _sweep(back, joined, joined[0], loop, backward=True)[0]
        bounds = sorted((dist[names[t]] + cost[t], t) for t in joined[0] if cost[t] is not None)
    least = min([floor, *(bound for bound, _ in bounds[:1])])
    if least == math.inf:
        return None
    if least + 1 > MAX_WITNESS:
        raise CCAError(f"a shortest witness has at least {least + 1} states, more than {MAX_WITNESS}")

    # forward, anchor by anchor, while the bound can still win
    for bound, t in bounds:
        if (bound, t) > best[:2]:
            break  # neither this anchor nor a later one can beat the best
        depth = dist[names[t]]
        # a later name has to be strictly shorter to win
        limit = best[0] - depth - (1 if t > best[1] else 0)
        closing, origin, origins = _sweep(local, candidates[component[t]], (t,), loop, limit=limit)
        if closing[t] is not None and (depth + closing[t], t) < best[:2]:
            chain = [origin[t]]
            for seeds in reversed(origins):
                chain.append(seeds[chain[-1]])
            best = (depth + closing[t], t, chain[-2::-1], None)

    total, t, chain, middle = best
    if total + 1 > MAX_WITNESS:
        raise CCAError(f"a shortest witness has {total + 1} states, more than {MAX_WITNESS}")
    prefix = [names[t]]
    while parent[prefix[-1]] is not None:
        prefix.append(parent[prefix[-1]])
    path = [number[s] for s in reversed(prefix)]
    # the begin at t, then a mark after every walk: into each pk and around
    # its loop (a pair), into each ck (a check), and back to t (the end)
    marks = [len(path) - 1]
    inner = middle or _segments(local, chain, avoid)  # a free winner's walks are found now
    for walk in itertools.chain([_walk(local, t, chain[0])], inner, [_walk(local, chain[-1], t)]):
        path += walk[1:]
        marks.append(len(path) - 1)
    if len(path) - 1 != total:
        raise InternalCheckError("certificate length differs from the layered minimum")
    return AcceptingWitness.from_marks([names[i] for i in path], marks)


def decide(a: CCA) -> EmptinessReport:
    """Decide emptiness; every nonempty answer carries a verified shortest
    witness."""
    simple = simplify(a)
    witness = _shortest_witness(simple)
    if witness is None:
        return EmptinessReport(True, None, simple)
    if not verify_witness(simple, witness):
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
