"""Randomized cross-validation of the emptiness pipeline.

Seeded generators produce simple automata and expressions; every automaton
is decided three times, by the layered search, by the product reference and
by the bounded path search, and any mismatch (or invalid certificate) is
shrunk by greedy transition and state deletion before being reported.
"""
from __future__ import annotations

import random
from typing import Callable, Optional

from . import expr as ex
from .cca import CCA, CCAError, CHECK, INC, NO_OP, InternalCheckError, Transition, is_simple
from .emptiness import AcceptingWitness, decide, verify_witness
from .logic import ATOM, BINARY, FO_BINDER, NEGATION, SHAPES, Not, Succ, Var
from .reference import _Table, _brute_force, _product, _structure_ids, witness_nfa_state_bound


# --------------------------------------------------------------------------
# generators

def random_simple_cca(
    rng: random.Random,
    max_states: int = 8,
    max_counters: int = 2,
    alphabet: tuple[str, ...] = ("a", "b"),
    max_transitions: int = 14,
) -> CCA:
    """A random simple automaton over a ring backbone.

    A couple of silent choice hubs add shortcut edges, which is what makes
    pump loops that dodge a counter's check states possible at all; each
    counter usually gets an increment and a check somewhere on the ring.
    Stuck states and missing operations are injected so a healthy share of
    the output is empty-language.
    """
    counters = rng.randint(1, max_counters)
    n = rng.randint(5, max_states)
    names = [f"q{i}" for i in range(n)]
    hubs = sorted(rng.sample(range(n), rng.randint(1, 2)))
    singles = [i for i in range(n) if i not in hubs]
    # pump-back gadgets: a hub neighbour whose single transition increments
    # some counter and returns to the hub, giving a check-free loop
    gadget_return: dict[int, int] = {}
    pool = list(singles)
    rng.shuffle(pool)
    for hub in hubs:
        for k in range(1, counters + 1):
            if pool and rng.random() < 0.8:
                gadget_return[pool.pop()] = hub
    rest = [i for i in pool]
    rng.shuffle(rest)
    wanted = []
    for k in range(1, counters + 1):
        if rng.random() < 0.9:
            wanted.append((CHECK, k))
        if rng.random() < 0.5:
            wanted.append((INC, k))
    assignment = dict(zip(rest, wanted))

    transitions: list[Transition] = []
    for i in range(n):
        if i in hubs:
            targets = {(i + 1) % n} | {g for g, h in gadget_return.items() if h == i}
            while len(targets) < 2 and rng.random() < 0.5:
                targets.add(rng.randrange(n))
            for j in sorted(targets):
                transitions.append(Transition(names[i], None, names[j], 1, NO_OP))
            continue
        if i in gadget_return:
            k = rng.randint(1, counters)
            label = rng.choice(alphabet) if rng.random() < 0.4 else None
            transitions.append(Transition(names[i], label, names[gadget_return[i]], k, INC))
            continue
        if rng.random() < 0.1:
            continue  # stuck state
        if i in assignment:
            op, k = assignment[i]
        else:
            op = rng.choice((NO_OP, NO_OP, INC, CHECK))
            k = 1 if op == NO_OP else rng.randint(1, counters)
        label = rng.choice(alphabet) if rng.random() < 0.5 else None
        target = (i + 1) % n if rng.random() < 0.8 else rng.randrange(n)
        transitions.append(Transition(names[i], label, names[target], k, op))

    while len(transitions) > max_transitions:
        by_source: dict[str, int] = {}
        for t in transitions:
            by_source[t.source] = by_source.get(t.source, 0) + 1
        busiest = max(sorted(by_source), key=lambda s: by_source[s])
        victims = [t for t in transitions if t.source == busiest]
        transitions.remove(victims[-1])
    a = CCA(
        states=frozenset(names),
        alphabet=frozenset(alphabet),
        initial=names[0],
        counters=counters,
        transitions=frozenset(transitions),
    )
    assert is_simple(a)
    return a


def _random_tree(rng: random.Random, depth: int, alphabet, allow_empty, layer: dict):
    if depth <= 0 or rng.random() < 0.4:
        if allow_empty and rng.random() < 0.12:
            return layer["empty"]()
        return layer["sym"](rng.choice(alphabet))
    kind = rng.choice(tuple(layer)[2:])  # the compound kinds, in table order
    left = _random_tree(rng, depth - 1, alphabet, allow_empty, layer)
    if kind in ("star", "t"):
        return layer[kind](left)
    return layer[kind](left, _random_tree(rng, depth - 1, alphabet, allow_empty, layer))


def random_regex(rng: random.Random, depth: int, alphabet=("a", "b"), allow_empty=True) -> ex.RegExpr:
    return _random_tree(rng, depth, alphabet, allow_empty, ex.REGEX)


def random_texpr(rng: random.Random, depth: int, alphabet=("a", "b"), allow_empty=True) -> ex.TExpr:
    return _random_tree(rng, depth, alphabet, allow_empty, ex.BLOCK)


def random_omega_expr(
    rng: random.Random, depth: int, alphabet=("a", "b"), allow_empty=True
) -> ex.OmegaTExpr:
    if depth <= 0 or rng.random() < 0.5:
        return ex.Omega(random_texpr(rng, max(depth - 1, 0), alphabet, allow_empty))
    kind = rng.choice(("union", "prefix"))
    if kind == "union":
        return ex.Union(
            random_omega_expr(rng, depth - 1, alphabet, allow_empty),
            random_omega_expr(rng, depth - 1, alphabet, allow_empty),
        )
    return ex.Prefix(
        random_regex(rng, depth - 1, alphabet, allow_empty),
        random_omega_expr(rng, depth - 1, alphabet, allow_empty),
    )


# the node classes random_formula draws from, in the order of SHAPES: the
# draw is seeded
_ATOMS = tuple(cls for cls, shape in SHAPES.items() if shape == ATOM)
_CONNECTIVES = tuple(cls for cls, shape in SHAPES.items() if shape != ATOM)


def _random_term(rng: random.Random, fo: tuple[str, ...]):
    term = Var(rng.choice(fo))
    while rng.random() < 0.25:
        term = Succ(term)
    return term


def random_formula(rng: random.Random, depth: int) -> object:
    """A random formula over every node class of ``SHAPES``.  An atom's
    fields are filled one by one: a ``Term`` field gets a first-order
    variable under zero or more successors, ``letter`` a letter, and every
    other field a set name."""
    fo = ("x", "y", "z")
    so = ("X", "Y", "Z")
    if depth <= 0 or rng.random() < 0.35:
        cls = rng.choice(_ATOMS)
        args = []
        for field, kind in cls.__annotations__.items():
            if kind == "Term":
                args.append(_random_term(rng, fo))
            elif field == "letter":
                args.append(rng.choice(("a", "b")))
            else:
                args.append(rng.choice(so))
        return cls(*args)
    cls = rng.choice(_CONNECTIVES)
    shape = SHAPES[cls]
    if shape == NEGATION:
        return Not(random_formula(rng, depth - 1))
    if shape == BINARY:
        return cls(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return cls(rng.choice(fo if shape == FO_BINDER else so), random_formula(rng, depth - 1))


# --------------------------------------------------------------------------
# the agreement property

class CaseOutcome(ex.Record):
    empty: bool
    witness: Optional[AcceptingWitness]
    bound_ok: bool
    failure: Optional[str]
    simple: Optional[CCA] = None


def examine(a: CCA, depth: int = 40) -> CaseOutcome:
    """Decide one simple automaton three ways and compare.

    The layered search (``decide``) must match the product reference in
    verdict and shortest witness length, and the paper's witness-structure
    NFA must stay within its size bound; its states are counted, not
    built.  Against the bounded search, in both directions: a
    bounded-search witness forces a nonempty answer; a nonempty answer with
    a witness of path length L forces a bounded-search hit, also of length
    L, at depth >= L; an empty answer forbids any bounded-search hit.  The
    product reference and the bounded search answer at once, without a
    search, on an automaton whose phase table cannot accept; the structure
    count alone still builds every row that scan reaches, on every case.
    An ``InternalCheckError`` from any of the three searches is the case's
    failure.

    The three references read one phase table, which this call builds for
    the case from the automaton alone and drops on return, so each reuses
    the rows the ones before it built.  Every call here takes the same
    automaton, which derives its adjacency and partition on the first call
    and keeps them, and ``decide`` simplifies a simple case to itself: a
    simple case derives its graph once.
    """
    try:
        report = decide(a)
        table = _Table(report.simple)
        reference = _product(table)
    except InternalCheckError as err:
        return CaseOutcome(False, None, False, f"internal check failed: {err}")
    bound_ok = len(_structure_ids(table)) <= witness_nfa_state_bound(report.simple)
    if not bound_ok:
        failure = "structure NFA exceeded its size bound"
    elif report.empty != (reference is None):
        failure = "the layered search and the product reference disagree on the verdict"
    elif not report.empty and len(report.witness.path) != len(reference.path):
        failure = "the layered search and the product reference disagree on the shortest length"
    else:
        failure = _oracle_disagreement(table, depth, report)
    return CaseOutcome(report.empty, report.witness, bound_ok, failure, report.simple)


def _oracle_disagreement(table: _Table, depth: int, report) -> Optional[str]:
    # a search past ``depth`` dequeues the same nodes in the same order up to
    # the first hit within it, so one search to the witness's length serves
    # both directions
    try:
        found = _brute_force(table, depth if report.empty else max(depth, len(report.witness.path)))
    except InternalCheckError as err:
        return f"internal check failed: {err}"
    if found is None:
        return None if report.empty else "pipeline is nonempty but the bounded search finds nothing"
    if not verify_witness(table.a, found):
        return "bounded search produced an invalid witness"
    if report.empty:
        return "bounded search found a witness but the pipeline says empty"
    if len(found.path) != len(report.witness.path):
        return "the bounded search finds a shortest witness of another length"
    return None


def _fails(a: CCA, depth: int) -> bool:
    return examine(a, depth).failure is not None


def shrink_failure(a: CCA, depth: int = 40) -> CCA:
    """Greedy transition, then state, deletion preserving the failure."""
    changed = True
    while changed:
        changed = False
        for t in sorted(a.transitions, key=Transition.sort_key):
            candidate = CCA(
                a.states, a.alphabet, a.initial, a.counters, a.transitions - {t}, a.final
            )
            if _fails(candidate, depth):
                a = candidate
                changed = True
                break
        if changed:
            continue
        touched = {a.initial} | {s for t in a.transitions for s in (t.source, t.target)}
        if a.final is not None:
            touched.add(a.final)
        for s in sorted(a.states - touched):
            candidate = CCA(
                a.states - {s}, a.alphabet, a.initial, a.counters, a.transitions, a.final
            )
            if _fails(candidate, depth):
                a = candidate
                changed = True
                break
    return a


class FuzzReport(ex.Record):
    cases: int
    nonempty: int
    failures: list[tuple[int, CCA, str]]


def run_fuzz(
    seed: int,
    cases: int,
    depth: int = 40,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    if cases < 0:
        raise CCAError("the number of cases must be nonnegative")
    if depth < 0:
        raise CCAError("depth must be nonnegative")
    nonempty = 0
    failures = []
    for index in range(cases):
        rng = random.Random(seed * 1_000_003 + index)
        a = random_simple_cca(rng)
        outcome = examine(a, depth)
        if not outcome.empty:
            nonempty += 1
        if outcome.failure is not None:
            small = shrink_failure(a, depth)
            failures.append((index, small, outcome.failure))
            if log:
                log(f"case {index}: {outcome.failure}")
    return FuzzReport(cases, nonempty, failures)
