"""Compiling omega expressions into counter-check automata.

The compiler is compositional: every sub-expression yields a *set* of
automata, each with a distinguished final state whose only outgoing
transition is its silent counter-1 increment self-loop.  Counter 1 of every
automaton is the block counter: under the loop-back closure (``hat``) its
check transitions delimit the finite blocks an accepted infinite word is
split into, and the split words are exactly the block language of the
expression.

Counter budget per rule: atoms use 1 counter, concatenation and the
sequence mix use N + N' + 1, finite repetition N + 1, the recurring-size
repetition N + 2.  Operand automata are renamed apart at every use, so no
state name is ever shared between two automata of a compilation.

Full language equality between an expression and its automaton is a limit
property that no finite run can certify; the test suite probes it instead
(per-block shapes of witness splits, emptiness agreement over random
expressions, run-prefix membership against the star relaxation).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import expr as ex
from .cca import CCA, CHECK, INC, NO_OP, CCAError, Transition, hat, satisfies_final_contract, transitions_from
from .nfa import thompson

# The most automata one expression may compile to.  On a 2-vCPU machine
# (Python 3.11, peak RSS of a process that also simplifies the result)
# ``((a+b)^6)^w`` (729 members, 60,507 transitions) compiles and exports
# in 0.8-1.0 s at 77 MB, ``((a+b)^7)^w`` (2187, 212,139 transitions) in
# about 3.6 s at 223 MB, and every further ``+`` triples the count.
MAX_MEMBERS = 1000


class FreshNames:
    """Monotone supply of state names; one instance per compilation."""

    def __init__(self, prefix: str = "s"):
        self.prefix = prefix
        self.counter = 0

    def __call__(self) -> str:
        name = f"{self.prefix}{self.counter}"
        self.counter += 1
        return name

    def take(self, k: int) -> list[str]:
        """The next ``k`` names, as ``k`` calls would draw them."""
        first = self.counter
        self.counter += k
        return [f"{self.prefix}{i}" for i in range(first, first + k)]


def rename_apart(a: CCA, names: FreshNames, offset: int = 0) -> CCA:
    """A copy of ``a`` with fresh state names, drawn in sorted state order,
    and its counters renumbered upward by ``offset``; silent bookkeeping
    no-ops stay on counter 1 (their counter is immaterial and must remain
    1)."""
    mapping = dict(zip(sorted(a.states), names.take(len(a.states))))
    return CCA(
        states=frozenset(mapping.values()),
        alphabet=a.alphabet,
        initial=mapping[a.initial],
        counters=a.counters + offset,
        transitions=transitions_from(
            (mapping[source], label, mapping[target], counter if op == NO_OP else counter + offset, op)
            for source, label, target, counter, op in a.transitions
        ),
        final=None if a.final is None else mapping[a.final],
    )


@dataclass(frozen=True)
class AutomatonSet:
    expression: object  # the compiled (sub-)expression
    automata: tuple[CCA, ...]

    def __post_init__(self):
        if not self.automata:
            raise ValueError("an automaton set is never empty")
        seen: set[str] = set()
        for a in self.automata:
            if seen & a.states:
                raise ValueError("automaton set members must be state-disjoint")
            seen |= a.states


def _require_contract(a: CCA) -> CCA:
    assert satisfies_final_contract(a), "compiler produced a bad final state"
    return a


# --------------------------------------------------------------------------
# block-expression rules

def _atom_empty(alphabet: frozenset[str], names: FreshNames) -> CCA:
    s0, sf = names(), names()
    return CCA(frozenset({s0, sf}), alphabet, s0, 1, frozenset(), sf)


def _atom_symbol(letter: str, alphabet: frozenset[str], names: FreshNames) -> CCA:
    s0, sf = names(), names()
    return CCA(
        frozenset({s0, sf}),
        alphabet,
        s0,
        1,
        frozenset({Transition(s0, letter, sf, 1, NO_OP), Transition(sf, None, sf, 1, INC)}),
        sf,
    )


def _concat_pair(a: CCA, b: CCA, names: FreshNames) -> CCA:
    n, n2 = a.counters, b.counters
    left = rename_apart(a, names, 1)
    right = rename_apart(b, names, n + 1)
    final = names()
    glue = {
        Transition(left.final, None, right.initial, 2, CHECK),
        Transition(right.final, None, final, n + 2, CHECK),
        Transition(final, None, final, 1, INC),
    }
    return CCA(
        states=left.states.union(right.states, (final,)),
        alphabet=a.alphabet,
        initial=left.initial,
        counters=n + n2 + 1,
        transitions=left.transitions.union(right.transitions, glue),
        final=final,
    )


def _own_range_loops(state: str, low: int, high: int) -> set[Transition]:
    return {
        Transition(state, None, state, k, op)
        for k in range(low, high + 1)
        for op in (INC, CHECK)
    }


def _mix_triple(a: CCA, b: CCA, names: FreshNames) -> list[CCA]:
    """The three automata of the sequence-mix rule.

    Each starts with a silent choice between fresh copies of the two
    operands; the variants differ only in which operand's final state gets
    extra self-loops over a counter range, letting a run keep the idle
    side's counters alive.
    """
    n, n2 = a.counters, b.counters
    total = n + n2 + 1
    extras = [
        lambda fa, fb: _own_range_loops(fa, n + 2, total),
        lambda fa, fb: _own_range_loops(fb, 2, n + 1),
        lambda fa, fb: _own_range_loops(fa, 2, n + 1) | _own_range_loops(fb, n + 2, total),
    ]
    variants = []
    for extra in extras:
        aa = rename_apart(a, names, 1)
        bb = rename_apart(b, names, n + 1)
        start, final = names(), names()
        core = {
            Transition(start, None, aa.initial, 1, NO_OP),
            Transition(start, None, bb.initial, 1, NO_OP),
            Transition(aa.final, None, final, 2, CHECK),
            Transition(bb.final, None, final, n + 2, CHECK),
            Transition(final, None, final, 1, INC),
        }
        variants.append(
            CCA(
                states=aa.states.union(bb.states, (start, final)),
                alphabet=a.alphabet,
                initial=start,
                counters=total,
                transitions=aa.transitions.union(bb.transitions, core, extra(aa.final, bb.final)),
                final=final,
            )
        )
    return variants


def _star_member(a: CCA, names: FreshNames) -> CCA:
    lifted = rename_apart(a, names, 1)
    final = names()
    glue = {
        Transition(lifted.final, None, lifted.initial, 1, NO_OP),
        Transition(lifted.final, None, final, 2, CHECK),
        Transition(final, None, final, 1, INC),
    }
    return CCA(
        states=lifted.states | {final},
        alphabet=a.alphabet,
        initial=lifted.initial,
        counters=a.counters + 1,
        transitions=lifted.transitions | glue,
        final=final,
    )


def _recur_member(a: CCA, names: FreshNames) -> CCA:
    """Repetition whose block sizes must recur unboundedly often.

    Counter 2 counts the blocks of the current size batch and is checked on
    exit; counter 3 (the operand's lifted block counter) may additionally be
    checked on the operand's final state.
    """
    lifted = rename_apart(a, names, 2)
    final = names()
    glue = {
        Transition(lifted.final, None, lifted.initial, 2, INC),
        Transition(lifted.final, None, final, 2, CHECK),
        Transition(lifted.final, None, lifted.final, 3, CHECK),
        Transition(final, None, final, 1, INC),
    }
    return CCA(
        states=lifted.states | {final},
        alphabet=a.alphabet,
        initial=lifted.initial,
        counters=a.counters + 2,
        transitions=lifted.transitions | glue,
        final=final,
    )


def compile_t(
    e: ex.TExpr,
    alphabet: frozenset[str],
    names: Optional[FreshNames] = None,
    trace: "Optional[Trace]" = None,
) -> AutomatonSet:
    """Structural compilation of a block expression into an automaton set."""
    if names is None:
        names = FreshNames()
    if isinstance(e, ex.Empty):
        members = [_atom_empty(alphabet, names)]
    elif isinstance(e, ex.Sym):
        if e.letter not in alphabet:
            raise ValueError(f"letter {e.letter!r} outside the alphabet")
        members = [_atom_symbol(e.letter, alphabet, names)]
    elif isinstance(e, ex.Cat):
        left = compile_t(e.left, alphabet, names, trace)
        right = compile_t(e.right, alphabet, names, trace)
        members = [
            _concat_pair(a, b, names)
            for a in left.automata
            for b in right.automata
        ]
    elif isinstance(e, ex.Sum):
        left = compile_t(e.left, alphabet, names, trace)
        right = compile_t(e.right, alphabet, names, trace)
        members = [
            m
            for a in left.automata
            for b in right.automata
            for m in _mix_triple(a, b, names)
        ]
    elif isinstance(e, ex.Star):
        inner = compile_t(e.body, alphabet, names, trace)
        members = [_star_member(a, names) for a in inner.automata]
    elif isinstance(e, ex.T):
        inner = compile_t(e.body, alphabet, names, trace)
        members = [_recur_member(a, names) for a in inner.automata]
    else:
        raise TypeError(f"not a block expression: {e!r}")
    for m in members:
        _require_contract(m)
    result = AutomatonSet(e, tuple(members))
    if trace is not None:
        trace.append((ex.pretty(e), result))
    return result


def member_count(e: ex.TExpr) -> int:
    """How many automata the compiler will produce for a block expression."""
    if isinstance(e, (ex.Empty, ex.Sym)):
        return 1
    if isinstance(e, ex.Cat):
        return member_count(e.left) * member_count(e.right)
    if isinstance(e, ex.Sum):
        return 3 * member_count(e.left) * member_count(e.right)
    return member_count(e.body)


def omega_member_count(e: ex.OmegaTExpr) -> int:
    if isinstance(e, ex.Union):
        return omega_member_count(e.left) + omega_member_count(e.right)
    if isinstance(e, ex.Prefix):
        return omega_member_count(e.tail)
    return member_count(e.body)


def expected_counters(e: ex.TExpr) -> int:
    """Counter count the rules assign, recomputed from the tree shape."""
    if isinstance(e, (ex.Empty, ex.Sym)):
        return 1
    if isinstance(e, (ex.Cat, ex.Sum)):
        return expected_counters(e.left) + expected_counters(e.right) + 1
    if isinstance(e, ex.Star):
        return expected_counters(e.body) + 1
    return expected_counters(e.body) + 2


# --------------------------------------------------------------------------
# omega-level rules

def _prepend_regex(r: ex.RegExpr, a: CCA, alphabet: frozenset[str], names: FreshNames) -> CCA:
    word_nfa = thompson(r, alphabet, names)
    copies = {
        Transition(source, label, target, 1, NO_OP)
        for source, label, target in word_nfa.transitions
    }
    links = {Transition(f, None, a.initial, 1, NO_OP) for f in word_nfa.finals}
    return CCA(
        states=a.states | word_nfa.states,
        alphabet=alphabet,
        initial=word_nfa.initial,
        counters=a.counters,
        transitions=a.transitions | copies | links,
        final=a.final,
    )


Trace = list[tuple[str, AutomatonSet]]


def compile_omega(
    e: ex.OmegaTExpr,
    alphabet: frozenset[str],
    names: Optional[FreshNames] = None,
    trace: Optional[Trace] = None,
) -> AutomatonSet:
    if names is None:
        names = FreshNames()
    if isinstance(e, ex.Union):
        left = compile_omega(e.left, alphabet, names, trace)
        right = compile_omega(e.right, alphabet, names, trace)
        result = AutomatonSet(e, left.automata + right.automata)
    elif isinstance(e, ex.Prefix):
        tail = compile_omega(e.tail, alphabet, names, trace)
        result = AutomatonSet(
            e, tuple(_prepend_regex(e.prefix, a, alphabet, names) for a in tail.automata)
        )
    elif isinstance(e, ex.Omega):
        inner = compile_t(e.body, alphabet, names, trace)
        result = AutomatonSet(e, tuple(hat(a) for a in inner.automata))
    else:
        raise TypeError(f"not an omega expression: {e!r}")
    if trace is not None:
        trace.append((ex.pretty(e), result))
    return result


def merge(auto_set: AutomatonSet, names: Optional[FreshNames] = None) -> CCA:
    """Glue an automaton set into one automaton behind a fresh silent-choice
    root; members with fewer counters get idle-counter self-loops on their
    entry state so padding counters stay checkable."""
    if names is None:
        names = FreshNames("m")
    members = auto_set.automata
    top = max(a.counters for a in members)
    root = names()
    while any(root in a.states for a in members):
        root = names()
    states = {root}
    transitions = set()
    alphabet = members[0].alphabet
    for a in members:
        states |= a.states
        transitions.update(a.transitions)
        transitions |= _own_range_loops(a.initial, a.counters + 1, top)
        transitions.add(Transition(root, None, a.initial, 1, NO_OP))
    return CCA(
        states=frozenset(states),
        alphabet=alphabet,
        initial=root,
        counters=top,
        transitions=frozenset(transitions),
        final=None,
    )


def compile_expression(
    e: ex.OmegaTExpr, alphabet: frozenset[str] | set[str] | str, trace: Optional[Trace] = None
) -> CCA:
    """Compile a top-level omega expression into a single automaton.

    Raises ``CCAError`` before building anything when the expression would
    compile to more than ``MAX_MEMBERS`` automata.
    """
    members = omega_member_count(e)
    if members > MAX_MEMBERS:
        raise CCAError(f"expression compiles to {members} automata, more than {MAX_MEMBERS}")
    sigma = frozenset(alphabet)
    names = FreshNames()
    return merge(compile_omega(e, sigma, names, trace), names)
