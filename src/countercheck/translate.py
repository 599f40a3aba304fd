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

Renaming apart copies no transitions.  A block rule returns a *part*: the
current name of each of its local state ids, its initial and final ids, its
counter count, its operands as shared pieces (operand part, id shift,
counter offset) and the rule's own glue rows in local ids.  Renaming a part
apart re-sorts its current names and draws fresh names in that order, as a
copy renamed state by state would.  At the ``^w`` level one walk over each
member's pieces emits its transition rows exactly once, adding up the id
shifts and counter offsets on the way, and appends the loop-back row; a
prefix appends its Thompson rows, and one merge over all rows builds the
only automaton ``compile_expression`` constructs.  ``compile_t``,
``compile_omega`` and the trace materialise the same parts and members as
automata.

Full language equality between an expression and its automaton is a limit
property that no finite run can certify; the test suite probes it instead
(per-block shapes of witness splits, emptiness agreement over random
expressions, run-prefix membership against the star relaxation).
"""
from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional

from . import expr as ex
from .cca import CCA, CHECK, INC, NO_OP, CCAError, transitions_from
from .nfa import thompson

# The most automata one expression may compile to.  On a 2-vCPU machine
# (Python 3.11, peak RSS of a fresh process running ``countercheck
# compile`` with stdout at /dev/null) ``((a+b)^6)^w`` (729 members, 60,507
# transitions) compiles in 0.12-0.18 s at 35 MB and is printed as JSON in
# 0.27-0.32 s all told at 36 MB, ``((a+b)^7)^w`` (2187, 212,139
# transitions) in 0.7-0.8 s at 81 MB and 1.6-1.9 s at 93 MB, and every
# further ``+`` triples the count.
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


class AutomatonSet(ex.Record):
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


Trace = list[tuple[str, AutomatonSet]]

# (source, label, target, counter, op): in local ids inside a part, in
# state names once emitted
Row = tuple


class _Part(NamedTuple):
    """A block rule's automaton, kept as glue over shared operand parts."""

    names: list[str]  # the current name of each local state id
    initial: int
    final: int
    counters: int
    pieces: tuple[tuple["_Part", int, int], ...]  # (operand, id shift, counter offset)
    glue: tuple[Row, ...]  # the rule's own rows, in local ids and its own counters


def _renamed(p: _Part, names: FreshNames) -> list[str]:
    """Fresh names for ``p``'s state ids, drawn in the sorted order of its
    current names."""
    fresh = dict(zip(sorted(p.names), names.take(len(p.names))))
    return [fresh[s] for s in p.names]


def _rows(p: _Part) -> list[Row]:
    """Every transition row of ``p`` in state names: the glue of ``p`` and
    of its pieces, ids moved by the id shifts and the counting operations'
    counters by the counter offsets added up along the way; silent
    bookkeeping no-ops stay on counter 1."""
    names = p.names
    rows: list[Row] = []
    stack = [(p, 0, 0)]
    while stack:
        part, shift, offset = stack.pop()
        rows += [
            (names[source + shift], label, names[target + shift], counter if op == NO_OP else counter + offset, op)
            for source, label, target, counter, op in part.glue
        ]
        for sub, sub_shift, sub_offset in part.pieces:
            stack.append((sub, shift + sub_shift, offset + sub_offset))
    return rows


def _part_cca(p: _Part, alphabet: frozenset[str]) -> CCA:
    names = p.names
    return CCA(frozenset(names), alphabet, names[p.initial], p.counters, transitions_from(_rows(p)), names[p.final])


# --------------------------------------------------------------------------
# block-expression rules

def _atom(glue: tuple[Row, ...], names: FreshNames) -> _Part:
    return _Part([names(), names()], 0, 1, 1, (), glue)


def _loops(state: int, low: int, high: int) -> tuple[Row, ...]:
    """Inc and check self-loops on ``state`` for counters ``low..high``."""
    return tuple((state, None, state, k, op) for k in range(low, high + 1) for op in (INC, CHECK))


def _concat(a: _Part, b: _Part, names: FreshNames) -> _Part:
    n = a.counters
    k = len(a.names)
    final = k + len(b.names)
    return _Part(
        _renamed(a, names) + _renamed(b, names) + [names()],
        a.initial,
        final,
        n + b.counters + 1,
        ((a, 0, 1), (b, k, n + 1)),
        (
            (a.final, None, k + b.initial, 2, CHECK),
            (k + b.final, None, final, n + 2, CHECK),
            (final, None, final, 1, INC),
        ),
    )


def _mix_triple(a: _Part, b: _Part, names: FreshNames) -> list[_Part]:
    """The three automata of the sequence-mix rule.

    Each starts with a silent choice between fresh copies of the two
    operands; the variants differ only in which operand's final state gets
    extra self-loops over a counter range, letting a run keep the idle
    side's counters alive.
    """
    n = a.counters
    total = n + b.counters + 1
    k = len(a.names)
    start = k + len(b.names)
    final = start + 1
    fa, fb = a.final, k + b.final
    core = (
        (start, None, a.initial, 1, NO_OP),
        (start, None, k + b.initial, 1, NO_OP),
        (fa, None, final, 2, CHECK),
        (fb, None, final, n + 2, CHECK),
        (final, None, final, 1, INC),
    )
    pieces = ((a, 0, 1), (b, k, n + 1))
    extras = (
        _loops(fa, n + 2, total),
        _loops(fb, 2, n + 1),
        _loops(fa, 2, n + 1) + _loops(fb, n + 2, total),
    )
    return [
        _Part(_renamed(a, names) + _renamed(b, names) + [names(), names()], start, final, total, pieces, core + extra)
        for extra in extras
    ]


def _star_member(a: _Part, names: FreshNames) -> _Part:
    final = len(a.names)
    return _Part(
        _renamed(a, names) + [names()],
        a.initial,
        final,
        a.counters + 1,
        ((a, 0, 1),),
        (
            (a.final, None, a.initial, 1, NO_OP),
            (a.final, None, final, 2, CHECK),
            (final, None, final, 1, INC),
        ),
    )


def _recur_member(a: _Part, names: FreshNames) -> _Part:
    """Repetition whose block sizes must recur unboundedly often.

    Counter 2 counts the blocks of the current size batch and is checked on
    exit; counter 3 (the operand's lifted block counter) may additionally be
    checked on the operand's final state.
    """
    final = len(a.names)
    return _Part(
        _renamed(a, names) + [names()],
        a.initial,
        final,
        a.counters + 2,
        ((a, 0, 2),),
        (
            (a.final, None, a.initial, 2, INC),
            (a.final, None, final, 2, CHECK),
            (a.final, None, a.final, 3, CHECK),
            (final, None, final, 1, INC),
        ),
    )


def _block_parts(e: ex.TExpr, alphabet: frozenset[str], names: FreshNames, trace: Optional[Trace]) -> list[_Part]:
    if isinstance(e, ex.Empty):
        parts = [_atom((), names)]
    elif isinstance(e, ex.Sym):
        if e.letter not in alphabet:
            raise ValueError(f"letter {e.letter!r} outside the alphabet")
        parts = [_atom(((0, e.letter, 1, 1, NO_OP), (1, None, 1, 1, INC)), names)]
    elif isinstance(e, ex.Cat):
        left = _block_parts(e.left, alphabet, names, trace)
        right = _block_parts(e.right, alphabet, names, trace)
        parts = [_concat(a, b, names) for a in left for b in right]
    elif isinstance(e, ex.Sum):
        left = _block_parts(e.left, alphabet, names, trace)
        right = _block_parts(e.right, alphabet, names, trace)
        parts = [m for a in left for b in right for m in _mix_triple(a, b, names)]
    elif isinstance(e, ex.Star):
        parts = [_star_member(a, names) for a in _block_parts(e.body, alphabet, names, trace)]
    elif isinstance(e, ex.T):
        parts = [_recur_member(a, names) for a in _block_parts(e.body, alphabet, names, trace)]
    else:
        raise TypeError(f"not a block expression: {e!r}")
    if trace is not None:
        trace.append((ex.pretty(e), AutomatonSet(e, tuple(_part_cca(p, alphabet) for p in parts))))
    return parts


def compile_t(
    e: ex.TExpr,
    alphabet: frozenset[str],
    names: Optional[FreshNames] = None,
    trace: Optional[Trace] = None,
) -> AutomatonSet:
    """Structural compilation of a block expression into an automaton set."""
    parts = _block_parts(e, alphabet, FreshNames() if names is None else names, trace)
    return AutomatonSet(e, tuple(_part_cca(p, alphabet) for p in parts))


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


# --------------------------------------------------------------------------
# omega-level rules

class _Member(NamedTuple):
    """One automaton of an omega expression's set, as rows in state names."""

    states: list[str]
    initial: str
    entry: str  # the omega part's initial state, target of the loop-back
    final: str
    counters: int
    rows: list[Row]


def _omega_member(p: _Part) -> _Member:
    """The loop-back closure of a block part, with the checks every member
    of a compilation passes once: the final state's only outgoing row is
    its counter-1 increment loop, and no row touches a counter beyond N."""
    rows = _rows(p)
    initial, final = p.names[p.initial], p.names[p.final]
    if not {row for row in rows if row[0] == final} <= {(final, None, final, 1, INC)}:
        raise CCAError("compiler produced a bad final state")
    if rows and max(map(itemgetter(3), rows)) > p.counters:
        raise CCAError(f"a compiled transition touches a counter beyond {p.counters}")
    rows.append((final, None, initial, 1, CHECK))
    return _Member(p.names, initial, initial, final, p.counters, rows)


def _prefixed(r: ex.RegExpr, m: _Member, alphabet: frozenset[str], names: FreshNames) -> _Member:
    word_nfa = thompson(r, alphabet, names)
    rows = [(source, label, target, 1, NO_OP) for source, label, target in word_nfa.transitions]
    rows += [(f, None, m.initial, 1, NO_OP) for f in word_nfa.finals]
    return m._replace(states=m.states + list(word_nfa.states), initial=word_nfa.initial, rows=m.rows + rows)


def _member_cca(m: _Member, alphabet: frozenset[str]) -> CCA:
    return CCA(frozenset(m.states), alphabet, m.initial, m.counters, transitions_from(m.rows), m.final)


def _omega_members(
    e: ex.OmegaTExpr, alphabet: frozenset[str], names: FreshNames, trace: Optional[Trace]
) -> list[_Member]:
    if isinstance(e, ex.Union):
        members = _omega_members(e.left, alphabet, names, trace) + _omega_members(e.right, alphabet, names, trace)
    elif isinstance(e, ex.Prefix):
        tail = _omega_members(e.tail, alphabet, names, trace)
        members = [_prefixed(e.prefix, m, alphabet, names) for m in tail]
    elif isinstance(e, ex.Omega):
        members = [_omega_member(p) for p in _block_parts(e.body, alphabet, names, trace)]
    else:
        raise TypeError(f"not an omega expression: {e!r}")
    if trace is not None:
        trace.append((ex.pretty(e), AutomatonSet(e, tuple(_member_cca(m, alphabet) for m in members))))
    return members


def compile_omega(
    e: ex.OmegaTExpr,
    alphabet: frozenset[str],
    names: Optional[FreshNames] = None,
    trace: Optional[Trace] = None,
) -> AutomatonSet:
    members = _omega_members(e, alphabet, FreshNames() if names is None else names, trace)
    return AutomatonSet(e, tuple(_member_cca(m, alphabet) for m in members))


def _merged(members: list[_Member], alphabet: frozenset[str], names: FreshNames) -> CCA:
    """Glue members into one automaton behind a fresh silent-choice root.

    A member with fewer counters than the widest gets inc and check
    self-loops for the missing counters on its omega part's entry, the
    target of its loop-back, which every recurring cycle passes.  A
    prefixed member's initial state is passed only once, so padding there
    would leave those counters unchecked and the member empty.
    """
    top = max(m.counters for m in members)
    states: set[str] = set()
    for m in members:
        states.update(m.states)
    if len(states) != sum(len(m.states) for m in members):
        raise ValueError("automaton set members must be state-disjoint")
    root = names()
    while root in states:
        root = names()
    states.add(root)
    rows: list[Row] = []
    for m in members:
        rows += m.rows
        rows += _loops(m.entry, m.counters + 1, top)
        rows.append((root, None, m.initial, 1, NO_OP))
    return CCA(frozenset(states), alphabet, root, top, transitions_from(rows), None)


def _entry(a: CCA) -> str:
    """The target of ``a``'s loop-back: the silent counter-1 check out of
    its final state; ``a.initial`` when it has none."""
    for source, label, target, counter, op in a.transitions:
        if source == a.final and label is None and counter == 1 and op == CHECK:
            return target
    return a.initial


def merge(auto_set: AutomatonSet, names: Optional[FreshNames] = None) -> CCA:
    """Glue an automaton set into one automaton behind a fresh silent-choice
    root, padding narrower members as ``compile_expression`` does."""
    members = [
        _Member(list(a.states), a.initial, _entry(a), a.final, a.counters, list(a.transitions))
        for a in auto_set.automata
    ]
    return _merged(members, auto_set.automata[0].alphabet, FreshNames("m") if names is None else names)


def compile_expression(
    e: ex.OmegaTExpr, alphabet: frozenset[str] | set[str] | str, trace: Optional[Trace] = None
) -> CCA:
    """Compile a top-level omega expression into a single automaton.

    Raises ``CCAError`` before building anything when the alphabet holds a
    character that is not a lowercase letter, or when the expression would
    compile to more than ``MAX_MEMBERS`` automata.
    """
    sigma = frozenset(alphabet)
    bad = ex.refused_letter(sigma)
    if bad is not None:
        raise CCAError(f"alphabet character {bad!r} is not a lowercase letter")
    members = omega_member_count(e)
    if members > MAX_MEMBERS:
        raise CCAError(f"expression compiles to {members} automata, more than {MAX_MEMBERS}")
    names = FreshNames()
    return _merged(_omega_members(e, sigma, names, trace), sigma, names)
