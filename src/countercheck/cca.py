"""Counter-check automata: model, simulation, normal form, serialization.

A counter-check automaton is a finite automaton with N counters.  Every
transition touches exactly one counter with one of three operations:
``no_op`` (which is restricted to counter 1), ``inc``, or ``check`` (reset
to zero).  No operation ever disables a transition, so a sequence of states
is realizable exactly when consecutive states are connected in the
transition graph; counter vectors along a path are determined by the path.

Acceptance of infinite words asks every counter to have infinitely many
distinct values at its check points.  That limit condition is never
evaluated by simulation here; the emptiness module decides it through
finite witnesses.

A compilation builds many thousands of transitions, so a transition is a
named tuple, hashed and compared at C level.  Code that builds transitions
in bulk (renaming, JSON import) passes plain
``(source, label, target, counter, op)`` rows to ``transitions_from``,
which makes them with ``tuple.__new__`` and skips the named tuple's
Python-level constructor; simplification makes its own the same way, since
it files each one in the simple form's adjacency as it is made.  The
automaton's constructor validates every transition however it was made,
except in ``simplify``, which builds the simple form from the fields of an
automaton already validated and from transitions made of them.

An automaton derives its adjacency and state partition once and keeps
them outside its fields.  ``simplify`` is the one classification pass of
an automaton that is not simple: the simple form it returns already
keeps the partition and adjacency that pass gives it, so no reader walks
or classifies the simple form again.

The JSON and DOT forms are written to a text stream piece by piece
(``write_export``), one transition's text at a time, so that the whole
document is never held beside a list of its pieces; ``export`` gathers the
pieces into a string, and the command line writes them straight to stdout.
"""
from __future__ import annotations

import io
import json
from collections import defaultdict
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .expr import Record
from .nfa import breadth_first_run

NO_OP = "no_op"
INC = "inc"
CHECK = "check"
_OPS = (NO_OP, INC, CHECK)


class CCAError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    """A decoded certificate failed re-verification; this is a bug, never a
    legitimate outcome."""


class Transition(NamedTuple):
    source: str
    label: Optional[str]  # None is the silent label
    target: str
    counter: int
    op: str

    def sort_key(self):
        source, label, target, counter, op = self
        return (source, label is not None, label or "", target, counter, op)


def transitions_from(rows: Iterable[tuple]) -> frozenset[Transition]:
    """The transitions of ``(source, label, target, counter, op)`` rows,
    made by ``tuple.__new__`` at C level; ``CCA`` validates them."""
    return frozenset(map(tuple.__new__, repeat(Transition), rows))


class CCA(Record):
    states: frozenset[str]
    alphabet: frozenset[str]
    initial: str
    counters: int
    transitions: frozenset[Transition]
    final: Optional[str] = None

    def __post_init__(self):
        states, alphabet, n = self.states, self.alphabet, self.counters
        if not alphabet:
            raise CCAError("alphabet must be nonempty")
        # a word is read one character at a time, and the JSON form spells
        # a silent label "eps", so a letter is one character
        long = sorted(repr(x) for x in alphabet if not isinstance(x, str) or len(x) != 1)
        if long:
            raise CCAError(f"alphabet entry {long[0]} is not one character")
        if n < 1:
            raise CCAError("need at least one counter")
        if self.initial not in states:
            raise CCAError(f"initial state {self.initial!r} not among states")
        if self.final is not None and self.final not in states:
            raise CCAError(f"final state {self.final!r} not among states")
        for t in self.transitions:
            source, label, target, counter, op = t
            if source not in states or target not in states:
                raise CCAError(f"transition {t} references unknown states")
            if label is not None and label not in alphabet:
                raise CCAError(f"transition {t} reads a letter outside the alphabet")
            if not 1 <= counter <= n:
                raise CCAError(f"transition {t} touches counter {counter} of {n}")
            if op not in _OPS:
                raise CCAError(f"transition {t} has unknown operation {op!r}")
            if op == NO_OP and counter != 1:
                raise CCAError(f"no_op transitions must use counter 1: {t}")

    def adjacency(self) -> dict[str, tuple[Transition, ...]]:
        """Each state's out-transitions in ``Transition.sort_key`` order.

        Derived on the first call and kept on the automaton, outside its
        fields, so later calls return the same dict; callers never mutate
        it.  Plain tuple order is that order whenever the labels of one
        list are all letters or all silent.  A list that mixes them compares
        ``None`` with a letter, which raises ``TypeError``, and is sorted by
        ``sort_key`` instead; its keys are distinct, so the order does not
        depend on how far the first sort got.
        """
        kept = self.__dict__.get("_adjacency")
        if kept is not None:
            return kept
        out: dict[str, list[Transition]] = {s: [] for s in self.states}
        for t in self.transitions:
            out[t[0]].append(t)
        for ts in out.values():
            if len(ts) > 1:
                try:
                    ts.sort()
                except TypeError:
                    ts.sort(key=Transition.sort_key)
        kept = self.__dict__["_adjacency"] = {s: tuple(ts) for s, ts in out.items()}
        return kept


class Configuration(Record):
    state: str
    counters: tuple[int, ...]


def initial_configuration(a: CCA) -> Configuration:
    return Configuration(a.initial, (0,) * a.counters)


def step(a: CCA, config: Configuration, t: Transition) -> Configuration:
    """Fire ``t`` at ``config``; transitions are never disabled by counter values."""
    if t not in a.transitions:
        raise CCAError(f"{t} is not a transition of this automaton")
    if t.source != config.state:
        raise CCAError(f"{t} does not start at state {config.state!r}")
    values = list(config.counters)
    k = t.counter - 1
    if t.op == INC:
        values[k] += 1
    elif t.op == CHECK:
        values[k] = 0
    return Configuration(t.target, tuple(values))


# --------------------------------------------------------------------------
# simple automata and their state partition

class Partition(Record):
    lettered: frozenset[str]  # states firing a lettered transition
    inc: tuple[frozenset[str], ...]  # per counter, 1-based at index k-1
    check: tuple[frozenset[str], ...]


_NO_STATES: frozenset[str] = frozenset()


def _slots(by_counter: dict[int, set[str]], n: int) -> tuple[frozenset[str], ...]:
    """One slot per counter 1..n: the states filed under it, or the one
    empty frozenset for a counter with none."""
    slots = [_NO_STATES] * n
    for k, states in by_counter.items():
        slots[k - 1] = frozenset(states)
    return tuple(slots)


def _filed(lettered: set[str], inc: dict[int, set[str]], check: dict[int, set[str]], n: int) -> Partition:
    """The partition of the states filed as lettered, inc-k and check-k.
    Every empty slot is the one empty frozenset, which this interpreter
    does not share itself."""
    return Partition(frozenset(lettered) if lettered else _NO_STATES, _slots(inc, n), _slots(check, n))


def _classify(a: CCA) -> tuple[set[str], dict[int, set[str]], dict[int, set[str]], list]:
    """One pass over the adjacency: the lettered states, the inc and check
    states by counter, and the states that neither fire exactly one
    transition nor only silent no-op choices (possibly none), with their
    out-transitions, for ``simplify`` to split.  The partition is kept on
    the automaton beside its adjacency when no state offends, else None.
    A state firing one transition is inc-k or check-k by that transition's
    op and lettered by its label.  Stuck and choice states are in no set: a
    stuck state has no out-edge, a choice state has some.  The inc and
    check states are filed by counter in dicts, so only the counters that
    have such a state get a set of their own."""
    lettered: set[str] = set()
    inc: defaultdict[int, set[str]] = defaultdict(set)
    check: defaultdict[int, set[str]] = defaultdict(set)
    offending: list[tuple[str, tuple[Transition, ...]]] = []
    for s, out in a.adjacency().items():
        if len(out) == 1:
            t = out[0]
            if t.op == INC:
                inc[t.counter].add(s)
            elif t.op == CHECK:
                check[t.counter].add(s)
            if t.label is not None:
                lettered.add(s)
        elif out and not all(t.label is None and t.op == NO_OP and t.counter == 1 for t in out):
            offending.append((s, out))
    a.__dict__["_partition"] = None if offending else _filed(lettered, inc, check, a.counters)
    return lettered, inc, check, offending


def _classification(a: CCA) -> Optional[Partition]:
    """What ``_classify`` keeps on ``a``, classifying on the first call."""
    kept = a.__dict__
    if "_partition" not in kept:
        _classify(a)
    return kept["_partition"]


def is_simple(a: CCA) -> bool:
    """Each state either fires exactly one transition, or only silent
    no-op choices (possibly none)."""
    return _classification(a) is not None


def partition(a: CCA) -> Partition:
    """The partition of a simple automaton into its lettered, inc-k and
    check-k states; ``CCAError`` for any other automaton."""
    part = _classification(a)
    if part is None:
        raise CCAError("state classification requires a simple automaton")
    return part


def simplify(a: CCA) -> CCA:
    """Split every offending state into a silent choice over one fresh
    carrier state per original transition; returns ``a`` itself when it is
    simple.  Adds at most one state per transition and preserves which
    words admit a run prefix.  A kept partition answers at once, else one
    classification pass finds the states to split.

    That pass is the only one: the simple automaton returned keeps its
    partition and adjacency from it.  Each carrier fires exactly its
    original transition and is filed by it, and a split state is a silent
    choice in no set.  An unsplit state keeps its tuple of ``a``'s
    adjacency, a carrier gets a 1-tuple, and a split state's choices are
    sorted by carrier name, as ``CCA.adjacency`` sorts them.

    The carriers of ``s`` are named ``s.0``, ``s.1``, ... in the order of
    its out-transitions, skipping names ``a`` already has.  A carrier name
    ends in its index, so carriers of different states never collide.
    """
    if a.__dict__.get("_partition"):
        return a
    lettered, inc, check, offending = _classify(a)
    if not offending:
        return a
    taken = a.states
    adjacency = dict(a.adjacency())
    made: list[Transition] = []  # a pointer each: the adjacency holds them
    new = tuple.__new__
    for s, out in offending:
        index = 0
        choices = []
        for _, label, target, counter, op in out:
            carrier = f"{s}.{index}"
            while carrier in taken:
                index += 1
                carrier = f"{s}.{index}"
            index += 1
            fired = new(Transition, (carrier, label, target, counter, op))
            adjacency[carrier] = (fired,)
            made.append(fired)
            choices.append(new(Transition, (s, None, carrier, 1, NO_OP)))
            if op == INC:
                inc[counter].add(carrier)
            elif op == CHECK:
                check[counter].add(carrier)
            if label is not None:
                lettered.add(carrier)
        choices.sort()  # s.10 before s.2
        adjacency[s] = tuple(choices)
        made += choices
    # every field and transition comes from ``a``, whose constructor checked
    # them, or is made here from them, so the simple form is built without
    # checking its transitions again; its fields come first, in field order
    simple = object.__new__(CCA)
    simple.__dict__.update(
        # copied from a dict, as from a set, a frozenset's table fits its size
        states=frozenset(adjacency),
        alphabet=a.alphabet,
        initial=a.initial,
        counters=a.counters,
        transitions=frozenset(made).union(a.transitions.difference(*(out for _, out in offending))),
        final=a.final,
        _adjacency=adjacency,
        _partition=_filed(lettered, inc, check, a.counters),
    )
    return simple


# --------------------------------------------------------------------------
# compiler building blocks

def hat(a: CCA) -> CCA:
    """Add the silent loop-back from the final state that checks counter 1."""
    if a.final is None:
        raise CCAError("loop-back closure needs a final state")
    loop = Transition(a.final, None, a.initial, 1, CHECK)
    return CCA(a.states, a.alphabet, a.initial, a.counters, a.transitions | {loop}, a.final)


# --------------------------------------------------------------------------
# finite simulation

class RunPrefix(Record):
    configurations: tuple[Configuration, ...]
    steps: tuple[Transition, ...] = ()

    def word(self) -> str:
        return "".join(t.label for t in self.steps if t.label is not None)


def has_run_prefix(a: CCA, word: str) -> Optional[RunPrefix]:
    """Search for a run prefix consuming exactly ``word``, with no silent
    step after the last letter.

    Counter values never gate transitions, so ``nfa.breadth_first_run``
    searches (state, position) pairs with the fired transitions as edge
    labels: a silent transition keeps the position, a letter advances it.
    The returned configurations are replayed from the transition sequence
    it finds.  The search stops at the first pair at the end of the word
    without expanding it, so ``word[pos]`` is always in range and at most
    |S|·|w| pairs are dequeued.
    """
    for letter in word:
        if letter not in a.alphabet:
            raise CCAError(f"letter {letter!r} outside the alphabet")

    adjacency = a.adjacency()
    end = len(word)

    def successors(node):
        state, pos = node
        for t in adjacency[state]:
            if t.label is None:
                yield t, (t.target, pos)
            elif t.label == word[pos]:
                yield t, (t.target, pos + 1)

    run = breadth_first_run((a.initial, 0), lambda node: node[1] == end, successors)
    if run is None:
        return None
    fired = run[0]
    configs = [initial_configuration(a)]
    for t in fired:
        configs.append(step(a, configs[-1], t))
    return RunPrefix(tuple(configs), fired)


def replay(a: CCA, state_path: Sequence[str]) -> RunPrefix:
    """Reconstruct the run prefix of a simple automaton along a state path.

    On a simple automaton the fired transition is determined by its source
    and target, so the path alone fixes every counter vector.
    """
    if not state_path or state_path[0] != a.initial:
        raise CCAError("paths start at the initial state")
    adjacency = a.adjacency()
    configs = [initial_configuration(a)]
    fired = []
    for here, there in zip(state_path, state_path[1:]):
        options = [t for t in adjacency[here] if t.target == there]
        if not options:
            raise CCAError(f"no transition from {here!r} to {there!r}")
        fired.append(options[0])
        configs.append(step(a, configs[-1], fired[-1]))
    return RunPrefix(tuple(configs), tuple(fired))


def split_by_checks(a: CCA, prefix: RunPrefix) -> list[str]:
    """Cut the letters of a run prefix at counter-1 check transitions.

    Returns the completed blocks (delimiters included); letters after the
    last counter-1 check are a partial block, available via
    ``split_with_residue``.
    """
    blocks, _ = split_with_residue(a, prefix)
    return blocks


def split_with_residue(a: CCA, prefix: RunPrefix) -> tuple[list[str], str]:
    if len(prefix.configurations) != len(prefix.steps) + 1:
        raise CCAError("malformed run prefix")
    if prefix.configurations[0] != initial_configuration(a):
        raise CCAError("run prefixes start at the initial configuration")
    current = prefix.configurations[0]
    blocks: list[str] = []
    buf: list[str] = []
    for t, expected in zip(prefix.steps, prefix.configurations[1:]):
        if step(a, current, t) != expected:
            raise CCAError("run prefix steps do not replay")
        current = expected
        if t.label is not None:
            buf.append(t.label)
        if t.counter == 1 and t.op == CHECK:
            blocks.append("".join(buf))
            buf = []
    return blocks, "".join(buf)


# --------------------------------------------------------------------------
# serialization

def to_json_dict(a: CCA) -> dict:
    return {
        "states": sorted(a.states),
        "alphabet": sorted(a.alphabet),
        "initial": a.initial,
        "final": a.final,
        "counters": a.counters,
        "transitions": [
            {
                "from": t.source,
                "label": "eps" if t.label is None else t.label,
                "to": t.target,
                "counter": t.counter,
                "op": t.op,
            }
            for t in sorted(a.transitions, key=Transition.sort_key)
        ],
    }


def _malformed(problem: str) -> CCAError:
    return CCAError(f"malformed automaton JSON: {problem}")


def _string_list(data: dict, key: str) -> list[str]:
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _malformed(f"{key!r} must be a list of strings")
    return value


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise _malformed(f"{what} {value!r} is not an integer")
    return value


def _transition_rows(items: list) -> Iterator[tuple]:
    """The rows of JSON transitions, checked one by one as they are read."""
    for d in items:
        if not (
            isinstance(d, dict)
            and isinstance(d["from"], str)
            and isinstance(d["label"], str)
            and isinstance(d["to"], str)
            and isinstance(d["op"], str)
        ):
            raise _malformed(f"transition {d!r} needs string 'from', 'label', 'to' and 'op'")
        label = None if d["label"] == "eps" else d["label"]
        yield d["from"], label, d["to"], _integer(d["counter"], "counter"), d["op"]


# The decision allocates and searches per counter, so a JSON automaton with
# more counters is refused.  On two states whose inc and check serve counter
# 1 alone (Python 3.11, 2 vCPUs), 10,000 counters decide in 0.4 ms at a
# 0.46 MB tracemalloc peak, 20,000 in 1 ms at 0.92 MB and 200,000 in 0.014 s
# at 9.2 MB (39 MB for the whole process): the partition gives every
# counter without inc or check states the one shared empty slot, and the
# decision stops before any search, since no reachable state increments
# counter 2.
# A compiled expression the parser accepts stays far below the limit: a
# 900-letter flat word has 1,799 counters.
MAX_COUNTERS = 10_000


def from_json_dict(data: dict) -> CCA:
    """Build an automaton from the JSON schema of ``to_json_dict``; names
    must be strings, counters integers and collections lists, nothing is
    coerced.  More than ``MAX_COUNTERS`` counters raise ``CCAError``."""
    if not isinstance(data, dict):
        raise _malformed("expected an object")
    try:
        states = _string_list(data, "states")
        alphabet = _string_list(data, "alphabet")
        if not isinstance(data["transitions"], list):
            raise _malformed("'transitions' must be a list")
        transitions = transitions_from(_transition_rows(data["transitions"]))
        final = data.get("final")
        if not isinstance(data["initial"], str) or not isinstance(final, (str, type(None))):
            raise _malformed("'initial' must be a string and 'final' a string or null")
        counters = _integer(data["counters"], "'counters'")
        if counters > MAX_COUNTERS:
            raise CCAError(f"automaton has {counters} counters, more than {MAX_COUNTERS}")
        return CCA(
            states=frozenset(states),
            alphabet=frozenset(alphabet),
            initial=data["initial"],
            counters=counters,
            transitions=transitions,
            final=final,
        )
    except (KeyError, TypeError) as err:
        raise _malformed(str(err)) from None


def _quoted(text: str) -> str:
    """``text`` as a DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(a: CCA, stream: TextIO) -> None:
    """Write the DOT form of ``a`` to ``stream``, one line at a time; the
    transitions come in ``Transition.sort_key`` order, as ``_write_json``
    walks them."""
    start = "__start"  # the start point, named apart from every state
    while start in a.states:
        start += "_"
    names = {s: _quoted(s) for s in a.states}
    states = sorted(a.states)
    adjacency = a.adjacency()
    write = stream.write
    write(f'digraph cca {{\n  rankdir=LR;\n  {start} [shape=point, label=""];')
    for s in states:
        write(f"\n  {names[s]} [shape={'doublecircle' if s == a.final else 'circle'}];")
    write(f"\n  {start} -> {names[a.initial]};")
    for s in states:
        for source, label, target, counter, op in adjacency[s]:
            text = _quoted(f"{'ε' if label is None else label}/{counter}:{op}")
            write(f"\n  {names[source]} -> {names[target]} [label={text}];")
    write("\n}")


def _write_json(a: CCA, stream: TextIO) -> None:
    """Write ``json.dumps(to_json_dict(a), indent=2)`` to ``stream``.

    Names are strings and counters integers, as ``from_json_dict`` and the
    compiler build them.  Each name is escaped once; the transitions come
    in ``Transition.sort_key`` order, which starts with the source, by
    walking the sorted states through the per-state sorted adjacency.
    Each transition is written as it is formatted, so one transition's
    text is alive at a time, never a list of them or their join.
    """
    quoted = {s: encode_basestring_ascii(s) for s in a.states}
    labels = {x: encode_basestring_ascii(x) for x in a.alphabet}
    labels[None] = '"eps"'
    ops = {op: encode_basestring_ascii(op) for op in _OPS}
    states = sorted(a.states)
    adjacency = a.adjacency()
    final = "null" if a.final is None else quoted[a.final]
    write = stream.write
    write('{\n  "states": [\n    ')
    write(",\n    ".join(map(quoted.__getitem__, states)))
    write('\n  ],\n  "alphabet": [\n    ')
    write(",\n    ".join(map(labels.__getitem__, sorted(a.alphabet))))
    write(
        f'\n  ],\n  "initial": {quoted[a.initial]},\n  "final": {final},\n'
        f'  "counters": {a.counters},\n  "transitions": ['
    )
    lead = "\n"  # before each transition: a line break, after the first a comma too
    for s in states:
        for source, label, target, counter, op in adjacency[s]:
            write(
                f'{lead}    {{\n      "from": {quoted[source]},\n      "label": {labels[label]},\n'
                f'      "to": {quoted[target]},\n      "counter": {counter},\n      "op": {ops[op]}\n    }}'
            )
            lead = ",\n"
    # no transition written leaves "[]", as json.dumps writes an empty list
    write("]\n}" if lead == "\n" else "\n  ]\n}")


_WRITERS = {"json": _write_json, "dot": _write_dot}


def write_export(a: CCA, format: str, stream: TextIO) -> None:
    """Write ``export(a, format)`` to the text stream ``stream`` in pieces,
    without a final line break; an unknown ``format`` raises ``CCAError``
    before anything is written."""
    try:
        writer = _WRITERS[format]
    except KeyError:
        raise CCAError(f"unknown export format {format!r}") from None
    writer(a, stream)


def export(a: CCA, format: str) -> str:
    """Deterministic textual form; ``format`` is ``json`` or ``dot``."""
    stream = io.StringIO()
    write_export(a, format, stream)
    return stream.getvalue()


def import_json(text: str) -> CCA:
    return from_json_dict(json.loads(text))
