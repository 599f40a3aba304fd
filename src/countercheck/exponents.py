"""Symbolic exponent-sequence generators.

A generator denotes an infinite sequence of positive block sizes (the sizes
of consecutive maximal repetition blocks in an omega-word).  The interesting
limit questions about such a sequence -- is it bounded?  does any value
recur forever?  do infinitely many values recur forever? -- are undecidable
for black-box functions, so the DSL is closed: every constructor carries a
closed-form description of which values occur infinitely often and which
occur only finitely often.

``classify`` answers the three limit questions symbolically;
``decompose_prefix`` splits a finite prefix into the two index streams that
witness how any repetition schedule factors into a bounded-or-recurring part
and a diverging part.
"""
from __future__ import annotations

from typing import Union as TUnion

from .expr import Record


class Constant(Record):
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("block sizes must be positive")


class Ramp(Record):
    start: int
    step: int

    def __post_init__(self):
        if self.start < 1 or self.step < 1:
            raise ValueError("start and step must be positive")


class Staircase(Record):
    """1; 1,2; 1,2,3; ... -- every positive size recurs forever."""


class PeriodicList(Record):
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or any(v < 1 for v in self.values):
            raise ValueError("need a nonempty list of positive sizes")


class Interleave(Record):
    first: "ExponentGen"
    second: "ExponentGen"


ExponentGen = TUnion[Constant, Ramp, Staircase, PeriodicList, Interleave]


def sample(gen: ExponentGen, i: int) -> int:
    """The i-th element of the generated sequence, i >= 1."""
    if i < 1:
        raise ValueError("indexes start at 1")
    if isinstance(gen, Constant):
        return gen.value
    if isinstance(gen, Ramp):
        return gen.start + (i - 1) * gen.step
    if isinstance(gen, Staircase):
        # walk i-1 positions into the triangle 1; 1,2; 1,2,3; ...
        k = i - 1
        block = 1
        while k >= block:
            k -= block
            block += 1
        return k + 1
    if isinstance(gen, PeriodicList):
        return gen.values[(i - 1) % len(gen.values)]
    if i % 2 == 1:
        return sample(gen.first, (i + 1) // 2)
    return sample(gen.second, i // 2)


# --------------------------------------------------------------------------
# value sets from the leaves
#
# An Interleave visits each of its leaves infinitely often, so the sizes
# that recur are every size when a leaf is a Staircase, else the sizes of
# the Constant and PeriodicList leaves; the sizes that vanish are those of
# the Ramp leaves that do not recur.  A ValueSet denotes  singles  union
# (union of ramps  minus  removed),  a ramp (a, d) being {a, a+d, ...}.

class ValueSet(Record):
    singles: frozenset[int] = frozenset()
    ramps: tuple[tuple[int, int], ...] = ()
    removed: frozenset[int] = frozenset()

    def __contains__(self, v: int) -> bool:
        if v in self.singles:
            return True
        if v in self.removed:
            return False
        return any(v >= a and (v - a) % d == 0 for a, d in self.ramps)

    @property
    def is_empty(self) -> bool:
        return not self.singles and not self.ramps

    @property
    def is_infinite(self) -> bool:
        return bool(self.ramps)


def _leaves(gen: ExponentGen) -> list[ExponentGen]:
    """The generator's leaves, left to right, without recursion."""
    leaves, todo = [], [gen]
    while todo:
        g = todo.pop()
        if isinstance(g, Interleave):
            todo += (g.second, g.first)
        else:
            leaves.append(g)
    return leaves


def recurring_values(gen: ExponentGen) -> ValueSet:
    """Sizes occurring infinitely often in the sequence."""
    leaves = _leaves(gen)
    if any(isinstance(leaf, Staircase) for leaf in leaves):
        return ValueSet(ramps=((1, 1),))
    sizes = set()
    for leaf in leaves:
        if isinstance(leaf, Constant):
            sizes.add(leaf.value)
        elif isinstance(leaf, PeriodicList):
            sizes.update(leaf.values)
    return ValueSet(frozenset(sizes))


def vanishing_values(gen: ExponentGen) -> ValueSet:
    """Sizes occurring at least once but only finitely often."""
    recurring = recurring_values(gen)
    if recurring.is_infinite:
        return ValueSet()
    ramps = tuple((leaf.start, leaf.step) for leaf in _leaves(gen) if isinstance(leaf, Ramp))
    return ValueSet(ramps=ramps, removed=recurring.singles)


def is_bounded(gen: ExponentGen) -> bool:
    return not any(isinstance(leaf, (Ramp, Staircase)) for leaf in _leaves(gen))


class ClassFlags(Record):
    bounded: bool
    strictly_unbounded: bool
    t_holds: bool


def classify(gen: ExponentGen) -> ClassFlags:
    """The three limit properties of the generated sequence.

    bounded: some size bounds the whole sequence.  strictly_unbounded: no
    size recurs forever (over positive integers this forces divergence).
    t_holds: infinitely many distinct sizes each recur forever.
    """
    recurring = recurring_values(gen)
    bounded = is_bounded(gen)
    return ClassFlags(
        bounded=bounded,
        strictly_unbounded=recurring.is_empty and not bounded,
        t_holds=recurring.is_infinite,
    )


class PrefixDecomposition(Record):
    """Index labels for a sequence prefix.

    ``labels[j]`` is ``"S"`` when the (j+1)-th size occurs only finitely
    often in the whole sequence (the diverging stream), else ``"BT"``.
    ``recurring_kind`` tags the BT stream: ``"B"`` when only finitely many
    sizes recur forever, ``"T"`` when infinitely many do.
    """

    labels: tuple[str, ...]
    recurring_kind: str

    def stream(self, label: str) -> tuple[int, ...]:
        return tuple(j + 1 for j, lab in enumerate(self.labels) if lab == label)


def decompose_prefix(gen: ExponentGen, prefix_len: int) -> PrefixDecomposition:
    """Split indexes 1..prefix_len by whether their size eventually vanishes."""
    if prefix_len < 1:
        raise ValueError("prefix_len must be at least 1")
    vanishing = vanishing_values(gen)
    labels = tuple(
        "S" if sample(gen, j) in vanishing else "BT" for j in range(1, prefix_len + 1)
    )
    kind = "T" if recurring_values(gen).is_infinite else "B"
    return PrefixDecomposition(labels, kind)


# --------------------------------------------------------------------------
# textual generator specs (CLI)

def parse_generator(text: str) -> ExponentGen:
    """Parse specs like ``staircase``, ``const:5``, ``ramp:1:1``,
    ``periodic:1,2,3`` and ``interleave(const:1,ramp:2:1)``."""
    spec = text.strip()
    if spec == "staircase":
        return Staircase()
    if spec.startswith("const:"):
        return Constant(_int(spec[6:], text))
    if spec.startswith("ramp:"):
        parts = spec[5:].split(":")
        if len(parts) != 2:
            raise ValueError(f"bad generator spec {text!r}: ramp needs start:step")
        return Ramp(_int(parts[0], text), _int(parts[1], text))
    if spec.startswith("periodic:"):
        return PeriodicList(tuple(_int(p, text) for p in spec[9:].split(",")))
    if spec.startswith("interleave(") and spec.endswith(")"):
        # a periodic list's commas are top level too, and no generator spec
        # starts with a digit, so the operands split at the first top-level
        # comma after which the rest parses; when none does, the rest after
        # the last one names the fault
        inner = spec[len("interleave(") : -1]
        refusal = None
        depth = 0
        for i, c in enumerate(inner):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 0:
                try:
                    second = parse_generator(inner[i + 1 :])
                except ValueError as err:
                    refusal = err
                    continue
                return Interleave(parse_generator(inner[:i]), second)
        raise refusal or ValueError(f"bad generator spec {text!r}: interleave needs two parts")
    raise ValueError(f"bad generator spec {text!r}")


def _int(s: str, full: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"bad generator spec {full!r}: {s!r} is not an integer") from None
