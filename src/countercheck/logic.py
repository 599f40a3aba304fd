"""Second-order formulas over infinite words, with the unbounding quantifier.

Pure syntax: formulas are built, inspected and printed but never evaluated
(the full logic is undecidable, and no model checker lives here).  The core
grammar is membership atoms over positions (``InP``, ``InX``), negation,
disjunction, first- and second-order existentials, and the unbounding
quantifier ``Unbounding`` (satisfied by finite sets of unbounded size),
which stays primitive.  Everything else is a distinct AST node with a
documented finite unfolding:

* connectives ``And``, ``Implies``, ``ForAllFO``, ``ForAllSO``;
* ``Bounding``   =  ``Not . Unbounding``;
* ``ExistsFin X. p``    =  ``ExistsSO X. (p and Exists y. forall z in X: z <= y)``;
* ``ExistsOmega x. p``  =  ``forall y exists x. (x > y and p)``;
* order and set predicates (``Eq``, ``Less``, ``LessEq``, ``SubsetEq``,
  ``ProperSubset``, ``InInterval``, ``SubsetInterval``, ``MinGreater``,
  ``InDifference``, ``IsFirst``) with their standard second-order
  definitions.

``SHAPES`` is the one place where a node class's shape is declared: atom,
negation, binary connective, first-order binder or set binder.  Variable
accounting, macro unfolding, the printer and the random formula generator
all dispatch on it.  An atom's ``Var``/``Succ`` fields hold its first-order
variables, and its other fields, except ``letter``, name sets.

``unfold_macros`` rewrites the predicate and quantifier macros into the
connective layer (it never normalizes connectives away, and never touches
``Unbounding``).  Printing is deterministic; a golden test pins it down.
"""
from __future__ import annotations

from functools import reduce
from typing import Optional, Union as TUnion

from .expr import (
    Node,
    Omega,
    OmegaTExpr,
    Prefix,
    RAlt,
    RCat,
    REmpty,
    RStar,
    RSym,
    RegExpr,
    Union,
    erase_to_regex,
    t_subexpressions,
)


# --------------------------------------------------------------------------
# terms

class Var(Node):
    name: str


class Succ(Node):
    arg: "Term"


Term = TUnion[Var, Succ]


def _term_var(t: Term) -> str:
    while isinstance(t, Succ):
        t = t.arg
    return t.name


# --------------------------------------------------------------------------
# formulas

class InP(Node):  # position carries a letter
    term: Term
    letter: str


class InX(Node):  # position belongs to a set variable
    term: Term
    setvar: str


class Not(Node):
    body: "Formula"


class Or(Node):
    left: "Formula"
    right: "Formula"


class And(Node):
    left: "Formula"
    right: "Formula"


class Implies(Node):
    left: "Formula"
    right: "Formula"


class ExistsFO(Node):
    var: str
    body: "Formula"


class ForAllFO(Node):
    var: str
    body: "Formula"


class ExistsSO(Node):
    var: str
    body: "Formula"


class ForAllSO(Node):
    var: str
    body: "Formula"


class Unbounding(Node):
    var: str
    body: "Formula"


class Bounding(Node):
    var: str
    body: "Formula"


class ExistsFin(Node):
    var: str
    body: "Formula"


class ExistsOmega(Node):
    var: str
    body: "Formula"


class Eq(Node):
    left: Term
    right: Term


class Less(Node):
    left: Term
    right: Term


class LessEq(Node):
    left: Term
    right: Term


class SubsetEq(Node):
    left: str
    right: str


class ProperSubset(Node):
    left: str
    right: str


class InInterval(Node):  # term lies between lo and hi, inclusive
    term: Term
    lo: Term
    hi: Term


class SubsetInterval(Node):  # every member of the set lies between lo and hi
    setvar: str
    lo: Term
    hi: Term


class MinGreater(Node):  # every member of the set exceeds the term
    setvar: str
    term: Term


class InDifference(Node):  # term in left set but not in right set
    term: Term
    left: str
    right: str


class IsFirst(Node):  # term is the least position
    term: Term


Formula = object  # any of the node classes above


# --------------------------------------------------------------------------
# node shapes

ATOM, NEGATION, BINARY, FO_BINDER, SO_BINDER = range(5)

SHAPES: dict[type, int] = {
    InP: ATOM, InX: ATOM, Eq: ATOM, Less: ATOM, LessEq: ATOM, SubsetEq: ATOM,
    ProperSubset: ATOM, InInterval: ATOM, SubsetInterval: ATOM, MinGreater: ATOM,
    InDifference: ATOM, IsFirst: ATOM,
    Not: NEGATION,
    Or: BINARY, And: BINARY, Implies: BINARY,
    ExistsFO: FO_BINDER, ForAllFO: FO_BINDER, ExistsOmega: FO_BINDER,
    ExistsSO: SO_BINDER, ForAllSO: SO_BINDER, Unbounding: SO_BINDER,
    Bounding: SO_BINDER, ExistsFin: SO_BINDER,
}


def _shape(f: Formula) -> int:
    try:
        return SHAPES[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


# --------------------------------------------------------------------------
# variable accounting

def _atom_vars(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """An atom's (first-order, set) variables: its terms hold the first
    kind, and every other field but a letter names a set."""
    fo, so = [], []
    for field, value in zip(f._fields, f._values(f)):
        if isinstance(value, (Var, Succ)):
            fo.append(_term_var(value))
        elif field != "letter":
            so.append(value)
    return frozenset(fo), frozenset(so)


def _variables(f: Formula) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(free first-order, free set, every name bound or free) of ``f``."""
    shape = _shape(f)
    if shape == ATOM:
        fo, so = _atom_vars(f)
        return fo, so, fo | so
    if shape == NEGATION:
        return _variables(f.body)
    if shape == BINARY:
        lf, ls, ln = _variables(f.left)
        rf, rs, rn = _variables(f.right)
        return lf | rf, ls | rs, ln | rn
    bf, bs, names = _variables(f.body)
    if shape == FO_BINDER:
        return bf - {f.var}, bs, names | {f.var}
    return bf, bs - {f.var}, names | {f.var}


def free_vars(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """(free first-order, free second-order) variable names.

    Letter predicates are not variables; a formula is closed modulo them
    when both components are empty.
    """
    fo, so, _ = _variables(f)
    return fo, so


class NameSupply:
    """Deterministic fresh variable names avoiding a forbidden set.

    Hands out the bare stem when available, then stem1, stem2, ...
    """

    def __init__(self, forbidden=()):
        self.forbidden = set(forbidden)
        self.counts: dict[str, int] = {}

    def fresh(self, stem: str) -> str:
        if stem not in self.counts and stem not in self.forbidden:
            self.counts[stem] = 0
            self.forbidden.add(stem)
            return stem
        i = self.counts.get(stem, 0)
        while True:
            i += 1
            name = f"{stem}{i}"
            if name not in self.forbidden:
                self.counts[stem] = i
                self.forbidden.add(name)
                return name


# --------------------------------------------------------------------------
# macro unfolding

def unfold_macros(f: Formula) -> Formula:
    """Rewrite quantifier and predicate macros into the connective layer.

    ``Unbounding`` stays primitive; connectives (``And``, ``Implies``,
    ``ForAll*``) remain as displayable nodes.  Fresh bound variables are
    drawn from a supply seeded with every name in ``f``, so no capture can
    occur.
    """
    supply = NameSupply(_variables(f)[2])

    def go(g: Formula) -> Formula:
        if isinstance(g, Bounding):
            return Not(Unbounding(g.var, go(g.body)))
        if isinstance(g, ExistsFin):
            y = supply.fresh("y")
            z = supply.fresh("z")
            cap = ExistsFO(y, ForAllFO(z, Implies(InX(Var(z), g.var), go(LessEq(Var(z), Var(y))))))
            return ExistsSO(g.var, And(go(g.body), cap))
        if isinstance(g, ExistsOmega):
            y = supply.fresh("y")
            return ForAllFO(y, ExistsFO(g.var, And(go(Less(Var(y), Var(g.var))), go(g.body))))
        if isinstance(g, Eq):
            return And(go(LessEq(g.left, g.right)), go(LessEq(g.right, g.left)))
        if isinstance(g, Less):
            return go(LessEq(Succ(g.left), g.right))
        if isinstance(g, LessEq):
            chain = supply.fresh("Z")
            w = supply.fresh("w")
            inductive = ForAllFO(w, Implies(InX(Var(w), chain), InX(Succ(Var(w)), chain)))
            return ForAllSO(
                chain,
                Implies(And(InX(g.left, chain), inductive), InX(g.right, chain)),
            )
        if isinstance(g, SubsetEq):
            z = supply.fresh("z")
            return ForAllFO(z, Implies(InX(Var(z), g.left), InX(Var(z), g.right)))
        if isinstance(g, ProperSubset):
            z = supply.fresh("z")
            witness = ExistsFO(z, And(InX(Var(z), g.right), Not(InX(Var(z), g.left))))
            return And(go(SubsetEq(g.left, g.right)), witness)
        if isinstance(g, InInterval):
            return And(go(LessEq(g.lo, g.term)), go(LessEq(g.term, g.hi)))
        if isinstance(g, SubsetInterval):
            z = supply.fresh("z")
            return ForAllFO(
                z, Implies(InX(Var(z), g.setvar), go(InInterval(Var(z), g.lo, g.hi)))
            )
        if isinstance(g, MinGreater):
            z = supply.fresh("z")
            return ForAllFO(z, Implies(InX(Var(z), g.setvar), go(Less(g.term, Var(z)))))
        if isinstance(g, InDifference):
            return And(InX(g.term, g.left), Not(InX(g.term, g.right)))
        if isinstance(g, IsFirst):
            z = supply.fresh("y")
            return ForAllFO(z, go(LessEq(g.term, Var(z))))
        # the connective layer is kept; operands go left to right, so the
        # supply hands out names in a fixed order
        shape = _shape(g)
        if shape == ATOM:
            return g
        if shape == NEGATION:
            return Not(go(g.body))
        if shape == BINARY:
            return type(g)(go(g.left), go(g.right))
        return type(g)(g.var, go(g.body))

    try:
        return go(f)
    finally:
        del go  # the closure refers to itself; unbinding it leaves no cycle to collect


# --------------------------------------------------------------------------
# printing

_STYLES = {
    "unicode": {
        "in": "∈",
        "not": "¬",
        "or": "∨",
        "and": "∧",
        "implies": "→",
        "exists": "∃",
        "forall": "∀",
        "existsfin": "∃fin ",
        "existsomega": "∃^ω ",
        "le": "≤",
        "subset": "⊆",
        "psubset": "⊊",
        "setminus": "∖",
        "dots": "…",
    },
    "ascii": {
        "in": "in",
        "not": "~",
        "or": "\\/",
        "and": "/\\",
        "implies": "->",
        "exists": "E ",
        "forall": "A ",
        "existsfin": "Efin ",
        "existsomega": "E^w ",
        "le": "<=",
        "subset": "sub",
        "psubset": "psub",
        "setminus": "\\",
        "dots": "..",
    },
}


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"s({_term_text(t.arg)})"


def _emit(g: Formula, table: dict, out: list, spans: dict) -> None:
    """Append ``g``'s text to ``out`` in pieces.  ``spans`` maps each
    connective and binder already shown, keyed by identity, to the slice of
    ``out`` that holds its text, so a node shared by several parents is
    rendered once and later copies its pieces; it lives for one
    ``pretty_formula`` call, whose formula keeps every node, and so every
    key, alive.  No node's text is held whole, so the peak stays linear in
    the output, where a memo of texts would hold each node's text again in
    every ancestor's.  Atoms are left out: an atom's text is one f-string,
    cheaper to make again than to look up.  Only a binary connective's text
    starts with "(", so a body of another shape is parenthesised."""
    try:
        shape, glyph = table[type(g)]
    except KeyError:
        raise TypeError(f"not a formula: {g!r}") from None
    if shape == ATOM:
        out.append(glyph(g))
        return
    key = id(g)
    span = spans.get(key)
    if span is not None:
        out += out[span[0]:span[1]]
        return
    start = len(out)
    if shape == BINARY:
        out.append("(")
        _emit(g.left, table, out, spans)
        out.append(glyph)
        _emit(g.right, table, out, spans)
        out.append(")")
    else:
        out.append(glyph if shape == NEGATION else f"{glyph}{g.var}.")
        body = g.body
        if SHAPES.get(type(body)) == BINARY:
            _emit(body, table, out, spans)
        else:
            out.append("(")
            _emit(body, table, out, spans)
            out.append(")")
    spans[key] = (start, len(out))


def pretty_formula(f: Formula, style: str = "unicode", expand_macros: bool = False) -> str:
    """Deterministic rendering; ``style`` is ``unicode`` or ``ascii``."""
    if style not in _STYLES:
        raise ValueError(f"unknown style {style!r}")
    if expand_macros:
        f = unfold_macros(f)
    glyph = _STYLES[style]
    in_, le, subset, psubset = glyph["in"], glyph["le"], glyph["subset"], glyph["psubset"]
    dots, setminus, exists, forall = glyph["dots"], glyph["setminus"], glyph["exists"], glyph["forall"]
    term = _term_text
    # node class -> text: an atom's text is its renderer, a binary
    # connective's its glyph between spaces, the other shapes' their glyph
    texts = {
        InP: lambda g: f"{term(g.term)} {in_} P_{g.letter}",
        InX: lambda g: f"{term(g.term)} {in_} {g.setvar}",
        Eq: lambda g: f"{term(g.left)} = {term(g.right)}",
        Less: lambda g: f"{term(g.left)} < {term(g.right)}",
        LessEq: lambda g: f"{term(g.left)} {le} {term(g.right)}",
        SubsetEq: lambda g: f"{g.left} {subset} {g.right}",
        ProperSubset: lambda g: f"{g.left} {psubset} {g.right}",
        InInterval: lambda g: f"{term(g.term)} {in_} {{{term(g.lo)},{dots},{term(g.hi)}}}",
        SubsetInterval: lambda g: f"{g.setvar} {subset} {{{term(g.lo)},{dots},{term(g.hi)}}}",
        MinGreater: lambda g: f"min {g.setvar} > {term(g.term)}",
        InDifference: lambda g: f"{term(g.term)} {in_} {g.left}{setminus}{g.right}",
        IsFirst: lambda g: f"first({term(g.term)})",
        Not: glyph["not"],
        Or: f" {glyph['or']} ",
        And: f" {glyph['and']} ",
        Implies: f" {glyph['implies']} ",
        ExistsFO: exists,
        ExistsSO: exists,
        ForAllFO: forall,
        ForAllSO: forall,
        Unbounding: "U ",
        Bounding: "B ",
        ExistsFin: glyph["existsfin"],
        ExistsOmega: glyph["existsomega"],
    }
    table = {cls: (shape, texts[cls]) for cls, shape in SHAPES.items()}
    out: list[str] = []
    _emit(f, table, out, {})
    return "".join(out)


# --------------------------------------------------------------------------
# regular expressions as position formulas

def nullable(e: RegExpr) -> bool:
    if isinstance(e, (REmpty, RSym)):
        return False
    if isinstance(e, RCat):
        return nullable(e.left) and nullable(e.right)
    if isinstance(e, RAlt):
        return nullable(e.left) or nullable(e.right)
    return True


def _match_formula(e: RegExpr, lo: Term, hi: Term, supply: NameSupply) -> Formula:
    """The factor between positions ``lo`` and ``hi`` (inclusive, hence
    nonempty) matches ``e``."""
    if isinstance(e, REmpty):
        return And(Less(lo, lo), Less(hi, hi))
    if isinstance(e, RSym):
        return And(Eq(lo, hi), InP(lo, e.letter))
    if isinstance(e, RAlt):
        return Or(_match_formula(e.left, lo, hi, supply), _match_formula(e.right, lo, hi, supply))
    if isinstance(e, RCat):
        parts: list = []
        if nullable(e.left):
            parts.append(_match_formula(e.right, lo, hi, supply))
        if nullable(e.right):
            parts.append(_match_formula(e.left, lo, hi, supply))
        z = supply.fresh("z")
        zv = Var(z)
        split = ExistsFO(
            z,
            reduce(And, [
                LessEq(lo, zv),
                Less(zv, hi),
                _match_formula(e.left, lo, zv, supply),
                _match_formula(e.right, Succ(zv), hi, supply),
            ]),
        )
        parts.append(split)
        return reduce(Or, parts)
    # finite repetition: a chain of nonempty factor starts
    starts = supply.fresh("X")
    z = supply.fresh("z")
    w = supply.fresh("w")
    zv, wv = Var(z), Var(w)
    chain = ExistsFO(
        w,
        reduce(And, [
            LessEq(zv, wv),
            LessEq(wv, hi),
            _match_formula(e.body, zv, wv, supply),
            Or(Eq(wv, hi), InX(Succ(wv), starts)),
        ]),
    )
    per_start = ForAllFO(z, Implies(InX(zv, starts), And(InInterval(zv, lo, hi), chain)))
    return ExistsSO(starts, And(InX(lo, starts), per_start))


def is_regexp_formula(e: RegExpr, x: str, y: str) -> Formula:
    """Open formula with free first-order variables exactly ``x`` and ``y``:
    the factor from position x through position y matches ``e``."""
    if x == y:
        raise ValueError("the two endpoint variables must differ")
    supply = NameSupply({x, y})
    return _match_formula(e, Var(x), Var(y), supply)


def begins_formula(e: RegExpr, x: str, supply: Optional[NameSupply] = None) -> Formula:
    """Some factor matching ``e`` starts at position ``x``."""
    if supply is None:
        supply = NameSupply({x})
    y = supply.fresh("y")
    return ExistsFO(y, And(LessEq(Var(x), Var(y)), _match_formula(e, Var(x), Var(y), supply)))


# --------------------------------------------------------------------------
# block structure of repeated factors

def block_formula(e: RegExpr, block: str) -> Formula:
    """``block`` is a maximal set of positions starting consecutive
    ``e``-factors."""
    supply = NameSupply({block})
    y = supply.fresh("y")
    z = supply.fresh("z")
    x = supply.fresh("x")
    yv, zv, xv = Var(y), Var(z), Var(x)
    maximal = ForAllFO(
        x,
        Implies(And(InInterval(xv, yv, zv), begins_formula(e, x, supply)), InX(xv, block)),
    )
    return ExistsFO(
        y,
        ExistsFO(
            z,
            reduce(And, [
                _match_formula(RStar(e), yv, zv, supply),
                SubsetInterval(block, yv, zv),
                maximal,
            ]),
        ),
    )


def _blockset(e: RegExpr, family: str, blocks: dict[str, Formula]) -> Formula:
    """``blockset_formula(e, family)``, taking its block formula from
    ``blocks`` by the block's name, and adding it there when missing."""
    supply = NameSupply({family})
    y = supply.fresh("y")
    yv = Var(y)
    block_x = supply.fresh("X")
    is_block = blocks.get(block_x)
    if is_block is None:
        is_block = blocks[block_x] = block_formula(e, block_x)

    covered = ForAllFO(
        y,
        Implies(
            InX(yv, family),
            ExistsFin(
                block_x,
                reduce(And, [is_block, SubsetEq(block_x, family), InX(yv, block_x)]),
            ),
        ),
    )
    unboundedly_many = ForAllFO(
        y,
        ExistsFin(
            block_x,
            reduce(And, [is_block, SubsetEq(block_x, family), MinGreater(block_x, yv)]),
        ),
    )
    sizes_bounded = Bounding(block_x, And(SubsetEq(block_x, family), is_block))
    return reduce(And, [covered, unboundedly_many, sizes_bounded])


def blockset_formula(e: RegExpr, family: str) -> Formula:
    """``family`` consists of ``e``-blocks only, contains infinitely many,
    and their sizes are bounded."""
    return _blockset(e, family, {})


def t_condition(e: RegExpr) -> Formula:
    """Infinitely many block sizes occur infinitely often among the
    ``e``-blocks of the word."""
    supply = NameSupply()
    family = supply.fresh("Y")
    bigger = supply.fresh("Z")
    x = supply.fresh("x")
    blocks: dict[str, Formula] = {}  # both block sets share one block formula
    grow = ExistsSO(
        bigger,
        reduce(And, [
            _blockset(e, bigger, blocks),
            ProperSubset(family, bigger),
            ExistsOmega(x, InDifference(Var(x), bigger, family)),
        ]),
    )
    return ForAllSO(family, Implies(_blockset(e, family, blocks), grow))


# --------------------------------------------------------------------------
# whole-word formulas

def _word_formula(e: OmegaTExpr, start: Term, supply: NameSupply) -> Formula:
    if isinstance(e, Union):
        return Or(_word_formula(e.left, start, supply), _word_formula(e.right, start, supply))
    if isinstance(e, Prefix):
        parts: list = []
        if nullable(e.prefix):
            parts.append(_word_formula(e.tail, start, supply))
        y = supply.fresh("y")
        yv = Var(y)
        parts.append(
            ExistsFO(
                y,
                reduce(And, [
                    LessEq(start, yv),
                    _match_formula(e.prefix, start, yv, supply),
                    _word_formula(e.tail, Succ(yv), supply),
                ]),
            )
        )
        return reduce(Or, parts)
    if isinstance(e, Omega):
        shape = erase_to_regex(e.body)
        starts = supply.fresh("X")
        z = supply.fresh("z")
        w = supply.fresh("w")
        u = supply.fresh("u")
        v = supply.fresh("v")
        zv, wv, uv, vv = Var(z), Var(w), Var(u), Var(v)
        chained = ForAllFO(
            z,
            Implies(
                InX(zv, starts),
                ExistsFO(
                    w,
                    reduce(And, [
                        LessEq(zv, wv), _match_formula(shape, zv, wv, supply), InX(Succ(wv), starts)
                    ]),
                ),
            ),
        )
        unbounded = ForAllFO(u, ExistsFO(v, And(InX(vv, starts), Less(uv, vv))))
        return ExistsSO(starts, reduce(And, [InX(start, starts), chained, unbounded]))
    raise TypeError(f"not an omega expression: {e!r}")


def omega_word_formula(e: OmegaTExpr) -> Formula:
    """Closed formula for an omega expression that reads ``^T`` as ``*`` (the
    standard encoding of omega-regular languages)."""
    supply = NameSupply()
    first = supply.fresh("x")
    return ExistsFO(first, And(IsFirst(Var(first)), _word_formula(e, Var(first), supply)))


def emit_phi(e: OmegaTExpr) -> Formula:
    """Star-relaxed core strengthened with one recurrent-block-size
    condition per ``^T`` site.

    The conjunction is a schema: the block conditions are not relativized
    to their sites, so the result is documented as an approximation, not
    asserted language-equal.  The star-relaxed core reads a block-level
    ``*`` as zero or more iterations, as ``erase_to_regex`` does, where the
    compiler reads it as one or more per block: the core of ``(a* b)^w``
    admits ``bbb...``, on which the compiled automaton has no run prefix.
    """
    core = omega_word_formula(e)
    made: dict[RegExpr, Formula] = {}  # one condition per distinct body, shared by its sites
    conditions = []
    for body in t_subexpressions(e):
        shape = erase_to_regex(body)
        if shape not in made:
            made[shape] = t_condition(shape)
        conditions.append(made[shape])
    return reduce(And, [core, *conditions])
