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

``unfold_macros`` rewrites the predicate and quantifier macros into the
connective layer (it never normalizes connectives away, and never touches
``Unbounding``).  Printing is deterministic; a golden test pins it down.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union as TUnion

from .expr import (
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
    substitute_t_with_star,
    t_subexpressions,
)


# --------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Succ:
    arg: "Term"


Term = TUnion[Var, Succ]


def _term_vars(t: Term) -> frozenset[str]:
    while isinstance(t, Succ):
        t = t.arg
    return frozenset({t.name})


# --------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class InP:  # position carries a letter
    term: Term
    letter: str


@dataclass(frozen=True)
class InX:  # position belongs to a set variable
    term: Term
    setvar: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ExistsFO:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ForAllFO:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsSO:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ForAllSO:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Unbounding:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Bounding:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsFin:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsOmega:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Less:
    left: Term
    right: Term


@dataclass(frozen=True)
class LessEq:
    left: Term
    right: Term


@dataclass(frozen=True)
class SubsetEq:
    left: str
    right: str


@dataclass(frozen=True)
class ProperSubset:
    left: str
    right: str


@dataclass(frozen=True)
class InInterval:  # term lies between lo and hi, inclusive
    term: Term
    lo: Term
    hi: Term


@dataclass(frozen=True)
class SubsetInterval:  # every member of the set lies between lo and hi
    setvar: str
    lo: Term
    hi: Term


@dataclass(frozen=True)
class MinGreater:  # every member of the set exceeds the term
    setvar: str
    term: Term


@dataclass(frozen=True)
class InDifference:  # term in left set but not in right set
    term: Term
    left: str
    right: str


@dataclass(frozen=True)
class IsFirst:  # term is the least position
    term: Term


Formula = object  # any of the node classes above


# --------------------------------------------------------------------------
# variable accounting

def free_vars(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """(free first-order, free second-order) variable names.

    Letter predicates are not variables; a formula is closed modulo them
    when both components are empty.
    """
    if isinstance(f, InP):
        return _term_vars(f.term), frozenset()
    if isinstance(f, InX):
        return _term_vars(f.term), frozenset({f.setvar})
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (Or, And, Implies)):
        lf, ls = free_vars(f.left)
        rf, rs = free_vars(f.right)
        return lf | rf, ls | rs
    if isinstance(f, (ExistsFO, ForAllFO, ExistsOmega)):
        bf, bs = free_vars(f.body)
        return bf - {f.var}, bs
    if isinstance(f, (ExistsSO, ForAllSO, Unbounding, Bounding, ExistsFin)):
        bf, bs = free_vars(f.body)
        return bf, bs - {f.var}
    if isinstance(f, (Eq, Less, LessEq)):
        return _term_vars(f.left) | _term_vars(f.right), frozenset()
    if isinstance(f, (SubsetEq, ProperSubset)):
        return frozenset(), frozenset({f.left, f.right})
    if isinstance(f, InInterval):
        return _term_vars(f.term) | _term_vars(f.lo) | _term_vars(f.hi), frozenset()
    if isinstance(f, SubsetInterval):
        return _term_vars(f.lo) | _term_vars(f.hi), frozenset({f.setvar})
    if isinstance(f, MinGreater):
        return _term_vars(f.term), frozenset({f.setvar})
    if isinstance(f, InDifference):
        return _term_vars(f.term), frozenset({f.left, f.right})
    if isinstance(f, IsFirst):
        return _term_vars(f.term), frozenset()
    raise TypeError(f"not a formula: {f!r}")


def all_var_names(f: Formula) -> frozenset[str]:
    """Every variable name occurring in ``f``, bound or free."""
    if isinstance(f, (InP, IsFirst)):
        return _term_vars(f.term)
    if isinstance(f, InX):
        return _term_vars(f.term) | {f.setvar}
    if isinstance(f, Not):
        return all_var_names(f.body)
    if isinstance(f, (Or, And, Implies)):
        return all_var_names(f.left) | all_var_names(f.right)
    if isinstance(
        f,
        (ExistsFO, ForAllFO, ExistsSO, ForAllSO, Unbounding, Bounding, ExistsFin, ExistsOmega),
    ):
        return all_var_names(f.body) | {f.var}
    if isinstance(f, (Eq, Less, LessEq)):
        return _term_vars(f.left) | _term_vars(f.right)
    if isinstance(f, (SubsetEq, ProperSubset)):
        return frozenset({f.left, f.right})
    if isinstance(f, InInterval):
        return _term_vars(f.term) | _term_vars(f.lo) | _term_vars(f.hi)
    if isinstance(f, SubsetInterval):
        return _term_vars(f.lo) | _term_vars(f.hi) | {f.setvar}
    if isinstance(f, MinGreater):
        return _term_vars(f.term) | {f.setvar}
    if isinstance(f, InDifference):
        return _term_vars(f.term) | {f.left, f.right}
    raise TypeError(f"not a formula: {f!r}")


class NameSupply:
    """Deterministic fresh variable names avoiding a forbidden set.

    Hands out the bare stem when available, then stem1, stem2, ...
    """

    def __init__(self, forbidden=()):
        self.forbidden = set(forbidden)
        self.counts: dict[str, int] = {}

    def _next(self, stem: str) -> str:
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

    def fo(self, stem: str = "z") -> str:
        return self._next(stem)

    def so(self, stem: str = "X") -> str:
        return self._next(stem)


# --------------------------------------------------------------------------
# macro unfolding

def unfold_macros(f: Formula) -> Formula:
    """Rewrite quantifier and predicate macros into the connective layer.

    ``Unbounding`` stays primitive; connectives (``And``, ``Implies``,
    ``ForAll*``) remain as displayable nodes.  Fresh bound variables are
    drawn from a supply seeded with every name in ``f``, so no capture can
    occur.
    """
    supply = NameSupply(all_var_names(f))

    def go(g: Formula) -> Formula:
        if isinstance(g, (InP, InX)):
            return g
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, Or):
            return Or(go(g.left), go(g.right))
        if isinstance(g, And):
            return And(go(g.left), go(g.right))
        if isinstance(g, Implies):
            return Implies(go(g.left), go(g.right))
        if isinstance(g, ExistsFO):
            return ExistsFO(g.var, go(g.body))
        if isinstance(g, ForAllFO):
            return ForAllFO(g.var, go(g.body))
        if isinstance(g, ExistsSO):
            return ExistsSO(g.var, go(g.body))
        if isinstance(g, ForAllSO):
            return ForAllSO(g.var, go(g.body))
        if isinstance(g, Unbounding):
            return Unbounding(g.var, go(g.body))
        if isinstance(g, Bounding):
            return Not(Unbounding(g.var, go(g.body)))
        if isinstance(g, ExistsFin):
            y = supply.fo("y")
            z = supply.fo("z")
            cap = ExistsFO(y, ForAllFO(z, Implies(InX(Var(z), g.var), go(LessEq(Var(z), Var(y))))))
            return ExistsSO(g.var, And(go(g.body), cap))
        if isinstance(g, ExistsOmega):
            y = supply.fo("y")
            return ForAllFO(y, ExistsFO(g.var, And(go(Less(Var(y), Var(g.var))), go(g.body))))
        if isinstance(g, Eq):
            return And(go(LessEq(g.left, g.right)), go(LessEq(g.right, g.left)))
        if isinstance(g, Less):
            return go(LessEq(Succ(g.left), g.right))
        if isinstance(g, LessEq):
            chain = supply.so("Z")
            w = supply.fo("w")
            inductive = ForAllFO(w, Implies(InX(Var(w), chain), InX(Succ(Var(w)), chain)))
            return ForAllSO(
                chain,
                Implies(And(InX(g.left, chain), inductive), InX(g.right, chain)),
            )
        if isinstance(g, SubsetEq):
            z = supply.fo("z")
            return ForAllFO(z, Implies(InX(Var(z), g.left), InX(Var(z), g.right)))
        if isinstance(g, ProperSubset):
            z = supply.fo("z")
            witness = ExistsFO(z, And(InX(Var(z), g.right), Not(InX(Var(z), g.left))))
            return And(go(SubsetEq(g.left, g.right)), witness)
        if isinstance(g, InInterval):
            return And(go(LessEq(g.lo, g.term)), go(LessEq(g.term, g.hi)))
        if isinstance(g, SubsetInterval):
            z = supply.fo("z")
            return ForAllFO(
                z, Implies(InX(Var(z), g.setvar), go(InInterval(Var(z), g.lo, g.hi)))
            )
        if isinstance(g, MinGreater):
            z = supply.fo("z")
            return ForAllFO(z, Implies(InX(Var(z), g.setvar), go(Less(g.term, Var(z)))))
        if isinstance(g, InDifference):
            return And(InX(g.term, g.left), Not(InX(g.term, g.right)))
        if isinstance(g, IsFirst):
            z = supply.fo("y")
            return ForAllFO(z, go(LessEq(g.term, Var(z))))
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


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


# the shapes of printed nodes; ``pretty_formula`` maps each node class to one
_ATOM, _BINARY, _BINDER, _NEGATION = range(4)


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"s({_term_text(t.arg)})"


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
    # node class -> (shape, text): an atom's text is its renderer, the other
    # shapes' text is the glyph they print
    table = {
        InP: (_ATOM, lambda g: f"{term(g.term)} {in_} P_{g.letter}"),
        InX: (_ATOM, lambda g: f"{term(g.term)} {in_} {g.setvar}"),
        Eq: (_ATOM, lambda g: f"{term(g.left)} = {term(g.right)}"),
        Less: (_ATOM, lambda g: f"{term(g.left)} < {term(g.right)}"),
        LessEq: (_ATOM, lambda g: f"{term(g.left)} {le} {term(g.right)}"),
        SubsetEq: (_ATOM, lambda g: f"{g.left} {subset} {g.right}"),
        ProperSubset: (_ATOM, lambda g: f"{g.left} {psubset} {g.right}"),
        InInterval: (_ATOM, lambda g: f"{term(g.term)} {in_} {{{term(g.lo)},{dots},{term(g.hi)}}}"),
        SubsetInterval: (_ATOM, lambda g: f"{g.setvar} {subset} {{{term(g.lo)},{dots},{term(g.hi)}}}"),
        MinGreater: (_ATOM, lambda g: f"min {g.setvar} > {term(g.term)}"),
        InDifference: (_ATOM, lambda g: f"{term(g.term)} {in_} {g.left}{setminus}{g.right}"),
        IsFirst: (_ATOM, lambda g: f"first({term(g.term)})"),
        Or: (_BINARY, glyph["or"]),
        And: (_BINARY, glyph["and"]),
        Implies: (_BINARY, glyph["implies"]),
        ExistsFO: (_BINDER, exists),
        ExistsSO: (_BINDER, exists),
        ForAllFO: (_BINDER, forall),
        ForAllSO: (_BINDER, forall),
        Unbounding: (_BINDER, "U "),
        Bounding: (_BINDER, "B "),
        ExistsFin: (_BINDER, glyph["existsfin"]),
        ExistsOmega: (_BINDER, glyph["existsomega"]),
        Not: (_NEGATION, glyph["not"]),
    }

    def show(g) -> str:
        try:
            shape, text = table[type(g)]
        except KeyError:
            raise TypeError(f"not a formula: {g!r}") from None
        if shape == _ATOM:
            return text(g)
        if shape == _BINARY:
            return f"({show(g.left)} {text} {show(g.right)})"
        if shape == _BINDER:
            return f"{text}{g.var}.{wrap(g.body)}"
        return f"{text}{wrap(g.body)}"

    def wrap(g) -> str:
        text = show(g)
        return text if text.startswith("(") else f"({text})"

    return show(f)


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


def _or_all(parts: list) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def _and_all(parts: list) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


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
        z = supply.fo("z")
        zv = Var(z)
        split = ExistsFO(
            z,
            _and_all(
                [
                    LessEq(lo, zv),
                    Less(zv, hi),
                    _match_formula(e.left, lo, zv, supply),
                    _match_formula(e.right, Succ(zv), hi, supply),
                ]
            ),
        )
        parts.append(split)
        return _or_all(parts)
    # finite repetition: a chain of nonempty factor starts
    starts = supply.so("X")
    z = supply.fo("z")
    w = supply.fo("w")
    zv, wv = Var(z), Var(w)
    chain = ExistsFO(
        w,
        _and_all(
            [
                LessEq(zv, wv),
                LessEq(wv, hi),
                _match_formula(e.body, zv, wv, supply),
                Or(Eq(wv, hi), InX(Succ(wv), starts)),
            ]
        ),
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
    y = supply.fo("y")
    return ExistsFO(y, And(LessEq(Var(x), Var(y)), _match_formula(e, Var(x), Var(y), supply)))


# --------------------------------------------------------------------------
# block structure of repeated factors

def block_formula(e: RegExpr, block: str) -> Formula:
    """``block`` is a maximal set of positions starting consecutive
    ``e``-factors."""
    supply = NameSupply({block})
    y = supply.fo("y")
    z = supply.fo("z")
    x = supply.fo("x")
    yv, zv, xv = Var(y), Var(z), Var(x)
    maximal = ForAllFO(
        x,
        Implies(And(InInterval(xv, yv, zv), begins_formula(e, x, supply)), InX(xv, block)),
    )
    return ExistsFO(
        y,
        ExistsFO(
            z,
            _and_all(
                [
                    _match_formula(RStar(e), yv, zv, supply),
                    SubsetInterval(block, yv, zv),
                    maximal,
                ]
            ),
        ),
    )


def blockset_formula(e: RegExpr, family: str) -> Formula:
    """``family`` consists of ``e``-blocks only, contains infinitely many,
    and their sizes are bounded."""
    supply = NameSupply({family})
    y = supply.fo("y")
    yv = Var(y)
    block_x = supply.so("X")

    covered = ForAllFO(
        y,
        Implies(
            InX(yv, family),
            ExistsFin(
                block_x,
                _and_all(
                    [block_formula(e, block_x), SubsetEq(block_x, family), InX(yv, block_x)]
                ),
            ),
        ),
    )
    unboundedly_many = ForAllFO(
        y,
        ExistsFin(
            block_x,
            _and_all(
                [block_formula(e, block_x), SubsetEq(block_x, family), MinGreater(block_x, yv)]
            ),
        ),
    )
    sizes_bounded = Bounding(block_x, And(SubsetEq(block_x, family), block_formula(e, block_x)))
    return _and_all([covered, unboundedly_many, sizes_bounded])


def t_condition(e: RegExpr) -> Formula:
    """Infinitely many block sizes occur infinitely often among the
    ``e``-blocks of the word."""
    supply = NameSupply()
    family = supply.so("Y")
    bigger = supply.so("Z")
    x = supply.fo("x")
    grow = ExistsSO(
        bigger,
        _and_all(
            [
                blockset_formula(e, bigger),
                ProperSubset(family, bigger),
                ExistsOmega(x, InDifference(Var(x), bigger, family)),
            ]
        ),
    )
    return ForAllSO(family, Implies(blockset_formula(e, family), grow))


# --------------------------------------------------------------------------
# whole-word formulas

def _word_formula(e: OmegaTExpr, start: Term, supply: NameSupply) -> Formula:
    if isinstance(e, Union):
        return Or(_word_formula(e.left, start, supply), _word_formula(e.right, start, supply))
    if isinstance(e, Prefix):
        parts: list = []
        if nullable(e.prefix):
            parts.append(_word_formula(e.tail, start, supply))
        y = supply.fo("y")
        yv = Var(y)
        parts.append(
            ExistsFO(
                y,
                _and_all(
                    [
                        LessEq(start, yv),
                        _match_formula(e.prefix, start, yv, supply),
                        _word_formula(e.tail, Succ(yv), supply),
                    ]
                ),
            )
        )
        return _or_all(parts)
    if isinstance(e, Omega):
        shape = erase_to_regex(e.body)
        starts = supply.so("X")
        z = supply.fo("z")
        w = supply.fo("w")
        u = supply.fo("u")
        v = supply.fo("v")
        zv, wv, uv, vv = Var(z), Var(w), Var(u), Var(v)
        chained = ForAllFO(
            z,
            Implies(
                InX(zv, starts),
                ExistsFO(
                    w,
                    _and_all(
                        [LessEq(zv, wv), _match_formula(shape, zv, wv, supply), InX(Succ(wv), starts)]
                    ),
                ),
            ),
        )
        unbounded = ForAllFO(u, ExistsFO(v, And(InX(vv, starts), Less(uv, vv))))
        return ExistsSO(starts, _and_all([InX(start, starts), chained, unbounded]))
    raise TypeError(f"not an omega expression: {e!r}")


def omega_word_formula(e: OmegaTExpr) -> Formula:
    """Closed formula for a T-free omega expression (the standard encoding
    of omega-regular languages)."""
    supply = NameSupply()
    first = supply.fo("x")
    return ExistsFO(first, And(IsFirst(Var(first)), _word_formula(e, Var(first), supply)))


def emit_phi(e: OmegaTExpr) -> Formula:
    """Star-relaxed core strengthened with one recurrent-block-size
    condition per ``^T`` site.

    The conjunction is a schema: the block conditions are not relativized
    to their sites, so the result is documented as an approximation, not
    asserted language-equal.
    """
    core = omega_word_formula(substitute_t_with_star(e))
    conditions = [t_condition(erase_to_regex(body)) for body in t_subexpressions(e)]
    return _and_all([core, *conditions])
