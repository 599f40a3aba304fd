"""Expression ASTs and the surface parser.

Three expression layers share one concrete syntax:

* regular expressions over finite words (``REmpty``, ``RSym``, ``RCat``,
  ``RAlt``, ``RStar``) -- used for finite prefixes;
* block expressions denoting languages of infinite *sequences* of finite
  words (``Empty``, ``Sym``, ``Cat``, ``Sum``, ``Star``, ``T``) -- the
  operand layer of the omega constructor.  ``Sum`` is a pointwise mix of
  two sequence languages, not a union, and is never rewritten into one;
* top-level omega expressions (``Union``, ``Prefix``, ``Omega``).

Concrete syntax (whitespace ignored)::

    0        empty language
    a..z     letters
    e f      concatenation (also ``e.f``)
    e+f      union (top level / prefixes) or sequence mix (under ``^w``)
    e*       finite repetition
    e^T      repetition whose block sizes recur unboundedly often
    e^w      omega closure (top level only)

``^T`` is only legal underneath some ``^w``; ``^w`` cannot be nested.

``REGEX`` and ``BLOCK`` are the one place where a node kind maps to a
layer's class; the stratifier, the ``^T`` relaxation, the erasure, the
``^T`` walk and the random generators all read them.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Union as TUnion


class ParseError(ValueError):
    """Raised on malformed expression text; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --------------------------------------------------------------------------
# the node base

def _tuple_of(fields: tuple[str, ...]):
    """The function from a node to the tuple of its ``fields``, read in C:
    ``attrgetter`` gives a tuple for two names or more, the bare value for
    one."""
    if not fields:
        return lambda node: ()
    get = attrgetter(*fields)
    return get if len(fields) > 1 else lambda node: (get(node),)


def _compiled_init(cls):
    """The ``__init__`` of ``cls``: one parameter per field, in order, a
    field with a class attribute of its name taking that value as its
    default, as a dataclass field does; it sets each field, then runs the
    class's ``__post_init__`` if it has one."""
    defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in cls._fields)
    # each field is set through object.__setattr__, as a frozen dataclass
    # does: writing the instance dict instead would give every node a dict
    # of its own, larger and slower to read
    sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls._fields)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):\n    pass{sets}{post}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # named in its errors
    return init


class Node:
    """Base of every expression and formula node: an immutable record whose
    fields are its class's own annotations, in order.

    A node is built from its fields by position or by keyword, equals a node
    of the same class with equal fields, hashes as the tuple of its fields,
    prints as ``Class(field=value, ...)`` and refuses assignment and
    deletion, as a frozen dataclass does; ``vars(node)`` holds exactly its
    fields, in order.  No method is generated at import: a class compiles
    its own ``__init__`` when its first node is built.

    ``==``, ``hash()`` and ``repr()`` recurse once per tree level: on Python
    3.11 they raise ``RecursionError`` on a parsed ``(a…a)^w`` of more than
    about 330, 496 and 330 letters respectively.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._values = staticmethod(_tuple_of(cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        init = type(self).__init__ = _compiled_init(type(self))
        init(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        text = ", ".join([f"{name}={value!r}" for name, value in fields])
        return f"{type(self).__qualname__}({text})"

    def __setattr__(self, name: str, value) -> None:
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _refuse(f"cannot delete field {name!r}")


def _refuse(message: str):
    # dataclasses is loaded only to refuse a write: importing it at start-up
    # would cost about as much as this package's largest module
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class Record(Node):
    """Base of the package's other records: a node whose fields may have
    defaults (a class attribute named after the field) and whose class may
    define a ``__post_init__`` hook that validates a new record, as a
    dataclass does.

    A record class compiles its ``__init__`` when it is made, so its first
    record costs no code generation: a forked worker whose parent never
    built one does not pay for it on every input.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__init__ = _compiled_init(cls)


# --------------------------------------------------------------------------
# regular expressions (finite words)

class REmpty(Node):
    pass


class RSym(Node):
    letter: str


class RCat(Node):
    left: "RegExpr"
    right: "RegExpr"


class RAlt(Node):
    left: "RegExpr"
    right: "RegExpr"


class RStar(Node):
    body: "RegExpr"


RegExpr = TUnion[REmpty, RSym, RCat, RAlt, RStar]


# --------------------------------------------------------------------------
# block expressions (languages of infinite sequences of finite words)

class Empty(Node):
    pass


class Sym(Node):
    letter: str


class Cat(Node):
    left: "TExpr"
    right: "TExpr"


class Sum(Node):
    left: "TExpr"
    right: "TExpr"


class Star(Node):
    body: "TExpr"


class T(Node):
    body: "TExpr"


TExpr = TUnion[Empty, Sym, Cat, Sum, Star, T]


# --------------------------------------------------------------------------
# omega expressions (languages of infinite words)

class Union(Node):
    left: "OmegaTExpr"
    right: "OmegaTExpr"


class Prefix(Node):
    prefix: RegExpr
    tail: "OmegaTExpr"


class Omega(Node):
    body: TExpr


OmegaTExpr = TUnion[Union, Prefix, Omega]


# --------------------------------------------------------------------------
# the layer tables: node kind -> class, in the order the generators draw
# kinds; a layer refuses the kinds it lacks with the message beside it

REGEX = {"empty": REmpty, "sym": RSym, "cat": RCat, "plus": RAlt, "star": RStar}
_REGEX_REFUSALS = {
    "t": "'^T' is only allowed underneath '^w'",
    "omega": "'^w' cannot appear inside a finite prefix; it must end the branch",
}

BLOCK = {"empty": Empty, "sym": Sym, "cat": Cat, "plus": Sum, "star": Star, "t": T}
_BLOCK_REFUSALS = {"omega": "'^w' cannot be nested"}


# --------------------------------------------------------------------------
# raw parse tree (context-free; stratified afterwards)

class _Raw(NamedTuple):
    kind: str  # empty | sym | cat | plus | star | t | omega
    pos: int
    letter: str = ""
    left: "_Raw | None" = None
    right: "_Raw | None" = None


# The parser recurses once per parenthesis level; deeper input is refused
# with a ParseError instead of exhausting Python's stack.
MAX_NESTING = 100


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.depth = 0  # open parentheses

    def _skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> tuple[str, int]:
        """Return (token, position); token '' at end of input."""
        self._skip_ws()
        if self.i >= len(self.text):
            return "", self.i
        c = self.text[self.i]
        if c == "^":
            if self.i + 1 < len(self.text) and self.text[self.i + 1] in "Tw":
                return self.text[self.i : self.i + 2], self.i
            raise ParseError("'^' must be followed by 'T' or 'w'", self.i)
        if c in "()*+.0" or c.islower():
            return c, self.i
        raise ParseError(f"unexpected character {c!r}", self.i)

    def advance(self, token: str) -> None:
        self.i += len(token)


def _parse_raw(lexer: _Lexer) -> _Raw:
    node = _parse_cat(lexer)
    while True:
        tok, pos = lexer.peek()
        if tok == "+":
            lexer.advance(tok)
            right = _parse_cat(lexer)
            node = _Raw("plus", pos, left=node, right=right)
        else:
            return node


def _parse_cat(lexer: _Lexer) -> _Raw:
    node = _parse_postfix(lexer)
    while True:
        tok, pos = lexer.peek()
        if tok == ".":
            lexer.advance(tok)
            right = _parse_postfix(lexer)
            node = _Raw("cat", pos, left=node, right=right)
        elif tok == "(" or tok == "0" or (len(tok) == 1 and tok.islower()):
            right = _parse_postfix(lexer)
            node = _Raw("cat", pos, left=node, right=right)
        else:
            return node


def _parse_postfix(lexer: _Lexer) -> _Raw:
    node = _parse_atom(lexer)
    while True:
        tok, pos = lexer.peek()
        if tok == "*":
            lexer.advance(tok)
            node = _Raw("star", pos, left=node)
        elif tok == "^T":
            lexer.advance(tok)
            node = _Raw("t", pos, left=node)
        elif tok == "^w":
            lexer.advance(tok)
            node = _Raw("omega", pos, left=node)
        else:
            return node


def _parse_atom(lexer: _Lexer) -> _Raw:
    tok, pos = lexer.peek()
    if tok == "":
        raise ParseError("unexpected end of input", pos)
    if tok == "0":
        lexer.advance(tok)
        return _Raw("empty", pos)
    if len(tok) == 1 and tok.islower():
        lexer.advance(tok)
        return _Raw("sym", pos, letter=tok)
    if tok == "(":
        if lexer.depth == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", pos)
        lexer.depth += 1
        lexer.advance(tok)
        inner = _parse_raw(lexer)
        closing, cpos = lexer.peek()
        if closing != ")":
            raise ParseError("expected ')'", cpos)
        lexer.advance(closing)
        lexer.depth -= 1
        return inner
    raise ParseError(f"unexpected token {tok!r}", pos)


# --------------------------------------------------------------------------
# stratification: raw tree -> typed layers

def _typed(raw: _Raw, layer: dict, refusals: dict, alphabet: frozenset[str]):
    """``raw`` as a tree of ``layer``'s classes; a kind the layer lacks is
    refused with its message from ``refusals``."""
    cls = layer.get(raw.kind)
    if cls is None:
        raise ParseError(refusals[raw.kind], raw.pos)
    if raw.kind == "sym":
        if raw.letter not in alphabet:
            raise ParseError(f"letter {raw.letter!r} is not in the alphabet", raw.pos)
        return cls(raw.letter)
    if raw.left is None:
        return cls()
    left = _typed(raw.left, layer, refusals, alphabet)
    if raw.right is None:
        return cls(left)
    return cls(left, _typed(raw.right, layer, refusals, alphabet))


def _to_omega(raw: _Raw, alphabet: frozenset[str]) -> OmegaTExpr:
    if raw.kind == "plus":
        return Union(_to_omega(raw.left, alphabet), _to_omega(raw.right, alphabet))
    if raw.kind == "cat":
        # the omega part lives in the rightmost factor; everything to its
        # left must be a plain regular expression
        return Prefix(
            _typed(raw.left, REGEX, _REGEX_REFUSALS, alphabet), _to_omega(raw.right, alphabet)
        )
    if raw.kind == "omega":
        return Omega(_typed(raw.left, BLOCK, _BLOCK_REFUSALS, alphabet))
    if raw.kind == "t":
        raise ParseError("'^T' needs an enclosing '^w'", raw.pos)
    raise ParseError("missing omega closure: every branch needs '^w'", raw.pos)


def refused_letter(alphabet: Iterable[str]) -> Optional[str]:
    """The smallest character of ``alphabet`` that ``str.islower`` rejects,
    or None.  The lexer reads no such character as a letter, so no
    expression could use it."""
    return min((c for c in alphabet if not c.islower()), default=None)


def parse_omega_t(text: str, alphabet: frozenset[str] | set[str] | str) -> OmegaTExpr:
    """Parse ``text`` into a top-level omega expression.

    ``alphabet`` may be given as a string of letters.  Raises ParseError on
    an alphabet character that is not a lowercase letter (at position 0),
    syntax errors, letters outside the alphabet, misplaced ``^T`` (legal only
    underneath ``^w``), misplaced or missing ``^w``, parentheses nested more
    than ``MAX_NESTING`` deep, and operator chains longer than the parser's
    stack allows.
    """
    sigma = frozenset(alphabet)
    bad = refused_letter(sigma)
    if bad is not None:
        raise ParseError(f"alphabet character {bad!r} is not a lowercase letter", 0)
    lexer = _Lexer(text)
    raw = _parse_raw(lexer)
    trailing, tpos = lexer.peek()
    if trailing != "":
        raise ParseError(f"unexpected trailing input {trailing!r}", tpos)
    try:
        return _to_omega(raw, sigma)
    except RecursionError:
        # parentheses are bounded above, so only a long chain of operators
        # can build a tree this deep
        raise ParseError("operator chain too long to process", 0) from None


# --------------------------------------------------------------------------
# pretty-printing (parse . pretty == identity, structurally)

# precedence: 1 = +, 2 = concatenation, 3 = postfix/atoms; the three layers
# share it, so one printer serves them all
def _wrap(text: str, level: int, required: int) -> str:
    return f"({text})" if level < required else text


_SUFFIX = {RStar: "*", Star: "*", T: "^T", Omega: "^w"}


def _pp(e: "RegExpr | TExpr | OmegaTExpr") -> tuple[str, int]:
    if isinstance(e, (REmpty, Empty)):
        return "0", 3
    if isinstance(e, (RSym, Sym)):
        return e.letter, 3
    if isinstance(e, (RCat, Cat, Prefix)):
        left, right = (e.prefix, e.tail) if isinstance(e, Prefix) else (e.left, e.right)
        lt, ll = _pp(left)
        rt, rl = _pp(right)
        return f"{_wrap(lt, ll, 2)} {_wrap(rt, rl, 3)}", 2
    if isinstance(e, (RAlt, Sum, Union)):
        lt, ll = _pp(e.left)
        rt, rl = _pp(e.right)
        return f"{_wrap(lt, ll, 1)} + {_wrap(rt, rl, 2)}", 1
    bt, bl = _pp(e.body)
    return f"{_wrap(bt, bl, 3)}{_SUFFIX[type(e)]}", 3


def pretty(e: "RegExpr | TExpr | OmegaTExpr") -> str:
    """Render an expression back to concrete syntax with minimal parentheses."""
    return _pp(e)[0]


# --------------------------------------------------------------------------
# structural helpers

def _recast(e, classes: dict):
    """``e`` rebuilt with each node of a class keyed in ``classes`` made of
    the class it maps to; any other field (a letter, a prefix's regular
    expression) is kept as it is."""
    args = [_recast(value, classes) if type(value) in classes else value for value in e._values(e)]
    return classes[type(e)](*args)


# the omega and block layers, with ^T relaxed to *
_RELAX = {cls: cls for cls in (Union, Prefix, Omega, *BLOCK.values())} | {T: Star}

# a block read as one finite word: Sum is a union there, ^T a star
_ERASE = {BLOCK[kind]: cls for kind, cls in REGEX.items()} | {T: RStar}


def substitute_t_with_star(e: OmegaTExpr) -> OmegaTExpr:
    """Replace every ``^T`` node by ``*``; the result has no T nodes."""
    return _recast(e, _RELAX)


def erase_to_regex(e: TExpr) -> RegExpr:
    """Flatten a block expression into its per-block word-level shape.

    ``Sum`` becomes a union, ``T`` a plain star (any single block shows some
    finite repetition count); ``Cat``/``Star`` keep their word-level
    meaning.  So a star here means zero or more repetitions, while the
    compiler reads a block-level ``e*`` under ``^w`` as one or more per
    block: ``(0* b)^w`` compiles to an empty automaton, and ``(a* b)^w``
    has no run prefix on ``bbb``.  ``emit_phi``'s star-relaxed core
    inherits the zero-or-more reading.
    """
    return _recast(e, _ERASE)


def t_subexpressions(e: OmegaTExpr) -> list[TExpr]:
    """Bodies of all ``^T`` nodes in document order."""
    found: list[TExpr] = []

    def walk(x) -> None:
        if type(x) is T:
            found.append(x.body)
        for value in x._values(x):
            if type(value) in _RELAX:  # a prefix's regular expression has no ^T
                walk(value)

    walk(e)
    del walk  # the closure refers to itself; unbinding it leaves no cycle to collect
    return found
