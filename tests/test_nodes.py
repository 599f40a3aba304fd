"""What every expression and formula node promises: positional and keyword
construction, equality within a class only, the hash of the field tuple,
the field-by-field repr, immutability, and copies and pickles equal to the
original."""
import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from countercheck import expr as ex
from countercheck import logic as lg

x, y = lg.Var("x"), lg.Var("y")
atom = lg.InP(x, "a")
other = lg.InX(lg.Succ(y), "X")

# one instance per node class, as its fields in declaration order
SAMPLES = {
    ex.REmpty: {},
    ex.RSym: {"letter": "a"},
    ex.RCat: {"left": ex.RSym("a"), "right": ex.RStar(ex.RSym("b"))},
    ex.RAlt: {"left": ex.RSym("a"), "right": ex.REmpty()},
    ex.RStar: {"body": ex.RSym("b")},
    ex.Empty: {},
    ex.Sym: {"letter": "b"},
    ex.Cat: {"left": ex.Sym("a"), "right": ex.T(ex.Sym("b"))},
    ex.Sum: {"left": ex.Star(ex.Sym("a")), "right": ex.Empty()},
    ex.Star: {"body": ex.Sym("a")},
    ex.T: {"body": ex.Sym("a")},
    ex.Union: {"left": ex.Omega(ex.Sym("a")), "right": ex.Prefix(ex.RSym("b"), ex.Omega(ex.Sym("a")))},
    ex.Prefix: {"prefix": ex.RCat(ex.RSym("a"), ex.REmpty()), "tail": ex.Omega(ex.T(ex.Sym("b")))},
    ex.Omega: {"body": ex.Cat(ex.T(ex.Sym("a")), ex.Sym("b"))},
    lg.Var: {"name": "x"},
    lg.Succ: {"arg": lg.Succ(x)},
    lg.InP: {"term": x, "letter": "a"},
    lg.InX: {"term": lg.Succ(x), "setvar": "X"},
    lg.Not: {"body": atom},
    lg.Or: {"left": atom, "right": other},
    lg.And: {"left": atom, "right": other},
    lg.Implies: {"left": other, "right": atom},
    lg.ExistsFO: {"var": "x", "body": atom},
    lg.ForAllFO: {"var": "x", "body": atom},
    lg.ExistsSO: {"var": "X", "body": other},
    lg.ForAllSO: {"var": "X", "body": other},
    lg.Unbounding: {"var": "X", "body": other},
    lg.Bounding: {"var": "X", "body": lg.Not(other)},
    lg.ExistsFin: {"var": "X", "body": other},
    lg.ExistsOmega: {"var": "x", "body": atom},
    lg.Eq: {"left": x, "right": lg.Succ(y)},
    lg.Less: {"left": x, "right": lg.Succ(y)},
    lg.LessEq: {"left": lg.Succ(x), "right": y},
    lg.SubsetEq: {"left": "X", "right": "Y"},
    lg.ProperSubset: {"left": "Y", "right": "X"},
    lg.InInterval: {"term": x, "lo": y, "hi": lg.Succ(y)},
    lg.SubsetInterval: {"setvar": "X", "lo": x, "hi": y},
    lg.MinGreater: {"setvar": "X", "term": x},
    lg.InDifference: {"term": x, "left": "X", "right": "Y"},
    lg.IsFirst: {"term": y},
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)

# classes with the same fields that must still tell their nodes apart
TWINS = [
    (ex.Star, ex.T), (ex.Sym, ex.RSym), (ex.Empty, ex.REmpty),
    (lg.And, lg.Or), (lg.Eq, lg.Less), (lg.ExistsFO, lg.ForAllFO),
]


def _name(cls) -> str:
    return cls.__name__


def test_every_node_class_has_a_sample():
    tables = (
        set(ex.REGEX.values()) | set(ex.BLOCK.values()) | {ex.Union, ex.Prefix, ex.Omega}
        | set(lg.SHAPES) | {lg.Var, lg.Succ}
    )
    assert set(SAMPLES) == tables
    assert len(tables) == 40


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_positional_and_keyword_construction_agree(cls):
    fields = SAMPLES[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert list(vars(by_position)) == list(fields)
    assert vars(by_position) == fields
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value


def test_construction_errors_name_the_class():
    with pytest.raises(TypeError, match=r"^RCat\.__init__\(\) missing 1 required positional argument: 'right'$"):
        ex.RCat(ex.RSym("a"))
    with pytest.raises(TypeError, match=r"^InP\.__init__\(\) got multiple values for argument 'term'$"):
        lg.InP(x, term=x)
    with pytest.raises(TypeError, match=r"^Empty\.__init__\(\) takes 1 positional argument but 2 were given$"):
        ex.Empty("a")


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    fields = SAMPLES[cls]
    assert hash(cls(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_repr_lists_the_fields_in_order(cls):
    fields = SAMPLES[cls]
    text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({text})"


def test_repr_text_is_pinned():
    tree = ex.Union(SAMPLES[ex.Union]["right"], ex.Prefix(**SAMPLES[ex.Prefix]))
    assert repr(tree) == (
        "Union(left=Prefix(prefix=RSym(letter='b'), tail=Omega(body=Sym(letter='a'))), "
        "right=Prefix(prefix=RCat(left=RSym(letter='a'), right=REmpty()), "
        "tail=Omega(body=T(body=Sym(letter='b')))))"
    )
    formula = lg.InDifference(lg.Succ(x), "X", "Y")
    assert repr(formula) == "InDifference(term=Succ(arg=Var(name='x')), left='X', right='Y')"


@pytest.mark.parametrize("pair", TWINS, ids=lambda p: f"{p[0].__name__}-{p[1].__name__}")
def test_nodes_of_different_classes_with_equal_fields_differ(pair):
    first, second = pair
    fields = SAMPLES[first]
    assert first(**fields) != second(**fields)
    assert not first(**fields) == second(**fields)
    assert len({first(**fields), second(**fields)}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_nodes_compare_by_fields(cls):
    fields = SAMPLES[cls]
    node = cls(**fields)
    assert node == cls(**copy.deepcopy(fields))
    assert node != tuple(fields.values())
    if fields:
        name = next(iter(fields))
        changed = dict(fields, **{name: ex.Sym("z")})
        assert node != cls(**changed)


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_nodes_are_frozen(cls):
    fields = SAMPLES[cls]
    node = cls(**fields)
    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(node, name, "z")
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(node, name)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        node.extra = 1
    assert vars(node) == fields


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_copies_and_pickles_equal_the_original(cls):
    node = cls(**SAMPLES[cls])
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(twin) is cls
        assert twin == node
        assert hash(twin) == hash(node)
        assert repr(twin) == repr(node)
        assert list(vars(twin)) == list(vars(node))


def test_walks_read_fields_without_an_instance_dict(monkeypatch):
    # vars() would give each node it reads a dict of its own; the walks
    # read a node's fields through its class instead
    def refuse(node):
        raise AssertionError(f"vars() called on {node!r}")

    monkeypatch.setattr(ex, "vars", refuse, raising=False)
    monkeypatch.setattr(lg, "vars", refuse, raising=False)
    tree = ex.parse_omega_t("a (b + a)* (a^T b + (b a^T)* + 0)^w", "ab")
    relaxed = ex.substitute_t_with_star(tree)
    assert ex.pretty(relaxed) == "a (b + a)* (a* b + (b a*)* + 0)^w"
    assert ex.t_subexpressions(tree) == [ex.Sym("a"), ex.Sym("a")]
    assert ex.pretty(ex.erase_to_regex(tree.tail.body)) == "a* b + (b a*)* + 0"
    formula = lg.ExistsFO("x", lg.InDifference(lg.Succ(x), "X", "Y"))
    assert lg.free_vars(formula) == (frozenset(), frozenset({"X", "Y"}))
    assert lg.free_vars(lg.emit_phi(tree))[0] == frozenset()
