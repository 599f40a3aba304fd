"""What every record class promises: positional and keyword construction,
its defaults, its validation, equality within a class only, the hash of the
field tuple, the field-by-field repr, immutability, and copies and pickles
equal to the original."""
import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from countercheck import cca, emptiness, exponents, harness, nfa, translate
from countercheck.cca import NO_OP, Transition

from conftest import atom_a

A = atom_a()
STEP = Transition("s0", "a", "s1", 1, NO_OP)
WITNESS = emptiness.AcceptingWitness(("s0", "s1", "s1"), 1, ((1, 2),), (2,), 2)

# one instance per record class, as its fields in declaration order
SAMPLES = {
    cca.CCA: {
        "states": A.states, "alphabet": A.alphabet, "initial": "s0", "counters": 1,
        "transitions": A.transitions, "final": "s1",
    },
    cca.Configuration: {"state": "s1", "counters": (0, 2)},
    cca.Partition: {
        "lettered": frozenset({"s0"}), "inc": (frozenset({"s1"}),), "check": (frozenset(),),
    },
    cca.RunPrefix: {
        "configurations": (cca.Configuration("s0", (0,)), cca.Configuration("s1", (0,))),
        "steps": (STEP,),
    },
    emptiness.AcceptingWitness: {
        "path": ("s0", "s1"), "begin": 0, "pairs": ((0, 1),), "checks": (1,), "end": 1,
    },
    emptiness.EmptinessReport: {"empty": False, "witness": WITNESS, "simple": A},
    nfa.NFA: {
        "states": frozenset({0, 1}), "alphabet": frozenset("a"),
        "transitions": frozenset({(0, "a", 1), (1, None, 0)}), "initial": 0, "finals": frozenset({1}),
    },
    translate.AutomatonSet: {"expression": "a^w", "automata": (A,)},
    harness.CaseOutcome: {
        "empty": False, "witness": WITNESS, "bound_ok": True, "failure": None, "simple": A,
    },
    harness.FuzzReport: {"cases": 3, "nonempty": 1, "failures": [(2, A, "disagree")]},
    exponents.Constant: {"value": 2},
    exponents.Ramp: {"start": 1, "step": 3},
    exponents.Staircase: {},
    exponents.PeriodicList: {"values": (1, 2, 2)},
    exponents.Interleave: {"first": exponents.Constant(1), "second": exponents.Staircase()},
    exponents.ValueSet: {"singles": frozenset({4}), "ramps": ((1, 1),), "removed": frozenset({2})},
    exponents.ClassFlags: {"bounded": True, "strictly_unbounded": False, "t_holds": False},
    exponents.PrefixDecomposition: {"labels": ("S", "BT"), "recurring_kind": "B"},
}

# the fields a record fills in when they are left out
DEFAULTS = {
    cca.CCA: {"final": None},
    cca.RunPrefix: {"steps": ()},
    harness.CaseOutcome: {"simple": None},
    exponents.ValueSet: {"singles": frozenset(), "ramps": (), "removed": frozenset()},
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _name(cls) -> str:
    return cls.__name__


def test_every_record_class_has_a_sample():
    assert len(SAMPLES) == 18


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_positional_and_keyword_construction_agree(cls):
    fields = SAMPLES[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=_name), ids=_name)
def test_left_out_fields_take_their_defaults(cls):
    defaults = DEFAULTS[cls]
    given = {name: value for name, value in SAMPLES[cls].items() if name not in defaults}
    record = cls(**given)
    for name, value in defaults.items():
        assert getattr(record, name) == value
    assert record == cls(**given, **defaults)


def test_construction_errors_name_the_class():
    with pytest.raises(TypeError, match=r"^CCA\.__init__\(\) missing 1 required positional argument: 'transitions'$"):
        cca.CCA(A.states, A.alphabet, "s0", 1)
    with pytest.raises(TypeError, match=r"^Configuration\.__init__\(\) got an unexpected keyword argument 'final'$"):
        cca.Configuration("s0", (0,), final=None)
    with pytest.raises(TypeError, match=r"^Staircase\.__init__\(\) takes 1 positional argument but 2 were given$"):
        exponents.Staircase(1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: cca.CCA(A.states, frozenset(), "s0", 1, A.transitions), cca.CCAError, "alphabet must be nonempty"),
        (lambda: cca.CCA(A.states, A.alphabet, "s0", 1, A.transitions, "x"), cca.CCAError, "final state 'x' not among states"),
        (lambda: nfa.NFA(frozenset({0}), frozenset("a"), frozenset(), 1, frozenset()), ValueError, "initial state missing"),
        (lambda: translate.AutomatonSet("a^w", ()), ValueError, "never empty"),
        (lambda: translate.AutomatonSet("a^w", (A, A)), ValueError, "state-disjoint"),
        (lambda: exponents.Constant(0), ValueError, "block sizes must be positive"),
        (lambda: exponents.Ramp(1, 0), ValueError, "start and step must be positive"),
        (lambda: exponents.PeriodicList(()), ValueError, "nonempty list of positive sizes"),
    ],
    ids=["cca-alphabet", "cca-final", "nfa-initial", "set-empty", "set-overlap", "constant", "ramp", "periodic"],
)
def test_construction_validates(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as error:  # a field holds a list
        return str(error)


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    record = cls(**SAMPLES[cls])
    assert _hash_or_error(record) == _hash_or_error(tuple(SAMPLES[cls].values()))


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_repr_lists_the_fields_in_order(cls):
    fields = SAMPLES[cls]
    text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({text})"


def test_repr_text_is_pinned():
    assert repr(exponents.Interleave(exponents.Ramp(1, 2), exponents.Staircase())) == (
        "Interleave(first=Ramp(start=1, step=2), second=Staircase())"
    )
    run = cca.RunPrefix((cca.Configuration("s0", (0,)),))
    assert repr(run) == "RunPrefix(configurations=(Configuration(state='s0', counters=(0,)),), steps=())"


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_records_compare_by_fields(cls):
    fields = SAMPLES[cls]
    record = cls(**fields)
    assert record == cls(**copy.deepcopy(fields))
    assert record != tuple(fields.values())
    assert record != object()


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_records_refuse_assignment_and_deletion(cls):
    fields = SAMPLES[cls]
    record = cls(**fields)
    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, "z")
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_copies_and_pickles_equal_the_original(cls):
    record = cls(**SAMPLES[cls])
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record
        # not the reprs: a copied frozenset may list its members in another order
        assert vars(twin) == vars(record)

