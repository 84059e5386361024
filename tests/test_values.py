"""The library's frozen values against `dataclass(frozen=True)` twins.

The eight value classes share `diagrams._Frozen` in place of the frozen
dataclasses they were.  Each test builds a real frozen dataclass with the
same name, fields and `__post_init__`, and holds the two to the same
behaviour: construction, errors, `==`, `hash`, repr and round trips.
"""

import copy
import dataclasses
import pickle
import pprint

import pytest

from gradedorbits.diagrams import FilledDiagram, _Frozen
from gradedorbits.oracle import GradedMatrix
from gradedorbits.orbits import GradingSpec, Peel, Stratum
from gradedorbits.sheaves import BijectionReport, CentralCharacter, SheafLabel

DIAGRAM = FilledDiagram(3, "-", ((2, 1), (1, 3)))
EMPTY = FilledDiagram(2, "+", ())
STRATUM = Stratum(1, 1, DIAGRAM, 3)
CHARACTER = CentralCharacter(3, 1)
SPEC = GradingSpec("AI", 2, (1, 1))

# two unequal field tuples per class
SAMPLES = {
    FilledDiagram: [(3, "-", ((2, 1), (1, 3))), (2, "+", ())],
    GradingSpec: [("AI", 3, (2, 2, 2)), ("CII", 2, (2, 2))],
    Peel: [(((1,),), DIAGRAM), ((), EMPTY)],
    Stratum: [(1, 1, DIAGRAM, 3), (2, 0, EMPTY, 1)],
    CentralCharacter: [(3, 1), (1, 0)],
    SheafLabel: [
        ("AI", STRATUM, CHARACTER, ((1,),), True, False, False),
        ("II", STRATUM, CentralCharacter(1, 0), ((),), False, True, True),
    ],
    BijectionReport: [("AI", 1, 5, 5, True, True, True), ("DII", 1, 3, 4, False, True, False)],
    GradedMatrix: [(SPEC, 1, (((0,),), ((1,),))), (SPEC, -1, (((2,),), ((0,),)))],
}

# arguments each `__post_init__` rejects
INVALID = {
    FilledDiagram: [(0, "-", ()), (3, "x", ()), (3, "-", ((1, 1), (2, 1))), (3, "-", ((1, 4),)),
                    (3, "-", [(1, 1), (1,)])],
    GradingSpec: [("BI", 3, (1, 1, 1)), ("AII", 2, (1, 1)), ("AI", 3, (1, 1)),
                  ("CII", 2, (1, 2)), ("AI", 2, (1, -1))],
    CentralCharacter: [(3, 3), (0, 0), (3, True)],
    GradedMatrix: [(SPEC, 2, ()), (SPEC, 1, (((0,),),)), (SPEC, 1, (((0, 0),), ((0,),)))],
}

CLASSES = list(SAMPLES)


def twin(cls):
    """A frozen dataclass with the class's name, fields, their annotations
    and `__post_init__`."""
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    fields = [(name, cls.__annotations__[name]) for name in cls.__slots__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


def field_list(value):
    """The names and annotations of a dataclass's fields, as `dataclasses`
    reads them."""
    return [(field.name, field.type) for field in dataclasses.fields(value)]


def outcome(call):
    """What the call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:  # compared with the twin's, not handled
        return type(error), str(error)


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def pair(request):
    return request.param, twin(request.param)


def test_every_value_class_is_covered():
    ours = {cls for cls in _Frozen.__subclasses__() if cls.__module__.startswith("gradedorbits.")}
    assert set(CLASSES) == ours


def test_repr_eq_and_hash_match(pair):
    cls, dc = pair
    ours = [cls(*args) for args in SAMPLES[cls]]
    theirs = [dc(*args) for args in SAMPLES[cls]]
    assert [repr(v) for v in ours] == [repr(v) for v in theirs]
    assert [hash(v) for v in ours] == [hash(v) for v in theirs]
    assert [[x == y for y in ours] for x in ours] == [[x == y for y in theirs] for x in theirs]
    assert [[x != y for y in ours] for x in ours] == [[x != y for y in theirs] for x in theirs]
    assert ours[0] == cls(*SAMPLES[cls][0])
    assert cls.__match_args__ == dc.__match_args__


def test_unequal_to_other_types(pair):
    cls, dc = pair
    args = SAMPLES[cls][0]
    ours = cls(*args)
    for other in (dc(*args), tuple(getattr(ours, name) for name in cls.__slots__), args, None):
        assert ours != other and other != ours
        assert ours.__eq__(other) is NotImplemented


def test_construction_by_position_or_keyword(pair):
    cls, dc = pair
    names = cls.__slots__
    for args in SAMPLES[cls]:
        by_name = dict(zip(names, args))
        assert cls(**by_name) == cls(*args) == cls(*args[:1], **dict(list(by_name.items())[1:]))
        assert repr(cls(**by_name)) == repr(dc(**by_name))


def test_construction_errors_match(pair):
    cls, dc = pair
    args = SAMPLES[cls][0]
    first = cls.__slots__[0]
    calls = [
        ((), {}),
        (args[:-1], {}),
        (args[:1], {}),
        ((*args, None), {}),
        (args, {"nope": 1}),
        (args, {first: args[0]}),
        (args[1:], {"nope": 1}),
    ]
    for call_args, kwargs in calls:
        ours = outcome(lambda: cls(*call_args, **kwargs))
        assert ours[0] is TypeError, (call_args, kwargs)
        assert ours == outcome(lambda: dc(*call_args, **kwargs))


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_post_init_errors_match(cls):
    dc = twin(cls)
    for args in INVALID[cls]:
        ours = outcome(lambda: cls(*args))
        assert isinstance(ours, tuple) and ours[0] in (ValueError, TypeError), args
        assert ours == outcome(lambda: dc(*args))


@pytest.mark.parametrize(
    "cls, args", [(FilledDiagram, (3, "-", [(2, 1), (1, 3)])), (GradingSpec, ("AI", 3, [2, 2, 2]))]
)
def test_post_init_makes_tuples_as_before(cls, args):
    value = cls(*args)
    assert repr(value) == repr(twin(cls)(*args)) and value == cls(*SAMPLES[cls][0])


def test_assignment_and_deletion_are_blocked(pair):
    cls, dc = pair
    ours, theirs = cls(*SAMPLES[cls][0]), dc(*SAMPLES[cls][0])
    for name in (cls.__slots__[0], cls.__slots__[-1], "nope"):
        for action in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            mine = outcome(lambda: action(ours))
            assert issubclass(mine[0], AttributeError), name
            assert mine[1] == outcome(lambda: action(theirs))[1]
    assert repr(ours) == repr(theirs)
    assert not hasattr(ours, "__dict__")


@pytest.mark.parametrize("namespace", [{}, {"__slots__": ()}], ids=["dict", "slots"])
def test_a_subclass_keeps_the_fields_and_is_unequal_to_its_base(pair, namespace):
    cls, dc = pair
    ours, theirs = type("Sub", (cls,), dict(namespace)), type("Sub", (dc,), {})
    args = SAMPLES[cls][0]
    assert repr(ours(*args)) == repr(theirs(*args))
    assert hash(ours(*args)) == hash(theirs(*args))
    assert ours(*args) == ours(*args) and ours(*args) != cls(*args) and cls(*args) != ours(*args)
    assert field_list(ours(*args)) == field_list(theirs(*args))


def test_a_subclass_adds_its_slots_after_its_bases_fields(pair):
    cls, dc = pair
    # read the base's table first, so that the subclass cannot inherit it
    assert field_list(cls) == field_list(dc)
    ours = type("Sub", (cls,), {"__slots__": ("extra",), "__annotations__": {"extra": "int"}})
    theirs = dataclasses.make_dataclass("Sub", [("extra", "int")], bases=(dc,), frozen=True)
    args = (*SAMPLES[cls][0], 7)
    assert repr(ours(*args)) == repr(theirs(*args))
    assert hash(ours(*args)) == hash(theirs(*args))
    assert ours(*args) != ours(*args[:-1], 8)
    assert copy.copy(ours(*args)) == copy.deepcopy(ours(*args)) == ours(*args)
    assert field_list(ours) == field_list(theirs)
    assert dataclasses.replace(ours(*args), extra=8) == ours(*args[:-1], 8)


@pytest.mark.parametrize("slots", [(), ("only",)])
def test_a_base_with_fewer_than_two_fields_is_refused(slots):
    with pytest.raises(TypeError, match="two or more fields"):
        type("Small", (_Frozen,), {"__slots__": slots})


def test_the_base_itself_is_no_dataclass():
    assert not dataclasses.is_dataclass(_Frozen)
    assert not hasattr(_Frozen, "__dataclass_fields__")
    # reading the base leaves its subclasses' tables as they were
    assert field_list(FilledDiagram) == field_list(twin(FilledDiagram))


def test_pickle_and_copy_round_trips(pair):
    cls, _ = pair
    for args in SAMPLES[cls]:
        value = cls(*args)
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is cls and other == value and hash(other) == hash(value)
            assert repr(other) == repr(value)


def test_the_dataclasses_functions_still_apply(pair):
    cls, dc = pair
    ours, theirs = cls(*SAMPLES[cls][0]), dc(*SAMPLES[cls][0])
    assert dataclasses.is_dataclass(ours)
    assert field_list(ours) == field_list(theirs)
    assert repr(dataclasses.astuple(ours)) == repr(dataclasses.astuple(theirs))
    other = SAMPLES[cls][1]
    assert dataclasses.replace(ours, **dict(zip(cls.__slots__, other))) == cls(*other)
    assert pprint.pformat(ours, width=20) == repr(ours)
