"""The package's immutable records: value equality, hashing, immutability,
copies, repr and keyword construction, and the checks of the validating ones."""

import copy
import pickle
import re

import pytest

from gotzmann.classify import SupernovaForm
from gotzmann.core import MonomialIdeal, MonomialSpace, RingContext, poly_ring, space, sqf_ring
from gotzmann.counting import OrderedSetPartition
from gotzmann.decompose import Decomposition, GrowthEquality

S3 = poly_ring(3)
R3 = sqf_ring(3)
R2 = sqf_ring(2)
S2 = poly_ring(2)

# each record type with the keyword arguments of one value, fields in order
RECORDS = [
    (RingContext, {"n": 3, "flavor": "S", "names": ("x", "y", "z")}),
    (MonomialSpace, {"ctx": R3, "degree": 2, "basis": frozenset({0b011, 0b101})}),
    (MonomialIdeal, {"ctx": S3, "gens": ((2, 0, 0), (1, 1, 0), (0, 1, 1))}),
    (SupernovaForm, {"stages": ((0, 0b011), (0b100, 0b1000)), "unit": False}),
    (OrderedSetPartition, {"blocks": (0b010, 0b101)}),
    (Decomposition, {"i": 0, "rctx": R3, "vhat": MonomialSpace(R2, 1, frozenset({0b01})),
                     "vxi": MonomialSpace(R2, 0, frozenset({0}))}),
    (GrowthEquality, {"lhs": 3, "rhs": 4}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_is_an_immutable_value(cls, fields):
    values = tuple(fields.values())
    r = cls(*values)
    assert cls(**fields) == r and hash(cls(**fields)) == hash(r)
    assert r is not cls(*values) and r == cls(*values)
    assert r != values and values != r
    others = [other_cls(**other) for other_cls, other in RECORDS if other_cls is not cls]
    assert all(r != other and other != r for other in others)

    class Sub(cls):
        __slots__ = ()

    assert Sub(*values) != r and r != Sub(*values)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(r, name, values[0])
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert getattr(r, name) == values[0]

    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r)

    shown = ", ".join(f"{key}={value!r}" for key, value in fields.items())
    assert repr(r) == f"{cls.__name__}({shown})"


# each validating record built from lists or sets, beside the same fields
# frozen; the "-S" rows give a monomial of S as a list or another sequence
THAWED = {
    "RingContext": (RingContext, (3, "S", ["x", "y", "z"]), (3, "S", ("x", "y", "z"))),
    "MonomialSpace": (MonomialSpace, (R3, 2, {0b011, 0b101}), (R3, 2, frozenset({0b011, 0b101}))),
    "MonomialSpace-S": (MonomialSpace, (S2, 1, [[1, 0]]), (S2, 1, frozenset({(1, 0)}))),
    "MonomialSpace-S-range": (MonomialSpace, (S2, 1, [range(2)]), (S2, 1, frozenset({(0, 1)}))),
    "MonomialIdeal": (MonomialIdeal, (S3, [(2, 0, 0), (1, 1, 0)]), (S3, ((2, 0, 0), (1, 1, 0)))),
    "MonomialIdeal-S": (MonomialIdeal, (S2, [[1, 0]]), (S2, ((1, 0),))),
    "SupernovaForm": (SupernovaForm, ([[0, 0b011], (0b100, 0b1000)],),
                      (((0, 0b011), (0b100, 0b1000)),)),
    "OrderedSetPartition": (OrderedSetPartition, ([0b010, 0b101],), ((0b010, 0b101),)),
}


@pytest.mark.parametrize("cls, thawed, frozen", THAWED.values(), ids=THAWED)
def test_validating_record_freezes_list_and_set_fields(cls, thawed, frozen):
    r = cls(*thawed)
    assert r == cls(*frozen) and hash(r) == hash(cls(*frozen))


def test_supernova_form_unit_defaults_to_false():
    stages = ((0, 0b011),)
    assert SupernovaForm(stages) == SupernovaForm(stages, unit=False)
    assert SupernovaForm((), unit=True) != SupernovaForm(())


@pytest.mark.parametrize("build, message", [
    (lambda: RingContext(17, "S", tuple("abcdefghijklmnopq")),
     "variable count must be in 0..16, got 17"),
    (lambda: RingContext(3.0, "R", "abc"), "variable count must be an int, got 3.0"),
    (lambda: sqf_ring(True), "variable count must be an int, got True"),
    (lambda: poly_ring(3.0), "variable count must be an int, got 3.0"),
    (lambda: RingContext(17.0, "S", tuple("abcdefghijklmnopq")),
     "variable count must be an int, got 17.0"),
    (lambda: RingContext(2, "T", ("a", "b")), "flavor must be 'S' or 'R', got 'T'"),
    (lambda: RingContext(2, "S", ("a", "a")), "variable names must be distinct and nonempty"),
    (lambda: MonomialSpace(R3, 1.0, frozenset({0b001})), "degree must be an int, got 1.0"),
    (lambda: space(R3, 1.0, [0b001]), "degree must be an int, got 1.0"),
    (lambda: MonomialSpace(R3, -1.0, frozenset()), "degree must be an int, got -1.0"),
    (lambda: MonomialSpace(R3, 2, frozenset({0b001})), "basis element 1 is not of degree 2"),
    (lambda: MonomialSpace(R3, 1, frozenset({(1, 0, 0)})),
     "basis representation does not match ring flavor"),
    (lambda: MonomialIdeal(S3, ((0, 1, 1), (1, 1, 0))), "generators must be sorted canonically"),
    (lambda: MonomialIdeal(R3, ((2, 0, 0),)), "monomial (2, 0, 0) is not squarefree"),
    (lambda: MonomialIdeal(S2, ((1.5, 0),)), "bad exponent tuple (1.5, 0) for 2 variables"),
    (lambda: MonomialSpace(S2, 2, {"ab"}), "bad exponent tuple ('a', 'b') for 2 variables"),
    (lambda: MonomialIdeal(S2, [3]), "monomial 3 is not an exponent sequence"),
    (lambda: MonomialSpace(S2, 1, [None]), "monomial None is not an exponent sequence"),
    (lambda: SupernovaForm(((0, 0b01),), unit=True), "the unit form carries no stages"),
    (lambda: SupernovaForm(((0, 0b011), (0b001, 0b100))),
     "stage supports must be pairwise disjoint"),
    (lambda: SupernovaForm(((0, -2),)), "stage masks must be nonnegative"),
    (lambda: SupernovaForm(((-1, 0b010),)), "stage masks must be nonnegative"),
    (lambda: OrderedSetPartition((0b001, 0b100)),
     "blocks must cover an initial segment of the positive integers"),
    (lambda: OrderedSetPartition((0b011, 0b010)), "blocks must be disjoint"),
    (lambda: SupernovaForm(((True, 2),)),
     "stage (True, 2) is not a (monomial, block) pair of int masks"),
    (lambda: SupernovaForm(((0, False),)),
     "stage (0, False) is not a (monomial, block) pair of int masks"),
    (lambda: SupernovaForm(((1.5, 2),)),
     "stage (1.5, 2) is not a (monomial, block) pair of int masks"),
    (lambda: SupernovaForm((1,)), "stage 1 is not a (monomial, block) pair of int masks"),
    (lambda: SupernovaForm(((0, 1, 2),)),
     "stage (0, 1, 2) is not a (monomial, block) pair of int masks"),
    (lambda: SupernovaForm(("ab",)), "stage 'ab' is not a (monomial, block) pair of int masks"),
    (lambda: OrderedSetPartition((True, 2)), "block True is not an int mask"),
    (lambda: OrderedSetPartition((1.0,)), "block 1.0 is not an int mask"),
    (lambda: OrderedSetPartition(("a",)), "block 'a' is not an int mask"),
    (lambda: SupernovaForm(5), "stages 5 is not a sequence of stages"),
    (lambda: SupernovaForm(None), "stages None is not a sequence of stages"),
    (lambda: OrderedSetPartition(5), "blocks 5 is not a sequence of int masks"),
    (lambda: OrderedSetPartition(None), "blocks None is not a sequence of int masks"),
    (lambda: SupernovaForm((), unit="yes"), "unit must be a bool, got 'yes'"),
    (lambda: SupernovaForm((), unit=1), "unit must be a bool, got 1"),
    (lambda: SupernovaForm((), unit=None), "unit must be a bool, got None"),
])
def test_validating_record_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
