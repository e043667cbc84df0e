"""The package's immutable records: value equality, hashing, immutability,
copies, repr and keyword construction, and the checks of the validating ones."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from gotzmann.classify import SupernovaForm
from gotzmann.core import MonomialIdeal, MonomialSpace, RingContext, poly_ring, sqf_ring
from gotzmann.counting import OrderedSetPartition
from gotzmann.decompose import Decomposition, GrowthEquality
from gotzmann.series import RationalSeries

S3 = poly_ring(3)
R3 = sqf_ring(3)
R2 = sqf_ring(2)

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
    (RationalSeries, {"coeffs": (Fraction(1), Fraction(1, 2))}),
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


def test_supernova_form_unit_defaults_to_false():
    stages = ((0, 0b011),)
    assert SupernovaForm(stages) == SupernovaForm(stages, unit=False)
    assert SupernovaForm((), unit=True) != SupernovaForm(())


@pytest.mark.parametrize("build, message", [
    (lambda: RingContext(17, "S", tuple("abcdefghijklmnopq")),
     "variable count must be in 0..16, got 17"),
    (lambda: RingContext(2, "T", ("a", "b")), "flavor must be 'S' or 'R', got 'T'"),
    (lambda: RingContext(2, "S", ("a", "a")), "variable names must be distinct and nonempty"),
    (lambda: MonomialSpace(R3, 2, frozenset({0b001})), "basis element 1 is not of degree 2"),
    (lambda: MonomialSpace(R3, 1, frozenset({(1, 0, 0)})),
     "basis representation does not match ring flavor"),
    (lambda: MonomialIdeal(S3, ((0, 1, 1), (1, 1, 0))), "generators must be sorted canonically"),
    (lambda: MonomialIdeal(R3, ((2, 0, 0),)), "generator (2, 0, 0) is not squarefree"),
    (lambda: SupernovaForm(((0, 0b01),), unit=True), "the unit form carries no stages"),
    (lambda: SupernovaForm(((0, 0b011), (0b001, 0b100))),
     "stage supports must be pairwise disjoint"),
    (lambda: OrderedSetPartition((0b001, 0b100)),
     "blocks must cover an initial segment of the positive integers"),
    (lambda: OrderedSetPartition((0b011, 0b010)), "blocks must be disjoint"),
])
def test_validating_record_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
