"""The hand-written frozen value types against dataclass twins.

Each value type outside `residue` is an `exactalg._Frozen` subclass with
its own `__init__`.  Its twin is the dataclass those types were: built with
`dataclasses.make_dataclass` from the field names and defaults below, with
`frozen=True` (and `order` and `slots` for `SearchSolution`), the class's
own methods but none of the ones a dataclass generates, and the class's
checks as its `__post_init__`.  On seeded values a type and its twin must
agree in signature, repr, equality, hash (or unhashability), order, pickle
and deepcopy round trips, and the error type and text of every assignment
and deletion.
"""

import copy
import dataclasses
import inspect
import pickle
import random
import sys
import types
from fractions import Fraction

import pytest

from toricsing import catalog, formulas
from toricsing.catalog import ModelSpec
from toricsing.chow import ToricModel
from toricsing.exactalg import MultiPoly, _Frozen
from toricsing.formulas import (
    AlphaInvariant, GcdVerdict, InequalityVerdict, SearchSolution,
)
from toricsing.polyfield import (
    GradedPoly, InvariantVerdict, OneFormExpr, VectorFieldExpr, radial_fields,
)
from toricsing.ring import ChowElement, class_element

# each type's fields in the dataclass's order, with the defaults it had
FIELDS = {
    ToricModel: (("name", "dim", "rank", "gens", "divisor_classes", "tensor", "smooth"),
                 {"smooth": True}),
    ModelSpec: (("family", "params"), {"params": ()}),
    SearchSolution: (("family", "params", "annotation"), {"annotation": "accepted"}),
    GradedPoly: (("model", "poly"), {}),
    VectorFieldExpr: (("model", "components"), {}),
    OneFormExpr: (("model", "components"), {}),
    InvariantVerdict: (("invariant", "cofactor"), {}),
    GcdVerdict: (("chi", "gcd", "forces_singular"), {}),
    AlphaInvariant: (("alpha", "chi"), {}),
    InequalityVerdict: (("lhs", "rhs", "holds", "slack"), {}),
    ChowElement: (("gens", "poly"), {}),
}

ORDER_METHODS = {"__lt__", "__le__", "__gt__", "__ge__"}
# what a class statement or a dataclass writes into the class namespace, and
# `ChowElement.__eq__`, which tests for its own class: its twin takes the
# generated one, which agrees with it on two elements
NOT_COPIED = {"__init__", "__dict__", "__weakref__", "__module__", "__qualname__",
              "__doc__", "__slots__", "_fields", "__eq__"}

# the twins live in a module of their own, under the names of their types,
# so that pickle finds them by reference
TWINS = types.ModuleType("frozen_twins")
sys.modules[TWINS.__name__] = TWINS


def _twin(cls):
    names, defaults = FIELDS[cls]
    slotted = "__slots__" in vars(cls)
    skip = NOT_COPIED | set(names) | (ORDER_METHODS if slotted else set())
    namespace = {k: v for k, v in vars(cls).items() if k not in skip}
    if not slotted:  # the class's checks, which store canonical fields
        def __post_init__(self):
            cls.__init__(self, *(getattr(self, name) for name in names))
        namespace["__post_init__"] = __post_init__
    fields = [(name, object, dataclasses.field(default=defaults[name]))
              if name in defaults else (name, object) for name in names]
    twin = dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=True, order=slotted, slots=slotted)
    twin.__module__ = TWINS.__name__
    setattr(TWINS, cls.__name__, twin)
    return twin


def _poly(rng, coords, terms=3):
    return MultiPoly(coords, {tuple(rng.randint(0, 2) for _ in coords): rng.randint(-3, 3)
                              for _ in range(terms)})


def _models(rng):
    return [catalog.projective(rng.randint(1, 3)), catalog.weighted(1, 1, rng.randint(1, 3)),
            catalog.multiprojective(1, rng.randint(1, 2)), catalog.scroll(1, rng.randint(0, 2)),
            catalog.blowup_point(2)]


def _field_values(m):
    return tuple(getattr(m, name) for name in m._fields)


D = MultiPoly.variable("d", ("d",))


# seeded constructor arguments of each type; the test adds an equal value
ARGUMENTS = {
    ToricModel: lambda rng: [_field_values(m) for m in _models(rng) + _models(rng)]
    + [_field_values(catalog.projective(2))[:6]],
    ModelSpec: lambda rng: [("projective", (rng.randint(1, 3),)) for _ in range(3)]
    + [("blowup_line_p3",), ("weighted", [1, 1, 2]), ("scroll", (1, 2))],
    SearchSolution: lambda rng: [
        (s.family, s.params, s.annotation)
        for s in formulas.regular_search("p1111k", rng.randint(2, 4))]
    + [("p111k", (2, 1, 1)), ("p1111k", (2, 1, 1), "excluded-by-cohomology"),
       ("scroll", (-2, 0)), ("scroll", (-2, 0))],
    GradedPoly: lambda rng: [(m, _poly(rng, m.coord_names))
                             for m in _models(rng) for _ in range(2)]
    + [(catalog.projective(1), MultiPoly.zero(("z0", "z1")))] * 2,
    VectorFieldExpr: lambda rng: [(f.model, f.components) for m in _models(rng)
                                  for f in radial_fields(m)]
    + [(m, tuple(_poly(rng, m.coord_names, 2) for _ in m.coord_names))
       for m in _models(rng)],
    OneFormExpr: lambda rng: [(m, tuple(_poly(rng, m.coord_names, 2) for _ in m.coord_names))
                              for m in _models(rng) for _ in range(2)]
    + [(catalog.projective(1), (MultiPoly.zero(("z0", "z1")),) * 2)] * 2,
    InvariantVerdict: lambda rng: [(True, _poly(rng, ("z0", "z1"))), (False, None),
                                   (False, None), (True, MultiPoly.zero(("z0",)))],
    GcdVerdict: lambda rng: [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                              rng.randint(1, 5), rng.random() < 0.5) for _ in range(6)]
    + [(Fraction(3), 3, True)] * 2,
    AlphaInvariant: lambda rng: [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                  Fraction(rng.randint(-9, 9))) for _ in range(6)]
    + [(Fraction(1, 2), Fraction(1))] * 2,
    InequalityVerdict: lambda rng: [
        (Fraction(a), Fraction(b), a <= b, Fraction(b - a))
        for a, b in ((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4))]
    + [(D, Fraction(2), None, 2 - D), (Fraction(1), Fraction(1), True, Fraction(0))],
    ChowElement: lambda rng: [(m.gens, class_element(m, tuple(rng.randint(-2, 2)
                                                              for _ in m.gens)).poly)
                              for m in _models(rng)]
    + [(("H",), MultiPoly.const(1, ("H",)))] * 2,
}


def _outcome(call):
    """("ok", value) or the type and text of the error the call raises."""
    try:
        return "ok", call()
    except Exception as exc:  # the error is part of what must agree
        return type(exc).__name__, str(exc)


def _round_trips(value):
    """For each pickle protocol and for deepcopy, the repr of the copy and
    whether it equals the value, or the error the round trip raises."""
    trips = [lambda p=p: pickle.loads(pickle.dumps(value, p))
             for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    trips.append(lambda: copy.deepcopy(value))
    out = []
    for trip in trips:
        kind, copied = _outcome(trip)
        out.append((kind, repr(copied), copied == value) if kind == "ok" else (kind, copied))
    return out


def _hash(value):
    """The hash of the value, or "unhashable" when hash raises TypeError."""
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


def _refusals(value, names):
    """The error type and text of assigning and of deleting each field,
    with the value unchanged after."""
    before = repr(value)
    out = [_outcome(lambda n=n: setattr(value, n, 0)) for n in names]
    out += [_outcome(lambda n=n: delattr(value, n)) for n in names]
    assert repr(value) == before
    return out


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("seed", range(3))
def test_a_frozen_type_agrees_with_its_dataclass_twin(cls, seed):
    twin = _twin(cls)
    names, _ = FIELDS[cls]
    assert not dataclasses.is_dataclass(cls) and issubclass(cls, _Frozen)
    assert cls._fields == names == tuple(f.name for f in dataclasses.fields(twin))
    signature = [(p.name, p.kind, p.default)
                 for p in inspect.signature(cls).parameters.values()]
    assert signature == [(p.name, p.kind, p.default)
                         for p in inspect.signature(twin).parameters.values()]

    args = ARGUMENTS[cls](random.Random(seed))
    args.append(args[0])  # an equal value built again
    values, twins = [cls(*a) for a in args], [twin(*a) for a in args]
    assert [repr(v) for v in values] == [repr(t) for t in twins]
    assert [_hash(v) for v in values] == [_hash(t) for t in twins]
    pairs = [(i, j) for i in range(len(args)) for j in range(len(args))]
    equal = [values[i] == values[j] for i, j in pairs]
    assert equal == [twins[i] == twins[j] for i, j in pairs]
    assert [values[i] != values[j] for i, j in pairs] \
        == [twins[i] != twins[j] for i, j in pairs] == [not e for e in equal]
    assert True in equal and any(i != j for (i, j), e in zip(pairs, equal) if e)
    for v, t, a in zip(values, twins, args):
        assert (v == a, v != None, v == t) == (t == a, t != None, t == v)  # noqa: E711
    if cls is SearchSolution:
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert [getattr(values[i], op)(values[j]) for i, j in pairs] \
                == [getattr(twins[i], op)(twins[j]) for i, j in pairs]
        assert _outcome(lambda: values[0] < 5) == _outcome(lambda: twins[0] < 5)
        assert not hasattr(values[0], "__dict__") and not hasattr(twins[0], "__dict__")
    assert [_round_trips(v) for v in values] == [_round_trips(t) for t in twins]
    assert [_refusals(v, names) for v in values] == [_refusals(t, names) for t in twins]
    # a name that is no field: a slotted dataclass's `__setattr__` names the
    # class its slots replaced, so the twin of `SearchSolution` may raise a
    # TypeError there (it does on 3.11)
    other = [_outcome(lambda: setattr(v, "other", 0)) for v in values]
    assert other == [("FrozenInstanceError", "cannot assign to field 'other'")] * len(values)
    if cls is not SearchSolution:
        assert other == [_outcome(lambda: setattr(t, "other", 0)) for t in twins]


def test_two_types_with_equal_fields_are_unequal():
    # a field and a form of one model with the same components
    m = catalog.projective(1)
    (radial,) = radial_fields(m)
    pairs = [(kind(m, radial.components), twin(m, radial.components))
             for kind, twin in ((VectorFieldExpr, _twin(VectorFieldExpr)),
                                (OneFormExpr, _twin(OneFormExpr)))]
    (field, twin_field), (form, twin_form) = pairs
    assert (field == form, field != form) == (twin_field == twin_form,
                                              twin_field != twin_form) == (False, True)
