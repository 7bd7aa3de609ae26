"""Builtin models stored without re-validation, and the lazy model fields.

Every builder in `catalog` stores its fields through `ToricModel._trusted`.
Each builtin must be exactly the model the checking constructor makes of
the same fields: the same tensor keys in the same order (zero weights
dropped), `Fraction` weights, read-only mappings and coordinate names.
The lazy fields are computed on first use, once, into the instance
`__dict__`."""

import random
import sys
import threading
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import pytest

from toricsing import catalog, chow, formulas
from toricsing.chow import ToricModel
from toricsing.exactalg import MultiPoly


def _coprime_weights(rng, length):
    while True:
        w = tuple(sorted(rng.randint(1, 9) for _ in range(length)))
        if all(gcd(a, b) == 1 for i, a in enumerate(w) for b in w[i + 1:]):
            return w


def _seeded_builtins(seed):
    rng = random.Random(seed)
    return [
        catalog.projective(rng.randint(1, 8)),
        catalog.weighted(*_coprime_weights(rng, rng.randint(2, 6))),
        catalog.multiprojective(*(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))),
        catalog.scroll(*(rng.randint(-3, 4) for _ in range(rng.randint(1, 5)))),
        catalog.blowup_point(rng.randint(2, 6)),
    ]


BUILTINS = [m for seed in range(6) for m in _seeded_builtins(seed)] + [
    # twists summing to 0: the (0, n) weight is zero, so that key is absent
    catalog.scroll(1, -1),
    catalog.scroll(2, -3, 1),
    catalog.blowup_two_points_p3(),
    catalog.blowup_line_p3(),
]


def replace(value, **changes):
    """The value rebuilt from its fields through its constructor, with the
    changes made."""
    return type(value)(**{name: getattr(value, name) for name in value._fields} | changes)


def _checked(m):
    """The same fields through the checking constructor."""
    return replace(m)


@pytest.mark.parametrize("m", BUILTINS, ids=lambda m: m.name)
def test_builtins_are_the_checked_model_of_their_fields(m):
    checked = _checked(m)
    assert m == checked
    assert list(m.tensor) == list(checked.tensor)
    assert all(type(w) is Fraction and w for w in m.tensor.values())
    assert m.coord_names == checked.coord_names
    assert type(m.tensor) is MappingProxyType
    assert type(m.gens) is tuple
    rows = m.divisor_classes
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert (formulas.foliation_sing_count(m, "symbolic")
            == formulas.foliation_sing_count(checked, "symbolic"))


def test_building_a_builtin_makes_no_polynomial(monkeypatch):
    # the two blow-ups of P^3 used to build Chern overrides as elements
    built = []
    monkeypatch.setattr(chow.ChowElement, "__init__", lambda self, *args: built.append(args))
    monkeypatch.setattr(MultiPoly, "__init__", lambda self, *args: built.append(args))
    monkeypatch.setattr(MultiPoly, "_trusted", classmethod(lambda cls, *args: built.append(args)))
    models = [m for seed in range(3) for m in _seeded_builtins(seed)] + [
        catalog.blowup_two_points_p3(), catalog.blowup_line_p3()]
    assert built == []
    assert all(m.divisor_classes for m in models)


def test_zero_scroll_weights_are_dropped():
    for a in ((1, -1), (2, -3, 1)):
        m = catalog.scroll(*a)
        assert dict(m.tensor) == {(1, len(a) - 1): 1}


def test_default_coordinate_names_are_shared_per_size():
    assert catalog.projective(3).coord_names == ("z0", "z1", "z2", "z3")
    assert catalog.projective(3).coord_names is catalog.weighted(1, 1, 2, 3).coord_names
    assert _checked(catalog.projective(3)).coord_names is catalog.projective(3).coord_names
    assert catalog.scroll(1, 2).coord_names == ("z0", "z1", "z2", "z3")


LAZY = ("_support_index", "_chern_vector", "_integer_tensor", "_units", "_divisor_esym",
        "_factor_dims")


def test_lazy_fields_are_computed_once_into_the_instance(monkeypatch):
    calls = {"_index_support": 0, "_pass": 0}

    def spy(name):
        real = getattr(chow, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(chow, name, counted)

    spy("_index_support")
    spy("_pass")
    m = catalog.scroll(1, 2, 0)
    assert not set(LAZY) & set(m.__dict__)
    first = {name: getattr(m, name) for name in LAZY}
    # one index lookup; one pass per divisor for c(X) and once more for e_j
    assert calls == {"_index_support": 1, "_pass": 2 * len(m.divisor_classes)}
    for name in LAZY:
        assert m.__dict__[name] is first[name]
        assert getattr(m, name) is first[name]
    formulas.foliation_sing_count(m, (1, 2))
    assert calls["_index_support"] == 1
    assert all(getattr(m, name) is first[name] for name in LAZY)


def test_lazy_fields_read_on_the_class_are_their_descriptors():
    for name in LAZY:
        field = getattr(ToricModel, name)
        assert isinstance(field, chow._lazy) and field.__doc__
    # writes still go through the frozen dataclass
    with pytest.raises(AttributeError):
        catalog.projective(2)._chern_vector = ()


def test_lazy_fields_agree_across_threads():
    reference = {name: getattr(catalog.multiprojective(1, 2, 1), name) for name in LAZY}
    models = [catalog.multiprojective(1, 2, 1) for _ in range(20)]
    seen = []

    def read():
        for m in models:
            seen.append(tuple(getattr(m, name) for name in LAZY))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6 * len(models)
    assert all(values == tuple(reference[name] for name in LAZY) for values in seen)
