"""Counts on products of projective spaces from per-factor moments
(`chow._product_count`) against the support route, which a model rebuilt
from its fields takes, as it carries no record of its factors; the large
products the support route cannot reach; and the record itself."""

import random
import time
from dataclasses import fields
from fractions import Fraction
from math import comb, factorial

import pytest

from toricsing import catalog, chow, formulas
from toricsing.catalog import serialize_model
from toricsing.chow import ToricModel
from toricsing.exactalg import MultiPoly


def support_model(m):
    """The same fields through the checking constructor: no factor record,
    so every count runs over the support."""
    return ToricModel(**{f.name: getattr(m, f.name) for f in fields(m)})


def assert_same(new, old):
    assert new == old
    assert new.vars == old.vars
    assert new.canonical_string() == old.canonical_string()
    assert [type(c) for c in new.terms.values()] == [Fraction] * len(new.terms)


def test_the_factor_record_is_no_field():
    m = catalog.multiprojective(1, 2, 3)
    plain = support_model(m)
    assert m._factor_dims == (1, 2, 3) and plain._factor_dims is None
    assert "_factor_dims" not in {f.name for f in fields(m)}
    assert m == plain and serialize_model(m) == serialize_model(plain)
    assert catalog.parse_model(serialize_model(m))._factor_dims is None
    assert catalog.projective(3)._factor_dims is None


SYMBOLS = ("a", "b", "c")


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-3, 4)
    if kind == "Fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    s, t = (MultiPoly.variable(v, SYMBOLS) for v in rng.sample(SYMBOLS, 2))
    return Fraction(rng.randint(1, 3), rng.randint(1, 2)) * s * t ** rng.randint(0, 1) - 1


def _twist(rng, m, kind):
    if kind == "absent":
        return None
    if kind == "symbolic":
        return formulas.symbolic_degree(m)
    if kind == "named":
        return formulas.symbolic_degree(m, [f"e{k}" for k in range(m.rank)])
    return tuple(_entry(rng, kind) for _ in range(m.rank))


TWISTS = ("absent", "int", "Fraction", "symbolic", "named", "polynomial")


@pytest.mark.parametrize("seed", range(6))
def test_product_route_matches_the_support_route(seed, monkeypatch):
    # products of 1-5 factors P^1..P^3; 0-2 factors and 0-2 over classes,
    # numeric and now and then polynomial, repeated or negated now and then,
    # so that classes share a variable; every kind of twist
    answered, kernels = [], []
    route = chow._product_count
    monkeypatch.setattr(chow, "_product_count",
                        lambda *args: answered.append(route(*args)) or answered[-1])
    for name in ("_class_moments", "_joint_moments"):
        kernel = getattr(chow, name)
        monkeypatch.setattr(chow, name, lambda *args, name=name, kernel=kernel:
                            kernels.append(name) or kernel(*args))
    rng = random.Random(seed)
    for _ in range(10):
        m = catalog.multiprojective(*(rng.randint(1, 3) for _ in range(rng.randint(1, 5))))
        plain = support_model(m)
        kind = rng.choice(("int", "int", "Fraction", "polynomial"))
        classes = [tuple(_entry(rng, kind if rng.random() < 0.3 else "int")
                         for _ in range(m.rank)) for _ in range(4)]
        factors = classes[:rng.randint(0, min(2, m.dim))]
        over = classes[2:2 + rng.randint(0, 2)]
        if factors and rng.random() < 0.3:
            over = [*over, rng.choice((factors[0], tuple(-x for x in factors[0])))]
        for twist in TWISTS:
            args = (factors, over, _twist(rng, m, twist))
            assert_same(chow.integrate_count(m, *args), chow.integrate_count(plain, *args))
    # the route answers at least a quarter of the counts, with both kernels;
    # it gives the rest, multi-class counts on small products, to the support
    assert 4 * sum(a is not None for a in answered) >= len(answered)
    assert {"_class_moments", "_joint_moments"} <= set(kernels)


def test_the_route_gives_way_to_a_smaller_support():
    # nine distinct factor classes on P^9 read 2^9 moments, and the support
    # has 10 monomials
    m = catalog.multiprojective(9)
    classes = [(k,) for k in range(1, 10)]
    assert chow._product_count(9, (9,), [list(c) for c in classes], 9, ()) is None
    assert chow.integrate_count(m, classes) == factorial(9)


P1_10 = catalog.multiprojective(*[1] * 10)
ONES = (1,) * 10


def _every_count(m, d, a, b):
    yield formulas.foliation_sing_count(m, d)
    yield formulas.foliation_sing_count(m, "symbolic")
    for kind in formulas.KINDS:
        yield formulas.restricted_sing_count(m, d, a, kind)
        yield formulas.ci_sing_count(m, [a, b], d, kind)
    yield formulas.complement_sing_count(m, d, a)
    yield formulas.hypersurface_euler(m, a)
    yield formulas.complement_euler(m, a)
    yield formulas.ci_euler(m, [a, b])
    yield formulas.multidegree(m, [a, b], 0)
    yield formulas.multidegree(m, [a], 3, generator=True)
    yield formulas.gcd_obstruction(m, (1,) * (m.dim + m.rank)).chi
    verdict = formulas.poincare_check("toric-curve", model=m, classes=[a] * (m.dim - 1),
                                      degree=d)
    yield verdict.lhs
    yield verdict.rhs


def test_a_product_count_indexes_no_support_and_runs_no_pass(monkeypatch):
    d, a, b = tuple(range(-2, 8)), ONES, (2, 1) * 5
    expected = list(_every_count(support_model(P1_10), d, a, b))
    calls = []
    for name in ("_index_support", "_pass"):
        real = getattr(chow, name)
        monkeypatch.setattr(chow, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    m = catalog.multiprojective(*[1] * 10)
    assert list(_every_count(m, d, a, b)) == expected
    assert calls == []
    assert "_support_index" not in m.__dict__ and "_chern_vector" not in m.__dict__


def _timed(call):
    start = time.perf_counter()
    value = call()
    return value, time.perf_counter() - start


def test_foliations_on_p1_products_are_the_closed_sum():
    # sum_s s! C(k, s) 2^(k - s) at degree 1, on both routes at k = 12
    def closed(k):
        return sum(factorial(s) * comb(k, s) * 2 ** (k - s) for s in range(k + 1))

    m = catalog.multiprojective(*[1] * 12)
    assert formulas.foliation_sing_count(m, (1,) * 12) == closed(12)
    assert formulas.foliation_sing_count(support_model(m), (1,) * 12) == closed(12)
    m = catalog.multiprojective(*[1] * 24)
    count, seconds = _timed(lambda: formulas.foliation_sing_count(m, (1,) * 24))
    assert count == closed(24) == 4584528046898767093301248
    assert seconds < 1


@pytest.mark.parametrize("dims", [(1,) * 24, (2,) * 13], ids=["P1^24", "P2^13"])
def test_large_products_answer_promptly(dims):
    m = catalog.multiprojective(*dims)
    k = len(dims)
    d, a = tuple(range(1, k + 1)), (1,) * k
    for call in (lambda: formulas.foliation_sing_count(m, d),
                 lambda: formulas.restricted_sing_count(m, d, a),
                 lambda: formulas.restricted_sing_count(m, d, a, "distribution"),
                 lambda: formulas.poincare_check("toric-curve", model=m,
                                                 classes=[a] * (m.dim - 1), degree=d)):
        _, seconds = _timed(call)
        assert seconds < 1


def test_a_symbolic_count_on_ten_p1_factors_is_prompt():
    count, seconds = min((_timed(lambda: formulas.foliation_sing_count(
        catalog.multiprojective(*[1] * 10), "symbolic")) for _ in range(3)),
        key=lambda run: run[1])
    assert len(count.terms) == 2 ** 10
    assert seconds < 0.02


@pytest.mark.parametrize("call", [
    lambda: formulas.foliation_sing_count(catalog.multiprojective(*[1] * 24), "symbolic"),
    lambda: formulas.foliation_sing_count(catalog.multiprojective(*[2] * 13), "symbolic"),
    lambda: formulas.foliation_sing_count(
        support_model(catalog.multiprojective(*[1] * 24)), (1,) * 24),
    lambda: catalog.multiprojective(*[1] * 24)._chern_vector,
], ids=["symbolic P1^24", "symbolic P2^13", "support of P1^24", "Chern vector of P1^24"])
def test_refusals_past_the_bound_are_prompt(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"past the bound of {chow.SIZE_BOUND}$"):
        call()
    assert time.perf_counter() - start < 0.1
