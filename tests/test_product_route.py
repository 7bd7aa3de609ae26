"""Counts on products of projective spaces from per-factor moments
(`chow._product_count`) against the support route of the same model,
forced by making the product route give way; the large products the
support route cannot reach; and the factor record, which is derived from
the model's fields."""

import random
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from test_model_build import replace

from toricsing import catalog, chow, formulas
from toricsing.catalog import serialize_model
from toricsing.chow import ToricModel
from toricsing.exactalg import MultiPoly


def on_support(call):
    """call() with the product route giving way, so that every count it
    makes runs over the support."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chow, "_product_count", lambda *args: None)
        return call()


def assert_same(new, old):
    assert new == old
    assert new.vars == old.vars
    assert new.canonical_string() == old.canonical_string()
    assert [type(c) for c in new.terms.values()] == [Fraction] * len(new.terms)


@pytest.fixture
def routed(monkeypatch):
    """The answers of the product route, None where it gave way."""
    answers = []
    real = chow._product_count
    monkeypatch.setattr(chow, "_product_count",
                        lambda *args: answers.append(real(*args)) or answers[-1])
    return answers


def test_the_record_is_derived_from_the_fields():
    m = catalog.multiprojective(1, 2, 3)
    assert "_factor_dims" not in m.__dict__  # the builder writes nothing
    assert "_factor_dims" not in m._fields
    rebuilt = ToricModel(**{name: getattr(m, name) for name in m._fields})
    parsed = catalog.parse_model(serialize_model(m))
    for twin in (m, rebuilt, parsed):
        assert twin == m and twin._factor_dims == (1, 2, 3)
    # by its fields, scroll:0,0 is P^1 x P^1
    assert catalog.scroll(0, 0)._factor_dims == (1, 1)
    p1p1 = catalog.multiprojective(1, 1)
    for other in (catalog.projective(3), catalog.multiprojective(3),  # rank 1
                  catalog.scroll(1, 2), catalog.blowup_point(2),  # two keys
                  catalog.scroll(0),  # one key, (1, 0)
                  catalog.scroll(1, -1),  # one key, a class (1, 1)
                  replace(p1p1, tensor={(1, 1): Fraction(2)}),
                  replace(p1p1, tensor={(1, 1): Fraction(1, 2)}),
                  replace(p1p1, divisor_classes=((1, 0), (1, 0), (1, 0), (0, 1)))):
        assert other._factor_dims is None


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
def test_product_route_matches_the_support_route(seed, monkeypatch, routed):
    # products of 1-5 factors P^1..P^3; 0-2 factors and 0-2 over classes,
    # numeric and now and then polynomial, repeated or negated now and then,
    # so that classes share a variable; every kind of twist
    kernels = []
    for name in ("_class_moments", "_joint_moments"):
        kernel = getattr(chow, name)
        monkeypatch.setattr(chow, name, lambda *args, name=name, kernel=kernel:
                            kernels.append(name) or kernel(*args))
    rng = random.Random(seed)
    for _ in range(10):
        m = catalog.multiprojective(*(rng.randint(1, 3) for _ in range(rng.randint(2, 5))))
        kind = rng.choice(("int", "int", "Fraction", "polynomial"))
        classes = [tuple(_entry(rng, kind if rng.random() < 0.3 else "int")
                         for _ in range(m.rank)) for _ in range(4)]
        factors = classes[:rng.randint(0, min(2, m.dim))]
        over = classes[2:2 + rng.randint(0, 2)]
        if factors and rng.random() < 0.3:
            over = [*over, rng.choice((factors[0], tuple(-x for x in factors[0])))]
        for twist in TWISTS:
            args = (factors, over, _twist(rng, m, twist))
            assert_same(chow.integrate_count(m, *args),
                        on_support(lambda: chow.integrate_count(m, *args)))
    # the route answers at least a quarter of the counts, with both kernels;
    # it gives the rest, multi-class counts on small products, to the support
    assert 4 * sum(a is not None for a in routed) >= len(routed)
    assert {"_class_moments", "_joint_moments"} <= set(kernels)


def test_the_route_gives_way_to_a_smaller_support(routed):
    # nine distinct factor classes on P^9 x P^1 read 2^9 moments, and the
    # support has 20 monomials
    m = catalog.multiprojective(9, 1)
    classes = [(k, 1) for k in range(1, 10)]
    # c_1 = 10 H1 + 2 H2 and prod_k (k H1 + H2) = 9! (H1^9 + sum_k H1^8 H2 / k + ...)
    assert chow.integrate_count(m, classes) == 2 * factorial(9) + 10 * sum(
        factorial(9) // k for k in range(1, 10))
    assert routed == [None]


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
    expected = on_support(lambda: list(_every_count(P1_10, d, a, b)))
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


def _p1_closed_sum(k):
    """The foliation count on (P^1)^k at degree (1, ..., 1):
    sum_s s! C(k, s) 2^(k - s)."""
    return sum(factorial(s) * comb(k, s) * 2 ** (k - s) for s in range(k + 1))


def test_foliations_on_p1_products_are_the_closed_sum():
    # on both routes at k = 12; at k = 17 from a model file, which the
    # support route refuses; at k = 24 promptly
    m = catalog.multiprojective(*[1] * 12)
    assert formulas.foliation_sing_count(m, (1,) * 12) == _p1_closed_sum(12)
    assert on_support(lambda: formulas.foliation_sing_count(m, (1,) * 12)) == _p1_closed_sum(12)
    text = serialize_model(catalog.multiprojective(*[1] * 17))
    count, seconds = _timed(lambda: formulas.foliation_sing_count(
        catalog.parse_model(text), (1,) * 17))
    assert count == _p1_closed_sum(17) == 2628194359869440
    assert seconds < 1
    m = catalog.multiprojective(*[1] * 24)
    count, seconds = _timed(lambda: formulas.foliation_sing_count(m, (1,) * 24))
    assert count == _p1_closed_sum(24) == 4584528046898767093301248
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
    # weight 2 on the one key: no product, so the support route
    lambda: formulas.foliation_sing_count(replace(
        catalog.multiprojective(*[1] * 24), tensor={(1,) * 24: Fraction(2)}), (1,) * 24),
    lambda: catalog.multiprojective(*[1] * 24)._chern_vector,
], ids=["symbolic P1^24", "symbolic P2^13", "support of P1^24", "Chern vector of P1^24"])
def test_refusals_past_the_bound_are_prompt(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"past the bound of {chow.SIZE_BOUND}$"):
        call()
    assert time.perf_counter() - start < 0.1


def test_equal_models_take_the_route_alike(routed):
    # a model file and a replaced copy are products by their fields, so
    # they answer as the builtin does, past the support bound too
    m = catalog.multiprojective(*[1] * 17)
    twins = (catalog.parse_model(serialize_model(m)), replace(m))
    d = tuple(range(1, 18))
    expected = formulas.foliation_sing_count(m, d)
    for twin in twins:
        assert twin == m
        assert_same(formulas.foliation_sing_count(twin, d), expected)
    assert len(routed) == 1 + len(twins) and None not in routed


@pytest.mark.parametrize("dims", [(200, 1), (400, 1), (800, 1), (150, 2)],
                         ids=lambda dims: ",".join(map(str, dims)))
def test_one_large_factor_agrees_with_the_support_route(dims, routed):
    m = catalog.multiprojective(*dims)
    for d in ((1, 1), (Fraction(1, 2), -3), "symbolic"):
        count, seconds = _timed(lambda: formulas.foliation_sing_count(m, d))
        assert seconds < 1
        assert_same(count, on_support(lambda: formulas.foliation_sing_count(m, d)))
    assert len(routed) == 3 and None not in routed


def test_scroll_0_0_takes_the_route(routed):
    m = catalog.scroll(0, 0)
    for d in ((2, 3), "symbolic"):
        assert_same(formulas.foliation_sing_count(m, d),
                    on_support(lambda: formulas.foliation_sing_count(m, d)))
    assert len(routed) == 2 and None not in routed
    assert formulas.foliation_sing_count(m, (2, 3)) == formulas.foliation_sing_count(
        catalog.multiprojective(1, 1), (2, 3))


def test_single_key_models_that_are_no_products_keep_the_support(routed):
    p1p1 = catalog.multiprojective(1, 1)
    for m in (catalog.scroll(0),  # key (1, 0): kappa_2 = 0
              catalog.scroll(1, -1),  # key (1, 1), but a class (1, 1)
              replace(p1p1, tensor={(1, 1): Fraction(2)}),
              replace(p1p1, divisor_classes=((1, 0), (1, 0), (1, 0), (0, 1)))):
        assert len(m.tensor) == 1
        formulas.foliation_sing_count(m, (1, 2))
        formulas.foliation_sing_count(m, "symbolic")
    assert routed == []


# the foliation count on P^800 x P^1 at degree (1, 1), which the install
# step of the CI workflow compares with the command line's output
P800_P1 = int(
    "536775161846828269063428069153061252670153044946430606911898753847004997"
    "644319381757475292170160120404805857802771375855894048533156608888969250"
    "162212631818710660185150878171956277802015901028990681683798938871459526"
    "1052170168551339386921287678")


def test_the_recorded_count_on_p800_x_p1_is_the_support_route():
    m = catalog.multiprojective(800, 1)
    assert on_support(lambda: formulas.foliation_sing_count(m, (1, 1))) == P800_P1
    assert formulas.foliation_sing_count(m, (1, 1)) == P800_P1
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert f'test "$out" = "result = {P800_P1}"' in workflow.read_text()


def _restricted_oracle(k):
    """The count on (P^1)^k of the restriction to a hypersurface of class
    (1, ..., 1) at degree d = (1, ..., k): the sum over s of s! e_s(d)
    g(k - s), with e_s the elementary symmetric functions of d and
    g(R) = sum_{j=1..R} (-1)^(j-1) j! C(R, j) 2^(R-j)."""
    e = [1] + [0] * k
    for x in range(1, k + 1):
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x

    def g(r):
        return sum((-1) ** (j - 1) * factorial(j) * comb(r, j) * 2 ** (r - j)
                   for j in range(1, r + 1))
    return sum(factorial(s) * e[s] * g(k - s) for s in range(k + 1))


# the restricted count on (P^1)^24, which the install step of the CI workflow
# compares with the command line's output
P1_24_RESTRICTED = 70655467797976402156708141475163005209613959168


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 24])
def test_restricted_counts_on_p1_powers_match_the_oracle(k):
    m = catalog.multiprojective(*[1] * k)
    d, a = tuple(range(1, k + 1)), (1,) * k
    count = formulas.restricted_sing_count(m, d, a)
    assert count == _restricted_oracle(k)
    if k <= 8:
        assert on_support(lambda: formulas.restricted_sing_count(m, d, a)) == count


def test_the_recorded_restricted_count_on_p1_24():
    assert _restricted_oracle(24) == P1_24_RESTRICTED
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert f'test "$out" = "result = {P1_24_RESTRICTED}"' in workflow.read_text()
