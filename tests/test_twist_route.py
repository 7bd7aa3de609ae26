"""The closed-form twist of `chow.integrate_count` (`chow._twist_count`):
a count whose degree symbols all sit in its last class, a divisor, each
entry 0 or one term, pairs that class by 1 / (1 - D) = sum_alpha
(|alpha|! / alpha!) D^alpha and multiplies no term dict.  It is checked
against the count in the ring (`ring_count`) and the complete-product
route of the `formulas` counts, in value, table and coefficient types."""

import random
import warnings
from fractions import Fraction
from math import factorial, prod

import pytest

from test_count_pipeline import ref_ci, ref_restricted, ring_count
from toricsing import catalog, chow, exactalg, formulas
from toricsing.exactalg import MultiPoly

# a model of every builtin family but the products, whose counts run from
# per-factor moments; scroll:0,0 is P^1 x P^1 by its fields, and scroll:1,-1
# has one tensor key, (1, 1), but a divisor class (1, 1), so it is no product
OFF_PRODUCTS = ("projective:1", "projective:3", "weighted:1,1,2", "weighted:1,2,3,5",
                "weighted:2,3,5", "scroll:1,-1", "scroll:1,2,0", "scroll:1,-1,2",
                "blowup_point:2", "blowup_point:3", "blowup_two_points_p3", "blowup_line_p3")


def assert_same(new, old):
    assert new == old
    assert new.vars == old.vars
    assert new.canonical_string() == old.canonical_string()
    assert [type(c) for c in new.terms.values()] == [Fraction] * len(new.terms)


@pytest.fixture
def closed_calls(monkeypatch):
    """The number of counts that took the closed form."""
    calls = []
    real = chow._twist_count
    monkeypatch.setattr(chow, "_twist_count", lambda *args: calls.append(1) or real(*args))
    return calls


SYMBOL_KINDS = ("default", "named", "reversed", "mixed")


def _symbols(rng, m, kind):
    """A Picard vector of one-term entries: the default symbols, named
    ones, named ones on their table reversed, or mixed entries such as
    2*d1, -d1, d1^2, d1/2, a repeated symbol, a constant and 0."""
    r = m.rank
    if kind == "default":
        return formulas.symbolic_degree(m)
    names = tuple(rng.sample(("a", "b", "c", "s", "t"), r))
    vec = formulas.symbolic_degree(m, names)
    if kind == "named":
        return vec
    if kind == "reversed":
        return tuple(x.extended(names[::-1]) for x in vec)
    entries = []
    for x in vec:
        entries.append(rng.choice((2 * x, -x, x ** 2, Fraction(1, 2) * x, -3 * vec[0],
                                   x, 0, 4, MultiPoly.const(-2, names))))
    if all(not isinstance(e, MultiPoly) or e.is_constant() for e in entries):
        entries[0] = -vec[0]  # one symbol at least
    return tuple(entries)


def _numbers(rng, m):
    return tuple(rng.choice((rng.randint(-3, 4), Fraction(rng.randint(-5, 5), 2)))
                 for _ in range(m.rank))


@pytest.mark.parametrize("spec", OFF_PRODUCTS)
def test_closed_form_is_the_count_in_the_ring(spec, closed_calls):
    m = catalog.from_spec_string(spec)
    n = m.dim
    rng = random.Random(spec)
    cases = 0
    for kind in SYMBOL_KINDS * 3:
        d = _symbols(rng, m, kind)
        factors = [_numbers(rng, m) for _ in range(rng.randint(0, n - 1))]
        over = [_numbers(rng, m) for _ in range(rng.randint(0, 2))]
        # the twist is the last class, or with no twist the last of over
        if rng.random() < 0.5:
            count, ring = (chow.integrate_count(m, factors, over, d),
                           ring_count(m, factors, over, d))
        else:
            count, ring = (chow.integrate_count(m, factors, [*over, d]),
                           ring_count(m, factors, [*over, d], None))
        assert_same(count, ring)
        cases += 1
    assert len(closed_calls) == cases


@pytest.mark.parametrize("spec", OFF_PRODUCTS)
def test_distribution_counts_take_the_closed_form(spec, closed_calls):
    # a distribution's degree divides like an over class, the last one
    m = catalog.from_spec_string(spec)
    n = m.dim
    rng = random.Random("distribution:" + spec)
    cases = 0
    for kind, symbols in zip(formulas.KINDS * 2, SYMBOL_KINDS):
        degree = _symbols(rng, m, symbols)
        hyp = tuple(rng.randint(1, 3) for _ in range(m.rank))
        d, a = formulas.degree_class(m, degree), formulas.degree_class(m, hyp)
        assert_same(formulas.restricted_sing_count(m, degree, hyp, kind),
                    ref_restricted(m, d, a, kind))
        cases += 1
        if n > 1:
            classes = [tuple(rng.randint(1, 3) for _ in range(m.rank))
                       for _ in range(rng.randint(1, n - 1))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the orbifold hypothesis
                count = formulas.ci_sing_count(m, classes, degree, kind)
            elems = [formulas.degree_class(m, c) for c in classes]
            assert_same(count, ref_ci(m, elems, d, kind))
            cases += 1
    assert len(closed_calls) == cases


@pytest.mark.parametrize("weights, classes", [((1, 1, 1, 1), (2,)), ((1, 1, 2, 3), (2, 3)),
                                              ((1, 1, 1, 2, 3), (6,))])
def test_weighted_counts_take_the_closed_form(weights, classes, closed_calls):
    m = catalog.weighted(*weights)
    elems = [formulas.degree_class(m, (c,)) for c in classes]
    d = MultiPoly.variable("d", ("d",))
    for kind in formulas.KINDS:
        for degree in (d, -2 * d, d ** 2):
            count = formulas.wci_sing_count(weights, classes, degree, kind)
            assert_same(count, ref_ci(m, elems, formulas.degree_class(m, degree), kind))
        parts = formulas.wci_sing_count_parts(weights, classes, d, kind)
        assert_same(sum(parts[1:], parts[0]), formulas.wci_sing_count(weights, classes, d, kind))
    # per kind four wci_sing_count calls and one list of parts, one count each
    assert len(closed_calls) == 10


def test_other_symbolic_counts_keep_the_term_dict_passes(closed_calls):
    m = catalog.blowup_point(3)
    d = formulas.symbolic_degree(m)
    s = MultiPoly.variable("s", ("s",))
    for factors, over, twist in (
            ([d], [], None),                  # symbols in a factor
            ([], [d], (1, 2)),                # in an over class before the twist
            ([], [], (d[0] + d[1], d[1])),    # an entry of two terms
            ([], [(s, 1)], d)):               # symbols in two classes
        assert_same(chow.integrate_count(m, factors, over, twist),
                    ring_count(m, factors, over, twist))
    assert closed_calls == []


def test_a_symbolic_foliation_count_multiplies_no_term_dict(monkeypatch):
    calls = []
    mul_terms, terms_mul = exactalg.mul_terms, chow._Terms.__mul__

    def spied_mul_terms(*args):
        calls.append("mul_terms")
        return mul_terms(*args)

    def spied_terms_mul(self, other):
        calls.append("_Terms.__mul__")
        return terms_mul(self, other)

    monkeypatch.setattr(exactalg, "mul_terms", spied_mul_terms)
    monkeypatch.setattr(chow, "mul_terms", spied_mul_terms)
    monkeypatch.setattr(chow._Terms, "__mul__", spied_terms_mul)
    m = catalog.from_spec_string("blowup_point:3")
    d = formulas.symbolic_degree(m)
    # entries of two terms, as a product with a one-term entry is a shift
    # that does not reach mul_terms
    chow.integrate_count(m, over=[tuple(x + 1 for x in d)], twist=(1, 1))
    assert "_Terms.__mul__" in calls and "mul_terms" in calls  # the spies see calls
    calls.clear()
    count = formulas.foliation_sing_count(catalog.from_spec_string("blowup_point:3"),
                                          "symbolic")
    assert calls == []
    assert count.canonical_string() == formulas.foliation_sing_count(
        catalog.blowup_point(3), d).canonical_string()


def test_the_pair_table_lists_every_key_above_each_monomial():
    for spec in ("scroll:1,2,0", "blowup_two_points_p3", "weighted:1,2,3"):
        index = catalog.from_spec_string(spec)._support_index
        order, pos = index.order, index.pos
        keys = [e for e in order if sum(e) == sum(order[0])]
        rows = {alpha: (multinomial, pairs) for alpha, multinomial, pairs in index.pairs}
        assert list(rows) == list(order)
        for alpha, (multinomial, pairs) in rows.items():
            above = [(i, pos[tuple(k - a for k, a in zip(key, alpha))])
                     for i, key in enumerate(keys) if all(map(int.__ge__, key, alpha))]
            assert sorted(pairs) == above
            assert multinomial == factorial(sum(alpha)) // prod(map(factorial, alpha))
        # built once per index, and shared by the models with its keys
        assert catalog.from_spec_string(spec)._support_index.pairs is index.pairs
