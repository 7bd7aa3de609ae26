"""Chern classes, symmetric constructors, and the integration functional."""

import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, chow, formulas, polyfield
from toricsing.chow import (
    ChowElement, class_element, class_of_divisor_coeffs,
    chern_class, elementary_symmetric_classes, integrate, wronski_classes,
)
from toricsing.errors import ModelFormatError
from toricsing.exactalg import MultiPoly, aligned


# -- independent expansion helpers (plain dicts keyed by exponent tuples) ----

def dmul(p, q):
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def dintegrate(p, tensor):
    return sum(Fraction(v) * tensor.get(k, Fraction(0)) for k, v in p.items())


# -- the symmetric functions by their definitions, sharing nothing with the
#    product-series kernel ----------------------------------------------------

def subset_sum(elems, j, one):
    """e_j as the sum over j-subsets of the product of their members."""
    total = one * 0
    for subset in combinations(elems, j):
        prod = one
        for x in subset:
            prod = prod * x
        total = total + prod
    return total


def multiset_sum(elems, j, one):
    """h_j as the sum over j-multisets of the product of their members."""
    total = one * 0
    for multiset in combinations_with_replacement(elems, j):
        prod = one
        for x in multiset:
            prod = prod * x
        total = total + prod
    return total


GENERATING_MODELS = [
    catalog.projective(2), catalog.projective(4), catalog.weighted(1, 1, 2),
    catalog.multiprojective(1, 1), catalog.multiprojective(2, 1),
    catalog.scroll(1, 1), catalog.scroll(2, 3, 1), catalog.blowup_point(2),
    catalog.blowup_point(3),
]


def test_class_of_divisor_coeffs_blowup():
    m = catalog.blowup_point(2)
    d1 = MultiPoly.variable("d1", ("d1", "d2"))
    d2 = MultiPoly.variable("d2", ("d1", "d2"))
    vec = class_of_divisor_coeffs(m, (0, 0, d1, d2))
    assert vec[0] == d1 and vec[1] == d2


def test_class_of_divisor_coeffs_weighted():
    m = catalog.weighted(1, 2, 3)
    vec = class_of_divisor_coeffs(m, (1, 1, 1))
    assert vec == (6,)
    assert class_of_divisor_coeffs(m, (0, 0, 0)) == (0,)


def test_blowups_of_p3_answer_through_their_divisor_classes():
    # both used to carry Chern overrides and no divisor classes: these
    # refused, and multidegree read k as the k-th generator
    line, points = catalog.blowup_line_p3(), catalog.blowup_two_points_p3()
    for m, degrees, generators, count, monomial, degree, c1, chi in (
            (line, (0, 0, 1, 1, -2), (1, -2), 6, (1, 0, 1, 0, 0), (2, -1), (4, -1), 6),
            (points, (0, -1, -1, 0, 1, 1), (1, 1, 1), 7, (0, 0, 0, 0, 1, 1), (0, 1, 1),
             (4, -2, -2), 8)):
        size = m.dim + m.rank
        assert tuple(formulas.multidegree(m, [], k) for k in range(size)) == degrees
        assert tuple(formulas.multidegree(m, [], k, generator=True)
                     for k in range(m.rank)) == generators
        vec = class_of_divisor_coeffs(m, (0,) * (size - 1) + (1,))
        assert vec == m.divisor_classes[-1]
        assert formulas.foliation_sing_count(m, vec) == count
        z = MultiPoly(m.coord_names, {monomial: 1})
        assert polyfield.check_quasi_homogeneous(m, z) == degree
        assert elementary_symmetric_classes(m, 1) == class_element(m, c1)
        assert integrate(m, elementary_symmetric_classes(m, 3)) == chi


def test_elementary_symmetric_blowup_p2():
    m = catalog.blowup_point(2)
    c1 = elementary_symmetric_classes(m, 1)
    expected = ChowElement(m.gens, MultiPoly(m.gens, {(1, 0): 3, (0, 1): -1}))
    assert c1 == expected
    assert integrate(m, elementary_symmetric_classes(m, 2)) == 4


def test_elementary_symmetric_p2():
    m = catalog.projective(2)
    c2 = elementary_symmetric_classes(m, 2)
    assert c2 == ChowElement(m.gens, MultiPoly(m.gens, {(2,): 3}))


def test_scroll_c2_integral():
    # oracle: expand e_2 over {L, L, -a1*L+M, -a2*L+M} directly and pair
    # against the tensor L^2 -> 0, L*M -> 1, M^2 -> a1+a2
    for a1, a2 in [(1, 1), (2, 3), (0, 5), (-1, 4)]:
        classes = [{(1, 0): 1}, {(1, 0): 1},
                   {(1, 0): -a1, (0, 1): 1}, {(1, 0): -a2, (0, 1): 1}]
        e2 = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for k, v in dmul(classes[i], classes[j]).items():
                    e2[k] = e2.get(k, 0) + v
        tensor = {(1, 1): Fraction(1), (0, 2): Fraction(a1 + a2)}
        expected = dintegrate(e2, tensor)
        assert expected == 4
        m = catalog.scroll(a1, a2)
        assert integrate(m, elementary_symmetric_classes(m, 2)) == expected


# the Chern classes the two blow-ups of P^3 once carried in place of divisor
# classes; only their pairings with the tensor were ever read
OLD_OVERRIDES = {
    "blowup_line_p3": {1: {(1, 0): 4, (0, 1): -1}, 2: {(2, 0): 7, (1, 1): -4},
                       3: {(3, 0): 6}},
    "blowup_two_points_p3": {1: {(1, 0, 0): 4, (0, 1, 0): -2, (0, 0, 1): -2},
                             2: {(2, 0, 0): 6}, 3: {(3, 0, 0): 8}},
}


def test_chern_class_overrides():
    # the classes give c_j, which pairs with every support monomial of
    # degree 3 - j as the old override did
    for spec, overrides in OLD_OVERRIDES.items():
        m = catalog.from_spec_string(spec)
        for j, terms in overrides.items():
            old = ChowElement(m.gens, MultiPoly(m.gens, terms))
            for mono in m._support_index.order:
                if sum(mono) == m.dim - j:
                    probe = ChowElement(m.gens, MultiPoly(m.gens, {mono: 1}))
                    assert (integrate(m, chern_class(m, j) * probe)
                            == integrate(m, old * probe))
        assert chern_class(m, 0) == ChowElement(m.gens, MultiPoly.const(1, m.gens))
    # Bl_L's c_2 is now 6H^2 - 2HE - E^2, against the old 7H^2 - 4HE
    line = catalog.blowup_line_p3()
    assert chern_class(line, 2) == ChowElement(
        line.gens, MultiPoly(line.gens, {(2, 0): 6, (1, 1): -2, (0, 2): -1}))


def test_chern_class_range():
    m = catalog.projective(2)
    with pytest.raises(ValueError):
        chern_class(m, 3)
    with pytest.raises(ValueError):
        elementary_symmetric_classes(m, -1)


def test_wronski_scalars():
    k = MultiPoly.variable("k", ("k",))
    w2 = wronski_classes([1, 1, k], 2)
    assert w2 == MultiPoly(("k",), {(0,): 3, (1,): 2, (2,): 1})
    assert w2.canonical_string() == "k^2 + 2*k + 3"
    assert wronski_classes([5], 3) == 125
    a1 = MultiPoly.variable("a1", ("a1", "a2"))
    a2 = MultiPoly.variable("a2", ("a1", "a2"))
    assert wronski_classes([a1, a2], 2) == a1 ** 2 + a1 * a2 + a2 ** 2


def test_wronski_single_class_is_power():
    m = catalog.projective(3)
    a = class_element(m, (2,))
    for j in range(5):
        assert wronski_classes([a], j) == a ** j


def test_wronski_empty_list():
    assert wronski_classes([], 0) == 1
    assert wronski_classes([], 3) == 0


def test_integrate_weighted():
    m = catalog.weighted(1, 2, 3)
    h = chow.class_element(m, m._units[0])
    assert integrate(m, h ** 2) == Fraction(1, 6)


def test_integrate_blowup_line():
    m = catalog.blowup_line_p3()
    H = chow.class_element(m, m._units[0])
    E = chow.class_element(m, m._units[1])
    assert integrate(m, H * E ** 2) == -1
    assert integrate(m, H ** 2 * E) == 0
    assert integrate(m, E ** 3) == -2


def test_integrate_multiprojective():
    m = catalog.multiprojective(1, 1)
    h1 = chow.class_element(m, m._units[0])
    h2 = chow.class_element(m, m._units[1])
    assert integrate(m, h1 * h2) == 1
    assert integrate(m, h1 ** 2) == 0


def test_integrate_drops_lower_degrees():
    m = catalog.projective(2)
    h = chow.class_element(m, m._units[0])
    total = 1 + h + 3 * h ** 2  # a truncated total Chern style sum
    assert integrate(m, total) == 3


@pytest.mark.parametrize("x", [1, Fraction(1, 2), 3 * MultiPoly.variable("d", ("d",)) - 1])
def test_scalars_subtract_elements_from_the_left(x):
    # 1 - c used to raise TypeError, while c - 1 worked
    c = chern_class(catalog.projective(2), 1)
    assert x - c == -(c - x)


def test_operands_that_are_no_scalars_raise_type_errors():
    e = chern_class(catalog.projective(2), 1)
    for call in (lambda: e + "x", lambda: e - None, lambda: "x" - e, lambda: e * object()):
        with pytest.raises(TypeError):
            call()
    assert (e == "x") is False


@pytest.mark.parametrize("scalar", [
    0, 5, -3, Fraction(1, 2), MultiPoly.variable("d", ("d",)) + 1,
    # a generator name in the table, but unused, is no collision
    MultiPoly.variable("d", ("H", "d"))])
def test_exact_scalars_integrate_to_zero(scalar):
    assert integrate(catalog.projective(2), scalar) == 0


def _random_element(rng, model, nterms=4, with_symbol=False):
    table = model.gens + (("t",) if with_symbol else ())
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, 2) for _ in table)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ChowElement(model.gens, MultiPoly(table, terms))


def test_integrate_linearity():
    rng = random.Random(7)
    models = [catalog.projective(3), catalog.blowup_point(2),
              catalog.scroll(1, 2), catalog.weighted(1, 2, 5)]
    for _ in range(200):
        m = rng.choice(models)
        x = _random_element(rng, m, with_symbol=True)
        y = _random_element(rng, m, with_symbol=True)
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        lhs = integrate(m, alpha * x + beta * y)
        rhs = alpha * integrate(m, x) + beta * integrate(m, y)
        lhs, rhs = aligned(lhs, rhs)
        assert lhs == rhs


def test_chern_generating_identity():
    # product of (1 + h_i t) must reproduce the elementary symmetric classes
    for m in GENERATING_MODELS:
        series = [chow.unit_element(m.gens)]  # coefficient list in powers of t
        for vec in m.divisor_classes:
            h = class_element(m, vec)
            new = [series[0]]
            for j in range(1, len(series) + 1):
                term = series[j] if j < len(series) else None
                prev = series[j - 1] * h
                new.append(prev if term is None else term + prev)
            series = new
        for j in range(m.dim + 1):
            assert series[j] == elementary_symmetric_classes(m, j)


def test_chern_class_matches_the_subset_sum():
    for m in GENERATING_MODELS:
        classes = [class_element(m, v) for v in m.divisor_classes]
        for j in range(m.dim + 1):
            assert chern_class(m, j) == subset_sum(classes, j, chow.unit_element(m.gens))


def test_wronski_matches_the_multiset_sum():
    rng = random.Random(5)
    k = MultiPoly.variable("k", ("k",))
    m = catalog.multiprojective(1, 1)
    for _ in range(40):
        count = rng.randint(0, 4)
        scalars = [rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3),
                               k + rng.randint(-2, 2)))
                   for _ in range(count)]
        classes = [class_element(m, (rng.randint(-3, 3), rng.randint(-3, 3)))
                   for _ in range(count)]
        for j in range(6):
            assert wronski_classes(scalars, j) == multiset_sum(
                scalars, j, MultiPoly.const(1, ("k",)))
            if classes:
                assert wronski_classes(classes, j) == multiset_sum(
                    classes, j, chow.unit_element(m.gens))


def test_power_is_the_repeated_product():
    m = catalog.scroll(1, 2)
    d1 = MultiPoly.variable("d1", ("d1",))
    for e in (class_element(m, (2, -1)), class_element(m, (d1, 3)),
              3 + chow.class_element(m, m._units[1])):
        product = chow.unit_element(m.gens)
        for k in range(10):
            assert e ** k == product
            product = product * e


def test_models_and_elements_are_frozen():
    m = catalog.projective(2)
    elem = chern_class(m, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.dim = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        elem.poly = MultiPoly.zero(m.gens)
    with pytest.raises(TypeError):
        m.tensor[(2,)] = Fraction(2)


def test_models_reject_non_integer_classes():
    fields = dict(name="P1", dim=1, rank=1, gens=("H",), tensor={(1,): 1})
    with pytest.raises(ValueError, match=r"divisor class \(1.5,\) .* 1.5"):
        chow.ToricModel(divisor_classes=((1,), (1.5,)), **fields)
    with pytest.raises(ValueError, match=r"divisor class \(Fraction\(1, 1\),\)"):
        chow.ToricModel(divisor_classes=((Fraction(1),), (1,)), **fields)
    assert chow.ToricModel(divisor_classes=((1,), (1,)), **fields) == catalog.projective(1)


def test_chern_series_is_computed_once_per_model():
    for m in GENERATING_MODELS:
        for j in range(1, m.dim + 1):
            assert chern_class(m, j) is chern_class(m, j)
            assert chern_class(m, j) is elementary_symmetric_classes(m, j)
    # a fresh instance of an equal model builds its own series
    assert chern_class(catalog.projective(3), 2) is not chern_class(catalog.projective(3), 2)


def test_e_w_duality():
    # sum (-1)^j e_j t^j times sum W_k t^k is 1, truncated at degree 8
    rng = random.Random(11)
    m = catalog.multiprojective(1, 1)
    for _ in range(40):
        count = rng.randint(1, 4)
        classes = [class_element(m, (rng.randint(-3, 3), rng.randint(-3, 3)))
                   for _ in range(count)]
        es = []
        for j in range(9):
            if j > count:
                es.append(ChowElement(m.gens, MultiPoly.zero(m.gens)))
                continue
            from itertools import combinations
            total = ChowElement(m.gens, MultiPoly.zero(m.gens))
            for subset in combinations(classes, j):
                prod = chow.unit_element(m.gens)
                for c in subset:
                    prod = prod * c
                total = total + prod
            es.append(total)
        ws = [wronski_classes(classes, k) for k in range(9)]
        for degree in range(9):
            conv = ChowElement(m.gens, MultiPoly.zero(m.gens))
            for j in range(degree + 1):
                conv = conv + (-1) ** j * es[j] * ws[degree - j]
            assert conv == (1 if degree == 0 else 0)


def test_class_element_promotion_is_linear():
    m = catalog.scroll(1, 2)
    u = (2, -1)
    v = (Fraction(1, 2), 3)
    lhs = chow.class_element(m, tuple(a + b for a, b in zip(u, v)))
    rhs = chow.class_element(m, u) + chow.class_element(m, v)
    assert lhs == rhs


def _summed_class(m, vec):
    """Sum of generator times entry: the definition of the degree-1 class."""
    total = ChowElement(m.gens, MultiPoly.zero(m.gens))
    for g, entry in zip(m.gens, vec):
        total = total + ChowElement(m.gens, MultiPoly.variable(g, m.gens)) * entry
    return total


def test_class_element_equals_the_generator_sum():
    m = catalog.blowup_point(2)
    d1, d2 = (MultiPoly.variable(v, ("d1", "d2")) for v in ("d1", "d2"))
    x = MultiPoly.variable("x", ("x",))
    xd1_plus_1 = MultiPoly(("x", "d1"), {(1, 1): 1, (0, 0): 1})
    unused_gen = MultiPoly(("H", "t"), {(0, 1): 2, (0, 0): -1})  # 2*t - 1
    for vec in [(2, -1), (0, 0), (Fraction(1, 2), 3), (d1, d2), (d2, d1),
                (d1 ** 2 - 3, Fraction(-2, 3)), (x, xd1_plus_1), (0, d2),
                (unused_gen, x)]:
        direct = class_element(m, vec)
        summed = _summed_class(m, vec)
        assert direct == summed
        assert direct.poly.vars == summed.poly.vars
        degrees = {sum(exp[:len(direct.gens)]) for exp in direct.poly.terms}
        assert len(degrees) != 1 or degrees == {1}


def test_class_element_rejects_generator_symbols_and_non_scalars():
    m = catalog.blowup_point(2)
    with pytest.raises(ValueError, match="collide"):
        class_element(m, (MultiPoly.variable("E", ("E",)), 1))
    with pytest.raises(ValueError, match="collide"):
        chow.class_element(m, m._units[0]) * MultiPoly.variable("E", ("E",))
    with pytest.raises(ValueError, match="length"):
        class_element(m, (1,))
    with pytest.raises(TypeError):
        class_element(m, (1.5, 1))
    # a bool is an int to Python, but no Picard entry
    for vec in ((True, 1), (1, False), (True, True)):
        with pytest.raises(ValueError, match="^coefficient (True|False) is a bool"):
            class_element(m, vec)
    # nor a power: element ** True used to return the element
    for flag in (True, False):
        with pytest.raises(ValueError, match="^power must be a natural number$"):
            class_element(m, (1, 2)) ** flag


def test_bools_compare_unequal_to_elements():
    # chern_class(projective(2), 1) == True raised "coefficient True is a bool"
    m = catalog.projective(2)
    for element in (chern_class(m, 0), chern_class(m, 1)):
        for flag in (True, False):
            assert not element == flag and not flag == element
            assert element != flag and flag != element
        assert element not in [True, False]
    assert chern_class(m, 0) == 1


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1)])
def test_degree_indices_are_ints(bad):
    # chern_class(m, True) used to return c_1, and a float index failed
    # with a bare TypeError from the series' tuple
    m = catalog.projective(3)
    h = chow.class_element(m, m._units[0])
    for call in (lambda: chern_class(m, bad),
                 lambda: elementary_symmetric_classes(m, bad),
                 lambda: wronski_classes([h, 2 * h], bad),
                 lambda: chow.elementary_series([1, 2], bad),
                 lambda: chow.complete_series([1, 2], bad)):
        with pytest.raises(ValueError, match=f"^degree {re.escape(repr(bad))} is not an int$"):
            call()


def test_chern_consistency_check():
    good = catalog.parse_model(
        "name mixed\ndim 2\nrank 1\ngens H\nsmooth true\n"
        "divisor 1\ndivisor 1\ndivisor 1\n"
        "tensor 2 = 1\nchern 1 : 3*H\n")
    assert chern_class(good, 1) == ChowElement(("H",), MultiPoly(("H",), {(1,): 3}))
    with pytest.raises(Exception):
        catalog.parse_model(
            "name broken\ndim 2\nrank 1\ngens H\nsmooth true\n"
            "divisor 1\ndivisor 1\ndivisor 1\n"
            "tensor 2 = 1\nchern 1 : 2*H\n")


def test_series_reject_mixed_generators():
    a = class_element(catalog.projective(2), (1,))
    b = class_element(catalog.multiprojective(1, 1), (1, 2))
    for series in (chow.elementary_series, chow.complete_series):
        for items in ([a, b], [b, a], [a, a, b]):
            with pytest.raises(ValueError, match="generator mismatch"):
                series(items, 2)


def test_chern_consistency_names_the_first_disagreement():
    text = ("name broken\ndim 2\nrank 2\ngens H1 H2\nsmooth true\n"
            "divisor 1 0\ndivisor 1 0\ndivisor 0 1\ndivisor 0 1\n"
            "tensor 1 1 = 1\nchern 1 : 2*H1 + 2*H2\nchern 2 : 3*H1*H2\n")
    assert catalog.parse_model(text.replace("3*H1*H2", "4*H1*H2")).name == "broken"
    with pytest.raises(ModelFormatError) as caught:
        catalog.parse_model(text)
    assert str(caught.value) == "Chern routes disagree in degree 2 against monomial (0, 0)"


def _complete_product_check(m, override):
    """The check by complete products: each stated c_j less e_j, times every
    monomial of degree n - j in lexicographic order, integrated; the
    message of the first that does not vanish, or None."""
    for j, supplied in sorted(override.items()):
        difference = supplied - elementary_symmetric_classes(m, j)
        for mono in sorted(e for e in product(range(m.dim + 1), repeat=m.rank)
                           if sum(e) == m.dim - j):
            probe = ChowElement(m.gens, MultiPoly(m.gens, {mono: 1}))
            if not integrate(m, difference * probe).is_zero:
                return f"Chern routes disagree in degree {j} against monomial {mono}"
    return None


def _with_chern_lines(m, override):
    """The model file of m with a `chern` line per stated class."""
    return catalog.serialize_model(m) + "".join(
        f"chern {j} : {c.poly.canonical_string()}\n" for j, c in override.items())


@st.composite
def stated_chern_classes(draw):
    """A model with divisor classes and Chern classes stated beside them:
    e_j itself, or e_j with a few coefficients moved, often off the support
    of a sparse tensor."""
    dim, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = ("H", "E", "F")[:rank]
    keys = [k for k in product(range(dim + 1), repeat=rank) if sum(k) == dim]
    tensor = draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), min_size=1))
    ints = st.integers(-2, 2)
    classes = draw(st.tuples(*[st.tuples(*[ints] * rank)] * (dim + rank)))
    m = chow.ToricModel("mixed", dim, rank, gens, classes, tensor)
    exponents = st.tuples(*[st.integers(0, dim)] * rank)
    override = {}
    for j in draw(st.sets(st.integers(1, dim), min_size=1)):
        moved = draw(st.dictionaries(exponents, ints, max_size=2))
        override[j] = elementary_symmetric_classes(m, j) + ChowElement(
            gens, MultiPoly(gens, moved))
    return m, override


@settings(max_examples=200, deadline=None)
@given(stated_chern_classes())
def test_chern_consistency_is_the_complete_product_check(case):
    m, override = case
    expected = _complete_product_check(m, override)
    text = _with_chern_lines(m, override)
    if expected is None:
        assert catalog.parse_model(text) == m
    else:
        with pytest.raises(ModelFormatError, match=f"^{re.escape(expected)}$"):
            catalog.parse_model(text)


def test_chern_consistency_runs_counts_only():
    # one count per support monomial: no element, no integrate, no e_j
    m = catalog.blowup_point(3)
    good = _with_chern_lines(m, {j: chern_class(m, j) for j in (1, 2, 3)})
    bad = _with_chern_lines(m, {1: class_element(m, (4, -1))})
    built = []

    def refuse(*args):
        raise AssertionError("the check left the count route")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChowElement, "__init__", lambda self, *args: built.append(self))
        patch.setattr(chow, "integrate", refuse)
        patch.setattr(chow, "elementary_symmetric_classes", refuse)
        assert catalog.parse_model(good) == m
        with pytest.raises(ModelFormatError, match="^Chern routes disagree in degree 1 "):
            catalog.parse_model(bad)
    assert built == []


# -- the series identity sum_j (-1)^j e_j h_(m-j) = 0 -------------------------

_SYMBOLS = ("a", "b")
_SCALARS = st.one_of(
    st.integers(-6, 6),
    st.fractions(-3, 3, max_denominator=5),
    st.builds(lambda v, c: c * MultiPoly.variable(v, _SYMBOLS),
              st.sampled_from(_SYMBOLS), st.integers(-3, 3)),
    st.builds(lambda c: MultiPoly.variable("c", ("c",)) + c, st.integers(-2, 2)),
)
_MODELS = (catalog.projective(2), catalog.multiprojective(1, 1),
           catalog.blowup_point(2), catalog.blowup_line_p3())


def _alternating_sums(e, h, k):
    """sum_j (-1)^j e_j h_(m-j) for m = 1..k."""
    out = []
    for m in range(1, k + 1):
        total = e[0] * h[m]
        for j in range(1, m + 1):
            total = total + (-1) ** j * e[j] * h[m - j]
        out.append(total)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(_SCALARS, max_size=5), st.integers(0, 5))
def test_elementary_and_complete_scalar_series_are_inverse(items, k):
    e, h = chow.elementary_series(items, k), chow.complete_series(items, k)
    assert e[0] == h[0] == 1 and e[0].vars == h[0].vars
    for total in _alternating_sums(e, h, k):
        assert total.is_zero


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MODELS), st.data(), st.integers(0, 4))
def test_elementary_and_complete_chow_series_are_inverse(model, data, k):
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(
        [MultiPoly.variable("s", ("s",)), MultiPoly.variable("t", ("s", "t"))]))
    vecs = data.draw(st.lists(st.tuples(*[entry] * model.rank), min_size=1, max_size=4))
    items = [class_element(model, v) for v in vecs]
    e, h = chow.elementary_series(items, k), chow.complete_series(items, k)
    for total in _alternating_sums(e, h, k):
        assert total.poly.is_zero and total.gens == model.gens
