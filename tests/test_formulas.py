"""Counting formulas, inequality verdicts, and bounded searches."""

import copy
import dataclasses
import pickle
import random
import re
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import gcd, prod

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from toricsing import catalog, chow, formulas
from toricsing.errors import (
    ModelFormatError, NotWellFormedWarning, OrbifoldHypothesisWarning, ToricError,
)
from toricsing.exactalg import MultiPoly, aligned, as_poly, poly_sum
from toricsing.formulas import (
    alpha_invariant, baum_bott_sum, ci_euler, ci_sing_count,
    complement_euler, complement_sing_count, foliation_sing_count,
    gcd_obstruction, general_type_index, hypersurface_euler, multidegree,
    poincare_check, regular_search, restricted_sing_count,
    SearchSolution, scroll_closed_form, symbolic_degree, wci_sing_count,
    wci_sing_count_parts,
)


def _coprime_triples(rng, count):
    out = []
    while len(out) < count:
        w = tuple(rng.randint(1, 9) for _ in range(3))
        if all(gcd(w[i], w[j]) == 1 for i in range(3) for j in range(i + 1, 3)):
            out.append(w)
    return out


# -- ambient counts ----------------------------------------------------------

def test_foliation_count_blowup_p2_symbolic():
    m = catalog.blowup_point(2)
    count = foliation_sing_count(m, "symbolic")
    assert count.canonical_string() == "d1^2 - d2^2 + 3*d1 + d2 + 4"


def test_foliation_count_blowup_two_points():
    m = catalog.blowup_two_points_p3()
    count = foliation_sing_count(m, symbolic_degree(m, ("d0", "d1", "d2")))
    assert count.canonical_string() == \
        "d0^3 + d1^3 + d2^3 + 4*d0^2 - 2*d1^2 - 2*d2^2 + 6*d0 + 8"


def test_foliation_count_weighted_112_degree_zero():
    # oracle: the three fixed points of a generic diagonal field carry
    # indices 1, 1, and 1/2
    m = catalog.weighted(1, 1, 2)
    assert foliation_sing_count(m, 0) == Fraction(1) + 1 + Fraction(1, 2)


def test_foliation_count_accepts_divisor_coefficients():
    m = catalog.blowup_point(2)
    by_picard = foliation_sing_count(m, (2, 1))
    by_divisor = foliation_sing_count(m, (0, 0, 2, 1))
    assert by_picard == by_divisor


def test_symbolic_and_numeric_degrees_agree():
    rng = random.Random(13)
    for m in [catalog.blowup_point(3), catalog.scroll(2, 1),
              catalog.blowup_line_p3()]:
        sym = foliation_sing_count(m, symbolic_degree(m))
        for _ in range(10):
            d = tuple(rng.randint(-5, 5) for _ in range(m.rank))
            point = {f"d{i + 1}": d[i] for i in range(m.rank)}
            assert sym.evaluate(point) == foliation_sing_count(m, d)


def test_counts_stay_exact_beyond_machine_words():
    # cubic terms at degrees ~1e7 exceed 64-bit integers
    m = catalog.blowup_two_points_p3()
    d0 = 10 ** 7
    value = foliation_sing_count(m, (d0, 3, 5)).constant_value()
    expected = (d0 ** 3 + 27 + 125 + 4 * d0 ** 2 - 2 * 9 - 2 * 25
                + 6 * d0 + 8)
    assert value == expected
    assert value > 2 ** 63


# -- gcd obstruction ---------------------------------------------------------

def test_gcd_obstruction_p2():
    m = catalog.projective(2)
    v = gcd_obstruction(m, (2, 0, 0))
    assert (v.gcd, v.chi, v.forces_singular) == (2, 3, True)


def test_gcd_obstruction_blowup():
    m = catalog.blowup_point(2)
    v = gcd_obstruction(m, (3, 3, 3, 3))
    assert (v.gcd, v.chi, v.forces_singular) == (3, 4, True)


def test_gcd_obstruction_unit_coeffs_never_force():
    for m in [catalog.projective(3), catalog.blowup_point(2),
              catalog.scroll(1, 1), catalog.blowup_line_p3()]:
        v = gcd_obstruction(m, (1,) * (m.dim + m.rank))
        assert not v.forces_singular


def test_gcd_obstruction_all_zero_coefficients():
    # 0 divides only 0, and chi(P^3) = 4
    v = gcd_obstruction(catalog.projective(3), (0, 0, 0, 0))
    assert (v.gcd, v.chi, v.forces_singular) == (0, 4, True)


def test_gcd_obstruction_rejects_orbifolds():
    with pytest.raises(ToricError):
        gcd_obstruction(catalog.weighted(1, 1, 2), (1, 1, 1))


def test_gcd_obstruction_rejects_fractional_euler_numbers():
    # a model flagged smooth but carrying an orbifold tensor is refused
    text = ("name fake\ndim 2\nrank 1\ngens H\nsmooth true\n"
            "divisor 1\ndivisor 1\ndivisor 2\ntensor 2 = 1/2\n")
    model = catalog.parse_model(text)
    with pytest.raises(ToricError, match="not an integer"):
        gcd_obstruction(model, (1, 1, 1))


# -- hypersurface counts ------------------------------------------------------

def test_restricted_count_quadric_surface():
    m = catalog.projective(3)
    assert restricted_sing_count(m, (0,), (2,)) == 4  # chi of P1 x P1


def test_restricted_count_p3_oracle():
    # oracle: the double sum evaluated with plain scalars,
    # C = (1, 4, 6), a = 2, d = 1, integrals H^3 -> 1
    C = [1, 4, 6, 4]
    a, d = 2, 1
    expected = Fraction(0)
    for j in range(3):
        for k in range(j + 1):
            expected += (-1) ** k * C[j - k] * a ** (k + 1) * d ** (2 - j)
    assert expected == 10
    m = catalog.projective(3)
    assert restricted_sing_count(m, (1,), (2,)) == 10


def test_restricted_distribution_variant_matches_wci():
    for k in (2, 3, 5):
        m = catalog.weighted(1, 1, 1, k)
        lhs = restricted_sing_count(m, (2 * k,), (1,), kind="distribution")
        rhs = wci_sing_count((1, 1, 1, k), (1,), 2 * k, kind="distribution")
        assert lhs == rhs == Fraction(2 * k * k - 2 * k + 1, k)


def test_hypersurface_euler_values():
    assert hypersurface_euler(catalog.projective(3), (2,)) == 4
    assert hypersurface_euler(catalog.projective(2), (1,)) == 2
    assert hypersurface_euler(catalog.multiprojective(1, 1), (1, 1)) == 2


def test_complement_weighted_examples():
    rng = random.Random(3)
    for w in _coprime_triples(rng, 10):
        m = catalog.weighted(*w)
        for k in range(3):
            assert complement_sing_count(m, (0,), (w[k],)) == Fraction(1, w[k])


def test_complement_euler_affine_plane():
    assert complement_euler(catalog.projective(2), (1,)) == 1


def test_complement_identity_symbolic():
    for m in [catalog.projective(3), catalog.blowup_point(2),
              catalog.scroll(1, 2), catalog.blowup_line_p3(),
              catalog.weighted(1, 2, 3), catalog.multiprojective(1, 1),
              catalog.blowup_two_points_p3()]:
        d = symbolic_degree(m)
        a = tuple(range(1, m.rank + 1))
        lhs = complement_sing_count(m, d, a)
        rhs = foliation_sing_count(m, d) - restricted_sing_count(m, d, a)
        lhs, rhs = aligned(lhs, rhs)
        assert lhs == rhs


def test_complement_identity_with_symbolic_hypersurface_class():
    m = catalog.projective(2)
    d = symbolic_degree(m)
    a = (MultiPoly.variable("a", ("a",)),)
    lhs = complement_sing_count(m, d, a)
    total, restricted = aligned(foliation_sing_count(m, d),
                                restricted_sing_count(m, d, a))
    lhs, rhs = aligned(lhs, total - restricted)
    assert lhs == rhs


def test_euler_consistency():
    for m in [catalog.projective(3), catalog.blowup_point(2), catalog.scroll(1, 2)]:
        a = tuple(range(1, m.rank + 1))
        chi_ambient = chow.integrate(m, chow.chern_class(m, m.dim))
        lhs = complement_euler(m, a)
        rhs = chi_ambient - hypersurface_euler(m, a)
        lhs, rhs = aligned(lhs, rhs)
        assert lhs == rhs


def test_hypersurface_euler_equals_wci_at_degree_zero():
    rng = random.Random(5)
    for _ in range(20):
        w = _coprime_triples(rng, 1)[0] + (1,)
        a = rng.randint(1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = catalog.weighted(*w)
            lhs = hypersurface_euler(m, (a,))
            rhs = wci_sing_count(w, (a,), 0)
        assert lhs == rhs


# -- weighted complete intersections ------------------------------------------

def test_wci_distribution_family():
    for k in range(2, 11):
        value = wci_sing_count((1, 1, 1, k), (1,), 2 * k, kind="distribution")
        assert value == Fraction(2 * k * k - 2 * k + 1, k)
        assert value == k + Fraction((k - 1) ** 2, k)


def test_wci_example_one_over_seven():
    assert wci_sing_count((1, 7, 3, 5), (1,), 8, kind="distribution") == Fraction(1, 7)


def test_wci_weight_warnings_name_what_fails():
    for count in (wci_sing_count, wci_sing_count_parts):
        with pytest.warns(NotWellFormedWarning, match=r"^weights \(1, 2, 2\) are not "
                          r"pairwise coprime; the space is not well formed$") as caught:
            count((1, 2, 2), (2,), 1)
        assert caught[0].filename == __file__
        with pytest.warns(NotWellFormedWarning, match=r"^weights \(1, 2, 2, 3\) are "
                          r"not pairwise coprime; the singular locus is not "
                          r"isolated$") as caught:
            count((1, 2, 2, 3), (6,), 1)
        assert caught[0].filename == __file__


@pytest.mark.parametrize("count", [
    partial(wci_sing_count, degree=1), partial(wci_sing_count_parts, degree=1),
    alpha_invariant, general_type_index,
    partial(poincare_check, "wci-curve", degree=1),
    partial(poincare_check, "wci-general", degree=1)],
    ids=["wci_sing_count", "wci_sing_count_parts", "alpha_invariant",
         "general_type_index", "wci_curve", "wci_general"])
def test_wci_weight_warnings_come_once_per_call(count):
    # P(w) warns when it is built; the weight checks before it do not
    for w, a, text in (((1, 2, 2), (2,), "the space is not well formed"),
                       ((1, 2, 2, 3), (6,), "the singular locus is not isolated")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            count(weights=w, classes=a)
        assert [str(c.message) for c in caught] == [
            f"weights {w} are not pairwise coprime; {text}"]
        assert caught[0].category is NotWellFormedWarning
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)


def test_baum_bott_sum_warns_once_at_its_call():
    # P(w) warns when it is built, with the text and line of the other counts
    for w, a, text in (((1, 2, 2, 2), (2,), "the space is not well formed"),
                       ((1, 2, 2, 3, 5), (2, 6), "the singular locus is not isolated")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            value = baum_bott_sum(w, a, 1)
        assert value == Fraction(prod(a), prod(w)) * (1 + sum(w) - sum(a)) ** 2
        assert [str(c.message) for c in caught] == [
            f"weights {w} are not pairwise coprime; {text}"]
        assert caught[0].category is NotWellFormedWarning
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)


@pytest.mark.parametrize("w", [(2, 2, 2, 2), (2, 4, 6), (3, 3, 6, 9, 12)])
def test_wci_counts_refuse_weights_with_a_common_factor(w):
    # P(w) with gcd(w) = g > 1 is P(w/g); the formula's hypotheses fail, so
    # the counts raise the builder's error instead of evaluating it anyway;
    # baum_bott_sum((2, 2, 2, 2), (2,), 1) used to return 49/8
    g = gcd(*w)
    for call in (lambda: wci_sing_count(w, (2,), 1),
                 lambda: wci_sing_count_parts(w, (2,), 1, "distribution"),
                 lambda: alpha_invariant(w, (2,)),
                 lambda: baum_bott_sum(w, (2,) * (len(w) - 3), 1),
                 lambda: general_type_index(w, (2,)),
                 lambda: poincare_check("wci-curve", weights=w, classes=(2,), degree=1),
                 lambda: poincare_check("wci-general", weights=w, classes=(2,), degree=1)):
        with pytest.raises(ModelFormatError, match=re.escape(
                f"weights {w} have gcd {g}, expected 1")):
            call()


def _poincare(variant):
    return lambda w, a: poincare_check(variant, weights=w, classes=a, degree=1)


# every weighted entry point, as a call on (weights, classes)
WEIGHTED_ENTRY_POINTS = {
    "wci_sing_count": lambda w, a: wci_sing_count(w, a, 1),
    "wci_sing_count_parts": lambda w, a: wci_sing_count_parts(w, a, 1),
    "alpha_invariant": alpha_invariant,
    "baum_bott_sum": lambda w, a: baum_bott_sum(w, a, 1),
    "general_type_index": general_type_index,
    "wci_curve": _poincare("wci-curve"),
    "wci_general": _poincare("wci-general"),
}


# general_type_index((0, -2), (1,)) used to return 3, and the wci-curve
# verdict on a single weight to hold
@pytest.mark.parametrize("w", [(0, 1, 1), (1, -2, 1, 1), (0, -2), (3,), ()])
@pytest.mark.parametrize("route", sorted(WEIGHTED_ENTRY_POINTS))
def test_weighted_entry_points_refuse_weights_that_are_no_space(route, w):
    with pytest.raises(ValueError, match="^weights must be at least two positive integers$"):
        WEIGHTED_ENTRY_POINTS[route](w, (1,))


def test_wci_balanced_weight_family():
    # whenever w0 + w1 = w2 + w3 = d, the degree-w0 hypersurface cut by the
    # paired rotational form carries a single zero of index 1/w1
    for w in [(1, 7, 3, 5), (1, 11, 5, 7), (1, 13, 5, 9), (3, 5, 1, 7)]:
        d = w[0] + w[1]
        assert d == w[2] + w[3]
        assert wci_sing_count(w, (w[0],), d, kind="distribution") == \
            Fraction(1, w[1])


def test_wci_contact_family_vanishes():
    for k in range(1, 11):
        parts = wci_sing_count_parts(
            (1, 1, 1, 1, 1, 1, k), (1, 1, k), 2, kind="distribution")
        assert [p.constant_value() for p in parts] == [8, -16, 12, -4]


def test_wci_route_equality_random():
    rng = random.Random(17)
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        while done < 200:
            n = rng.choice((3, 4, 5))
            w = tuple(rng.randint(1, 6) for _ in range(n + 1))
            g = 0
            for x in w:
                g = gcd(g, x)
            if g != 1:
                continue
            a = rng.randint(1, 6)
            d = rng.randint(0, 10)
            m = catalog.weighted(*w)
            assert restricted_sing_count(m, (d,), (a,)) == wci_sing_count(w, (a,), d)
            done += 1


def test_wci_sign_duality_symbolic():
    rng = random.Random(23)
    d = MultiPoly.variable("d", ("d",))
    minus_d = -d
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        while done < 200:
            n = rng.choice((2, 3, 4, 5))
            w = tuple(rng.randint(1, 6) for _ in range(n + 1))
            g = 0
            for x in w:
                g = gcd(g, x)
            if g != 1:
                continue
            m = rng.randint(0, n - 1)
            a = tuple(rng.randint(1, 6) for _ in range(m))
            lhs = wci_sing_count(w, a, d, kind="distribution")
            rhs = (-1) ** (n - m) * wci_sing_count(w, a, minus_d, kind="foliation")
            assert lhs == rhs
            done += 1


def test_wci_count_is_the_sum_of_its_parts():
    # one count at d (or -d) against the per-power parts, at int, Fraction
    # and symbolic degrees, for both kinds: values, tables and coefficient types
    rng = random.Random(2700)
    t = MultiPoly.variable("t", ("t", "u"))
    degrees = (lambda: rng.randint(-8, 12),
               lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
               lambda: t, lambda: 2 * t - Fraction(1, 3))
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        while done < 200:
            n = rng.randint(2, 7)
            w = tuple(rng.randint(1, 7) for _ in range(n + 1))
            if gcd(*w) != 1:
                continue
            a = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, n - 1)))
            degree = degrees[done % len(degrees)]()
            for kind in formulas.KINDS:
                parts = wci_sing_count_parts(w, a, degree, kind)
                assert _printed(wci_sing_count(w, a, degree, kind)) \
                    == _printed(poly_sum(parts)), (w, a, degree, kind)
            done += 1


def test_wci_count_refuses_a_degree_in_the_generator_symbol():
    # the degree enters P(w), whose generator is H; the parts never put it there
    h = MultiPoly.variable("H", ("H",))
    assert poly_sum(wci_sing_count_parts((1, 1, 1, 2), (2,), h)) == h ** 2 + 3 * h + 3
    assert [wci_sing_count((1, 1, 1, 2), (2,), d) for d in (1, 2)] == [7, 13]
    with pytest.raises(ValueError, match="^degree symbols may not collide with generators$"):
        wci_sing_count((1, 1, 1, 2), (2,), h)


def test_wci_rejects_too_many_classes():
    with pytest.raises(ValueError):
        wci_sing_count((1, 1, 1), (1, 1, 1), 2)


def test_baum_bott_values():
    assert baum_bott_sum((1, 1, 1, 1), (3,), 2) == 27
    assert baum_bott_sum((1, 1, 1, 1, 1), (2, 2), 0) == 4


def test_baum_bott_vanishes_exactly_on_the_line():
    rng = random.Random(29)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        for _ in range(100):
            n = rng.choice((3, 4, 5))
            w = tuple(rng.randint(1, 5) for _ in range(n + 1))
            g = 0
            for x in w:
                g = gcd(g, x)
            if g != 1:
                continue
            a = tuple(rng.randint(1, 5) for _ in range(n - 2))
            d = rng.randint(-10, 10)
            value = baum_bott_sum(w, a, d)
            assert value.constant_value() >= 0
            vanishes = (d == sum(a) - sum(w))
            assert (value == 0) == vanishes


def test_general_type_index():
    assert general_type_index((1, 1, 1, 1), (5,)) == 1
    assert general_type_index((1, 1, 1, 1), (3,)) == -1
    assert general_type_index((1, 1, 1, 1, 1), (2, 3)) == 0


# each scalar route as a call on (weights, classes), integer inputs, and a
# check of the value the routes gave there before they rejected other data
SCALAR_ROUTES = {
    "wci": (lambda w, a: wci_sing_count(w, a, 2), ((1, 1, 1, 2), (3,)),
            lambda v: v == Fraction(33, 2)),
    "wci_parts": (lambda w, a: wci_sing_count_parts(w, a, 2, "distribution"),
                  ((1, 1, 1, 2), (3,)), lambda v: v == [6, -6, Fraction(9, 2)]),
    "baum_bott": (lambda w, a: baum_bott_sum(w, a, 2), ((1, 1, 1, 2), (3,)),
                  lambda v: v == 24),
    "general_type": (general_type_index, ((1, 1, 1, 2), (5,)), lambda v: v == 0),
    "alpha": (alpha_invariant, ((1, 1, 1, 2), (3,)),
              lambda v: (v.alpha, v.chi) == (3, Fraction(9, 2))),
    "wci_curve": (lambda w, a: poincare_check("wci-curve", weights=w, classes=a,
                                              degree=1), ((1, 1, 2), (2, 3)),
                  lambda v: (v.lhs, v.rhs, v.holds) == (5, 5, True)),
    "wci_general": (lambda w, a: poincare_check("wci-general", weights=w, classes=a,
                                                degree=1), ((1, 1, 1, 2), (3,)),
                    lambda v: (v.lhs, v.rhs, v.holds) == (4, 6, True)),
}


# a bool is an int to Python: wci_sing_count((1, True, 1, 2), (2,), 1) used
# to return 7 and alpha_invariant((1, 1, True, 2), (2,)) alpha = 3
@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), True])
@pytest.mark.parametrize("route", sorted(SCALAR_ROUTES))
def test_scalar_routes_reject_non_integer_data(route, bad):
    call, (w, a), check = SCALAR_ROUTES[route]
    entry = re.escape(repr(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every integer input here is well formed
        assert check(call(w, a))
    for name, args in (("weights", (w[:-1] + (bad,), a)),
                       ("classes", (w, (bad,) + a[1:]))):
        with pytest.raises(ValueError, match=f"^{name} .* non-integer entry {entry}$"):
            call(*args)


FLOAT_DEGREE_ROUTES = {
    "wci_sing_count": lambda d: wci_sing_count((1, 1, 1, 1), (2,), d),
    "wci_sing_count_parts": lambda d: wci_sing_count_parts((1, 1, 1, 1), (2,), d),
    "baum_bott_sum": lambda d: baum_bott_sum((1, 1, 1, 1), (2,), d),
    "scroll_closed_form_d1": lambda d: scroll_closed_form(3, (1, 1, 1), d, 1),
    "scroll_closed_form_d2": lambda d: scroll_closed_form(3, (1, 1, 1), 1, d),
    "wci_curve": lambda d: poincare_check("wci-curve", weights=(1, 1, 1, 1),
                                          classes=(2,), degree=d),
    "wci_general": lambda d: poincare_check("wci-general", weights=(1, 1, 1, 1),
                                            classes=(2,), degree=d),
    "wci_sing_count_p112": lambda d: wci_sing_count((1, 1, 1, 2), (2,), d),
    "class_of_divisor_coeffs": lambda d: chow.class_of_divisor_coeffs(
        catalog.projective(2), (d, 0, 0)),
}


@pytest.mark.parametrize("route", sorted(FLOAT_DEGREE_ROUTES))
def test_float_degrees_are_not_exact_data(route):
    call = FLOAT_DEGREE_ROUTES[route]
    assert call(Fraction(1, 2)) is not None  # exact rationals are fine
    for bad in (0.1, 0.5, 2.0):
        with pytest.raises(ValueError, match=rf"^coefficient {bad!r} is a float"):
            call(bad)
    # a bool is an int to Python: wci_sing_count((1, 1, 1, 2), (2,), True)
    # used to return 7, the count at degree 1
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"^coefficient {bad} is a bool, not exact data$"):
            call(bad)


# wci_sing_count((1, 1, 1, 2), (2,), "1") used to return 7, and the other
# routes read a str or a Decimal through Fraction as well
@pytest.mark.parametrize("route", sorted(FLOAT_DEGREE_ROUTES))
def test_str_and_decimal_degrees_are_not_exact_data(route):
    for bad in ("1", " 1/2 ", Decimal("1")):
        with pytest.raises(ValueError, match=f"^coefficient {re.escape(repr(bad))} is not "
                                             "an int, a Fraction or a MultiPoly$"):
            FLOAT_DEGREE_ROUTES[route](bad)


# foliation_sing_count(projective(2), True) used to return 7, the count at
# degree 1, through the int paths of `picard_vector` and `class_element`
@pytest.mark.parametrize("spec, degree", [
    ("projective:2", True), ("projective:2", (True,)), ("projective:2", False),
    ("projective:2", (1, True, 0)),  # divisor coefficients
    ("multiprojective:1,1", True), ("multiprojective:1,1", (1, True)),
])
def test_bool_degrees_are_not_exact_data(spec, degree):
    with pytest.raises(ValueError, match="^coefficient (True|False) is a bool, not exact data$"):
        foliation_sing_count(catalog.from_spec_string(spec), degree)


def test_a_degree_that_is_neither_scalar_nor_sequence_is_named():
    p2 = catalog.projective(2)
    for bad in (0.5, None, object()):
        with pytest.raises(ValueError, match=f"^degree {re.escape(repr(bad))} is "
                                             "neither a scalar expression nor a sequence$"):
            foliation_sing_count(p2, bad)
    with pytest.raises(TypeError, match="Picard vector entry 0.5"):
        foliation_sing_count(p2, (0.5,))


@pytest.mark.parametrize("names, bad", [
    (("2",), "'2'"), (("",), "''"), ((" d",), "' d'"), (("H,d",), "'H,d'"),
    (("d-1",), "'d-1'"), ((1,), "1"),
])
def test_degree_symbols_must_be_names_the_parser_reads_back(names, bad):
    p2 = catalog.projective(2)
    with pytest.raises(ValueError, match=f"^degree symbol {re.escape(bad)} must be"):
        symbolic_degree(p2, names)
    for good in ("d", "_", "t_1", "Degree2"):
        count = foliation_sing_count(p2, symbolic_degree(p2, (good,)))
        text = count.canonical_string()
        assert catalog.parse_polynomial(text, (good,)) == count


# scroll_closed_form(3, (True, 1, 1), 0, 0) used to return -6
@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), True])
def test_scroll_and_gcd_routes_reject_non_integer_data(bad):
    entry = re.escape(repr(bad))
    assert scroll_closed_form(3, (1, 2, 2), 1, 1) == -46
    with pytest.raises(ValueError, match=f"^twists .* non-integer entry {entry}$"):
        scroll_closed_form(3, (1, bad, 2), 1, 1)
    p2 = catalog.projective(2)
    verdict = gcd_obstruction(p2, (2, 4, 0))
    assert (verdict.chi, verdict.gcd, verdict.forces_singular) == (3, 2, True)
    with pytest.raises(ValueError, match=f"^divisor coefficients .* entry {entry}$"):
        gcd_obstruction(p2, (bad, 0, 0))


def test_alpha_invariant_quadric_threefold():
    info = alpha_invariant((1, 1, 1, 1, 1), (2,))
    assert info.alpha == 2
    assert info.chi == 4
    assert info.divides(2) and info.divides(1) and not info.divides(3)


def test_alpha_divides_zero_only_when_alpha_is_zero():
    info = alpha_invariant((1, 1, 1, 1), (2,))
    assert info.alpha == 2 and not info.divides(0)
    assert formulas.AlphaInvariant(Fraction(0), Fraction(0)).divides(0)


@pytest.mark.parametrize("bad", [2.5, True, Fraction(5)])
def test_alpha_divides_refuses_divisors_that_are_not_ints(bad):
    # 5 % 2.5 == 0.0 and 5 % True == 0 used to make both "divide" 5
    with pytest.raises(ValueError, match=f"^divisor {re.escape(repr(bad))} is not an int$"):
        formulas.AlphaInvariant(Fraction(5), Fraction(0)).divides(bad)


def test_alpha_invariant_p1():
    assert alpha_invariant((1, 1, 1), (1,)).chi == 2


def test_alpha_invariant_rejects_empty():
    with pytest.raises(ValueError):
        alpha_invariant((1, 1, 1), ())


def test_alpha_chi_matches_ci_euler():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice((3, 4, 5))
        m_count = rng.randint(1, n - 1)
        a = tuple(rng.randint(1, 4) for _ in range(m_count))
        model = catalog.projective(n)
        assert alpha_invariant((1,) * (n + 1), a).chi == \
            ci_euler(model, [(x,) for x in a])


# -- toric complete intersections ---------------------------------------------

def test_ci_matches_restricted_on_p3():
    m = catalog.projective(3)
    assert ci_sing_count(m, [(2,)], (1,)) == 10
    # a hypersurface is the complete intersection of one class, for both
    # kinds, on smooth builtins at numeric and symbolic degrees
    for model, hyp, degrees in (
            (m, (2,), ((1,), (-3,), "symbolic")),
            (catalog.multiprojective(1, 1), (2, 3), ((1, 0), (-2, 5), "symbolic")),
            (catalog.blowup_point(2), (1, 2), ((3, 1), "symbolic")),
            (catalog.multiprojective(1, 2), (1, 1), ((2, 2), "symbolic"))):
        for degree in degrees:
            for kind in ("foliation", "distribution"):
                assert ci_sing_count(model, [hyp], degree, kind) == \
                    restricted_sing_count(model, degree, hyp, kind)


@st.composite
def projective_ci_cases(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    m = draw(st.integers(min_value=2, max_value=n - 1))
    classes = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=m, max_size=m))
    degree = draw(st.one_of(st.integers(min_value=-3, max_value=8),
                            st.just("symbolic")))
    kind = draw(st.sampled_from(("foliation", "distribution")))
    return n, classes, degree, kind


@settings(max_examples=60, deadline=None)
@given(projective_ci_cases())
def test_ci_tensor_route_matches_the_weighted_scalar_route(case):
    # m >= 2 classes: the tensor route on P^n against the scalar route on
    # P(1,...,1); the symbolic degree is d1 on both sides
    n, classes, degree, kind = case
    tensor = ci_sing_count(catalog.projective(n), [(a,) for a in classes],
                           degree, kind=kind)
    scalar_degree = MultiPoly.variable("d1", ("d1",)) if degree == "symbolic" else degree
    assert tensor == wci_sing_count((1,) * (n + 1), classes, scalar_degree, kind=kind)


def test_foliation_count_on_p200():
    assert foliation_sing_count(catalog.projective(200), 1) == 2 ** 201 - 1


def test_ci_diagonal_curve_count():
    m = catalog.multiprojective(1, 1)
    assert ci_sing_count(m, [(1, 1)], (0, 0)) == 2


def test_ci_orbifold_warns_but_computes():
    k = 3
    m = catalog.weighted(1, 1, 1, k)
    with pytest.warns(OrbifoldHypothesisWarning):
        value = ci_sing_count(m, [(1,)], (2 * k,), kind="distribution")
    assert value == wci_sing_count((1, 1, 1, k), (1,), 2 * k, kind="distribution")


# well-formed weighted complete intersections (pairwise coprime weights)
WCI_CASES = [((1, 1, 2, 3), (6,)), ((1, 1, 1, 2), (4,)), ((1, 1, 1, 3), (6,)),
             ((1, 1, 1, 2, 3), (6,)), ((1, 1, 1, 1, 2), (2, 4)),
             ((1, 1, 1, 1, 2, 3), (6, 6))]


@pytest.mark.parametrize("w, a", WCI_CASES, ids=str)
@pytest.mark.parametrize("kind", formulas.KINDS)
def test_ci_on_weighted_spaces_is_the_scalar_route(w, a, kind):
    # the tensor route on an orbifold ambient space warns that its points
    # must be isolated and missed, then agrees with the scalar route
    m = catalog.weighted(*w)
    for d in (0, 1, 2, 5):
        with pytest.warns(OrbifoldHypothesisWarning,
                          match="orbifold points are isolated and that the "
                                "intersection misses them"):
            value = ci_sing_count(m, [(x,) for x in a], (d,), kind)
        assert value == wci_sing_count(w, a, d, kind)


def test_ci_sextic_in_p1123_counts_17():
    with pytest.warns(OrbifoldHypothesisWarning, match="isolated"):
        assert ci_sing_count(catalog.weighted(1, 1, 2, 3), [(6,)], 2) == 17


def test_ci_sign_duality_symbolic():
    cases = [
        (catalog.projective(3), [(2,)]),
        (catalog.projective(4), [(2,), (3,)]),
        (catalog.multiprojective(1, 1), [(1, 1)]),
        (catalog.scroll(1, 2, 1), [(0, 1)]),
        (catalog.blowup_point(3), [(1, 0)]),
    ]
    for model, classes in cases:
        d = symbolic_degree(model)
        minus_d = tuple(-x for x in d)
        nm = model.dim - len(classes)
        lhs = ci_sing_count(model, classes, d, kind="distribution")
        rhs = (-1) ** nm * ci_sing_count(model, classes, minus_d)
        lhs, rhs = aligned(lhs, rhs)
        assert lhs == rhs


def test_ci_euler_values():
    assert ci_euler(catalog.projective(3), [(2,)]) == 4
    assert ci_euler(catalog.projective(4), [(2,)]) == 4
    assert ci_euler(catalog.projective(2), [(3,)]) == 0


def test_multidegree():
    m = catalog.projective(3)
    assert multidegree(m, [(2,), (3,)], 0) == 6
    pp = catalog.multiprojective(1, 1)
    assert multidegree(pp, [(2, 3)], 0) == 3
    assert multidegree(pp, [(2, 3)], 3) == 2  # last divisor lies in the second factor
    assert multidegree(pp, [(2, 3)], 1, generator=True) == 2
    assert multidegree(m, [(2,), (0,)], 0) == 0


def test_multidegree_index_range():
    with pytest.raises(ValueError):
        multidegree(catalog.projective(3), [(2,)], 9)
    # nor an index that is not an int: True used to pick generator 1
    pp = catalog.multiprojective(1, 1)
    for bad in (1.0, True, Fraction(1)):
        for generator in (False, True):
            with pytest.raises(ValueError, match=f"^index {re.escape(repr(bad))} is not an int$"):
                multidegree(pp, [(2, 3)], bad, generator=generator)


# -- inequality checks ---------------------------------------------------------

def test_poincare_wci_curve_boundary():
    v = poincare_check("wci-curve", weights=(1, 1, 2), classes=(2, 2), degree=0)
    assert (v.lhs, v.rhs, v.holds, v.slack) == (4, 4, True, 0)


def test_poincare_wci_general_fails():
    v = poincare_check("wci-general", weights=(1, 1, 1, 1, 1), classes=(10,),
                       degree=1)
    assert (v.lhs, v.rhs, v.holds) == (12, 6, False)


def test_poincare_toric_curve():
    m = catalog.multiprojective(1, 1)
    v = poincare_check("toric-curve", model=m, classes=[(2, 3)], degree=(1, 0))
    assert (v.lhs, v.rhs, v.holds, v.slack) == (12, 13, True, 1)
    # c_1 is read from the counts' Chern vector, so no Chern class is built
    assert "_divisor_esym" not in m.__dict__


def test_poincare_toric_curve_strict_on_projective():
    # on projective space the strict bound reads sum(a) <= d + n
    m = catalog.projective(3)
    v = poincare_check("toric-curve", model=m, classes=[(2,), (2,)], degree=(1,))
    assert v.holds  # 4*4 <= (1+4)*4
    strict = poincare_check("toric-curve", model=m, classes=[(2,), (2,)],
                            degree=(1,), strict=True)
    assert strict.rhs == v.rhs - 4
    assert strict.holds  # 16 <= 16 at the boundary


def test_poincare_toric_curve_needs_a_surface_at_least():
    with pytest.raises(ValueError, match="dimension at least 2, got 1"):
        poincare_check("toric-curve", model=catalog.projective(1), classes=[],
                       degree=(1,))


def test_poincare_identity_with_restricted_count():
    # slack relates to the curve count: lhs - rhs = -(count on the curve)
    for model, classes in [
        (catalog.multiprojective(1, 1), [(2, 3)]),
        (catalog.projective(3), [(2,), (3,)]),
    ]:
        d = symbolic_degree(model)
        v = poincare_check("toric-curve", model=model, classes=classes, degree=d)
        count = ci_sing_count(model, classes, d)
        lhs_minus_rhs, neg = aligned(v.lhs - v.rhs, -count)
        assert lhs_minus_rhs == neg


def test_poincare_arity_checks():
    with pytest.raises(ValueError):
        poincare_check("wci-general", weights=(1, 1, 1), classes=(2, 2), degree=0)
    with pytest.raises(ValueError):
        poincare_check("toric-curve", model=catalog.projective(3),
                       classes=[(2,)], degree=(1,))
    with pytest.raises(ValueError):
        poincare_check("nonsense", weights=(1, 1), classes=(1,), degree=0)
    with pytest.raises(ValueError):
        poincare_check("wci-curve", weights=(1, 1, 2), classes=(2, 2))


# -- scrolls and searches -------------------------------------------------------

def test_scroll_closed_form_known_zeros():
    assert scroll_closed_form(3, (1, 1, 1), -2, 0) == 0
    # for n = 4 the second family d2 = -2 zeroes the form when d1 is integral
    for s in (3, 5, 7):
        a = (1, 1, 1, s - 3)
        d1num = -(1 + (-1) ** 5 - 2 * s)
        if d1num % 4 == 0:
            assert scroll_closed_form(4, a, d1num // 4, -2) == 0


def test_scroll_closed_form_sign_is_fixed_empirically():
    # compare against the tensor route at one non-vanishing input, then
    # demand the same constant everywhere on a grid
    for a in [(1, 1, 1), (2, 1, 3), (1, 1, 1, 1), (1, 2, 1, 4)]:
        n = len(a)
        model = catalog.scroll(*a)
        sign = None
        for d1 in range(-3, 4):
            for d2 in range(-3, 4):
                count = foliation_sing_count(model, (d1, d2)).constant_value()
                value = scroll_closed_form(n, a, d1, d2).constant_value()
                if count == 0:
                    assert value == 0
                    continue
                ratio = value / count
                if sign is None:
                    sign = ratio
                    assert sign in (1, -1)
                else:
                    assert ratio == sign
        assert sign == (-1) ** n  # the empirical constant, recorded


def test_scroll_closed_form_is_the_signed_tensor_count():
    # an identity of polynomials in d1 and d2, for n = 3..8
    rng = random.Random(41)
    table = ("d1", "d2")
    d1, d2 = (MultiPoly.variable(v, table) for v in table)
    for n in range(3, 9):
        for _ in range(3):
            a = tuple(rng.randint(-5, 6) for _ in range(n))
            count = foliation_sing_count(catalog.scroll(*a), (d1, d2))
            assert scroll_closed_form(n, a, d1, d2) == (-1) ** n * count


def test_scroll_closed_form_needs_n_above_two():
    with pytest.raises(ValueError):
        scroll_closed_form(2, (1, 1), 0, 0)


def test_search_p111k_empty():
    assert regular_search("p111k", 25) == []


def test_search_p1111k_classification():
    sols = regular_search("p1111k", 25)
    accepted = {s.params for s in sols if s.annotation == "accepted"}
    excluded = {s.params for s in sols if s.annotation == "excluded-by-cohomology"}
    assert accepted == {(k, 2, k) for k in range(1, 26)}
    assert excluded == {(2, 1, 1)}


def test_search_scroll():
    sols = regular_search("scroll", 10, scroll_a=(1, 1, 1))
    assert [s.params for s in sols] == [(-2, 0)]


def test_search_solutions_are_frozen_and_ordered():
    first, second = regular_search("p1111k", 3)[:2]
    assert first < second
    for field, value in (("family", "p111k"), ("params", (1, 1, 1)),
                         ("annotation", "excluded-by-cohomology")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, field, value)
    assert (first.family, first.params, first.annotation) \
        == ("p1111k", (1, 2, 1), "accepted")


def _searches():
    rng = random.Random(2701)
    twists = [(s,) for s in range(-4, 5)] + [
        tuple(rng.randint(-5, 5) for _ in range(n)) for n in range(1, 6) for _ in range(6)]
    for family in formulas._P_FAMILIES:
        for bound in range(1, 101):
            yield family, bound, None
    for a in twists:
        for bound in (1, 2, 3, 7, 40):
            yield "scroll", bound, a


def _same_solutions(built, made, stride=1):
    assert [type(b) for b in built] == [SearchSolution] * len(made)
    assert built == made
    assert list(map(repr, built)) == list(map(repr, made))
    assert list(map(hash, built)) == list(map(hash, made))
    assert not any(b < m or m < b or hasattr(b, "__dict__") for b, m in zip(built, made))
    for b, c in zip(built, built[1:]):
        assert b < c and not c < b and b <= c
    # the field copies and round trips run on every stride-th solution,
    # the excluded point (2, 1, 1), second in p1111k, among them
    built, made = built[1::stride] + built[:1], made[1::stride] + made[:1]
    assert [tuple(getattr(b, name) for name in b._fields) for b in built] \
        == [tuple(getattr(m, name) for name in m._fields) for m in made]
    assert [{name: getattr(b, name) for name in b._fields} for b in built] \
        == [{name: getattr(m, name) for name in m._fields} for m in made]
    for round_trip in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert round_trip == made
        assert list(map(repr, round_trip)) == list(map(repr, made))


def test_built_solutions_are_constructed_solutions():
    # results filled through the slot descriptors against the public
    # constructor: equality, repr, hash, order, fields, pickle and deepcopy;
    # the p-families last at a lower bound, sliced from the held solutions
    held = [(family, 37, None) for family in formulas._P_FAMILIES]
    for family, bound, a in [*_searches(), *held]:
        built = regular_search(family, bound, scroll_a=a)
        made = [SearchSolution(family, s.params, s.annotation) for s in built]
        _same_solutions(built, made)
    built = regular_search("p1111k", 10 ** 5)
    made = [SearchSolution("p1111k", (k, 2, k)) for k in range(1, 10 ** 5 + 1)]
    made.insert(1, SearchSolution("p1111k", (2, 1, 1), "excluded-by-cohomology"))
    _same_solutions(built, made, stride=97)
    assert regular_search("p111k", 10 ** 5) == []


def test_solutions_pickle_through_their_constructor(monkeypatch):
    # no __setstate__: a slotted state would be set through the frozen
    # __setattr__, which refuses it, so __reduce__ names the constructor
    def refuse(self, state):
        raise AssertionError("__setstate__ called")

    monkeypatch.setattr(SearchSolution, "__setstate__", refuse, raising=False)
    monkeypatch.setattr(formulas, "_held", {})
    # built at bound 10, then sliced from the solutions held at 10
    for bound in (10, 6):
        built = regular_search("p1111k", bound)
        assert pickle.loads(pickle.dumps(built)) == built
        assert copy.deepcopy(built) == built
    assert formulas._held["p1111k"][2] == 10


def _fields(solutions):
    return [(type(s), s.family, s.params, s.annotation) for s in solutions]


def _fresh_search(family, bound):
    """The search with the held solutions emptied, and the store put back."""
    store, formulas._held = formulas._held, {}
    try:
        return _fields(regular_search(family, bound))
    finally:
        formulas._held = store


def _held_orders(rng):
    bounds = list(range(1, 301))
    shuffled = bounds[:]
    rng.shuffle(shuffled)
    return bounds, bounds[::-1], shuffled


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_held_searches_equal_fresh_ones(monkeypatch, family):
    # every order of bounds: ascending builds each time, descending slices
    # the solutions held at 300, a shuffle mixes both; each answer is a new
    # list, so changing one leaves the next call's unchanged
    fresh = {bound: _fresh_search(family, bound) for bound in (*range(1, 301), 1000, 10 ** 5)}
    for order in _held_orders(random.Random(5081)):
        monkeypatch.setattr(formulas, "_held", {})
        for bound in (*order, 1000, 10 ** 5):
            first = regular_search(family, bound)
            assert _fields(first) == fresh[bound]
            first.append(None)
            second = regular_search(family, bound)
            assert second is not first and _fields(second) == fresh[bound]
            if second:
                second.pop()
            assert _fields(regular_search(family, bound)) == fresh[bound]
        # p1111k at bound 10^5 has 100001 solutions, past the retention
        # constant, so its solutions held at 1000 stay; p111k has none
        assert formulas._held[family][2] == (1000 if fresh[10 ** 5] else 10 ** 5)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_held_searches_agree_across_threads(monkeypatch, family):
    fresh = {bound: _fresh_search(family, bound) for bound in range(1, 301)}
    monkeypatch.setattr(formulas, "_held", {})
    failures = []

    def search(seed):
        # ascending, the threads race to extend the held solutions; then
        # shuffled, they slice them or extend an entry another stored lower
        ascending, _, shuffled = _held_orders(random.Random(seed))
        try:
            for bound in (*ascending, *shuffled):
                assert _fields(regular_search(family, bound)) == fresh[bound], bound
        except AssertionError as exc:
            failures.append(exc)

    threads = [threading.Thread(target=search, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a read and a store
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@pytest.fixture
def holding_p1111k(monkeypatch):
    monkeypatch.setattr(formulas, "_held", {})
    regular_search("p1111k", 300)
    assert formulas._held["p1111k"][2] == 300


def test_held_searches_keep_their_refusals(monkeypatch, holding_p1111k):
    for bound in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="^bound must be a positive integer$"):
            regular_search("p1111k", bound)
    with pytest.raises(ValueError, match="^twists apply to the scroll family only$"):
        regular_search("p1111k", 20, scroll_a=(1, 1, 1))
    monkeypatch.setattr(formulas, "_MAX_SOLUTIONS", 21)
    assert len(regular_search("p1111k", 20)) == 21
    with pytest.raises(ValueError, match="^p1111k search at bound 21 has 22 solutions, "
                       "more than the 21 a search returns$"):
        regular_search("p1111k", 21)


@pytest.mark.parametrize("solutions, expected", [
    # the line (k, 3, k) alone
    (((1, 1, None, (3,)),), lambda b: [(k, 3, k) for k in range(1, b + 1)] if b >= 3 else []),
    # every d at every k on the m = 1 row: d <= B holds through the filter
    (((1, 1, None, None),), lambda b: [(k, d, k) for k in range(1, b + 1) for d in range(1, b + 1)]),
])
def test_held_searches_read_the_solution_set_in_use(monkeypatch, holding_p1111k,
                                                    solutions, expected):
    monkeypatch.setattr(formulas, "_p_family_solution_set", lambda family: solutions)
    for bound in (12, 12, 7, 3, 2, 1):  # the first builds, the rest slice
        assert [s.params for s in regular_search("p1111k", bound)] == expected(bound)
    assert formulas._held["p1111k"][0] == solutions


def _spy_solutions(monkeypatch):
    """The params lists that searches pass to `_solutions`, in call order."""
    seen = []

    def spy(family, found, excluded, build=formulas._solutions):
        seen.append(list(found))
        return build(family, found, excluded)

    monkeypatch.setattr(formulas, "_solutions", spy)
    return seen


@pytest.mark.parametrize("solutions, full_below", [
    # the line (k, 2, k) with a second root past the first held bounds, the
    # point (2, 1, 1) and a sporadic row of two roots: held bounds below 40
    # build in full, the others extend
    (((1, 1, None, (2, 40)), (2, 1, 1, (1,)), (3, 2, 2, (5, 7))), 40),
    # every d on the m = 1 row: every search builds in full
    (((1, 1, None, None),), None),
    # sporadic rows alone, one k each, roots at most 6
    (((2, 3, 3, (4,)), (5, 1, 1, (1, 6)), (3, 2, 2, (2,))), 6),
])
def test_held_searches_extend_only_past_finite_roots(monkeypatch, solutions, full_below):
    monkeypatch.setattr(formulas, "_p_family_solution_set", lambda family: solutions)
    bounds = range(1, 61)
    fresh = {bound: _fresh_search("p1111k", bound) for bound in bounds}
    seen = _spy_solutions(monkeypatch)
    shuffled = list(bounds)
    random.Random(613).shuffle(shuffled)
    for order in (bounds, bounds[::-1], shuffled):
        monkeypatch.setattr(formulas, "_held", {})
        for bound in order:
            held = formulas._held.get("p1111k")
            seen.clear()
            assert _fields(regular_search("p1111k", bound)) == fresh[bound], bound
            if held is None or bound <= held[2]:
                continue  # built fresh, or sliced
            # an extension passes only the params past the held bound
            full = full_below is None or held[2] < full_below
            assert seen == [[p for _, _, p, _ in fresh[bound] if full or p[0] > held[2]]], bound


def test_searches_above_the_held_bound_build_only_the_new_solutions(monkeypatch):
    monkeypatch.setattr(formulas, "_held", {})
    seen = _spy_solutions(monkeypatch)
    regular_search("p1111k", 2)
    for held, bound in ((2, 50), (50, 95), (95, 95), (95, 300)):
        fresh = _fresh_search("p1111k", bound)
        seen.clear()
        assert _fields(regular_search("p1111k", bound)) == fresh
        new = [(k, 2, k) for k in range(held + 1, bound + 1)]
        assert seen == ([new] if new else [])
        assert formulas._held["p1111k"][2] == bound
    # the line's root 2 is past the held bound 1: a search at 2 builds in full
    monkeypatch.setattr(formulas, "_held", {})
    regular_search("p1111k", 1)
    seen.clear()
    regular_search("p1111k", 2)
    assert seen == [[(1, 2, 1), (2, 1, 1), (2, 2, 2)]]


def test_held_hits_count_only_below_the_held_count(monkeypatch, holding_p1111k):
    # held at 300, 301 solutions; the count at 20 is 21
    calls, limit0 = [], formulas._MAX_SOLUTIONS

    def spy(family, bound, count, check=formulas._check_count):
        calls.append((family, bound, count))
        check(family, bound, count)

    monkeypatch.setattr(formulas, "_check_count", spy)
    for limit, expected in ((limit0, []), (301, []),
                            (300, [("p1111k", 20, 21)]), (21, [("p1111k", 20, 21)])):
        monkeypatch.setattr(formulas, "_MAX_SOLUTIONS", limit)
        calls.clear()
        assert len(regular_search("p1111k", 20)) == 21
        assert calls == expected, limit
    # above the held bound the count always runs
    monkeypatch.setattr(formulas, "_MAX_SOLUTIONS", limit0)
    calls.clear()
    regular_search("p1111k", 301)
    assert calls == [("p1111k", 301, 302)]


def test_held_searches_build_with_the_class_in_use(monkeypatch, holding_p1111k):
    class Marked(SearchSolution):
        __slots__ = ()

    monkeypatch.setattr(formulas, "SearchSolution", Marked)
    for bound in (20, 10):
        assert {type(s) for s in regular_search("p1111k", bound)} == {Marked}
    monkeypatch.setattr(formulas, "SearchSolution", SearchSolution)
    assert {type(s) for s in regular_search("p1111k", 10)} == {SearchSolution}


def test_searches_past_the_retention_constant_hold_nothing(monkeypatch, holding_p1111k):
    # p1111k at bound B has B + 1 solutions
    limit = formulas._HELD_SOLUTIONS
    held = formulas._held["p1111k"]
    assert len(regular_search("p1111k", limit)) == limit + 1
    assert formulas._held["p1111k"] is held
    monkeypatch.setattr(formulas, "_held", {})
    regular_search("p1111k", limit)
    assert formulas._held == {}
    regular_search("p1111k", limit - 1)
    assert formulas._held["p1111k"][2] == limit - 1


def test_search_results_are_sorted():
    sols = regular_search("p1111k", 12)
    assert [s.params for s in sols] == sorted(s.params for s in sols)


def test_search_unknown_family():
    with pytest.raises(ValueError):
        regular_search("hirzebruch", 5)


@pytest.mark.parametrize("bound", [0, -3, 2.5, 3.0, Fraction(3), "3", True, False])
@pytest.mark.parametrize("family", ["p111k", "p1111k", "scroll"])
def test_search_rejects_bounds_that_are_not_positive_integers(family, bound):
    with pytest.raises(ValueError, match="bound must be a positive integer"):
        regular_search(family, bound, scroll_a=(1, 1) if family == "scroll" else None)


def test_scroll_search_rejects_non_integer_twists():
    # a twist of 1.5 would build the divisor class (-1.5, 1); the scroll
    # builder names the twist itself, and a string or a bool twist too
    for twists, entry in (((1.5, 1), "1.5"), ("11", "'1'"), ((True, 2), "True")):
        with pytest.raises(ValueError, match=f"^scroll parameter {re.escape(entry)} is not an int$"):
            regular_search("scroll", 2, scroll_a=twists)


def test_scroll_search_without_twists_raises_the_builders_error():
    with pytest.raises(ModelFormatError, match="^scroll needs at least one twist$"):
        regular_search("scroll", 2, scroll_a=())


def test_warm_scroll_search_builds_no_model(monkeypatch):
    builds = []
    real_scroll, real_init = catalog.scroll, chow.ToricModel.__init__

    def spy_scroll(*a):
        builds.append(("scroll", a))
        return real_scroll(*a)

    def spy_init(self, *args, **kwargs):
        builds.append(("ToricModel", args, kwargs))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(catalog, "scroll", spy_scroll)
    monkeypatch.setattr(chow.ToricModel, "__init__", spy_init)
    for twists in ((1, 1, 1), (3, -1, 0), (-2, 3, 0)):
        assert [s.params for s in regular_search("scroll", 3, scroll_a=twists)] \
            == _scroll_scan(twists, 3)
    assert builds == []


def _scroll_scan(twists, bound):
    """The zero set of the scroll's closed form on the grid [-B, B]^2."""
    grid = range(-bound, bound + 1)
    return [(d1, d2) for d1 in grid for d2 in grid
            if scroll_closed_form(len(twists), twists, d1, d2) == 0]


def _hand_typed(family, k, a, d):
    """The search polynomials as written out by hand: count * k / a."""
    if family == "p111k":
        return (d * d - (3 + k - a) * d
                + (3 + 3 * k) - (3 + k) * a + a * a)
    return (d ** 3 - (4 + k - a) * d ** 2
            + (6 + 4 * k - (4 + k) * a + a * a) * d
            - (4 + 6 * k - (6 + 4 * k) * a + (4 + k) * a * a - a ** 3))


def _p_family_scan(family, bound):
    out = []
    for k in range(2 if family == "p111k" else 1, bound + 1):
        for a in range(k, bound + 1, k):
            for d in range(1, bound + 1):
                if _hand_typed(family, k, a, d) == 0:
                    note = ("excluded-by-cohomology"
                            if (family, a, d, k) == ("p1111k", 2, 1, 1)
                            else "accepted")
                    out.append((family, (a, d, k), note))
    return sorted(out, key=lambda t: t[1])


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_search_matches_the_hand_typed_scan(family):
    # 95 is the largest bound the benchmark's search workload runs
    for bound in (1, 2, 3, 7, 19, 40, 95):
        sols = regular_search(family, bound)
        assert [(s.family, s.params, s.annotation) for s in sols] \
            == _p_family_scan(family, bound)


def _p_terms_at(terms, m, k):
    """The value of the integer terms {(em, ek): c} of m^em k^ek at (m, k)."""
    return sum(c * m ** em * k ** ek for (em, ek), c in terms.items())


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_coefficients_are_the_hand_typed_polynomials(family):
    compiled = formulas._p_coefficients(formulas._P_FAMILIES[family][0])
    assert all(type(c) is int for t in compiled for c in t.values())
    # as polynomials, with a = m k substituted into the hand-typed ones
    table = ("m", "k", "d")
    m, k, d = (MultiPoly.variable(v, table) for v in table)
    rebuilt = poly_sum(MultiPoly(("m", "k"), t).extended(table) * d ** p
                       for p, t in enumerate(compiled))
    assert rebuilt == _hand_typed(family, k, m * k, d)
    # and as values at m = a / k, also where k does not divide a
    for kk in range(1, 7):
        for aa in range(1, 13):
            for dd in range(-3, 6):
                assert sum(_p_terms_at(t, Fraction(aa, kk), kk) * dd ** p
                           for p, t in enumerate(compiled)) \
                    == _hand_typed(family, kk, aa, dd), (kk, aa, dd)


def _inner_sums(weights, classes):
    """The reference route of the weighted counts: sum_j (-1)^j e_(i-j)(weights)
    h_j(classes) for i = 0..n - m, with n + 1 weights and m classes, from the
    symmetric-function series.  It is the degree-i part of the Chern class
    of the intersection before the orbifold degree factor.  Weights and
    classes may be numbers or symbols."""
    top = len(weights) - 1 - len(classes)
    both = aligned(*chow.elementary_series(weights, top),
                   *chow.complete_series(classes, top))
    e, h = both[:top + 1], both[top + 1:]
    return [poly_sum((-1) ** j * e[i - j] * h[j] for j in range(i + 1))
            for i in range(top + 1)]


def _reference_parts(w, a, degree, kind):
    """`wci_sing_count_parts` from `_inner_sums`: the prod(a) / prod(w)
    factor, the distribution signs, and each inner sum on the degree's table."""
    n, m, d = len(w) - 1, len(a), as_poly(degree)
    parts = []
    for i, inner in enumerate(_inner_sums(w, a)):
        inner, dp = aligned(inner, d ** (n - m - i))
        sign = (-1) ** i if kind == "distribution" else 1
        parts.append(sign * Fraction(prod(a), prod(w)) * inner * dp)
    return parts


def _printed(p):
    return p.canonical_string(), p.vars, sorted({type(c).__name__ for c in p.terms.values()})


def test_wci_parts_match_the_symmetric_function_route():
    # the P(w) tensor count against the inner sums: values, tables and
    # coefficient types, at int, Fraction and symbolic degrees, one of them
    # named H like the generator of P(w)
    rng = random.Random(2500)
    t, h = MultiPoly.variable("t", ("t",)), MultiPoly.variable("H", ("H",))
    degrees = (lambda: rng.randint(-8, 12),
               lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
               lambda: t, lambda: t + 1, lambda: h, lambda: 2 * h - Fraction(1, 3))
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        while done < 300:
            n = rng.randint(2, 7)
            w = tuple(rng.randint(1, 7) for _ in range(n + 1))
            if gcd(*w) != 1:
                continue
            a = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, n - 1)))
            degree = degrees[done % len(degrees)]()
            kind = formulas.KINDS[done % 2]
            parts = wci_sing_count_parts(w, a, degree, kind)
            expected = _reference_parts(w, a, degree, kind)
            assert [_printed(p) for p in parts] == [_printed(p) for p in expected], \
                (w, a, degree, kind)
            if a:
                info = alpha_invariant(w, a)
                alpha = _inner_sums(w, a)[-1].constant_value()
                assert (info.alpha, info.chi) == (alpha, Fraction(prod(a), prod(w)) * alpha)
                assert type(info.alpha) is type(info.chi) is Fraction
            done += 1


@pytest.mark.parametrize("n", range(1, 9))
def test_p_coefficients_are_the_symbolic_inner_sums(n):
    # the closed form against the symmetric-function route, k and a symbolic,
    # with a = m k substituted
    k, a = (MultiPoly.variable(v, ("k", "a")) for v in ("k", "a"))
    mk = MultiPoly(("m", "k"), {(1, 1): 1})
    inner = _inner_sums((1,) * n + (k,), (a,))
    closed = formulas._p_coefficients(n)
    assert all(type(c) is int for t in closed for c in t.values())
    assert [MultiPoly(("m", "k"), t) for t in closed] == [
        (-1) ** i * inner[i].substitute({"a": mk}) for i in reversed(range(n))]
    if n == 1:  # P(1, k) has no hypersurface count: m < n fails
        return
    # and against the count itself at integer (k, a, d): the parts of
    # wci_sing_count_parts, highest power first, are the coefficients at
    # m = a/k times a/k, also where k does not divide a
    rng = random.Random(2300 + n)
    cases = [(3, 5, 2), (2, 7, -3)] + [
        (rng.randint(1, 9), rng.randint(1, 30), rng.randint(-6, 12)) for _ in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every P(1^n, k), n >= 2, is well formed
        for kk, aa, d in cases:
            parts = wci_sing_count_parts((1,) * n + (kk,), (aa,), d, "distribution")
            values = [_p_terms_at(t, Fraction(aa, kk), kk) for t in closed]
            assert [p.constant_value() * kk / aa for p in parts] \
                == [values[i] * d ** i for i in reversed(range(n))], (kk, aa, d)


def test_p_family_searches_start_cold_without_symbolic_algebra(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (catalog, chow, formulas):  # every functools cache
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
    for owner, name in ((chow, "elementary_series"), (MultiPoly, "__mul__"),
                        (MultiPoly, "__rmul__"), (MultiPoly, "__init__")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    # no MultiPoly is built, not even from the package's own arithmetic
    monkeypatch.setattr(MultiPoly, "_trusted",
                        staticmethod(spy("_trusted", MultiPoly._trusted)))
    for family, solutions in P_FAMILY_SOLUTIONS.items():
        sols = regular_search(family, 95)
        assert len(sols) == (0 if family == "p111k" else 96)
        assert formulas._p_family_solution_set(family) == solutions
    assert calls == []


# the solution set of each p-family: (m, first k, last k or None, roots d)
P_FAMILY_SOLUTIONS = {
    "p111k": (),
    "p1111k": ((1, 1, None, (2,)), (2, 1, 1, (1,))),
}
# the k-cutoff of each row m below the family's cutoff; None for a line
P_FAMILY_ROW_CUTOFFS = {"p111k": [None, 3, 2], "p1111k": [None, 4, 2, 2]}


def _scan_roots(c, hi):
    """The d in [1, hi] where sum_i c[i] * d^i vanishes, by brute scan."""
    return [d for d in range(1, hi + 1)
            if sum(ci * d ** i for i, ci in enumerate(c)) == 0]


def _p_family_values(family, m, k):
    """The integer d-coefficients, lowest power first, of the family's
    hand-typed polynomial at a = m k."""
    poly = _hand_typed(family, k, m * k, MultiPoly.variable("d", ("d",)))
    values = [poly.coefficient((i,)) for i in range(formulas._P_FAMILIES[family][0])]
    assert all(c.denominator == 1 for c in values)
    return tuple(c.numerator for c in values)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_solution_set_is_exact(family):
    solutions = formulas._p_family_solution_set(family)
    assert solutions == P_FAMILY_SOLUTIONS[family]
    assert formulas._p_family_solution_set(family) is solutions
    for m, first, last, roots in solutions:
        for k in range(first, 40 if last is None else last + 1):
            assert _scan_roots(_p_family_values(family, m, k), 49) == list(roots)


def test_p_family_solution_set_rejects_other_families():
    with pytest.raises(ValueError, match="unknown search family 'scroll'"):
        formulas._p_family_solution_set("scroll")


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_scan_leaves_out_only_pairs_without_roots(family):
    k0 = 2 if family == "p111k" else 1
    roots = {(k, a): _scan_roots(_p_family_values(family, a // k, k), 100)
             for k in range(k0, 101) for a in range(k, 101, k)}
    for bound in range(1, 101):
        expected = sorted(
            (a, d, k) for k, a in roots if a <= bound
            for d in roots[k, a] if d <= bound)
        assert [(s.family, s.params, s.annotation)
                for s in regular_search(family, bound)] == [
            (family, p, "excluded-by-cohomology"
             if (family, p) == ("p1111k", (2, 1, 1)) else "accepted")
            for p in expected]


@pytest.mark.parametrize("family, cutoff", [("p111k", 4), ("p1111k", 5)])
def test_p_family_cutoff_is_one_signed_beyond_it(family, cutoff):
    terms = formulas._p_coefficients(formulas._P_FAMILIES[family][0])
    assert formulas._one_sign_cutoff(terms) == cutoff
    # certified from k = 1: every pair a = m k <= 400 with m >= cutoff
    for m in range(cutoff, 401):
        for k in range(1, 400 // m + 1):
            c = _p_family_values(family, m, k)
            assert any(c) and (min(c) >= 0 or max(c) <= 0), (m, k, c)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_row_cutoffs_are_one_signed_beyond_them(family):
    terms = formulas._p_coefficients(formulas._P_FAMILIES[family][0])
    cutoffs = P_FAMILY_ROW_CUTOFFS[family]
    assert len(cutoffs) + 1 == formulas._one_sign_cutoff(terms)
    for m, cutoff in enumerate(cutoffs, start=1):
        rows = formulas._row_polynomials(terms, m)
        line = not any(c for row in rows for c in row[1:])
        assert line == (cutoff is None)
        if line:  # one polynomial at every k
            assert len({_p_family_values(family, m, k) for k in range(1, 60)}) == 1
            continue
        assert formulas._least_shift([[row] for row in rows]) == cutoff
        # the pair just below the cutoff is not one-signed and nonzero
        c = _p_family_values(family, m, cutoff - 1)
        assert not (any(c) and (min(c) >= 0 or max(c) <= 0)), (m, c)
        for k in range(cutoff, 400 // m + 1):
            c = _p_family_values(family, m, k)
            assert any(c) and (min(c) >= 0 or max(c) <= 0), (m, k, c)


def _cumulative_shift_cutoff(terms):
    """`formulas._one_sign_cutoff` without the corner screen: every
    polynomial is shifted by 1 in m at every candidate m0, and each m0 gets
    the full sign test.  The reference for the screened form."""
    polys = []  # per polynomial, per power of k - 1: its coefficients in m
    for t in terms:
        dm = 1 + max((em for em, _ in t), default=0)
        dk = 1 + max((ek for _, ek in t), default=0)
        by_m = [formulas._taylor_shift([t.get((em, ek), 0) for ek in range(dk)], 1)
                for em in range(dm)]
        polys.append([[col[ek] for col in by_m] for ek in range(dk)])
    for m0 in range(1, formulas._CUTOFF_TRIES + 1):
        polys = [[formulas._taylor_shift(row, 1) for row in p] for p in polys]
        values = [c for p in polys for row in p for c in row if c]
        if any(p[0][0] for p in polys) and (min(values) > 0 or max(values) < 0):
            return m0
    return None


def _times(t, em, ek, r):
    """The integer terms of t times (m^em k^ek - r)."""
    out = {}
    for (a, b), c in t.items():
        for key, x in (((a + em, b + ek), c), ((a, b), -r * c)):
            out[key] = out.get(key, 0) + x
    return {key: c for key, c in out.items() if c}


def _random_terms(rng):
    """1-4 random polynomials as integer terms {(em, ek): c} in (m, k).
    Some are multiplied by (m - r) with r up to 20, which moves a sign
    change out to m = r, past `_CUTOFF_TRIES` for r > 16; in some sets
    every one is multiplied by (k - 1), so that every constant term
    vanishes at every m0."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        t = {}
        for _ in range(rng.randint(0, 5)):
            key = rng.randint(0, 3), rng.randint(0, 3)
            t[key] = t.get(key, 0) + rng.randint(-9, 9)
        if rng.random() < 0.4:
            t = _times(t, 1, 0, rng.randint(1, 20))
        terms.append(t)
    if rng.random() < 0.1:
        terms = [_times(t, 0, 1, 1) for t in terms]
    return terms


def test_screened_cutoff_matches_the_cumulative_shift():
    rng = random.Random(20261020)
    cutoffs, corners_vanish = set(), 0
    for _ in range(1500):
        terms = _random_terms(rng)
        cutoff = formulas._one_sign_cutoff(terms)
        assert cutoff == _cumulative_shift_cutoff(terms), terms
        cutoffs.add(cutoff)
        # nonzero polynomials that all vanish at k = 1, at every m
        at_k_one = [sum(c for (e, _), c in t.items() if e == em)
                    for t in terms for em in range(5)]
        corners_vanish += any(terms) and not any(at_k_one)
        # a row at fixed m is a set of polynomials in k alone
        rows = formulas._row_polynomials(terms, rng.randint(1, 6))
        assert formulas._least_shift([[row] for row in rows]) == \
            _cumulative_shift_cutoff([{(ek, 0): c for ek, c in enumerate(row) if c}
                                      for row in rows]), rows
    assert corners_vanish
    assert cutoffs == {None, *range(1, formulas._CUTOFF_TRIES + 1)}


def test_each_certificate_shifts_once_per_proof(monkeypatch):
    shifted = []

    def spy(coeffs, s, shift=formulas._taylor_shift):
        shifted.append(s)
        return shift(coeffs, s)

    monkeypatch.setattr(formulas, "_taylor_shift", spy)
    counts = {}
    for family, solutions in P_FAMILY_SOLUTIONS.items():
        formulas._p_family_solution_set.cache_clear()
        shifted.clear()
        assert formulas._p_family_solution_set(family) == solutions
        counts[family] = len(shifted)
    # n polynomials, of degrees 0..n-1 in each of m and k: one shift to
    # k = 1 + x per power of m, one to m = M + y per power of k, and one
    # per polynomial of each row that is not a line; shifting at every
    # candidate cutoff takes 57 and 122
    assert counts == {"p111k": 6 + 6 + 2 * 3, "p1111k": 10 + 10 + 3 * 4}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=6), st.integers(-6, 6))
def test_taylor_shift_is_the_substitution(coeffs, s):
    x = MultiPoly.variable("x", ("x",))
    poly = MultiPoly(("x",), {(i,): c for i, c in enumerate(coeffs)})
    shifted = formulas._taylor_shift(coeffs, s)
    assert len(shifted) == len(coeffs)
    assert MultiPoly(("x",), {(i,): c for i, c in enumerate(shifted)}) \
        == poly.substitute({"x": x + s})


@pytest.mark.parametrize("build, cutoff", [
    # k - 3 < 0 < 1 at k = 1 for every m, so no m0 is one-signed
    (lambda k, a: (k - 3, a - 2 * k, k ** 0), None),
    # every m = 1 pair is all zero: one-signed at m >= 1, but m0 = 1 has no
    # nonzero constant term to prove the pairs nonzero
    (lambda k, a: (a - k, 2 * (a - k)), 2),
    # rows m = 1, 2 are not lines; the pair (m, k) = (2, 1) is all zero
    (lambda k, a: (a - 2, k - 1), 3),
])
def test_p_family_scan_matches_a_per_pair_enumeration(monkeypatch, build, cutoff):
    # the fake d-coefficients as integer terms in (m, k), with a = m k
    k, a = MultiPoly.variable("k", ("m", "k")), MultiPoly(("m", "k"), {(1, 1): 1})
    terms = [{e: c.numerator for e, c in p.terms.items()} for p in build(k, a)]
    monkeypatch.setattr(formulas, "_p_coefficients", lambda n: terms)
    assert formulas._one_sign_cutoff(terms) == cutoff
    if cutoff is None:  # a family without a certificate is refused
        with pytest.raises(ValueError, match="^search family 'p111k' has no one-sign cutoff"):
            formulas._p_family_solution_set.__wrapped__("p111k")
        return
    solutions = formulas._p_family_solution_set.__wrapped__("p111k")
    monkeypatch.setattr(formulas, "_p_family_solution_set", lambda family: solutions)
    # p111k searches from k = 2, p1111k from k = 1
    for family, k0 in (("p111k", 2), ("p1111k", 1)):
        for bound in range(1, 41):
            expected = []
            for kk in range(k0, bound + 1):
                for aa in range(kk, bound + 1, kk):
                    c = list(build(kk, aa))
                    expected += [(aa, d, kk) for d in _scan_roots(c, bound)]
            assert [s.params for s in regular_search(family, bound)] == sorted(expected)


def test_p_family_search_solves_each_polynomial_once(monkeypatch):
    seen = []

    def spy(coeffs, solve=formulas._roots):
        seen.append(coeffs)
        return solve(coeffs)

    monkeypatch.setattr(formulas, "_roots", spy)
    formulas._p_family_solution_set.cache_clear()
    for family, cutoffs in P_FAMILY_ROW_CUTOFFS.items():
        seen.clear()
        sols = regular_search(family, 95)
        # the line row's polynomial, then each pair below its row's cutoff
        pairs = [(m, k) for m, cutoff in enumerate(cutoffs, start=1)
                 for k in range(1, 2 if cutoff is None else cutoff)]
        assert len(seen) == len(set(seen))
        assert set(seen) == {_p_family_values(family, m, k) for m, k in pairs}
        assert len(sols) == (0 if family == "p111k" else 96)
    seen.clear()
    for bound in (1, 2, 95, 1000, 10 ** 6):
        for family in P_FAMILY_ROW_CUTOFFS:
            regular_search(family, bound)
    assert seen == []


def _times_linear(c, root_num, root_den=1):
    """c times (root_den*x - root_num), coefficients lowest power first."""
    out = [0] * (len(c) + 1)
    for i, x in enumerate(c):
        out[i] -= root_num * x
        out[i + 1] += root_den * x
    return out


@st.composite
def planted_polys(draw):
    """A product of planted linear factors, lowest power first: integer
    roots with repeats and neighbours or half-integer ones, sometimes
    shifted by a constant, sometimes padded with zero top coefficients."""
    roots = draw(st.lists(st.integers(-12, 12), max_size=5))
    if roots and len(roots) < 5:
        extra = draw(st.sampled_from(("none", "repeat", "adjacent")))
        if extra == "repeat":
            roots.append(roots[0])
        elif extra == "adjacent":
            roots.append(roots[0] + 1)
    c = [draw(st.integers(-4, 4).filter(bool))]
    for r in roots:
        if draw(st.integers(0, 4)) == 0:
            c = _times_linear(c, 2 * r + 1, 2)   # root r + 1/2
        else:
            c = _times_linear(c, r)
    if draw(st.booleans()):
        c[0] += draw(st.integers(-30, 30))
    return tuple(c + [0] * draw(st.integers(0, 2)))


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(planted_polys())
def test_roots_match_a_scan_past_the_cauchy_bound(c):
    lead = next(x for x in reversed(c) if x)
    cauchy = 1 + max(map(abs, c)) // abs(lead)
    assert formulas._roots(c) == tuple(_scan_roots(c, 3 * cauchy + 50))


def _scroll_grid(a, bound):
    model = catalog.scroll(*a)
    return [(d1, d2) for d1 in range(-bound, bound + 1)
            for d2 in range(-bound, bound + 1)
            if foliation_sing_count(model, (d1, d2)) == 0]


@pytest.mark.parametrize("a, bound", [
    # the count on the one-twist scroll F(0) is d1 + 2: the whole d1 = -2
    # slice solves, and n <= 2 is outside `scroll_closed_form`
    ((0,), 4), ((1,), 4), ((-2,), 3), ((3,), 5),
    ((0, 0), 4), ((1, 1), 4), ((2, -1), 3), ((-2, 3), 3),
    ((1, 1, 1), 4), ((2, 1, 3), 3), ((0, 0, 0), 3), ((-2, 3, -1), 3),
    ((1, 1, 1, 1), 2), ((1, 2, 1, 4), 3), ((-1, 0, 2, 3), 2),
    ((0, 0, 0, 0, 0), 3), ((2, -1, 0, 3, 2), 3), ((4, 0, -1, 2, 0, -3), 3),
    ((-2, -2, 0, -1, -1, 0), 2),
])
def test_scroll_search_matches_the_grid(a, bound):
    sols = regular_search("scroll", bound, scroll_a=a)
    assert all(s.family == "scroll" and s.annotation == "accepted" for s in sols)
    assert [s.params for s in sols] == _scroll_grid(a, bound)


def test_scroll_search_matches_the_grid_beyond_the_certificate():
    # at B = 6 the grid also tries d2 = -6..-4 and 2..6, which the
    # certificate rules out for n >= 2 without a look
    rng = random.Random(53)
    for _ in range(30):
        a = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
        assert [s.params for s in regular_search("scroll", 6, scroll_a=a)] \
            == _scroll_grid(a, 6), a


def test_scroll_candidates_are_the_coefficients_in_closed_form():
    for n in range(2, 41):
        candidates = formulas._scroll_candidates(n)
        assert [d2 for d2, *_ in candidates] == [-3, -2, 0, 1]
        for s in range(-50, 51):
            assert [(s * alpha + beta, gamma) for _, alpha, beta, gamma in candidates] \
                == [formulas._scroll_coefficients(n, s, d2) for d2, *_ in candidates], (n, s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 6), min_size=1, max_size=8),
       st.integers(-6, 6), st.integers(-6, 6))
@example([3], -2, 4)  # n = 1 and 2 are outside `scroll_closed_form`
@example([1, -2], 5, -3)
def test_scroll_coefficients_are_the_tensor_count(a, d1, d2):
    c0, c1 = formulas._scroll_coefficients(len(a), sum(a), d2)
    assert c1 * d1 + c0 == foliation_sing_count(catalog.scroll(*a), (d1, d2))


def test_scroll_search_runs_no_count(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (catalog, chow, formulas):  # every functools cache
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
    for owner, name in ((catalog, "scroll"), (formulas, "foliation_sing_count"),
                        (chow, "integrate_count")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    for a in [(1, 1, 1), (0, 2, 1), (-2, 3, 4), (1, -2), (3,)]:
        sols = regular_search("scroll", 10, scroll_a=a)
        assert sols and all(s.family == "scroll" for s in sols)
    assert calls == []


def test_searches_at_large_bounds():
    assert regular_search("p111k", 1000) == []
    sols = regular_search("p1111k", 1000)
    assert {(s.params, s.annotation) for s in sols} \
        == {((k, 2, k), "accepted") for k in range(1, 1001)} \
        | {((2, 1, 1), "excluded-by-cohomology")}
    for bound in (1000, 10 ** 18):
        assert [s.params for s in regular_search("scroll", bound, scroll_a=(1, 1, 1))] \
            == [(-2, 0)]


def test_one_twist_scroll_search_is_its_line_cut_by_division():
    # c1 = 1, so the solutions are d1 = -(s d2 + 2) with |d1|, |d2| <= B
    for s in range(-7, 8):
        for bound in range(1, 13):
            line = [(-(s * d2 + 2), d2) for d2 in range(-bound, bound + 1)
                    if abs(s * d2 + 2) <= bound]
            assert [x.params for x in regular_search("scroll", bound, scroll_a=(s,))] \
                == sorted(line)
    s = 10 ** 19
    for sign in (1, -1):
        assert [x.params for x in regular_search("scroll", 10 * s, scroll_a=(sign * s,))] \
            == sorted((-(s * v + 2), sign * v) for v in range(-10, 10))


def test_p_family_searches_at_bounds_far_beyond_a_scan():
    # the solution sets are certified once, so the bound only filters them
    assert regular_search("p111k", 10 ** 9) == []
    sols = regular_search("p1111k", 10 ** 5)
    assert len(sols) == 10 ** 5 + 1
    assert sols[-1].params == (10 ** 5, 2, 10 ** 5)


def test_searches_refuse_more_solutions_than_they_return(monkeypatch):
    # counted from the ranges of the solution set, before any is built
    monkeypatch.setattr(formulas, "_MAX_SOLUTIONS", 21)
    # p1111k holds the line (k, 2, k), k <= B, and the point (2, 1, 1);
    # the one-twist scroll (1,) the line d1 = -(d2 + 2), 2B - 1 points
    assert len(regular_search("p1111k", 20)) == 21
    assert len(regular_search("scroll", 11, scroll_a=(1,))) == 21
    assert len(regular_search("scroll", 10 ** 30, scroll_a=(1, 1, 1))) == 1

    def built(*args):
        raise AssertionError("a solution was built past the limit")

    monkeypatch.setattr(formulas, "SearchSolution", built)
    for family, bound, twists, count in (("p1111k", 21, None, 22),
                                         ("scroll", 12, (1,), 23),
                                         ("scroll", 10 ** 20, (0,), 2 * 10 ** 20 + 1)):
        with pytest.raises(ValueError, match=rf"^{family} search at bound {bound} has "
                           rf"{count} solutions, more than the 21 a search returns$"):
            regular_search(family, bound, scroll_a=twists)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_search_rejects_twists(family):
    with pytest.raises(ValueError, match="scroll family only"):
        regular_search(family, 5, scroll_a=(1, 1, 1))


def test_search_polynomials_match_the_distribution_counts():
    # the enumerated quadratic and cubic are the hypersurface distribution
    # counts scaled by k/a, so their zero sets agree with the formulas
    rng = random.Random(37)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotWellFormedWarning)
        for _ in range(50):
            a = rng.randint(1, 12)
            d = rng.randint(1, 12)
            k = rng.randint(1, 12)
            quadratic = (d * d - (3 + k - a) * d
                         + (3 + 3 * k) - (3 + k) * a + a * a)
            count = wci_sing_count((1, 1, 1, k), (a,), d, kind="distribution")
            assert count * Fraction(k, a) == quadratic
            cubic = (d ** 3 - (4 + k - a) * d ** 2
                     + (6 + 4 * k - (4 + k) * a + a * a) * d
                     - (4 + 6 * k - (6 + 4 * k) * a + (4 + k) * a * a - a ** 3))
            count = wci_sing_count((1, 1, 1, 1, k), (a,), d, kind="distribution")
            assert count * Fraction(k, a) == cubic
