"""Counting formulas, inequality verdicts, and bounded searches."""

import dataclasses
import random
import re
import warnings
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, chow, formulas
from toricsing.errors import (
    NotWellFormedWarning, OrbifoldHypothesisWarning, ToricError,
)
from toricsing.exactalg import MultiPoly, aligned, integer_roots, poly_sum
from toricsing.formulas import (
    alpha_invariant, baum_bott_sum, ci_euler, ci_sing_count,
    complement_euler, complement_sing_count, foliation_sing_count,
    gcd_obstruction, general_type_index, hypersurface_euler, multidegree,
    poincare_check, regular_search, restricted_sing_count,
    scroll_closed_form, symbolic_degree, wci_sing_count, wci_sing_count_parts,
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


@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2)])
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
}


@pytest.mark.parametrize("route", sorted(FLOAT_DEGREE_ROUTES))
def test_float_degrees_are_not_exact_data(route):
    call = FLOAT_DEGREE_ROUTES[route]
    assert call(Fraction(1, 2)) is not None  # exact rationals are fine
    for bad in (0.1, 0.5, 2.0):
        with pytest.raises(ValueError, match=rf"^coefficient {bad!r} is a float"):
            call(bad)


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


@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2)])
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
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.annotation = "excluded-by-cohomology"


def test_search_results_are_sorted():
    sols = regular_search("p1111k", 12)
    assert [s.params for s in sols] == sorted(s.params for s in sols)


def test_search_unknown_family():
    with pytest.raises(ValueError):
        regular_search("hirzebruch", 5)


@pytest.mark.parametrize("bound", [0, -3, 2.5, 3.0, Fraction(3), "3"])
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


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_coefficients_are_the_hand_typed_polynomials(family):
    table = ("k", "a", "d")
    k, a, d = (MultiPoly.variable(v, table) for v in table)
    compiled = formulas._p_family_coefficients(family)
    rebuilt = poly_sum(c.extended(table) * d ** p for p, c in enumerate(compiled))
    assert rebuilt == _hand_typed(family, k, a, d)
    assert formulas._p_family_coefficients(family) is compiled


# the solution set of each p-family: (m, first k, last k or None, roots d)
P_FAMILY_SOLUTIONS = {
    "p111k": (),
    "p1111k": ((1, 1, None, (2,)), (2, 1, 1, (1,))),
}
# the k-cutoff of each row m below the family's cutoff; None for a line
P_FAMILY_ROW_CUTOFFS = {"p111k": [None, 3, 2], "p1111k": [None, 4, 2, 2]}


def _p_family_values(family, m, k):
    """The integer d-coefficients of the family's polynomial at a = m k."""
    values = [p.evaluate({"k": k, "a": m * k})
              for p in formulas._p_family_coefficients(family)]
    assert all(c.denominator == 1 for c in values)
    return tuple(c.numerator for c in values)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_solution_set_is_exact(family):
    solutions = formulas._p_family_solution_set(family)
    assert solutions == P_FAMILY_SOLUTIONS[family]
    assert formulas._p_family_solution_set(family) is solutions
    for m, first, last, roots in solutions:
        for k in range(first, 40 if last is None else last + 1):
            c = _p_family_values(family, m, k)
            assert [d for d in range(1, 50)
                    if sum(ci * d ** i for i, ci in enumerate(c)) == 0] \
                == list(roots)


def test_p_family_solution_set_rejects_non_integral_coefficients(monkeypatch):
    k, a = (MultiPoly.variable(v, ("k", "a")) for v in ("k", "a"))
    exact = formulas._p_family_coefficients("p111k")
    halved = (exact[0] + Fraction(1, 2) * k * k, *exact[1:])
    monkeypatch.setattr(formulas, "_p_family_coefficients", lambda family: halved)
    with pytest.raises(ValueError, match=re.escape("non-integer term 1/2 at k^2 a^0")):
        formulas._p_family_solution_set.__wrapped__("p111k")


def test_p_family_solution_set_rejects_other_families():
    with pytest.raises(ValueError, match="unknown search family 'scroll'"):
        formulas._p_family_solution_set("scroll")


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_scan_leaves_out_only_pairs_without_roots(family):
    k0 = 2 if family == "p111k" else 1
    exact = {(k, a): _p_family_values(family, a // k, k)
             for k in range(k0, 101) for a in range(k, 101, k)}
    for bound in range(1, 101):
        expected = sorted(
            (a, d, k) for k, a in exact if a <= bound
            for d in integer_roots(exact[k, a], 1, bound))
        assert [(s.family, s.params, s.annotation)
                for s in regular_search(family, bound)] == [
            (family, p, "excluded-by-cohomology"
             if (family, p) == ("p1111k", (2, 1, 1)) else "accepted")
            for p in expected]


@pytest.mark.parametrize("family, cutoff", [("p111k", 4), ("p1111k", 5)])
def test_p_family_cutoff_is_one_signed_beyond_it(family, cutoff):
    compiled = formulas._p_family_coefficients(family)
    assert formulas._one_sign_cutoff(formulas._p_family_terms(family)) == cutoff
    # certified from k = 1: every pair a = m k <= 400 with m >= cutoff
    for m in range(cutoff, 401):
        for k in range(1, 400 // m + 1):
            c = [p.evaluate({"k": k, "a": m * k}) for p in compiled]
            assert any(c) and (min(c) >= 0 or max(c) <= 0), (m, k, c)


@pytest.mark.parametrize("family", ["p111k", "p1111k"])
def test_p_family_row_cutoffs_are_one_signed_beyond_them(family):
    terms = formulas._p_family_terms(family)
    cutoffs = P_FAMILY_ROW_CUTOFFS[family]
    assert len(cutoffs) + 1 == formulas._one_sign_cutoff(terms)
    for m, cutoff in enumerate(cutoffs, start=1):
        rows = formulas._row_polynomials(terms, m)
        line = all(ek == 0 for row in rows for ek in row)
        assert line == (cutoff is None)
        if line:  # one polynomial at every k
            assert len({_p_family_values(family, m, k) for k in range(1, 60)}) == 1
            continue
        assert formulas._one_sign_cutoff(
            [{(ek, 0): c for ek, c in row.items()} for row in rows]) == cutoff
        # the pair just below the cutoff is not one-signed and nonzero
        c = _p_family_values(family, m, cutoff - 1)
        assert not (any(c) and (min(c) >= 0 or max(c) <= 0)), (m, c)
        for k in range(cutoff, 400 // m + 1):
            c = _p_family_values(family, m, k)
            assert any(c) and (min(c) >= 0 or max(c) <= 0), (m, k, c)


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
    k, a = (MultiPoly.variable(v, ("k", "a")) for v in ("k", "a"))
    polys = build(k, a)
    monkeypatch.setattr(formulas, "_p_family_coefficients", lambda family: polys)
    assert formulas._one_sign_cutoff(formulas._p_family_terms("p111k")) == cutoff
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
                    c = [int(p.evaluate({"k": kk, "a": aa})) for p in polys]
                    expected += [(aa, d, kk) for d in integer_roots(c, 1, bound)]
            assert [s.params for s in regular_search(family, bound)] == sorted(expected)


def test_p_family_search_solves_each_polynomial_once(monkeypatch):
    seen = []

    def spy(coeffs, lo, hi):
        seen.append(tuple(coeffs))
        return integer_roots(coeffs, lo, hi)

    monkeypatch.setattr(formulas, "integer_roots", spy)
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
])
def test_scroll_search_matches_the_grid(a, bound):
    sols = regular_search("scroll", bound, scroll_a=a)
    assert all(s.family == "scroll" and s.annotation == "accepted" for s in sols)
    assert [s.params for s in sols] == _scroll_grid(a, bound)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 6), min_size=1, max_size=6),
       st.integers(-6, 6), st.integers(-6, 6))
def test_scroll_evaluator_is_the_tensor_count(a, d1, d2):
    evaluate = formulas._scroll_evaluator(len(a))
    value = sum(c * d1 ** i for i, c in enumerate(evaluate(sum(a), d2)))
    assert value == foliation_sing_count(catalog.scroll(*a), (d1, d2))
    code = evaluate.__code__
    assert code.co_varnames[:code.co_argcount] == ("s", "d2")
    assert code.co_names == ()


def test_scroll_searches_share_one_count_per_twist_count(monkeypatch):
    calls = []

    def spy(model, degree):
        calls.append(model.name)
        return count(model, degree)

    count = formulas.foliation_sing_count
    monkeypatch.setattr(formulas, "foliation_sing_count", spy)
    formulas._scroll_evaluator.cache_clear()
    for a in [(1, 1, 1), (0, 2, 1), (-2, 3, 4)]:
        sols = regular_search("scroll", 10, scroll_a=a)
        assert [s.params for s in sols] == [(-2, 0)]
    assert len(calls) <= 2


def test_searches_at_large_bounds():
    assert regular_search("p111k", 1000) == []
    sols = regular_search("p1111k", 1000)
    assert {(s.params, s.annotation) for s in sols} \
        == {((k, 2, k), "accepted") for k in range(1, 1001)} \
        | {((2, 1, 1), "excluded-by-cohomology")}
    assert [s.params for s in regular_search("scroll", 1000, scroll_a=(1, 1, 1))] \
        == [(-2, 0)]


def test_p_family_searches_at_bounds_far_beyond_a_scan():
    # the solution sets are certified once, so the bound only filters them
    assert regular_search("p111k", 10 ** 9) == []
    sols = regular_search("p1111k", 10 ** 5)
    assert len(sols) == 10 ** 5 + 1
    assert sols[-1].params == (10 ** 5, 2, 10 ** 5)


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
