"""Ring axioms, canonical printing, and exactness of the polynomial engine."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricsing.errors import AlignmentError, ModelFormatError
from toricsing.exactalg import MultiPoly, aligned, integer_roots, poly_sum
from toricsing.catalog import parse_polynomial

VARS = ("a", "b", "c", "x", "y")


def coeffs():
    return st.builds(Fraction,
                     st.integers(min_value=-50, max_value=50),
                     st.integers(min_value=1, max_value=12))


def exponents(nvars):
    return st.tuples(*([st.integers(min_value=0, max_value=4)] * nvars))


@st.composite
def polys(draw, max_vars=5):
    nvars = draw(st.integers(min_value=0, max_value=max_vars))
    table = VARS[:nvars]
    terms = draw(st.dictionaries(exponents(nvars), coeffs(), max_size=6))
    return MultiPoly(table, terms)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    p, q, r = aligned(p, q, r)
    assert ((p + q) + r).terms == (p + (q + r)).terms
    assert (p * q).terms == (q * p).terms
    assert (p * (q + r)).terms == (p * q + p * r).terms


@settings(max_examples=200, deadline=None)
@given(polys())
def test_canonical_string_round_trips(p):
    if not p.vars:
        return
    text = p.canonical_string()
    assert parse_polynomial(text, p.vars) == p


# the parser's token alphabet: names on and off the table, integers,
# rationals (one with a zero denominator), operators, spaces, a bad character
TOKENS = st.sampled_from(["a", "b", "x", "q", "0", "2", "17", "3/4", "1/0",
                          "*", "^", "+", "-", " ", "@"])


@settings(max_examples=500, deadline=None)
@given(st.lists(TOKENS, max_size=12).map("".join))
def test_parse_polynomial_ends_in_a_value_or_a_format_error(text):
    try:
        parse_polynomial(text, ("a", "b", "x"))
    except ModelFormatError:
        pass


def test_rational_exactness():
    for num, den in [(3, 7), (-10, 4), (123456789, 987654321)]:
        q = Fraction(num, den)
        assert q * (1 / q) == 1
    # lowest terms and positive denominator come with fractions.Fraction
    assert Fraction(-4, -8) == Fraction(1, 2)


def test_binomial_expansion():
    table = ("d1", "d2")
    d1 = MultiPoly.variable("d1", table)
    d2 = MultiPoly.variable("d2", table)
    square = (d1 + d2) ** 2
    assert square == MultiPoly(table, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert square.canonical_string() == "d1^2 + 2*d1*d2 + d2^2"


def test_multiplication_by_zero_annihilates():
    table = ("x", "y")
    p = MultiPoly(table, {(2, 0): 3, (0, 1): Fraction(-1, 2)})
    assert (p * MultiPoly.zero(table)).is_zero
    assert (p * 0).is_zero


def test_difference_of_squares():
    table = ("H", "E")
    H = MultiPoly.variable("H", table)
    E = MultiPoly.variable("E", table)
    assert (H - E) * (H + E) == H ** 2 - E ** 2


def test_canonical_string_examples():
    table = ("d1", "d2")
    p = MultiPoly(table, {(2, 0): 1, (0, 2): -1, (1, 0): 3, (0, 1): 1, (0, 0): 4})
    assert p.canonical_string() == "d1^2 - d2^2 + 3*d1 + d2 + 4"
    assert MultiPoly.zero(table).canonical_string() == "0"
    assert MultiPoly.const(Fraction(5, 2)).canonical_string() == "5/2"


def test_canonical_string_unit_and_fraction_coefficients():
    table = ("x",)
    p = MultiPoly(table, {(1,): -1, (0,): Fraction(-5, 2)})
    assert p.canonical_string() == "-x - 5/2"
    q = MultiPoly(table, {(2,): Fraction(5, 2)})
    assert q.canonical_string() == "5/2*x^2"


def test_alignment_error_and_helper():
    p = MultiPoly(("x",), {(1,): 1})
    q = MultiPoly(("y",), {(1,): 1})
    with pytest.raises(AlignmentError):
        _ = p + q
    a, b = aligned(p, q)
    assert a.vars == b.vars == ("x", "y")
    assert (a + b).canonical_string() == "x + y"


def test_power_validation():
    p = MultiPoly(("x",), {(1,): 1})
    assert p ** 0 == 1
    with pytest.raises(ValueError):
        _ = p ** -1


def test_substitute_and_evaluate():
    table = ("x", "y")
    p = parse_polynomial("x^2*y - 3*y + 1", table)
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == Fraction(2 - Fraction(3, 2) + 1)
    u = MultiPoly(("u", "v"), {(1, 0): 1, (0, 1): 1})
    q = p.substitute({"x": u})
    assert q.evaluate({"y": 1, "u": 1, "v": 1}) == p.evaluate({"x": 2, "y": 1})
    with pytest.raises(ValueError, match=r"unassigned variables: \['y'\]"):
        p.evaluate({"x": 2})


@settings(max_examples=200, deadline=None)
@given(polys(), st.data())
def test_evaluate_matches_substitution(p, data):
    # evaluate converts each value once; substitute expands the polynomial
    scalars = st.one_of(st.integers(-6, 6), coeffs())
    point = {v: data.draw(scalars) for v in p.vars}
    assert p.evaluate(point) == p.substitute(point).constant_value()


def test_derivative():
    p = parse_polynomial("x^3 + x*y^2 - 4", ("x", "y"))
    assert p.derivative("x") == parse_polynomial("3*x^2 + y^2", ("x", "y"))
    assert p.derivative("y") == parse_polynomial("2*x*y", ("x", "y"))


def test_constant_value_guards():
    p = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(ValueError):
        p.constant_value()
    assert MultiPoly.zero(("x",)).constant_value() == 0


def test_poly_sum_aligns_tables():
    p = MultiPoly(("x",), {(1,): 1})
    q = MultiPoly(("y",), {(1,): 2})
    assert poly_sum([p, q, 5]).canonical_string() == "x + 2*y + 5"
    assert poly_sum([]) == 0


def test_immutability():
    p = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(AttributeError):
        p.vars = ("y",)


@pytest.mark.parametrize("build", [
    lambda t: MultiPoly.const(1, t),
    lambda t: MultiPoly.variable("a", t),
    lambda t: MultiPoly.zero(t),
])
def test_builtin_constructors_reject_duplicate_names(build):
    with pytest.raises(ValueError, match="duplicate variable names"):
        build(("a", "b", "a"))


def test_variable_rejects_an_unknown_name():
    with pytest.raises(ValueError):
        MultiPoly.variable("z", ("a", "b"))


def test_const_coerces_with_fraction():
    c = MultiPoly.const(2, ["a", "b"])
    assert c.vars == ("a", "b")
    assert type(c.terms[(0, 0)]) is Fraction
    assert c == MultiPoly(("a", "b"), {(0, 0): 2})
    assert MultiPoly.const("3/4").constant_value() == Fraction(3, 4)
    assert MultiPoly.const(0, ("a",)).is_zero
    with pytest.raises(TypeError):
        MultiPoly.const(None, ("a",))


# -- integer roots of univariate integer polynomials -------------------------

def _times_linear(c, root_num, root_den=1):
    """c times (root_den*x - root_num), coefficients lowest power first."""
    out = [0] * (len(c) + 1)
    for i, x in enumerate(c):
        out[i] -= root_num * x
        out[i + 1] += root_den * x
    return out


def _scan(c, lo, hi):
    return [x for x in range(lo, hi + 1)
            if sum(ci * x ** i for i, ci in enumerate(c)) == 0]


@st.composite
def planted_polys(draw):
    """(coefficients, lo, hi): a product of planted linear factors, integer
    roots with repeats and neighbours or half-integer ones, sometimes shifted
    by a constant, over a range whose ends often sit on a planted root."""
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
    ends = st.sampled_from(roots) if roots else st.integers(-15, 15)
    lo = draw(st.one_of(ends, st.integers(-15, 15)))
    hi = draw(st.one_of(ends, st.integers(lo - 1, lo + 25)))
    return c, lo, hi


@settings(max_examples=400, deadline=None)
@given(planted_polys())
def test_integer_roots_match_the_scan(case):
    c, lo, hi = case
    assert integer_roots(c, lo, hi) == _scan(c, lo, hi)


@settings(max_examples=400, deadline=None)
@given(st.integers(-40, 40).filter(bool), st.integers(-60, 60),
       st.one_of(st.just(0), st.integers(-500, 500)),
       st.integers(-70, 70), st.integers(-5, 70))
def test_linear_integer_roots_match_the_scan(c1, root, shift, lo, width):
    # c0 = -c1 * root plants an integer root; a shift mostly moves it off
    # the integers; a negative width makes lo > hi
    c = [-c1 * root + shift, c1]
    assert integer_roots(c, lo, lo + width) == _scan(c, lo, lo + width)


def test_integer_roots_edge_cases():
    assert integer_roots([], -3, 3) == [-3, -2, -1, 0, 1, 2, 3]
    assert integer_roots([0, 0, 0], 2, 4) == [2, 3, 4]
    assert integer_roots([0], 5, 4) == []
    assert integer_roots([7], -10, 10) == []
    assert integer_roots([-7, 0, 0], -10, 10) == []
    # roots at both ends, adjacent roots, a triple root
    c = _times_linear(_times_linear(_times_linear([1], -4), 5), 6)
    assert integer_roots(c, -4, 6) == [-4, 5, 6]
    assert integer_roots(c, -3, 5) == [5]
    triple = _times_linear(_times_linear(_times_linear([3], 2), 2), 2)
    assert integer_roots(triple, -100, 100) == [2]
    # a linear factor without an integer root
    assert integer_roots([1, 2], -5, 5) == []
    assert integer_roots([-9, 0, 1], -5, 5) == [-3, 3]
    # the sign screen: a root at 0 stays visible when the range reaches 0
    assert integer_roots([0, 1, 1], 0, 5) == [0]
    assert integer_roots([0, 1, 1], 1, 5) == []
    assert integer_roots([-2, 0, -1, -3], 1, 50) == []
    # -(x + 3)(x^2 + 1): one sign, but the range reaches its negative root
    assert integer_roots([-3, -1, -3, -1], -5, 5) == [-3]
    # one sign change: (x - 7)(x^2 + x + 3) has its root 7 in range
    assert integer_roots([-21, -4, -6, 1], 1, 50) == [7]
    assert integer_roots([-21, -4, -6, 1], 8, 50) == []


def test_integer_roots_are_exact_at_large_magnitudes():
    big = 10 ** 30
    c = _times_linear(_times_linear(_times_linear([1], big), big + 1), -big)
    assert integer_roots(c, -2 * big, 2 * big) == [-big, big, big + 1]
    c[0] += 1
    assert integer_roots(c, -2 * big, 2 * big) == []


@pytest.mark.parametrize("args, named", [
    # 1.0 * x rounds 10**17 + 1 to 10**17: two false roots, the true one missed
    (([-(10 ** 17 + 1), 1.0], 10 ** 17, 10 ** 17 + 2), "coefficient of x^1 is 1.0"),
    (([-9, 0, 1.0], -5, 5), "coefficient of x^2 is 1.0"),
    (([Fraction(1, 2), 1], -5, 5), "coefficient of x^0 is Fraction(1, 2)"),
    (([0], 1.5, 3), "lower bound is 1.5"),
    (([0], 1, "3"), "upper bound is '3'"),
    # a bool is an int to Python: [True, 1] used to give the root -1
    (([True, 1], -3, 3), "coefficient of x^0 is True"),
    (([0], False, 3), "lower bound is False"),
    (([0], 1, True), "upper bound is True"),
])
def test_integer_roots_reject_inexact_data(args, named):
    with pytest.raises(ValueError, match=f"^integer_roots {re.escape(named)}, not an int$"):
        integer_roots(*args)
    assert integer_roots([-(10 ** 17 + 1), 1], 10 ** 17, 10 ** 17 + 2) == [10 ** 17 + 1]


@pytest.mark.parametrize("build, value", [
    (lambda: MultiPoly.const(0.1), "0.1"),
    (lambda: MultiPoly.const(2.0, ("a",)), "2.0"),
    (lambda: MultiPoly(("x",), {(1,): 0.1}), "0.1"),
    (lambda: MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): 0.5}), "0.5"),
])
def test_floats_are_not_exact_coefficients(build, value):
    # Fraction(0.1) would store the float's binary expansion
    with pytest.raises(ValueError, match=rf"^coefficient {re.escape(value)} is a float"):
        build()


@pytest.mark.parametrize("build, value", [
    (lambda: MultiPoly.const(True), "True"),
    (lambda: MultiPoly.const(False, ("a",)), "False"),
    (lambda: MultiPoly(("x",), {(1,): True}), "True"),
    (lambda: MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): False}), "False"),
])
def test_bools_are_not_exact_coefficients(build, value):
    # Fraction(True) would be 1
    with pytest.raises(ValueError, match=f"^coefficient {value} is a bool, not exact data$"):
        build()


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_no_powers_or_points(flag):
    # x ** True used to return x, and evaluating at x = True gave 1
    x = MultiPoly.variable("x", ("x",))
    with pytest.raises(ValueError, match=f"^polynomial power must be a natural number: {flag}$"):
        x ** flag
    with pytest.raises(ValueError, match=f"^value {flag} of x is not an int or a Fraction$"):
        (x + 1).evaluate({"x": flag})
    assert (x + 1).evaluate({"x": int(flag)}) == 1 + flag
