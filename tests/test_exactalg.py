"""Ring axioms, canonical printing, and exactness of the polynomial engine."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricsing.errors import AlignmentError, ModelFormatError
from toricsing.exactalg import MultiPoly, aligned, poly_sum
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
    assert MultiPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    assert MultiPoly.const(0, ("a",)).is_zero
    # a str is no coefficient, though Fraction reads "3/4"; None is none either
    for value in ("3/4", None):
        with pytest.raises(ValueError, match="is not an int or a Fraction$"):
            MultiPoly.const(value, ("a",))


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


def test_bools_compare_unequal_to_polynomials():
    # each of these raised "coefficient True is a bool, not exact data"
    u = MultiPoly.variable("u", ("u",))
    for p in (MultiPoly.const(1), MultiPoly.const(0), u):
        for flag in (True, False):
            assert not p == flag and not flag == p
            assert p != flag and flag != p
        assert p not in [True, False]
    assert MultiPoly.const(1) == 1 and MultiPoly.const(0) == 0


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_no_powers_or_points(flag):
    # x ** True used to return x, and evaluating at x = True gave 1
    x = MultiPoly.variable("x", ("x",))
    with pytest.raises(ValueError, match=f"^polynomial power must be a natural number: {flag}$"):
        x ** flag
    with pytest.raises(ValueError, match=f"^value {flag} of x is not an int or a Fraction$"):
        (x + 1).evaluate({"x": flag})
    assert (x + 1).evaluate({"x": int(flag)}) == 1 + flag


def test_operands_that_are_no_scalars_raise_type_errors():
    p = parse_polynomial("u^2 - 3*v", ("u", "v"))
    for call in (lambda: p + "x", lambda: p - None, lambda: "x" - p, lambda: p * object()):
        with pytest.raises(TypeError):
            call()


def test_scalars_subtract_polynomials_from_the_left():
    p = parse_polynomial("u^2 - 3*v", ("u", "v"))
    assert 3 - p == -(p - 3)
    assert Fraction(1, 2) - p == parse_polynomial("-u^2 + 3*v + 1/2", ("u", "v"))
    assert (Fraction(1, 2) - p).canonical_string() == "-u^2 + 3*v + 1/2"


def test_operators_leave_other_operands_to_python():
    # the argument rule refuses a bad constructor argument, but an operator
    # given a value that is no scalar returns NotImplemented, so Python
    # raises its own TypeError or tries the other operand
    x = MultiPoly.variable("x", ("x",))
    for other in (None, "a", 1.5, object()):
        for op in (x.__add__, x.__sub__, x.__rsub__, x.__mul__):
            assert op(other) is NotImplemented
    with pytest.raises(TypeError):
        x + None
