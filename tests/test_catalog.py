"""Builtin models, the model file format, and parser round trips."""

import re
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, chow
from toricsing.catalog import (
    ModelSpec, builtin, from_spec_string, parse_model, parse_polynomial,
    serialize_model,
)
from toricsing.errors import ModelFormatError, NotWellFormedWarning


ALL_BUILTINS = [
    catalog.projective(2),
    catalog.projective(3),
    catalog.weighted(1, 1, 2),
    catalog.weighted(1, 2, 3),
    catalog.weighted(1, 1, 1, 4),
    catalog.multiprojective(1, 1),
    catalog.multiprojective(2, 1),
    catalog.scroll(1, 1),
    catalog.scroll(1, 2, 3),
    catalog.blowup_point(2),
    catalog.blowup_point(3),
    catalog.blowup_two_points_p3(),
    catalog.blowup_line_p3(),
]


def test_weighted_tensor_and_classes():
    m = catalog.weighted(1, 1, 1, 4)
    assert m.divisor_classes == ((1,), (1,), (1,), (4,))
    assert m.tensor == {(3,): Fraction(1, 4)}
    assert not m.smooth


def test_scroll_11_tensor():
    m = catalog.scroll(1, 1)
    assert m.tensor == {(0, 2): Fraction(2), (1, 1): Fraction(1)}
    assert m.divisor_classes == ((1, 0), (1, 0), (-1, 1), (-1, 1))


def test_blowup_point_tensor_sign():
    m2 = catalog.blowup_point(2)
    assert chow.integrate(m2, chow.class_element(m2, m2._units[1]) ** 2) == -1
    m3 = catalog.blowup_point(3)
    assert chow.integrate(m3, chow.class_element(m3, m3._units[1]) ** 3) == 1


def test_blowup_two_points_e_cubed_positive():
    # the sign convention E_i^3 = +1 is locked in deliberately
    m = catalog.blowup_two_points_p3()
    for k in (1, 2):
        assert chow.integrate(m, chow.class_element(m, m._units[k]) ** 3) == 1


def test_builtin_euler_numbers():
    expectations = [
        (catalog.blowup_point(2), 4),
        (catalog.blowup_two_points_p3(), 8),
        (catalog.blowup_line_p3(), 6),
        (catalog.scroll(1, 1), 4),
        (catalog.scroll(2, 5), 4),
    ]
    for m, chi in expectations:
        assert chow.integrate(m, chow.chern_class(m, m.dim)) == chi
    for w in [(1, 2, 3), (2, 3, 5), (1, 1, 7)]:
        m = catalog.weighted(*w)
        e2 = sum(w[i] * w[j] for i in range(3) for j in range(i + 1, 3))
        assert chow.integrate(m, chow.chern_class(m, 2)) == Fraction(e2, w[0] * w[1] * w[2])


def test_projective_equals_trivial_weighted_and_multiprojective():
    for n in (1, 2, 3, 5):
        p = catalog.projective(n)
        w = catalog.weighted(*([1] * (n + 1)))
        mp = catalog.multiprojective(n)
        for other in (w, mp):
            assert p.dim == other.dim and p.rank == other.rank
            assert p.divisor_classes == other.divisor_classes
            assert p.tensor == other.tensor


def test_weighted_gcd_validation():
    with pytest.raises(ModelFormatError):
        catalog.weighted(2, 4, 6)
    with pytest.raises(ModelFormatError):
        catalog.weighted(1, 0, 2)


@pytest.mark.parametrize("build", [
    lambda: from_spec_string("weighted:1,2,2,3"),
    lambda: builtin(ModelSpec("weighted", (1, 2, 2, 3))),
], ids=["from_spec_string", "builtin"])
def test_weight_warning_names_the_callers_line(build):
    # however deep the builder sits, the warning points here
    with pytest.warns(NotWellFormedWarning, match="singular locus is not isolated") as record:
        build()
    assert record[0].filename == __file__


def test_weighted_not_well_formed_warns():
    # the two weights 2 of P(1,2,2) share a factor
    with pytest.warns(NotWellFormedWarning, match=r"^weights \(1, 2, 2\) are not "
                      r"pairwise coprime; the space is not well formed$") as caught:
        catalog.weighted(1, 2, 2)
    assert caught[0].filename == __file__
    # every 3 of (1, 2, 2, 3) are coprime, so P(1,2,2,3) is well formed, but
    # the curve {z_0 = z_3 = 0} has isotropy mu_2
    with pytest.warns(NotWellFormedWarning, match=r"^weights \(1, 2, 2, 3\) are not "
                      r"pairwise coprime; the singular locus is not isolated$") as caught:
        catalog.weighted(1, 2, 2, 3)
    assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        catalog.weighted(1, 2, 3)  # pairwise coprime, no warning


def test_builtin_dispatch():
    assert builtin(ModelSpec("projective", (3,))) == catalog.projective(3)
    assert builtin(ModelSpec("blowup_line_p3")) == catalog.blowup_line_p3()
    assert from_spec_string("scroll:1,2") == catalog.scroll(1, 2)
    assert from_spec_string("blowup_point:2") == catalog.blowup_point(2)
    with pytest.raises(ModelFormatError):
        from_spec_string("klein_bottle:7")
    with pytest.raises(ModelFormatError, match="unknown model family"):
        builtin(ModelSpec("klein_bottle", (7,)))


@pytest.mark.parametrize("text, syntax", [
    ("projective", "projective:n"),
    ("projective:", "projective:n"),
    ("projective:abc", "projective:n"),
    ("projective:1,2", "projective:n"),
    ("blowup_point:", "blowup_point:n"),
    ("blowup_line_p3:2", "blowup_line_p3"),
    ("weighted", "weighted:w0,...,wn"),
    ("weighted:1,x", "weighted:w0,...,wn"),
    ("scroll:1,,2", "scroll:a1,...,an"),
])
def test_malformed_spec_names_the_family_syntax(text, syntax):
    with pytest.raises(ModelFormatError, match=re.escape(syntax)):
        from_spec_string(text)


@pytest.mark.parametrize("spec, syntax", [
    (ModelSpec("projective"), "projective:n"),
    (ModelSpec("projective", (2, 3)), "projective:n"),
    (ModelSpec("projective", ("3",)), "projective:n"),
    (ModelSpec("scroll"), "scroll:a1,...,an"),
    (ModelSpec("blowup_two_points_p3", (1,)), "blowup_two_points_p3"),
    (ModelSpec("projective", (True,)), "projective:n"),
])
def test_builtin_checks_arity_and_integer_parameters(spec, syntax):
    with pytest.raises(ModelFormatError, match=re.escape(syntax)):
        builtin(spec)


@pytest.mark.parametrize("family, build, entry", [
    ("projective", lambda: catalog.projective("3"), "'3'"),
    ("projective", lambda: catalog.projective(True), "True"),
    ("projective", lambda: catalog.projective(2.0), "2.0"),
    ("weighted", lambda: catalog.weighted(1.0, 2, 3), "1.0"),
    ("weighted", lambda: catalog.weighted(1, 2, Fraction(3)), "Fraction(3, 1)"),
    ("multiprojective", lambda: catalog.multiprojective(1, "2"), "'2'"),
    ("scroll", lambda: catalog.scroll("1", "1"), "'1'"),
    ("scroll", lambda: catalog.scroll(True, 2), "True"),
    ("scroll", lambda: catalog.scroll(1, 1.5), "1.5"),
    ("blowup_point", lambda: catalog.blowup_point(False), "False"),
])
def test_builders_name_a_parameter_that_is_not_an_int(family, build, entry):
    with pytest.raises(ValueError, match=f"^{family} parameter {re.escape(entry)} "
                                         "is not an int$"):
        build()


def test_round_trip_all_builtins():
    for m in ALL_BUILTINS:
        assert parse_model(serialize_model(m)) == m


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.name)
def test_model_files_carry_the_class_columns_as_radial_lines(m):
    text = serialize_model(m)
    radial = [line for line in text.splitlines() if line.startswith("radial ")]
    assert radial == ["radial " + " ".join(map(str, column))
                      for column in zip(*m.divisor_classes)]
    assert parse_model(text) == m
    # a changed entry is refused on its line, and so is one line too many
    lineno = text.splitlines().index(radial[-1]) + 1
    wrong = text.replace(radial[-1] + "\n", radial[-1] + "7\n")
    with pytest.raises(ModelFormatError, match=f"^line {lineno}: radial row "):
        parse_model(wrong)
    with pytest.raises(ModelFormatError, match=f"^line {lineno + 1}: radial line {m.rank + 1} "):
        parse_model(text + radial[-1] + "\n")
    # the lines are optional
    kept = "".join(line + "\n" for line in text.splitlines() if line not in radial)
    assert parse_model(kept) == m


def test_the_benchmark_model_file_parses():
    text = (Path(__file__).parent.parent / "perfbench" / "p123.model").read_text()
    assert "radial 1 2 3" in text.splitlines()
    assert parse_model(text) == catalog.weighted(1, 2, 3)


def test_round_trip_is_deterministic():
    m = catalog.blowup_line_p3()
    assert serialize_model(parse_model(serialize_model(m))) == serialize_model(m)


GEN_POOL = ("H", "F", "E", "G1", "G2", "x_1")
NAME_CHARS = "abXY09(),:+- \t"
# '#' starts a comment, and str.splitlines breaks lines at all the others
UNWRITABLE = "#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def toric_models(draw):
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gens = tuple(draw(st.lists(st.sampled_from(GEN_POOL), min_size=rank,
                               max_size=rank, unique=True)))
    keys = [k for k in product(range(dim + 1), repeat=rank) if sum(k) == dim]
    tensor = draw(st.dictionaries(st.sampled_from(keys), RATIONALS))
    ints = st.integers(-3, 3)
    # about half the names use characters serialize_model must reject
    name = draw(st.text(NAME_CHARS, min_size=1, max_size=12).filter(
        lambda s: s == s.strip()) | st.text(NAME_CHARS + UNWRITABLE, max_size=12))
    classes = draw(st.tuples(*[st.tuples(*[ints] * rank)] * (dim + rank)))
    return chow.ToricModel(name=name, dim=dim, rank=rank, gens=gens,
                           divisor_classes=classes, tensor=tensor,
                           smooth=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(toric_models())
def test_model_file_round_trip(model):
    name = model.name
    if not name or name != name.strip() or any(c in name for c in UNWRITABLE):
        with pytest.raises(ModelFormatError, match="cannot be written"):
            serialize_model(model)
        return
    text = serialize_model(model)
    parsed = parse_model(text)
    assert parsed == model
    assert serialize_model(parsed) == text


def test_parse_rational_tensor_entry():
    text = (
        "name P(1,2,3)\ndim 2\nrank 1\ngens H\nsmooth false\n"
        "divisor 1\ndivisor 2\ndivisor 3\n"
        "tensor 2 = 1/6\nradial 1 2 3\n")
    m = parse_model(text)
    assert m.tensor == {(2,): Fraction(1, 6)}
    assert m == catalog.weighted(1, 2, 3)


def test_parse_detects_bad_tensor_degree():
    text = (
        "name bad\ndim 2\nrank 1\ngens H\nsmooth true\n"
        "divisor 1\ndivisor 1\ndivisor 1\n"
        "tensor 3 = 1\n")
    with pytest.raises(ModelFormatError, match="total degree"):
        parse_model(text)


def test_parse_detects_duplicate_tensor_keys():
    text = (
        "name dup\ndim 2\nrank 1\ngens H\nsmooth true\n"
        "divisor 1\ndivisor 1\ndivisor 1\n"
        "tensor 2 = 1\ntensor 2 = 2\n")
    with pytest.raises(ModelFormatError, match="line 10"):
        parse_model(text)


def test_parse_reports_line_numbers():
    text = "name x\ndim two\n"
    with pytest.raises(ModelFormatError, match="line 2"):
        parse_model(text)


def test_parse_wrong_divisor_count():
    text = (
        "name bad\ndim 2\nrank 1\ngens H\nsmooth true\n"
        "divisor 1\ndivisor 1\n"
        "tensor 2 = 1\n")
    with pytest.raises(ModelFormatError, match="divisor"):
        parse_model(text)


def test_parse_requires_a_chern_route():
    # divisor classes are the one route; chern lines alone used to do
    text = "name bare\ndim 2\nrank 1\ngens H\nsmooth true\ntensor 2 = 1\n"
    for lines in ("", "chern 1 : 3*H\nchern 2 : 3*H^2\n"):
        with pytest.raises(ModelFormatError, match="^expected 3 divisor classes, got 0$"):
            parse_model(text + lines)


@pytest.mark.parametrize("chern", ["", "chern 1 : 2*H\n"],
                         ids=["without chern lines", "with a chern line"])
def test_parse_refuses_repeated_generator_names(chern):
    # the repeat names the line, whether or not a chern line parses on it
    text = ("name twice\ndim 1\nrank 2\ngens H H\n"
            "divisor 1 0\ndivisor 0 1\ndivisor 1 1\ntensor 1 0 = 1\n" + chern)
    with pytest.raises(ModelFormatError,
                       match=r"^line 4: duplicate variable names in \('H', 'H'\)$"):
        parse_model(text)


def test_models_refuse_repeated_generator_names():
    with pytest.raises(ValueError, match=r"^duplicate variable names in \('H', 'H'\)$"):
        chow.ToricModel("twice", 1, 2, ("H", "H"), ((1, 0), (0, 1), (1, 1)),
                        {(1, 0): 1})


@pytest.mark.parametrize("divisors", ["", "divisor 1\ndivisor 1\ndivisor 1\n"],
                         ids=["without divisor lines", "with divisor lines"])
@pytest.mark.parametrize("line, degree", [
    ("chern 0 : 5", 0), ("chern 9 : H", 9), ("chern -1 : H", -1)])
def test_parse_refuses_chern_degrees_outside_the_dimension(divisors, line, degree):
    # refused with the line of the chern line, before any consistency check
    # with divisor lines
    text = ("name P2\ndim 2\nrank 1\ngens H\ntensor 2 = 1\n" + divisors
            + "chern 1 : 3*H\nchern 2 : 3*H^2\n" + line + "\n")
    lineno = text.count("\n")
    with pytest.raises(ModelFormatError, match=(
            f"^line {lineno}: Chern override degree {degree} out of range 1..2$")):
        parse_model(text)


@pytest.mark.parametrize("line", ["name P2", "dim 3", "rank 1", "gens H",
                                  "smooth false", "chern 1 : 5*H"])
def test_parse_refuses_repeated_lines(line):
    # these used to be read last-wins; a repeated tensor key was refused
    text = ("name P2\ndim 2\nrank 1\ngens H\nsmooth true\n"
            "divisor 1\ndivisor 1\ndivisor 1\ntensor 2 = 1\nchern 1 : 3*H\n")
    word = line.split()[0]
    what = "chern degree 1" if word == "chern" else f"{word} line"
    with pytest.raises(ModelFormatError, match=f"^line 11: duplicate {what}$"):
        parse_model(text + line + "\n")
    assert parse_model(text).name == "P2"


def test_parse_comments_and_blank_lines():
    text = (
        "# a plane\nname P2\n\ndim 2  # dimension\nrank 1\ngens H\n"
        "smooth true\ndivisor 1\ndivisor 1\ndivisor 1\ntensor 2 = 1\n"
        "radial 1 1 1\n")
    assert parse_model(text) == catalog.projective(2)


def test_parse_polynomial_basics():
    p = parse_polynomial("4*H - 2*E1 - 2*E2", ("H", "E1", "E2"))
    assert p.terms == {(1, 0, 0): 4, (0, 1, 0): -2, (0, 0, 1): -2}
    q = parse_polynomial("7*H^2-4*H*E", ("H", "E"))
    assert q.terms == {(2, 0): 7, (1, 1): -4}
    r = parse_polynomial("-x + 5/2", ("x",))
    assert r.terms == {(1,): -1, (0,): Fraction(5, 2)}


def test_parse_polynomial_synonyms():
    p = parse_polynomial("z0^2 + z1_1", ("z1_0", "z1_1"), {"z0": "z1_0"})
    assert p.terms == {(2, 0): 1, (0, 1): 1}


def test_parse_polynomial_rejects_unknown_symbols():
    with pytest.raises(ModelFormatError, match="unknown symbol"):
        parse_polynomial("x + q", ("x",))
    with pytest.raises(ModelFormatError, match="empty"):
        parse_polynomial("   ", ("x",))


def test_parse_polynomial_rejects_malformed_terms():
    with pytest.raises(ModelFormatError, match="expected"):
        parse_polynomial("x^2 y", ("x", "y"))  # missing separator
    with pytest.raises(ModelFormatError, match="dangling sign"):
        parse_polynomial("x +", ("x",))
    with pytest.raises(ModelFormatError, match="exponent"):
        parse_polynomial("x^", ("x",))
    with pytest.raises(ModelFormatError, match="zero denominator"):
        parse_polynomial("1/0*x", ("x",))
    with pytest.raises(ModelFormatError, match="bad character"):
        parse_polynomial("x @ y", ("x", "y"))
    for text in ("x*", "2*x^2 * ", "x*y*"):
        with pytest.raises(ModelFormatError, match="^dangling '\\*' in polynomial$"):
            parse_polynomial(text, ("x", "y"))


def test_serialize_writes_divisor_lines_and_no_chern_lines():
    text = serialize_model(catalog.blowup_line_p3())
    assert "divisor 1 -1\ndivisor 1 -1\ndivisor 1 0\ndivisor 1 0\ndivisor 0 1\n" in text
    assert "chern" not in text
