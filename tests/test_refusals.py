"""Domain errors no other test reaches: each input, its exception type and
its exact text, in one table."""

import pytest

from toricsing import catalog, formulas, polyfield, residue
from toricsing.catalog import parse_model, parse_polynomial, serialize_model
from toricsing.chow import (
    ChowElement, ToricModel, chern_class, class_of_divisor_coeffs, elementary_series, integrate,
)
from toricsing.errors import AlignmentError, ModelFormatError
from toricsing.exactalg import MultiPoly

P2_LINES = ["name P2", "dim 2", "rank 1", "gens H", "smooth true", "divisor 1",
            "divisor 1", "divisor 1", "tensor 2 = 1"]


def p2_file(replace=None, drop=None, add=()):
    """The model file of P^2 with line `replace` (an index, a new line)
    replaced, line `drop` left out, and the lines `add` appended."""
    lines = list(P2_LINES)
    if replace is not None:
        lines[replace[0]] = replace[1]
    if drop is not None:
        del lines[drop]
    return "\n".join([*lines, *add]) + "\n"


def model(**changes):
    """P^1 through the checked constructor, with some fields changed."""
    fields = dict(name="P1", dim=1, rank=1, gens=("H",),
                  divisor_classes=((1,), (1,)), tensor={(1,): 1})
    return ToricModel(**{**fields, **changes})


P2 = catalog.projective(2)
# (P^1)^17 as a model file, but with weight 2 on its one key: no product,
# so counts run over its support of 2^17 monomials
P1_17_FILE = serialize_model(catalog.multiprojective(*[1] * 17)).replace(" = 1\n", " = 2\n")
P1_24 = catalog.multiprojective(*[1] * 24)
X, Y = (MultiPoly.variable(v, ("x", "y")) for v in ("x", "y"))
U = MultiPoly.variable("u", ("u",))
ZP2 = [MultiPoly.zero(P2.coord_names)] * 3
THING = object()

REFUSALS = {
    # the model file
    "empty name": (lambda: parse_model(p2_file(replace=(0, "name"))),
                   ModelFormatError, "line 1: empty name"),
    "smooth yes": (lambda: parse_model(p2_file(replace=(4, "smooth yes"))),
                   ModelFormatError, "line 5: smooth must be true or false"),
    "tensor without =": (lambda: parse_model(p2_file(replace=(8, "tensor 2 1"))),
                         ModelFormatError, "line 9: tensor line needs '='"),
    "chern without :": (lambda: parse_model(p2_file(add=["chern 1 3*H"])),
                        ModelFormatError, "line 10: chern line needs ':'"),
    "unknown keyword": (lambda: parse_model(p2_file(add=["weights 1 1 1"])),
                        ModelFormatError, "line 10: unknown keyword 'weights'"),
    "no name line": (lambda: parse_model(p2_file(drop=0)),
                     ModelFormatError, "missing required line: name"),
    "no gens line": (lambda: parse_model(p2_file(drop=3)),
                     ModelFormatError, "missing required line: gens"),
    # radial lines are checked against the columns of the divisor classes
    "radial row": (lambda: parse_model(p2_file(add=["radial 1 2 1"])), ModelFormatError,
                   "line 10: radial row (1, 2, 1) is not column 1 of the divisor classes, "
                   "(1, 1, 1)"),
    "radial row length": (lambda: parse_model(p2_file(add=["radial 1 1"])), ModelFormatError,
                          "line 10: radial row (1, 1) is not column 1 of the divisor "
                          "classes, (1, 1, 1)"),
    "radial line past the rank": (
        lambda: parse_model(p2_file(add=["radial 1 1 1", "radial 1 1 1"])),
        ModelFormatError, "line 11: radial line 2 on a model of rank 1"),
    "model file dim 0": (lambda: parse_model(p2_file(replace=(1, "dim 0"))),
                         ModelFormatError, "dim and rank must be positive"),
    "model file 5": (lambda: parse_model(5), ModelFormatError,
                     "model file text must be a str, got 5"),
    "model file None": (lambda: parse_model(None), ModelFormatError,
                        "model file text must be a str, got None"),
    "model file bytes": (lambda: parse_model(p2_file().encode()), ModelFormatError,
                         f"model file text must be a str, got {p2_file().encode()!r}"),
    "spec 5": (lambda: catalog.from_spec_string(5), ModelFormatError,
               "model spec must be a str, got 5"),
    "spec None": (lambda: catalog.from_spec_string(None), ModelFormatError,
                  "model spec must be a str, got None"),
    "spec tuple": (lambda: catalog.from_spec_string(("projective", 2)), ModelFormatError,
                   "model spec must be a str, got ('projective', 2)"),
    # the model
    "dim 0": (lambda: model(dim=0), ValueError, "dim and rank must be positive"),
    "rank 0": (lambda: model(rank=0), ValueError, "dim and rank must be positive"),
    # None once stood for a model whose Chern classes were given directly
    "no divisor classes": (lambda: model(divisor_classes=None), ValueError,
                           "expected 2 divisor classes, got None"),
    "gens count": (lambda: model(gens=("H", "E")), ValueError,
                   "expected 1 generator names, got ('H', 'E')"),
    "divisor classes 7": (lambda: model(divisor_classes=7), ValueError,
                          "expected 2 divisor classes, got 7"),
    "divisor class 5": (lambda: model(divisor_classes=((1,), 5)), ValueError,
                        "divisor class 5 is not a sequence of ints"),
    "gens 5": (lambda: model(gens=5), ValueError, "expected 1 generator names, got 5"),
    "tensor list": (lambda: model(tensor=[((1,), 1)]), ValueError,
                    "tensor must map keys to weights, got [((1,), 1)]"),
    "tensor key 5": (lambda: model(tensor={5: 1}), ValueError,
                     "tensor key 5 is not a sequence of ints"),
    "divisor count": (lambda: model(divisor_classes=((1,),)), ValueError,
                      "expected 2 divisor classes, got 1"),
    "divisor rank": (lambda: model(divisor_classes=((1,), (1, 0))), ValueError,
                     "divisor class (1, 0) has wrong rank"),
    "tensor key length": (lambda: model(tensor={(1, 0): 1}), ValueError,
                          "bad tensor key (1, 0)"),
    "negative tensor key": (lambda: model(dim=2, divisor_classes=((1,),) * 3,
                                          tensor={(-1,): 1}),
                            ValueError, "bad tensor key (-1,)"),
    "coordinate count": (lambda: model(coord_names=("x",)), ValueError,
                         "coordinate table must have n+r names"),
    "dim '1'": (lambda: model(dim="1"), ValueError, "dim must be an int, got '1'"),
    "dim 1.0": (lambda: model(dim=1.0), ValueError, "dim must be an int, got 1.0"),
    "dim None": (lambda: model(dim=None), ValueError, "dim must be an int, got None"),
    "dim True": (lambda: model(dim=True), ValueError, "dim must be an int, got True"),
    "rank '1'": (lambda: model(rank="1"), ValueError, "rank must be an int, got '1'"),
    "rank True": (lambda: model(rank=True), ValueError, "rank must be an int, got True"),
    "coordinate names 5": (lambda: model(coord_names=5), ValueError,
                           "coordinate names must be a sequence of strs, got 5"),
    "coordinate names 'ab'": (lambda: model(coord_names="ab"), ValueError,
                              "coordinate names must be a sequence of strs, got 'ab'"),
    "coordinate name 3": (lambda: model(coord_names=("a", 3)), ValueError,
                          "coordinate name 3 is not a str"),
    "name 5": (lambda: model(name=5), ValueError, "name must be a str, got 5"),
    # a str such as 'no' is true, so the model would pass as smooth
    "smooth 'no'": (lambda: model(smooth="no"), ValueError, "smooth must be a bool, got 'no'"),
    "smooth None": (lambda: model(smooth=None), ValueError, "smooth must be a bool, got None"),
    "smooth 1": (lambda: model(smooth=1), ValueError, "smooth must be a bool, got 1"),
    "generator name 5": (lambda: model(gens=(5,)), ValueError, "generator name 5 is not a str"),
    "gens 'HE'": (lambda: model(rank=2, gens="HE"), ValueError,
                  "generator names must be a sequence of strs, got 'HE'"),
    "element table": (lambda: ChowElement(("H",), MultiPoly(("E", "H"))), ValueError,
                      "generators ('H',) must prefix the table ('E', 'H')"),
    # the builtin families
    "projective(0)": (lambda: catalog.projective(0), ModelFormatError,
                      "projective space needs positive dimension"),
    "weighted(1)": (lambda: catalog.weighted(1), ModelFormatError,
                    "need at least two weights"),
    "weighted(1, -2)": (lambda: catalog.weighted(1, -2), ModelFormatError,
                        "weights must be positive"),
    "multiprojective()": (lambda: catalog.multiprojective(), ModelFormatError,
                          "factor dimensions must be positive"),
    "blowup_point(1)": (lambda: catalog.blowup_point(1), ModelFormatError,
                        "blow-up of a point needs ambient dimension >= 2"),
    # the residue layer
    "no components": (lambda: residue.IndexQuery(()), ValueError,
                      "need at least one component"),
    "mixed table": (lambda: residue.IndexQuery((X * X, U * U)), ValueError,
                    "components must share one variable table"),
    "component count of a germ": (lambda: residue.IndexQuery((X,)), ValueError,
                                  "2 variables need 2 components, got 1"),
    "constant term": (lambda: residue.IndexQuery((X + 1, Y)), ValueError,
                      "components must vanish at the origin; found constant term in x + 1"),
    "group order 0": (lambda: residue.IndexQuery((X, Y), group_order=0), ValueError,
                      "group order must be a positive integer"),
    "cap 1": (lambda: residue.IndexQuery((X, Y), degree_cap=1), ValueError,
              "degree cap must be at least 2"),
    "components None": (lambda: residue.IndexQuery(None), ValueError,
                        "components must be a sequence of MultiPolys, got None"),
    "component names": (lambda: residue.IndexQuery(("u", "v")), ValueError,
                        "component 'u' is not a MultiPoly"),
    "component 5": (lambda: residue.IndexQuery((U, 5)), ValueError,
                    "component 5 is not a MultiPoly"),
    "negative multiplicity": (lambda: residue.orbifold_index(-1, 1), ValueError,
                              "multiplicity cannot be negative"),
    "query None": (lambda: residue.local_multiplicity(None), ValueError,
                   "query None is not an IndexQuery"),
    "query 5": (lambda: residue.local_multiplicity(5), ValueError,
                "query 5 is not an IndexQuery"),
    "query components": (lambda: residue.local_multiplicity((X * X, Y * Y)), ValueError,
                         f"query {(X * X, Y * Y)!r} is not an IndexQuery"),
    "reports 5": (lambda: residue.index_sum(5), ValueError,
                  "reports must be a sequence of reports or indices, got 5"),
    "reports None": (lambda: residue.index_sum(None), ValueError,
                     "reports must be a sequence of reports or indices, got None"),
    # the counts
    "kind": (lambda: formulas.restricted_sing_count(P2, 1, 1, "leaf"), ValueError,
             "kind must be one of ('foliation', 'distribution'), got 'leaf'"),
    "scalar degree on rank 2": (
        lambda: formulas.foliation_sing_count(catalog.multiprojective(1, 1), 1),
        ValueError, "scalar degree is ambiguous on a rank-2 model"),
    "unrecognized degree": (lambda: formulas.foliation_sing_count(P2, "d"), ValueError,
                            "unrecognized degree 'd'"),
    "multidegree classes": (lambda: formulas.multidegree(P2, [1, 1, 1], 0), ValueError,
                            "too many classes"),
    "multidegree generator": (lambda: formulas.multidegree(P2, [1], 1, generator=True),
                              ValueError, "generator index 1 out of range 0..0"),
    # a str such as 'no' is true: it once picked the generator, 0 for 1 here
    "multidegree generator 'no'": (
        lambda: formulas.multidegree(catalog.blowup_point(2), [(1, 0)], 1, generator="no"),
        ValueError, "generator must be a bool, got 'no'"),
    "wci multidegree": (lambda: formulas.wci_sing_count((1, 1, 1, 1), (0,), 1), ValueError,
                        "complete-intersection multidegrees must be positive"),
    # the weighted entry points used to answer for these: -4 and -6, alpha 6
    # with chi 0 and alpha 8 with chi -16, 0 and -294, and two verdicts that held
    "general-type multidegree 0": (
        lambda: formulas.general_type_index((1, 1, 1, 1), (0,)), ValueError,
        "complete-intersection multidegrees must be positive"),
    "general-type multidegree -2": (
        lambda: formulas.general_type_index((1, 1, 1, 1), (-2,)), ValueError,
        "complete-intersection multidegrees must be positive"),
    "alpha multidegree 0": (
        lambda: formulas.alpha_invariant((1, 1, 1, 1), (0,)), ValueError,
        "complete-intersection multidegrees must be positive"),
    "alpha multidegree -1": (
        lambda: formulas.alpha_invariant((1, 1, 1, 1, 1), (2, -1)), ValueError,
        "complete-intersection multidegrees must be positive"),
    "Baum-Bott multidegree 0": (
        lambda: formulas.baum_bott_sum((1, 1, 1, 1), (0,), 1), ValueError,
        "complete-intersection multidegrees must be positive"),
    "Baum-Bott multidegree -3": (
        lambda: formulas.baum_bott_sum((1, 1, 1, 1, 1), (2, -3), 1), ValueError,
        "complete-intersection multidegrees must be positive"),
    "wci-curve multidegree 0": (
        lambda: formulas.poincare_check("wci-curve", weights=(1, 1, 1), classes=(0,),
                                        degree=1), ValueError,
        "complete-intersection multidegrees must be positive"),
    "wci-general multidegree 0": (
        lambda: formulas.poincare_check("wci-general", weights=(1, 1, 1, 1), classes=(0,),
                                        degree=1), ValueError,
        "complete-intersection multidegrees must be positive"),
    "surface multidegrees": (lambda: formulas.baum_bott_sum((1, 1, 1, 1), (), 1),
                             ValueError, "surface case needs m = n-2 = 1 classes, got 0"),
    "scroll twists": (lambda: formulas.regular_search("scroll", 3), ValueError,
                      "scroll search needs the twist list"),
    "scroll twists 5": (lambda: formulas.regular_search("scroll", 3, scroll_a=5), ValueError,
                        "scroll twist list 5 is not a sequence of ints"),
    "search family list": (lambda: formulas.regular_search(["p111k"], 3), ValueError,
                           "unknown search family ['p111k']"),
    "closed form n = 2": (lambda: formulas.scroll_closed_form(2, (1, 1), 1, 1),
                          ValueError, "closed form applies in dimension > 2"),
    "closed form twist count": (lambda: formulas.scroll_closed_form(3, (1, 1), 1, 1),
                                ValueError, "need 3 twists, got 2"),
    # True would be read as n = 1, the others failed on the comparison n <= 2
    "closed form n None": (lambda: formulas.scroll_closed_form(None, (1, 1, 1), 1, 1),
                           ValueError, "n must be an int, got None"),
    "closed form n 'ab'": (lambda: formulas.scroll_closed_form("ab", (1, 1, 1), 1, 1),
                           ValueError, "n must be an int, got 'ab'"),
    "closed form n ()": (lambda: formulas.scroll_closed_form((), (1, 1, 1), 1, 1),
                         ValueError, "n must be an int, got ()"),
    "closed form n object": (lambda: formulas.scroll_closed_form(THING, (1, 1, 1), 1, 1),
                             ValueError, f"n must be an int, got {THING!r}"),
    "closed form n True": (lambda: formulas.scroll_closed_form(True, (1, 1, 1), 1, 1),
                           ValueError, "n must be an int, got True"),
    "closed form n 3.0": (lambda: formulas.scroll_closed_form(3.0, (1, 1, 1), 1, 1),
                          ValueError, "n must be an int, got 3.0"),
    "toric-curve data": (lambda: formulas.poincare_check("toric-curve", model=P2),
                         ValueError, "toric-curve needs a model, classes, and degree"),
    "strict wci-curve": (lambda: formulas.poincare_check(
        "wci-curve", weights=(1, 1, 1), classes=(2,), degree=3, strict=True),
        ValueError, "wci-curve has no strict form; only toric-curve has"),
    "strict wci-general": (lambda: formulas.poincare_check(
        "wci-general", weights=(1, 1, 1, 1), classes=(2,), degree=3, strict=True),
        ValueError, "wci-general has no strict form; only toric-curve has"),
    # a str such as 'no' is true: it once tightened the bound, rhs 5 for 6
    "strict 'no'": (lambda: formulas.poincare_check(
        "toric-curve", model=catalog.projective(3), classes=[(1,), (1,)], degree=2,
        strict="no"), ValueError, "strict must be a bool, got 'no'"),
    # an element is paired on its own generators, not term by term on these
    "integrate generators": (lambda: integrate(P2, chern_class(catalog.multiprojective(1, 1), 2)),
                             ValueError, "generator mismatch: ('H1', 'H2') vs ('H',)"),
    "integrate generators on a blow-up": (
        lambda: integrate(catalog.blowup_point(2), chern_class(catalog.multiprojective(1, 1), 2)),
        ValueError, "generator mismatch: ('H1', 'H2') vs ('H', 'E')"),
    # anything but an element or an exact scalar once integrated to 0
    "integrate None": (lambda: integrate(P2, None), ValueError,
                       "None is not a Chow element or an exact scalar"),
    "integrate 'abc'": (lambda: integrate(P2, "abc"), ValueError,
                        "'abc' is not a Chow element or an exact scalar"),
    "integrate 1.5": (lambda: integrate(P2, 1.5), ValueError,
                      "1.5 is not a Chow element or an exact scalar"),
    "integrate True": (lambda: integrate(P2, True), ValueError,
                       "True is not a Chow element or an exact scalar"),
    "integrate object": (lambda: integrate(P2, THING), ValueError,
                         f"{THING!r} is not a Chow element or an exact scalar"),
    "integrate [1, 2]": (lambda: integrate(P2, [1, 2]), ValueError,
                         "[1, 2] is not a Chow element or an exact scalar"),
    # H is the generator of P^1, and its integral is 1, not 0
    "integrate a generator symbol": (
        lambda: integrate(catalog.projective(1), parse_polynomial("H", ("H",))),
        ValueError, "degree symbols may not collide with generators"),
    "gcd coefficients": (lambda: formulas.gcd_obstruction(P2, (1, 1)), ValueError,
                         "expected 3 divisor coefficients"),
    "gcd coefficients 5": (lambda: formulas.gcd_obstruction(P2, 5), ValueError,
                           "divisor coefficients must be a sequence of ints, got 5"),
    "class coefficients 5": (lambda: class_of_divisor_coeffs(P2, 5), ValueError,
                             "divisor coefficients must be a sequence of scalar expressions, "
                             "got 5"),
    "class coefficients None": (lambda: class_of_divisor_coeffs(P2, None), ValueError,
                                "divisor coefficients must be a sequence of scalar "
                                "expressions, got None"),
    # names and lists that are a str or no sequence
    "symbol names 'ab'": (lambda: formulas.symbolic_degree(catalog.blowup_point(2), "ab"),
                          ValueError, "symbol names must be a sequence of strs, got 'ab'"),
    "symbol names 5": (lambda: formulas.symbolic_degree(P2, 5), ValueError,
                       "symbol names must be a sequence of strs, got 5"),
    "ci classes 2": (lambda: formulas.ci_sing_count(P2, 2, 1), ValueError,
                     "classes must be a sequence of classes, got 2"),
    "ci classes 'ab'": (lambda: formulas.ci_sing_count(P2, "ab", 1), ValueError,
                        "classes must be a sequence of classes, got 'ab'"),
    "ci_euler classes 2": (lambda: formulas.ci_euler(P2, 2), ValueError,
                           "classes must be a sequence of classes, got 2"),
    "multidegree classes 2": (lambda: formulas.multidegree(P2, 2, 0), ValueError,
                              "classes must be a sequence of classes, got 2"),
    "toric-curve classes 5": (lambda: formulas.poincare_check(
        "toric-curve", model=P2, classes=5, degree=1),
        ValueError, "classes must be a sequence of classes, got 5"),
    "wci classes 2": (lambda: formulas.wci_sing_count((1, 1, 1), 2, 1), ValueError,
                      "classes must be a sequence of ints, got 2"),
    "wci parts classes 2": (lambda: formulas.wci_sing_count_parts((1, 1, 1, 1), 2, 1),
                            ValueError, "classes must be a sequence of ints, got 2"),
    "Baum-Bott classes 2": (lambda: formulas.baum_bott_sum((1, 1, 1, 1), 2, 1), ValueError,
                            "classes must be a sequence of ints, got 2"),
    "wci weights 5": (lambda: formulas.wci_sing_count(5, (2,), 1), ValueError,
                      "weights must be a sequence of ints, got 5"),
    # past the size bound, before anything is enumerated
    "support past the bound": (
        lambda: formulas.foliation_sing_count(parse_model(P1_17_FILE), (1,) * 17),
        ValueError, "the support may hold 131072 monomials, past the bound of 65536"),
    "chern line past the bound": (
        lambda: parse_model(P1_17_FILE + "chern 1 : " + " + ".join(
            f"2*H{k}" for k in range(1, 18))),
        ValueError, "the support may hold 131072 monomials, past the bound of 65536"),
    "symbolic product past the bound": (
        lambda: formulas.foliation_sing_count(catalog.multiprojective(*[1] * 17), "symbolic"),
        ValueError, "this product count may hold 131072 terms, past the bound of 65536"),
    "product moments past the bound": (
        lambda: formulas.ci_sing_count(
            P1_24, [[1 + (k + j) % 3 for k in range(24)] for j in range(3)], (1,) * 24),
        ValueError, "this product count may hold 101200 moments, past the bound of 65536"),
    # polynomial fields and exact division
    "component count": (lambda: polyfield.VectorFieldExpr(P2, ZP2[:2]), ValueError,
                        "expected 3 components, got 2"),
    "component table": (lambda: polyfield.OneFormExpr(P2, [X, X, X]), ValueError,
                        "components must live on the model's coordinates"),
    "zero divisor": (lambda: polyfield.exact_divide(X, MultiPoly.zero(("x", "y"))),
                     ZeroDivisionError, "division by the zero polynomial"),
    "division tables": (lambda: polyfield.exact_divide(X, U), ValueError,
                        "divide requires a shared variable table"),
    # polynomials and series
    "exponent length": (lambda: MultiPoly(("x",), {(1, 2): 1}), ValueError,
                        "exponent (1, 2) does not match variables ('x',)"),
    "negative exponent": (lambda: MultiPoly(("x",), {(-1,): 1}), ValueError,
                          "exponents must be nonnegative integers: (-1,)"),
    "string exponent": (lambda: MultiPoly(("x",), {("a",): 1}), ValueError,
                        "exponents must be nonnegative integers: ('a',)"),
    "bool exponent": (lambda: MultiPoly(("x",), {(True,): 1}), ValueError,
                      "exponents must be nonnegative integers: (True,)"),
    "constant_value": (lambda: (X + 1).constant_value(), ValueError,
                       "not a constant polynomial: x + 1"),
    "extended": (lambda: X.extended(("x", "z")), AlignmentError,
                 "cannot embed table ('x', 'y') into ('x', 'z')"),
    "negative series degree": (lambda: elementary_series([1], -1), ValueError,
                               "degree must be nonnegative"),
}


@pytest.mark.parametrize("call, error, text", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, text):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == text
