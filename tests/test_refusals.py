"""Domain errors no other test reaches: each input, its exception type and
its exact text, in one table."""

import signal
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest

import toricsing
from toricsing import catalog, formulas, polyfield, residue
from toricsing.catalog import parse_model, parse_polynomial, serialize_model
from toricsing.chow import (
    ChowElement, ToricModel, chern_class, class_element, class_of_divisor_coeffs,
    elementary_series, elementary_symmetric_classes, integrate,
)
from toricsing.errors import (
    AlignmentError, ModelFormatError, OrbifoldHypothesisWarning, ToricError,
)
from toricsing.exactalg import MultiPoly, aligned, poly_sum
from toricsing.ring import complete_series, wronski_classes

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
# P(1,1,2) has the coordinates of P^2, z0, z1, z2, but is another model
P112 = catalog.weighted(1, 1, 2)
Z0_P112 = MultiPoly.variable("z0", P112.coord_names)
FORM_P112 = polyfield.OneFormExpr(P112, ZP2)
(EULER,) = polyfield.radial_fields(P2)

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
    "dim '1'": (lambda: model(dim="1"), ValueError, "dim must be an int, got '1'"),
    "dim 1.0": (lambda: model(dim=1.0), ValueError, "dim must be an int, got 1.0"),
    "dim None": (lambda: model(dim=None), ValueError, "dim must be an int, got None"),
    "dim True": (lambda: model(dim=True), ValueError, "dim must be an int, got True"),
    "rank '1'": (lambda: model(rank="1"), ValueError, "rank must be an int, got '1'"),
    "rank True": (lambda: model(rank=True), ValueError, "rank must be an int, got True"),
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
    # these ended in "'NoneType' object is not iterable" and in an
    # AttributeError on `vars`; a str was read as its characters
    "element gens None": (lambda: ChowElement(None, MultiPoly(("H",))), ValueError,
                          "generators must be a sequence of strs, got None"),
    "element gens 'H'": (lambda: ChowElement("H", MultiPoly(("H",))), ValueError,
                         "generators must be a sequence of strs, got 'H'"),
    "element generator 5": (lambda: ChowElement((5,), MultiPoly(("H",))), ValueError,
                            "generator 5 is not a str"),
    "element polynomial None": (lambda: ChowElement(("H",), None), ValueError,
                                "polynomial None is not a MultiPoly"),
    "element polynomial 5": (lambda: ChowElement((), 5), ValueError,
                             "polynomial 5 is not a MultiPoly"),
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
    # a spec string once ended in an AttributeError on its family
    "builtin 'projective:2'": (lambda: catalog.builtin("projective:2"), ModelFormatError,
                               "model spec must be a ModelSpec, got 'projective:2'"),
    "builtin None": (lambda: catalog.builtin(None), ModelFormatError,
                     "model spec must be a ModelSpec, got None"),
    # a spec's fields: a list family ended in "unhashable type: 'list'", and
    # an int parameter list in "object of type 'int' has no len()"
    "spec family list": (lambda: catalog.builtin(catalog.ModelSpec(["projective"], (2,))),
                         ModelFormatError, "model family must be a str, got ['projective']"),
    "spec params 2": (lambda: catalog.builtin(catalog.ModelSpec("projective", 2)),
                      ModelFormatError, "model parameters must be a sequence of ints, got 2"),
    "spec params '2'": (lambda: catalog.ModelSpec("projective", "2"), ModelFormatError,
                        "model parameters must be a sequence of ints, got '2'"),
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
    # both once ended in "AttributeError: ... 'is_zero'"
    "divide None": (lambda: polyfield.exact_divide(None, X), ValueError,
                    "numerator None is not a MultiPoly"),
    "divide by 5": (lambda: polyfield.exact_divide(X, 5), ValueError,
                    "divisor 5 is not a MultiPoly"),
    # one coordinate rule: a MultiPoly on the model's coordinates or a
    # GradedPoly of an equal model; a form of P(1,1,2) once answered for
    # P^2, a GradedPoly of it was read on P^2, a foreign table ended in
    # "tuple.index(x): x not in tuple", and the rest in AttributeErrors
    "form of another model": (lambda: polyfield.check_descends(P2, FORM_P112), ValueError,
                              "form of model P(1,1,2) given for model P2"),
    "integrable form of another model": (
        lambda: polyfield.frobenius_integrable(P2, FORM_P112), ValueError,
        "form of model P(1,1,2) given for model P2"),
    "descends form None": (lambda: polyfield.check_descends(P2, None), ValueError,
                           "form None is not a OneFormExpr"),
    "integrable form of components": (lambda: polyfield.frobenius_integrable(P2, ZP2),
                                      ValueError, f"form {ZP2!r} is not a OneFormExpr"),
    "hypersurface of another model": (
        lambda: polyfield.check_invariant_hypersurface(
            EULER, polyfield.GradedPoly(P112, Z0_P112)),
        ValueError, "hypersurface of model P(1,1,2) given for model P2"),
    "hypersurface table": (lambda: polyfield.check_invariant_hypersurface(EULER, X), ValueError,
                           "polynomial table ('x', 'y') must equal the model coordinates "
                           "('z0', 'z1', 'z2')"),
    "hypersurface 'z0'": (lambda: polyfield.check_invariant_hypersurface(EULER, "z0"),
                          ValueError, "hypersurface 'z0' is not a MultiPoly or a GradedPoly"),
    "field None": (lambda: polyfield.check_invariant_hypersurface(None, X), ValueError,
                   "field None is not a VectorFieldExpr"),
    "field of components": (lambda: polyfield.check_invariant_hypersurface(ZP2, X), ValueError,
                            f"field {ZP2!r} is not a VectorFieldExpr"),
    "polynomial None": (lambda: polyfield.check_quasi_homogeneous(P2, None), ValueError,
                        "polynomial None is not a MultiPoly or a GradedPoly"),
    "graded polynomial 5": (lambda: polyfield.GradedPoly(P2, 5), ValueError,
                            "polynomial 5 is not a MultiPoly or a GradedPoly"),
    "graded polynomial of another model": (
        lambda: polyfield.GradedPoly(P2, polyfield.GradedPoly(P112, Z0_P112)), ValueError,
        "polynomial of model P(1,1,2) given for model P2"),
    "components None": (lambda: polyfield.VectorFieldExpr(P2, None), ValueError,
                        "components must be a sequence of MultiPolys, got None"),
    "components 'abc'": (lambda: polyfield.OneFormExpr(P2, "abc"), ValueError,
                         "components must be a sequence of MultiPolys, got 'abc'"),
    "component 0": (lambda: polyfield.OneFormExpr(P2, (0, 0, 0)), ValueError,
                    "component 0 is not a MultiPoly or a GradedPoly"),
    "component of another model": (
        lambda: polyfield.VectorFieldExpr(P2, [polyfield.GradedPoly(P112, Z0_P112)] * 3),
        ValueError, "component of model P(1,1,2) given for model P2"),
    # polynomials and series
    "exponent length": (lambda: MultiPoly(("x",), {(1, 2): 1}), ValueError,
                        "exponent (1, 2) does not match variables ('x',)"),
    "negative exponent": (lambda: MultiPoly(("x",), {(-1,): 1}), ValueError,
                          "exponents must be nonnegative integers: (-1,)"),
    "string exponent": (lambda: MultiPoly(("x",), {("a",): 1}), ValueError,
                        "exponents must be nonnegative integers: ('a',)"),
    "bool exponent": (lambda: MultiPoly(("x",), {(True,): 1}), ValueError,
                      "exponents must be nonnegative integers: (True,)"),
    # these ended in a bare TypeError or AttributeError
    "int exponent": (lambda: MultiPoly(("x",), {5: 1}), ValueError,
                     "exponents must be nonnegative integers: 5"),
    "variables None": (lambda: MultiPoly(None), ValueError,
                       "variables must be a sequence of strs, got None"),
    "variables 'xy'": (lambda: MultiPoly("xy"), ValueError,
                       "variables must be a sequence of strs, got 'xy'"),
    "variable 3": (lambda: MultiPoly(("x", 3)), ValueError, "variable 3 is not a str"),
    "terms list": (lambda: MultiPoly(("x",), [((1,), 1)]), ValueError,
                   "terms must map exponents to coefficients, got [((1,), 1)]"),
    "terms 5": (lambda: MultiPoly(("x",), 5), ValueError,
                "terms must map exponents to coefficients, got 5"),
    # a str coefficient was read as the Fraction it spells, and None ended
    # in a bare TypeError from Fraction
    "coefficient '1/2'": (lambda: MultiPoly(("x",), {(1,): "1/2"}), ValueError,
                          "coefficient '1/2' is not an int or a Fraction"),
    "coefficient None": (lambda: MultiPoly(("x",), {(1,): None}), ValueError,
                         "coefficient None is not an int or a Fraction"),
    "coefficient Decimal": (lambda: MultiPoly(("x",), {(1,): Decimal("0.5")}), ValueError,
                            "coefficient Decimal('0.5') is not an int or a Fraction"),
    "const '3/4'": (lambda: MultiPoly.const("3/4"), ValueError,
                    "coefficient '3/4' is not an int or a Fraction"),
    "polynomial text None": (lambda: parse_polynomial(None, ("x",)), ValueError,
                             "polynomial text must be a str, got None"),
    "polynomial text bytes": (lambda: parse_polynomial(b"x", ("x",)), ValueError,
                              "polynomial text must be a str, got b'x'"),
    "parse table 'x'": (lambda: parse_polynomial("x", "x"), ValueError,
                        "variables must be a sequence of strs, got 'x'"),
    "parse table 5": (lambda: parse_polynomial("x", 5), ValueError,
                      "variables must be a sequence of strs, got 5"),
    "parse variable 3": (lambda: parse_polynomial("x", ("x", 3)), ValueError,
                         "variable 3 is not a str"),
    "aligned None": (lambda: aligned(None, X), ValueError, "operand None is not a MultiPoly"),
    "aligned 5": (lambda: aligned(X, 5), ValueError, "operand 5 is not a MultiPoly"),
    "poly_sum 5": (lambda: poly_sum(5), ValueError,
                   "items must be a sequence of MultiPolys or exact numbers, got 5"),
    "poly_sum 'ab'": (lambda: poly_sum("ab"), ValueError,
                      "items must be a sequence of MultiPolys or exact numbers, got 'ab'"),
    "poly_sum None item": (lambda: poly_sum([X, None]), ValueError,
                           "coefficient None is not an int, a Fraction or a MultiPoly"),
    "constant_value": (lambda: (X + 1).constant_value(), ValueError,
                       "not a constant polynomial: x + 1"),
    "extended": (lambda: X.extended(("x", "z")), AlignmentError,
                 "cannot embed table ('x', 'y') into ('x', 'z')"),
    "negative series degree": (lambda: elementary_series([1], -1), ValueError,
                               "degree must be nonnegative"),
    # wronski_classes(5, 2) ended in "'int' object is not subscriptable"
    "wronski classes 5": (lambda: wronski_classes(5, 2), ValueError,
                          "items must be a sequence of Chow elements or scalar expressions, "
                          "got 5"),
    "series items 'ab'": (lambda: elementary_series("ab", 1), ValueError,
                          "items must be a sequence of Chow elements or scalar expressions, "
                          "got 'ab'"),
    "series items None": (lambda: complete_series(None, 1), ValueError,
                          "items must be a sequence of Chow elements or scalar expressions, "
                          "got None"),
    # a name off the table ended in "tuple.index(x): x not in tuple"
    "variable off the table": (lambda: MultiPoly.variable("w", ("x", "y")), ValueError,
                               "variable 'w' is not in the table ('x', 'y')"),
    "derivative off the table": (lambda: X.derivative("z"), ValueError,
                                 "variable 'z' is not in the table ('x', 'y')"),
    # values that are no mapping ended in "argument of type 'int' is not
    # iterable" or in a str's TypeError, and a list of pairs substituted
    # nothing
    "substitute 5": (lambda: X.substitute(5), ValueError,
                     "values must map variables to polynomials or scalars, got 5"),
    "substitute pairs": (lambda: X.substitute([("x", 1)]), ValueError,
                         "values must map variables to polynomials or scalars, "
                         "got [('x', 1)]"),
    "evaluate None": (lambda: X.evaluate(None), ValueError,
                      "values must map variables to ints or Fractions, got None"),
    "evaluate 'xy'": (lambda: X.evaluate("xy"), ValueError,
                      "values must map variables to ints or Fractions, got 'xy'"),
    # a table that is no sequence ended in "'int' object is not iterable",
    # and a str was read as its characters
    "as_poly table None": (lambda: toricsing.as_poly(1, None), ValueError,
                           "variables must be a sequence of strs, got None"),
    "const table 'xy'": (lambda: MultiPoly.const(1, "xy"), ValueError,
                         "variables must be a sequence of strs, got 'xy'"),
    "zero table 5": (lambda: MultiPoly.zero(5), ValueError,
                     "variables must be a sequence of strs, got 5"),
    "extended 5": (lambda: X.extended(5), ValueError,
                   "variables must be a sequence of strs, got 5"),
    "extended 'xyz'": (lambda: X.extended("xyz"), ValueError,
                       "variables must be a sequence of strs, got 'xyz'"),
}

# Each entry point that takes a model, with valid other arguments: any value
# but a model is refused before it is read.  These calls ended in a bare
# AttributeError or TypeError, and integrate(None, 1) returned 0.
Z0 = MultiPoly.variable("z0", P2.coord_names)
FORM = polyfield.OneFormExpr(P2, ZP2)
MODEL_CALLS = {
    "foliation_sing_count": lambda m: formulas.foliation_sing_count(m, 1),
    "restricted_sing_count": lambda m: formulas.restricted_sing_count(m, 1, 1),
    "complement_sing_count": lambda m: formulas.complement_sing_count(m, 1, 1),
    "hypersurface_euler": lambda m: formulas.hypersurface_euler(m, 1),
    "complement_euler": lambda m: formulas.complement_euler(m, 1),
    "ci_sing_count": lambda m: formulas.ci_sing_count(m, [1], 1),
    "ci_euler": lambda m: formulas.ci_euler(m, [1]),
    "multidegree": lambda m: formulas.multidegree(m, [1], 0),
    "gcd_obstruction": lambda m: formulas.gcd_obstruction(m, (1, 1, 1)),
    "symbolic_degree": lambda m: formulas.symbolic_degree(m),
    "poincare_check": lambda m: formulas.poincare_check(
        "toric-curve", model=m, classes=[1], degree=1),
    "chern_class": lambda m: chern_class(m, 1),
    "elementary_symmetric_classes": lambda m: elementary_symmetric_classes(m, 1),
    "class_element": lambda m: class_element(m, (1,)),
    "integrate": lambda m: integrate(m, chern_class(P2, 2)),
    "class_of_divisor_coeffs": lambda m: class_of_divisor_coeffs(m, (1, 0, 0)),
    "serialize_model": serialize_model,
    "radial_fields": polyfield.radial_fields,
    "check_descends": lambda m: polyfield.check_descends(m, FORM),
    "check_quasi_homogeneous": lambda m: polyfield.check_quasi_homogeneous(m, Z0),
    "frobenius_integrable": lambda m: polyfield.frobenius_integrable(m, FORM),
    "GradedPoly": lambda m: polyfield.GradedPoly(m, Z0),
    "VectorFieldExpr": lambda m: polyfield.VectorFieldExpr(m, ZP2),
    "OneFormExpr": lambda m: polyfield.OneFormExpr(m, ZP2),
}
NOT_MODELS = {"None": None, "5": 5, "'ab'": "ab", "1.5": 1.5, "True": True, "-3": -3,
              "()": (), "object()": THING}
REFUSALS.update(
    (f"{name} model {label}",
     (partial(call, bad), ValueError, f"model must be a ToricModel, got {bad!r}"))
    for name, call in MODEL_CALLS.items() for label, bad in NOT_MODELS.items()
    # with no model, toric-curve says that it needs one, as it always did
    if (name, label) != ("poincare_check", "None"))
REFUSALS["integrate(None, 1)"] = (lambda: integrate(None, 1), ValueError,
                                  "model must be a ToricModel, got None")


@pytest.mark.parametrize("call, error, text", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, text):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == text


# The export sweep: one valid call per callable export, its positional
# arguments in SWEEP and its keyword arguments in SWEEP_KEYWORDS.  Each
# argument in turn is swapped for each value of NOT_MODELS, and the call
# must return or raise ValueError or a ToricError within 2 s; a bare
# TypeError or AttributeError is a refusal that names nothing.  The one
# TypeError allowed is class_element's, whose docstring promises it for a
# vector with no length or a bad entry.
P3 = catalog.projective(3)
GERM = residue.IndexQuery((X * X, Y * Y))
SWEEP = {
    "MultiPoly": (("x", "y"), {(1, 0): 1}),
    "aligned": (X, U),
    "as_poly": (1, ("x",)),
    "poly_sum": ([X, 1],),
    "ToricModel": ("P1", 1, 1, ("H",), ((1,), (1,)), {(1,): 1}, True),
    "class_of_divisor_coeffs": (P2, (1, 0, 0)),
    "ChowElement": (("H",), MultiPoly(("H",), {(1,): 1})),
    "chern_class": (P2, 1),
    "class_element": (P2, (1,)),
    "elementary_symmetric_classes": (P2, 1),
    "integrate": (P2, chern_class(P2, 2)),
    "wronski_classes": ([1, 2], 2),
    "ModelSpec": ("projective", (2,)),
    "blowup_line_p3": (),
    "blowup_point": (2,),
    "blowup_two_points_p3": (),
    "builtin": (catalog.ModelSpec("projective", (2,)),),
    "from_spec_string": ("projective:2",),
    "multiprojective": (1, 1),
    "parse_model": (p2_file(),),
    "parse_polynomial": ("x - 1/2*y", ("x", "y")),
    "projective": (2,),
    "scroll": (1, 1, 1),
    "serialize_model": (P2,),
    "weighted": (1, 1, 2),
    "AlphaInvariant": (Fraction(8), Fraction(-16)),
    "GcdVerdict": (Fraction(3), 2, True),
    "InequalityVerdict": (1, 2, True, 1),
    "SearchSolution": ("p111k", (1, 2, 3), "accepted"),
    "alpha_invariant": ((1, 1, 1, 1, 1), (2, 3)),
    "baum_bott_sum": ((1, 1, 1, 1), (2,), 1),
    "ci_euler": (P3, [1]),
    "ci_sing_count": (P3, [1], 1, "distribution"),
    "complement_euler": (P2, 1),
    "complement_sing_count": (P2, 1, 1),
    "foliation_sing_count": (P2, 2),
    "gcd_obstruction": (P2, (1, 1, 1)),
    "general_type_index": ((1, 1, 1, 1), (5,)),
    "hypersurface_euler": (P2, 3),
    "multidegree": (catalog.blowup_point(2), [(1, 0)], 1, True),
    "poincare_check": ("toric-curve",),
    "regular_search": ("scroll", 3, (1, 1, 1)),
    "restricted_sing_count": (P2, 1, 1, "distribution"),
    "scroll_closed_form": (3, (1, 1, 1), 1, 1),
    "symbolic_degree": (catalog.blowup_point(2), ("a", "b")),
    "wci_sing_count": ((1, 1, 1, 1), (2,), 1, "distribution"),
    "wci_sing_count_parts": ((1, 1, 1, 1), (2,), 1),
    "GradedPoly": (P2, Z0),
    "OneFormExpr": (P2, ZP2),
    "VectorFieldExpr": (P2, ZP2),
    "check_descends": (P2, FORM),
    "check_invariant_hypersurface": (EULER, Z0),
    "check_quasi_homogeneous": (P2, Z0),
    "frobenius_integrable": (P2, FORM),
    "radial_fields": (P2,),
    "IndexQuery": ((X * X, Y * Y), 3, 8),
    "LocalIndexReport": (4, 3, Fraction(4, 3), 3),
    "index_sum": ([Fraction(4, 3), 1],),
    "local_multiplicity": (GERM,),
    "orbifold_index": (4, 3),
}
SWEEP_KEYWORDS = {
    "poincare_check": {"model": P3, "classes": [(1,), (1,)], "degree": 2, "strict": True},
}
PROMISED_TYPE_ERRORS = {("class_element", 1)}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _escape(call, args, kwargs):
    """How the call ends if not as the sweep allows: a timeout or the
    exception's type and text; None if it returns or refuses."""
    handler = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(2)
    try:
        with warnings.catch_warnings():
            # a swapped model may be an orbifold, where some counts warn
            warnings.simplefilter("ignore", OrbifoldHypothesisWarning)
            call(*args, **kwargs)
    except _Timeout:
        return "no answer in 2 s"
    except (ValueError, ToricError):
        return None
    except Exception as caught:
        return f"{type(caught).__name__}: {caught}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    return None


def test_the_sweep_lists_every_callable_export():
    exports = {name for name in toricsing.__all__ if callable(getattr(toricsing, name))}
    assert len(exports) == 60
    assert set(SWEEP) == exports


@pytest.mark.parametrize("name", SWEEP)
def test_a_swapped_argument_is_returned_or_refused(name):
    call, args, kwargs = getattr(toricsing, name), SWEEP[name], SWEEP_KEYWORDS.get(name, {})
    call(*args, **kwargs)  # the listed call is valid
    escapes = []
    for key in [*range(len(args)), *kwargs]:
        for label, bad in NOT_MODELS.items():
            if isinstance(key, int):
                ended = _escape(call, [*args[:key], bad, *args[key + 1:]], kwargs)
            else:
                ended = _escape(call, args, {**kwargs, key: bad})
            if ended and not ((name, key) in PROMISED_TYPE_ERRORS
                              and ended.startswith("TypeError: ")):
                escapes.append(f"{name} argument {key} = {label}: {ended}")
    assert escapes == []
