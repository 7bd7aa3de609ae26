"""Quasi-homogeneity, descent, and invariance checks in homogeneous coordinates."""

import random
import re
from fractions import Fraction

import pytest
from test_catalog import ALL_BUILTINS
from test_model_build import replace

from toricsing import catalog
from toricsing.catalog import parse_model, parse_polynomial, serialize_model
from toricsing.exactalg import MultiPoly
from toricsing.polyfield import (
    ANY_DEGREE, GradedPoly, OneFormExpr, VectorFieldExpr,
    check_descends, check_invariant_hypersurface, check_quasi_homogeneous,
    exact_divide, frobenius_integrable, radial_fields,
)


def _poly(model, text):
    return parse_polynomial(text, model.coord_names)


def _components(model, *texts):
    return tuple(_poly(model, t) for t in texts)


def test_quasi_homogeneous_weighted_hypersurface():
    k = 3
    m = catalog.weighted(1, 1, 1, 1, k)
    f = _poly(m, "z4 - 2*z0^3 - z1^3 - 5*z2^3 - z3^3")
    assert check_quasi_homogeneous(m, f) == (k,)


def test_quasi_homogeneous_bidegree():
    m = catalog.multiprojective(1, 1)
    f = _poly(m, "z0*z2 + z1*z3")
    assert check_quasi_homogeneous(m, f) == (1, 1)


def test_quasi_homogeneous_mixed_degrees_absent():
    m = catalog.projective(2)
    assert check_quasi_homogeneous(m, _poly(m, "z0^2 + z1")) is None


def test_quasi_homogeneous_zero_is_any_degree():
    m = catalog.projective(2)
    assert check_quasi_homogeneous(m, MultiPoly.zero(m.coord_names)) is ANY_DEGREE


def test_quasi_homogeneous_holds_raw_polys_to_the_coordinates():
    m = catalog.projective(2)
    for poly in (MultiPoly(("x",), {(2,): 1}),
                 MultiPoly(tuple("abcde"), {(0, 0, 0, 0, 1): 1})):
        with pytest.raises(ValueError, match="must equal the model coordinates"):
            check_quasi_homogeneous(m, poly)


def test_quasi_homogeneous_rejects_another_models_poly():
    other = catalog.projective(2)
    g = GradedPoly(other, _poly(other, "z0 + z1"))
    with pytest.raises(ValueError, match=re.escape(
            "polynomial of model P2 given for model P(1,2,3)")):
        check_quasi_homogeneous(catalog.weighted(1, 2, 3), g)
    # a model built again from the same data is the same model
    assert check_quasi_homogeneous(catalog.projective(2), g) == (1,)


def test_graded_poly_degree_method():
    m = catalog.weighted(1, 2, 3)
    g = GradedPoly(m, _poly(m, "z0*z2 + z1^2"))
    assert g.degree() == (4,)


def test_radial_weighted():
    m = catalog.weighted(1, 7, 3, 5)
    (field,) = radial_fields(m)
    for i, w in enumerate((1, 7, 3, 5)):
        expected = {(0,) * 4: 0}
        assert field.components[i] == w * MultiPoly.variable(
            m.coord_names[i], m.coord_names)


def test_radial_multiprojective():
    m = catalog.multiprojective(1, 1)
    r1, r2 = radial_fields(m)
    z = [MultiPoly.variable(n, m.coord_names) for n in m.coord_names]
    assert r1.components == (z[0], z[1],
                             MultiPoly.zero(m.coord_names), MultiPoly.zero(m.coord_names))
    assert r2.components == (MultiPoly.zero(m.coord_names),
                             MultiPoly.zero(m.coord_names), z[2], z[3])


def test_radial_scroll():
    m = catalog.scroll(2, 3)
    r1, r2 = radial_fields(m)
    z = [MultiPoly.variable(n, m.coord_names) for n in m.coord_names]
    assert r1.components == (z[0], z[1], -2 * z[2], -3 * z[3])
    assert r2.components == (MultiPoly.zero(m.coord_names),
                             MultiPoly.zero(m.coord_names), z[2], z[3])


def test_radial_blowup_point():
    # classes (1, -1) twice, then (1, 0) and (0, 1): the columns of the classes
    m = catalog.blowup_point(2)
    r1, r2 = radial_fields(m)
    z = [MultiPoly.variable(n, m.coord_names) for n in m.coord_names]
    zero = MultiPoly.zero(m.coord_names)
    assert r1.components == (z[0], z[1], z[2], zero)
    assert r2.components == (-z[0], -z[1], zero, z[3])
    # the rotation of the first two coordinates descends, as on P^2
    form = OneFormExpr(m, (z[1], -z[0], zero, zero))
    assert check_descends(m, form)
    assert not check_descends(m, OneFormExpr(m, (z[1], zero, zero, zero)))


@pytest.mark.parametrize("m", [
    catalog.projective(3), catalog.weighted(1, 2, 3), catalog.multiprojective(1, 2),
    catalog.scroll(2, -1, 3), catalog.blowup_point(3), catalog.blowup_two_points_p3(),
    catalog.blowup_line_p3()], ids=lambda m: m.name)
def test_radial_fields_are_the_class_columns(m):
    z = [MultiPoly.variable(n, m.coord_names) for n in m.coord_names]
    fields = radial_fields(m)
    assert len(fields) == m.rank
    for k, field in enumerate(fields):
        assert field.components == tuple(d[k] * zi for d, zi in zip(m.divisor_classes, z))


def test_descends_weighted_form():
    w = (1, 7, 3, 5)
    m = catalog.weighted(*w)
    for lam in (Fraction(1), Fraction(-5, 3)):
        comps = _components(
            m,
            f"{-lam * w[1]}*z1" if lam != 1 else "-7*z1",
            f"{lam * w[0]}*z0" if lam != 1 else "z0",
            "-5*z3",
            "3*z2",
        )
        form = OneFormExpr(m, comps)
        assert check_descends(m, form)


def test_descends_rescaling_invariance():
    m = catalog.weighted(2, 3, 5)
    comps = _components(m, "-3*z1", "2*z0", "0")
    assert check_descends(m, OneFormExpr(m, comps))
    scaled = OneFormExpr(m, tuple(Fraction(7, 4) * c for c in comps))
    assert check_descends(m, scaled)


def test_descends_rejects_non_invariant_form():
    m = catalog.projective(2)
    form = OneFormExpr(m, _components(m, "0", "z0", "0"))
    assert not check_descends(m, form)


def test_contact_form_descends_and_is_not_integrable():
    # alternating rotational form in six coordinates on P5
    m = catalog.projective(5)
    comps = []
    for i in range(0, 6, 2):
        comps.append(f"-z{i + 1}")
        comps.append(f"z{i}")
    form = OneFormExpr(m, _components(m, *comps))
    assert check_descends(m, form)
    assert not frobenius_integrable(m, form)


def test_pairwise_rotational_form_descends_on_weighted_space():
    # sum of c_i*(w_{2i} z_{2i} dz_{2i+1} - w_{2i+1} z_{2i+1} dz_{2i}) with
    # the last coordinate unpaired; every radial contraction cancels in pairs
    k = 5
    m = catalog.weighted(1, 1, 1, 1, 1, 1, k)
    c = (Fraction(2), Fraction(-1, 3), Fraction(7))
    z = [MultiPoly.variable(n, m.coord_names) for n in m.coord_names]
    comps = []
    for i in range(3):
        comps.extend([-c[i] * z[2 * i + 1], c[i] * z[2 * i]])
    comps.append(MultiPoly.zero(m.coord_names))
    form = OneFormExpr(m, tuple(comps))
    assert check_descends(m, form)


def test_exact_forms_are_integrable():
    # d(z0*z1) wedge-annihilates its own differential
    m = catalog.projective(2)
    form = OneFormExpr(m, _components(m, "z1", "z0", "0"))
    assert frobenius_integrable(m, form)


def test_integrability_on_seven_and_eight_coordinates():
    # more than 6 coordinates used to be refused
    m = catalog.projective(6)
    assert frobenius_integrable(m, OneFormExpr(m, (MultiPoly.zero(m.coord_names),) * 7))
    m = catalog.multiprojective(1, 1, 1, 1)
    # d(z0*z2), the first coordinates of the first two factors
    exact = _components(m, "z2", "0", "z0", "0", "0", "0", "0", "0")
    assert frobenius_integrable(m, OneFormExpr(m, exact))
    rotation = _components(m, *(t for i in range(0, 8, 2) for t in (f"-z{i + 1}", f"z{i}")))
    assert not frobenius_integrable(m, OneFormExpr(m, rotation))


def test_invariant_diagonal_field_coordinate_hyperplane():
    m = catalog.weighted(1, 2, 3)
    a = (Fraction(2), Fraction(-1, 3), Fraction(5))
    comps = tuple(a[i] * MultiPoly.variable(m.coord_names[i], m.coord_names)
                  for i in range(3))
    field = VectorFieldExpr(m, comps)
    verdict = check_invariant_hypersurface(field, _poly(m, "z0"))
    assert verdict.invariant
    assert verdict.cofactor == MultiPoly.const(a[0], m.coord_names)


def test_invariant_euler_field_cofactor_is_the_degree():
    m = catalog.projective(2)
    (euler,) = radial_fields(m)
    for text, degree in [("z0^3 + z1^3 + z2^3", 3), ("z0*z1 + z2^2", 2)]:
        verdict = check_invariant_hypersurface(euler, _poly(m, text))
        assert verdict.invariant
        assert verdict.cofactor == MultiPoly.const(degree, m.coord_names)


def test_not_invariant():
    m = catalog.projective(2)
    field = VectorFieldExpr(m, _components(m, "z1", "0", "0"))
    verdict = check_invariant_hypersurface(field, _poly(m, "z0"))
    assert not verdict.invariant
    assert verdict.cofactor is None


def test_invariance_is_multiplicative():
    # X(f) = alpha f and X(g) = beta g force X(fg) = (alpha + beta) fg
    m = catalog.weighted(1, 1, 2)
    (radial,) = radial_fields(m)
    f = _poly(m, "z0^2 + z1^2")
    g = _poly(m, "z2 + z0*z1")
    fg = f * g
    vf = check_invariant_hypersurface(radial, f)
    vg = check_invariant_hypersurface(radial, g)
    vfg = check_invariant_hypersurface(radial, fg)
    assert vf.invariant and vg.invariant and vfg.invariant
    assert vfg.cofactor == vf.cofactor + vg.cofactor


def test_invariant_rejects_zero_hypersurface():
    m = catalog.projective(2)
    (euler,) = radial_fields(m)
    for zero in (MultiPoly.zero(m.coord_names), GradedPoly(m, MultiPoly.zero(m.coord_names))):
        with pytest.raises(ValueError, match="^hypersurface polynomial must be nonzero$"):
            check_invariant_hypersurface(euler, zero)


def test_any_degree_marker():
    assert repr(ANY_DEGREE) == "ANY_DEGREE"
    assert ANY_DEGREE == ANY_DEGREE
    assert not ANY_DEGREE == 0 and ANY_DEGREE != 0


def test_exact_divide():
    table = ("x", "y")
    f = parse_polynomial("x^2 - y^2", table)
    g = parse_polynomial("x - y", table)
    assert exact_divide(f, g) == parse_polynomial("x + y", table)
    assert exact_divide(f, parse_polynomial("x", table)) is None
    zero = MultiPoly.zero(table)
    assert exact_divide(zero, g) == zero and exact_divide(zero, g).vars == table


def test_degree_bookkeeping_of_descending_form():
    # each component of a degree-d descending form has degree d - h_i
    w = (1, 7, 3, 5)
    m = catalog.weighted(*w)
    comps = _components(m, "-7*z1", "z0", "-5*z3", "3*z2")
    form = OneFormExpr(m, comps)
    assert check_descends(m, form)
    d = (8,)  # w0 + w1 = w2 + w3 = 8
    for i, comp in enumerate(comps):
        deg = check_quasi_homogeneous(m, comp)
        assert deg == (d[0] - w[i],)


def _outcome(call):
    """What a call gives: its value, or the type and text of its refusal."""
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _seeded_poly(rng, coords, terms=3):
    exps = [tuple(rng.randint(0, 2) for _ in coords) for _ in range(terms)]
    return MultiPoly(coords, {e: rng.randint(-3, 3) for e in exps})


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.name)
def test_equal_models_check_polynomials_alike(m):
    # a model file and a replaced copy are the model: they have its
    # coordinates, answer as it does and refuse with its texts
    twins = (parse_model(serialize_model(m)), replace(m))
    coords = m.coord_names
    z = [MultiPoly.variable(v, coords) for v in coords]
    form_of_p1 = OneFormExpr(catalog.projective(1), (MultiPoly.zero(("z0", "z1")),) * 2)
    rng = random.Random(len(coords))
    refusals = [lambda t: check_quasi_homogeneous(t, MultiPoly(("x",), {(1,): 1})),
                lambda t: check_descends(t, form_of_p1),
                lambda t: frobenius_integrable(t, None)]
    calls = refusals + [lambda t: [f.components for f in radial_fields(t)]]
    for _ in range(4):
        g, f = _seeded_poly(rng, coords), _seeded_poly(rng, coords)
        # g (z1 dz0 - z0 dz1) descends and is integrable: z0 and z1 share a class
        rotation = (g * z[1], -g * z[0]) + (MultiPoly.zero(coords),) * (len(coords) - 2)
        seeded = tuple(_seeded_poly(rng, coords, 2) for _ in coords)
        for form in (OneFormExpr(m, rotation), OneFormExpr(m, seeded)):
            calls += [lambda t, form=form: check_descends(t, form),
                      lambda t, form=form: frobenius_integrable(t, form)]
        calls += [lambda t, f=f: check_quasi_homogeneous(t, f),
                  lambda t, f=f: check_quasi_homogeneous(t, GradedPoly(m, f)),
                  lambda t, g=g: check_quasi_homogeneous(t, g * z[0] + g * z[1])]
    expected = [_outcome(lambda: call(m)) for call in calls]
    assert all(expected[i][0] == "ValueError" for i in range(len(refusals)))
    assert True in expected and False in expected
    for twin in twins:
        assert twin == m and twin.coord_names == coords
        assert [_outcome(lambda: call(twin)) for call in calls] == expected
