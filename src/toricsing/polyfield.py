"""Quasi-homogeneous polynomials, vector fields, and one-forms in
homogeneous coordinates.

Coordinates are graded by the model's class group: the i-th coordinate, z_i
on every model (`ToricModel.coord_names`), has the degree of the i-th
invariant divisor, and one rule (`_on_coordinates`) holds every polynomial,
field and form to the model's coordinates.  A polynomial is
quasi-homogeneous when all of its monomials share one class-group degree.
A one-form descends to the quotient exactly when its contraction with
every radial field vanishes, the k-th field being sum_i (D_i)_k z_i d_i
over the k-th column of the divisor classes; a vector field leaves a
hypersurface invariant exactly when it maps the defining polynomial into
the principal ideal it generates.
"""

from __future__ import annotations

from .chow import NOT_A_MODEL, ToricModel
from .exactalg import MultiPoly, _entries, _Frozen, _typed, grlex_key


class _AnyDegree:
    """Marker for the degree of the zero polynomial (compatible with all)."""

    def __repr__(self):
        return "ANY_DEGREE"

    def __eq__(self, other):
        return isinstance(other, _AnyDegree)

    __hash__ = None


ANY_DEGREE = _AnyDegree()


class GradedPoly(_Frozen):
    """A polynomial in the model's homogeneous coordinates."""

    _fields = ("model", "poly")

    def __init__(self, model: ToricModel, poly: MultiPoly):
        _typed(model, ToricModel, NOT_A_MODEL)
        self.__dict__.update(model=model, poly=_on_coordinates(model, poly, "polynomial"))

    def degree(self):
        return check_quasi_homogeneous(self.model, self.poly)


class VectorFieldExpr(_Frozen):
    """A polynomial vector field, one component per coordinate."""

    _fields = ("model", "components")

    def __init__(self, model: ToricModel, components: tuple[MultiPoly, ...]):
        _typed(model, ToricModel, NOT_A_MODEL)
        self.__dict__.update(model=model, components=_components(model, components))


class OneFormExpr(_Frozen):
    """A polynomial one-form; components are the coordinate differentials'
    coefficients."""

    _fields = ("model", "components")

    def __init__(self, model: ToricModel, components: tuple[MultiPoly, ...]):
        _typed(model, ToricModel, NOT_A_MODEL)
        self.__dict__.update(model=model, components=_components(model, components))


_WRONG_TABLE = "polynomial table {vars!r} must equal the model coordinates {coords!r}"


def _on_coordinates(model: ToricModel, value, argument: str, kind: type = MultiPoly,
                    wrong_table: str = _WRONG_TABLE):
    """The one coordinate rule, for the argument named `argument`: a
    polynomial is a `MultiPoly` on the model's coordinates (else the text
    wrong_table), or a `GradedPoly` of an equal model, and its `MultiPoly`
    is returned; a value of another kind must be of that kind and of an
    equal model.  Every other value is refused with a ValueError naming it."""
    if kind is MultiPoly:
        if type(value) is GradedPoly:
            return _on_coordinates(model, value, argument, GradedPoly).poly
        _typed(value, MultiPoly, f"{argument} {{!r}} is not a MultiPoly or a GradedPoly")
        if value.vars != model.coord_names:
            raise ValueError(wrong_table.format(vars=value.vars, coords=model.coord_names))
        return value
    _typed(value, kind, f"{argument} {{!r}} is not a {kind.__name__}")
    if value.model != model:
        raise ValueError(f"{argument} of model {value.model.name} given for "
                         f"model {model.name}")
    return value


def _components(model: ToricModel, components) -> tuple[MultiPoly, ...]:
    components = _entries(components, None,
                          "components must be a sequence of MultiPolys, got {!r}")
    expected = model.dim + model.rank
    if len(components) != expected:
        raise ValueError(f"expected {expected} components, got {len(components)}")
    return tuple(_on_coordinates(model, p, "component",
                                 wrong_table="components must live on the model's coordinates")
                 for p in components)


def check_quasi_homogeneous(model: ToricModel, poly: MultiPoly | GradedPoly):
    """The common class-group degree of all monomials, when one exists.

    Returns the degree vector (a tuple of length rank), `None` when the
    monomial degrees disagree, and `ANY_DEGREE` for the zero polynomial.
    The polynomial passes the coordinate rule (`_on_coordinates`).
    """
    _typed(model, ToricModel, NOT_A_MODEL)
    poly = _on_coordinates(model, poly, "polynomial")
    if poly.is_zero:
        return ANY_DEGREE
    degrees = set()
    for exp in poly.terms:
        vec = tuple(
            sum(e * model.divisor_classes[i][k] for i, e in enumerate(exp))
            for k in range(model.rank))
        degrees.add(vec)
        if len(degrees) > 1:
            return None
    return degrees.pop()


def radial_fields(model: ToricModel) -> list[VectorFieldExpr]:
    """The radial vector fields spanning the quotient group's Lie algebra,
    one per column of the divisor classes: the k-th is sum_i (D_i)_k z_i d_i,
    so every model has them."""
    _typed(model, ToricModel, NOT_A_MODEL)
    coords = model.coord_names
    z = [MultiPoly.variable(name, coords) for name in coords]
    return [VectorFieldExpr(model, tuple(c * zi for c, zi in zip(column, z)))
            for column in zip(*model.divisor_classes)]


def check_descends(model: ToricModel, form: OneFormExpr) -> bool:
    """True when every radial contraction of the form vanishes identically,
    i.e. the form comes from the quotient."""
    _typed(model, ToricModel, NOT_A_MODEL)
    form = _on_coordinates(model, form, "form", OneFormExpr)
    coords = model.coord_names
    for field in radial_fields(model):
        contraction = MultiPoly.zero(coords)
        for r_comp, f_comp in zip(field.components, form.components):
            contraction = contraction + r_comp * f_comp
        if not contraction.is_zero:
            return False
    return True


class InvariantVerdict(_Frozen):
    _fields = ("invariant", "cofactor")

    def __init__(self, invariant: bool, cofactor: MultiPoly | None):
        self.__dict__.update(invariant=invariant, cofactor=cofactor)


def check_invariant_hypersurface(field: VectorFieldExpr,
                                 hypersurface: MultiPoly | GradedPoly) -> InvariantVerdict:
    """Test whether the field leaves the hypersurface invariant.

    Computes the derivative of the defining polynomial along the field and
    divides by the polynomial itself; invariance means the division is
    exact, and the quotient is the cofactor.
    """
    _typed(field, VectorFieldExpr, "field {!r} is not a VectorFieldExpr")
    model = field.model
    hypersurface = _on_coordinates(model, hypersurface, "hypersurface")
    if hypersurface.is_zero:
        raise ValueError("hypersurface polynomial must be nonzero")
    coords = model.coord_names
    derivative = MultiPoly.zero(coords)
    for name, comp in zip(coords, field.components):
        derivative = derivative + comp * hypersurface.derivative(name)
    quotient = exact_divide(derivative, hypersurface)
    return InvariantVerdict(invariant=quotient is not None, cofactor=quotient)


def exact_divide(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly | None:
    """Quotient of an exact polynomial division, or None.

    Single-divisor reduction in graded-lex order; sufficient because the
    test is membership in a principal ideal.  Either argument that is not
    a MultiPoly raises a ValueError naming it.
    """
    _typed(numerator, MultiPoly, "numerator {!r} is not a MultiPoly")
    _typed(divisor, MultiPoly, "divisor {!r} is not a MultiPoly")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero:
        return MultiPoly.zero(numerator.vars)
    if numerator.vars != divisor.vars:
        raise ValueError("divide requires a shared variable table")
    lead = max(divisor.terms, key=grlex_key)
    lead_coeff = divisor.terms[lead]
    rem = numerator
    quot: dict[tuple[int, ...], object] = {}
    while not rem.is_zero:
        top = max(rem.terms, key=grlex_key)
        diff = tuple(t - l for t, l in zip(top, lead))
        if any(e < 0 for e in diff):
            return None
        coeff = rem.terms[top] / lead_coeff
        quot[diff] = coeff
        rem = rem - MultiPoly(rem.vars, {diff: coeff}) * divisor
    return MultiPoly(numerator.vars, quot)


def frobenius_integrable(model: ToricModel, form: OneFormExpr) -> bool:
    """Frobenius integrability by direct expansion of the wedge ω ∧ dω:
    its C(N, 3) coefficients on N coordinates are tested for zero."""
    _typed(model, ToricModel, NOT_A_MODEL)
    P = _on_coordinates(model, form, "form", OneFormExpr).components
    coords = model.coord_names
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            for k in range(j + 1, len(coords)):
                coeff = (P[i] * (P[k].derivative(coords[j]) - P[j].derivative(coords[k]))
                         + P[j] * (P[i].derivative(coords[k]) - P[k].derivative(coords[i]))
                         + P[k] * (P[j].derivative(coords[i]) - P[i].derivative(coords[j])))
                if not coeff.is_zero:
                    return False
    return True
