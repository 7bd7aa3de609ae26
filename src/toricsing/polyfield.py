"""Quasi-homogeneous polynomials, vector fields, and one-forms in
homogeneous coordinates.

Coordinates are graded by the model's class group: the i-th coordinate has
the degree of the i-th invariant divisor.  A polynomial is
quasi-homogeneous when all of its monomials share one class-group degree.
A one-form descends to the quotient exactly when its contraction with
every radial field vanishes, the k-th field being sum_i (D_i)_k z_i d_i
over the k-th column of the divisor classes; a vector field leaves a
hypersurface invariant exactly when it maps the defining polynomial into
the principal ideal it generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from .chow import ToricModel
from .exactalg import MultiPoly, grlex_key


class _AnyDegree:
    """Marker for the degree of the zero polynomial (compatible with all)."""

    def __repr__(self):
        return "ANY_DEGREE"

    def __eq__(self, other):
        return isinstance(other, _AnyDegree)

    __hash__ = None


ANY_DEGREE = _AnyDegree()


@dataclass(frozen=True)
class GradedPoly:
    """A polynomial in the model's homogeneous coordinates."""

    model: ToricModel
    poly: MultiPoly

    def __post_init__(self):
        if self.poly.vars != self.model.coord_names:
            raise ValueError(
                f"polynomial table {self.poly.vars!r} must equal the model "
                f"coordinates {self.model.coord_names!r}")

    def degree(self):
        return check_quasi_homogeneous(self.model, self.poly)


@dataclass(frozen=True)
class VectorFieldExpr:
    """A polynomial vector field, one component per coordinate."""

    model: ToricModel
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        _check_components(self.model, self.components)


@dataclass(frozen=True)
class OneFormExpr:
    """A polynomial one-form; components are the coordinate differentials'
    coefficients."""

    model: ToricModel
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        _check_components(self.model, self.components)


def _check_components(model: ToricModel, components) -> None:
    expected = model.dim + model.rank
    if len(components) != expected:
        raise ValueError(f"expected {expected} components, got {len(components)}")
    for p in components:
        if p.vars != model.coord_names:
            raise ValueError("components must live on the model's coordinates")


def check_quasi_homogeneous(model: ToricModel, poly: MultiPoly | GradedPoly):
    """The common class-group degree of all monomials, when one exists.

    Returns the degree vector (a tuple of length rank), `None` when the
    monomial degrees disagree, and `ANY_DEGREE` for the zero polynomial.
    A raw polynomial must be on the model's coordinates, as in `GradedPoly`,
    and a `GradedPoly` must belong to the model.
    """
    if not isinstance(poly, GradedPoly):
        poly = GradedPoly(model, poly)
    elif poly.model != model:
        raise ValueError(f"polynomial of model {poly.model.name} given for "
                         f"model {model.name}")
    poly = poly.poly
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
    coords = model.coord_names
    z = [MultiPoly.variable(name, coords) for name in coords]
    return [VectorFieldExpr(model, tuple(c * zi for c, zi in zip(column, z)))
            for column in zip(*model.divisor_classes)]


def check_descends(model: ToricModel, form: OneFormExpr) -> bool:
    """True when every radial contraction of the form vanishes identically,
    i.e. the form comes from the quotient."""
    coords = model.coord_names
    for field in radial_fields(model):
        contraction = MultiPoly.zero(coords)
        for r_comp, f_comp in zip(field.components, form.components):
            contraction = contraction + r_comp * f_comp
        if not contraction.is_zero:
            return False
    return True


@dataclass(frozen=True)
class InvariantVerdict:
    invariant: bool
    cofactor: MultiPoly | None


def check_invariant_hypersurface(field: VectorFieldExpr,
                                 hypersurface: MultiPoly | GradedPoly) -> InvariantVerdict:
    """Test whether the field leaves the hypersurface invariant.

    Computes the derivative of the defining polynomial along the field and
    divides by the polynomial itself; invariance means the division is
    exact, and the quotient is the cofactor.
    """
    if isinstance(hypersurface, GradedPoly):
        hypersurface = hypersurface.poly
    if hypersurface.is_zero:
        raise ValueError("hypersurface polynomial must be nonzero")
    model = field.model
    coords = model.coord_names
    derivative = MultiPoly.zero(coords)
    for name, comp in zip(coords, field.components):
        derivative = derivative + comp * hypersurface.derivative(name)
    quotient = exact_divide(derivative, hypersurface)
    return InvariantVerdict(invariant=quotient is not None, cofactor=quotient)


def exact_divide(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly | None:
    """Quotient of an exact polynomial division, or None.

    Single-divisor reduction in graded-lex order; sufficient because the
    test is membership in a principal ideal.
    """
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
    coords = model.coord_names
    P = form.components
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            for k in range(j + 1, len(coords)):
                coeff = (P[i] * (P[k].derivative(coords[j]) - P[j].derivative(coords[k]))
                         + P[j] * (P[i].derivative(coords[k]) - P[k].derivative(coords[i]))
                         + P[k] * (P[j].derivative(coords[i]) - P[i].derivative(coords[j])))
                if not coeff.is_zero:
                    return False
    return True
