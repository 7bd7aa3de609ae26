"""The intersection ring of a model: `ChowElement` values and the series,
Chern classes and integrals on them.

A `ChowElement` is a polynomial in the Picard generators whose coefficients
may themselves be polynomials in formal degree symbols; the grading that
matters is total degree in the generators only.  The series run the kernel
of the counts, `chow._pass`, on the chain t^k, ..., t, 1 of term dicts,
highest degree first: in edge order it multiplies by (1 + x t) and gives
the elementary series (`elementary_series`, and so
`elementary_symmetric_classes` and `chern_class`); with the edges reversed
it divides by (1 - x t) and gives the complete series (`complete_series`,
`wronski_classes`).  `integrate` pairs an element's degree-n part with the
tensor's integer weights through `chow._pair`, as the counts do.

No count builds an element: `chow.integrate_count` reads its classes as
Picard vectors, and `formulas` reaches this module only from
`degree_class` and `elementary_symmetric_scalars`, so a count does not
import it.  `class_element` turns the same vectors into degree-1
elements, with the same refusals (`chow._vector_symbols`).  The old
`chow.<name>` paths resolve here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import chow
from .chow import (
    NOT_A_MODEL, ScalarExpr, ToricModel, _check_symbols, _exact_scalar, _pair, _Terms,
    _vector_symbols,
)
from .exactalg import (
    MultiPoly, ScalarLike, _entries, _Frozen, _merged_table, _moved_terms, _typed, aligned,
    as_poly,
)


class ChowElement(_Frozen):
    """Polynomial in Picard generators with scalar-expression coefficients.

    The generator symbols form a prefix of the underlying variable table;
    any further variables are formal degree symbols and take no part in the
    grading.  Elements are frozen, so they may be shared between callers.
    Generators that are a str or no sequence of strs, or a polynomial that
    is no MultiPoly, raise ValueError naming them.
    """

    _fields = ("gens", "poly")

    def __init__(self, gens: tuple[str, ...], poly: MultiPoly):
        gens = _entries(gens, str, "generators must be a sequence of strs, got {!r}",
                        "generator {x!r} is not a str")
        _typed(poly, MultiPoly, "polynomial {!r} is not a MultiPoly")
        if poly.vars[:len(gens)] != gens:
            raise ValueError(f"generators {gens!r} must prefix the table {poly.vars!r}")
        self.__dict__.update(gens=gens, poly=poly)

    # -- ring structure ----------------------------------------------------

    def _merge(self, other: ChowElement) -> tuple[MultiPoly, MultiPoly]:
        if self.gens != other.gens:
            raise ValueError(f"generator mismatch: {self.gens!r} vs {other.gens!r}")
        return aligned(self.poly, other.poly)

    def _coerce(self, value) -> ChowElement | None:
        if isinstance(value, ChowElement):
            return value
        if isinstance(value, (int, Fraction)):
            return ChowElement(self.gens, MultiPoly.const(value, self.poly.vars))
        if isinstance(value, MultiPoly):
            # scalar expression: degree symbols only, no generator collisions
            _check_symbols(self.gens, (value,))
            return ChowElement(self.gens, value.extended(
                self.gens + _merged_table((value.vars,), self.gens)))
        return None

    def __add__(self, other) -> ChowElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._merge(other)
        return ChowElement(self.gens, a + b)

    __radd__ = __add__

    def __neg__(self) -> ChowElement:
        return ChowElement(self.gens, -self.poly)

    def __sub__(self, other) -> ChowElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ChowElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> ChowElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._merge(other)
        return ChowElement(self.gens, a * b)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> ChowElement:
        # a bool is an int to Python, but no power
        if type(exponent) is not int or exponent < 0:
            raise ValueError("power must be a natural number")
        return ChowElement(self.gens, self.poly ** exponent)

    def __eq__(self, other) -> bool:
        if other is True or other is False:
            return NotImplemented  # no number, so == answers False
        if not isinstance(other, ChowElement):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.gens == other.gens and self.poly == other.poly

    __hash__ = None

    def __repr__(self) -> str:
        return f"ChowElement({self.poly.canonical_string()!r})"


def unit_element(gens: Sequence[str]) -> ChowElement:
    gens = tuple(gens)
    return ChowElement(gens, MultiPoly.const(1, gens))


def class_element(model: ToricModel, vec: Sequence[ScalarLike]) -> ChowElement:
    """Promote a Picard vector with scalar-expression entries to degree 1,
    with the refusals of `_vector_symbols`: the entries' terms on one symbol
    table, which follows the generators, the k-th entry's terms with the
    k-th unit exponent."""
    _typed(model, ToricModel, NOT_A_MODEL)
    symbols = _vector_symbols(model, vec)
    terms, zero = {}, (0,) * len(symbols)
    for u, x in zip(model._units, vec):
        if isinstance(x, MultiPoly):
            terms.update((u + e, c) for e, c in _moved_terms(x.terms.items(), x.vars, symbols))
        elif x:
            terms[u + zero] = Fraction(x)
    return ChowElement(model.gens, MultiPoly._trusted(model.gens + symbols, terms))


def elementary_symmetric_classes(model: ToricModel, j: int) -> ChowElement:
    """The j-th elementary symmetric polynomial in the divisor classes.

    The whole series e_0..e_n is computed once per model, on first use, as
    the truncated product of (1 + D_i t); later calls return the same
    element.
    """
    _typed(model, ToricModel, NOT_A_MODEL)
    _typed(j, int, "degree {!r} is not an int")
    if not 0 <= j <= model.dim:
        raise ValueError(f"degree {j} out of range 0..{model.dim}")
    return model._divisor_esym[j]


def chern_class(model: ToricModel, j: int) -> ChowElement:
    """Chern class of the tangent sheaf in degree j: the elementary
    symmetric function of the divisor classes."""
    _typed(model, ToricModel, NOT_A_MODEL)
    _typed(j, int, "degree {!r} is not an int")
    if not 0 <= j <= model.dim:
        raise ValueError(f"degree {j} out of range 0..{model.dim}")
    if j == 0:
        return unit_element(model.gens)
    return elementary_symmetric_classes(model, j)


def wronski_classes(classes: Sequence, j: int):
    """Complete homogeneous symmetric function of degree j.

    A list of degree-1 `ChowElement`s gives a `ChowElement`; a list of
    scalar expressions gives a scalar expression.  The empty list follows
    the zero-variable convention: 1 at j = 0 and 0 beyond.
    """
    return complete_series(classes, j)[j]


def elementary_series(items: Sequence, k: int) -> list:
    """e_0..e_k of a list of degree-1 `ChowElement`s or of scalar expressions:
    the coefficients of prod (1 + x t) over the items, truncated at t^k, one
    `chow._pass` per item; e_j is 0 for j beyond the length of the list."""
    return _series(items, k, divide=False)


def complete_series(items: Sequence, k: int) -> list:
    """h_0..h_k of the same inputs: the coefficients of prod 1 / (1 - x t),
    truncated at t^k, one `chow._pass` per item."""
    return _series(items, k, divide=True)


def _series(items: Sequence, k: int, divide: bool) -> list:
    """Both series, as vectors on the chain t^k, ..., t, 1 of the items' bare
    term tables on one merged variable table, wrapped once at the end.
    Items that are a str or no sequence raise ValueError naming them."""
    items = _entries(items, None, "items must be a sequence of Chow elements or scalar "
                     "expressions, got {!r}")
    _typed(k, int, "degree {!r} is not an int")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    first = items[0] if items and isinstance(items[0], ChowElement) else None
    # Chow elements meet through _merge, which raises on a generator mismatch
    xs = aligned(*(as_poly(x) if first is None else first._merge(first._coerce(x))[1]
                   for x in items))
    table = xs[0].vars if xs else ()
    series = [_Terms() for _ in range(k)] + [_Terms({(0,) * len(table): 1})]
    edges = [(i, 0, i + 1) for i in range(k)]
    for x in xs:
        x = _Terms({e: _exact_scalar(c) for e, c in x.terms.items()})
        chow._pass(series, series, [x], reversed(edges) if divide else edges)
    polys = [_wrap(table, t) for t in reversed(series)]
    return polys if first is None else [ChowElement(first.gens, p) for p in polys]


def _wrap(table: tuple[str, ...], terms: dict) -> MultiPoly:
    return MultiPoly._trusted(table, {e: Fraction(c) for e, c in terms.items()})


def integrate(model: ToricModel, elem: ChowElement | ScalarLike) -> ScalarExpr:
    """Pair the degree-n part against the intersection tensor.

    Terms of any other generator degree contribute nothing, so callers may
    pass whole Chern polynomials or truncated sums unchanged.  Coefficients
    in degree symbols pass through, making the result a scalar expression.
    The products run against the model's integer weights (`_pair`); an
    element on other generators than the model's raises ValueError.  An
    exact scalar (an int, a Fraction, or a scalar expression whose symbols
    are no generators) has no degree-n part and integrates to 0; any other
    value raises ValueError naming it.
    """
    _typed(model, ToricModel, NOT_A_MODEL)
    if not isinstance(elem, ChowElement):
        if isinstance(elem, MultiPoly):
            _check_symbols(model.gens, (elem,))
        elif not isinstance(elem, (int, Fraction)) or isinstance(elem, bool):
            raise ValueError(f"{elem!r} is not a Chow element or an exact scalar")
        return MultiPoly.zero()
    if elem.gens != model.gens:
        raise ValueError(f"generator mismatch: {elem.gens!r} vs {model.gens!r}")
    r = len(elem.gens)
    den, weights = model._integer_tensor
    # the tensor keys are exactly the degree-n exponents of nonzero weight
    return _pair(den, elem.poly.vars[r:], (
        (weight, exp[r:], coeff) for exp, coeff in elem.poly.terms.items()
        if (weight := weights.get(exp[:r]))))


def _divisor_esym(model: ToricModel) -> tuple[ChowElement, ...]:
    """e_0..e_n of the divisor classes, the lazy field
    `ToricModel._divisor_esym`; see `elementary_symmetric_classes`."""
    return tuple(elementary_series(
        [class_element(model, v) for v in model.divisor_classes], model.dim))
