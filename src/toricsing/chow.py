"""Divisor-level model of a compact toric orbifold and its intersection calculus.

A `ToricModel` stores the Picard rank, the classes of the torus-invariant
divisors in a chosen Picard basis, and the top-degree intersection tensor:
the linear functional sending each degree-n monomial in the Picard
generators to its orbifold integral.  No middle-degree relations are
imposed; every formula downstream funnels through a top-degree integral,
where the tensor alone determines the answer, so the ring is kept free.

`ChowElement` values are polynomials in the Picard generators whose
coefficients may themselves be polynomials in formal degree symbols.  The
grading that matters is total degree in the generators only.

The support of a tensor (the monomials dividing some tensor key) depends
only on its key set, and families share key sets: every weighted P^n of
one dimension has the single key (n,).  So the support is indexed once per
key set, in a bounded module-level cache (`_index_support`): the support
sorted by degree, highest first, the position of each monomial there, and
the down-edges (i, k, j) from monomial i to j = i - u_k, all immutable.
Off the support lies an upward-closed set, every monomial above degree n
included, that integrates to zero, so a product may drop it at any step.
Models are frozen, so each caches, on first use, that shared index, its
tensor as integer weights over one common denominator, and its Chern
vector, c = prod (1 + D_i) on the support (`_chern_vector`).

Every series and every count here runs one kernel, `_pass`: dst[i] +=
x[k] * src[j] along the edges (i, k, j) of a vector sorted highest degree
first.  In place in edge order it reads only entries not yet updated and
multiplies by (1 + x); in place with the edges reversed it reads updated
ones and divides by (1 - x); into a fresh vector it multiplies by x.  On
the chain t^k, ..., t, 1 it gives the elementary series
(`elementary_series`, and so `elementary_symmetric_classes` and
`chern_class`) and the complete series (`complete_series`,
`wronski_classes`), complete elements built only when asked for.  On the
support it gives every count (`integrate_count`, the paper's prod a_i *
[c / (prod (1 + a_i) * (1 - d))]_(n-m)), where a position carries the
generator exponent, so an entry is a number, or a term dict over the
degree-symbol exponents (`_Terms`); the entries on the tensor keys are
read out against the integer weights directly (`_pair`, which `integrate`
shares), and divided by the common denominator once per output term.
A count takes its classes as Picard vectors only, `rank` scalar
expressions each, and reads them straight into those per-generator
entries, so it builds no `ChowElement`; `class_element` turns the same
vectors into degree-1 elements for the ring, with the same refusals
(`_vector_symbols`).  The model-file check of Chern overrides against
divisor classes (`check_chern_consistency`) is counts too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import UnsupportedModelError
from .exactalg import (
    MultiPoly, ScalarLike, _check_exact, _merged_table, _moved_terms,
    _variable_table, aligned, as_poly, mul_terms, poly_sum,
)

# A scalar expression: an exact rational, or a polynomial in degree symbols.
ScalarExpr = MultiPoly

# A Picard-basis vector with scalar-expression entries.
ClassExpr = tuple  # length = model rank


def _check_integral(what: str, rows) -> None:
    """The test is on the type: a bool is an int to Python, but True is no
    weight, class or twist."""
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"{what} {row!r} has a non-integer entry {x!r}")


# tensor key sets whose support index is kept at once
SUPPORT_INDEX_CACHE_SIZE = 256


class SupportIndex(NamedTuple):
    """The support of a tensor key set: the generator exponents dividing
    some key, sorted by degree, highest first (`order`), the position of
    each there (`pos`), and the edges (i, k, j) in order of i (`edges`):
    monomial j is monomial i less the k-th unit exponent, so j comes after i."""

    order: tuple[tuple[int, ...], ...]
    pos: Mapping[tuple[int, ...], int]
    edges: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=SUPPORT_INDEX_CACHE_SIZE)
def _index_support(keys: frozenset[tuple[int, ...]]) -> SupportIndex:
    """The support index of a tensor key set, shared by every model whose
    tensor has these keys."""
    support = frozenset(chain.from_iterable(
        product(*(range(e + 1) for e in key)) for key in keys))
    order = tuple(sorted(support, key=sum, reverse=True))
    pos = {e: i for i, e in enumerate(order)}
    edges = tuple((i, k, pos[e[:k] + (x - 1,) + e[k + 1:]])
                  for i, e in enumerate(order) for k, x in enumerate(e) if x)
    return SupportIndex(order, MappingProxyType(pos), edges)


@lru_cache(maxsize=64)
def _default_coord_names(size: int) -> tuple[str, ...]:
    """z0, ..., z(size - 1): the coordinate names of a model that gives none."""
    return tuple(f"z{i}" for i in range(size))


class _lazy:
    """A model field computed on first use and stored in the instance
    `__dict__`, where later reads find it before this non-data descriptor:
    `functools.cached_property` without the lock that 3.10 and 3.11 take on
    every first access.  Two threads reading a field first at once may both
    compute it; each stores an equal value, as `cached_property` does from
    3.12 on."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class ToricModel:
    """Intersection data of a compact toric orbifold.

    divisor_classes holds the n+r classes [D_i] in the Picard basis, as
    integers; the tensor maps exponent vectors of total degree n to
    integrals (omitted keys integrate to zero).  chern_override supplies
    Chern classes directly for models whose divisor lists are not recorded,
    each a `ChowElement` on the table of the generators alone.
    radial, when present, is the r x (n+r) integer matrix of diagonal radial
    vector field coefficients.  The model is frozen, the tensor and the
    overrides are read-only mappings, and each instance caches its Chern
    vector and its integer tensor on first use; the support index is shared
    by the models with one tensor key set.  Tensor keys must hold ints and
    weights must be ints or Fractions, generator names must differ, and
    override degrees must lie in 1..n, each on the generators' table.  The
    builtins of `catalog` build their models through `_trusted`, which
    skips these checks.  Only `catalog.parse_model` runs
    `check_chern_consistency`: a model built here directly takes its
    overrides as given, even where they disagree with its divisor classes,
    and the counts read them.
    """

    name: str
    dim: int
    rank: int
    gens: tuple[str, ...]
    divisor_classes: tuple[tuple[int, ...], ...] | None
    tensor: Mapping[tuple[int, ...], Fraction]
    chern_override: Mapping[int, "ChowElement"] | None = None
    smooth: bool = True
    radial: tuple[tuple[int, ...], ...] | None = None
    coord_names: tuple[str, ...] = field(default=(), compare=False)

    __hash__ = None  # the tensor mapping is not hashable

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        if self.dim < 1 or self.rank < 1:
            raise ValueError("dim and rank must be positive")
        store("gens", _variable_table(self.gens))
        if len(self.gens) != self.rank:
            raise ValueError(f"expected {self.rank} generator names, got {self.gens!r}")
        if self.divisor_classes is not None:
            store("divisor_classes", tuple(tuple(v) for v in self.divisor_classes))
            if len(self.divisor_classes) != self.dim + self.rank:
                raise ValueError(
                    f"expected {self.dim + self.rank} divisor classes, "
                    f"got {len(self.divisor_classes)}")
            for v in self.divisor_classes:
                if len(v) != self.rank:
                    raise ValueError(f"divisor class {v!r} has wrong rank")
            _check_integral("divisor class", self.divisor_classes)
        tensor = {}
        for key, v in self.tensor.items():
            key = tuple(key)
            _check_integral("tensor key", (key,))
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"tensor weight {v!r} at key {key!r} is not an int "
                                 "or a Fraction")
            if v:
                tensor[key] = v if isinstance(v, Fraction) else Fraction(v)
        store("tensor", MappingProxyType(tensor))
        for key in self.tensor:
            if len(key) != self.rank or any(e < 0 for e in key):
                raise ValueError(f"bad tensor key {key!r}")
            if sum(key) != self.dim:
                raise ValueError(
                    f"tensor key {key!r} has total degree {sum(key)}, expected {self.dim}")
        # an empty mapping writes no chern lines, so it reads back as None
        store("chern_override", MappingProxyType(dict(self.chern_override))
              if self.chern_override else None)
        for j, c in (self.chern_override or {}).items():
            # a bool is an int to Python, but would be written `chern True`
            if type(j) is not int or not 1 <= j <= self.dim:
                raise ValueError(f"Chern override degree {j!r} out of range 1..{self.dim}")
            if not (isinstance(c, ChowElement) and self.gens == c.gens == c.poly.vars):
                raise ValueError(f"generator mismatch: elements must use {self.gens!r}; "
                                 f"the Chern override in degree {j} is {c!r}")
        if self.divisor_classes is None:
            override = self.chern_override or {}
            missing = [j for j in range(1, self.dim + 1) if j not in override]
            if missing:
                raise ValueError(
                    "model needs divisor classes or Chern classes for every "
                    f"degree 1..{self.dim}; missing {missing}")
        if self.radial is not None:
            store("radial", tuple(tuple(row) for row in self.radial))
            if len(self.radial) != self.rank or any(
                    len(row) != self.dim + self.rank for row in self.radial):
                raise ValueError("radial data must be an r x (n+r) matrix")
            _check_integral("radial row", self.radial)
        if not self.coord_names:
            store("coord_names", _default_coord_names(self.dim + self.rank))
        elif len(self.coord_names) != self.dim + self.rank:
            raise ValueError("coordinate table must have n+r names")

    @classmethod
    def _trusted(cls, *, name: str, dim: int, rank: int, gens: tuple[str, ...],
                 divisor_classes: tuple[tuple[int, ...], ...] | None,
                 tensor: dict[tuple[int, ...], Fraction],
                 chern_override: dict[int, ChowElement] | None = None,
                 smooth: bool = True,
                 radial: tuple[tuple[int, ...], ...] | None = None,
                 coord_names: tuple[str, ...] = ()) -> ToricModel:
        """Store the fields of a model this package builds itself, already
        canonical: tuples of ints, `Fraction` weights, and overrides on the
        generators' table.  Only what validation would change is done: zero
        weights are dropped, the mappings made read-only, and the default
        coordinate names filled in."""
        model = object.__new__(cls)
        model.__dict__.update(
            name=name, dim=dim, rank=rank, gens=gens,
            divisor_classes=divisor_classes,
            tensor=MappingProxyType({k: v for k, v in tensor.items() if v}),
            chern_override=MappingProxyType(chern_override) if chern_override else None,
            smooth=smooth, radial=radial,
            coord_names=coord_names or _default_coord_names(dim + rank))
        return model

    @_lazy
    def _divisor_esym(self) -> tuple[ChowElement, ...]:
        """e_0..e_n of the divisor classes; see `elementary_symmetric_classes`."""
        return tuple(elementary_series(
            [class_element(self, v) for v in self.divisor_classes], self.dim))

    @_lazy
    def _chern_vector(self) -> tuple[int | Fraction, ...]:
        """c(X) on the support vector, for the counts only: one `_pass` per
        divisor class multiplies 1 by (1 + D), and the positions of degree j
        read the degree-j part of an override c_j instead, the only part a
        count integrates.  Integral entries are ints, which multiply fast."""
        n, (order, _, edges) = self.dim, self._support_index
        given = self.chern_override or {}
        v = _unit_vector(len(order))
        for d in self.divisor_classes if len(given) < n else ():
            _pass(v, v, d, edges)
        for i, e in enumerate(order if given else ()):
            if sum(e) in given:
                v[i] = _exact_scalar(given[sum(e)].poly.terms.get(e, 0))
        return tuple(v)

    @_lazy
    def _support_index(self) -> SupportIndex:
        """The index of the support, shared by every model with the same
        tensor key set (`_index_support`)."""
        return _index_support(frozenset(self.tensor))

    @_lazy
    def _integer_tensor(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """The common denominator of the tensor weights, and each weight
        times it, an int."""
        den = lcm(*(v.denominator for v in self.tensor.values()))
        return den, {k: v.numerator * (den // v.denominator)
                     for k, v in self.tensor.items()}

    @_lazy
    def _units(self) -> tuple[tuple[int, ...], ...]:
        """The unit exponents of the generators."""
        return tuple(tuple(int(i == k) for i in range(self.rank))
                     for k in range(self.rank))


@dataclass(frozen=True)
class ChowElement:
    """Polynomial in Picard generators with scalar-expression coefficients.

    The generator symbols form a prefix of the underlying variable table;
    any further variables are formal degree symbols and take no part in the
    grading.  Elements are frozen, so they may be shared between callers.
    """

    gens: tuple[str, ...]
    poly: MultiPoly

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.poly.vars[:len(self.gens)] != self.gens:
            raise ValueError(
                f"generators {self.gens!r} must prefix the table {self.poly.vars!r}")

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
        if not isinstance(other, ChowElement):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.gens == other.gens and self.poly == other.poly

    __hash__ = None

    def __repr__(self) -> str:
        return f"ChowElement({self.poly.canonical_string()!r})"


def _check_symbols(gens: tuple[str, ...], scalars: Sequence[MultiPoly]) -> None:
    """A scalar expression's table may hold a generator name, which the
    merge of degree symbols (`exactalg._merged_table`) leaves out, only
    unused: a degree symbol may not collide with a generator."""
    for p in scalars:
        if any(v in gens for v in p.vars) and any(v in gens for v in p.used_vars()):
            raise ValueError("degree symbols may not collide with generators")


def unit_element(gens: Sequence[str]) -> ChowElement:
    gens = tuple(gens)
    return ChowElement(gens, MultiPoly.const(1, gens))


def class_element(model: ToricModel, vec: Sequence[ScalarLike]) -> ChowElement:
    """Promote a Picard vector with scalar-expression entries to degree 1,
    with the refusals of `_vector_symbols`: the entries' terms on one symbol
    table, which follows the generators, the k-th entry's terms with the
    k-th unit exponent."""
    symbols = _vector_symbols(model, vec)
    terms, zero = {}, (0,) * len(symbols)
    for u, x in zip(model._units, vec):
        if isinstance(x, MultiPoly):
            terms.update((u + e, c) for e, c in _moved_terms(x.terms.items(), x.vars, symbols))
        elif x:
            terms[u + zero] = Fraction(x)
    return ChowElement(model.gens, MultiPoly._trusted(model.gens + symbols, terms))


def _vector_symbols(model: ToricModel, vec: Sequence[ScalarLike]) -> tuple[str, ...]:
    """The degree symbols of a Picard vector, in order of first appearance
    among its entries, once the vector passes: it must have one entry per
    generator, each an int, a `Fraction` or a `MultiPoly` (a bool is an int
    to Python, but no entry), and no entry may use a generator name as a
    symbol.  A generator name an entry's table holds unused is dropped.
    A value with no length (a number, None, a `ChowElement`) raises
    TypeError naming it."""
    try:
        size = len(vec)
    except TypeError:
        raise TypeError(f"{vec!r} is not a Picard vector") from None
    if size != model.rank:
        raise ValueError(f"expected a Picard vector of length {model.rank}")
    polys = []
    for x in vec:
        if type(x) is int:
            continue
        if isinstance(x, MultiPoly):
            polys.append(x)
        elif isinstance(x, (int, Fraction)):
            _check_exact(x)
        else:
            raise TypeError(f"Picard vector entry {x!r} is not a scalar expression")
    if not polys:
        return ()
    _check_symbols(model.gens, polys)
    return _merged_table((p.vars for p in polys), model.gens)


def class_of_divisor_coeffs(model: ToricModel,
                            coeffs: Sequence[ScalarLike]) -> ClassExpr:
    """Map divisor coefficients (one per invariant divisor) to the Picard
    vector of the class they sum to."""
    if model.divisor_classes is None:
        raise UnsupportedModelError(
            f"model {model.name} records no divisor classes")
    if len(coeffs) != model.dim + model.rank:
        raise ValueError(
            f"expected {model.dim + model.rank} divisor coefficients")
    out = []
    for k in range(model.rank):
        total = poly_sum(as_poly(c) * Fraction(v[k])
                         for c, v in zip(coeffs, model.divisor_classes))
        out.append(total if not total.is_constant() else total.constant_value())
    return tuple(out)


def _check_degree(j) -> None:
    """A series degree or index must be an int: a bool is an int to Python
    but no degree, and a float would fail only at a tuple index."""
    if type(j) is not int:
        raise ValueError(f"degree {j!r} is not an int")


def elementary_symmetric_classes(model: ToricModel, j: int) -> ChowElement:
    """The j-th elementary symmetric polynomial in the divisor classes.

    The whole series e_0..e_n is computed once per model, on first use, as
    the truncated product of (1 + D_i t); later calls return the same
    element.
    """
    _check_degree(j)
    if not 0 <= j <= model.dim:
        raise ValueError(f"degree {j} out of range 0..{model.dim}")
    if model.divisor_classes is None:
        raise UnsupportedModelError(
            f"model {model.name} records no divisor classes")
    return model._divisor_esym[j]


def chern_class(model: ToricModel, j: int) -> ChowElement:
    """Chern class of the tangent sheaf in degree j.

    Uses the supplied override when present, otherwise the elementary
    symmetric function of the divisor classes.
    """
    _check_degree(j)
    if not 0 <= j <= model.dim:
        raise ValueError(f"degree {j} out of range 0..{model.dim}")
    if j == 0:
        return unit_element(model.gens)
    if model.chern_override and j in model.chern_override:
        return model.chern_override[j]
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
    `_pass` per item; e_j is 0 for j beyond the length of the list."""
    return _series(items, k, divide=False)


def complete_series(items: Sequence, k: int) -> list:
    """h_0..h_k of the same inputs: the coefficients of prod 1 / (1 - x t),
    truncated at t^k, one `_pass` per item."""
    return _series(items, k, divide=True)


def _series(items: Sequence, k: int, divide: bool) -> list:
    """Both series, as vectors on the chain t^k, ..., t, 1 of the items' bare
    term tables on one merged variable table, wrapped once at the end."""
    _check_degree(k)
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
        _pass(series, series, [x], reversed(edges) if divide else edges)
    polys = [_wrap(table, t) for t in reversed(series)]
    return polys if first is None else [ChowElement(first.gens, p) for p in polys]


def _exact_scalar(c: int | Fraction) -> int | Fraction:
    """An integral coefficient as an int, which the loops multiply fast."""
    return c.numerator if c.denominator == 1 else c


def _wrap(table: tuple[str, ...], terms: dict) -> MultiPoly:
    return MultiPoly._trusted(table, {e: Fraction(c) for e, c in terms.items()})


def integrate(model: ToricModel, elem: ChowElement | ScalarLike) -> ScalarExpr:
    """Pair the degree-n part against the intersection tensor.

    Terms of any other generator degree contribute nothing, so callers may
    pass whole Chern polynomials or truncated sums unchanged.  Coefficients
    in degree symbols pass through, making the result a scalar expression.
    The products run against the model's integer weights (`_pair`).
    """
    if not isinstance(elem, ChowElement):
        return MultiPoly.zero()
    r = len(elem.gens)
    den, weights = model._integer_tensor
    # the tensor keys are exactly the degree-n exponents of nonzero weight
    return _pair(den, elem.poly.vars[r:], (
        (weight, exp[r:], coeff) for exp, coeff in elem.poly.terms.items()
        if (weight := weights.get(exp[:r]))))


def _pair(den: int, symbols: tuple[str, ...], products) -> ScalarExpr:
    """The sum of weight * c * s^e over the triples (weight, e, c) of an
    integer tensor weight and a coefficient c of the monomial s^e in the
    degree symbols, divided by the tensor's common denominator once: the
    pairing of `integrate` and `integrate_count`.  Integral coefficients
    meet ints only; each output term is one `Fraction`."""
    out: dict[tuple[int, ...], int | Fraction] = {}
    for weight, e, c in products:
        if c:
            prev = out.get(e)
            out[e] = c * weight if prev is None else prev + c * weight
    return MultiPoly._trusted(symbols, {e: Fraction(c, den) for e, c in out.items() if c})


def integrate_count(model: ToricModel, factors: Sequence = (), over: Sequence = (),
                    twist=None) -> ScalarExpr:
    """The integral of prod(factors) * [c(X) / (prod_{a in over} (1 + a) *
    (1 - twist))]_top, top = n - len(factors): every count in `formulas`,
    with over = factors on a complete intersection.  Each class is a
    Picard vector, `model.rank` scalar expressions, with `class_element`'s
    refusals (`_vector_symbols`); a value with no length raises TypeError.
    Each is read straight into its per-generator entries: a
    number (an int when integral), or with degree symbols a term dict on
    the merged symbol table (`_kernel_terms`).  From c(X)
    (`ToricModel._chern_vector`) one `_pass` per class then multiplies by
    each factor, into a fresh vector, and divides by each 1 + a and by
    1 - twist; the entries on the tensor keys are paired with the integer
    weights (`_pair`).  The result's table merges the symbols of the
    factors, then over's, then the twist's, each in order of first
    appearance: the table `aligned` gives the classes' elements.
    """
    top = model.dim - len(factors)
    if top < 0:
        raise ValueError(f"{len(factors)} factors exceed the dimension {model.dim}")
    classes = (*factors, *over, *(() if twist is None else (twist,)))
    symbols = [s for s in (_vector_symbols(model, c) for c in classes) if s]
    table = _merged_table(symbols) if symbols else ()
    f, g = len(factors), len(factors) + len(over)
    xs = []
    for i, cls in enumerate(classes):
        # dividing by 1 + a is dividing by 1 - (-a)
        sign = -1 if f <= i < g else 1
        if table:
            xs.append([_kernel_terms(x, table, sign) for x in cls])
        else:
            # no entry has symbols, so a MultiPoly entry is a constant
            entries = [x if type(x) is int else _exact_scalar(
                x.constant_value() if isinstance(x, MultiPoly) else x) for x in cls]
            xs.append(entries if sign == 1 else [-x for x in entries])
    order, pos, edges = model._support_index
    # with top = 0 only c_0 = 1 enters, so c(X) need not be built
    v = list(model._chern_vector if top else _unit_vector(len(order)))
    if table:
        zero = (0,) * len(table)
        v = [_Terms({zero: c} if c else {}) for c in v]
    # multiplied first, the factors meet short entries
    for x in xs[:f]:
        w = [_Terms() for _ in v] if table else [0] * len(v)
        _pass(w, v, x, edges)
        v = w
    for x in xs[f:]:
        _pass(v, v, x, reversed(edges))
    den, weights = model._integer_tensor
    if not table:
        return _pair(den, (), ((weight, (), v[pos[key]]) for key, weight in weights.items()))
    return _pair(den, table, ((weight, e, c) for key, weight in weights.items()
                              for e, c in v[pos[key]].items()))


def _kernel_terms(x: ScalarLike, table: tuple[str, ...], sign: int) -> _Terms:
    """sign times a Picard vector entry, an int, a `Fraction` or a
    `MultiPoly`, as a `_pass` entry on the merged symbol table."""
    if isinstance(x, MultiPoly):
        return _Terms((e, sign * _exact_scalar(c))
                      for e, c in _moved_terms(x.terms.items(), x.vars, table))
    return _Terms({(0,) * len(table): sign * _exact_scalar(x)} if x else {})


def _unit_vector(size: int) -> list[int]:
    """1 on a support of this size: the zero exponent sorts last."""
    return [0] * (size - 1) + [1] if size else []


def _pass(dst: list, src: list, x: Sequence, edges) -> None:
    """dst[i] += x[k] * src[j] along the edges (i, k, j): the one kernel of
    every series and count here (see the module notes)."""
    for i, k, j in edges:
        if x[k] and src[j]:
            dst[i] += x[k] * src[j]


class _Terms(dict):
    """A term dict with the in-place sum and the product `_pass` takes: an
    entry of a series, or of a symbolic count (over the symbol exponents)."""

    def __iadd__(self, other: _Terms) -> _Terms:
        for e, c in other.items():
            self[e] = self.get(e, 0) + c
        return self

    def __mul__(self, other: _Terms) -> _Terms:
        return _Terms(mul_terms(self, other))


def check_chern_consistency(model: ToricModel) -> None:
    """For models carrying both divisor classes and Chern overrides, verify
    that `integrate_count` with and without the overrides agrees on each
    support monomial of degree n - j, for each override c_j.  Every count
    is a sum of such integrals, and off the support both vanish.  Raises
    ValueError naming the first disagreement."""
    if model.divisor_classes is None or not model.chern_override:
        return
    plain = replace(model, chern_override=None)
    order = model._support_index.order
    for j in sorted(model.chern_override):
        for mono in sorted(e for e in order if sum(e) == model.dim - j):
            factors = [u for u, x in zip(model._units, mono) for _ in range(x)]
            if integrate_count(model, factors) != integrate_count(plain, factors):
                raise ValueError(
                    f"Chern routes disagree in degree {j} against monomial {mono}")
