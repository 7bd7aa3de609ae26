"""Divisor-level model of a compact toric orbifold and its intersection calculus.

A `ToricModel` stores the Picard rank, the classes of the torus-invariant
divisors in a chosen Picard basis, and the top-degree intersection tensor:
the linear functional sending each degree-n monomial in the Picard
generators to its orbifold integral.  No middle-degree relations are
imposed; every formula downstream funnels through a top-degree integral,
where the tensor alone determines the answer, so the ring is kept free.

The intersection ring itself, `ChowElement` and the series, Chern classes
and integrals on it, is the module `ring`, which no count imports; its old
paths here (`chow.ChowElement`, `chow.integrate`, ...) resolve there on
first use.

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

Every series, and every count off the products below, runs one kernel,
`_pass`: dst[i] += x[k] * src[j] along the edges (i, k, j) of a vector
sorted highest degree first.  In place in edge order it reads only
entries not yet updated and multiplies by (1 + x); in place with the
edges reversed it reads updated ones and divides by (1 - x); into a fresh
vector it multiplies by x.  On the chain t^k, ..., t, 1 it gives the
series of `ring`.  On the support it gives every count
(`integrate_count`, the paper's prod a_i * [c / (prod (1 + a_i) *
(1 - d))]_(n-m)), where a position carries the generator exponent, so an
entry is a number, or a term dict over the degree-symbol exponents
(`_Terms`); the entries on the tensor keys are read out against the
integer weights directly (`_pair`, which `ring.integrate` shares), and
divided by the common denominator once per output term.  A count takes
its classes as Picard vectors only, `rank` scalar expressions each, and
reads them straight into those per-generator entries, so it builds no
`ChowElement`; `ring.class_element` turns the same vectors into degree-1
elements, with the same refusals (`_vector_symbols`).  A model is its
divisor classes: c(X) = prod (1 + D) over them, with no second route to a
Chern class.

A symbolic count whose degree symbols all sit in its last class, a
divisor (the twist, or else the last of `over`, where a distribution's
degree goes), with each entry 0 or one term c s^e, as
`formulas.symbolic_degree` gives, multiplies no term dict: the other
classes run as passes on numbers, and the last is paired in closed form
by 1 / (1 - D) = sum_alpha (|alpha|! / alpha!) D^alpha (`_twist_count`),
through a pair table of the support built once per index on first use
(`SupportIndex.pairs`).  Every other symbolic count keeps the term-dict
passes.

Products of projective spaces are the exception to the support: a support
of prod (n_k + 1) monomials grows like 2^k.  A count on a model whose
fields are those of such a product (`ToricModel._factor_dims`) runs from
the integer moments int c(X) L^beta instead (`_product_count`): by
Kunneth, int c(X) exp(sum_j tau_j L_j) is the product over the factors
of phi_k(s_k), and the count is a linear functional of that product,
polynomial in k for a fixed set of classes.  It gives way to the support
route when that is smaller.  No count enumerates more than SIZE_BOUND
entries: past it, a support
(`ToricModel._support_index`) or a product count is refused with a
ValueError naming the size, before anything is enumerated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exactalg import (
    MultiPoly, ScalarLike, _check_exact, _entries, _Frozen, _merged_table, _moved_terms,
    _tuple, _typed, _variable_table, as_poly, mul_terms, poly_sum,
)

if TYPE_CHECKING:
    from .ring import ChowElement

# A scalar expression: an exact rational, or a polynomial in degree symbols.
ScalarExpr = MultiPoly

# A Picard-basis vector with scalar-expression entries.
ClassExpr = tuple  # length = model rank


# tensor key sets whose support index is kept at once
SUPPORT_INDEX_CACHE_SIZE = 256

# The most entries a count may enumerate: the monomials of a support, or a
# product count's moments or symbolic terms (`_product_count`).  A count at
# degree 1 on (P^1)^16, whose support holds 65536 monomials, takes 0.7 s on
# a 2-vCPU Xeon VM with Python 3.11.
SIZE_BOUND = 1 << 16


class _lazy:
    """A field of a model or of a support index computed on first use and
    stored in the instance `__dict__`, where later reads find it before
    this non-data descriptor: `functools.cached_property` without the lock
    that 3.10 and 3.11 take on every first access.  Two threads reading a field first at once may both
    compute it; each stores an equal value, as `cached_property` does from
    3.12 on."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _SupportFields(NamedTuple):
    order: tuple[tuple[int, ...], ...]
    pos: Mapping[tuple[int, ...], int]
    edges: tuple[tuple[int, int, int], ...]


class SupportIndex(_SupportFields):
    """The support of a tensor key set: the generator exponents dividing
    some key, sorted by degree, highest first (`order`), the position of
    each there (`pos`), and the edges (i, k, j) in order of i (`edges`):
    monomial j is monomial i less the k-th unit exponent, so j comes after i.
    The keys, all of the top degree, come first in `order`.  The pair table
    of a symbolic twist (`pairs`) is built on first use beside them."""

    @_lazy
    def pairs(self) -> tuple[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]:
        """For each monomial alpha of the support, highest degree first:
        alpha, the multinomial |alpha|! / alpha!, and the pairs (i, j) of
        the keys order[i] >= alpha, j the position of order[i] - alpha.
        It holds sum over the keys of prod (e_k + 1) pairs, the size
        `ToricModel._support_index` bounds (see `_twist_count`)."""
        order, pos = self.order, self.pos
        top = sum(order[0]) if order else 0
        rows: dict[tuple[int, ...], list] = {e: [] for e in order}
        for i, key in enumerate(order):
            if sum(key) != top:
                break
            for alpha in product(*(range(e + 1) for e in key)):
                rows[alpha].append((i, pos[tuple(map(sub, key, alpha))]))
        return tuple((alpha, factorial(sum(alpha)) // prod(map(factorial, alpha)), tuple(p))
                     for alpha, p in rows.items())


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
    """z0, ..., z(size - 1): the coordinate names of every model of n + r = size."""
    return tuple(f"z{i}" for i in range(size))


# the refusal of each exported function that takes a model, given another value
NOT_A_MODEL = "model must be a ToricModel, got {!r}"


class ToricModel(_Frozen):
    """Intersection data of a compact toric orbifold.

    divisor_classes holds the n+r classes [D_i] in the Picard basis, as
    integers; the tensor maps exponent vectors of total degree n to
    integrals (omitted keys integrate to zero).  The classes are required:
    they determine c(X) = prod (1 + D_i), so every Chern class and count,
    and their columns are the radial vector fields (`polyfield`).  The
    model is frozen, the tensor is a read-only mapping, and each instance
    caches its Chern vector and its integer tensor on first use; the
    support index is shared by the models with one tensor key set.  Whether
    it is a product of projective spaces (`_factor_dims`) is such a cache,
    so equal models answer alike.  Tensor keys must hold ints and weights
    must be ints or Fractions; the name and the generator names must be
    strs, the generator names must differ, and smooth must be a bool.  The
    builtins of `catalog` build their models through `_trusted`, which
    skips these checks.  Each exported function that takes a model refuses
    any other value before it reads one (`NOT_A_MODEL`).
    """

    _fields = ("name", "dim", "rank", "gens", "divisor_classes", "tensor", "smooth")

    __hash__ = None  # the tensor mapping is not hashable

    def __init__(self, name: str, dim: int, rank: int, gens: tuple[str, ...],
                 divisor_classes: tuple[tuple[int, ...], ...],
                 tensor: Mapping[tuple[int, ...], Fraction], smooth: bool = True):
        _typed(name, str, "name must be a str, got {!r}")
        _typed(dim, int, "dim must be an int, got {!r}")
        _typed(rank, int, "rank must be an int, got {!r}")
        if dim < 1 or rank < 1:
            raise ValueError("dim and rank must be positive")
        _typed(smooth, bool, "smooth must be a bool, got {!r}")
        wrong_gens = f"expected {rank} generator names, got {{!r}}"
        if isinstance(gens, str):  # with this text, not the wrong_gens of `_entries`
            raise ValueError(f"generator names must be a sequence of strs, got {gens!r}")
        gens = _variable_table(_entries(gens, str, wrong_gens,
                                        "generator name {x!r} is not a str"))
        if len(gens) != rank:
            raise ValueError(wrong_gens.format(gens))
        wrong_classes = f"expected {dim + rank} divisor classes, got {{!r}}"
        wrong_row = "divisor class {!r} is not a sequence of ints"
        divisor_classes = tuple(_tuple(row, wrong_row) for row in
                                _tuple(divisor_classes, wrong_classes))
        if len(divisor_classes) != dim + rank:
            raise ValueError(wrong_classes.format(len(divisor_classes)))
        for v in divisor_classes:
            if len(v) != rank:
                raise ValueError(f"divisor class {v!r} has wrong rank")
        for v in divisor_classes:
            _entries(v, int, wrong_row, "divisor class {values!r} has a non-integer entry {x!r}")
        if not isinstance(tensor, Mapping):
            raise ValueError(f"tensor must map keys to weights, got {tensor!r}")
        weights = {}
        for key, v in tensor.items():
            key = _entries(key, int, "tensor key {!r} is not a sequence of ints",
                           "tensor key {values!r} has a non-integer entry {x!r}")
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"tensor weight {v!r} at key {key!r} is not an int "
                                 "or a Fraction")
            if v:
                weights[key] = v if isinstance(v, Fraction) else Fraction(v)
        for key in weights:
            if len(key) != rank or any(e < 0 for e in key):
                raise ValueError(f"bad tensor key {key!r}")
            if sum(key) != dim:
                raise ValueError(
                    f"tensor key {key!r} has total degree {sum(key)}, expected {dim}")
        self.__dict__.update(name=name, dim=dim, rank=rank, gens=gens,
                             divisor_classes=divisor_classes,
                             tensor=MappingProxyType(weights), smooth=smooth)

    @classmethod
    def _trusted(cls, *, name: str, dim: int, rank: int, gens: tuple[str, ...],
                 divisor_classes: tuple[tuple[int, ...], ...],
                 tensor: dict[tuple[int, ...], Fraction],
                 smooth: bool = True) -> ToricModel:
        """Store the fields of a model this package builds itself, already
        canonical: tuples of ints and `Fraction` weights.  Only what
        validation would change is done: zero weights are dropped and the
        tensor made read-only."""
        model = object.__new__(cls)
        model.__dict__.update(
            name=name, dim=dim, rank=rank, gens=gens,
            divisor_classes=divisor_classes,
            tensor=MappingProxyType({k: v for k, v in tensor.items() if v}),
            smooth=smooth)
        return model

    @property
    def coord_names(self) -> tuple[str, ...]:
        """z0, ..., z(n + r - 1): z_i is the coordinate of the i-th divisor class."""
        return _default_coord_names(self.dim + self.rank)

    @_lazy
    def _divisor_esym(self) -> tuple[ChowElement, ...]:
        """e_0..e_n of the divisor classes, as ring elements (`ring`)."""
        from .ring import _divisor_esym
        return _divisor_esym(self)

    @_lazy
    def _chern_vector(self) -> tuple[int, ...]:
        """c(X) on the support vector, for the counts only: one `_pass` per
        divisor class multiplies 1 by (1 + D).  The entries are ints."""
        order, _, edges = self._support_index
        v = _unit_vector(len(order))
        for d in self.divisor_classes:
            _pass(v, v, d, edges)
        return tuple(v)

    @_lazy
    def _support_index(self) -> SupportIndex:
        """The index of the support, shared by every model with the same
        tensor key set (`_index_support`).  A support that may hold more
        than SIZE_BOUND monomials, sum over the keys of prod (e_k + 1), is
        refused before anything is enumerated.  As e + 1 <= 2^e, that sum is
        at most the number of keys times 2^n, which settles most models at
        once."""
        keys = frozenset(self.tensor)
        if len(keys) << self.dim > SIZE_BOUND:
            size = sum(prod(e + 1 for e in key) for key in keys)
            if size > SIZE_BOUND:
                raise ValueError(f"the support may hold {size} monomials, "
                                 f"past the bound of {SIZE_BOUND}")
        return _index_support(keys)

    @_lazy
    def _integer_tensor(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """The common denominator of the tensor weights, and each weight
        times it, an int."""
        den = lcm(*(v.denominator for v in self.tensor.values()))
        return den, {k: v.numerator * (den // v.denominator)
                     for k, v in self.tensor.items()}

    @_lazy
    def _factor_dims(self) -> tuple[int, ...] | None:
        """(n1, ..., nk) when the fields are those of P^n1 x ... x P^nk,
        k >= 2, whose counts take the product route (`_product_count`): one
        tensor key kappa, of weight 1, each kappa_k >= 1, and the k-th unit
        class kappa_k + 1 times among the divisor classes; None otherwise."""
        if self.rank < 2 or len(self.tensor) != 1:
            return None
        (key, weight), = self.tensor.items()
        units = sorted(v.index(1) for v in self.divisor_classes
                       if sum(v) == 1 and v.count(0) == self.rank - 1)
        expected = [k for k, e in enumerate(key) for _ in range(e + 1)]
        return key if weight == 1 and min(key) >= 1 and units == expected else None

    @_lazy
    def _units(self) -> tuple[tuple[int, ...], ...]:
        """The unit exponents of the generators."""
        return tuple(tuple(int(i == k) for i in range(self.rank))
                     for k in range(self.rank))


def _check_symbols(gens: tuple[str, ...], scalars: Sequence[MultiPoly]) -> None:
    """A scalar expression's table may hold a generator name, which the
    merge of degree symbols (`exactalg._merged_table`) leaves out, only
    unused: a degree symbol may not collide with a generator."""
    for p in scalars:
        if any(v in gens for v in p.vars) and any(v in gens for v in p.used_vars()):
            raise ValueError("degree symbols may not collide with generators")


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
    vector of the class they sum to.  Coefficients that are no sequence
    raise ValueError naming them."""
    _typed(model, ToricModel, NOT_A_MODEL)
    coeffs = _tuple(coeffs, "divisor coefficients must be a sequence of scalar expressions, "
                    "got {!r}")
    if len(coeffs) != model.dim + model.rank:
        raise ValueError(
            f"expected {model.dim + model.rank} divisor coefficients")
    out = []
    for k in range(model.rank):
        total = poly_sum(as_poly(c) * Fraction(v[k])
                         for c, v in zip(coeffs, model.divisor_classes))
        out.append(total if not total.is_constant() else total.constant_value())
    return tuple(out)



def _exact_scalar(c: int | Fraction) -> int | Fraction:
    """An integral coefficient as an int, which the loops multiply fast."""
    return c.numerator if c.denominator == 1 else c


def _pair(den: int, symbols: tuple[str, ...], products) -> ScalarExpr:
    """The sum of weight * c * s^e over the triples (weight, e, c) of an
    integer tensor weight and a coefficient c of the monomial s^e in the
    degree symbols, divided by the tensor's common denominator once: the
    pairing of `ring.integrate` and `integrate_count`.  Integral
    coefficients meet ints only; each output term is one `Fraction`."""
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
    Picard vector, `model.rank` scalar expressions, with the refusals of
    `ring.class_element` (`_vector_symbols`); a value with no length raises
    TypeError.
    Each is read straight into its per-generator entries: a
    number (an int when integral), or with degree symbols a term dict on
    the merged symbol table (`_kernel_terms`).  From c(X)
    (`ToricModel._chern_vector`) one `_pass` per class then multiplies by
    each factor, into a fresh vector, and divides by each 1 + a and by
    1 - twist; the entries on the tensor keys are paired with the integer
    weights (`_pair`).  The result's table merges the symbols of the
    factors, then over's, then the twist's, each in order of first
    appearance: the table `aligned` gives the classes' elements.

    When the last class is a divisor (the twist, or else the last of
    `over`), the only one with degree symbols, and each of its entries is
    0 or one term, as on a `formulas.symbolic_degree` vector, every other
    class runs as a pass on numbers, and the last is paired in closed form
    by the multinomial identity (`_twist_count`), with no term-dict
    product; the value, its table and its `Fraction` coefficients are
    those of the term-dict passes, which every other symbolic count runs.

    On a product of projective spaces (`ToricModel._factor_dims`) the
    same entries go to `_product_count`, which multiplies per-factor
    moments instead, unless the support is the smaller; the value, its
    table and its `Fraction` coefficients are the support route's.  A
    support that may hold more than SIZE_BOUND monomials, and a product
    count past it, raise ValueError before anything is enumerated.  The
    refusals of the classes come first, on either route.
    """
    top = model.dim - len(factors)
    if top < 0:
        raise ValueError(f"{len(factors)} factors exceed the dimension {model.dim}")
    classes = (*factors, *over, *(() if twist is None else (twist,)))
    tables = [_vector_symbols(model, c) for c in classes]
    symbols = [s for s in tables if s]
    table = _merged_table(symbols) if symbols else ()
    f, g = len(factors), len(factors) + len(over)
    # rank 1 or several tensor keys settle it without a lazy field
    dims = model._factor_dims if model.rank > 1 and len(model.tensor) == 1 else None
    # the last class, a divisor, pairs in closed form when it alone carries
    # symbols, one term at most an entry, off the products (`_twist_count`)
    closed = (bool(table) and len(classes) > f and not any(tables[:-1])
              and dims is None
              and all(len(x.terms) <= 1 for x in classes[-1] if isinstance(x, MultiPoly)))
    # the entries of the support vector are term dicts
    terms = bool(table) and not closed
    xs = []
    for i, cls in enumerate(classes):
        # dividing by 1 + a is dividing by 1 - (-a)
        sign = -1 if f <= i < g else 1
        if terms or tables[i]:
            xs.append([_kernel_terms(x, table, sign) for x in cls])
        else:
            # no entry has symbols, so a MultiPoly entry is a constant
            entries = [x if type(x) is int else _exact_scalar(
                x.constant_value() if isinstance(x, MultiPoly) else x) for x in cls]
            xs.append(entries if sign == 1 else [-x for x in entries])
    if dims is not None:
        count = _product_count(model.dim, dims, xs, f, table)
        if count is not None:
            return count
    order, pos, edges = model._support_index
    # with top = 0 only c_0 = 1 enters, so c(X) need not be built
    v = list(model._chern_vector if top else _unit_vector(len(order)))
    if terms:
        zero = (0,) * len(table)
        v = [_Terms({zero: c} if c else {}) for c in v]
    # multiplied first, the factors meet short entries
    for x in xs[:f]:
        w = [_Terms() for _ in v] if terms else [0] * len(v)
        _pass(w, v, x, edges)
        v = w
    for x in xs[f:len(xs) - closed]:
        _pass(v, v, x, reversed(edges))
    if closed:
        return _twist_count(model, v, xs[-1], table)
    den, weights = model._integer_tensor
    if not table:
        return _pair(den, (), ((weight, (), v[pos[key]]) for key, weight in weights.items()))
    return _pair(den, table, ((weight, e, c) for key, weight in weights.items()
                              for e, c in v[pos[key]].items()))


def _twist_count(model: ToricModel, v: list, x: list, table: tuple[str, ...]) -> ScalarExpr:
    """The pairing of v / (1 - X) with the model's tensor, for v a vector
    of numbers on its support and X = sum_k x_k H_k whose entries x_k, term
    dicts on the symbol table, are each 0 or one term c_k s^(e_k).

    By the multinomial identity 1 / (1 - X) = sum_alpha M(alpha) X^alpha,
    M(alpha) = |alpha|! / alpha! (Fulton, Intersection Theory, ch. 3), the
    entry of v / (1 - X) on a key is the sum over alpha <= key of
    M(alpha) x^alpha v[key - alpha], and x^alpha = c^alpha s^(alpha E) is
    one term, E the matrix of the rows e_k.  So the count is the sum over
    alpha of M(alpha) c^alpha A[alpha] s^(alpha E), where A[alpha] = sum
    over the keys >= alpha of w(key) v[key - alpha], integer weights w: the
    index's pair table (`SupportIndex.pairs`) lists those pairs with
    M(alpha).  The terms are found by alpha, which is already the symbol
    exponent when E is the identity, as on a `formulas.symbolic_degree`
    vector, and moved to alpha E otherwise; no term dict is multiplied, and
    each output term is one `Fraction`."""
    index = model._support_index
    den, weights = model._integer_tensor
    w = [weights[key] for key in index.order[:len(weights)]]
    cs, es = [], []  # x_k = c_k s^(e_k), and c_k = 0 for a zero entry
    for y in x:
        (e, c), = y.items() if y else ((None, 0),)
        cs.append(c)
        es.append(e)
    ones = all(c == 1 for c in cs)
    out = {}
    for alpha, multinomial, pairs in index.pairs:
        total = 0
        for i, j in pairs:
            total += w[i] * v[j]
        if total:
            out[alpha] = multinomial * total if ones else \
                multinomial * total * prod(map(pow, cs, alpha))
    if len(table) != len(x) or any(e is None or e[k] != 1 or sum(e) != 1
                                   for k, e in enumerate(es)):
        moved: dict[tuple[int, ...], int | Fraction] = {}
        for alpha, c in out.items():
            if c:
                e = tuple(sum(a * ek[t] for a, ek in zip(alpha, es) if a)
                          for t in range(len(table)))
                moved[e] = moved.get(e, 0) + c
        out = moved
    return MultiPoly._trusted(table, {e: Fraction(c, den) for e, c in out.items() if c})


def _product_count(n: int, dims: tuple[int, ...], xs: list, f: int,
                   table: tuple[str, ...]) -> ScalarExpr | None:
    """The count of `integrate_count` on P^n1 x ... x P^nk from per-factor
    moments, given its pass entries `xs` (the `over` classes negated), the
    first f of them factors; None when the support route enumerates less.

    By Kunneth, c(X) = prod_k (1 + H_k)^(n_k + 1), and an integral of
    pulled-back classes is the product of the factors' integrals, so the
    moments of classes L_j, with s_k = sum_j tau_j L_jk, are
    int c(X) exp(sum_j tau_j L_j) = prod_k phi_k(s_k), where
    phi_k(s) = sum_(a <= n_k) C(n_k + 1, a + 1) s^a / a!
    (Fulton, Intersection Theory, ch. 3): int c(X) L^beta is beta! times
    the tau^beta coefficient.  Equal entries share one variable, e of them
    factors and t of them divisors 1 - x, and the count weighs the beta-th
    moment by prod_j `_weight`(beta_j, e_j, t_j).  Every class is
    multiplied by the common denominator D of all the entries, so the
    moments are ints (or int term dicts), each its state |beta|! [tau^beta]
    over |beta|! / beta! (`_class_moments`, `_joint_moments`); each output
    term is one `Fraction`, over D^n (`_pair`).

    The route is taken unless it reads more moments than the support has
    monomials.  On a support past SIZE_BOUND it is taken, or the count is
    refused before anything is enumerated when its moments, or with degree
    symbols its output terms, may pass SIZE_BOUND too."""
    groups: list[list] = []  # [entries, e, t]
    for i, x in enumerate(xs):
        for group in groups:
            if group[0] == x:
                break
        else:
            group = [x, 0, 0]
            groups.append(group)
        group[1 if i < f else 2] += 1
    if len(groups) == 1:  # one class: its moments are its degrees up to the top
        moments, size = None, (n if groups[0][2] else groups[0][1]) + 1
    else:
        moments = _moment_states(n, tuple((e, t) for _, e, t in groups))
        size = moments[0]
    support = prod(m + 1 for m in dims)
    if support > SIZE_BOUND:
        noun = "moments"
        if table:
            # an output term multiplies at most n_k monomials of the k-th
            # entries per factor, and has degree at most sum_k n_k * deg_k
            zero = (0,) * len(table)
            terms, top = 1, 0
            for k, m in enumerate(dims):
                monos = {u for x, _, _ in groups for u in x[k]} - {zero}
                terms *= comb(m + len(monos), m)
                top += m * max(map(sum, monos), default=0)
            terms = min(terms, comb(top + len(table), top))
            if terms > size:
                size, noun = terms, "terms"
        if size > SIZE_BOUND:
            raise ValueError(f"this product count may hold {size} {noun}, "
                             f"past the bound of {SIZE_BOUND}")
    elif size > support:
        return None
    scale = lcm(*(c.denominator for x, _, _ in groups for y in x
                  for c in (y.values() if table else (y,))))
    if scale != 1:
        for group in groups:
            group[0] = [_Terms({u: c.numerator * (scale // c.denominator) for u, c in y.items()})
                        if table else y.numerator * (scale // y.denominator) for y in group[0]]
    # the moment of degree d lacks D^(n - d)
    lifts = [scale ** (n - d) for d in range(n + 1)]
    if moments is None:
        (x, e, t), = groups
        products = ((_weight(b, e, t) * lifts[b], c, 1) for b, c in
                    enumerate(_class_moments(n, dims, x, e, t, table)) if b >= e)
    else:
        _, need, weight, multinomial, places = moments
        products = ((weight[key] * lifts[d], c, multinomial[key]) for d, level in
                    enumerate(_joint_moments(n, dims, groups, need, places, table))
                    for key, c in level.items() if weight[key])
    if not table:
        return _pair(scale ** n, (), ((w, (), c // mult) for w, c, mult in products))
    return _pair(scale ** n, table, ((w, u, c // mult) for w, terms, mult in products
                                     for u, c in terms.items()))


def _class_moments(n: int, dims: tuple[int, ...], x: list, e: int, t: int,
                   table: tuple[str, ...]) -> list:
    """The moments b! [tau^b] prod_k phi_k(x_k tau) of one class (see
    `_product_count`) by degree, up to e for a class of factors only and to
    n else: from the constant terms of the factors whose entry is 0, each
    other P^m scales the state by m + 1 and adds C(b + a, a) C(m + 1, a + 1)
    x_k^a times its degree b to its degree b + a."""
    top = n if t else e
    one = prod(m + 1 for m, y in zip(dims, x) if not y)
    v = [_Terms({(0,) * len(table): one}), *(_Terms() for _ in range(top))] if table \
        else [one] + [0] * top
    done = 0  # the degrees above it are 0
    for m, y in zip(dims, x):
        if y:
            w = [(m + 1) * z for z in v[:done + 1]] + v[done + 1:]
            for a in range(1, min(m, top) + 1):
                power = power * y if a > 1 else y
                term, c = power if a == m else comb(m + 1, a + 1) * power, 1
                for b in range(min(done, top - a) + 1):
                    if z := v[b]:
                        w[b + a] += z * (c * term if b else term)
                    c = c * (b + a + 1) // (b + 1)  # C(b + a, a) at the next b
            v, done = w, done + m
    return v


def _joint_moments(n: int, dims: tuple[int, ...], groups: list, need: dict[int, int],
                   places: tuple[int, ...], table: tuple[str, ...]) -> list[dict]:
    """The moments of several classes (see `_product_count`) by degree and
    key, as |beta|! [tau^beta] prod_k phi_k(s_k), made as in `_class_moments`
    with the term C(m + 1, a + 1) (sum_j tau_j x_jk)^a, a multinomial sum,
    and only while their need fits in the factors to come."""
    one = prod(m + 1 for m, *ys in zip(dims, *(x for x, _, _ in groups)) if not any(ys))
    v = [defaultdict(_Terms if table else int) for _ in range(n + max(dims) + 1)]
    v[0][0] = _Terms({(0,) * len(table): one}) if table else one
    far, left, reach = n + 1, n, need.get
    for k, m in enumerate(dims):
        left -= m
        # the terms of (sum_j tau_j x_jk)^a, a <= n_k, as (key of alpha,
        # |alpha|, alpha!, prod_j x_jk^alpha_j), the last an int until a
        # class with degree symbols enters
        terms = [(0, 0, 1, 1)]
        for (x, e, t), place in zip(groups, places):
            if x[k]:
                powers = [1, *accumulate(repeat(x[k], m if t else min(e, m)), mul)]
                terms = [(key + a * place, deg + a, fa * factorial(a), xa * powers[a] if a else xa)
                         for key, deg, fa, xa in terms
                         for a in range(min(len(powers), m - deg + 1))]
        if len(terms) == 1:
            continue
        phi = [(step, a, comb(m + 1, a + 1) * (factorial(a) // fa) * xa)
               for step, a, fa, xa in terms[1:]]
        for b in range(n, -1, -1):
            if level := v[b]:
                for step, a, y in phi:
                    up, y = v[b + a], comb(b + a, a) * y
                    for key, z in level.items():
                        if reach(s := key + step, far) <= left:
                            up[s] += y * z
                for key, z in level.items():
                    level[key] = (m + 1) * z
    return v


def _weight(b: int, e: int, t: int) -> int:
    """[x^b] x^e / (1 - x)^t, b <= e when t = 0: the count's weight of the
    b-th moment of a class that is e factors and t divisors."""
    return 0 if b < e else comb(b - e + t - 1, t - 1) if t else 1


@lru_cache(maxsize=32)
def _moment_states(n: int, shape: tuple[tuple[int, int], ...]) -> tuple:
    """The moments a product count on an n-fold reads, for variables with e
    factors and t divisors 1 - x each (`shape`): the beta with beta_j <= e_j
    where t_j = 0 and |beta| + need(beta) <= n, where need(beta) =
    sum_j max(e_j - beta_j, 0), so that every e_j can still be reached.
    Each is keyed by its digits in base n + 1.  Returns their number, by key
    their need, weight prod_j `_weight`(beta_j, e_j, t_j) and multinomial
    |beta|! / beta!, and the digits' place values.  Past SIZE_BOUND the
    number is its bound prod (e_j + 1) C(n - sum e_j + g, g), over the e_j
    with t_j = 0 and the g variables with t_j > 0, and none is listed."""
    places = tuple((n + 1) ** j for j in range(len(shape)))
    exact = [e for e, t in shape if not t]
    free = len(shape) - len(exact)
    size = prod(e + 1 for e in exact) * comb(n - sum(exact) + free, free)
    if size > SIZE_BOUND:
        return size, {}, {}, {}, places
    spare = n - sum(e for e, _ in shape)
    states, rest = [(0, 0, 0, 1, 1)], n - spare  # rest: the e_j still to come
    for (e, t), place in zip(shape, places):
        rest -= e
        states = [(key + b * place, deg + b, need + max(e - b, 0), w * _weight(b, e, t),
                   mult * comb(deg + b, b))
                  for key, deg, need, w, mult in states
                  for b in range(e + spare + 1 if t else e + 1)
                  if deg + b + need + max(e - b, 0) + rest <= n]
    return len(states), *({s[0]: s[i] for s in states} for i in (2, 3, 4)), places


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
    every series and of every count off the products (see the module
    notes)."""
    for i, k, j in edges:
        if x[k] and src[j]:
            dst[i] += x[k] * src[j]


class _Terms(dict):
    """A term dict with the in-place sum and the product `_pass` takes: an
    entry of a series, or of a symbolic count (over the symbol exponents).
    A product with one term is a shift, whose terms never meet."""

    def __iadd__(self, other: _Terms) -> _Terms:
        for e, c in other.items():
            self[e] = self.get(e, 0) + c
        return self

    def __mul__(self, other: _Terms) -> _Terms:
        many, one = (self, other) if len(other) == 1 else (other, self)
        if len(one) == 1:  # a shift: no two terms meet
            (u, k), = one.items()
            return _Terms({tuple(map(add, e, u)): c * k for e, c in many.items()})
        return _Terms(mul_terms(self, other))

    def __rmul__(self, k: int) -> _Terms:
        return _Terms({e: k * c for e, c in self.items()})


# ---------------------------------------------------------------------------
# the ring's old paths
#
# The ring lives in `ring`, which this module never imports at load time.
# An old `chow.<name>` of the ring resolves there on first use through the
# module `__getattr__` below.  The four functions the tracer of `perfbench`
# wraps by name read this module's namespace, which `__getattr__` does not
# fill, so each is a function here that hands its call to the ring.


def chern_class(model: ToricModel, j: int) -> ChowElement:
    """`ring.chern_class`."""
    from .ring import chern_class
    return chern_class(model, j)


def elementary_symmetric_classes(model: ToricModel, j: int) -> ChowElement:
    """`ring.elementary_symmetric_classes`."""
    from .ring import elementary_symmetric_classes
    return elementary_symmetric_classes(model, j)


def wronski_classes(classes: Sequence, j: int):
    """`ring.wronski_classes`."""
    from .ring import wronski_classes
    return wronski_classes(classes, j)


def integrate(model: ToricModel, elem: ChowElement | ScalarLike) -> ScalarExpr:
    """`ring.integrate`."""
    from .ring import integrate
    return integrate(model, elem)


_RING_NAMES = frozenset((
    "ChowElement", "unit_element", "class_element", "elementary_series",
    "complete_series"))


def __getattr__(name: str):
    if name not in _RING_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ring
    value = globals()[name] = getattr(ring, name)
    return value
