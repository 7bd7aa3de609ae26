"""Closed-form singularity counts, inequality verdicts, and bounded searches.

Every count is the paper's formula, the integral of prod a_i * [c /
(prod (1 + a_i) * (1 - d))]_(n-m): each hands its classes and its degree
to `chow.integrate_count` as Picard vectors (`_degree_vector`), which it
runs as passes over the tensor's support vector; no count, and no
verdict, builds a `ChowElement`, and only `degree_class` and
`elementary_symmetric_scalars` reach the ring (`ring`).  The verdict types
live in `verdicts`, which the function that builds each imports.
Degrees may be numbers or formal symbols; both run through one code path,
so the symbolic specializations print the displayed count polynomials and
the numeric ones produce exact rationals.

Two degree parameterizations are accepted everywhere: a Picard-basis vector
(length r) or a divisor-coefficient vector (length n+r, summed through the
divisor classes).  The weighted-complete-intersection formulas take
weights and multidegrees, build P(w) (`catalog.weighted`) and run the same
count there.  No count builds a subvariety model: integrals over the
intersection are ambient integrals against its Poincare dual, the product
of its defining classes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, gcd, prod
from typing import TYPE_CHECKING, Sequence

from . import catalog, chow
from .chow import ScalarExpr, ToricModel
from .errors import OrbifoldHypothesisWarning, ToricError
from .exactalg import (
    MultiPoly, ScalarLike, _check_exact, _check_symbol, _variable_table,
    aligned, as_poly,
)

if TYPE_CHECKING:
    from .ring import ChowElement
    from .verdicts import AlphaInvariant, GcdVerdict, InequalityVerdict

KINDS = ("foliation", "distribution")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _integers(what: str, values: Sequence[int]) -> tuple[int, ...]:
    """The values as a tuple; a ValueError names the argument when they are
    no sequence, and the entry when one is not an int, so non-integer data
    is never truncated."""
    values = chow._tuple(values, what + " must be a sequence of ints, got {!r}")
    chow._check_integral(what, (values,))
    return values


def symbolic_degree(model: ToricModel,
                    names: Sequence[str] | None = None) -> tuple[MultiPoly, ...]:
    """A fully symbolic Picard vector; defaults to d1..dr in generator order.
    The names must be one per generator, each a name the parser reads back,
    none a generator name, no two alike; a str or a value that is no
    sequence is refused, as for a model's generator names.  The vector is
    immutable, so one is kept per generator table and names
    (`_symbol_vector`)."""
    if names is None:
        return _symbol_vector(model.gens, None)
    wrong = "symbol names must be a sequence of strs, got {!r}"
    if isinstance(names, str):  # a str is a sequence of strs
        raise ValueError(wrong.format(names))
    return _symbol_vector(model.gens, tuple(map(_check_symbol, chow._tuple(names, wrong))))


@lru_cache(maxsize=256)
def _symbol_vector(gens: tuple[str, ...],
                   names: tuple[str, ...] | None) -> tuple[MultiPoly, ...]:
    r = len(gens)
    if names is None:
        names = tuple(f"d{i}" for i in range(1, r + 1))
    if len(names) != r:
        raise ValueError(f"expected {r} symbol names, got {names!r}")
    if not set(names).isdisjoint(gens):
        raise ValueError("degree symbols may not collide with generator names")
    names, one = _variable_table(names), Fraction(1)
    # the k-th symbol's exponent on its own table is the k-th unit exponent
    return tuple(MultiPoly._trusted(names, {tuple(int(i == k) for i in range(r)): one})
                 for k in range(r))


def degree_class(model: ToricModel, degree) -> ChowElement:
    """Normalize a degree input to its degree-1 element.

    Accepts a scalar (rank-1 models), a Picard vector of length r, a
    divisor-coefficient vector of length n+r, or `"symbolic"`, the sum of
    d_k times the k-th generator (`symbolic_degree`).
    """
    return chow.class_element(model, _degree_vector(model, degree))


def _degree_vector(model: ToricModel, degree) -> tuple:
    """The Picard vector of a degree input (see `degree_class`), as the
    counts hand it to `chow.integrate_count`, which checks its entries."""
    if isinstance(degree, str):
        if degree == "symbolic":
            return symbolic_degree(model)
        raise ValueError(f"unrecognized degree {degree!r}")
    return picard_vector(model, degree)


def picard_vector(model: ToricModel, degree) -> tuple:
    if isinstance(degree, (int, Fraction, MultiPoly)):
        _check_exact(degree)
        if model.rank != 1:
            raise ValueError(
                f"scalar degree is ambiguous on a rank-{model.rank} model")
        return (degree,)
    try:
        vec = tuple(degree)
    except TypeError:
        raise ValueError(f"degree {degree!r} is neither a scalar expression "
                         "nor a sequence") from None
    if len(vec) == model.rank:
        return vec
    if len(vec) == model.dim + model.rank:
        return chow.class_of_divisor_coeffs(model, vec)
    raise ValueError(
        f"degree vector must have length {model.rank} (Picard) or "
        f"{model.dim + model.rank} (divisor coefficients), got {len(vec)}")


# ---------------------------------------------------------------------------
# ambient and hypersurface counts


def foliation_sing_count(model: ToricModel, degree) -> ScalarExpr:
    """Number of singular points, with multiplicity, of a generic
    one-dimensional foliation of the given degree."""
    return chow.integrate_count(model, twist=_degree_vector(model, degree))


def gcd_obstruction(model: ToricModel, divisor_coeffs: Sequence[int]) -> GcdVerdict:
    """Divisibility obstruction to regularity on smooth models.

    When the gcd of the divisor coefficients does not divide the Euler
    number, every foliation of that degree is singular.
    """
    from .verdicts import GcdVerdict
    if not model.smooth:
        raise ToricError(
            "gcd obstruction applies to smooth models only; "
            f"{model.name} is an orbifold")
    coeffs = _integers("divisor coefficients", divisor_coeffs)
    if len(coeffs) != model.dim + model.rank:
        raise ValueError(
            f"expected {model.dim + model.rank} divisor coefficients")
    chi = chow.integrate_count(model).constant_value()
    if chi.denominator != 1:
        raise ToricError(
            f"Euler number {chi} is not an integer; obstruction inapplicable")
    g = gcd(*coeffs)
    if g == 0:
        forces = chi != 0
    else:
        forces = int(chi) % g != 0
    return GcdVerdict(chi=chi, gcd=g, forces_singular=forces)


def _ci_count(model: ToricModel, a: Sequence[tuple], d: tuple,
              kind: str) -> ScalarExpr:
    """The count on the complete intersection of the classes a at degree d,
    all Picard vectors.  A distribution counts as (-1)^(n-m) times a
    foliation at -d: the signed sum sum_j (-1)^j g_j d^(n-m-j) is the plain
    sum at -d times (-1)^(n-m), and 1 / (1 - (-d)) = 1 / (1 + d), so d
    divides like an `over` class."""
    if kind == "foliation":
        return chow.integrate_count(model, a, a, d)
    return (-1) ** (model.dim - len(a)) * chow.integrate_count(model, a, (*a, d))


def restricted_sing_count(model: ToricModel, degree, hyp,
                          kind: str = "foliation") -> ScalarExpr:
    """Singularity count of the restriction to an invariant quasi-smooth
    hypersurface of class `hyp`."""
    _check_kind(kind)
    d = _degree_vector(model, degree)
    return _ci_count(model, [_degree_vector(model, hyp)], d, kind)


def hypersurface_euler(model: ToricModel, hyp) -> ScalarExpr:
    """Orbifold Euler characteristic of a quasi-smooth hypersurface."""
    a = _degree_vector(model, hyp)
    return chow.integrate_count(model, (a,), (a,))


def complement_sing_count(model: ToricModel, degree, hyp) -> ScalarExpr:
    """Singularities lying off an invariant hypersurface (nondegenerate
    case): the ambient count minus the restricted count."""
    d = _degree_vector(model, degree)
    a = _degree_vector(model, hyp)
    return chow.integrate_count(model, (), (a,), d)


def complement_euler(model: ToricModel, hyp) -> ScalarExpr:
    """Euler characteristic of the hypersurface complement (smooth case)."""
    return chow.integrate_count(model, over=(_degree_vector(model, hyp),))


# ---------------------------------------------------------------------------
# weighted complete intersections in P(w) (tensor route)


def _weighted(weights: Sequence[int], classes: Sequence[int]
              ) -> tuple[ToricModel, tuple[int, ...], tuple[int, ...]]:
    """P(w), the weights and the multidegrees, all ints and the
    multidegrees positive: the hypothesis of every weighted entry point.
    `catalog.weighted` refuses a common factor and warns, once, on factors
    shared by some of the weights."""
    w = _integers("weights", weights)
    if len(w) < 2 or any(x < 1 for x in w):
        raise ValueError("weights must be at least two positive integers")
    a = _integers("classes", classes)
    if any(x < 1 for x in a):
        raise ValueError("complete-intersection multidegrees must be positive")
    return catalog.weighted(*w), w, a


def elementary_symmetric_scalars(values: Sequence[ScalarLike], j: int) -> ScalarExpr:
    return chow.elementary_series(values, j)[j]


def _wci_classes(weights: Sequence[int], classes: Sequence[int],
                 kind: str) -> tuple[ToricModel, list[tuple]]:
    """P(w) (`_weighted`) and the multidegrees as its classes, after the
    checks the two weighted complete-intersection counts share."""
    _check_kind(kind)
    model, _, a = _weighted(weights, classes)
    return model, _ci_classes(model, a)


def wci_sing_count_parts(weights: Sequence[int], classes: Sequence[int],
                         degree: ScalarLike,
                         kind: str = "foliation") -> list[ScalarExpr]:
    """The per-power contributions to `wci_sing_count`, highest power of the
    degree first.  The pieces already carry the distribution signs and the
    orbifold degree factor, so they sum to the count.  They are the
    coefficients of the count on P(w) at the degree symbol d1, so the
    caller's degree, a number or a polynomial in any symbols, never enters
    the model."""
    model, a = _wci_classes(weights, classes, kind)
    top = model.dim - len(a)
    d = as_poly(degree)
    count = _ci_count(model, a, symbolic_degree(model), kind)
    return [count.coefficient((top - i,)) * d ** (top - i) for i in range(top + 1)]


def wci_sing_count(weights: Sequence[int], classes: Sequence[int],
                   degree: ScalarLike, kind: str = "foliation") -> ScalarExpr:
    """Singularity count of a degree-d foliation or distribution restricted
    to a smooth complete intersection in a weighted projective space.

    Pick the kind by the defining object, not the name: anything cut out by
    a one-form counts with the distribution signs even when it happens to
    be integrable.

    The count is one `chow.integrate_count` on P(w) at the degree itself:
    the sum of the parts (`wci_sing_count_parts`), (-1)^i times the
    coefficient of d^(n-m-i), is the count at d for a foliation and
    (-1)^(n-m) times the count at -d for a distribution.  So a polynomial
    degree enters the model, and its symbols may not be its generator H.
    """
    model, a = _wci_classes(weights, classes, kind)
    # as_poly refuses the degrees the parts refuse, with their messages
    return _ci_count(model, a, (as_poly(degree),), kind)


def baum_bott_sum(weights: Sequence[int], classes: Sequence[int],
                  degree: ScalarLike) -> ScalarExpr:
    """Sum of Baum-Bott indices on a complete-intersection surface:
    the orbifold degree times the square of d + C1(w) - W1(a).  The weights
    meet `catalog.weighted`'s checks: a common factor raises, and factors
    shared by some of them warn."""
    model, w, a = _weighted(weights, classes)
    n = model.dim
    if len(a) != n - 2:
        raise ValueError(f"surface case needs m = n-2 = {n - 2} classes, got {len(a)}")
    factor = Fraction(prod(a), prod(w))
    base = as_poly(degree) + (sum(w) - sum(a))
    return factor * base ** 2


def general_type_index(weights: Sequence[int], classes: Sequence[int]) -> int:
    """Canonical-degree index: positive exactly when the intersection
    surface is of general type."""
    _, w, a = _weighted(weights, classes)
    return sum(a) - sum(w)


def alpha_invariant(weights: Sequence[int], classes: Sequence[int]) -> AlphaInvariant:
    """Divisibility invariant for regular distributions on a weighted
    complete intersection, together with its Euler characteristic.

    chi is the count `ci_euler` on P(w) and alpha is chi prod(w) / prod(a),
    read as prod(w) times the integral with the factors H^m in place of
    prod(a) H^m."""
    model, w, a = _weighted(weights, classes)
    n, m = model.dim, len(a)
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    alpha = prod(w) * chow.integrate_count(
        model, [model._units[0]] * m, _class_list(model, a)).constant_value()
    chi = Fraction(prod(a), prod(w)) * alpha
    from .verdicts import AlphaInvariant
    return AlphaInvariant(alpha=alpha, chi=chi)


# ---------------------------------------------------------------------------
# complete intersections in smooth toric varieties (tensor route)


def _class_list(model: ToricModel, classes) -> list[tuple]:
    """The Picard vectors of a sequence of degree inputs; a str, whose
    characters are no classes, or a value that is no sequence raises a
    ValueError naming the argument."""
    wrong = "classes must be a sequence of classes, got {!r}"
    if isinstance(classes, str):
        raise ValueError(wrong.format(classes))
    return [_degree_vector(model, c) for c in chow._tuple(classes, wrong)]


def _ci_classes(model: ToricModel, classes) -> list[tuple]:
    """The classes of a complete intersection of positive dimension, m < n."""
    a = _class_list(model, classes)
    if len(a) >= model.dim:
        raise ValueError(f"need m < n, got m={len(a)}, n={model.dim}")
    return a


def ci_sing_count(model: ToricModel, classes, degree,
                  kind: str = "foliation") -> ScalarExpr:
    """Singularity count on a smooth complete intersection, computed as an
    ambient integral against the Poincare dual of the intersection."""
    _check_kind(kind)
    if not model.smooth:
        warnings.warn(
            f"{model.name} is not smooth; the complete-intersection count "
            "assumes that its orbifold points are isolated and that the "
            "intersection misses them", OrbifoldHypothesisWarning,
            stacklevel=2)
    a = _ci_classes(model, classes)
    # on one table, the degree symbols come before the class symbols
    d, *a = _aligned_vectors(_degree_vector(model, degree), *a)
    return _ci_count(model, a, d, kind)


def _aligned_vectors(*vectors: tuple) -> list[tuple]:
    """The vectors with their polynomial entries on one table (`aligned`);
    other entries stay as they are."""
    polys = iter(aligned(*(x for v in vectors for x in v if isinstance(x, MultiPoly))))
    return [tuple(next(polys) if isinstance(x, MultiPoly) else x for x in v)
            for v in vectors]


def ci_euler(model: ToricModel, classes) -> ScalarExpr:
    """Euler characteristic of a smooth complete intersection."""
    a = _ci_classes(model, classes)
    return chow.integrate_count(model, a, a)


def multidegree(model: ToricModel, classes, k: int,
                generator: bool = False) -> ScalarExpr:
    """The k-degree of the intersection: the k-th divisor class (or, with
    `generator`, the k-th generator) raised to its dimension, integrated
    over it."""
    if type(k) is not int:
        raise ValueError(f"index {k!r} is not an int")
    if type(generator) is not bool:  # a str such as 'no' is true
        raise ValueError(f"generator must be a bool, got {generator!r}")
    a = _class_list(model, classes)
    m = len(a)
    n = model.dim
    if m > n:
        raise ValueError("too many classes")
    if generator:
        if not 0 <= k < model.rank:
            raise ValueError(f"generator index {k} out of range 0..{model.rank - 1}")
        h = model._units[k]
    else:
        if not 0 <= k < model.dim + model.rank:
            raise ValueError(
                f"divisor index {k} out of range 0..{model.dim + model.rank - 1}")
        h = model.divisor_classes[k]
    return chow.integrate_count(model, [h] * (n - m) + a)


# ---------------------------------------------------------------------------
# inequality checks


def _verdict(lhs: ScalarExpr, rhs: ScalarExpr) -> InequalityVerdict:
    from .verdicts import InequalityVerdict
    lhs, rhs = aligned(as_poly(lhs), as_poly(rhs))
    slack = rhs - lhs
    holds = slack.constant_value() >= 0 if slack.is_constant() else None
    return InequalityVerdict(lhs=lhs, rhs=rhs, holds=holds, slack=slack)


def poincare_check(variant: str, *, weights: Sequence[int] | None = None,
                   classes=None, degree=None, model: ToricModel | None = None,
                   strict: bool = False) -> InequalityVerdict:
    """Degree-bound verdicts for foliations leaving a complete intersection
    invariant.

    `wci-curve`: sum of the multidegrees of an invariant intersection curve
    against d plus the weight sum.  `wci-general`: adds dim(V)-1 on the
    left.  `toric-curve`: the aggregated multidegree inequality on a smooth
    toric variety, computed against the curve's Poincare dual; `strict`
    tightens the bound by one unit of curve degree, the sharpening valid on
    projective space, and the wci variants refuse it.
    """
    if type(strict) is not bool:  # a str such as 'no' is true
        raise ValueError(f"strict must be a bool, got {strict!r}")
    if variant in ("wci-curve", "wci-general"):
        if strict:
            raise ValueError(f"{variant} has no strict form; only toric-curve has")
        if weights is None or classes is None or degree is None:
            raise ValueError(f"{variant} needs weights, classes, and degree")
        model, w, a = _weighted(weights, classes)
        n = model.dim
        lhs = sum(a)
        if variant == "wci-general":
            # the bound adds dim(V) - 1, so the intersection must be positive
            # dimensional; the curve variant is raw multidegree arithmetic
            if len(a) >= n:
                raise ValueError(f"need m < n, got m={len(a)}, n={n}")
            lhs += (n - len(a)) - 1
        rhs = as_poly(degree) + sum(w)
        return _verdict(as_poly(lhs), rhs)
    if variant == "toric-curve":
        if model is None or classes is None or degree is None:
            raise ValueError("toric-curve needs a model, classes, and degree")
        if model.dim < 2:
            raise ValueError(
                f"toric-curve needs a model of dimension at least 2, got {model.dim}")
        # each vector is checked as the counts check it before any sum,
        # where a bool entry would pass as an int
        a = _class_list(model, classes)
        for v in a:
            chow._vector_symbols(model, v)
        if len(a) != model.dim - 1:
            raise ValueError(f"curve case needs {model.dim - 1} classes, got {len(a)}")
        # the classes on one table, so the sum lists their symbols in order
        a = _aligned_vectors(*a)
        asum = tuple(map(sum, zip(*a)))
        # only the degree-1 part of c(X) meets a curve: c_1 = sum_i D_i
        c1 = tuple(map(sum, zip(*model.divisor_classes)))
        d = _degree_vector(model, degree)
        chow._vector_symbols(model, d)
        cut = 1 if strict else 0
        bound = tuple(x + c - cut for x, c in zip(d, c1))
        lhs = chow.integrate_count(model, [asum, *a])
        rhs = chow.integrate_count(model, [bound, *a])
        return _verdict(lhs, rhs)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# scrolls and bounded searches


def _scroll_coefficients(n: int, s: ScalarLike,
                         d2: ScalarLike) -> tuple[ScalarExpr, ScalarExpr]:
    """`(c0, c1)`: the count `foliation_sing_count` at degree (d1, d2) on a
    scroll with n >= 1 twists summing to s is c1 * d1 + c0.  With u = d2 + 1,
    c1 = n u^(n-1) and c0 = s d2 u^(n-1) + 2 sum_(k<n) u^k, the sum by
    Horner's rule, so numbers and `MultiPoly`s both pass.

    Every tensor key of `catalog.scroll` has L-exponent at most 1, so L^2
    vanishes on the support, and c(X) = (1+L)^2 prod(1 + M - a_i L) reduces
    there to (1+L)^2 ((1+M)^n - s L (1+M)^(n-1)): the count depends on the
    twists only through s, and it is linear in d1."""
    u = d2 + 1
    top, geometric = u ** (n - 1), 1
    for _ in range(n - 1):
        geometric = geometric * u + 1
    return s * d2 * top + 2 * geometric, n * top


def scroll_closed_form(n: int, a: Sequence[int], d1: ScalarLike,
                       d2: ScalarLike) -> ScalarExpr:
    """Closed-form vanishing expression for regular foliations on a scroll.

    For n >= 3 it is the tensor-route count times (-1)^n, as an identity
    of polynomials in d1 and d2:
    `scroll_closed_form(n, a, d1, d2) ==
    (-1)**n * foliation_sing_count(catalog.scroll(*a), (d1, d2))`.
    """
    if type(n) is not int:  # True is no dimension
        raise ValueError(f"n must be an int, got {n!r}")
    if n <= 2:
        raise ValueError("closed form applies in dimension > 2")
    a = _integers("twists", a)
    if len(a) != n:
        raise ValueError(f"need {n} twists, got {len(a)}")
    d1p, d2p = aligned(as_poly(d1), as_poly(d2))
    c0, c1 = _scroll_coefficients(n, sum(a), d2p)
    return (-1) ** n * (c1 * d1p + c0)


@dataclass(frozen=True, order=True, slots=True)
class SearchSolution:
    family: str
    params: tuple[int, ...]
    annotation: str = "accepted"

    def __reduce__(self):
        # the constructor, not the generated `__setstate__`, which sets each
        # field through `object.__setattr__` and doubles a pickle's cost
        return type(self), (self.family, self.params, self.annotation)


# each p-family's ambient P(1,..,1,k) and search: its number of weight-one
# coordinates, its first weight k, and the point (a, d, k) ruled out by a
# cohomological vanishing that the tool flags but does not prove
_P_FAMILIES = {"p111k": (3, 2, None), "p1111k": (4, 1, (2, 1, 1))}


def _p_coefficients(n: int) -> list[dict[tuple[int, int], int]]:
    """The d-coefficients, lowest power first, of the distribution count on
    a degree-a hypersurface of P(1^n, k) times k/a, in closed form as
    integer terms {(em, ek): c} of m^em k^ek with a = m k.  The coefficient
    of d^(n-1-i) is (-1)^i times the coefficient of H^i in
    c(P(w)) / (1 + a H), the inner sum sum_(j<=i) (-1)^j e_(i-j)(w) h_j(a).
    With n weights 1 and one weight k, e_r = C(n, r) + k C(n, r-1); with
    the one class a, h_j = a^j = m^j k^j.  So the inner sum has the terms
    (-1)^j C(n, i-j) m^j k^j and (-1)^j C(n, i-j-1) m^j k^(j+1)."""
    coeffs = []
    for i in reversed(range(n)):
        terms = {}
        for j in range(i + 1):
            sign = (-1) ** (i + j)
            terms[j, j] = sign * comb(n, i - j)
            if j < i:
                terms[j, j + 1] = sign * comb(n, i - j - 1)
        coeffs.append(terms)
    return coeffs


# the largest cutoff that `_one_sign_cutoff` tries
_CUTOFF_TRIES = 16


def _taylor_shift(coeffs: Sequence[int], s: int) -> list[int]:
    """The coefficients of p(x + s), lowest power first, from those of p(x),
    by repeated synthetic division: exact integer steps only."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in reversed(range(i, len(c) - 1)):
            c[j] += s * c[j + 1]
    return c


def _one_sign_cutoff(terms: Sequence[dict[tuple[int, int], int]]) -> int | None:
    """The least m0 <= `_CUTOFF_TRIES` proving the polynomials with integer
    terms {(em, ek): c} in (m, k) one-signed and not all zero at every
    m >= m0, k >= 1; None when no m0 up to it does.  Each polynomial is
    shifted once to k = 1 + x, and `_least_shift` finds m0 from there."""
    polys = []  # per polynomial, per power of x: its coefficients in m
    for t in terms:
        dm = 1 + max((em for em, _ in t), default=0)
        dk = 1 + max((ek for _, ek in t), default=0)
        by_m = [_taylor_shift([t.get((em, ek), 0) for ek in range(dk)], 1)
                for em in range(dm)]
        polys.append([[col[ek] for col in by_m] for ek in range(dk)])
    return _least_shift(polys)


def _least_shift(polys: Sequence[Sequence[Sequence[int]]]) -> int | None:
    """The least t0 <= `_CUTOFF_TRIES` proving the polynomials in (t, x)
    one-signed and not all zero at every t >= t0, x >= 0; None when no t0
    up to it does.  Each polynomial is its coefficient lists in t, lowest
    power first, one per power of x, lowest first: a polynomial in t alone
    is one list.

    The proof is an integer Taylor shift: at t = t0 + y, every coefficient
    of every polynomial has the same sign and some constant term is
    nonzero.  Then at x, y >= 0 each polynomial keeps that sign, and the
    one with the nonzero constant term does not vanish.  The constant terms
    are the values at the corner (t0, 0), each its x^0 list by Horner's
    rule.  A t0 at which they all vanish, or two of them differ in sign,
    fails the proof and is screened out before any shift; a t0 that passes
    shifts each list once, directly by t0."""
    for t0 in range(1, _CUTOFF_TRIES + 1):
        corner = [horner(p[0], t0) for p in polys]
        if not any(corner) or min(corner) < 0 < max(corner):
            continue
        values = [c for p in polys for row in p for c in _taylor_shift(row, t0) if c]
        if min(values) > 0 or max(values) < 0:
            return t0
    return None


def _row_polynomials(terms: Sequence[dict[tuple[int, int], int]],
                     m: int) -> list[list[int]]:
    """The (m, k) polynomials with integer terms {(em, ek): c} at a fixed m,
    as coefficient lists in k, lowest power first."""
    rows = []
    for t in terms:
        row = [0] * (1 + max((ek for _, ek in t), default=0))
        for (em, ek), c in t.items():
            row[ek] += c * m ** em
        rows.append(row)
    return rows


def horner(c: Sequence[int], x: int) -> int:
    """sum_i c[i] * x^i by Horner's rule; exact on integers."""
    acc = 0
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _roots(coeffs: tuple[int, ...]) -> tuple[int, ...] | None:
    """The integer roots d >= 1 of sum_i coeffs[i] * d^i, all of them, found
    by evaluating at each d up to the Cauchy bound 1 + max |c_i| // |c_n|,
    above which no root lies.  None when every coefficient is zero, since
    then every d is a root."""
    if not any(coeffs):
        return None
    lead = next(c for c in reversed(coeffs) if c)
    bound = 1 + max(map(abs, coeffs)) // abs(lead)
    return tuple(d for d in range(1, bound + 1) if horner(coeffs, d) == 0)


@cache
def _p_family_solution_set(family: str):
    """`((m, first, last, roots), ...)`: every (a, d, k) with a = m k,
    k >= 1 and d >= 1 at which the d-coefficients `_p_coefficients(n)`,
    n the family's number of weight-one coordinates, vanish, certified
    once from their integer terms in (m, k).

    Each entry covers the k in [first, last] (`last` None: every k >=
    first) and the roots d, None meaning every d.  The cutoff M
    (`_one_sign_cutoff`, certified from k = 1) proves every pair with
    m >= M one-signed and not all zero, so only the rows m < M are left.
    A row whose polynomials are constant in k is one polynomial for every
    k, a line: the m = 1 row (a = k, a linear cone) is one.  Every other
    row gets its own k-cutoff K from the same certificate, run in k alone
    on the row's coefficient lists (`_least_shift`), and leaves the
    finitely many pairs k < K, each evaluated by Horner's rule.  That is
    K = 3, 2 on the rows m = 2, 3 of `p111k` (M = 4) and 4, 2, 2 on the
    rows m = 2, 3, 4 of `p1111k` (M = 5).  Each certificate screens its
    candidate cutoffs by the polynomials' values at the corner and shifts
    once, at the cutoff it proves: 18 Taylor shifts for `p111k` and 32 for
    `p1111k`.  Each distinct polynomial is solved once."""
    if family not in _P_FAMILIES:
        raise ValueError(f"unknown search family {family!r}")
    terms = _p_coefficients(_P_FAMILIES[family][0])
    cutoff = _one_sign_cutoff(terms)
    if cutoff is None:
        raise ValueError(f"search family {family!r} has no one-sign cutoff "
                         f"in m <= {_CUTOFF_TRIES}")
    pairs = []  # (m, first, last, d-coefficients)
    for m in range(1, cutoff):
        rows = _row_polynomials(terms, m)
        if not any(c for row in rows for c in row[1:]):  # constant in k
            pairs.append((m, 1, None, tuple(horner(row, 0) for row in rows)))
            continue
        k_cutoff = _least_shift([[row] for row in rows])  # polynomials in k alone
        if k_cutoff is None:
            raise ValueError(f"search family {family!r} has no one-sign "
                             f"cutoff in k <= {_CUTOFF_TRIES} at m = {m}")
        pairs += [(m, k, k, tuple(horner(row, k) for row in rows))
                  for k in range(1, k_cutoff)]
    solved = {c: _roots(c) for c in {c for *_, c in pairs}}
    return tuple((m, first, last, solved[c])
                 for m, first, last, c in pairs if solved[c] != ())


# the most solutions a search builds, about 0.4 GB of `SearchSolution`s
# (192 bytes each with its params and list slot, tracemalloc, Python 3.11)
_MAX_SOLUTIONS = 2 * 10 ** 6


def _check_count(family: str, bound: int, count: int) -> None:
    if count > _MAX_SOLUTIONS:
        raise ValueError(f"{family} search at bound {bound} has {count} solutions, "
                         f"more than the {_MAX_SOLUTIONS} a search returns")


def regular_search(family: str, bound: int,
                   scroll_a: Sequence[int] | None = None) -> list[SearchSolution]:
    """Degree data within the bound on which the counting polynomial vanishes.

    Every family answers from a solution set certified for every bound,
    which the bound only filters, so a search costs its output, not its
    bound.  `p111k` and `p1111k` range over weight k and hypersurface
    degree a with k dividing a (the divisibility every smooth weighted
    hypersurface satisfies), and find the distribution degrees d in [1, B]
    for each pair; `_P_FAMILIES` gives each family's first k and its point
    excluded by cohomology.  Their solution set is built once per family
    (`_p_family_solution_set`) from the count's d-coefficients, written
    with a = m k as integer terms in (m, k) in closed form
    (`_p_coefficients`), so a fresh process builds no `MultiPoly` for it.
    An integer Taylor shift proves every pair with m >= 4 (`p111k`) or
    m >= 5 (`p1111k`) one-signed, hence without a root by Descartes' rule
    of signs; a candidate cutoff whose corner values (its shift's constant
    terms) all vanish or differ in sign is screened out before any shift,
    so each proof shifts once.  Below that the m = 1 row has the same
    polynomial at every k, giving the lines (m k, d, k) of its roots d,
    and each other row is one-signed beyond its own k-cutoff, leaving at
    most 5 sporadic pairs.  So `p111k` has no solutions at any bound, and
    `p1111k` has the line (k, 2, k) and the point (2, 1, 1).
    `scroll` finds the (d1, d2) in [-B, B]^2 on the scroll with the given
    twists, where the count is c1 d1 + c0 (`_scroll_coefficients`), with
    u = d2 + 1, c1 = n u^(n-1) and c0 = s d2 u^(n-1) + 2 sum_(k<n) u^k for
    n twists summing to s.  For n >= 2 only four d2 can solve it.  At
    u = 0, c1 = 0 and c0 = 2, so no d1 does.  Otherwise an integer d1 needs
    c1 | c0, hence u^(n-1) | c0, and c0 = 2 mod u since n - 1 >= 1, so
    u | 2: d2 is one of -3, -2, 0, 1, each one `divmod`.  For n = 1,
    c1 = 1, so every d2 gives d1 = -(s d2 + 2): a line, whose d2 range
    within the bound is found by division.  The twists meet the scroll
    builder's own argument checks (`catalog._check_scroll_twists`), with
    its errors, and a twist list that is not a sequence is refused; no
    model is built.  A family that is not a str is unknown.  The bound
    must be an int, not a bool.  A line holds about 2B solutions at bound
    B, so the solutions are counted from the ranges first: more than
    `_MAX_SOLUTIONS` raise ValueError naming the count and the bound,
    before any is built.
    Results are sorted by parameters.  Cohomology exclusions are
    annotations, never silent deletions.  Each result is equal, in every
    field, hash, repr and pickle, to `SearchSolution(family, params,
    annotation)`, but is filled through the slotted class's descriptors
    (`_solutions`), at under half the cost of its frozen `__init__`.
    """
    if type(bound) is not int or bound < 1:
        raise ValueError("bound must be a positive integer")
    if isinstance(family, str) and family in _P_FAMILIES:
        if scroll_a is not None:
            raise ValueError("twists apply to the scroll family only")
        _, k0, excluded = _P_FAMILIES[family]
        rows, count = [], 0
        for m, first, last, roots in _p_family_solution_set(family):
            ks = range(max(first, k0), 1 + (bound // m if last is None
                                            else min(last, bound // m)))
            ds = range(1, bound + 1) if roots is None \
                else [d for d in roots if d <= bound]
            rows.append((m, ks, ds))
            # len(ks) stops at sys.maxsize
            count += max(0, ks.stop - ks.start) * (bound if roots is None else len(ds))
        _check_count(family, bound, count)
        found = [(m * k, d, k) for m, ks, ds in rows for d in ds for k in ks]
    elif family == "scroll":
        if scroll_a is None:
            raise ValueError("scroll search needs the twist list")
        try:  # inline, not `chow._tuple`: that call adds about 4 % to a scroll op
            scroll_a = tuple(scroll_a)
        except TypeError:
            raise ValueError(f"scroll twist list {scroll_a!r} is not a sequence "
                             "of ints") from None
        catalog._check_scroll_twists(scroll_a)
        excluded = None
        n, s = len(scroll_a), sum(scroll_a)
        if n == 1:
            # d1 = -(|s| v + 2) at d2 = sign(s) v, for the v with |d1| <= B
            t, sign = abs(s), -1 if s < 0 else 1
            if t:
                lo, hi = max(-bound, -((bound + 2) // t)), (bound - 2) // t
            else:
                lo, hi = (-bound, bound) if bound >= 2 else (1, 0)
            _check_count(family, bound, hi + 1 - lo)
            found = [(-(t * v + 2), sign * v) for v in range(lo, hi + 1)]
        else:
            found = []
            for d2 in (-3, -2, 0, 1):
                c0, c1 = _scroll_coefficients(n, s, d2)
                d1, r = divmod(-c0, c1)
                if not r and max(abs(d1), abs(d2)) <= bound:
                    found.append((d1, d2))
    else:
        raise ValueError(f"unknown search family {family!r}")
    return _solutions(family, sorted(found), excluded)


def _solutions(family: str, found: list[tuple[int, ...]],
               excluded: tuple[int, ...] | None) -> list[SearchSolution]:
    """`SearchSolution(family, p, annotation)` for each p in order, each
    filled through the class's slot descriptors: the generated frozen
    `__init__` makes one `object.__setattr__` call per field, which costs
    more than twice as much.  The class is read from the module at each
    call, so a replaced `SearchSolution` is the one used."""
    cls = SearchSolution
    new = object.__new__
    set_family, set_params, set_annotation = (
        cls.family.__set__, cls.params.__set__, cls.annotation.__set__)
    solutions = []
    for p in found:
        solution = new(cls)
        set_family(solution, family)
        set_params(solution, p)
        set_annotation(solution, "excluded-by-cohomology" if p == excluded
                       else "accepted")
        solutions.append(solution)
    return solutions



_VERDICTS = frozenset(("AlphaInvariant", "GcdVerdict", "InequalityVerdict"))


def __getattr__(name: str):
    """The verdict types, which live in `verdicts`, on first use."""
    if name not in _VERDICTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verdicts
    value = globals()[name] = getattr(verdicts, name)
    return value
