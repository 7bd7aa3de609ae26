"""Closed-form singularity counts, inequality verdicts, and bounded searches.

Every count is the paper's formula, the integral of prod a_i * [c /
(prod (1 + a_i) * (1 - d))]_(n-m): each hands its classes and its degree
to `chow.integrate_count`, which prunes its products to what the tensor
can see.  Degrees may be numbers or formal symbols; both run through one
code path, so the symbolic specializations print the displayed count
polynomials and the numeric ones produce exact rationals.

Two degree parameterizations are accepted everywhere: a Picard-basis vector
(length r) or a divisor-coefficient vector (length n+r, summed through the
divisor classes).  The weighted-complete-intersection formulas work on
weight and multidegree scalars directly and never build a subvariety model:
integrals over the intersection are ambient integrals against its
Poincare dual, the product of its defining classes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, prod
from typing import Sequence

from . import catalog, chow
from .chow import ChowElement, ScalarExpr, ToricModel
from .errors import NotWellFormedWarning, OrbifoldHypothesisWarning, ToricError
from .exactalg import (
    MultiPoly, ScalarLike, _check_symbol, _variable_table, aligned, as_poly,
    integer_roots, poly_sum,
)

KINDS = ("foliation", "distribution")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _integers(what: str, values: Sequence[int]) -> tuple[int, ...]:
    """The values as a tuple; a ValueError names the argument and the entry
    when one is not an int, so non-integer data is never truncated."""
    values = tuple(values)
    chow._check_integral(what, (values,))
    return values


def symbolic_degree(model: ToricModel,
                    names: Sequence[str] | None = None) -> tuple[MultiPoly, ...]:
    """A fully symbolic Picard vector; defaults to d1..dr in generator order.
    The names must be one per generator, each a name the parser reads back,
    none a generator name, no two alike.  The vector is immutable, so one
    is kept per generator table and names (`_symbol_vector`)."""
    return _symbol_vector(model.gens, None if names is None
                          else tuple(map(_check_symbol, names)))


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
    if isinstance(degree, str):
        if degree == "symbolic":
            return chow.class_element(model, symbolic_degree(model))
        raise ValueError(f"unrecognized degree {degree!r}")
    return chow.class_element(model, picard_vector(model, degree))


def picard_vector(model: ToricModel, degree) -> tuple:
    if isinstance(degree, (int, Fraction, MultiPoly)):
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
    return chow.integrate_count(model, twist=degree_class(model, degree))


@dataclass(frozen=True)
class GcdVerdict:
    chi: Fraction
    gcd: int
    forces_singular: bool


def gcd_obstruction(model: ToricModel, divisor_coeffs: Sequence[int]) -> GcdVerdict:
    """Divisibility obstruction to regularity on smooth models.

    When the gcd of the divisor coefficients does not divide the Euler
    number, every foliation of that degree is singular.
    """
    if not model.smooth:
        raise ToricError(
            "gcd obstruction applies to smooth models only; "
            f"{model.name} is an orbifold")
    if len(divisor_coeffs) != model.dim + model.rank:
        raise ValueError(
            f"expected {model.dim + model.rank} divisor coefficients")
    chi = chow.integrate_count(model).constant_value()
    if chi.denominator != 1:
        raise ToricError(
            f"Euler number {chi} is not an integer; obstruction inapplicable")
    g = gcd(*_integers("divisor coefficients", divisor_coeffs))
    if g == 0:
        forces = chi != 0
    else:
        forces = int(chi) % g != 0
    return GcdVerdict(chi=chi, gcd=g, forces_singular=forces)


def _signed(i: int, kind: str) -> int:
    return (-1) ** i if kind == "distribution" else 1


def restricted_sing_count(model: ToricModel, degree, hyp,
                          kind: str = "foliation") -> ScalarExpr:
    """Singularity count of the restriction to an invariant quasi-smooth
    hypersurface of class `hyp`."""
    _check_kind(kind)
    d = degree_class(model, degree)
    a = degree_class(model, hyp)
    # sum_j (-1)^j g_j d^(top - j) is (-1)^top times the plain sum at -d
    d = -d if kind == "distribution" else d
    return _signed(model.dim - 1, kind) * chow.integrate_count(model, (a,), (a,), d)


def hypersurface_euler(model: ToricModel, hyp) -> ScalarExpr:
    """Orbifold Euler characteristic of a quasi-smooth hypersurface."""
    a = degree_class(model, hyp)
    return chow.integrate_count(model, (a,), (a,))


def complement_sing_count(model: ToricModel, degree, hyp) -> ScalarExpr:
    """Singularities lying off an invariant hypersurface (nondegenerate
    case): the ambient count minus the restricted count."""
    d = degree_class(model, degree)
    a = degree_class(model, hyp)
    return chow.integrate_count(model, (), (a,), d)


def complement_euler(model: ToricModel, hyp) -> ScalarExpr:
    """Euler characteristic of the hypersurface complement (smooth case)."""
    a = degree_class(model, hyp)
    return chow.integrate_count(model, over=(a,))


# ---------------------------------------------------------------------------
# weighted complete intersections (scalar route)


def _check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    w = _integers("weights", weights)
    if len(w) < 2 or any(x < 1 for x in w):
        raise ValueError("weights must be at least two positive integers")
    if not catalog._pairwise_coprime(w):
        warnings.warn(
            f"weights {w} are not pairwise coprime; the space is not well formed",
            NotWellFormedWarning, stacklevel=3)
    return w


def elementary_symmetric_scalars(values: Sequence[ScalarLike], j: int) -> ScalarExpr:
    return chow.elementary_series(values, j)[j]


def _wci_inner_sums(weights: Sequence[ScalarLike],
                    classes: Sequence[ScalarLike]) -> list[ScalarExpr]:
    """sum_j (-1)^j e_{i-j}(weights) h_j(classes) for i = 0..n - m, with n + 1
    weights and m classes: the degree-i part of the Chern class of a
    weighted complete intersection, up to its dimension, before the
    orbifold degree factor.  Weights and classes may be numbers or symbols."""
    top = len(weights) - 1 - len(classes)
    e = [elementary_symmetric_scalars(weights, i) for i in range(top + 1)]
    h = chow.complete_series(classes, top)
    both = aligned(*e, *h)
    e, h = both[:top + 1], both[top + 1:]
    return [poly_sum((-1) ** j * e[i - j] * h[j] for j in range(i + 1))
            for i in range(top + 1)]


def wci_sing_count_parts(weights: Sequence[int], classes: Sequence[int],
                         degree: ScalarLike,
                         kind: str = "foliation") -> list[ScalarExpr]:
    """The per-power contributions to `wci_sing_count`, highest power of the
    degree first.  The pieces already carry the distribution signs and the
    orbifold degree factor, so they sum to the count."""
    _check_kind(kind)
    w = _check_weights(weights)
    a = _integers("classes", classes)
    if any(x < 1 for x in a):
        raise ValueError("complete-intersection multidegrees must be positive")
    n = len(w) - 1
    m = len(a)
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    factor = Fraction(prod(a), prod(w))
    d = as_poly(degree)
    parts = []
    for i, inner in enumerate(_wci_inner_sums(w, a)):
        inner, dp = aligned(inner, d ** (n - m - i))
        parts.append(_signed(i, kind) * factor * inner * dp)
    return parts


def wci_sing_count(weights: Sequence[int], classes: Sequence[int],
                   degree: ScalarLike, kind: str = "foliation") -> ScalarExpr:
    """Singularity count of a degree-d foliation or distribution restricted
    to a smooth complete intersection in a weighted projective space.

    Pick the kind by the defining object, not the name: anything cut out by
    a one-form counts with the distribution signs even when it happens to
    be integrable.
    """
    return poly_sum(wci_sing_count_parts(weights, classes, degree, kind))


def baum_bott_sum(weights: Sequence[int], classes: Sequence[int],
                  degree: ScalarLike) -> ScalarExpr:
    """Sum of Baum-Bott indices on a complete-intersection surface:
    the orbifold degree times the square of d + C1(w) - W1(a)."""
    w = _check_weights(weights)
    a = _integers("classes", classes)
    n = len(w) - 1
    if len(a) != n - 2:
        raise ValueError(f"surface case needs m = n-2 = {n - 2} classes, got {len(a)}")
    factor = Fraction(prod(a), prod(w))
    base = as_poly(degree) + (sum(w) - sum(a))
    return factor * base ** 2


def general_type_index(weights: Sequence[int], classes: Sequence[int]) -> int:
    """Canonical-degree index: positive exactly when the intersection
    surface is of general type."""
    return sum(_integers("classes", classes)) - sum(_integers("weights", weights))


@dataclass(frozen=True)
class AlphaInvariant:
    alpha: Fraction
    chi: Fraction

    def divides(self, d: int) -> bool:
        if d == 0:
            return self.alpha == 0
        return self.alpha % d == 0


def alpha_invariant(weights: Sequence[int], classes: Sequence[int]) -> AlphaInvariant:
    """Divisibility invariant for regular distributions on a weighted
    complete intersection, together with its Euler characteristic."""
    w = _check_weights(weights)
    a = _integers("classes", classes)
    n = len(w) - 1
    m = len(a)
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    alpha = _wci_inner_sums(w, a)[n - m].constant_value()
    chi = Fraction(prod(a), prod(w)) * alpha
    return AlphaInvariant(alpha=alpha, chi=chi)


# ---------------------------------------------------------------------------
# complete intersections in smooth toric varieties (tensor route)


def _class_list(model: ToricModel, classes) -> list[ChowElement]:
    return [degree_class(model, c) for c in classes]


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
    a_elems = _class_list(model, classes)
    m = len(a_elems)
    n = model.dim
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    d = degree_class(model, degree)
    # on one table, the degree symbols come before the class symbols
    d, *a_elems = (ChowElement(model.gens, p) for p in aligned(
        (-d if kind == "distribution" else d).poly, *(a.poly for a in a_elems)))
    return _signed(n - m, kind) * chow.integrate_count(model, a_elems, a_elems, d)


def ci_euler(model: ToricModel, classes) -> ScalarExpr:
    """Euler characteristic of a smooth complete intersection."""
    a_elems = _class_list(model, classes)
    m = len(a_elems)
    n = model.dim
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    return chow.integrate_count(model, a_elems, a_elems)


def multidegree(model: ToricModel, classes, k: int,
                generator: bool = False) -> ScalarExpr:
    """The k-degree of the intersection: the k-th divisor class (or
    generator, for models without divisor lists) raised to its dimension,
    integrated over it."""
    a_elems = _class_list(model, classes)
    m = len(a_elems)
    n = model.dim
    if m > n:
        raise ValueError("too many classes")
    if generator or model.divisor_classes is None:
        if not 0 <= k < model.rank:
            raise ValueError(f"generator index {k} out of range 0..{model.rank - 1}")
        h = chow.generator_element(model, k)
    else:
        if not 0 <= k < model.dim + model.rank:
            raise ValueError(
                f"divisor index {k} out of range 0..{model.dim + model.rank - 1}")
        h = chow.divisor_class_element(model, k)
    return chow.integrate_count(model, [h] * (n - m) + a_elems)


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class InequalityVerdict:
    lhs: ScalarExpr
    rhs: ScalarExpr
    holds: bool | None  # None when either side stays symbolic
    slack: ScalarExpr


def _verdict(lhs: ScalarExpr, rhs: ScalarExpr) -> InequalityVerdict:
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
    projective space.
    """
    if variant in ("wci-curve", "wci-general"):
        if weights is None or classes is None or degree is None:
            raise ValueError(f"{variant} needs weights, classes, and degree")
        w = _integers("weights", weights)
        a = _integers("classes", classes)
        n = len(w) - 1
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
        a_elems = _class_list(model, classes)
        if len(a_elems) != model.dim - 1:
            raise ValueError(
                f"curve case needs {model.dim - 1} classes, got {len(a_elems)}")
        asum = sum(a_elems[1:], start=a_elems[0])
        bound = degree_class(model, degree) + chow.chern_class(model, 1)
        if strict:
            bound = bound - chow.class_element(model, (1,) * model.rank)
        lhs = chow.integrate_count(model, [asum, *a_elems])
        rhs = chow.integrate_count(model, [bound, *a_elems])
        return _verdict(lhs, rhs)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# scrolls and bounded searches


def scroll_closed_form(n: int, a: Sequence[int], d1: ScalarLike,
                       d2: ScalarLike) -> ScalarExpr:
    """Closed-form vanishing expression for regular foliations on a scroll.

    For n >= 3 it is the tensor-route count times (-1)^n, as an identity
    of polynomials in d1 and d2:
    `scroll_closed_form(n, a, d1, d2) ==
    (-1)**n * foliation_sing_count(catalog.scroll(*a), (d1, d2))`.
    """
    if n <= 2:
        raise ValueError("closed form applies in dimension > 2")
    a = _integers("twists", a)
    if len(a) != n:
        raise ValueError(f"need {n} twists, got {len(a)}")
    s = sum(a)
    d1p, d2p = aligned(as_poly(d1), as_poly(d2))
    return (-1) ** n * ((n * d1p + s * d2p) * (d2p + 1) ** (n - 1)
                        + 2 * poly_sum((d2p + 1) ** k for k in range(n)))


@dataclass(frozen=True, order=True)
class SearchSolution:
    family: str
    params: tuple[int, ...]
    annotation: str = "accepted"


# number of weight-one coordinates in each p-family's ambient P(1,..,1,k)
_P_FAMILIES = {"p111k": 3, "p1111k": 4}


@cache
def _p_family_coefficients(family: str) -> tuple[ScalarExpr, ...]:
    """Coefficients in d, lowest power first, of the distribution count on a
    degree-a hypersurface of P(1,..,1,k) times k/a, as polynomials in k and
    a: the coefficient of d^(n-1-i) is (-1)^i times the i-th inner sum of
    `wci_sing_count_parts` with the weight k and the degree a left symbolic."""
    n = _P_FAMILIES[family]
    k, a = (MultiPoly.variable(v, ("k", "a")) for v in ("k", "a"))
    inner = _wci_inner_sums((1,) * n + (k,), (a,))
    return tuple((-1) ** i * inner[i] for i in reversed(range(n)))


def _power_sum_source(terms: dict[int, int], x: str) -> str:
    """Source of sum c * x^e over {e: c}, such as `-4-6*k`; empty for {}."""
    out = ""
    for e, c in sorted(terms.items()):
        factors = [str(abs(c))] if abs(c) != 1 or not e else []
        out += ("-" if c < 0 else "+" if out else "") + "*".join(factors + [x] * e)
    return out


def _integer_terms(name: str,
                   polys: Sequence[MultiPoly]) -> list[dict[tuple[int, int], int]]:
    """The terms {(ex, ey): c} of each polynomial on its two-variable table
    (x, y), with int coefficients.  A coefficient that is not an integer
    raises ValueError naming `name`, so none is truncated."""
    out = []
    for poly in polys:
        x, y = poly.vars
        ints = {}
        for (ex, ey), c in poly.terms.items():
            if c.denominator != 1:
                raise ValueError(
                    f"{name} coefficient {poly.canonical_string()} has a "
                    f"non-integer term {c} at {x}^{ex} {y}^{ey}")
            ints[ex, ey] = c.numerator
        out.append(ints)
    return out


def _coefficients_source(x: str, y: str,
                         terms: Sequence[dict[tuple[int, int], int]]) -> str:
    """`(c_0, ..., c_m,)`: the source of one tuple expression for the
    polynomials with the given integer terms {(ex, ey): c} in x and y.

    Each polynomial is written by Horner's rule in y over sums of integer
    multiples of powers of x.  The source holds only integer literals, x,
    y, `*`, `+`, `-`, commas and parentheses."""
    entries = []
    for poly in terms:
        parts: dict[int, dict[int, int]] = {}
        for (ex, ey), c in poly.items():
            parts.setdefault(ey, {})[ex] = c
        src = ""
        for ey in reversed(range(1 + max(parts, default=0))):
            part = _power_sum_source(parts.get(ey, {}), x)
            if src:
                tail = y if src == "1" else f"{y}*({src})"
                src = f"{part}+{tail}" if part else tail
            else:
                src = part
        entries.append(src or "0")
    return f"({','.join(entries)},)"


def _compile(name: str, source: str):
    """Evaluate generated source; `<name>` labels its code in tracebacks."""
    return eval(compile(source, f"<{name}>", "eval"))


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
    m >= m0, k >= 1; None when no m0 up to it does.

    The proof is an integer Taylor shift: at m = m0 + y and k = 1 + x, every
    coefficient of every polynomial has the same sign and some constant
    term is nonzero.  Then at x, y >= 0 each polynomial keeps that sign,
    and the one with the nonzero constant term does not vanish."""
    polys = []  # per polynomial, per power of x: its coefficients in m
    for t in terms:
        dm = 1 + max((em for em, _ in t), default=0)
        dk = 1 + max((ek for _, ek in t), default=0)
        by_m = [_taylor_shift([t.get((em, ek), 0) for ek in range(dk)], 1)
                for em in range(dm)]
        polys.append([[col[ek] for col in by_m] for ek in range(dk)])
    for m0 in range(1, _CUTOFF_TRIES + 1):
        polys = [[_taylor_shift(row, 1) for row in p] for p in polys]
        values = [c for p in polys for row in p for c in row if c]
        if any(p[0][0] for p in polys) and (min(values) > 0 or max(values) < 0):
            return m0
    return None


def _p_family_terms(family: str) -> list[dict[tuple[int, int], int]]:
    """The integer terms of `_p_family_coefficients(family)` on (m, k) with
    a = m k: the exponents are remapped, k^i a^j to m^j k^(i+j).  The
    non-integer check runs on the (k, a) polynomials."""
    return [{(j, i + j): c for (i, j), c in t.items()}
            for t in _integer_terms(family, _p_family_coefficients(family))]


def _row_polynomials(terms: Sequence[dict[tuple[int, int], int]],
                     m: int) -> list[dict[int, int]]:
    """The (m, k) polynomials with integer terms {(em, ek): c} at a fixed m,
    as polynomials in k: {ek: c}, zero coefficients left out."""
    rows = []
    for t in terms:
        row: dict[int, int] = {}
        for (em, ek), c in t.items():
            row[ek] = row.get(ek, 0) + c * m ** em
        rows.append({ek: c for ek, c in row.items() if c})
    return rows


def _roots(coeffs: tuple[int, ...]) -> tuple[int, ...] | None:
    """The integer roots d >= 1 of sum_i coeffs[i] * d^i, all of them: the
    Cauchy bound 1 + max |c_i| // |c_n| caps the range.  None when every
    coefficient is zero, since then every d is a root."""
    if not any(coeffs):
        return None
    lead = next(c for c in reversed(coeffs) if c)
    return tuple(integer_roots(coeffs, 1, 1 + max(map(abs, coeffs)) // abs(lead)))


@cache
def _p_family_solution_set(family: str):
    """`((m, first, last, roots), ...)`: every (a, d, k) with a = m k,
    k >= 1 and d >= 1 at which the d-coefficients of
    `_p_family_coefficients(family)` vanish, certified once.

    Each entry covers the k in [first, last] (`last` None: every k >=
    first) and the roots d, None meaning every d.  The cutoff M
    (`_one_sign_cutoff`, certified from k = 1) proves every pair with
    m >= M one-signed and not all zero, so only the rows m < M are left.
    A row whose polynomials are constant in k is one polynomial for every
    k, a line: the m = 1 row (a = k, a linear cone) is one.  Every other
    row gets its own k-cutoff K from the same certificate, run in k alone,
    and leaves the finitely many pairs k < K.  That is K = 3, 2 on the
    rows m = 2, 3 of `p111k` (M = 4) and 4, 2, 2 on the rows m = 2, 3, 4
    of `p1111k` (M = 5).  Each distinct polynomial is solved once."""
    if family not in _P_FAMILIES:
        raise ValueError(f"unknown search family {family!r}")
    terms = _p_family_terms(family)
    cutoff = _one_sign_cutoff(terms)
    if cutoff is None:
        raise ValueError(f"search family {family!r} has no one-sign cutoff "
                         f"in m <= {_CUTOFF_TRIES}")
    pairs = []  # (m, first, last, d-coefficients)
    for m in range(1, cutoff):
        rows = _row_polynomials(terms, m)
        if all(ek == 0 for row in rows for ek in row):
            pairs.append((m, 1, None, tuple(row.get(0, 0) for row in rows)))
            continue
        # k in the certificate's first slot, its second one left unused
        k_cutoff = _one_sign_cutoff([{(ek, 0): c for ek, c in row.items()}
                                     for row in rows])
        if k_cutoff is None:
            raise ValueError(f"search family {family!r} has no one-sign "
                             f"cutoff in k <= {_CUTOFF_TRIES} at m = {m}")
        pairs += [(m, k, k, tuple(sum(c * k ** ek for ek, c in row.items())
                                  for row in rows)) for k in range(1, k_cutoff)]
    solved = {c: _roots(c) for c in {c for *_, c in pairs}}
    return tuple((m, first, last, solved[c])
                 for m, first, last, c in pairs if solved[c] != ())


@cache
def _scroll_evaluator(n: int):
    """`lambda s, d2: (c_0, c_1)`: the integer d1-coefficients, lowest power
    first, of `foliation_sing_count` at degree (d1, d2) on a scroll with n
    twists summing to s, compiled once from `_coefficients_source`.

    Every tensor key of `catalog.scroll` has L-exponent at most 1, so L^2
    vanishes on the support, and c(X) = (1+L)^2 prod(1 + M - a_i L) reduces
    there to (1+L)^2 ((1+M)^n - s L (1+M)^(n-1)).  So the count depends on
    the twists only through s, affinely, and it is linear in d1: the counts
    C0 at s = 0 and C1 at s = 1 give C0 + s (C1 - C0) for every s."""
    table = ("s", "d1", "d2")
    s, d1, d2 = (MultiPoly.variable(v, table) for v in table)
    c0, c1 = (foliation_sing_count(catalog.scroll(t, *[0] * (n - 1)), (d1, d2))
              for t in (0, 1))
    by_d1: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (es, e1, e2), c in (c0 + s * (c1 - c0)).terms.items():
        by_d1.setdefault(e1, {})[es, e2] = c
    c = _coefficients_source("s", "d2", _integer_terms("scroll", [
        MultiPoly(("s", "d2"), by_d1.get(e, {}))
        for e in range(1 + max(by_d1, default=0))]))
    return _compile("scroll coefficients", f"lambda s, d2: {c}")


def regular_search(family: str, bound: int,
                   scroll_a: Sequence[int] | None = None) -> list[SearchSolution]:
    """Degree data within the bound on which the counting polynomial vanishes.

    Each family builds its count polynomial once and solves it for exact
    integer roots (`integer_roots`) instead of evaluating it on a grid, so
    bounds in the thousands are cheap.  `p111k` and `p1111k` range over
    weight k and hypersurface degree a with k dividing a (the divisibility
    every smooth weighted hypersurface satisfies), and find the distribution
    degrees d in [1, B] for each pair.  Their whole solution set is
    certified once per family (`_p_family_solution_set`), so a search only
    filters it, in time linear in its output whatever the bound.  Writing
    a = m k, an integer Taylor shift proves every pair with m >= 4
    (`p111k`) or m >= 5 (`p1111k`) one-signed, hence without a root by
    Descartes' rule of signs.  Below that the m = 1 row has the same
    polynomial at every k, giving the lines (m k, d, k) of its roots d,
    and each other row is one-signed beyond its own k-cutoff, leaving at
    most 5 sporadic pairs.  So `p111k` has no solutions at any bound, and
    `p1111k` has the line (k, 2, k) and the point (2, 1, 1).
    `scroll` finds the (d1, d2) in [-B, B]^2 on the scroll with the given
    twists.  Its count depends on the twists only through their sum and is
    linear in d1, so it is compiled once per twist count
    (`_scroll_evaluator`), and each d2 takes one linear solve in d1.
    Results are sorted by parameters.  Cohomology exclusions are
    annotations, never silent deletions.
    """
    if not isinstance(bound, int) or bound < 1:
        raise ValueError("bound must be a positive integer")
    found: list[tuple[int, ...]] = []
    if family in _P_FAMILIES:
        if scroll_a is not None:
            raise ValueError("twists apply to the scroll family only")
        k0 = 2 if family == "p111k" else 1
        for m, first, last, roots in _p_family_solution_set(family):
            ks = range(max(first, k0), 1 + (bound // m if last is None
                                            else min(last, bound // m)))
            ds = range(1, bound + 1) if roots is None \
                else [d for d in roots if d <= bound]
            found += [(m * k, d, k) for d in ds for k in ks]
    elif family == "scroll":
        if scroll_a is None:
            raise ValueError("scroll search needs the twist list")
        scroll_a = tuple(scroll_a)
        catalog.scroll(*scroll_a)  # holds the twists to the model's checks
        evaluate, s = _scroll_evaluator(len(scroll_a)), sum(scroll_a)
        for d2 in range(-bound, bound + 1):
            for d1 in integer_roots(evaluate(s, d2), -bound, bound):
                found.append((d1, d2))
    else:
        raise ValueError(f"unknown search family {family!r}")
    # p1111k at (a, d, k) = (2, 1, 1) is ruled out by a cohomological
    # vanishing the tool flags but does not prove
    excluded = (2, 1, 1) if family == "p1111k" else None
    return [SearchSolution(family, p, "excluded-by-cohomology" if p == excluded
                           else "accepted") for p in sorted(found)]

