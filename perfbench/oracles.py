"""Reference answers computed without the code under test.

Everything here is written from the definitions in the source paper, in
plain Python integers and `Fraction`s, and never imports `toricsing`.  The
main route is a generating-function identity: every count on a model with
recorded divisor classes is the top-degree integral of

    c(T) * prod_k A_k / (1 + A_k) * sum_l D^l,   c(T) = prod_i (1 + D_i),

truncated at the dimension.  `toricsing` instead sums Chern classes over
divisor subsets and complete symmetric functions over multisets, so the two
routes share no code and no algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

# --------------------------------------------------------------------------
# model data, written from the family definitions


def model_data(spec: str):
    """(dim, divisor classes, tensor) of a builtin family spec string."""
    family, _, tail = spec.partition(":")
    p = tuple(int(x) for x in tail.split(",")) if tail else ()
    if family == "projective":
        (n,) = p
        return n, [(1,)] * (n + 1), {(n,): Fraction(1)}
    if family == "weighted":
        n = len(p) - 1
        return n, [(w,) for w in p], {(n,): Fraction(1, prod(p))}
    if family == "multiprojective":
        k = len(p)
        classes = []
        for i, ni in enumerate(p):
            classes += [tuple(int(j == i) for j in range(k))] * (ni + 1)
        return sum(p), classes, {p: Fraction(1)}
    if family == "scroll":
        n = len(p)
        classes = [(1, 0), (1, 0)] + [(-a, 1) for a in p]
        return n, classes, {(0, n): Fraction(sum(p)), (1, n - 1): Fraction(1)}
    if family == "blowup_point":
        (n,) = p
        classes = [(1, -1)] * n + [(1, 0), (0, 1)]
        return n, classes, {(n, 0): Fraction(1), (0, n): Fraction((-1) ** (n + 1))}
    raise ValueError(f"no reference data for {spec!r}")


# --------------------------------------------------------------------------
# truncated polynomials in the Picard generators: {exponent: coefficient}


def _mul(p: dict, q: dict, top: int) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        da = sum(ea)
        for eb, cb in q.items():
            if da + sum(eb) > top:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _linear(vec, rank: int) -> dict:
    return {tuple(int(j == k) for j in range(rank)): Fraction(v)
            for k, v in enumerate(vec) if v}


def _one(rank: int) -> dict:
    return {(0,) * rank: Fraction(1)}


def _series(lin: dict, sign: int, rank: int, top: int) -> dict:
    """sum_l (sign * lin)^l truncated at degree `top`."""
    term = _one(rank)
    total = dict(term)
    step = {e: sign * c for e, c in lin.items()}
    for _ in range(top):
        term = _mul(term, step, top)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return total


def _integrate(poly: dict, dim: int, tensor: dict) -> Fraction:
    return sum((c * tensor.get(e, 0) for e, c in poly.items() if sum(e) == dim),
               Fraction(0))


def top_integral(spec: str, classes=(), degree=None) -> Fraction:
    """The generating-function integral described in the module docstring.

    `classes` are the complete-intersection (or hypersurface) classes as
    Picard vectors; `degree` is a Picard vector or None for Euler numbers.
    """
    dim, divisors, tensor = model_data(spec)
    rank = len(divisors[0])
    poly = _one(rank)
    for vec in divisors:
        poly = _mul(poly, {**_one(rank), **_linear(vec, rank)}, dim)
    for vec in classes:
        lin = _linear(vec, rank)
        poly = _mul(poly, _mul(lin, _series(lin, -1, rank, dim), dim), dim)
    if degree is not None:
        poly = _mul(poly, _series(_linear(degree, rank), 1, rank, dim), dim)
    return _integrate(poly, dim, tensor)


def foliation_count(spec: str, degree) -> Fraction:
    return top_integral(spec, (), degree)


def ci_count(spec: str, classes, degree) -> Fraction:
    """Foliation count on a complete intersection; one class gives the
    restricted count on a hypersurface."""
    return top_integral(spec, classes, degree)


def complement_count(spec: str, degree, hyp) -> Fraction:
    return foliation_count(spec, degree) - ci_count(spec, [hyp], degree)


def ci_euler(spec: str, classes) -> Fraction:
    return top_integral(spec, classes, None)


def projective_foliation_count(n: int, d: int) -> int:
    """The closed form on P^n: sum_{i=0..n} (d+1)^i."""
    return sum((d + 1) ** i for i in range(n + 1))


def evaluate(poly, values) -> Fraction:
    """Evaluate a returned `MultiPoly` from its public `vars` and `terms`."""
    at = dict(zip(poly.vars, values)) if not isinstance(values, dict) else values
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = Fraction(coeff)
        for name, e in zip(poly.vars, exp):
            if e:
                term *= Fraction(at[name]) ** e
        total += term
    return total


def constant(value) -> Fraction:
    """A count returned as a constant `MultiPoly`, read without its helpers."""
    if any(any(exp) for exp in value.terms):
        raise ValueError("not a constant")
    return sum((Fraction(c) for c in value.terms.values()), Fraction(0))


# --------------------------------------------------------------------------
# searches


def p_family_solutions(family: str, bound: int) -> list[tuple[tuple[int, ...], str]]:
    """Solution sets of the p111k and p1111k searches for bounds up to 100.

    p111k has none; p1111k has (k, 2, k) for every k <= B and the flagged
    (2, 1, 1) once B >= 2 lets d = 2.  Checked for every bound in [1, 100]
    against a direct enumeration of the paper's count polynomials.
    """
    if family == "p111k" or bound < 2:
        return []
    sols = [((k, 2, k), "accepted") for k in range(1, bound + 1)]
    sols.append(((2, 1, 1), "excluded-by-cohomology"))
    return sorted(sols)


def scroll_closed_form(a, d1: int, d2: int) -> int:
    """The closed-form vanishing expression for a scroll with n = len(a) > 2
    twists; it vanishes exactly where the foliation count does."""
    n = len(a)
    s = sum(a)
    t = -d2
    acc = sum((-1) ** i * comb(n, i) * t ** (n - 2 - i) for i in range(n - 1))
    p = t * acc + (-1) ** n * (1 - n)
    return ((-1) ** n * (n * d1 + s * d2) * (d2 + 1) ** (n - 1)
            - 2 * p + 2 * (-1) ** n)


def scroll_zero_set(a, bound: int) -> list[tuple[int, int]]:
    return [(d1, d2) for d1 in range(-bound, bound + 1)
            for d2 in range(-bound, bound + 1)
            if scroll_closed_form(a, d1, d2) == 0]
