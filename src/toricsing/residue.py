"""Local index oracle: exact multiplicity of an isolated zero at the origin.

The multiplicity of a polynomial map germ (f_1, ..., f_n) with an isolated
common zero at the origin is the dimension of the local quotient algebra,
which equals the point residue of det(Jacobian)/(f_1...f_n).  Defining the
index through the dimension sidesteps the residue symbol's orientation
bookkeeping: the dimension is invariant under reordering the components
and under linear changes of coordinates.

The dimension is computed by truncation: c(D) = dim R/(I + m^D) counts
monomials of degree below D modulo what the components generate below D.
Truncating by powers of the maximal ideal localizes at the origin, so inputs
may vanish elsewhere in the chart too.  c(D) rises strictly until its first
plateau, and the plateau value is the multiplicity.  Each c(D) is one exact
rank of sparse Macaulay rows (monomial shifts of the components), found by
an integer echelon keyed by leading column.

An isolated zero has multiplicity at most the product of the component
degrees (refined Bezout inequality, Fulton, Intersection Theory, 12.3), and
c(D) <= multiplicity.  So c(D) above that product proves the zero is not
isolated, and as c(D) >= D before the plateau, every germ is decided by
depth product + 1.  The degree cap only bounds the work and does not decide
correctness: a germ it stops is reported as undecided, never answered.

Dividing by the order of the local isotropy group gives the orbifold index
at a quotient-chart point; the group order is caller-supplied data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NonIsolatedZeroError
from .exactalg import MultiPoly

DEFAULT_DEGREE_CAP = 64


@dataclass
class IndexQuery:
    """Chart-local data of a point: map components, isotropy order, cap."""

    components: tuple[MultiPoly, ...]
    group_order: int = 1
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("need at least one component")
        table = self.components[0].vars
        if len(self.components) != len(table):
            raise ValueError(
                f"{len(table)} variables need {len(table)} components, "
                f"got {len(self.components)}")
        for comp in self.components:
            if comp.vars != table:
                raise ValueError("components must share one variable table")
            if comp.coefficient((0,) * len(table)) != 0:
                raise ValueError(
                    "components must vanish at the origin; found constant term "
                    f"in {comp.canonical_string()}")
        if self.group_order < 1:
            raise ValueError("group order must be a positive integer")
        if self.degree_cap < 2:
            raise ValueError("degree cap must be at least 2")


@dataclass
class LocalIndexReport:
    multiplicity: int
    group_order: int
    orbifold_index: Fraction
    stabilized_at: int


def local_multiplicity(query: IndexQuery) -> LocalIndexReport:
    """Exact local multiplicity at the origin, with the orbifold index."""
    components = query.components
    nvars = len(components[0].vars)
    bound = prod(comp.total_degree() for comp in components)
    previous: int | None = None
    for depth in range(1, query.degree_cap + 1):
        dim = _truncated_quotient_dim(components, nvars, depth)
        if previous is not None:
            if dim < previous:
                raise AssertionError(
                    "truncated dimension decreased; this contradicts the "
                    "inclusion of truncation ideals")
            if dim == previous:
                return LocalIndexReport(
                    multiplicity=dim,
                    group_order=query.group_order,
                    orbifold_index=orbifold_index(dim, query.group_order),
                    stabilized_at=depth - 1,
                )
        if dim > bound:
            raise NonIsolatedZeroError(
                f"proved not isolated: c({depth}) = {dim} exceeds the Bezout "
                f"bound {bound} on the multiplicity of an isolated zero")
        previous = dim
    raise NonIsolatedZeroError(
        f"cap below the plateau: no stabilization by degree {query.degree_cap}; "
        f"the zero at the origin may still be isolated, and a cap of "
        f"{bound + 1} decides it")


def orbifold_index(multiplicity: int, group_order: int) -> Fraction:
    """Local multiplicity divided by the isotropy order, exactly."""
    if group_order < 1:
        raise ValueError("group order must be a positive integer")
    if multiplicity < 0:
        raise ValueError("multiplicity cannot be negative")
    return Fraction(multiplicity, group_order)


def index_sum(reports: list[LocalIndexReport] | list[Fraction]) -> Fraction:
    """Aggregate local indices for comparison against a global count."""
    total = Fraction(0)
    for item in reports:
        total += item.orbifold_index if isinstance(item, LocalIndexReport) else Fraction(item)
    return total


def _truncated_quotient_dim(components, nvars: int, depth: int) -> int:
    basis = _monomials_below(nvars, depth)
    position = {mono: i for i, mono in enumerate(basis)}
    rows: list[dict[int, Fraction]] = []
    for comp in components:
        min_deg = min((sum(e) for e in comp.terms), default=depth)
        for shift in _monomials_below(nvars, max(depth - min_deg, 0)):
            row = {}
            for exp, coeff in comp.terms.items():
                idx = position.get(tuple(a + b for a, b in zip(exp, shift)))
                if idx is not None:
                    row[idx] = coeff
            if row:
                rows.append(row)
    return len(basis) - _exact_rank(rows)


def _monomials_below(nvars: int, depth: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree < depth."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    if depth > 0:
        rec([], nvars, depth - 1)
    return out


def _exact_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank over the rationals of sparse rows {column: coefficient}.

    Rows are scaled to integers.  While a row's leading column has a pivot
    p, the row becomes p[lead]*row - row[lead]*p; a row with a new leading
    column is divided by its content and kept as that column's pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (scale // x.denominator)
               for c, x in row.items() if x}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                pivots[lead] = {c: x // g for c, x in row.items()}
                break
            a, b = pivot[lead], row[lead]
            row = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                value = row.get(c, 0) - b * x
                if value:
                    row[c] = value
                else:
                    del row[c]
    return len(pivots)
