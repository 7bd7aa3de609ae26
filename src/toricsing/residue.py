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
plateau, and the plateau value is the multiplicity.

One integer echelon, keyed by lowest column, serves every depth.  Columns
number monomials in graded order, so those of degree below D are a prefix.
At depth D the Macaulay rows s*f_i with deg s = D - 1 - mindeg f_i enter
once, untruncated: they lead in degree D - 1, and rows entering later lead
in degree D or above.  A stored pivot never changes, so the rank of the
depth-D truncation is the number of pivots below degree D, and c(D) is
C(D - 1 + n, n) minus that number.

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb, gcd, lcm, prod
from operator import add

from .errors import NonIsolatedZeroError
from .exactalg import MultiPoly, monomials_of_degree

DEFAULT_DEGREE_CAP = 64


def _require_ints(**fields) -> None:
    """A ValueError naming the first field whose value is not an int, so a
    fractional or float group order or cap is never used as a number.  The
    test is on the type: a bool is an int to Python, but True is no order."""
    for field, value in fields.items():
        if type(value) is not int:
            raise ValueError(f"{field} must be an int, got {value!r}")


@dataclass(frozen=True)
class IndexQuery:
    """Chart-local data of a point: map components, isotropy order, cap."""

    components: tuple[MultiPoly, ...]
    group_order: int = 1
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
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
        _require_ints(group_order=self.group_order, degree_cap=self.degree_cap)
        if self.group_order < 1:
            raise ValueError("group order must be a positive integer")
        if self.degree_cap < 2:
            raise ValueError("degree cap must be at least 2")


@dataclass(frozen=True)
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
    pivots: dict[int, dict[int, int]] = {}
    new_rows = _macaulay_rows(components, nvars)
    previous: int | None = None
    for depth in range(1, query.degree_cap + 1):
        for row in next(new_rows):
            _insert(pivots, row)
        below = comb(depth - 1 + nvars, nvars)
        dim = below - sum(1 for lead in pivots if lead < below)
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
    _require_ints(multiplicity=multiplicity, group_order=group_order)
    if group_order < 1:
        raise ValueError("group order must be a positive integer")
    if multiplicity < 0:
        raise ValueError("multiplicity cannot be negative")
    return Fraction(multiplicity, group_order)


def index_sum(reports: list[LocalIndexReport] | list[Fraction]) -> Fraction:
    """Aggregate local indices for comparison against a global count.  An
    entry that is not a report, an int or a Fraction (a float, say, which
    is not exact data) raises ValueError naming it."""
    total = Fraction(0)
    for item in reports:
        if isinstance(item, LocalIndexReport):
            item = item.orbifold_index
        elif not isinstance(item, (int, Fraction)):
            raise ValueError(f"index {item!r} is not a report, an int or a Fraction")
        total += item
    return total


def _macaulay_rows(components, nvars: int):
    """Yield, for depth D = 1, 2, ..., the integer rows s*f_i entering at D.

    Each component is scaled to integers once; zero components give no rows.
    The C(d - 1 + n, n) monomials of degree below d take the lowest columns,
    and those of degree d follow in order of first use.
    """
    scaled = []
    for terms in [comp.terms for comp in components if not comp.is_zero]:
        scale = lcm(*(c.denominator for c in terms.values()))
        scaled.append((min(map(sum, terms)),
                       [(e, c.numerator * (scale // c.denominator))
                        for e, c in terms.items()]))
    columns: dict[tuple[int, ...], int] = {}
    used: Counter[int] = Counter()

    def column(exp):
        idx = columns.get(exp)
        if idx is None:
            degree = sum(exp)
            idx = columns[exp] = comb(degree - 1 + nvars, nvars) + used[degree]
            used[degree] += 1
        return idx

    for depth in count(1):
        yield [{column(tuple(map(add, exp, shift))): c for exp, c in terms}
               for low, terms in scaled if depth > low
               for shift in monomials_of_degree(nvars, depth - 1 - low)]


def _insert(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Reduce an integer row {column: value} into the echelon.

    While the row's lowest column has a pivot p, the row becomes
    p[lead]*row - row[lead]*p; a row with a new leading column is divided by
    its content and kept as that column's pivot, which never changes again.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values())
            pivots[lead] = {c: x // g for c, x in row.items()}
            return
        a, b = pivot[lead], row[lead]
        row = {c: a * x for c, x in row.items()}
        for c, x in pivot.items():
            value = row.get(c, 0) - b * x
            if value:
                row[c] = value
            else:
                del row[c]

