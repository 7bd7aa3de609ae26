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

One integer echelon, keyed by lowest column, serves every depth.  The
monomial x^e of degree |e| is the column key(e) = (|e| << n*b) +
sum_i e_i << i*b, b = (cap + max deg f).bit_length().  Rows enter at depths
D <= cap, so each exponent of s*t (t a term of f_i, |s| = D - 1 - mindeg f_i)
is below cap + max deg f < 2^b: no field of key(s) + key(t) carries into the
next, and key(s*t) = key(s) + key(t).  The low n fields sum to less than
2^(n*b), so |e| < |e'| gives key(e) < key(e'): the order is graded, and the
monomials of degree below D are the keys below D << n*b.

At depth D the Macaulay rows s*f_i with deg s = D - 1 - mindeg f_i enter
once, untruncated, by component and then by key(s): they lead in degree
D - 1, and rows entering later lead in degree D or above.  A stored pivot
never changes, so the rank of the depth-D truncation is the number of pivots
leading below degree D, final once depth D is in, and c(D) is
C(D - 1 + n, n) minus that number.  Four rules keep the echelon cheap:

- A row s*f_i whose lead key(s) + key(lead f_i) has no pivot yet needs no
  reduction.  It is stored as the pair (key(s), f_i scaled to a positive
  lead and content 1), counted at its own depth, and expanded into a row
  only when a reduction first reads it.
- A row x_k*s*f_i is skipped when s*f_i, one depth earlier, reduced to zero
  or was skipped.  Then s*f_i is a combination of rows entered before it,
  and x_k times those are rows entered before x_k*s*f_i, since adding
  key(x_k) keeps the (depth, component, key) order; so x_k*s*f_i would
  reduce to zero too, and every pivot stays as it was (this is the
  redundancy Faugere's F5, ISSAC 2002, avoids).
- A row s*f_i whose lead has a pivot starts, in its place, from x_j*P when
  (s/x_j)*f_i, one depth earlier, reduced to a new pivot P; of several such
  x_j, the one whose x_j*P leads highest (Faugere's Simplify, F4, J. Pure
  Appl. Algebra 139, 1999).  P is a nonzero multiple of (s/x_j)*f_i plus
  rows entered before it, so x_j*P is a nonzero multiple of s*f_i plus rows
  entered before s*f_i, by the order argument of the rule above.  The span
  at the end of every depth, and with it every pivot count, stays as it
  was, and x_j*P reduces to a pivot of the lead s*f_i would reach.  The
  rows that reduced to a new pivot are kept as (component, shift) mapped
  to the pivot's lead: one small entry beside each such stored pivot.
- The keys of all monomials of one degree, sorted, are shared by every
  query: `_shifts` keeps them as tuples, which nothing changes, for at most
  SHIFT_CACHE_SIZE (variable count, field width, degree) keys, least
  recently used first out.  Two threads building one list at once store
  equal values.

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
from functools import lru_cache
from math import comb, gcd, lcm, prod

from .errors import NonIsolatedZeroError
from .exactalg import MultiPoly, _tuple, _typed

DEFAULT_DEGREE_CAP = 64
# (variable count, field width, degree) keys whose shift lists are kept at once
SHIFT_CACHE_SIZE = 128


@dataclass(frozen=True)
class IndexQuery:
    """Chart-local data of a point: map components, isotropy order, cap."""

    components: tuple[MultiPoly, ...]
    group_order: int = 1
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        components = _tuple(self.components,
                            "components must be a sequence of MultiPolys, got {!r}")
        for comp in components:
            if not isinstance(comp, MultiPoly):
                raise ValueError(f"component {comp!r} is not a MultiPoly")
        object.__setattr__(self, "components", components)
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
        _typed(self.group_order, int, "group_order must be an int, got {!r}")
        _typed(self.degree_cap, int, "degree_cap must be an int, got {!r}")
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
    """Exact local multiplicity at the origin, with the orbifold index.  A
    query that is not an `IndexQuery` raises ValueError naming it."""
    if not isinstance(query, IndexQuery):
        raise ValueError(f"query {query!r} is not an IndexQuery")
    components, nvars = query.components, len(query.components)
    degrees = [comp.total_degree() for comp in components]
    bound, width = prod(degrees), (query.degree_cap + max(degrees)).bit_length()
    top = nvars * width  # a column below degree D is a key below D << top
    units = [(1 << top) + (1 << i * width) for i in range(nvars)]
    rows = [_packed(comp, width, top) for comp in components if not comp.is_zero]
    # per component, the shifts one depth back whose rows were in the span
    # of the rows before them: reduced to zero, or skipped
    dead: list[list[int]] = [[] for _ in rows]
    # the rows, as (component, shift), that reduced to a new pivot, each with
    # that pivot's lead; a component's shifts at one depth share one degree,
    # so a shift one degree lower finds a row of the depth before
    grown: dict[tuple[int, int], int] = {}
    pivots: dict[int, dict[int, int] | tuple] = {}
    leads: dict[int, int] = {}  # reduced pivots per degree of their lead
    rank, previous = 0, None  # pivots leading below the depth, and c(depth - 1)
    for depth in range(1, query.degree_cap + 1):
        for i, (lead, terms) in enumerate(rows):
            if (degree := depth - 1 - (lead >> top)) < 0:
                continue
            skip = {shift + unit for shift in dead[i] for unit in units}
            dead[i] = zero = []
            for shift in _shifts(nvars, width, degree):
                if shift in skip:
                    zero.append(shift)
                elif shift + lead not in pivots:
                    pivots[shift + lead] = (shift, terms)
                    rank += 1  # it leads in degree depth - 1
                else:
                    # start from x_j*P, P the pivot (shift/x_j)*f_i reduced to
                    # one depth back, for the x_j whose x_j*P leads highest
                    # (a lead is positive, so 0 is none); shift - unit
                    # borrows, and is no shift, when x_j does not divide shift
                    start = step = 0
                    for unit in units if grown else ():
                        back = grown.get((i, shift - unit))
                        if back is not None and back + unit > start:
                            start, step = back + unit, unit
                    if start:
                        row = {k + step: c for k, c in pivots[start - step].items()}
                    else:
                        row = {shift + k: c for k, c in terms}
                    if (new := _insert(pivots, row)) is None:
                        zero.append(shift)
                    else:
                        grown[i, shift] = new
                        leads[new >> top] = leads.get(new >> top, 0) + 1
        rank += leads.get(depth - 1, 0)
        dim = comb(depth - 1 + nvars, nvars) - rank
        if previous is not None:
            if dim < previous:
                raise AssertionError(
                    "truncated dimension decreased; this contradicts the "
                    "inclusion of truncation ideals")
            if dim == previous:
                return LocalIndexReport(
                    dim, query.group_order, stabilized_at=depth - 1,
                    orbifold_index=orbifold_index(dim, query.group_order))
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
    _typed(multiplicity, int, "multiplicity must be an int, got {!r}")
    _typed(group_order, int, "group_order must be an int, got {!r}")
    if group_order < 1:
        raise ValueError("group order must be a positive integer")
    if multiplicity < 0:
        raise ValueError("multiplicity cannot be negative")
    return Fraction(multiplicity, group_order)


def index_sum(reports: list[LocalIndexReport] | list[Fraction]) -> Fraction:
    """Aggregate local indices for comparison against a global count.  An
    entry that is not a report, an int or a Fraction (a float, say, which
    is not exact data, or a bool, which Python takes for an int but is no
    index) raises ValueError naming it, as does a value that is no sequence."""
    total = Fraction(0)
    for item in _tuple(reports, "reports must be a sequence of reports or indices, got {!r}"):
        if isinstance(item, LocalIndexReport):
            item = item.orbifold_index
        elif not isinstance(item, (int, Fraction)) or isinstance(item, bool):
            raise ValueError(f"index {item!r} is not a report, an int or a Fraction")
        total += item
    return total


def _packed(comp: MultiPoly, width: int, top: int) -> tuple[int, tuple]:
    """The lead column and the (column, value) terms, lead first, of a
    nonzero component as a row of the echelon: scaled to integers with a
    positive lead and content 1, as a stored pivot is.  Its row shifted by
    the monomial of key s is {s + k: c}, normalised the same way.  The keys
    are distinct, so sorting the (key, numerator, denominator) triples
    compares keys only."""
    scale, terms = 1, []
    for e, c in comp.terms.items():
        key = degree = shift = 0
        for x in e:
            key += x << shift
            degree += x
            shift += width
        den = c.denominator
        if den != 1:
            scale = lcm(scale, den)
        terms.append((key + (degree << top), c.numerator, den))
    terms.sort()
    content, row = 0, []
    for key, value, den in terms:
        if den != scale:
            value *= scale // den
        content = gcd(content, value)
        row.append((key, value))
    lead, value = row[0]
    if value < 0:
        content = -content
    if content == 1:
        return lead, tuple(row)
    return lead, tuple([(k, c // content) for k, c in row])


@lru_cache(maxsize=SHIFT_CACHE_SIZE)
def _shifts(nvars: int, width: int, degree: int) -> tuple[int, ...]:
    """The keys of the monomials of one degree in `nvars` variables, with
    fields of `width` bits, ascending: by the highest variable's exponent,
    then the next.  Shared by every query; a tuple, so never changed."""
    keys = [(degree << nvars * width, degree)]  # (key so far, degree left)
    for i in range(nvars - 1, 0, -1):
        keys = [(key + (x << i * width), left - x)
                for key, left in keys for x in range(left + 1)]
    return tuple(key + left for key, left in keys)


def _insert(pivots: dict[int, dict[int, int] | tuple], row: dict[int, int]) -> int | None:
    """Reduce an integer row {column: value} into the echelon; return the
    column it becomes the pivot of, or None when it reduces to zero.

    While the row's lowest column has a pivot p, the row becomes, in place,
    (p[lead]*row - row[lead]*p) / gcd(p[lead], row[lead]).  A row with a new
    leading column is kept as that column's pivot, with a positive lead and
    content 1, and never changes again.  A pivot may also be stored as a
    pair (s, terms) standing for the row {s + k: c for k, c in terms}; the
    first reduction that reads it stores that row in its place."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
            pivots[lead] = row if g == 1 else {c: x // g for c, x in row.items()}
            return lead
        if type(pivot) is tuple:
            shift, terms = pivot
            pivot = pivots[lead] = {shift + k: c for k, c in terms}
        g = gcd(pivot[lead], row[lead])
        a, b = pivot[lead] // g, row[lead] // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, x in pivot.items():
            if value := row.get(c, 0) - b * x:
                row[c] = value
            else:
                del row[c]
    return None
