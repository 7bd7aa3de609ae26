"""The local multiplicity oracle and orbifold indices."""

import dataclasses
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricsing import catalog, formulas, residue
from toricsing.catalog import parse_polynomial
from toricsing.errors import NonIsolatedZeroError
from toricsing.exactalg import MultiPoly
from toricsing.residue import (
    SHIFT_CACHE_SIZE, IndexQuery, _insert, _shifts, index_sum, local_multiplicity,
    orbifold_index,
)


def _query(texts, variables, group=1, cap=64):
    comps = tuple(parse_polynomial(t, variables) for t in texts)
    return IndexQuery(comps, group_order=group, degree_cap=cap)


def test_nondegenerate_zero():
    report = local_multiplicity(_query(["z1", "z2"], ("z1", "z2")))
    assert report.multiplicity == 1
    assert report.orbifold_index == 1
    assert report.stabilized_at == 1


def test_cyclic_chart_example():
    k = 3
    report = local_multiplicity(
        _query([f"{k}*z1^{k - 1}", f"{k}*z2^{k - 1}"], ("z1", "z2"), group=k))
    assert report.multiplicity == (k - 1) ** 2 == 4
    assert report.orbifold_index == Fraction(4, 3)


def test_separated_monomials():
    report = local_multiplicity(_query(["z1^2", "z2^3"], ("z1", "z2")))
    assert report.multiplicity == 6


def test_staircase_law():
    for a in range(1, 6):
        for b in range(1, 6):
            report = local_multiplicity(
                _query([f"z1^{a}", f"z2^{b}"], ("z1", "z2")))
            assert report.multiplicity == a * b
            assert report.stabilized_at < 12


def test_staircase_three_variables():
    report = local_multiplicity(
        _query(["z1^2", "z2^2", "z3^3"], ("z1", "z2", "z3")))
    assert report.multiplicity == 12


def test_linear_change_invariance():
    rng = random.Random(41)
    table = ("z1", "z2")
    base = [parse_polynomial("z1^2 - z2^3", table),
            parse_polynomial("z1*z2 + z2^2", table)]
    expected = local_multiplicity(IndexQuery(tuple(base))).multiplicity
    trials = 0
    while trials < 20:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        u = MultiPoly(table, {(1, 0): a, (0, 1): b})
        v = MultiPoly(table, {(1, 0): c, (0, 1): d})
        changed = tuple(p.substitute({"z1": u, "z2": v}) for p in base)
        report = local_multiplicity(IndexQuery(changed))
        assert report.multiplicity == expected
        trials += 1


def test_component_order_does_not_matter():
    q1 = _query(["z1^3", "z2^2"], ("z1", "z2"))
    q2 = _query(["z2^2", "z1^3"], ("z1", "z2"))
    assert local_multiplicity(q1).multiplicity == \
        local_multiplicity(q2).multiplicity == 6


def test_localization_ignores_far_zeros():
    # z1*(z1 - 1) vanishes at 0 and at 1; only the origin counts
    report = local_multiplicity(
        _query(["z1^2 - z1", "z2"], ("z1", "z2")))
    assert report.multiplicity == 1


def test_non_isolated_zero_detected():
    with pytest.raises(NonIsolatedZeroError):
        local_multiplicity(_query(["z1", "z1"], ("z1", "z2"), cap=12))


def test_constant_term_rejected():
    with pytest.raises(ValueError, match="vanish at the origin"):
        _query(["z1 + 1", "z2"], ("z1", "z2"))


def test_component_count_must_match():
    with pytest.raises(ValueError):
        IndexQuery((parse_polynomial("z1", ("z1", "z2")),))


def test_orbifold_index_values():
    assert orbifold_index(1, 7) == Fraction(1, 7)
    assert orbifold_index(4, 1) == 4
    for k in range(2, 8):
        assert orbifold_index((k - 1) ** 2, k) == Fraction((k - 1) ** 2, k)
    with pytest.raises(ValueError):
        orbifold_index(3, 0)


@pytest.mark.parametrize("group", [Fraction(3, 2), 2.0, "3", True, False])
def test_query_rejects_a_non_integer_group_order(group):
    # Fraction(3, 2) used to report orbifold index 4 for multiplicity 6
    message = f"group_order must be an int, got {group!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _query(["u^2", "v^3"], ("u", "v"), group=group)
    with pytest.raises(ValueError, match=re.escape(message)):
        orbifold_index(6, group)


def test_query_rejects_a_non_integer_cap():
    with pytest.raises(ValueError, match=re.escape("degree_cap must be an int, got 10.5")):
        _query(["u^2", "v^3"], ("u", "v"), cap=10.5)


def test_orbifold_index_rejects_a_non_integer_multiplicity():
    with pytest.raises(ValueError, match=re.escape("multiplicity must be an int, got 6.0")):
        orbifold_index(6.0, 3)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_multiplicities_and_caps_are_not_ints(flag):
    # a bool is an int to Python; orbifold_index(True, 2) used to return 1/2
    with pytest.raises(ValueError, match=re.escape(
            f"multiplicity must be an int, got {flag!r}")):
        orbifold_index(flag, 2)
    with pytest.raises(ValueError, match=re.escape(
            f"degree_cap must be an int, got {flag!r}")):
        _query(["u^2", "v^3"], ("u", "v"), cap=flag)


def test_integer_queries_report_as_before():
    report = local_multiplicity(_query(["u^2", "v^3"], ("u", "v"), group=3, cap=10))
    assert (report.multiplicity, report.group_order, report.orbifold_index,
            report.stabilized_at) == (6, 3, Fraction(2), 4)
    report = local_multiplicity(_query(["u^2", "v^3"], ("u", "v")))
    assert (report.multiplicity, report.group_order, report.orbifold_index,
            report.stabilized_at) == (6, 1, Fraction(6), 4)


def test_query_and_report_are_frozen():
    # a query is checked once, at construction, so no field may change after
    query = _query(["u^2", "v^3"], ("u", "v"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.degree_cap = 10.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.components = query.components[:1]
    report = local_multiplicity(query)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.multiplicity = 7
    assert (query.degree_cap, len(query.components), report.multiplicity) == (64, 2, 6)


def test_index_sum():
    assert index_sum([]) == 0
    assert index_sum([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)
    k = 4
    reports = [local_multiplicity(_query(["z1", "z2"], ("z1", "z2")))
               for _ in range(k)]
    reports.append(local_multiplicity(
        _query([f"{k}*z1^{k - 1}", f"{k}*z2^{k - 1}"], ("z1", "z2"), group=k)))
    assert index_sum(reports) == Fraction(2 * k * k - 2 * k + 1, k)


def test_index_sum_rejects_inexact_entries():
    with pytest.raises(ValueError, match="0.1 is not a report"):
        index_sum([0.1, Fraction(1, 5)])
    with pytest.raises(ValueError, match="'1/2'"):
        index_sum([1, "1/2"])
    # a bool is an int to Python: index_sum([True, True]) used to return 2
    for bad in (True, False):
        with pytest.raises(ValueError,
                           match=f"^index {bad} is not a report, an int or a Fraction$"):
            index_sum([Fraction(1, 2), bad])


def test_oracle_matches_global_count_for_diagonal_fields():
    # a generic diagonal field on a well formed weighted plane has one
    # nondegenerate zero in each of the three charts, with isotropy w_i
    rng = random.Random(43)
    triples = []
    while len(triples) < 10:
        w = tuple(rng.randint(1, 9) for _ in range(3))
        if all(gcd(w[i], w[j]) == 1 for i in range(3) for j in range(i + 1, 3)):
            triples.append(w)
    for w in triples:
        # coefficients with a_i w_j != a_j w_i so every zero is nondegenerate
        while True:
            a = tuple(Fraction(rng.randint(1, 30)) for _ in range(3))
            if all(a[i] * w[j] != a[j] * w[i]
                   for i in range(3) for j in range(3) if i != j):
                break
        reports = []
        table = ("u", "v")
        for i in range(3):
            others = [k for k in range(3) if k != i]
            comps = tuple(
                (a[k] - a[i] * Fraction(w[k], w[i]))
                * MultiPoly.variable(name, table)
                for k, name in zip(others, table))
            reports.append(local_multiplicity(IndexQuery(comps, group_order=w[i])))
        model = catalog.weighted(*w)
        assert index_sum(reports) == formulas.foliation_sing_count(model, 0)


def _exact_rank(rows):
    """Rank over the rationals of sparse rows {column: coefficient}, by the
    oracle's integer echelon `_insert`."""
    pivots = {}
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        _insert(pivots, {c: x.numerator * (scale // x.denominator)
                         for c, x in row.items() if x})
    return len(pivots)


def test_exact_rank_matches_rational_elimination():
    def rational_rank(rows):
        m = [list(map(Fraction, r)) for r in rows]
        cols = len(m[0]) if m else 0
        rank = row = 0
        for col in range(cols):
            piv = next((r for r in range(row, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[row], m[piv] = m[piv], m[row]
            for r in range(row + 1, len(m)):
                f = m[r][col] / m[row][col]
                if f:
                    for c in range(col, cols):
                        m[r][c] -= f * m[row][c]
            row += 1
            rank += 1
            if row == len(m):
                break
        return rank

    rng = random.Random(99)
    for _ in range(150):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(nc)]
                for _ in range(nr)]
        if nr > 2 and rng.random() < 0.5:
            rows[rng.randrange(nr)] = list(rows[rng.randrange(nr)])
        if rng.random() < 0.5:
            dead = rng.randrange(nc)
            for r in rows:
                r[dead] = 0
        frac_rows = [[Fraction(x, rng.randint(1, 3)) for x in r] for r in rows]
        sparse = [{c: x for c, x in enumerate(r) if x} for r in frac_rows]
        assert _exact_rank(sparse) == rational_rank(frac_rows)


def test_stabilization_is_monotone():
    # spot check the reported plateau: shrinking the cap below it errors
    report = local_multiplicity(_query(["z1^4", "z2^4"], ("z1", "z2")))
    assert report.stabilized_at == 7
    with pytest.raises(NonIsolatedZeroError):
        local_multiplicity(_query(["z1^4", "z2^4"], ("z1", "z2"), cap=6))


def test_error_names_the_reason_it_stopped():
    with pytest.raises(NonIsolatedZeroError,
                       match=r"proved not isolated: c\(2\) = 2 exceeds the Bezout bound 1"):
        local_multiplicity(_query(["z1", "z1"], ("z1", "z2")))
    with pytest.raises(NonIsolatedZeroError,
                       match="cap below the plateau: no stabilization by degree 6.*isolated"):
        local_multiplicity(_query(["z1^4", "z2^4"], ("z1", "z2"), cap=6))


def test_three_variable_fourth_powers():
    report = local_multiplicity(
        _query(["u^4", "v^4", "w^4"], ("u", "v", "w")))
    assert (report.multiplicity, report.stabilized_at) == (64, 10)


def _integer_poly(table, coefficients, min_degree, max_degree):
    exps = [e for e in product(range(max_degree + 1), repeat=len(table))
            if min_degree <= sum(e) <= max_degree]
    return MultiPoly(table, dict(zip(exps, coefficients)))


@st.composite
def diagonal_changes(draw):
    # the diagonal germ (z_i^a_i) and a random invertible linear change of it
    n = draw(st.sampled_from((2, 3)))
    table = ("z1", "z2", "z3")[:n]
    exps = draw(st.lists(st.integers(1, 6 if n == 2 else 3), min_size=n, max_size=n))
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    det = (m[0][0] * m[1][1] - m[0][1] * m[1][0] if n == 2 else
           sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                          - m[1][(j + 2) % 3] * m[2][(j + 1) % 3]) for j in range(3)))
    assume(det != 0)
    diagonal = tuple(MultiPoly.variable(v, table) ** e for v, e in zip(table, exps))
    images = {v: MultiPoly(table, {tuple(int(j == i) for j in range(n)): m[k][i]
                                   for i in range(n)})
              for k, v in enumerate(table)}
    return diagonal, tuple(p.substitute(images) for p in diagonal), prod(exps)


@settings(max_examples=40, deadline=None)
@given(diagonal_changes())
def test_linear_change_keeps_multiplicity_and_plateau(case):
    # m^D is invariant under GL_n, so every c(D) is, and so is the plateau
    diagonal, changed, staircase = case
    expected = local_multiplicity(IndexQuery(diagonal))
    report = local_multiplicity(IndexQuery(changed))
    assert report.multiplicity == expected.multiplicity == staircase
    assert report.stabilized_at == expected.stabilized_at


@st.composite
def common_factor_germs(draw):
    # f_i = g * h_i vanishes on the hypersurface g = 0 through the origin
    n = draw(st.sampled_from((2, 3)))
    table = ("z1", "z2", "z3")[:n]
    coefficient_lists = st.lists(st.integers(-3, 3), min_size=10, max_size=10)
    g = _integer_poly(table, draw(coefficient_lists), 1, 2)
    assume(not g.is_zero)
    hs = [_integer_poly(table, draw(coefficient_lists), 0, 1) for _ in table]
    return tuple(g * h for h in hs)


@settings(max_examples=40, deadline=None)
@given(common_factor_germs())
def test_common_factor_is_proved_not_isolated(components):
    with pytest.raises(NonIsolatedZeroError, match="proved not isolated"):
        local_multiplicity(IndexQuery(components))


def test_twelfth_powers():
    report = local_multiplicity(_query(["u^12", "v^12"], ("u", "v")))
    assert (report.multiplicity, report.stabilized_at) == (144, 23)


def _dense_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        for r in rows:
            if r[col]:
                f = r[col] / pivot[col]
                r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def _per_depth_route(components, cap):
    """Multiplicity and plateau, or the error text, by the per-depth route:
    at each depth a fresh basis of the monomials below it, the Macaulay rows
    truncated to that basis, and a dense rational rank."""
    n = len(components[0].vars)
    bound = prod(comp.total_degree() for comp in components)
    previous = None
    for depth in range(1, cap + 1):
        basis = [e for e in product(range(depth), repeat=n) if sum(e) < depth]
        position = {mono: i for i, mono in enumerate(basis)}
        rows = []
        for comp in components:
            for shift in basis:
                row = [Fraction(0)] * len(basis)
                for exp, coeff in comp.terms.items():
                    i = position.get(tuple(a + b for a, b in zip(exp, shift)))
                    if i is not None:
                        row[i] = coeff
                rows.append(row)
        dim = len(basis) - _dense_rank(rows)
        if dim == previous:
            return dim, depth - 1
        if dim > bound:
            return (f"proved not isolated: c({depth}) = {dim} exceeds the Bezout "
                    f"bound {bound} on the multiplicity of an isolated zero")
        previous = dim
    return (f"cap below the plateau: no stabilization by degree {cap}; the zero "
            f"at the origin may still be isolated, and a cap of {bound + 1} "
            f"decides it")


# largest cap per variable count that keeps the dense route fast
DENSE_CAPS = {1: 12, 2: 8, 3: 5, 4: 4}


@st.composite
def mixed_degree_germs(draw):
    # component i is c*z_i^a plus a few terms of other degrees, or zero
    n = draw(st.integers(1, 4))
    table = ("z1", "z2", "z3", "z4")[:n]
    rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 1 <= sum(e) <= 4)
    comps = []
    for i in range(n):
        terms = draw(st.dictionaries(exponents, rationals, max_size=3))
        if draw(st.integers(0, 5)):
            lead = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n))
            terms[lead] = terms.get(lead, 0) + draw(rationals.filter(bool))
        comps.append(MultiPoly(table, terms))
    return tuple(comps), draw(st.integers(2, DENSE_CAPS[n]))


@settings(max_examples=80, deadline=None)
@given(mixed_degree_germs())
def test_single_echelon_matches_per_depth_route(case):
    components, cap = case
    expected = _per_depth_route(components, cap)
    try:
        report = local_multiplicity(IndexQuery(components, degree_cap=cap))
    except NonIsolatedZeroError as exc:
        assert str(exc) == expected
    else:
        assert (report.multiplicity, report.stabilized_at) == expected


def _weighted_homogeneous(weights, degree, rng):
    """Every monomial of weighted degree `degree`, with random coefficients."""
    table = tuple(f"x{i}" for i in range(len(weights)))
    ranges = [range(degree // w + 1) for w in weights]
    terms = {e: rng.randint(1, 9) for e in product(*ranges)
             if sum(a * w for a, w in zip(e, weights)) == degree}
    return MultiPoly(table, terms)


@pytest.mark.parametrize("weights, degree", [
    ((1, 1), 4), ((1, 2), 6), ((2, 3), 12), ((1, 2, 3), 6), ((1, 1, 1), 3),
    ((1, 1, 2), 4), ((1, 1, 1, 1), 3), ((1, 2, 2, 3), 6),
])
def test_jacobian_germs_follow_milnor_orlik(weights, degree):
    # the Milnor number of an isolated weighted homogeneous singularity is
    # prod (d / w_i - 1) (Milnor and Orlik, 1970)
    f = _weighted_homogeneous(weights, degree, random.Random(f"{weights}@{degree}"))
    jacobian = tuple(f.derivative(v) for v in f.vars)
    milnor = prod(Fraction(degree, w) - 1 for w in weights)
    assert milnor <= 20
    assert local_multiplicity(IndexQuery(jacobian)).multiplicity == milnor


@pytest.mark.parametrize("weights, degree", [((1, 1, 2, 3), 6), ((1, 1, 1, 3), 6), ((2, 3, 5), 30)])
def test_jacobian_germs_past_milnor_twenty(weights, degree):
    # past the milnor <= 20 germs above: Milnor numbers 50, 125 and 630
    f = _weighted_homogeneous(weights, degree, random.Random(f"{weights}@{degree}"))
    jacobian = tuple(f.derivative(v) for v in f.vars)
    milnor = prod(Fraction(degree, w) - 1 for w in weights)
    assert local_multiplicity(IndexQuery(jacobian)).multiplicity == milnor


def _determinant(m):
    """By Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


@pytest.mark.parametrize("exps", [(1, 1, 1, 4), (1, 2, 2, 2), (1, 1, 2, 3), (2, 2, 1, 2)])
def test_linear_changes_of_four_variable_diagonal_germs(exps):
    # (z_i^a_i) has multiplicity prod a_i, and so has every linear change of it
    rng = random.Random(f"diagonal4/{exps}")
    table = ("z1", "z2", "z3", "z4")
    while True:
        m = [[rng.randint(-2, 2) for _ in table] for _ in table]
        if _determinant(m):
            break
    images = {v: MultiPoly(table, {tuple(int(j == i) for j in range(4)): m[k][i]
                                   for i in range(4)})
              for k, v in enumerate(table)}
    changed = tuple((MultiPoly.variable(v, table) ** e).substitute(images)
                    for v, e in zip(table, exps))
    assert local_multiplicity(IndexQuery(changed)).multiplicity == prod(exps)


@pytest.mark.parametrize("a, b", [(1, 3), (5, 5), (9, 11), (5, 13)])
def test_packed_fields_at_their_width_limit(a, b):
    # the plateau of (u^a, v^b) is found at depth a + b, and a cap there makes
    # cap + max degree = 2^k - 1, the widest exponents the key fields allow
    plateau = a + b
    assert (plateau + b + 1).bit_length() > (plateau + b).bit_length()
    for cap in (plateau, 10 ** 4):
        report = local_multiplicity(_query([f"u^{a}", f"v^{b}"], ("u", "v"), cap=cap))
        assert (report.multiplicity, report.stabilized_at) == (a * b, plateau - 1)
    with pytest.raises(NonIsolatedZeroError) as caught:
        local_multiplicity(_query([f"u^{a}", f"v^{b}"], ("u", "v"), cap=plateau - 1))
    assert str(caught.value) == (
        f"cap below the plateau: no stabilization by degree {plateau - 1}; the "
        f"zero at the origin may still be isolated, and a cap of {a * b + 1} "
        "decides it")


def _random_component(rng, n, degree):
    """A component of total degree `degree` in n variables, holding the pure
    power x_j^degree of a random j, with numerators up to 10^30 and a mix of
    no, small and huge denominators, so leads of either sign occur."""
    j = rng.randrange(n)
    exps = {tuple(degree * (i == j) for i in range(n))}
    while len(exps) < rng.randint(1, 12):
        e = [rng.randint(0, degree) for _ in range(n)]
        if 1 <= sum(e) <= degree:
            exps.add(tuple(e))
    return MultiPoly(tuple(f"x{i}" for i in range(n)), {e: Fraction(
        rng.choice([-1, 1]) * rng.choice([rng.randint(1, 9), rng.randint(1, 10 ** 30)]),
        rng.choice([1, rng.randint(1, 12), rng.randint(1, 10 ** 20)])) for e in exps})


def _reference_row(comp):
    """The component's exponents in the packed order, graded and then from
    the last variable, and its coefficients scaled to integers with a positive
    lead and content 1: divided by the lead coefficient, then multiplied by
    the lcm L of the reduced denominators.  The lead becomes L > 0, and no
    prime divides every value: a prime power dividing L exactly divides some
    ratio's denominator, and so not that value."""
    exps = sorted(comp.terms, key=lambda e: (sum(e), e[::-1]))
    ratios = [comp.terms[e] / comp.terms[exps[0]] for e in exps]
    scale = 1
    for r in ratios:
        scale = scale * r.denominator // gcd(scale, r.denominator)
    return exps, [int(r * scale) for r in ratios]


def test_packed_rows_decode_to_their_terms_at_the_no_carry_limit():
    rng = random.Random(43)
    for _ in range(300):
        n, degree, cap = rng.randint(1, 5), rng.randint(1, 6), rng.randint(2, 40)
        comp = _random_component(rng, n, degree)
        width = (cap + comp.total_degree()).bit_length()
        top, mask = n * width, (1 << width) - 1
        # a shift x_j^(cap - 1) takes the pure power to exponent cap + degree - 1,
        # the widest a field must hold, and no field carries into the next
        j = next(i for e in comp.terms for i in range(n) if e[i] == degree)
        shift = MultiPoly.variable(f"x{j}", comp.vars) ** (cap - 1)
        for poly in (comp, shift * comp):
            lead, row = residue._packed(poly, width, top)
            exps, values = _reference_row(poly)
            assert lead == row[0][0] and values[0] > 0
            assert [value for _, value in row] == values
            assert [k for k, _ in row] == sorted(k for k, _ in row)
            for (key, _), e in zip(row, exps):
                assert key >> top == sum(e)
                assert tuple((key >> i * width) & mask for i in range(n)) == e
        assert max(e[j] for e in (shift * comp).terms) == cap + degree - 1
        unshifted = residue._packed(comp, width, top)[1]
        key = (cap - 1 << top) + (cap - 1 << j * width)
        assert residue._packed(shift * comp, width, top)[1] == tuple(
            (key + k, c) for k, c in unshifted)
        # a rational multiple of a component is the same row of the echelon
        for _ in range(3):
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 25), rng.randint(1, 10 ** 15))
            assert residue._packed(q * comp, width, top) == (unshifted[0][0], unshifted)


def test_stored_pivots_have_positive_lead_and_content_one():
    rng = random.Random(7)
    for _ in range(100):
        pivots = {}
        for _ in range(rng.randint(1, 10)):
            row = {c: x for c in range(8) if (x := rng.choice([0, 0, rng.randint(-9, 9)]))}
            before = {column: dict(pivot) for column, pivot in pivots.items()}
            lead = _insert(pivots, {c: 6 * x for c, x in row.items()})
            # a stored pivot never changes; a new one is stored under its lead
            assert {column: pivots[column] for column in before} == before
            assert pivots.keys() - before.keys() == ({lead} if lead is not None else set())
            for column, pivot in pivots.items():
                assert column == min(pivot) and pivot[column] > 0
                assert gcd(*pivot.values()) == 1


def _answer(components, cap):
    """Multiplicity and plateau, or the error text, as `_per_depth_route` gives."""
    try:
        report = local_multiplicity(IndexQuery(components, degree_cap=cap))
    except NonIsolatedZeroError as exc:
        return str(exc)
    return report.multiplicity, report.stabilized_at


@st.composite
def shared_factor_germs(draw):
    # (f*l1, f*l2, g), or (f*l1, f*l2) in two variables: the first two
    # components share the factor f, so rows of both reduce to zero
    n = draw(st.sampled_from((2, 3)))
    table = ("z1", "z2", "z3")[:n]
    coefficient_lists = st.lists(st.integers(-3, 3), min_size=10, max_size=10)
    f, g = (_integer_poly(table, draw(coefficient_lists), 1, 2) for _ in range(2))
    l1, l2 = (_integer_poly(table, draw(coefficient_lists), 1, 1) for _ in range(2))
    return (f * l1, f * l2, g)[:n]


@settings(max_examples=80, deadline=None)
@given(st.one_of(common_factor_germs(), shared_factor_germs()),
       st.integers(2, DENSE_CAPS[2]))
def test_factor_germs_match_per_depth_route(components, cap):
    # rows skipped as multiples of zero rows leave every c(D) as it was
    cap = min(cap, DENSE_CAPS[len(components)])
    assert _answer(components, cap) == _per_depth_route(components, cap)


class _CountingPivots(dict):
    """A copy of the echelon's pivots that counts the reduction steps of
    `_insert`: the lookups that find a pivot under the row's lead."""

    steps = 0

    def get(self, key, default=None):
        pivot = super().get(key, default)
        self.steps += pivot is not None
        return pivot


def _spied_rows(monkeypatch, components, cap):
    """The answer on a germ, and for every row the echelon hands to
    `_insert`: its component, its shift, the pivot it became (None for
    zero), and the reduction steps it took and the plain row shift*f_i
    takes, each counted on a copy of the pivots."""
    n = len(components)
    width = (cap + max(comp.total_degree() for comp in components)).bit_length()
    packed = [residue._packed(comp, width, n * width) for comp in components]
    # _shifts is asked once per depth and component, for the shifts of degree
    # depth - 1 - mindeg f_i, and the rows of one shift are inserted before
    # the next shift is read
    calls = iter([(i, depth - 1 - (lead >> n * width))
                  for depth in range(1, cap + 1) for i, (lead, _) in enumerate(packed)
                  if depth - 1 - (lead >> n * width) >= 0])
    current = []

    def shifts(nvars, width, degree):
        i, expected = next(calls)
        assert degree == expected
        for shift in _shifts(nvars, width, degree):
            current[:] = [i, shift]
            yield shift

    rows = []

    def insert(pivots, row):
        i, shift = current
        counted = []
        for trial in (dict(row), {shift + k: c for k, c in packed[i][1]}):
            copy = _CountingPivots(pivots)
            counted.append((_insert(copy, trial), copy.steps))
        new = _insert(pivots, row)
        # the row and the plain row reduce to pivots of one lead
        assert counted[0][0] == counted[1][0] == new
        rows.append((i, shift, new, counted[0][1], counted[1][1]))
        return new

    monkeypatch.setattr(residue, "_shifts", shifts)
    monkeypatch.setattr(residue, "_insert", insert)
    answer = _answer(components, cap)
    monkeypatch.undo()
    return answer, rows


def test_no_row_is_inserted_below_a_zero_row(monkeypatch):
    # f*l2*f_1 = f*l1*f_2, so rows of the second component reduce to zero;
    # each multiple of such a row lies in the span of the rows before it and
    # is skipped.  At cap 8 the echelon reduced 65 rows to zero before that
    # rule, and reduces 3 now.  Rows are told apart by (component, shift):
    # a row may be x_j times a reduced pivot, not the shifted component
    table = ("u", "v", "w")
    rng = random.Random(1)
    f, g = (_integer_poly(table, [rng.randint(-9, 9) for _ in range(9)], 1, 2)
            for _ in range(2))
    l1, l2 = (_integer_poly(table, [rng.randint(-9, 9) for _ in range(3)], 1, 1)
              for _ in range(2))
    components, cap = (f * l1, f * l2, g), 8
    width = (cap + 3).bit_length()

    def exponents(shift):
        return [(shift >> i * width) & ((1 << width) - 1) for i in range(3)]

    answer, rows = _spied_rows(monkeypatch, components, cap)
    assert answer == (
        "cap below the plateau: no stabilization by degree 8; the zero at the "
        "origin may still be isolated, and a cap of 19 decides it")
    zeros = [(i, shift) for i, shift, new, _, _ in rows if new is None]
    assert len(zeros) == 3
    for i, shift, *_ in rows:
        for zero_i, zero_shift in zeros:
            if zero_i == i and zero_shift != shift:
                assert not all(a <= b for a, b in zip(exponents(zero_shift), exponents(shift)))


def test_rows_start_from_the_reduced_row_one_depth_back(monkeypatch):
    # a row whose lead has a pivot is x_j times the pivot its shift divided
    # by x_j reduced to one depth earlier (F4's Simplify), which spares most
    # of the reduction steps the plain rows need
    table = ("z1", "z2", "z3")
    images = {"z1": _integer_poly(table, [1, 2, -1], 1, 1),
              "z2": _integer_poly(table, [-1, 1, 3], 1, 1),
              "z3": _integer_poly(table, [2, -3, 1], 1, 1)}
    components = tuple((MultiPoly.variable(v, table) ** 3).substitute(images)
                       for v in table)
    answer, rows = _spied_rows(monkeypatch, components, 64)
    assert answer == (27, 7)
    steps, plain = (sum(row[k] for row in rows) for k in (3, 4))
    assert 2 * steps < plain


def test_dense_shared_factor_germs_are_proved_not_isolated():
    # (f*l1, f*l2, g) vanishes on the curve f = g = 0; f and g carry every
    # monomial of degree 1..2, l1 and l2 every one of degree 1, coefficients
    # drawn f, g, l1, l2 from one stream, the second germ continuing it
    table = ("u", "v", "w")
    rng = random.Random(1)
    for _ in range(2):
        f, g = (_integer_poly(table, [rng.randint(-9, 9) for _ in range(9)], 1, 2)
                for _ in range(2))
        l1, l2 = (_integer_poly(table, [rng.randint(-9, 9) for _ in range(3)], 1, 1)
                  for _ in range(2))
        with pytest.raises(NonIsolatedZeroError) as caught:
            local_multiplicity(IndexQuery((f * l1, f * l2, g)))
        assert str(caught.value) == (
            "proved not isolated: c(18) = 19 exceeds the Bezout bound 18 on the "
            "multiplicity of an isolated zero")


def test_shared_shift_lists_give_the_answers_of_fresh_ones():
    # queries in 2, 3 and 4 variables at three field widths, interleaved in
    # both orders, read the lists the others left behind
    rng = random.Random(35)
    queries = []
    for n in (2, 3, 4):
        table = ("z1", "z2", "z3", "z4")[:n]
        diagonal = [MultiPoly.variable(v, table) ** (i + 2) for i, v in enumerate(table)]
        first = MultiPoly.variable(table[0], table)
        changed = tuple(p.substitute({table[0]: first + rng.randint(-2, 2) * MultiPoly.variable(
            table[-1], table)}) for p in diagonal)
        for cap in (8, 64, 10 ** 4):
            queries += [(changed, cap), (tuple(diagonal[:1] * n), min(cap, 12))]
    fresh = []
    for query in queries:
        _shifts.cache_clear()
        fresh.append(_answer(*query))
    for order in (range(len(queries)), reversed(range(len(queries)))):
        _shifts.cache_clear()
        shared = {k: _answer(*queries[k]) for k in order}
        assert [shared[k] for k in range(len(queries))] == fresh


def test_shift_lists_are_sorted_monomial_keys():
    for nvars, width, degree in [(1, 4, 0), (1, 4, 9), (2, 5, 7), (3, 4, 6), (4, 7, 5)]:
        top = nvars * width
        keys = sorted((degree << top) + sum(x << i * width for i, x in enumerate(e))
                      for e in product(range(degree + 1), repeat=nvars)
                      if sum(e) == degree)
        assert _shifts(nvars, width, degree) == tuple(keys)


def test_shift_lists_keep_a_bounded_number_of_keys():
    _shifts.cache_clear()
    report = local_multiplicity(_query(["u^12", "v^12"], ("u", "v"), cap=10 ** 4))
    assert (report.multiplicity, report.stabilized_at) == (144, 23)
    table = ("z1", "z2", "z3", "z4")
    g = _integer_poly(table, [1, -2, 3] * 5, 1, 2)
    hs = [_integer_poly(table, ([2, -1, 1, 3, -3] * 2)[k:k + 5], 0, 1) for k in range(4)]
    with pytest.raises(NonIsolatedZeroError, match="proved not isolated"):
        local_multiplicity(IndexQuery(tuple(g * h for h in hs), degree_cap=12))
    assert 0 < _shifts.cache_info().currsize <= SHIFT_CACHE_SIZE
    # nine field widths times 31 degrees ask for more lists than are kept
    for cap in (2 ** k for k in range(5, 14)):
        report = local_multiplicity(_query(["u", "v^30"], ("u", "v"), cap=cap))
        assert (report.multiplicity, report.stabilized_at) == (30, 30)
    assert _shifts.cache_info().misses > SHIFT_CACHE_SIZE
    assert _shifts.cache_info().currsize == SHIFT_CACHE_SIZE
