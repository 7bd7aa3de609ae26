"""The count kernel (`chow.integrate_count`, passes over the support vector)
against the complete products it replaced, and the symbolic (P^1)^k count
against permanents."""

import random
import re
import warnings
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, chow, formulas
from toricsing.chow import ChowElement, ToricModel, chern_class, integrate, wronski_classes
from toricsing.errors import ToricError
from toricsing.exactalg import MultiPoly, aligned, poly_sum


# -- the complete-product route: every product formed in full, one integral
#    per term, as the counts were computed before the pruned pipeline --------

def _signed(i, kind):
    return (-1) ** i if kind == "distribution" else 1


def _zero(m):
    return ChowElement(m.gens, MultiPoly.zero(m.gens))


def _dual(m, classes):
    dual = chow.unit_element(m.gens)
    for a in classes:
        dual = dual * a
    return dual


def ref_foliation(m, d):
    n = m.dim
    return poly_sum(integrate(m, chern_class(m, j) * d ** (n - j)) for j in range(n + 1))


def ref_restricted(m, d, a, kind):
    n = m.dim
    terms = []
    for j in range(n):
        inner = _zero(m)
        for k in range(j + 1):
            inner = inner + (-1) ** k * chern_class(m, j - k) * a ** (k + 1)
        terms.append(_signed(j, kind) * integrate(m, inner * d ** (n - 1 - j)))
    return poly_sum(terms)


def ref_hypersurface_euler(m, a):
    n = m.dim
    return poly_sum((-1) ** k * integrate(m, chern_class(m, n - 1 - k) * a ** (k + 1))
                    for k in range(n))


def ref_complement(m, d, a):
    n = m.dim
    return poly_sum((-1) ** i * integrate(m, chern_class(m, n - j - i) * a ** i * d ** j)
                    for j in range(n + 1) for i in range(n - j + 1))


def ref_complement_euler(m, a):
    n = m.dim
    return poly_sum((-1) ** i * integrate(m, chern_class(m, n - i) * a ** i)
                    for i in range(n + 1))


def ref_ci(m, classes, d, kind):
    n, k = m.dim, len(classes)
    dual = _dual(m, classes)
    ws = [wronski_classes(classes, j) for j in range(n - k + 1)]
    terms = []
    for i in range(n - k + 1):
        inner = _zero(m)
        for j in range(i + 1):
            inner = inner + (-1) ** j * ws[j] * chern_class(m, i - j)
        # d first: h_0 now carries the class symbols in its table, and the
        # count lists the degree symbols before them
        terms.append(_signed(i, kind) * integrate(m, d ** (n - k - i) * inner * dual))
    return poly_sum(terms)


def ref_ci_euler(m, classes):
    n, k = m.dim, len(classes)
    dual = _dual(m, classes)
    return poly_sum((-1) ** j * integrate(
        m, wronski_classes(classes, j) * chern_class(m, n - k - j) * dual)
        for j in range(n - k + 1))


def ref_multidegree(m, classes, h):
    return integrate(m, h ** (m.dim - len(classes)) * _dual(m, classes))


def ref_toric_curve(m, classes, d, strict):
    dual = _dual(m, classes)
    lhs = integrate(m, sum(classes[1:], start=classes[0]) * dual)
    rhs = integrate(m, (d + chern_class(m, 1)) * dual)
    if strict:
        gens = [chow.class_element(m, m._units[k]) for k in range(m.rank)]
        rhs, cut = aligned(rhs, integrate(m, sum(gens[1:], start=gens[0]) * dual))
        rhs = rhs - cut
    return aligned(lhs, rhs)


def same(new, old):
    """Equal values printed the same way, so the symbol order agrees too."""
    assert new == old
    assert new.canonical_string() == old.canonical_string()


# -- inputs -------------------------------------------------------------------

BUILTINS = [
    catalog.projective(1), catalog.projective(3), catalog.weighted(1, 1, 2),
    catalog.weighted(1, 2, 3, 5), catalog.multiprojective(1, 1, 1),
    catalog.multiprojective(2, 1), catalog.scroll(1, -1, 2), catalog.blowup_point(2),
    catalog.blowup_point(3), catalog.blowup_two_points_p3(), catalog.blowup_line_p3(),
]
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def random_models(draw):
    """Small models with arbitrary tensors, often sparse, so that the support
    cuts products hard; the pipeline and the route above apply the same
    linear functional to the same polynomial, so any tensor will do."""
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gens = ("H", "E", "F")[:rank]
    keys = [k for k in product(range(dim + 1), repeat=rank) if sum(k) == dim]
    tensor = draw(st.dictionaries(st.sampled_from(keys), RATIONALS, min_size=1))
    classes = draw(st.tuples(*[st.tuples(*[st.integers(-3, 3)] * rank)] * (dim + rank)))
    return ToricModel("random", dim, rank, gens, classes, tensor,
                      smooth=draw(st.booleans()))


def degrees(m, names):
    """Numeric Picard vectors, with int or Fraction entries, divisor
    coefficients, symbols, and Picard vectors mixing both."""
    ints = st.integers(-4, 4)
    return st.one_of(st.tuples(*[ints] * m.rank),
                     st.tuples(*[ints | RATIONALS] * m.rank),
                     st.just(formulas.symbolic_degree(m, names)),
                     st.tuples(*[ints | st.sampled_from(formulas.symbolic_degree(m, names))]
                               * m.rank),
                     st.tuples(*[st.integers(-2, 3)] * (m.dim + m.rank)))


@st.composite
def count_cases(draw):
    m = draw(st.sampled_from(BUILTINS) | random_models())
    n, r = m.dim, m.rank
    d = draw(degrees(m, [f"d{i + 1}" for i in range(r)]))
    hyp = draw(degrees(m, [f"a{i + 1}" for i in range(r)]))
    classes = draw(st.lists(degrees(m, [f"b{i + 1}" for i in range(r)]),
                            min_size=1, max_size=max(1, n - 1)))
    return m, d, hyp, classes


def count_routes(case, kind, strict):
    """Every count in `formulas` on the case, paired with its value by the
    complete-product route."""
    m, degree, hyp, classes = case
    n = m.dim
    d = formulas.degree_class(m, degree)
    a = formulas.degree_class(m, hyp)
    elems = [formulas.degree_class(m, c) for c in classes]
    yield formulas.foliation_sing_count(m, degree), ref_foliation(m, d)
    yield (formulas.restricted_sing_count(m, degree, hyp, kind),
           ref_restricted(m, d, a, kind))
    yield formulas.hypersurface_euler(m, hyp), ref_hypersurface_euler(m, a)
    yield formulas.complement_sing_count(m, degree, hyp), ref_complement(m, d, a)
    yield formulas.complement_euler(m, hyp), ref_complement_euler(m, a)
    for k in range(m.rank):
        h = chow.class_element(m, m._units[k])
        yield (formulas.multidegree(m, classes, k, generator=True),
               ref_multidegree(m, elems, h))
    for k in range(n + m.rank):
        h = chow.class_element(m, m.divisor_classes[k])
        yield formulas.multidegree(m, classes, k), ref_multidegree(m, elems, h)
    if len(classes) < n:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield (formulas.ci_sing_count(m, classes, degree, kind),
                   ref_ci(m, elems, d, kind))
        yield formulas.ci_euler(m, classes), ref_ci_euler(m, elems)
    if len(classes) == n - 1:
        verdict = formulas.poincare_check("toric-curve", model=m, classes=classes,
                                          degree=degree, strict=strict)
        lhs, rhs = ref_toric_curve(m, elems, d, strict)
        yield verdict.lhs, lhs
        yield verdict.rhs, rhs


@settings(max_examples=200, deadline=None)
@given(count_cases(), st.sampled_from(formulas.KINDS), st.booleans())
def test_counts_match_the_complete_product_route(case, kind, strict):
    for new, old in count_routes(case, kind, strict):
        same(new, old)
    m, n = case[0], case[0].dim
    coeffs = [2] * (n + m.rank)
    chi = integrate(m, chern_class(m, n)).constant_value()
    if m.smooth and chi.denominator == 1:
        assert formulas.gcd_obstruction(m, coeffs).chi == chi
    else:
        with pytest.raises(ToricError):
            formulas.gcd_obstruction(m, coeffs)


@settings(max_examples=100, deadline=None)
@given(count_cases(), st.sampled_from(formulas.KINDS), st.booleans())
def test_counts_are_fractions_on_the_reference_table(case, kind, strict):
    # the counts multiply ints where the series is integral; the integral
    # must hand back Fractions all the same, on the reference's table, and
    # integrate_count must pass integrate only the terms on tensor keys
    m = case[0]
    seen = []

    def spy(model, elem):
        seen.extend(e[:model.rank] for e in elem.poly.terms)
        return integrate(model, elem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chow, "integrate", spy)
        pairs = list(count_routes(case, kind, strict))
    for new, old in pairs:
        assert new.vars == old.vars
        assert all(type(c) is Fraction for c in new.terms.values())
    assert all(key in m.tensor for key in seen)


def test_integrate_drops_keys_whose_sum_is_zero():
    m = ToricModel("cancel", 2, 2, ("H", "E"), ((1, 0),) * 4, {(2, 0): 1, (1, 1): -1})
    table = ("H", "E", "d")
    # H^2*d + H*E*d + 3*H^2: the d terms cancel against the weights
    elem = ChowElement(m.gens, MultiPoly(table, {(2, 0, 1): 1, (1, 1, 1): 1,
                                                 (2, 0, 0): 3}))
    value = integrate(m, elem)
    assert value.vars == ("d",) and value.terms == {(0,): Fraction(3)}
    assert type(value.terms[(0,)]) is Fraction
    gone = integrate(m, ChowElement(m.gens, MultiPoly(table, {(2, 0, 1): 1,
                                                              (1, 1, 1): 1})))
    assert gone.vars == ("d",) and gone.terms == {}


def _in_degree(terms, j, pos):
    return {e: c for e, c in terms.items() if sum(e) == j and e in pos}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BUILTINS) | random_models())
def test_count_series_is_the_chern_series_on_the_support(m):
    order, pos, _ = m._support_index
    vector = m._chern_vector
    assert len(vector) == len(order)
    for j in range(m.dim + 1):
        entries = {e: c for e, c in zip(order, vector) if sum(e) == j and c}
        assert entries == _in_degree(chern_class(m, j).poly.terms, j, pos)
        if j:
            whole = chow.elementary_symmetric_classes(m, j).poly.terms
            assert entries == _in_degree(whole, j, pos)
    # the classes are integral, and so are the entries, stored as ints
    assert all(type(c) is int for c in vector)


def test_counts_leave_the_complete_series_unbuilt():
    for m in (catalog.projective(3), catalog.scroll(1, 1, 1)):
        formulas.foliation_sing_count(m, "symbolic")
        assert "_divisor_esym" not in m.__dict__
    m = catalog.multiprojective(1, 1)
    assert formulas.foliation_sing_count(m, (1, 1)) == 10
    assert m._chern_vector[m._support_index.pos[(1, 1)]] == 4
    # the public class is still complete: H1^2 and H2^2 are off the support
    e2 = chow.elementary_symmetric_classes(m, 2).poly
    assert e2.canonical_string() == "H1^2 + 4*H1*H2 + H2^2"


# -- an independent oracle for the large products ------------------------------

def permanent(matrix):
    k = len(matrix)
    total = 0
    for perm in permutations(range(k)):
        term = 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@pytest.mark.parametrize("k", range(2, 9))
def test_symbolic_count_on_p1_products_is_a_permanent(k):
    # on (P^1)^k the count is the permanent of the k x k matrix with
    # entries d_j + 2 delta_ij
    count = formulas.foliation_sing_count(catalog.multiprojective(*[1] * k), "symbolic")
    rng = random.Random(k)
    for _ in range(3):
        d = [rng.randint(-4, 6) for _ in range(k)]
        matrix = [[d[j] + 2 * (i == j) for j in range(k)] for i in range(k)]
        point = {f"d{j + 1}": d[j] for j in range(k)}
        assert count.evaluate(point) == permanent(matrix)


def test_integrate_count_reads_its_degree_from_the_factors():
    m = catalog.projective(2)
    h = m._units[0]
    assert chow.integrate_count(m, [h, h]) == 1
    with pytest.raises(ValueError, match="3 factors exceed the dimension 2"):
        chow.integrate_count(m, [h, h, h])


def test_integrate_count_refuses_what_is_no_picard_vector():
    # Picard vectors are the one class form: an element, a number or None
    # used to fail on len(), or, for an element, be taken apart
    m = catalog.multiprojective(1, 1)
    h = m._units[0]
    for bad in (chow.class_element(m, m._units[0]), chow.class_element(m, (1, 2)), 3, None):
        message = f"^{re.escape(repr(bad))} is not a Picard vector$"
        calls = [lambda: chow.integrate_count(m, [bad]),
                 lambda: chow.integrate_count(m, over=[bad]),
                 lambda: chow.integrate_count(m, [h], [h, bad])]
        if bad is not None:  # no twist is None
            calls.append(lambda: chow.integrate_count(m, [h], twist=bad))
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()
        with pytest.raises(TypeError, match=message):
            chow.class_element(m, bad)


def test_cached_polynomials_cannot_be_mutated():
    m = catalog.projective(2)
    symbol = formulas.symbolic_degree(m)[0]
    with pytest.raises(TypeError):
        symbol.terms[(0,)] = 5
    c2 = chern_class(m, 2)
    with pytest.raises(TypeError):
        del c2.poly.terms[(2,)]
    with pytest.raises(AttributeError):  # a read-only view has no clear()
        c2.poly.terms.clear()
    assert formulas.symbolic_degree(m)[0] is symbol and symbol.terms == {(1,): 1}
    assert repr(chern_class(m, 2)) == "ChowElement('3*H^2')"
    count = formulas.foliation_sing_count(m, "symbolic")
    assert count.canonical_string() == "d1^2 + 3*d1 + 3"


def _support(m):
    return set(m._support_index.pos)


def test_support_is_the_down_set_of_the_tensor_keys():
    assert _support(catalog.multiprojective(1, 1)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert _support(catalog.projective(3)) == {(0,), (1,), (2,), (3,)}
    # a key with a zero weight is no key
    m = ToricModel("sparse", 2, 2, ("H", "E"), ((1, 0),) * 4, {(2, 0): 1, (1, 1): 0})
    assert _support(m) == {(0, 0), (1, 0), (2, 0)}


# -- counts read Picard vectors ------------------------------------------------

def _symbol_entries(names):
    """Scalar expressions in fresh symbols: each symbol alone, on a table
    with an unused neighbour, and a polynomial in two of them."""
    s, t = (MultiPoly.variable(x, names) for x in names[:2])
    return st.sampled_from([s, t, 2 * s - t * t + Fraction(1, 3),
                            MultiPoly.const(3, names), s * t])


def picard_vectors(m, names):
    """Entries of ints, rationals and scalar expressions, the latter on the
    symbols' table, on it reversed, or on one holding a generator name
    unused, which the count's table and the element's leave out."""
    s, t = names
    tables = [names, (t, s), (t, m.gens[0], s), (s, t, m.gens[-1])]
    symbolic = st.builds(MultiPoly.extended, _symbol_entries(names), st.sampled_from(tables))
    entry = st.integers(-4, 4) | RATIONALS | symbolic
    return st.tuples(*[entry] * m.rank)


@st.composite
def vector_counts(draw):
    """A builtin and the classes of one `integrate_count`: factors, over and
    a twist, with symbols shared between classes, or each class its own."""
    m = draw(st.sampled_from(BUILTINS))
    shared = draw(st.booleans())

    def vec(tag):
        names = ("s", "t") if shared else (f"s{tag}", f"t{tag}")
        return draw(picard_vectors(m, names))

    factors = [vec(f"f{i}") for i in range(draw(st.integers(0, m.dim)))]
    over = [vec(f"o{i}") for i in range(draw(st.integers(0, 2)))]
    twist = draw(st.none() | st.just(vec("d")))
    return m, factors, over, twist


def _upto(elem, top):
    """The element less its terms above generator degree top."""
    r = len(elem.gens)
    return ChowElement(elem.gens, MultiPoly(elem.poly.vars, {
        e: c for e, c in elem.poly.terms.items() if sum(e[:r]) <= top}))


def _geometric(x, top):
    """1 + x + ... + x^top, on the table of x even at top = 0."""
    return sum((x ** k for k in range(1, top + 1)), start=x * 0 + 1)


def ring_count(m, factors, over, twist):
    """The count of `integrate_count` in the ring: the integral of
    prod(factors) * c(X) * prod_over sum_k (-a)^k * sum_k d^k, every series
    cut at the degree top = n - len(factors) that the bracket contributes,
    on the elements of the vectors."""
    n, top = m.dim, m.dim - len(factors)
    product = chow.unit_element(m.gens)
    for v in factors:
        product = product * chow.class_element(m, v)
    bracket = sum((chern_class(m, j) for j in range(1, top + 1)),
                  start=chow.unit_element(m.gens))
    series = [_geometric(-chow.class_element(m, a), top) for a in over]
    if twist is not None:
        series.append(_geometric(chow.class_element(m, twist), top))
    product = _upto(product * bracket, n)
    for x in series:
        product = _upto(product * x, n)
    return integrate(m, product)


@settings(max_examples=200, deadline=None)
@given(vector_counts())
def test_counts_on_vectors_are_counts_on_their_elements(case):
    m, factors, over, twist = case
    on_vectors = chow.integrate_count(m, factors, over, twist)
    on_elements = ring_count(m, factors, over, twist)
    same(on_vectors, on_elements)
    assert on_vectors.vars == on_elements.vars


def _refusal(call):
    try:
        call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _bad_vectors(m):
    """A Picard vector with one fault: a bool entry, a float or a None entry,
    a generator name used as a symbol, or a wrong length that is not the
    number of divisor coefficients either."""
    gen = MultiPoly.variable(m.gens[0], (m.gens[0], "s"))
    faults = [True, False, 0.5, None, gen, 2 * gen + 1]
    lengths = [n for n in range(m.rank + 3) if n not in (m.rank, m.dim + m.rank)]
    return st.one_of(
        st.tuples(st.integers(0, m.rank - 1), st.sampled_from(faults)).map(
            lambda f: tuple(f[1] if k == f[0] else k + 1 for k in range(m.rank))),
        st.sampled_from(lengths).map(lambda n: (1,) * n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BUILTINS).flatmap(lambda m: st.tuples(st.just(m), _bad_vectors(m))),
       st.sampled_from(formulas.KINDS))
def test_both_forms_and_every_count_refuse_alike(case, kind):
    m, bad = case
    good = (1,) * m.rank
    expected = _refusal(lambda: chow.class_element(m, bad))
    assert expected is not None
    for call in (lambda: chow.integrate_count(m, [bad]),
                 lambda: chow.integrate_count(m, over=[bad]),
                 lambda: chow.integrate_count(m, [good], [good], bad)):
        assert _refusal(call) == expected
    # the counts refuse what degree_class refuses: a vector of the wrong
    # length is no Picard vector there, nor divisor coefficients
    expected = _refusal(lambda: formulas.degree_class(m, bad))
    assert expected is not None
    calls = [lambda: formulas.foliation_sing_count(m, bad),
             lambda: formulas.restricted_sing_count(m, bad, good, kind),
             lambda: formulas.restricted_sing_count(m, good, bad, kind),
             lambda: formulas.complement_sing_count(m, bad, good),
             lambda: formulas.complement_sing_count(m, good, bad),
             lambda: formulas.hypersurface_euler(m, bad),
             lambda: formulas.complement_euler(m, bad),
             lambda: formulas.multidegree(m, [bad], 0, generator=True)]
    if m.dim > 1:
        others = [good] * (m.dim - 2)
        calls += [lambda: formulas.ci_sing_count(m, [good], bad, kind),
                  lambda: formulas.ci_sing_count(m, [bad], good, kind),
                  lambda: formulas.ci_euler(m, [bad]),
                  lambda: formulas.poincare_check("toric-curve", model=m,
                                                  classes=[bad, *others], degree=good),
                  lambda: formulas.poincare_check("toric-curve", model=m,
                                                  classes=[good, *others], degree=bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in calls:
            assert _refusal(call) == expected


SPY_MODELS = ["projective:3", "weighted:1,2,3", "scroll:1,2,0", "blowup_point:2"]


def _every_count(m, degree, hyp, classes):
    n = m.dim
    yield formulas.foliation_sing_count(m, degree)
    for kind in formulas.KINDS:
        yield formulas.restricted_sing_count(m, degree, hyp, kind)
        yield formulas.ci_sing_count(m, classes[:n - 1], degree, kind)
    yield formulas.complement_sing_count(m, degree, hyp)
    yield formulas.hypersurface_euler(m, hyp)
    yield formulas.complement_euler(m, hyp)
    yield formulas.ci_euler(m, classes[:n - 1])
    for k in range(n + m.rank):
        yield formulas.multidegree(m, classes, k)
    for k in range(m.rank):
        yield formulas.multidegree(m, classes, k, generator=True)
    for strict in (False, True):
        yield formulas.poincare_check("toric-curve", model=m, classes=classes[:n - 1],
                                      degree=degree, strict=strict).rhs


def test_count_routes_build_no_chow_element(monkeypatch):
    models = {spec: catalog.from_spec_string(spec) for spec in SPY_MODELS}
    calls = []
    init, class_element = ChowElement.__init__, chow.class_element

    def spied_init(self, *args):
        calls.append("ChowElement")
        init(self, *args)

    def spied_class_element(*args):
        calls.append("class_element")
        return class_element(*args)

    monkeypatch.setattr(ChowElement, "__init__", spied_init)
    monkeypatch.setattr(chow, "class_element", spied_class_element)
    formulas.degree_class(models["projective:3"], (1,))
    assert calls == ["class_element", "ChowElement"]  # the spies see calls
    calls.clear()
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in models.values():
            r = m.rank
            numeric = (tuple(range(2, 2 + r)), (2,) * r, [(1,) * r, (2,) * r])
            symbolic = ("symbolic", formulas.symbolic_degree(m, [f"a{i}" for i in range(r)]),
                        [formulas.symbolic_degree(m, [f"b{i}" for i in range(r)]), (1,) * r])
            for degree, hyp, classes in (numeric, symbolic):
                values += _every_count(m, degree, hyp, classes)
        d = MultiPoly.variable("d", ("d",))
        for degree in (3, Fraction(1, 2), d):
            for kind in formulas.KINDS:
                values.append(formulas.wci_sing_count((1, 1, 2, 3), (2, 3), degree, kind))
                values += formulas.wci_sing_count_parts((1, 1, 2, 3), (2, 3), degree, kind)
        values.append(formulas.alpha_invariant((1, 1, 2, 3), (2, 3)).alpha)
    assert values and calls == []
