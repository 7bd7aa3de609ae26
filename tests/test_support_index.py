"""The support index shared per tensor key set, the integer tensor that
`integrate` sums against, and the checks on a model's tensor data.  Every
oracle here is written out on plain dicts, sets and `math`; none calls
into `chow`."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, chow, formulas
from toricsing.chow import ChowElement, ToricModel
from toricsing.errors import ModelFormatError
from toricsing.exactalg import MultiPoly


def _bare_model(tensor, dim, gens):
    """A model with this tensor; its divisor classes, all the first
    generator, take no part in what these tests check."""
    first = (1,) + (0,) * (len(gens) - 1)
    return ToricModel("bare", dim, len(gens), gens, (first,) * (dim + len(gens)), tensor)


# -- one index per key set -----------------------------------------------------

def test_models_with_one_key_set_share_one_index():
    # every weighted plane has the single key (2,), whatever its weights
    planes = [catalog.from_spec_string(s)
              for s in ("weighted:1,2,3", "weighted:1,1,5", "projective:2")]
    assert len({id(m._support_index) for m in planes}) == 1
    assert planes[0]._support_index.pos is planes[1]._support_index.pos
    # a scroll with twist sum 0 loses its key (0, n), and then has the keys of
    # the product of projective spaces of the same dimensions
    assert (catalog.scroll(1, -1)._support_index
            is catalog.multiprojective(1, 1)._support_index)
    different = [catalog.weighted(1, 2, 3), catalog.weighted(1, 1, 2, 3),
                 catalog.scroll(1, 1), catalog.multiprojective(1, 1),
                 catalog.blowup_point(2)]
    assert len({id(m._support_index) for m in different}) == len(different)


def test_an_evicted_index_stays_with_its_models():
    m = catalog.weighted(1, 2, 3, 7)
    index = m._support_index
    chow._index_support.cache_clear()
    assert m._support_index is index
    fresh = catalog.weighted(1, 1, 2, 5)._support_index
    assert fresh is not index and fresh == index


def _down_set(keys):
    """Every exponent vector below some key, by brute force."""
    rank = len(next(iter(keys)))
    top = max(max(k) for k in keys)
    return {e for e in product(range(top + 1), repeat=rank)
            if any(all(x <= y for x, y in zip(e, k)) for k in keys)}


KEY_SETS = [{(2,)}, {(5,)}, {(1, 1)}, {(0, 3), (1, 2)}, {(3, 0), (0, 3)},
            {(3, 0), (1, 2), (0, 3)}, {(1, 1, 1)}, {(3, 0, 0), (0, 3, 0), (0, 0, 3)},
            {(2, 1, 0), (0, 1, 2)}]


@pytest.mark.parametrize("keys", KEY_SETS, ids=str)
def test_index_is_the_sorted_down_set_with_its_edges(keys):
    gens = ("H", "E", "F")[:len(next(iter(keys)))]
    m = _bare_model({k: 1 for k in keys}, sum(next(iter(keys))), gens)
    index = m._support_index
    support = _down_set(keys)
    assert sorted(index.order) == sorted(support)
    degrees = [sum(e) for e in index.order]
    assert degrees == sorted(degrees, reverse=True)
    pos = {e: i for i, e in enumerate(index.order)}
    assert dict(index.pos) == pos and index.pos.keys() == support
    assert all(index.order[index.pos[e]] == e for e in support)
    expected = []
    for i, e in enumerate(index.order):
        for k in range(len(e)):
            below = tuple(x - (t == k) for t, x in enumerate(e))
            if below in support:
                expected.append((i, k, pos[below]))
    assert list(index.edges) == expected


def test_index_values_are_immutable_and_the_cache_bounded():
    index = catalog.scroll(1, 2, 3)._support_index
    assert isinstance(index, tuple)
    assert type(index.pos) is MappingProxyType
    with pytest.raises(TypeError):
        index.pos[(0, 0, 0)] = 1
    assert type(index.order) is tuple and type(index.edges) is tuple
    assert all(type(e) is tuple for e in index.order)
    assert all(type(e) is tuple and len(e) == 3 for e in index.edges)
    bound = chow.SUPPORT_INDEX_CACHE_SIZE
    assert isinstance(bound, int) and bound > 0
    assert chow._index_support.cache_info().maxsize == bound
    for n in range(1, bound + 20):
        chow._index_support(frozenset({(n,)}))
    assert chow._index_support.cache_info().currsize == bound


# -- pairwise coprime weights --------------------------------------------------

WEIGHT_LISTS = st.lists(st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 15])
                        | st.integers(1, 200), max_size=8)


@settings(max_examples=300, deadline=None)
@given(WEIGHT_LISTS)
def test_pairwise_coprime_is_the_pairwise_gcd_test(w):
    expected = all(gcd(a, b) == 1 for a, b in combinations(w, 2))
    assert catalog._pairwise_coprime(w) is expected
    assert catalog._pairwise_coprime(tuple(w)) is expected


def test_pairwise_coprime_on_repeats_and_ones():
    assert catalog._pairwise_coprime((1, 1, 1, 5))
    assert not catalog._pairwise_coprime((1, 5, 5))
    assert not catalog._pairwise_coprime((2, 3, 4))
    assert catalog._pairwise_coprime((4, 9, 25, 7))


# -- integrate on the integer tensor -------------------------------------------

# weights and coefficients from small sets, so sums often cancel
WEIGHTS = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                           Fraction(-2, 3), Fraction(5, 6), Fraction(-5, 6),
                           Fraction(3), Fraction(-1), Fraction(0), 1, -2])
COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                          Fraction(-3, 4), Fraction(2, 3)])


@st.composite
def integrals(draw):
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gens = ("H", "E", "F")[:rank]
    keys = [k for k in product(range(dim + 1), repeat=rank) if sum(k) == dim]
    tensor = draw(st.dictionaries(st.sampled_from(keys), WEIGHTS, min_size=1))
    symbols = draw(st.sampled_from([(), ("d",), ("d", "e")]))
    # generator parts on tensor keys, or on any monomial up to degree n + 1
    parts = st.sampled_from(keys) | st.tuples(*[st.integers(0, dim + 1)] * rank)
    exps = st.tuples(parts, st.tuples(*[st.integers(0, 2)] * len(symbols)))
    terms = draw(st.dictionaries(exps.map(lambda p: p[0] + p[1]), COEFFS,
                                 max_size=12))
    return _bare_model(tensor, dim, gens), tensor, gens + symbols, terms


@settings(max_examples=300, deadline=None)
@given(integrals())
def test_integrate_is_the_fraction_sum(case):
    m, tensor, table, terms = case
    r = m.rank
    expected = {}
    for exp, coeff in terms.items():
        key = exp[r:]
        expected[key] = expected.get(key, 0) + coeff * Fraction(tensor.get(exp[:r], 0))
    expected = {k: v for k, v in expected.items() if v}
    value = chow.integrate(m, ChowElement(m.gens, MultiPoly(table, terms)))
    assert value.vars == table[r:]
    assert value.terms == expected
    assert all(type(c) is Fraction for c in value.terms.values())


def test_integrate_divides_once_by_the_common_denominator():
    m = _bare_model({(2, 0): Fraction(1, 6), (1, 1): Fraction(-1, 4),
                     (0, 2): Fraction(5, 3)}, 2, ("H", "E"))
    assert m._integer_tensor == (12, {(2, 0): 2, (1, 1): -3, (0, 2): 20})
    # 6 * 1/6 + 4 * (-1/4) cancels; 3 * 5/3 leaves an integral Fraction
    elem = ChowElement(m.gens, MultiPoly(("H", "E", "d"), {
        (2, 0, 1): 6, (1, 1, 1): 4, (0, 2, 0): 3}))
    value = chow.integrate(m, elem)
    assert value.vars == ("d",) and value.terms == {(0,): Fraction(5)}
    assert type(value.terms[(0,)]) is Fraction


# -- tensor data at the door ---------------------------------------------------

FIELDS = dict(name="P1", dim=1, rank=1, gens=("H",), divisor_classes=((1,), (1,)))


def test_models_reject_non_integer_tensor_keys_and_non_rational_weights():
    with pytest.raises(ValueError, match=r"tensor key \(1.0,\) .* 1.0"):
        ToricModel(tensor={(1.0,): 1}, **FIELDS)
    with pytest.raises(ValueError, match=r"tensor key \(Fraction\(1, 1\),\)"):
        ToricModel(tensor={(Fraction(1),): 1}, **FIELDS)
    with pytest.raises(ValueError, match=r"tensor weight 1.5 at key \(1,\)"):
        ToricModel(tensor={(1,): 1.5}, **FIELDS)
    with pytest.raises(ValueError, match=r"tensor weight '1/2' at key \(1,\)"):
        ToricModel(tensor={(1,): "1/2"}, **FIELDS)
    # a float key of the right degree no longer slips through to the counts
    with pytest.raises(ValueError, match="tensor key"):
        ToricModel("P2", 2, 1, ("H",), ((1,),) * 3, {(2.0,): 1})


def test_tensor_weights_are_kept_or_made_fractions():
    half = Fraction(1, 2)
    m = ToricModel(tensor={(1,): half}, **FIELDS)
    assert m.tensor[(1,)] is half
    m = ToricModel(tensor={(1,): 2}, **FIELDS)
    assert type(m.tensor[(1,)]) is Fraction and m.tensor[(1,)] == 2
    assert ToricModel(tensor={(1,): 1}, **FIELDS) == catalog.projective(1)


def test_model_files_report_bad_tensor_data_as_format_errors():
    text = catalog.serialize_model(catalog.projective(1))
    with pytest.raises(ModelFormatError, match="tensor key"):
        catalog.parse_model(text.replace("tensor 1 =", "tensor 2 ="))


# -- symbolic degrees ----------------------------------------------------------

SYMBOLIC_MODELS = [catalog.projective(2), catalog.weighted(1, 2, 3),
                   catalog.scroll(1, 2, 0), catalog.multiprojective(1, 1, 1, 1, 1),
                   catalog.blowup_line_p3()]


@pytest.mark.parametrize("m", SYMBOLIC_MODELS, ids=lambda m: m.name)
def test_symbolic_degree_is_one_symbol_per_generator(m):
    r = m.rank
    names = tuple(f"d{k + 1}" for k in range(r))
    element = formulas.degree_class(m, "symbolic")
    assert element.gens == m.gens and element.poly.vars == m.gens + names
    assert element.poly.terms == {
        tuple(int(i == k or i == r + k) for i in range(2 * r)): 1 for k in range(r)}
    assert element == chow.class_element(m, formulas.symbolic_degree(m))
    for k, symbol in enumerate(formulas.symbolic_degree(m, [f"s{k}" for k in range(r)])):
        assert symbol.vars == tuple(f"s{k}" for k in range(r))
        assert symbol.terms == {tuple(int(i == k) for i in range(r)): 1}


def test_symbolic_degree_errors_keep_their_text():
    m = catalog.multiprojective(1, 1)
    with pytest.raises(ValueError) as caught:
        formulas.symbolic_degree(m, ("H1", "d"))
    assert str(caught.value) == "degree symbols may not collide with generator names"
    named = ToricModel("named", 1, 1, ("d1",), ((1,), (1,)), {(1,): 1})
    for call in (lambda: formulas.degree_class(named, "symbolic"),
                 lambda: formulas.foliation_sing_count(named, "symbolic")):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == "degree symbols may not collide with generator names"
    with pytest.raises(ValueError) as caught:
        formulas.symbolic_degree(m, ("d", "d"))
    assert str(caught.value) == "duplicate variable names in ('d', 'd')"
    with pytest.raises(ValueError) as caught:
        formulas.symbolic_degree(m, ("d",))
    assert str(caught.value) == "expected 2 symbol names, got ('d',)"
