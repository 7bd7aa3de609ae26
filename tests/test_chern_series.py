"""The Chern series the counts read, against closed forms and a complete
product written out here, on plain dicts: none of these oracles calls into
`chow`, so a fault shared by the series and its check cannot hide."""

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import catalog, formulas
from toricsing.chow import ToricModel


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def complete_product_count(classes, tensor, dim, degree):
    """The foliation count from prod (1 + D) expanded over every monomial,
    with no truncation and no support: the degree-n part of
    c(X) * sum_j d^j, paired with the tensor."""
    rank = len(degree)
    zero = (0,) * rank

    def linear(vec):
        return {tuple(int(i == k) for i in range(rank)): c
                for k, c in enumerate(vec) if c}

    chern = {zero: 1}
    for vec in classes:
        chern = _poly_mul(chern, {zero: 1, **linear(vec)})
    powers, total = {zero: 1}, {}
    for _ in range(dim + 1):
        for e, c in _poly_mul(chern, powers).items():
            if sum(e) == dim:
                total[e] = total.get(e, 0) + c
        powers = _poly_mul(powers, linear(degree))
    return sum(Fraction(c) * Fraction(tensor.get(e, 0)) for e, c in total.items())


@pytest.mark.parametrize("n", [*range(1, 21), 30, 45, 60])
def test_projective_count_is_the_binomial_sum(n):
    # c(P^n) = (1 + H)^(n+1) and H^n integrates to 1
    for d in (-3, 0, 1, 2, 7):
        expected = sum(comb(n + 1, j) * d ** (n - j) for j in range(n + 1))
        assert formulas.foliation_sing_count(catalog.projective(n), d) == expected


WEIGHTS = [(1, 2), (1, 1, 2), (2, 3, 5), (1, 2, 3, 5), (1, 1, 1, 3, 7),
           (1, 4, 9, 5, 7, 11), (1, 1, 1, 2, 3, 5, 7), (3, 4, 5, 7, 11, 13, 17, 1)]


@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_weighted_count_is_the_elementary_symmetric_sum(w):
    # c(P(w)) = prod (1 + w_i H) and H^n integrates to 1 / prod(w)
    n = len(w) - 1
    e = [sum(prod(s) for s in combinations(w, j)) for j in range(n + 1)]
    for d in (-2, 0, 1, 3, 10):
        expected = Fraction(sum(e[j] * d ** (n - j) for j in range(n + 1)), prod(w))
        assert formulas.foliation_sing_count(catalog.weighted(*w), d) == expected


def test_a_tensor_of_zero_weights_gives_empty_tables_and_count_zero():
    for classes, keys in ((((1,), (1,), (1,)), [(2,)]),
                          (((1, 0), (1, 0), (0, 1), (0, 1)), [(2, 0), (1, 1), (0, 2)])):
        m = ToricModel("null", 2, len(keys[0]), ("H", "E")[:len(keys[0])], classes,
                       {k: 0 for k in keys})
        assert m._chern_vector == ()
        assert formulas.foliation_sing_count(m, (3,) * m.rank) == 0
        assert formulas.foliation_sing_count(m, "symbolic").is_zero


@st.composite
def models_with_a_zero_class(draw):
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    keys = [k for k in product(range(dim + 1), repeat=rank) if sum(k) == dim]
    weights = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    tensor = draw(st.dictionaries(st.sampled_from(keys), weights, min_size=1))
    classes = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank),
                            min_size=dim + rank, max_size=dim + rank))
    for i in draw(st.sets(st.integers(0, dim + rank - 1), min_size=1)):
        classes[i] = (0,) * rank
    degree = draw(st.tuples(*[st.integers(-4, 4)] * rank))
    return classes, tensor, dim, degree


@settings(max_examples=120, deadline=None)
@given(models_with_a_zero_class())
def test_zero_divisor_classes_match_the_complete_product(case):
    classes, tensor, dim, degree = case
    rank = len(degree)
    m = ToricModel("zeros", dim, rank, ("H", "E", "F")[:rank], classes, tensor)
    assert formulas.foliation_sing_count(m, degree) == complete_product_count(
        classes, tensor, dim, degree)

