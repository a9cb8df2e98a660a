"""Property tests of `cone.Monomial`: order, hash, equality, product, lengths.

Monomials are compared against their exponent tuples, which carry the
intended order and equality.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conetilt.cone import Monomial  # noqa: E402

EXPONENTS = st.integers(-4, 4)


@st.composite
def exponent_vectors(draw, length=None):
    size = draw(st.integers(1, 5)) if length is None else length
    return tuple(draw(st.lists(EXPONENTS, min_size=size, max_size=size)))


@settings(max_examples=200, deadline=None)
@given(st.lists(exponent_vectors(), min_size=1, max_size=8))
def test_monomial_order_is_exponent_tuple_order(vectors):
    mons = [Monomial(v) for v in vectors]
    assert [mm.exps for mm in sorted(mons)] == sorted(vectors)
    for a in mons:
        for b in mons:
            assert (a < b) == (a.exps < b.exps)
            assert (a <= b) == (a.exps <= b.exps)
            assert (a > b) == (a.exps > b.exps)
            assert (a >= b) == (a.exps >= b.exps)
            assert (a == b) == (a.exps == b.exps)


@settings(max_examples=200, deadline=None)
@given(exponent_vectors())
def test_equal_monomials_have_equal_hashes(v):
    a, b = Monomial(v), Monomial(tuple(list(v)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    # a monomial is not its exponent tuple
    assert a != v and v != a
    assert a not in {v: 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[exponent_vectors(n)] * 2)))
def test_monomial_product_adds_exponents(pair):
    u, v = pair
    assert type(Monomial(u) * Monomial(v)) is Monomial
    assert (Monomial(u) * Monomial(v)).exps == tuple(x + y for x, y in zip(u, v))
    assert Monomial(u) * Monomial(v) == Monomial(v) * Monomial(u)


@settings(max_examples=100, deadline=None)
@given(exponent_vectors(), exponent_vectors())
def test_monomial_product_of_unequal_lengths_raises(u, v):
    if len(u) == len(v):
        v = v + (0,)
    with pytest.raises(ValueError, match="different lengths"):
        Monomial(u) * Monomial(v)
