"""Basis enumeration and cohomology dimensions, checked against brute force.

The oracle here is an independent exhaustive search over exponent
boxes; it shares no code with the enumeration under test.
"""

import itertools
import pickle
from math import comb

import pytest

from conetilt.cone import (
    MAX_N,
    Monomial,
    cone_cohomology_dim,
    laurent_top_basis,
    make_space,
    section_cohomology_dim,
    section_laurent_basis,
    section_monomials,
    weighted_monomials,
)


def brute_monomial_count(n, m, d):
    """Count solutions of e_0+...+e_{n-1} + m*e_n = d with e >= 0 by search."""
    if d < 0:
        return 0
    count = 0
    for unit_exps in itertools.product(range(d + 1), repeat=n):
        s = sum(unit_exps)
        if s <= d and (d - s) % m == 0:
            count += 1
    return count


def brute_laurent_count(n, m, d):
    """Count solutions with every exponent <= -1 by search over a box."""
    lo = d  # each exponent is >= d since the others only subtract
    count = 0
    for exps in itertools.product(range(lo, 0), repeat=n + 1):
        if sum(exps[:n]) + m * exps[n] == d:
            count += 1
    return count


def test_make_space_examples():
    assert make_space(3, 3).canonical_degree == -6
    assert make_space(2, 2).canonical_degree == -4
    assert make_space(3, 1).canonical_degree == -4


def test_make_space_rejects_bad_input():
    with pytest.raises(ValueError):
        make_space(1, 3)
    with pytest.raises(ValueError):
        make_space(3, 0)


def test_make_space_refuses_n_above_the_cap_before_allocating():
    """Every answer is a vector of n + 1 degrees: n above MAX_N is refused."""
    assert make_space(MAX_N, 3).n == MAX_N
    for n in (MAX_N + 1, 10**20):
        with pytest.raises(ValueError, match="need n <= MAX_N = %d" % MAX_N):
            make_space(n, 3)


def test_weighted_monomial_examples():
    X = make_space(3, 3)
    assert len(weighted_monomials(X, 0)) == 1
    assert len(weighted_monomials(X, 3)) == 11  # ten cubics plus the cone variable
    assert len(weighted_monomials(X, 2)) == 6
    assert weighted_monomials(X, -1) == ()


def test_weighted_monomials_lex_order_and_exponents():
    X = make_space(3, 3)
    mons = weighted_monomials(X, 3)
    assert mons == tuple(sorted(mons))
    assert all(all(e >= 0 for e in mm.exps) for mm in mons)
    assert any(mm.exps == (0, 0, 0, 1) for mm in mons)  # the cone variable


@pytest.mark.parametrize("n,m", [(3, 3), (2, 2), (3, 1), (2, 3), (4, 2)])
def test_monomial_count_against_brute_force(n, m):
    space = make_space(n, m)
    for d in range(-10, 11):
        assert len(weighted_monomials(space, d)) == brute_monomial_count(n, m, d)


def test_laurent_examples():
    X = make_space(3, 3)
    only = laurent_top_basis(X, -6)
    assert len(only) == 1 and only[0].exps == (-1, -1, -1, -1)
    assert len(laurent_top_basis(X, -8)) == 6
    assert laurent_top_basis(X, 0) == ()


@pytest.mark.parametrize("n,m", [(3, 3), (2, 2), (3, 2)])
def test_laurent_against_brute_force(n, m):
    space = make_space(n, m)
    for d in range(-12, 1):
        mons = laurent_top_basis(space, d)
        assert all(all(e <= -1 for e in mm.exps) for mm in mons)
        assert len(mons) == brute_laurent_count(n, m, d)


def series_count(n, m, d):
    """Coefficient of t^d in 1/((1-t)^n (1-t^m)), by n prefix sums."""
    if d < 0:
        return 0
    coeffs = [1 if k % m == 0 else 0 for k in range(d + 1)]
    for _ in range(n):
        coeffs = list(itertools.accumulate(coeffs))
    return coeffs[d]


def test_cone_cohomology_dim_counts_the_bases():
    """The binomial count equals the enumerated basis, in degree 0 and n.

    Enumerating the n = 5 bases takes seconds, so they are checked
    against the power series alone.
    """
    for n in range(2, 6):
        for m in range(1, 8):
            X = make_space(n, m)
            for d in range(-3, 25):
                count = series_count(n, m, d)
                if n <= 4:
                    assert len(weighted_monomials(X, d)) == count
                assert cone_cohomology_dim(X, d, 0) == count
                assert cone_cohomology_dim(X, -d - n - m, n) == count


def test_closed_form_count_equals_the_direct_sum():
    """The closed form equals the sum over powers of the cone variable.

    sum_j C(d - jm + n-1, n-1) counts x_n^j times the monomials of degree
    d - jm in the n weight-one variables.
    """
    for n in range(2, 9):
        for m in range(1, 10):
            X = make_space(n, m)
            for d in range(-5, 201):
                direct = sum(comb(d - j * m + n - 1, n - 1) for j in range(d // m + 1))
                assert cone_cohomology_dim(X, d, 0) == direct
                assert cone_cohomology_dim(X, -d - n - m, n) == direct


def test_cone_cohomology_examples():
    X = make_space(3, 3)
    assert cone_cohomology_dim(X, 2, 0) == 6
    assert cone_cohomology_dim(X, -6, 3) == 1
    assert cone_cohomology_dim(X, 1, 1) == 0
    with pytest.raises(ValueError):
        cone_cohomology_dim(X, 0, 4)
    with pytest.raises(ValueError):
        cone_cohomology_dim(X, 0, -1)


def test_section_cohomology_examples():
    X = make_space(3, 3)
    assert section_cohomology_dim(X, 2, 0) == 6
    assert section_cohomology_dim(X, -5, 2) == 6
    assert section_cohomology_dim(X, 3, 0) == 10
    with pytest.raises(ValueError):
        section_cohomology_dim(X, 0, 3)


@pytest.mark.parametrize("n,m", [(3, 3), (2, 2), (3, 2)])
def test_serre_symmetry_of_counts(n, m):
    space = make_space(n, m)
    for d in range(-14, 15):
        assert cone_cohomology_dim(space, d, 0) == cone_cohomology_dim(
            space, -d - n - m, n
        )


@pytest.mark.parametrize("n,m", [(3, 3), (2, 2), (4, 3)])
def test_section_euler_characteristic_polynomial(n, m):
    """h^0 + (-1)^(n-1) h^(n-1) equals the binomial polynomial at every twist."""
    space = make_space(n, m)

    def binom_poly(e):
        num = 1
        for j in range(1, n):
            num *= e + j
        denom = 1
        for j in range(1, n):
            denom *= j
        assert num % denom == 0
        return num // denom

    for e in range(-12, 13):
        chi = section_cohomology_dim(space, e, 0) + (-1) ** (n - 1) * (
            section_cohomology_dim(space, e, n - 1)
        )
        assert chi == binom_poly(e)


@pytest.mark.parametrize("n,m", [(3, 3), (2, 2), (3, 2)])
def test_restriction_exactness(n, m):
    """dim H^0(X, d) - dim H^0(X, d-m) = dim H^0(Z, d) for all d >= 0."""
    space = make_space(n, m)
    for d in range(0, 15):
        assert cone_cohomology_dim(space, d, 0) - cone_cohomology_dim(
            space, d - m, 0
        ) == section_cohomology_dim(space, d, 0)


def test_section_monomials_have_no_cone_variable():
    X = make_space(3, 3)
    mons = section_monomials(X, 2)
    assert len(mons) == comb(2 + 2, 2)
    assert all(len(mm.exps) == 3 for mm in mons)


# ---------------------------------------------------------------------------
# Monomial semantics
# ---------------------------------------------------------------------------

def test_monomial_is_immutable_and_prints_as_before():
    mon = Monomial((1, 0, 2))
    with pytest.raises(AttributeError):
        mon.exps = (0, 0, 0)
    with pytest.raises(AttributeError):
        del mon.exps
    assert mon.exps == (1, 0, 2)
    assert pickle.loads(pickle.dumps(mon)) == mon
    assert str(mon) == "x0*x2^2" and repr(mon) == "Monomial(x0*x2^2)"
    assert str(Monomial((0, 0))) == "1"


def test_monomial_equals_neither_a_tuple_nor_a_dual():
    mon = Monomial((1, 0, 2))
    assert mon != (1, 0, 2) and (1, 0, 2) != mon
    assert mon not in {(1, 0, 2): 0}
    prod = mon * Monomial((0, 3, -1))
    assert type(prod) is Monomial and prod == Monomial((1, 3, 1))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 7), (3, 3), (3, 7), (4, 3)])
def test_every_basis_is_sorted_by_exponent_vector(n, m):
    X = make_space(n, m)
    for basis in (
        weighted_monomials,
        laurent_top_basis,
        section_monomials,
        section_laurent_basis,
    ):
        for d in range(-2 * (n + m), 2 * (n + m) + 1):
            mons = basis(X, d)
            assert all(type(mm) is Monomial for mm in mons)
            assert list(mons) == sorted(mons)
            assert [mm.exps for mm in mons] == sorted(mm.exps for mm in mons)
