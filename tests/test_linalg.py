"""Exact linear algebra: ranks, kernels, cokernels on presentations."""

import random
import re
from fractions import Fraction

import pytest

from conetilt.linalg import (
    DirectSpace,
    EngineError,
    IllDefinedMap,
    PresentedMap,
    ShapeMismatch,
    Subquotient,
    mat_rank,
)


def space(*labels):
    return DirectSpace(labels)


def sparse(M):
    """The sparse columns of a nonempty list of rows."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]))]


def unit(n):
    """The n x n identity as sparse columns."""
    return [{i: 1} for i in range(n)]


def product(M, N):
    """M . N for lists of rows, with plain Fraction sums."""
    return [
        [sum((Fraction(M[i][k]) * N[k][j] for k in range(len(N))), Fraction(0))
         for j in range(len(N[0]))]
        for i in range(len(M))
    ]


def in_kernel(M, cycles):
    """Whether M sends every sparse column of `cycles` to zero."""
    return all(
        sum((Fraction(row[k]) * x for k, x in v.items()), Fraction(0)) == 0
        for v in cycles
        for row in M
    )


def rref(M):
    """Reduced row echelon form; returns (pivot column indices, new matrix).

    The independent dense Fraction oracle for the engine's elimination.
    The pivot in each step is the first row with a nonzero entry in the
    current column, which makes the reduction deterministic.
    """
    R = [[Fraction(x) for x in row] for row in M]
    nrows, ncols = len(R), len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = None
        for i in range(r, nrows):
            if R[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = Fraction(1) / R[r][c]
        R[r] = [v * inv for v in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return pivots, R


def test_identity_rank():
    V = space("a", "b")
    assert PresentedMap(V, V, unit(2)).rank() == 2


def test_zero_rank():
    V = space("a", "b", "c")
    assert PresentedMap(V, V, [{}, {}, {}]).rank() == 0
    assert PresentedMap(V, V, []).rank() == 0


def test_quotient_induced_rank():
    # quotient of a 3-dim space by a 1-dim image; identity on the ambient
    V = space("a", "b", "c")
    Q = Subquotient(V, unit(3), [{0: 1}])
    assert Q.dim == 2
    f = PresentedMap(V, Q, unit(3))
    assert f.rank() == 2


def test_kernel_of_injective_and_cokernel_of_surjective():
    V = space("a", "b")
    W = space("x", "y", "z")
    inj = PresentedMap(V, W, [{0: 1}, {1: 1}])
    assert inj.kernel().dim == 0
    surj = PresentedMap(W, V, [{0: 1}, {1: 1}, {}])
    assert surj.cokernel().dim == 0
    assert surj.kernel().dim == 1


def test_rank_nullity_on_restriction_matrix():
    """Kernel of the degree-3 restriction on P(1,1,1,3) is the cone-variable line."""
    from explicit_maps import sections_map

    from conetilt.cone import Monomial, make_space
    from conetilt.rules import OX, OZ

    X = make_space(3, 3)
    # restriction Hom(O, O(3)) -> Hom(O, OZ(3)): postcompose with the section 1
    one = Monomial((0, 0, 0))
    res = sections_map(X, 0, (OX(3),), [((one, 1),)], OZ(3))
    assert (res.source.dim, res.target.dim) == (11, 10)
    ker = res.kernel()
    assert ker.dim == 1
    # the kernel is spanned by the cone variable
    (cycle,) = ker.cycles
    labels = [res.source.labels[i] for i in cycle]
    assert len(labels) == 1 and labels[0][1].exps == (0, 0, 0, 1)


def test_rank_inequality_on_random_rational_matrices():
    rng = random.Random(7)
    for _ in range(120):
        rows_f, mid, cols_g = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        V, M, W = (
            space(*("v%d" % i for i in range(cols_g))),
            space(*("m%d" % i for i in range(mid))),
            space(*("w%d" % i for i in range(rows_f))),
        )
        F = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(mid)]
             for _ in range(rows_f)]
        G = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols_g)]
             for _ in range(mid)]
        f = PresentedMap(M, W, sparse(F))
        g = PresentedMap(V, M, sparse(G))
        c = PresentedMap(V, W, sparse(product(F, G)))
        assert c.rank() <= min(f.rank(), g.rank())
        # rank-nullity on every map involved
        for h in (f, g, c):
            assert h.kernel().dim + h.rank() == h.source.dim
            assert h.cokernel().dim + h.rank() == h.target.dim


def test_subquotient_invariants():
    V = space("a", "b", "c")
    with pytest.raises(EngineError):
        # boundaries not inside the cycle span
        Subquotient(V, [{0: 1}], [{1: 1}])
    Q = Subquotient(V, [{0: 1}, {1: 1}], [{0: 1}])
    assert Q.dim == 1


def test_ill_defined_map_detected():
    V = space("a", "b")
    sub = Subquotient(V, [{0: 1}], None)
    W = space("x", "y")
    xline = Subquotient(W, [{0: 1}], None)
    with pytest.raises(IllDefinedMap):
        # sends the cycle line outside the target cycle span
        PresentedMap(sub, xline, [{1: 1}, {}])


def test_full_cycles_sentinel():
    V = space("a", "b", "c")
    Q = Subquotient(V, None, [{0: 1}])
    assert Q.dim == 2 and Q.full_cycles


def test_mat_rank_matches_fraction_rref():
    rng = random.Random(3)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(c)]
             for _ in range(r)]
        assert mat_rank(M) == len(rref(M)[0])


def test_kernel_cycles_lie_in_the_kernel():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        ker = PresentedMap(space(*range(c)), space(*range(r)), sparse(M)).kernel()
        assert in_kernel(M, unit(c) if ker.full_cycles else ker.cycles)
        assert mat_rank(M) + ker.dim == c


def test_zero_dimensional_edge_cases():
    V = space()
    W = space("x")
    assert PresentedMap(V, W, []).rank() == 0
    assert PresentedMap(W, V, [{}]).rank() == 0
    assert PresentedMap(W, V, [{}]).kernel().dim == 1
    assert PresentedMap(V, W, []).cokernel().dim == 1
    assert mat_rank([]) == 0


def test_map_from_entries_roundtrip():
    V = space("a", "b")
    W = space("x", "y")
    f = PresentedMap(V, W, [{0: 1}, {1: Fraction(1, 2)}])
    assert f.columns == [{0: 1}, {1: Fraction(1, 2)}]
    assert f.rank() == 2


def test_map_from_columns_normalizes_coefficients():
    V = space("a", "b", "c")
    W = space("x", "y")
    f = PresentedMap(
        V, W, [{0: 2, 1: Fraction(4, 2)}, {0: 0, 1: Fraction(1, 3)}, {1: Fraction(0)}]
    )
    assert f.columns == [{0: 2, 1: 2}, {1: Fraction(1, 3)}, {}]
    assert [type(x) for col in f.columns for x in col.values()] == [int, int, Fraction]


def test_stored_zeros_in_sparse_columns_are_not_pivots():
    """A zero stored in a sparse column is no entry: it never becomes a pivot."""
    V = space("a", "b")
    W = space("x", "y")
    assert PresentedMap(V, W, [{1: 0}, {0: 1, 1: 2}]).rank() == 1
    f = PresentedMap(V, W, [{0: 0, 1: 0}, {0: 1}])
    assert f.rank() == 1
    assert f.kernel().dim == 1 and f.cokernel().dim == 1
    assert Subquotient(W, None, [{1: 0}, {0: 1}]).dim == 1
    assert Subquotient(W, [{0: 1, 1: Fraction(0)}], []).dim == 1


def test_ragged_rank_input_is_refused():
    with pytest.raises(ShapeMismatch):
        mat_rank([[1], [3, 4]])


def test_ragged_map_matrix_is_refused():
    V = space("a", "b")
    W = space("x", "y")
    with pytest.raises(ShapeMismatch):
        PresentedMap(V, W, [[1, 0], [1]])


@pytest.mark.parametrize(
    "matrix",
    [[[1, 0, 2], [0, 0, 3]], [[1, 0, 2]], [(1, 0), (0, 1)], [{0: 1}, [1, 0], {}]],
    ids=["rows", "one row", "tuple rows", "a row among columns"],
)
def test_a_list_of_rows_is_refused(matrix):
    """A map or a subquotient takes sparse columns only: rows are never
    read as columns, whatever their shape."""
    V = space("a", "b", "c")
    W = space("x", "y")
    with pytest.raises(ShapeMismatch, match="map 'f': expected sparse columns"):
        PresentedMap(V, W, matrix, name="f")
    with pytest.raises(ShapeMismatch, match="boundaries: expected sparse columns"):
        Subquotient(W, None, matrix)
    with pytest.raises(ShapeMismatch, match="cycles: expected sparse columns"):
        Subquotient(W, matrix, [])


@pytest.mark.parametrize("row", [-1, 2])
def test_sparse_row_index_outside_the_target_is_refused(row):
    V = space("a", "b", "c")
    W = space("x", "y")
    with pytest.raises(ShapeMismatch, match=r"map 'f': a row index lies outside 0\.\.1"):
        PresentedMap(V, W, [{}, {0: 1, row: 2}, {}], name="f")


@pytest.mark.parametrize("row", [-1, 2])
def test_sparse_boundary_row_outside_the_ambient_is_refused(row):
    W = space("x", "y")
    with pytest.raises(ShapeMismatch, match=r"boundaries: a row index lies outside 0\.\.1"):
        Subquotient(W, None, [{}, {row: 1}])
    with pytest.raises(ShapeMismatch, match=r"cycles: a row index lies outside 0\.\.1"):
        Subquotient(W, [{row: 1, 0: 1}], [])


@pytest.mark.parametrize("entry", [0.1, 1.0, 0.0, float("nan"), 1j, complex(0, 0)])
def test_a_float_or_complex_entry_is_refused_by_name(entry):
    """No entry turns into the binary Fraction of a float: mat_rank,
    PresentedMap and Subquotient all refuse it, naming the entry."""
    text = re.escape("entry %r at " % entry) + r".* is not exact"
    with pytest.raises(ShapeMismatch, match=text):
        mat_rank([[1, 0], [0, entry]])
    W = space("x", "y")
    with pytest.raises(ShapeMismatch, match=text):
        PresentedMap(W, W, [{0: 1}, {1: entry}], name="f")
    with pytest.raises(ShapeMismatch, match=text):
        Subquotient(W, None, [{1: entry}])
    with pytest.raises(ShapeMismatch, match=text):
        Subquotient(W, [{0: entry}], [])
