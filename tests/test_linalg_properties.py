"""Property tests of the sparse exact elimination against a dense oracle.

Random rational matrices, sparse and dense, with int and Fraction
entries and forced zero rows and columns, are checked against the
Fraction row reduction `rref` of tests/test_linalg.py.  So are
unit-column matrices, the shape of every monomial map, which take the
elimination's single-entry fast paths; pivots may alias their input
columns, so those columns must come back unchanged.  Random nested
direct sums are checked against the flat label list they stand for.
"""

import copy
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conetilt.linalg import (  # noqa: E402
    DirectSpace,
    DirectSum,
    PresentedMap,
    ShapeMismatch,
    Subquotient,
    _Echelon,
    mat_rank,
    nullspace,
)
from test_linalg import rref  # noqa: E402

VALUES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def rational_matrices(draw):
    """A list of rows: 1-7 rows, 0-7 columns, sparse or dense entries."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), VALUES)
    if draw(st.booleans()):
        entry = VALUES
    M = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_row = draw(st.none() | st.integers(0, nrows - 1))
    if zero_row is not None:
        M[zero_row] = [0] * ncols
    if ncols:
        zero_col = draw(st.none() | st.integers(0, ncols - 1))
        if zero_col is not None:
            for row in M:
                row[zero_col] = 0
    return M


def product(M, N):
    """M . N with plain Fraction sums, independent of the engine."""
    return [
        [sum((Fraction(M[i][k]) * N[k][j] for k in range(len(N))), Fraction(0))
         for j in range(len(N[0]))]
        for i in range(len(M))
    ]


def rref_kernel(M, ncols):
    """The kernel basis read off the reduced row echelon form, by column."""
    pivots, R = rref(M)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -R[r][fc]
        basis.append(vec)
    return basis


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_sparse_elimination_matches_the_fraction_oracle(M):
    ncols = len(M[0])
    rank = mat_rank(M)
    assert rank == len(rref(M)[0])

    N = nullspace(M)
    nullity = len(N[0]) if N else 0
    assert rank + nullity == ncols
    if nullity:
        assert all(x == 0 for row in product(M, N) for x in row)
    # the basis is the one the reduced row echelon form gives
    assert [[row[j] for row in N] for j in range(nullity)] == rref_kernel(M, ncols)
    # determinism: the same input gives the same basis
    assert nullspace([list(row) for row in M]) == N

    V = DirectSpace(range(ncols))
    W = DirectSpace(range(len(M)))
    f = PresentedMap(V, W, M)
    ker = f.kernel()
    assert f.rank() == rank
    assert ker.dim == nullity and f.cokernel().dim == len(M) - rank
    if nullity:
        assert all(x == 0 for row in product(M, ker.cycle_columns()) for x in row)
    assert PresentedMap(V, W, M).kernel().cycles == ker.cycles


@st.composite
def unit_column_matrices(draw):
    """A list of rows whose columns hold at most one nonzero each.

    Few rows, so the nonzeros of several columns share a row; the
    entries are mostly ints of either sign, units or not, and some
    Fractions, integral or not.
    """
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(0, 9))
    value = st.one_of(
        st.sampled_from([1, -1, 2, -2, 3, -6]),
        st.integers(-12, 12).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    )
    M = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        if draw(st.integers(0, 4)):
            M[draw(st.integers(0, nrows - 1))][j] = draw(value)
    return M


@settings(max_examples=200, deadline=None)
@given(unit_column_matrices())
def test_unit_columns_match_the_oracle_and_stay_unchanged(M):
    ncols = len(M[0])
    rank = len(rref(M)[0])
    assert mat_rank(M) == rank
    N = nullspace(M)
    assert [[row[j] for row in N] for j in range(len(N[0]) if N else 0)] == (
        rref_kernel(M, ncols)
    )

    cols = [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(ncols)]
    before = copy.deepcopy(cols)
    V, W = DirectSpace(range(ncols)), DirectSpace(range(len(M)))
    f = PresentedMap(V, W, cols)
    assert f.rank() == rank
    assert f.kernel().dim == ncols - rank
    # reduce every column again against pivots that may be those columns
    ech = _Echelon(cols)
    assert ech.rank == rank and ech.spans(cols) and ech.spans(cols[::-1])
    # the columns as boundaries of a quotient, and a map into it
    Q = Subquotient(W, None, cols)
    assert Q.dim == len(M) - rank
    g = PresentedMap(W, Q, [{i: 1} for i in range(len(M))])
    assert g.rank() == len(M) - rank and g.kernel().dim == rank
    assert cols == before


@st.composite
def direct_sums(draw, depth=2):
    """A DirectSum of 0-4 blocks: direct spaces of 0-3 labels, nested
    sums, and repeats of an earlier block (a sum of copies)."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        if blocks and draw(st.booleans()):
            blocks.append(draw(st.sampled_from(blocks)))
        elif depth and draw(st.booleans()):
            blocks.append(draw(direct_sums(depth - 1)))
        else:
            size = draw(st.integers(0, 3))
            blocks.append(DirectSpace(["b%d" % k for k in range(size)]))
    return DirectSum(blocks, "S")


@settings(max_examples=150, deadline=None)
@given(direct_sums())
def test_direct_sum_is_its_flat_labels_indexed_by_offset(S):
    assert "labels" not in vars(S) and "_index" not in vars(S)  # built on request
    flat = tuple((c, lbl) for c, b in enumerate(S.blocks) for lbl in b.labels)
    assert S.labels == flat
    assert S.dim == len(flat)
    for c, b in enumerate(S.blocks):
        for lbl in b.labels:
            assert S.offsets[c] + b._index[lbl] == S._index[(c, lbl)]
    assert S == DirectSpace(flat) and hash(S) == hash(DirectSpace(flat))
    V = DirectSpace(["v"])
    for r in range(S.dim):
        assert PresentedMap(V, S, [{r: 1}]).rank() == 1
        assert Subquotient(S, None, [{r: 1}]).dim == S.dim - 1
    for r in (-1, S.dim):
        with pytest.raises(ShapeMismatch):
            PresentedMap(V, S, [{r: 1}])
        with pytest.raises(ShapeMismatch):
            Subquotient(S, None, [{r: 1}])
