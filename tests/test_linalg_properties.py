"""Property tests of the sparse exact elimination against a dense oracle.

Random rational matrices, sparse and dense, with int and Fraction
entries and forced zero rows and columns, are checked against the
Fraction row reduction `rref` of tests/test_linalg.py: the rank through
`mat_rank` and `PresentedMap.rank()`, the kernel as the span of
`PresentedMap.kernel().cycles`.  So are unit-column matrices, the shape of every monomial map, which take the
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
)
from test_linalg import rref, sparse  # noqa: E402

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


def rank(rows):
    return len(rref(rows)[0])


def assert_kernel_span(ker, ncols, M):
    """The cycles of `ker` span the kernel that the rref of M gives."""
    if ker.full_cycles:
        cycles = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    else:
        cycles = [[v.get(i, 0) for i in range(ncols)] for v in ker.cycles]
    oracle = rref_kernel(M, ncols)
    assert rank(cycles) == rank(oracle) == rank(cycles + oracle) == len(oracle)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_sparse_elimination_matches_the_fraction_oracle(M):
    ncols = len(M[0])
    r = rank(M)
    assert mat_rank(M) == r

    V = DirectSpace(range(ncols))
    W = DirectSpace(range(len(M)))
    f = PresentedMap(V, W, sparse(M))
    ker = f.kernel()
    assert f.rank() == r
    assert ker.dim == ncols - r and f.cokernel().dim == len(M) - r
    assert_kernel_span(ker, ncols, M)
    # determinism: the same input gives the same basis
    assert PresentedMap(V, W, sparse(M)).kernel().cycles == ker.cycles


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
    r = rank(M)
    assert mat_rank(M) == r

    cols = sparse(M)
    before = copy.deepcopy(cols)
    V, W = DirectSpace(range(ncols)), DirectSpace(range(len(M)))
    f = PresentedMap(V, W, cols)
    assert f.rank() == r
    assert f.kernel().dim == ncols - r
    assert_kernel_span(f.kernel(), ncols, M)
    # reduce every column again against pivots that may be those columns
    ech = _Echelon(cols)
    assert ech.rank == r and ech.spans(cols) and ech.spans(cols[::-1])
    # the columns as boundaries of a quotient, and a map into it
    Q = Subquotient(W, None, cols)
    assert Q.dim == len(M) - r
    g = PresentedMap(W, Q, [{i: 1} for i in range(len(M))])
    assert g.rank() == len(M) - r and g.kernel().dim == r
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
