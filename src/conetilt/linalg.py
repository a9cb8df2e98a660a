"""Exact rational linear algebra over labelled bases.

Vector spaces are presented either directly (a finite tuple of basis
labels) or as subquotients span(cycles)/span(boundaries) inside a direct
space.  Maps are exact rational matrices on ambient bases; ranks,
kernels and cokernels of the induced maps on subquotients are computed
exactly with fractions.  Pivoting is deterministic (first nonzero
pivot), so every derived rank and basis is reproducible.

There are no floats and no tolerances anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class EngineError(Exception):
    """Base class for all refusals and inconsistencies of the engine."""


class IllDefinedMap(EngineError):
    """The matrix does not carry cycles to cycles or boundaries to boundaries."""


class ShapeMismatch(EngineError):
    """Matrix shape or space mismatch."""


# ---------------------------------------------------------------------------
# matrices: lists of rows, entries int or Fraction, column-vector convention
# ---------------------------------------------------------------------------

def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def mat_shape(M):
    return (len(M), len(M[0]) if M else 0)


def mat_mul(A, B):
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ra == 0:
        return []
    if cb == 0:
        return zeros(ra, 0)
    if ca != rb:
        raise ShapeMismatch("cannot multiply %dx%d by %dx%d" % (ra, ca, rb, cb))
    C = zeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        for k in range(ca):
            a = Ai[k]
            if a:
                Bk = B[k]
                Ci = C[i]
                for j in range(cb):
                    if Bk[j]:
                        Ci[j] += a * Bk[j]
    return C


def hstack(A, B):
    """Concatenate columns.  Either argument may have zero columns."""
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca == 0:
        return [list(row) for row in B]
    if cb == 0:
        return [list(row) for row in A]
    if ra != rb:
        raise ShapeMismatch("row mismatch in hstack: %d vs %d" % (ra, rb))
    return [list(A[i]) + list(B[i]) for i in range(ra)]


def rref(M):
    """Reduced row echelon form; returns (pivot column indices, new matrix).

    The pivot in each step is the first row with a nonzero entry in the
    current column, which makes the reduction deterministic.
    """
    R = [[Fraction(x) for x in row] for row in M]
    nrows, ncols = mat_shape(R)
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


def mat_rank(M):
    """Exact rank, by fraction-free integer elimination.

    Rows are cleared of denominators (rank preserving) and reduced by
    their gcd after each elimination step to keep the integers small;
    the result is exact, never approximate.
    """
    if not M or not M[0]:
        return 0
    rows = []
    for r in M:
        den = 1
        for x in r:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = den * x.denominator // gcd(den, x.denominator)
        if den == 1:
            row = [x.numerator if isinstance(x, Fraction) else x for x in r]
        else:
            row = [int(x * den) for x in r]
        if any(row):
            rows.append(row)
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            if ri[c]:
                g = gcd(pr[c], ri[c])
                fa, fb = ri[c] // g, pr[c] // g
                new = [fb * x - fa * y for x, y in zip(ri, pr)]
                g2 = 0
                for x in new:
                    g2 = gcd(g2, x)
                    if g2 == 1:
                        break
                if g2 > 1:
                    new = [x // g2 for x in new]
                rows[i] = new
        rank += 1
        if rank == len(rows):
            break
    return rank


def nullspace(M):
    """Columns spanning the kernel of M (as a matrix, may have 0 columns)."""
    nrows, ncols = mat_shape(M)
    if ncols == 0:
        return [[] for _ in range(0)]
    pivots, R = rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    for j, fc in enumerate(free):
        basis[fc][j] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc][j] = -R[r][fc]
    return basis


def span_contains(big, small):
    """True iff every column of `small` lies in the column span of `big`."""
    _, cs = mat_shape(small)
    if cs == 0:
        return True
    return mat_rank(hstack(big, small)) == mat_rank(big)


# ---------------------------------------------------------------------------
# presented spaces
# ---------------------------------------------------------------------------

class DirectSpace:
    """A vector space with an explicit ordered basis of labels."""

    is_direct = True

    def __init__(self, labels, name=""):
        self.labels = tuple(labels)
        self.name = name
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise EngineError("duplicate basis labels in %r" % (name,))

    @property
    def dim(self):
        return len(self.labels)

    @property
    def ambient(self):
        return self

    def index(self, label):
        return self._index[label]

    def cycle_columns(self):
        return identity(self.dim)

    def boundary_columns(self):
        return [[] for _ in range(self.dim)]

    def __eq__(self, other):
        return isinstance(other, DirectSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "DirectSpace(%s, dim=%d)" % (self.name or "?", self.dim)


class Subquotient:
    """span(cycles)/span(boundaries) inside the ambient direct space.

    Passing ``cycles=None`` means the full ambient span (the common
    quotient case), which avoids materializing identity matrices.
    """

    is_direct = False

    def __init__(self, ambient, cycles, boundaries, name=""):
        if not isinstance(ambient, DirectSpace):
            raise EngineError("ambient of a subquotient must be a direct space")
        self._ambient = ambient
        self.full_cycles = cycles is None
        self.cycles = None if cycles is None else [list(r) for r in cycles]
        self.boundaries = (
            [list(r) for r in boundaries]
            if boundaries is not None
            else zeros(ambient.dim, 0)
        )
        self.name = name
        if (
            self.cycles is not None
            and mat_shape(self.cycles)[0] != ambient.dim
            and mat_shape(self.cycles)[1] > 0
        ):
            raise ShapeMismatch("cycle columns live in the wrong ambient")
        if (
            mat_shape(self.boundaries)[0] != ambient.dim
            and mat_shape(self.boundaries)[1] > 0
        ):
            raise ShapeMismatch("boundary columns live in the wrong ambient")
        self._rank_cycles = (
            ambient.dim if self.full_cycles else mat_rank(self.cycles)
        )
        self._rank_boundaries = mat_rank(self.boundaries)
        if not self.full_cycles and not span_contains(self.cycles, self.boundaries):
            raise EngineError(
                "boundaries do not lie in the cycle span of %r" % (name,)
            )

    @property
    def dim(self):
        return self._rank_cycles - self._rank_boundaries

    @property
    def ambient(self):
        return self._ambient

    def cycle_columns(self):
        if self.full_cycles:
            return identity(self._ambient.dim)
        return [list(r) for r in self.cycles]

    def boundary_columns(self):
        return [list(r) for r in self.boundaries]

    def __repr__(self):
        return "Subquotient(%s, dim=%d)" % (self.name or "?", self.dim)


def zero_space(name=""):
    return DirectSpace((), name)


# ---------------------------------------------------------------------------
# presented maps
# ---------------------------------------------------------------------------

class PresentedMap:
    """A linear map between presented spaces, as an exact matrix on ambients."""

    def __init__(self, source, target, matrix, name="", check=True):
        self.source = source
        self.target = target
        rows, cols = mat_shape(matrix)
        if matrix and (rows != target.ambient.dim or cols != source.ambient.dim):
            raise ShapeMismatch(
                "map %r: matrix is %dx%d, ambients are %d and %d"
                % (name, rows, cols, target.ambient.dim, source.ambient.dim)
            )
        if not matrix:
            matrix = zeros(target.ambient.dim, source.ambient.dim)
        self.matrix = [list(r) for r in matrix]
        self.name = name
        if check and not (source.is_direct and target.is_direct):
            if not (target.is_direct or getattr(target, "full_cycles", False)):
                img_cycles = self._source_image()
                if not span_contains(target.cycle_columns(), img_cycles):
                    raise IllDefinedMap(
                        "map %r does not carry cycles to cycles" % name
                    )
            img_bnd = mat_mul(self.matrix, source.boundary_columns())
            if not span_contains(target.boundary_columns(), img_bnd):
                raise IllDefinedMap(
                    "map %r does not carry boundaries to boundaries" % name
                )

    def _source_image(self):
        """Columns spanning the image of the source cycles, without copies
        when the source is the full ambient."""
        src = self.source
        if src.is_direct or getattr(src, "full_cycles", False):
            return self.matrix
        return mat_mul(self.matrix, src.cycle_columns())

    def rank(self):
        """Rank of the induced map on subquotients, exactly."""
        img = self._source_image()
        tb = self.target.boundary_columns()
        return mat_rank(hstack(img, tb)) - mat_rank(tb)

    def kernel(self):
        """Kernel of the induced map, as a subquotient of the source ambient."""
        full_src = self.source.is_direct or getattr(self.source, "full_cycles", False)
        C = None if full_src else self.source.cycle_columns()
        MC = self.matrix if full_src else mat_mul(self.matrix, C)
        TB = self.target.boundary_columns()
        stacked = hstack(MC, TB)
        k = self.source.ambient.dim if full_src else mat_shape(C)[1]
        if mat_shape(stacked)[1] == 0:
            ker_cols = identity(self.source.ambient.dim) if full_src else C
        else:
            N = nullspace(stacked)
            Ntop = [row[:] for row in N[:k]] if k else zeros(0, mat_shape(N)[1])
            if k == 0:
                ker_cols = zeros(self.source.ambient.dim, 0)
            elif full_src:
                ker_cols = Ntop
            else:
                ker_cols = mat_mul(C, Ntop)
        return Subquotient(
            self.source.ambient,
            ker_cols,
            self.source.boundary_columns(),
            name="ker(%s)" % self.name,
        )

    def cokernel(self):
        """Cokernel of the induced map, as a subquotient of the target ambient."""
        img = self._source_image()
        full_tgt = self.target.is_direct or getattr(self.target, "full_cycles", False)
        return Subquotient(
            self.target.ambient,
            None if full_tgt else self.target.cycle_columns(),
            hstack(img, self.target.boundary_columns()),
            name="coker(%s)" % self.name,
        )

    def __repr__(self):
        return "PresentedMap(%s: %r -> %r)" % (self.name or "?", self.source, self.target)


def map_from_entries(source, target, entries, name="", check=True):
    """Build a map from a sparse {(target_label, source_label): coeff} dict."""
    M = zeros(target.ambient.dim, source.ambient.dim)
    for (row_lbl, col_lbl), coeff in entries.items():
        M[target.ambient.index(row_lbl)][source.ambient.index(col_lbl)] += Fraction(
            coeff
        )
    return PresentedMap(source, target, M, name=name, check=check)
