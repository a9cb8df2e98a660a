"""Exact rational linear algebra over labelled bases, on sparse columns.

Representation.  A matrix is a list of sparse columns, one per source
basis vector: column j is a dict {row index: coefficient} that holds
only the nonzero entries, each an int or a Fraction.  Sparse columns
handed to a PresentedMap or a Subquotient are normalized on the way in:
zeros are dropped, an int stays an int and an integral Fraction becomes
one; any other matrix handed to them raises ShapeMismatch, and so does
a float or a complex entry anywhere, in `mat_rank` too.  The one
dense entry point is `mat_rank`, which takes a list of rows and turns
it into sparse columns at `_columns`, refusing rows of unequal length.
The Hom chase reads every rank off the rules and builds no map;
PresentedMap and Subquotient serve the public API, the benchmark
tracer and the explicit reference maps of the tests.  The engine's
one elimination is `mat_rank` on the evaluation of a custom kernel
bundle, to check that it spans.
Vector spaces are presented either directly (a finite tuple of basis
labels) or as subquotients span(cycles)/span(boundaries) inside a
direct space; cycles=None means the whole ambient and is never
expanded into an identity matrix.  A space that is a sum of copies of
a basis is a `DirectSum`: it is indexed by block offset plus base
index, and its labels are built only on request.

Elimination.  One routine, `_Echelon`, reduces columns one at a time
against the pivots found so far.  The pivot of a reduced column is its
smallest row index, so the result depends only on the input order and
every rank and basis is reproducible.  The reduction is fraction-free:
a column with denominators is first scaled by their lcm, each step
replaces v by a*v - b*p with integers a, b, and a scaled column is
divided by the gcd of its entries.  Each column can carry the
combination of input columns it equals; a column that reduces to zero
then hands back that combination as a kernel vector, so one pass gives
both the rank and a kernel basis.  A single-int column (most columns
of a monomial map) becomes a pivot as it stands; one without a key
reduces to zero at once against a single-entry pivot in its row.
Pivots are never mutated, so they may alias the input columns.

There are no floats and no tolerances anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm


class EngineError(Exception):
    """Base class for all refusals and inconsistencies of the engine."""


class IllDefinedMap(EngineError):
    """The matrix does not carry cycles to cycles or boundaries to boundaries."""


class ShapeMismatch(EngineError):
    """Matrix shape or space mismatch."""


# ---------------------------------------------------------------------------
# sparse columns and the elimination routine
# ---------------------------------------------------------------------------

def _exact(x, where, *at):
    """An int or a Fraction; ShapeMismatch names a float or a complex entry."""
    if isinstance(x, (float, complex)):
        raise ShapeMismatch("entry %r at %s is not exact" % (x, where % at))
    return x if type(x) is int else Fraction(x)


def _columns(rows):
    """The sparse columns of a list of rows of equal length."""
    ncols = len(rows[0]) if rows else 0
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ShapeMismatch(
                "ragged matrix: row %d has %d entries, row 0 has %d"
                % (i, len(row), ncols)
            )
        for j, x in enumerate(row):
            x = _exact(x, "row %d, column %d", i, j)
            if x:
                cols[j][i] = x
    return cols


def _apply(cols, x):
    """The sparse column cols . x, for x a sparse vector over column indices."""
    out = {}
    for j, c in x.items():
        for r, a in cols[j].items():
            s = out.get(r, 0) + c * a
            if s:
                out[r] = s
            else:
                del out[r]
    return out


def _axpy(v, f, p):
    """v -= f * p in place, dropping entries that cancel."""
    for r, a in p.items():
        s = v.get(r, 0) - f * a
        if s:
            v[r] = s
        else:
            del v[r]


def _integral(col):
    """A fresh integer copy of `col`, and the factor it was scaled by."""
    den = 1
    for x in col.values():
        if type(x) is not int:
            den = lcm(den, x.denominator)
    if den == 1:
        return {r: int(x) for r, x in col.items()}, 1
    return {r: int(x * den) for r, x in col.items()}, den


def _primitive(v, combo):
    """v and combo divided by the gcd of all their entries."""
    g = 0
    for x in v.values():
        g = gcd(g, x)
    for x in (combo or {}).values():
        g = gcd(g, x)
    if g <= 1:
        return v, combo
    v = {i: x // g for i, x in v.items()}
    if combo is not None:
        combo = {k: x // g for k, x in combo.items()}
    return v, combo


class _Echelon:
    """Column echelon form of the columns added so far.

    `pivots` maps a row to the reduced column whose smallest row index
    it is, paired with that column's combination of keyed input columns
    (None when untracked).  A `base` echelon is read, never changed: its
    pivots reduce the new columns, and `rank` counts only the pivots
    added here, i.e. the rank modulo the span of the base.
    """

    __slots__ = ("pivots", "_base")

    def __init__(self, columns=(), base=None):
        self.pivots = {}
        self._base = base.pivots if base is not None else {}
        for col in columns:
            self.add(col)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, col, key=None):
        """Reduce `col`; keep it as a new pivot unless it reduces to zero.

        Returns None for a new pivot.  Otherwise returns the combination
        {key: coeff} of the input columns added with a key that the
        reduction found to lie in the span of the base (a kernel vector
        when the base is empty); it is {} when `key` is None.
        """
        pivots, base = self.pivots, self._base
        if len(col) < 2:
            if not col:
                return {} if key is None else {key: 1}
            ((r, x),) = col.items()
            if type(x) is int:
                hit = pivots.get(r) or base.get(r)
                if hit is None:
                    pivots[r] = (col, None if key is None else {key: 1})
                    return None
                if key is None and len(hit[0]) == 1:
                    return {}
        v, scale = _integral(col)
        combo = None if key is None else {key: scale}
        while v:
            r = min(v)
            hit = pivots.get(r) or base.get(r)
            if hit is None:
                pivots[r] = (v, combo)
                return None
            p, pc = hit
            a, b = p[r], v[r]
            scaled = b % a != 0
            if scaled:
                # v <- a*v - b*p with a, b divided by their gcd
                g = gcd(a, b)
                a, b = a // g, b // g
                v = {i: a * x for i, x in v.items()}
                if combo is not None:
                    combo = {k: a * x for k, x in combo.items()}
                f = b
            else:
                f = b // a
            _axpy(v, f, p)
            if combo is not None and pc:
                _axpy(combo, f, pc)
            if scaled:
                v, combo = _primitive(v, combo)
        return {} if combo is None else combo

    def spans(self, cols):
        """True iff every column lies in the span of these pivots."""
        probe = _Echelon(base=self)
        return all(probe.add(col) is not None for col in cols)


def mat_rank(M):
    """Exact rank of a list of rows, the one dense entry point."""
    return _Echelon(_columns(M)).rank


# ---------------------------------------------------------------------------
# presented spaces
# ---------------------------------------------------------------------------

def _normalized(col, what):
    """A sparse column without zeros, an integral Fraction made an int."""
    out = {}
    for r, x in col.items():
        x = _exact(x, "%s, row %d", what, r)
        if type(x) is not int and x.denominator == 1:
            x = x.numerator
        if x:
            out[r] = x
    return out


def _as_columns(M, nrows, what):
    """Sparse columns over `nrows` rows, normalized: a stored zero would
    become a pivot.  Anything but a list of dicts raises ShapeMismatch."""
    if not M:
        return []
    bad = [col for col in M if not isinstance(col, dict)]
    if bad:
        raise ShapeMismatch(
            "%s: expected sparse columns {row: coefficient}, got a %s"
            % (what, type(bad[0]).__name__)
        )
    filled = [col for col in M if col]
    if filled and (min(map(min, filled)) < 0 or max(map(max, filled)) >= nrows):
        raise ShapeMismatch("%s: a row index lies outside 0..%d" % (what, nrows - 1))
    return [_normalized(col, what) for col in M]


class DirectSpace:
    """A vector space with an explicit ordered basis of labels."""

    is_direct = True
    full_cycles = True
    cycles = None
    boundaries = ()

    def __init__(self, labels, name=""):
        self.labels = tuple(labels)
        self.name = name
        self._index = dict(zip(self.labels, range(len(self.labels))))
        if len(self._index) != len(self.labels):
            raise EngineError("duplicate basis labels in %r" % (name,))

    @property
    def dim(self):
        return len(self.labels)

    @property
    def ambient(self):
        return self

    @property
    def _boundary_echelon(self):
        return _Echelon()

    def __eq__(self, other):
        return isinstance(other, DirectSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "%s(%s, dim=%d)" % (type(self).__name__, self.name or "?", self.dim)


class DirectSum(DirectSpace):
    """The direct sum of direct spaces, labels (block index, block label).

    Its dimension and the offset of each block are fixed at construction;
    `labels` and `_index` are built on request and kept.  A map builder
    finds the row of block c's label `lbl` as
    ``offsets[c] + blocks[c]._index[lbl]``, so a sum of copies of one
    cached basis costs a tuple of offsets, not a label per copy.
    """

    def __init__(self, blocks, name=""):
        self.blocks = tuple(blocks)
        self.name = name
        ends = (0, *accumulate(b.dim for b in self.blocks))
        self.offsets, self._dim = ends[:-1], ends[-1]

    @property
    def dim(self):
        return self._dim

    @cached_property
    def labels(self):
        return tuple((c, lbl) for c, b in enumerate(self.blocks) for lbl in b.labels)

    @cached_property
    def _index(self):
        return dict(zip(self.labels, range(self._dim)))


class Subquotient:
    """span(cycles)/span(boundaries) inside the ambient direct space.

    `cycles` and `boundaries` are lists of sparse columns;
    ``cycles=None`` means the full ambient span (the common quotient
    case), which is never materialized.  The echelon form of the
    boundaries is kept, so every map into this space reuses it.
    """

    is_direct = False

    def __init__(self, ambient, cycles, boundaries, name=""):
        if not isinstance(ambient, DirectSpace):
            raise EngineError("ambient of a subquotient must be a direct space")
        self._ambient = ambient
        self.full_cycles = cycles is None
        self.cycles = (
            None if cycles is None else _as_columns(cycles, ambient.dim, "cycles")
        )
        self.boundaries = _as_columns(boundaries, ambient.dim, "boundaries")
        self.name = name
        self._boundary_echelon = _Echelon(self.boundaries)
        if self.full_cycles:
            self._rank_cycles = ambient.dim
        else:
            cyc = _Echelon(self.cycles)
            self._rank_cycles = cyc.rank
            if not cyc.spans(self.boundaries):
                raise EngineError(
                    "boundaries do not lie in the cycle span of %r" % (name,)
                )

    @property
    def dim(self):
        return self._rank_cycles - self._boundary_echelon.rank

    @property
    def ambient(self):
        return self._ambient

    def __repr__(self):
        return "Subquotient(%s, dim=%d)" % (self.name or "?", self.dim)


# ---------------------------------------------------------------------------
# presented maps
# ---------------------------------------------------------------------------

class PresentedMap:
    """A linear map between presented spaces, as exact columns on ambients.

    `matrix` is a list of sparse columns (one dict per source ambient
    basis vector); an empty matrix is the zero map.
    """

    def __init__(self, source, target, matrix, name=""):
        self.source = source
        self.target = target
        self.name = name
        cols = source.ambient.dim
        if not matrix:
            self.columns = [{} for _ in range(cols)]
        else:
            self.columns = _as_columns(matrix, target.ambient.dim, "map %r" % name)
            if len(self.columns) != cols:
                raise ShapeMismatch(
                    "map %r: %d columns, the source ambient has %d"
                    % (name, len(self.columns), cols)
                )
        if not (source.is_direct and target.is_direct):
            if not target.full_cycles:
                if not _Echelon(target.cycles).spans(self._source_image()):
                    raise IllDefinedMap(
                        "map %r does not carry cycles to cycles" % name
                    )
            img_bnd = [_apply(self.columns, b) for b in source.boundaries]
            if not target._boundary_echelon.spans(img_bnd):
                raise IllDefinedMap(
                    "map %r does not carry boundaries to boundaries" % name
                )

    def _source_image(self):
        """Columns spanning the image of the source cycles; the columns
        themselves when the source is the full ambient."""
        if self.source.full_cycles:
            return self.columns
        return [_apply(self.columns, c) for c in self.source.cycles]

    def rank(self):
        """Rank of the induced map on subquotients, exactly."""
        return _Echelon(
            self._source_image(), base=self.target._boundary_echelon
        ).rank

    def kernel(self):
        """Kernel of the induced map, as a subquotient of the source ambient."""
        src = self.source
        ech = _Echelon(base=self.target._boundary_echelon)
        ker = []
        for j, col in enumerate(self._source_image()):
            combo = ech.add(col, j)
            if combo is not None:
                ker.append(combo)
        if src.full_cycles:
            # a map that kills the whole ambient keeps its kernel unmaterialized
            cycles = None if len(ker) == src.ambient.dim else ker
        else:
            cycles = [_apply(src.cycles, x) for x in ker]
        return Subquotient(
            src.ambient, cycles, src.boundaries, name="ker(%s)" % self.name
        )

    def cokernel(self):
        """Cokernel of the induced map, as a subquotient of the target ambient."""
        tgt = self.target
        return Subquotient(
            tgt.ambient,
            tgt.cycles,
            self._source_image() + list(tgt.boundaries),
            name="coker(%s)" % self.name,
        )

    def __repr__(self):
        return "PresentedMap(%s: %r -> %r)" % (self.name or "?", self.source, self.target)
