"""Sheaf objects, long exact sequences, and the Hom dimension chase.

Objects are atoms, finite direct sums, or kernel bundles: the locally
free kernels of evaluation maps O_X^h -> OZ(e).  Graded Hom between
objects is computed by resolving kernel bundles along their defining
sequences: the left argument first (contravariant sequences with atom
targets), then the right argument (covariant sequences).  Every
induced rank is read off the rules: off the source of a map shown to
be injective, off the target of a map shown to be onto, or off the two
exact rows of a ladder; no matrix is built.  When a rank is genuinely
not determined by the diagrams, the engine raises IndeterminateRank
naming the unresolved map; it never guesses.

Every sequence is one `LongExactSequence`: term dims and padded map
ranks, solved and checked by `_solve` in one walk, with names kept as
formats until read.  Its origin is rendered on first read, and its term
and map records are built together on the first read of either.  A
kernel pair counts its dims: its checks, the n = 2 gap refusal
included, run first; its ladder `ladder_propagate` is one sum of two
integers, rank(B1 -> B2) from the count table and the reached block;
Hom^0 reads the one-copy row Hom(-, O), the only row it builds, and
Hom^{n-1} is dim H^{n-1}(Z, e'-e).  Every answer builds its derivation
on first read: a kernel pair its notes, ladder result and its top,
bottom and outer rows, checked against the counted dims, an atom pair
its rule note, an atom-kernel pair its note and its one row, whose
origin is rendered only then, and a sum the derivations of its
summands.  A query that reads only the dims renders no name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby

from .cone import FrozenValue, Record, section_cohomology_dim
from .linalg import EngineError, ShapeMismatch, mat_rank
from .rules import (
    CONE,
    SECTION,
    Atom,
    OX,
    OZ,
    ext1_h0_block,
    hom_atoms,
    hom_counts,
    r3_block_dims,
)


class IndeterminateRank(EngineError):
    """A diagram chase did not pin a rank; the unresolved map is named."""


# ---------------------------------------------------------------------------
# sheaf objects
# ---------------------------------------------------------------------------

class SumObject(FrozenValue):
    _fields = ("parts",)  # pairs (object, multiplicity)

    def __init__(self, parts):
        attrs = self.__dict__
        attrs["parts"] = parts
        attrs["_hash"] = hash((parts,))

    def __str__(self):
        return " + ".join(
            str(o) if k == 1 else "%d*%s" % (k, o) for o, k in self.parts
        )


class KernelBundle(FrozenValue):
    """ker(O_X^h -> OZ(e)) for an evaluation spanning H^0(Z, O(e)).

    The canonical bundle F_e of the complete linear system evaluates
    copy j to the j-th basis monomial of H^0(Z, O(e)).  That identity
    evaluation is implied by `columns=None` and never stored, so the
    canonical bundle hashes and compares in O(1).  Any other evaluation
    is flagged non-canonical and stored: `columns[j]` holds the j-th
    component as exact coefficients over the monomial basis of
    H^0(Z, O(e)).
    """

    _fields = ("e", "h", "columns")

    def __init__(self, e, h, columns=None):
        attrs = self.__dict__
        attrs["e"], attrs["h"], attrs["columns"] = e, h, columns
        attrs["_hash"] = hash((e, h, columns))

    @property
    def canonical(self):
        return self.columns is None

    def __str__(self):
        return "ker(O^%d->OZ(%d))%s" % (
            self.h,
            self.e,
            "" if self.canonical else " [non-canonical]",
        )


def _spans(columns, full):
    """Whether the evaluation columns span a space of dimension `full`.

    The columns go to `mat_rank` as the rows of a matrix: a matrix and
    its transpose have the same rank, so nothing is transposed.
    """
    return mat_rank(columns) == full


@lru_cache(maxsize=None)
def _check_bundle(space, K):
    """Raise ShapeMismatch unless K lives on `space` and its evaluation spans.

    A canonical bundle is checked by counting H^0(Z, O(e)), never
    listing it; a stored evaluation also gets its spanning rank check.
    """
    if not 0 < K.e < space.m:
        raise ShapeMismatch(
            "%s does not live on %s: its twist needs 0 < %d < m = %d"
            % (K, space, K.e, space.m)
        )
    full = section_cohomology_dim(space, K.e, 0)
    if not K.canonical and len(K.columns) != K.h:
        raise ShapeMismatch(
            "%s has %d evaluation columns for h = %d" % (K, len(K.columns), K.h)
        )
    for length in (K.h,) if K.canonical else map(len, K.columns):
        if length != full:
            raise ShapeMismatch(
                "%s does not live on %s: its evaluation has length %d, "
                "H^0(Z, O(%d)) has dimension %d" % (K, space, length, K.e, full)
            )
    # exactness of 0 -> K -> O^h -> OZ(e) -> 0 and every injective or onto map need this
    if not K.canonical and not _spans(K.columns, full):
        raise ShapeMismatch(
            "%s does not live on %s: its evaluation does not span H^0(Z, O(%d))"
            % (K, space, K.e)
        )


def kernel_bundle(space, e):
    """The canonical kernel bundle F_e = ker(O_X^h -> OZ(e)), 0 < e < m."""
    if not 0 < e < space.m:
        raise ValueError(
            "kernel bundle twist must satisfy 0 < e < m = %d, got %d" % (space.m, e)
        )
    return KernelBundle(e, section_cohomology_dim(space, e, 0))


def _exact(entry, j):
    """An evaluation entry of column j as a Fraction, never from a float."""
    if isinstance(entry, (float, complex)):
        raise ValueError(
            "evaluation column %d: entry %r is not exact; give an int, "
            "a Fraction or a string such as '1/10'" % (j, entry)
        )
    return Fraction(entry)


def kernel_bundle_custom(space, e, columns):
    """A kernel bundle with a user evaluation; flagged non-canonical.

    The columns must span all of H^0(Z, O(e)); since OZ(e) is globally
    generated for e > 0, spanning sections give a sheaf surjection and
    the kernel is locally free of rank h.  Entries are ints, Fractions
    or strings that Fraction parses; a float or a complex number is not
    exact and raises ValueError.
    """
    full = kernel_bundle(space, e).h  # ValueError for a twist outside 0 < e < m
    cols = tuple(tuple(_exact(c, j) for c in col) for j, col in enumerate(columns))
    for col in cols:
        if len(col) != full:
            raise ValueError("evaluation columns must have length %d" % full)
    if not _spans(cols, full):
        raise ValueError("evaluation sections do not span H^0(Z, O(%d))" % e)
    return KernelBundle(e, len(cols), cols)


def as_object(thing):
    """The sheaf object itself; anything else is a TypeError."""
    if isinstance(thing, (Atom, SumObject, KernelBundle)):
        return thing
    raise TypeError("not a sheaf object: %r" % (thing,))


def direct_sum(*objects):
    return SumObject(tuple((as_object(o), 1) for o in objects))


def rank_of(obj):
    """Generic rank of the sheaf: twists have rank 1, OZ twists rank 0."""
    obj = as_object(obj)
    if isinstance(obj, Atom):
        return 1 if obj.kind == CONE else 0
    if isinstance(obj, SumObject):
        return sum(k * rank_of(o) for o, k in obj.parts)
    return obj.h


def _atom_list(B):
    """Flatten an atom-or-sum into a list of atoms; kernels are refused."""
    if isinstance(B, (list, tuple)):
        out = []
        for o in B:
            out.extend(_atom_list(o))
        return out
    if isinstance(B, Atom):
        return [B]
    if isinstance(B, SumObject):
        out = []
        for o, k in B.parts:
            out.extend(_atom_list(o) * k)
        return out
    raise TypeError("expected an atom or a sum of atoms, got %s" % (B,))


# ---------------------------------------------------------------------------
# long exact sequences
# ---------------------------------------------------------------------------

_O = OX(0)
_O_RUNS = ((_O, 1),)  # the runs of B = O, the top row of every kernel pair


class LESTerm(Record):
    _fields = ("name", "dim")

    def __init__(self, name, dim):
        self.name = name
        self.dim = dim


class LESMap(Record):
    _fields = ("name", "rank", "how")

    def __init__(self, name, rank, how):
        self.name = name
        self.rank = rank
        self.how = how  # "injective" | "onto" | "exactness" | "ladder" | "zero-side"


class LongExactSequence(Record):
    """An exact row of the chase: integers at once, named only when read.

    `dims` holds the term dims and `ranks` the map ranks padded by a zero
    at each end, so that ranks[j + 1] is the rank of map j.  `names()`
    gives (origin, terms, maps, hows): `origin` is a (format, args) pair,
    and the row runs in degrees i of p terms and p maps, p = len(terms),
    term j named by the format terms[j % p] of i, map j by maps[j % p] of
    i; `hows` holds the how-tag of every map in order.  `names()` is
    called once, on the first read of a named field, and kept; the
    origin is rendered on its first read, and the LESTerm and LESMap
    records are built together on the first read of `terms` or `maps`.
    """

    _fields = ("origin", "terms", "maps")

    def __init__(self, dims, ranks, names):
        self.dims, self.ranks, self.names = dims, ranks, names

    def __getattr__(self, name):
        # only reached for a field not yet set, on its first read
        if name == "_named":
            self._named = self.names()
        elif name == "origin":
            text, args = self._named[0]
            self.origin = text % args
        elif name in ("terms", "maps"):
            _, terms, maps, hows = self._named
            dims, ranks, p = self.dims, self.ranks, len(terms)
            self.terms = [LESTerm(terms[j % p] % (j // p), d) for j, d in enumerate(dims)]
            self.maps = [
                LESMap(maps[j % p] % (j // p), ranks[j + 1], hows[j])
                for j in range(len(dims) - 1)  # no map out of the last term
            ]
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def check_exactness(self):
        """Exactness at every term, and every rank in [0, min of its term
        dims]; the first failure is named by the row's records."""
        dims, ranks = self.dims, self.ranks
        for j, dim in enumerate(dims):
            if ranks[j] + ranks[j + 1] != dim:
                raise EngineError(
                    "%s: exactness fails at %s: %d + %d != %d"
                    % (self.origin, self.terms[j].name, ranks[j], ranks[j + 1], dim)
                )
        for j in range(len(dims) - 1):
            rank = ranks[j + 1]
            if rank < 0:
                raise EngineError("%s: negative rank at %s" % (self.origin, self.maps[j].name))
            if rank > dims[j] or rank > dims[j + 1]:
                raise EngineError(
                    "%s: rank of %s exceeds its term dimensions"
                    % (self.origin, self.maps[j].name)
                )
        return True

    def solved_dims(self, offset):
        return self.dims[offset::3]


def _solve(row):
    """Complete the row's lists `dims` and padded `ranks` in one walk,
    check them, and keep them as tuples; returns the row.

    None marks an unknown.  The walk visits the terms in order; at term
    j the rank of map j - 1 is known (pinned one step before, or the
    zero padding).  An unknown rank of map j is pinned at term j when
    its dimension is known, else at term j + 1 when that dimension and
    the rank of map j + 1 are known (the padding stands for the zero
    maps beyond either end); a rank that cannot be pinned raises
    IndeterminateRank naming the map.  An unknown dimension j is then
    the sum of its two ranks; a known one is checked against them, and
    the rank of map j - 1 against its two term dims.  A row that fails a
    check goes to `check_exactness`, which names its first failure.
    """
    dims, ranks = row.dims, row.ranks
    sound = True
    for j in range(len(dims)):
        before, after = ranks[j], ranks[j + 1]
        if after is None:
            if dims[j] is not None:
                after = dims[j] - before
            elif dims[j + 1] is not None and ranks[j + 2] is not None:
                after = dims[j + 1] - ranks[j + 2]
            else:
                raise IndeterminateRank(
                    "%s: exactness does not pin the rank of %s"
                    % (row.origin, row.maps[j].name)
                )
            ranks[j + 1] = after
        dim = dims[j]
        if dim is None:
            dims[j] = dim = before + after
        elif before + after != dim:
            sound = False
        if j and (before < 0 or before > dim or before > dims[j - 1]):
            sound = False
    if not sound:
        row.check_exactness()
    row.dims, row.ranks = tuple(dims), tuple(ranks)
    return row


def _contra_names(n, K, runs):
    """The names of the row Hom(-, B) along K's sequence, B given by its runs."""
    b = "+".join([str(a) if k == 1 else "%s^%d" % (a, k) for a, k in runs])
    return (
        ("Hom(-, %s) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (b, K.e, K.h, K.e)),
        (
            "Hom^%%d(OZ(%d), %s)" % (K.e, b),
            "Hom^%%d(O^%d, %s)" % (K.h, b),
            "Hom^%%d(F[%d], %s)" % (K.e, b),
        ),
        ("alpha_%d", "res_%d", "delta_%d"),
        ("injective", "exactness", "exactness") * (n + 1),
    )


def les_hom_contra(space, K, B):
    """Apply Hom(-, B) to 0 -> K -> O_X^h -> OZ(e) -> 0 and solve.

    B must be an atom or a finite sum of atoms inside the rule validity
    domain.  Every unknown dimension Hom^i(K, B) is pinned by exactness
    from the ranks of the injective known-to-known maps.
    """
    if not isinstance(K, KernelBundle):
        raise TypeError("left argument must be a kernel bundle, got %s" % (K,))
    _check_bundle(space, K)
    runs = tuple((a, len(list(copies))) for a, copies in groupby(_atom_list(B)))
    return _les_hom_contra_cached(space, K, runs)


@lru_cache(maxsize=None)
def _les_hom_contra_cached(space, K, runs):
    """The solved and checked row Hom(-, B) along K's sequence.

    B is given by its runs (atom, copies), named A^k for k > 1.

    The known-to-known map
    alpha_i: Hom^i(OZ(e), B) -> Hom^i(O_X^h, B) multiplies by the
    evaluation sections s_j of K, which span H^0(Z, e), so it is
    injective on the part of its source that survives restriction, or
    its target is zero; its rank is read off the rules, no matrix built.
    * B = OZ(f), degree 0: u -> (u s_j) is injective.
    * B = OZ(f), degree n-1: the map is dual to (g_j) -> sum g_j s_j
      from H^0(Z, -f-n)^h, which is onto H^0(Z, e-f-n) when -f-n >= 0;
      otherwise the target H^{n-1}(Z, f) is zero.
    * B = OZ(f): R3's block 1, H^{i-1}(Z, f-e+m), restricts to zero, so
      only block 0, H^i(Z, f-e), counts.
    * B = O(b) invertible, degree n: R4's H^{n-1}(Z, b-e+m), its only
      block, is multiplied into H^{n-1}(Z, b+m)^h, then carried to
      H^n(X, O(b))^h by the connecting map, which is injective as
      H^{n-1}(X, O(b+m)) = 0.  Both targets vanish exactly when
      -b-n-m < 0.  In other degrees H^i(X, O(b)) or R4's space is zero.
    So rank alpha_i is block 0 of Hom^i(OZ(e), B) wherever Hom^i(O, B)
    is nonzero, and 0 elsewhere.
    """
    # OutOfValidity for a non-invertible O(b), before any other rule is read
    fromQ = [hom_counts(space, OZ(K.e), a) for a, _ in runs]
    fromP = [hom_counts(space, _O, a)[0] for a, _ in runs]
    dims, ranks = [], [0]
    for i in range(space.n + 1):
        qdim = pdim = alpha = 0
        for (_, k), (qdims, qblocks), pdims in zip(runs, fromQ, fromP):
            qdim += k * qdims[i]
            if pdims[i]:
                pdim += k * pdims[i]
                alpha += k * qblocks[i][0]
        dims += (qdim, K.h * pdim, None)
        ranks += (alpha, None, None)
    ranks[-1] = 0  # past the last term; no delta_n
    return _solve(LongExactSequence(dims, ranks, partial(_contra_names, space.n, K, runs)))


def _top_row(space, K, hp):
    """The row Hom(-, O^h') along K's sequence: h' times the cached row
    Hom(-, O), which `_les_hom_contra_cached` solves and checks once per
    (cone, K).  Scaling by h' > 0 keeps exactness and every rank bound."""
    one, scale = _les_hom_contra_cached(space, K, _O_RUNS), hp.__mul__
    return LongExactSequence(
        tuple(map(scale, one.dims)),
        tuple(map(scale, one.ranks)),
        partial(_contra_names, space.n, K, ((_O, hp),)),
    )


def _cov_beta(space, A, Kp, i, pdim, qdim):
    """The known-to-known map Hom^i(A, O_X^h') -> Hom^i(A, OZ(e')), by rank.

    The map multiplies by the evaluation sections s_c of K', which span
    H^0(Z, e'), so it is onto the part of the target it reaches, or its
    source is zero; no matrix is built.
    * A = O(a) invertible, degree 0: restriction maps H^0(X, -a) onto
      H^0(Z, -a), and H^0(Z, p) H^0(Z, q) = H^0(Z, p+q) for p, q >= 0.
      In other degrees H^i(X, O) or H^n(Z, .) is zero.
    * A = OZ(d), degree 1, on the cone presentations: the source is
      H^0(X, m-d)^h' modulo x_n-multiples, which restrict to zero, so it
      maps as H^0(Z, m-d)^h' onto R3's block H^0(Z, e'-d+m) when d <= m;
      for d > m the source is zero.  That block is ext1_h0_block, which
      refuses the n = 2 H^1(Z, e'-d) block.
    * A = OZ(d), degree n: Laurent multiplication
      H^{n-1}(Z, m-d)^h' -> H^{n-1}(Z, e'-d+m); a monomial x^b hits each
      class x^-g from x^-(g+b), and each x^b is a combination of the s_c.
    * A = OZ(d), other degrees: R4's source is zero.
    A section source reaches only R3's block 1: O^h' maps nothing into
    its block 0, H^i(Z, e'-d).
    """
    if A.kind == SECTION:
        if i == 1:
            ext1_h0_block(space, A.twist, Kp.e)  # refuses the n = 2 gap
        if pdim:
            qdim = r3_block_dims(space, A.twist, Kp.e, i)[1]
    return qdim if pdim else 0


def _cov_names(n, A, Kp):
    """The names of the row Hom(A, -) along the sequence of K'."""
    a = str(A)
    return (
        ("Hom(%s, -) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (a, Kp.e, Kp.h, Kp.e)),
        (
            "Hom^%%d(%s, F[%d])" % (a, Kp.e),
            "Hom^%%d(%s, O^%d)" % (a, Kp.h),
            "Hom^%%d(%s, OZ(%d))" % (a, Kp.e),
        ),
        ("inc_%d", "beta_%d", "delta_%d"),
        ("exactness", "onto", "exactness") * (n + 1),
    )


def les_hom_cov(space, A, Kp):
    """Apply Hom(A, -) to 0 -> K' -> O_X^h' -> OZ(e') -> 0 and solve.

    A must be an atom with Hom^*(A, O_X) in the validity domain, i.e. an
    invertible twist or a section twist.
    """
    if not isinstance(A, Atom):
        raise TypeError("left argument must be an atom, got %r" % (A,))
    if not isinstance(Kp, KernelBundle):
        raise TypeError("right argument must be a kernel bundle, got %s" % (Kp,))
    _check_bundle(space, Kp)
    return _les_hom_cov_cached(space, A, Kp)


@lru_cache(maxsize=None)
def _les_hom_cov_cached(space, A, Kp):
    fromP = hom_counts(space, A, _O)[0]  # OutOfValidity for non-invertible twists
    fromQ = hom_counts(space, A, OZ(Kp.e))[0]
    dims, ranks = [], [0]
    for i in range(space.n + 1):
        pdim, qdim = Kp.h * fromP[i], fromQ[i]
        dims += (None, pdim, qdim)
        ranks += (None, _cov_beta(space, A, Kp, i, pdim, qdim), None)
    ranks[-1] = 0  # past the last term; no delta_n
    return _solve(LongExactSequence(dims, ranks, partial(_cov_names, space.n, A, Kp)))


# ---------------------------------------------------------------------------
# two-row ladder rank propagation
# ---------------------------------------------------------------------------

class LadderResult(Record):
    _fields = ("rank", "certificate")

    def __init__(self, rank, certificate):
        self.rank = rank
        self.certificate = certificate


def ladder_propagate(kb, reached):
    """Rank of the middle vertical T2 -> B2 of a kernel pair's ladder.

    The ladder maps the top row Hom(-, O^h') along K's sequence, terms
    T1, T2, T3 = Hom^0(O^h, O^h'), Hom^0(K, O^h'), Hom^1(OZ(e), O^h'),
    to the bottom row Hom(-, OZ(e')), terms B1, B2, B3.  Both outer
    verticals are onto: the left one onto B1, the right one onto the
    reached block of B3, `reached` (ext1_h0_block).  With
    `kb` = rank(B1 -> B2),

        rank = kb + reached.

    The left vertical has rank dim B1 - rank(B0 -> B1) = kb into
    B1 / ker(B1 -> B2), so through T1 the middle vertical reaches all of
    im(B1 -> B2).  T4 = Hom^1(O^h, O^h') = H^1(X, O)^{hh'} = 0 for
    n >= 2, so T2 / im(T1) is T3, which the right vertical maps onto
    the reached block; that adds `reached`.  (Were T1 -> T2 onto T2, T3
    would inject into T4 = 0 and the reached block would be 0: the same
    sum.)  The answer reads two integers and no row.
    """
    return kb + reached


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------

class HomComputation(Record):
    """Graded Hom dims and the derivation behind them.

    The dims are there at once.  `derive`, a (builder, args) pair, gives
    the derivation: `builder(*args)` returns the notes, ladders and
    sequences, built together on the first read of any of them.  With
    no `derive` the derivation is empty.
    """

    _fields = ("dims", "notes", "ladders", "sequences")

    def __init__(self, dims, derive=None):
        self.dims = dims
        if derive is None:
            self.notes, self.ladders, self.sequences = [], [], []
        else:
            self._derive = derive

    def __getattr__(self, name):
        # only reached for an attribute not yet set: a derivation field of
        # a computation made with `derive`, on its first read
        derive = self.__dict__.pop("_derive", None) if name in self._fields else None
        if derive is None:
            raise AttributeError(name)
        builder, args = derive
        self.notes, self.ladders, self.sequences = builder(*args)
        return self.__dict__[name]


def _joined(parts):
    """The derivation of a sum: the derivations of its summands in order."""
    notes, ladders, sequences = [], [], []
    for part in parts:
        notes += part.notes
        ladders += part.ladders
        sequences += part.sequences
    return notes, ladders, sequences


def _rule_derivation(gh):
    """The note of an atom pair: the rule that gives its dims."""
    return ["Hom(%s, %s) by rule %s" % (gh.source, gh.target, gh.rule)], [], []


def _row_derivation(resolution, les):
    """The note and the one row of an atom-kernel pair."""
    return ["%s resolution: %s" % (resolution, les.origin)], [], [les]


def _outer_names(n, K, Kp):
    """The names of the outer row Hom(K, -) along the sequence of K'."""
    return (
        ("Hom(F[%d], -) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (K.e, Kp.e, Kp.h, Kp.e)),
        (
            "Hom^%%d(F[%d],F[%d])" % (K.e, Kp.e),
            "Hom^%%d(F[%d],O^%d)" % (K.e, Kp.h),
            "Hom^%%d(F[%d],OZ(%d))" % (K.e, Kp.e),
        ),
        ("inc_%d", "gamma_%d", "delta_%d"),
        ("exactness", "ladder", "exactness") + ("exactness", "zero-side", "exactness") * n,
    )


def _kernel_derivation(space, K, Kp, reached, dims):
    """Notes, ladder and the top, bottom and outer rows of a kernel pair.

    The ladder reads rank(B1 -> B2) off the solved bottom row, and the
    outer row is solved and checked on it; an outer row whose solved
    dims are not the counted `dims` raises EngineError.
    """
    n = space.n
    top = _top_row(space, K, Kp.h)
    bottom = _les_hom_contra_cached(space, K, ((OZ(Kp.e), 1),))
    r_kb = bottom.ranks[2]  # B1 -> B2
    rank = ladder_propagate(r_kb, reached)
    dimsP = _les_hom_contra_cached(space, K, _O_RUNS).solved_dims(2)  # Hom^i(K, O)
    dimsQ = bottom.solved_dims(2)  # Hom^i(K, OZ(e'))
    outer_dims, ranks = [], [0]
    for i in range(n + 1):
        outer_dims += (None, Kp.h * dimsP[i], dimsQ[i])
        ranks += (None, rank if i == 0 else 0, None)  # gamma_i, zero-side for i > 0
    ranks[-1] = 0  # past the last term; no delta_n
    outer = _solve(LongExactSequence(outer_dims, ranks, partial(_outer_names, n, K, Kp)))
    if outer.solved_dims(0) != dims:
        raise EngineError(
            "Hom(%s, %s) on %s: the outer row solves to %s, the count gives %s"
            % (K, Kp, space, outer.solved_dims(0), dims)
        )
    ladder = LadderResult(
        rank,
        "image part saturated (rank %d = rank of %s); quotient part "
        "contributes %d through the right vertical; middle rank %d"
        % (r_kb, bottom.maps[1].name, rank - r_kb, rank),
    )
    note = "resolved F[%d] contravariantly, then F[%d] covariantly; ladder: %s" % (
        K.e, Kp.e, ladder.certificate
    )
    return [note], [ladder], [top, bottom, outer]


@lru_cache(maxsize=None)
def _hom_kernel_kernel(space, K, Kp):
    """Hom^*(K, K') for two kernel bundles, counted off the covariant outer chase.

    The checks run first: `_check_bundle` on K' and K, then
    ext1_h0_block, which refuses a pair whose Ext^1 has the n = 2 block
    H^1(Z, e'-e) that the right vertical misses and returns the reached
    block H^0(Z, e'-e+m).  The dims are then read off integers: no row
    is built but the one-copy row Hom(-, O), cached once per (cone, K)
    and shared by every K'.  The derivation (notes, the ladder result,
    and the top, bottom and outer rows) is built on first read, and
    checks that its solved outer row gives the same dims.

    The count.  Write h, e for K and h', e' for K'.  The outer row is
    Hom(K, -) along 0 -> K' -> O^h' -> OZ(e') -> 0, with gamma_i:
    Hom^i(K, O^h') -> Hom^i(K, OZ(e')).
    * The bottom row Hom(-, OZ(e')) along K's sequence has alpha_0
      injective on R3's block 0, H^0(Z, e'-e) (`_les_hom_contra_cached`),
      so kb = rank(B1 -> B2) = h dim H^0(Z, e') - dim H^0(Z, e'-e).
    * gamma_0 has rank r = ladder_propagate(kb, reached).
    * gamma_i, i >= 1, has a zero source: Hom^i(K, O) = 0 (below).
    So Hom^0(K, K') = h' Hom^0(K, O) - r, and Hom^1(K, K') =
    Hom^0(K, OZ(e')) - r.  Along the bottom row alpha_1 lands in
    H^1(Z, e')^h = 0, so Hom^0(K, OZ(e')) = kb + dim Ext^1(OZ(e), OZ(e'))
    = kb + reached + dim H^1(Z, e'-e), and Hom^1(K, K') = H^1(Z, e'-e),
    which is 0 for n >= 3 and, past the gap refusal, for n = 2.  For
    i >= 2, Hom^i(K, K') = Hom^{i-1}(K, OZ(e')), which is the zero-side
    kernel of alpha_i: H^{i-1}(Z, e') = 0 for i >= 2 (e' > 0), so it is
    all of Hom^i(OZ(e), OZ(e')) = H^i(Z, e'-e) + H^{i-1}(Z, e'-e+m),
    whose second block is 0 (e'-e+m > 0, i - 1 >= 1).  That leaves
    H^{n-1}(Z, e'-e) in degree n - 1 and 0 in every other degree >= 2.
    In all: Hom^0 = h' Hom^0(K, O) - r, Hom^{n-1} = dim H^{n-1}(Z, e'-e),
    and 0 elsewhere.  The chase reads only h and e of K, so custom
    bundles take the same path.

    Hom^i(K, O) = 0 for i >= 1: along K's sequence it sits between
    Hom^i(O^h, O) = H^i(X, O)^h = 0 and Hom^{i+1}(OZ(e), O) =
    H^i(Z, m-e) (R4), which is 0 as m - e >= 1.  This holds for every
    kernel bundle, custom ones included.  The left vertical of the
    ladder is h copies of the evaluation of K' (H^0(X, O) = k), which
    `_check_bundle` checked spans H^0(Z, O(e')), so it is onto.

    The right vertical Ext^1(OZ(e), O^h') -> Ext^1(OZ(e), OZ(e')) is
    onto too, for 0 < e, e' < m.  Its source is presented by the
    generators H^0(X, O(m-e))^h' with no relations, as H^0(X, O(-e)) = 0.
    Those generators are free of x_n since m - e < m, so restriction to
    Z maps them bijectively onto H^0(Z, m-e)^h'.  The target is
    presented by H^0(Z, m-e+e') with no relations, and the map sends
    (f_c) to sum f_c s_c.  The evaluation sections s_c span H^0(Z, e'),
    and H^0(Z, m-e) H^0(Z, e') is all of H^0(Z, m-e+e') as both degrees
    are at least 1.  The bottom term is ext1_h0_block.
    """
    n = space.n
    _check_bundle(space, Kp)  # ShapeMismatch unless K' lives here and spans
    _check_bundle(space, K)
    reached = ext1_h0_block(space, K.e, Kp.e)  # the reached block; refuses the n = 2 gap
    kb = K.h * section_cohomology_dim(space, Kp.e, 0) - r3_block_dims(space, K.e, Kp.e, 0)[0]
    rank = ladder_propagate(kb, reached)
    dims = [0] * (n + 1)
    dims[0] = Kp.h * _les_hom_contra_cached(space, K, _O_RUNS).dims[2] - rank
    dims[n - 1] = r3_block_dims(space, K.e, Kp.e, n - 1)[0]  # H^{n-1}(Z, e'-e)
    dims = tuple(dims)
    return HomComputation(dims, derive=(_kernel_derivation, (space, K, Kp, reached, dims)))


def hom_objects_detailed(space, A, B):
    """Graded Hom^*(A, B) with the full derivation record."""
    A = as_object(A)
    B = as_object(B)
    n = space.n

    if isinstance(A, SumObject) or isinstance(B, SumObject):
        if isinstance(A, SumObject):
            summands = [(o, B, k) for o, k in A.parts]
        else:
            summands = [(A, o, k) for o, k in B.parts]
        dims, parts = (0,) * (n + 1), []
        for a, b, k in summands:
            part = hom_objects_detailed(space, a, b)
            dims = tuple(x + k * y for x, y in zip(dims, part.dims))
            parts.append(part)
        return HomComputation(dims, derive=(_joined, (parts,)))

    if isinstance(A, Atom) and isinstance(B, Atom):
        gh = hom_atoms(space, A, B)
        return HomComputation(gh.dims, derive=(_rule_derivation, (gh,)))

    if isinstance(B, Atom):
        les = les_hom_contra(space, A, B)
        return HomComputation(
            les.solved_dims(2), derive=(_row_derivation, ("contravariant", les))
        )

    if isinstance(A, Atom):
        les = les_hom_cov(space, A, B)
        return HomComputation(
            les.solved_dims(0), derive=(_row_derivation, ("covariant", les))
        )

    return _hom_kernel_kernel(space, A, B)


def hom_objects(space, A, B):
    """Graded dimension vector of Hom^*(A, B) for sheaf objects."""
    return hom_objects_detailed(space, A, B).dims


def euler_form(space, A, B):
    """Alternating sum of the graded Hom dimensions."""
    dims = hom_objects(space, A, B)
    return sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
