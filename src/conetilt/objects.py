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
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby

from .cone import FrozenValue, Record, section_cohomology_dim, section_monomials
from .linalg import EngineError, ShapeMismatch, mat_rank
from .rules import CONE, SECTION, Atom, OX, OZ, ext1_h0_block, hom_atoms, r3_block_dims


class IndeterminateRank(EngineError):
    """A diagram chase did not pin a rank; the unresolved map is named."""


# ---------------------------------------------------------------------------
# sheaf objects
# ---------------------------------------------------------------------------

class AtomObject(FrozenValue):
    _fields = ("atom",)

    def __init__(self, atom):
        attrs = self.__dict__
        attrs["atom"] = atom
        attrs["_hash"] = hash((atom,))

    def __str__(self):
        return str(self.atom)


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

    def component_terms(self, space):
        """For each copy j, the (monomial, coefficient) pairs of its evaluation.

        Computed once per (space, bundle).  The canonical terms are
        ((mu_j, 1),) with int coefficients; a stored evaluation keeps
        its Fractions.  Raises ShapeMismatch when the bundle does not
        live on `space`, or when it does not have h columns of the
        length of that basis.
        """
        return _component_terms(space, self)


def _spans(columns, full):
    """Whether the evaluation columns span a space of dimension `full`."""
    return mat_rank([[col[i] for col in columns] for i in range(full)]) == full


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


@lru_cache(maxsize=None)
def _component_terms(space, K):
    _check_bundle(space, K)
    basis = section_monomials(space, K.e)
    if K.canonical:
        return tuple(((mu, 1),) for mu in basis)
    return tuple(
        tuple((mu, c) for mu, c in zip(basis, col) if c) for col in K.columns
    )


def kernel_bundle(space, e):
    """The canonical kernel bundle F_e = ker(O_X^h -> OZ(e)), 0 < e < m."""
    if not 0 < e < space.m:
        raise ValueError(
            "kernel bundle twist must satisfy 0 < e < m = %d, got %d" % (space.m, e)
        )
    return KernelBundle(e, section_cohomology_dim(space, e, 0))


def kernel_bundle_custom(space, e, columns):
    """A kernel bundle with a user evaluation; flagged non-canonical.

    The columns must span all of H^0(Z, O(e)); since OZ(e) is globally
    generated for e > 0, spanning sections give a sheaf surjection and
    the kernel is locally free of rank h.
    """
    full = kernel_bundle(space, e).h  # ValueError for a twist outside 0 < e < m
    cols = tuple(tuple(Fraction(c) for c in col) for col in columns)
    for col in cols:
        if len(col) != full:
            raise ValueError("evaluation columns must have length %d" % full)
    if not _spans(cols, full):
        raise ValueError("evaluation sections do not span H^0(Z, O(%d))" % e)
    return KernelBundle(e, len(cols), cols)


def as_object(thing):
    if isinstance(thing, (AtomObject, SumObject, KernelBundle)):
        return thing
    if isinstance(thing, Atom):
        return AtomObject(thing)
    raise TypeError("not a sheaf object: %r" % (thing,))


def direct_sum(*objects):
    return SumObject(tuple((as_object(o), 1) for o in objects))


def rank_of(obj):
    """Generic rank of the sheaf: twists have rank 1, OZ twists rank 0."""
    obj = as_object(obj)
    if isinstance(obj, AtomObject):
        return 1 if obj.atom.kind == CONE else 0
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
    B = as_object(B)
    if isinstance(B, AtomObject):
        return [B.atom]
    if isinstance(B, SumObject):
        out = []
        for o, k in B.parts:
            out.extend(_atom_list(o) * k)
        return out
    raise TypeError("expected an atom or a sum of atoms, got %s" % (B,))


# ---------------------------------------------------------------------------
# long exact sequences
# ---------------------------------------------------------------------------

def _render(text):
    """A name kept as (format, args) rendered; a str returned as it is."""
    return text if text.__class__ is str else text[0] % text[1]


class LESTerm(Record):
    _fields = ("name", "dim")

    def __init__(self, name, dim):
        self._name = name  # a str, or (format, args) rendered on first read
        self.dim = dim  # None until solve_les pins it

    @cached_property
    def name(self):
        return _render(self._name)


class LESMap(Record):
    _fields = ("name", "rank", "how")

    def __init__(self, name, rank, how):
        self._name = name  # a str, or (format, args) rendered on first read
        self.rank = rank  # None until solve_les pins it
        self.how = how  # "injective" | "onto" | "exactness" | "ladder" | "zero-side"

    @cached_property
    def name(self):
        return _render(self._name)


class LongExactSequence(Record):
    _fields = ("origin", "terms", "maps")

    def __init__(self, origin, terms, maps):
        self._origin = origin  # a str, or (format, args) rendered on first read
        self.terms = terms
        self.maps = maps

    @cached_property
    def origin(self):
        return _render(self._origin)

    def check_exactness(self):
        """rank(incoming) + rank(outgoing) = dim at every term, ranks sane."""
        self._check([t.dim for t in self.terms], [0, *(m.rank for m in self.maps), 0])
        return True

    def _check(self, dims, ranks):
        """check_exactness on the term dims and the map ranks padded by a
        zero at each end, so that ranks[j + 1] is the rank of map j."""
        for j, dim in enumerate(dims):
            if ranks[j] + ranks[j + 1] != dim:
                raise EngineError(
                    "%s: exactness fails at %s: %d + %d != %d"
                    % (self.origin, self.terms[j].name, ranks[j], ranks[j + 1], dim)
                )
        for j, m in enumerate(self.maps):
            if ranks[j + 1] < 0:
                raise EngineError("%s: negative rank at %s" % (self.origin, m.name))
            if ranks[j + 1] > min(dims[j], dims[j + 1]):
                raise EngineError(
                    "%s: rank of %s exceeds its term dimensions" % (self.origin, m.name)
                )

    def solved_dims(self, offset, stride=3):
        return tuple(t.dim for t in self.terms[offset::stride])


def solve_les(origin, terms, maps):
    """Complete a long exact sequence by exactness and check it.

    Map j runs from terms[j] to terms[j+1].  A term with dim None or a
    map with rank None is unknown.  Each unknown rank is pinned, in map
    order, at an adjacent term of known dimension whose other map is
    known (the maps beyond either end are zero); each unknown dimension
    is then the sum of its two adjacent ranks.  A rank that cannot be
    pinned raises IndeterminateRank naming the sequence and the map.
    """
    les = LongExactSequence(origin, terms, maps)
    dims = [t.dim for t in terms]
    ranks = [0, *(m.rank for m in maps), 0]  # ranks[j + 1] is the rank of map j
    for j, m in enumerate(maps):
        if ranks[j + 1] is not None:
            continue
        if dims[j] is not None and ranks[j] is not None:
            ranks[j + 1] = m.rank = dims[j] - ranks[j]
        elif dims[j + 1] is not None and ranks[j + 2] is not None:
            ranks[j + 1] = m.rank = dims[j + 1] - ranks[j + 2]
        else:
            raise IndeterminateRank(
                "%s: exactness does not pin the rank of %s" % (les.origin, m.name)
            )
    for j, t in enumerate(terms):
        if dims[j] is None:
            dims[j] = t.dim = ranks[j] + ranks[j + 1]
    les._check(dims, ranks)
    return les


def _contra_alpha(space, K, runs, i):
    """The known-to-known map Hom^i(OZ(e), B) -> Hom^i(O_X^h, B), by rank.

    Each component multiplies by the evaluation sections s_j of K, which
    span H^0(Z, e), so it is injective on the part of its source that
    survives restriction, or its target is zero; no matrix is built.
    * B = OZ(f), degree 0: u -> (u s_j) is injective.
    * B = OZ(f), degree n-1: the map is dual to (g_j) -> sum g_j s_j
      from H^0(Z, -f-n)^h, which is onto H^0(Z, e-f-n) when -f-n >= 0;
      otherwise the target H^{n-1}(Z, f) is zero.
    * B = OZ(f): R3's block 1, H^{i-1}(Z, f-e+m), restricts to zero, so
      only block 0, H^i(Z, f-e), counts.
    * B = O(b) invertible, degree n: R4's H^{n-1}(Z, b-e+m) is multiplied
      into H^{n-1}(Z, b+m)^h, then carried to H^n(X, O(b))^h by the
      connecting map, which is injective as H^{n-1}(X, O(b+m)) = 0.
      Both targets vanish exactly when -b-n-m < 0.  In other degrees
      H^i(X, O(b)) or R4's space is zero.
    B is given by its runs (atom, copies).
    """
    rank = 0
    for a, k in runs:
        if hom_atoms(space, OX(0), a).dims[i]:
            if a.kind == SECTION:
                rank += k * r3_block_dims(space, K.e, a.twist, i)[0]
            else:
                rank += k * hom_atoms(space, OZ(K.e), a).dims[i]
    return LESMap(("alpha_%d", i), rank, "injective")


def les_hom_contra(space, K, B):
    """Apply Hom(-, B) to 0 -> K -> O_X^h -> OZ(e) -> 0 and solve.

    B must be an atom or a finite sum of atoms inside the rule validity
    domain.  Every unknown dimension Hom^i(K, B) is pinned by exactness
    from the ranks of the injective known-to-known maps.
    """
    K = as_object(K)
    if not isinstance(K, KernelBundle):
        raise TypeError("left argument must be a kernel bundle, got %s" % (K,))
    _check_bundle(space, K)
    runs = tuple((a, len(list(copies))) for a, copies in groupby(_atom_list(B)))
    return _les_hom_contra_cached(space, K, runs)


@lru_cache(maxsize=None)
def _les_hom_contra_cached(space, K, runs):
    """les_hom_contra on B given by its runs (atom, copies), named A^k for k > 1."""
    bname = "+".join(str(a) if k == 1 else "%s^%d" % (a, k) for a, k in runs)
    # OutOfValidity for a non-invertible O(b), before any other rule is read
    fromQ = [(k, hom_atoms(space, OZ(K.e), a).dims) for a, k in runs]
    fromP = [(k, hom_atoms(space, OX(0), a).dims) for a, k in runs]
    terms, maps = [], []
    for i in range(space.n + 1):
        qdim = sum(k * d[i] for k, d in fromQ)
        pdim = K.h * sum(k * d[i] for k, d in fromP)
        terms.append(LESTerm(("Hom^%d(OZ(%d), %s)", (i, K.e, bname)), qdim))
        terms.append(LESTerm(("Hom^%d(O^%d, %s)", (i, K.h, bname)), pdim))
        terms.append(LESTerm(("Hom^%d(F[%d], %s)", (i, K.e, bname)), None))
        maps.append(_contra_alpha(space, K, runs, i))
        maps.append(LESMap(("res_%d", i), None, "exactness"))
        if i < space.n:
            maps.append(LESMap(("delta_%d", i), None, "exactness"))
    origin = (
        "Hom(-, %s) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (bname, K.e, K.h, K.e)
    )
    return solve_les(origin, terms, maps)


def _free_row(space, K, hp):
    """les_hom_contra(space, K, [OX(0)] * hp), without a list of hp copies."""
    return _les_hom_contra_cached(space, K, ((OX(0), hp),))


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
    return LESMap(("beta_%d", i), qdim if pdim else 0, "onto")


def les_hom_cov(space, A, Kp):
    """Apply Hom(A, -) to 0 -> K' -> O_X^h' -> OZ(e') -> 0 and solve.

    A must be an atom with Hom^*(A, O_X) in the validity domain, i.e. an
    invertible twist or a section twist.
    """
    if isinstance(A, AtomObject):
        A = A.atom
    if not isinstance(A, Atom):
        raise TypeError("left argument must be an atom, got %r" % (A,))
    Kp = as_object(Kp)
    if not isinstance(Kp, KernelBundle):
        raise TypeError("right argument must be a kernel bundle, got %s" % (Kp,))
    _check_bundle(space, Kp)
    return _les_hom_cov_cached(space, A, Kp)


@lru_cache(maxsize=None)
def _les_hom_cov_cached(space, A, Kp):
    n = space.n
    ghP = hom_atoms(space, A, OX(0))  # OutOfValidity for non-invertible twists
    ghQ = hom_atoms(space, A, OZ(Kp.e))

    terms, maps = [], []
    for i in range(n + 1):
        pdim, qdim = Kp.h * ghP.dims[i], ghQ.dims[i]
        terms.append(LESTerm(("Hom^%d(%s, F[%d])", (i, A, Kp.e)), None))
        terms.append(LESTerm(("Hom^%d(%s, O^%d)", (i, A, Kp.h)), pdim))
        terms.append(LESTerm(("Hom^%d(%s, OZ(%d))", (i, A, Kp.e)), qdim))
        maps.append(LESMap(("inc_%d", i), None, "exactness"))
        maps.append(_cov_beta(space, A, Kp, i, pdim, qdim))
        if i < n:
            maps.append(LESMap(("delta_%d", i), None, "exactness"))
    origin = (
        "Hom(%s, -) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (A, Kp.e, Kp.h, Kp.e)
    )
    return solve_les(origin, terms, maps)


# ---------------------------------------------------------------------------
# two-row ladder rank propagation
# ---------------------------------------------------------------------------

class LadderResult(Record):
    _fields = ("rank", "certificate")

    def __init__(self, rank, certificate):
        self.rank = rank
        self.certificate = certificate


def ladder_propagate(top, bottom):
    """Rank of the middle vertical T2 -> B2 of a commutative two-row ladder.

    `top` and `bottom` are exact rows (LongExactSequence) whose terms 1,
    2, 3 are T1, T2, T3 and B1, B2, B3; both outer verticals are onto
    their bottom terms.  The left one then has rank
    dim B1 - rank(B0 -> B1) = rank(B1 -> B2) into B1 / ker(B1 -> B2), so
    through T1 the middle vertical reaches all of im(B1 -> B2).  When
    T1 -> T2 covers T2 that is the whole rank.  Otherwise the quotient
    part adds the rank of the right vertical on ker(T3 -> T4), which is
    dim B3 when T3 -> T4 is zero; with any other T3 -> T4 it is not
    pinned and IndeterminateRank is raised.  The rank is returned with a
    determination certificate; the engine never guesses.
    """
    bottom_first = bottom.maps[1]  # B1 -> B2
    r_kb = bottom_first.rank
    if top.maps[1].rank == top.terms[2].dim:
        return LadderResult(
            r_kb,
            "middle term is covered by the first map; rank forced to %d" % r_kb,
        )
    nxt = top.maps[3]  # T3 -> T4
    if nxt.rank:
        raise IndeterminateRank(
            "ladder: the onto right vertical out of %s is not pinned on the "
            "kernel of its outgoing map of rank %d" % (top.terms[3].name, nxt.rank)
        )
    r_v3 = bottom.terms[3].dim
    rank = r_kb + r_v3
    cert = (
        "image part saturated (rank %d = rank of %s); quotient part "
        "contributes %d through the right vertical; middle rank %d"
        % (r_kb, bottom_first.name, r_v3, rank)
    )
    return LadderResult(rank, cert)


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------

class HomComputation(Record):
    _fields = ("dims", "notes", "ladders", "sequences")

    def __init__(self, dims, notes=None, ladders=None, sequences=None):
        self.dims = dims
        self.notes = [] if notes is None else notes
        self.ladders = [] if ladders is None else ladders
        self.sequences = [] if sequences is None else sequences


@lru_cache(maxsize=None)
def _hom_kernel_kernel(space, K, Kp):
    """Hom^*(K, K') for two kernel bundles, via the covariant outer chase.

    The top row Hom(-, O^h') is h' copies of the row Hom(-, O), so
    `_free_row` scales that cached row, solved once per (cone, K).  The
    ladder reads ranks only.  Its map T3 -> T4 lands in
    Hom^1(O^h, O^h') = H^1(X, O)^{hh'} = 0 for n >= 2; were it nonzero,
    the ladder would refuse.  The left vertical is h
    copies of the evaluation of K' (H^0(X, O) = k), which
    `component_terms` checked spans H^0(Z, O(e')), so it is onto.

    The right vertical Ext^1(OZ(e), O^h') -> Ext^1(OZ(e), OZ(e')) is
    onto too, for 0 < e, e' < m.  Its source is presented by the
    generators H^0(X, O(m-e))^h' with no relations, as H^0(X, O(-e)) = 0.
    Those generators are free of x_n since m - e < m, so restriction to
    Z maps them bijectively onto H^0(Z, m-e)^h'.  The target is
    presented by H^0(Z, m-e+e') with no relations, and the map sends
    (f_c) to sum f_c s_c.  The evaluation sections s_c span H^0(Z, e'),
    and H^0(Z, m-e) H^0(Z, e') is all of H^0(Z, m-e+e') as both degrees
    are at least 1.  The bottom term is ext1_h0_block, which refuses a
    pair whose Ext^1 has the n = 2 block H^1(Z, e'-e).
    """
    n = space.n
    _check_bundle(space, Kp)  # ShapeMismatch unless K' lives here and spans
    _check_bundle(space, K)
    top = _free_row(space, K, Kp.h)
    bottom = les_hom_contra(space, K, [OZ(Kp.e)])
    ext1_h0_block(space, K.e, Kp.e)  # refuses the block the right vertical misses

    ladder = ladder_propagate(top, bottom)

    dimsP = top.solved_dims(2)  # Hom^i(K, O^h')
    dimsQ = bottom.solved_dims(2)  # Hom^i(K, OZ(e'))
    kname, kpname = "F[%d]" % K.e, "F[%d]" % Kp.e
    for i in range(1, n + 1):
        if dimsP[i] and dimsQ[i]:
            raise IndeterminateRank(
                "rank of Hom^%d(%s, O^%d) -> Hom^%d(%s, OZ(%d)) is not "
                "determined by the available diagrams"
                % (i, kname, Kp.h, i, kname, Kp.e)
            )

    terms, maps = [], []
    for i in range(n + 1):
        terms.append(LESTerm(("Hom^%d(F[%d],F[%d])", (i, K.e, Kp.e)), None))
        terms.append(LESTerm(("Hom^%d(F[%d],O^%d)", (i, K.e, Kp.h)), dimsP[i]))
        terms.append(LESTerm(("Hom^%d(F[%d],OZ(%d))", (i, K.e, Kp.e)), dimsQ[i]))
        maps.append(LESMap(("inc_%d", i), None, "exactness"))
        if i == 0:
            maps.append(LESMap("gamma_0", ladder.rank, "ladder"))
        else:
            maps.append(LESMap(("gamma_%d", i), 0, "zero-side"))
        if i < n:
            maps.append(LESMap(("delta_%d", i), None, "exactness"))
    origin = (
        "Hom(F[%d], -) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0",
        (K.e, Kp.e, Kp.h, Kp.e),
    )
    outer = solve_les(origin, terms, maps)
    dims = outer.solved_dims(0)

    comp = HomComputation(dims)
    comp.notes.append(
        "resolved %s contravariantly, then %s covariantly; ladder: %s"
        % (kname, kpname, ladder.certificate)
    )
    comp.ladders.append(ladder)
    comp.sequences.extend([top, bottom, outer])
    return comp


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
        total = HomComputation((0,) * (n + 1))
        for a, b, k in summands:
            part = hom_objects_detailed(space, a, b)
            total.dims = tuple(x + k * y for x, y in zip(total.dims, part.dims))
            total.notes.extend(part.notes)
            total.ladders.extend(part.ladders)
            total.sequences.extend(part.sequences)
        return total

    if isinstance(A, AtomObject) and isinstance(B, AtomObject):
        gh = hom_atoms(space, A.atom, B.atom)
        comp = HomComputation(gh.dims)
        comp.notes.append(
            "Hom(%s, %s) by rule %s" % (A.atom, B.atom, gh.rules[0])
        )
        return comp

    if isinstance(A, KernelBundle) and isinstance(B, AtomObject):
        les = les_hom_contra(space, A, B)
        comp = HomComputation(les.solved_dims(2))
        comp.notes.append("contravariant resolution: %s" % les.origin)
        comp.sequences.append(les)
        return comp

    if isinstance(A, AtomObject) and isinstance(B, KernelBundle):
        les = les_hom_cov(space, A.atom, B)
        comp = HomComputation(les.solved_dims(0))
        comp.notes.append("covariant resolution: %s" % les.origin)
        comp.sequences.append(les)
        return comp

    return _hom_kernel_kernel(space, A, B)


def hom_objects(space, A, B):
    """Graded dimension vector of Hom^*(A, B) for sheaf objects."""
    return hom_objects_detailed(space, A, B).dims


def euler_form(space, A, B):
    """Alternating sum of the graded Hom dimensions."""
    dims = hom_objects(space, A, B)
    return sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
