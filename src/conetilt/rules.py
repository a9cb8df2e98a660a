"""Closed-form graded Hom between atom sheaves, counted and never listed.

The atoms are the twists O(d) on the cone and the twists OZ(e) on the
section Z ~ P^{n-1}.  Each Hom computation is carried out by one of a
small list of rules, each justified only on an explicit validity
domain; queries outside the domain raise OutOfValidity instead of
guessing.  The `rule` tag of every GradedHom names the rule used:

* R0  Hom(O(a), O(b)) = H^0(X, O(b-a)) in degree 0 only, for arbitrary
      twists (the reflexive Hom rule).  Higher degrees from a
      non-invertible source are refused.
* R1  full graded Hom(O(a), O(b)) = H^*(X, O(b-a)) when O(a) is
      invertible, i.e. a = 0 mod m.
* R2  Hom^i(O(a), OZ(e)) = H^i(Z, O(e-a)) for any a (Z misses the
      vertex, where every twist is locally free).
* R3  Hom^i(OZ(e), OZ(f)) = H^i(Z, O(f-e)) + H^{i-1}(Z, O(f-e+m)),
      from the twist resolution 0 -> O(e-m) -> O(e) -> OZ(e) -> 0 and
      the fact that multiplication by the cone variable dies on Z.
      Maps out of free sheaves reach only the H^0(Z, f-e+m) block of
      degree 1 (ext1_h0_block); a chase that meets the n = 2 block
      H^1(Z, f-e) is refused.  r3_block_dims gives both block dims.
* R4  Hom^i(OZ(e), O(b)) = H^{i-1}(Z, O(b-e+m)) for invertible O(b),
      from the local Ext^1(OZ(e), O(b)) = O_Z(b-e+m) of the twist
      resolution; it has the dimensions of the Serre dual of R2.

Each rule is one entry of RULES: the blocks of its degree-i space, as
cohomology of a twist on X or Z.  A rule's counts depend only on the
kinds of the two atoms and the twist difference b - a, so the count
table `_counts` counts the dims of its blocks in closed form
(cone_cohomology_dim, section_cohomology_dim) once per cone, kind pair
and twist difference.  `hom_counts` runs the validity check and reads
the table; `hom_atoms` runs the same check and wraps the same counts in
a GradedHom.  This module lists no basis: the monomial and Laurent
bases of the blocks are the listers of `cone`, and the tests check
their lengths against these counts.

The chases use composition with the evaluation sections of a kernel
bundle only through its rank, never as a matrix: out of OZ(e) it is
injective on R3's block 0 and on R4 (objects._les_hom_contra_cached),
and into OZ(e') it is onto R3's block 1 (objects._cov_beta).  They read
integers only, from the count table and never through a GradedHom:
hom_counts, and r3_block_dims and ext1_h0_block keyed by f - e.
"""

from __future__ import annotations

from functools import lru_cache

from .cone import FrozenValue, Record, cone_cohomology_dim, section_cohomology_dim
from .linalg import EngineError

CONE = "cone"
SECTION = "section"


class OutOfValidity(EngineError):
    """The requested Hom computation is outside every rule's domain."""


class PresentationMismatch(EngineError):
    """Ext^1(OZ(e), OZ(f)) has the n = 2 block H^1(Z, f-e) no onto map reaches.

    The chases present Ext^1 out of free sheaves as R3's block
    H^0(Z, f-e+m); the message compares that block with R3's total.
    """


class Atom(FrozenValue):
    """A generator sheaf: a twist O(d) on the cone or OZ(e) on the section."""

    _fields = ("kind", "twist")

    def __init__(self, kind, twist):
        attrs = self.__dict__
        attrs["kind"], attrs["twist"] = kind, twist
        attrs["_hash"] = hash((kind, twist))

    def is_invertible(self, space):
        """O(d) is invertible iff d = 0 mod m; OZ twists never are on X."""
        return self.kind == CONE and self.twist % space.m == 0

    def __str__(self):
        if self.kind == CONE:
            return "O(%d)" % self.twist
        return "OZ(%d)" % self.twist


def OX(d):
    return Atom(CONE, d)


def OZ(e):
    return Atom(SECTION, e)


# ---------------------------------------------------------------------------
# the graded Hom rules
# ---------------------------------------------------------------------------

def _h_column(space, sheaf, d, s):
    """[dim H^{i+s}(X or Z, O(d)) for i = 0..n], counted in closed form.

    Only H^0 and the top degree (n on X, n - 1 on Z) can be nonzero.
    """
    top = space.n if sheaf == CONE else space.n - 1
    count = cone_cohomology_dim if sheaf == CONE else section_cohomology_dim
    column = [0] * (space.n + 1)
    for j in (0, top):
        if 0 <= j - s <= space.n:
            column[j - s] = count(space, d, j)
    return column


# For Hom^i(A, B) with twists a, b, each block (sheaf, k, s) of a rule is
# H^{i+s}(sheaf, O(b - a + km)); the degree-i space is their direct sum.
RULES = {
    (CONE, CONE): ("R1", ((CONE, 0, 0),)),
    (CONE, SECTION): ("R2", ((SECTION, 0, 0),)),
    (SECTION, SECTION): ("R3", ((SECTION, 0, 0), (SECTION, 1, -1))),
    (SECTION, CONE): ("R4", ((SECTION, 1, -1),)),
}


def _check_domain(space, A, B):
    """Raise OutOfValidity for a pair no rule justifies, e.g. the full
    graded Hom out of a non-invertible twist into another twist."""
    if A.kind == CONE and B.kind == CONE and not A.is_invertible(space):
        raise OutOfValidity(
            "graded Hom(%s, %s): source twist is not invertible; only the "
            "degree-0 reflexive Hom is defined (rule R0)" % (A, B)
        )
    if A.kind == SECTION and B.kind == CONE and not B.is_invertible(space):
        raise OutOfValidity(
            "graded Hom(%s, %s): target twist is not invertible; rule R4 "
            "does not apply" % (A, B)
        )


@lru_cache(maxsize=None)
def _counts(space, source, target, t):
    """(dims, block_dims) of the rule for the kinds (source, target) at
    twist difference t, counted once per cone and key.

    `block_dims[i]` holds the dims of the rule's degree-i blocks (two for
    R3, one otherwise) and `dims[i]` their sum.
    """
    block_dims = tuple(zip(*[
        _h_column(space, sheaf, t + k * space.m, s)
        for sheaf, k, s in RULES[source, target][1]
    ]))
    return tuple(map(sum, block_dims)), block_dims


def hom_counts(space, A, B):
    """(dims, block_dims) of Hom^*(A, B), those of hom_atoms(space, A, B),
    read off the count table without building a GradedHom.

    Raises OutOfValidity exactly where hom_atoms does, with the same text.
    """
    _check_domain(space, A, B)
    return _counts(space, A.kind, B.kind, B.twist - A.twist)


class GradedHom(Record):
    """Hom^*(A, B) by one rule: its dims and block dims from the count table."""

    _fields = ("source", "target", "dims", "rule")

    def __init__(self, space, source, target):
        self.source = source
        self.target = target
        self.rule = RULES[source.kind, target.kind][0]
        self.dims, self.block_dims = _counts(
            space, source.kind, target.kind, target.twist - source.twist
        )


@lru_cache(maxsize=None)
def hom_atoms(space, A, B):
    """Graded Hom^*(A, B) between atoms, via the rule table.

    Raises OutOfValidity for pairs no rule justifies (see `_check_domain`).
    """
    _check_domain(space, A, B)
    return GradedHom(space, A, B)


def r3_block_dims(space, e, f, i):
    """R3's degree-i block dims: dim H^i(Z, f-e), dim H^{i-1}(Z, f-e+m)."""
    return _counts(space, SECTION, SECTION, f - e)[1][i]


# ---------------------------------------------------------------------------
# the Ext^1 block the chases reach
# ---------------------------------------------------------------------------

def ext1_h0_block(space, e, f):
    """dim of R3's degree-1 block H^0(Z, f-e+m) of Ext^1(OZ(e), OZ(f)).

    It is the x_n-cokernel on Hom(O(e-m), OZ(f)), the part of Ext^1 that
    maps out of free sheaves reach.  The other block, H^1(Z, f-e), is
    nonzero only for n = 2 and f - e <= -2; no onto argument covers it,
    so that pair raises PresentationMismatch.
    """
    gap, reached = r3_block_dims(space, e, f, 1)
    if gap:
        raise PresentationMismatch(
            "Ext^1(OZ(%d), OZ(%d)): presentation gives %d, rules give %d"
            % (e, f, reached, gap + reached)
        )
    return reached
