"""Closed-form graded Hom spaces between atom sheaves, with explicit bases.

The atoms are the twists O(d) on the cone and the twists OZ(e) on the
section Z ~ P^{n-1}.  Each Hom computation is carried out by one of a
small list of rules, each justified only on an explicit validity
domain; queries outside the domain raise OutOfValidity instead of
guessing.  The tags attached to every degree name the rule used:

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
      H^1(Z, f-e) is refused.
* R4  Hom^i(OZ(e), O(b)) = H^{i-1}(Z, O(b-e+m)) for invertible O(b),
      from the local Ext^1(OZ(e), O(b)) = O_Z(b-e+m) of the twist
      resolution; it has the dimensions of the Serre dual of R2.

The chases use composition with the evaluation sections of a kernel
bundle only through its rank, never as a matrix: out of OZ(e) it is
injective on R3's block 0 and on R4 (objects._contra_alpha), and into
OZ(e') it is onto R3's block 1 (objects._cov_beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cone import (
    laurent_top_basis,
    section_laurent_basis,
    section_monomials,
    weighted_monomials,
)
from .linalg import DirectSpace, DirectSum, EngineError, zero_space

CONE = "cone"
SECTION = "section"


class OutOfValidity(EngineError):
    """The requested Hom computation is outside every rule's domain."""


class PresentationMismatch(EngineError):
    """Ext^1(OZ(e), OZ(f)) has the n = 2 block H^1(Z, f-e) no onto map reaches.

    The chases present Ext^1 out of free sheaves as R3's block
    H^0(Z, f-e+m); the message compares that block with R3's total.
    """


@dataclass(frozen=True)
class Atom:
    """A generator sheaf: a twist O(d) on the cone or OZ(e) on the section."""

    kind: str
    twist: int

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


@dataclass
class GradedHom:
    """Degree-indexed family of presented spaces for Hom^*(A, B)."""

    source: Atom
    target: Atom
    spaces: tuple
    rules: tuple

    @property
    def dims(self):
        return tuple(sp.dim for sp in self.spaces)

    def __getitem__(self, i):
        return self.spaces[i]


# ---------------------------------------------------------------------------
# cohomology spaces with their canonical bases
# ---------------------------------------------------------------------------

def cone_h_space(space, d, i, name=""):
    """H^i(X, O(d)) with its monomial or Laurent basis."""
    if i == 0:
        return DirectSpace(weighted_monomials(space, d), name)
    if i == space.n:
        return DirectSpace(laurent_top_basis(space, d), name)
    return zero_space(name)


def section_h_space(space, e, i, name=""):
    """H^i(Z, O(e)) with its monomial or Laurent basis; zero for any other i."""
    if i == 0:
        return DirectSpace(section_monomials(space, e), name)
    if i == space.n - 1:
        return DirectSpace(section_laurent_basis(space, e), name)
    return zero_space(name)


def _r3_space(space, e, f, i, name=""):
    """R3 degree-i space: H^i(Z, f-e) block 0, then H^{i-1}(Z, f-e+m) block 1."""
    blocks = (
        section_h_space(space, f - e, i),
        section_h_space(space, f - e + space.m, i - 1),
    )
    return DirectSum(blocks, name)


# ---------------------------------------------------------------------------
# the graded Hom rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hom_atoms(space, A, B):
    """Graded Hom^*(A, B) between atoms, via the rule table.

    Raises OutOfValidity for pairs no rule justifies, e.g. the full
    graded Hom out of a non-invertible twist into another twist.
    """
    n = space.n
    tag = "%s->%s" % (A, B)
    if A.kind == CONE and B.kind == CONE:
        if not A.is_invertible(space):
            raise OutOfValidity(
                "graded Hom(%s, %s): source twist is not invertible; only the "
                "degree-0 reflexive Hom is defined (rule R0)" % (A, B)
            )
        d = B.twist - A.twist
        spaces = tuple(
            cone_h_space(space, d, i, "Hom^%d(%s)" % (i, tag)) for i in range(n + 1)
        )
        return GradedHom(A, B, spaces, ("R1",) * (n + 1))
    if A.kind == CONE and B.kind == SECTION:
        d = B.twist - A.twist
        spaces = tuple(
            section_h_space(space, d, i, "Hom^%d(%s)" % (i, tag)) for i in range(n + 1)
        )
        return GradedHom(A, B, spaces, ("R2",) * (n + 1))
    if A.kind == SECTION and B.kind == SECTION:
        spaces = tuple(
            _r3_space(space, A.twist, B.twist, i, "Hom^%d(%s)" % (i, tag))
            for i in range(n + 1)
        )
        return GradedHom(A, B, spaces, ("R3",) * (n + 1))
    # section source into a cone twist
    if not B.is_invertible(space):
        raise OutOfValidity(
            "graded Hom(%s, %s): target twist is not invertible; rule R4 "
            "does not apply" % (A, B)
        )
    d = B.twist - A.twist + space.m
    spaces = tuple(
        section_h_space(space, d, i - 1, "Hom^%d(%s)" % (i, tag)) for i in range(n + 1)
    )
    return GradedHom(A, B, spaces, ("R4",) * (n + 1))


# ---------------------------------------------------------------------------
# the Ext^1 block the chases reach
# ---------------------------------------------------------------------------

def ext1_h0_block(space, e, f):
    """R3's degree-1 block H^0(Z, f-e+m) of Ext^1(OZ(e), OZ(f)).

    It is the x_n-cokernel on Hom(O(e-m), OZ(f)), the part of Ext^1 that
    maps out of free sheaves reach.  The other block, H^1(Z, f-e), is
    nonzero only for n = 2 and f - e <= -2; no onto argument covers it,
    so that pair raises PresentationMismatch.
    """
    gap, reached = hom_atoms(space, OZ(e), OZ(f))[1].blocks
    if gap.dim:
        raise PresentationMismatch(
            "Ext^1(OZ(%d), OZ(%d)): presentation gives %d, rules give %d"
            % (e, f, reached.dim, gap.dim + reached.dim)
        )
    return reached
