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
* R4  Hom^i(OZ(e), O(b)) = H^{i-1}(Z, O(b-e+m)) for invertible O(b),
      from the local Ext^1(OZ(e), O(b)) = O_Z(b-e+m) of the twist
      resolution; it has the dimensions of the Serre dual of R2.
* CP  cone presentation: Ext^1(OZ(e), T) as the cokernel of
      multiplication by the cone variable on degree-0 Hom spaces; for
      T = O^h' it is h' copies of one cached presentation.  Its size is
      checked against R3/R4, which refuses the n = 2 gap; the maps the
      chases need between presentations are onto, so none is built.

Composition is multiplication of monomials: polynomial on the H^0
bases, Laurent on the top-degree bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cone import (
    Monomial,
    laurent_top_basis,
    section_laurent_basis,
    section_monomials,
    weighted_monomials,
)
from .linalg import (
    DirectSpace,
    DirectSum,
    EngineError,
    PresentedMap,
    Subquotient,
    map_from_columns,
    zero_space,
)

CONE = "cone"
SECTION = "section"


class OutOfValidity(EngineError):
    """The requested Hom computation is outside every rule's domain."""


class PresentationMismatch(EngineError):
    """A cone presentation disagrees with the closed-form dimension."""


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
# degree-0 Hom spaces between sums, and monomial arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis(space, kind, d):
    """The monomial basis of H^0(X, O(d)) (kind CONE) or H^0(Z, O(d)), once."""
    if kind == CONE:
        return DirectSpace(weighted_monomials(space, d))
    return DirectSpace(section_monomials(space, d))


def hom0_space(space, a, targets, name=""):
    """Hom(O(a), sum_c T_c) in degree 0: a DirectSum, labels (c, monomial).

    Cone targets use the reflexive rule R0, section targets R2; block c
    is the cached basis of T_c twisted by -a.
    """
    return DirectSum([_basis(space, t.kind, t.twist - a) for t in targets], name)


def laurent_class(mon):
    """The Laurent local-cohomology class of mon, or None if it vanishes."""
    if all(e <= -1 for e in mon.exps):
        return mon
    return None


# ---------------------------------------------------------------------------
# cone presentations of Ext^1(OZ(e), T)
# ---------------------------------------------------------------------------

@dataclass
class ConePresentation:
    """Ext^1(OZ(e), T) presented as a cokernel of cone-variable multiplication.

    The generators live in Hom(O(e-m), T) in degree 0; the relations are
    the image of multiplication by x_n from Hom(O(e), T).  The presented
    dimension is cross-checked against the closed-form rules at
    construction; a mismatch is an error (the query left the validity
    domain), never a silent answer.
    """

    e: int
    targets: tuple
    generators: DirectSpace
    relation_source: DirectSpace
    xn_map: PresentedMap
    quotient: Subquotient

    @property
    def dim(self):
        return self.quotient.dim


def _xn_multiplication(space, e, targets):
    """Multiplication by x_n: Hom(O(e), T) -> Hom(O(e-m), T), degree 0."""
    src = hom0_space(space, e, targets, "Hom(O(%d),T)" % e)
    tgt = hom0_space(space, e - space.m, targets, "Hom(O(%d),T)" % (e - space.m))
    xn = Monomial((0,) * space.n + (1,))
    columns = []
    for t, block, offset, tblock in zip(targets, src.blocks, tgt.offsets, tgt.blocks):
        if t.kind == CONE:
            row = tblock._index
            columns += [{offset + row[mon * xn]: 1} for mon in block.labels]
        else:  # on a section target multiplication by x_n is zero
            columns += [{} for _ in range(block.dim)]
    return map_from_columns(src, tgt, columns, name="xn(e=%d)" % e)


def cone_presentation(space, e, targets):
    """Present Ext^1(OZ(e), T) for T a sum of invertible twists and OZ twists.

    Raises PresentationMismatch when the presented dimension disagrees
    with the closed-form degree-1 dimension (rules R3/R4): that signals
    the pair left the validity domain.
    """
    targets = tuple(targets)
    for t in targets:
        if t.kind == CONE and not t.is_invertible(space):
            raise OutOfValidity(
                "cone presentation needs invertible cone twists, got %s" % (t,)
            )
    xmap = _xn_multiplication(space, e, targets)
    quotient = Subquotient(
        xmap.target,
        None,  # full ambient span
        xmap.columns,
        name="Ext^1(OZ(%d),T)" % e,
    )
    expected = sum(hom_atoms(space, OZ(e), t).dims[1] for t in targets)
    if quotient.dim != expected:
        raise PresentationMismatch(
            "Ext^1(OZ(%d), %s): presentation gives %d, rules give %d"
            % (e, "+".join(str(t) for t in targets), quotient.dim, expected)
        )
    return ConePresentation(e, targets, xmap.target, xmap.source, xmap, quotient)


@lru_cache(maxsize=None)
def _one_copy(space, e):
    """cone_presentation(space, e, (OX(0),)), once per (cone, e)."""
    return cone_presentation(space, e, (OX(0),))
