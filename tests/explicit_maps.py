"""Explicit bases, cone presentations and multiplication matrices.

The engine counts and lists no basis: the chases read Ext^1(OZ(e), -)
off R3 and R4, the rank of each map alpha_i: Hom^i(OZ(e), B) ->
Hom^i(O^h, B) off its source and that of each beta_i: Hom^i(A, O^h') ->
Hom^i(A, OZ(e')) off its target, without building any of them.  This
reference lists the bases (`h_basis` from `cone`'s listers, `rule_space`
by the blocks of rules.RULES), presents Ext^1(OZ(e), T) as the cokernel
of multiplication by the cone variable x_n, and realizes every alpha_i
and beta_i as an exact matrix over those bases, so tests can compare
the counts and ranks with an elimination that shares nothing with the
rules or the arguments for injectivity and ontoness.
"""

from dataclasses import dataclass
from functools import lru_cache

from conetilt.cone import (
    Monomial,
    laurent_top_basis,
    section_laurent_basis,
    section_monomials,
    weighted_monomials,
)
from conetilt.linalg import DirectSpace, DirectSum, PresentedMap, Subquotient
from conetilt.objects import _check_bundle
from conetilt.rules import (
    CONE,
    OX,
    OZ,
    RULES,
    OutOfValidity,
    PresentationMismatch,
    hom_atoms,
    hom_counts,
)


@lru_cache(maxsize=None)
def h_basis(space, sheaf, d, i):
    """H^i(X, O(d)) (sheaf CONE) or H^i(Z, O(d)) with the basis `cone` lists.

    Monomials in degree 0, Laurent monomials in the top degree (n on X,
    n - 1 on Z), and no label in any other degree.
    """
    if sheaf == CONE:
        listers = {0: weighted_monomials, space.n: laurent_top_basis}
    else:
        listers = {0: section_monomials, space.n - 1: section_laurent_basis}
    return DirectSpace(listers[i](space, d) if i in listers else ())


@lru_cache(maxsize=None)
def rule_space(space, A, B, i):
    """Hom^i(A, B) listed block by block as its entry of rules.RULES.

    Block (sheaf, k, s) is h_basis(sheaf, b - a + km, i + s); R3's two
    blocks form a DirectSum.  Raises OutOfValidity where hom_counts does.
    """
    hom_counts(space, A, B)
    t = B.twist - A.twist
    blocks = [
        h_basis(space, sheaf, t + k * space.m, i + s)
        for sheaf, k, s in RULES[A.kind, B.kind][1]
    ]
    return blocks[0] if len(blocks) == 1 else DirectSum(blocks)


def hom0_space(space, a, targets, name=""):
    """Hom(O(a), sum_c T_c) in degree 0: a DirectSum, labels (c, monomial).

    Cone targets use the reflexive rule R0, section targets R2; block c
    is the cached basis of T_c twisted by -a.
    """
    return DirectSum([h_basis(space, t.kind, t.twist - a, 0) for t in targets], name)


@lru_cache(maxsize=None)
def component_terms(space, K):
    """For each copy j of K, the (monomial, coefficient) pairs of its evaluation.

    Computed once per (space, bundle).  The canonical terms are
    ((mu_j, 1),) with int coefficients; a stored evaluation keeps its
    Fractions.  Raises ShapeMismatch when the bundle does not live on
    `space`, or when it does not have h columns of the length of that
    basis.
    """
    _check_bundle(space, K)
    basis = section_monomials(space, K.e)
    if K.canonical:
        return tuple(((mu, 1),) for mu in basis)
    return tuple(
        tuple((mu, c) for mu, c in zip(basis, col) if c) for col in K.columns
    )


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
    return PresentedMap(src, tgt, columns, name="xn(e=%d)" % e)


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


def laurent_class(mon):
    """The Laurent local-cohomology class of mon, or None if it vanishes."""
    if all(e <= -1 for e in mon.exps):
        return mon
    return None


def restrict(mon):
    """Image of a cone monomial on the section: drop x_n, or None if present."""
    if mon.exps[-1] != 0:
        return None
    return Monomial(mon.exps[:-1])


def sections_map(space, a, src_targets, components, tgt_atom):
    """Postcomposition Hom(O(a), sum_c T_c) -> Hom(O(a), tgt) in degree 0.

    `components[c]` gives the section T_c = O(b_c) -> tgt = OZ(f) as
    (monomial, coefficient) pairs over the basis of H^0(Z, f - b_c).
    Cone monomials are restricted to the section, then multiplied.
    """
    src = hom0_space(space, a, src_targets)
    tgt = hom0_space(space, a, (tgt_atom,))
    row = tgt.blocks[0]._index
    columns = []
    for block, terms in zip(src.blocks, components):
        for mon in block.labels:
            col = {}
            base = restrict(mon)
            if base is not None:
                for mu, coeff in terms:
                    r = row[base * mu]
                    col[r] = col.get(r, 0) + coeff
            columns.append(col)
    return PresentedMap(src, tgt, columns)


def ext1_map(space, e, components, pres_tgt, name=""):
    """Ext^1(OZ(e), O^h') -> Ext^1(OZ(e), OZ(e')) on cone presentations.

    The source is h' = len(components) shifted copies of the presentation
    of Ext^1(OZ(e), O): labels (c, monomial) in the order of
    hom0_space(space, e - m, (OX(0),) * h'), boundaries the one-copy x_n
    columns shifted by the offset of copy c.  `pres_tgt` presents
    Ext^1(OZ(e), OZ(e')).  A generator u of copy c goes to
    restrict(u) * s_c; PresentedMap checks that the boundaries, the x_n
    multiples, go to boundaries.
    """
    one = cone_presentation(space, e, (OX(0),))
    (generators,) = one.generators.blocks
    row = pres_tgt.generators.blocks[0]._index
    columns = []
    for terms in components:
        for u in generators.labels:
            col = {}
            base = restrict(u)
            if base is not None:
                for mu, coeff in terms:
                    r = row[base * mu]
                    col[r] = col.get(r, 0) + coeff
            columns.append(col)
    ambient = DirectSum(one.generators.blocks * len(components))
    boundaries = [
        {r + offset: x for r, x in col.items()}
        for offset in ambient.offsets
        for col in one.xn_map.columns
    ]
    source = Subquotient(ambient, None, boundaries)
    return PresentedMap(source, pres_tgt.quotient, columns, name=name)


def _laurent_map(space, d, components, Kp):
    """Degree n from OZ(d): H^{n-1}(Z, m-d)^h' -> R3's H^{n-1}(Z, e'-d+m)."""
    n = space.n
    source = rule_space(space, OZ(d), OX(0), n)
    target = rule_space(space, OZ(d), OZ(Kp.e), n)
    row = target._index
    columns = []
    for terms in components:
        for u in source.labels:
            col = {}
            for mu, coeff in terms:
                v = laurent_class(u * mu)
                if v is not None:
                    r = row[1, v]
                    col[r] = col.get(r, 0) + coeff
            columns.append(col)
    return PresentedMap(DirectSum([source] * Kp.h), target, columns)


def beta_map(space, A, Kp, i):
    """beta_i of Hom(A, -) along 0 -> K' -> O^h' -> OZ(e') -> 0, explicitly.

    Raises what the rules raise for A: OutOfValidity for a cone twist
    that is not invertible, PresentationMismatch in the n = 2 gap.
    """
    components = component_terms(space, Kp)
    source = DirectSum([rule_space(space, A, OX(0), i)] * Kp.h)
    target = rule_space(space, A, OZ(Kp.e), i)
    if A.kind == CONE:
        if i == 0:
            free = (OX(0),) * Kp.h
            return sections_map(space, A.twist, free, components, OZ(Kp.e))
    elif i == 1:
        pres = cone_presentation(space, A.twist, (OZ(Kp.e),))
        return ext1_map(space, A.twist, components, pres)
    elif i == space.n:
        return _laurent_map(space, A.twist, components, Kp)
    return PresentedMap(source, target, [])


def section_source(space, e, B_atoms, i, name=""):
    """Hom^i(OZ(e), sum B): labels (component, rule label)."""
    return DirectSum([rule_space(space, OZ(e), a, i) for a in B_atoms], name)


def free_source(space, h, B_atoms, i, name=""):
    """Hom^i(O_X^h, sum B): labels (component, (copy, rule label))."""
    copies = [DirectSum([rule_space(space, OX(0), a, i)] * h) for a in B_atoms]
    return DirectSum(copies, name)


def alpha_map(space, K, B_atoms, i):
    """alpha_i: Hom^i(OZ(e), B) -> Hom^i(O_X^h, B) of Hom(-, B), explicitly.

    Every component acts by multiplication with the evaluation sections
    (Laurent classes in higher degree).  An invertible cone component
    O(b) is zero below the top degree; in top degree R4's
    H^{n-1}(Z, b-e+m) is multiplied into H^{n-1}(Z, b+m) and carried to
    H^n(X, O(b)) by the connecting map, multiplication by x_n^-1.
    Raises OutOfValidity for a cone twist in B that is not invertible.
    """
    qspace = section_source(space, K.e, B_atoms, i)
    pspace = free_source(space, K.h, B_atoms, i)
    comps = component_terms(space, K)
    columns = [{} for _ in range(qspace.dim)]
    for c, atom in enumerate(B_atoms):
        cone = atom.kind == CONE
        if cone and i < space.n:
            continue  # below the top degree R4 or H^i(X, O(b)) vanishes
        block, copies = qspace.blocks[c], pspace.blocks[c]
        if not cone:
            block = block.blocks[0]  # only R3's H^i(Z, f-e) block survives restriction
        shifts = [pspace.offsets[c] + s for s in copies.offsets]
        rows = copies.blocks[0]._index  # Hom^i(O, atom)
        for k, u in enumerate(block.labels):
            col = columns[qspace.offsets[c] + k]
            for s, terms in zip(shifts, comps):
                for mu, coeff in terms:
                    prod = u * mu
                    if i > 0:
                        prod = laurent_class(prod)
                        if prod is None:
                            continue
                        if cone:  # the connecting map appends the exponent -1
                            prod = Monomial(prod.exps + (-1,))
                    r = s + rows[prod]
                    col[r] = col.get(r, 0) + coeff
    return PresentedMap(qspace, pspace, columns, name="alpha_%d" % i)
