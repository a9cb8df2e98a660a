"""Twist cohomology on a weighted projective cone, from monomial bases.

Walks through the basic combinatorics on X = P(1,1,1,3): the monomial
model for global sections, the Laurent model for top cohomology, the
duality pairing between them, and the restriction sequence to the
hyperplane section at infinity.
"""

from conetilt import (
    Monomial,
    cone_cohomology_dim,
    laurent_top_basis,
    make_space,
    section_cohomology_dim,
    weighted_monomials,
)
from conetilt.cone import section_laurent_basis

X = make_space(3, 3)
print("space:", X, " dim =", X.dim, " canonical twist =", X.canonical_degree)
print()

print("global sections of O(d) are spanned by weighted monomials:")
for d in range(0, 4):
    mons = weighted_monomials(X, d)
    print("  d=%d  h^0 = %2d   %s" % (d, len(mons), ", ".join(map(str, mons[:6]))
                                      + (" ..." if len(mons) > 6 else "")))
print()

print("top cohomology of O(d) is spanned by all-negative Laurent monomials:")
for d in (-6, -7, -8):
    mons = laurent_top_basis(X, d)
    print("  d=%d  h^3 = %2d   e.g. %s" % (d, len(mons), mons[0]))
print()

print("duality pairs the two models monomial-by-monomial, u <-> -1-u:")
h0, top = weighted_monomials(X, 2), laurent_top_basis(X, -8)
partners = {Monomial(tuple(-1 - x for x in u.exps)) for u in h0}
print("  H^0(X, O(2)) -> H^3(X, O(-8)): %d -> %d, a bijection: %s"
      % (len(h0), len(top), partners == set(top)))
print()

print("full cohomology table of O(d) (intermediate degrees vanish):")
print("  d : h^0 h^1 h^2 h^3")
for d in range(-8, 5):
    dims = [cone_cohomology_dim(X, d, i) for i in range(4)]
    print("  %3d: %s" % (d, "  ".join("%3d" % v for v in dims)))
print()

print("restriction to the section Z (a plane) is a short exact sequence;")
print("its counts match: h^0(X,d) - h^0(X,d-3) = h^0(Z,d)")
for d in range(0, 7):
    lhs = cone_cohomology_dim(X, d, 0) - cone_cohomology_dim(X, d - 3, 0)
    rhs = section_cohomology_dim(X, d, 0)
    print("  d=%d: %2d - matches %s" % (d, rhs, lhs == rhs))
print()

print("the connecting map into top cohomology is multiplication by the")
print("inverse cone variable on Laurent monomials, always injective:")
src = section_laurent_basis(X, -5)
images = {Monomial(mon.exps + (-1,)) for mon in src}
print("  H^2(Z, O(-5)) -> H^3(X, O(-8)): %d -> %d, injective: %s"
      % (len(src), len(top), len(images) == len(src) and images <= set(top)))
