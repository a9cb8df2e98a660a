"""The threefold cone P(1,1,1,3): a tilting bundle and its decomposition.

Builds the two kernel bundles F (rank 3) and G (rank 6) from the
evaluation maps onto OZ(1) and OZ(2), chases every graded Hom between
them through the long exact sequences, and verifies the ordered
collection (F + G, O, O(3)) with End dimensions (45, 1, 1).
"""

from conetilt import (
    OX,
    OZ,
    check_sod,
    direct_sum,
    end_blocks,
    hom_atoms,
    hom_objects,
    hom_objects_detailed,
    kernel_bundle,
    make_space,
    stack_exceptional_check,
)

X = make_space(3, 3)
F = kernel_bundle(X, 1)
G = kernel_bundle(X, 2)
print("space:", X)
print("F =", F, " rank", F.h)
print("G =", G, " rank", G.h)
print()

print("graded Hom between the generating atoms (degree vector h^0..h^3):")
for a, b in [(OX(0), OZ(1)), (OZ(1), OX(0)), (OZ(1), OZ(2)), (OZ(2), OZ(1))]:
    gh = hom_atoms(X, a, b)
    print("  Hom*(%s, %s) = %s   [rule %s]" % (a, b, gh.dims, gh.rule))
print()

print("resolving the bundles against the atoms (contravariant chase):")
for k, name in ((F, "F"), (G, "G")):
    for b in (OX(0), OZ(1), OZ(2)):
        print("  Hom*(%s, %s) = %s" % (name, b, hom_objects(X, k, b)))
print()

print("bundle pairs need the two-row ladder; each rank comes with a")
print("determination certificate:")
for a, b, name in ((F, F, "F,F"), (G, G, "G,G"), (F, G, "F,G"), (G, F, "G,F")):
    comp = hom_objects_detailed(X, a, b)
    print("  Hom*(%s) = %s" % (name, comp.dims))
    print("    %s" % comp.ladders[0].certificate)
print()

report = check_sod(X, [("FG", direct_sum(F, G)), ("O", OX(0)), ("O3", OX(3))])
print(report.summary())
print("  " + report.generation_note)
blocks = end_blocks(X, [F, G], ["F", "G"])
print("  End block matrix:", blocks.matrix, " total", blocks.total)
squares = sum(r * r for r in blocks.ranks)
print("  total End dimension %d %s sum of squared ranks %d"
      % (blocks.total, "=" if blocks.total == squares else "!=", squares))
print()

print("on the resolving stack the twists form exceptional windows:")
print("  window 0..5:", "pass" if stack_exceptional_check(X, 0, 5).ok else "fail")
print("  window 0..6:", "pass" if stack_exceptional_check(X, 0, 6).ok else "fail")
