"""The acceptance gate: every shipped claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import itertools
import random

import pytest
from explicit_maps import cone_presentation

from conetilt.cone import make_space, weighted_monomials
from conetilt.objects import (
    direct_sum,
    euler_form,
    hom_objects,
    hom_objects_detailed,
    kernel_bundle,
    les_hom_contra,
    les_hom_cov,
)
from conetilt.rules import OX, OZ, hom_atoms
from conetilt.tilting import (
    check_sod,
    end_blocks,
    stack_exceptional_check,
)

X = make_space(3, 3)
S = make_space(2, 2)
F = kernel_bundle(X, 1)
G = kernel_bundle(X, 2)
FS = kernel_bundle(S, 1)


def criterion(number, description, ok):
    print("%s criterion %s: %s" % ("PASS" if ok else "FAIL", number, description))
    assert ok, "criterion %s failed: %s" % (number, description)


def test_criterion_1_atom_pair_table():
    expected = {
        (OX(0), OX(0)): (1, 0, 0, 0),
        (OX(0), OZ(1)): (3, 0, 0, 0),
        (OX(0), OZ(2)): (6, 0, 0, 0),
        (OZ(1), OX(0)): (0, 6, 0, 0),
        (OZ(2), OX(0)): (0, 3, 0, 0),
        (OZ(1), OZ(1)): (1, 10, 0, 0),
        (OZ(1), OZ(2)): (3, 15, 0, 0),
        (OZ(2), OZ(1)): (0, 6, 0, 0),
    }
    ok = all(hom_atoms(X, a, b).dims == dims for (a, b), dims in expected.items())
    criterion(1, "eight atom-pair graded Hom dimensions, exact equality", ok)


def test_criterion_2_orthogonality_vanishing():
    zero = (0, 0, 0, 0)
    ok = all(
        hom_objects(X, a, k) == zero
        for a in (OX(0), OX(3))
        for k in (F, G)
    )
    criterion(2, "Hom*(O, F) = Hom*(O, G) = Hom*(O(3), F) = Hom*(O(3), G) = 0", ok)


def test_criterion_3_bundle_to_atom_table():
    expected = [
        (F, OX(0), 9),
        (F, OZ(1), 18),
        (F, OZ(2), 30),
        (G, OX(0), 9),
        (G, OZ(1), 24),
        (G, OZ(2), 45),
    ]
    ok = all(
        hom_objects(X, k, b) == (d, 0, 0, 0) for k, b, d in expected
    )
    criterion(3, "six bundle-to-atom dimensions, concentrated in degree 0", ok)


def test_criterion_4_bundle_pairs_with_certificates():
    expected = [(F, F, 9), (G, G, 9), (F, G, 24), (G, F, 3)]
    ok = True
    for a, b, d in expected:
        comp = hom_objects_detailed(X, a, b)
        ok = ok and comp.dims == (d, 0, 0, 0)
        ok = ok and len(comp.ladders) == 1 and bool(comp.ladders[0].certificate)
    criterion(
        4,
        "four bundle-pair dimensions; every ladder returns a determination "
        "certificate",
        ok,
    )


def test_criterion_5_threefold_decomposition():
    rep = check_sod(X, [("FG", direct_sum(F, G)), ("O", OX(0)), ("O3", OX(3))])
    blocks = end_blocks(X, [F, G], ["F", "G"])
    ok = (
        rep.ok
        and rep.blocks == [45, 1, 1]
        and rep.ranks[0] == 9
        and blocks.ranks == [3, 6]
        and blocks.total == sum(r * r for r in blocks.ranks) == 45
    )
    criterion(
        5,
        "ordered collection (F+G, O, O(3)) passes with End dims (45, 1, 1), "
        "ranks 3 and 6, and 45 = 3^2 + 6^2",
        ok,
    )


def test_criterion_6_surface_decomposition():
    rep = check_sod(S, [("Om2", OX(-2)), ("FS", FS), ("O", OX(0))])
    self_ext = hom_objects(S, FS, FS)
    ok = rep.ok and rep.blocks == [1, 2, 1] and all(d == 0 for d in self_ext[1:])
    criterion(
        6,
        "surface collection (O(-2), FS, O) passes with End dims (1, 2, 1) "
        "and no higher self-extensions of FS",
        ok,
    )


def test_criterion_7_stack_windows():
    ok = stack_exceptional_check(X, 0, 5).ok and not stack_exceptional_check(
        X, 0, 6
    ).ok
    criterion(7, "stack twist window 0..5 exceptional, window 0..6 not", ok)


# ---------------------------------------------------------------------------
# criterion 8: property suites, each with at least 100 randomized cases
# ---------------------------------------------------------------------------

def _brute_monomial_count(n, m, d):
    if d < 0:
        return 0
    count = 0
    for unit_exps in itertools.product(range(d + 1), repeat=n):
        s = sum(unit_exps)
        if s <= d and (d - s) % m == 0:
            count += 1
    return count


def test_criterion_8a_monomial_count_oracle():
    cases = 0
    ok = True
    for n, m in [(3, 3), (2, 2), (3, 1), (2, 3), (4, 2)]:
        space = make_space(n, m)
        for d in range(-10, 11):
            ok = ok and len(weighted_monomials(space, d)) == _brute_monomial_count(
                n, m, d
            )
            cases += 1
    criterion(
        "8a",
        "monomial counts match brute-force exponent enumeration "
        "(%d cases)" % cases,
        ok and cases >= 100,
    )


def test_criterion_8b_serre_symmetry():
    rng = random.Random(21)
    cases = 0
    ok = True
    for space in (X, S):
        m = space.m
        shift = space.canonical_degree
        while cases < (60 if space is X else 120):
            choice = rng.randrange(4)
            if choice == 0:
                A, B = OX(m * rng.randint(-3, 3)), OX(m * rng.randint(-3, 3))
            elif choice == 1:
                A = OX(m * rng.randint(-3, 3) + space.n)
                B = OZ(rng.randint(-8, 8))
            elif choice == 2:
                A, B = OZ(rng.randint(-8, 8)), OZ(rng.randint(-8, 8))
            else:
                A, B = OZ(rng.randint(-8, 8)), OX(m * rng.randint(-3, 3))
            left = hom_atoms(space, A, B).dims
            partner = (
                OX(A.twist + shift) if A.kind == "cone" else OZ(A.twist + shift)
            )
            right = hom_atoms(space, B, partner).dims
            ok = ok and left == tuple(reversed(right))
            cases += 1
    criterion(
        "8b",
        "duality symmetry of graded Hom dimensions (%d validity-domain pairs)"
        % cases,
        ok and cases >= 100,
    )


def test_criterion_8c_exactness_of_assembled_sequences():
    cases = 0
    ok = True

    def take(les):
        nonlocal cases, ok
        les.check_exactness()
        alt = sum((-1) ** t * term.dim for t, term in enumerate(les.terms))
        ok = ok and alt == 0
        cases += 1

    for K in (F, G):
        for b in range(-9, 10, 3):
            take(les_hom_contra(X, K, OX(b)))
        for f in range(-10, 11):
            take(les_hom_contra(X, K, OZ(f)))
        for a in range(-9, 10, 3):
            take(les_hom_cov(X, OX(a), K))
        for e in range(-6, 7):
            take(les_hom_cov(X, OZ(e), K))
    for b in range(-10, 11, 2):
        take(les_hom_contra(S, FS, OX(b)))
    for f in range(-10, 11):
        take(les_hom_contra(S, FS, OZ(f)))
    criterion(
        "8c",
        "exactness invariant of every assembled long exact sequence "
        "(%d sequences)" % cases,
        ok and cases >= 100,
    )


def test_criterion_8d_euler_additivity():
    cases = 0
    ok = True
    for K, space in ((F, X), (G, X), (FS, S)):
        for a in range(-space.m * 4, space.m * 4 + 1, space.m):
            lhs = euler_form(space, OX(a), K)
            rhs = K.h * euler_form(space, OX(a), OX(0)) - euler_form(
                space, OX(a), OZ(K.e)
            )
            ok = ok and lhs == rhs
            cases += 1
        for e in range(-8, 9):
            lhs = euler_form(space, K, OZ(e))
            rhs = K.h * euler_form(space, OX(0), OZ(e)) - euler_form(
                space, OZ(K.e), OZ(e)
            )
            ok = ok and lhs == rhs
            cases += 1
    rng = random.Random(4)
    atoms = [OX(0), OX(3), OX(-3), OZ(1), OZ(2), OZ(-2)]
    for _ in range(30):
        A, B, C = (rng.choice(atoms) for _ in range(3))
        ok = ok and euler_form(X, A, direct_sum(B, C)) == euler_form(
            X, A, B
        ) + euler_form(X, A, C)
        cases += 1
    criterion(
        "8d",
        "Euler-form additivity along defining sequences and direct sums "
        "(%d cases)" % cases,
        ok and cases >= 100,
    )


def test_criterion_8e_presentation_matches_rules():
    rng = random.Random(13)
    cases = 0
    ok = True
    while cases < 110:
        e = rng.randint(-10, 10)
        if rng.random() < 0.5:
            b = 3 * rng.randint(-3, 3)
            if abs(b - e) > 7:
                continue
            target = OX(b)
        else:
            f = e + rng.randint(-4, 8)
            if not -10 <= f <= 10:
                continue
            target = OZ(f)
        pres = cone_presentation(X, e, (target,))
        ok = ok and pres.dim == hom_atoms(X, OZ(e), target).dims[1]
        cases += 1
    criterion(
        "8e",
        "cone presentation dimension equals the closed-form degree-1 "
        "dimension (%d cases)" % cases,
        ok and cases >= 100,
    )
