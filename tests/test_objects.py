"""Kernel bundles, long exact sequences, ladders, and the Hom chase.

The frozen reported values for P(1,1,1,3) and P(1,1,2) sit next to
independent oracles: an explicit binomial dimension chase written in
this file for the surface case, alternating-sum and exactness checks
for every assembled sequence, and duality/Euler cross-checks.
"""

import random
import sys
from fractions import Fraction
from math import comb

import pytest
from explicit_maps import (
    alpha_map,
    beta_map,
    cone_presentation,
    ext1_map,
    free_source,
    restrict,
    sections_map,
)

from conetilt.cone import Monomial, make_space, section_monomials
from conetilt.linalg import (
    DirectSum,
    EngineError,
    PresentedMap,
    ShapeMismatch,
)
from conetilt.objects import (
    IndeterminateRank,
    KernelBundle,
    LESMap,
    LESTerm,
    LongExactSequence,
    as_object,
    direct_sum,
    euler_form,
    hom_objects,
    hom_objects_detailed,
    kernel_bundle,
    kernel_bundle_custom,
    ladder_propagate,
    les_hom_contra,
    les_hom_cov,
    rank_of,
    solve_les,
    _free_row,
    _les_hom_contra_cached,
)
from conetilt.rules import (
    OX,
    OZ,
    OutOfValidity,
    PresentationMismatch,
    ext1_h0_block,
    hom_atoms,
)

X = make_space(3, 3)
S = make_space(2, 2)
F = kernel_bundle(X, 1)
G = kernel_bundle(X, 2)
FS = kernel_bundle(S, 1)


# ---------------------------------------------------------------------------
# kernel bundles
# ---------------------------------------------------------------------------

def test_kernel_bundle_ranks():
    assert (F.h, rank_of(F)) == (3, 3)
    assert (G.h, rank_of(G)) == (6, 6)
    assert (FS.h, rank_of(FS)) == (2, 2)


def test_kernel_bundle_rejects_bad_twists():
    with pytest.raises(ValueError):
        kernel_bundle(X, 0)
    with pytest.raises(ValueError):
        kernel_bundle(X, 3)
    with pytest.raises(ValueError):
        kernel_bundle(make_space(3, 1), 1)  # no room between 0 and m


def test_custom_kernel_bundle():
    # a redundant four-section evaluation spanning H^0(Z, O(1))
    K = kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert not K.canonical and K.h == 4
    with pytest.raises(ValueError):
        kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0)])  # does not span


def test_custom_kernel_bundle_hom_dims_shift_with_rank():
    K = kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    # one extra free summand compared to the canonical bundle
    assert hom_objects(X, K, OX(0)) == (10, 0, 0, 0)
    assert hom_objects(X, OX(0), K) == (1, 0, 0, 0)


def test_kernel_bundle_copies_are_equal_and_share_the_caches():
    X5 = make_space(3, 5)
    A, B = kernel_bundle(X5, 2), kernel_bundle(X5, 2)
    assert A is not B and A == B and hash(A) == hash(B)
    assert A != kernel_bundle(X5, 3)
    first = les_hom_contra(X5, A, OZ(4))
    hits = _les_hom_contra_cached.cache_info().hits
    assert les_hom_contra(X5, B, OZ(4)) is first
    assert _les_hom_contra_cached.cache_info().hits == hits + 1


def test_canonical_kernel_bundle_stores_no_evaluation():
    X5 = make_space(3, 5)
    K = kernel_bundle(X5, 2)
    basis = section_monomials(X5, 2)
    assert K == KernelBundle(2, 6) and K.canonical and K.columns is None
    # no attribute holds an h x h evaluation matrix
    assert not any(isinstance(v, tuple) for v in vars(K).values())
    terms = K.component_terms(X5)
    assert [list(t) for t in terms] == [[(mu, 1)] for mu in basis]
    assert all(type(c) is int for t in terms for _, c in t)
    # postcomposition with the canonical evaluation stays in ints
    post = sections_map(X5, -1, (OX(0),) * K.h, terms, OZ(2))
    entries = [c for col in post.columns for c in col.values()]
    assert entries and all(type(c) is int for c in entries)


def test_custom_identity_evaluation_is_not_the_canonical_bundle():
    X5 = make_space(3, 5)
    K = kernel_bundle(X5, 2)
    eye = [[int(i == j) for i in range(K.h)] for j in range(K.h)]
    C = kernel_bundle_custom(X5, 2, eye)
    assert C != K and hash(C) == hash(kernel_bundle_custom(X5, 2, eye))
    assert not C.canonical and len(C.columns) == K.h
    assert C.component_terms(X5) == K.component_terms(X5)
    assert hom_objects(X5, C, C) == hom_objects(X5, K, K) == (40, 0, 0, 0)
    half = kernel_bundle_custom(X5, 2, [[Fraction(1, 2) * x for x in col] for col in eye])
    assert all(c == Fraction(1, 2) for t in half.component_terms(X5) for _, c in t)


def test_kernel_bundle_of_another_cone_is_refused():
    """A bundle whose evaluation does not fit the queried cone is refused."""
    F = kernel_bundle(make_space(3, 5), 2)  # h = 6
    X4 = make_space(4, 5)  # H^0(Z, O(2)) has dimension 10 here
    foreign = r"ker\(O\^6->OZ\(2\)\) does not live on P\(1,1,1,1,5\)"
    for A, B in [(F, OX(0)), (OX(0), F), (F, F), (F, kernel_bundle(X4, 2))]:
        with pytest.raises(ShapeMismatch, match=foreign):
            hom_objects(X4, A, B)
    with pytest.raises(ShapeMismatch, match=foreign):
        les_hom_contra(X4, F, OZ(1))
    with pytest.raises(ShapeMismatch, match=foreign):
        les_hom_cov(X4, OZ(1), F)
    with pytest.raises(ShapeMismatch, match=r"needs 0 < 2 < m = 2"):
        hom_objects(make_space(3, 2), F, OX(0))
    C = kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(ShapeMismatch, match="evaluation has length 3"):
        hom_objects(make_space(4, 3), C, OX(0))
    # the same n and 0 < e < m: the evaluation fits, and the answer is F's there
    assert hom_objects(make_space(3, 7), F, F) == (91, 0, 0, 0)


# ---------------------------------------------------------------------------
# contravariant sequences (reported values)
# ---------------------------------------------------------------------------

REPORTED_CONTRA = [
    (X, F, OX(0), (9, 0, 0, 0)),
    (X, F, OZ(1), (18, 0, 0, 0)),
    (X, F, OZ(2), (30, 0, 0, 0)),
    (X, G, OX(0), (9, 0, 0, 0)),
    (X, G, OZ(1), (24, 0, 0, 0)),
    (X, G, OZ(2), (45, 0, 0, 0)),
]


@pytest.mark.parametrize("space,K,B,expected", REPORTED_CONTRA)
def test_contravariant_reported_values(space, K, B, expected):
    les = les_hom_contra(space, K, B)
    assert les.solved_dims(2) == expected
    les.check_exactness()


def test_surface_vanishing_with_independent_oracle():
    """Hom^*(F_S, O_S(-2)) = 0, checked against a by-hand dimension chase."""

    # oracle: the chase uses nothing from the engine, only binomials.
    # knowns on S = P(1,1,2), section C = P^1, evaluation O^2 -> OC(1):
    def h_surface(d, i):  # H^i(S, O(d)) by counting weighted monomials
        if i == 1:
            return 0
        dd = d if i == 0 else -d - 4
        return sum(1 for u in range(max(dd, 0) + 1) if (dd - u) % 2 == 0 and u <= dd)

    def h_line(e, i):  # H^i(P^1, O(e))
        if i == 0:
            return e + 1 if e >= 0 else 0
        return -e - 1 if e <= -2 else 0

    # Hom^i(OC(1), O(-2)) = H^{2-i}(C, 1 - 4 + 2)^* by duality
    hom_q = [h_line(-1, 2 - i) if 0 <= 2 - i <= 1 else 0 for i in range(3)]
    hom_p = [2 * h_surface(-2, i) for i in range(3)]
    assert hom_q == [0, 0, 0] and hom_p == [0, 0, 0]
    # every known term vanishes, so the chase forces Hom^*(F_S, O(-2)) = 0
    expected = (0, 0, 0)

    les = les_hom_contra(S, FS, OX(-2))
    assert les.solved_dims(2) == expected
    assert hom_objects(S, FS, OX(-2)) == expected


def test_contra_needs_kernel_left_and_atoms_right():
    with pytest.raises(TypeError):
        les_hom_contra(X, OX(0), OX(0))
    with pytest.raises(TypeError):
        les_hom_contra(X, F, G)


def test_contra_sum_target_additive():
    les = les_hom_contra(X, F, [OX(0), OZ(1)])
    assert les.solved_dims(2) == (27, 0, 0, 0)


# ---------------------------------------------------------------------------
# covariant sequences and orthogonality
# ---------------------------------------------------------------------------

REPORTED_ORTHOGONALITY = [
    (X, OX(0), F),
    (X, OX(0), G),
    (X, OX(3), F),
    (X, OX(3), G),
]


@pytest.mark.parametrize("space,A,K", REPORTED_ORTHOGONALITY)
def test_orthogonality_vanishing(space, A, K):
    les = les_hom_cov(space, A, K)
    assert les.solved_dims(0) == (0,) * (space.n + 1)
    assert hom_objects(space, A, K) == (0,) * (space.n + 1)


def test_covariant_from_section_twist():
    # Hom^*(OZ(1), F) assembled covariantly; duality cross-check below
    les = les_hom_cov(X, OZ(1), F)
    dims = les.solved_dims(0)
    # Serre partner: Hom^{3-i}(F, OZ(1) (-6)) = Hom^{3-i}(F, OZ(-5))
    partner = les_hom_contra(X, F, OZ(-5)).solved_dims(2)
    assert dims == tuple(reversed(partner))


def test_covariant_rejects_non_invertible_source():
    with pytest.raises(OutOfValidity):
        les_hom_cov(X, OX(1), F)


# ---------------------------------------------------------------------------
# the bundle pair table and the ladder
# ---------------------------------------------------------------------------

REPORTED_PAIRS = [
    (F, F, (9, 0, 0, 0)),
    (G, G, (9, 0, 0, 0)),
    (F, G, (24, 0, 0, 0)),
    (G, F, (3, 0, 0, 0)),
]


@pytest.mark.parametrize("A,B,expected", REPORTED_PAIRS)
def test_bundle_pairs(A, B, expected):
    comp = hom_objects_detailed(X, A, B)
    assert comp.dims == expected
    assert len(comp.ladders) == 1  # each pair needs exactly one ladder


def test_ladder_certificates_present():
    for A, B, _ in REPORTED_PAIRS:
        comp = hom_objects_detailed(X, A, B)
        assert all(lr.certificate for lr in comp.ladders)


def test_ladder_determined_ranks():
    # the middle verticals of the two hardest chases are onto
    comp = hom_objects_detailed(X, F, F)
    assert "middle rank 18" in comp.ladders[0].certificate
    comp = hom_objects_detailed(X, G, F)
    assert "middle rank 24" in comp.ladders[0].certificate


def test_ladder_rung_f8_on_p1113_9():
    # the ladder matrix v1 is 2025 x 2160; dense elimination took seconds
    X9 = make_space(3, 9)
    F8 = kernel_bundle(X9, 8)
    comp = hom_objects_detailed(X9, F8, F8)
    assert comp.dims == (81, 0, 0, 0)
    assert comp.ladders[0].rank == 2079


def test_ladder_rung_f4_on_p11115():
    Y = make_space(4, 5)
    F4 = kernel_bundle(Y, 4)
    assert hom_objects(Y, F4, F4) == (85, 0, 0, 0, 0)


@pytest.mark.parametrize("e, expected", [(2, (22, 0, 0, 0)), (3, (16, 0, 0, 0))])
def test_fraction_evaluation_through_the_ladder(e, expected):
    """A Fraction change of basis of the evaluation gives the same Hom spaces.

    The columns of the custom bundle are an invertible transform of the
    identity with Fraction entries, so every ladder map carries
    denominators and the elimination scales them away exactly.
    """
    X4 = make_space(3, 4)
    Fe = kernel_bundle(X4, e)
    h = Fe.h
    cols = []
    for j in range(h):
        col = [Fraction(0)] * h
        col[j] = Fraction(j + 2, j + 1)
        if j + 1 < h:
            col[j + 1] = Fraction(-1, 3)
        if j > 0:
            col[0] = Fraction(1, 2)
        cols.append(col)
    Ge = kernel_bundle_custom(X4, e, cols)
    assert not Ge.canonical and Ge.h == h
    assert hom_objects(X4, Fe, Fe) == expected
    assert hom_objects(X4, Ge, Ge) == expected
    assert hom_objects(X4, Fe, Ge) == expected
    assert hom_objects(X4, Ge, Fe) == expected


GRID_P1115 = {
    (1, 1): 25, (1, 2): 65, (1, 3): 120, (1, 4): 190,
    (2, 1): 15, (2, 2): 40, (2, 3): 75, (2, 4): 120,
    (3, 1): 8, (3, 2): 21, (3, 3): 40, (3, 4): 65,
    (4, 1): 3, (4, 2): 8, (4, 3): 15, (4, 4): 25,
}


def test_engine_path_builds_no_dense_matrix(monkeypatch):
    """Every dense adapter raises, yet the P(1^3, 5) kernel grid answers."""
    import conetilt.linalg as linalg

    dense = ("zeros", "identity", "mat_mul", "mat_rank", "nullspace", "_dense")
    originals = {id(getattr(linalg, name)) for name in dense}

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built on the engine path")

    for modname, mod in list(sys.modules.items()):
        if modname == "conetilt" or modname.startswith("conetilt."):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    monkeypatch.setattr(mod, attr, refuse)
    for modname in ("conetilt.cone", "conetilt.rules", "conetilt.objects"):
        for value in vars(sys.modules[modname]).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    X5 = make_space(3, 5)
    bundles = {e: kernel_bundle(X5, e) for e in range(1, 5)}
    grid = {
        (e, f): hom_objects(X5, bundles[e], bundles[f])
        for e in range(1, 5)
        for f in range(1, 5)
    }
    assert {k: d[0] for k, d in grid.items()} == GRID_P1115
    assert grid[4, 1] == (3, 0, 1, 0)
    assert all(d[1:] == (0, 0, 0) for k, d in grid.items() if k != (4, 1))


# the P(1^3, 7) e, e' grid: dim Hom^0(F_e, F_e'), and the Hom^2 below the diagonal
GRID_P1117 = {
    (1, 1): 49, (1, 2): 126, (1, 3): 231, (1, 4): 364, (1, 5): 525, (1, 6): 714,
    (2, 1): 35, (2, 2): 91, (2, 3): 168, (2, 4): 266, (2, 5): 385, (2, 6): 525,
    (3, 1): 24, (3, 2): 62, (3, 3): 115, (3, 4): 183, (3, 5): 266, (3, 6): 364,
    (4, 1): 15, (4, 2): 39, (4, 3): 72, (4, 4): 115, (4, 5): 168, (4, 6): 231,
    (5, 1): 8, (5, 2): 21, (5, 3): 39, (5, 4): 62, (5, 5): 91, (5, 6): 126,
    (6, 1): 3, (6, 2): 8, (6, 3): 15, (6, 4): 24, (6, 5): 35, (6, 6): 49,
}
EXT2_P1117 = {(4, 1): 1, (5, 1): 3, (5, 2): 1, (6, 1): 6, (6, 2): 3, (6, 3): 1}


def test_kernel_grid_on_p1117():
    X7 = make_space(3, 7)
    bundles = {e: kernel_bundle(X7, e) for e in range(1, 7)}
    grid = {(e, f): hom_objects(X7, bundles[e], bundles[f]) for e, f in GRID_P1117}
    assert grid == {
        k: (hom0, 0, EXT2_P1117.get(k, 0), 0) for k, hom0 in GRID_P1117.items()
    }


def test_left_vertical_restricts_nothing(monkeypatch):
    """The chase takes its left vertical as onto and builds no matrix for it.

    v1 is h copies of the evaluation of K', which spans H^0(Z, O(e')),
    so the ladder reads its rank off the bottom row; no label of
    Hom^0(O^h, O^h') is restricted and multiplied by a section, and
    with the sequence caches filled the chase multiplies no monomial.
    """
    import conetilt.objects as objects

    X7 = make_space(3, 7)
    K, Kp = kernel_bundle(X7, 3), kernel_bundle(X7, 2)
    expected = hom_objects(X7, K, Kp)  # fills the sequence caches first
    calls = []
    product = Monomial.__mul__

    def counting(mon, other):
        calls.append(mon)
        return product(mon, other)

    monkeypatch.setattr(Monomial, "__mul__", counting)
    objects._hom_kernel_kernel.cache_clear()
    assert hom_objects(X7, K, Kp) == expected
    assert calls == []


def _explicit_v1(space, K, Kp, tgt):
    """The left vertical Hom^0(O^h, O^h') -> Hom^0(O^h, OZ(e')) as a matrix.

    The image of a label (c, (j, u)) depends only on the copy c of K'
    and on u, so it is restricted and multiplied once and shifted to
    every copy j of K.  `tgt` is the target of the explicit alpha_0.
    """
    src = free_source(space, K.h, (OX(0),) * Kp.h, 0, "Hom^0(O^h, O^h')")
    units = src.blocks[0].blocks[0].labels  # the basis of Hom^0(O, O)
    (copies,) = tgt.blocks
    row = copies.blocks[0]._index
    columns = []
    for terms in Kp.component_terms(space):
        images = []
        for u in units:
            ubar = restrict(u)
            images.append(() if ubar is None else [(row[ubar * mu], x) for mu, x in terms])
        columns += [{s + r: x for r, x in image} for s in copies.offsets for image in images]
    return PresentedMap(src, tgt, columns, name="v1")


def _custom_bundles(space, rng):
    """Spanning Fraction evaluations, with as many sections as the basis and one more."""
    out = []
    for e in range(1, space.m):
        full = len(section_monomials(space, e))
        for h in (full, full + 1):
            while True:
                cols = [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(full)]
                    for _ in range(h)
                ]
                try:
                    out.append(kernel_bundle_custom(space, e, cols))
                    break
                except ValueError:  # the draw does not span
                    continue
    return out


LADDER_CONES = [(2, 7, False), (3, 5, False), (4, 3, False), (3, 4, True)]


def _ladder_cases(n, m, custom):
    """Kernel pairs of a cone with both ladder rows and the explicit v3.

    Returns the cases and the number of pairs tried; a pair in the
    n = 2 gap is refused by its cone presentation before the ladder,
    so it has no case.
    """
    space = make_space(n, m)
    bundles = [kernel_bundle(space, e) for e in range(1, m)]
    pairs = [(K, Kp) for K in bundles for Kp in bundles]
    if custom:
        odd = _custom_bundles(space, random.Random(7))
        pairs = [(K, Kp) for K in odd for Kp in odd + bundles]
        pairs += [(K, Kp) for K in bundles for Kp in odd]
    cases = []
    for K, Kp in pairs:
        top = _free_row(space, K, Kp.h)
        bottom = les_hom_contra(space, K, [OZ(Kp.e)])
        try:
            pres = cone_presentation(space, K.e, (OZ(Kp.e),))
        except PresentationMismatch:
            continue
        v3 = ext1_map(space, K.e, Kp.component_terms(space), pres, name="v3")
        cases.append((space, K, Kp, top, bottom, v3))
    return cases, len(pairs)


def _middle_rank(top, bottom, r_v1, r_v3):
    """The middle rank that explicit outer verticals pin.

    r_v1 is the rank of v1 into B1 / ker(B1 -> B2), r_v3 that of v3 on
    ker(T3 -> T4).  If T1 -> T2 covers T2 the rank is r_v1; otherwise
    v1 must saturate im(B1 -> B2) and the rank is r_v1 + r_v3.
    """
    if top.maps[1].rank == top.terms[2].dim:
        return r_v1
    assert r_v1 == bottom.maps[1].rank and top.maps[3].rank == 0
    return r_v1 + r_v3


@pytest.mark.parametrize("n, m, custom", LADDER_CONES)
def test_onto_left_vertical_matches_the_explicit_one(n, m, custom):
    """The explicit v1 reaches rank(B1 -> B2), the rank the ladder reads off B."""
    cases, tried = _ladder_cases(n, m, custom)
    for space, K, Kp, top, bottom, v3 in cases:
        alpha_0 = alpha_map(space, K, [OZ(Kp.e)], 0)
        explicit = _explicit_v1(space, K, Kp, alpha_0.target)
        b1_mod_ker = alpha_0.cokernel()
        r_c = PresentedMap(explicit.source, b1_mod_ker, explicit.columns, name="v1").rank()
        assert r_c == bottom.maps[1].rank, (K, Kp)
        expected = _middle_rank(top, bottom, r_c, v3.rank())
        assert ladder_propagate(top, bottom).rank == expected, (K, Kp)
    assert len(cases) >= tried // 2


@pytest.mark.parametrize("n, m, custom", LADDER_CONES)
def test_onto_right_vertical_matches_the_explicit_one(n, m, custom):
    """The explicit v3 is onto, so the ladder's dim B3 is its rank."""
    cases, tried = _ladder_cases(n, m, custom)
    for space, K, Kp, top, bottom, v3 in cases:
        assert v3.rank() == bottom.terms[3].dim, (K, Kp)
        expected = _middle_rank(top, bottom, bottom.maps[1].rank, v3.rank())
        assert ladder_propagate(top, bottom).rank == expected, (K, Kp)
    assert len(cases) >= tried // 2


def _count_presented_maps(monkeypatch):
    """Record the name of every PresentedMap built from now on."""
    import conetilt.linalg as linalg

    built = []
    init = linalg.PresentedMap.__init__

    def counting(pmap, source, target, matrix, name=""):
        built.append(name)
        init(pmap, source, target, matrix, name)

    monkeypatch.setattr(linalg.PresentedMap, "__init__", counting)
    return built


def test_chase_builds_no_ext1_postcomposition(monkeypatch):
    """No chase builds a map, on Ext^1 or anywhere else.

    The kernel-kernel chase reads the rank of v3 off the bottom row, the
    covariant chase the rank of beta_1 off its target, and the
    contravariant chase the rank of each alpha_i off its source; all take
    Ext^1 from R3 and R4.  Even with cold sequence caches, none of them
    builds any map at all.
    """
    import conetilt.objects as objects

    X7 = make_space(3, 7)
    pairs = [(kernel_bundle(X7, e), kernel_bundle(X7, f)) for e, f in ((3, 2), (1, 6), (6, 1))]
    expected = [hom_objects(X7, K, Kp) for K, Kp in pairs]
    built = _count_presented_maps(monkeypatch)
    objects._hom_kernel_kernel.cache_clear()
    objects._les_hom_contra_cached.cache_clear()
    assert [hom_objects(X7, K, Kp) for K, Kp in pairs] == expected
    assert built == []
    # the covariant chase from a section twist builds no Ext^1 map either
    objects._les_hom_cov_cached.cache_clear()
    beta_1 = les_hom_cov(X7, OZ(2), pairs[0][1]).maps[4]
    assert built == []
    assert (beta_1.name, beta_1.how) == ("beta_1", "onto")


GAP_CONES = [(2, m) for m in range(3, 10)] + [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]


def _refusal(compute):
    """(class, message) of the EngineError compute() raises, or None."""
    try:
        compute()
    except EngineError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n, m", GAP_CONES)
def test_ext1_from_the_rules_matches_the_explicit_presentation(n, m):
    """Ext^1 out of OZ(e) read off R3 and R4 equals the x_n cokernel.

    The explicit presentation of Ext^1(OZ(e), O) has R4's degree-1 dim,
    and that of Ext^1(OZ(e), OZ(f)) has the dim of ext1_h0_block, R3's
    block 1, whenever it does not raise.  For every kernel pair and every
    OZ(d) -> F_e' the engine refuses exactly when the presentation
    raises, with the same class and message; for n >= 3 nothing raises.
    """
    space = make_space(n, m)
    twists = range(-m - n, 2 * m + n + 1)
    for e in twists:
        one = cone_presentation(space, e, (OX(0),))
        assert one.dim == hom_atoms(space, OZ(e), OX(0)).dims[1], e
        for f in twists:
            ref = _refusal(lambda: cone_presentation(space, e, (OZ(f),)))
            assert _refusal(lambda: ext1_h0_block(space, e, f)) == ref, (e, f)
            if ref is None:
                pres = cone_presentation(space, e, (OZ(f),))
                assert pres.dim == ext1_h0_block(space, e, f).dim, (e, f)
    bundles = [kernel_bundle(space, e) for e in range(1, m)]
    queries = [(K, Kp) for K in bundles for Kp in bundles]
    queries += [(OZ(d), Kp) for d in twists for Kp in bundles]
    refused = 0
    for A, Kp in queries:
        e = A.e if isinstance(A, KernelBundle) else A.twist
        ref = _refusal(lambda: cone_presentation(space, e, (OZ(Kp.e),)))
        assert _refusal(lambda: hom_objects(space, A, Kp)) == ref, (A, Kp)
        refused += ref is not None
    assert refused if n == 2 else not refused


COVARIANT_CONES = [(2, 5), (2, 7), (3, 4), (3, 5), (4, 3), (5, 3)]
# Fraction elimination of an explicit alpha_i or beta_i costs seconds once
# its target passes a few dozen rows; larger targets are checked on
# canonical bundles, and on one Fraction bundle in the P(1^4, 3) test below
FRACTION_TARGET_ROWS = 40


@pytest.mark.parametrize("n, m", COVARIANT_CONES)
def test_covariant_ranks_match_explicit_multiplication(n, m):
    """Each alpha_i and beta_i the chases read off the rules has that rank.

    For every atom O(d), OZ(d) with -m-n <= d <= 2m+n and every kernel
    bundle, canonical or with a Fraction evaluation (up to
    FRACTION_TARGET_ROWS target rows), the rank of the explicit
    multiplication matrix of beta_i is the covariant chase's rank; a
    refused pair is refused by beta_map too.  The sweep includes OZ(d)
    with m < d <= m+e', where beta_1 has a zero source and a nonzero
    target, so its rank is 0, and for n >= 3 also d >= m+n+e', where the
    Laurent beta_n has a nonzero target.

    The same holds for alpha_i of the contravariant chase into every
    atom with -2m-n <= d <= 2m+n and into one sum.  At -m-n no
    invertible O(b) reaches the nonzero H^n(X, O(b)) unless m divides
    n, so the sweep goes down to -2m-n; every cone meets a nonzero
    alpha_n into a cone twist and a nonzero alpha_{n-1} into a section
    twist.
    """
    space = make_space(n, m)
    bundles = [kernel_bundle(space, e) for e in range(1, m)]
    bundles += _custom_bundles(space, random.Random(7))
    atoms = [atom(d) for d in range(-m - n, 2 * m + n + 1) for atom in (OX, OZ)]
    compared = zero_source = top = 0
    for Kp in bundles:
        for A in atoms:
            try:
                les = les_hom_cov(space, A, Kp)
            except (OutOfValidity, PresentationMismatch) as refusal:
                with pytest.raises(type(refusal)):
                    beta_map(space, A, Kp, 1)
                continue
            for i in range(n + 1):
                beta = les.maps[3 * i + 1]
                assert beta.how == "onto"
                source, target = les.terms[3 * i + 1].dim, les.terms[3 * i + 2].dim
                zero_source += not source and target > 0
                top += i == n and target > 0
                if Kp.canonical or target <= FRACTION_TARGET_ROWS:
                    assert beta_map(space, A, Kp, i).rank() == beta.rank, (A, Kp, i)
                    compared += 1
    assert compared >= len(bundles) * (n + 1) and zero_source
    # for n = 2 those pairs have R3's H^1(Z, e'-d) block: the n = 2 gap refuses them
    assert top or n == 2
    targets = [[atom(d)] for d in range(-2 * m - n, 2 * m + n + 1) for atom in (OX, OZ)]
    targets.append([OZ(0), OX(-(n + m) // m * m), OZ(-n)])
    cone_top = section_top = 0
    for K in bundles:
        for B in targets:
            try:
                les = les_hom_contra(space, K, B)
            except OutOfValidity:
                with pytest.raises(OutOfValidity):
                    alpha_map(space, K, B, 0)
                continue
            for i in range(n + 1):
                alpha = les.maps[3 * i]
                assert alpha.how == "injective"
                if K.canonical or les.terms[3 * i + 1].dim <= FRACTION_TARGET_ROWS:
                    assert alpha_map(space, K, B, i).rank() == alpha.rank, (K, B, i)
                    cone_top += i == n and alpha.rank > 0
                    section_top += i == n - 1 and alpha.rank > 0
    assert cone_top and section_top


def test_fraction_bundle_covariant_chase_matches_the_canonical_one(monkeypatch):
    """Hom(OZ(d), K) for a Fraction evaluation K equals the canonical F_2's.

    On P(1^4, 3) the explicit beta_1 of Hom(OZ(-7), K) has h * 286
    dense Fraction columns into 455 rows; the chase reads its rank off
    the target and builds no map.
    """
    X4 = make_space(4, 3)
    F2 = kernel_bundle(X4, 2)
    hilbert = [[Fraction(1, i + j + 1) for i in range(F2.h)] for j in range(F2.h)]
    K = kernel_bundle_custom(X4, 2, hilbert)
    canonical = {d: hom_objects(X4, OZ(d), F2) for d in range(-7, 0)}
    assert canonical[-7] == (0, 2625, 0, 0, 0)
    built = _count_presented_maps(monkeypatch)
    assert {d: hom_objects(X4, OZ(d), K) for d in range(-7, 0)} == canonical
    assert built == []


def test_kernel_bundle_columns_must_match_h_and_the_basis():
    """A directly built bundle needs h columns, each of the basis length.

    With h = 7 but six evaluation columns, or with a short last column,
    the sequence 0 -> K -> O^h -> OZ(2) -> 0 is not the one the columns
    describe; every Hom of K is refused, never answered.
    """
    X4 = make_space(3, 4)
    eye = tuple(tuple(int(i == j) for i in range(6)) for j in range(6))
    F1 = kernel_bundle(X4, 1)
    seven = KernelBundle(2, 7, eye)
    short = KernelBundle(2, 6, eye[:5] + (eye[5][:5],))
    for K, match in [
        (seven, r"ker\(O\^7->OZ\(2\)\) \[non-canonical\] has 6 evaluation columns for h = 7"),
        (short, r"does not live on P\(1,1,1,4\): its evaluation has length 5, H\^0\(Z, O\(2\)\) has dimension 6"),
    ]:
        for A, B in [(K, OX(0)), (K, F1), (OX(0), K), (F1, K)]:
            with pytest.raises(ShapeMismatch, match=match):
                hom_objects(X4, A, B)


def test_non_spanning_kernel_bundle_is_refused():
    """A bundle built directly with an evaluation that does not span is refused.

    0 -> K -> O^6 -> OZ(2) -> 0 is not exact when all six sections are
    the same monomial, so no Hom of K can be read off that sequence.
    """
    X4 = make_space(3, 4)
    first = tuple(int(i == 0) for i in range(6))
    K = KernelBundle(2, 6, (first,) * 6)
    F2 = kernel_bundle(X4, 2)
    for A, B in [(K, F2), (K, OX(0)), (OX(0), K), (F2, K)]:
        with pytest.raises(ShapeMismatch, match=r"does not span H\^0\(Z, O\(2\)\)"):
            hom_objects(X4, A, B)


# atom <-> kernel pairs on P(1^3, 3): (Hom(F_e, a), Hom(a, F_e)); the
# twists O(d) with 3 not dividing d are refused (OutOfValidity) both ways
ATOM_PAIRS_P1113 = {
    (1, OX(-3)): ((0, 0, 0, 0), (18, 0, 0, 0)),
    (1, OX(0)): ((9, 0, 0, 0), (0, 0, 0, 0)),
    (1, OX(3)): ((54, 0, 0, 0), (0, 0, 0, 0)),
    (1, OZ(-3)): ((0, 0, 0, 0), (0, 63, 0, 0)),
    (1, OZ(-2)): ((1, 1, 0, 0), (0, 45, 0, 0)),
    (1, OZ(-1)): ((3, 0, 0, 0), (0, 30, 0, 0)),
    (1, OZ(0)): ((9, 0, 0, 0), (0, 18, 0, 0)),
    (1, OZ(1)): ((18, 0, 0, 0), (0, 9, 0, 0)),
    (1, OZ(2)): ((30, 0, 0, 0), (0, 3, 0, 0)),
    (1, OZ(3)): ((45, 0, 0, 0), (0, 0, 0, 0)),
    (2, OX(-3)): ((0, 0, 0, 0), (45, 0, 0, 0)),
    (2, OX(0)): ((9, 0, 0, 0), (0, 0, 0, 0)),
    (2, OX(3)): ((81, 0, 0, 0), (0, 0, 0, 0)),
    (2, OZ(-3)): ((0, 0, 0, 0), (0, 144, 0, 0)),
    (2, OZ(-2)): ((0, 3, 0, 0), (0, 105, 0, 0)),
    (2, OZ(-1)): ((1, 1, 0, 0), (0, 72, 0, 0)),
    (2, OZ(0)): ((9, 0, 0, 0), (0, 45, 0, 0)),
    (2, OZ(1)): ((24, 0, 0, 0), (0, 24, 0, 0)),
    (2, OZ(2)): ((45, 0, 0, 0), (0, 9, 0, 0)),
    (2, OZ(3)): ((72, 0, 0, 0), (0, 0, 0, 0)),
}


def test_sums_of_copies_are_indexed_by_offset(monkeypatch):
    """No sum of copies of a basis lists its labels while the chase runs.

    The spaces h or h' copies of one basis are DirectSums, and every map
    builder finds a row as block offset plus base index; building the
    labels of such a sum is the per-query waste this guards against.
    """
    import conetilt.objects as objects
    import conetilt.rules as rules

    built = []
    labels = vars(DirectSum)["labels"]

    def spy(self):
        if len({id(b) for b in self.blocks}) < len(self.blocks):
            built.append(self)
        return labels.func(self)

    monkeypatch.setattr(DirectSum, "labels", property(spy))
    for mod in (rules, objects):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    X5 = make_space(3, 5)
    bundles = {e: kernel_bundle(X5, e) for e in range(1, 5)}
    grid = {(e, f): hom_objects(X5, bundles[e], bundles[f]) for e, f in GRID_P1115}
    assert grid == {
        k: (hom0, 0, int(k == (4, 1)), 0) for k, hom0 in GRID_P1115.items()
    }
    pairs = {}
    for e in (1, 2):
        K = kernel_bundle(X, e)
        for d in range(-3, 4):
            for a in (OX(d), OZ(d)):
                if a == OX(d) and d % 3:
                    for args in ((K, a), (a, K)):
                        with pytest.raises(OutOfValidity):
                            hom_objects(X, *args)
                    continue
                pairs[e, a] = (hom_objects(X, K, a), hom_objects(X, a, K))
    assert pairs == ATOM_PAIRS_P1113
    assert built == []


def _mini_les(dims, ranks):
    terms = [LESTerm("t%d" % i, d) for i, d in enumerate(dims)]
    maps = [LESMap("m%d" % j, r, "exactness") for j, r in enumerate(ranks)]
    les = LongExactSequence("synthetic", terms, maps)
    les.check_exactness()
    return les


def test_solve_les_completes_a_synthetic_sequence():
    # 0 -> k -> k^3 -> ? -> k^2 -> 0 with only the first map known
    les = solve_les(
        "synthetic",
        [LESTerm("a", 1), LESTerm("b", 3), LESTerm("c", None), LESTerm("d", 2)],
        [
            LESMap("m0", 1, "injective"),
            LESMap("m1", None, "exactness"),
            LESMap("m2", None, "exactness"),
        ],
    )
    assert [t.dim for t in les.terms] == [1, 3, 4, 2]
    assert [m.rank for m in les.maps] == [1, 2, 2]
    assert [m.how for m in les.maps] == ["injective", "exactness", "exactness"]


def test_solve_les_refuses_adjacent_unknown_maps():
    terms = [LESTerm("t%d" % i, d) for i, d in enumerate([1, None, 2, None, 1])]
    maps = [
        LESMap("m0", 1, "injective"),
        LESMap("m1", None, "exactness"),
        LESMap("m2", None, "exactness"),
        LESMap("m3", 1, "injective"),
    ]
    with pytest.raises(IndeterminateRank, match="synthetic: .* rank of m1$"):
        solve_les("synthetic", terms, maps)


def test_ladder_onto_right_vertical_needs_a_zero_outgoing_top_map():
    """The onto right vertical has rank dim B3 only when T3 -> T4 is zero."""
    bottom = _mini_les([0, 1, 2, 1, 0], [0, 1, 1, 0])
    top = _mini_les([0, 1, 2, 1, 0], [0, 1, 1, 0])
    assert ladder_propagate(top, bottom).rank == 2
    # T3 -> T4 has rank 1: being onto B3 does not pin the rank on its kernel
    top = _mini_les([0, 1, 2, 2, 1], [0, 1, 1, 1])
    with pytest.raises(IndeterminateRank, match="onto right vertical out of t3"):
        ladder_propagate(top, bottom)


@pytest.mark.parametrize("n, m", [(2, 5), (3, 4), (3, 7), (4, 3), (4, 5)])
def test_scaled_top_row_equals_the_explicit_row(n, m):
    """h' copies of the cached Hom(-, O) row are Hom(-, O^h'), name for name."""
    space = make_space(n, m)
    copies = sorted({kernel_bundle(space, f).h for f in range(1, m)})
    for e in range(1, m):
        K = kernel_bundle(space, e)
        for hp in copies:
            scaled = _free_row(space, K, hp)
            explicit = les_hom_contra(space, K, [OX(0)] * hp)
            assert scaled.origin == explicit.origin
            assert [(t.name, t.dim) for t in scaled.terms] == [
                (t.name, t.dim) for t in explicit.terms
            ]
            assert [(f.name, f.rank, f.how) for f in scaled.maps] == [
                (f.name, f.rank, f.how) for f in explicit.maps
            ]
            # it lands in Hom^1(O^h, O^h') = 0, so the ladder does not refuse
            assert scaled.maps[3].rank == 0


def test_top_degree_dual_rank_keeps_chase_determined():
    """Deep negative twists exercise the top-degree Laurent maps.

    Hom^*(F, O(-6)) must vanish entirely: its Serre partner is
    Hom^*(O, F) = 0.  Getting this right depends on the rank of the top
    map, Laurent multiplication followed by the connecting map, being
    exact.  On the Gorenstein cones (m divides n) Serre duality pairs
    each answer with one that other maps compute: Hom^i(F, O(b)) with
    Hom^{n-i}(O(b+n+m), F), and Hom^i(OZ(f), F) with
    Hom^{n-i}(F, OZ(f-n-m)); f >= n+m reaches the top degree of R4.
    """
    les = les_hom_contra(X, F, OX(-6))
    assert les.solved_dims(2) == (0, 0, 0, 0)
    alpha3 = les.maps[9]  # the degree-3 known-to-known map
    assert alpha3.how == "injective" and alpha3.rank == 3
    # sweep: the duality symmetry holds for the solved bundle dims too
    for b in (-9, -6, -3, 0, 3):
        left = les_hom_contra(X, F, OX(b)).solved_dims(2)
        right = les_hom_cov(X, OX(b + 6), F).solved_dims(0)
        assert left == tuple(reversed(right)), (b, left, right)
    cases = 0
    for n, m in [(2, 2), (4, 2), (4, 4), (6, 3)]:
        space, w = make_space(n, m), n + m
        for K in [kernel_bundle(space, e) for e in range(1, m)]:
            pairs = [
                (les_hom_contra(space, K, OX(b)), les_hom_cov(space, OX(b + w), K))
                for b in range(-w - m, m + 1, m)
            ]
            if n > 2:  # on n = 2 the cone presentation of Ext^1(OZ(f), OZ(e)) fails
                pairs += [
                    (les_hom_contra(space, K, OZ(f - w)), les_hom_cov(space, OZ(f), K))
                    for f in range(w, w + 3)
                ]
            for left, right in pairs:
                assert left.solved_dims(2) == tuple(reversed(right.solved_dims(0)))
                cases += 1
    assert cases == 56


# ---------------------------------------------------------------------------
# agreement, degree support, Euler form
# ---------------------------------------------------------------------------

def test_hom_objects_matches_hom_atoms_on_atoms():
    rng = random.Random(5)
    pairs = 0
    while pairs < 60:
        choice = rng.randrange(4)
        if choice == 0:
            A, B = OX(3 * rng.randint(-3, 3)), OX(rng.randint(-9, 9))
        elif choice == 1:
            A, B = OX(rng.randint(-9, 9)), OZ(rng.randint(-9, 9))
        elif choice == 2:
            A, B = OZ(rng.randint(-9, 9)), OZ(rng.randint(-9, 9))
        else:
            A, B = OZ(rng.randint(-9, 9)), OX(3 * rng.randint(-3, 3))
        assert hom_objects(X, A, B) == hom_atoms(X, A, B).dims
        pairs += 1


def test_degree_support_regression():
    """All Homs among the threefold collection live in degree 0 only."""
    objs = [F, G, as_object(OX(0)), as_object(OX(3))]
    for a in objs:
        for b in objs:
            dims = hom_objects(X, a, b)
            assert all(d == 0 for d in dims[1:]), (a, b, dims)
    surf = [FS, as_object(OX(0)), as_object(OX(-2))]
    for a in surf:
        for b in surf:
            dims = hom_objects(S, a, b)
            assert all(d == 0 for d in dims[1:]), (a, b, dims)


def test_euler_examples():
    assert euler_form(X, F, G) == 24
    assert euler_form(X, OX(0), OX(0)) == 1
    assert euler_form(X, OZ(1), OX(0)) == -6
    # bilinear decomposition along the defining sequence of G
    assert 6 * euler_form(X, F, OX(0)) - euler_form(X, F, OZ(2)) == 54 - 30 == 24


def test_sum_additivity():
    T = direct_sum(F, G)
    assert hom_objects(X, T, T) == (45, 0, 0, 0)
    assert hom_objects(X, T, OX(0)) == (18, 0, 0, 0)
    assert euler_form(X, T, OX(0)) == euler_form(X, F, OX(0)) + euler_form(
        X, G, OX(0)
    )


# ---------------------------------------------------------------------------
# property suites: exactness and Euler additivity over twist sweeps
# ---------------------------------------------------------------------------

def _alternating_sum(les):
    return sum((-1) ** t * term.dim for t, term in enumerate(les.terms))


def assembled_sequence_sweep():
    """Yield >= 100 assembled long exact sequences over twists in [-10, 10]."""
    for K in (F, G):
        for b in range(-9, 10, 3):
            yield les_hom_contra(X, K, OX(b))
        for f in range(-10, 11):
            yield les_hom_contra(X, K, OZ(f))
    for b in range(-10, 11, 2):
        yield les_hom_contra(S, FS, OX(b))
    for f in range(-10, 11):
        yield les_hom_contra(S, FS, OZ(f))
    for K in (F, G):
        for a in range(-9, 10, 3):
            yield les_hom_cov(X, OX(a), K)
        for e in range(-6, 7):
            yield les_hom_cov(X, OZ(e), K)
    for a in range(-10, 11, 2):
        yield les_hom_cov(S, OX(a), FS)
    for e in range(-6, 2):
        yield les_hom_cov(S, OZ(e), FS)


def test_exactness_of_every_assembled_sequence():
    count = 0
    for les in assembled_sequence_sweep():
        les.check_exactness()
        assert _alternating_sum(les) == 0, les.origin
        count += 1
    assert count >= 100


def test_euler_additivity_along_defining_sequences():
    """chi(A, K) = h chi(A, O) - chi(A, OZ(e)), and contravariantly."""
    checked = 0
    for K, space in ((F, X), (G, X), (FS, S)):
        for a in range(-space.m * 4, space.m * 4 + 1, space.m):
            lhs = euler_form(space, OX(a), K)
            rhs = K.h * euler_form(space, OX(a), OX(0)) - euler_form(
                space, OX(a), OZ(K.e)
            )
            assert lhs == rhs
            checked += 1
        for e in range(-8, 10):
            lhs = euler_form(space, K, OZ(e))
            rhs = K.h * euler_form(space, OX(0), OZ(e)) - euler_form(
                space, OZ(K.e), OZ(e)
            )
            assert lhs == rhs
            checked += 1
        for b in range(-space.m * 3, space.m * 3 + 1, space.m):
            lhs = euler_form(space, K, OX(b))
            rhs = K.h * euler_form(space, OX(0), OX(b)) - euler_form(
                space, OZ(K.e), OX(b)
            )
            assert lhs == rhs
            checked += 1
    assert checked >= 100


def test_euler_bilinearity_on_random_sums():
    rng = random.Random(9)
    atoms = [OX(0), OX(3), OX(-3), OZ(1), OZ(2), OZ(-1)]
    for _ in range(40):
        A = rng.choice(atoms)
        B, C = rng.choice(atoms), rng.choice(atoms)
        assert euler_form(X, A, direct_sum(B, C)) == euler_form(
            X, A, B
        ) + euler_form(X, A, C)
