"""The closed-form Hom rules, the bases behind them, and cone presentations.

Frozen expected vectors marked "reported" are the published dimension
table for P(1,1,1,3); everything else is checked against independent
binomial or enumeration oracles computed inside this file.
"""

import ast
import random
from math import comb
from pathlib import Path

import pytest
from explicit_maps import (
    component_terms,
    cone_presentation,
    ext1_map,
    h_basis,
    hom0_space,
    rule_space,
    sections_map,
)

import conetilt
from conetilt.cone import (
    Monomial,
    cone_cohomology_dim,
    laurent_top_basis,
    make_space,
    section_cohomology_dim,
    section_laurent_basis,
    section_monomials,
    weighted_monomials,
)
from conetilt.linalg import PresentedMap
from conetilt.objects import direct_sum, hom_objects, kernel_bundle
from conetilt.rules import (
    CONE,
    OX,
    OZ,
    SECTION,
    OutOfValidity,
    PresentationMismatch,
    hom_atoms,
)

X = make_space(3, 3)
S = make_space(2, 2)

# reported dimension table on P(1,1,1,3): (source, target, graded dims)
REPORTED_TABLE = [
    (OX(0), OX(0), (1, 0, 0, 0)),
    (OX(0), OZ(1), (3, 0, 0, 0)),
    (OX(0), OZ(2), (6, 0, 0, 0)),
    (OZ(1), OX(0), (0, 6, 0, 0)),
    (OZ(2), OX(0), (0, 3, 0, 0)),
    (OZ(1), OZ(1), (1, 10, 0, 0)),
    (OZ(1), OZ(2), (3, 15, 0, 0)),
    (OZ(2), OZ(1), (0, 6, 0, 0)),
]


@pytest.mark.parametrize("A,B,expected", REPORTED_TABLE)
def test_atom_pair_table(A, B, expected):
    assert hom_atoms(X, A, B).dims == expected


def test_rule_tags():
    assert hom_atoms(X, OX(0), OX(3)).rule == "R1"
    assert hom_atoms(X, OX(1), OZ(2)).rule == "R2"
    assert hom_atoms(X, OZ(1), OZ(2)).rule == "R3"
    assert hom_atoms(X, OZ(1), OX(0)).rule == "R4"


def test_out_of_validity_refusals():
    with pytest.raises(OutOfValidity):
        hom_atoms(X, OX(1), OX(0))  # non-invertible source, full graded Hom
    with pytest.raises(OutOfValidity):
        hom_atoms(X, OZ(1), OX(1))  # non-invertible target under duality


def test_r2_allows_any_source_twist():
    # Hom^*(O(-2), OZ(1)) = H^*(Z, O(3)) = k^10 in degree 0
    assert hom_atoms(X, OX(-2), OZ(1)).dims == (10, 0, 0, 0)
    assert hom_atoms(X, OX(1), OZ(1)).dims == (1, 0, 0, 0)
    assert hom_atoms(X, OX(-2), OZ(0)).dims == (6, 0, 0, 0)


def _restriction(space, a, e):
    """Hom(O(a), O(e)) -> Hom(O(a), OZ(e)) in degree 0: postcompose with 1."""
    one = Monomial((0,) * space.n)
    return sections_map(space, a, (OX(e),), [((one, 1),)], OZ(e))


def test_restrict_map_ranks():
    assert _restriction(X, -2, 0).rank() == 6  # bijective at degree 2
    r3 = _restriction(X, 0, 3)
    assert r3.rank() == 10 and r3.source.dim == 11
    assert _restriction(X, 0, 0).rank() == 1


def _connecting(space, d):
    """H^{n-1}(Z, O(d)) -> H^n(X, O(d-m)) on Laurent bases: append x_n^-1."""
    source = section_laurent_basis(space, d)
    return source, laurent_top_basis(space, d - space.m), [
        Monomial(mon.exps + (-1,)) for mon in source
    ]


def test_connecting_map_examples():
    for space, d, dims in ((X, -5, (6, 6)), (X, 0, (0, 0)), (S, -3, (2, 2))):
        source, target, images = _connecting(space, d)
        assert (len(source), len(target)) == dims
        assert set(images) <= set(target) and len(set(images)) == len(source)


def test_connecting_map_always_injective_and_cokernel_basis():
    for d in range(-12, 1):
        source, target, images = _connecting(X, d)
        assert len(set(images)) == len(source) and set(images) <= set(target)
        # the cokernel is spanned by the Laurent monomials with last exponent <= -2
        assert set(target) - set(images) == {m for m in target if m.exps[-1] <= -2}


def _pairing(space, d):
    """The Serre pairing on bases: u in H^0(X, O(d)) pairs with -1-u."""
    return [Monomial(tuple(-1 - x for x in u.exps)) for u in weighted_monomials(space, d)]


def test_serre_pairing_examples():
    assert _pairing(X, 0) == [Monomial((-1, -1, -1, -1))]
    assert sorted(_pairing(X, 2)) == list(laurent_top_basis(X, -8))
    assert len(_pairing(X, 2)) == 6
    assert _pairing(X, -1) == []


def test_serre_pairing_full_rank_sweep():
    """The pairing is a bijection of bases, and R4 is the Serre dual of R2."""
    n, m = X.n, X.m
    for d in range(0, 9):
        partners = _pairing(X, d)
        assert sorted(partners) == list(laurent_top_basis(X, -d - n - m))
        assert len(partners) == cone_cohomology_dim(X, -d - n - m, n)
    for e in range(-8, 9):
        for b in range(-9, 10, m):
            dims = hom_atoms(X, OZ(e), OX(b)).dims
            dual = [section_cohomology_dim(X, e - n - m - b, n - i) if i else 0
                    for i in range(n + 1)]
            assert list(dims) == dual, (e, b)


def test_cone_presentation_examples():
    pres = cone_presentation(X, 1, (OX(0),) * 3)
    assert pres.dim == 18
    assert pres.xn_map.rank() == 0 and pres.xn_map.source.dim == 0
    pres2 = cone_presentation(X, 1, (OZ(1),))
    assert pres2.dim == 10
    pres3 = cone_presentation(X, 2, (OX(0),))
    assert pres3.dim == 3


@pytest.mark.parametrize(
    "e, targets", [(1, (OX(0),) * 3), (1, (OZ(1),)), (2, (OX(0), OZ(2), OX(3)))]
)
def test_cone_presentation_fields_match_the_docstring(e, targets):
    # generators in Hom(O(e-m), T), relations from Hom(O(e), T) by x_n
    pres = cone_presentation(X, e, targets)
    assert pres.generators is pres.xn_map.target
    assert pres.relation_source is pres.xn_map.source
    assert pres.generators.labels == hom0_space(X, e - X.m, targets).labels
    assert pres.relation_source.labels == hom0_space(X, e, targets).labels
    assert pres.quotient.ambient is pres.generators


def test_cone_presentation_rejects_non_invertible():
    with pytest.raises(OutOfValidity):
        cone_presentation(X, 1, (OX(1),))


def test_cone_presentation_mismatch_on_surface():
    # on P(1,1,2) the section is a P^1 and H^1 terms obstruct the model
    with pytest.raises(PresentationMismatch):
        cone_presentation(S, 1, (OZ(-2),))


def test_cone_presentation_agrees_with_rules_randomized():
    """Presented dimension == closed-form degree-1 dimension (>= 100 cases)."""
    rng = random.Random(0)
    checked = 0
    while checked < 110:
        e = rng.randint(-10, 10)
        if rng.random() < 0.5:
            b = 3 * rng.randint(-3, 3)
            if abs(b - e) > 7:
                continue  # keep the generator spaces small
            targets = (OX(b),)
        else:
            f = e + rng.randint(-4, 8)
            if not -10 <= f <= 10:
                continue
            targets = (OZ(f),)
        pres = cone_presentation(X, e, targets)
        assert pres.dim == hom_atoms(X, OZ(e), targets[0]).dims[1]
        checked += 1
    assert checked >= 100


EXT1_CONES = [make_space(*nm) for nm in ((2, 3), (2, 5), (3, 3), (3, 5), (4, 3))]


@pytest.mark.parametrize("space", EXT1_CONES, ids=str)
def test_ext1_postcompose_map_equals_the_presentation_of_the_full_sum(space):
    """h' shifted one-copy blocks == the presentation of O^h' postcomposed."""
    m = space.m
    compared = 0
    for e in range(-m, m + 1):
        for ep in range(1, m):
            comps = component_terms(space, kernel_bundle(space, ep))
            free = (OX(0),) * len(comps)
            try:
                pres_tgt = cone_presentation(space, e, (OZ(ep),))
            except PresentationMismatch:
                continue  # the n = 2 refusals
            ref = cone_presentation(space, e, free)
            post = sections_map(space, e - m, free, comps, OZ(ep))
            ref_map = PresentedMap(ref.quotient, pres_tgt.quotient, post.columns)
            got = ext1_map(space, e, comps, pres_tgt, name="v3")
            assert got.source.ambient.labels == ref.generators.labels
            assert got.source.boundaries == ref.quotient.boundaries
            assert got.columns == ref_map.columns
            assert got.source.dim == ref.dim
            assert got.rank() == ref_map.rank()
            compared += 1
    assert compared >= 2 * m


def _twist_of(atom, shift):
    return OX(atom.twist + shift) if atom.kind == "cone" else OZ(atom.twist + shift)


def _serre_pairs(space, rng, count):
    """Validity-domain pairs whose Serre partner is also computable."""
    m = space.m
    pairs = []
    while len(pairs) < count:
        choice = rng.randrange(4)
        if choice == 0:
            A, B = OX(m * rng.randint(-3, 3)), OX(m * rng.randint(-3, 3))
        elif choice == 1:
            a = m * rng.randint(-3, 3) + space.n  # partner twist stays invertible
            A, B = OX(a), OZ(rng.randint(-8, 8))
        elif choice == 2:
            A, B = OZ(rng.randint(-8, 8)), OZ(rng.randint(-8, 8))
        else:
            A, B = OZ(rng.randint(-8, 8)), OX(m * rng.randint(-3, 3))
        pairs.append((A, B))
    return pairs


@pytest.mark.parametrize("space", [X, S])
def test_serre_symmetry_of_hom_dims(space):
    """dim Hom^i(A,B) == dim Hom^{n-i}(B, A(-(n+m))) across the domain."""
    rng = random.Random(1)
    n = space.n
    shift = space.canonical_degree
    for A, B in _serre_pairs(space, rng, 120):
        left = hom_atoms(space, A, B).dims
        right = hom_atoms(space, B, _twist_of(A, shift)).dims
        assert left == tuple(reversed(right)), (A, B, left, right)


def test_r0_r1_degree_zero_consistency():
    """Where both the reflexive rule and the full rule apply, bases agree."""
    for a in (-6, -3, 0, 3, 6):
        for b in range(-6, 7):
            full = hom_atoms(X, OX(a), OX(b))
            direct = hom0_space(X, a, (OX(b),))
            assert full.dims[0] == direct.dim
            listed = rule_space(X, OX(a), OX(b), 0)
            assert tuple(lbl for _, lbl in direct.labels) == listed.labels


def test_euler_characteristic_of_section_homs():
    """chi Hom^*(O(a), OZ(e)) equals the binomial polynomial in e - a."""

    def binom_poly(space, t):
        num = 1
        for j in range(1, space.n):
            num *= t + j
        den = 1
        for j in range(1, space.n):
            den *= j
        return num // den

    for a in range(-6, 7):
        for e in range(-6, 7):
            dims = hom_atoms(X, OX(a), OZ(e)).dims
            chi = sum((-1) ** i * d for i, d in enumerate(dims))
            assert chi == binom_poly(X, e - a)


def test_graded_hom_spaces_have_expected_bases():
    assert rule_space(X, OX(0), OX(3), 0).labels == tuple(weighted_monomials(X, 3))
    assert rule_space(X, OX(0), OZ(2), 0).labels == tuple(section_monomials(X, 2))
    # R4 degree-1 space is H^0(Z, O(2)), the dual of H^2(Z, O(-5)), dimension comb(4,2)
    r4 = rule_space(X, OZ(1), OX(0), 1)
    assert r4.labels == section_monomials(X, 2)
    assert r4.dim == hom_atoms(X, OZ(1), OX(0)).dims[1] == comb(4, 2)
    with pytest.raises(OutOfValidity, match="source twist is not invertible"):
        rule_space(X, OX(1), OX(0), 0)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 5), (4, 2)])
def test_counted_spaces_list_the_eager_bases(n, m):
    """Each closed-form count is the length of the basis `cone` lists for
    it, in every degree; no count is checked against a listing at run time."""
    Y = make_space(n, m)
    for d in range(-2 * (n + m), 2 * (n + m) + 1):
        for i in range(-1, n + 2):
            cone = h_basis(Y, CONE, d, i)
            section = h_basis(Y, SECTION, d, i)
            eager_cone = {0: weighted_monomials(Y, d), n: laurent_top_basis(Y, d)}
            eager_section = {0: section_monomials(Y, d), n - 1: section_laurent_basis(Y, d)}
            assert cone.labels == eager_cone.get(i, ())
            assert section.labels == eager_section.get(i, ())
            if 0 <= i <= n:
                assert cone.dim == cone_cohomology_dim(Y, d, i)
            if 0 <= i < n:
                assert section.dim == section_cohomology_dim(Y, d, i)


def _imports(module):
    """The (module, name) pairs a conetilt module imports, modules by last part."""
    source = Path(conetilt.__file__).with_name(module + ".py")
    pairs = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            pairs |= {(node.module.rsplit(".", 1)[-1], a.name) for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            pairs |= {(a.name.rsplit(".", 1)[-1], "*") for a in node.names}
    return pairs


@pytest.mark.parametrize("module", ["rules", "objects", "tilting", "report", "cli"])
def test_the_engine_takes_no_space_from_linalg(module):
    """The engine counts: from linalg it takes the errors and mat_rank
    (the spanning check of a custom bundle), and rules lists no basis."""
    pairs = _imports(module)
    assert {name for mod, name in pairs if mod == "linalg"} <= {
        "EngineError",
        "ShapeMismatch",
        "mat_rank",
    }
    if module == "rules":
        listers = {"weighted_monomials", "laurent_top_basis"}
        listers |= {"section_monomials", "section_laurent_basis"}
        assert not {name for mod, name in pairs if mod == "cone"} & listers


def test_the_chase_lists_no_rule_basis():
    """Every chase reads only the dimensions of the rule spaces."""
    listers = (weighted_monomials, laurent_top_basis, section_laurent_basis)
    for lister in listers:
        lister.cache_clear()
    Y = make_space(3, 4)
    F = [kernel_bundle(Y, e) for e in range(1, 4)]
    atoms = [OX(d) for d in range(-8, 9, 4)] + [OZ(d) for d in range(-8, 9)]
    for K in F:
        for other in F + [direct_sum(*atoms)]:
            hom_objects(Y, K, other)
        for a in atoms:
            hom_objects(Y, a, K)
    assert hom_objects(Y, OZ(-3), OX(4)) == hom_atoms(Y, OZ(-3), OX(4)).dims
    assert [lister.cache_info().currsize for lister in listers] == [0, 0, 0]
