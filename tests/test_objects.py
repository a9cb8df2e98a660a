"""Kernel bundles, long exact sequences, ladders, and the Hom chase.

The frozen reported values for P(1,1,1,3) and P(1,1,2) sit next to
independent oracles: an explicit binomial dimension chase written in
this file for the surface case, alternating-sum and exactness checks
for every assembled sequence, and duality/Euler cross-checks.
"""

import hashlib
import json
import pickle
import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest
from explicit_maps import (
    alpha_map,
    beta_map,
    component_terms,
    cone_presentation,
    ext1_map,
    free_source,
    restrict,
    sections_map,
)

from conetilt.cone import ConeSpace, Monomial, make_space, section_monomials
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
    SumObject,
    _atom_list,
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
    _O_RUNS,
    _check_bundle,
    _les_hom_contra_cached,
    _solve,
    _top_row,
)
from conetilt.rules import (
    Atom,
    OX,
    OZ,
    OutOfValidity,
    PresentationMismatch,
    ext1_h0_block,
    hom_atoms,
    r3_block_dims,
)
from conetilt.tilting import check_sod, end_blocks

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


@pytest.mark.parametrize(
    "entry", [0.1, 1.0, float("inf"), float("nan"), 1j, complex(1, 0)]
)
def test_custom_evaluation_refuses_inexact_entries(entry):
    """A float or complex entry is refused by name, never expanded in
    binary: 0.1 is not 1/10, and inf raises ValueError, not OverflowError."""
    with pytest.raises(ValueError, match=r"^evaluation column 2: entry %s is not exact" % (
        re.escape(repr(entry))
    )):
        kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0), (0, 0, entry), (1, 1, 1)])


@pytest.mark.parametrize("entry", [0.1, 1.0, float("inf"), 1j])
def test_a_kernel_bundle_built_directly_refuses_inexact_entries(entry):
    """KernelBundle skips kernel_bundle_custom's entry check; the spanning
    check of the chase then refuses the entry by name, never answers."""
    K = KernelBundle(1, 3, ((entry, 0, 0), (0, 1, 0), (0, 0, 1)))
    text = re.escape("entry %r at row 0, column 0 is not exact" % entry)
    with pytest.raises(ShapeMismatch, match=text):
        hom_objects(X, K, OX(0))
    with pytest.raises(ShapeMismatch, match=text):
        hom_objects(X, OX(0), K)


def test_custom_evaluation_keeps_exact_entries():
    K = kernel_bundle_custom(X, 1, [(1, 0, 0), ("0", "1/10", 0), (0, 0, Fraction(3, 7))])
    assert K.columns == ((1, 0, 0), (0, Fraction(1, 10), 0), (0, 0, Fraction(3, 7)))


def test_custom_evaluation_is_accepted_exactly_when_it_spans():
    """On P(1^2, m) and P(1^3, m), kernel_bundle_custom accepts a random
    Fraction evaluation exactly when the rref oracle gives it rank
    h^0(Z, O(e)); zero, unit, repeated and dependent columns make many
    draws rank-deficient."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from test_linalg import rref

    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kinds = st.sampled_from(["random", "zero", "unit", "repeat", "combination"])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def evaluations(data):
        m = data.draw(st.integers(2, 5), "m")
        space = make_space(data.draw(st.integers(2, 3), "n"), m)
        e = data.draw(st.integers(1, m - 1), "e")
        full = kernel_bundle(space, e).h
        cols = []
        for _ in range(data.draw(st.integers(0, full + 2), "columns")):
            kind = data.draw(kinds, "kind")
            if kind == "zero":
                col = [0] * full
            elif kind == "unit":
                i = data.draw(st.integers(0, full - 1), "row")
                col = [int(r == i) for r in range(full)]
            elif kind == "repeat" and cols:
                col = list(data.draw(st.sampled_from(cols), "repeated"))
            elif kind == "combination" and cols:
                a, b = data.draw(st.sampled_from(cols)), data.draw(st.sampled_from(cols))
                s, t = data.draw(values), data.draw(values)
                col = [s * x + t * y for x, y in zip(a, b)]
            else:
                col = [data.draw(values) for _ in range(full)]
            cols.append(col)
        spans = len(rref(cols)[0]) == full  # the rows of rref are the columns
        try:
            K = kernel_bundle_custom(space, e, cols)
        except ValueError as exc:
            assert not spans and "do not span" in str(exc)
        else:
            assert spans and K.h == len(cols) and not K.canonical

    evaluations()


def test_custom_kernel_bundle_hom_dims_shift_with_rank():
    K = kernel_bundle_custom(X, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    # one extra free summand compared to the canonical bundle
    assert hom_objects(X, K, OX(0)) == (10, 0, 0, 0)
    assert hom_objects(X, OX(0), K) == (1, 0, 0, 0)


@pytest.mark.parametrize(
    "make, other, field, text",
    [
        (lambda: ConeSpace(3, 3), ConeSpace(3, 4), "n", "ConeSpace(n=3, m=3)"),
        (lambda: OX(2), OZ(2), "kind", "Atom(kind='cone', twist=2)"),
        (
            lambda: direct_sum(OX(0), OZ(1)),
            direct_sum(OZ(1), OX(0)),
            "parts",
            "SumObject(parts=((Atom(kind='cone', twist=0), 1), "
            "(Atom(kind='section', twist=1), 1)))",
        ),
        (
            lambda: KernelBundle(1, 2, ((Fraction(1), Fraction(0)), (Fraction(1, 2), 1))),
            KernelBundle(1, 2),
            "columns",
            "KernelBundle(e=1, h=2, columns=((Fraction(1, 1), Fraction(0, 1)), "
            "(Fraction(1, 2), 1)))",
        ),
    ],
)
def test_value_types_compare_hash_and_print_by_their_fields(make, other, field, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != other and other != a and a != (getattr(a, field),)
    assert len({a, b, other}) == 2
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and hash(a) == hash(b)


def test_value_type_constructors_keep_their_signatures():
    assert ConeSpace(n=2, m=5) == make_space(2, 5)
    assert Atom(kind="section", twist=3) == OZ(3)
    atom = OX(1)
    assert as_object(atom) is atom
    assert KernelBundle(e=2, h=6) == KernelBundle(2, 6, None)
    assert KernelBundle(2, 6).columns is None
    with pytest.raises(ValueError, match="need n >= 2"):
        ConeSpace(1, 3)
    with pytest.raises(ValueError, match="weight must be >= 1"):
        ConeSpace(3, 0)
    # a sum is an object, not a tuple, so it flattens as one
    assert _atom_list(direct_sum(OX(0), OZ(1))) == [OX(0), OZ(1)]
    assert _atom_list([direct_sum(OX(0), OZ(1)), OX(3)]) == [OX(0), OZ(1), OX(3)]
    assert not isinstance(direct_sum(OX(0)), tuple)


def test_kernel_bundle_copies_are_equal_and_share_the_caches(monkeypatch):
    X5 = make_space(3, 5)
    A, B = kernel_bundle(X5, 2), kernel_bundle(X5, 2)
    assert A is not B and A == B and hash(A) == hash(B)
    assert A != kernel_bundle(X5, 3)
    first = les_hom_contra(X5, A, OZ(4))
    hits = _les_hom_contra_cached.cache_info().hits
    assert les_hom_contra(X5, B, OZ(4)) is first
    assert _les_hom_contra_cached.cache_info().hits == hits + 1
    # a cold kernel pair read for its dims reads one contravariant row, the
    # one-copy Hom(-, O), through the one cache of les_hom_contra, and
    # adds only that entry; its derivation reads the bottom row Hom(-, OZ(e'))
    import conetilt.objects as objects

    cached, read = _les_hom_contra_cached, []

    def spy(*args):
        read.append(cached(*args))
        return read[-1]

    _clear_caches()
    monkeypatch.setattr(objects, "_les_hom_contra_cached", spy)
    K, Kp = kernel_bundle(X5, 1), kernel_bundle(X5, 3)
    comp = hom_objects_detailed(X5, K, Kp)
    chase, before = list(read), cached.cache_info()
    assert before.currsize == 1
    assert len(chase) == 1 and les_hom_contra(X5, K, OX(0)) is chase[0]
    assert cached.cache_info().hits == before.hits + 1
    _, bottom, _ = comp.sequences
    assert les_hom_contra(X5, K, OZ(Kp.e)) is bottom
    assert cached.cache_info().currsize == 2


def test_canonical_kernel_bundle_stores_no_evaluation():
    X5 = make_space(3, 5)
    K = kernel_bundle(X5, 2)
    basis = section_monomials(X5, 2)
    assert K == KernelBundle(2, 6) and K.canonical and K.columns is None
    # no attribute holds an h x h evaluation matrix
    assert not any(isinstance(v, tuple) for v in vars(K).values())
    terms = component_terms(X5, K)
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
    assert component_terms(X5, C) == component_terms(X5, K)
    assert hom_objects(X5, C, C) == hom_objects(X5, K, K) == (40, 0, 0, 0)
    half = kernel_bundle_custom(X5, 2, [[Fraction(1, 2) * x for x in col] for col in eye])
    assert all(c == Fraction(1, 2) for t in component_terms(X5, half) for _, c in t)


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


# each entry point given `obj` as a sheaf object argument
ENTRY_POINTS = {
    "hom_objects": lambda obj: hom_objects(X, F, obj),
    "hom_objects_detailed": lambda obj: hom_objects_detailed(X, obj, F),
    "direct_sum": lambda obj: direct_sum(OX(0), obj),
    "rank_of": rank_of,
    "end_blocks": lambda obj: end_blocks(X, [obj]),
    "check_sod": lambda obj: check_sod(X, [("P", obj)]),
}


@pytest.mark.parametrize("value", [("O", 1), "O(1)", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_what_is_not_a_sheaf_object(entry, value):
    call = ENTRY_POINTS[entry]
    for atom in (OX(0), OZ(1)):
        try:
            call(atom)
        except EngineError:  # refused by its Hom (End(OZ(1)) has Ext^1), not its type
            pass
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        call(value)


def test_contra_sum_target_additive():
    les = les_hom_contra(X, F, [OX(0), OZ(1)])
    assert les.solved_dims(2) == (27, 0, 0, 0)
    # an atom and a one-atom list or sum are one run: one row
    one = les_hom_contra(X, F, OZ(1))
    for B in ([OZ(1)], direct_sum(OZ(1))):
        assert les_hom_contra(X, F, B) is one


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
    """Every elimination entry point raises, yet the P(1^3, 5) kernel grid answers."""
    import conetilt.linalg as linalg

    entries = ("mat_rank", "_columns", "_Echelon")
    originals = {id(getattr(linalg, name)) for name in entries}

    def refuse(*args, **kwargs):
        raise AssertionError("elimination on the engine path")

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


def _hom0_kernel_pair(n, m, e, f):
    """dim Hom^0(F_e, F_f) on P(1^n, m) for 0 < e, f < m, by binomials alone.

    Let S = k[x_1..x_n, y] with deg y = m, R = S/(y) = k[x], c(d) =
    dim R_d = C(d+n-1, n-1) (0 for d < 0), and mu the basis of R_e.  F_e
    is the sheaf of M = {v in S^h : mu.v = 0 in R} = Syz_R(mu) + y.S^h,
    which is reflexive, so Hom(F_e, F_f) = Hom_S(M, M')_0.  M is free
    once y is inverted, so a degree-0 map is a matrix over S[1/y]; as
    y.S^h lies in M it is C + Q/y, C constant and Q over R_m.
    * On Syz_R(mu), Q v must be divisible by y, so Q kills Syz_R(mu):
      Q = q.mu^T with q in R_{m-e}^h', since (mu) = (x)^e has depth >= 2.
    * On y.u, the image C.y.u + q.(mu.u) lies in M' for all u iff
      mu'.q = 0: q is one of the h'.c(m-e) - c(m-e+f) syzygies of mu'
      of degree m - e (mu' spans R_f, so mu'. is onto R_{m-e+f}).
    * On Syz_R(mu) the map is C, and mu'.C kills Syz_R(mu) iff
      mu'.C = g.mu^T for one g in R_{f-e}, which fixes C: c(f-e) choices.
    """

    def c(d):
        return comb(d + n - 1, n - 1) if d >= 0 else 0

    return c(f - e) + c(f) * c(m - e) - c(m - e + f)


def test_kernel_pair_hom0_matches_a_binomial_oracle():
    """Hom^0(F_e, F_e') against _hom0_kernel_pair for n = 2..5, m <= 7 and
    every e, e', and again on square invertible Fraction evaluations,
    which give bundles isomorphic to F_e.  The n = 2 pairs with
    e - e' >= 2 meet the block H^1(Z, e'-e) and are refused."""
    rng = random.Random(25)

    def invertible(space, e):
        h = kernel_bundle(space, e).h
        while True:
            cols = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(h)]
                    for _ in range(h)]
            try:
                return kernel_bundle_custom(space, e, cols)
            except ValueError:  # the draw does not span
                pass

    cases = [(n, m, kernel_bundle) for n in range(2, 6) for m in range(2, 8)]
    cases += [(n, m, invertible) for n, m in ((2, 5), (3, 4), (4, 3), (5, 3))]
    for n, m, bundle in cases:
        space = make_space(n, m)
        bundles = {e: bundle(space, e) for e in range(1, m)}
        for e, K in bundles.items():
            for f, Kp in bundles.items():
                if n == 2 and e - f >= 2:
                    with pytest.raises(PresentationMismatch):
                        hom_objects(space, K, Kp)
                else:
                    dims = hom_objects(space, K, Kp)
                    assert dims[0] == _hom0_kernel_pair(n, m, e, f), (n, m, e, f)


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
    for terms in component_terms(space, Kp):
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
        top = les_hom_contra(space, K, [OX(0)] * Kp.h)
        bottom = les_hom_contra(space, K, [OZ(Kp.e)])
        try:
            pres = cone_presentation(space, K.e, (OZ(Kp.e),))
        except PresentationMismatch:
            continue
        v3 = ext1_map(space, K.e, component_terms(space, Kp), pres, name="v3")
        rank = ladder_propagate(bottom.maps[1].rank, ext1_h0_block(space, K.e, Kp.e))
        cases.append((space, K, Kp, top, bottom, v3, rank))
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
    for space, K, Kp, top, bottom, v3, rank in cases:
        alpha_0 = alpha_map(space, K, [OZ(Kp.e)], 0)
        explicit = _explicit_v1(space, K, Kp, alpha_0.target)
        b1_mod_ker = alpha_0.cokernel()
        r_c = PresentedMap(explicit.source, b1_mod_ker, explicit.columns, name="v1").rank()
        assert r_c == bottom.maps[1].rank, (K, Kp)
        expected = _middle_rank(top, bottom, r_c, v3.rank())
        assert rank == expected, (K, Kp)
    assert len(cases) >= tried // 2


@pytest.mark.parametrize("n, m, custom", LADDER_CONES)
def test_onto_right_vertical_matches_the_explicit_one(n, m, custom):
    """The explicit v3 is onto, so the ladder's dim B3 is its rank."""
    cases, tried = _ladder_cases(n, m, custom)
    for space, K, Kp, top, bottom, v3, rank in cases:
        assert v3.rank() == bottom.terms[3].dim, (K, Kp)
        expected = _middle_rank(top, bottom, bottom.maps[1].rank, v3.rank())
        assert rank == expected, (K, Kp)
    assert len(cases) >= tried // 2


def test_the_derivation_checks_the_counted_dims(monkeypatch):
    """A kernel pair counts its dims; reading its derivation solves the
    ladder and the outer row on the rows, which must give the same dims.

    On the P(1^3,7) and P(1,1,9) grids and on custom bundles, the bottom
    row's rank(B1 -> B2) is the count h dim H^0(Z, e') - dim H^0(Z, e'-e),
    and the outer row solves to the counted dims; a wrong count raises
    EngineError when the derivation is read.
    """
    import conetilt.objects as objects

    cases = []
    for n, m in ((3, 7), (2, 9)):
        space = make_space(n, m)
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        cases += [(space, K, Kp) for K in bundles for Kp in bundles]
    for n, m in ((3, 4), (2, 7)):
        space = make_space(n, m)
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        odd = _custom_bundles(space, random.Random(7))
        cases += [(space, K, Kp) for K in odd for Kp in odd + bundles]
        cases += [(space, K, Kp) for K in bundles for Kp in odd]
    answered = 0
    for space, K, Kp in cases:
        try:
            comp = hom_objects_detailed(space, K, Kp)
        except PresentationMismatch:
            continue
        _, bottom, outer = comp.sequences
        n1 = space.n - 1
        kb = K.h * comb(Kp.e + n1, n1) - (comb(Kp.e - K.e + n1, n1) if Kp.e >= K.e else 0)
        r = ladder_propagate(bottom.maps[1].rank, ext1_h0_block(space, K.e, Kp.e))
        assert bottom.maps[1].rank == kb, (space, K, Kp)
        assert comp.dims == outer.solved_dims(0) and comp.ladders[0].rank == r, (space, K, Kp)
        answered += 1
    assert answered == 359  # 36 + 43 canonical, 72 + 208 custom; the n = 2 gap refuses the rest

    def miscounted(space, e, f, i):
        gap, reached = r3_block_dims(space, e, f, i)
        return gap + 1, reached

    X7 = make_space(3, 7)
    K, Kp = kernel_bundle(X7, 2), kernel_bundle(X7, 5)
    objects._hom_kernel_kernel.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(objects, "r3_block_dims", miscounted)
        wrong = hom_objects_detailed(X7, K, Kp)
    objects._hom_kernel_kernel.cache_clear()
    assert wrong.dims != hom_objects(X7, K, Kp)
    with pytest.raises(
        EngineError,
        match=r"Hom\(ker\(O\^6->OZ\(2\)\), ker\(O\^21->OZ\(5\)\)\) on .*: the outer "
        r"row solves to \(\d+, 0, 0, 0\), the count gives \(\d+, 0, 1, 0\)",
    ):
        wrong.notes


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
                assert pres.dim == ext1_h0_block(space, e, f), (e, f)
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


def _synthetic_names(hows, origin=("synthetic", ())):
    """Names for a synthetic row: terms t0, t1, ... and maps m0, m1, ..."""
    return lambda: (origin, ("t%d",), ("m%d",), hows)


def test_solve_completes_a_synthetic_row():
    # 0 -> k -> k^3 -> ? -> k^2 -> 0 with only the first map known
    hows = ["injective", "exactness", "exactness"]
    les = _solve(LongExactSequence([1, 3, None, 2], [0, 1, None, None, 0], _synthetic_names(hows)))
    assert les.dims == (1, 3, 4, 2) and les.ranks == (0, 1, 2, 2, 0)
    assert [(t.name, t.dim) for t in les.terms] == [("t0", 1), ("t1", 3), ("t2", 4), ("t3", 2)]
    assert [(m.name, m.rank, m.how) for m in les.maps] == [
        ("m0", 1, "injective"), ("m1", 2, "exactness"), ("m2", 2, "exactness"),
    ]
    assert les.check_exactness()


def test_solve_refuses_adjacent_unknown_maps():
    hows = ["injective", "exactness", "exactness", "injective"]
    row = LongExactSequence(
        [1, None, 2, None, 1], [0, 1, None, None, 1, 0], _synthetic_names(hows)
    )
    with pytest.raises(IndeterminateRank, match="synthetic: .* rank of m1$"):
        _solve(row)


def _refusal_of(check):
    try:
        check()
    except EngineError as exc:
        return type(exc), str(exc)
    return None


def test_solve_names_a_failure_as_check_does():
    """_solve checks a row in its one walk and hands a failing row to
    check_exactness: on a solved chase row with one dim or one map rank
    perturbed, or one rank shifted with its two term dims (still exact,
    out of bounds when the rank turns negative), it raises the class and
    text that check_exactness gives on the same row, and nothing when
    check_exactness passes."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def perturbed(data):
        n = data.draw(st.integers(2, 5), "n")
        m = data.draw(st.integers(2, 7), "m")
        space = make_space(n, m)
        K = kernel_bundle(space, data.draw(st.integers(1, m - 1), "e"))
        B = data.draw(st.sampled_from(
            [OX(0), OX(-m), OX(2 * m)] + [OZ(f) for f in range(-m - n, 2 * m)]
        ), "B")
        row = _les_hom_contra_cached(space, K, ((B, 1),))
        dims, ranks = list(row.dims), list(row.ranks)
        delta = data.draw(st.integers(-3, 3).filter(bool), "delta")
        how = data.draw(st.sampled_from(["dim", "rank", "rank and its terms"]), "how")
        if how == "dim":
            dims[data.draw(st.integers(0, len(dims) - 1), "term")] += delta
        else:  # ranks[1:-1] are the maps, ranks[0] and ranks[-1] the padding
            j = data.draw(st.integers(1, len(ranks) - 2), "map")
            ranks[j] += delta
            if how == "rank and its terms":
                dims[j - 1] += delta
                dims[j] += delta
        checked = _refusal_of(
            lambda: LongExactSequence(dims, ranks, row.names).check_exactness()
        )
        solved = _refusal_of(
            lambda: _solve(LongExactSequence(list(dims), list(ranks), row.names))
        )
        assert solved == checked
        assert checked is not None or how == "rank and its terms"

    perturbed()


@pytest.mark.parametrize("n, m", [(2, 5), (3, 4), (3, 7), (4, 3), (4, 5)])
def test_scaled_top_row_equals_the_explicit_row(n, m):
    """h' copies of the cached Hom(-, O) row are Hom(-, O^h'), name for name."""
    space = make_space(n, m)
    copies = sorted({kernel_bundle(space, f).h for f in range(1, m)})
    for e in range(1, m):
        K = kernel_bundle(space, e)
        for hp in copies:
            scaled = _top_row(space, K, hp)
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


def test_the_ladder_facts_hold_on_every_kernel():
    """The two vanishing facts behind ladder_propagate's one sum, on every
    kernel of n = 2..8 with m <= 11 and on Fraction bundles: the one-copy
    row Hom(-, O) has Hom^i(K, O) = 0 for i >= 1 (so gamma_i, i >= 1, has
    a zero source), T4 = Hom^1(O^h, O) = 0, and T1 -> T2 never covers T2.
    Every kernel pair but the n = 2 gap pairs passes ext1_h0_block and
    reaches the ladder."""
    kernels, outcomes = [], {"answered": 0, "PresentationMismatch": 0}
    for n in range(2, 9):
        for m in range(2, 12):
            space = make_space(n, m)
            bundles = [kernel_bundle(space, e) for e in range(1, m)]
            kernels += [(space, K) for K in bundles]
            for K, Kp in ((K, Kp) for K in bundles for Kp in bundles):
                try:
                    ext1_h0_block(space, K.e, Kp.e)
                    outcomes["answered"] += 1
                except PresentationMismatch:
                    outcomes["PresentationMismatch"] += 1
    for space in (make_space(2, 4), make_space(3, 4)):
        kernels += [(space, K) for K in _custom_bundles(space, random.Random(3))]
    for space, K in kernels:
        one = _les_hom_contra_cached(space, K, _O_RUNS)
        assert not any(one.solved_dims(2)[1:]), (space, K)
        assert one.dims[4] == 0 and one.ranks[2] < one.dims[2], (space, K)
    assert len(kernels) == 397
    assert outcomes == {"answered": 2575, "PresentationMismatch": 120}


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


def test_refusals_show_the_rendered_names():
    """Names kept as (format, args) appear rendered in every message."""
    origin = ("Hom(-, %s) along %s", ("O(0)^2", "a synthetic sequence"))
    text = "Hom(-, O(0)^2) along a synthetic sequence"
    hows = ["injective", "exactness", "exactness", "injective"]
    row = LongExactSequence(
        [1, None, 2, None, 1], [0, 1, None, None, 1, 0], _synthetic_names(hows, origin)
    )
    with pytest.raises(IndeterminateRank) as refused:
        _solve(row)
    assert str(refused.value) == text + ": exactness does not pin the rank of m1"
    broken_row = [1, 1], [0, 0, 0], _synthetic_names(["exactness"], origin)
    with pytest.raises(EngineError) as broken:
        _solve(LongExactSequence(*broken_row))
    assert str(broken.value) == text + ": exactness fails at t0: 0 + 0 != 1"
    with pytest.raises(EngineError) as broken:
        LongExactSequence(*broken_row).check_exactness()
    assert str(broken.value) == text + ": exactness fails at t0: 0 + 0 != 1"
    # a chase row takes the names in a message from its rendered records
    row = _les_hom_contra_cached(X, F, ((OZ(1), 1),))
    dims = list(row.dims)
    dims[4] += 1  # Hom^1(O^3, OZ(1))
    with pytest.raises(EngineError) as broken:
        LongExactSequence(dims, row.ranks, row.names).check_exactness()
    assert str(broken.value) == (
        "Hom(-, OZ(1)) along 0 -> F[1] -> O^3 -> OZ(1) -> 0: "
        "exactness fails at Hom^1(O^3, OZ(1)): 0 + 0 != 1"
    )
    with pytest.raises(EngineError) as solved:
        _solve(LongExactSequence(list(dims), list(row.ranks), row.names))
    assert str(solved.value) == str(broken.value)
    les = les_hom_cov(X, OZ(2), F)
    assert les.origin == "Hom(OZ(2), -) along 0 -> F[1] -> O^3 -> OZ(1) -> 0"
    assert [t.name for t in les.terms[:3]] == [
        "Hom^0(OZ(2), F[1])", "Hom^0(OZ(2), O^3)", "Hom^0(OZ(2), OZ(1))",
    ]


def _computed(space, A, B):
    """hom_objects_detailed, or the refusal's class and text."""
    try:
        return hom_objects_detailed(space, A, B)
    except EngineError as exc:
        return ["refused", type(exc).__name__, str(exc)]


def _as_data(comp):
    """A computation's dims and derivation as plain data; a refusal as it is."""
    if isinstance(comp, list):
        return comp
    return [
        list(comp.dims),
        comp.notes,
        [
            [
                les.origin,
                [[t.name, t.dim] for t in les.terms],
                [[f.name, f.rank, f.how] for f in les.maps],
            ]
            for les in comp.sequences
        ],
        [[ladder.rank, ladder.certificate] for ladder in comp.ladders],
    ]


def _derivation(space, A, B):
    """hom_objects_detailed as plain data, or the refusal's class and text."""
    return _as_data(_computed(space, A, B))


ATOM_KERNEL_CONES = ((2, 7), (3, 5), (4, 3))


def _atom_kernel_queries(space):
    """Hom(F_e, A) and Hom(A, F_e) for A = O(d), OZ(d), -2m <= d <= 2m."""
    m = space.m
    for e in range(1, m):
        K = kernel_bundle(space, e)
        for d in range(-2 * m, 2 * m + 1):
            for a in (OX(d), OZ(d)):
                yield K, a
                yield a, K


def _derivations():
    X7 = make_space(3, 7)
    bundles = [kernel_bundle(X7, e) for e in range(1, 7)]
    yield "F->F on P(1^3,7)", [_derivation(X7, K, Kp) for K in bundles for Kp in bundles]
    for n, m in ATOM_KERNEL_CONES:
        space = make_space(n, m)
        yield "atom<->F on P(1^%d,%d)" % (n, m), [
            _derivation(space, A, B) for A, B in _atom_kernel_queries(space)
        ]
    X5 = make_space(3, 5)
    bundles = [kernel_bundle(X5, e) for e in range(1, 5)]
    sums = [
        direct_sum(bundles[0], bundles[3]),
        direct_sum(OX(0), OZ(2), OZ(2)),
        direct_sum(bundles[1], OX(5)),
    ]
    yield "sums on P(1^3,5)", [
        _derivation(X5, A, B) for A in sums for B in sums + bundles
    ] + [_derivation(X5, K, S) for K in bundles for S in sums]


# sha256 of the compact JSON of each family's records, with the number of
# records and of refusals, as the engine gave them before names were
# rendered lazily; the one edit is the rename of the top row's h' equal
# atoms, "O(0)+O(0)+...+O(0)" before, "O(0)^h'" now.  The P(1^3,5) and
# sums families were recorded while the covariant chase still solved
# LongExactSequence records, before it moved to integer rows
DERIVATION_DIGESTS = {
    "F->F on P(1^3,7)": (
        36, 0, "e60f0d397b8f90ec186e436a4f8fb9d745a0c9bfe9d893a46aad65d2cf4d4c41"
    ),
    "atom<->F on P(1^2,7)": (
        696, 345, "9204e5adff6823cab508b0cb52ad0861adacde67297946edbdd123a7b2652d7f"
    ),
    "atom<->F on P(1^3,5)": (
        336, 128, "ed9103c721fcceb893f1db0f142f52ced18df50fda7aa566c528645c1332e84a"
    ),
    "atom<->F on P(1^4,3)": (
        104, 32, "75890c875fb34ca07853e846e6109f81ca86183ad14e3dc542ea416e5cf7a583"
    ),
    "sums on P(1^3,5)": (
        33, 0, "cd9ec4fe4eb327f52ccbb4ba94cb6cbab0f0bcaaa8205a9ce7eb544081687c63"
    ),
}


def _digest(records):
    """(records, refusals, sha256 of the compact JSON) of a family."""
    text = json.dumps(records, separators=(",", ":"))
    refused = sum(r[0] == "refused" for r in records)
    return len(records), refused, hashlib.sha256(text.encode()).hexdigest()


def test_derivation_records_are_pinned():
    """Notes, origins, term (name, dim), map (name, rank, how), ladder
    certificates and refusal texts, unchanged but for the O(0)^h' rename."""
    found = {family: _digest(records) for family, records in _derivations()}
    assert found == DERIVATION_DIGESTS
    X7 = make_space(3, 7)
    F1 = kernel_bundle(X7, 1)
    top = hom_objects_detailed(X7, F1, F1).sequences[0]
    assert top.origin == "Hom(-, O(0)^3) along 0 -> F[1] -> O^3 -> OZ(1) -> 0"
    assert top.terms[0].name == "Hom^0(OZ(1), O(0)^3)"


def test_the_chase_builds_no_space(monkeypatch):
    """hom_objects reads integers only: with cold caches no kernel-kernel,
    atom -> kernel or kernel -> atom query builds a space of any kind."""
    import conetilt.linalg as linalg

    built = []

    def counting(cls):
        init = vars(cls)["__init__"]

        def spy(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        return spy

    for cls in (linalg.DirectSpace, linalg.DirectSum):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    for modname in ("conetilt.cone", "conetilt.rules", "conetilt.objects"):
        for value in vars(sys.modules[modname]).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    answered = 0
    for n, m in ((2, 7), (3, 5), (4, 3)):
        space = make_space(n, m)
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        queries = [(K, Kp) for K in bundles for Kp in bundles]
        for d in range(-m, m + 1):
            for a in (OX(d), OZ(d)):
                queries += [(K, a) for K in bundles] + [(a, K) for K in bundles]
        for A, B in queries:
            try:
                hom_objects(space, A, B)
            except EngineError:
                continue
            answered += 1
    assert answered > 300  # 399 with the rule domain of this engine
    assert built == []


def _clear_caches():
    for modname in ("conetilt.cone", "conetilt.rules", "conetilt.objects"):
        for value in vars(sys.modules[modname]).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _count_records(monkeypatch):
    """From now on, name the class of every LESTerm, LESMap and
    LadderResult built in `built`, and keep every row built in `rows`."""
    import conetilt.objects as objects

    built, rows = [], []

    def counting(cls):
        init = vars(cls)["__init__"]

        def spy(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        return spy

    for cls in (LESTerm, LESMap, objects.LadderResult):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    init = vars(LongExactSequence)["__init__"]

    def keep(self, *args):
        rows.append(self)
        init(self, *args)

    monkeypatch.setattr(LongExactSequence, "__init__", keep)
    return built, rows


def _with_records(rows):
    """The rows whose term and map records are built."""
    return [row for row in rows if "terms" in vars(row) or "maps" in vars(row)]


def test_the_kernel_chase_builds_no_record(monkeypatch):
    """A kernel pair is answered from integers: with cold caches hom_objects
    builds no term, map or ladder record, and no row's term and map
    records, on a pair or a sum of pairs, answered or refused.  Reading
    the derivation builds them."""
    built, rows = _count_records(monkeypatch)
    _clear_caches()
    comps, refused = [], 0
    for n, m in ((2, 7), (3, 5), (4, 3), (2, 9)):
        space = make_space(n, m)
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        for K in bundles:
            for Kp in bundles:
                try:
                    hom_objects(space, K, Kp)
                except PresentationMismatch:
                    refused += 1
                    continue
                comps.append(hom_objects_detailed(space, K, Kp))
    X5 = make_space(3, 5)
    pair = direct_sum(kernel_bundle(X5, 1), kernel_bundle(X5, 4))
    sums = [hom_objects_detailed(X5, pair, kernel_bundle(X5, 2)),
            hom_objects_detailed(X5, kernel_bundle(X5, 3), pair)]
    assert (len(comps), refused) == (89, 31)  # 10 refused on P(1,1,7), 21 on P(1,1,9)
    assert built == [] and rows and _with_records(rows) == []
    for comp in comps:
        assert [len(les.terms) for les in comp.sequences] == [3 * len(comp.dims)] * 3
        assert comp.sequences[2].solved_dims(0) == comp.dims
        assert len(comp.ladders) == len(comp.notes) == 1
    assert built.count("LadderResult") == len(comps)
    assert len(_with_records(rows)) >= 2 * len(comps)
    for comp in sums:
        assert len(comp.sequences) == 6 and len(comp.ladders) == 2


# the notes of the atom<->atom rows of the built-in reports, by instance
ATOM_ROW_NOTES = {
    "P1113": [
        "Hom(O(0), O(0)) by rule R1",
        "Hom(O(0), OZ(1)) by rule R2",
        "Hom(O(0), OZ(2)) by rule R2",
        "Hom(OZ(1), O(0)) by rule R4",
        "Hom(OZ(2), O(0)) by rule R4",
        "Hom(OZ(1), OZ(1)) by rule R3",
        "Hom(OZ(1), OZ(2)) by rule R3",
        "Hom(OZ(2), OZ(1)) by rule R3",
    ],
    "P112": [
        "Hom(O(0), O(0)) by rule R1",
        "Hom(O(0), OZ(1)) by rule R2",
        "Hom(OZ(1), O(0)) by rule R4",
        "Hom(O(0), O(-2)) by rule R1",
    ],
}


def test_atom_kernel_queries_build_no_record_until_read(monkeypatch):
    """With cold caches the atom<->F queries of P(1^2,7), P(1^3,5) and
    P(1^4,3) name nothing: no row calls its names builder, renders its
    origin or builds a term or map record, and no note is written; nor
    does an atom<->atom row of the P1113 and P112 reports write its
    note.  Reading a row's origin alone builds none of its records.
    Reading the derivations builds the notes and the records of every
    row, with the texts, names and dims DERIVATION_DIGESTS pins, and
    calls each row's names builder once."""
    import conetilt.objects as objects
    from conetilt.report import BUILTIN_INSTANCES, get_instance

    named = []
    for builder in ("_contra_names", "_cov_names"):
        real = getattr(objects, builder)
        monkeypatch.setattr(
            objects, builder, lambda *args, real=real: named.append(real) or real(*args)
        )
    built, rows = _count_records(monkeypatch)
    _clear_caches()
    for n, m in ATOM_KERNEL_CONES:
        space = make_space(n, m)
        comps = [_computed(space, A, B) for A, B in _atom_kernel_queries(space)]
        answered = [comp for comp in comps if not isinstance(comp, list)]
        assert named == [] and built == [] and rows, (n, m)
        assert [row for row in rows if "origin" in vars(row)] == [], (n, m)
        assert _with_records(rows) == [], (n, m)
        assert [comp for comp in answered if "notes" in vars(comp)] == [], (n, m)
        assert all(row.origin for row in rows) and _with_records(rows) == [], (n, m)
        records = [_as_data(comp) for comp in comps]
        assert _digest(records) == DERIVATION_DIGESTS["atom<->F on P(1^%d,%d)" % (n, m)]
        assert _with_records(rows) == rows
        assert len(named) == len(rows), (n, m)  # one names() call per row
        assert built.count("LESTerm") == sum(len(row.dims) for row in rows)
        assert built.count("LESMap") == sum(len(row.dims) - 1 for row in rows)
        named.clear()
        built.clear()
        rows.clear()
    for name, (_, report_rows, _) in BUILTIN_INSTANCES.items():
        cfg = get_instance(name)
        pairs = [(cfg.objects[a], cfg.objects[b]) for _, a, b, _ in report_rows]
        comps = [hom_objects_detailed(cfg.space, A, B) for A, B in pairs
                 if isinstance(A, Atom) and isinstance(B, Atom)]
        assert [comp for comp in comps if "notes" in vars(comp)] == [], name
        assert [comp.notes for comp in comps] == [[note] for note in ATOM_ROW_NOTES[name]]
        assert all(comp.sequences == comp.ladders == [] for comp in comps)
    assert named == built == rows == []


def test_kernel_pairs_read_the_count_table(monkeypatch):
    """The kernel-kernel chase reads every rule count by twist difference:
    with cold caches no kernel pair constructs a GradedHom, and the (m-1)^2
    pairs of a cone leave at most 4m entries in the count table (R3 at
    f - e, R2 at f, R4 at -e and R1 at 0), not one per pair."""
    import conetilt.rules as rules

    built = []
    init = vars(rules.GradedHom)["__init__"]

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rules.GradedHom, "__init__", spy)
    for n, m in ((3, 7), (2, 9), (3, 30)):
        _clear_caches()
        space = make_space(n, m)
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        for K in bundles:
            for Kp in bundles:
                try:
                    hom_objects(space, K, Kp)
                except PresentationMismatch:
                    pass
        assert built == [], (n, m)
        assert rules._counts.cache_info().currsize <= 4 * m, (n, m)


def _solve_records(les):
    """Fill in the unknown dims and padded ranks of a row and check it.

    A reference that shares no code with objects._solve: it sweeps the
    maps and the terms until nothing changes, pinning a rank at a term of
    known dimension whose other map is known (the padding stands for the
    zero maps beyond either end) and a dimension from its two ranks,
    then checks exactness.
    """
    dims, ranks = les.dims, les.ranks
    changed = True
    while changed:
        changed = False
        for j in range(1, len(ranks) - 1):  # map j - 1, from term j - 1 to term j
            for term, other in ((j - 1, j - 1), (j, j + 1)):
                if ranks[j] is None and dims[term] is not None and ranks[other] is not None:
                    ranks[j], changed = dims[term] - ranks[other], True
        for j, dim in enumerate(dims):
            if dim is None and ranks[j] is not None and ranks[j + 1] is not None:
                dims[j], changed = ranks[j] + ranks[j + 1], True
    for j, rank in enumerate(ranks):
        if rank is None:
            raise IndeterminateRank(
                "%s: exactness does not pin the rank of %s"
                % (les.origin, les.maps[j - 1].name)
            )
    les.dims, les.ranks = tuple(dims), tuple(ranks)
    les.check_exactness()
    return les


def _record_ladder(top, bottom):
    """The ladder's rank and certificate, read off its two record rows."""
    r_kb, r_v3 = bottom.maps[1].rank, bottom.terms[3].dim
    rank = _middle_rank(top, bottom, r_kb, r_v3)
    if top.maps[1].rank == top.terms[2].dim:
        return rank, "middle term is covered by the first map; rank forced to %d" % rank
    return rank, (
        "image part saturated (rank %d = rank of %s); quotient part "
        "contributes %d through the right vertical; middle rank %d"
        % (r_kb, bottom.maps[1].name, r_v3, rank)
    )


def _record_chase(space, K, Kp):
    """The kernel-kernel chase on records, as the engine ran it before its
    rows were integers: the top row solved for h' copies of O, the ladder
    read off the two LongExactSequence rows and the outer row solved by
    the sweep of _solve_records.  Returns the derivation in the form of
    _derivation."""
    _check_bundle(space, Kp)
    top = les_hom_contra(space, K, [OX(0)] * Kp.h)
    bottom = les_hom_contra(space, K, [OZ(Kp.e)])
    ext1_h0_block(space, K.e, Kp.e)
    rank, certificate = _record_ladder(top, bottom)
    dimsP, dimsQ = top.solved_dims(2), bottom.solved_dims(2)
    for i in range(1, space.n + 1):
        if dimsP[i] and dimsQ[i]:
            raise IndeterminateRank(
                "rank of Hom^%d(F[%d], O^%d) -> Hom^%d(F[%d], OZ(%d)) is not "
                "determined by the available diagrams" % (i, K.e, Kp.h, i, K.e, Kp.e)
            )
    dims, ranks = [], [0]
    for i in range(space.n + 1):
        dims += [None, dimsP[i], dimsQ[i]]
        ranks += [None, rank if i == 0 else 0, None]  # inc_i, gamma_i, delta_i
    ranks[-1] = 0  # the padding past the last term, no delta_n
    names = (
        ("Hom(F[%d], -) along 0 -> F[%d] -> O^%d -> OZ(%d) -> 0", (K.e, Kp.e, Kp.h, Kp.e)),
        (
            "Hom^%%d(F[%d],F[%d])" % (K.e, Kp.e),
            "Hom^%%d(F[%d],O^%d)" % (K.e, Kp.h),
            "Hom^%%d(F[%d],OZ(%d))" % (K.e, Kp.e),
        ),
        ("inc_%d", "gamma_%d", "delta_%d"),
        ["exactness", "ladder", "exactness"] + ["exactness", "zero-side", "exactness"] * space.n,
    )
    outer = _solve_records(LongExactSequence(dims, ranks, lambda: names))
    note = "resolved F[%d] contravariantly, then F[%d] covariantly; ladder: %s" % (
        K.e, Kp.e, certificate
    )
    return [
        list(outer.solved_dims(0)),
        [note],
        [
            [les.origin, [[t.name, t.dim] for t in les.terms],
             [[f.name, f.rank, f.how] for f in les.maps]]
            for les in (top, bottom, outer)
        ],
        [[rank, certificate]],
    ]


def _expected(space, A, B):
    """_record_chase on a kernel pair, added up over the summands of a sum."""
    if isinstance(A, SumObject) or isinstance(B, SumObject):
        parts = [(o, B) for o, _ in A.parts] if isinstance(A, SumObject) else [
            (A, o) for o, _ in B.parts
        ]
        records = [_expected(space, a, b) for a, b in parts]
        refusals = [r for r in records if r[0] == "refused"]
        if refusals:
            return refusals[0]
        return [
            [sum(dims) for dims in zip(*(r[0] for r in records))],
            *([x for r in records for x in r[k]] for k in (1, 2, 3)),
        ]
    try:
        return _record_chase(space, A, B)
    except EngineError as exc:
        return ["refused", type(exc).__name__, str(exc)]


def _parity_queries():
    for n in range(2, 6):
        for m in range(2, 8):
            space = make_space(n, m)
            bundles = [kernel_bundle(space, e) for e in range(1, m)]
            yield space, [(K, Kp) for K in bundles for Kp in bundles]
    X9 = make_space(2, 9)
    bundles = [kernel_bundle(X9, e) for e in range(1, 9)]
    yield X9, [(K, Kp) for K in bundles for Kp in bundles]
    for n, m in ((2, 4), (3, 4)):
        space = make_space(n, m)
        odd = _custom_bundles(space, random.Random(11))
        bundles = [kernel_bundle(space, e) for e in range(1, m)]
        pairs = [(K, Kp) for K in odd for Kp in odd + bundles]
        pairs += [(K, Kp) for K in bundles for Kp in odd]
        pairs += [(direct_sum(*bundles), Kp) for Kp in bundles]
        pairs += [(K, direct_sum(odd[0], bundles[-1], odd[-1])) for K in bundles]
        yield space, pairs
    X3 = make_space(3, 3)
    yield X3, [(kernel_bundle(X3, 1), kernel_bundle(make_space(3, 4), 3))]


def _dims_or_refusal(space, A, B):
    try:
        return hom_objects(space, A, B)
    except EngineError as exc:
        return ["refused", type(exc).__name__, str(exc)]


def test_the_integer_chase_matches_the_record_chase():
    """On every kernel pair of n = 2..5 with m <= 7, every pair of P(1,1,9)
    (21 refused for their n = 2 block), Fraction bundles, sums and a
    bundle of another cone: the dims of hom_objects and the derivation,
    whichever is read first on cold caches, equal the chase run on
    records, or refuse with its class and text."""
    counts = {}
    for space, pairs in _parity_queries():
        for A, B in pairs:
            expected = _expected(space, A, B)
            _clear_caches()
            dims_first = _dims_or_refusal(space, A, B)
            assert _derivation(space, A, B) == expected, (space, A, B)
            _clear_caches()
            assert _derivation(space, A, B) == expected, (space, A, B)
            assert _dims_or_refusal(space, A, B) == dims_first
            if expected[0] == "refused":
                assert dims_first == expected
                outcome = expected[1]
            else:
                outers = expected[2][2::3]  # the outer row of each kernel pair
                assert list(dims_first) == expected[0] == [
                    sum(les[1][3 * i][1] for les in outers) for i in range(space.n + 1)
                ]
                outcome = "answered"
            counts[outcome] = counts.get(outcome, 0) + 1
    assert counts == {"answered": 533, "PresentationMismatch": 51, "ShapeMismatch": 1}


def _kernel_grid(space):
    bundles = [kernel_bundle(space, e) for e in range(1, space.m)]
    return [(K, Kp) for K in bundles for Kp in bundles]


def test_gap_pairs_refuse_before_any_row(monkeypatch):
    """A kernel pair runs its checks before it builds a row: with cold
    caches each of the 21 n = 2 gap pairs of P(1,1,9) constructs no
    LongExactSequence and refuses with the class and text of the chase on
    records."""
    space = make_space(2, 9)
    expected = {(K, Kp): _expected(space, K, Kp) for K, Kp in _kernel_grid(space)}
    gaps = [pair for pair, record in expected.items() if record[0] == "refused"]
    assert len(gaps) == 21
    built = []
    init = vars(LongExactSequence)["__init__"]

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(LongExactSequence, "__init__", spy)
    for K, Kp in gaps:
        _clear_caches()
        refusal = _dims_or_refusal(space, K, Kp)
        assert refusal == expected[K, Kp] and refusal[1] == "PresentationMismatch"
        assert built == [], (K.e, Kp.e)


def test_kernel_grids_build_the_scaled_top_row_on_read(monkeypatch):
    """The ladder reads no top row and the outer row reads the one-copy
    row Hom(-, O): cold grids of P(1^3, 7) and P(1,1,9) call _top_row only
    when a derivation's sequences are read, once per pair read."""
    import conetilt.objects as objects

    calls = []
    top_row = objects._top_row

    def spy(*args):
        calls.append(args)
        return top_row(*args)

    monkeypatch.setattr(objects, "_top_row", spy)
    for n, m in ((3, 7), (2, 9)):
        _clear_caches()
        space = make_space(n, m)
        comps = []
        for K, Kp in _kernel_grid(space):
            try:
                comps.append((K, Kp, hom_objects_detailed(space, K, Kp)))
            except PresentationMismatch:
                pass
        assert len(comps) == {7: 36, 9: 43}[m] and calls == [], (n, m)
        K, Kp, comp = comps[-1]
        top = comp.sequences[0]
        assert calls == [(space, K, Kp.h)]
        assert top.solved_dims(2) == les_hom_contra(space, K, [OX(0)] * Kp.h).solved_dims(2)
        calls.clear()


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
    objs = [F, G, OX(0), OX(3)]
    for a in objs:
        for b in objs:
            dims = hom_objects(X, a, b)
            assert all(d == 0 for d in dims[1:]), (a, b, dims)
    surf = [FS, OX(0), OX(-2)]
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
