"""Tilting verdicts, block matrices, decomposition and window checks."""

import pytest

from conetilt.cone import make_space
from conetilt.linalg import EngineError
from conetilt.objects import HomComputation, SumObject, direct_sum, kernel_bundle
from conetilt.report import Report
from conetilt.rules import OX, OZ
from conetilt.tilting import (
    SODReport,
    StackWindowReport,
    TiltingVerdict,
    check_sod,
    end_blocks,
    stack_exceptional_check,
    stack_hom_dims,
)

X = make_space(3, 3)
S = make_space(2, 2)
F = kernel_bundle(X, 1)
G = kernel_bundle(X, 2)
FS = kernel_bundle(S, 1)


def _tilting(space, T):
    return check_sod(space, [("T", T)]).tilting[0]


def test_is_tilting_examples():
    v = _tilting(X, direct_sum(F, G))
    assert v.ok and v.end_dim == 45
    v = _tilting(X, OX(0))
    assert v.ok and v.end_dim == 1
    v = _tilting(X, OZ(1))
    assert not v.ok and v.dims == (1, 10, 0, 0)


def test_end_blocks_threefold():
    blocks = end_blocks(X, [F, G], ["F", "G"])
    assert blocks.matrix == [[9, 24], [3, 9]]
    assert blocks.total == 45
    assert blocks.ranks == [3, 6]


def test_end_blocks_trivial_and_surface():
    assert end_blocks(X, [OX(0)]).matrix == [[1]]
    assert end_blocks(S, [FS]).matrix == [[2]]


def test_end_blocks_rejects_higher_degrees():
    with pytest.raises(EngineError):
        end_blocks(X, [OZ(1)])  # Ext^1(OZ(1), OZ(1)) = k^10 survives


def test_check_sod_threefold_passes():
    rep = check_sod(X, [("FG", direct_sum(F, G)), ("O", OX(0)), ("O3", OX(3))])
    assert rep.ok
    assert rep.blocks == [45, 1, 1]
    assert rep.ranks == [9, 1, 1]
    assert rep.block_detail[0].matrix == [[9, 24], [3, 9]]
    assert "assumed" in rep.generation_note
    # the vanishing corner of the pairwise matrix
    assert rep.pairwise[1][0] == (0, 0, 0, 0)
    assert rep.pairwise[2][0] == (0, 0, 0, 0)
    assert rep.pairwise[2][1] == (0, 0, 0, 0)


def test_check_sod_surface_passes():
    rep = check_sod(S, [("Om2", OX(-2)), ("FS", FS), ("O", OX(0))])
    assert rep.ok
    assert rep.blocks == [1, 2, 1]


def test_check_sod_reversed_fails():
    rep = check_sod(X, [("O3", OX(3)), ("O", OX(0))])
    assert not rep.ok
    assert "Hom*(O, O3)" in rep.first_violation
    # dimension 11 = weighted monomial count at degree 3
    assert rep.pairwise[1][0] == (11, 0, 0, 0)


def test_check_sod_not_tilting_is_first_violation():
    rep = check_sod(X, [("OZ1", OZ(1)), ("O", OX(0))])
    assert not rep.ok and "not tilting" in rep.first_violation


def test_sod_invariant_under_self_sums():
    """Replacing a slot by a direct sum of copies of itself keeps the verdict."""
    base = [("FG", direct_sum(F, G)), ("O", OX(0)), ("O3", OX(3))]
    rep = check_sod(X, base)
    doubled = [
        ("FG2", SumObject(((direct_sum(F, G), 2),))),
        ("O", OX(0)),
        ("O3", OX(3)),
    ]
    rep2 = check_sod(X, doubled)
    assert rep.ok == rep2.ok is True
    failing = [("O3", OX(3)), ("O", OX(0))]
    failing2 = [("O32", SumObject(((OX(3), 2),))), ("O", OX(0))]
    assert check_sod(X, failing).ok == check_sod(X, failing2).ok is False


def test_tilting_of_sum_equals_blockwise_vanishing():
    """A + B is tilting iff all four graded blocks vanish in degree > 0."""
    pairs = [(F, G), (F, OX(0)), (OZ(1), OX(0))]
    from conetilt.objects import hom_objects

    for a, b in pairs:
        whole = _tilting(X, direct_sum(a, b)).ok
        blocks = [
            hom_objects(X, x, y)[1:] for x in (a, b) for y in (a, b)
        ]
        assert whole == all(all(d == 0 for d in dims) for dims in blocks)


def test_stack_window_examples():
    assert stack_exceptional_check(X, 0, 5).ok
    bad = stack_exceptional_check(X, 0, 6)
    assert not bad.ok
    assert "O(6)" in bad.first_violation and "O(0)" in bad.first_violation
    assert stack_exceptional_check(X, 0, 0).ok


def test_stack_hom_dims_rule():
    # on the stack every twist is invertible: Hom^3(O(6), O) = k
    assert stack_hom_dims(X, 6, 0) == (0, 0, 0, 1)
    assert stack_hom_dims(X, 0, 0) == (1, 0, 0, 0)


def test_stack_window_surface():
    assert stack_exceptional_check(S, 0, 3).ok
    assert not stack_exceptional_check(S, 0, 4).ok


def test_rank_square_identity():
    """The total End dimension against the sum of squared summand ranks."""
    blocks = end_blocks(X, [F, G], ["F", "G"])
    assert blocks.total == 45 and sum(r * r for r in blocks.ranks) == 45
    sblocks = end_blocks(S, [FS], ["FS"])
    assert (sblocks.total, sum(r * r for r in sblocks.ranks)) == (2, 4)
    trivial = end_blocks(X, [OX(0)], ["O"])
    assert trivial.total == sum(r * r for r in trivial.ranks) == 1


def test_sod_report_reproduces_vanishing_pattern():
    """The report must show exactly the published vanishing and blocks."""
    rep = check_sod(X, [("FG", direct_sum(F, G)), ("O", OX(0)), ("O3", OX(3))])
    # later-to-earlier all vanish
    for i in range(3):
        for j in range(i):
            assert rep.pairwise[i][j] == (0, 0, 0, 0)
    # earlier-to-later as computed from the tables
    assert rep.pairwise[0][1] == (18, 0, 0, 0)
    assert rep.pairwise[0][2] == (135, 0, 0, 0)
    assert rep.pairwise[1][2] == (11, 0, 0, 0)


def test_check_sod_on_p11111_5():
    """<F_1+...+F_4, O, O(5)> on P(1^5, 5): a scale check of the kernel chase."""
    X5 = make_space(5, 5)
    Fs = direct_sum(*[kernel_bundle(X5, e) for e in range(1, 5)])
    rep = check_sod(X5, [("F", Fs), ("O", OX(0)), ("O5", OX(5))])
    assert rep.ok
    assert rep.blocks == [13125, 1, 1]
    for i in range(3):
        for j in range(i):
            assert rep.pairwise[i][j] == (0,) * 6


def test_check_sod_on_p111111_6():
    """<F_1+...+F_5, O, O(6)> on P(1^6, 6): the largest cone of the family checked."""
    X6 = make_space(6, 6)
    Fs = direct_sum(*[kernel_bundle(X6, e) for e in range(1, 6)])
    rep = check_sod(X6, [("F", Fs), ("O", OX(0)), ("O6", OX(6))])
    assert rep.ok
    assert rep.blocks == [194986, 1, 1]
    for i in range(3):
        for j in range(i):
            assert rep.pairwise[i][j] == (0,) * 7


def test_records_keep_their_fields_defaults_and_fresh_lists():
    a, b = HomComputation((1, 0)), HomComputation(dims=(1, 0))
    assert a == b and a.notes == a.ladders == a.sequences == []
    a.notes.append("x")
    assert b.notes == [] and a != b
    fields = (X, ["T"], [OX(0)], [[(1, 0, 0, 0)]], [], [1], [None], [1], True)
    report = SODReport(*fields)
    assert (report.first_violation, report.generation_note, report.notes) == (None, "", [])
    assert report == SODReport(**dict(zip(SODReport._fields, fields)))
    assert SODReport(*fields, notes=["n"]).notes == ["n"]
    assert StackWindowReport((0, 1), ok=True).first_violation is None
    assert StackWindowReport((0, 1), True, "x") == StackWindowReport(
        first_violation="x", ok=True, window=(0, 1)
    )
    # every list default is a fresh list for each record
    first, second = Report("P1113", "P(1,1,1,3)"), Report("P1113", "P(1,1,1,3)")
    for field in ("rows", "verdicts", "notes"):
        assert getattr(first, field) == [] and getattr(first, field) is not getattr(second, field)
    assert report.notes is not SODReport(*fields).notes
    verdict = TiltingVerdict(True, 1, (1, 0))
    assert repr(verdict) == "TiltingVerdict(ok=True, end_dim=1, dims=(1, 0))"
    assert verdict == TiltingVerdict(ok=True, end_dim=1, dims=(1, 0))
    assert verdict != TiltingVerdict(True, 2, (2, 0)) and verdict != (True, 1, (1, 0))
    with pytest.raises(TypeError):
        hash(verdict)
    for build, message in [
        (lambda: TiltingVerdict(True, 1), "TiltingVerdict is missing field 'dims'"),
        (lambda: StackWindowReport(ok=True), "StackWindowReport is missing field 'window'"),
        (lambda: TiltingVerdict(True, 1, (1, 0), size=2), "TiltingVerdict has no field 'size'"),
        (lambda: TiltingVerdict(True, 1, (1, 0), (1,)), "TiltingVerdict takes 3 fields, got 4"),
        (lambda: TiltingVerdict(True, 1, (1, 0), ok=False), "TiltingVerdict got field 'ok' twice"),
    ]:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message
