"""Property tests of the rule table: counted dims against listed bases.

`hom_atoms` takes each degree's dims from the count table, keyed by the
kind pair and the twist difference; the reference `rule_space` lists
the same rule blocks with the bases of `cone`.  Both must agree, as
must the refusals.  The chase reads the same table through
`hom_counts`, `r3_block_dims` and `ext1_h0_block`, which build no
GradedHom; they must give what `hom_atoms` gives.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from explicit_maps import rule_space  # noqa: E402

from conetilt.cone import make_space  # noqa: E402
from conetilt.rules import (  # noqa: E402
    CONE,
    SECTION,
    Atom,
    OutOfValidity,
    PresentationMismatch,
    ext1_h0_block,
    hom_atoms,
    hom_counts,
    r3_block_dims,
)

LISTED_UP_TO = 2000  # list a basis to count it again only when it is this small


def _expected_refusal(space, A, B):
    """The OutOfValidity text of the rule table, or None for a valid pair."""
    if A.kind == CONE and B.kind == CONE and A.twist % space.m:
        return (
            "graded Hom(%s, %s): source twist is not invertible; only the "
            "degree-0 reflexive Hom is defined (rule R0)" % (A, B)
        )
    if A.kind == SECTION and B.kind == CONE and B.twist % space.m:
        return (
            "graded Hom(%s, %s): target twist is not invertible; rule R4 "
            "does not apply" % (A, B)
        )
    return None


@st.composite
def atom_pairs(draw):
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 7))
    twists = st.integers(-2 * m, 2 * m)
    kinds = st.sampled_from((CONE, SECTION))
    A = Atom(draw(kinds), draw(twists))
    B = Atom(draw(kinds), draw(twists))
    return make_space(n, m), A, B


@settings(max_examples=400, deadline=None)
@given(atom_pairs())
def test_counted_dims_agree_with_the_built_spaces(pair):
    space, A, B = pair
    refusal = _expected_refusal(space, A, B)
    try:
        gh = hom_atoms(space, A, B)
    except OutOfValidity as exc:
        assert str(exc) == refusal
        with pytest.raises(OutOfValidity) as listed:
            rule_space(space, A, B, 0)
        assert str(listed.value) == refusal
        return
    assert refusal is None
    assert gh.dims == tuple(map(sum, gh.block_dims))
    for i, dim in enumerate(gh.dims):
        if dim > LISTED_UP_TO:
            continue
        listed = rule_space(space, A, B, i)
        blocks = listed.blocks if gh.rule == "R3" else (listed,)
        assert listed.dim == dim
        assert gh.block_dims[i] == tuple(block.dim for block in blocks)
        if gh.rule == "R3":
            assert r3_block_dims(space, A.twist, B.twist, i) == gh.block_dims[i]


@settings(max_examples=400, deadline=None)
@given(atom_pairs())
def test_count_lookups_agree_with_hom_atoms(pair):
    space, A, B = pair
    try:
        gh = hom_atoms(space, A, B)
    except OutOfValidity as exc:
        with pytest.raises(OutOfValidity) as counted:
            hom_counts(space, A, B)
        assert str(counted.value) == str(exc)
    else:
        assert hom_counts(space, A, B) == (gh.dims, gh.block_dims)
    # the integer lookups of the chase, on the drawn twists as section twists
    e, f = A.twist, B.twist
    r3 = hom_atoms(space, Atom(SECTION, e), Atom(SECTION, f))
    for i in range(space.n + 1):
        assert r3_block_dims(space, e, f, i) == r3.block_dims[i]
    gap, reached = r3.block_dims[1]
    if gap:
        with pytest.raises(PresentationMismatch) as refused:
            ext1_h0_block(space, e, f)
        assert str(refused.value) == (
            "Ext^1(OZ(%d), OZ(%d)): presentation gives %d, rules give %d"
            % (e, f, reached, gap + reached)
        )
    else:
        assert ext1_h0_block(space, e, f) == reached
