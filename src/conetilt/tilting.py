"""Verification layer: tilting objects, semiorthogonality, block dimensions.

A report never fakes a check it cannot perform: generation of the
derived category by the listed objects has no finite certificate in
this engine, so it is recorded as an assumption, and the remaining
hypotheses (each object tilting, Hom vanishing from later to earlier)
are verified computationally.
"""

from __future__ import annotations

from itertools import chain

from .cone import Record, cone_cohomology_dim, regime_notes
from .linalg import EngineError
from .objects import as_object, hom_objects, rank_of, SumObject


class TiltingVerdict(Record):
    _fields = ("ok", "end_dim", "dims")


class EndBlocks(Record):
    # matrix[i][j] = dim Hom(T_i, T_j) in degree 0
    _fields = ("names", "ranks", "matrix", "total")


def end_blocks(space, summands, names=None):
    """Degree-0 block dimension matrix [dim Hom(T_i, T_j)].

    It is an error if any pair has Hom in a positive degree: the blocks
    only describe an endomorphism algebra when everything is
    concentrated in degree 0.
    """
    summands = [as_object(o) for o in summands]
    if names is None:
        names = [str(o) for o in summands]
    matrix = []
    for a in summands:
        row = []
        for b in summands:
            dims = hom_objects(space, a, b)
            if any(dims[1:]):
                raise EngineError(
                    "Hom(%s, %s) is not concentrated in degree 0: %s"
                    % (a, b, dims)
                )
            row.append(dims[0])
        matrix.append(row)
    total = sum(sum(row) for row in matrix)
    return EndBlocks(list(names), [rank_of(o) for o in summands], matrix, total)


class SODReport(Record):
    # pairwise[i][j] = graded dims of Hom^*(P_i, P_j); blocks[i] = dim End(P_i);
    # block_detail[i] = EndBlocks of slot i (None when not available)
    _fields = (
        "space", "names", "objects", "pairwise", "tilting", "blocks",
        "block_detail", "ranks", "ok", "first_violation", "generation_note", "notes",
    )
    _defaults = {"first_violation": None, "generation_note": "", "notes": []}

    def summary(self):
        verdict = "PASS" if self.ok else "FAIL (%s)" % self.first_violation
        return "SOD <%s>: %s; End dims %s" % (
            ", ".join(self.names),
            verdict,
            tuple(self.blocks),
        )


_GENERATION_NOTE = (
    "generation of the derived category by the listed objects is "
    "assumed, not checked (no finite certificate)"
)


def check_sod(space, named_objects):
    """Check the hypotheses for an ordered semiorthogonal collection.

    Verifies that each object is tilting and that Hom^*(P_i, P_j)
    vanishes for i > j; emits the full pairwise graded Hom matrix.
    Failures are report outcomes, not errors.
    """
    names = [n for n, _ in named_objects]
    objects = [as_object(o) for _, o in named_objects]
    k = len(objects)
    pairwise = [
        [hom_objects(space, objects[i], objects[j]) for j in range(k)]
        for i in range(k)
    ]
    tilting = [
        TiltingVerdict(
            all(d == 0 for d in pairwise[i][i][1:]),
            pairwise[i][i][0],
            pairwise[i][i],
        )
        for i in range(k)
    ]
    # tilting failures first, then the first i > j with Hom*(P_i, P_j) != 0
    violations = chain(
        ("object %s is not tilting: %s" % (names[i], pairwise[i][i][1:])
         for i in range(k) if not tilting[i].ok),
        ("Hom*(%s, %s) = %s is nonzero" % (names[i], names[j], pairwise[i][j])
         for i in range(k) for j in range(i) if any(pairwise[i][j])),
    )
    first = next(violations, None)
    block_detail = []
    for obj in objects:
        if isinstance(obj, SumObject) and all(k == 1 for _, k in obj.parts):
            try:
                block_detail.append(
                    end_blocks(space, [o for o, _ in obj.parts])
                )
            except EngineError:
                block_detail.append(None)
        else:
            block_detail.append(None)
    return SODReport(
        space=space,
        names=names,
        objects=objects,
        pairwise=pairwise,
        tilting=tilting,
        blocks=[t.end_dim for t in tilting],
        block_detail=block_detail,
        ranks=[rank_of(o) for o in objects],
        ok=first is None,
        first_violation=first,
        generation_note=_GENERATION_NOTE,
        notes=regime_notes(space),
    )


class StackWindowReport(Record):
    _fields = ("window", "ok", "first_violation")
    _defaults = {"first_violation": None}


def stack_hom_dims(space, a, b):
    """Graded Hom between twists on the resolving stack.

    On the stack every twist is invertible, so the full twist rule
    applies without the invertibility restriction of the coarse space.
    """
    return tuple(
        cone_cohomology_dim(space, b - a, i) for i in range(space.n + 1)
    )


def stack_exceptional_check(space, lo, hi):
    """Numeric exceptionality of the twist window O(lo), ..., O(hi) on the stack.

    Each twist must have End = k and no higher self-extensions, and all
    backwards Homs must vanish.  Stack Hom depends only on the twist
    difference, so End(O(lo)) stands for every twist of the window and
    Hom*(O(lo+d), O(lo)) for every backward pair at distance d: each is
    read once, and the first violation is the one a search over every
    twist and then every pair (b, a), b increasing and a from lo up,
    meets first, at the smallest bad d.
    """
    first = None
    for d in range(hi - lo + 1):
        dims = stack_hom_dims(space, lo + d, lo)
        if d == 0:
            if dims[0] != 1 or any(dims[1:]):
                first = "O(%d) is not exceptional: %s" % (lo, dims)
        elif any(dims):
            first = "Hom*(O(%d), O(%d)) = %s is nonzero" % (lo + d, lo, dims)
        if first is not None:
            break
    return StackWindowReport((lo, hi), first is None, first)

