"""The engine's kernel pairs against the closed form of tests/closed_form.py,
which shares no premise with the chase."""

from closed_form import kernel_pair_dims

from conetilt.cone import make_space
from conetilt.objects import hom_objects, kernel_bundle
from conetilt.rules import PresentationMismatch

GRID = [(n, m) for n in range(2, 9) for m in range(2, 14)]
LARGE = [(3, 60), (10, 12), (20, 20)]


def _pairs(n, m):
    space = make_space(n, m)
    bundles = [kernel_bundle(space, e) for e in range(1, m)]
    return space, [(K, Kp) for K in bundles for Kp in bundles]


def test_the_closed_form_matches_every_answered_kernel_pair():
    """Every degree of every answered canonical pair of n = 2..8, m = 2..13
    and of three larger cones; the refused pairs are the n = 2 gap."""
    answered, refused = {}, []
    for n, m in GRID + LARGE:
        space, pairs = _pairs(n, m)
        for K, Kp in pairs:
            try:
                dims = hom_objects(space, K, Kp)
            except PresentationMismatch:
                refused.append((n, m, K.e, Kp.e))
                continue
            assert list(dims) == kernel_pair_dims(n, m, K.e, Kp.e), (n, m, K.e, Kp.e)
            answered[n, m] = answered.get((n, m), 0) + 1
    assert sum(answered[cell] for cell in GRID) == 4330
    assert sum(answered[cell] for cell in LARGE) == 59**2 + 11**2 + 19**2
    gap = [(2, m, e, f) for m in range(2, 14) for e in range(1, m) for f in range(1, m)
           if e - f >= 2]
    assert len(refused) == 220 and sorted(refused) == sorted(gap)


def test_the_closed_form_exercises_its_top_term():
    """T = c(e-f-n) in degree n - 1 is nonzero on some pair of every
    n = 3..8 in the grid and on every n = 2 gap pair the engine refuses,
    where it is Hom^1; Hom^n is 0 throughout."""
    tops = set()
    for n, m in GRID:
        for e in range(1, m):
            for f in range(1, m):
                dims = kernel_pair_dims(n, m, e, f)
                assert dims[n] == 0
                if n == 2 and e - f >= 2:
                    assert dims[1] > 0
                elif dims[n - 1]:
                    tops.add(n)
    assert tops == set(range(3, 9))
