"""Combinatorics of the weighted projective cone P(1,...,1,m).

The cone X has homogeneous coordinates x0,...,x_{n-1} of weight 1 and a
last coordinate x_n of weight m, so dim X = n and X is the projective
cone over P^{n-1} embedded by O(m).  The hyperplane section at infinity
Z = {x_n = 0} is a P^{n-1} sitting in |O_X(m)|, with normal bundle of
degree m.  The canonical twist of X is -(n+m).

Cohomology of a twist O_X(d) is counted in closed form and modelled by
monomial bases, which are listed only on request:

* H^0(X, O(d)) is spanned by the monomials with nonnegative exponents
  and weighted degree d;
* H^n(X, O(d)) is spanned (via local cohomology at the irrelevant
  ideal) by the Laurent monomials with every exponent <= -1 and
  weighted degree d;
* the intermediate cohomology of any twist vanishes.  This standard
  fact about weighted projective spaces is encoded as a rule, not
  recomputed.

The counts (cone_cohomology_dim, section_cohomology_dim) are closed
forms, so a twist of any size is answered at once.  All bases are
ordered lexicographically on exponent vectors, and every downstream
matrix depends on that order, so it is part of the contract.

The value types of the engine (ConeSpace here, the atoms and sheaf
objects elsewhere) derive from FrozenValue and its records from
Record: plain classes with the constructor, equality and repr of a
dataclass, which keep `dataclasses` (and the `inspect` it imports) out
of the import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add
from typing import NamedTuple


class Record:
    """A plain record whose fields are the names in `_fields`, in order.

    Like a dataclass it takes its fields by position or keyword, with
    the defaults in `_defaults` (a list default is copied for each
    record), compares field by field with records of its own class, is
    unhashable, and shows its fields in its repr.  A missing, unknown or
    repeated field is a TypeError.
    """

    _fields = ()
    _defaults = {}
    __hash__ = None

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields, got %d" % (name, len(fields), len(args)))
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError("%s has no field %r" % (name, key))
            if key in values:
                raise TypeError("%s got field %r twice" % (name, key))
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError("%s is missing field %r" % (name, key))
                default = self._defaults[key]
                values[key] = list(default) if type(default) is list else default
            setattr(self, key, values[key])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )


class FrozenValue(Record):
    """A record fixed at construction, hashed once, usable as a cache key.

    A subclass's __init__ writes its fields into `__dict__`, and `_hash`,
    the hash of the tuple of their values in `_fields` order.  Assigning
    or deleting a field raises AttributeError.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__  # the fields and their hash

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):  # rebuilt from its fields, so the hash is this process's
        return type(self), tuple(getattr(self, f) for f in self._fields)


MAX_N = 10**6  # every answer is n + 1 degrees: a larger n is refused up front


class ConeSpace(FrozenValue):
    """The cone P(1^n, m): n weight-one variables and one of weight m."""

    _fields = ("n", "m")

    def __init__(self, n, m):
        if n < 2:
            raise ValueError("need n >= 2 weight-one variables, got %d" % n)
        if n > MAX_N:
            raise ValueError("need n <= MAX_N = %d, got %d" % (MAX_N, n))
        if m < 1:
            raise ValueError("cone variable weight must be >= 1, got %d" % m)
        attrs = self.__dict__
        attrs["n"], attrs["m"] = n, m
        attrs["_hash"] = hash((n, m))

    @property
    def dim(self):
        return self.n

    @property
    def weights(self):
        return (1,) * self.n + (self.m,)

    @property
    def canonical_degree(self):
        return -(self.n + self.m)

    def __str__(self):
        return "P(%s)" % ",".join(str(w) for w in self.weights)


def make_space(n, m):
    """Construct P(1^n, m); rejects n outside 2..MAX_N or m < 1."""
    return ConeSpace(n, m)


def regime_notes(space):
    """Report notes for spaces outside the tested range n = 2, 3."""
    if space.n > 3:
        return ["dimension %d is an untested regime for this engine" % space.n]
    return []


_tuple_new = tuple.__new__


class Monomial(NamedTuple):
    """A (Laurent) monomial, stored as its exponent vector.

    Length n+1 vectors live on the cone, length n vectors on the
    section Z.  H^0 bases have all exponents >= 0; top-cohomology bases
    have all exponents <= -1.

    As a one-field named tuple it hashes, compares and orders in C, by
    the lexicographic order of the exponent vectors.  As a tuple it is
    (exps,), so it never equals its bare exponent vector.
    """

    exps: tuple

    def __mul__(self, other):
        a, b = self.exps, other.exps
        if len(a) != len(b):
            raise ValueError("cannot multiply monomials of different lengths")
        # tuple.__new__ skips the generated Python-level __new__
        return _tuple_new(Monomial, (tuple(map(add, a, b)),))

    def __str__(self):
        parts = []
        for i, e in enumerate(self.exps):
            if e == 0:
                continue
            parts.append("x%d" % i if e == 1 else "x%d^%d" % (i, e))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return "Monomial(%s)" % (self,)


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def weighted_monomials(space, d):
    """Monomial basis of H^0(X, O(d)), in lexicographic order."""
    if d < 0:
        return ()
    mons = []
    for j in range(d // space.m + 1):
        for head in _compositions(d - j * space.m, space.n):
            mons.append(Monomial(head + (j,)))
    return tuple(sorted(mons))  # the x_n exponent was iterated first


@lru_cache(maxsize=None)
def laurent_top_basis(space, d):
    """Laurent monomial basis of H^n(X, O(d)): all exponents <= -1.

    Substituting e_i = -1 - b_i identifies this basis with the H^0
    basis at degree -d-(n+m), so the two counts always agree.
    """
    dual = weighted_monomials(space, -d - space.n - space.m)
    # negation reverses the lexicographic order
    return tuple(Monomial(tuple(-1 - b for b in mon.exps)) for mon in reversed(dual))


@lru_cache(maxsize=None)
def section_monomials(space, e):
    """Monomial basis of H^0(Z, O(e)) on the section Z = P^{n-1}."""
    if e < 0:
        return ()
    return tuple(map(Monomial, _compositions(e, space.n)))  # already lexicographic


@lru_cache(maxsize=None)
def section_laurent_basis(space, e):
    """Laurent basis of H^{n-1}(Z, O(e)): all n exponents <= -1."""
    dual = section_monomials(space, -e - space.n)
    return tuple(Monomial(tuple(-1 - b for b in mon.exps)) for mon in reversed(dual))


def cone_cohomology_dim(space, d, i):
    """dim H^i(X, O_X(d)); rejects i outside [0, n]."""
    if not 0 <= i <= space.n:
        raise ValueError("cohomological degree %d outside [0, %d]" % (i, space.n))
    if i == space.n:
        d = -d - space.n - space.m  # Serre duality: the dual twist in degree 0
    elif i != 0:
        return 0
    if d < 0:
        return 0
    # count, never list: with d = qm + r, x_n^(q-k) times the degree r + km
    # monomials in n weight-one variables, summed over k = 0..q.  That sum
    # S(q) is a polynomial of degree n in q, so its first n+1 values fix
    # it and Newton's forward form gives S(q) in integers; a small q needs
    # only its own q+1 terms.
    n1, m = space.n - 1, space.m
    q, r = divmod(d, m)
    terms = min(q, n1 + 1) + 1
    values = list(accumulate(comb(r + k * m + n1, n1) for k in range(terms)))
    if q <= n1 + 1:
        return values[q]
    total = 0
    for t in range(n1 + 2):
        total += values[0] * comb(q, t)
        values = [b - a for a, b in zip(values, values[1:])]
    return total


def section_cohomology_dim(space, e, i):
    """dim H^i(Z, O_Z(e)) for the section Z = P^{n-1}; rejects i outside [0, n-1]."""
    if not 0 <= i <= space.n - 1:
        raise ValueError(
            "cohomological degree %d outside [0, %d]" % (i, space.n - 1)
        )
    n1 = space.n - 1
    if i == 0:
        return comb(e + n1, n1) if e >= 0 else 0
    if i == n1:
        return comb(-e - 1, n1) if -e - 1 >= n1 else 0
    return 0
