"""Euler-form oracle for Hom queries, from binomial counts alone.

chi(A, B) = sum_i (-1)^i dim Hom^i(A, B) is additive along short exact
sequences in each argument.  The kernel bundle F_e sits in
0 -> F_e -> O^h -> OZ(e) -> 0 with h = C(e+n-1, n-1), so its class is
h[O] - [OZ(e)], and chi of any query below expands into atom terms:

    chi(F_e, F_f) = h h' chi(O,O) - h chi(O,OZ(f)) - h' chi(OZ(e),O)
                    + chi(OZ(e),OZ(f)).

Each atom term is a count of monomials on the cone X = P(1^n, m) or on
its section Z = P^{n-1}, computed here without calling conetilt:

* chi(O(a), O(b))  = chi(X, O(b-a)) for invertible O(a) (a = 0 mod m);
* chi(O(a), OZ(f)) = chi(Z, O(f-a));
* chi(OZ(e), OZ(f)) = chi(Z, O(f-e)) - chi(Z, O(f-e+m));
* chi(OZ(e), O(b)) = (-1)^n chi(Z, O(e-(n+m)-b)) for invertible O(b).

A term out of these domains has no oracle value, and neither has the
query that needs it.
"""

from __future__ import annotations

from math import comb


def cone_sections(n, m, d):
    """dim H^0(X, O(d)): monomials of weighted degree d in n+1 variables."""
    if d < 0:
        return 0
    return sum(comb(d - j * m + n - 1, n - 1) for j in range(d // m + 1))


def chi_cone(n, m, d):
    """chi(X, O(d)); H^n(X, O(d)) is dual to H^0(X, O(-d-(n+m)))."""
    return cone_sections(n, m, d) + (-1) ** n * cone_sections(n, m, -d - n - m)


def chi_section(n, k):
    """chi(Z, O(k)) on Z = P^{n-1}, from h^0 and h^{n-1}."""
    top = comb(-k - 1, n - 1) if -k - 1 >= n - 1 else 0
    return (comb(k + n - 1, n - 1) if k >= 0 else 0) + (-1) ** (n - 1) * top


def chi_atoms(n, m, a, b):
    """chi between atom specs ("O", d) / ("OZ", d); None out of domain."""
    (ka, ta), (kb, tb) = a, b
    if ka == "O" and kb == "O":
        return chi_cone(n, m, tb - ta) if ta % m == 0 else None
    if ka == "O":
        return chi_section(n, tb - ta)
    if kb == "OZ":
        return chi_section(n, tb - ta) - chi_section(n, tb - ta + m)
    if tb % m:
        return None
    return (-1) ** n * chi_section(n, ta - n - m - tb)


def atom_class(n, spec):
    """The class of a spec as [(coefficient, atom spec)]."""
    kind, t = spec
    if kind == "F":
        return [(comb(t + n - 1, n - 1), ("O", 0)), (-1, ("OZ", t))]
    return [(1, spec)]


def chi(n, m, src, tgt):
    """The Euler form chi(src, tgt), or None when no atom rule covers it."""
    total = 0
    for ca, a in atom_class(n, src):
        for cb, b in atom_class(n, tgt):
            term = chi_atoms(n, m, a, b)
            if term is None:
                return None
            total += ca * cb * term
    return total


def alternating_sum(dims):
    return sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
