"""Graded Hom(F_e, F_f) of canonical kernel bundles in closed form.

A test-side oracle that shares no premise with the engine's chase: it
imports only `math`, nothing from conetilt.  It counts the
hypercohomology of the three-term complex of sums of line bundles that
Hom(F_e, F_f) is on the weighted projective stack [(A^{n+1} - 0) / G_m]
over X = P(1^n, m), with F_e = ker(O^h + O(e-m) -> O(e)).  A line
bundle there has only H^0 and H^n, so the spectral sequence
degenerates at E2 for n >= 2:

* Hom^0 = c(f-e) + c(f) c(m-e) - c(m-e+f), with c(d) = C(d+n-1, n-1)
  (0 for d < 0) the dimension of H^0(Z, O(d)) on Z = P^{n-1};
* the only row-n term is T = c(e-f-n), in total degree n - 1;
* the Euler form chi fixes Hom^1, and every other degree is 0.

chi = c(e)c(f) - c(e) chi_Z(f) + c(f) chi_Z(m-e) + chi_Z(f-e) - chi_Z(f-e+m)
is the Euler form of 0 -> F_e -> O^c(e) -> OZ(e) -> 0 against the same
sequence of F_f, with chi_Z the Hilbert polynomial of P^{n-1}.
"""

from math import comb, factorial, prod


def _c(n, d):
    """dim H^0(P^{n-1}, O(d))."""
    return comb(d + n - 1, n - 1) if d >= 0 else 0


def _chi_z(n, d):
    """The Hilbert polynomial of P^{n-1} at d: C(d+n-1, n-1) as a polynomial."""
    return prod(range(d + 1, d + n)) // factorial(n - 1)


def kernel_pair_dims(n, m, e, f):
    """[dim Hom^i(F_e, F_f) for i = 0..n] on P(1^n, m), 0 < e, f < m."""
    def c(d):
        return _c(n, d)

    def chi_z(d):
        return _chi_z(n, d)

    hom0 = c(f - e) + c(f) * c(m - e) - c(m - e + f)
    top = c(e - f - n)
    chi = (
        c(e) * c(f) - c(e) * chi_z(f) + c(f) * chi_z(m - e)
        + chi_z(f - e) - chi_z(f - e + m)
    )
    dims = [0] * (n + 1)
    dims[0] += hom0
    dims[n - 1] += top
    dims[1] += hom0 + (-1) ** (n - 1) * top - chi
    return dims
