# The determinant zoo on one fiber: closed forms against the lattice-zeta
# continuation oracle, which knows nothing about eta or theta functions.
# The fiber is given on a basis far from the fundamental domain F; the closed
# forms are taken on the basis of the same lattice with tau in F, and the
# oracle on the basis as given.

import math

from uplane import (
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    Periods,
    det_dirichlet_annulus,
    det_dirichlet_flat,
    det_prime_laplacian,
    det_twisted,
    epstein_zeta_logdet,
    quillen_norm_sigma_hat,
    reduce_periods,
)
from uplane.spectral import CONTINUATION_OVER_CLOSED_FORM


def fiber(tau, two_omega=1.0):
    w = two_omega / 2.0
    return Periods(omega=w, omega_prime=tau * w, tau=tau)


p = fiber(2.3 + 0.17j, 1.0 + 0.5j)
red, matrix = reduce_periods(p)
print(f"fiber: tau = {p.tau}, 2*omega = {2 * p.omega}")
print(f"in F:  tau = {red.tau:.6f}, 2*omega = {2 * red.omega:.6f}, matrix (a, b, c, d) = {matrix}")
print()
print("closed forms (lattice values on the reduced basis, spin structures moved with it):")
print(f"  det' Laplacian          = {det_prime_laplacian(red):.12f}")
for nu in EVEN_STRUCTURES:
    print(f"  det twisted ({nu.nu1},{nu.nu2})       = {det_twisted(nu.moved(*matrix), red):.12f}")
print(f"  det Dirichlet (annulus) = {det_dirichlet_annulus(red):.12f}")
print("flat-metric values (they depend on the basis: taken on the one given):")
print(f"  det Dirichlet (flat)    = {det_dirichlet_flat(p):.12f}")
print(f"  ||sigma|| flat metric   = {quillen_norm_sigma_hat(p):.12f}")

print()
print("continuation oracle on the basis as given (incomplete-gamma split of the eigenvalue zeta):")
for nu in EVEN_STRUCTURES:
    oracle = math.exp(epstein_zeta_logdet(nu, p.tau, p.omega))
    closed = det_twisted(nu.moved(*matrix), red)
    print(
        f"  ({nu.nu1},{nu.nu2}): oracle {oracle:.12f}  closed {closed:.12f}"
        f"  rel err {abs(oracle - closed) / closed:.1e}"
    )
oracle = math.exp(epstein_zeta_logdet(ODD_STRUCTURE, p.tau, p.omega))
closed = det_prime_laplacian(red)
print(
    f"  (1,1): oracle {oracle:.12f} = (2 pi)^2 x {oracle / CONTINUATION_OVER_CLOSED_FORM:.12f}"
)
print(
    f"         vs closed form {closed:.12f}; the exact (2 pi)^2 offset is the"
)
print("         Kronecker-limit constant the printed closed form omits.")
